//! Kernel probes: the hot leaf functions timed on inputs shaped like the
//! workloads', each first checked against a computation made apart
//! from the program.

use std::time::Instant;

use lsl_digest::{md5, Md5};
use lsl_netsim::NodeId;
use lsl_session::endpoint::payload_chunk;
use lsl_session::{
    expected_block_digest_bounded, Hop, LslHeader, SessionId, StripeReq, HEADER_FLAG_DIGEST,
    RESUME_BLOCK,
};

use crate::report::{median, Checks, Metrics};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// The payload generator, written out here: byte `i` of every stream is
/// `(131·i + 7) mod 251`.
fn pattern(offset: u64, len: usize) -> Vec<u8> {
    (offset..offset + len as u64)
        .map(|i| ((i as u128 * 131 + 7) % 251) as u8)
        .collect()
}

/// The RFC 1321 appendix A.5 test suite.
const RFC1321: [(&str, &str); 7] = [
    ("", "d41d8cd98f00b204e9800998ecf8427e"),
    ("a", "0cc175b9c0f1b6a831c399e269772661"),
    ("abc", "900150983cd24fb0d6963f7d28e17f72"),
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (
        "abcdefghijklmnopqrstuvwxyz",
        "c3fcd3d76192e4007dfb496cca67e13b",
    ),
    (
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f",
    ),
    (
        "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a",
    ),
];

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Check the kernels against the references.
pub fn verify(checks: &mut Checks) {
    for (input, want) in RFC1321 {
        let one_shot = hex(&md5(input.as_bytes()));
        // Byte-at-a-time updates cross every block boundary.
        let mut h = Md5::new();
        for b in input.as_bytes() {
            h.update(std::slice::from_ref(b));
        }
        let incremental = hex(&h.finalize());
        checks.check(one_shot == want && incremental == want, || {
            format!("md5({input:?}) = {one_shot} / {incremental}, RFC 1321 says {want}")
        });
    }
    // Offsets on both sides of the generator's 251-byte period and far
    // into a long stream.
    for (offset, len) in [
        (0u64, 1000usize),
        (250, 7),
        (251 * 1000 + 3, 4096),
        (1 << 33, 300),
    ] {
        checks.check(
            payload_chunk(offset, len)[..] == pattern(offset, len)[..],
            || format!("payload_chunk({offset}, {len}) differs from the generator"),
        );
    }
    let total = 3 * RESUME_BLOCK + 1234;
    for block in 0..4 {
        let start = block * RESUME_BLOCK;
        let len = RESUME_BLOCK.min(total - start) as usize;
        let want = md5(&pattern(start, len));
        checks.check(expected_block_digest_bounded(block, total) == want, || {
            format!(
                "expected_block_digest_bounded({block}, {total}) differs from MD5 of the generator"
            )
        });
    }
}

/// Median seconds of `reps` runs of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut t)
}

/// A header shaped like a via-depot session's: digest flag, one hop
/// left after the depot, a stripe request.
fn header() -> LslHeader {
    LslHeader {
        session: SessionId(0x57a1_0000_1234),
        flags: HEADER_FLAG_DIGEST,
        length: 4 * MIB as u64,
        resume: None,
        stripe: Some(StripeReq {
            start_block: 16,
            end_block: 18,
        }),
        route: vec![Hop::new(NodeId(3), 7001), Hop::new(NodeId(2), 5001)],
    }
}

/// Time the kernels; `smoke` shrinks the inputs.
pub fn probe(checks: &mut Checks, smoke: bool, m: &mut Metrics) {
    let mib = if smoke { 1 } else { 16 };
    let data = pattern(0, mib * MIB);

    let md5_s = timed(3, || {
        let mut h = Md5::new();
        for block in data.chunks(64 * KIB) {
            h.update(block);
        }
        std::hint::black_box(h.finalize());
    });
    m.insert(
        "digest.md5_ms_per_mib",
        (md5_s * 1e3 / mib as f64, "ms/MiB"),
    );

    let blocks = (mib * MIB) as u64 / RESUME_BLOCK;
    let total = blocks * RESUME_BLOCK;
    let verify_s = timed(3, || {
        for b in 0..blocks {
            std::hint::black_box(expected_block_digest_bounded(b, total));
        }
    });
    m.insert(
        "digest.block_verify_us",
        (verify_s * 1e6 / blocks as f64, "us"),
    );

    let chunk = 256 * KIB;
    let payload_s = timed(3, || {
        for i in 0..(mib * MIB / chunk) as u64 {
            std::hint::black_box(payload_chunk(i * chunk as u64, chunk));
        }
    });
    m.insert(
        "session.payload_ms_per_mib",
        (payload_s * 1e3 / mib as f64, "ms/MiB"),
    );

    let h = header();
    let wire = h.encode().expect("a two-hop header encodes");
    let decoded = LslHeader::decode(&wire);
    checks.check(
        matches!(&decoded, Ok(Some((back, n))) if *back == h && *n == wire.len()),
        || format!("header round trip gave {decoded:?}"),
    );
    let n = if smoke { 1_000 } else { 100_000 };
    let header_s = timed(3, || {
        for _ in 0..n {
            let wire = std::hint::black_box(&h).encode().expect("encodes");
            std::hint::black_box(LslHeader::decode(&wire).ok());
        }
    });
    m.insert(
        "session.header_roundtrip_ns",
        (header_s * 1e9 / n as f64, "ns"),
    );
}
