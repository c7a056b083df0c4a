//! `loopback`: the real `lsd` on 127.0.0.1. A client thread opens each
//! session through one `LsdServer` to an `LslListener` that this thread
//! serves, one session at a time.

use std::io::{self, Write};
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsl_realnet::{DepotHandle, LsdServer, LslListener, LslStream};
use lsl_session::SessionId;

use crate::affinity;
use crate::report::Checks;
use crate::sim::{mix, Session};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
/// Size of the many small sessions, the latency sample.
const SMALL: usize = 64 * KIB;
/// The digest trailer every session carries after its payload.
const TRAILER: u64 = 16;

/// One session of the fixed list: payload bytes `[offset, offset+len)`
/// of the seeded buffer.
#[derive(Clone, Copy, Debug)]
struct Op {
    id: u128,
    offset: usize,
    len: usize,
}

/// What the client thread measured for one session.
struct ClientTimes {
    connect_ns: u64,
    write_ns: u64,
    result: io::Result<()>,
}

/// Per-layer totals of the loopback sessions.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub sessions: u64,
    pub bytes: u64,
    pub connect_ns: u64,
    pub accept_ns: u64,
    pub write_ns: u64,
    pub read_ns: u64,
    pub relayed: u64,
}

pub struct Loopback {
    payload: Arc<Vec<u8>>,
    ops: Vec<Op>,
    depot: Option<DepotHandle>,
    listener: LslListener,
    jobs: Option<Sender<Op>>,
    replies: Receiver<ClientTimes>,
    client: Option<JoinHandle<()>>,
    /// The CPUs this thread could use before set-up pinned it; drop
    /// gives them back, so every set-up of a run places its threads the
    /// same way.
    cpus: Vec<usize>,
}

/// The seeded payload: xorshift64* bytes.
fn generate(seed: u64, len: usize) -> Vec<u8> {
    let mut x = mix(seed, 0) | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let word = x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        let take = word.len().min(len - out.len());
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// Round make-up: `small` sessions of 64 KiB, then `large` sessions of
/// `large_len` bytes.
fn shape(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (4, 1, MIB)
    } else {
        (200, 2, 32 * MIB)
    }
}

/// Client thread: run each job's session through the depot to the sink.
fn client_loop(
    depot: SocketAddr,
    sink: SocketAddr,
    payload: Arc<Vec<u8>>,
    jobs: Receiver<Op>,
    replies: Sender<ClientTimes>,
) {
    for op in jobs {
        let t0 = Instant::now();
        let mut connect_ns = 0;
        let mut write_ns = 0;
        let result = (|| {
            let mut s =
                LslStream::connect(SessionId(op.id), &[depot], sink, op.len as u64, true, true)?;
            connect_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            s.write_all(&payload[op.offset..op.offset + op.len])?;
            write_ns = t1.elapsed().as_nanos() as u64;
            s.finish()
        })();
        let times = ClientTimes {
            connect_ns,
            write_ns,
            result,
        };
        if replies.send(times).is_err() {
            break;
        }
    }
}

pub fn setup(seed: u64, smoke: bool, checks: &mut Checks) -> io::Result<Loopback> {
    let (small, large, large_len) = shape(smoke);
    let payload = Arc::new(generate(seed, large_len));
    let mut ops = Vec::new();
    for i in 0..small {
        let offset = (mix(seed, i as u64) % (large_len - SMALL) as u64) as usize;
        ops.push(Op {
            id: mix(seed, i as u64) as u128,
            offset,
            len: SMALL,
        });
    }
    for i in small..small + large {
        ops.push(Op {
            id: mix(seed, i as u64) as u128,
            offset: 0,
            len: large_len,
        });
    }

    // Every thread of the workload runs on the first allowed CPU: this
    // one (the sink), and `lsd`'s and the client's, which inherit the
    // placement. With the client on a second CPU, the 64 KiB p95 moved
    // between 1.0 and 1.8 ms from run to run (quartile spread 0.20 over
    // ten seeds), as load from outside hit one CPU or the other.
    let cpus = affinity::allowed();
    if let Some(&c) = cpus.first() {
        affinity::pin(&[c]);
    }
    let localhost = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
    let depot = LsdServer::spawn(localhost)?;
    let listener = LslListener::bind(localhost)?;
    let (jobs, job_rx) = channel();
    let (reply_tx, replies) = channel();
    let (depot_addr, sink_addr, buf) = (depot.addr(), listener.local_addr()?, Arc::clone(&payload));
    let client = std::thread::Builder::new()
        .name("perfbench-client".into())
        .spawn(move || client_loop(depot_addr, sink_addr, buf, job_rx, reply_tx))?;
    let lb = Loopback {
        payload,
        ops,
        depot: Some(depot),
        listener,
        jobs: Some(jobs),
        replies,
        client: Some(client),
        cpus,
    };
    let warm = lb.ops[0];
    lb.session(warm, checks, &mut Tally::default());
    Ok(lb)
}

impl Drop for Loopback {
    fn drop(&mut self) {
        // Closing the job channel ends the client thread.
        drop(self.jobs.take());
        if let Some(c) = self.client.take() {
            let _ = c.join();
        }
        if let Some(d) = self.depot.take() {
            d.shutdown();
        }
        if !self.cpus.is_empty() {
            affinity::pin(&self.cpus);
        }
    }
}

impl Loopback {
    /// One round: every session of the fixed list, one at a time.
    pub fn round(
        &self,
        checks: &mut Checks,
        sessions: &mut Vec<Session>,
        tally: &mut Tally,
        pass: &mut u32,
    ) {
        for &op in &self.ops {
            if let Some(s) = self.session(op, checks, tally) {
                sessions.push(Session { pass: *pass, ..s });
            }
        }
        *pass += 1;
    }

    fn session(&self, op: Op, checks: &mut Checks, tally: &mut Tally) -> Option<Session> {
        let depot = self.depot.as_ref().expect("depot runs until drop");
        let counters = depot.counters();
        let sessions_before = counters.sessions.load(Ordering::SeqCst);
        let relayed_before = counters.bytes_relayed.load(Ordering::SeqCst);
        checks.attempted += 1;

        let t0 = Instant::now();
        let jobs = self.jobs.as_ref().expect("client runs until drop");
        if jobs.send(op).is_err() {
            checks.failed += 1;
            return None;
        }
        let accepted = self.listener.accept();
        let accept_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let read = accepted.and_then(|s| s.read_all());
        let read_ns = t1.elapsed().as_nanos() as u64;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let client = self.replies.recv();

        let what = || format!("loopback session {:x} of {} B", op.id, op.len);
        let (data, digest_ok) = match (read, client) {
            (
                Ok(r),
                Ok(ClientTimes {
                    result: Ok(()),
                    connect_ns,
                    write_ns,
                }),
            ) => {
                tally.connect_ns += connect_ns;
                tally.write_ns += write_ns;
                r
            }
            (read, client) => {
                checks.failed += 1;
                let client = client.map(|c| c.result);
                eprintln!(
                    "{}: failed: sink {:?} client {client:?}",
                    what(),
                    read.map(|r| r.1)
                );
                return None;
            }
        };
        checks.check(
            data[..] == self.payload[op.offset..op.offset + op.len],
            || format!("{}: sink bytes differ from the payload", what()),
        );
        checks.check(digest_ok == Some(true), || {
            format!("{}: digest {digest_ok:?}", what())
        });

        // The depot bumps its counters as each relay thread ends.
        let want = relayed_before + op.len as u64 + TRAILER;
        let deadline = Instant::now() + Duration::from_secs(10);
        while (counters.sessions.load(Ordering::SeqCst) < sessions_before + 1
            || counters.bytes_relayed.load(Ordering::SeqCst) < want)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        let sessions_after = counters.sessions.load(Ordering::SeqCst);
        let relayed_after = counters.bytes_relayed.load(Ordering::SeqCst);
        checks.check(sessions_after == sessions_before + 1, || {
            format!(
                "{}: depot sessions went {sessions_before} -> {sessions_after}",
                what()
            )
        });
        checks.check(relayed_after >= want, || {
            format!(
                "{}: depot relayed {} B",
                what(),
                relayed_after - relayed_before
            )
        });

        tally.sessions += 1;
        tally.bytes += op.len as u64;
        tally.accept_ns += accept_ns;
        tally.read_ns += read_ns;
        tally.relayed += relayed_after - relayed_before;
        Some(Session {
            bytes: op.len as u64,
            wall_ns,
            clock_ns: wall_ns,
            pass: 0,
            latency: op.len == SMALL,
            large: op.len > SMALL,
        })
    }
}
