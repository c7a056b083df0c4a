//! Runs every workload at its smallest sizes, untraced and traced, with
//! every output check on.

use std::process::Command;

#[test]
fn smoke_mode_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        4,
        "one line per workload plus the total:\n{stdout}"
    );
    for line in &lines {
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"failed\": 0"), "{line}");
    }
    for name in [
        "session.sender_ms_per_mib",
        "realnet.connect_ms",
        "digest.md5_ms_per_mib",
    ] {
        assert!(lines[0].contains(name), "{name} missing from {}", lines[0]);
    }
}

#[test]
fn rejects_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
