//! Command-line contract of the `nfa_tool` binary: malformed arguments end
//! in a usage error (exit 2), never a panic.

use std::process::Command;

fn nfa_tool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nfa_tool"))
        .args(args)
        .output()
        .expect("nfa_tool runs")
}

#[test]
fn count_rejects_a_delta_outside_the_unit_interval_with_a_usage_error() {
    for delta in ["1.5", "1", "0", "-0.2", "NaN"] {
        let out = nfa_tool(&[
            "count", "--regex", "(0|1)*1", "--length", "4", "--delta", delta,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--delta {delta}: {stderr}");
        assert!(
            stderr.contains("--delta must be in (0, 1)"),
            "--delta {delta}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--delta {delta}: {stderr}");
    }
    // Inside the interval the count is answered.
    let out = nfa_tool(&[
        "count", "--regex", "(0|1)*1", "--length", "4", "--delta", "0.5",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
}
