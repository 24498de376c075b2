//! The fixture corpus: every lint must fire on its deliberately-bad tree
//! and stay quiet on the matching good tree. A lint that cannot produce
//! both outcomes is vacuous and these tests are what catch that.

use lsc_analyze::report::Report;
use lsc_analyze::{run, Config};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn analyze(fixture: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    assert!(root.is_dir(), "missing fixture tree {}", root.display());
    run(&Config::for_root(root))
}

/// Lint name -> number of findings.
fn tally(report: &Report) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for f in &report.findings {
        *out.entry(f.lint.clone()).or_insert(0) += 1;
    }
    out
}

fn assert_quiet(fixture: &str) -> Report {
    let report = analyze(fixture);
    assert!(
        report.findings.is_empty(),
        "{fixture} should be clean but produced:\n{}",
        report.render_text()
    );
    report
}

// -- lock-order -------------------------------------------------------------

#[test]
fn lock_cycle_fires_on_bad() {
    let report = analyze("lock_cycle_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        ["lock-order"],
        "unexpected lints:\n{}",
        report.render_text()
    );
    // Both edges of the a <-> b cycle are reported, one of them created
    // by call-graph propagation (`backward` holds b while calling locks_a).
    assert_eq!(t["lock-order"], 2, "{}", report.render_text());
}

#[test]
fn lock_cycle_quiet_on_good() {
    assert_quiet("lock_cycle_good");
}

// -- lock-across-io ---------------------------------------------------------

#[test]
fn lock_across_io_fires_on_bad() {
    let report = analyze("lock_io_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        ["lock-across-io"],
        "unexpected lints:\n{}",
        report.render_text()
    );
    // One direct hit, one through the same-impl helper call, one through
    // the guarded connection handed to a closure.
    assert_eq!(t["lock-across-io"], 3, "{}", report.render_text());
}

#[test]
fn lock_across_io_quiet_on_good() {
    assert_quiet("lock_io_good");
}

// -- determinism ------------------------------------------------------------

#[test]
fn determinism_fires_on_bad() {
    let report = analyze("determinism_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        [
            "nondeterministic-iteration",
            "time-dependence",
            "unseeded-randomness"
        ],
        "unexpected lints:\n{}",
        report.render_text()
    );
    // Field access, for-loop, and local-binding iteration all resolve.
    assert_eq!(
        t["nondeterministic-iteration"],
        3,
        "{}",
        report.render_text()
    );
}

#[test]
fn determinism_quiet_on_good() {
    // The good tree holds a documented suppression on a hash-keys
    // iteration that feeds a sort; it must count as used, not flagged.
    let report = assert_quiet("determinism_good");
    assert_eq!(report.suppressed, 1);
}

// -- unrouted-io ------------------------------------------------------------

#[test]
fn unrouted_io_fires_on_bad() {
    let report = analyze("faults_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        ["unrouted-io"],
        "unexpected lints:\n{}",
        report.render_text()
    );
    assert_eq!(t["unrouted-io"], 2, "{}", report.render_text());
}

#[test]
fn unrouted_io_quiet_on_good() {
    // `persist` routes through a fault plan; `connect` carries a
    // documented suppression.
    let report = assert_quiet("faults_good");
    assert_eq!(report.suppressed, 1);
}

// -- spec drift -------------------------------------------------------------

#[test]
fn drift_fires_on_bad() {
    let report = analyze("drift_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        ["bench-id-drift", "snapshot-flag-drift", "wire-verb-drift"],
        "unexpected lints:\n{}",
        report.render_text()
    );
    // ping + mystery-code doc-only, bye + internal code-only.
    assert_eq!(t["wire-verb-drift"], 4, "{}", report.render_text());
    // doc bit 6 has no const, FLAG_SKETCH bit 5 is undocumented,
    // FLAG_DUP reuses bit 1.
    assert_eq!(t["snapshot-flag-drift"], 3, "{}", report.render_text());
    // uncommitted BENCH_serve.json, wrong E77 pairing, unreferenced e21.
    assert_eq!(t["bench-id-drift"], 3, "{}", report.render_text());
}

#[test]
fn drift_quiet_on_good() {
    assert_quiet("drift_good");
}

// -- hygiene ----------------------------------------------------------------

#[test]
fn hygiene_fires_on_bad() {
    let report = analyze("hygiene_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        ["allow-without-reason", "missing-forbid-unsafe"],
        "unexpected lints:\n{}",
        report.render_text()
    );
}

#[test]
fn hygiene_quiet_on_good() {
    assert_quiet("hygiene_good");
}

// -- the suppression grammar itself -----------------------------------------

#[test]
fn suppression_meta_lints_fire() {
    let report = analyze("suppression_bad");
    let t = tally(&report);
    assert_eq!(
        t.keys().collect::<Vec<_>>(),
        ["bad-suppression", "unused-suppression"],
        "unexpected lints:\n{}",
        report.render_text()
    );
}
