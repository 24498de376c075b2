//! Command-line contract of the `nfa_tool` binary: malformed arguments and
//! instances past the admission bound end in a usage error (exit 2), never
//! a panic or an abort, and the one-shot verbs answer what `batch` answers
//! through the same engine.

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

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `nfa_tool batch` over the given query lines on stdin.
fn batch(queries: &str, args: &[&str]) -> std::process::Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_nfa_tool"))
        .arg("batch")
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("nfa_tool runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(queries.as_bytes())
        .expect("queries written");
    child.wait_with_output().expect("nfa_tool exits")
}

/// Asserts a usage error (exit 2) carrying the admission message.
fn assert_refused(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains("instance too large"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}: answered past the bound");
}

/// The golden's pattern past the determinization cap: routed to the FPRAS.
const FPRAS_PATTERN: &str =
    "(0|1)*1(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)*";

/// `(0|1)*` at length 10^12: a 2-state automaton whose unrolling would
/// reserve a state set per layer, far past the admission bound.
fn refuse_huge(verb: &[&str]) {
    let mut args = verb.to_vec();
    args.extend(["--regex", "(0|1)*", "--length", "1000000000000"]);
    assert_refused(&nfa_tool(&args), &verb.join(" "));
}

#[test]
fn count_refuses_an_instance_past_the_admission_bound() {
    refuse_huge(&["count"]);
}

#[test]
fn count_exact_refuses_an_instance_past_the_admission_bound() {
    refuse_huge(&["count", "--exact", "true"]);
}

#[test]
fn enumerate_refuses_an_instance_past_the_admission_bound() {
    refuse_huge(&["enumerate", "--limit", "1"]);
}

#[test]
fn sample_refuses_an_instance_past_the_admission_bound() {
    refuse_huge(&["sample"]);
}

#[test]
fn route_refuses_an_instance_past_the_admission_bound() {
    refuse_huge(&["route"]);
}

#[test]
fn info_refuses_an_instance_past_the_admission_bound() {
    refuse_huge(&["info"]);
}

#[test]
fn a_batch_line_past_the_admission_bound_is_refused() {
    assert_refused(&batch("count (0|1)* 1000000000000\n", &[]), "batch");
}

#[test]
fn count_exact_false_is_the_routed_count() {
    // Ambiguous, so the exact count is unavailable; `--exact false` asks for
    // the routed count instead, exactly as no `--exact` does.
    let args = ["count", "--regex", "(0|1)*101(0|1)*", "--length", "12"];
    let routed = nfa_tool(&args);
    assert_eq!(routed.status.code(), Some(0));
    let with_false = nfa_tool(&[&args[..], &["--exact", "false"]].concat());
    assert_eq!(with_false.status.code(), Some(0));
    assert_eq!(stdout(&with_false), stdout(&routed));
    // contains-101 at length 12, exact through determinization.
    assert_eq!(stdout(&routed).trim(), "3015");
    let exact = nfa_tool(&[&args[..], &["--exact", "true"]].concat());
    assert_eq!(exact.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&exact.stderr).contains("ambiguous"));
    // Any other value is a usage error.
    let bad = nfa_tool(&[&args[..], &["--exact", "maybe"]].concat());
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--exact expects true or false"));
}

#[test]
fn route_prints_the_estimate_batch_counts_with_the_same_seed() {
    for seed in ["5", "12648430"] {
        let route = nfa_tool(&[
            "route",
            "--regex",
            FPRAS_PATTERN,
            "--length",
            "14",
            "--seed",
            seed,
        ]);
        assert_eq!(route.status.code(), Some(0));
        let route = stdout(&route);
        let mut lines = route.lines();
        let estimate = lines.next().expect("estimate line");
        assert!(estimate.starts_with("≈ "), "{route}");
        assert_eq!(lines.next(), Some("route: FPRAS (Thm 22)"));
        let batch = stdout(&batch(
            &format!("count {FPRAS_PATTERN} 14\n"),
            &["--seed", seed],
        ));
        let answer = batch.lines().next().expect("count line");
        assert!(
            answer.ends_with(&format!(": {estimate}")),
            "{answer} vs {estimate}"
        );
        // `count` prints the same routed estimate, without the marker.
        let count = nfa_tool(&[
            "count",
            "--regex",
            FPRAS_PATTERN,
            "--length",
            "14",
            "--seed",
            seed,
        ]);
        assert_eq!(stdout(&count).trim(), &estimate["≈ ".len()..]);
    }
}

#[test]
fn sample_draws_what_the_first_batch_line_draws_with_the_same_seed() {
    for (pattern, length) in [("(0|1)*11", "10"), (FPRAS_PATTERN, "14")] {
        let sample = nfa_tool(&[
            "sample", "--regex", pattern, "--length", length, "--seed", "9", "--count", "4",
        ]);
        assert_eq!(sample.status.code(), Some(0));
        let words: Vec<String> = stdout(&sample).lines().map(str::to_string).collect();
        assert_eq!(words.len(), 4);
        let batch = stdout(&batch(
            &format!("sample {pattern} {length} 4\n"),
            &["--seed", "9"],
        ));
        let answer = batch.lines().next().expect("sample line");
        assert!(
            answer.ends_with(&format!(": 4 words: {}", words.join(" "))),
            "{answer} vs {words:?}"
        );
    }
    // The exact route draws from the table sampler under `StdRng(seed)`:
    // the golden's line 4 (seed 0xC0FFEE + 3) drew these.
    let sample = nfa_tool(&[
        "sample", "--regex", "(0|1)*11", "--length", "10", "--seed", "12648433", "--count", "4",
    ]);
    assert_eq!(
        stdout(&sample).split_whitespace().collect::<Vec<_>>(),
        ["1000010011", "1100101011", "1101101111", "1010100111"]
    );
}

#[test]
fn unpaged_enumerate_equals_its_stitched_pages() {
    for (pattern, length) in [
        ("(0|1)*11", "7"),
        ("(0|1)*101(0|1)*", "7"),
        // Unambiguous, with a constant-delay order that is not
        // lexicographic.
        ("(0*11)*0*", "8"),
    ] {
        let args = ["enumerate", "--regex", pattern, "--length", length];
        let whole = stdout(&nfa_tool(&args));
        assert!(!whole.is_empty());
        let mut stitched = String::new();
        let mut token: Option<String> = None;
        loop {
            let mut page_args = args.to_vec();
            page_args.extend(["--page-size", "5"]);
            if let Some(token) = &token {
                page_args.extend(["--resume-token", token]);
            }
            let page = nfa_tool(&page_args);
            assert_eq!(page.status.code(), Some(0));
            stitched.push_str(&stdout(&page));
            let stderr = String::from_utf8_lossy(&page.stderr).into_owned();
            match stderr.split("--resume-token ").nth(1) {
                Some(next) => token = Some(next.trim().to_string()),
                None => {
                    assert!(stderr.contains("exhausted"), "{stderr}");
                    break;
                }
            }
        }
        assert_eq!(stitched, whole, "{pattern} @{length}");
    }
}

#[test]
fn serve_stdio_answers_deeply_nested_lines_with_bad_request_and_keeps_serving() {
    use std::io::Write;
    let groups = format!("{}0{}", "(".repeat(20_000), ")".repeat(20_000));
    let script = format!(
        "{}\n{{\"op\":\"hello\",\"proto\":1}}\n\
         {{\"op\":\"prepare\",\"regex\":\"{groups}\",\"length\":3}}\n\
         {{\"op\":\"hello\",\"proto\":1}}\n{{\"op\":\"bye\"}}\n",
        "[".repeat(20_000)
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_nfa_tool"))
        .args(["serve", "--stdio", "true"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("nfa_tool runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("nfa_tool exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies: Vec<String> = stdout(&out).lines().map(str::to_string).collect();
    assert_eq!(replies.len(), 5, "{replies:?}");
    for (i, reply) in replies.iter().enumerate() {
        let expected = match i {
            0 | 2 => r#""code":"bad-request""#,
            1 | 3 => r#""proto":1"#,
            _ => r#""bye":true"#,
        };
        assert!(reply.contains(expected), "reply {i}: {reply}");
    }
}
