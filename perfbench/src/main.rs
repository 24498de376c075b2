//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! lines before it record the host's state and the per-verb sample counts.
//! Exits non-zero when any answer is wrong. `--corrupt 1` plants one wrong
//! expected answer, to show the checks catch it.

use std::process::ExitCode;

use lsc_core::serve::json::Json;
use perfbench::e2e::Outcome;
use perfbench::gen::Kind;
use perfbench::{e2e, trace, MetricDef, END_TO_END, PER_LAYER};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut corrupt) = (None, 1, 10.0, false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            "--corrupt" => corrupt = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        corrupt,
    })
}

fn metrics_json(outcome: &Outcome, defs: &[MetricDef]) -> Json {
    Json::Obj(
        defs.iter()
            .map(|def| {
                let value = outcome
                    .metrics
                    .get(def.name)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (
                    def.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::num(value)),
                        ("unit".to_string(), Json::str(def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        trace::run(args.kind, args.seed, args.seconds, args.corrupt)
    } else {
        e2e::run(args.kind, args.seed, args.seconds, args.corrupt)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(1);
        }
    };
    for message in &outcome.messages {
        eprintln!("perfbench: check failed: {message}");
    }
    let host = &outcome.host;
    let report = Json::Obj(vec![
        ("workload".to_string(), Json::str(args.kind.name())),
        ("seed".to_string(), Json::num(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "host".to_string(),
            Json::Obj(vec![
                ("nproc".to_string(), Json::num(host.nproc as f64)),
                ("steal_pct".to_string(), Json::num(host.steal_pct)),
                ("loadavg".to_string(), Json::num(host.loadavg)),
                ("threads".to_string(), Json::num(host.threads as f64)),
            ]),
        ),
        ("elapsed_s".to_string(), Json::num(outcome.elapsed_s)),
        (
            "setups_s".to_string(),
            Json::Arr(outcome.setups_s.iter().map(|&s| Json::num(s)).collect()),
        ),
        (
            "samples".to_string(),
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(verb, n)| (verb.to_string(), Json::num(*n as f64)))
                    .collect(),
            ),
        ),
        ("extra".to_string(), outcome.extra.clone()),
    ]);
    println!("{}", report.encode());
    let correct = outcome.failed == 0;
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::num(outcome.attempted as f64)),
        ("failed".to_string(), Json::num(outcome.failed as f64)),
        ("metrics".to_string(), metrics_json(&outcome, defs)),
    ]);
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
