//! The harness's own contract: seeded generation, non-vacuous checks,
//! exactly repeating work counts, and a `BENCHMARK.json` that lists what
//! the code reports.

use std::collections::HashSet;

use lsc_automata::ops::{determinize_capped, is_unambiguous};
use lsc_core::serve::json::{self, Json};
use perfbench::check::Checker;
use perfbench::driver::{serve_config, Player, Rig, Rung};
use perfbench::gen::{cold_strata, Class, Kind, Op, Workload};
use perfbench::{trace, MetricDef, END_TO_END, PER_LAYER};

#[test]
fn equal_seeds_give_equal_op_digests() {
    for kind in Kind::ALL {
        let a = Workload::generate(kind, 7).digest(5000);
        let b = Workload::generate(kind, 7).digest(5000);
        let c = Workload::generate(kind, 8).digest(5000);
        assert_eq!(a, b, "{kind:?}: same seed, different ops");
        assert_ne!(a, c, "{kind:?}: the seed changes nothing");
    }
}

#[test]
fn cold_blocks_keep_their_quotas_and_never_repeat_an_instance() {
    let strata: Vec<Class> = cold_strata().iter().map(|b| b.select(0).class).collect();
    let mut quota: Vec<Class> = strata.clone();
    quota.sort();
    for seed in 1..4 {
        let workload = Workload::generate(Kind::ColdCompile, seed);
        let warm_slice = workload.warmup.iter().map(|op| op.inst()).max().unwrap() + 1;
        let timed = &workload.catalog[warm_slice..];
        for block in timed.chunks(strata.len()) {
            let mut classes: Vec<Class> = block.iter().map(|s| s.class).collect();
            classes.sort();
            assert_eq!(classes, quota, "seed {seed}: a block broke the quotas");
        }
        let mut seen = HashSet::new();
        for spec in &workload.catalog {
            assert!(seen.insert(spec.clone()), "seed {seed}: {spec:?} repeats");
        }
    }
}

#[test]
fn selections_are_injective_and_land_in_their_class() {
    for base in cold_strata() {
        let n = base.count().min(60);
        let specs: Vec<_> = (0..n).map(|i| base.select(i)).collect();
        let distinct: HashSet<_> = specs.iter().map(|s| s.prepare_line()).collect();
        assert_eq!(
            distinct.len(),
            specs.len(),
            "{:?} selection collides",
            specs[0].class
        );
        for spec in specs.iter().take(3) {
            let nfa = spec.nfa();
            match spec.class {
                Class::Ufa => assert!(is_unambiguous(&nfa), "{spec:?}"),
                Class::Fpras => assert!(determinize_capped(&nfa, 4096).is_none(), "{spec:?}"),
                Class::Motif | Class::Random => {
                    assert!(!is_unambiguous(&nfa), "{spec:?}");
                    assert!(determinize_capped(&nfa, 4096).is_some(), "{spec:?}");
                }
            }
        }
    }
}

#[test]
fn the_checker_flags_a_corrupted_expected_answer() {
    let workload = Workload::generate(Kind::WarmWire, 3);
    let mut rig = Rig::start(Rung::HandleLine, &serve_config(Kind::WarmWire)).unwrap();
    let mut player = Player::new(&workload);
    let mut records = Vec::new();
    for &op in workload
        .warmup
        .iter()
        .chain(workload.ops().take(300).collect::<Vec<_>>().iter())
    {
        player.play(&mut rig, op, &mut records).unwrap();
    }
    rig.stop();
    let mut honest = Checker::new(&workload, false);
    honest.check_all(&records);
    assert_eq!(honest.failed, 0, "{:?}", honest.messages);
    let mut corrupted = Checker::new(&workload, true);
    corrupted.check_all(&records);
    assert_eq!(corrupted.failed, 1, "one planted wrong answer, one failure");
    // A tampered reply is caught as well: flip the first symbol of the
    // first enumerated word.
    let mut tampered = records.clone();
    let page = tampered
        .iter_mut()
        .find(|r| r.request.contains("\"enumerate\"") && r.reply.contains("\"words\":[\""))
        .unwrap();
    let at = page.reply.find("\"words\":[\"").unwrap() + "\"words\":[\"".len();
    let flipped = if &page.reply[at..=at] == "0" {
        "1"
    } else {
        "0"
    };
    page.reply.replace_range(at..=at, flipped);
    let mut checker = Checker::new(&workload, false);
    checker.check_all(&tampered);
    assert_eq!(checker.failed, 1, "a flipped symbol went unnoticed");
    // A repeated draw request is checked against the remembered digest of
    // its first answer: tamper with the repeat.
    let mut tampered = records.clone();
    let repeat = (0..tampered.len())
        .find(|&i| {
            matches!(tampered[i].op, Op::Sample { .. })
                && tampered[..i].iter().any(|r| r.op == tampered[i].op)
        })
        .expect("the op stream repeats a draw request");
    let reply = &mut tampered[repeat].reply;
    let at = reply.find("\"words\":[\"").unwrap() + "\"words\":[\"".len();
    let flipped = if &reply[at..=at] == "0" { "1" } else { "0" };
    reply.replace_range(at..=at, flipped);
    let mut checker = Checker::new(&workload, false);
    checker.check_all(&tampered);
    assert_eq!(checker.failed, 1, "a tampered repeat draw went unnoticed");
}

fn counts(kind: Kind, seed: u64) -> Vec<(&'static str, f64)> {
    let outcome = trace::run(kind, seed, 0.0, false).unwrap();
    assert_eq!(outcome.failed, 0, "{:?}", outcome.messages);
    PER_LAYER
        .iter()
        .filter(|def| def.unit == "count" || def.unit == "bytes")
        .map(|def| (def.name, outcome.metrics.get(def.name).unwrap()))
        .collect()
}

#[test]
fn work_counts_repeat_exactly_for_a_seed() {
    for kind in [Kind::WarmWire, Kind::ColdCompile] {
        let first = counts(kind, 11);
        let second = counts(kind, 11);
        assert_eq!(first, second, "{kind:?}: work counts moved between runs");
        let get = |name: &str| first.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("engine.route.exact_unambiguous") > 0.0);
        assert!(get("engine.route.exact_determinized") > 0.0);
        assert!(get("engine.route.fpras") > 0.0);
        if kind == Kind::ColdCompile {
            // Four warm-up and 24 replayed instances: every prepare is a
            // miss, and the one-entry-per-shard cache evicts throughout.
            assert_eq!(get("engine.misses"), 28.0);
            assert!(get("engine.evictions") >= 20.0);
        } else {
            assert_eq!(get("engine.misses"), 8.0, "one miss per warm instance");
            assert_eq!(get("engine.evictions"), 0.0);
        }
    }
}

fn listed(value: &Json, key: &str) -> Vec<(String, String, String)> {
    value
        .get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defs(list: &[MetricDef]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let value = json::parse(&text).unwrap();
    assert_eq!(listed(&value, "end_to_end"), defs(END_TO_END));
    assert_eq!(listed(&value, "per_layer"), defs(PER_LAYER));
    let workloads: Vec<&str> = value
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, names);
}
