//! B1–B5, B7, B8: ablations of the design choices DESIGN.md calls out.
//! B6 and B9 timed value-preserving hot-path switches that are gone: the
//! reference kernels they compared are checked against real sketches by the
//! equivalence suite, and E21 still prices them head to head.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::Instant;

use lsc_arith::BigFloat;
use lsc_automata::families;
use lsc_automata::ops::union;
use lsc_automata::Word;
use lsc_core::count::exact::count_nfa_via_determinization;
use lsc_core::fpras::{run_fpras, FprasParams};
use lsc_core::sample::{psi_chain_sample, TableSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{dur, f3};
use crate::workloads;
use crate::Table;

/// Runs all ablations.
pub fn run_ablations() {
    run_b1();
    run_b2();
    run_b3();
    run_b4();
    run_b5();
    run_b7();
    run_b8();
}

fn chi_square(counts: &HashMap<Word, usize>, support: usize, draws: usize) -> f64 {
    let expected = draws as f64 / support as f64;
    let mut stat: f64 = counts
        .values()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    stat += (support - counts.len()) as f64 * expected;
    stat
}

/// B1 — the JVV rejection step: with vs without.
fn run_b1() {
    println!("## B1 — rejection sampling on/off ([JVV86] correction)\n");
    let w = workloads::sampling_instance();
    let support = count_nfa_via_determinization(&w.nfa, w.n).to_u64().unwrap() as usize;
    // Small k so the walk probabilities are visibly off-uniform.
    let mut params = FprasParams::quick().without_exact_handling();
    params.k = 8;
    let mut rng = StdRng::seed_from_u64(0xB1);
    let state = run_fpras(&w.nfa, w.n, params, &mut rng).unwrap();
    let draws = 40_000;
    let mut with: HashMap<Word, usize> = HashMap::new();
    let mut without: HashMap<Word, usize> = HashMap::new();
    let mut accepted = 0usize;
    while accepted < draws {
        if let Some(x) = state.sample_witness(&mut rng) {
            *with.entry(x).or_default() += 1;
            accepted += 1;
        }
    }
    for _ in 0..draws {
        let x = state
            .sample_witness_no_rejection(&mut rng)
            .expect("unrejected sampler always returns");
        *without.entry(x).or_default() += 1;
    }
    let df = (support - 1) as f64;
    let threshold = df + 3.0 * (2.0 * df).sqrt();
    let mut table = Table::new(&[
        "sampler (k=8, no exact handling)",
        "chi²",
        "threshold",
        "verdict",
    ]);
    for (name, counts) in [("with rejection", &with), ("without rejection", &without)] {
        let stat = chi_square(counts, support, draws);
        table.row(&[
            name.into(),
            f3(stat),
            f3(threshold),
            if stat < threshold {
                "uniform ✓".into()
            } else {
                "biased ✗".into()
            },
        ]);
    }
    table.print();
    println!();
}

/// B2 — the intersection correction in the union estimator.
fn run_b2() {
    println!("## B2 — union estimate with/without intersection correction\n");
    let mut table = Table::new(&["instance", "estimate", "value", "rel err"]);
    let mut rng = StdRng::seed_from_u64(0xB2);
    // Worst case first: the union of an automaton with itself — every witness
    // is accepted at two states, so the uncorrected sum doubles.
    let base = families::regex_family("contains-101").unwrap();
    let cases = [
        ("A ∪ A (total overlap)", union(&base, &base)),
        (
            "contains-101 ∪ blocks-of-1",
            union(&base, &families::regex_family("blocks-of-1").unwrap()),
        ),
    ];
    for (name, nfa) in cases {
        let n = 12;
        let truth = count_nfa_via_determinization(&nfa, n).to_f64();
        let state = run_fpras(&nfa, n, FprasParams::quick(), &mut rng).unwrap();
        // The uncorrected estimate: a plain sum of R(f) over the accepting
        // vertices, overcounting witnesses accepted at several states.
        let plain = state
            .dag()
            .accepting()
            .iter()
            .filter_map(|&f| state.vertex_data()[f].as_ref())
            .fold(BigFloat::zero(), |sum, d| sum.add(d.r));
        assert!(
            plain.partial_cmp_total(&state.estimate()) != Ordering::Less,
            "{name}: the uncorrected sum can only be ≥ the corrected estimate"
        );
        let corrected = state.estimate().to_f64();
        let naive = plain.to_f64();
        table.row(&[name.into(), "exact".into(), f3(truth), "0".into()]);
        table.row(&[
            name.into(),
            "with ≺-correction (paper)".into(),
            f3(corrected),
            f3((corrected - truth).abs() / truth),
        ]);
        table.row(&[
            name.into(),
            "plain Σ R(f) (no dedup)".into(),
            f3(naive),
            f3((naive - truth).abs() / truth),
        ]);
    }
    table.print();
    println!();
}

/// B3 — sample budget sweep.
///
/// Note the family choice: structured instances like `blowup` have singleton
/// predecessor partitions everywhere, so the estimator is *exact* at any `k`
/// (E1 shows the same). The sweep therefore uses an overlap-heavy language
/// where the union estimates genuinely sample.
fn run_b3() {
    println!("## B3 — error vs sample budget k\n");
    let nfa = families::regex_family("contains-101").unwrap();
    let n = 14;
    let truth = count_nfa_via_determinization(&nfa, n).to_f64();
    let trials = 25;
    let mut table = Table::new(&["k", "median rel err", "err·√k (should be ~flat)"]);
    for k in [8usize, 16, 32, 64, 128, 256] {
        let mut params = FprasParams::quick().without_exact_handling();
        params.k = k;
        let mut rng = StdRng::seed_from_u64(0xB3 + k as u64);
        let mut errs: Vec<f64> = (0..trials)
            .map(|_| {
                let est = lsc_core::fpras::approx_count(&nfa, n, params, &mut rng)
                    .unwrap()
                    .to_f64();
                (est - truth).abs() / truth
            })
            .collect();
        errs.sort_by(f64::total_cmp);
        let median = errs[trials / 2];
        table.row(&[k.to_string(), f3(median), f3(median * (k as f64).sqrt())]);
    }
    table.print();
    println!();
}

/// B4 — the exactly-handled base case.
fn run_b4() {
    println!("## B4 — exactly-handled base case on/off\n");
    let nfa = families::ambiguity_gap_nfa(4);
    let n = 12;
    let truth = count_nfa_via_determinization(&nfa, n).to_f64();
    let trials = 15;
    let mut table = Table::new(&["variant", "median rel err", "exact vertices", "time/run"]);
    for (name, params) in [
        ("with base case", FprasParams::quick()),
        (
            "without (B4)",
            FprasParams::quick().without_exact_handling(),
        ),
    ] {
        let mut rng = StdRng::seed_from_u64(0xB4);
        let mut errs = Vec::new();
        let mut exact_count = 0;
        let start = Instant::now();
        for _ in 0..trials {
            let state = run_fpras(&nfa, n, params, &mut rng).unwrap();
            errs.push((state.estimate().to_f64() - truth).abs() / truth);
            exact_count = state.vertex_stats().0;
        }
        let elapsed = start.elapsed() / trials as u32;
        errs.sort_by(f64::total_cmp);
        table.row(&[
            name.into(),
            f3(errs[trials / 2]),
            exact_count.to_string(),
            dur(elapsed),
        ]);
    }
    table.print();
    println!();
}

/// B5 — rejection constant sweep: success rate vs fidelity headroom.
fn run_b5() {
    println!("## B5 — rejection constant sweep\n");
    let nfa = families::ambiguity_gap_nfa(3);
    let n = 10;
    let mut table = Table::new(&["c", "success rate/attempt", "time per 200 witnesses"]);
    for (label, c) in [
        ("e⁻⁴ (paper)", (-4.0f64).exp()),
        ("e⁻² (default)", (-2.0f64).exp()),
        ("0.3", 0.3),
        ("0.6", 0.6),
    ] {
        let mut params = FprasParams::quick();
        params.rejection_constant = c;
        let mut rng = StdRng::seed_from_u64(0xB5);
        let state = run_fpras(&nfa, n, params, &mut rng).unwrap();
        let trials = 2000;
        let ok = (0..trials)
            .filter(|_| state.sample_witness(&mut rng).is_some())
            .count();
        let start = Instant::now();
        let mut got = 0;
        while got < 200 {
            if state.sample_witness(&mut rng).is_some() {
                got += 1;
            }
        }
        let elapsed = start.elapsed();
        table.row(&[
            label.into(),
            format!("{:.3}", ok as f64 / trials as f64),
            dur(elapsed),
        ]);
    }
    table.print();
    println!();
}

/// B8 — parallel per-layer sampling: speedup and bit-identical results.
fn run_b8() {
    println!("## B8 — parallel per-layer sampling\n");
    let nfa = families::ambiguity_gap_nfa(5);
    let n = 14;
    let mut table = Table::new(&[
        "threads",
        "time/run",
        "estimate (identical by construction)",
    ]);
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let mut rng = StdRng::seed_from_u64(0xB8);
        let params = FprasParams::quick().with_threads(threads);
        let start = Instant::now();
        let state = run_fpras(&nfa, n, params, &mut rng).unwrap();
        let elapsed = start.elapsed();
        let est = state.estimate().to_f64();
        match baseline {
            None => baseline = Some(est),
            Some(b) => assert_eq!(
                est, b,
                "per-vertex seeding must make results thread-count independent"
            ),
        }
        table.row(&[threads.to_string(), dur(elapsed), f3(est)]);
    }
    table.print();
    println!(
        "\n(this host exposes {} CPUs; with per-layer barriers and uneven vertex costs the\n\
         wall-clock win only appears on wider machines — the point measured here is that\n\
         per-vertex seeding keeps the output bit-identical at every thread count)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}

/// B7 — table sampler vs the paper-literal ψ-chain sampler.
fn run_b7() {
    println!("## B7 — exact UFA samplers: count table vs ψ-chain\n");
    let nfa = families::blowup_nfa(5);
    let mut table = Table::new(&["sampler", "n", "time per 200 samples"]);
    for n in [16usize, 32] {
        let mut rng = StdRng::seed_from_u64(0xB7);
        let sampler = TableSampler::new(&nfa, n).unwrap();
        let start = Instant::now();
        for _ in 0..200 {
            sampler.sample(&mut rng).unwrap();
        }
        table.row(&["table (ours)".into(), n.to_string(), dur(start.elapsed())]);
        let start = Instant::now();
        for _ in 0..200 {
            psi_chain_sample(&nfa, n, &mut rng).unwrap().unwrap();
        }
        table.row(&[
            "ψ-chain (paper §5.3.3)".into(),
            n.to_string(),
            dur(start.elapsed()),
        ]);
    }
    table.print();
    println!();
}
