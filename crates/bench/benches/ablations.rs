//! B3/B4 timing: ablation cost/benefit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsc_automata::families::ambiguity_gap_nfa;
use lsc_core::fpras::{run_fpras, FprasParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn k_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/b3-k-sweep");
    group.sample_size(10);
    let nfa = ambiguity_gap_nfa(4);
    for k in [16usize, 64, 256] {
        let mut params = FprasParams::quick();
        params.k = k;
        group.bench_function(BenchmarkId::from_parameter(k), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| run_fpras(&nfa, 12, params, &mut rng).unwrap());
        });
    }
    group.finish();
}

fn exact_handling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/b4-exact-handling");
    group.sample_size(10);
    let nfa = ambiguity_gap_nfa(4);
    for (name, params) in [
        ("on", FprasParams::quick()),
        ("off", FprasParams::quick().without_exact_handling()),
    ] {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| run_fpras(&nfa, 12, params, &mut rng).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, k_sweep, exact_handling);
criterion_main!(benches);
