//! E1/E2 timing: the #NFA FPRAS across families and sizes.
//! E3: the FPRAS hot path on the fixed trajectory instance.
//! E21/E22: the union-estimator and completion-DP kernel micro-benches
//! behind the `BENCH_fpras.json` kernel speedup figures.
//! E27: a warm `GEN` request on a built sketch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsc_arith::{BigFloat, BigNat};
use lsc_automata::families::blowup_nfa;
use lsc_automata::unroll::{NodeId, UnrolledDag};
use lsc_automata::{StateSet, Word};
use lsc_bench::workloads;
use lsc_core::fpras::{
    approx_count, estimate_union_packed, estimate_union_quadratic, estimate_union_with_mask,
    run_fpras, FprasParams, MaskArena, SampleEntry, SharedWitnessSampler, VertexData,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn fpras_accuracy_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpras/e1-families");
    group.sample_size(10);
    for w in workloads::accuracy_suite() {
        group.bench_function(BenchmarkId::from_parameter(w.name), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| approx_count(&w.nfa, w.n, FprasParams::quick(), &mut rng).unwrap());
        });
    }
    group.finish();
}

fn fpras_scaling_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpras/e2-scaling-n");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let w = workloads::scaling_by_n(n);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| approx_count(&w.nfa, w.n, FprasParams::quick(), &mut rng).unwrap());
        });
    }
    group.finish();
}

fn fpras_scaling_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpras/e2-scaling-m");
    group.sample_size(10);
    for m in [4usize, 8, 16] {
        let w = workloads::scaling_by_m(m);
        group.bench_function(BenchmarkId::from_parameter(m), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| approx_count(&w.nfa, w.n, FprasParams::quick(), &mut rng).unwrap());
        });
    }
    group.finish();
}

/// E3: the FPRAS hot path on the fixed `BENCH_fpras.json` trajectory
/// instance. The `no-weight-cache` and `baseline` rows timed hot-path
/// switches that are gone; their committed rows stay as trajectory.
fn fpras_opt_vs_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpras/e3-opt-vs-baseline");
    group.sample_size(10);
    let w = workloads::speedup_instance();
    group.bench_function(BenchmarkId::from_parameter("optimized"), |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| approx_count(&w.nfa, w.n, FprasParams::quick(), &mut rng).unwrap());
    });
    group.finish();
}

/// E21: the union-estimator kernels head to head on one synthetic layer
/// shaped like a busy FPRAS round — `M` member vertices over an `S`-state
/// automaton, `k` cached samples each, sparse random reach sets. Three
/// variants of the same §6.4 estimator: the packed word-level kernel
/// (production), the scalar per-sample prefix-mask walk it replaced, and
/// the seed's quadratic scan. All three produce bit-identical `BigFloat`s
/// (asserted here; the randomized suite lives in `tests/properties.rs`) —
/// only the membership-test shape differs, which is exactly what this
/// measures.
fn fpras_union_kernel(c: &mut Criterion) {
    const STATES: usize = 192;
    const MEMBERS: usize = 48;
    const K: usize = 512;
    let mut rng = StdRng::seed_from_u64(21);
    let members: Vec<NodeId> = (0..MEMBERS).collect();
    let state_of = |v: NodeId| v * (STATES / MEMBERS) % STATES;
    let data: Vec<Option<VertexData>> = (0..MEMBERS)
        .map(|_| {
            let samples = (0..K)
                .map(|_| {
                    let mut reach = StateSet::new(STATES);
                    for _ in 0..4 {
                        reach.insert(rng.gen_range(0..STATES));
                    }
                    SampleEntry {
                        word: Word::new(),
                        reach,
                    }
                })
                .collect();
            Some(VertexData {
                exact: false,
                r: BigFloat::from_f64(rng.gen_range(1.0..100.0)),
                samples,
            })
        })
        .collect();

    let packed = {
        let mut arena = MaskArena::new(STATES);
        estimate_union_packed(&members, &data, &mut arena, state_of)
    };
    let walk = {
        let mut arena = MaskArena::new(STATES);
        estimate_union_with_mask(&members, &data, &mut arena, state_of, |e, a| {
            a.intersects(&e.reach)
        })
    };
    let quadratic = estimate_union_quadratic(&members, &data, state_of, |e, q| e.reach.contains(q));
    assert_eq!(packed.to_raw_parts(), walk.to_raw_parts());
    assert_eq!(packed.to_raw_parts(), quadratic.to_raw_parts());

    let mut group = c.benchmark_group("fpras/e21-union-kernel");
    group.sample_size(20);
    group.bench_function(BenchmarkId::from_parameter("packed"), |b| {
        let mut arena = MaskArena::new(STATES);
        b.iter(|| estimate_union_packed(&members, &data, &mut arena, state_of));
    });
    group.bench_function(BenchmarkId::from_parameter("scalar-walk"), |b| {
        let mut arena = MaskArena::new(STATES);
        b.iter(|| {
            estimate_union_with_mask(&members, &data, &mut arena, state_of, |e, a| {
                a.intersects(&e.reach)
            })
        });
    });
    group.bench_function(BenchmarkId::from_parameter("quadratic"), |b| {
        b.iter(|| estimate_union_quadratic(&members, &data, state_of, |e, q| e.reach.contains(q)));
    });
    group.finish();
}

/// The pre-optimization completion DP: a fresh `BigNat` allocated per edge
/// (`acc = &acc + &counts[succ]`) — the seed idiom `completion_counts`
/// replaced with one reused limb accumulator plus a u64 fast path.
fn completion_counts_per_edge_alloc(dag: &UnrolledDag) -> Vec<BigNat> {
    let mut counts = vec![BigNat::zero(); dag.num_nodes()];
    for &v in dag.accepting() {
        counts[v] = BigNat::one();
    }
    for t in (0..dag.word_length()).rev() {
        for &v in dag.layer(t) {
            let mut acc = BigNat::zero();
            for &(_, succ) in dag.out_edges(v) {
                acc = &acc + &counts[succ];
            }
            counts[v] = acc;
        }
    }
    counts
}

/// E22: the limb-batched completion DP against the per-edge-allocation
/// baseline, at two count widths: `blowup(10)@40` stays inside the u64
/// fast path, `blowup(10)@120` pushes every upper layer into multi-limb
/// accumulation.
fn fpras_completion_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpras/e22-completion-dp");
    group.sample_size(10);
    for n in [40usize, 120] {
        let nfa = blowup_nfa(10);
        let dag = UnrolledDag::build(&nfa, n);
        assert_eq!(
            dag.completion_counts(),
            completion_counts_per_edge_alloc(&dag),
            "kernel and baseline must agree at n={n}"
        );
        group.bench_function(BenchmarkId::new("limb-batched", n), |b| {
            b.iter(|| dag.completion_counts());
        });
        group.bench_function(BenchmarkId::new("per-edge-alloc", n), |b| {
            b.iter(|| completion_counts_per_edge_alloc(&dag));
        });
    }
    group.finish();
}

/// E27: one 8-draw `sample` request on a warm `contains-101@24` sketch, the
/// way the engine serves it — a new sampler per request, each witness
/// retried up to the engine's default budget of 256 attempts. Times the Las
/// Vegas walks and whatever per-request set-up the sampler pays.
fn fpras_warm_gen(c: &mut Criterion) {
    const DRAWS: usize = 8;
    const RETRIES: usize = 256;
    let w = workloads::speedup_instance();
    let state = {
        let mut rng = StdRng::seed_from_u64(27);
        Arc::new(run_fpras(&w.nfa, w.n, FprasParams::quick(), &mut rng).unwrap())
    };
    let mut group = c.benchmark_group("fpras/e27-warm-gen");
    group.sample_size(20);
    group.bench_function(BenchmarkId::from_parameter("8-draw-request"), |b| {
        let mut rng = StdRng::seed_from_u64(28);
        b.iter(|| {
            let mut sampler = SharedWitnessSampler::new(state.clone());
            (0..DRAWS)
                .filter_map(|_| (0..RETRIES).find_map(|_| sampler.sample(&mut rng)))
                .count()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    fpras_accuracy_suite,
    fpras_scaling_n,
    fpras_scaling_m,
    fpras_opt_vs_baseline,
    fpras_union_kernel,
    fpras_completion_dp,
    fpras_warm_gen
);
criterion_main!(benches);
