//! E14: the prepared-instance engine under repeated traffic — warm
//! (one engine, cached artifact) vs cold (a fresh `MemNfa` per call, the
//! pre-engine serving pattern). `scripts/bench.sh` turns the group means
//! into the `BENCH_engine.json` warm-vs-cold speedups.
//!
//! Both sides do the same kind and amount of *answering* work per query; only
//! the amount of recompilation differs. On the exact route the answers are
//! identical outright. On the FPRAS route the cold side threads one rng
//! through 8 full sketch builds while the warm side serves all 8 from one
//! engine-seeded sketch — equally-valid estimates from differently-seeded
//! runs, not bit-equal numbers. (The bit-identity contract the equivalence
//! suite pins is warm engine vs cold *engine* under one seed policy.)

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsc_automata::families::blowup_nfa;
use lsc_automata::Nfa;
use lsc_bench::workloads;
use lsc_core::engine::{Engine, EngineConfig, RouterConfig, ShardedConfig, ShardedEngine};
use lsc_core::fpras::FprasParams;
use lsc_core::MemNfa;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Repeated queries per measured iteration — the "same automaton, served
/// many times" workload the engine exists for.
const QUERIES: usize = 8;

/// UFA exact route: cold rebuilds the ambiguity check + DAG + completion
/// table per query; warm pays them once.
fn engine_warm_vs_cold_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/e14-warm-vs-cold-exact");
    group.sample_size(10);
    let w = workloads::engine_ufa_instance();
    group.bench_function(BenchmarkId::from_parameter("cold-memnfa"), |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for _ in 0..QUERIES {
                let inst = MemNfa::new(w.nfa.clone(), w.n);
                bits ^= inst.count_exact().unwrap().bit_len();
            }
            bits
        });
    });
    group.bench_function(BenchmarkId::from_parameter("warm-engine"), |b| {
        let nfa = Arc::new(w.nfa.clone());
        b.iter(|| {
            let engine = Engine::with_defaults();
            let handle = engine.prepare_nfa(&nfa, w.n);
            let mut bits = 0usize;
            for _ in 0..QUERIES {
                bits ^= engine.count_exact_on(&handle).unwrap().0.bit_len();
            }
            bits
        });
    });
    group.finish();
}

/// FPRAS route (determinization probe disabled): cold runs Algorithm 5 per
/// query; warm builds one seed-keyed sketch and serves every query from it.
fn engine_warm_vs_cold_fpras(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/e14-warm-vs-cold-fpras");
    group.sample_size(10);
    let w = workloads::engine_fpras_instance();
    let router = RouterConfig {
        determinization_cap: 0,
        classify_ambiguity: false,
        fpras: FprasParams::quick(),
    };
    group.bench_function(BenchmarkId::from_parameter("cold-memnfa"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut acc = 0.0f64;
            for _ in 0..QUERIES {
                let inst = MemNfa::new(w.nfa.clone(), w.n);
                acc += inst
                    .count_routed(&router, &mut rng)
                    .unwrap()
                    .estimate
                    .to_f64();
            }
            acc
        });
    });
    group.bench_function(BenchmarkId::from_parameter("warm-engine"), |b| {
        let nfa = Arc::new(w.nfa.clone());
        let config = EngineConfig {
            router,
            ..EngineConfig::default()
        };
        b.iter(|| {
            let engine = Engine::new(config);
            let handle = engine.prepare_nfa(&nfa, w.n);
            let mut acc = 0.0f64;
            for _ in 0..QUERIES {
                acc += engine.count_on(&handle).unwrap().0.estimate.to_f64();
            }
            acc
        });
    });
    group.finish();
}

/// E19: cache *resolution* under multi-core contention — the operation
/// sharding exists for. 8 threads hammer warm session resolution
/// (`prepare_nfa`: lookup + LRU touch + byte re-measure, all under the
/// cache mutex) over 16 distinct cached instances. With 1 shard every
/// touch serializes on one mutex; with 8 shards the consistent-hash map
/// spreads the instances over independent mutexes. `scripts/bench.sh`
/// turns the two means into the `BENCH_engine.json`
/// `shard_resolution_speedup` and records the host's core count next to
/// it: on a single-core host the two configurations are expected to tie
/// (threads time-slice, so the mutex is never truly contended); the
/// spread is a multicore measurement.
fn engine_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/e19-shard-scaling");
    group.sample_size(10);
    const THREADS: usize = 8;
    const TOUCHES: usize = 4000;
    let instances: Vec<(Arc<Nfa>, usize)> = (0..16)
        .map(|k| (Arc::new(blowup_nfa(3 + (k % 6))), 8 + (k % 5)))
        .collect();
    for shards in [1usize, 8] {
        let engine = ShardedEngine::new(ShardedConfig {
            shards,
            ..ShardedConfig::default()
        });
        for (nfa, n) in &instances {
            engine.prepare_nfa(nfa, *n); // warm: iterations measure hits only
        }
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..THREADS {
                        let engine = &engine;
                        let instances = &instances;
                        scope.spawn(move || {
                            let mut acc = 0u64;
                            for i in 0..TOUCHES {
                                let (nfa, n) = &instances[(i * THREADS + t) % instances.len()];
                                acc ^= engine.prepare_nfa(nfa, *n).fingerprint();
                            }
                            acc
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    engine_warm_vs_cold_exact,
    engine_warm_vs_cold_fpras,
    engine_shard_scaling
);
criterion_main!(benches);
