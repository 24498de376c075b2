//! Criterion benches for the extension systems (experiments E10–E12):
//! grammar counting/sampling, ambiguity classification, the counting router,
//! and d-DNNF compilation/counting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsc_automata::ops::ambiguity_degree;
use lsc_automata::{families as nfa_families, Alphabet, Nfa};
use lsc_bdd::BddManager;
use lsc_core::engine::RouterConfig;
use lsc_core::PreparedInstance;
use lsc_grammar::{families as cfg_families, Cnf, DerivationTable, TreeSampler};
use lsc_nnf::compile::from_obdd;
use lsc_nnf::{count_models, ModelEnumerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn star_chain(stars: usize) -> Nfa {
    let ab = Alphabet::from_chars(&['a']);
    let mut b = Nfa::builder(ab, stars);
    b.set_initial(0);
    b.set_accepting(stars - 1);
    for i in 0..stars {
        b.add_transition(i, 0, i);
        if i + 1 < stars {
            b.add_transition(i, 0, i + 1);
        }
    }
    b.build()
}

/// E10: the derivation-count DP over yield length.
fn bench_cfg_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_cfg_count");
    let dyck = Cnf::from_cfg(&cfg_families::dyck());
    for n in [32usize, 64, 128] {
        group.bench_with_input(BenchmarkId::new("dyck", n), &n, |b, &n| {
            b.iter(|| DerivationTable::build(&dyck, n))
        });
    }
    group.finish();
}

/// E10: exact uniform sampling from the count table.
fn bench_cfg_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_cfg_sample");
    let dyck = Cnf::from_cfg(&cfg_families::dyck());
    let table = DerivationTable::build(&dyck, 64);
    let sampler = TreeSampler::new(&table, 64);
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("dyck_n64", |b| {
        b.iter(|| sampler.sample(&mut rng).expect("support nonempty"))
    });
    group.finish();
}

/// E11: Weber–Seidl classification cost across the hierarchy.
fn bench_ambiguity_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_classify");
    let cases: Vec<(&str, Nfa)> = vec![
        ("unambiguous_blowup8", nfa_families::blowup_nfa(8)),
        ("polynomial_chain6", star_chain(6)),
        ("exponential_gap5", nfa_families::ambiguity_gap_nfa(5)),
    ];
    for (name, nfa) in cases {
        group.bench_function(name, |b| b.iter(|| ambiguity_degree(&nfa)));
    }
    group.finish();
}

/// E11: the counting router end to end (classification + route + count).
fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_router");
    let config = RouterConfig {
        determinization_cap: 8,
        ..RouterConfig::default()
    };
    let cases: Vec<(&str, Nfa)> = vec![
        ("exact_route_blowup6", nfa_families::blowup_nfa(6)),
        ("dfa_route_chain4", star_chain(4)),
        ("fpras_route_gap4", nfa_families::ambiguity_gap_nfa(4)),
    ];
    for (name, nfa) in cases {
        let mut rng = StdRng::seed_from_u64(2);
        group.bench_function(name, |b| {
            b.iter(|| {
                PreparedInstance::new(nfa.clone(), 12)
                    .count_routed(&config, &mut rng)
                    .expect("router")
            })
        });
    }
    group.finish();
}

/// E12: OBDD → d-DNNF compilation plus counting, against BDD-native counting.
fn bench_nnf(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_nnf");
    let mut m = BddManager::new(32);
    let mut f = m.var(0);
    for v in 1..32 {
        let x = m.var(v);
        f = m.xor(f, x);
    }
    group.bench_function("compile_parity32", |b| b.iter(|| from_obdd(&m, f)));
    let circuit = from_obdd(&m, f);
    group.bench_function("count_parity32", |b| {
        b.iter(|| count_models(&circuit).unwrap())
    });
    group.bench_function("bdd_native_count_parity32", |b| {
        b.iter(|| m.count_models(f))
    });
    // Enumeration throughput on a small cube.
    let mut m = BddManager::new(10);
    let mut f = m.var(0);
    for v in 1..10 {
        let x = m.var(v);
        f = m.xor(f, x);
    }
    let circuit = from_obdd(&m, f);
    group.bench_function("enumerate_parity10", |b| {
        b.iter(|| {
            let e = ModelEnumerator::new(&circuit).unwrap();
            e.iter().count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cfg_count,
    bench_cfg_sample,
    bench_ambiguity_classify,
    bench_router,
    bench_nnf
);
criterion_main!(benches);
