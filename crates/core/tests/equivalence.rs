//! Equivalence tests for the FPRAS hot path and the prepared-instance
//! engine.
//!
//! The packed union kernel, the weight memo cache (per worker during the
//! sketch build, retained per sketch across witness samplers), and the CSR
//! DAG layout are all *value-preserving* rewrites of the seed
//! implementation. The union kernel is checked against the seed's reference
//! estimators on the member sets of real built sketches
//! (`kernel_oracle`); builds and witness streams are checked for
//! bit-identity at every thread count. The same contract extends to the
//! engine: warm (cached) answers must be bit-identical to cold one-shot
//! answers for `COUNT` (exact and FPRAS), `ENUM` order, and `GEN` witness
//! streams. These tests pin both contracts across several NFA families.

mod kernel_oracle;

use lsc_arith::BigFloat;
use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa, universal_nfa};
use lsc_automata::regex::Regex;
use lsc_automata::{Alphabet, Nfa, Word};
use lsc_core::engine::{Engine, EngineConfig, QueryError, RoutedCount, RouterConfig};
use lsc_core::fpras::{run_fpras, FprasParams, FprasState, SharedWitnessSampler};
use lsc_core::MemNfa;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::sync::{Arc, Barrier};

/// The NFA families the equivalence contract is checked on: ambiguous,
/// unambiguous-after-blowup, universal, and an overlap-heavy regex language.
fn families() -> Vec<(&'static str, Nfa, usize)> {
    let ab = Alphabet::binary();
    vec![
        ("ambiguity-gap", ambiguity_gap_nfa(4), 10),
        ("blowup", blowup_nfa(5), 12),
        ("universal", universal_nfa(Alphabet::binary()), 8),
        (
            "contains-101",
            Regex::parse("(0|1)*101(0|1)*", &ab).unwrap().compile(),
            11,
        ),
    ]
}

fn bit_identical(a: &BigFloat, b: &BigFloat) -> bool {
    a.partial_cmp_total(b) == Ordering::Equal
}

/// Quick parameters with `k` samples per vertex, small enough that real
/// sampling happens (not just exact handling).
fn with_k(k: usize) -> FprasParams {
    let mut params = FprasParams::quick();
    params.k = k;
    params
}

/// The same master seed gives the same estimate at 1, 2 and 4 threads.
#[test]
fn estimates_bit_identical_across_threads() {
    for (name, nfa, n) in families() {
        let build = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(0xE0_45u64);
            run_fpras(&nfa, n, with_k(16).with_threads(threads), &mut rng)
                .unwrap()
                .estimate()
        };
        let reference = build(1);
        for threads in [2usize, 4] {
            let est = build(threads);
            assert!(
                bit_identical(&est, &reference),
                "{name}/threads={threads}: {est} != {reference}"
            );
        }
    }
}

/// The reference estimators reproduce every estimate a real build made, and
/// agree with the packed kernel on random layer subsets. `k = 16` gives
/// sketches of one partial 64-sample chunk; `k = 96` adds a full chunk.
#[test]
fn reference_estimators_reproduce_built_sketches() {
    for (name, nfa, n) in families() {
        for k in [16usize, 96] {
            let mut rng = StdRng::seed_from_u64(31);
            let state = run_fpras(&nfa, n, with_k(k), &mut rng).unwrap();
            let sampled = kernel_oracle::check_on_sketch(&state, 0x0AC1E)
                .unwrap_or_else(|e| panic!("{name}/k={k}: {e}"));
            assert!(sampled > 0, "{name}/k={k}: no sampled vertex to check");
        }
    }
}

/// Witness streams (including rejections) drawn from sketches built at 1, 2
/// and 4 threads are identical for the same master seed and draw seed.
#[test]
fn witness_streams_bit_identical() {
    for (name, nfa, n) in families() {
        let draws = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(7);
            let state = run_fpras(&nfa, n, with_k(16).with_threads(threads), &mut rng).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            (0..100)
                .map(|_| state.sample_witness(&mut rng))
                .collect::<Vec<_>>()
        };
        let reference = draws(1);
        for threads in [2usize, 4] {
            assert_eq!(draws(threads), reference, "{name}/threads={threads}");
        }
    }
}

/// The amortized `WitnessSampler` draws exactly the stream that repeated
/// `sample_witness` calls produce (the long-lived cache changes no value).
#[test]
fn witness_sampler_matches_per_call_sampling() {
    for (name, nfa, n) in families() {
        let mut rng = StdRng::seed_from_u64(13);
        let state = run_fpras(&nfa, n, with_k(16), &mut rng).unwrap();
        let mut sampler = state.witness_sampler();
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        for i in 0..60 {
            let a = sampler.sample(&mut rng_a);
            let b = state.sample_witness(&mut rng_b);
            assert_eq!(a, b, "{name}: draw {i} diverged");
        }
    }
}

/// Per-call `sample_witness` draws under `seed`: the uncached reference
/// every retained-memo stream must reproduce.
fn per_call_draws(state: &FprasState, seed: u64, draws: usize) -> Vec<Option<Word>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws).map(|_| state.sample_witness(&mut rng)).collect()
}

fn shared_draws(sampler: &mut SharedWitnessSampler, seed: u64, draws: usize) -> Vec<Option<Word>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws).map(|_| sampler.sample(&mut rng)).collect()
}

/// The sketch built for every retained-memo test below.
fn memo_state(nfa: &Nfa, n: usize) -> Arc<FprasState> {
    let mut rng = StdRng::seed_from_u64(17);
    Arc::new(run_fpras(nfa, n, with_k(16), &mut rng).unwrap())
}

/// Samplers created and dropped in turn over one sketch hand the weight memo
/// on, each starting where the last left off: every stream still equals
/// per-call sampling under its own seed.
#[test]
fn retained_memo_streams_match_per_call_sampling() {
    for (name, nfa, n) in families() {
        let state = memo_state(&nfa, n);
        assert_eq!(
            state.retained_memo_bytes(),
            0,
            "{name}: nothing retained yet"
        );
        for seed in [3u64, 4, 5, 6] {
            let mut sampler = SharedWitnessSampler::new(state.clone());
            let drawn = shared_draws(&mut sampler, seed, 40);
            drop(sampler);
            assert_eq!(
                drawn,
                per_call_draws(&state, seed, 40),
                "{name}/seed {seed}"
            );
            assert!(state.retained_memo_bytes() > 0, "{name}: memo retained");
        }
    }
}

/// Two samplers alive at once: one holds the retained scratch, the other
/// starts fresh; interleaved, both reproduce per-call sampling.
#[test]
fn overlapping_samplers_match_per_call_sampling() {
    for (name, nfa, n) in families() {
        let state = memo_state(&nfa, n);
        // Warm the retained memo first so one of the pair starts warm.
        drop(shared_draws(
            &mut SharedWitnessSampler::new(state.clone()),
            1,
            20,
        ));
        let mut a = SharedWitnessSampler::new(state.clone());
        let mut b = SharedWitnessSampler::new(state.clone());
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(9));
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for _ in 0..40 {
            got_a.push(a.sample(&mut rng_a));
            got_b.push(b.sample(&mut rng_b));
        }
        assert_eq!(
            got_a,
            per_call_draws(&state, 8, 40),
            "{name}: first sampler"
        );
        assert_eq!(
            got_b,
            per_call_draws(&state, 9, 40),
            "{name}: second sampler"
        );
    }
}

/// Two threads draw concurrently from one shared sketch, started together:
/// whichever takes the retained scratch, both streams are per-call streams.
#[test]
fn concurrent_threads_match_per_call_sampling() {
    for (name, nfa, n) in families() {
        let state = memo_state(&nfa, n);
        drop(shared_draws(
            &mut SharedWitnessSampler::new(state.clone()),
            1,
            20,
        ));
        let barrier = Arc::new(Barrier::new(2));
        let workers: Vec<_> = [11u64, 12]
            .into_iter()
            .map(|seed| {
                let (state, barrier) = (state.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut sampler = SharedWitnessSampler::new(state);
                    (seed, shared_draws(&mut sampler, seed, 40))
                })
            })
            .collect();
        for worker in workers {
            let (seed, drawn) = worker.join().unwrap();
            assert_eq!(
                drawn,
                per_call_draws(&state, seed, 40),
                "{name}/seed {seed}"
            );
        }
    }
}

// ---- Engine-path equivalence -----------------------------------------------

/// The engine configuration the equivalence contract is checked under: the
/// determinization probe disabled so ambiguous families genuinely exercise
/// the cached FPRAS sketch, and a small `k` so real sampling happens.
fn engine_config() -> EngineConfig {
    EngineConfig {
        router: RouterConfig {
            determinization_cap: 0,
            fpras: with_k(16),
            classify_ambiguity: false,
        },
        ..EngineConfig::default()
    }
}

/// One question to the engine: the paper's three problems, `GEN` with its
/// own seed.
#[derive(Clone, Copy)]
enum Ask {
    Count,
    Enumerate,
    Sample { count: usize, seed: u64 },
}

/// One COUNT + one ENUM + one GEN request per family, with a fixed seed.
const ASKS: [Ask; 3] = [
    Ask::Count,
    Ask::Enumerate,
    Ask::Sample {
        count: 25,
        seed: 0xC2,
    },
];

/// One engine answer and whether its instance was already cached.
struct Answered {
    output: Result<Answer, QueryError>,
    cache_hit: bool,
}

enum Answer {
    Count(RoutedCount),
    Words(Vec<Word>),
}

/// Answers one ask on a freshly resolved handle: COUNT and GEN through the
/// handle entries, ENUM through a full cursor.
fn answer(engine: &Engine, nfa: &Arc<Nfa>, n: usize, ask: Ask) -> Answered {
    let handle = engine.prepare_nfa(nfa, n);
    let output = match ask {
        Ask::Count => engine.count_on(&handle).map(|(c, _)| Answer::Count(c)),
        Ask::Enumerate => Ok(Answer::Words(engine.cursor(&handle).collect())),
        Ask::Sample { count, seed } => engine
            .sample_on(&handle, seed, count)
            .map(|(words, _)| Answer::Words(words)),
    };
    Answered {
        output,
        cache_hit: handle.was_cached(),
    }
}

/// Bit-level equality of two answers' outputs (`cache_hit` flags are
/// allowed to differ — warm vs cold is the point).
fn assert_same_output(context: &str, a: &Answered, b: &Answered) {
    match (&a.output, &b.output) {
        (Ok(Answer::Count(x)), Ok(Answer::Count(y))) => {
            assert_eq!(x.route, y.route, "{context}: route diverged");
            assert_eq!(x.exact, y.exact, "{context}: exact count diverged");
            assert!(
                bit_identical(&x.estimate, &y.estimate),
                "{context}: estimate {} != {}",
                x.estimate,
                y.estimate
            );
        }
        (Ok(Answer::Words(x)), Ok(Answer::Words(y))) => {
            assert_eq!(x, y, "{context}: witness stream diverged");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{context}: errors diverged"),
        _ => panic!("{context}: output shapes diverged"),
    }
}

/// Warm (cached) engine answers are bit-identical to cold one-shot answers —
/// COUNT (exact route on UFA families, FPRAS route on ambiguous ones), ENUM
/// order, and GEN witness streams.
#[test]
fn engine_warm_answers_bit_identical_to_cold() {
    for (name, nfa, n) in families() {
        let nfa = Arc::new(nfa);
        // Cold reference: a fresh engine per request.
        let cold: Vec<Answered> = ASKS
            .iter()
            .map(|&ask| answer(&Engine::new(engine_config()), &nfa, n, ask))
            .collect();
        let engine = Engine::new(engine_config());
        let first: Vec<Answered> = ASKS.iter().map(|&a| answer(&engine, &nfa, n, a)).collect();
        let warm: Vec<Answered> = ASKS.iter().map(|&a| answer(&engine, &nfa, n, a)).collect();
        for (i, ((c, f), w)) in cold.iter().zip(&first).zip(&warm).enumerate() {
            let ctx = format!("{name}/request={i}");
            assert_same_output(&format!("{ctx}/first"), c, f);
            assert_same_output(&format!("{ctx}/warm"), c, w);
        }
        assert!(
            warm.iter().all(|r| r.cache_hit),
            "{name}: second pass must be fully warm"
        );
    }
}

/// The engine's answers agree with the direct `MemNfa` toolbox on the
/// deterministic problems: exact counts and enumeration order.
#[test]
fn engine_agrees_with_memnfa_toolbox() {
    for (name, nfa, n) in families() {
        let engine = Engine::new(engine_config());
        let inst = MemNfa::new(nfa.clone(), n);
        let nfa = Arc::new(nfa);
        let count = answer(&engine, &nfa, n, Ask::Count);
        if let Ok(Answer::Count(routed)) = &count.output {
            if let Some(exact) = &routed.exact {
                assert_eq!(
                    *exact,
                    inst.count_exact().unwrap(),
                    "{name}: engine exact count != MemNfa"
                );
            }
        } else {
            panic!("{name}: count failed");
        }
        let enumerated = answer(&engine, &nfa, n, Ask::Enumerate);
        let Ok(Answer::Words(words)) = &enumerated.output else {
            panic!("{name}: enumeration failed");
        };
        let direct: Vec<_> = if inst.is_unambiguous() {
            inst.enumerate_constant_delay().unwrap().collect()
        } else {
            inst.enumerate().collect()
        };
        assert_eq!(*words, direct, "{name}: enumeration order diverged");
    }
}

/// GEN through the engine is deterministic in the request seed and identical
/// between a cold and a warm engine, draw for draw.
#[test]
fn engine_witness_streams_reproduce_across_engines() {
    for (name, nfa, n) in families() {
        let nfa = Arc::new(nfa);
        let ask = Ask::Sample {
            count: 40,
            seed: 0xFEED,
        };
        let a = answer(&Engine::new(engine_config()), &nfa, n, ask);
        let engine = Engine::new(engine_config());
        // Warm the instance through other kinds first, then sample.
        for other in ASKS {
            answer(&engine, &nfa, n, other);
        }
        let b = answer(&engine, &nfa, n, ask);
        assert_same_output(&format!("{name}/gen-stream"), &a, &b);
        let Ok(Answer::Words(words)) = &a.output else {
            panic!("{name}: sampling failed");
        };
        for w in words {
            assert!(nfa.accepts(w), "{name}: sampled non-witness");
        }
    }
}
