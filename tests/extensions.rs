//! Cross-crate integration tests for the extension systems: grammars,
//! the ambiguity hierarchy + counting router, and d-DNNF circuits. Each test
//! closes a loop between at least two crates and checks against an
//! independent oracle.

use logspace_repro::grammar::cyk::{cyk_accepts, cyk_tree_count};
use logspace_repro::grammar::regular::{
    nfa_to_right_linear, right_linear_derivations, right_linear_to_nfa, to_mem_nfa,
};
use logspace_repro::grammar::{families as cfg_families, Cnf, DerivationTable};
use logspace_repro::nnf::checks::{determinism_violation, CheckOutcome};
use logspace_repro::nnf::compile::from_obdd;
use logspace_repro::nnf::{count_models, ModelEnumerator, ModelSampler};
use logspace_repro::prelude::*;
use lsc_automata::families::{blowup_nfa, random_nfa, random_ufa};
use lsc_automata::ops::{
    accepting_runs_on_word, ambiguity_degree, is_unambiguous, AmbiguityDegree,
};
use lsc_bdd::{obdd_to_ufa, BddManager};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------- grammar ↔ automata ↔ core ----------

/// UFA → right-linear grammar: the grammar is unambiguous, its CNF
/// derivation counts equal the paper's exact #L word counts, at every
/// length.
#[test]
fn ufa_grammar_derivations_equal_exact_counts() {
    let mut rng = StdRng::seed_from_u64(61);
    let mut cases = vec![blowup_nfa(5)];
    for _ in 0..4 {
        cases.push(random_ufa(6, Alphabet::binary(), 0.8, &mut rng));
    }
    for (i, ufa) in cases.iter().enumerate() {
        assert!(is_unambiguous(ufa), "case {i} must be a UFA");
        let g = nfa_to_right_linear(ufa);
        let table = DerivationTable::build(&Cnf::from_cfg(&g), 10);
        for n in 0..=10usize {
            let inst = MemNfa::new(ufa.clone(), n);
            assert_eq!(
                table.derivations(n),
                inst.count_exact().expect("UFA"),
                "case {i}, length {n}"
            );
        }
    }
}

/// The full grammar pipeline round trip agrees with the counting router.
#[test]
fn grammar_round_trip_count_agrees_with_router() {
    let mut rng = StdRng::seed_from_u64(62);
    for seed in 0..5u64 {
        let mut grng = StdRng::seed_from_u64(seed);
        let g = cfg_families::random_right_linear(5, Alphabet::binary(), 0.35, 0.5, &mut grng);
        let nfa = right_linear_to_nfa(&g).unwrap();
        let n = 9;
        let routed = PreparedInstance::new(nfa.clone(), n)
            .count_routed(&RouterConfig::default(), &mut rng)
            .unwrap();
        let oracle = MemNfa::new(nfa.clone(), n).count_oracle();
        if let Some(exact) = &routed.exact {
            assert_eq!(exact, &oracle, "seed {seed}");
        } else {
            let t = oracle.to_f64();
            let e = routed.estimate.to_f64();
            let err = if t == 0.0 { e } else { (e - t).abs() / t };
            assert!(err < 0.25, "seed {seed}: est {e}, truth {t}");
        }
    }
}

/// Exact uniform grammar sampling agrees with the UFA table sampler on the
/// same language: both hit every witness of the blowup family.
#[test]
fn grammar_sampler_and_ufa_sampler_cover_the_same_support() {
    use logspace_repro::grammar::TreeSampler;
    let ufa = blowup_nfa(3);
    let n = 6;
    let g = nfa_to_right_linear(&ufa);
    let cnf = Cnf::from_cfg(&g);
    let table = DerivationTable::build(&cnf, n);
    let inst = MemNfa::new(ufa, n);
    let exact = inst.count_exact().unwrap().to_u64().unwrap();
    let sampler = TreeSampler::new(&table, n);
    assert_eq!(sampler.support().to_u64(), Some(exact));
    let mut rng = StdRng::seed_from_u64(63);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..(200 * exact) {
        let w = sampler.sample(&mut rng).unwrap();
        assert!(inst.check_witness(&w), "sampled non-witness {w:?}");
        seen.insert(w);
    }
    assert_eq!(seen.len() as u64, exact, "every witness reachable");
}

// ---------- nnf ↔ bdd ↔ core triangle ----------

/// OBDD ↔ d-DNNF ↔ UFA: identical model/witness sets, not just counts.
#[test]
fn knowledge_compilation_triangle_closes_on_witness_sets() {
    let mut rng = StdRng::seed_from_u64(64);
    for trial in 0..5 {
        let vars = 6usize;
        let mut m = BddManager::new(vars);
        let mut f = m.var(rng.gen_range(0..vars));
        for _ in 0..8 {
            let v = m.var(rng.gen_range(0..vars));
            let g = if rng.gen_bool(0.3) { m.not(v) } else { v };
            f = match rng.gen_range(0..3) {
                0 => m.and(f, g),
                1 => m.or(f, g),
                _ => m.xor(f, g),
            };
        }
        // Circuit side.
        let circuit = from_obdd(&m, f);
        assert_eq!(
            determinism_violation(&circuit, 12),
            CheckOutcome::Holds,
            "trial {trial}"
        );
        let enumerator = ModelEnumerator::new(&circuit).unwrap();
        let mut circuit_models: Vec<Word> = enumerator
            .iter()
            .map(|model| model.iter().map(|&b| b as u32).collect())
            .collect();
        circuit_models.sort();
        // Automaton side (Theorem 5 toolbox).
        let inst = MemNfa::new(obdd_to_ufa(&m, f), vars);
        let mut ufa_witnesses: Vec<Word> = inst
            .enumerate_constant_delay()
            .expect("OBDD automata are unambiguous")
            .collect();
        ufa_witnesses.sort();
        assert_eq!(circuit_models, ufa_witnesses, "trial {trial}");
        // Counts agree everywhere.
        let count = count_models(&circuit).unwrap();
        assert_eq!(count, m.count_models(f), "trial {trial}");
        assert_eq!(count, inst.count_exact().unwrap(), "trial {trial}");
    }
}

/// The circuit sampler and the UFA Las Vegas sampler draw from the same
/// distribution (both exactly uniform over the same support).
#[test]
fn circuit_and_ufa_samplers_agree_on_support() {
    let mut m = BddManager::new(5);
    let x0 = m.var(0);
    let x2 = m.var(2);
    let x4 = m.var(4);
    let a = m.or(x0, x2);
    let f = m.and(a, x4);
    let circuit = from_obdd(&m, f);
    let sampler = ModelSampler::new(&circuit).unwrap();
    let support = sampler.support().to_u64().unwrap();
    assert_eq!(support, m.count_models(f).to_u64().unwrap());
    let inst = MemNfa::new(obdd_to_ufa(&m, f), 5);
    let ufa_sampler = inst.uniform_sampler().expect("UFA");
    let mut rng = StdRng::seed_from_u64(65);
    let mut circuit_seen = std::collections::HashSet::new();
    let mut ufa_seen = std::collections::HashSet::new();
    for _ in 0..(100 * support) {
        let model = sampler.sample(&mut rng).unwrap();
        circuit_seen.insert(model.iter().map(|&b| b as u32).collect::<Word>());
        let w = ufa_sampler.sample(&mut rng).expect("nonempty");
        ufa_seen.insert(w);
    }
    assert_eq!(circuit_seen, ufa_seen);
    assert_eq!(circuit_seen.len() as u64, support);
}

/// The stratified counter agrees with bucketing the constant-delay
/// enumeration output — two independent paths to the same histogram.
#[test]
fn stratified_histogram_matches_enumeration_buckets() {
    use lsc_core::count::stratified::StratifiedCount;
    let ufa = blowup_nfa(4);
    let n = 9;
    let s = StratifiedCount::build(&ufa, n, 1).expect("blowup is a UFA");
    let inst = MemNfa::new(ufa, n);
    let mut buckets = vec![0u64; n + 1];
    for w in inst.enumerate_constant_delay().expect("UFA") {
        buckets[w.iter().filter(|&&a| a == 1).count()] += 1;
    }
    for (k, &expect) in buckets.iter().enumerate() {
        assert_eq!(s.count_with(k).to_u64(), Some(expect), "stratum {k}");
    }
}

/// Circuit-level minimum-cardinality agrees with a scan over the enumerated
/// models.
#[test]
fn min_cardinality_matches_enumerated_models() {
    use logspace_repro::nnf::queries::min_cardinality;
    let mut rng = StdRng::seed_from_u64(66);
    for trial in 0..5 {
        let vars = 6usize;
        let mut m = BddManager::new(vars);
        let mut f = m.var(rng.gen_range(0..vars));
        for _ in 0..7 {
            let v = m.var(rng.gen_range(0..vars));
            let g = if rng.gen_bool(0.4) { m.not(v) } else { v };
            f = if rng.gen_bool(0.5) {
                m.and(f, g)
            } else {
                m.or(f, g)
            };
        }
        let circuit = from_obdd(&m, f);
        let answer = min_cardinality(&circuit).expect("decomposable");
        let enumerator = ModelEnumerator::new(&circuit).unwrap();
        let mut best: Option<(usize, u64)> = None;
        for model in enumerator.iter() {
            let card = model.iter().filter(|&&b| b).count();
            match &mut best {
                None => best = Some((card, 1)),
                Some((bc, cnt)) => match card.cmp(bc) {
                    std::cmp::Ordering::Less => best = Some((card, 1)),
                    std::cmp::Ordering::Equal => *cnt += 1,
                    std::cmp::Ordering::Greater => {}
                },
            }
        }
        match (answer, best) {
            (None, None) => {}
            (Some((min, count)), Some((bmin, bcount))) => {
                assert_eq!(
                    (min, count.to_u64().unwrap()),
                    (bmin, bcount),
                    "trial {trial}"
                );
            }
            (a, b) => panic!("trial {trial}: satisfiability disagreement {a:?} vs {b:?}"),
        }
    }
}

// ---------- property tests ----------

fn nfa_from_seed(seed: u64, states: usize, density: f64) -> Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    random_nfa(states, Alphabet::binary(), density, 0.4, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Weber–Seidl classifier's unambiguity verdict matches the squaring
    /// check used everywhere else.
    #[test]
    fn degree_agrees_with_is_unambiguous(seed in 0u64..500, density in 0.15f64..0.45) {
        let nfa = nfa_from_seed(seed, 6, density);
        let degree = ambiguity_degree(&nfa);
        prop_assert_eq!(
            degree == AmbiguityDegree::Unambiguous,
            is_unambiguous(&nfa),
            "degree {:?}", degree
        );
    }

    /// Routed counts are sound: exact routes equal the oracle exactly.
    #[test]
    fn router_exact_routes_match_oracle(seed in 0u64..300, n in 1usize..9) {
        let nfa = nfa_from_seed(seed, 5, 0.3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let routed = PreparedInstance::new(nfa.clone(), n).count_routed(&RouterConfig::default(), &mut rng).unwrap();
        if let Some(exact) = routed.exact {
            prop_assert_eq!(exact, MemNfa::new(nfa, n).count_oracle());
        }
    }

    /// Grammar round trip: language and multiplicity both survive
    /// NFA → grammar → NFA for every short word.
    #[test]
    fn grammar_round_trip_preserves_language(seed in 0u64..300) {
        let nfa = nfa_from_seed(seed, 5, 0.3);
        let g = nfa_to_right_linear(&nfa);
        let back = right_linear_to_nfa(&g).unwrap();
        let cnf = Cnf::from_cfg(&g);
        for len in 0..=5usize {
            for code in 0..(1u32 << len) {
                let w: Word = (0..len).map(|i| (code >> i) & 1).collect();
                prop_assert_eq!(nfa.accepts(&w), back.accepts(&w), "word {:?}", w);
                prop_assert_eq!(nfa.accepts(&w), cyk_accepts(&cnf, &w), "word {:?}", w);
                prop_assert_eq!(
                    right_linear_derivations(&g, &w).unwrap().to_u64().unwrap(),
                    accepting_runs_on_word(&nfa, &w),
                    "multiplicity of {:?}", w
                );
            }
        }
    }

    /// CNF tree counts never exceed raw derivation counts, and agree on
    /// positivity (the DEL-merge caveat, as a law).
    #[test]
    fn cnf_tree_counts_lower_bound_raw_derivations(seed in 0u64..300) {
        let nfa = nfa_from_seed(seed, 4, 0.35);
        let g = nfa_to_right_linear(&nfa);
        let cnf = Cnf::from_cfg(&g);
        for len in 1..=5usize {
            for code in 0..(1u32 << len) {
                let w: Word = (0..len).map(|i| (code >> i) & 1).collect();
                let raw = right_linear_derivations(&g, &w).unwrap();
                let merged = cyk_tree_count(&cnf, &w);
                prop_assert!(merged <= raw, "word {:?}: {} > {}", w, merged, raw);
                prop_assert_eq!(merged.is_zero(), raw.is_zero(), "word {:?}", w);
            }
        }
    }

    /// Right-linear MEM-NFA packaging: witness checks distribute over the
    /// grammar and the automaton.
    #[test]
    fn mem_nfa_packaging_checks_witnesses(seed in 0u64..200, n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = cfg_families::random_right_linear(4, Alphabet::binary(), 0.4, 0.5, &mut rng);
        let inst = to_mem_nfa(&g, n).unwrap();
        let cnf = Cnf::from_cfg(&g);
        for code in 0..(1u32 << n) {
            let w: Word = (0..n).map(|i| (code >> i) & 1).collect();
            prop_assert_eq!(inst.check_witness(&w), cyk_accepts(&cnf, &w), "word {:?}", w);
        }
    }

    /// d-DNNF counting is stable under smoothing and agrees with brute force
    /// on random compiled circuits.
    #[test]
    fn nnf_counting_invariants(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = 5usize;
        let mut m = BddManager::new(vars);
        let mut f = m.var(rng.gen_range(0..vars));
        for _ in 0..6 {
            let v = m.var(rng.gen_range(0..vars));
            let g = if rng.gen_bool(0.3) { m.not(v) } else { v };
            f = match rng.gen_range(0..2) {
                0 => m.and(f, g),
                _ => m.or(f, g),
            };
        }
        let circuit = from_obdd(&m, f);
        let count = count_models(&circuit).unwrap();
        prop_assert_eq!(&count, &m.count_models(f));
        let smoothed = logspace_repro::nnf::transform::smoothed(&circuit);
        prop_assert_eq!(&count, &count_models(&smoothed).unwrap());
        let e = ModelEnumerator::new(&circuit).unwrap();
        prop_assert_eq!(e.iter().count() as u64, count.to_u64().unwrap());
    }
}
