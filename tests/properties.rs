//! Property-based integration tests over random automata: the invariants the
//! paper's theorems promise, checked by proptest across the whole stack.

#[path = "../crates/core/tests/kernel_oracle/mod.rs"]
mod kernel_oracle;

use logspace_repro::prelude::*;
use lsc_automata::families::{random_nfa, random_ufa};
use lsc_automata::ops::{determinize, is_unambiguous};
use lsc_core::fpras::run_fpras;
use lsc_core::self_reduce::psi;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random NFA described by a seed (kept deterministic for shrinking).
fn nfa_from_seed(seed: u64, states: usize, density: f64) -> Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    random_nfa(states, Alphabet::binary(), density, 0.4, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Poly-delay enumeration lists exactly |L_n| distinct witnesses, all
    /// accepted, in lexicographic order.
    #[test]
    fn enumeration_is_sound_and_complete(seed in 0u64..500, n in 1usize..8) {
        let nfa = nfa_from_seed(seed, 6, 0.25);
        let inst = MemNfa::new(nfa.clone(), n);
        let words: Vec<Word> = inst.enumerate().collect();
        let truth = inst.count_oracle().to_u64().unwrap();
        prop_assert_eq!(words.len() as u64, truth);
        let mut sorted = words.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(&sorted, &words, "lexicographic, duplicate-free");
        for w in &words {
            prop_assert!(nfa.accepts(w));
            prop_assert_eq!(w.len(), n);
        }
    }

    /// The FPRAS estimate lands within 25% of the oracle on small random
    /// instances with quick parameters (far looser than its configured δ, so
    /// this should essentially never flake).
    #[test]
    fn fpras_is_accurate(seed in 0u64..200, n in 2usize..9) {
        let nfa = nfa_from_seed(seed, 6, 0.3);
        let inst = MemNfa::new(nfa, n);
        let truth = inst.count_oracle().to_f64();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let est = inst.count_approx(FprasParams::quick(), &mut rng).unwrap().to_f64();
        if truth == 0.0 {
            prop_assert_eq!(est, 0.0);
        } else {
            prop_assert!((est - truth).abs() / truth < 0.25, "est {} truth {}", est, truth);
        }
    }

    /// The packed word-level union kernel is a pure representation change:
    /// on random NFAs, the seed's quadratic scan and the scalar walk with
    /// recomputed reach sets reproduce every estimate a real build made,
    /// and the build is bit-identical at every sampling thread count. (The
    /// fixed-family sweep lives in `crates/core/tests/equivalence.rs`; this
    /// is the randomized counterpart.)
    #[test]
    fn packed_union_kernel_matches_quadratic_oracle(seed in 0u64..100, n in 2usize..9) {
        let nfa = nfa_from_seed(seed, 6, 0.3);
        let mut params = FprasParams::quick();
        // A small per-vertex budget forces sampled (not exactly-handled)
        // vertices, so the union estimator actually runs.
        params.k = 16;
        let build = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            run_fpras(&nfa, n, params.with_threads(threads), &mut rng).unwrap()
        };
        let state = build(1);
        let checked = kernel_oracle::check_on_sketch(&state, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        for threads in [2usize, 4] {
            let est = build(threads).estimate();
            prop_assert_eq!(
                est.to_raw_parts(),
                state.estimate().to_raw_parts(),
                "threads={}: {} != {}",
                threads, est, state.estimate()
            );
        }
    }

    /// Exact UFA counting equals determinization on random UFAs.
    #[test]
    fn ufa_count_matches_determinization(seed in 0u64..500, n in 0usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ufa = random_ufa(7, Alphabet::binary(), 0.25, &mut rng);
        let inst = MemNfa::new(ufa.clone(), n);
        let exact = inst.count_exact().expect("random_ufa is unambiguous");
        prop_assert_eq!(exact, determinize(&ufa).count_words(n));
    }

    /// Self-reducibility (sound ψ): a∘y ∈ L_k iff y ∈ L_{k-1}(ψ(N, a)), and
    /// ψ preserves unambiguity.
    #[test]
    fn psi_is_a_derivative(seed in 0u64..300, a in 0u32..2) {
        let nfa = nfa_from_seed(seed, 5, 0.3);
        let derived = psi(&nfa, a);
        // Compare across all words of length 3.
        for code in 0..8u32 {
            let y: Word = (0..3).map(|i| (code >> i) & 1).collect();
            let mut ay = vec![a];
            ay.extend_from_slice(&y);
            prop_assert_eq!(nfa.accepts(&ay), derived.accepts(&y));
        }
        if is_unambiguous(&nfa) {
            prop_assert!(is_unambiguous(&derived));
        }
    }

    /// Sampled witnesses are members, with correct length.
    #[test]
    fn plvug_samples_are_witnesses(seed in 0u64..100, n in 2usize..8) {
        let nfa = nfa_from_seed(seed, 5, 0.35);
        let inst = MemNfa::new(nfa, n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let generator = inst.las_vegas_generator(FprasParams::quick(), &mut rng).unwrap();
        match generator.generate(&mut rng) {
            lsc_core::sample::GenOutcome::Empty => prop_assert!(!inst.exists_witness()),
            lsc_core::sample::GenOutcome::Witness(w) => prop_assert!(inst.check_witness(&w)),
            lsc_core::sample::GenOutcome::Fail => {
                // Allowed but must be rare; treat repeated failure as a bug.
                let again = generator.generate(&mut rng);
                prop_assert!(
                    !matches!(again, lsc_core::sample::GenOutcome::Fail),
                    "two consecutive retried failures"
                );
            }
        }
    }

    /// Constant-delay path enumeration over any NFA yields exactly the
    /// accepting-run count (completion DP), linking Algorithm 1 to the #L
    /// argument of §5.3.2.
    #[test]
    fn path_enumeration_counts_runs(seed in 0u64..300, n in 1usize..7) {
        use lsc_core::count::exact::count_runs;
        use lsc_core::enumerate::ConstantDelayEnumerator;
        let nfa = nfa_from_seed(seed, 5, 0.3);
        let runs = count_runs(&nfa, n).to_u64().unwrap();
        let listed = ConstantDelayEnumerator::paths(&nfa, n).count() as u64;
        prop_assert_eq!(runs, listed);
    }

    /// The naive estimator is unbiased in the aggregate on unambiguous
    /// instances (single sample is already exact there).
    #[test]
    fn naive_estimator_exact_on_ufas(seed in 0u64..200, n in 1usize..8) {
        use lsc_core::count::naive::naive_estimate;
        let mut rng = StdRng::seed_from_u64(seed);
        let ufa = random_ufa(6, Alphabet::binary(), 0.25, &mut rng);
        let truth = determinize(&ufa).count_words(n).to_f64();
        if truth > 0.0 {
            let est = naive_estimate(&ufa, n, 1, &mut rng).to_f64();
            prop_assert!((est - truth).abs() < 1e-6 * truth.max(1.0));
        }
    }
}
