//! Ambiguity-aware counting routes — the router, folded into the engine.
//!
//! The paper's theorems split cleanly: unambiguous instances get exact
//! polynomial counting (Theorem 5), everything else gets the FPRAS
//! (Theorem 22). A production system should not ask the caller to know which
//! side of the split an automaton falls on, so the engine decides at runtime,
//! spending bounded effort on the cheap exact routes before paying for
//! randomized approximation:
//!
//! 1. **Unambiguous** (`MEM-UFA`): the `#L` dynamic program of §5.3.2 —
//!    exact, polynomial, deterministic.
//! 2. **Small subset construction**: an ambiguous NFA whose determinization
//!    stays under a state cap is counted exactly on the DFA. The cap bounds
//!    the time wasted probing instances that do blow up (the `blowup`
//!    family needs `2^k` subsets by design).
//! 3. **FPRAS**: the general case — `(1 ± δ)`-approximation with
//!    probability ≥ 3/4 (Theorem 22).
//!
//! This module holds the route vocabulary. The decision machinery lives on
//! [`PreparedInstance`], where the ambiguity check, the determinization
//! probe, and the per-route tables are all cached — so under the engine a
//! routing decision is made once per instance, not re-probed per request as
//! the original standalone `count::router` did. A one-shot routed count is
//! `PreparedInstance::new(nfa, n).count_routed(&config, &mut rng)`.
//!
//! [`PreparedInstance`]: crate::engine::PreparedInstance

use lsc_arith::{BigFloat, BigNat};
use lsc_automata::ops::AmbiguityDegree;

use crate::fpras::FprasParams;

/// Which counting algorithm the router selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountRoute {
    /// The automaton is unambiguous: the exact `#L` dynamic program (§5.3.2).
    ExactUnambiguous,
    /// The subset construction stayed under the cap: exact DFA counting.
    ExactDeterminized {
        /// States of the determinized automaton.
        dfa_states: usize,
    },
    /// General case: the #NFA FPRAS (Theorem 22).
    Fpras,
}

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Abort determinization past this many subsets (route 2). `0` disables
    /// the determinization probe entirely.
    pub determinization_cap: usize,
    /// FPRAS parameters for route 3.
    pub fpras: FprasParams,
    /// Also classify the automaton in the Weber–Seidl hierarchy (an extra
    /// `O(m²)`–`O(m³)` diagnostic; disable for very large automata).
    pub classify_ambiguity: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            determinization_cap: 4096,
            fpras: FprasParams::quick(),
            classify_ambiguity: true,
        }
    }
}

/// The routed count: provenance plus the number itself.
#[derive(Clone, Debug)]
pub struct RoutedCount {
    /// The algorithm that produced the answer.
    pub route: CountRoute,
    /// Weber–Seidl classification, if requested in [`RouterConfig`].
    pub degree: Option<AmbiguityDegree>,
    /// The exact count, when an exact route fired.
    pub exact: Option<BigNat>,
    /// The count as a `BigFloat`: exact (up to float conversion) on exact
    /// routes, the FPRAS estimate otherwise.
    pub estimate: BigFloat,
}

impl RoutedCount {
    /// True iff the reported number is exact rather than an estimate.
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::exact::count_nfa_via_determinization;
    use crate::engine::PreparedInstance;
    use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa, universal_nfa};
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(929)
    }

    #[test]
    fn unambiguous_goes_exact() {
        let n = blowup_nfa(6);
        let r = PreparedInstance::new(n.clone(), 14)
            .count_routed(&RouterConfig::default(), &mut rng())
            .unwrap();
        assert_eq!(r.route, CountRoute::ExactUnambiguous);
        assert_eq!(r.degree, Some(AmbiguityDegree::Unambiguous));
        assert_eq!(r.exact.unwrap(), count_nfa_via_determinization(&n, 14));
    }

    #[test]
    fn small_ambiguous_goes_determinized() {
        // a*a*-style ambiguity with a tiny DFA: route 2 fires.
        let ab = Alphabet::from_chars(&['a', 'b']);
        let n = Regex::parse("(a|b)*a(a|b)*", &ab).unwrap().compile();
        let r = PreparedInstance::new(n.clone(), 10)
            .count_routed(&RouterConfig::default(), &mut rng())
            .unwrap();
        match r.route {
            CountRoute::ExactDeterminized { dfa_states } => assert!(dfa_states <= 8),
            other => panic!("expected determinized route, got {other:?}"),
        }
        assert_eq!(r.exact.unwrap(), count_nfa_via_determinization(&n, 10));
        assert!(!r.degree.unwrap().supports_exact_counting());
    }

    #[test]
    fn capped_blowup_falls_back_to_fpras() {
        // Ambiguous + a cap below the subset-construction size (the gap
        // family determinizes to 3 subsets): route 3 fires, and the estimate
        // is close to the exact oracle.
        let n = ambiguity_gap_nfa(5);
        let len = 12;
        let config = RouterConfig {
            determinization_cap: 2,
            ..RouterConfig::default()
        };
        let r = PreparedInstance::new(n.clone(), len)
            .count_routed(&config, &mut rng())
            .unwrap();
        assert_eq!(r.route, CountRoute::Fpras);
        assert_eq!(r.degree, Some(AmbiguityDegree::Exponential));
        assert!(r.exact.is_none());
        let truth = count_nfa_via_determinization(&n, len).to_f64();
        let err = (r.estimate.to_f64() - truth).abs() / truth;
        assert!(err < 0.15, "estimate {} vs truth {truth}", r.estimate);
    }

    #[test]
    fn cap_zero_disables_the_probe() {
        let ab = Alphabet::from_chars(&['a', 'b']);
        let n = Regex::parse("(a|b)*a(a|b)*", &ab).unwrap().compile();
        let config = RouterConfig {
            determinization_cap: 0,
            ..RouterConfig::default()
        };
        let r = PreparedInstance::new(n.clone(), 8)
            .count_routed(&config, &mut rng())
            .unwrap();
        assert_eq!(r.route, CountRoute::Fpras);
    }

    #[test]
    fn classification_can_be_skipped() {
        let n = universal_nfa(Alphabet::binary());
        let config = RouterConfig {
            classify_ambiguity: false,
            ..RouterConfig::default()
        };
        let r = PreparedInstance::new(n.clone(), 16)
            .count_routed(&config, &mut rng())
            .unwrap();
        assert_eq!(r.route, CountRoute::ExactUnambiguous);
        assert_eq!(r.degree, None);
        assert_eq!(r.exact.unwrap().to_f64(), 65536.0);
    }

    #[test]
    fn empty_language_routes_exact_zero() {
        let ab = Alphabet::binary();
        let n = Regex::parse("01", &ab).unwrap().compile();
        let r = PreparedInstance::new(n.clone(), 7)
            .count_routed(&RouterConfig::default(), &mut rng())
            .unwrap();
        assert!(r.is_exact());
        assert!(r.exact.unwrap().is_zero());
        assert!(r.estimate.is_zero());
    }

    #[test]
    fn larger_cap_reprobes_after_a_failed_small_cap() {
        // The standalone router honored each call's cap independently; the
        // cached probe must too. A failing tiny cap must not poison a later
        // default-cap call into the FPRAS route.
        let ab = Alphabet::from_chars(&['a', 'b']);
        let n = Regex::parse("(a|b)*a(a|b)*", &ab).unwrap().compile();
        let inst = PreparedInstance::new(n, 10);
        let small = RouterConfig {
            determinization_cap: 1,
            ..RouterConfig::default()
        };
        let r1 = inst.count_routed(&small, &mut rng()).unwrap();
        assert_eq!(r1.route, CountRoute::Fpras);
        let r2 = inst
            .count_routed(&RouterConfig::default(), &mut rng())
            .unwrap();
        assert!(
            matches!(r2.route, CountRoute::ExactDeterminized { .. }),
            "default cap must still find the small DFA, got {:?}",
            r2.route
        );
        // And the successful probe keeps serving smaller-but-sufficient caps.
        let mid = RouterConfig {
            determinization_cap: 16,
            ..RouterConfig::default()
        };
        let r3 = inst.count_routed(&mid, &mut rng()).unwrap();
        assert_eq!(r3.route, r2.route);
        assert_eq!(r3.exact, r2.exact);
    }

    #[test]
    fn repeated_routing_probes_once() {
        // The cached path answers identically to the one-shot path, and the
        // second call on the same instance reuses every cached piece.
        let n = ambiguity_gap_nfa(4);
        let config = RouterConfig::default();
        let inst = PreparedInstance::new(n.clone(), 10);
        let warm1 = inst.count_routed_cached(&config, 7).unwrap();
        let warm2 = inst.count_routed_cached(&config, 7).unwrap();
        assert_eq!(warm1.route, warm2.route);
        assert_eq!(warm1.estimate.to_f64(), warm2.estimate.to_f64());
        // A cold one-shot with the same seed agrees bit for bit.
        let cold = PreparedInstance::new(n, 10)
            .count_routed_cached(&config, 7)
            .unwrap();
        assert_eq!(warm1.estimate.to_f64(), cold.estimate.to_f64());
        assert_eq!(warm1.exact, cold.exact);
    }
}
