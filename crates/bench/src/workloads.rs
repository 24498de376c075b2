//! Named workload instances shared by the experiments and the Criterion
//! benches, so a table row and a bench target always measure the same thing.

use lsc_automata::families;
use lsc_automata::regex::Regex;
use lsc_automata::{Alphabet, Nfa};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named MEM-NFA workload.
pub struct Workload {
    /// Short identifier used in tables and bench ids.
    pub name: &'static str,
    /// The automaton.
    pub nfa: Nfa,
    /// The witness length.
    pub n: usize,
}

/// The E1 accuracy suite: heterogeneous families at sizes where the
/// determinization oracle is still feasible.
pub fn accuracy_suite() -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(0xE1);
    vec![
        Workload {
            name: "blowup(6)",
            nfa: families::blowup_nfa(6),
            n: 16,
        },
        Workload {
            name: "gap(4)",
            nfa: families::ambiguity_gap_nfa(4),
            n: 12,
        },
        Workload {
            name: "contains-101",
            nfa: families::regex_family("contains-101").unwrap(),
            n: 14,
        },
        Workload {
            name: "third-from-end",
            nfa: families::regex_family("third-from-end").unwrap(),
            n: 14,
        },
        Workload {
            name: "random(m=8)",
            nfa: families::random_nfa(8, Alphabet::binary(), 0.25, 0.4, &mut rng),
            n: 12,
        },
    ]
}

/// The ambiguous workhorse for sampling experiments.
pub fn sampling_instance() -> Workload {
    let ab = Alphabet::binary();
    Workload {
        name: "contains-11",
        nfa: Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile(),
        n: 6,
    }
}

/// The E8 family where the naive estimator collapses.
pub fn naive_breaker(width: usize, n: usize) -> Workload {
    Workload {
        name: "gap",
        nfa: families::ambiguity_gap_nfa(width),
        n,
    }
}

/// The E2 length-scaling family (FPRAS runtime vs `n`).
pub fn scaling_by_n(n: usize) -> Workload {
    Workload {
        name: "blowup(8)",
        nfa: families::blowup_nfa(8),
        n,
    }
}

/// The E2 state-scaling family (FPRAS runtime vs `m`).
pub fn scaling_by_m(m: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(0xE2 + m as u64);
    Workload {
        name: "random",
        nfa: families::random_nfa(m, Alphabet::binary(), 2.0 / m as f64, 0.3, &mut rng),
        n: 24,
    }
}

/// The fixed instance the `BENCH_fpras.json` E3 and E27 trajectory is
/// measured on: an overlap-heavy language (every witness is reachable at
/// several states, so the union estimates genuinely sample) at a length where
/// the backward sampler dominates the wall clock. Fixed family + fixed `k`
/// across PRs, so snapshot-to-snapshot ratios are meaningful.
pub fn speedup_instance() -> Workload {
    Workload {
        name: "contains-101@24",
        nfa: families::regex_family("contains-101").unwrap(),
        n: 24,
    }
}

/// The fixed instance the `BENCH_engine.json` warm-vs-cold trajectory is
/// measured on (UFA exact route): unambiguous, with enough states and length
/// that the per-call preprocessing — ambiguity check, unrolling, completion
/// table — dominates serving one exact count. Fixed across PRs.
pub fn engine_ufa_instance() -> Workload {
    Workload {
        name: "blowup(10)@40",
        nfa: families::blowup_nfa(10),
        n: 40,
    }
}

/// The `BENCH_engine.json` FPRAS-route counterpart: ambiguous, probed with
/// `determinization_cap = 0` so the routed count genuinely runs Algorithm 5 —
/// cold pays one full sketch per query, warm serves every query from one
/// cached sketch.
pub fn engine_fpras_instance() -> Workload {
    Workload {
        name: "contains-101@20",
        nfa: families::regex_family("contains-101").unwrap(),
        n: 20,
    }
}

/// The `BENCH_cursor.json` instance: ambiguous (poly-delay route) with
/// ~2.4·10⁵ witnesses at length 18 — large enough that materializing the
/// whole witness set dwarfs a cursor's first-witness latency, small enough
/// that the full-materialization side of the bench still terminates.
pub fn cursor_instance() -> Workload {
    Workload {
        name: "contains-101@18",
        nfa: families::regex_family("contains-101").unwrap(),
        n: 18,
    }
}
