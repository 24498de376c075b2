//! Auditing ambiguity and routing COUNT accordingly.
//!
//! The paper's algorithm choice hinges on one property: is the automaton
//! unambiguous (Theorem 5, everything exact) or not (Theorem 2, FPRAS)?
//! Ambiguity has finer, decidable structure — the Weber–Seidl hierarchy —
//! and knowing where an instance sits explains *why* the naive run-counting
//! estimator of §6.1 fails on it. This example classifies a gallery of
//! automata and then lets the counting router pick the cheapest sound
//! algorithm for each.
//!
//! Run with: `cargo run --release --example ambiguity_audit`

use logspace_repro::automata::families;
use logspace_repro::automata::ops::{ambiguity_degree, AmbiguityDegree};
use logspace_repro::core::engine::{CountRoute, RouterConfig};
use logspace_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn star_chain(stars: usize) -> Nfa {
    // a* a* … a* a  (overlapping blocks): ambiguity Θ(n^{stars-1}).
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

fn main() {
    let mut rng = StdRng::seed_from_u64(1991);
    let ab = Alphabet::binary();

    let gallery: Vec<(&str, Nfa)> = vec![
        ("blowup (0|1)*1(0|1)^4", families::blowup_nfa(5)),
        ("two overlapping a*-blocks", star_chain(2)),
        ("four overlapping a*-blocks", star_chain(4)),
        ("duplicated branch aa|aa", {
            let mut b = Nfa::builder(ab.clone(), 5);
            b.set_initial(0);
            for (f, s, t) in [(0, 0, 1), (1, 0, 2), (0, 0, 3), (3, 0, 4)] {
                b.add_transition(f, s, t);
            }
            b.set_accepting(2);
            b.set_accepting(4);
            b.build()
        }),
        ("ambiguity-gap gadget", families::ambiguity_gap_nfa(4)),
        (
            "substring 101",
            Regex::parse("(0|1)*101(0|1)*", &ab).unwrap().compile(),
        ),
    ];

    println!(
        "{:<28} {:<22} {:<24} count @ n=12",
        "automaton", "Weber–Seidl class", "route chosen"
    );
    // A tight cap keeps the probe cheap and lets instances with larger
    // subset constructions fall through to the FPRAS.
    let config = RouterConfig {
        determinization_cap: 6,
        ..RouterConfig::default()
    };
    for (name, nfa) in &gallery {
        let degree = ambiguity_degree(nfa);
        let class = match degree {
            AmbiguityDegree::Unambiguous => "unambiguous".to_owned(),
            AmbiguityDegree::Finite => "finitely ambiguous".to_owned(),
            AmbiguityDegree::Polynomial { degree } => format!("polynomial, Θ(n^{degree})"),
            AmbiguityDegree::Exponential => "exponential, 2^Θ(n)".to_owned(),
        };
        let routed = PreparedInstance::new(nfa.clone(), 12)
            .count_routed(&config, &mut rng)
            .expect("router");
        let route = match routed.route {
            CountRoute::ExactUnambiguous => "exact #L DP (Thm 5)".to_owned(),
            CountRoute::ExactDeterminized { dfa_states } => {
                format!("exact DFA ({dfa_states} subsets)")
            }
            CountRoute::Fpras => "FPRAS (Thm 22)".to_owned(),
        };
        let marker = if routed.is_exact() { "=" } else { "≈" };
        println!(
            "{name:<28} {class:<22} {route:<24} {marker} {}",
            routed.estimate
        );
    }

    println!();
    println!("the audit explains §6.1: the naive estimator's variance is driven by the");
    println!("runs-per-word spread, which is exactly what the Weber–Seidl class bounds —");
    println!("polynomial spread is survivable, exponential spread (the gap gadget) is not.");
}
