//! E10–E12: the extension experiments (grammar, ambiguity hierarchy,
//! knowledge compilation).

use std::time::Instant;

use lsc_automata::ops::{ambiguity_degree, AmbiguityDegree};
use lsc_automata::{families as nfa_families, Alphabet, Nfa};
use lsc_bdd::{obdd_to_ufa, BddManager, BddRef};
use lsc_core::engine::{CountRoute, RouterConfig};
use lsc_core::fpras::FprasParams;
use lsc_core::sample::SampleStats;
use lsc_core::{MemNfa, PreparedInstance};
use lsc_grammar::regular::to_mem_nfa;
use lsc_grammar::{families as cfg_families, Cnf, DerivationTable, TreeSampler};
use lsc_nnf::checks::{determinism_violation, CheckOutcome};
use lsc_nnf::compile::from_obdd;
use lsc_nnf::{count_models, ModelEnumerator, ModelSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{dur, f3};
use crate::Table;

/// E10 — the context-free trichotomy: exact (unambiguous) / FPRAS (regular)
/// / overcount-only (general ambiguous).
pub fn run_e10() {
    println!("## E10 — context-free counting and sampling ([GJK+97] contrast)\n");

    // Part 1: unambiguous fragment — exact counts against closed forms.
    let mut table = Table::new(&["grammar", "n", "derivations", "closed form", "time"]);
    let catalan = |k: usize| -> u128 {
        // C(k) = binom(2k, k) / (k+1), exact in u128 for k ≤ 30.
        let mut c: u128 = 1;
        for i in 0..k as u128 {
            c = c * (2 * (k as u128) - i) / (i + 1);
        }
        c / (k as u128 + 1)
    };
    let dyck = Cnf::from_cfg(&cfg_families::dyck());
    for k in [8usize, 12, 16] {
        let start = Instant::now();
        let t = DerivationTable::build(&dyck, 2 * k);
        let d = t.derivations(2 * k);
        table.row(&[
            "dyck".into(),
            (2 * k).to_string(),
            d.to_string(),
            format!("Catalan({k}) = {}", catalan(k)),
            dur(start.elapsed()),
        ]);
        assert_eq!(d.to_string(), catalan(k).to_string());
    }
    let pal = Cnf::from_cfg(&cfg_families::binary_palindromes());
    for n in [64usize, 200] {
        let start = Instant::now();
        let t = DerivationTable::build(&pal, n);
        let d = t.derivations(n);
        table.row(&[
            "palindromes".into(),
            n.to_string(),
            format!("10^{:.1}", lsc_arith::BigFloat::from_bignat(&d).log10()),
            format!("2^{}", n.div_ceil(2)),
            dur(start.elapsed()),
        ]);
    }
    table.print();

    // Part 2: exact uniform sampling from the unambiguous fragment.
    let t = DerivationTable::build(&dyck, 10);
    let sampler = TreeSampler::new(&t, 10);
    let support = sampler.support().to_u64().expect("Catalan(5) = 42") as usize;
    let mut rng = StdRng::seed_from_u64(0xE10);
    let mut stats = SampleStats::new();
    for _ in 0..8400 {
        stats.record(sampler.sample(&mut rng).expect("support nonempty"));
    }
    println!(
        "\nuniform sampling, dyck n=10: support {}, distinct drawn {}, chi² = {:.1}, uniform: {}\n",
        support,
        stats.distinct(),
        stats.chi_square(support),
        stats.looks_uniform(support)
    );

    // Part 3: ambiguous-but-regular — route through the paper's FPRAS; the
    // derivation DP only upper-bounds the word count.
    let mut table = Table::new(&[
        "right-linear grammar",
        "n",
        "derivations (trees)",
        "exact words",
        "FPRAS",
        "rel err",
    ]);
    for seed in 0..3u64 {
        let mut grng = StdRng::seed_from_u64(seed);
        let g = cfg_families::random_right_linear(6, Alphabet::binary(), 0.3, 0.5, &mut grng);
        let n = 12;
        let trees = DerivationTable::build(&Cnf::from_cfg(&g), n).derivations(n);
        let inst = to_mem_nfa(&g, n).expect("family is right-linear");
        let truth = inst.count_oracle().to_f64();
        let est = inst
            .count_approx(FprasParams::quick(), &mut rng)
            .unwrap()
            .to_f64();
        let err = if truth > 0.0 {
            (est - truth).abs() / truth
        } else {
            0.0
        };
        table.row(&[
            format!("random(6)#{seed}"),
            n.to_string(),
            trees.to_string(),
            f3(truth),
            f3(est),
            f3(err),
        ]);
    }
    table.print();

    // Part 4: general ambiguous CFG — the open case; derivations strictly
    // overcount and no FPRAS is known.
    let amb = Cnf::from_cfg(&cfg_families::ambiguous_arithmetic());
    let una = Cnf::from_cfg(&cfg_families::arithmetic_expressions());
    let mut table = Table::new(&[
        "n",
        "ambiguous-grammar trees",
        "words (via unambiguous twin)",
        "overcount ×",
    ]);
    for n in [5usize, 9, 13, 17] {
        let a = DerivationTable::build(&amb, n).derivations(n).to_f64();
        let u = DerivationTable::build(&una, n).derivations(n).to_f64();
        table.row(&[n.to_string(), f3(a), f3(u), format!("{:.2}", a / u)]);
    }
    table.print();
    println!();
}

/// The star-chain family: `stars` overlapping `a*` blocks, ambiguity
/// `Θ(n^{stars-1})`.
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

/// E11 — the Weber–Seidl ambiguity hierarchy and the counting router.
pub fn run_e11() {
    println!("## E11 — ambiguity classification and counting routes\n");
    let mut rng = StdRng::seed_from_u64(0xE11);
    let ab = Alphabet::binary();
    let gallery: Vec<(String, Nfa)> = vec![
        ("blowup(5)".into(), nfa_families::blowup_nfa(5)),
        ("star-chain(2)".into(), star_chain(2)),
        ("star-chain(5)".into(), star_chain(5)),
        ("gap-gadget(4)".into(), nfa_families::ambiguity_gap_nfa(4)),
        (
            "substring-101".into(),
            lsc_automata::regex::Regex::parse("(0|1)*101(0|1)*", &ab)
                .unwrap()
                .compile(),
        ),
        ("universal".into(), nfa_families::universal_nfa(ab.clone())),
    ];
    let mut table = Table::new(&[
        "automaton",
        "Weber–Seidl class",
        "classify time",
        "route @ n=14",
        "count",
        "exact?",
    ]);
    let config = RouterConfig {
        determinization_cap: 8,
        ..RouterConfig::default()
    };
    for (name, nfa) in &gallery {
        let start = Instant::now();
        let degree = ambiguity_degree(nfa);
        let classify_time = start.elapsed();
        let class = match degree {
            AmbiguityDegree::Unambiguous => "unambiguous".to_owned(),
            AmbiguityDegree::Finite => "finite".to_owned(),
            AmbiguityDegree::Polynomial { degree } => format!("Θ(n^{degree})"),
            AmbiguityDegree::Exponential => "2^Θ(n)".to_owned(),
        };
        let routed = PreparedInstance::new(nfa.clone(), 14)
            .count_routed(&config, &mut rng)
            .expect("router");
        let route = match routed.route {
            CountRoute::ExactUnambiguous => "exact #L DP".to_owned(),
            CountRoute::ExactDeterminized { dfa_states } => format!("DFA ({dfa_states} subsets)"),
            CountRoute::Fpras => "FPRAS".to_owned(),
        };
        table.row(&[
            name.clone(),
            class,
            dur(classify_time),
            route,
            f3(routed.estimate.to_f64()),
            if routed.is_exact() {
                "yes".into()
            } else {
                "≈".into()
            },
        ]);
    }
    table.print();

    // The hierarchy validated against brute-force max runs-per-word growth.
    let mut table = Table::new(&["automaton", "class", "max runs @ n=6", "@ n=9", "@ n=12"]);
    for (name, nfa) in [
        ("star-chain(2)", star_chain(2)),
        ("star-chain(3)", star_chain(3)),
        ("gap-gadget(3)", nfa_families::ambiguity_gap_nfa(3)),
    ] {
        let class = match ambiguity_degree(&nfa) {
            AmbiguityDegree::Polynomial { degree } => format!("Θ(n^{degree})"),
            AmbiguityDegree::Exponential => "2^Θ(n)".to_owned(),
            other => format!("{other:?}"),
        };
        let max_runs = |len: usize| -> u64 {
            let sigma = nfa.alphabet().len() as u32;
            let mut word = vec![0u32; len];
            let mut best = 0;
            loop {
                best = best.max(lsc_automata::ops::accepting_runs_on_word(&nfa, &word));
                let mut i = 0;
                loop {
                    if i == len {
                        return best;
                    }
                    word[i] += 1;
                    if word[i] < sigma {
                        break;
                    }
                    word[i] = 0;
                    i += 1;
                }
            }
        };
        table.row(&[
            name.into(),
            class,
            max_runs(6).to_string(),
            max_runs(9).to_string(),
            max_runs(12).to_string(),
        ]);
    }
    table.print();
    println!();
}

/// A random BDD built by combining variables with random connectives.
fn random_bdd(m: &mut BddManager, rng: &mut StdRng, ops: usize) -> BddRef {
    let n = m.num_vars();
    let mut f = m.var(rng.gen_range(0..n));
    for _ in 0..ops {
        let v = m.var(rng.gen_range(0..n));
        let g = if rng.gen_bool(0.3) { m.not(v) } else { v };
        f = match rng.gen_range(0..3) {
            0 => m.and(f, g),
            1 => m.or(f, g),
            _ => m.xor(f, g),
        };
    }
    f
}

/// E12 — the knowledge-compilation triangle: OBDD ↔ d-DNNF ↔ UFA.
pub fn run_e12() {
    println!("## E12 — d-DNNF vs OBDD vs UFA ([ABJM17] contrast)\n");
    let mut rng = StdRng::seed_from_u64(0xE12);
    let mut table = Table::new(&[
        "function",
        "BDD nodes",
        "d-DNNF nodes",
        "deterministic",
        "BDD count",
        "d-DNNF count",
        "UFA count",
        "enum len",
    ]);
    for seed in 0..3u64 {
        let mut m = BddManager::new(8);
        let mut frng = StdRng::seed_from_u64(seed);
        let f = random_bdd(&mut m, &mut frng, 12);
        let circuit = from_obdd(&m, f);
        let det = matches!(determinism_violation(&circuit, 16), CheckOutcome::Holds);
        let bdd_count = m.count_models(f);
        let circuit_count = count_models(&circuit).expect("compiled circuits are decomposable");
        let ufa = MemNfa::new(obdd_to_ufa(&m, f), m.num_vars());
        let ufa_count = ufa.count_exact().expect("OBDD automata are unambiguous");
        let enumerator = ModelEnumerator::new(&circuit).unwrap();
        let enum_len = enumerator.iter().count();
        assert_eq!(bdd_count, circuit_count);
        assert_eq!(bdd_count, ufa_count);
        assert_eq!(enum_len as u64, bdd_count.to_u64().unwrap());
        table.row(&[
            format!("random(8 vars)#{seed}"),
            m.size(f).to_string(),
            circuit.num_nodes().to_string(),
            det.to_string(),
            bdd_count.to_string(),
            circuit_count.to_string(),
            ufa_count.to_string(),
            enum_len.to_string(),
        ]);
    }
    // Beyond brute force: parity over 64 variables (linear-size everywhere).
    let mut m = BddManager::new(64);
    let mut f = m.var(0);
    for v in 1..64 {
        let x = m.var(v);
        f = m.xor(f, x);
    }
    let circuit = from_obdd(&m, f);
    let count = count_models(&circuit).unwrap();
    table.row(&[
        "parity(64)".into(),
        m.size(f).to_string(),
        circuit.num_nodes().to_string(),
        "true".into(),
        m.count_models(f).to_string(),
        count.to_string(),
        "(= 2^63)".into(),
        "—".into(),
    ]);
    assert_eq!(count, lsc_arith::BigNat::pow2(63));
    table.print();

    // Uniform sampling from the circuit side, validated by chi-square.
    let mut m = BddManager::new(4);
    let mut frng = StdRng::seed_from_u64(7);
    let f = random_bdd(&mut m, &mut frng, 6);
    let circuit = from_obdd(&m, f);
    let sampler = ModelSampler::new(&circuit).unwrap();
    let support = sampler.support().to_u64().unwrap() as usize;
    let mut stats = SampleStats::new();
    for _ in 0..200 * support.max(1) {
        if let Some(model) = sampler.sample(&mut rng) {
            stats.record(model.iter().map(|&b| b as u32).collect());
        }
    }
    println!(
        "\nuniform model sampling (4 vars): support {}, distinct {}, chi² = {:.1}, uniform: {}\n",
        support,
        stats.distinct(),
        stats.chi_square(support),
        stats.looks_uniform(support)
    );
}

/// E13 — refined queries: stratified MEM-UFA counting/sampling and weighted
/// model counting over d-DNNF circuits.
pub fn run_e13() {
    use lsc_core::count::stratified::StratifiedCount;
    use lsc_nnf::queries::{weighted_count, LiteralWeights};

    println!("## E13 — refined counting: strata and weights\n");
    let mut rng = StdRng::seed_from_u64(0xE13);

    // Part 1: stratified histograms. The universal automaton's histogram is
    // the binomial row — an exact end-to-end check — and the blowup family
    // shows a nontrivial shape whose sum matches the flat §5.3.2 count.
    let mut table = Table::new(&["automaton", "n", "histogram over #1s", "sum", "flat count"]);
    let u = nfa_families::universal_nfa(Alphabet::binary());
    let s = StratifiedCount::build(&u, 8, 1).expect("universal is a UFA");
    table.row(&[
        "universal".into(),
        "8".into(),
        s.histogram()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" "),
        s.total().to_string(),
        "256".into(),
    ]);
    let b = nfa_families::blowup_nfa(4);
    let s = StratifiedCount::build(&b, 10, 1).expect("blowup is a UFA");
    let flat = MemNfa::new(b.clone(), 10).count_exact().unwrap();
    table.row(&[
        "blowup(4)".into(),
        "10".into(),
        s.histogram()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" "),
        s.total().to_string(),
        flat.to_string(),
    ]);
    assert_eq!(s.total(), flat);
    table.print();

    // Conditioned uniform sampling from one stratum.
    let stratum = 3;
    let mut stats = SampleStats::new();
    let support = s.count_with(stratum).to_u64().unwrap() as usize;
    for _ in 0..200 * support {
        stats.record(s.sample_with(stratum, &mut rng).expect("stratum nonempty"));
    }
    println!(
        "\nstratum #1s={stratum} of blowup(4)@10: support {}, distinct drawn {}, chi² = {:.1}, uniform: {}\n",
        support,
        stats.distinct(),
        stats.chi_square(support),
        stats.looks_uniform(support)
    );

    // Part 2: weighted model counting on random lineages, vs brute force.
    let mut table = Table::new(&[
        "lineage",
        "models",
        "WMC (probability)",
        "brute force",
        "|Δ|",
    ]);
    for seed in 0..3u64 {
        let mut frng = StdRng::seed_from_u64(seed);
        let vars = 8usize;
        let mut m = BddManager::new(vars);
        let f = random_bdd(&mut m, &mut frng, 10);
        let circuit = from_obdd(&m, f);
        let probs: Vec<f64> = (0..vars).map(|_| frng.gen_range(0.05..0.95)).collect();
        let wmc = weighted_count(&circuit, &LiteralWeights::probabilities(&probs))
            .expect("decomposable")
            .to_f64();
        let mut brute = 0.0;
        for world in 0..(1u128 << vars) {
            if m.eval(f, world) {
                let mut w = 1.0;
                for (v, &pv) in probs.iter().enumerate() {
                    w *= if world >> v & 1 == 1 { pv } else { 1.0 - pv };
                }
                brute += w;
            }
        }
        table.row(&[
            format!("random(8)#{seed}"),
            m.count_models(f).to_string(),
            format!("{wmc:.6}"),
            format!("{brute:.6}"),
            format!("{:.2e}", (wmc - brute).abs()),
        ]);
    }
    table.print();
    println!();
}
