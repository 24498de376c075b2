//! The seeded, stratified workload generator.
//!
//! Instances come from *base enumerations* in the GenCheck sense: a class
//! of automata is a finite index range `0..count` plus an injective
//! `select` function from index to instance. A *sampling strategy*
//! (Zipf, or a seeded permutation) picks indices, and the
//! selection turns them into wire-ready specs. The server only ever sees
//! the generated `prepare` lines.
//!
//! Every workload is a pure function of `(kind, seed)`. The seed changes
//! which instances appear and in what order; the per-class quotas and the
//! catalog shapes are fixed, so the cost mix stays the same across seeds.

use lsc_automata::io as nfa_io;
use lsc_automata::ops::is_unambiguous;
use lsc_automata::regex::Regex;
use lsc_automata::unroll::UnrolledDag;
use lsc_automata::{families, Alphabet, Nfa};
use lsc_core::serve::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64: the generator's only randomness, spelled out here so an op
/// sequence never depends on another crate's RNG.
#[derive(Clone, Debug)]
pub struct Rng64(u64);

impl Rng64 {
    /// A stream for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng64 {
        let mut rng = Rng64(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The instance families the workloads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Unambiguous: exact-unambiguous count, constant delay, table sampler.
    Ufa,
    /// Ambiguous with a small DFA: exact-determinized count, poly delay,
    /// Las Vegas sampler over an FPRAS sketch.
    Motif,
    /// Small ambiguous random NFAs (also determinized, sketch on first
    /// sample).
    Random,
    /// Ambiguous past the determinization cap: the FPRAS count route.
    Fpras,
}

/// How a `prepare` names its automaton.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Source {
    /// A regex over the server's default alphabet `01`.
    Regex(String),
    /// An automaton in the `lsc_automata::io` text format.
    NfaText(String),
}

/// One generated instance `(N, 0^n)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    /// The family it was drawn from.
    pub class: Class,
    /// The automaton as the wire carries it.
    pub source: Source,
    /// The witness length `n`.
    pub length: usize,
}

impl Spec {
    fn regex(class: Class, pattern: String, length: usize) -> Spec {
        Spec {
            class,
            source: Source::Regex(pattern),
            length,
        }
    }

    /// The alphabet the server compiles the spec over.
    pub fn alphabet(&self) -> Alphabet {
        match &self.source {
            Source::Regex(_) => Alphabet::from_chars(&['0', '1']),
            Source::NfaText(_) => self.nfa().alphabet().clone(),
        }
    }

    /// The automaton exactly as the server builds it from the wire spec.
    pub fn nfa(&self) -> Nfa {
        match &self.source {
            Source::Regex(pattern) => Regex::parse(pattern, &Alphabet::from_chars(&['0', '1']))
                .expect("generated regexes parse")
                .compile(),
            Source::NfaText(text) => nfa_io::from_text(text).expect("generated automata parse"),
        }
    }

    /// The `prepare` request line.
    pub fn prepare_line(&self) -> String {
        let (key, value) = match &self.source {
            Source::Regex(pattern) => ("regex", pattern),
            Source::NfaText(text) => ("nfa_text", text),
        };
        Json::Obj(vec![
            ("op".to_string(), Json::str("prepare")),
            (key.to_string(), Json::str(value.clone())),
            ("length".to_string(), Json::num(self.length as f64)),
        ])
        .encode()
    }
}

/// A base enumeration: an index range and an injective selection.
pub trait BaseEnum {
    /// Number of distinct instances.
    fn count(&self) -> u64;
    /// The instance at `index` (`index < count`); distinct indices give
    /// distinct instances.
    fn select(&self, index: u64) -> Spec;
}

/// The `index`-th way (`index < 2·C(g, 3)`) to spell `b Σ^g`: the marked
/// symbol `b ∈ {0, 1}`, then `g` gap positions of which three are written
/// `(0|1)` and the rest `.`. Every spelling has the same language and the
/// same number of positions, so a family of them costs the same to
/// compile while each is a distinct automaton.
fn gap_spelling(g: usize, index: u64) -> String {
    let b = index % 2;
    let mut rank = index / 2;
    let mut picked = Vec::with_capacity(3);
    let mut next = 0;
    for left in (1..=3).rev() {
        // Combinatorial unranking: skip the subsets that start earlier.
        loop {
            let rest = binomial((g - next - 1) as u64, left - 1);
            if rank < rest {
                break;
            }
            rank -= rest;
            next += 1;
        }
        picked.push(next);
        next += 1;
    }
    let gap: String = (0..g)
        .map(|i| if picked.contains(&i) { "(0|1)" } else { "." })
        .collect();
    format!("{b}{gap}")
}

fn binomial(n: u64, k: u64) -> u64 {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// `Σ* b Σ^{k-1}` at length `n` — unambiguous at every length (the
/// marked symbol sits exactly `k` from the end) — over every spelling of
/// the gap.
pub struct UfaBlowups {
    /// Distance of the marked symbol from the end.
    pub k: usize,
    /// Witness length.
    pub n: usize,
}

impl BaseEnum for UfaBlowups {
    fn count(&self) -> u64 {
        2 * binomial(self.k as u64 - 1, 3)
    }
    fn select(&self, index: u64) -> Spec {
        let pattern = format!(".*{}", gap_spelling(self.k - 1, index));
        Spec::regex(Class::Ufa, pattern, self.n)
    }
}

/// Two ordered motifs `Σ* w₁ Σ* w₂ Σ*` with `|wᵢ| ∈ {3, 4}` at length
/// `n`: ambiguous, small DFAs, sketches of 20–80 ms at `n ≤ 22`.
pub struct Motifs {
    /// Witness length.
    pub n: usize,
}

const MOTIF_WORDS: u64 = 8 + 16;

fn motif_word(index: u64) -> String {
    let (len, bits) = if index < 8 {
        (3, index)
    } else {
        (4, index - 8)
    };
    (0..len)
        .rev()
        .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
        .collect()
}

impl BaseEnum for Motifs {
    fn count(&self) -> u64 {
        MOTIF_WORDS * MOTIF_WORDS
    }
    fn select(&self, index: u64) -> Spec {
        let first = motif_word(index % MOTIF_WORDS);
        let second = motif_word(index / MOTIF_WORDS);
        Spec::regex(Class::Motif, format!(".*{first}.*{second}.*"), self.n)
    }
}

/// Random binary NFAs, kept only when ambiguous, non-empty at `n`, and at
/// most 120 DAG vertices (so a sketch stays near 10–40 ms). The rejection
/// loop is a deterministic function of the index, so the selection stays
/// a function.
pub struct RandomNfas {
    /// States.
    pub states: usize,
    /// Per-(state, symbol, target) transition probability.
    pub density: f64,
    /// Witness length.
    pub n: usize,
}

impl BaseEnum for RandomNfas {
    fn count(&self) -> u64 {
        1 << 20
    }
    fn select(&self, index: u64) -> Spec {
        for attempt in 0u64.. {
            let mut rng = StdRng::seed_from_u64(index << 16 | attempt);
            let nfa =
                families::random_nfa(self.states, Alphabet::binary(), self.density, 0.3, &mut rng);
            let text = nfa_io::to_text(&nfa);
            let nfa = nfa_io::from_text(&text).expect("round trip");
            let dag = UnrolledDag::build(&nfa, self.n);
            if !dag.is_empty() && dag.num_nodes() <= 120 && !is_unambiguous(&nfa) {
                return Spec {
                    class: Class::Random,
                    source: Source::NfaText(text),
                    length: self.n,
                };
            }
        }
        unreachable!("the attempt loop is unbounded")
    }
}

/// `Σ* b Σ^k Σ*` at length `n`, over every spelling of the gap: the subset
/// construction passes 4096 states, so `count` takes the FPRAS route
/// (sketches of 30–70 ms at `n ≤ 21`).
pub struct FprasGaps {
    /// Gap length.
    pub k: usize,
    /// Witness length.
    pub n: usize,
}

impl BaseEnum for FprasGaps {
    fn count(&self) -> u64 {
        2 * binomial(self.k as u64, 3)
    }
    fn select(&self, index: u64) -> Spec {
        let pattern = format!(".*{}.*", gap_spelling(self.k, index));
        Spec::regex(Class::Fpras, pattern, self.n)
    }
}

fn blowup(k: usize) -> String {
    format!(".*1{}", ".".repeat(k - 1))
}

/// A sampling strategy over a base enumeration's index range.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Zipf with exponent `s`: index `i` has weight `1/(i+1)^s`.
    Zipf(f64),
    /// A seeded affine permutation `j ↦ (a·j + b) mod count`: no index
    /// repeats within `count` draws.
    Permutation,
}

/// Draws indices of one base enumeration under one strategy.
#[derive(Clone, Debug)]
pub struct IndexSampler {
    count: u64,
    strategy: Strategy,
    rng: Rng64,
    cdf: Vec<f64>,
    step: u64,
    offset: u64,
    drawn: u64,
}

impl IndexSampler {
    /// A sampler over `0..count`.
    pub fn new(count: u64, strategy: Strategy, mut rng: Rng64) -> IndexSampler {
        assert!(count > 0, "empty base enumeration");
        let cdf = match strategy {
            Strategy::Zipf(s) => {
                let weights: Vec<f64> =
                    (0..count).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
            Strategy::Permutation => Vec::new(),
        };
        let (step, offset) = match strategy {
            Strategy::Permutation => {
                let mut step = 1 + rng.below(count.max(2) - 1);
                while gcd(step, count) != 1 {
                    step = 1 + rng.below(count.max(2) - 1);
                }
                (step, rng.below(count))
            }
            Strategy::Zipf(_) => (1, 0),
        };
        IndexSampler {
            count,
            strategy,
            rng,
            cdf,
            step,
            offset,
            drawn: 0,
        }
    }

    /// The next index.
    pub fn next_index(&mut self) -> u64 {
        let j = self.drawn;
        self.drawn += 1;
        match self.strategy {
            Strategy::Zipf(_) => {
                let u = self.rng.unit();
                self.cdf
                    .partition_point(|&c| c <= u)
                    .min(self.cdf.len() - 1) as u64
            }
            Strategy::Permutation => {
                ((u128::from(self.step) * u128::from(j) + u128::from(self.offset))
                    % u128::from(self.count)) as u64
            }
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The four benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Zipf-chosen warm sessions over threaded TCP.
    WarmWire,
    /// A stream of distinct instances, every prepare a cache miss.
    ColdCompile,
    /// 1000-word pages and 1000-draw samples over the event loop.
    BulkStream,
    /// `WarmWire`'s op sequence through a `Router` over two backends.
    RoutedWire,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::WarmWire,
        Kind::ColdCompile,
        Kind::BulkStream,
        Kind::RoutedWire,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmWire => "warm-wire",
            Kind::ColdCompile => "cold-compile",
            Kind::BulkStream => "bulk-stream",
            Kind::RoutedWire => "routed-wire",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One client request, against catalog entry `inst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Open a session (re-opening closes the previous one).
    Prepare(usize),
    /// Routed count.
    Count(usize),
    /// One page, continued from the last token.
    Enumerate {
        /// Catalog entry.
        inst: usize,
        /// Words per page.
        page: usize,
    },
    /// Uniform draws.
    Sample {
        /// Catalog entry.
        inst: usize,
        /// Words requested.
        count: usize,
        /// Draw seed.
        seed: u64,
    },
    /// Close the entry's session.
    Close(usize),
}

/// The four timed verbs (`close` is an op but not a verb).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    /// `prepare`
    Prepare,
    /// `count`
    Count,
    /// `enumerate`
    Enumerate,
    /// `sample`
    Sample,
}

impl Verb {
    /// All verbs, in metric order.
    pub const ALL: [Verb; 4] = [Verb::Prepare, Verb::Count, Verb::Enumerate, Verb::Sample];

    /// The wire op name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Prepare => "prepare",
            Verb::Count => "count",
            Verb::Enumerate => "enumerate",
            Verb::Sample => "sample",
        }
    }
}

impl Op {
    /// The catalog entry the op touches.
    pub fn inst(&self) -> usize {
        match *self {
            Op::Prepare(i) | Op::Count(i) | Op::Close(i) => i,
            Op::Enumerate { inst, .. } | Op::Sample { inst, .. } => inst,
        }
    }

    /// The timed verb, if any.
    pub fn verb(&self) -> Option<Verb> {
        match self {
            Op::Prepare(_) => Some(Verb::Prepare),
            Op::Count(_) => Some(Verb::Count),
            Op::Enumerate { .. } => Some(Verb::Enumerate),
            Op::Sample { .. } => Some(Verb::Sample),
            Op::Close(_) => None,
        }
    }

    fn digest_into(&self, hash: &mut u64) {
        let words: [u64; 4] = match *self {
            Op::Prepare(i) => [1, i as u64, 0, 0],
            Op::Count(i) => [2, i as u64, 0, 0],
            Op::Enumerate { inst, page } => [3, inst as u64, page as u64, 0],
            Op::Sample { inst, count, seed } => [4, inst as u64, count as u64, seed],
            Op::Close(i) => [5, i as u64, 0, 0],
        };
        for w in words {
            fnv(hash, &w.to_le_bytes());
        }
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01B3);
    }
}

/// Salts separating the generator's random streams.
const SALT_OPS: u64 = 1;
const SALT_CLASS: u64 = 2;
const SALT_ORDER: u64 = 3;
const SALT_ZIPF: u64 = 4;

/// The strata of one cold-compile block: one instance from each per
/// block, in a seeded order. Fixing the shapes per stratum keeps the cost
/// mix seed-independent, and the quotas keep every verb's p50 and p90
/// away from a class boundary: FPRAS counts are the top 1/6 of `count`,
/// cheap samples (table sampler, or a sketch `count` already built) the
/// bottom 5/12 of `sample`.
pub fn cold_strata() -> Vec<Box<dyn BaseEnum>> {
    vec![
        Box::new(UfaBlowups { k: 10, n: 64 }),
        Box::new(UfaBlowups { k: 12, n: 96 }),
        Box::new(UfaBlowups { k: 14, n: 128 }),
        Box::new(Motifs { n: 16 }),
        Box::new(Motifs { n: 18 }),
        Box::new(Motifs { n: 20 }),
        Box::new(Motifs { n: 22 }),
        Box::new(RandomNfas {
            states: 6,
            density: 0.3,
            n: 12,
        }),
        Box::new(RandomNfas {
            states: 8,
            density: 0.25,
            n: 14,
        }),
        Box::new(RandomNfas {
            states: 6,
            density: 0.3,
            n: 14,
        }),
        Box::new(FprasGaps { k: 12, n: 20 }),
        Box::new(FprasGaps { k: 13, n: 21 }),
    ]
}

/// Blocks of cold instances generated per run: about three times what a
/// 20-second run consumes on a 2-vCPU host.
pub const COLD_BLOCKS: usize = 144;

/// Warm-wire pages and samples.
pub const WARM_PAGE: usize = 16;
/// Warm-wire draws per `sample`.
pub const WARM_DRAWS: usize = 8;
/// Bulk-stream words per page and per `sample`.
pub const BULK_BATCH: usize = 1000;
/// Distinct draw seeds per warm-wire instance.
pub const WARM_SEEDS: u64 = 64;
/// Distinct draw seeds per bulk-stream instance: a small pool, so the
/// checker compares most 1000-draw replies against a remembered digest
/// instead of drawing the reference stream again.
pub const BULK_SEEDS: u64 = 16;

/// A generated workload: the instance catalog, the untimed warm-up ops
/// that set-up runs, and the timed op stream.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed it was generated from.
    pub seed: u64,
    /// Every instance the ops refer to, by index.
    pub catalog: Vec<Spec>,
    /// Set-up ops (warm the catalog, or the cold warm-up slice).
    pub warmup: Vec<Op>,
    /// Catalog entries the timed stream starts from (cold-compile only:
    /// entries before it belong to the warm-up slice).
    first_timed: usize,
}

impl Workload {
    /// Generates `kind` under `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::WarmWire | Kind::RoutedWire => warm(kind, seed),
            Kind::ColdCompile => cold(seed),
            Kind::BulkStream => bulk(seed),
        }
    }

    /// The timed op stream (infinite for the warm workloads and
    /// bulk-stream; one pass over the generated instances for
    /// cold-compile).
    pub fn ops(&self) -> OpStream {
        OpStream {
            kind: self.kind,
            rng: Rng64::new(self.seed, SALT_OPS),
            zipf: IndexSampler::new(
                self.catalog.len() as u64,
                Strategy::Zipf(1.0),
                Rng64::new(self.seed, SALT_ZIPF),
            ),
            next: self.first_timed,
            limit: self.catalog.len(),
            pending: Vec::new(),
        }
    }

    /// FNV-1a digest of the catalog plus the first `n` timed ops: equal
    /// seeds give equal digests.
    pub fn digest(&self, n: usize) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325;
        for spec in &self.catalog {
            fnv(&mut hash, spec.prepare_line().as_bytes());
        }
        for op in self.warmup.iter().copied().chain(self.ops().take(n)) {
            op.digest_into(&mut hash);
        }
        hash
    }
}

/// Eight warm instances covering all three count routes, both
/// enumerators and both samplers. The list order is the Zipf rank; it is
/// fixed so the cost mix does not move with the seed (unambiguous
/// entries carry 1/3 of the draws, keeping `sample`'s p50 inside the Las
/// Vegas class).
fn warm_catalog() -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(0x5EED_0008);
    let random = loop {
        let nfa = families::random_nfa(8, Alphabet::binary(), 0.25, 0.3, &mut rng);
        let text = nfa_io::to_text(&nfa);
        let nfa = nfa_io::from_text(&text).expect("round trip");
        if !UnrolledDag::build(&nfa, 14).is_empty() && !is_unambiguous(&nfa) {
            break text;
        }
    };
    vec![
        Spec::regex(Class::Motif, "(0|1)*101(0|1)*".to_string(), 24),
        Spec::regex(Class::Ufa, blowup(12), 40),
        Spec::regex(Class::Fpras, format!(".*1{}.*", ".".repeat(12)), 18),
        Spec::regex(Class::Ufa, blowup(6), 64),
        Spec::regex(Class::Motif, ".*101.*0110.*".to_string(), 22),
        Spec::regex(Class::Fpras, format!(".*0{}.*", ".".repeat(13)), 20),
        Spec::regex(Class::Ufa, "(0*11)*0*".to_string(), 32),
        Spec {
            class: Class::Random,
            source: Source::NfaText(random),
            length: 14,
        },
    ]
}

fn warm_up_all(catalog: &[Spec], page: usize, draws: usize) -> Vec<Op> {
    (0..catalog.len())
        .flat_map(|inst| {
            [
                Op::Prepare(inst),
                Op::Count(inst),
                Op::Enumerate { inst, page },
                Op::Sample {
                    inst,
                    count: draws,
                    seed: 0,
                },
            ]
        })
        .collect()
}

fn warm(kind: Kind, seed: u64) -> Workload {
    let catalog = warm_catalog();
    let warmup = warm_up_all(&catalog, WARM_PAGE, WARM_DRAWS);
    Workload {
        kind,
        seed,
        catalog,
        warmup,
        first_timed: 0,
    }
}

fn bulk(seed: u64) -> Workload {
    let catalog = vec![
        Spec::regex(Class::Ufa, blowup(12), 40),
        Spec::regex(Class::Motif, "(0|1)*101(0|1)*".to_string(), 24),
        Spec::regex(Class::Fpras, format!(".*1{}.*", ".".repeat(12)), 24),
    ];
    let warmup = warm_up_all(&catalog, BULK_BATCH, BULK_BATCH);
    Workload {
        kind: Kind::BulkStream,
        seed,
        catalog,
        warmup,
        first_timed: 0,
    }
}

/// Cold-compile's warm-up slice: one instance per class, fixed across
/// seeds (so `setup_s` does not move with the seed) and outside every
/// stratum's lengths (so it is disjoint from the timed stream).
fn cold_warm_slice() -> Vec<Spec> {
    vec![
        Spec::regex(Class::Ufa, blowup(8), 40),
        Spec::regex(Class::Motif, ".*101.*0110.*".to_string(), 15),
        RandomNfas {
            states: 6,
            density: 0.3,
            n: 13,
        }
        .select(0),
        Spec::regex(Class::Fpras, format!(".*1{}.*", ".".repeat(12)), 19),
    ]
}

fn cold(seed: u64) -> Workload {
    let strata = cold_strata();
    let mut samplers: Vec<IndexSampler> = strata
        .iter()
        .enumerate()
        .map(|(i, base)| {
            let salt = SALT_CLASS ^ ((i as u64 + 1) << 8);
            IndexSampler::new(base.count(), Strategy::Permutation, Rng64::new(seed, salt))
        })
        .collect();
    let mut catalog = cold_warm_slice();
    let warm_slice = catalog.len();
    let mut order = Rng64::new(seed, SALT_ORDER);
    for _ in 0..COLD_BLOCKS {
        let mut block: Vec<usize> = (0..strata.len()).collect();
        for i in (1..block.len()).rev() {
            block.swap(i, order.below(i as u64 + 1) as usize);
        }
        catalog.extend(
            block
                .into_iter()
                .map(|i| strata[i].select(samplers[i].next_index())),
        );
    }
    let warmup = (0..warm_slice).flat_map(|inst| cold_ops(inst, 0)).collect();
    Workload {
        kind: Kind::ColdCompile,
        seed,
        catalog,
        warmup,
        first_timed: warm_slice,
    }
}

/// One cold instance's life: prepare → count → first page → sample → close.
fn cold_ops(inst: usize, seed: u64) -> [Op; 5] {
    [
        Op::Prepare(inst),
        Op::Count(inst),
        Op::Enumerate {
            inst,
            page: WARM_PAGE,
        },
        Op::Sample {
            inst,
            count: WARM_DRAWS,
            seed,
        },
        Op::Close(inst),
    ]
}

/// The timed op stream of a [`Workload`].
#[derive(Clone, Debug)]
pub struct OpStream {
    kind: Kind,
    rng: Rng64,
    zipf: IndexSampler,
    next: usize,
    limit: usize,
    /// Ops of the current step, in reverse.
    pending: Vec<Op>,
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if let Some(op) = self.pending.pop() {
            return Some(op);
        }
        match self.kind {
            Kind::WarmWire | Kind::RoutedWire => {
                let inst = self.zipf.next_index() as usize;
                let u = self.rng.unit();
                Some(if u < 0.1 {
                    Op::Prepare(inst)
                } else if u < 0.5 {
                    Op::Count(inst)
                } else if u < 0.8 {
                    Op::Enumerate {
                        inst,
                        page: WARM_PAGE,
                    }
                } else {
                    Op::Sample {
                        inst,
                        count: WARM_DRAWS,
                        seed: self.rng.below(WARM_SEEDS),
                    }
                })
            }
            Kind::BulkStream => {
                let inst = self.next % self.limit;
                self.next += 1;
                let seed = self.rng.below(BULK_SEEDS);
                self.pending = vec![
                    Op::Sample {
                        inst,
                        count: BULK_BATCH,
                        seed,
                    },
                    Op::Enumerate {
                        inst,
                        page: BULK_BATCH,
                    },
                    Op::Count(inst),
                ];
                Some(Op::Prepare(inst))
            }
            Kind::ColdCompile => {
                if self.next >= self.limit {
                    return None;
                }
                let inst = self.next;
                self.next += 1;
                let mut ops = cold_ops(inst, self.rng.next_u64() >> 11).to_vec();
                ops.reverse();
                self.pending = ops;
                self.pending.pop()
            }
        }
    }
}
