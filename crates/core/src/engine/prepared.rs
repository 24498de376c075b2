//! The compile-once instance artifact behind the engine.
//!
//! The enumeration-complexity literature (Capelli & Strozecki; Strozecki's
//! incremental-delay survey) separates every enumeration algorithm into an
//! explicit **preprocessing phase** and a **serving phase** whose cost is
//! measured per answer. The paper's algorithms have exactly that shape — the
//! unrolled DAG of Lemma 15 *is* the preprocessing artifact for all three
//! problem families — but the original `MemNfa` façade rebuilt it (and
//! re-derived the ambiguity classification) on every call.
//! [`PreparedInstance`] makes the split operational: everything derivable
//! from `(N, 0^n)` alone is computed at most once, cached behind
//! [`OnceLock`]s, and shared by `COUNT`, `ENUM`, and `GEN` requests.
//!
//! Artifact contents, in dependency order:
//!
//! 1. the **fingerprint** (structural hash + length) the engine cache keys on;
//! 2. the **CSR unrolled DAG** (`Arc`-shared with every enumerator, sampler,
//!    and sketch derived from it);
//! 3. the **ambiguity classification** — the `is_unambiguous` product check,
//!    and optionally the full Weber–Seidl degree;
//! 4. the **capped determinization probe** of the counting router;
//! 5. the per-problem tables, lazily materialized on first use: the exact
//!    completion-count table (UFA route: exact `COUNT` + exact `GEN`), and
//!    the FPRAS sketch state (ambiguous route: approximate `COUNT` +
//!    Las Vegas `GEN`).
//!
//! Everything cached here is a pure function of the instance (the FPRAS
//! sketch additionally of an explicit seed), so caching is invisible to
//! callers: warm answers are bit-identical to cold ones.

use std::sync::{Arc, Mutex, OnceLock};

use lsc_arith::{BigFloat, BigNat};
use lsc_automata::ops::{ambiguity_degree, determinize_capped, is_unambiguous, AmbiguityDegree};
use lsc_automata::unroll::UnrolledDag;
use lsc_automata::{Dfa, Nfa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::count::exact::NotUnambiguousError;
use crate::engine::router::{CountRoute, RoutedCount, RouterConfig};
use crate::enumerate::{ConstantDelayEnumerator, PolyDelayEnumerator};
use crate::fpras::{run_fpras_on, FprasError, FprasParams, FprasState};
use crate::sample::TableSampler;

/// A compiled MEM-NFA instance `(N, 0^n)`: pay the preprocessing once, serve
/// `COUNT` / `ENUM` / `GEN` from the shared artifact.
///
/// All interior caches are [`OnceLock`]s, so a `PreparedInstance` is `Sync`
/// and can serve concurrent requests (the server's worker pool relies on
/// this); whichever request needs a table first materializes it, and every
/// later request reads the same memory.
pub struct PreparedInstance {
    nfa: Arc<Nfa>,
    length: usize,
    fingerprint: u64,
    dag: OnceLock<Arc<UnrolledDag>>,
    unambiguous: OnceLock<bool>,
    degree: OnceLock<AmbiguityDegree>,
    /// `(cap probed with, result)` of the router's capped subset
    /// construction. A `Mutex` rather than a `OnceLock` because a larger cap
    /// legitimately re-probes (see [`PreparedInstance::determinized_within`]);
    /// the stored DFA is the same full subset construction whichever cap
    /// first succeeded, so dependent caches stay valid.
    probe: Mutex<Option<(usize, Option<Arc<Dfa>>)>>,
    /// Exact word count on the determinized route (`dfa.count_words(n)`).
    det_count: OnceLock<BigNat>,
    completions: OnceLock<Arc<Vec<BigNat>>>,
    /// Memoized byte size of `completions` (immutable once built).
    completions_bytes: OnceLock<usize>,
    /// The cached FPRAS sketch, tagged with the `(params, seed)` it was
    /// built from so a caller with a different configuration is never served
    /// a foreign sketch (see [`PreparedInstance::fpras_sketch`]).
    sketch: OnceLock<(SketchKey, Result<Arc<FprasState>, FprasError>)>,
}

/// The value-relevant FPRAS configuration plus the build seed: every field
/// of [`FprasParams`] that can change a computed estimate or sample
/// (`threads` is excluded — the estimates are bit-identical at any thread
/// count by construction, pinned by the equivalence suite).
type SketchKey = (u64, usize, usize, u64, bool);

fn sketch_key(params: &FprasParams, seed: u64) -> SketchKey {
    (
        seed,
        params.k,
        params.attempts,
        params.rejection_constant.to_bits(),
        params.exact_handling,
    )
}

impl PreparedInstance {
    /// The largest instance the wire `prepare` and snapshot decoding admit,
    /// in unrolled `(layer, state)` cells: `(length + 1) × states`. Every
    /// artifact is at least linear in it (the DAG build reserves a state
    /// set per layer up front), so an untrusted length past it must be
    /// refused before anything is built.
    pub const MAX_CELLS: usize = 1 << 22;

    /// Whether `(length + 1) × nfa.num_states()` is within
    /// [`PreparedInstance::MAX_CELLS`].
    pub fn admits(nfa: &Nfa, length: usize) -> bool {
        length
            .checked_add(1)
            .and_then(|layers| layers.checked_mul(nfa.num_states()))
            .is_some_and(|cells| cells <= Self::MAX_CELLS)
    }

    /// Wraps an instance without materializing anything: every table is built
    /// on first use. This is what [`crate::MemNfa`] holds, so constructing a
    /// façade instance stays free.
    pub fn new(nfa: Nfa, length: usize) -> Self {
        Self::from_arc(Arc::new(nfa), length)
    }

    /// [`PreparedInstance::new`] over an already-shared automaton — the
    /// engine's resolution path: a cache miss clones only the `Arc`, never
    /// the transition table.
    pub fn from_arc(nfa: Arc<Nfa>, length: usize) -> Self {
        let fingerprint = Self::instance_fingerprint(&nfa, length);
        PreparedInstance {
            nfa,
            length,
            fingerprint,
            dag: OnceLock::new(),
            unambiguous: OnceLock::new(),
            degree: OnceLock::new(),
            probe: Mutex::new(None),
            det_count: OnceLock::new(),
            completions: OnceLock::new(),
            completions_bytes: OnceLock::new(),
            sketch: OnceLock::new(),
        }
    }

    /// The explicit preprocessing phase: builds the unrolled DAG and decides
    /// ambiguity up front, so the first query is as cheap as every later one.
    pub fn prepare(nfa: Nfa, length: usize) -> Self {
        let inst = Self::new(nfa, length);
        inst.dag();
        inst.is_unambiguous();
        inst
    }

    /// Reconstructs an instance from persisted snapshot parts (see
    /// [`crate::engine::SnapshotStore`]): the classification and the
    /// big-integer tables are pre-seeded instead of recomputed, and the CSR
    /// DAG — a deterministic linear-time rebuild — is materialized eagerly so
    /// no compile work is left for the serving path. Every pre-seeded value
    /// is a pure function of `(nfa, length)`, so a restored instance answers
    /// bit-identically to a freshly compiled one.
    pub fn from_snapshot_parts(
        nfa: Arc<Nfa>,
        length: usize,
        unambiguous: Option<bool>,
        degree: Option<AmbiguityDegree>,
        completions: Option<Vec<BigNat>>,
        det_count: Option<BigNat>,
    ) -> Self {
        let inst = Self::from_arc(nfa, length);
        if let Some(u) = unambiguous {
            let _ = inst.unambiguous.set(u);
        }
        if let Some(d) = degree {
            let _ = inst.degree.set(d);
        }
        if let Some(c) = completions {
            let _ = inst.completions.set(Arc::new(c));
        }
        if let Some(c) = det_count {
            let _ = inst.det_count.set(c);
        }
        inst.dag();
        inst
    }

    /// The snapshot parts currently materialized on this instance —
    /// `(unambiguous, degree, completion table, determinized count)`, each
    /// `None` if never computed. This is the save half of the snapshot
    /// round trip; [`PreparedInstance::from_snapshot_parts`] is the load
    /// half.
    // the tuple mirrors the four optional snapshot payload sections one-to-one;
    // a named struct would just restate the §5.2 layout in a second place
    #[allow(clippy::type_complexity)]
    pub fn snapshot_parts(
        &self,
    ) -> (
        Option<bool>,
        Option<AmbiguityDegree>,
        Option<&Arc<Vec<BigNat>>>,
        Option<&BigNat>,
    ) {
        let unambiguous = match self.degree.get() {
            Some(&d) => Some(d == AmbiguityDegree::Unambiguous),
            None => self.unambiguous.get().copied(),
        };
        (
            unambiguous,
            self.degree.get().copied(),
            self.completions.get(),
            self.det_count.get(),
        )
    }

    /// The cached FPRAS sketch's persistable parts — the build seed and the
    /// successfully built state — or `None` when nothing (or only a failed
    /// build) is cached. The save half of sketch persistence;
    /// [`PreparedInstance::seed_sketch`] is the load half. The rest of the
    /// caching key travels with the state itself ([`FprasState::params`]).
    pub fn sketch_snapshot(&self) -> Option<(u64, &Arc<FprasState>)> {
        match self.sketch.get() {
            Some(((seed, ..), Ok(state))) => Some((*seed, state)),
            _ => None,
        }
    }

    /// Pre-seeds the sketch cache from persisted parts (the snapshot load
    /// path): a later [`PreparedInstance::fpras_sketch`] call with the same
    /// `(params, seed)` is served the restored state — bit-identical to the
    /// cold build it was saved from — while any other `(params, seed)`
    /// still gets a fresh uncached build, exactly as with a live-built
    /// cache entry. A no-op if a sketch is already cached.
    pub fn seed_sketch(&self, seed: u64, state: Arc<FprasState>) {
        let key = sketch_key(state.params(), seed);
        let _ = self.sketch.set((key, Ok(state)));
    }

    /// The automaton `N`.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The automaton behind its shared handle (for constructing further
    /// artifact-sharing views).
    pub fn nfa_arc(&self) -> &Arc<Nfa> {
        &self.nfa
    }

    /// The witness length `n`.
    pub fn length(&self) -> usize {
        self.length
    }

    /// The cache key: the automaton's structural hash mixed with the length.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint a [`PreparedInstance`] over `(nfa, length)` would
    /// carry — computable without building one, so raw-instance `Queryable`
    /// implementations and resume-token validation agree on the key.
    pub fn instance_fingerprint(nfa: &Nfa, length: usize) -> u64 {
        nfa.fingerprint()
            .wrapping_add((length as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The shared unrolled DAG (built on first access).
    pub fn dag(&self) -> &Arc<UnrolledDag> {
        self.dag
            .get_or_init(|| Arc::new(UnrolledDag::build(&self.nfa, self.length)))
    }

    /// Is this a MEM-UFA instance? Decided once; reuses the Weber–Seidl
    /// degree when that has already been computed.
    pub fn is_unambiguous(&self) -> bool {
        if let Some(&d) = self.degree.get() {
            return d == AmbiguityDegree::Unambiguous;
        }
        *self.unambiguous.get_or_init(|| is_unambiguous(&self.nfa))
    }

    /// The Weber–Seidl ambiguity classification (computed once).
    pub fn ambiguity(&self) -> AmbiguityDegree {
        *self.degree.get_or_init(|| ambiguity_degree(&self.nfa))
    }

    /// The membership test `(x, y) ∈ R` of the p-relation (§2.1).
    pub fn check_witness(&self, word: &[u32]) -> bool {
        word.len() == self.length && self.nfa.accepts(word)
    }

    /// Does any witness exist? Free once the DAG is built.
    pub fn exists_witness(&self) -> bool {
        !self.dag().is_empty()
    }

    /// The shared completion-count table (`|{y : y completes v}|` per DAG
    /// vertex) — the §5.3.2 dynamic program, materialized once and reused by
    /// exact counting and the exact uniform sampler.
    pub fn completion_table(&self) -> &Arc<Vec<BigNat>> {
        self.completions
            .get_or_init(|| Arc::new(self.dag().completion_counts()))
    }

    /// The number of accepting *runs* — equals the witness count iff the
    /// instance is unambiguous.
    pub fn count_paths(&self) -> BigNat {
        match self.dag().start() {
            None => BigNat::zero(),
            Some(s) => self.completion_table()[s].clone(),
        }
    }

    /// Exact `|W|` in polynomial time — Theorem 5, MEM-UFA only.
    ///
    /// # Errors
    /// [`NotUnambiguousError`] on ambiguous instances.
    pub fn count_exact(&self) -> Result<BigNat, NotUnambiguousError> {
        if !self.is_unambiguous() {
            return Err(NotUnambiguousError);
        }
        Ok(self.count_paths())
    }

    /// Constant-delay enumeration over the shared DAG — Theorem 5, MEM-UFA
    /// only.
    ///
    /// # Errors
    /// [`NotUnambiguousError`] on ambiguous instances.
    pub fn enumerate_constant_delay(&self) -> Result<ConstantDelayEnumerator, NotUnambiguousError> {
        if !self.is_unambiguous() {
            return Err(NotUnambiguousError);
        }
        Ok(ConstantDelayEnumerator::from_dag(self.dag().clone()))
    }

    /// Polynomial-delay enumeration over the shared DAG — any instance.
    pub fn enumerate(&self) -> PolyDelayEnumerator {
        PolyDelayEnumerator::from_parts(self.nfa.clone(), self.dag().clone())
    }

    /// Exact uniform sampler over the shared completion table — Theorem 5,
    /// MEM-UFA only.
    ///
    /// # Errors
    /// [`NotUnambiguousError`] on ambiguous instances.
    pub fn uniform_sampler(&self) -> Result<TableSampler, NotUnambiguousError> {
        if !self.is_unambiguous() {
            return Err(NotUnambiguousError);
        }
        Ok(TableSampler::from_parts(
            self.dag().clone(),
            self.completion_table().clone(),
        ))
    }

    /// One-shot FPRAS run over the shared DAG, with caller-owned randomness —
    /// the compatibility path behind [`crate::MemNfa::fpras_state`]. Not
    /// cached (the result depends on `rng`); use [`PreparedInstance::fpras_sketch`]
    /// for the engine's cached, seed-keyed variant.
    ///
    /// # Errors
    /// Propagates the FPRAS failure events.
    pub fn run_fpras<R: Rng + ?Sized>(
        &self,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<FprasState, FprasError> {
        run_fpras_on(self.nfa.clone(), self.dag().clone(), params, rng)
    }

    /// The cached FPRAS sketch: built once from `StdRng::seed_from_u64(seed)`
    /// and served to every later caller with the same `(params, seed)` (the
    /// engine derives `seed` deterministically from its config and the
    /// fingerprint, so warm answers are bit-identical to a cold engine's).
    /// A caller whose `(params, seed)` differs from what the cache holds is
    /// *not* served the foreign sketch — it gets a fresh uncached build,
    /// still deterministic in its own arguments — so one caller can never
    /// poison another's answers.
    ///
    /// # Errors
    /// Propagates the FPRAS failure events (cached for the caching key: a
    /// failed build is not retried).
    pub fn fpras_sketch(
        &self,
        params: FprasParams,
        seed: u64,
    ) -> Result<Arc<FprasState>, FprasError> {
        let key = sketch_key(&params, seed);
        let (cached_key, result) = self.sketch.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            (key, self.run_fpras(params, &mut rng).map(Arc::new))
        });
        if *cached_key == key {
            return result.clone();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        self.run_fpras(params, &mut rng).map(Arc::new)
    }

    /// The router's capped subset-construction probe, cached per-cap-regime:
    /// a successful probe serves every later call whose cap admits the DFA,
    /// a failed probe is conclusive for all smaller-or-equal caps, and a
    /// *larger* cap re-probes — so the answer for any given cap is exactly
    /// what the standalone router computed, just never twice.
    pub(crate) fn determinized_within(&self, cap: usize) -> Option<Arc<Dfa>> {
        if cap == 0 {
            return None;
        }
        let mut probe = self.probe.lock().expect("probe lock poisoned");
        match &*probe {
            Some((_, Some(dfa))) => {
                return (dfa.num_states() <= cap).then(|| dfa.clone());
            }
            Some((probed_cap, None)) if cap <= *probed_cap => return None,
            _ => {}
        }
        let result = determinize_capped(&self.nfa, cap).map(Arc::new);
        *probe = Some((cap, result.clone()));
        result
    }

    /// Routed `|W|` over the cached classification, probe, and tables; the
    /// caller supplies the randomness for the FPRAS route (re-run per call —
    /// the behavior of the original standalone router, minus all the
    /// re-probing).
    ///
    /// # Errors
    /// Propagates [`FprasError`] when the FPRAS route fires.
    pub fn count_routed<R: Rng + ?Sized>(
        &self,
        config: &RouterConfig,
        rng: &mut R,
    ) -> Result<RoutedCount, FprasError> {
        self.count_routed_inner(config, |params| {
            let mut state_rng = rng;
            self.run_fpras(params, &mut state_rng).map(|s| s.estimate())
        })
    }

    /// Routed `|W|` served from the cached FPRAS sketch when the FPRAS route
    /// fires — the engine's warm path: repeated `COUNT` requests on the same
    /// instance re-run nothing.
    ///
    /// # Errors
    /// Propagates [`FprasError`] when the FPRAS route fires and the (cached)
    /// sketch build failed.
    pub fn count_routed_cached(
        &self,
        config: &RouterConfig,
        sketch_seed: u64,
    ) -> Result<RoutedCount, FprasError> {
        self.count_routed_inner(config, |params| {
            self.fpras_sketch(params, sketch_seed).map(|s| s.estimate())
        })
    }

    fn count_routed_inner(
        &self,
        config: &RouterConfig,
        fpras_estimate: impl FnOnce(FprasParams) -> Result<BigFloat, FprasError>,
    ) -> Result<RoutedCount, FprasError> {
        let degree = config.classify_ambiguity.then(|| self.ambiguity());
        let unambiguous = match degree {
            Some(d) => d == AmbiguityDegree::Unambiguous,
            None => self.is_unambiguous(),
        };
        if unambiguous {
            let exact = self.count_paths();
            return Ok(RoutedCount {
                route: CountRoute::ExactUnambiguous,
                degree,
                estimate: BigFloat::from_bignat(&exact),
                exact: Some(exact),
            });
        }
        if let Some(dfa) = self.determinized_within(config.determinization_cap) {
            let exact = self
                .det_count
                .get_or_init(|| dfa.count_words(self.length))
                .clone();
            return Ok(RoutedCount {
                route: CountRoute::ExactDeterminized {
                    dfa_states: dfa.num_states(),
                },
                degree,
                estimate: BigFloat::from_bignat(&exact),
                exact: Some(exact),
            });
        }
        let estimate = fpras_estimate(config.fpras)?;
        Ok(RoutedCount {
            route: CountRoute::Fpras,
            degree,
            exact: None,
            estimate,
        })
    }

    /// Rough heap footprint of the materialized artifact in bytes — the
    /// sizing input for the engine's byte-capped LRU cache. Lazily-built
    /// tables only count once they exist, so an entry's recorded size grows
    /// as queries warm it up. The per-table measurements are memoized
    /// (tables are immutable once built), so re-measuring a warm instance —
    /// which the engine does on every touch — is O(1). The weight memo the
    /// cached sketch retains for `GEN` counts too, as of the last sampler
    /// that returned it ([`FprasState::retained_memo_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>()
            + self.nfa.num_transitions() * std::mem::size_of::<(u32, usize)>()
            + self.nfa.num_states() * std::mem::size_of::<usize>();
        match self.sketch.get() {
            // The sketch's estimate already includes the shared DAG once.
            Some((_, Ok(s))) => bytes += s.approx_bytes() + s.retained_memo_bytes(),
            _ => bytes += self.dag.get().map_or(0, |d| d.approx_bytes()),
        }
        if let Some(c) = self.completions.get() {
            bytes += *self.completions_bytes.get_or_init(|| {
                c.iter()
                    .map(|x| std::mem::size_of::<BigNat>() + x.bit_len().div_ceil(8))
                    .sum()
            });
        }
        if let Some((_, Some(dfa))) = &*self.probe.lock().expect("probe lock poisoned") {
            bytes += dfa.num_states() * self.nfa.alphabet().len() * std::mem::size_of::<usize>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;
    use lsc_automata::regex::Regex;
    use lsc_automata::{Alphabet, Word};

    #[test]
    fn admission_counts_unrolled_cells_and_never_overflows() {
        let nfa = blowup_nfa(4);
        let m = nfa.num_states();
        let layers = PreparedInstance::MAX_CELLS / m;
        assert!(PreparedInstance::admits(&nfa, layers - 1));
        assert!(!PreparedInstance::admits(&nfa, layers));
        assert!(!PreparedInstance::admits(&nfa, usize::MAX));
        assert!(!PreparedInstance::admits(&nfa, usize::MAX / 2));
    }

    #[test]
    fn tables_materialize_lazily_and_once() {
        let inst = PreparedInstance::new(blowup_nfa(4), 10);
        let base = inst.approx_bytes();
        let dag = Arc::as_ptr(inst.dag());
        assert_eq!(Arc::as_ptr(inst.dag()), dag, "same artifact on re-access");
        assert!(inst.approx_bytes() > base, "DAG now counted");
        let with_dag = inst.approx_bytes();
        let c1 = Arc::as_ptr(inst.completion_table());
        assert_eq!(Arc::as_ptr(inst.completion_table()), c1);
        assert!(inst.approx_bytes() > with_dag, "tables grow the footprint");
    }

    #[test]
    fn prepared_answers_match_fresh_answers() {
        let inst = PreparedInstance::prepare(blowup_nfa(3), 8);
        assert!(inst.is_unambiguous());
        let count = inst.count_exact().unwrap();
        // Two enumerators off the same artifact agree with each other and
        // with the count.
        let a: Vec<Word> = inst.enumerate_constant_delay().unwrap().collect();
        let b: Vec<Word> = inst.enumerate_constant_delay().unwrap().collect();
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, count.to_u64().unwrap());
    }

    #[test]
    fn cached_sketch_is_shared_and_seed_deterministic() {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile();
        let inst = PreparedInstance::new(nfa.clone(), 8);
        let s1 = inst.fpras_sketch(FprasParams::quick(), 42).unwrap();
        let s2 = inst.fpras_sketch(FprasParams::quick(), 42).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "sketch built once");
        // A second instance with the same seed reproduces the estimate.
        let other = PreparedInstance::new(nfa, 8);
        let s3 = other.fpras_sketch(FprasParams::quick(), 42).unwrap();
        assert_eq!(s1.estimate().to_f64(), s3.estimate().to_f64());
    }

    #[test]
    fn foreign_sketch_params_do_not_poison_cached_answers() {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile();
        let inst = PreparedInstance::new(nfa.clone(), 8);
        // A direct caller fixes the cache with its own params and seed...
        let mut odd = FprasParams::quick();
        odd.k = 8;
        let foreign = inst.fpras_sketch(odd, 999).unwrap();
        // ...but a later caller with a different key is never served the
        // foreign sketch: its answer matches a fresh instance's, bit for bit.
        let a = inst.fpras_sketch(FprasParams::quick(), 42).unwrap();
        let b = PreparedInstance::new(nfa, 8)
            .fpras_sketch(FprasParams::quick(), 42)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &foreign));
        assert_eq!(a.estimate().to_f64(), b.estimate().to_f64());
        // Equal keys still share the cached build.
        let c = inst.fpras_sketch(odd, 999).unwrap();
        assert!(Arc::ptr_eq(&c, &foreign));
    }

    #[test]
    fn fingerprint_distinguishes_lengths() {
        let a = PreparedInstance::new(blowup_nfa(3), 8);
        let b = PreparedInstance::new(blowup_nfa(3), 9);
        let c = PreparedInstance::new(blowup_nfa(4), 8);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            PreparedInstance::new(blowup_nfa(3), 8).fingerprint()
        );
    }
}
