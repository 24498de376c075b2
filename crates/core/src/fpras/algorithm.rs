//! Algorithm 5: the full FPRAS driver.
//!
//! Processes the unrolled DAG layer by layer. Vertices whose string sets
//! `U(s)` are small (`≤ k`) are *exactly handled*: their full sets are carried
//! forward (step 4). All other vertices get an estimate `R(s)` from the union
//! estimator over their predecessor sketches, then `k` fresh samples from
//! Algorithm 4 (step 5). The final answer is the estimate at the virtual final
//! vertex, whose "predecessors" are the accepting vertices of layer `n`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lsc_arith::BigFloat;
use lsc_automata::unroll::{NodeId, UnrolledDag};
use lsc_automata::{Nfa, StateSet, Word};
use rand::Rng;

use super::params::FprasParams;
use super::sampler::{sample_once, sample_once_no_rejection, SampleCtx, SamplerScratch};
use super::sketch::{reach_of, SampleEntry, VertexData};

/// Failure events of Algorithm 5 (both output "0" in the paper; we surface
/// them as errors so callers can distinguish them from a genuinely empty
/// language).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FprasError {
    /// Step 5(c)(iii): the retry budget was exhausted while sampling `X(s)`.
    SamplingFailed {
        /// DAG layer of the vertex being sampled.
        layer: usize,
        /// NFA state of the vertex being sampled.
        state: usize,
    },
    /// Step 5(b): a surviving vertex received estimate `R(s) = 0`.
    ZeroEstimate {
        /// DAG layer of the vertex.
        layer: usize,
        /// NFA state of the vertex.
        state: usize,
    },
}

impl std::fmt::Display for FprasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FprasError::SamplingFailed { layer, state } => write!(
                f,
                "FPRAS failure: retry budget exhausted sampling X(s^{layer}_{state})"
            ),
            FprasError::ZeroEstimate { layer, state } => {
                write!(
                    f,
                    "FPRAS failure: R(s^{layer}_{state}) = 0 on a live vertex"
                )
            }
        }
    }
}

impl std::error::Error for FprasError {}

/// The completed sketch structure: estimates and samples for every vertex,
/// ready to answer `COUNT` (estimate) and `GEN` (uniform sampling) queries.
///
/// The automaton and DAG are held behind [`Arc`]s so a prepared instance
/// ([`crate::engine::PreparedInstance`]) can share one unrolling between the
/// sketch, the enumerators, and the exact tables without cloning.
///
/// The state also keeps one idle sampler scratch, weight memo included, so
/// that every witness sampler built on it after the first starts warm (see
/// [`FprasState::witness_sampler`]). The memo is not part of the sketch: it
/// is a pure function of the frozen sketch, changes no draw, and is not
/// persisted.
pub struct FprasState {
    nfa: Arc<Nfa>,
    dag: Arc<UnrolledDag>,
    params: FprasParams,
    data: Vec<Option<VertexData>>,
    final_r: BigFloat,
    /// Memoized [`FprasState::approx_bytes`] — the sketch is immutable after
    /// construction, so the sample walk is paid at most once.
    bytes: OnceLock<usize>,
    /// The scratch no live sampler holds, if any.
    idle: Mutex<Option<SamplerScratch>>,
    /// Memo bytes of the scratch last kept in `idle`, readable without the
    /// lock (see [`FprasState::retained_memo_bytes`]).
    idle_bytes: AtomicUsize,
}

impl FprasState {
    /// The estimate of `|L_n(N)|` — `R(s_final)` in the paper.
    pub fn estimate(&self) -> BigFloat {
        self.final_r
    }

    /// The parameters the state was built with.
    pub fn params(&self) -> &FprasParams {
        &self.params
    }

    /// The underlying unrolled DAG.
    pub fn dag(&self) -> &UnrolledDag {
        &self.dag
    }

    /// The automaton the state was built from.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// True iff `L_n(N) = ∅` (decided exactly by the DAG pruning, not by the
    /// estimate).
    pub fn is_empty_language(&self) -> bool {
        self.dag.is_empty()
    }

    /// Rough heap footprint of the sketch structure (samples + reach sets +
    /// shared DAG), for the engine's byte-capped instance cache. An estimate,
    /// not an exact allocation count; measured once and memoized (the state
    /// is immutable), so repeated calls are O(1).
    pub fn approx_bytes(&self) -> usize {
        *self.bytes.get_or_init(|| {
            let reach_bytes = self.nfa.num_states().div_ceil(8);
            let mut bytes = self.dag.approx_bytes();
            for d in self.data.iter().flatten() {
                bytes += std::mem::size_of::<VertexData>();
                for s in &d.samples {
                    bytes += std::mem::size_of::<SampleEntry>()
                        + s.word.len() * std::mem::size_of::<lsc_automata::Symbol>()
                        + reach_bytes;
                }
            }
            bytes
        })
    }

    /// Approximate bytes of the weight memo the state retains for its
    /// witness samplers, as of the last sampler drop — zero until one is
    /// dropped, and always zero when the weight memo is disabled. Not part
    /// of [`FprasState::approx_bytes`], which measures the immutable sketch.
    pub fn retained_memo_bytes(&self) -> usize {
        self.idle_bytes.load(Ordering::Relaxed)
    }

    /// The per-vertex sketch table, indexed by DAG node id (`None` = vertex
    /// pruned or never materialized). The snapshot codec serializes this;
    /// [`FprasState::from_parts`] is the load half.
    pub fn vertex_data(&self) -> &[Option<VertexData>] {
        &self.data
    }

    /// Reassembles a state from persisted parts (the snapshot load path).
    /// The caller is responsible for `data`/`final_r` having been produced
    /// by a real run over the same `(nfa, dag, params)` — the snapshot
    /// layer guards this with its payload checksum plus structural
    /// cross-checks, so a restored sketch answers bit-identically to the
    /// build it was saved from.
    pub fn from_parts(
        nfa: Arc<Nfa>,
        dag: Arc<UnrolledDag>,
        params: FprasParams,
        data: Vec<Option<VertexData>>,
        final_r: BigFloat,
    ) -> Self {
        FprasState {
            nfa,
            dag,
            params,
            data,
            final_r,
            bytes: OnceLock::new(),
            idle: Mutex::new(None),
            idle_bytes: AtomicUsize::new(0),
        }
    }

    /// `(exactly handled, sampled)` vertex counts — the base-case coverage
    /// statistic reported by the experiments.
    pub fn vertex_stats(&self) -> (usize, usize) {
        let exact = self.data.iter().flatten().filter(|d| d.exact).count();
        let sampled = self.data.iter().flatten().count() - exact;
        (exact, sampled)
    }

    /// One Las-Vegas attempt at a uniform witness: `Sample` at the virtual
    /// final vertex. `None` is a *rejection* (retry), not emptiness — check
    /// [`FprasState::is_empty_language`] first.
    pub fn sample_witness<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Word> {
        // One walk visits every member set at most once (each lives in a
        // distinct layer), so a per-call memo cache could only be built and
        // dropped — run the one-shot draw uncached. Value-preserving either
        // way; only [`FprasState::witness_sampler`] reuse makes caching pay.
        self.witness_sampler_with_cache(false).sample(rng)
    }

    /// The sampler view over this state's sketches.
    fn sample_ctx(&self) -> SampleCtx<'_> {
        SampleCtx::new(&self.dag, &self.data, &self.nfa, &self.params)
    }

    /// Ablation B1: sampling with the final \[JVV86\] rejection step disabled.
    /// Always returns a witness on nonempty languages, but the distribution is
    /// only approximately uniform — experiment B1 quantifies the bias the
    /// rejection removes.
    pub fn sample_witness_no_rejection<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Word> {
        if self.dag.is_empty() {
            return None;
        }
        let mut ctx = self.sample_ctx();
        ctx.weight_cache = false; // one-shot walk: see sample_witness
        let mut scratch = SamplerScratch::for_ctx(&ctx);
        sample_once_no_rejection(
            &ctx,
            &mut scratch,
            self.dag.accepting(),
            self.dag.word_length(),
            rng,
        )
    }

    /// A reusable witness sampler that keeps one `SamplerScratch` — and
    /// with it one weight memo cache — alive across draws. For workloads that
    /// draw many witnesses (the GEN query under load), this amortizes the
    /// per-level union estimates down to index hops after the first few
    /// walks; [`FprasState::sample_witness`] builds and drops the scratch
    /// every call.
    ///
    /// The scratch comes from the state's idle slot when no other live
    /// sampler holds it (a fresh one otherwise), and goes back to the slot
    /// when the sampler is dropped, so the memo outlives the request that
    /// built it. Under the B9 ablation (`weight_cache = false`) the sampler
    /// uses a fresh scratch and retains nothing.
    pub fn witness_sampler(&self) -> WitnessSampler<'_> {
        self.witness_sampler_with_cache(self.params.weight_cache)
    }

    fn witness_sampler_with_cache(&self, use_cache: bool) -> WitnessSampler<'_> {
        WitnessSampler {
            state: self,
            scratch: self.take_scratch(use_cache),
            phi0: self.phi0(),
            use_cache,
        }
    }

    /// φ₀ = c / R(s_final), invariant for this state's lifetime. An empty
    /// language has R = 0 and never walks, so any φ₀ serves.
    fn phi0(&self) -> BigFloat {
        if self.final_r.is_zero() {
            BigFloat::zero()
        } else {
            BigFloat::from_f64(self.params.rejection_constant).div(self.final_r)
        }
    }

    /// A sampler's scratch: the idle one if `retained` and no live sampler
    /// holds it, a fresh one otherwise.
    fn take_scratch(&self, retained: bool) -> SamplerScratch {
        let idle = if retained {
            self.idle.lock().ok().and_then(|mut slot| slot.take())
        } else {
            None
        };
        idle.unwrap_or_else(|| SamplerScratch::for_ctx(&self.sample_ctx()))
    }

    /// Takes a dropped sampler's scratch back into the idle slot, keeping
    /// whichever of it and the slot's current scratch has the larger memo.
    /// Runs inside `Drop`, so it must not panic: a poisoned slot discards
    /// the scratch.
    fn return_scratch(&self, scratch: SamplerScratch) {
        let Ok(mut slot) = self.idle.lock() else {
            return;
        };
        if slot
            .as_ref()
            .is_some_and(|kept| kept.memo_bytes() >= scratch.memo_bytes())
        {
            return;
        }
        self.idle_bytes
            .store(scratch.memo_bytes(), Ordering::Relaxed);
        *slot = Some(scratch);
    }

    /// Ablation B2: the final estimate *without* the intersection correction —
    /// a plain sum `Σ_f R(f)` over accepting vertices, overcounting witnesses
    /// accepted at several states. Experiment B2 contrasts it with
    /// [`FprasState::estimate`].
    pub fn estimate_no_dedup(&self) -> BigFloat {
        let mut total = BigFloat::zero();
        for &f in self.dag.accepting() {
            if let Some(d) = &self.data[f] {
                total = total.add(d.r);
            }
        }
        total
    }
}

/// Amortized repeated witness sampling over a built [`FprasState`]: see
/// [`FprasState::witness_sampler`]. Draws are distributed identically to
/// [`FprasState::sample_witness`] (the cache changes no computed value).
/// Dropping the sampler returns its scratch to the state.
pub struct WitnessSampler<'a> {
    state: &'a FprasState,
    scratch: SamplerScratch,
    phi0: BigFloat,
    use_cache: bool,
}

impl WitnessSampler<'_> {
    /// One Las-Vegas attempt: `None` is a rejection (retry), not emptiness.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Word> {
        let state = self.state;
        if state.dag.is_empty() {
            return None;
        }
        let mut ctx = state.sample_ctx();
        ctx.weight_cache = ctx.weight_cache && self.use_cache;
        sample_once(
            &ctx,
            &mut self.scratch,
            state.dag.accepting(),
            state.dag.word_length(),
            self.phi0,
            rng,
        )
    }
}

impl Drop for WitnessSampler<'_> {
    fn drop(&mut self) {
        if self.use_cache {
            self.state.return_scratch(std::mem::take(&mut self.scratch));
        }
    }
}

/// The owning counterpart of [`WitnessSampler`]: shares the sketch behind an
/// [`Arc`] instead of a borrow, so a long-lived draw stream (the engine's
/// `GenStream`) can hold sampler and state together without a
/// self-referential struct. Draws consume the rng stream identically to
/// [`WitnessSampler::sample`] — for a fixed rng state the two produce the
/// same words, bit for bit.
pub struct SharedWitnessSampler {
    state: Arc<FprasState>,
    scratch: SamplerScratch,
    phi0: BigFloat,
}

impl SharedWitnessSampler {
    /// A sampler over a shared sketch, with the scratch (and weight memo
    /// cache, per the state's params) kept alive across draws. Takes and
    /// returns the state's idle scratch exactly as
    /// [`FprasState::witness_sampler`] does.
    pub fn new(state: Arc<FprasState>) -> Self {
        let scratch = state.take_scratch(state.params.weight_cache);
        let phi0 = state.phi0();
        SharedWitnessSampler {
            state,
            scratch,
            phi0,
        }
    }

    /// The shared sketch state.
    pub fn state(&self) -> &Arc<FprasState> {
        &self.state
    }

    /// One Las-Vegas attempt: `None` is a rejection (retry), not emptiness.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Word> {
        if self.state.dag.is_empty() {
            return None;
        }
        let ctx = self.state.sample_ctx();
        sample_once(
            &ctx,
            &mut self.scratch,
            self.state.dag.accepting(),
            self.state.dag.word_length(),
            self.phi0,
            rng,
        )
    }
}

impl Drop for SharedWitnessSampler {
    fn drop(&mut self) {
        if self.state.params.weight_cache {
            self.state.return_scratch(std::mem::take(&mut self.scratch));
        }
    }
}

/// Runs Algorithm 5, producing the sketch state.
///
/// # Errors
/// Returns the failure events of steps 5(b)/5(c); under sensible parameters
/// these have vanishing probability (Theorem 22 bounds them by `e^{-Ω(nm)}`
/// with proof-grade constants).
pub fn run_fpras<R: Rng + ?Sized>(
    nfa: &Nfa,
    n: usize,
    params: FprasParams,
    rng: &mut R,
) -> Result<FprasState, FprasError> {
    let dag = Arc::new(UnrolledDag::build(nfa, n));
    run_fpras_on(Arc::new(nfa.clone()), dag, params, rng)
}

/// [`run_fpras`] over a pre-built (shared) unrolled DAG — the engine's warm
/// path: `prepare` pays for the unrolling once, and the sketch, enumerators,
/// and exact tables all read the same `Arc`. The DAG must be the unrolling of
/// `nfa` at the target length; the computation (and hence every estimate and
/// sample, bit for bit) is identical to [`run_fpras`], which builds a fresh
/// DAG from the same inputs.
///
/// # Errors
/// Returns the failure events of steps 5(b)/5(c), exactly as [`run_fpras`].
pub fn run_fpras_on<R: Rng + ?Sized>(
    nfa: Arc<Nfa>,
    dag: Arc<UnrolledDag>,
    params: FprasParams,
    rng: &mut R,
) -> Result<FprasState, FprasError> {
    let n = dag.word_length();
    let mut data: Vec<Option<VertexData>> = vec![None; dag.num_nodes()];
    if dag.is_empty() {
        return Ok(FprasState::from_parts(
            nfa,
            dag,
            params,
            data,
            BigFloat::zero(),
        ));
    }

    // Step 4 — exactly handled vertices, in layer order. The start vertex has
    // U = {ε}; a later vertex is exact if all its predecessors are and the
    // deduplicated union of their extended words stays ≤ k.
    let nfa_ref: &Nfa = &nfa;
    let start = dag.start().expect("nonempty dag has a start");
    let mut eps_reach = StateSet::new(nfa.num_states());
    eps_reach.insert(nfa.initial());
    data[start] = Some(VertexData::exact(vec![SampleEntry {
        word: Vec::new(),
        reach: eps_reach,
    }]));
    for t in 1..=n {
        if !params.exact_handling {
            break; // ablation B4: only the start vertex stays exact
        }
        for &v in dag.layer(t) {
            let preds = dag.in_edges(v);
            let all_exact = preds
                .iter()
                .all(|&(_, u)| data[u].as_ref().is_some_and(|d| d.exact));
            if !all_exact {
                continue;
            }
            let mut extended: Vec<SampleEntry> = Vec::new();
            for &(a, u) in preds {
                for entry in &data[u].as_ref().expect("checked exact").samples {
                    let mut word = Vec::with_capacity(entry.word.len() + 1);
                    word.extend_from_slice(&entry.word);
                    word.push(a);
                    let mut reach = StateSet::new(nfa.num_states());
                    nfa.step_set(&entry.reach, a, &mut reach);
                    extended.push(SampleEntry { word, reach });
                }
            }
            extended.sort_by(|x, y| x.word.cmp(&y.word));
            extended.dedup_by(|x, y| x.word == y.word);
            if extended.len() <= params.k {
                data[v] = Some(VertexData::exact(extended));
            }
        }
    }

    // Step 5 — estimate and sample the remaining vertices, in layer order.
    // Within one layer, vertices are independent: estimates and samples read
    // only strictly earlier layers, so the per-vertex work parallelizes with
    // plain scoped threads (each vertex gets its own seed drawn up front, so
    // results are bit-identical at any thread count). Each worker owns one
    // `SamplerScratch` — and with it one weight cache, kept thread-local so
    // no cross-thread coordination can perturb determinism — carried across
    // all layers: cache entries for a member set at layer ℓ read only layer
    // ℓ-1 sketches, which never change once written, so entries stay valid
    // for the whole run.
    let mut workers: Vec<SamplerScratch> = (0..params.threads.max(1))
        .map(|_| SamplerScratch::new(nfa.num_states(), dag.alphabet_size()))
        .collect();
    for t in 1..=n {
        let pending: Vec<NodeId> = dag
            .layer(t)
            .iter()
            .copied()
            .filter(|&v| data[v].is_none())
            .collect();
        if pending.is_empty() {
            continue;
        }
        let seeds: Vec<u64> = pending.iter().map(|_| rng.gen()).collect();
        let threads = params.threads.clamp(1, pending.len());
        let results: Vec<Result<VertexData, FprasError>> = if threads == 1 {
            let scratch = &mut workers[0];
            pending
                .iter()
                .zip(&seeds)
                .map(|(&v, &seed)| build_vertex(&dag, &data, nfa_ref, &params, scratch, t, v, seed))
                .collect()
        } else {
            let mut results: Vec<Option<Result<VertexData, FprasError>>> =
                (0..pending.len()).map(|_| None).collect();
            let chunk = pending.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let data_ref = &data;
                let dag_ref = &dag;
                let params_ref = &params;
                for (((vs, ss), out), scratch) in pending
                    .chunks(chunk)
                    .zip(seeds.chunks(chunk))
                    .zip(results.chunks_mut(chunk))
                    .zip(workers.iter_mut())
                {
                    scope.spawn(move || {
                        for ((&v, &seed), slot) in vs.iter().zip(ss).zip(out) {
                            *slot = Some(build_vertex(
                                dag_ref, data_ref, nfa_ref, params_ref, scratch, t, v, seed,
                            ));
                        }
                    });
                }
            });
            results
                .into_iter()
                .map(|r| r.expect("thread filled slot"))
                .collect()
        };
        for (&v, result) in pending.iter().zip(results) {
            data[v] = Some(result?);
        }
    }

    // The virtual final vertex: its single predecessor partition is the
    // accepting set, so R(s_final) is one union estimate — through the same
    // ctx dispatch as every per-vertex estimate.
    let final_r = {
        let ctx = SampleCtx::new(&dag, &data, nfa_ref, &params);
        workers[0].estimate(&ctx, dag.accepting())
    };
    Ok(FprasState::from_parts(nfa, dag, params, data, final_r))
}

/// One vertex of step 5: estimate `R(v)` and draw the `k` samples of `X(v)`,
/// reading only strictly earlier layers of `data`. `scratch` (with its
/// weight cache) is owned by the calling worker and reused across vertices.
// hot-path DP kernel: params and scratch buffers are passed by slot to stay
// allocation-free per vertex; bundling them into a struct adds an indirection
#[allow(clippy::too_many_arguments)]
fn build_vertex(
    dag: &UnrolledDag,
    data: &[Option<VertexData>],
    nfa: &Nfa,
    params: &FprasParams,
    scratch: &mut SamplerScratch,
    t: usize,
    v: NodeId,
    seed: u64,
) -> Result<VertexData, FprasError> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let state = dag.node_info(v).1;
    let ctx = SampleCtx::new(dag, data, nfa, params);
    let r = estimate_vertex(&ctx, scratch, v);
    if r.is_zero() {
        return Err(FprasError::ZeroEstimate { layer: t, state });
    }
    let phi0 = BigFloat::from_f64(params.rejection_constant).div(r);
    // Safety net: per-attempt success probability scales with the rejection
    // constant, so the retry budget must too (the paper's `⌈(nm/δ)^4⌉` dwarfs
    // both). 40/c puts per-sample failure below e⁻³⁸ even at the paper's
    // c = e⁻⁴.
    let attempts = params
        .attempts
        .max((40.0 / params.rejection_constant).ceil() as usize);
    let mut samples: Vec<SampleEntry> = Vec::with_capacity(params.k);
    while samples.len() < params.k {
        let mut drawn = None;
        for _ in 0..attempts {
            if let Some(word) = sample_once(&ctx, scratch, &[v], t, phi0, &mut rng) {
                drawn = Some(word);
                break;
            }
        }
        let Some(word) = drawn else {
            return Err(FprasError::SamplingFailed { layer: t, state });
        };
        let reach = reach_of(nfa, &word);
        samples.push(SampleEntry { word, reach });
    }
    Ok(VertexData {
        exact: false,
        r,
        samples,
    })
}

/// `R(v) = Σ_b W̃_b(v)` over the per-symbol predecessor partitions.
fn estimate_vertex(ctx: &SampleCtx<'_>, scratch: &mut SamplerScratch, v: NodeId) -> BigFloat {
    let mut r = BigFloat::zero();
    let in_edges = ctx.dag.in_edges(v);
    let mut part: Vec<NodeId> = Vec::new();
    let mut i = 0;
    while i < in_edges.len() {
        let symbol = in_edges[i].0;
        part.clear();
        // `in_edges` is sorted by (symbol, source): each symbol run is
        // already ascending, so only duplicates need removing.
        while i < in_edges.len() && in_edges[i].0 == symbol {
            part.push(in_edges[i].1);
            i += 1;
        }
        part.dedup();
        r = r.add(scratch.estimate(ctx, &part));
    }
    r
}

/// Convenience wrapper: build the state and return the count estimate.
///
/// # Errors
/// Propagates [`FprasError`] from [`run_fpras`].
pub fn approx_count<R: Rng + ?Sized>(
    nfa: &Nfa,
    n: usize,
    params: FprasParams,
    rng: &mut R,
) -> Result<BigFloat, FprasError> {
    run_fpras(nfa, n, params, rng).map(|s| s.estimate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::exact::count_nfa_via_determinization;
    use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa, universal_nfa};
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rel_err(estimate: &BigFloat, truth: f64) -> f64 {
        (estimate.to_f64() - truth).abs() / truth
    }

    #[test]
    fn small_instances_are_fully_exact() {
        // Everything fits under k = 64, so the "estimate" is exact and no
        // sampling happens at all.
        let ab = Alphabet::binary();
        let n = Regex::parse("(0|1)*1(0|1)*", &ab).unwrap().compile();
        let mut rng = StdRng::seed_from_u64(1);
        let state = run_fpras(&n, 5, FprasParams::quick(), &mut rng).unwrap();
        assert_eq!(state.estimate().to_f64(), 31.0); // 2^5 - 1
        let (exact, sampled) = state.vertex_stats();
        assert!(exact > 0);
        assert_eq!(sampled, 0);
    }

    #[test]
    fn universal_language_scales() {
        let u = universal_nfa(Alphabet::binary());
        let mut rng = StdRng::seed_from_u64(2);
        let est = approx_count(&u, 30, FprasParams::quick(), &mut rng).unwrap();
        let truth = 2f64.powi(30);
        assert!(rel_err(&est, truth) < 0.15, "est {est}, truth {truth}");
    }

    #[test]
    fn blowup_family_estimate() {
        let n = blowup_nfa(6);
        let len = 14;
        let truth = count_nfa_via_determinization(&n, len).to_f64();
        let mut rng = StdRng::seed_from_u64(3);
        let est = approx_count(&n, len, FprasParams::quick(), &mut rng).unwrap();
        assert!(rel_err(&est, truth) < 0.15, "est {est}, truth {truth}");
    }

    #[test]
    fn ambiguity_gap_estimate() {
        // The family that breaks the naive estimator: the FPRAS handles it.
        let n = ambiguity_gap_nfa(4);
        let len = 12;
        let truth = count_nfa_via_determinization(&n, len).to_f64();
        let mut rng = StdRng::seed_from_u64(4);
        let est = approx_count(&n, len, FprasParams::quick(), &mut rng).unwrap();
        assert!(rel_err(&est, truth) < 0.15, "est {est}, truth {truth}");
    }

    #[test]
    fn empty_language_is_zero_without_error() {
        let ab = Alphabet::binary();
        let n = Regex::parse("01", &ab).unwrap().compile();
        let mut rng = StdRng::seed_from_u64(5);
        let state = run_fpras(&n, 7, FprasParams::quick(), &mut rng).unwrap();
        assert!(state.estimate().is_zero());
        assert!(state.is_empty_language());
        assert_eq!(state.sample_witness(&mut rng), None);
    }

    #[test]
    fn witness_samples_are_members() {
        let n = blowup_nfa(4);
        let len = 10;
        let mut rng = StdRng::seed_from_u64(6);
        let state = run_fpras(&n, len, FprasParams::quick(), &mut rng).unwrap();
        let mut got = 0;
        for _ in 0..200 {
            if let Some(w) = state.sample_witness(&mut rng) {
                assert_eq!(w.len(), len);
                assert!(n.accepts(&w), "sampled non-member {w:?}");
                got += 1;
            }
        }
        assert!(got > 0, "no sample succeeded in 200 attempts");
    }

    #[test]
    fn estimates_far_beyond_f64_counts() {
        // n = 1030 on the universal automaton: |L_n| = 2^1030 ≈ 10^310, past
        // even f64's exponent range. The estimate must survive in BigFloat and
        // agree with the exact BigNat count in log space. A tiny sample budget
        // suffices: with one predecessor per vertex and no intersections the
        // sketch ratios are exactly 1, so R(s) is exact for any k ≥ 1 — this
        // test probes arithmetic range, not sampling accuracy. For the same
        // reason the rejection sampler's acceptance probability is exactly the
        // rejection constant, so a high constant keeps the walk cheap without
        // risking φ > 1.
        use crate::count::exact::count_ufa;
        let u = universal_nfa(Alphabet::binary());
        let n = 1030;
        let exact = count_ufa(&u, n).unwrap();
        let exact_log10 = lsc_arith::BigFloat::from_bignat(&exact).log10();
        assert!(exact_log10 > 308.0);
        let mut rng = StdRng::seed_from_u64(61);
        let params = FprasParams {
            k: 1,
            rejection_constant: 0.5,
            ..FprasParams::quick()
        };
        let est = approx_count(&u, n, params, &mut rng).unwrap();
        assert!(est.to_f64().is_infinite(), "past f64 range by design");
        assert!(
            (est.log10() - exact_log10).abs() < 0.05,
            "log10 est {} vs exact {}",
            est.log10(),
            exact_log10
        );
    }

    #[test]
    fn parallel_sampling_is_deterministic() {
        // Same master seed ⇒ identical estimate at 1, 2, and 4 threads
        // (per-vertex seeds are drawn before the fan-out).
        let nfa = ambiguity_gap_nfa(4);
        let n = 10;
        let mut baseline = None;
        for threads in [1usize, 2, 4] {
            let mut rng = StdRng::seed_from_u64(77);
            let params = FprasParams::quick().with_threads(threads);
            let state = run_fpras(&nfa, n, params, &mut rng).unwrap();
            let est = state.estimate().to_f64();
            match baseline {
                None => baseline = Some(est),
                Some(b) => assert_eq!(est, b, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn wide_alphabet_instances() {
        // The paper states the FPRAS for Σ = {0,1}; our generalization
        // partitions predecessors per symbol. Exercise a ternary alphabet.
        let abc = Alphabet::from_chars(&['a', 'b', 'c']);
        let nfa = Regex::parse("(a|b|c)*a(b|c)(a|b|c)", &abc)
            .unwrap()
            .compile();
        let n = 9;
        let truth = count_nfa_via_determinization(&nfa, n).to_f64();
        let mut rng = StdRng::seed_from_u64(60);
        let est = approx_count(&nfa, n, FprasParams::quick(), &mut rng)
            .unwrap()
            .to_f64();
        assert!(rel_err(&lsc_arith::BigFloat::from_f64(est), truth) < 0.15);
        // And sampling over it returns valid ternary witnesses.
        let state = run_fpras(&nfa, n, FprasParams::quick(), &mut rng).unwrap();
        let w = (0..200)
            .find_map(|_| state.sample_witness(&mut rng))
            .expect("a sample succeeds");
        assert!(nfa.accepts(&w));
    }

    #[test]
    fn ablation_hooks_behave() {
        let nfa = ambiguity_gap_nfa(3);
        let len = 8;
        let truth = count_nfa_via_determinization(&nfa, len).to_f64();
        let mut rng = StdRng::seed_from_u64(50);
        // B4: disabling exact handling still estimates well, just samples more.
        let state = run_fpras(
            &nfa,
            len,
            FprasParams::quick().without_exact_handling(),
            &mut rng,
        )
        .unwrap();
        let (exact, sampled) = state.vertex_stats();
        assert_eq!(exact, 1, "only the start vertex is exact under B4");
        assert!(sampled > 0);
        assert!(rel_err(&state.estimate(), truth) < 0.25);
        // B6: recomputing membership must give identical estimates for the
        // same seed (it is the same computation, just slower).
        let mut rng_a = StdRng::seed_from_u64(51);
        let mut rng_b = StdRng::seed_from_u64(51);
        let fast = run_fpras(&nfa, len, FprasParams::quick(), &mut rng_a).unwrap();
        let slow = run_fpras(
            &nfa,
            len,
            FprasParams::quick().with_recomputed_membership(),
            &mut rng_b,
        )
        .unwrap();
        assert_eq!(fast.estimate().to_f64(), slow.estimate().to_f64());
        // B1: the unrejected sampler always returns on nonempty languages.
        for _ in 0..20 {
            assert!(fast.sample_witness_no_rejection(&mut rng).is_some());
        }
        // B2: the undeduped final estimate can only be ≥ the corrected one.
        assert!(
            fast.estimate_no_dedup().partial_cmp_total(&fast.estimate())
                != std::cmp::Ordering::Less
        );
    }

    #[test]
    fn epsilon_length_instance() {
        let ab = Alphabet::binary();
        let star = Regex::parse("(0|1)*", &ab).unwrap().compile();
        let mut rng = StdRng::seed_from_u64(7);
        let state = run_fpras(&star, 0, FprasParams::quick(), &mut rng).unwrap();
        assert_eq!(state.estimate().to_f64(), 1.0);
        // Each attempt is Bernoulli(rejection_constant); retry until accepted.
        let w = (0..1000).find_map(|_| state.sample_witness(&mut rng));
        assert_eq!(w, Some(vec![]));
    }
}
