//! Algorithm 4: `Sample(T, w, φ)` — the backward rejection sampler.
//!
//! Walks the unrolled DAG from a target set `T` back toward the start vertex,
//! choosing at each level the *last* symbol of the remaining prefix with
//! probability proportional to the estimated partition sizes `W̃_b`, while
//! accumulating `φ ← φ / p_b`. At the start vertex the built word is returned
//! with probability `φ` — the Jerrum–Valiant–Vazirani rejection step that turns
//! the approximately-correct walk distribution into an *exactly* uniform one
//! conditioned on success (Proposition 18 / Fact 1).
//!
//! # Hot-path layout (DESIGN.md §3.6)
//!
//! Algorithm 5 invokes this sampler `k × attempts` times per DAG vertex, and
//! every invocation from the same vertex walks the same member sets through
//! the same layers; a GEN workload walks from the same accepting set on
//! every draw. Two structures exploit that:
//!
//! * [`WeightCache`] memoizes, per member set, the per-symbol predecessor
//!   partitions and the selection probabilities `p_b = W̃_b / ΣW̃`. Entries
//!   live in a `Vec` addressed by `u32`, and each entry records, per
//!   partition, the index of the entry that partition leads to, filled in
//!   the first time a walk follows it. A warm walk therefore hashes its
//!   member set once, at the root, and then follows indices: one index hop
//!   plus one RNG draw per level, with no member-set copy. Cached values are
//!   pure functions of earlier-layer sketches, which are frozen before any
//!   walk can read them, so the memo changes no value and no RNG use. During
//!   the sketch build the cache is *per worker* (one per scoped thread chunk
//!   in `algorithm.rs`), never shared, so the determinism guarantee — same
//!   master seed ⇒ bit-identical output at any thread count — is preserved.
//!   For GEN, a built `FprasState` keeps one idle scratch, memo included,
//!   that each new witness sampler takes and returns on drop.
//! * [`SamplerScratch`] owns every buffer the walk needs (current member
//!   set, per-symbol grouping buckets, weight/probability vectors,
//!   the estimator's prefix mask), so the steady-state walk allocates only
//!   the returned word. Whether its walks use the memo is fixed when it is
//!   built: the build's workers and the witness samplers memoize, and a
//!   one-shot draw (`FprasState::sample_witness`) walks uncached.
//!
//! Every union estimate, at every walk level and every vertex, is the
//! packed kernel [`estimate_union_packed`]. The scalar walk and the
//! quadratic scan in `sketch.rs` are reference oracles that only tests and
//! the E21 bench call.

use lsc_arith::BigFloat;
use lsc_automata::unroll::{NodeId, UnrolledDag};
use lsc_automata::{Nfa, Symbol, Word};
use rand::Rng;
use std::collections::HashMap;

use super::sketch::{estimate_union_packed, MaskArena, VertexData};

/// Read-only view of the sketches the sampler consults.
pub(crate) struct SampleCtx<'a> {
    pub dag: &'a UnrolledDag,
    pub data: &'a [Option<VertexData>],
    pub nfa: &'a Nfa,
}

impl SampleCtx<'_> {
    fn state_of(&self, v: NodeId) -> usize {
        self.dag.node_info(v).1
    }

    /// `W̃` over `members`: the packed union kernel, the one estimator every
    /// estimate site (per-vertex, final vertex, walk levels) calls.
    fn estimate(&self, members: &[NodeId], arena: &mut MaskArena) -> BigFloat {
        estimate_union_packed(members, self.data, arena, |v| self.state_of(v))
    }
}

/// One memoized walk level: the per-symbol predecessor partitions `T_b` of a
/// member set, with their selection probabilities and the cache indices of
/// the levels they lead to.
struct CacheEntry {
    /// `(symbol, T_b)` in ascending symbol order, each sorted and deduped.
    partitions: Vec<(Symbol, Vec<NodeId>)>,
    /// `p_b = W̃_b / ΣW̃`, aligned with `partitions`.
    probs: Vec<f64>,
    /// Index of the entry for each `T_b`, aligned with `partitions`;
    /// [`WeightCache::UNLINKED`] until a walk first follows `T_b` to a
    /// cached level.
    children: Vec<u32>,
    /// `ΣW̃ = 0`: the walk dies here (cached too — it is just as deterministic).
    dead: bool,
}

/// Memo of [`CacheEntry`]s, stored in a `Vec` and addressed by `u32` index.
/// The member-set map (sorted vertex ids; layer is implied since vertex ids
/// are globally unique) is consulted only when a walk does not yet know the
/// index of its current level — on a warm walk, only at the root. Sound for
/// as long as the sketches the entries read stay frozen: entries for a
/// member set at layer `ℓ` read only layer `ℓ-1` sketches, which are
/// complete before any walk can reach them, and a finished [`FprasState`]'s
/// sketches never change again.
///
/// [`FprasState`]: super::FprasState
#[derive(Default)]
pub(crate) struct WeightCache {
    entries: Vec<CacheEntry>,
    index: HashMap<Vec<NodeId>, u32>,
    /// Approximate resident bytes of stored keys and entries, maintained so
    /// the cap bounds memory rather than entry count (entries vary from a
    /// few dozen bytes to KBs on wide member sets).
    approx_bytes: usize,
    /// Insertion stops once `approx_bytes` reaches this:
    /// [`WeightCache::MAX_BYTES`] for a memoizing scratch, zero for an
    /// uncached one, whose every level is computed in scratch.
    cap: usize,
}

impl WeightCache {
    /// A memoizing scratch stops inserting at this approximate resident size
    /// so a long-lived
    /// sampler (a GEN workload drawing millions of witnesses) cannot grow
    /// memory without bound on automata whose walks keep visiting fresh
    /// member sets. Uncached levels are recomputed — values are identical
    /// either way, so the cap cannot perturb determinism. At ≥ 96 bytes per
    /// entry the cap also keeps every index below [`WeightCache::UNLINKED`].
    const MAX_BYTES: usize = 256 << 20;

    /// The child index of a partition no walk has followed yet.
    const UNLINKED: u32 = u32::MAX;

    /// Stores the level just computed in scratch for `members` and returns
    /// its index. Dead levels store empty vectors: `probs` still holds the
    /// previous level's values when `level_probs` bails early.
    fn insert(
        &mut self,
        members: &[NodeId],
        live: bool,
        buckets: &[Vec<NodeId>],
        touched: &[Symbol],
        probs: &[f64],
    ) -> u32 {
        let entry = if live {
            CacheEntry {
                partitions: touched
                    .iter()
                    .map(|&a| (a, buckets[a as usize].clone()))
                    .collect(),
                probs: probs.to_vec(),
                children: vec![Self::UNLINKED; touched.len()],
                dead: false,
            }
        } else {
            CacheEntry {
                partitions: Vec::new(),
                probs: Vec::new(),
                children: Vec::new(),
                dead: true,
            }
        };
        self.approx_bytes += Self::entry_bytes(members, &entry);
        let i = self.entries.len() as u32;
        self.entries.push(entry);
        self.index.insert(members.to_vec(), i);
        i
    }

    /// Rough resident size of one key/entry pair (vector contents plus a
    /// fixed allowance for the map slot and vector headers).
    fn entry_bytes(key: &[NodeId], entry: &CacheEntry) -> usize {
        let partition_bytes: usize = entry
            .partitions
            .iter()
            .map(|(_, p)| 32 + p.len() * std::mem::size_of::<NodeId>())
            .sum();
        96 + std::mem::size_of_val(key)
            + partition_bytes
            + entry.probs.len() * std::mem::size_of::<f64>()
            + entry.children.len() * std::mem::size_of::<u32>()
    }
}

/// Reusable buffers for the backward walk: one per worker, threaded through
/// every `sample_*` call so the steady-state walk performs no allocation.
/// Whether walks on it use the weight memo is fixed when it is built. The
/// default value is an empty placeholder (no mask, no buckets) that a walk
/// must never run on.
#[derive(Default)]
pub(crate) struct SamplerScratch {
    /// Current member set `T`. Each level groups its predecessors into
    /// `buckets` (or reads them from the memo) before overwriting it.
    members: Vec<NodeId>,
    /// Prefix-mask arena for the linear union estimator (nonzero-word index
    /// included, so the packed kernel scans only live words).
    arena: MaskArena,
    /// Per-symbol predecessor buckets, indexed by symbol; `touched` lists the
    /// nonempty ones (ascending after sort). Pre-sized from the alphabet so
    /// grouping is O(edges), replacing the seed's `binary_search` +
    /// `Vec::insert` (O(|Σ|) shifts per edge) grouping.
    buckets: Vec<Vec<NodeId>>,
    touched: Vec<Symbol>,
    weights: Vec<BigFloat>,
    probs: Vec<f64>,
    cache: WeightCache,
}

impl SamplerScratch {
    /// Scratch over `num_states` NFA states and `alphabet_size` symbols.
    /// With `memo` off, no level is stored: right for a one-shot walk, which
    /// visits each member set once (each lives in a distinct layer), so a
    /// memo could only be built and dropped.
    pub(crate) fn new(num_states: usize, alphabet_size: usize, memo: bool) -> Self {
        SamplerScratch {
            members: Vec::new(),
            arena: MaskArena::new(num_states),
            buckets: vec![Vec::new(); alphabet_size],
            touched: Vec::new(),
            weights: Vec::new(),
            probs: Vec::new(),
            cache: WeightCache {
                cap: if memo { WeightCache::MAX_BYTES } else { 0 },
                ..WeightCache::default()
            },
        }
    }

    /// Scratch sized for `ctx` (mask over the NFA states, one bucket per
    /// alphabet symbol).
    pub(crate) fn for_ctx(ctx: &SampleCtx<'_>, memo: bool) -> Self {
        SamplerScratch::new(ctx.nfa.num_states(), ctx.dag.alphabet_size(), memo)
    }

    /// `W̃` over `members` using this scratch's mask arena.
    pub(crate) fn estimate(&mut self, ctx: &SampleCtx<'_>, members: &[NodeId]) -> BigFloat {
        ctx.estimate(members, &mut self.arena)
    }

    /// Approximate resident bytes of this scratch's weight memo.
    pub(crate) fn memo_bytes(&self) -> usize {
        self.cache.approx_bytes
    }
}

/// Groups the predecessors of `members` by symbol into `buckets`, recording
/// nonempty symbols in `touched` (ascending). Each bucket is sorted and
/// deduplicated — the partitions `T_b` of Algorithm 4 step 3.
fn group_predecessors(
    ctx: &SampleCtx<'_>,
    members: &[NodeId],
    buckets: &mut [Vec<NodeId>],
    touched: &mut Vec<Symbol>,
) {
    for &a in touched.iter() {
        buckets[a as usize].clear();
    }
    touched.clear();
    for &v in members {
        for &(a, u) in ctx.dag.in_edges(v) {
            let bucket = &mut buckets[a as usize];
            if bucket.is_empty() {
                touched.push(a);
            }
            bucket.push(u);
        }
    }
    touched.sort_unstable();
    for &a in touched.iter() {
        let bucket = &mut buckets[a as usize];
        bucket.sort_unstable();
        bucket.dedup();
    }
}

/// Computes the selection probabilities for the grouped partitions into
/// `probs`; returns `false` if every partition weight is zero (walk dies).
/// Weight and total accumulation run in ascending symbol order — the same
/// order as the seed implementation, keeping the floats bit-identical.
fn level_probs(
    ctx: &SampleCtx<'_>,
    buckets: &[Vec<NodeId>],
    touched: &[Symbol],
    arena: &mut MaskArena,
    weights: &mut Vec<BigFloat>,
    probs: &mut Vec<f64>,
) -> bool {
    weights.clear();
    let mut total = BigFloat::zero();
    for &a in touched {
        let w = ctx.estimate(&buckets[a as usize], arena);
        total = total.add(w);
        weights.push(w);
    }
    if total.is_zero() {
        return false;
    }
    probs.clear();
    probs.extend(weights.iter().map(|w| w.ratio_f64(&total)));
    true
}

/// Draws a partition index with the cumulative scan the seed used (one
/// `f64` per level; float rounding can leave the cumulative a hair below 1,
/// in which case the last positive-probability partition wins).
fn choose_partition<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> Option<usize> {
    let draw: f64 = rng.gen();
    let mut cumulative = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        cumulative += p;
        if draw < cumulative && p > 0.0 {
            return Some(i);
        }
    }
    (0..probs.len()).rev().find(|&i| probs[i] > 0.0)
}

/// One invocation of `Sample(T₀, ε, φ₀)` where `T₀` lives in layer `layer0`.
///
/// Returns the sampled word (uniform over `⋃_{s∈T₀} U(s)` conditioned on
/// success, under the Proposition 18 assumptions) or `None` for a rejection.
///
/// Two call shapes cover the whole paper:
/// * `T₀ = {v}` — drawing the sketch samples `X(v)` (Algorithm 5 step 5(c));
/// * `T₀ =` accepting vertices at layer `n` — drawing a uniform witness at the
///   virtual final vertex (the PLVUG of Corollary 23). The paper routes this
///   through an explicit `s_final` vertex with a pseudo-symbol edge; starting
///   the recursion at the accepting set is the same computation without the
///   cosmetic extra symbol.
pub(crate) fn sample_once<R: Rng + ?Sized>(
    ctx: &SampleCtx<'_>,
    scratch: &mut SamplerScratch,
    t0: &[NodeId],
    layer0: usize,
    phi0: BigFloat,
    rng: &mut R,
) -> Option<Word> {
    sample_inner(ctx, scratch, t0, layer0, phi0, true, rng)
}

/// Ablation B1: the same walk *without* the final rejection step — the output
/// distribution is then only approximately uniform, with bias driven by the
/// estimate errors (this is exactly what the \[JVV86\] rejection corrects).
pub(crate) fn sample_once_no_rejection<R: Rng + ?Sized>(
    ctx: &SampleCtx<'_>,
    scratch: &mut SamplerScratch,
    t0: &[NodeId],
    layer0: usize,
    rng: &mut R,
) -> Option<Word> {
    sample_inner(ctx, scratch, t0, layer0, BigFloat::one(), false, rng)
}

fn sample_inner<R: Rng + ?Sized>(
    ctx: &SampleCtx<'_>,
    scratch: &mut SamplerScratch,
    t0: &[NodeId],
    layer0: usize,
    phi0: BigFloat,
    rejection: bool,
    rng: &mut R,
) -> Option<Word> {
    let SamplerScratch {
        members,
        arena,
        buckets,
        touched,
        weights,
        probs,
        cache,
    } = scratch;
    members.clear();
    members.extend_from_slice(t0);
    // The cache index of the current level, when the hop that led here knew
    // it. `members` is materialized only while this is `None`: an indexed
    // hop leaves it stale.
    let mut at: Option<u32> = None;
    // The `(entry, partition)` hop that materialized `members`, whose child
    // index is filled in once this level's entry is known.
    let mut link: Option<(u32, usize)> = None;
    let mut layer = layer0;
    let mut phi = phi0;
    let mut rev: Word = Vec::with_capacity(layer0);
    loop {
        // Step 1: fail unless φ ∈ (0, 1].
        if rejection
            && (phi.is_zero()
                || phi.partial_cmp_total(&BigFloat::one()) == std::cmp::Ordering::Greater)
        {
            return None;
        }
        // Step 2: at the start vertex, accept the built word with probability φ.
        if layer == 0 {
            // No entry is ever stored for layer 0, so no child index points
            // here and the last hop always materialized `members`.
            debug_assert!(at.is_none(), "layer 0 is never reached by index");
            debug_assert_eq!(
                members.as_slice(),
                ctx.dag.start().as_slice(),
                "layer 0 holds only the start vertex"
            );
            if !rejection || rng.gen::<f64>() < phi.to_f64() {
                rev.reverse();
                return Some(rev);
            }
            return None;
        }
        // Step 3: partition predecessors by symbol and weigh each by W̃_b —
        // memoized per member set, or recomputed per level on an uncached
        // scratch (and past the memo's byte cap). Both paths produce
        // bit-identical partitions and probabilities and consume the RNG
        // identically (one draw per live level, none on dead levels).
        let mut here = at.take();
        if here.is_none() {
            here = cache.index.get(members.as_slice()).copied();
            if here.is_none() && cache.approx_bytes < cache.cap {
                group_predecessors(ctx, members, buckets, touched);
                let live = level_probs(ctx, buckets, touched, arena, weights, probs);
                here = Some(cache.insert(members, live, buckets, touched, probs));
            }
            if let (Some(i), Some((parent, b))) = (here, link) {
                cache.entries[parent as usize].children[b] = i;
            }
        }
        link = None;
        let (symbol, p) = match here {
            Some(i) => {
                let entry = &cache.entries[i as usize];
                if entry.dead {
                    return None;
                }
                let chosen = choose_partition(&entry.probs, rng)?;
                let (a, part) = &entry.partitions[chosen];
                match entry.children[chosen] {
                    WeightCache::UNLINKED => {
                        members.clear();
                        members.extend_from_slice(part);
                        link = Some((i, chosen));
                    }
                    child => at = Some(child),
                }
                (*a, entry.probs[chosen])
            }
            None => {
                // Uncached: compute the level in scratch.
                group_predecessors(ctx, members, buckets, touched);
                if !level_probs(ctx, buckets, touched, arena, weights, probs) {
                    return None;
                }
                let chosen = choose_partition(probs, rng)?;
                let a = touched[chosen];
                members.clear();
                members.extend_from_slice(&buckets[a as usize]);
                (a, probs[chosen])
            }
        };
        // Choose partition b with probability p_b = W̃_b / ΣW̃. The f64
        // probabilities used for selection are also the ones divided into φ,
        // keeping the acceptance probability algebraically exact.
        phi = phi.mul_f64(1.0 / p);
        rev.push(symbol);
        layer -= 1;
    }
}
