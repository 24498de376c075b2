//! Per-vertex sketches `(R(s), X(s))` and the union estimator `W̃`.
//!
//! [`estimate_union_packed`] is the estimator the FPRAS runs. Two reference
//! implementations of the same §6.4 formula stay public as oracles for the
//! tests and the E21 kernel bench, and nothing in production calls them:
//! [`estimate_union_with_mask`], the scalar per-sample prefix-mask walk, and
//! [`estimate_union_quadratic`], the seed's quadratic scan. All three give
//! bit-identical values on the same sketches; the equivalence suite checks
//! that on the member sets of real built sketches.

use lsc_arith::BigFloat;
use lsc_automata::unroll::NodeId;
use lsc_automata::{StateSet, Word};

/// One stored witness sample: the word plus the set of NFA states reachable
/// reading it.
///
/// The reach set is the key implementation optimization over the paper's
/// complexity sketch (DESIGN.md §3.4): every membership test `x ∈ U(s')` the
/// estimator needs — "is there a start→`s'` path labeled `x`?" — becomes a
/// single bit lookup `state(s') ∈ reach(x)`, instead of a fresh breadth-first
/// search per (sample, vertex) pair.
#[derive(Clone, Debug)]
pub struct SampleEntry {
    /// The sampled element of `U(s)` (length = layer of `s`).
    pub word: Word,
    /// NFA states reachable from the initial state reading `word`.
    pub reach: StateSet,
}

/// The sketch stored for one DAG vertex.
#[derive(Clone, Debug)]
pub struct VertexData {
    /// True iff `samples` is exactly `U(s)` (deduplicated), the base case of
    /// §6.4 for vertices with `|U(s)| ≤ k`.
    pub exact: bool,
    /// `R(s)`: the estimate of `|U(s)|` (exact when `exact` is set).
    pub r: BigFloat,
    /// `X(s)`: either all of `U(s)` (exact) or a multiset of `k` near-uniform
    /// samples.
    pub samples: Vec<SampleEntry>,
}

impl VertexData {
    /// An exact vertex: `X(s) = U(s)`, `R(s) = |U(s)|`.
    pub fn exact(samples: Vec<SampleEntry>) -> Self {
        VertexData {
            exact: true,
            r: BigFloat::from_u64(samples.len() as u64),
            samples,
        }
    }
}

/// A reusable prefix mask with a sparse index of its nonzero 64-bit words.
///
/// The union estimator's mask holds at most `|T|` set bits (one NFA state per
/// member already processed), so on wide automata nearly every mask word is
/// zero. Tracking the nonzero words lets [`estimate_union_packed`] test 64
/// samples against only those words — and lets `clear` zero exactly the dirty
/// words instead of the whole bit vector. One arena lives in each worker's
/// `SamplerScratch`, so the k×attempts sampler walks allocate no mask memory
/// at all.
#[derive(Clone, Debug, Default)]
pub struct MaskArena {
    words: Vec<u64>,
    /// Indices of nonzero `words`, in first-touched order (deduplicated).
    touched: Vec<u32>,
}

impl MaskArena {
    /// An empty mask over a universe of `capacity` states.
    pub fn new(capacity: usize) -> Self {
        MaskArena {
            words: vec![0; capacity.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Empties the mask, touching only the dirty words.
    pub fn clear(&mut self) {
        for &wi in &self.touched {
            self.words[wi as usize] = 0;
        }
        self.touched.clear();
    }

    /// Inserts a state.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let wi = i / 64;
        if self.words[wi] == 0 {
            self.touched.push(wi as u32);
        }
        self.words[wi] |= 1u64 << (i % 64);
    }

    /// True iff `set` (same capacity) shares a state with the mask. Scans
    /// only the nonzero mask words.
    #[inline]
    pub fn intersects(&self, set: &StateSet) -> bool {
        self.touched
            .iter()
            .any(|&wi| set.word(wi as usize) & self.words[wi as usize] != 0)
    }
}

/// The union estimator of §6.4:
///
/// ```text
/// W̃ = Σ_{s ∈ T} R(s) · |X(s) ∖ ⋃_{s' ∈ T, s' ≺ s} U(s')| / |X(s)|
/// ```
///
/// `T` is given as DAG vertices (all in one layer) with `≺` = vertex-id order;
/// `data` must hold sketches for each. The membership scan is *linear*: the
/// arena accumulates the NFA states of the members already processed, and a
/// sample `x` is covered by some earlier `U(s')` iff `reach(x)` intersects the
/// mask (DESIGN.md §3.5). This is the word-level kernel: samples are tested
/// 64 at a time against each nonzero mask word, building a per-chunk coverage
/// bitmap resolved with one `count_ones` — the inner loop is a
/// branchless and-compare-shift over packed `u64` lanes, which the compiler
/// autovectorizes, instead of a per-sample early-exit scan (DESIGN.md §10).
///
/// Bit-identity: the kernel computes the same per-member `fresh` counts as
/// the per-sample scan (both count samples whose reach set misses every
/// earlier member state), and accumulates `R(s)·fresh/|X(s)|` in the same
/// member order — so its `BigFloat` output is bit-identical to both the
/// scalar walk and [`estimate_union_quadratic`].
pub fn estimate_union_packed(
    members: &[NodeId],
    data: &[Option<VertexData>],
    arena: &mut MaskArena,
    state_of: impl Fn(NodeId) -> usize,
) -> BigFloat {
    arena.clear();
    let mut total = BigFloat::zero();
    for (i, &u) in members.iter().enumerate() {
        let d = data[u]
            .as_ref()
            .expect("estimate_union: predecessor sketch missing");
        if !d.samples.is_empty() {
            // The first member has an empty mask: every sample is fresh
            // without a scan — the common singleton-partition case costs no
            // tests at all, matching the naive scan's short-circuit.
            let fresh = if i == 0 {
                d.samples.len()
            } else {
                count_fresh_packed(&d.samples, arena)
            };
            let ratio = fresh as f64 / d.samples.len() as f64;
            total = total.add(d.r.mul_f64(ratio));
        }
        // Empty sketches (|U| = 0 cannot happen on a pruned DAG) contribute no
        // mass but still shade later members, exactly like the naive scan.
        arena.insert(state_of(u));
    }
    total
}

/// Counts samples whose reach set is disjoint from the mask, 64 at a time:
/// for each chunk, each nonzero mask word contributes one lane-parallel
/// and-compare pass over the chunk's reach words into a `covered` bitmap.
fn count_fresh_packed(samples: &[SampleEntry], arena: &MaskArena) -> usize {
    let mut fresh = 0usize;
    for chunk in samples.chunks(64) {
        let full = if chunk.len() == 64 {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let mut covered = 0u64;
        for &wi in &arena.touched {
            let mw = arena.words[wi as usize];
            for (j, e) in chunk.iter().enumerate() {
                covered |= u64::from(e.reach.word(wi as usize) & mw != 0) << j;
            }
            if covered == full {
                break;
            }
        }
        fresh += chunk.len() - covered.count_ones() as usize;
    }
    fresh
}

/// The scalar per-sample variant of the linear estimator, a reference
/// oracle: same prefix-mask linearization, but each sample is tested through
/// the `covered` predicate individually. With a predicate that recomputes
/// the reach set from the word (`reach_of`), it checks both the packed
/// kernel's batching and the cached reach sets it reads.
pub fn estimate_union_with_mask(
    members: &[NodeId],
    data: &[Option<VertexData>],
    arena: &mut MaskArena,
    state_of: impl Fn(NodeId) -> usize,
    covered: impl Fn(&SampleEntry, &MaskArena) -> bool,
) -> BigFloat {
    arena.clear();
    let mut total = BigFloat::zero();
    for (i, &u) in members.iter().enumerate() {
        let d = data[u]
            .as_ref()
            .expect("estimate_union: predecessor sketch missing");
        if !d.samples.is_empty() {
            let fresh = if i == 0 {
                d.samples.len()
            } else {
                d.samples.iter().filter(|e| !covered(e, arena)).count()
            };
            let ratio = fresh as f64 / d.samples.len() as f64;
            total = total.add(d.r.mul_f64(ratio));
        }
        arena.insert(state_of(u));
    }
    total
}

/// The seed implementation of the estimator: a quadratic per-sample scan over
/// all earlier members. Kept verbatim as the reference oracle of the
/// equivalence tests and the slowest row of the E21 kernel bench.
pub fn estimate_union_quadratic(
    members: &[NodeId],
    data: &[Option<VertexData>],
    state_of: impl Fn(NodeId) -> usize,
    member_of: impl Fn(&SampleEntry, usize) -> bool,
) -> BigFloat {
    let mut total = BigFloat::zero();
    for (i, &u) in members.iter().enumerate() {
        let d = data[u]
            .as_ref()
            .expect("estimate_union: predecessor sketch missing");
        if d.samples.is_empty() {
            continue;
        }
        let fresh = d
            .samples
            .iter()
            .filter(|entry| {
                !members[..i]
                    .iter()
                    .any(|&earlier| member_of(entry, state_of(earlier)))
            })
            .count();
        let ratio = fresh as f64 / d.samples.len() as f64;
        total = total.add(d.r.mul_f64(ratio));
    }
    total
}

/// States reachable from the initial state reading `word` — the membership
/// primitive (`x ∈ U(s^t_q)` iff `q ∈ reach_of(nfa, x)` for `|x| = t`).
pub fn reach_of(nfa: &lsc_automata::Nfa, word: &[lsc_automata::Symbol]) -> StateSet {
    let mut cur = StateSet::new(nfa.num_states());
    cur.insert(nfa.initial());
    let mut next = StateSet::new(nfa.num_states());
    for &a in word {
        nfa.step_set(&cur, a, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shim: the packed kernel with a freshly allocated arena, checked
    /// on every call against the scalar per-sample walk.
    fn estimate_union(members: &[NodeId], data: &[Option<VertexData>], m: usize) -> BigFloat {
        let mut arena = MaskArena::new(m);
        let packed = estimate_union_packed(members, data, &mut arena, |v| v);
        let scalar = estimate_union_with_mask(
            members,
            data,
            &mut arena,
            |v| v,
            |e, a| a.intersects(&e.reach),
        );
        assert_eq!(
            packed.partial_cmp_total(&scalar),
            std::cmp::Ordering::Equal,
            "packed kernel diverged from scalar walk"
        );
        packed
    }

    fn entry(word: Word, reach_states: &[usize], m: usize) -> SampleEntry {
        let mut reach = StateSet::new(m);
        for &s in reach_states {
            reach.insert(s);
        }
        SampleEntry { word, reach }
    }

    #[test]
    fn no_overlap_sums_plainly() {
        // Two vertices with disjoint U's: W̃ = R(a) + R(b).
        let m = 4;
        let data = vec![
            Some(VertexData::exact(vec![entry(vec![0], &[0], m)])),
            Some(VertexData::exact(vec![entry(vec![1], &[1], m)])),
        ];
        let w = estimate_union(&[0, 1], &data, m);
        assert!((w.to_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn full_overlap_counts_once() {
        // Vertex 1's every sample also lies in U(vertex 0): only vertex 0's
        // mass contributes beyond the first.
        let m = 4;
        let data = vec![
            Some(VertexData::exact(vec![entry(vec![0], &[0], m)])),
            Some(VertexData::exact(vec![entry(vec![0], &[0, 1], m)])),
        ];
        let w = estimate_union(&[0, 1], &data, m);
        assert!((w.to_f64() - 1.0).abs() < 1e-12, "w = {w}");
    }

    #[test]
    fn partial_overlap_uses_sample_ratio() {
        // Vertex 1 has R = 10 and half its samples covered by vertex 0.
        let m = 4;
        let v0 = VertexData::exact(vec![entry(vec![0], &[0], m)]);
        let mut v1 = VertexData::exact(vec![
            entry(vec![0], &[0, 1], m), // in U(v0)
            entry(vec![1], &[1], m),    // fresh
        ]);
        v1.exact = false;
        v1.r = BigFloat::from_u64(10);
        let data = vec![Some(v0), Some(v1)];
        let w = estimate_union(&[0, 1], &data, m);
        assert!(
            (w.to_f64() - 6.0).abs() < 1e-12,
            "1 + 10·(1/2) = 6, got {w}"
        );
    }

    #[test]
    fn order_matters_as_specified() {
        // ≺ is the member order: swapping changes which vertex absorbs overlap
        // but not the total when sketches are exact.
        let m = 4;
        let data = vec![
            Some(VertexData::exact(vec![entry(vec![0], &[0, 1], m)])),
            Some(VertexData::exact(vec![
                entry(vec![0], &[0, 1], m),
                entry(vec![1], &[1], m),
            ])),
        ];
        let w01 = estimate_union(&[0, 1], &data, m).to_f64();
        let w10 = estimate_union(&[1, 0], &data, m).to_f64();
        assert!((w01 - 2.0).abs() < 1e-12);
        assert!((w10 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn packed_kernel_across_chunk_and_word_boundaries() {
        // 300 samples (4 full chunks + a 44-sample tail) over a 200-state
        // universe (4 mask words), members spread across mask words, with a
        // deterministic mix of covered and fresh samples. The shim asserts
        // packed == scalar on every call.
        let m = 200;
        let mut samples1 = Vec::new();
        for i in 0..300usize {
            // Sample i reaches state (i % 7) * 31 — hits member state 0 when
            // i % 7 == 0, member state 93 when i % 7 == 3.
            samples1.push(entry(vec![(i % 4) as u32], &[(i % 7) * 31], m));
        }
        let mut v1 = VertexData::exact(samples1);
        v1.exact = false;
        v1.r = BigFloat::from_u64(1000);
        // Member ids double as NFA states under the identity `state_of`, so
        // members 0, 93, 155 pin mask words 0, 1, and 2.
        let mut data: Vec<Option<VertexData>> = vec![None; m];
        data[0] = Some(VertexData::exact(vec![entry(vec![0], &[0, 93, 155], m)]));
        data[93] = Some(v1);
        data[155] = Some(VertexData::exact(vec![entry(vec![1], &[155], m)]));
        let w = estimate_union(&[0, 93, 155], &data, m);
        // v1's mask holds only member state 0: covered ⇔ i % 7 == 0. v2's
        // mask holds {0, 93}; its sole sample reaches 155 and stays fresh.
        let fresh = (0..300).filter(|i| i % 7 != 0).count();
        let expect = 1.0 + 1000.0 * fresh as f64 / 300.0 + 1.0;
        assert!(
            (w.to_f64() - expect).abs() < 1e-9,
            "w = {w}, expect {expect}"
        );
    }

    #[test]
    fn arena_clear_resets_only_dirty_words() {
        let mut arena = MaskArena::new(500);
        arena.insert(3);
        arena.insert(70);
        arena.insert(71);
        arena.insert(499);
        assert_eq!(arena.touched.len(), 3, "70 and 71 share a word");
        let mut wide = StateSet::new(500);
        wide.insert(70);
        assert!(arena.intersects(&wide));
        arena.clear();
        assert!(arena.touched.is_empty());
        assert!(arena.words.iter().all(|&w| w == 0));
        let mut miss = StateSet::new(500);
        miss.insert(3);
        assert!(!arena.intersects(&miss));
    }
}
