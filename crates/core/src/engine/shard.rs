//! The sharded resolver: N independent [`Engine`] shards behind one
//! consistent-hash shard map.
//!
//! One [`Engine`] is one mutex-guarded LRU — correct, but every resolution
//! (cache lookup, LRU touch, byte re-measure) serializes on that mutex, so
//! cache resolution stops scaling the moment many cores serve warm traffic.
//! [`ShardedEngine`] removes the funnel without changing a single answer:
//!
//! * **Shards.** N fully independent engines (default: one per hardware
//!   thread), each the existing fingerprint-keyed byte-capped LRU with
//!   `cache_bytes / N` of the configured budget. Requests for different
//!   instances resolve on different mutexes and proceed in parallel.
//! * **Routing.** A [`ShardMap`] — consistent hashing over a 64-bit ring
//!   with virtual nodes — assigns every instance fingerprint to exactly one
//!   shard. All traffic for an instance (prepare, query, cursor resume,
//!   snapshot warm-load) lands on its home shard, so intra-instance cache
//!   semantics (`k` duplicates = 1 miss + `k − 1` hits) are untouched, and
//!   no instance is resident in two shards.
//! * **A fixed fleet.** The shard count is set at construction and never
//!   changes: every answer is a pure function of the prepared instance, so
//!   a shard only needs a fixed rule for which engine owns a fingerprint.
//!   The fleet is an immutable slice, and resolving a handle's home shard
//!   takes no lock. The rule is still the consistent-hash ring, not a
//!   modulus: the cluster router (`serve::router`) places instances on
//!   backends with the same [`ShardMap`], where membership does change, and
//!   snapshot warm-loads put every instance on the shard the ring names.
//!
//! **Determinism.** Shards never hold their own randomness: every answer is
//! the same pure function of `(instance, engine seed, request seed)` that
//! the single-engine path computes, and the engine-owned FPRAS sketch seed
//! mixes `config.seed` with the instance fingerprint — identical on every
//! shard layout. `crates/core/tests/shard_stress.rs` pins this: a seeded
//! concurrent op log over a `ShardedEngine` at 1/2/4/8 threads produces
//! bit-identical outputs to a serial replay on one `Engine`.

use std::sync::Arc;

use lsc_arith::BigNat;
use lsc_automata::{Nfa, Word};

use crate::engine::cache::{Engine, EngineConfig, EngineStats, InstanceHandle, QueryError};
use crate::engine::cursor::{InvalidTokenError, ResumeToken, WordCursor};
use crate::engine::prepared::PreparedInstance;
use crate::engine::router::RoutedCount;

/// SplitMix64 — the ring/key mixer. Cheap, stateless, and well distributed
/// even for near-sequential inputs (shard ids, replica indices). Also the
/// fault plan's decision mixer and the client's backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salt separating key-space hashes from ring-point hashes.
const KEY_SALT: u64 = 0x5EED_F0E1_57A8_1E5C;

/// A consistent-hash map from instance fingerprints to shard ids.
///
/// Each shard owns `replicas` pseudo-random points on a 64-bit ring; a
/// fingerprint belongs to the shard owning the first point at or clockwise
/// of the fingerprint's own ring position. The properties the shard tests
/// pin:
///
/// * **Stability** — `shard_for` is a pure function of the live shard set;
///   two maps holding the same shards agree on every key, regardless of the
///   order shards were added.
/// * **Bounded movement** — adding a shard only moves keys *to* it;
///   removing a shard only moves keys that belonged to it. Keys owned by
///   untouched shards never move.
/// * **Unique ownership** — every fingerprint maps to exactly one live
///   shard.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// `(ring position, shard id)`, sorted. Position ties (astronomically
    /// rare) are broken by shard id, deterministically.
    points: Vec<(u64, usize)>,
    /// Live shard ids, sorted.
    shards: Vec<usize>,
    /// Virtual nodes per shard.
    replicas: usize,
}

impl ShardMap {
    /// A map over shard ids `0..shards` with the given number of virtual
    /// nodes per shard (64 is a good default: key movement on topology
    /// changes stays within a few percent of ideal).
    pub fn new(shards: usize, replicas: usize) -> ShardMap {
        let mut map = ShardMap {
            points: Vec::new(),
            shards: Vec::new(),
            replicas: replicas.max(1),
        };
        for id in 0..shards.max(1) {
            map.add_shard(id);
        }
        map
    }

    /// The live shard ids, sorted.
    pub fn shard_ids(&self) -> &[usize] {
        &self.shards
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is live (an unroutable map; [`ShardMap::new`]
    /// never produces one).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The ring position of one of a shard's virtual nodes.
    fn point(shard: usize, replica: usize) -> u64 {
        splitmix64(splitmix64(shard as u64) ^ (replica as u64))
    }

    /// Adds a shard's virtual nodes to the ring. Idempotent.
    pub fn add_shard(&mut self, id: usize) {
        if self.shards.contains(&id) {
            return;
        }
        self.shards.push(id);
        self.shards.sort_unstable();
        for replica in 0..self.replicas {
            self.points.push((Self::point(id, replica), id));
        }
        self.points.sort_unstable();
    }

    /// Removes a shard's virtual nodes from the ring. Idempotent; the last
    /// shard cannot be removed (the map must stay routable).
    pub fn remove_shard(&mut self, id: usize) -> bool {
        if !self.shards.contains(&id) || self.shards.len() == 1 {
            return false;
        }
        self.shards.retain(|&s| s != id);
        self.points.retain(|&(_, s)| s != id);
        true
    }

    /// The shard owning a fingerprint.
    pub fn shard_for(&self, fingerprint: u64) -> usize {
        let key = splitmix64(fingerprint ^ KEY_SALT);
        let at = self.points.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.points[at % self.points.len()];
        shard
    }
}

/// Virtual nodes per shard on the engine's ring. A constant: the
/// fingerprint → shard assignment (and so where a snapshot warm-loads) is a
/// pure function of the shard count.
const ENGINE_RING_REPLICAS: usize = 64;

/// [`ShardedEngine`] tuning knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedConfig {
    /// The per-engine configuration. `cache_bytes` is the fleet total: each
    /// shard gets `cache_bytes / shards`, so a sharded engine and a single
    /// engine under the same config hold the same byte budget.
    pub engine: EngineConfig,
    /// Number of shards; `0` means one per hardware thread
    /// (`std::thread::available_parallelism`).
    pub shards: usize,
}

impl ShardedConfig {
    /// The shard count this configuration resolves to.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Aggregated and per-shard cache counters.
#[derive(Clone, Debug, Default)]
pub struct ShardedStats {
    /// The sum over shards — field-compatible with a single engine's
    /// [`EngineStats`].
    pub aggregate: EngineStats,
    /// `(shard id, that shard's counters)`, in shard-id order.
    pub per_shard: Vec<(usize, EngineStats)>,
}

/// N independent [`Engine`] shards fronted by a consistent-hash
/// [`ShardMap`] — the multi-core replacement for a single engine behind the
/// server. The fleet is fixed at construction; every call resolves the
/// handle's home shard through the map and runs there. See the module docs
/// for the design.
///
/// ```
/// use std::sync::Arc;
/// use lsc_automata::families::blowup_nfa;
/// use lsc_core::engine::{ShardedConfig, ShardedEngine};
///
/// let engine = ShardedEngine::new(ShardedConfig {
///     shards: 4,
///     ..ShardedConfig::default()
/// });
/// let handle = engine.prepare_nfa(&Arc::new(blowup_nfa(3)), 8);
/// let (count, _) = engine.count_exact_on(&handle).unwrap();
/// let words: Vec<_> = engine.cursor(&handle).collect();
/// assert_eq!(words.len() as u64, count.to_u64().unwrap());
/// // Exactly one shard compiled the instance; the fleet agrees on totals.
/// let stats = engine.stats();
/// assert_eq!(stats.aggregate.misses, 1);
/// assert_eq!(stats.per_shard.len(), 4);
/// ```
pub struct ShardedEngine {
    config: ShardedConfig,
    /// The shards, indexed by shard id.
    engines: Box<[Engine]>,
    /// Routes a fingerprint to its shard id over `0..engines.len()`.
    map: ShardMap,
}

impl ShardedEngine {
    /// A sharded engine with the given configuration.
    pub fn new(config: ShardedConfig) -> ShardedEngine {
        let shards = config.resolved_shards();
        let shard_config = EngineConfig {
            cache_bytes: (config.engine.cache_bytes / shards).max(1),
            ..config.engine
        };
        ShardedEngine {
            config,
            engines: (0..shards).map(|_| Engine::new(shard_config)).collect(),
            map: ShardMap::new(shards, ENGINE_RING_REPLICAS),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The shard an instance fingerprint routes to.
    pub fn shard_for_fingerprint(&self, fingerprint: u64) -> usize {
        self.map.shard_for(fingerprint)
    }

    /// Which shards hold a fingerprint right now (the residency invariant
    /// says: at most one, its home shard).
    pub fn resident_shards(&self, fingerprint: u64) -> Vec<usize> {
        (0..self.engines.len())
            .filter(|&id| {
                self.engines[id]
                    .resident_fingerprints()
                    .contains(&fingerprint)
            })
            .collect()
    }

    /// Aggregated plus per-shard cache counters.
    pub fn stats(&self) -> ShardedStats {
        let mut out = ShardedStats::default();
        for (id, engine) in self.engines.iter().enumerate() {
            let s = engine.stats();
            out.aggregate.hits += s.hits;
            out.aggregate.misses += s.misses;
            out.aggregate.evictions += s.evictions;
            out.aggregate.entries += s.entries;
            out.aggregate.bytes += s.bytes;
            out.aggregate.domains += s.domains;
            out.per_shard.push((id, s));
        }
        out
    }

    /// The shard owning a fingerprint.
    fn engine_for(&self, fingerprint: u64) -> &Engine {
        &self.engines[self.map.shard_for(fingerprint)]
    }

    /// The handle's home shard.
    fn home(&self, handle: &InstanceHandle) -> &Engine {
        self.engine_for(handle.fingerprint())
    }

    // ---- sessions ----

    /// A session handle for a raw `(automaton, length)` instance, resolved
    /// on its home shard.
    pub fn prepare_nfa(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        self.engine_for(PreparedInstance::instance_fingerprint(nfa, length))
            .prepare_nfa(nfa, length)
    }

    /// Inserts an externally constructed instance into its home shard — the
    /// shard-aware warm-restart hook behind
    /// [`crate::engine::SnapshotStore::warm_sharded`].
    pub fn insert_prepared(&self, inst: Arc<PreparedInstance>) -> InstanceHandle {
        self.engine_for(inst.fingerprint()).insert_prepared(inst)
    }

    // ---- handle entries ----

    /// Routed `COUNT` on a session handle, on its home shard (see
    /// [`Engine::count_on`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count_on(&self, handle: &InstanceHandle) -> Result<(RoutedCount, bool), QueryError> {
        self.home(handle).count_on(handle)
    }

    /// Exact `COUNT` on a session handle, on its home shard (see
    /// [`Engine::count_exact_on`]).
    ///
    /// # Errors
    /// [`QueryError::NotUnambiguous`] on ambiguous instances.
    pub fn count_exact_on(&self, handle: &InstanceHandle) -> Result<(BigNat, bool), QueryError> {
        self.home(handle).count_exact_on(handle)
    }

    /// The first `count` draws under `draw_seed`, on the handle's home
    /// shard (see [`Engine::sample_on`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on
    /// the ambiguous route.
    pub fn sample_on(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
        count: usize,
    ) -> Result<(Vec<Word>, bool), QueryError> {
        self.home(handle).sample_on(handle, draw_seed, count)
    }

    /// Settles the byte cap on the handle's home shard (see
    /// [`Engine::settle`]).
    pub fn settle(&self, handle: &InstanceHandle) {
        self.home(handle).settle(handle)
    }

    /// A raw-word cursor over a session handle (see [`Engine::cursor`]).
    pub fn cursor(&self, handle: &InstanceHandle) -> WordCursor {
        WordCursor::fresh(handle.instance().clone())
    }

    /// Reconstructs a raw-word cursor at a token's position (see
    /// [`Engine::resume_cursor`]).
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to the handle's
    /// instance or encodes an impossible position.
    pub fn resume_cursor(
        &self,
        handle: &InstanceHandle,
        token: &ResumeToken,
    ) -> Result<WordCursor, InvalidTokenError> {
        WordCursor::resume(handle.instance().clone(), token)
    }

    /// The bytes the shards' residents measure right now.
    #[cfg(test)]
    pub(crate) fn measured_bytes(&self) -> usize {
        self.engines.iter().map(Engine::measured_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;

    fn with_shards(shards: usize) -> ShardedEngine {
        ShardedEngine::new(ShardedConfig {
            shards,
            ..ShardedConfig::default()
        })
    }

    fn instance(k: usize) -> (Arc<Nfa>, usize) {
        (Arc::new(blowup_nfa(k)), 10usize)
    }

    #[test]
    fn routing_is_stable_and_unique() {
        let map = ShardMap::new(8, 64);
        for fp in 0..2000u64 {
            let owner = map.shard_for(fp);
            assert!(map.shard_ids().contains(&owner));
            assert_eq!(owner, map.shard_for(fp), "routing must be a function");
        }
        // A map holding the same shard set agrees on every key.
        let rebuilt = ShardMap::new(8, 64);
        for fp in 0..2000u64 {
            assert_eq!(map.shard_for(fp), rebuilt.shard_for(fp));
        }
    }

    #[test]
    fn virtual_nodes_spread_keys_over_every_shard() {
        let map = ShardMap::new(8, 64);
        let mut seen = [0usize; 8];
        for fp in 0..4000u64 {
            seen[map.shard_for(fp)] += 1;
        }
        for (shard, &count) in seen.iter().enumerate() {
            assert!(count > 0, "shard {shard} owns no keys");
        }
    }

    #[test]
    fn the_last_ring_shard_cannot_be_removed() {
        let mut map = ShardMap::new(1, 64);
        assert!(!map.remove_shard(0), "the map must stay routable");
        assert_eq!(map.shard_ids(), &[0]);
    }

    #[test]
    fn instances_resolve_on_exactly_one_shard() {
        let sharded = with_shards(4);
        let mut fps = Vec::new();
        for k in 3..8 {
            let (nfa, n) = instance(k);
            let handle = sharded.prepare_nfa(&nfa, n);
            assert!(!handle.was_cached());
            assert!(sharded.prepare_nfa(&nfa, n).was_cached(), "same shard hits");
            fps.push(handle.fingerprint());
        }
        for fp in fps {
            assert_eq!(
                sharded.resident_shards(fp),
                vec![sharded.shard_for_fingerprint(fp)],
                "an instance lives on its home shard and nowhere else"
            );
        }
        let stats = sharded.stats();
        assert_eq!(stats.aggregate.misses, 5);
        assert_eq!(stats.aggregate.hits, 5);
        assert_eq!(stats.aggregate.entries, 5);
    }

    #[test]
    fn duplicates_hit_on_their_home_shard() {
        let sharded = with_shards(4);
        let (a, n) = instance(4);
        let (b, _) = instance(5);
        let hits: Vec<bool> = [&a, &b, &a, &b, &a]
            .into_iter()
            .map(|nfa| sharded.prepare_nfa(nfa, n).was_cached())
            .collect();
        assert_eq!(
            hits,
            vec![false, false, true, true, true],
            "k duplicates = 1 miss + (k-1) hits, per instance, across shards"
        );
        let handle = sharded.prepare_nfa(&a, n);
        assert!(sharded.count_exact_on(&handle).unwrap().1);
        let stats = sharded.stats();
        assert_eq!((stats.aggregate.hits, stats.aggregate.misses), (5, 2));
    }

    #[test]
    fn byte_budget_is_divided_across_shards() {
        let config = ShardedConfig {
            engine: EngineConfig {
                cache_bytes: 64 << 20,
                ..EngineConfig::default()
            },
            shards: 4,
        };
        let sharded = ShardedEngine::new(config);
        assert!(sharded
            .engines
            .iter()
            .all(|e| e.config().cache_bytes == 16 << 20));
    }
}
