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
//!   no instance is resident in two shards (at quiescence — a resolution
//!   racing a topology change can leave a transient extra copy; see
//!   [`ShardedEngine::add_shard`]).
//! * **Elasticity.** [`ShardedEngine::add_shard`] and
//!   [`ShardedEngine::remove_shard`] grow or drain the fleet at runtime.
//!   Consistent hashing bounds the fallout: adding a shard moves only the
//!   keys the new shard now owns (≈ `1/(N+1)` of them), removing one moves
//!   only its own keys — every other shard's residents stay put. Moved
//!   instances migrate cache-to-cache (no recompilation); in-flight
//!   [`InstanceHandle`]s keep serving regardless, because handles pin the
//!   artifact, not the shard.
//!
//! **Determinism.** Shards never hold their own randomness: every answer is
//! the same pure function of `(instance, engine seed, request seed)` that
//! the single-engine path computes, and the engine-owned FPRAS sketch seed
//! mixes `config.seed` with the instance fingerprint — identical on every
//! shard layout. `crates/core/tests/shard_stress.rs` pins this: a seeded
//! concurrent op log over a `ShardedEngine` at 1/2/4/8 threads produces
//! bit-identical outputs to a serial replay on one `Engine`.

use std::sync::{Arc, Mutex, RwLock};

use lsc_arith::BigNat;
use lsc_automata::{Nfa, Word};

use crate::engine::cache::{Engine, EngineConfig, EngineStats, InstanceHandle, QueryError};
use crate::engine::cursor::{
    EnumCursor, GenStream, InvalidTokenError, ResumeToken, WordCursor, WordGenStream,
};
use crate::engine::prepared::PreparedInstance;
use crate::engine::queryable::Queryable;
use crate::engine::router::RoutedCount;

/// SplitMix64 — the ring/key mixer. Cheap, stateless, and well distributed
/// even for near-sequential inputs (shard ids, replica indices).
fn splitmix64(mut x: u64) -> u64 {
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

/// [`ShardedEngine`] tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// The per-engine configuration. `cache_bytes` is the fleet *total at
    /// construction*: each initial shard gets `cache_bytes / shards` (so a
    /// sharded engine and a single engine under the same config start with
    /// the same byte budget). Shards added later each bring one more such
    /// share — see [`ShardedEngine::add_shard`].
    pub engine: EngineConfig,
    /// Number of shards; `0` means one per hardware thread
    /// (`std::thread::available_parallelism`).
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub replicas: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            engine: EngineConfig::default(),
            shards: 0,
            replicas: 64,
        }
    }
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

/// One immutable shard-fleet snapshot: engines indexed by shard id
/// (`None` = drained), plus the ring that routes to them. Topology changes
/// build a fresh snapshot and swap it in — readers never see a
/// half-updated fleet.
#[derive(Clone)]
struct Topology {
    engines: Vec<Option<Arc<Engine>>>,
    map: ShardMap,
}

impl Topology {
    fn engine(&self, shard: usize) -> Arc<Engine> {
        self.engines[shard]
            .as_ref()
            .expect("shard map routes only to live shards")
            .clone()
    }

    fn live(&self) -> impl Iterator<Item = (usize, &Arc<Engine>)> {
        self.engines
            .iter()
            .enumerate()
            .filter_map(|(id, e)| e.as_ref().map(|e| (id, e)))
    }
}

/// How many read stripes front the topology (a power of two). Each stripe
/// lives on its own cache lines, so readers on different cores take
/// different locks and the hot path has no globally shared read-lock word
/// — the contention profile a single `RwLock` (or an `Arc` clone of one
/// shared snapshot) would reintroduce.
const TOPOLOGY_STRIPES: usize = 16;

/// One topology read stripe, padded to keep each stripe's lock word off
/// its neighbors' cache lines.
#[repr(align(128))]
struct Stripe(RwLock<Arc<Topology>>);

/// The stripe a thread reads through: assigned round-robin at first use,
/// so steady-state readers spread evenly regardless of thread churn.
fn stripe_slot() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// N independent [`Engine`] shards fronted by a consistent-hash
/// [`ShardMap`] — the drop-in, multi-core replacement for a single engine.
/// See the module docs for the design; the API mirrors [`Engine`]'s
/// session/typed/handle surface, with [`ShardedEngine::stats`] additionally
/// reporting per-shard counters.
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
/// let instance = (Arc::new(blowup_nfa(3)), 8usize);
/// let count = engine.count_exact(&instance).unwrap().to_u64().unwrap();
/// let words: Vec<_> = engine.enumerate(&instance).collect();
/// assert_eq!(words.len() as u64, count);
/// // Exactly one shard compiled the instance; the fleet agrees on totals.
/// let stats = engine.stats();
/// assert_eq!(stats.aggregate.misses, 1);
/// assert_eq!(stats.per_shard.len(), 4);
/// ```
pub struct ShardedEngine {
    config: ShardedConfig,
    /// Per-shard engine configuration (the byte budget already divided).
    shard_config: EngineConfig,
    /// The current [`Topology`] snapshot, replicated across read stripes.
    /// Readers go through their thread's stripe ([`stripe_slot`]); writers
    /// ([`ShardedEngine::add_shard`] / [`ShardedEngine::remove_shard`])
    /// serialize on `topology_mut`, then write-lock every stripe to swap
    /// the snapshot atomically with respect to readers.
    stripes: Vec<Stripe>,
    topology_mut: Mutex<()>,
    /// Counters inherited from drained shards, so the aggregate keeps a
    /// drained shard's history instead of dropping it with its cache
    /// (monotonic up to requests racing the drain itself — see
    /// [`ShardedEngine::remove_shard`]).
    retired: Mutex<EngineStats>,
}

impl ShardedEngine {
    /// A sharded engine with the given configuration.
    pub fn new(config: ShardedConfig) -> ShardedEngine {
        let shards = config.resolved_shards();
        let shard_config = EngineConfig {
            cache_bytes: (config.engine.cache_bytes / shards).max(1),
            ..config.engine
        };
        let engines = (0..shards)
            .map(|_| Some(Arc::new(Engine::new(shard_config))))
            .collect();
        let topology = Arc::new(Topology {
            engines,
            map: ShardMap::new(shards, config.replicas),
        });
        ShardedEngine {
            config,
            shard_config,
            stripes: (0..TOPOLOGY_STRIPES)
                .map(|_| Stripe(RwLock::new(topology.clone())))
                .collect(),
            topology_mut: Mutex::new(()),
            retired: Mutex::new(EngineStats::default()),
        }
    }

    /// Runs `f` against the current topology snapshot through this
    /// thread's read stripe (see [`Stripe`]).
    fn with_topology<T>(&self, f: impl FnOnce(&Topology) -> T) -> T {
        let guard = self.stripes[stripe_slot() % TOPOLOGY_STRIPES]
            .0
            .read()
            .expect("topology stripe poisoned");
        f(&guard)
    }

    /// Swaps a new topology snapshot into every stripe. All stripe write
    /// locks are held simultaneously, so no reader observes a mix of old
    /// and new topologies. Callers hold `topology_mut`.
    fn install(&self, next: &Arc<Topology>) {
        let mut guards: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.0.write().expect("topology stripe poisoned"))
            .collect();
        for guard in &mut guards {
            **guard = next.clone();
        }
    }

    /// A sharded engine with default configuration (one shard per hardware
    /// thread).
    pub fn with_defaults() -> ShardedEngine {
        Self::new(ShardedConfig::default())
    }

    /// A default-configured engine with an explicit shard count.
    pub fn with_shards(shards: usize) -> ShardedEngine {
        Self::new(ShardedConfig {
            shards,
            ..ShardedConfig::default()
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Live shard count.
    pub fn num_shards(&self) -> usize {
        self.with_topology(|t| t.map.len())
    }

    /// The shard an instance fingerprint routes to.
    pub fn shard_for_fingerprint(&self, fingerprint: u64) -> usize {
        self.with_topology(|t| t.map.shard_for(fingerprint))
    }

    /// Which shards hold a fingerprint right now (the no-double-residency
    /// invariant says: never more than one at quiescence — see
    /// [`ShardedEngine::add_shard`] for the transient during a racing
    /// topology change).
    pub fn resident_shards(&self, fingerprint: u64) -> Vec<usize> {
        self.with_topology(|t| {
            t.live()
                .filter(|(_, e)| e.resident_fingerprints().contains(&fingerprint))
                .map(|(id, _)| id)
                .collect()
        })
    }

    /// Aggregated plus per-shard cache counters. The aggregate includes
    /// the hit/miss/eviction history of since-drained shards; entry and
    /// byte gauges cover only the live fleet.
    pub fn stats(&self) -> ShardedStats {
        let mut out = ShardedStats::default();
        {
            let retired = self.retired.lock().expect("retired stats poisoned");
            out.aggregate.hits = retired.hits;
            out.aggregate.misses = retired.misses;
            out.aggregate.evictions = retired.evictions;
        }
        self.with_topology(|topology| {
            for (id, engine) in topology.live() {
                let s = engine.stats();
                out.aggregate.hits += s.hits;
                out.aggregate.misses += s.misses;
                out.aggregate.evictions += s.evictions;
                out.aggregate.entries += s.entries;
                out.aggregate.bytes += s.bytes;
                out.aggregate.domains += s.domains;
                out.per_shard.push((id, s));
            }
        });
        out
    }

    // ---- routing ----

    fn engine_for(&self, fingerprint: u64) -> Arc<Engine> {
        self.with_topology(|t| t.engine(t.map.shard_for(fingerprint)))
    }

    /// The handle's home shard (handles pin the artifact, not the shard,
    /// so this is looked up per call).
    fn home(&self, handle: &InstanceHandle) -> Arc<Engine> {
        self.engine_for(handle.fingerprint())
    }

    // ---- sessions ----

    /// Opens a session on a domain object: the reduction runs (memoized) on
    /// the domain fingerprint's home shard, then the *instance* routes by
    /// its own fingerprint — so equal instances reached through different
    /// domains still share one shard and one compilation.
    pub fn prepare<Q: Queryable + ?Sized>(&self, queryable: &Q) -> InstanceHandle {
        let (nfa, length) = self
            .engine_for(queryable.domain_fingerprint())
            .domain_instance(queryable);
        self.prepare_nfa(&nfa, length)
    }

    /// A session handle for a raw `(automaton, length)` instance, resolved
    /// on its home shard.
    pub fn prepare_nfa(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        self.engine_for(PreparedInstance::instance_fingerprint(nfa, length))
            .prepare_nfa(nfa, length)
    }

    /// The prepared instance for `(nfa, length)` — [`ShardedEngine::prepare_nfa`]
    /// without the handle wrapper.
    pub fn prepared(&self, nfa: &Arc<Nfa>, length: usize) -> Arc<PreparedInstance> {
        self.engine_for(PreparedInstance::instance_fingerprint(nfa, length))
            .prepared(nfa, length)
    }

    /// Inserts an externally constructed instance into its home shard — the
    /// shard-aware warm-restart hook behind
    /// [`crate::engine::SnapshotStore::warm_sharded`].
    pub fn insert_prepared(&self, inst: Arc<PreparedInstance>) -> InstanceHandle {
        self.engine_for(inst.fingerprint()).insert_prepared(inst)
    }

    // ---- typed queries ----

    /// Routed `COUNT` on a domain object (see [`Engine::count`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<RoutedCount, QueryError> {
        let handle = self.prepare(queryable);
        self.home(&handle).routed(&handle)
    }

    /// Exact `COUNT` on a domain object (see [`Engine::count_exact`]).
    ///
    /// # Errors
    /// [`QueryError::NotUnambiguous`] on ambiguous instances.
    pub fn count_exact<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<BigNat, QueryError> {
        let handle = self.prepare(queryable);
        self.home(&handle).exact(&handle)
    }

    /// Streaming `ENUM` on a domain object (see [`Engine::enumerate`]).
    pub fn enumerate<'q, Q: Queryable + ?Sized>(&self, queryable: &'q Q) -> EnumCursor<'q, Q> {
        let handle = self.prepare(queryable);
        EnumCursor::new(queryable, WordCursor::fresh(handle.instance().clone()))
    }

    /// Reconstructs a typed cursor at a token's position (see
    /// [`Engine::resume`]).
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to this domain
    /// object's instance or encodes an impossible position.
    pub fn resume<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        token: &ResumeToken,
    ) -> Result<EnumCursor<'q, Q>, InvalidTokenError> {
        let handle = self.prepare(queryable);
        Ok(EnumCursor::new(
            queryable,
            WordCursor::resume(handle.instance().clone(), token)?,
        ))
    }

    /// `GEN` on a domain object (see [`Engine::sample`]). Deterministic in
    /// `(instance, engine seed, draw_seed)` — the shard layout never enters
    /// the stream.
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on
    /// the ambiguous route.
    pub fn sample<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        draw_seed: u64,
    ) -> Result<GenStream<'q, Q>, QueryError> {
        let handle = self.prepare(queryable);
        let stream = self.home(&handle).stream(&handle, draw_seed)?;
        Ok(GenStream::new(queryable, stream))
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

    /// A raw-word uniform draw stream over a session handle (see
    /// [`Engine::gen_stream`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on
    /// the ambiguous route.
    pub fn gen_stream(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
    ) -> Result<WordGenStream, QueryError> {
        self.home(handle).gen_stream(handle, draw_seed)
    }

    /// The bytes the live shards' residents measure right now.
    #[cfg(test)]
    pub(crate) fn measured_bytes(&self) -> usize {
        self.with_topology(|t| t.live().map(|(_, e)| e.measured_bytes()).sum())
    }

    // ---- elasticity ----

    /// Adds a fresh shard to the fleet and migrates the instances it now
    /// owns out of their old shards (cache-to-cache — no recompilation).
    /// Returns the new shard's id.
    ///
    /// Topology changes are linearized with respect to each other; readers
    /// always see a complete snapshot (old or new, never a mix). Requests
    /// in flight during the swap may resolve through the previous snapshot
    /// — answers are unaffected (every answer is a pure function of the
    /// instance and seeds), but cache placement is eventually consistent:
    /// a resolution that raced the swap can leave a transient resident on
    /// the old owner, which converges on the next topology change or
    /// eviction. The strict no-double-residency invariant therefore holds
    /// at quiescence (no topology change mid-request), which is what the
    /// shard tests pin.
    ///
    /// Capacity note: each shard's byte budget is fixed at construction
    /// (`cache_bytes / initial shards`), so an added shard brings one more
    /// share of capacity — growing the fleet grows the fleet-total cache
    /// by design, mirroring how added hardware brings its own memory.
    pub fn add_shard(&self) -> usize {
        let _writer = self.topology_mut.lock().expect("topology writer poisoned");
        let current = self.with_topology(|t| t.clone());
        let id = current.engines.len();
        let mut next = current;
        next.map.add_shard(id);
        next.engines
            .push(Some(Arc::new(Engine::new(self.shard_config))));
        let next = Arc::new(next);
        // New routing first, then drain: an instance the new shard owns is
        // re-resolved there from the moment of the swap, and its old copy
        // is swept out right after.
        self.install(&next);
        let mut moved = Vec::new();
        for (shard, engine) in next.live() {
            if shard == id {
                continue;
            }
            moved.extend(engine.take_instances_where(|fp| next.map.shard_for(fp) == id));
        }
        let new_engine = next.engine(id);
        for inst in moved {
            new_engine.insert_prepared(inst);
        }
        id
    }

    /// Drains a shard: removes it from the ring and migrates its resident
    /// instances to their new home shards. Every other shard's residents
    /// are untouched (the consistent-hashing guarantee). Returns `false`
    /// if the shard is unknown, already drained, or the last one standing.
    /// Outstanding [`InstanceHandle`]s minted by the drained shard keep
    /// serving — they pin the artifact, not the shard. (See
    /// [`ShardedEngine::add_shard`] for the snapshot-swap semantics.)
    pub fn remove_shard(&self, id: usize) -> bool {
        let _writer = self.topology_mut.lock().expect("topology writer poisoned");
        let mut next = self.with_topology(|t| t.clone());
        if !next.map.remove_shard(id) {
            return false;
        }
        let drained = next.engines[id]
            .take()
            .expect("map had the shard, fleet must too");
        let next = Arc::new(next);
        self.install(&next);
        for inst in drained.take_instances_where(|_| true) {
            next.engine(next.map.shard_for(inst.fingerprint()))
                .insert_prepared(inst);
        }
        // Capture the drained shard's counter history only after the swap
        // and the migration sweep, so everything it recorded up to the
        // point new traffic stopped reaching it is carried over. (A
        // request that raced the swap with an already-resolved engine
        // reference may still record on the drained shard afterwards;
        // those last counts die with it — see the add_shard note on
        // eventual consistency.)
        {
            let s = drained.stats();
            let mut retired = self.retired.lock().expect("retired stats poisoned");
            retired.hits += s.hits;
            retired.misses += s.misses;
            retired.evictions += s.evictions;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;

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
    fn sharded_answers_match_single_engine() {
        let single = Engine::with_defaults();
        let sharded = ShardedEngine::with_shards(4);
        for k in 3..6 {
            let instance = instance(k);
            let a = single.count_exact(&instance).unwrap();
            let b = sharded.count_exact(&instance).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn instances_resolve_on_exactly_one_shard() {
        let sharded = ShardedEngine::with_shards(4);
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
        let sharded = ShardedEngine::with_shards(4);
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
    fn typed_counts_resolve_once_like_the_unsharded_engine() {
        let sharded = ShardedEngine::with_shards(4);
        let single = Engine::new(EngineConfig::default());
        let query = instance(4);
        for _ in 0..3 {
            assert_eq!(
                sharded.count(&query).unwrap().exact,
                single.count(&query).unwrap().exact
            );
            assert_eq!(
                sharded.count_exact(&query).unwrap(),
                single.count_exact(&query).unwrap()
            );
        }
        let sharded = sharded.stats().aggregate;
        let single = single.stats();
        assert_eq!((single.hits, single.misses), (5, 1));
        assert_eq!((sharded.hits, sharded.misses), (single.hits, single.misses));
    }

    #[test]
    fn add_shard_migrates_only_what_it_now_owns() {
        let sharded = ShardedEngine::with_shards(3);
        let mut homes = std::collections::HashMap::new();
        for k in 3..11 {
            let (nfa, n) = instance(k);
            let handle = sharded.prepare_nfa(&nfa, n);
            homes.insert(
                handle.fingerprint(),
                sharded.shard_for_fingerprint(handle.fingerprint()),
            );
        }
        let new = sharded.add_shard();
        assert_eq!(sharded.num_shards(), 4);
        for (&fp, &old_home) in &homes {
            let now = sharded.shard_for_fingerprint(fp);
            assert!(
                now == old_home || now == new,
                "keys only move to the new shard"
            );
            assert_eq!(
                sharded.resident_shards(fp),
                vec![now],
                "migrated in cache too"
            );
        }
        // Migration moved artifacts, not recompilations: no new misses.
        assert_eq!(sharded.stats().aggregate.misses, 8);
    }

    #[test]
    fn remove_shard_drains_into_the_survivors() {
        let sharded = ShardedEngine::with_shards(4);
        let mut handles = Vec::new();
        for k in 3..11 {
            let (nfa, n) = instance(k);
            handles.push((sharded.prepare_nfa(&nfa, n), nfa, n));
        }
        let victim = sharded.shard_for_fingerprint(handles[0].0.fingerprint());
        assert!(sharded.remove_shard(victim));
        assert!(!sharded.remove_shard(victim), "already drained");
        assert_eq!(sharded.num_shards(), 3);
        for (handle, nfa, n) in &handles {
            let fp = handle.fingerprint();
            let home = sharded.shard_for_fingerprint(fp);
            assert_ne!(home, victim);
            assert_eq!(sharded.resident_shards(fp), vec![home]);
            // Still served warm — the drained shard's artifacts migrated.
            assert!(sharded.prepare_nfa(nfa, *n).was_cached());
        }
        assert_eq!(sharded.stats().aggregate.misses, 8, "no recompilation");
    }

    #[test]
    fn last_shard_cannot_be_removed() {
        let sharded = ShardedEngine::with_shards(1);
        assert!(!sharded.remove_shard(0));
        assert_eq!(sharded.num_shards(), 1);
    }

    #[test]
    fn byte_budget_is_divided_across_shards() {
        let config = ShardedConfig {
            engine: EngineConfig {
                cache_bytes: 64 << 20,
                ..EngineConfig::default()
            },
            shards: 4,
            ..ShardedConfig::default()
        };
        let sharded = ShardedEngine::new(config);
        assert_eq!(sharded.shard_config.cache_bytes, 16 << 20);
    }
}
