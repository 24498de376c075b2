//! The query engine: a fingerprint-keyed, byte-capped LRU cache of
//! [`PreparedInstance`]s plus the session and query APIs served from it.
//!
//! A production deployment sees the same automata over and over (the same
//! RPQ against a slowly-changing graph, the same spanner over many
//! documents, the same DNF reduction re-counted under different lengths).
//! The engine makes the repeat traffic cheap, in two layers:
//!
//! * **Sessions** — [`Engine::prepare`] turns any [`Queryable`] domain object
//!   into a cheap [`InstanceHandle`]: the reduction runs once per distinct
//!   domain fingerprint, the prepared artifact lives in the shared cache, and
//!   the handle is a couple of words to clone. Every query runs on a handle's
//!   pinned artifact — nothing on the request path deep-copies an automaton.
//! * **Queries** — [`Engine::count`], [`Engine::enumerate`],
//!   [`Engine::sample`] are generic over [`Queryable`] and return domain
//!   values: counts with provenance, streaming [`EnumCursor`]s (resumable via
//!   [`ResumeToken`]s), and amortized [`GenStream`]s. The buffered verbs a
//!   server answers per request take a handle instead:
//!   [`Engine::count_on`], [`Engine::count_exact_on`] and
//!   [`Engine::sample_on`] each resolve the handle through the LRU once
//!   (reporting `cache_hit`), run on the handle's instance, and settle the
//!   byte cap afterwards.
//!
//! **`cache_hit` and the byte cap.** Hit/miss totals in [`EngineStats`] count
//! resolutions: every `prepare` and every handle entry resolves once, so `k`
//! resolutions of one instance contribute `1` miss and `k − 1` hits. A
//! handle whose entry was evicted in between re-inserts its pinned instance
//! and reports a miss (no recompilation happens either way). Queries
//! materialize tables lazily, so every buffered verb re-measures its entry
//! when it finishes ([`Engine::settle`], which servers also call after an
//! `ENUM` page) and evicts least-recently-used entries until the cap holds.
//!
//! **Determinism.** Every answer is a pure function of the instance, the
//! request's own seed, and the engine-owned randomness — the cached FPRAS
//! sketch, seeded from `config.seed` mixed with the instance fingerprint,
//! never from arrival order. Warm and cold caches give bit-identical answers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lsc_arith::BigNat;
use lsc_automata::{Nfa, Word};

use crate::count::exact::NotUnambiguousError;
use crate::engine::cursor::{
    EnumCursor, GenStream, InvalidTokenError, ResumeToken, WordCursor, WordGenStream,
};
use crate::engine::prepared::PreparedInstance;
use crate::engine::queryable::Queryable;
use crate::engine::router::{RoutedCount, RouterConfig};
use crate::fpras::FprasError;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Routing policy for `COUNT` requests (and the FPRAS parameters used by
    /// the ambiguous `GEN` route).
    pub router: RouterConfig,
    /// Byte cap on the instance cache (approximate accounting; the
    /// most-recently-used entry is never evicted, so one oversized instance
    /// still serves).
    pub cache_bytes: usize,
    /// Master seed for engine-owned randomness (the cached FPRAS sketches).
    pub seed: u64,
    /// Las Vegas attempts per requested witness on the ambiguous `GEN` route.
    pub retries: usize,
    /// Entry cap on the domain-session memo (each entry pins one reduced
    /// automaton, which for document products scales with the document —
    /// least-recently-used sessions are evicted past the cap and simply
    /// re-run their reduction on the next `prepare`).
    pub domain_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            router: RouterConfig::default(),
            cache_bytes: 256 << 20,
            seed: 0x10_65C0,
            retries: 256,
            domain_entries: 1024,
        }
    }
}

/// A cheap, clonable reference to one prepared instance in the engine: the
/// session half of the query API. Obtained from [`Engine::prepare`] (typed)
/// or [`Engine::prepare_nfa`] (raw); holding one pins the artifact in memory
/// (the cache may still evict its entry, but the handle keeps serving), and
/// every query runs on that pinned artifact.
#[derive(Clone)]
pub struct InstanceHandle {
    inst: Arc<PreparedInstance>,
    key: InstanceKey,
    cache_hit: bool,
}

impl InstanceHandle {
    /// The prepared artifact.
    pub fn instance(&self) -> &Arc<PreparedInstance> {
        &self.inst
    }

    /// The instance fingerprint (what resume tokens bind to).
    pub fn fingerprint(&self) -> u64 {
        self.inst.fingerprint()
    }

    /// The witness length `n`.
    pub fn length(&self) -> usize {
        self.inst.length()
    }

    /// Whether the instance was already cached when the handle was prepared
    /// (the session-level analogue of the `cache_hit` the handle entries
    /// report).
    pub fn was_cached(&self) -> bool {
        self.cache_hit
    }
}

/// Why a query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// `CountExact` on an ambiguous instance.
    NotUnambiguous,
    /// An FPRAS failure event (vanishing probability) on a randomized route.
    Fpras(FprasError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotUnambiguous => NotUnambiguousError.fmt(f),
            QueryError::Fpras(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<FprasError> for QueryError {
    fn from(e: FprasError) -> Self {
        QueryError::Fpras(e)
    }
}

impl From<NotUnambiguousError> for QueryError {
    fn from(NotUnambiguousError: NotUnambiguousError) -> Self {
        QueryError::NotUnambiguous
    }
}

/// Cache counters, for observability and the cache-behavior tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests that found their instance in the cache.
    pub hits: u64,
    /// Requests that had to insert a fresh instance.
    pub misses: u64,
    /// Instances evicted by the byte cap.
    pub evictions: u64,
    /// Instances currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached.
    pub bytes: usize,
    /// Domain sessions memoized (distinct `Queryable` fingerprints whose
    /// reduction has run).
    pub domains: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct InstanceKey {
    fingerprint: u64,
    states: usize,
    transitions: usize,
    length: usize,
}

impl InstanceKey {
    fn of(nfa: &Nfa, length: usize) -> Self {
        InstanceKey {
            fingerprint: nfa.fingerprint(),
            states: nfa.num_states(),
            transitions: nfa.num_transitions(),
            length,
        }
    }
}

struct Entry {
    inst: Arc<PreparedInstance>,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<InstanceKey, Entry>,
    total_bytes: usize,
    tick: u64,
    evictions: u64,
}

/// The domain-session memo behind [`Engine::prepare`]: an entry-capped LRU
/// of reduction outputs.
#[derive(Default)]
struct DomainMemo {
    entries: HashMap<u64, (Arc<Nfa>, usize, u64)>,
    tick: u64,
}

impl DomainMemo {
    /// Touches and returns a memoized reduction.
    fn get(&mut self, domain: u64) -> Option<(Arc<Nfa>, usize)> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&domain).map(|(nfa, length, used)| {
            *used = tick;
            (nfa.clone(), *length)
        })
    }

    /// Inserts a reduction, evicting least-recently-used sessions past the
    /// cap (an evicted session just re-runs its reduction next time).
    fn insert(&mut self, domain: u64, nfa: Arc<Nfa>, length: usize, cap: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(domain, (nfa, length, tick));
        while self.entries.len() > cap.max(1) {
            let Some((&victim, _)) = self
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="victim choice keyed on (unique monotonic tick, domain id); min is order-independent"
                .iter()
                .min_by_key(|(&domain, (_, _, used))| (*used, domain))
            else {
                break;
            };
            self.entries.remove(&victim);
        }
    }
}

/// The prepared-instance query engine. See the module docs.
///
/// The typical flow: build one engine for the process, [`Engine::prepare`]
/// a domain object into a session handle (compiling at most once per
/// distinct instance), then serve `COUNT` / `ENUM` / `GEN` from the shared
/// artifact:
///
/// ```
/// use std::sync::Arc;
/// use lsc_automata::regex::Regex;
/// use lsc_automata::{Alphabet, Word};
/// use lsc_core::engine::Engine;
///
/// let engine = Engine::with_defaults();
/// let ab = Alphabet::binary();
/// let nfa = Arc::new(Regex::parse("(0|1)*101(0|1)*", &ab).unwrap().compile());
/// let instance = (nfa, 10usize); // the identity Queryable
///
/// // COUNT with provenance (exact here: the router determinizes).
/// let count = engine.count(&instance).unwrap();
/// assert!(count.is_exact());
///
/// // ENUM as a streaming cursor, paged across calls via a resume token.
/// let mut cursor = engine.enumerate(&instance);
/// let page: Vec<Word> = cursor.by_ref().take(5).collect();
/// let token = cursor.token();
/// let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
/// assert_eq!(
///     (page.len() + rest.len()) as u64,
///     count.exact.clone().unwrap().to_u64().unwrap(),
/// );
///
/// // GEN as an amortized uniform draw stream (deterministic in its seeds).
/// let draws: Vec<Word> = engine.sample(&instance, 7).unwrap().take(3).collect();
/// assert_eq!(draws.len(), 3);
///
/// // Everything above compiled the instance exactly once.
/// assert_eq!(engine.stats().misses, 1);
/// ```
pub struct Engine {
    config: EngineConfig,
    inner: Mutex<CacheInner>,
    /// Domain-session memo: `Queryable::domain_fingerprint` → the reduction's
    /// output, so `prepare` re-runs no reduction for a known domain object.
    /// Holds the automaton (which for document/graph products scales with
    /// the data, hence the `config.domain_entries` LRU cap), never the
    /// prepared tables — eviction of the instance cache stays effective.
    domains: Mutex<DomainMemo>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                total_bytes: 0,
                tick: 0,
                evictions: 0,
            }),
            domains: Mutex::new(DomainMemo::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An engine with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cache counters.
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.lock().expect("engine cache poisoned");
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            entries: inner.entries.len(),
            bytes: inner.total_bytes,
            domains: self
                .domains
                .lock()
                .expect("domain index poisoned")
                .entries
                .len(),
        }
    }

    // ---- sessions ----

    /// Opens (or re-opens) a session on a domain object: runs the reduction
    /// at most once per [`Queryable::domain_fingerprint`], resolves the
    /// prepared instance through the shared cache, and returns the cheap
    /// handle everything else is served from.
    pub fn prepare<Q: Queryable + ?Sized>(&self, queryable: &Q) -> InstanceHandle {
        let (nfa, length) = self.domain_instance(queryable);
        self.prepare_nfa(&nfa, length)
    }

    /// The memoized reduction of a domain object — [`Engine::prepare`]
    /// without the instance-cache resolution. The sharded resolver
    /// ([`crate::engine::ShardedEngine`]) uses this to run the reduction on
    /// the domain's home shard before routing the *instance* by its own
    /// fingerprint.
    pub fn domain_instance<Q: Queryable + ?Sized>(&self, queryable: &Q) -> (Arc<Nfa>, usize) {
        let domain = queryable.domain_fingerprint();
        let memoized = self
            .domains
            .lock()
            .expect("domain index poisoned")
            .get(domain);
        match memoized {
            Some(pair) => pair,
            None => {
                let (nfa, length) = queryable.to_instance();
                self.domains.lock().expect("domain index poisoned").insert(
                    domain,
                    nfa.clone(),
                    length,
                    self.config.domain_entries,
                );
                (nfa, length)
            }
        }
    }

    /// A session handle for a raw `(automaton, length)` instance — the
    /// identity-domain variant of [`Engine::prepare`]: served from the cache
    /// when present, inserted (lazily, nothing materialized yet) otherwise.
    pub fn prepare_nfa(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        self.lookup_or_insert(nfa, length)
    }

    /// The prepared instance for `(nfa, length)` — [`Engine::prepare_nfa`]
    /// without the handle wrapper, for callers that only want the artifact.
    pub fn prepared(&self, nfa: &Arc<Nfa>, length: usize) -> Arc<PreparedInstance> {
        self.lookup_or_insert(nfa, length).inst
    }

    /// Inserts an externally constructed instance into the cache — the
    /// warm-restart hook behind [`crate::engine::SnapshotStore::warm`]. If
    /// the key is already cached, the existing artifact wins (and is
    /// returned); otherwise the given instance enters the LRU. Warm-loading
    /// is not request traffic, so neither path touches the hit/miss
    /// counters — the first *query* against a warmed instance reports a
    /// clean cache hit.
    pub fn insert_prepared(&self, inst: Arc<PreparedInstance>) -> InstanceHandle {
        let key = InstanceKey::of(inst.nfa_arc(), inst.length());
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            return InstanceHandle {
                inst: entry.inst.clone(),
                key,
                cache_hit: true,
            };
        }
        let bytes = inst.approx_bytes();
        inner.total_bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                inst: inst.clone(),
                bytes,
                last_used: tick,
            },
        );
        self.evict_locked(&mut inner);
        InstanceHandle {
            inst,
            key,
            cache_hit: false,
        }
    }

    /// The instance fingerprints currently resident in the cache, sorted.
    /// This is the sharding layer's (and the shard tests') introspection
    /// hook: which instances live *here*.
    pub fn resident_fingerprints(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("engine cache poisoned");
        let mut fps: Vec<u64> = inner
            .entries
            // lsc-analyze: allow(nondeterministic-iteration) reason="collected set is sorted before return; iteration order cannot leak"
            .values()
            .map(|e| e.inst.fingerprint())
            .collect();
        fps.sort_unstable();
        fps
    }

    /// Removes and returns every cached instance whose fingerprint matches
    /// the predicate, in fingerprint order. The byte accounting shrinks
    /// accordingly; nothing counts as an eviction (the instances are being
    /// *moved*, not dropped — this is the shard add/drain migration hook).
    pub fn take_instances_where(
        &self,
        mut pred: impl FnMut(u64) -> bool,
    ) -> Vec<Arc<PreparedInstance>> {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let mut keys: Vec<InstanceKey> = inner
            .entries
            // lsc-analyze: allow(nondeterministic-iteration) reason="matched keys are sorted below and the output is sorted by fingerprint"
            .iter()
            .filter(|(_, e)| pred(e.inst.fingerprint()))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let entry = inner.entries.remove(&key).expect("key just listed");
            inner.total_bytes = inner.total_bytes.saturating_sub(entry.bytes);
            out.push(entry.inst);
        }
        out.sort_by_key(|inst| inst.fingerprint());
        out
    }

    // ---- typed queries ----

    /// Routed `COUNT` on a domain object: exact where exactness is
    /// affordable, the cached FPRAS sketch otherwise, with provenance.
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<RoutedCount, QueryError> {
        self.routed(&self.prepare(queryable))
    }

    /// Exact `COUNT` on a domain object (Theorem 5, unambiguous reductions
    /// only).
    ///
    /// # Errors
    /// [`QueryError::NotUnambiguous`] on ambiguous instances.
    pub fn count_exact<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<BigNat, QueryError> {
        self.exact(&self.prepare(queryable))
    }

    /// Streaming `ENUM` on a domain object: a typed cursor yielding decoded
    /// witnesses lazily (constant delay on unambiguous instances, polynomial
    /// otherwise), resumable across calls via [`EnumCursor::token`] and
    /// [`Engine::resume`].
    pub fn enumerate<'q, Q: Queryable + ?Sized>(&self, queryable: &'q Q) -> EnumCursor<'q, Q> {
        let handle = self.prepare(queryable);
        EnumCursor::new(queryable, WordCursor::fresh(handle.inst))
    }

    /// Reconstructs a typed cursor at a token's position; the continued
    /// stream is bit-identical to the uninterrupted one.
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
            WordCursor::resume(handle.inst, token)?,
        ))
    }

    /// `GEN` on a domain object: an amortized uniform draw stream yielding
    /// decoded witnesses. Deterministic in `(instance, engine seed,
    /// draw_seed)`.
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on the
    /// ambiguous route.
    pub fn sample<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        draw_seed: u64,
    ) -> Result<GenStream<'q, Q>, QueryError> {
        let handle = self.prepare(queryable);
        Ok(GenStream::new(queryable, self.stream(&handle, draw_seed)?))
    }

    // ---- handle entries (handles in, raw words out) ----

    /// Routed `COUNT` on a session handle, with whether the handle's
    /// instance was still cached (see the module docs on `cache_hit`).
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count_on(&self, handle: &InstanceHandle) -> Result<(RoutedCount, bool), QueryError> {
        let cache_hit = self.touch(handle);
        Ok((self.routed(handle)?, cache_hit))
    }

    /// Exact `COUNT` on a session handle, with its `cache_hit`.
    ///
    /// # Errors
    /// [`QueryError::NotUnambiguous`] on ambiguous instances.
    pub fn count_exact_on(&self, handle: &InstanceHandle) -> Result<(BigNat, bool), QueryError> {
        let cache_hit = self.touch(handle);
        Ok((self.exact(handle)?, cache_hit))
    }

    /// The first `count` draws of [`Engine::gen_stream`] under `draw_seed`,
    /// with the handle's `cache_hit`.
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on the
    /// ambiguous route.
    pub fn sample_on(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
        count: usize,
    ) -> Result<(Vec<Word>, bool), QueryError> {
        let cache_hit = self.touch(handle);
        let words = self
            .gen_stream(handle, draw_seed)
            .map(|stream| stream.take(count).collect());
        self.settle(handle);
        Ok((words?, cache_hit))
    }

    /// Re-measures the handle's cache entry (queries materialize tables
    /// lazily) and evicts least-recently-used entries until the byte cap
    /// holds again. Counts no resolution: servers call it after an `ENUM`
    /// page, and every buffered verb ends with it. A handle whose entry was
    /// evicted, or replaced by another artifact, changes nothing.
    pub fn settle(&self, handle: &InstanceHandle) {
        let fresh = handle.inst.approx_bytes();
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let Some(entry) = inner.entries.get_mut(&handle.key) else {
            return;
        };
        if !Arc::ptr_eq(&entry.inst, &handle.inst) {
            return;
        }
        let old = std::mem::replace(&mut entry.bytes, fresh);
        inner.total_bytes = (inner.total_bytes + fresh).saturating_sub(old);
        self.evict_locked(&mut inner);
    }

    /// A raw-word cursor over a session handle (the untyped sibling of
    /// [`Engine::enumerate`], for tools that print words directly).
    pub fn cursor(&self, handle: &InstanceHandle) -> WordCursor {
        WordCursor::fresh(handle.inst.clone())
    }

    /// Reconstructs a raw-word cursor at a token's position.
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to the handle's
    /// instance or encodes an impossible position.
    pub fn resume_cursor(
        &self,
        handle: &InstanceHandle,
        token: &ResumeToken,
    ) -> Result<WordCursor, InvalidTokenError> {
        WordCursor::resume(handle.inst.clone(), token)
    }

    /// A raw-word uniform draw stream over a session handle (the untyped
    /// sibling of [`Engine::sample`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on the
    /// ambiguous route.
    pub fn gen_stream(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
    ) -> Result<WordGenStream, QueryError> {
        Ok(WordGenStream::new(
            &handle.inst,
            &self.config.router,
            self.config.retries,
            self.sketch_seed(&handle.inst),
            draw_seed,
        )?)
    }

    /// Routed `COUNT` on the handle's instance, settled.
    pub(super) fn routed(&self, handle: &InstanceHandle) -> Result<RoutedCount, QueryError> {
        let routed = handle
            .inst
            .count_routed_cached(&self.config.router, self.sketch_seed(&handle.inst));
        self.settle(handle);
        Ok(routed?)
    }

    /// Exact `COUNT` on the handle's instance, settled.
    pub(super) fn exact(&self, handle: &InstanceHandle) -> Result<BigNat, QueryError> {
        let count = handle.inst.count_exact();
        self.settle(handle);
        Ok(count?)
    }

    /// [`Engine::gen_stream`], settled once the stream is built (building
    /// it may build the sketch; later draws are charged at the next touch).
    pub(super) fn stream(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
    ) -> Result<WordGenStream, QueryError> {
        let stream = self.gen_stream(handle, draw_seed);
        self.settle(handle);
        stream
    }

    // ---- cache internals ----

    /// Resolves `key` through the cache: on a hit, touches LRU state and
    /// re-measures the entry; on a miss, inserts whatever `make` builds.
    fn resolve_with(
        &self,
        key: InstanceKey,
        make: impl FnOnce() -> Arc<PreparedInstance>,
    ) -> InstanceHandle {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let touched = inner.entries.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            // Re-measure on every touch (cheap — per-table sizes are
            // memoized) so tables materialized through a directly-held
            // `Arc` are accounted for too.
            let fresh = entry.inst.approx_bytes();
            let old = std::mem::replace(&mut entry.bytes, fresh);
            (entry.inst.clone(), fresh, old)
        });
        if let Some((inst, fresh, old)) = touched {
            inner.total_bytes = (inner.total_bytes + fresh).saturating_sub(old);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.evict_locked(&mut inner);
            return InstanceHandle {
                inst,
                key,
                cache_hit: true,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let inst = make();
        let bytes = inst.approx_bytes();
        inner.total_bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                inst: inst.clone(),
                bytes,
                last_used: tick,
            },
        );
        self.evict_locked(&mut inner);
        InstanceHandle {
            inst,
            key,
            cache_hit: false,
        }
    }

    fn lookup_or_insert(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        let key = InstanceKey::of(nfa, length);
        // A miss clones only the `Arc` — the automaton itself is never
        // deep-copied on the request path.
        self.resolve_with(key, || {
            Arc::new(PreparedInstance::from_arc(nfa.clone(), length))
        })
    }

    /// One resolution of a handle, returning its `cache_hit`: an LRU touch
    /// when the entry survives, a re-insert of the pinned instance
    /// (reported as a miss, but with zero recompilation) when it was
    /// evicted.
    fn touch(&self, handle: &InstanceHandle) -> bool {
        self.resolve_with(handle.key, || handle.inst.clone())
            .cache_hit
    }

    fn evict_locked(&self, inner: &mut CacheInner) {
        while inner.total_bytes > self.config.cache_bytes && inner.entries.len() > 1 {
            let newest = inner
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="max over unique monotonic last_used ticks; order-independent"
                .values()
                .map(|e| e.last_used)
                .max()
                .expect("nonempty");
            let Some((&victim, _)) = inner
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="victim choice keyed on (unique monotonic tick, instance key); min is order-independent"
                .iter()
                .filter(|(_, e)| e.last_used != newest)
                .min_by_key(|(&k, e)| (e.last_used, k))
            else {
                break;
            };
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.total_bytes -= entry.bytes;
            inner.evictions += 1;
        }
    }

    /// Engine-owned seed for an instance's cached FPRAS sketch: a pure
    /// function of the configuration and the fingerprint.
    fn sketch_seed(&self, inst: &PreparedInstance) -> u64 {
        self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ inst.fingerprint()
    }

    /// The bytes the resident instances measure right now — what
    /// `stats().bytes` must equal once every query has settled.
    #[cfg(test)]
    pub(crate) fn measured_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("engine cache poisoned");
        inner.entries.values().map(|e| e.inst.approx_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpras::FprasParams;
    use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa};
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;

    fn blowup(k: usize) -> Arc<Nfa> {
        Arc::new(blowup_nfa(k))
    }

    #[test]
    fn warm_requests_hit_the_cache() {
        let engine = Engine::with_defaults();
        let handle = engine.prepare_nfa(&blowup(4), 10);
        assert!(!handle.was_cached());
        let (a, hit) = engine.count_exact_on(&handle).unwrap();
        assert!(hit);
        let (b, hit) = engine.count_exact_on(&handle).unwrap();
        assert!(hit);
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        // A cap small enough that two warmed instances cannot coexist.
        let config = EngineConfig {
            cache_bytes: 1, // everything over budget: keep only the newest
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let (a, b) = ((blowup(4), 10), (blowup(5), 12));
        engine.count_exact(&a).unwrap();
        engine.count_exact(&b).unwrap(); // evicts a
        assert_eq!(engine.stats().entries, 1);
        assert!(engine.stats().evictions >= 1);
        let again = engine.prepare(&a); // must be a fresh miss
        assert!(!again.was_cached(), "evicted instance cannot hit");
        // A generous cap keeps both.
        let engine = Engine::with_defaults();
        engine.count_exact(&a).unwrap();
        engine.count_exact(&b).unwrap();
        assert_eq!(engine.stats().entries, 2);
        assert!(engine.prepare(&a).was_cached());
        assert_eq!(engine.stats().evictions, 0);
    }

    #[test]
    fn byte_accounting_tracks_materialized_tables() {
        let engine = Engine::with_defaults();
        let handle = engine.prepare_nfa(&blowup(6), 20); // lazy insert
        let before = engine.stats().bytes;
        engine.count_exact_on(&handle).unwrap(); // materializes the DAG + completion table
        assert!(
            engine.stats().bytes > before,
            "the settle after the query must record the grown tables"
        );
        // The typed entry settles too, without an extra resolution.
        let engine = Engine::with_defaults();
        let before = engine.stats().bytes;
        engine.count_exact(&(blowup(6), 20usize)).unwrap();
        assert!(engine.stats().bytes > before);
        assert_eq!(engine.stats().hits + engine.stats().misses, 1);
        assert_eq!(engine.stats().bytes, engine.measured_bytes());
    }

    #[test]
    fn directly_held_arcs_are_accounted_on_next_touch() {
        // Tables materialized through an Arc from Engine::prepared (the
        // app-crate usage path) bypass the query entries' settle; the next
        // cache touch must pick the growth up.
        let engine = Engine::with_defaults();
        let nfa = blowup(6);
        let inst = engine.prepared(&nfa, 20);
        let before = engine.stats().bytes;
        let _ = inst.count_exact().unwrap();
        let _ = engine.prepared(&nfa, 20);
        assert!(
            engine.stats().bytes > before,
            "hit-path re-measure must record tables built through the Arc"
        );
    }

    #[test]
    fn retained_sample_memo_is_charged_to_the_instance() {
        // The FPRAS route (probe off): samples walk the cached sketch, and
        // the weight memo they leave behind lives as long as the instance.
        let fpras_route = |cache_bytes| {
            let mut fpras = FprasParams::quick();
            fpras.k = 16;
            EngineConfig {
                cache_bytes,
                router: RouterConfig {
                    determinization_cap: 0,
                    fpras,
                    classify_ambiguity: false,
                },
                ..EngineConfig::default()
            }
        };
        let gap = Arc::new(ambiguity_gap_nfa(4));
        let engine = Engine::new(fpras_route(EngineConfig::default().cache_bytes));
        let handle = engine.prepare_nfa(&gap, 10);
        engine.count_on(&handle).unwrap(); // builds the sketch
        let (inst_before, engine_before) = (handle.instance().approx_bytes(), engine.stats().bytes);
        for seed in 0..4 {
            assert!(engine.sample_on(&handle, seed, 8).is_ok());
        }
        assert!(handle.instance().approx_bytes() > inst_before);
        assert!(engine.stats().bytes > engine_before);

        // Over a one-byte cap the next prepare still evicts the instance,
        // and its memo leaves the byte total with it.
        let engine = Engine::new(fpras_route(1));
        let handle = engine.prepare_nfa(&gap, 10);
        assert!(engine.sample_on(&handle, 1, 8).is_ok());
        let sketch = handle.instance().sketch_snapshot().expect("sketch built").1;
        assert!(
            sketch.retained_memo_bytes() > 0,
            "the sample retained a memo"
        );
        let other = engine.prepare_nfa(&blowup(4), 10);
        let stats = engine.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert_eq!(stats.bytes, other.instance().approx_bytes());
    }

    #[test]
    fn duplicate_instances_count_as_hits() {
        // Flags and stats follow resolution order: `k` resolutions of one
        // instance are 1 miss + (k − 1) hits.
        let engine = Engine::with_defaults();
        let hits: Vec<bool> = [4, 5, 4, 4, 5]
            .into_iter()
            .map(|k| engine.prepare_nfa(&blowup(k), 10).was_cached())
            .collect();
        assert_eq!(hits, vec![false, false, true, true, true]);
        let stats = engine.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (3, 2, 2),
            "k duplicates = 1 miss + (k-1) hits, per instance"
        );
    }

    #[test]
    fn handle_requests_skip_resolution_and_report_hits() {
        let engine = Engine::with_defaults();
        let nfa = blowup(4);
        let handle = engine.prepare_nfa(&nfa, 10);
        assert!(!handle.was_cached(), "first prepare is the miss");
        assert!(engine.prepare_nfa(&nfa, 10).was_cached());
        assert!(
            engine.count_exact_on(&handle).unwrap().1 && engine.sample_on(&handle, 0, 4).unwrap().1,
            "handle entries are hits while the entry is cached"
        );
        // Every resolution points at the very Arc the handle pins.
        assert!(Arc::ptr_eq(handle.instance(), &engine.prepared(&nfa, 10)));
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (4, 1));
    }

    #[test]
    fn evicted_handles_reinsert_without_recompiling() {
        let config = EngineConfig {
            cache_bytes: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let a = blowup(4);
        let handle = engine.prepare_nfa(&a, 10);
        engine.count_exact(&(blowup(5), 12usize)).unwrap(); // evicts a's entry
        let (_, cache_hit) = engine.count_exact_on(&handle).unwrap();
        assert!(!cache_hit, "an evicted handle reports a miss on re-insert");
        // ...but the served instance is still the pinned artifact, not a
        // recompilation.
        assert!(Arc::ptr_eq(handle.instance(), &engine.prepared(&a, 10)));
    }

    #[test]
    fn all_three_problems_serve_from_one_instance() {
        let ab = Alphabet::binary();
        let nfa = Arc::new(Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile());
        let engine = Engine::with_defaults();
        let handle = engine.prepare_nfa(&nfa, 7);
        let (count, _) = engine.count_on(&handle).unwrap();
        let words: Vec<Word> = engine.cursor(&handle).collect();
        let (samples, _) = engine.sample_on(&handle, 2, 5).unwrap();
        // One instance resolved three times.
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(engine.stats().hits, 2);
        if let Some(exact) = &count.exact {
            assert_eq!(words.len() as u64, exact.to_u64().unwrap());
        }
        for w in samples {
            assert!(nfa.accepts(&w));
        }
    }

    #[test]
    fn exact_count_on_ambiguous_reports_error() {
        let engine = Engine::with_defaults();
        let handle = engine.prepare_nfa(&Arc::new(ambiguity_gap_nfa(3)), 8);
        assert_eq!(
            engine.count_exact_on(&handle).unwrap_err(),
            QueryError::NotUnambiguous
        );
    }

    #[test]
    fn typed_entry_points_reuse_one_domain_session() {
        // The raw identity Queryable through the generic surface: count,
        // cursor, and stream agree, and the domain index memoizes the
        // (trivial) reduction.
        let instance = (Arc::new(blowup_nfa(3)), 8usize);
        let engine = Engine::with_defaults();
        let count = engine.count_exact(&instance).unwrap().to_u64().unwrap();
        let words: Vec<Word> = engine.enumerate(&instance).collect();
        assert_eq!(words.len() as u64, count);
        let samples: Vec<Word> = engine.sample(&instance, 3).unwrap().take(4).collect();
        for w in &samples {
            assert!(instance.0.accepts(w));
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 1, "one prepared instance for all entries");
        assert_eq!(stats.domains, 1, "one memoized domain session");
    }

    #[test]
    fn domain_memo_is_entry_capped() {
        // The session memo pins reduced automata; past the cap it must evict
        // (least-recently-used first) instead of growing without bound.
        let config = EngineConfig {
            domain_entries: 2,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let a = (Arc::new(blowup_nfa(3)), 6usize);
        let b = (Arc::new(blowup_nfa(4)), 6usize);
        let c = (Arc::new(blowup_nfa(5)), 6usize);
        engine.prepare(&a);
        engine.prepare(&b);
        assert_eq!(engine.stats().domains, 2);
        engine.prepare(&a); // touch: b is now the LRU session
        engine.prepare(&c); // evicts b
        assert_eq!(engine.stats().domains, 2, "cap holds");
        // An evicted session is not an error — it just re-runs the
        // reduction and re-enters the memo.
        engine.prepare(&b);
        assert_eq!(engine.stats().domains, 2);
    }

    #[test]
    fn typed_cursor_resume_round_trips() {
        let instance = (Arc::new(blowup_nfa(3)), 8usize);
        let engine = Engine::with_defaults();
        let all: Vec<Word> = engine.enumerate(&instance).collect();
        let mut cursor = engine.enumerate(&instance);
        let first: Vec<Word> = cursor.by_ref().take(3).collect();
        let token = ResumeToken::parse(&cursor.token().encode()).unwrap();
        let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
        let stitched: Vec<Word> = first.into_iter().chain(rest).collect();
        assert_eq!(stitched, all);
    }
}
