//! Deterministic concurrency stress suite for the sharded engine.
//!
//! The contract under test: a [`ShardedEngine`] is a *transparent* drop-in
//! for a single [`Engine`] under arbitrary concurrent mixed traffic. The
//! harness builds a seeded op log — mixed `COUNT` / `COUNT-exact` / paged
//! `ENUM` (cursor tokens handed across threads) / `GEN` over a small
//! instance zoo, under a byte cap tiny enough to force constant evictions —
//! then executes it two ways:
//!
//! * **serial replay** — the ops in log order, one at a time, on a plain
//!   single `Engine` with the same configuration (the pre-sharding path);
//! * **concurrent** — the same ops dealt round-robin onto M threads
//!   hammering one shared `ShardedEngine`, at M ∈ {1, 2, 4, 8}.
//!
//! Every op's output must be bit-identical between the two executions.
//!
//! **How cursor paging stays deterministic across threads.** Page `k` of an
//! instance's enumeration consumes the token page `k − 1` published, so a
//! page's *content* is a pure function of its position in the per-instance
//! page sequence — but only if pages execute in sequence order. The op log
//! fixes that order at generation time (pages are numbered in log order),
//! and the harness enforces it with a per-instance sequence latch: a thread
//! reaching page `k` blocks until page `k − 1`'s token is published. Waits
//! only ever point at ops *earlier* in the log, and every thread works
//! through its deal in log order, so the globally earliest unexecuted op is
//! never blocked — no deadlock, any thread count, any interleaving of the
//! non-enumerate ops in between.
//!
//! Sizing knobs (all optional, for CI smoke runs — see `scripts/ci.sh`):
//! `LSC_STRESS_OPS` (log length, default 160), `LSC_STRESS_THREADS`
//! (comma-separated thread counts, default `1,2,4,8`), `LSC_STRESS_SHARDS`
//! (shard count, default 4).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use lsc_arith::BigNat;
use lsc_automata::families::{
    ambiguity_gap_nfa, blowup_nfa, random_nfa, random_ufa, universal_nfa,
};
use lsc_automata::regex::Regex;
use lsc_automata::{format_word, Alphabet, Nfa, Word};
use lsc_core::engine::{
    Engine, EngineConfig, InstanceHandle, QueryError, ResumeToken, RoutedCount, RouterConfig,
    ShardedConfig, ShardedEngine, WordCursor,
};
use lsc_core::fpras::FprasParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- configuration ----

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn thread_counts() -> Vec<usize> {
    match std::env::var("LSC_STRESS_THREADS") {
        Ok(list) => list
            .split(',')
            .filter_map(|v| v.trim().parse().ok())
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// The engine configuration both executions share: FPRAS forced where
/// determinization would win (exercising the randomized route), quick
/// sketch parameters, a fixed engine seed, and a byte cap far below one
/// instance's footprint — every resolution of a non-MRU instance evicts,
/// so the log constantly recompiles, re-sketches, and re-serves.
fn stress_engine_config() -> EngineConfig {
    EngineConfig {
        router: RouterConfig {
            determinization_cap: 0,
            fpras: FprasParams::quick(),
            ..RouterConfig::default()
        },
        cache_bytes: 1, // force evictions: only the MRU entry survives
        seed: 0x57E5_5BEEF,
        ..EngineConfig::default()
    }
}

/// The instance zoo: unambiguous chains, ambiguous overlap languages, the
/// universal automaton, and seeded random NFAs/UFAs — every routing class
/// the engine distinguishes.
fn instances() -> Vec<(Arc<Nfa>, usize)> {
    let ab = Alphabet::binary();
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    vec![
        (Arc::new(blowup_nfa(3)), 8),
        (Arc::new(ambiguity_gap_nfa(3)), 7),
        (Arc::new(universal_nfa(ab.clone())), 5),
        (
            Arc::new(Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile()),
            7,
        ),
        (Arc::new(random_nfa(6, ab.clone(), 0.3, 0.4, &mut rng)), 6),
        (Arc::new(random_ufa(5, ab.clone(), 0.3, &mut rng)), 7),
        (Arc::new(blowup_nfa(4)), 10),
        (
            Arc::new(Regex::parse("0*1(0|1)*0", &ab).unwrap().compile()),
            8,
        ),
    ]
}

// ---- the op log ----

#[derive(Clone, Copy, Debug)]
enum OpKind {
    Count,
    CountExact,
    /// Page `seq` of this instance's enumeration, `page` witnesses long.
    EnumeratePage {
        page: usize,
        seq: usize,
    },
    Sample {
        count: usize,
        seed: u64,
    },
}

#[derive(Clone, Copy, Debug)]
struct Op {
    slot: usize,
    instance: usize,
    kind: OpKind,
}

/// Generates the seeded op log. Enumerate ops carry their per-instance
/// page sequence number (assigned in log order — the order both executions
/// must realize).
fn op_log(ops: usize, num_instances: usize, master_seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(master_seed);
    let mut next_page_seq = vec![0usize; num_instances];
    (0..ops)
        .map(|slot| {
            let instance = rng.gen_range(0..num_instances);
            let kind = match rng.gen_range(0..6u32) {
                0 => OpKind::Count,
                1 => OpKind::CountExact,
                2 | 3 => {
                    let seq = next_page_seq[instance];
                    next_page_seq[instance] += 1;
                    OpKind::EnumeratePage {
                        page: 1 + rng.gen_range(0..5usize),
                        seq,
                    }
                }
                4 => OpKind::Sample {
                    count: 1 + rng.gen_range(0..4usize),
                    seed: (slot as u64).wrapping_mul(7919).wrapping_add(17),
                },
                _ => OpKind::Count,
            };
            Op {
                slot,
                instance,
                kind,
            }
        })
        .collect()
}

// ---- execution ----

/// The engine surface the harness drives — implemented by both the single
/// engine (serial reference) and the sharded engine (system under test),
/// so one executor serves both executions. Every op resolves its instance
/// to a session handle first, then answers on it.
trait Resolver: Sync {
    fn handle(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle;
    fn count(&self, handle: &InstanceHandle) -> Result<RoutedCount, QueryError>;
    fn count_exact(&self, handle: &InstanceHandle) -> Result<BigNat, QueryError>;
    fn sample(
        &self,
        handle: &InstanceHandle,
        seed: u64,
        count: usize,
    ) -> Result<Vec<Word>, QueryError>;
    fn page_cursor(&self, handle: &InstanceHandle, token: Option<&ResumeToken>) -> WordCursor;
}

macro_rules! resolver {
    ($engine:ty) => {
        impl Resolver for $engine {
            fn handle(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
                self.prepare_nfa(nfa, length)
            }
            fn count(&self, handle: &InstanceHandle) -> Result<RoutedCount, QueryError> {
                Ok(self.count_on(handle)?.0)
            }
            fn count_exact(&self, handle: &InstanceHandle) -> Result<BigNat, QueryError> {
                Ok(self.count_exact_on(handle)?.0)
            }
            fn sample(
                &self,
                handle: &InstanceHandle,
                seed: u64,
                count: usize,
            ) -> Result<Vec<Word>, QueryError> {
                Ok(self.sample_on(handle, seed, count)?.0)
            }
            fn page_cursor(
                &self,
                handle: &InstanceHandle,
                token: Option<&ResumeToken>,
            ) -> WordCursor {
                match token {
                    None => self.cursor(handle),
                    Some(token) => self.resume_cursor(handle, token).expect("own token"),
                }
            }
        }
    };
}

resolver!(Engine);
resolver!(ShardedEngine);

/// Per-instance enumeration chain: which page runs next, and the token the
/// previous page published. The condvar is the cross-thread sequence latch.
struct PageChain {
    state: Mutex<Vec<(usize, Option<String>)>>,
    advanced: Condvar,
}

impl PageChain {
    fn new(instances: usize) -> PageChain {
        PageChain {
            state: Mutex::new(vec![(0, None); instances]),
            advanced: Condvar::new(),
        }
    }

    /// Blocks until it is page `seq`'s turn on `instance`, returning the
    /// predecessor's token.
    fn claim(&self, instance: usize, seq: usize) -> Option<String> {
        let mut state = self.state.lock().expect("page chain poisoned");
        while state[instance].0 != seq {
            state = self.advanced.wait(state).expect("page chain poisoned");
        }
        state[instance].1.clone()
    }

    /// Publishes page `seq`'s token and wakes waiting successors.
    fn publish(&self, instance: usize, seq: usize, token: String) {
        let mut state = self.state.lock().expect("page chain poisoned");
        state[instance] = (seq + 1, Some(token));
        self.advanced.notify_all();
    }
}

fn words_line(words: &[Word], ab: &Alphabet) -> String {
    words
        .iter()
        .map(|w| format_word(w, ab))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Executes one op to a canonical output string (what the bit-identity
/// assertion compares). `cache_hit` flags are deliberately *not* recorded:
/// outputs are pure functions of the log, hit/miss flags are functions of
/// interleaving.
fn run_op<R: Resolver + ?Sized>(
    resolver: &R,
    zoo: &[(Arc<Nfa>, usize)],
    chain: &PageChain,
    op: &Op,
) -> String {
    let ab = Alphabet::binary();
    let (nfa, n) = &zoo[op.instance];
    match op.kind {
        OpKind::Count => match resolver.count(&resolver.handle(nfa, *n)) {
            Ok(routed) => format!(
                "count route={:?} exact={:?} estimate={}",
                routed.route,
                routed.exact.as_ref().map(|c| c.to_string()),
                routed.estimate
            ),
            Err(e) => format!("count err={e}"),
        },
        OpKind::CountExact => match resolver.count_exact(&resolver.handle(nfa, *n)) {
            Ok(count) => format!("exact {count}"),
            Err(e) => format!("exact err={e}"),
        },
        OpKind::EnumeratePage { page, seq } => {
            let token = chain.claim(op.instance, seq);
            let token = token.map(|t| ResumeToken::parse(&t).expect("published token parses"));
            let handle = resolver.handle(nfa, *n);
            let mut cursor = resolver.page_cursor(&handle, token.as_ref());
            let words: Vec<Word> = cursor.by_ref().take(page).collect();
            let out = format!(
                "page#{seq} rank={} done={} [{}]",
                cursor.rank(),
                cursor.is_done(),
                words_line(&words, &ab)
            );
            chain.publish(op.instance, seq, cursor.token().encode());
            out
        }
        OpKind::Sample { count, seed } => {
            match resolver.sample(&resolver.handle(nfa, *n), seed, count) {
                Ok(words) => format!("gen [{}]", words_line(&words, &ab)),
                Err(e) => format!("gen err={e}"),
            }
        }
    }
}

/// Serial replay: the ops in log order on the given resolver.
fn run_serial<R: Resolver + ?Sized>(
    resolver: &R,
    zoo: &[(Arc<Nfa>, usize)],
    log: &[Op],
) -> Vec<String> {
    let chain = PageChain::new(zoo.len());
    log.iter()
        .map(|op| run_op(resolver, zoo, &chain, op))
        .collect()
}

/// Concurrent execution: the ops dealt round-robin onto `threads` workers
/// over one shared resolver, outputs gathered back into log order.
fn run_concurrent<R: Resolver + ?Sized>(
    resolver: &R,
    zoo: &[(Arc<Nfa>, usize)],
    log: &[Op],
    threads: usize,
) -> Vec<String> {
    let chain = PageChain::new(zoo.len());
    let mut outputs: Vec<Option<String>> = vec![None; log.len()];
    // Deal slots round-robin; give each worker exclusive ownership of its
    // own output cells by splitting the vector into one-element slices.
    let mut per_thread_slots: Vec<Vec<(usize, &mut Option<String>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    let mut rest = outputs.as_mut_slice();
    let mut i = 0usize;
    while !rest.is_empty() {
        let (head, tail) = rest.split_at_mut(1);
        per_thread_slots[i % threads].push((i, &mut head[0]));
        rest = tail;
        i += 1;
    }
    std::thread::scope(|scope| {
        for slots in per_thread_slots {
            let chain = &chain;
            scope.spawn(move || {
                for (slot, out) in slots {
                    *out = Some(run_op(resolver, zoo, chain, &log[slot]));
                }
            });
        }
    });
    outputs
        .into_iter()
        .map(|o| o.expect("every slot executed"))
        .collect()
}

// ---- the suite ----

/// The headline pin: concurrent sharded execution is bit-identical to a
/// serial single-engine replay of the same op log, at every thread count.
#[test]
fn sharded_concurrent_matches_single_engine_serial_replay() {
    let ops = env_usize("LSC_STRESS_OPS", 160);
    let shards = env_usize("LSC_STRESS_SHARDS", 4);
    let zoo = instances();
    let log = op_log(ops, zoo.len(), 0x5742_E550);

    let reference = Engine::new(stress_engine_config());
    let expected = run_serial(&reference, &zoo, &log);
    assert!(
        reference.stats().evictions > 0,
        "the byte cap must actually force evictions for this suite to bite"
    );

    for threads in thread_counts() {
        let sharded = ShardedEngine::new(ShardedConfig {
            engine: stress_engine_config(),
            shards,
            ..ShardedConfig::default()
        });
        let got = run_concurrent(&sharded, &zoo, &log, threads);
        for (slot, (got, want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                got, want,
                "op {slot} ({:?}) drifted at {threads} threads / {shards} shards",
                log[slot]
            );
        }
        let stats = sharded.stats();
        assert!(
            stats.aggregate.evictions > 0,
            "evictions under sharding too"
        );
        // The no-double-residency invariant holds after the storm.
        for (nfa, n) in &zoo {
            let fp = lsc_core::PreparedInstance::instance_fingerprint(nfa, *n);
            assert!(
                sharded.resident_shards(fp).len() <= 1,
                "instance resident in two shards"
            );
        }
    }
}

/// The same log replayed serially on a *sharded* engine matches the single
/// engine too (sharding alone — no concurrency — changes nothing either).
#[test]
fn sharded_serial_matches_single_engine_serial_replay() {
    let ops = env_usize("LSC_STRESS_OPS", 160).min(96);
    let zoo = instances();
    let log = op_log(ops, zoo.len(), 0x0DD_C0DE);
    let reference = Engine::new(stress_engine_config());
    let expected = run_serial(&reference, &zoo, &log);
    for shards in [1usize, 3, 8] {
        let sharded = ShardedEngine::new(ShardedConfig {
            engine: stress_engine_config(),
            shards,
            ..ShardedConfig::default()
        });
        let got = run_serial(&sharded, &zoo, &log);
        assert_eq!(got, expected, "serial sharded drifted at {shards} shards");
    }
}

/// Warm vs cold under the stress log: replaying the log twice on one
/// sharded engine gives identical outputs both times (the second pass is
/// served warm wherever the cap allows).
#[test]
fn warm_replay_is_bit_identical_to_cold() {
    let ops = env_usize("LSC_STRESS_OPS", 160).min(64);
    let zoo = instances();
    let log = op_log(ops, zoo.len(), 0xCAFE_F00D);
    // A generous cap this time: the second pass should actually hit.
    let config = EngineConfig {
        cache_bytes: 256 << 20,
        ..stress_engine_config()
    };
    let sharded = ShardedEngine::new(ShardedConfig {
        engine: config,
        shards: 4,
        ..ShardedConfig::default()
    });
    let cold = run_serial(&sharded, &zoo, &log);
    let misses_after_cold = sharded.stats().aggregate.misses;
    let warm = run_serial(&sharded, &zoo, &log);
    assert_eq!(cold, warm, "warm pass drifted from cold");
    assert_eq!(
        sharded.stats().aggregate.misses,
        misses_after_cold,
        "second pass must be served entirely from cache"
    );
}

/// Cursor tokens minted under one topology resume exactly under another:
/// pages stitched across an `add_shard` + `remove_shard` are bit-identical
/// to an uninterrupted single-engine enumeration.
#[test]
fn pages_stitch_across_topology_changes() {
    let zoo = instances();
    let (nfa, n) = &zoo[3]; // ambiguous: the poly-delay route
    let reference = Engine::new(stress_engine_config());
    let all: Vec<Word> = reference.cursor(&reference.prepare_nfa(nfa, *n)).collect();

    let sharded = ShardedEngine::new(ShardedConfig {
        engine: stress_engine_config(),
        shards: 2,
        ..ShardedConfig::default()
    });
    let mut stitched: Vec<Word> = Vec::new();
    let mut token: Option<ResumeToken> = None;
    let mut pages = 0usize;
    loop {
        let handle = sharded.prepare_nfa(nfa, *n);
        let mut cursor = match &token {
            None => sharded.cursor(&handle),
            Some(t) => sharded.resume_cursor(&handle, t).expect("own token"),
        };
        let before = stitched.len();
        stitched.extend(cursor.by_ref().take(3));
        token =
            Some(ResumeToken::parse(&cursor.token().encode()).expect("token round-trips the wire"));
        if stitched.len() == before {
            break;
        }
        pages += 1;
        match pages % 3 {
            1 => {
                sharded.add_shard();
            }
            2 => {
                let last = *sharded
                    .stats()
                    .per_shard
                    .last()
                    .map(|(id, _)| id)
                    .expect("shards exist");
                sharded.remove_shard(last);
            }
            _ => {}
        }
    }
    assert_eq!(stitched, all, "topology changes leaked into the stream");
}

/// Deal-order sanity for the harness itself: the round-robin deal touches
/// every slot exactly once, so the comparison above is total.
#[test]
fn harness_covers_every_slot() {
    let zoo = instances();
    let log = op_log(40, zoo.len(), 7);
    let mut seen = HashMap::new();
    for op in &log {
        *seen.entry(op.slot).or_insert(0usize) += 1;
    }
    assert_eq!(seen.len(), 40);
    assert!(seen.values().all(|&c| c == 1));
    // Page sequence numbers per instance are dense and start at zero.
    let mut next = vec![0usize; zoo.len()];
    for op in &log {
        if let OpKind::EnumeratePage { seq, .. } = op.kind {
            assert_eq!(seq, next[op.instance], "page seqs must follow log order");
            next[op.instance] += 1;
        }
    }
}
