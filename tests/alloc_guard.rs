//! Allocation guard for the warm request path.
//!
//! Queries run on `InstanceHandle`s, and a handle resolves through the cache
//! by a precomputed key, so warm queries must allocate far less than even
//! *one* copy of the automaton's transition table, however many run. (An
//! early request type carried `nfa: Nfa` by value and deep-copied the table
//! per request, even on guaranteed cache hits.) This test pins that with a
//! counting global allocator: a regression that reintroduces a per-request
//! automaton copy fails the bound by an order of magnitude. The same counter
//! bounds what an untrusted resume token can make the engine allocate: at
//! most a constant factor of the token's own length.
//!
//! The allocator counts per thread, and each guard reads only its own
//! thread's counter: the test harness runs the guards in parallel, and a
//! process-wide counter charged one guard's window with whatever its
//! sibling allocated at the same time (the 20k-state automaton below).
//! The guarded code is single-threaded (engine queries run on the calling
//! thread), so nothing it allocates escapes its counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use logspace_repro::prelude::*;
use lsc_automata::families::random_ufa;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    // `const`-initialized and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED_BYTES.try_with(|total| total.set(total.get() + bytes));
}

fn allocated_so_far() -> usize {
    ALLOCATED_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only the growth: a shrink frees, and a grow allocates the
        // delta in the worst case.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocated_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = allocated_so_far();
    let value = f();
    (allocated_so_far() - before, value)
}

#[test]
fn cursor_pages_have_a_constant_allocation_budget() {
    use lsc_automata::families::universal_nfa;

    // A constant-delay instance with far more witnesses than the page needs:
    // Σ^20 over the binary alphabet. The enumerator's whole position (decision
    // list + word buffer) lives in reused storage, so a warm page served
    // through the lending `advance()` path must allocate essentially nothing
    // per word — no per-word `Word`, and no per-word position snapshot (the
    // regression this pins: `next()` used to clone the decision list into the
    // resume position on every single word).
    const PAGE: usize = 512;
    let nfa = Arc::new(universal_nfa(Alphabet::binary()));
    let engine = Engine::with_defaults();
    let handle = engine.prepare(&(nfa, 20usize));
    let mut cursor = engine.cursor(&handle);

    // Warm-up: the first words pay for the DAG walk buffers growing to the
    // word length (one-time, allowed to allocate).
    for _ in 0..64 {
        assert!(cursor.advance().is_some());
    }

    let (page_bytes, yielded) = allocated_during(|| {
        let mut yielded = 0;
        for _ in 0..PAGE {
            if cursor.advance().is_some() {
                yielded += 1;
            }
        }
        yielded
    });
    assert_eq!(yielded, PAGE);
    assert!(
        page_bytes < PAGE * 8,
        "a warm {PAGE}-word page allocated {page_bytes} bytes — the per-word \
         position snapshot (or a per-word Word materialization) is back"
    );

    // Minting a resume token materializes the position once — the cost moved
    // from every word to every token, and a token stays cheap in absolute
    // terms (a decision list of at most word-length entries).
    let (token_bytes, token) = allocated_during(|| cursor.token());
    assert!(token.rank() >= PAGE as u64);
    assert!(
        token_bytes < 4096,
        "one resume token allocated {token_bytes} bytes"
    );
}

#[test]
fn warm_batches_never_copy_the_automaton() {
    const QUERIES: usize = 8;
    // A deliberately large automaton: the transition table alone is hundreds
    // of kilobytes, so one stray per-request copy dwarfs the bound below.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let nfa = Arc::new(random_ufa(20_000, Alphabet::binary(), 0.1, &mut rng));
    let table_bytes = nfa.num_transitions() * std::mem::size_of::<(lsc_automata::Symbol, usize)>();
    assert!(
        table_bytes > 200_000,
        "guard needs a big instance (got {table_bytes} transition-table bytes)"
    );

    let engine = Engine::with_defaults();
    let handle = engine.prepare(&(nfa.clone(), 6usize));
    // Warm everything up: the first count materializes the DAG and the
    // completion table (one-time preprocessing, allowed to allocate freely).
    assert!(engine.count_exact_on(&handle).unwrap().1);

    // The guarded region: fully warm handle-level exact counts.
    let (warm_bytes, all_hit) =
        allocated_during(|| (0..QUERIES).all(|_| engine.count_exact_on(&handle).unwrap().1));
    assert!(all_hit);
    assert!(
        warm_bytes < table_bytes,
        "{QUERIES} warm counts allocated {warm_bytes} bytes — more than one \
         transition-table copy ({table_bytes}); a per-request automaton copy is back"
    );

    // Re-resolving from the shared `Arc` (no prepared handle) must obey the
    // same bound: resolution may hash the automaton but never clone it.
    let (arc_bytes, all_hit) = allocated_during(|| {
        (0..QUERIES).all(|_| {
            let handle = engine.prepare_nfa(&nfa, 6);
            handle.was_cached() && engine.count_exact_on(&handle).unwrap().1
        })
    });
    assert!(all_hit);
    assert!(
        arc_bytes < table_bytes,
        "{QUERIES} warm Arc-resolved counts allocated {arc_bytes} bytes — a per-request copy is back"
    );
}

// ---- untrusted resume tokens ----

/// Live sessions to resume on — one per cursor route — and real tokens
/// minted along their streams, built once per test binary.
struct Live {
    engine: Engine,
    handles: Vec<InstanceHandle>,
    tokens: Vec<ResumeToken>,
}

fn live() -> &'static Live {
    use lsc_automata::families::universal_nfa;
    static LIVE: std::sync::OnceLock<Live> = std::sync::OnceLock::new();
    LIVE.get_or_init(|| {
        let ab = Alphabet::binary();
        let engine = Engine::with_defaults();
        let instances = [
            // Unambiguous: constant-delay tokens (decision lists).
            (Arc::new(universal_nfa(ab.clone())), 12),
            // Ambiguous: poly-delay tokens (last words).
            (
                Arc::new(Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile()),
                10,
            ),
            // Small enough to exhaust: a `done` token.
            (
                Arc::new(Regex::parse("(0|1)*11", &ab).unwrap().compile()),
                3,
            ),
        ];
        let mut handles = Vec::new();
        let mut tokens = Vec::new();
        for (nfa, n) in instances {
            let handle = engine.prepare_nfa(&nfa, n);
            let mut cursor = engine.cursor(&handle);
            tokens.push(cursor.token());
            for _ in 0..24 {
                cursor.advance();
                tokens.push(cursor.token());
            }
            assert!(cursor.is_done() || tokens.len() > 20);
            handles.push(handle);
        }
        assert!(tokens.iter().any(ResumeToken::is_done));
        Live {
            engine,
            handles,
            tokens,
        }
    })
}

/// Parses `text` and resumes it on every live handle: every outcome is a
/// value (a cursor or an [`InvalidTokenError`] with a reason), and the
/// whole attempt allocates at most a constant factor of the input.
fn resume_untrusted(text: &str) -> Result<usize, String> {
    let live = live();
    let (bytes, resumed) = allocated_during(|| {
        let token = match ResumeToken::parse(text) {
            Ok(token) => token,
            Err(e) => return if e.reason.is_empty() { None } else { Some(0) },
        };
        let mut resumed = 0;
        for handle in &live.handles {
            match live.engine.resume_cursor(handle, &token) {
                Ok(_) => resumed += 1,
                Err(e) if e.reason.is_empty() => return None,
                Err(_) => {}
            }
        }
        Some(resumed)
    });
    let resumed = resumed.ok_or_else(|| format!("{text:?}: an error without a reason"))?;
    let bound = 16 * text.len() + (16 << 10);
    if bytes > bound {
        return Err(format!("{text:?}: allocated {bytes} bytes (bound {bound})"));
    }
    Ok(resumed)
}

/// The characters tokens are made of, so fuzzed strings get past the
/// version prefix and into the position payloads.
const TOKEN_CHARS: &[u8] = b"enum1.0123456789abcdef:-spcd";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn untrusted_tokens_resume_or_error_within_an_input_bound(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        fuzz in proptest::collection::vec(0usize..TOKEN_CHARS.len(), 0..64),
        pick in 0usize..1 << 16,
        other in 0usize..1 << 16,
        cut in 0usize..96,
        at in 0usize..96,
    ) {
        let tokens = &live().tokens;
        let real = tokens[pick % tokens.len()].encode();
        let donor = tokens[other % tokens.len()].encode();
        let fuzz: String = fuzz.iter().map(|&i| TOKEN_CHARS[i] as char).collect();
        // `enum1.<fingerprint>`: fuzz the rank and position behind a real binding.
        let head = &real[..real.find('.').map_or(0, |p| p + 17).min(real.len())];
        let inputs = [
            String::from_utf8_lossy(&bytes).into_owned(),
            fuzz.clone(),
            format!("{head}.{fuzz}"),
            real[..cut.min(real.len())].to_string(),
            format!("{}{}", &real[..cut.min(real.len())], &donor[at.min(donor.len())..]),
        ];
        for text in &inputs {
            resume_untrusted(text).map_err(TestCaseError::Fail)?;
        }
        // A real token round-trips the wire and resumes on its own session.
        let token = ResumeToken::parse(&real).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(&token, &tokens[pick % tokens.len()]);
        prop_assert_eq!(token.encode(), real.clone());
        prop_assert!(resume_untrusted(&real).map_err(TestCaseError::Fail)? >= 1);
    }
}

#[test]
fn a_million_pair_decision_list_is_rejected_without_copying_it() {
    // A constant-delay token bound to the live unambiguous session but
    // claiming a 10^6-pair decision list, where a length-12 path holds at
    // most 12: parsing is linear in the text, and the resume rejects the
    // list before copying it.
    let live = live();
    let handle = &live.handles[0];
    let mut text = format!("enum1.{:016x}.5.c", handle.fingerprint());
    text.push_str(&vec!["0:0"; 1_000_000].join("-"));
    let (parse_bytes, token) = allocated_during(|| ResumeToken::parse(&text));
    let token = token.expect("well-formed, just oversized");
    assert!(
        parse_bytes <= 8 * text.len(),
        "parse allocated {parse_bytes} bytes for {} input bytes",
        text.len()
    );
    let (resume_bytes, resumed) = allocated_during(|| live.engine.resume_cursor(handle, &token));
    let err = resumed
        .err()
        .expect("no length-12 path has 10^6 branchings");
    assert!(!err.reason.is_empty());
    assert!(
        resume_bytes < 4096,
        "resume allocated {resume_bytes} bytes rejecting an oversized list"
    );
    assert!(resume_untrusted(&text).is_ok());
}
