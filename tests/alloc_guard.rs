//! Allocation guard for the warm request path.
//!
//! Before the handle rework, `QueryRequest` carried `nfa: Nfa` by value, so a
//! batch caller deep-copied the automaton's transition table per request —
//! even on guaranteed cache hits. The reworked request path carries
//! `Arc<Nfa>`s or `InstanceHandle`s, so a warm batch must allocate far less
//! than even *one* copy of the transition table, regardless of batch size.
//! This test pins that with a counting global allocator: a regression that
//! reintroduces a per-request automaton copy fails the bound by an order of
//! magnitude.
//!
//! The allocator counts per thread, and each guard reads only its own
//! thread's counter: the test harness runs the guards in parallel, and a
//! process-wide counter charged one guard's window with whatever its
//! sibling allocated at the same time (the 20k-state automaton below).
//! The guarded code is single-threaded (`Engine::with_defaults` runs
//! batches on one thread), so nothing it allocates escapes its counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use logspace_repro::prelude::*;
use lsc_automata::families::random_ufa;
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
    let requests: Vec<QueryRequest> = (0..QUERIES)
        .map(|i| QueryRequest::on(&handle, QueryKind::CountExact, i as u64))
        .collect();
    // Warm everything up: the first batch materializes the DAG and the
    // completion table (one-time preprocessing, allowed to allocate freely).
    let warmup = engine.query_batch(&requests);
    assert!(warmup.iter().all(|r| r.output.is_ok() && r.cache_hit));

    // The guarded region: a fully warm handle-based batch.
    let (warm_bytes, responses) = allocated_during(|| engine.query_batch(&requests));
    assert!(responses.iter().all(|r| r.output.is_ok() && r.cache_hit));
    assert!(
        warm_bytes < table_bytes,
        "warm batch of {QUERIES} allocated {warm_bytes} bytes — more than one \
         transition-table copy ({table_bytes}); a per-request automaton copy is back"
    );

    // Arc-carrying requests (no prepared handle) must obey the same bound:
    // resolution may hash the automaton but never clone it.
    let arc_requests: Vec<QueryRequest> = (0..QUERIES)
        .map(|i| QueryRequest::automaton(nfa.clone(), 6, QueryKind::CountExact, i as u64))
        .collect();
    let (arc_bytes, responses) = allocated_during(|| engine.query_batch(&arc_requests));
    assert!(responses.iter().all(|r| r.output.is_ok() && r.cache_hit));
    assert!(
        arc_bytes < table_bytes,
        "warm Arc-based batch allocated {arc_bytes} bytes — a per-request copy is back"
    );

    // And building the requests themselves is allocation-trivial compared to
    // the old clone-per-request scheme.
    let (build_bytes, built) = allocated_during(|| {
        (0..QUERIES)
            .map(|i| QueryRequest::on(&handle, QueryKind::CountExact, i as u64))
            .collect::<Vec<_>>()
    });
    assert_eq!(built.len(), QUERIES);
    assert!(
        build_bytes < table_bytes / 4,
        "request construction allocated {build_bytes} bytes"
    );
}
