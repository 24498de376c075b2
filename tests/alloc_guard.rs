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
//! thread), so nothing it allocates escapes its counter. Untrusted request
//! lines get the same treatment: `parse_request` answers a request or a
//! typed `bad-request`, within a constant factor of the line's length.
//! Witness replies are pinned by allocation *calls*, which the allocator
//! counts beside bytes: a warm page makes as many for 1000 words as for
//! 100, and a warm sample one per draw plus a constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use logspace_repro::prelude::*;
use lsc_automata::families::random_ufa;
use lsc_core::serve::{ServeConfig, Server};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    // `const`-initialized and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
    static ALLOCATION_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Charges one `alloc` or `realloc` call that may take `bytes` new bytes.
fn count(bytes: usize) {
    let _ = ALLOCATED_BYTES.try_with(|total| total.set(total.get() + bytes));
    let _ = ALLOCATION_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn allocated_so_far() -> usize {
    ALLOCATED_BYTES.with(Cell::get)
}

fn calls_so_far() -> usize {
    ALLOCATION_CALLS.with(Cell::get)
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

/// How many `alloc`/`realloc` calls `f` makes on this thread.
fn allocation_calls_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = calls_so_far();
    let value = f();
    (calls_so_far() - before, value)
}

// ---- witness replies ----

/// A server, a connection and a session on `(0|1)*` at `length` (one word
/// per binary string), with the reply path warmed: one page and one
/// sample of each size the caller measures have run.
fn witness_session(length: usize) -> (Server, u64, String) {
    let server = Server::new(ServeConfig::default()).unwrap();
    let conn = server.open_conn();
    let prepared = server.handle_line(
        conn,
        &format!(r#"{{"op":"prepare","regex":"(0|1)*","length":{length}}}"#),
    );
    let tag = r#""session":""#;
    let start = prepared.text.find(tag).expect("prepared") + tag.len();
    let end = start + prepared.text[start..].find('"').unwrap();
    let session = prepared.text[start..end].to_string();
    for size in [100, 1000] {
        reply_calls(&server, conn, &page_line(&session, size));
        reply_calls(&server, conn, &sample_line(&session, size));
    }
    (server, conn, session)
}

fn page_line(session: &str, size: usize) -> String {
    format!(r#"{{"op":"enumerate","session":"{session}","page_size":{size}}}"#)
}

fn sample_line(session: &str, count: usize) -> String {
    format!(r#"{{"op":"sample","session":"{session}","count":{count},"seed":5}}"#)
}

/// Allocation calls of one warm `line` through `Server::handle_line`,
/// with the reply's length.
fn reply_calls(server: &Server, conn: u64, line: &str) -> (usize, usize) {
    let (calls, reply) = allocation_calls_during(|| server.handle_line(conn, line));
    assert!(reply.text.contains("\"ok\":true"), "{}", reply.text);
    (calls, reply.text.len())
}

/// The allocation calls a warm reply may make besides one per drawn word:
/// the request's parse, the reply's members and its buffer, a page's token.
const REPLY_CALLS: usize = 64;

#[test]
fn witness_replies_make_no_allocation_per_word() {
    // Pages and samples are written straight into the reply line from the
    // words the cursor lends and the sampler draws. A reply that built a
    // `String` per symbol or a JSON value per word made 23 calls per word
    // at length 20 and 44 at length 40.
    let mut pages = Vec::new();
    for length in [20, 40] {
        let (server, conn, session) = witness_session(length);
        for size in [100, 1000] {
            let (calls, bytes) = reply_calls(&server, conn, &page_line(&session, size));
            assert!(bytes > size * length, "a full page of {size} words");
            pages.push((length, size, calls));
        }
        // The one call per draw is the drawn `Word` the sampler returns.
        for count in [100, 1000] {
            let (calls, bytes) = reply_calls(&server, conn, &sample_line(&session, count));
            assert!(bytes > count * length, "{count} draws");
            assert!(
                calls <= count + REPLY_CALLS,
                "a warm {count}-draw sample at length {length} made {calls} allocation calls"
            );
        }
        server.shutdown();
    }
    // The same calls for 100 and 1000 words, at either length: what a
    // page allocates is its reply buffer, its token and the request.
    let (_, _, first) = pages[0];
    assert!(
        first < REPLY_CALLS,
        "a warm page made {first} allocation calls"
    );
    assert!(
        pages.iter().all(|&(_, _, calls)| calls == first),
        "allocation calls per (length, page size, calls): {pages:?}"
    );
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

// ---- untrusted request lines ----

/// One valid line per verb (both `prepare` spec forms).
const REQUEST_LINES: [&str; 11] = [
    r#"{"op":"hello","proto":1,"id":7}"#,
    r#"{"op":"prepare","regex":"(0|1)*11","alphabet":"01","length":6,"id":"a"}"#,
    r#"{"op":"prepare","nfa_text":"alphabet: 01\nstates: 1\n","length":3}"#,
    r#"{"op":"count","session":"s1"}"#,
    r#"{"op":"count_exact","session":"s1","proto":1}"#,
    r#"{"op":"enumerate","session":"s1","page_size":5,"resume":"enum1.00000000deadbeef.7.p1-0-1"}"#,
    r#"{"op":"sample","session":"s1","count":3,"seed":9}"#,
    r#"{"op":"close","session":"s1"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"health","id":[1,{"k":null}]}"#,
    r#"{"op":"bye"}"#,
];

/// The numeric fields a request may carry.
const NUMERIC_FIELDS: [&str; 6] = ["proto", "id", "length", "page_size", "count", "seed"];

/// Out-of-range or mistyped replacements for a numeric field.
const BAD_NUMBERS: [&str; 4] = ["-1", "1e300", "18446744073709551616", r#""7""#];

/// `line` with the numeric value of `field` replaced by `value`, if the
/// line carries that field as a number.
fn with_number(line: &str, field: &str, value: &str) -> Option<String> {
    let key = format!("\"{field}\":");
    let start = line.find(&key)? + key.len();
    let len = line[start..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(line.len() - start);
    (len > 0).then(|| format!("{}{value}{}", &line[..start], &line[start + len..]))
}

/// A `hello` carrying a field nested `depth` arrays deep.
fn nested_hello(depth: usize) -> String {
    format!(
        r#"{{"op":"hello","x":{}0{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    )
}

/// Parses an untrusted request line: the outcome is a request or a
/// `bad-request` with a message, and parsing allocates at most a constant
/// factor of the line. Returns whether it parsed.
fn parse_untrusted(line: &str) -> Result<bool, String> {
    use lsc_core::serve::protocol::parse_request;
    use lsc_core::serve::ErrorCode;

    let (bytes, outcome) = allocated_during(|| {
        parse_request(line)
            .map(|_| ())
            .map_err(|e| (e.code, e.message))
    });
    let bound = 16 * line.len() + (16 << 10);
    if bytes > bound {
        return Err(format!("{line:?}: allocated {bytes} bytes (bound {bound})"));
    }
    match outcome {
        Ok(()) => Ok(true),
        Err((ErrorCode::BadRequest, message)) if !message.is_empty() => Ok(false),
        Err((code, message)) => Err(format!("{line:?}: {code:?} {message:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn untrusted_request_lines_parse_or_are_bad_requests_within_an_input_bound(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        pick in 0usize..1 << 16,
        at in 0usize..1 << 16,
        flip in 1usize..256,
        number in 0usize..BAD_NUMBERS.len(),
        extra in 0usize..8,
    ) {
        use lsc_core::serve::json::MAX_DEPTH;

        let fail = TestCaseError::Fail;
        let line = REQUEST_LINES[pick % REQUEST_LINES.len()];
        prop_assert!(parse_untrusted(line).map_err(fail)?, "{} must parse", line);
        parse_untrusted(&String::from_utf8_lossy(&bytes)).map_err(fail)?;
        // Truncated at each byte (each char boundary: lines are `&str`).
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            parse_untrusted(&line[..cut]).map_err(fail)?;
        }
        // One byte flipped.
        let mut flipped = line.as_bytes().to_vec();
        flipped[at % line.len()] ^= flip as u8;
        parse_untrusted(&String::from_utf8_lossy(&flipped)).map_err(fail)?;
        // Each numeric field out of range or mistyped.
        for field in NUMERIC_FIELDS {
            if let Some(mutated) = with_number(line, field, BAD_NUMBERS[number]) {
                parse_untrusted(&mutated).map_err(fail)?;
            }
        }
        // Nesting around the bound (the object adds one level), and far
        // past it: refused without recursing off the stack.
        let depth = MAX_DEPTH - 4 + extra;
        prop_assert_eq!(
            parse_untrusted(&nested_hello(depth)).map_err(fail)?,
            depth < MAX_DEPTH
        );
        prop_assert!(!parse_untrusted(&nested_hello(20_000 + extra)).map_err(fail)?);
        prop_assert!(!parse_untrusted(&"[".repeat(20_000 + extra)).map_err(fail)?);
    }
}

#[test]
fn megabyte_request_lines_allocate_within_the_input_bound() {
    // An unread member (1 MiB) and a line that is not an object (768 KiB).
    // A parse that built them spent 32 bytes per element, and the element
    // counts sit just past a power of two, where the `Vec` doubling
    // overshoots most: 32x and 21x the line.
    let hello = format!(r#"{{"op":"hello","x":[{}1]}}"#, "1,".repeat(1 << 19));
    let arrays = format!("[{}[]]", "[],".repeat(1 << 18));
    for (line, parses) in [(hello, true), (arrays, false)] {
        // The error quotes the line; keep only its verdict.
        let outcome = parse_untrusted(&line)
            .map_err(|e| e.rsplit_once(": ").map(|(_, verdict)| verdict.to_string()));
        assert_eq!(outcome, Ok(parses));
    }
}

// ---- untrusted snapshots ----

/// FNV-1a(64), the snapshot payload checksum (docs/ARCHITECTURE.md §5.1).
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The count field that claims to be as large as the whole payload.
#[derive(Clone, Copy, Debug)]
enum Claim {
    CompletionEntries,
    SketchVertices,
    VertexSamples,
}

/// A version-2 snapshot file (docs/ARCHITECTURE.md §5) of a 2-state
/// automaton at length 4 whose `claim` count equals the payload length `P`
/// and which ends right after it, so nothing backs the claim. A 4 KiB
/// comment in the automaton text keeps the decoder's fixed costs small
/// beside `P`. Returns the file and `P`.
fn claiming_snapshot(claim: Claim) -> (Vec<u8>, usize) {
    let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let ab = Alphabet::binary();
    let nfa = Regex::parse("(0|1)*1", &ab).unwrap().compile();
    let text = format!(
        "# {}\n{}",
        "x".repeat(4096),
        lsc_automata::io::to_text(&nfa)
    );
    let (mantissa, exponent) = lsc_arith::BigFloat::from_u64(1).to_raw_parts();
    let mut payload = Vec::new();
    put(&mut payload, 4);
    put(&mut payload, text.len() as u64);
    payload.extend_from_slice(text.as_bytes());
    if let Claim::CompletionEntries = claim {
        payload.push(1 << 3); // completion table present
    } else {
        payload.push(1 << 5); // sketch present
        put(&mut payload, 7); // seed
        put(&mut payload, 4); // k
        put(&mut payload, 300); // attempts
        put(&mut payload, (-2.0f64).exp().to_bits());
        payload.push(0b101); // param flags
        put(&mut payload, 1); // threads
        put(&mut payload, mantissa);
        put(&mut payload, exponent as u64);
        if let Claim::VertexSamples = claim {
            put(&mut payload, 1); // one vertex...
            payload.extend_from_slice(&[1, 0]); // ...present, sampled
            put(&mut payload, mantissa);
            put(&mut payload, exponent as u64);
        }
    }
    put(&mut payload, 0); // the claim, patched to P below
    let p = payload.len();
    payload[p - 8..].copy_from_slice(&(p as u64).to_le_bytes());
    let mut file = b"LSCSNAP1".to_vec();
    file.extend_from_slice(&2u32.to_le_bytes());
    put(&mut file, 0); // fingerprint: checked only after the payload parses
    put(&mut file, p as u64);
    put(&mut file, fnv64(&payload));
    file.extend_from_slice(&payload);
    (file, p)
}

#[test]
fn snapshot_counts_claiming_the_whole_payload_reserve_within_its_length() {
    use lsc_core::engine::{SnapshotError, SnapshotStore};

    let dir = std::env::temp_dir().join(format!("lsc-alloc-snap-{}", std::process::id()));
    let store = SnapshotStore::open(&dir).unwrap();
    for claim in [
        Claim::CompletionEntries,
        Claim::SketchVertices,
        Claim::VertexSamples,
    ] {
        let (file, p) = claiming_snapshot(claim);
        let (bytes, imported) = allocated_during(|| store.import_bytes(&file));
        assert!(
            matches!(imported, Err(SnapshotError::Corrupt(_))),
            "{claim:?}: {imported:?}"
        );
        assert!(
            bytes <= 8 * p,
            "{claim:?}: decoding a {p}-byte payload allocated {bytes} bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A well-formed version-2 snapshot file of `(0|1)*1` at length 2^40, with
/// a matching fingerprint and no artifact sections: only the length is out
/// of reach. Rebuilding its DAG would reserve a state set per layer, so the
/// decoder must refuse it at the admission bound, before building anything.
#[test]
fn a_snapshot_claiming_a_huge_length_is_refused_before_anything_is_built() {
    use lsc_core::engine::{SnapshotError, SnapshotStore};
    use lsc_core::PreparedInstance;

    let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let ab = Alphabet::binary();
    let text = lsc_automata::io::to_text(&Regex::parse("(0|1)*1", &ab).unwrap().compile());
    let nfa = lsc_automata::io::from_text(&text).unwrap();
    let length = 1u64 << 40;
    let mut payload = Vec::new();
    put(&mut payload, length);
    put(&mut payload, text.len() as u64);
    payload.extend_from_slice(text.as_bytes());
    payload.push(0); // no artifact sections
    let mut file = b"LSCSNAP1".to_vec();
    file.extend_from_slice(&2u32.to_le_bytes());
    put(
        &mut file,
        PreparedInstance::instance_fingerprint(&nfa, length as usize),
    );
    put(&mut file, payload.len() as u64);
    put(&mut file, fnv64(&payload));
    file.extend_from_slice(&payload);

    let dir = std::env::temp_dir().join(format!("lsc-alloc-huge-{}", std::process::id()));
    let store = SnapshotStore::open(&dir).unwrap();
    let (bytes, imported) = allocated_during(|| store.import_bytes(&file));
    assert!(
        matches!(imported, Err(SnapshotError::Corrupt(_))),
        "{imported:?}"
    );
    assert!(
        bytes <= 64 << 10,
        "refusing a {}-byte file allocated {bytes} bytes",
        file.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
