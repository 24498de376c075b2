//! `nfa-tool` — count, enumerate, and sample the fixed-length language of an
//! NFA from the command line.
//!
//! ```text
//! nfa-tool count     (--regex PAT | --file NFA.txt) --length N [--exact true|false]
//!                    [--delta D] [--cap C] [--seed S]
//! nfa-tool enumerate (--regex PAT | --file NFA.txt) --length N [--limit K]
//!                    [--page-size P] [--resume-token T]
//! nfa-tool sample    (--regex PAT | --file NFA.txt) --length N [--count K] [--seed S]
//! nfa-tool info      (--regex PAT | --file NFA.txt) [--length N]
//! nfa-tool classify  (--regex PAT | --file NFA.txt)
//! nfa-tool route     (--regex PAT | --file NFA.txt) --length N [--cap C] [--delta D]
//!                    [--seed S]
//! nfa-tool route     --backends HOST:P1,HOST:P2[,...] [--listen HOST:PORT]
//!                    [--snapshot-dirs D1,D2[,...]] [--retries R]
//! nfa-tool batch     [--file QUERIES.txt] [--shards S] [--cache-mb M] [--seed S]
//!                    [--page-size P]
//! nfa-tool serve     [--port P | --stdio true] [--workers W] [--queue N]
//!                    [--deadline-ms D] [--session-ttl-ms T] [--io-timeout-ms T]
//!                    [--snapshot-dir DIR] [--cache-mb M] [--seed S] [--shards S]
//!                    [--transport threaded|event-loop]
//! nfa-tool query     --addr HOST:PORT (--regex PAT | --file NFA.txt) --length N
//!                    [--op count|count-exact|enumerate|sample] [--page-size P]
//!                    [--limit K] [--count K] [--seed S] [--resume-token T]
//!                    [--retries R]
//! ```
//!
//! `--regex` patterns use the alphabet given by `--alphabet` (default `01`).
//! NFA files use the format of `lsc_automata::io`.
//!
//! **One query path.** Every local verb and every `batch` line compiles
//! through [`InstanceSpec::compile`], the server's spec compiler, whose
//! admission bound turns an oversized `--length` into a usage error (exit
//! 2). The instance resolves to a handle on a [`ShardedEngine`], and the
//! handle entries answer as the server's do: `count` prints the routed
//! count (`count_on`: exact where the ambiguity class or a `--cap`-bounded
//! determinization allows, the FPRAS otherwise), `count --exact true` the
//! exact one (`count_exact_on`), and `route` the routed count with its
//! route and Weber–Seidl class; `sample` draws through `sample_on`,
//! `enumerate` walks a cursor, and `info`/`classify` read the prepared
//! instance. `--seed` (default `0xC0FFEE`) is the engine seed and the draw
//! seed; `--delta D` sets the FPRAS route's accuracy to `1 ± D`.
//!
//! `route --backends` is the **cluster front-end**
//! ([`lsc_core::serve::Router`]): it listens on `--listen` (default
//! `127.0.0.1:7410`) speaking the same JSON-lines protocol as `serve`,
//! and forwards each session to its home backend by instance fingerprint
//! over a consistent-hash ring. `--snapshot-dirs` (comma-aligned with
//! `--backends`, empty slots allowed) names each backend's snapshot
//! directory so topology changes ship compiled instances instead of
//! recompiling; on backend death the router re-homes live sessions and
//! resumes their cursors from the last acknowledged token. See
//! `docs/ARCHITECTURE.md` §8.
//!
//! `enumerate` lists every witness (up to `--limit`). With `--page-size P`
//! it prints one page of `P` witnesses and a compact **resume token**;
//! feeding it back via `--resume-token` continues the enumeration exactly
//! where the previous page stopped (stitched pages are bit-identical to one
//! uninterrupted run — see `lsc_core::engine::ResumeToken`). Tokens are
//! bound to the instance: a token minted for one automaton/length is
//! rejected by any other.
//!
//! `batch` answers many queries through one engine (`--shards`, default
//! one per core) using the session flow: each query line is compiled and
//! resolved to an [`InstanceHandle`] first (repeated patterns hit the
//! instance cache instead of recompiling), then the lines are answered one
//! by one on their handles — `count`/`count-exact`/`sample` through the
//! dispatch the one-shot verbs use, `enumerate` through a cursor with
//! per-page progress (page size `--page-size`, default 100) and a printed
//! resume token per page. Line `i` (from 0) draws with seed `--seed + i`.
//! Queries are read from `--file` (or stdin), one per line:
//!
//! ```text
//! count       PATTERN LENGTH
//! count-exact PATTERN LENGTH
//! enumerate   PATTERN LENGTH [LIMIT]   (LIMIT defaults to 1000; use the
//!                                       streaming `enumerate` subcommand
//!                                       for full listings)
//! sample      PATTERN LENGTH [COUNT]
//! ```
//!
//! Blank lines and `#` comments are skipped. Each answer is tagged `hit` or
//! `miss` for its session's instance-cache outcome at prepare time, and a
//! final summary line reports the engine totals — the compile-once,
//! serve-many behavior end to end.
//!
//! `serve` runs the concurrent request server ([`lsc_core::serve`]): a
//! versioned JSON-lines wire protocol (one request object per line — see
//! `docs/ARCHITECTURE.md` §4 for the full reference) over TCP
//! (`--port`, default 7411; port 0 picks a free port and prints it) or
//! stdio (`--stdio true`). Requests execute on a bounded worker pool
//! (`--workers`, `--queue`): a full queue answers `overloaded` with a
//! retry hint, and a request queued past `--deadline-ms` answers
//! `deadline-exceeded`. With `--snapshot-dir`, compiled instances persist
//! to disk and a restarted server warms its cache from them instead of
//! recompiling. `--io-timeout-ms` bounds how long a silent or
//! non-draining peer can pin a connection thread (0 disables the
//! timeouts).
//!
//! `query` is the wire client ([`lsc_core::serve::Client`]): it prepares
//! the instance on a running server and runs one op against it,
//! transparently absorbing resets, overload pushback, torn frames, idle
//! evictions, and even a server restart — reconnecting with seeded
//! exponential backoff, re-preparing from its spec, and resuming
//! enumeration from the last received resume token. `--retries` bounds
//! the attempts per request; recovery counters print to stderr when
//! anything was absorbed.

#![forbid(unsafe_code)]

use std::io::Read;
use std::process::exit;
use std::sync::Arc;

use lsc_arith::BigNat;
use lsc_automata::ops::AmbiguityDegree;
use lsc_automata::{format_word, Alphabet, Word};
use lsc_core::engine::{
    CountRoute, EngineConfig, InstanceHandle, QueryError, ResumeToken, RoutedCount, RouterConfig,
    ShardedConfig, ShardedEngine,
};
use lsc_core::fpras::FprasParams;
use lsc_core::serve::protocol::InstanceSpec;
use lsc_core::serve::DEFAULT_PAGE_SIZE;

/// The alphabet of a `--regex` pattern without `--alphabet`.
const DEFAULT_ALPHABET: &str = "01";

struct Args {
    command: String,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Args {
        let mut argv = std::env::args().skip(1);
        let command = argv.next().unwrap_or_else(|| usage("missing command"));
        let mut options = Vec::new();
        let rest: Vec<String> = argv.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i].clone();
            if !key.starts_with("--") {
                usage(&format!("expected an option, got {key:?}"));
            }
            let value = rest
                .get(i + 1)
                .unwrap_or_else(|| usage(&format!("option {key} needs a value")))
                .clone();
            options.push((key[2..].to_string(), value));
            i += 2;
        }
        Args { command, options }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str) -> Option<usize> {
        self.get(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("--{key} expects a number")))
        })
    }

    /// A yes/no option: `true`/`1`/`yes` or `false`/`0`/`no`; any other
    /// value is a usage error.
    fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).map(|v| match v {
            "true" | "1" | "yes" => true,
            "false" | "0" | "no" => false,
            other => usage(&format!("--{key} expects true or false, got {other:?}")),
        })
    }

    /// `--seed`: the engine seed and the draw seed.
    fn seed(&self) -> u64 {
        self.get_usize("seed").unwrap_or(0xC0FFEE) as u64
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  nfa-tool count     (--regex PAT | --file NFA.txt) --length N [--exact true|false] [--delta D] [--cap C] [--seed S]\n  \
           nfa-tool enumerate (--regex PAT | --file NFA.txt) --length N [--limit K] [--page-size P] [--resume-token T]\n  \
           nfa-tool sample    (--regex PAT | --file NFA.txt) --length N [--count K] [--seed S]\n  \
           nfa-tool info      (--regex PAT | --file NFA.txt) [--length N]\n  \
           nfa-tool classify  (--regex PAT | --file NFA.txt)\n  \
           nfa-tool route     (--regex PAT | --file NFA.txt) --length N [--cap C] [--delta D] [--seed S]\n  \
           nfa-tool route     --backends HOST:P1,HOST:P2[,...] [--listen HOST:PORT] [--snapshot-dirs D1,D2[,...]] [--retries R]\n  \
           nfa-tool batch     [--file QUERIES.txt] [--shards S] [--cache-mb M] [--seed S] [--page-size P]\n  \
           nfa-tool serve     [--port P | --stdio true] [--workers W] [--queue N] [--deadline-ms D] [--session-ttl-ms T] [--io-timeout-ms T] [--snapshot-dir DIR] [--cache-mb M] [--seed S] [--shards S] [--transport threaded|event-loop]\n  \
           nfa-tool query     --addr HOST:PORT (--regex PAT | --file NFA.txt) --length N [--op count|count-exact|enumerate|sample] [--page-size P] [--limit K] [--count K] [--seed S] [--resume-token T] [--retries R]\n  \
           common: [--alphabet CHARS]  (default 01); --seed is the engine seed and the draw seed; (length + 1) x states past the admission bound is refused\n\
           batch query lines: (count|count-exact|enumerate|sample) PATTERN LENGTH [LIMIT|COUNT]"
    );
    exit(2)
}

/// The instance `--regex` (over `--alphabet`) or `--file` names.
fn instance_spec(args: &Args) -> InstanceSpec {
    match (args.get("regex"), args.get("file")) {
        (Some(pattern), None) => regex_spec(args, pattern),
        (None, Some(path)) => InstanceSpec::NfaText(
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}"))),
        ),
        _ => usage("provide exactly one of --regex or --file"),
    }
}

fn regex_spec(args: &Args, pattern: &str) -> InstanceSpec {
    InstanceSpec::Regex {
        pattern: pattern.to_string(),
        alphabet: args.get("alphabet").map(str::to_string),
    }
}

/// The engine every local verb answers through: `--shards` independent
/// caches (default one per core) sharing `--cache-mb` MiB, seeded by
/// `--seed`. Answers are bit-identical at any shard count; sharding only
/// spreads cache resolution across independent LRUs.
fn engine(args: &Args, router: RouterConfig) -> ShardedEngine {
    ShardedEngine::new(ShardedConfig {
        engine: EngineConfig {
            router,
            cache_bytes: args.get_usize("cache-mb").unwrap_or(256) << 20,
            seed: args.seed(),
            ..EngineConfig::default()
        },
        shards: args.get_usize("shards").unwrap_or(0),
    })
}

/// The routing policy of a one-shot verb at witness length `length`:
/// `--delta` sets the FPRAS route's accuracy, `--cap` the determinization
/// cap.
fn router_config(args: &Args, length: usize) -> RouterConfig {
    let mut router = RouterConfig::default();
    if let Some(text) = args.get("delta") {
        let delta: f64 = text
            .parse()
            .unwrap_or_else(|_| usage("--delta expects a float"));
        if !(delta > 0.0 && delta < 1.0) {
            usage("--delta must be in (0, 1)");
        }
        router.fpras = FprasParams::with_accuracy(length, delta);
    }
    if let Some(cap) = args.get_usize("cap") {
        router.determinization_cap = cap;
    }
    router
}

/// A verb one handle entry answers whole.
enum Ask {
    Count,
    CountExact,
    Sample { count: usize },
}

/// What [`ask`] answers.
enum Answer {
    Count(RoutedCount),
    Exact(BigNat),
    Words(Vec<Word>),
}

/// Answers `verb` on a session handle through the handle entry the
/// server's `count`, `count_exact` or `sample` calls; `seed` is the draw
/// seed.
fn ask(
    engine: &ShardedEngine,
    handle: &InstanceHandle,
    verb: &Ask,
    seed: u64,
) -> Result<Answer, QueryError> {
    Ok(match *verb {
        Ask::Count => Answer::Count(engine.count_on(handle)?.0),
        Ask::CountExact => Answer::Exact(engine.count_exact_on(handle)?.0),
        Ask::Sample { count } => Answer::Words(engine.sample_on(handle, seed, count)?.0),
    })
}

/// `=` before an exact routed count, `≈` before an estimate.
fn marker(routed: &RoutedCount) -> &'static str {
    if routed.is_exact() {
        "="
    } else {
        "≈"
    }
}

/// What a batch query line asks for.
enum Query {
    Ask(Ask),
    Enumerate { limit: usize },
}

/// One parsed batch query line.
struct BatchLine {
    spec: String,
    query: Query,
    /// The line's session; `was_cached` tags the answer `hit`/`miss`.
    handle: InstanceHandle,
    alphabet: Alphabet,
    seed: u64,
}

/// The `batch` subcommand: many queries, one engine, session handles and
/// cursors end to end.
fn run_batch(args: &Args) {
    let text = match args.get("file") {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| usage(&format!("cannot read stdin: {e}")));
            buf
        }
    };
    let seed = args.seed();
    let page_size = args
        .get_usize("page-size")
        .unwrap_or(DEFAULT_PAGE_SIZE)
        .max(1);
    let engine = engine(args, RouterConfig::default());
    // Phase 1 — the session flow: each line resolves to an instance handle
    // (compiling its pattern at most once engine-wide), so the answers
    // below run on handles, never automata.
    let mut lines: Vec<BatchLine> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad =
            |what: &str| -> ! { usage(&format!("query line {}: {what}: {line:?}", lineno + 1)) };
        let command = parts.next().unwrap_or_else(|| bad("missing command"));
        let pattern = parts.next().unwrap_or_else(|| bad("missing pattern"));
        let length: usize = parts
            .next()
            .unwrap_or_else(|| bad("missing length"))
            .parse()
            .unwrap_or_else(|_| bad("length must be a number"));
        let extra: Option<usize> = parts.next().map(|v| {
            v.parse()
                .unwrap_or_else(|_| bad("extra arg must be a number"))
        });
        let query = match command {
            "count" => Query::Ask(Ask::Count),
            "count-exact" => Query::Ask(Ask::CountExact),
            // An absent LIMIT defaults to a bounded prefix rather than
            // streaming the whole language (use the `enumerate` subcommand
            // for full listings).
            "enumerate" => Query::Enumerate {
                limit: extra.unwrap_or(1000),
            },
            "sample" => Query::Ask(Ask::Sample {
                count: extra.unwrap_or(1),
            }),
            _ => bad("unknown command"),
        };
        let (nfa, alphabet) = regex_spec(args, pattern)
            .compile(DEFAULT_ALPHABET, length)
            .unwrap_or_else(|e| bad(&e.message));
        lines.push(BatchLine {
            spec: format!("{command} {pattern} @{length}"),
            query,
            handle: engine.prepare_nfa(&Arc::new(nfa), length),
            alphabet,
            seed: seed.wrapping_add(lines.len() as u64),
        });
    }
    // Phase 2 — answer each line on its handle, in line order; enumerate
    // lines stream through a cursor with per-page progress and resume tokens.
    for (i, line) in lines.iter().enumerate() {
        let tag = if line.handle.was_cached() {
            "hit "
        } else {
            "miss"
        };
        let head = format!("[{}] {} [{tag}]", i + 1, line.spec);
        let verb = match &line.query {
            Query::Enumerate { limit } => {
                println!("{head}: streaming up to {limit} witnesses in pages of {page_size}");
                stream_pages(&engine, &line.handle, *limit, page_size, &line.alphabet);
                continue;
            }
            Query::Ask(verb) => verb,
        };
        match ask(&engine, &line.handle, verb, line.seed) {
            Ok(Answer::Count(routed)) => {
                println!("{head}: {} {}", marker(&routed), routed.estimate)
            }
            Ok(Answer::Exact(count)) => println!("{head}: = {count}"),
            Ok(Answer::Words(words)) => {
                let shown: Vec<String> = words
                    .iter()
                    .map(|w| format_word(w, &line.alphabet))
                    .collect();
                println!("{head}: {} words: {}", words.len(), shown.join(" "));
            }
            Err(e) => println!("{head}: error: {e}"),
        }
    }
    let stats = engine.stats();
    println!(
        "# cache: {} hits, {} misses, {} evictions; {} instances, ~{} KiB across {} shard(s)",
        stats.aggregate.hits,
        stats.aggregate.misses,
        stats.aggregate.evictions,
        stats.aggregate.entries,
        stats.aggregate.bytes / 1024,
        stats.per_shard.len(),
    );
}

/// One `batch` enumerate line: up to `limit` witnesses off a fresh cursor,
/// printed in pages with a resume token after every unfinished page, then
/// settled (the pages may have materialized tables).
fn stream_pages(
    engine: &ShardedEngine,
    handle: &InstanceHandle,
    limit: usize,
    page_size: usize,
    alphabet: &Alphabet,
) {
    let mut cursor = engine.cursor(handle);
    let mut remaining = limit;
    let mut page = 0usize;
    while remaining > 0 {
        let words: Vec<_> = cursor.by_ref().take(page_size.min(remaining)).collect();
        if words.is_empty() {
            break;
        }
        remaining -= words.len();
        page += 1;
        let shown: Vec<String> = words.iter().map(|w| format_word(w, alphabet)).collect();
        println!("    page {page}: {}", shown.join(" "));
        if !cursor.is_done() {
            println!("      resume-token: {}", cursor.token());
        }
    }
    engine.settle(handle);
    println!(
        "    {} witness(es){}",
        cursor.rank(),
        if cursor.is_done() {
            ", exhausted"
        } else {
            ", truncated"
        }
    );
}

/// The one-shot verbs: compile `--regex`/`--file` at `--length` (0 for
/// `classify`, and for `info` without one), resolve it on the engine
/// `batch` builds, and answer through its handle entries.
fn run_one_shot(args: &Args) {
    let command = args.command.as_str();
    let length = match command {
        "classify" => 0,
        "info" => args.get_usize("length").unwrap_or(0),
        "count" | "enumerate" | "sample" | "route" => args
            .get_usize("length")
            .unwrap_or_else(|| usage("--length required")),
        other => usage(&format!("unknown command {other:?}")),
    };
    let (nfa, alphabet) = instance_spec(args)
        .compile(DEFAULT_ALPHABET, length)
        .unwrap_or_else(|e| usage(&e.message));
    let engine = engine(args, router_config(args, length));
    let handle = engine.prepare_nfa(&Arc::new(nfa), length);
    let inst = handle.instance();
    let verb = match command {
        "info" => {
            println!("{}", inst.nfa().describe());
            println!("unambiguous: {}", inst.is_unambiguous());
            if length > 0 {
                println!(
                    "witnesses exist at length {length}: {}",
                    inst.exists_witness()
                );
            }
            return;
        }
        "classify" => {
            let (class, note) = match inst.ambiguity() {
                AmbiguityDegree::Unambiguous => (
                    "unambiguous".to_owned(),
                    "Theorem 5 applies: exact counting, constant delay, exact uniform sampling",
                ),
                AmbiguityDegree::Finite => (
                    "finitely ambiguous".to_owned(),
                    "runs-per-word bounded by a constant; Theorem 2 toolbox applies",
                ),
                AmbiguityDegree::Polynomial { degree } => (
                    format!("polynomially ambiguous, Θ(n^{degree})"),
                    "runs-per-word grows polynomially; Theorem 2 toolbox applies",
                ),
                AmbiguityDegree::Exponential => (
                    "exponentially ambiguous, 2^Θ(n)".to_owned(),
                    "the §6.1 naive estimator is hopeless here; use the FPRAS",
                ),
            };
            println!("{class}");
            println!("({note})");
            return;
        }
        "enumerate" => return run_enumerate(args, &engine, &handle, &alphabet),
        "sample" => Ask::Sample {
            count: args.get_usize("count").unwrap_or(1),
        },
        "count" if args.get_bool("exact") == Some(true) => Ask::CountExact,
        _ => Ask::Count,
    };
    match ask(&engine, &handle, &verb, args.seed()) {
        Ok(Answer::Count(routed)) if command == "route" => {
            let route = match routed.route {
                CountRoute::ExactUnambiguous => "exact #L dynamic program (Thm 5)".into(),
                CountRoute::ExactDeterminized { dfa_states } => {
                    format!("exact DFA count ({dfa_states} subsets)")
                }
                CountRoute::Fpras => "FPRAS (Thm 22)".into(),
            };
            println!("{} {}", marker(&routed), routed.estimate);
            println!("route: {route}");
            if let Some(degree) = routed.degree {
                println!("class: {degree:?}");
            }
        }
        Ok(Answer::Count(routed)) => println!("{}", routed.estimate),
        Ok(Answer::Exact(count)) => println!("{count}"),
        Ok(Answer::Words(words)) => {
            for word in &words {
                println!("{}", format_word(word, &alphabet));
            }
            // The stream ends early only on an empty language or a draw
            // that exhausted its Las Vegas retries.
            if matches!(verb, Ask::Sample { count } if words.len() < count) {
                eprintln!(
                    "{}",
                    if inst.exists_witness() {
                        "Las Vegas generation failed after retries"
                    } else {
                        "witness set is empty"
                    }
                );
                exit(1);
            }
        }
        Err(QueryError::NotUnambiguous) => {
            eprintln!("automaton is ambiguous; exact counting unavailable (use --delta)");
            exit(1);
        }
        Err(e) => {
            eprintln!("FPRAS failure: {e}");
            exit(1);
        }
    }
}

/// The `enumerate` subcommand: every witness (up to `--limit`) off one
/// cursor, or one `--page-size` page of them and a resume token. Either
/// way the cursor starts at `--resume-token` when one is given.
fn run_enumerate(
    args: &Args,
    engine: &ShardedEngine,
    handle: &InstanceHandle,
    alphabet: &Alphabet,
) {
    let mut cursor = match args.get("resume-token") {
        None => engine.cursor(handle),
        Some(text) => {
            let token = ResumeToken::parse(text).unwrap_or_else(|e| usage(&e.to_string()));
            engine
                .resume_cursor(handle, &token)
                .unwrap_or_else(|e| usage(&e.to_string()))
        }
    };
    let limit = args.get_usize("limit").unwrap_or(usize::MAX);
    let page_size = args.get_usize("page-size");
    for w in cursor
        .by_ref()
        .take(page_size.unwrap_or(usize::MAX).min(limit))
    {
        println!("{}", format_word(&w, alphabet));
    }
    let Some(page_size) = page_size else {
        return;
    };
    if cursor.is_done() {
        eprintln!("# exhausted after {} witness(es)", cursor.rank());
    } else {
        eprintln!("# {} witness(es) so far; continue with:", cursor.rank());
        eprintln!(
            "#   --page-size {page_size} --resume-token {}",
            cursor.token()
        );
    }
}

/// The `serve` subcommand: the concurrent JSON-lines request server.
fn run_serve(args: &Args) {
    use lsc_core::serve::{ServeConfig, Server};
    use std::time::Duration;

    let mut config = ServeConfig {
        default_alphabet: args.get("alphabet").unwrap_or("01").to_string(),
        ..ServeConfig::default()
    };
    if let Some(workers) = args.get_usize("workers") {
        config.workers = workers.max(1);
    }
    if let Some(queue) = args.get_usize("queue") {
        config.queue_depth = queue.max(1);
    }
    if let Some(ms) = args.get_usize("deadline-ms") {
        config.deadline = Duration::from_millis(ms as u64);
    }
    if let Some(ms) = args.get_usize("session-ttl-ms") {
        config.session_ttl = Duration::from_millis(ms as u64);
    }
    if let Some(ms) = args.get_usize("io-timeout-ms") {
        let timeout = (ms > 0).then(|| Duration::from_millis(ms as u64));
        config.read_timeout = timeout;
        config.write_timeout = timeout;
    }
    if let Some(mb) = args.get_usize("cache-mb") {
        config.engine.cache_bytes = mb << 20;
    }
    if let Some(seed) = args.get_usize("seed") {
        config.engine.seed = seed as u64;
    }
    if let Some(shards) = args.get_usize("shards") {
        config.shards = shards;
    }
    if let Some(dir) = args.get("snapshot-dir") {
        config.snapshot_dir = Some(dir.into());
    }
    if let Some(text) = args.get("transport") {
        let transport = lsc_core::serve::Transport::parse(text).unwrap_or_else(|| {
            usage(&format!(
                "--transport expects threaded or event-loop, got {text:?}"
            ))
        });
        if transport == lsc_core::serve::Transport::EventLoop
            && !lsc_core::serve::Transport::event_loop_supported()
        {
            usage("--transport event-loop needs epoll (Linux); use threaded on this host");
        }
        config.transport = transport;
    }
    let transport = config.transport;
    let server =
        Server::new(config).unwrap_or_else(|e| usage(&format!("cannot start server: {e}")));
    let warm = server.warm_report();
    if warm.loaded > 0 || warm.rejected > 0 {
        eprintln!(
            "# snapshots: {} restored, {} rejected",
            warm.loaded, warm.rejected
        );
    }
    if args.get_bool("stdio") == Some(true) {
        eprintln!("# serving on stdio (one JSON request per line; \"bye\" or EOF ends)");
        server.serve_stdio();
        server.shutdown();
        return;
    }
    let port = args.get_usize("port").unwrap_or(7411);
    let handle = server
        .spawn_tcp(&format!("127.0.0.1:{port}"))
        .unwrap_or_else(|e| usage(&format!("cannot bind port {port}: {e}")));
    println!(
        "# listening on {} ({} transport)",
        handle.addr(),
        match transport {
            lsc_core::serve::Transport::Threaded => "threaded",
            lsc_core::serve::Transport::EventLoop => "event-loop",
        }
    );
    // Foreground until interrupted: the accept loop and the worker pool own
    // all the work (the handle's Drop would stop the accept loop, so keep
    // it alive by parking here).
    loop {
        std::thread::park();
    }
}

/// The `route` subcommand's cluster form ([`lsc_core::serve::Router`]):
/// a front-end speaking the same JSON-lines wire protocol as `serve`,
/// forwarding each session to its home backend by instance fingerprint
/// over a consistent-hash ring, with snapshot shipping on topology
/// change and failover-with-cursor-survival on backend death. Selected
/// by `--backends`; without it, `route` remains the local
/// ambiguity-aware counting router.
fn run_route_cluster(args: &Args) {
    use lsc_core::serve::{BackendSpec, ClientConfig, RouteConfig, Router};

    let fleet = args
        .get("backends")
        .unwrap_or_else(|| usage("route --listen needs --backends HOST:P1,HOST:P2[,...]"));
    let mut backends: Vec<BackendSpec> = fleet
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(BackendSpec::new)
        .collect();
    if backends.is_empty() {
        usage("--backends expects a comma-separated HOST:PORT list");
    }
    if let Some(dirs) = args.get("snapshot-dirs") {
        let dirs: Vec<&str> = dirs.split(',').collect();
        if dirs.len() != backends.len() {
            usage(&format!(
                "--snapshot-dirs names {} directories for {} backends \
                 (comma-aligned with --backends; leave a slot empty to skip it)",
                dirs.len(),
                backends.len()
            ));
        }
        for (backend, dir) in backends.iter_mut().zip(dirs) {
            let dir = dir.trim();
            if !dir.is_empty() {
                backend.snapshot_dir = Some(dir.into());
            }
        }
    }
    let backend_count = backends.len();
    let mut config = RouteConfig {
        backends,
        default_alphabet: args.get("alphabet").unwrap_or("01").to_string(),
        ..RouteConfig::default()
    };
    if let Some(retries) = args.get_usize("retries") {
        config.client = ClientConfig {
            max_attempts: retries.max(1),
            ..config.client
        };
    }
    let router =
        Router::new(config).unwrap_or_else(|e| usage(&format!("cannot start router: {e}")));
    let listen = args.get("listen").unwrap_or("127.0.0.1:7410");
    let handle = router
        .spawn_tcp(listen)
        .unwrap_or_else(|e| usage(&format!("cannot bind {listen}: {e}")));
    println!(
        "# routing on {} over {backend_count} backend(s)",
        handle.addr()
    );
    // Foreground until interrupted, exactly like `serve`: the accept loop
    // owns the work and the handle's Drop would stop it.
    loop {
        std::thread::park();
    }
}

/// The `query` subcommand: one op against a running server, through the
/// reconnecting client (retries, backoff, session re-prepare, and cursor
/// resumption all transparent).
fn run_query(args: &Args) {
    use lsc_core::serve::json::Json;
    use lsc_core::serve::{Client, ClientConfig, ClientError};

    let addr = args.get("addr").unwrap_or("127.0.0.1:7411").to_string();
    let length = args
        .get_usize("length")
        .unwrap_or_else(|| usage("--length required"));
    let spec = instance_spec(args);
    let seed = args.seed();
    let mut client = Client::new(
        addr,
        ClientConfig {
            seed,
            max_attempts: args.get_usize("retries").unwrap_or(10).max(1),
            ..ClientConfig::default()
        },
    );
    let fail = |e: ClientError| -> ! {
        eprintln!("query failed: {e}");
        exit(1)
    };
    client
        .prepare("query", spec, length)
        .unwrap_or_else(|e| fail(e));
    if let Some(token) = args.get("resume-token") {
        client
            .resume_from("query", token)
            .unwrap_or_else(|e| fail(e));
    }
    match args.get("op").unwrap_or("count") {
        "count" => {
            let value = client.count("query").unwrap_or_else(|e| fail(e));
            let marker = if value.get("exact") == Some(&Json::Bool(true)) {
                "="
            } else {
                "≈"
            };
            let estimate = value
                .get("estimate")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let route = value.get("route").and_then(Json::as_str).unwrap_or("?");
            println!("{marker} {estimate}");
            println!("route: {route}");
        }
        "count-exact" => {
            let value = client.count_exact("query").unwrap_or_else(|e| fail(e));
            let count = value
                .get("count")
                .and_then(Json::as_str)
                .unwrap_or_default();
            println!("{count}");
        }
        "enumerate" => {
            let page_size = args
                .get_usize("page-size")
                .unwrap_or(DEFAULT_PAGE_SIZE)
                .max(1);
            let mut remaining = args.get_usize("limit").unwrap_or(usize::MAX);
            let mut done = false;
            while remaining > 0 && !done {
                let page = client
                    .enumerate_page("query", Some(page_size.min(remaining)))
                    .unwrap_or_else(|e| fail(e));
                if let Some(Json::Arr(words)) = page.get("words") {
                    remaining = remaining.saturating_sub(words.len());
                    for word in words {
                        if let Some(word) = word.as_str() {
                            println!("{word}");
                        }
                    }
                }
                done = page.get("done") == Some(&Json::Bool(true));
            }
            if done {
                eprintln!("# exhausted");
            } else if let Some(token) = client.last_token("query") {
                eprintln!("# truncated; continue with: --resume-token {token}");
            }
        }
        "sample" => {
            let count = args.get_usize("count").unwrap_or(1);
            let value = client
                .sample("query", count, seed)
                .unwrap_or_else(|e| fail(e));
            if let Some(Json::Arr(words)) = value.get("words") {
                for word in words {
                    if let Some(word) = word.as_str() {
                        println!("{word}");
                    }
                }
            }
        }
        other => usage(&format!("unknown --op {other:?}")),
    }
    let stats = client.stats();
    if stats.reconnects > 0 || stats.retries > 0 {
        eprintln!(
            "# recovered: {} reconnect(s), {} retried attempt(s), {} re-prepare(s), {} torn frame(s)",
            stats.reconnects, stats.retries, stats.re_prepares, stats.torn_frames
        );
    }
    client.bye();
}

fn main() {
    let args = Args::parse();
    match args.command.as_str() {
        "batch" => run_batch(&args),
        "serve" => run_serve(&args),
        "query" => run_query(&args),
        // `route` with a backend fleet is the cluster front-end; without
        // one it is the local routed count.
        "route" if args.get("backends").is_some() || args.get("listen").is_some() => {
            run_route_cluster(&args)
        }
        _ => run_one_shot(&args),
    }
}
