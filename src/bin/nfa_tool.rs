//! `nfa-tool` — count, enumerate, and sample the fixed-length language of an
//! NFA from the command line.
//!
//! ```text
//! nfa-tool count     (--regex PAT | --file NFA.txt) --length N [--exact true | --delta D]
//! nfa-tool enumerate (--regex PAT | --file NFA.txt) --length N [--limit K]
//!                    [--page-size P] [--resume-token T]
//! nfa-tool sample    (--regex PAT | --file NFA.txt) --length N [--count K] [--seed S]
//! nfa-tool info      (--regex PAT | --file NFA.txt) [--length N]
//! nfa-tool classify  (--regex PAT | --file NFA.txt)
//! nfa-tool route     (--regex PAT | --file NFA.txt) --length N [--cap C]
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
//! NFA files use the format of `lsc_automata::io`. `classify` reports the
//! Weber–Seidl ambiguity class; `route` runs the ambiguity-aware counting
//! router and reports which algorithm produced the count.
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
//! `enumerate --page-size P` streams one page of `P` witnesses and prints a
//! compact **resume token**; feeding it back via `--resume-token` continues
//! the enumeration exactly where the previous page stopped (stitched pages
//! are bit-identical to one uninterrupted run — see
//! `lsc_core::engine::ResumeToken`). Tokens are bound to the instance: a
//! token minted for one automaton/length is rejected by any other.
//!
//! `batch` answers many queries through one sharded prepared-instance
//! engine ([`lsc_core::engine::ShardedEngine`]; `--shards`, default one
//! per core) using the session flow: each query line is
//! resolved to an [`InstanceHandle`] first (repeated patterns hit the
//! instance cache instead of recompiling), then the lines are answered one
//! by one on their handles — `count`/`count-exact`/`sample` through the
//! same handle methods the server uses, `enumerate` through a cursor with
//! per-page progress (page size `--page-size`, default 100) and a printed
//! resume token per page. Queries are read from
//! `--file` (or stdin), one per line:
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

use lsc_automata::ops::{ambiguity_degree, AmbiguityDegree};
use lsc_automata::regex::Regex;
use lsc_automata::{format_word, io, Alphabet, Nfa};
use lsc_core::engine::{
    count_routed, CountRoute, EngineConfig, InstanceHandle, ResumeToken, RouterConfig,
    ShardedConfig, ShardedEngine, WordCursor,
};
use lsc_core::fpras::FprasParams;
use lsc_core::sample::GenOutcome;
use lsc_core::{MemNfa, PreparedInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  nfa-tool count     (--regex PAT | --file NFA.txt) --length N [--exact true | --delta D]\n  \
           nfa-tool enumerate (--regex PAT | --file NFA.txt) --length N [--limit K] [--page-size P] [--resume-token T]\n  \
           nfa-tool sample    (--regex PAT | --file NFA.txt) --length N [--count K] [--seed S]\n  \
           nfa-tool info      (--regex PAT | --file NFA.txt) [--length N]\n  \
           nfa-tool classify  (--regex PAT | --file NFA.txt)\n  \
           nfa-tool route     (--regex PAT | --file NFA.txt) --length N [--cap C]\n  \
           nfa-tool route     --backends HOST:P1,HOST:P2[,...] [--listen HOST:PORT] [--snapshot-dirs D1,D2[,...]] [--retries R]\n  \
           nfa-tool batch     [--file QUERIES.txt] [--shards S] [--cache-mb M] [--seed S] [--page-size P]\n  \
           nfa-tool serve     [--port P | --stdio true] [--workers W] [--queue N] [--deadline-ms D] [--session-ttl-ms T] [--io-timeout-ms T] [--snapshot-dir DIR] [--cache-mb M] [--seed S] [--shards S] [--transport threaded|event-loop]\n  \
           nfa-tool query     --addr HOST:PORT (--regex PAT | --file NFA.txt) --length N [--op count|count-exact|enumerate|sample] [--page-size P] [--limit K] [--count K] [--seed S] [--resume-token T] [--retries R]\n  \
           common: [--alphabet CHARS]  (default 01)\n\
           batch query lines: (count|count-exact|enumerate|sample) PATTERN LENGTH [LIMIT|COUNT]"
    );
    exit(2)
}

fn load_nfa(args: &Args) -> Nfa {
    let alphabet_chars: Vec<char> = args.get("alphabet").unwrap_or("01").chars().collect();
    let alphabet = Alphabet::from_chars(&alphabet_chars);
    match (args.get("regex"), args.get("file")) {
        (Some(pattern), None) => match Regex::parse(pattern, &alphabet) {
            Ok(r) => r.compile(),
            Err(e) => usage(&e.to_string()),
        },
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            io::from_text(&text).unwrap_or_else(|e| usage(&e.to_string()))
        }
        _ => usage("provide exactly one of --regex or --file"),
    }
}

/// What a batch query line asks for.
enum Verb {
    Count,
    CountExact,
    Enumerate { limit: usize },
    Sample { count: usize },
}

/// One parsed batch query line.
struct BatchLine {
    spec: String,
    verb: Verb,
    /// The line's session; `was_cached` tags the answer `hit`/`miss`.
    handle: InstanceHandle,
    seed: u64,
}

/// The `batch` subcommand: many queries, one engine, session handles and
/// cursors end to end.
fn run_batch(args: &Args) {
    let alphabet_chars: Vec<char> = args.get("alphabet").unwrap_or("01").chars().collect();
    let alphabet = Alphabet::from_chars(&alphabet_chars);
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
    let seed = args.get_usize("seed").unwrap_or(0xC0FFEE) as u64;
    let page_size = args.get_usize("page-size").unwrap_or(100).max(1);
    let config = EngineConfig {
        cache_bytes: args.get_usize("cache-mb").unwrap_or(256) << 20,
        seed,
        ..EngineConfig::default()
    };
    // Answers are bit-identical at any shard count; sharding only spreads
    // cache resolution across independent LRUs (default: one per core).
    let engine = ShardedEngine::new(ShardedConfig {
        engine: config,
        shards: args.get_usize("shards").unwrap_or(0),
    });
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
        let verb = match command {
            "count" => Verb::Count,
            "count-exact" => Verb::CountExact,
            // An absent LIMIT defaults to a bounded prefix rather than
            // streaming the whole language (use the `enumerate` subcommand
            // for full listings).
            "enumerate" => Verb::Enumerate {
                limit: extra.unwrap_or(1000),
            },
            "sample" => Verb::Sample {
                count: extra.unwrap_or(1),
            },
            _ => bad("unknown command"),
        };
        let nfa = match Regex::parse(pattern, &alphabet) {
            Ok(r) => Arc::new(r.compile()),
            Err(e) => bad(&e.to_string()),
        };
        let handle = engine.prepare_nfa(&nfa, length);
        lines.push(BatchLine {
            spec: format!("{command} {pattern} @{length}"),
            verb,
            handle,
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
        let answer = match line.verb {
            Verb::Enumerate { limit } => {
                println!("{head}: streaming up to {limit} witnesses in pages of {page_size}");
                stream_pages(&engine, &line.handle, limit, page_size, &alphabet);
                continue;
            }
            Verb::Count => engine.count_on(&line.handle).map(|(routed, _)| {
                let marker = if routed.is_exact() { "=" } else { "≈" };
                format!("{marker} {}", routed.estimate)
            }),
            Verb::CountExact => engine
                .count_exact_on(&line.handle)
                .map(|(count, _)| format!("= {count}")),
            Verb::Sample { count } => {
                engine
                    .sample_on(&line.handle, line.seed, count)
                    .map(|(words, _)| {
                        let shown: Vec<String> =
                            words.iter().map(|w| format_word(w, &alphabet)).collect();
                        format!("{} words: {}", words.len(), shown.join(" "))
                    })
            }
        };
        match answer {
            Ok(text) => println!("{head}: {text}"),
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

/// The `enumerate` subcommand: full streaming by default, paged streaming
/// with resume tokens under `--page-size`.
fn run_enumerate(args: &Args, nfa: Nfa, alphabet: &Alphabet) {
    let n = args
        .get_usize("length")
        .unwrap_or_else(|| usage("--length required"));
    let limit = args.get_usize("limit").unwrap_or(usize::MAX);
    match args.get_usize("page-size") {
        None => {
            // Unpaged: stream every witness (up to --limit) to stdout.
            let inst = MemNfa::new(nfa, n);
            for w in inst.enumerate().take(limit) {
                println!("{}", format_word(&w, alphabet));
            }
        }
        Some(page_size) => {
            let inst = Arc::new(PreparedInstance::new(nfa, n));
            let mut cursor = match args.get("resume-token") {
                None => WordCursor::fresh(inst),
                Some(text) => {
                    let token = ResumeToken::parse(text).unwrap_or_else(|e| usage(&e.to_string()));
                    WordCursor::resume(inst, &token).unwrap_or_else(|e| usage(&e.to_string()))
                }
            };
            for w in cursor.by_ref().take(page_size.min(limit)) {
                println!("{}", format_word(&w, alphabet));
            }
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
    let stdio = match args.get("stdio") {
        None => false,
        Some("true" | "1" | "yes") => true,
        Some("false" | "0" | "no") => false,
        Some(other) => usage(&format!("--stdio expects true or false, got {other:?}")),
    };
    if stdio {
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
    use lsc_core::serve::protocol::InstanceSpec;
    use lsc_core::serve::{Client, ClientConfig, ClientError};

    let addr = args.get("addr").unwrap_or("127.0.0.1:7411").to_string();
    let length = args
        .get_usize("length")
        .unwrap_or_else(|| usage("--length required"));
    let spec = match (args.get("regex"), args.get("file")) {
        (Some(pattern), None) => InstanceSpec::Regex {
            pattern: pattern.to_string(),
            alphabet: args.get("alphabet").map(str::to_string),
        },
        (None, Some(path)) => InstanceSpec::NfaText(
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}"))),
        ),
        _ => usage("provide exactly one of --regex or --file"),
    };
    let seed = args.get_usize("seed").unwrap_or(0xC0FFEE) as u64;
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
            let page_size = args.get_usize("page-size").unwrap_or(100).max(1);
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
    if args.command == "batch" {
        run_batch(&args);
        return;
    }
    if args.command == "serve" {
        run_serve(&args);
        return;
    }
    if args.command == "query" {
        run_query(&args);
        return;
    }
    // `route` with a backend fleet is the cluster front-end; without one
    // it stays the local ambiguity-aware counting router below.
    if args.command == "route" && (args.get("backends").is_some() || args.get("listen").is_some()) {
        run_route_cluster(&args);
        return;
    }
    let nfa = load_nfa(&args);
    let alphabet = nfa.alphabet().clone();
    let mut rng = StdRng::seed_from_u64(args.get_usize("seed").unwrap_or(0xC0FFEE) as u64);
    match args.command.as_str() {
        "info" => {
            println!("{}", nfa.describe());
            let inst = MemNfa::new(nfa, args.get_usize("length").unwrap_or(0));
            println!("unambiguous: {}", inst.is_unambiguous());
            if inst.length() > 0 {
                println!(
                    "witnesses exist at length {}: {}",
                    inst.length(),
                    inst.exists_witness()
                );
            }
        }
        "count" => {
            let n = args
                .get_usize("length")
                .unwrap_or_else(|| usage("--length required"));
            let inst = MemNfa::new(nfa, n);
            if args.get("exact").is_some() {
                match inst.count_exact() {
                    Ok(c) => println!("{c}"),
                    Err(_) => {
                        eprintln!(
                            "automaton is ambiguous; exact counting unavailable (use --delta)"
                        );
                        exit(1);
                    }
                }
            } else {
                let delta: f64 = args
                    .get("delta")
                    .map(|v| {
                        v.parse()
                            .unwrap_or_else(|_| usage("--delta expects a float"))
                    })
                    .unwrap_or(0.1);
                if !(delta > 0.0 && delta < 1.0) {
                    usage("--delta must be in (0, 1)");
                }
                let params = FprasParams::with_accuracy(n, delta);
                match inst.count_approx(params, &mut rng) {
                    Ok(est) => println!("{est}"),
                    Err(e) => {
                        eprintln!("FPRAS failure: {e}");
                        exit(1);
                    }
                }
            }
        }
        "enumerate" => run_enumerate(&args, nfa, &alphabet),
        "sample" => {
            let n = args
                .get_usize("length")
                .unwrap_or_else(|| usage("--length required"));
            let count = args.get_usize("count").unwrap_or(1);
            let inst = MemNfa::new(nfa, n);
            if inst.is_unambiguous() {
                let sampler = inst.uniform_sampler().expect("checked unambiguous");
                for _ in 0..count {
                    match sampler.sample(&mut rng) {
                        Some(w) => println!("{}", format_word(&w, &alphabet)),
                        None => {
                            eprintln!("witness set is empty");
                            exit(1);
                        }
                    }
                }
            } else {
                let generator = inst
                    .las_vegas_generator(FprasParams::quick(), &mut rng)
                    .unwrap_or_else(|e| {
                        eprintln!("FPRAS failure: {e}");
                        exit(1)
                    });
                for _ in 0..count {
                    match generator.generate(&mut rng) {
                        GenOutcome::Witness(w) => println!("{}", format_word(&w, &alphabet)),
                        GenOutcome::Empty => {
                            eprintln!("witness set is empty");
                            exit(1);
                        }
                        GenOutcome::Fail => {
                            eprintln!("Las Vegas generation failed after retries");
                            exit(1);
                        }
                    }
                }
            }
        }
        "classify" => {
            let degree = ambiguity_degree(&nfa);
            let (class, note) = match degree {
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
        }
        "route" => {
            let n = args
                .get_usize("length")
                .unwrap_or_else(|| usage("--length required"));
            let cap = args.get_usize("cap").unwrap_or(4096);
            let config = RouterConfig {
                determinization_cap: cap,
                ..RouterConfig::default()
            };
            match count_routed(&nfa, n, &config, &mut rng) {
                Ok(routed) => {
                    let route = match routed.route {
                        CountRoute::ExactUnambiguous => "exact #L dynamic program (Thm 5)".into(),
                        CountRoute::ExactDeterminized { dfa_states } => {
                            format!("exact DFA count ({dfa_states} subsets)")
                        }
                        CountRoute::Fpras => "FPRAS (Thm 22)".into(),
                    };
                    let marker = if routed.is_exact() { "=" } else { "≈" };
                    println!("{marker} {}", routed.estimate);
                    println!("route: {route}");
                    if let Some(degree) = routed.degree {
                        println!("class: {degree:?}");
                    }
                }
                Err(e) => {
                    eprintln!("FPRAS failure: {e}");
                    exit(1);
                }
            }
        }
        other => usage(&format!("unknown command {other:?}")),
    }
}
