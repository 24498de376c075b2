//! Integration tests for the concurrent serving layer.
//!
//! The contract under test: `nfa_tool serve` is a *transparent* front-end —
//! N concurrent clients over real TCP sockets, interleaving `COUNT` /
//! `ENUM` (paged, with mid-stream token resumption) / `GEN`, must receive
//! responses **bit-identical** to direct single-threaded [`Engine`] calls
//! under the same configuration; overload must shed load visibly
//! (`overloaded` + `retry_after_ms`, never silent drops or blocking); and
//! a restarted server with a populated snapshot store must answer its
//! first repeated query as a cache hit, without recompiling.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lsc_automata::regex::Regex;
use lsc_automata::{format_word, Alphabet, Nfa, Word};
use lsc_core::engine::{Engine, EngineConfig, RouterConfig};
use lsc_core::serve::json::{self, Json};
use lsc_core::serve::{ServeConfig, Server};

/// A line-oriented JSON client over one TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn rpc(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        json::parse(response.trim_end()).expect("response is JSON")
    }

    fn rpc_ok(&mut self, line: &str) -> Json {
        let value = self.rpc(line);
        assert_eq!(
            value.get("ok"),
            Some(&Json::Bool(true)),
            "request {line:?} failed: {}",
            value.encode()
        );
        value
    }

    /// Like [`Client::rpc_ok`], but honors `overloaded` backpressure by
    /// sleeping `retry_after_ms` and retrying. Returns the response plus
    /// whether any rejection was observed.
    fn rpc_retrying(&mut self, line: &str) -> (Json, bool) {
        let mut rejected = false;
        loop {
            let value = self.rpc(line);
            if value.get("ok") == Some(&Json::Bool(true)) {
                return (value, rejected);
            }
            assert_eq!(
                value.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "only overload may fail {line:?}: {}",
                value.encode()
            );
            let backoff = value
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .expect("overloaded responses carry retry_after_ms");
            rejected = true;
            std::thread::sleep(Duration::from_millis(backoff.max(1)));
        }
    }
}

fn field_str(value: &Json, key: &str) -> String {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", value.encode()))
        .to_string()
}

fn words_of(value: &Json) -> Vec<String> {
    value
        .get("words")
        .and_then(Json::as_arr)
        .expect("words array")
        .iter()
        .map(|w| w.as_str().expect("word string").to_string())
        .collect()
}

/// The shared test configuration: FPRAS forced where determinization would
/// otherwise win (cap 0), small and fast parameters, a fixed engine seed —
/// so server and reference engine agree bit for bit.
fn test_engine_config() -> EngineConfig {
    EngineConfig {
        router: RouterConfig {
            determinization_cap: 0,
            fpras: lsc_core::fpras::FprasParams::quick(),
            ..RouterConfig::default()
        },
        seed: 0xBEEF,
        ..EngineConfig::default()
    }
}

fn test_serve_config() -> ServeConfig {
    ServeConfig {
        engine: test_engine_config(),
        workers: 4,
        queue_depth: 64,
        ..ServeConfig::default()
    }
}

/// The per-client workloads: (pattern, length). Two are unambiguous routes,
/// two ambiguous (FPRAS with cap 0).
const WORKLOADS: [(&str, usize); 4] = [
    ("(0|1)*101(0|1)*", 9),
    ("(0|1)*11", 8),
    ("0*1(0|1)*0", 8),
    ("(0|1)*00(0|1)*", 7),
];

/// What one client should see, computed from a direct single-threaded
/// engine with the same configuration.
struct Expected {
    count_estimate: String,
    count_exact: Option<String>,
    words: Vec<String>,
    samples: Vec<String>,
}

fn expected_for(engine: &Engine, pattern: &str, length: usize, seed: u64) -> Expected {
    let ab = Alphabet::binary();
    let nfa: Arc<Nfa> = Arc::new(Regex::parse(pattern, &ab).unwrap().compile());
    let handle = engine.prepare_nfa(&nfa, length);
    let (count, _) = engine.count_on(&handle).unwrap();
    let words: Vec<Word> = engine.cursor(&handle).collect();
    let (samples, _) = engine.sample_on(&handle, seed, 5).unwrap();
    Expected {
        count_estimate: count.estimate.to_string(),
        count_exact: count.exact.as_ref().map(|c| c.to_string()),
        words: words.iter().map(|w| format_word(w, &ab)).collect(),
        samples: samples.iter().map(|w| format_word(w, &ab)).collect(),
    }
}

/// One client's full conversation: prepare, count, paged enumeration with a
/// mid-stream resume round trip (token handed across requests), sample.
fn run_client(addr: std::net::SocketAddr, pattern: &str, length: usize, seed: u64) -> Expected {
    let mut client = Client::connect(addr);
    client.rpc_ok(r#"{"op":"hello","proto":1}"#);
    let prepared = client.rpc_ok(&format!(
        r#"{{"op":"prepare","regex":"{pattern}","length":{length}}}"#
    ));
    let session = field_str(&prepared, "session");

    let count = client.rpc_ok(&format!(r#"{{"op":"count","session":"{session}"}}"#));
    let count_estimate = field_str(&count, "estimate");
    let count_exact = count.get("count").map(|c| c.as_str().unwrap().to_string());

    // Page through the whole enumeration. Every page crosses the wire with
    // its token; every other page is fetched by explicit token resumption
    // (the mid-stream resume round trip) instead of the live cursor.
    let mut words: Vec<String> = Vec::new();
    let mut token: Option<String> = None;
    let mut page_index = 0usize;
    loop {
        let request = match (&token, page_index % 2 == 1) {
            (Some(token), true) => format!(
                r#"{{"op":"enumerate","session":"{session}","page_size":3,"resume":"{token}"}}"#
            ),
            _ => format!(r#"{{"op":"enumerate","session":"{session}","page_size":3}}"#),
        };
        let page = client.rpc_ok(&request);
        words.extend(words_of(&page));
        token = Some(field_str(&page, "token"));
        page_index += 1;
        if page.get("done") == Some(&Json::Bool(true)) {
            break;
        }
    }

    let sample = client.rpc_ok(&format!(
        r#"{{"op":"sample","session":"{session}","count":5,"seed":{seed}}}"#
    ));
    let samples = words_of(&sample);
    client.rpc_ok(r#"{"op":"bye"}"#);
    Expected {
        count_estimate,
        count_exact,
        words,
        samples,
    }
}

#[test]
fn concurrent_clients_match_single_threaded_engine_bit_for_bit() {
    let server = Server::new(test_serve_config()).unwrap();
    let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Reference: a direct, single-threaded engine with the same config.
    let reference = Engine::new(test_engine_config());

    // 8 concurrent clients (2 per workload), each a real TCP connection,
    // all interleaving against the 4-worker server.
    let got: Vec<(usize, Expected)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (pattern, length) = WORKLOADS[i % WORKLOADS.len()];
                let seed = 1000 + (i % WORKLOADS.len()) as u64;
                scope.spawn(move || (i % WORKLOADS.len(), run_client(addr, pattern, length, seed)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (w, response) in &got {
        let (pattern, length) = WORKLOADS[*w];
        let expected = expected_for(&reference, pattern, length, 1000 + *w as u64);
        assert_eq!(
            response.count_estimate, expected.count_estimate,
            "{pattern}: COUNT estimate drifted"
        );
        assert_eq!(
            response.count_exact, expected.count_exact,
            "{pattern}: COUNT exactness drifted"
        );
        assert_eq!(
            response.words, expected.words,
            "{pattern}: stitched ENUM pages differ from one uninterrupted run"
        );
        assert_eq!(
            response.samples, expected.samples,
            "{pattern}: GEN witnesses drifted"
        );
    }

    // The 4 duplicate clients hit the instances the first 4 prepared (in
    // some order) — 4 distinct instances total, all still cached, spread
    // over the shard fleet with no instance resident twice.
    let stats = server.engine().stats();
    assert_eq!(stats.aggregate.entries, 4);
    assert_eq!(
        stats
            .per_shard
            .iter()
            .map(|(_, s)| s.entries)
            .sum::<usize>(),
        4,
        "per-shard entries must sum to the aggregate"
    );
    handle.shutdown();
    server.shutdown();
}

#[test]
fn tokens_resume_across_connections() {
    let server = Server::new(test_serve_config()).unwrap();
    let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Client 1 reads two pages and walks away with the token.
    let mut first = Client::connect(addr);
    let prepared = first.rpc_ok(r#"{"op":"prepare","regex":"(0|1)*11","length":7}"#);
    let session = field_str(&prepared, "session");
    let p1 = first.rpc_ok(&format!(
        r#"{{"op":"enumerate","session":"{session}","page_size":4}}"#
    ));
    let mut words = words_of(&p1);
    let token = field_str(&p1, "token");
    drop(first); // disconnect: the session dies with the connection

    // Client 2 re-opens the instance (a cache hit) and resumes mid-stream.
    let mut second = Client::connect(addr);
    let prepared = second.rpc_ok(r#"{"op":"prepare","regex":"(0|1)*11","length":7}"#);
    assert_eq!(prepared.get("cached"), Some(&Json::Bool(true)));
    let session2 = field_str(&prepared, "session");
    let mut token = token;
    loop {
        let page = second.rpc_ok(&format!(
            r#"{{"op":"enumerate","session":"{session2}","page_size":4,"resume":"{token}"}}"#
        ));
        words.extend(words_of(&page));
        token = field_str(&page, "token");
        if page.get("done") == Some(&Json::Bool(true)) {
            break;
        }
    }

    // The stitched cross-connection stream equals one uninterrupted run.
    let reference = Engine::new(test_engine_config());
    let ab = Alphabet::binary();
    let nfa = Arc::new(Regex::parse("(0|1)*11", &ab).unwrap().compile());
    let all: Vec<String> = reference
        .cursor(&reference.prepare_nfa(&nfa, 7))
        .map(|w| format_word(&w, &ab))
        .collect();
    assert_eq!(words, all);
    handle.shutdown();
    server.shutdown();
}

#[test]
fn overload_rejects_with_retry_hint_and_retries_succeed() {
    // One worker, queue depth 1: 8 clients synchronized to fire at once
    // cannot all be admitted. Rejections must be immediate, carry the
    // retry hint, and leave the request re-submittable.
    let config = ServeConfig {
        engine: test_engine_config(),
        workers: 1,
        queue_depth: 1,
        retry_after: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::new(config).unwrap();
    let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Warm one instance so the flood measures queueing, not compilation.
    let mut warm = Client::connect(addr);
    let prepared = warm.rpc_ok(r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":12}"#);
    let session = field_str(&prepared, "session");
    warm.rpc_ok(&format!(
        r#"{{"op":"enumerate","session":"{session}","page_size":1}}"#
    ));

    // Several rounds of synchronized floods: with 8 simultaneous requests
    // against capacity 2 (1 executing + 1 queued), rejections are
    // effectively guaranteed; loop defensively anyway. Every op (including
    // prepare) retries through backpressure, so nothing can wedge on an
    // early rejection.
    let mut saw_rejection = false;
    for _ in 0..5 {
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let outcomes: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let barrier = barrier.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(addr);
                        let (prepared, prepare_rejected) = client.rpc_retrying(
                            r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":12}"#,
                        );
                        let session = field_str(&prepared, "session");
                        let request = format!(
                            r#"{{"op":"enumerate","session":"{session}","page_size":2000}}"#
                        );
                        barrier.wait();
                        let (_, rejected) = client.rpc_retrying(&request);
                        prepare_rejected || rejected
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        if outcomes.iter().any(|&r| r) {
            saw_rejection = true;
            break;
        }
    }
    assert!(
        saw_rejection,
        "8 synchronized clients against capacity 2 never saw admission control"
    );
    assert!(server.stats().pool.rejected > 0);
    handle.shutdown();
    server.shutdown();
}

#[test]
fn queued_requests_past_the_deadline_expire() {
    // Deadline zero: anything that touches the queue expires before
    // execution. (prepare goes through the pool too, so use the direct
    // submit path.)
    let config = ServeConfig {
        engine: test_engine_config(),
        workers: 1,
        queue_depth: 8,
        deadline: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::new(config).unwrap();
    let conn = server.open_conn();
    let reply = server.submit_and_wait(conn, r#"{"op":"stats","id":"d1"}"#);
    let value = json::parse(&reply.text).unwrap();
    assert_eq!(value.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        value.get("code").and_then(Json::as_str),
        Some("deadline-exceeded")
    );
    assert_eq!(value.get("id").and_then(Json::as_str), Some("d1"));
    assert!(server.stats().pool.expired >= 1);
    server.shutdown();
}

#[test]
fn snapshot_restart_serves_first_repeat_query_as_cache_hit() {
    let dir = std::env::temp_dir().join(format!("lsc-serve-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || ServeConfig {
        engine: test_engine_config(),
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // First server lifetime: compile, query, persist.
    let (cold_count, cold_words) = {
        let server = Server::new(config()).unwrap();
        let conn = server.open_conn();
        let prepared = server.handle_line(
            conn,
            r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":9}"#,
        );
        let prepared = json::parse(&prepared.text).unwrap();
        assert_eq!(prepared.get("cached"), Some(&Json::Bool(false)));
        let session = field_str(&prepared, "session");
        let count = server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#));
        let count = json::parse(&count.text).unwrap();
        let page = server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":6}}"#),
        );
        let page = json::parse(&page.text).unwrap();
        assert!(server.stats().snapshots_saved >= 1, "snapshot persisted");
        server.shutdown();
        (field_str(&count, "estimate"), words_of(&page))
    };

    // Second server lifetime, same directory: the warm pass restores the
    // instance, so the very first repeated prepare is a cache hit and no
    // recompilation (engine miss) ever happens.
    let server = Server::new(config()).unwrap();
    assert!(server.warm_report().loaded >= 1, "snapshots restored");
    let conn = server.open_conn();
    let prepared = server.handle_line(
        conn,
        r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":9}"#,
    );
    let prepared = json::parse(&prepared.text).unwrap();
    assert_eq!(
        prepared.get("cached"),
        Some(&Json::Bool(true)),
        "first repeated prepare after restart must hit the warmed cache"
    );
    let session = field_str(&prepared, "session");
    let count = server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#));
    let count = json::parse(&count.text).unwrap();
    let page = server.handle_line(
        conn,
        &format!(r#"{{"op":"enumerate","session":"{session}","page_size":6}}"#),
    );
    let page = json::parse(&page.text).unwrap();
    // Warm answers are bit-identical to the cold server's.
    assert_eq!(field_str(&count, "estimate"), cold_count);
    assert_eq!(words_of(&page), cold_words);
    // No instance was ever compiled in this lifetime: zero cache misses.
    assert_eq!(server.engine().stats().aggregate.misses, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_snapshots_are_quarantined_at_startup() {
    let dir = std::env::temp_dir().join(format!("lsc-serve-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || ServeConfig {
        engine: test_engine_config(),
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    {
        let server = Server::new(config()).unwrap();
        let conn = server.open_conn();
        let prepared =
            server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#);
        assert!(prepared.text.contains(r#""ok":true"#));
        server.shutdown();
    }
    // Flip one byte in the middle of the (only) snapshot file.
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .expect("one snapshot saved")
        .path();
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();

    let server = Server::new(config()).unwrap();
    // The open-time sweep quarantines the file before the warm pass ever
    // sees it: nothing loads, nothing is even offered to the warm pass,
    // and the corrupt bytes are renamed out of the serving path but kept
    // on disk for inspection.
    assert_eq!(server.warm_report().loaded, 0);
    assert_eq!(server.warm_report().rejected, 0);
    assert_eq!(server.stats().snapshots_quarantined, 1);
    assert!(!file.exists(), "corrupt snapshot left in the serving path");
    let quarantined = std::path::PathBuf::from(format!("{}.quarantined.1", file.display()));
    assert!(quarantined.exists(), "quarantined copy kept for inspection");
    // The instance recompiles (a miss) rather than serving corrupt data.
    let conn = server.open_conn();
    let prepared = server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#);
    let prepared = json::parse(&prepared.text).unwrap();
    assert_eq!(prepared.get("cached"), Some(&Json::Bool(false)));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_verb_reports_per_shard_counters_that_sum_to_the_aggregate() {
    // A fixed 4-shard fleet, traffic over real TCP: the wire `stats` verb
    // must expose one block per shard, and the per-shard hit/miss/eviction/
    // entry counters must sum to the aggregate `engine` block exactly.
    let config = ServeConfig {
        engine: test_engine_config(),
        shards: 4,
        ..ServeConfig::default()
    };
    let server = Server::new(config).unwrap();
    let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr());
    // Distinct instances spread over shards; repeats generate hits.
    for (pattern, length) in WORKLOADS {
        for _ in 0..2 {
            let prepared = client.rpc_ok(&format!(
                r#"{{"op":"prepare","regex":"{pattern}","length":{length}}}"#
            ));
            let session = field_str(&prepared, "session");
            client.rpc_ok(&format!(r#"{{"op":"count","session":"{session}"}}"#));
        }
    }

    let stats = client.rpc_ok(r#"{"op":"stats"}"#);
    let engine = stats.get("engine").expect("aggregate engine block");
    let shards = stats
        .get("shards")
        .and_then(Json::as_arr)
        .expect("per-shard stats array");
    assert_eq!(shards.len(), 4, "one stats block per shard");
    for key in ["hits", "misses", "evictions", "entries"] {
        let total: u64 = shards
            .iter()
            .map(|s| s.get(key).and_then(Json::as_u64).expect("counter present"))
            .sum();
        assert_eq!(
            Some(total),
            engine.get(key).and_then(Json::as_u64),
            "per-shard {key} must sum to the aggregate"
        );
    }
    // Shard ids are distinct and the traffic actually spread: with 8
    // distinct (pattern, length) instances over 4 shards, at least two
    // shards must hold entries (pigeonhole would allow one only if the
    // ring were degenerate).
    let ids: Vec<u64> = shards
        .iter()
        .map(|s| s.get("id").and_then(Json::as_u64).expect("shard id"))
        .collect();
    let mut distinct = ids.clone();
    distinct.dedup();
    assert_eq!(ids, distinct, "shard ids must be distinct and ordered");
    let populated = shards
        .iter()
        .filter(|s| s.get("entries").and_then(Json::as_u64) != Some(0))
        .count();
    assert!(populated >= 2, "instances did not spread across shards");
    // Mirror check against the in-process stats the wire serialized.
    let direct = server.engine().stats();
    assert_eq!(
        direct.per_shard.iter().map(|(_, s)| s.hits).sum::<u64>(),
        direct.aggregate.hits
    );
    handle.shutdown();
    server.shutdown();
}

#[test]
fn snapshot_restart_restores_instances_into_their_home_shards() {
    // The shard-aware warm pass: snapshots persisted by one server must be
    // restored by a restarted *sharded* server onto exactly the shard each
    // fingerprint routes to — so the first repeated prepare is a hit with
    // zero misses anywhere in the fleet.
    let dir = std::env::temp_dir().join(format!("lsc-serve-shard-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = |shards| ServeConfig {
        engine: test_engine_config(),
        shards,
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // First lifetime (single shard): compile and persist all workloads.
    let fingerprints: Vec<u64> = {
        let server = Server::new(config(1)).unwrap();
        let conn = server.open_conn();
        let mut fps = Vec::new();
        for (pattern, length) in WORKLOADS {
            let prepared = server.handle_line(
                conn,
                &format!(r#"{{"op":"prepare","regex":"{pattern}","length":{length}}}"#),
            );
            let prepared = json::parse(&prepared.text).unwrap();
            let session = field_str(&prepared, "session");
            // Materialize (and persist) at least the classification+count.
            server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#));
            fps.push(u64::from_str_radix(&field_str(&prepared, "fingerprint"), 16).unwrap());
        }
        assert!(server.stats().snapshots_saved >= WORKLOADS.len() as u64);
        server.shutdown();
        fps
    };

    // Second lifetime: a 4-shard fleet warms from the same directory.
    let server = Server::new(config(4)).unwrap();
    assert_eq!(server.warm_report().loaded, WORKLOADS.len());
    let engine = server.engine();
    for &fp in &fingerprints {
        assert_eq!(
            engine.resident_shards(fp),
            vec![engine.shard_for_fingerprint(fp)],
            "snapshot restored off its home shard"
        );
    }
    // Repeat traffic is served warm: every prepare hits, no shard compiles.
    let conn = server.open_conn();
    for (pattern, length) in WORKLOADS {
        let prepared = server.handle_line(
            conn,
            &format!(r#"{{"op":"prepare","regex":"{pattern}","length":{length}}}"#),
        );
        let prepared = json::parse(&prepared.text).unwrap();
        assert_eq!(prepared.get("cached"), Some(&Json::Bool(true)));
    }
    assert_eq!(engine.stats().aggregate.misses, 0, "no shard recompiled");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// [`Server::handle_line`] with an `ok: true` assertion — the direct
/// (transport-free, out-of-band) path `health` probes ride.
fn ok_line(server: &Server, conn: u64, line: &str) -> Json {
    let reply = server.handle_line(conn, line);
    let value = json::parse(&reply.text).expect("reply is JSON");
    assert_eq!(
        value.get("ok"),
        Some(&Json::Bool(true)),
        "request {line:?} failed: {}",
        reply.text
    );
    value
}

#[test]
fn health_answers_out_of_band_and_scales_the_retry_hint_with_backlog() {
    let config = ServeConfig {
        engine: test_engine_config(),
        workers: 1,
        queue_depth: 6,
        retry_after: Duration::from_millis(7),
        ..ServeConfig::default()
    };
    let server = Server::new(config).unwrap();
    let conn = server.open_conn();

    // Idle: healthy, empty queue, the hint is exactly the configured base.
    let idle = ok_line(&server, conn, r#"{"op":"health"}"#);
    assert_eq!(idle.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(idle.get("queued").and_then(Json::as_u64), Some(0));
    assert_eq!(idle.get("queue_capacity").and_then(Json::as_u64), Some(6));
    assert_eq!(idle.get("retry_after_ms").and_then(Json::as_u64), Some(7));

    // Pile slow enumerations onto the single worker. While the backlog
    // stands, the adaptive hint must rise above the base (one extra queue
    // generation per `queued/workers`) without ever exceeding the 32x cap
    // — and `health` itself must keep answering without queueing (it runs
    // on the probing thread, never a worker).
    std::thread::scope(|scope| {
        for _ in 0..7 {
            scope.spawn(|| {
                let conn = server.open_conn();
                let prepared = ok_line(
                    &server,
                    conn,
                    r#"{"op":"prepare","regex":"(0|1)*","length":17}"#,
                );
                let session = field_str(&prepared, "session");
                // A big page over a big language: real worker time each.
                // Overload rejections here are fine — only the standing
                // backlog matters to this test.
                let _ = server.submit_and_wait(
                    conn,
                    &format!(r#"{{"op":"enumerate","session":"{session}","page_size":100000}}"#),
                );
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let mut scaled = None;
        while scaled.is_none() && std::time::Instant::now() < deadline {
            let health = ok_line(&server, conn, r#"{"op":"health"}"#);
            let hint = health
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .expect("health carries the hint");
            assert!((7..=7 * 32).contains(&hint), "hint {hint} out of range");
            if hint > 7 {
                scaled = Some(health);
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let health = scaled.expect("the retry hint never scaled with the backlog");
        assert!(
            health.get("queued").and_then(Json::as_u64).unwrap() >= 1,
            "a scaled hint implies a non-empty queue: {}",
            health.encode()
        );
    });
    server.shutdown();
}

#[test]
fn silent_peers_are_reaped_by_the_read_timeout() {
    let config = ServeConfig {
        engine: test_engine_config(),
        read_timeout: Some(Duration::from_millis(40)),
        ..ServeConfig::default()
    };
    let server = Server::new(config).unwrap();
    let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();

    // Connect and say nothing. The server must hang up on its own: our
    // blocked read resolves to EOF (or a reset) instead of the connection
    // pinning a server thread forever.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client-side guard timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let read = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(read, 0, "the server must close a silent connection");

    // The reap is a survived fault, visible in the counters.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().resets_survived == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(server.stats().resets_survived >= 1, "reap not counted");
    // One dead peer poisons nothing: a fresh connection works.
    let mut client = Client::connect(handle.addr());
    client.rpc_ok(r#"{"op":"hello","proto":1}"#);
    handle.shutdown();
    server.shutdown();
}

#[test]
fn sessions_idle_out_and_answer_unknown_session() {
    let config = ServeConfig {
        engine: test_engine_config(),
        session_ttl: Duration::from_millis(25),
        ..ServeConfig::default()
    };
    let server = Server::new(config).unwrap();
    let conn = server.open_conn();
    let prepared = server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#);
    let prepared = json::parse(&prepared.text).unwrap();
    let session = field_str(&prepared, "session");
    std::thread::sleep(Duration::from_millis(60));
    let reply = server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#));
    let value = json::parse(&reply.text).unwrap();
    assert_eq!(
        value.get("code").and_then(Json::as_str),
        Some("unknown-session")
    );
    assert!(server.stats().sessions_evicted >= 1);
    server.shutdown();
}
