//! E17–E24: the serving layer — multi-client throughput, warm restarts,
//! shard scaling, standing connections and the cluster failover cycle.
//!
//! Single-connection request latency is perfbench's to price, end to end
//! and per layer: warm `count` and page round trips over threaded TCP are
//! the `warm-wire` workload (`count_p50_us`/`count_p90_us`,
//! `enumerate_p50_us`/`enumerate_p90_us`), and the router hop is the
//! `routed-wire` workload against `warm-wire` (the same metrics, plus
//! `serve.router.hop_us` in its traced run). The groups here measure what
//! no perfbench workload runs:
//!
//! * `e18-throughput` — does concurrency help? `k` clients (fresh TCP
//!   connections) each issue 8 warm `count` requests per iteration,
//!   against the default 4-worker pool.
//! * `e17-warm-restart` — the snapshot-store acceptance measurement:
//!   server-start-to-first-answer on a four-motif automaton at length 120,
//!   cold (no snapshot store: full compile — ambiguity classification,
//!   determinization probe, completion DP) vs warm restart (populated
//!   store: load + checksum + eager DAG rebuild, zero recompilation).
//!   `scripts/bench.sh` turns the two means into the `BENCH_serve.json`
//!   `warm_restart_speedup`.
//! * `e19-shard-scaling` — 8 concurrent clients on 8 distinct warm
//!   instances, 1 shard vs 8.
//! * `e23-sketch-persistence` — server start to first approximate count,
//!   full sketch rebuild vs a snapshot that carries the sketch.
//! * `e20-connection-scaling` — what do standing connections cost? Warm
//!   `count` RTT on one hot connection while a 512-connection idle herd
//!   sits on the server, threaded transport vs the readiness event loop
//!   (`ServeConfig::transport`).
//! * `e24-route-overhead` — what does losing a backend cost? The
//!   failover-resume headline: the same prepare/page/page cycle through
//!   `Router` with and without the home backend killed between the pages.
//!
//! `scripts/bench_check.sh` gates E20, E23 and the E24 failover cycle
//! against the parent commit on the same host.
//!
//! The vendored `Criterion` calls a `bench_function` closure only when its
//! id passes the filter, so every group builds its servers, herds and
//! snapshot stores inside the closures: once per selected group, and not
//! at all for a filter that skips it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsc_bench::workloads;
use lsc_core::engine::RouterConfig;
use lsc_core::fpras::FprasParams;
use lsc_core::serve::{ServeConfig, Server, TcpServerHandle, Transport};

/// A blocking line-protocol round trip on an existing connection.
fn rpc(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(
        response.contains("\"ok\":true"),
        "request failed: {response}"
    );
    response
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Extracts a string field from a (known-good) response line without a
/// full JSON parse — bench-side convenience only.
fn field<'a>(response: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let start = response.find(&tag).expect("field present") + tag.len();
    let end = response[start..].find('"').expect("terminated") + start;
    &response[start..end]
}

/// Multi-client throughput: k connections × 8 warm counts per iteration.
fn serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/e18-throughput");
    group.sample_size(10);
    // One server for both ids, started by the first selected one.
    let mut live: Option<(Server, TcpServerHandle, Arc<String>)> = None;
    let start = || {
        let server = Server::new(ServeConfig::default()).unwrap();
        let handle = server.spawn_tcp("127.0.0.1:0").unwrap();
        let w = workloads::engine_ufa_instance();
        let text = lsc_automata::io::to_text(&w.nfa).replace('\n', "\\n");
        let prepare_line = Arc::new(format!(
            r#"{{"op":"prepare","nfa_text":"{text}","length":{}}}"#,
            w.n
        ));
        // Compile once so every bench iteration measures warm serving.
        let (mut reader, mut writer) = connect(handle.addr());
        let prepared = rpc(&mut reader, &mut writer, &prepare_line);
        let session = field(&prepared, "session").to_string();
        rpc(
            &mut reader,
            &mut writer,
            &format!(r#"{{"op":"count","session":"{session}"}}"#),
        );
        (server, handle, prepare_line)
    };
    for clients in [1usize, 4] {
        group.bench_function(BenchmarkId::new("clients", clients), |b| {
            let (_, handle, prepare_line) = live.get_or_insert_with(start);
            let (addr, prepare_line) = (handle.addr(), &*prepare_line);
            b.iter(|| {
                std::thread::scope(|scope| {
                    for _ in 0..clients {
                        let prepare_line = prepare_line.clone();
                        scope.spawn(move || {
                            let (mut reader, mut writer) = connect(addr);
                            let prepared = rpc(&mut reader, &mut writer, &prepare_line);
                            let session = field(&prepared, "session").to_string();
                            let count_line = format!(r#"{{"op":"count","session":"{session}"}}"#);
                            for _ in 0..8 {
                                rpc(&mut reader, &mut writer, &count_line);
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
    if let Some((server, mut handle, _)) = live {
        handle.shutdown();
        server.shutdown();
    }
}

/// Warm-restart: server-start-to-first-answer, cold compile vs snapshot
/// load. The instance is an 85-state four-motif automaton whose
/// preprocessing — the Weber–Seidl classification the (default)
/// provenance-rich router computes, plus the determinization probe and
/// its exact count — dominates serving; all of it persists in the
/// snapshot, so a warm restart replays none of it.
fn serve_warm_restart(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/e17-warm-restart");
    group.sample_size(10);
    let motif = "10100110100101101001";
    let pattern = format!("(0|1)*{}", [motif; 4].join("(0|1)*"));
    let prepare_line = format!(r#"{{"op":"prepare","regex":"{pattern}","length":120}}"#);
    let first_query = |server: &Server| {
        let conn = server.open_conn();
        let prepared = server.handle_line(conn, &prepare_line);
        assert!(prepared.text.contains("\"ok\":true"));
        let session = field(&prepared.text, "session").to_string();
        let count = server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#));
        assert!(count.text.contains("\"ok\":true"));
        count.text.len()
    };
    let small = |mut config: ServeConfig| {
        config.workers = 1;
        config.queue_depth = 8;
        config
    };

    // Cold: no snapshot store — every server lifetime recompiles.
    group.bench_function(BenchmarkId::from_parameter("cold-start-first-query"), |b| {
        b.iter(|| {
            let server = Server::new(small(ServeConfig::default())).unwrap();
            let n = first_query(&server);
            server.shutdown();
            n
        });
    });

    // Warm: populate a snapshot directory once, then measure restarts.
    let dir = std::env::temp_dir().join(format!("lsc-bench-serve-{}", std::process::id()));
    group.bench_function(
        BenchmarkId::from_parameter("warm-restart-first-query"),
        |b| {
            std::fs::remove_dir_all(&dir).ok();
            let config = ServeConfig {
                snapshot_dir: Some(dir.clone()),
                ..ServeConfig::default()
            };
            let server = Server::new(small(config)).unwrap();
            first_query(&server);
            assert!(server.stats().snapshots_saved >= 1);
            server.shutdown();
            b.iter(|| {
                let config = ServeConfig {
                    snapshot_dir: Some(dir.clone()),
                    ..ServeConfig::default()
                };
                let server = Server::new(small(config)).unwrap();
                assert!(server.warm_report().loaded >= 1);
                assert_eq!(
                    server.engine().stats().aggregate.misses,
                    0,
                    "no recompilation"
                );
                let n = first_query(&server);
                assert_eq!(
                    server.engine().stats().aggregate.misses,
                    0,
                    "served as a cache hit"
                );
                server.shutdown();
                n
            });
        },
    );
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// E19: aggregate serving throughput, 1 shard vs 8, under 8 concurrent
/// clients. Each client owns a *distinct* warm instance (same automaton,
/// different length ⇒ different fingerprint ⇒ different home shard), so
/// with one shard every count serializes on one cache mutex while with 8
/// shards resolution fans out across the fleet. 8 workers in the pool
/// keep the executor from being the bottleneck either way. The engine
/// byte budget is set high enough that neither layout evicts (the group
/// measures resolution, not eviction policy — remember the configured cap
/// is fleet-total, divided per shard). `scripts/bench.sh` turns the two
/// means into the `BENCH_serve.json` `shard_scaling_speedup` and records
/// the host's core count next to it: on a single-core host the two
/// configurations are expected to tie (no real concurrency to win back);
/// the spread is a multicore measurement.
fn serve_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/e19-shard-scaling");
    group.sample_size(10);
    const CLIENTS: usize = 8;
    const COUNTS: usize = 8;
    for shards in [1usize, 8] {
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            let w = workloads::engine_ufa_instance();
            let text = Arc::new(lsc_automata::io::to_text(&w.nfa).replace('\n', "\\n"));
            let mut config = ServeConfig {
                shards,
                workers: 8,
                queue_depth: 256,
                ..ServeConfig::default()
            };
            config.engine.cache_bytes = 2 << 30;
            let server = Server::new(config).unwrap();
            let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
            let addr = handle.addr();
            // Compile all 8 instances once; iterations measure warm serving.
            {
                let (mut reader, mut writer) = connect(addr);
                for client in 0..CLIENTS {
                    let prepared = rpc(
                        &mut reader,
                        &mut writer,
                        &format!(
                            r#"{{"op":"prepare","nfa_text":"{text}","length":{}}}"#,
                            w.n + client
                        ),
                    );
                    let session = field(&prepared, "session").to_string();
                    rpc(
                        &mut reader,
                        &mut writer,
                        &format!(r#"{{"op":"count","session":"{session}"}}"#),
                    );
                }
            }
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in 0..CLIENTS {
                        let text = text.clone();
                        scope.spawn(move || {
                            let (mut reader, mut writer) = connect(addr);
                            let prepared = rpc(
                                &mut reader,
                                &mut writer,
                                &format!(
                                    r#"{{"op":"prepare","nfa_text":"{text}","length":{}}}"#,
                                    w.n + client
                                ),
                            );
                            let session = field(&prepared, "session").to_string();
                            let count_line = format!(r#"{{"op":"count","session":"{session}"}}"#);
                            for _ in 0..COUNTS {
                                rpc(&mut reader, &mut writer, &count_line);
                            }
                        });
                    }
                });
            });
            handle.shutdown();
            server.shutdown();
        });
    }
    group.finish();
}

/// E23: sketch persistence — server start to first *approximate* count on an
/// ambiguous instance routed to the FPRAS (determinization disabled, so
/// Algorithm 5 is the dominant cold cost). Cold: no snapshot store — every
/// server lifetime rebuilds the sketch. Warm: a populated store whose v2
/// snapshot carries the sketch behind its `(params, seed)` key — load +
/// checksum + reach-set recompute, no sketch rebuild. `scripts/bench.sh`
/// turns the two means into the `BENCH_serve.json`
/// `sketch_persistence_speedup`.
fn serve_sketch_persistence(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/e23-sketch-persistence");
    group.sample_size(10);
    let prepare_line = r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":24}"#;
    let fpras_config = || {
        let mut config = ServeConfig {
            workers: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        };
        config.engine.router = RouterConfig {
            determinization_cap: 0,
            classify_ambiguity: false,
            fpras: FprasParams {
                k: 512,
                ..FprasParams::quick()
            },
        };
        config
    };
    let first_count = |server: &Server| {
        let conn = server.open_conn();
        let prepared = server.handle_line(conn, prepare_line);
        assert!(prepared.text.contains("\"ok\":true"));
        let session = field(&prepared.text, "session").to_string();
        let count = server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#));
        assert!(count.text.contains("\"ok\":true"));
        assert!(count.text.contains("fpras"), "must take the FPRAS route");
        count.text.len()
    };

    group.bench_function(BenchmarkId::from_parameter("cold-start-first-count"), |b| {
        b.iter(|| {
            let server = Server::new(fpras_config()).unwrap();
            let n = first_count(&server);
            server.shutdown();
            n
        });
    });

    let dir = std::env::temp_dir().join(format!("lsc-bench-sketch-{}", std::process::id()));
    group.bench_function(
        BenchmarkId::from_parameter("warm-restart-first-count"),
        |b| {
            // Populate the store once: the prepare persists the instance,
            // the count materializes the sketch, and the post-count save
            // re-persists it as a v2 snapshot with the sketch section.
            std::fs::remove_dir_all(&dir).ok();
            let mut config = fpras_config();
            config.snapshot_dir = Some(dir.clone());
            let server = Server::new(config).unwrap();
            first_count(&server);
            assert!(server.stats().snapshots_saved >= 1);
            server.shutdown();
            b.iter(|| {
                let mut config = fpras_config();
                config.snapshot_dir = Some(dir.clone());
                let server = Server::new(config).unwrap();
                assert!(server.warm_report().loaded >= 1);
                let n = first_count(&server);
                assert_eq!(
                    server.engine().stats().aggregate.misses,
                    0,
                    "served from the restored instance"
                );
                server.shutdown();
                n
            });
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

/// E20: connection scaling — the cost of *standing* connections. A herd
/// of mostly-idle connections (default 512; `LSC_BENCH_IDLE_CONNS`
/// overrides — 10k is realistic on a tuned host, see `DESIGN.md`) sits on
/// the server while one hot connection runs warm `count` round trips.
/// One benchmark id per transport: the threaded transport pays a parked
/// reader thread per idle connection, the event loop a registered-but-
/// silent epoll entry; the gate (`scripts/bench_check.sh`) holds each
/// transport's warm-count RTT within 25% of the parent commit's, and the
/// snapshot records the event-loop/threaded ratio.
fn serve_connection_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/e20-connection-scaling");
    group.sample_size(10);
    let idle: usize = std::env::var("LSC_BENCH_IDLE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let mut transports = vec![("threaded", Transport::Threaded)];
    if Transport::event_loop_supported() {
        transports.push(("event-loop", Transport::EventLoop));
    }
    for (name, transport) in transports {
        group.bench_function(BenchmarkId::new(name, format!("idle{idle}")), |b| {
            let server = Server::new(ServeConfig {
                transport,
                ..ServeConfig::default()
            })
            .unwrap();
            let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
            let addr = handle.addr();
            // The herd: each connection says hello once, then goes silent.
            let herd: Vec<_> = (0..idle)
                .map(|_| {
                    let (mut reader, mut writer) = connect(addr);
                    rpc(&mut reader, &mut writer, r#"{"op":"hello","proto":1}"#);
                    (reader, writer)
                })
                .collect();
            let (mut reader, mut writer) = connect(addr);
            let w = workloads::engine_ufa_instance();
            let text = lsc_automata::io::to_text(&w.nfa).replace('\n', "\\n");
            let prepared = rpc(
                &mut reader,
                &mut writer,
                &format!(r#"{{"op":"prepare","nfa_text":"{text}","length":{}}}"#, w.n),
            );
            let session = field(&prepared, "session").to_string();
            let count_line = format!(r#"{{"op":"count","session":"{session}"}}"#);
            rpc(&mut reader, &mut writer, &count_line); // warm the route
            b.iter(|| rpc(&mut reader, &mut writer, &count_line));
            drop((reader, writer));
            drop(herd);
            handle.shutdown();
            server.shutdown();
        });
    }
    group.finish();
}

/// E24: what does losing the home backend cost a live cursor? Both ids
/// run the same full cycle — start two backends and a router, prepare,
/// take one page, take a second page, tear down — but `kill-resume-cycle`
/// kills the session's home backend between the pages, so the second page
/// pays death detection (the router's fast-fail retry budget), ring
/// shrink, re-prepare on the survivor, and cursor resume from the last
/// acknowledged token. The failover-resume latency is the *difference*
/// between the two cycle means; `scripts/bench.sh` records it in
/// `BENCH_serve.json` as `failover_resume_ms`. (The router's per-request
/// hop is perfbench's `routed-wire` workload.)
fn serve_route_overhead(c: &mut Criterion) {
    use lsc_core::engine::{PreparedInstance, ShardMap};
    use lsc_core::serve::{BackendSpec, ClientConfig, RouteConfig, Router};
    use std::time::Duration;

    let mut group = c.benchmark_group("serve/e24-route-overhead");
    group.sample_size(10);
    let small = |mut config: ServeConfig| {
        config.workers = 1;
        config.queue_depth = 8;
        config
    };
    // Fast-fail forwarding: a dead backend should cost milliseconds to
    // detect, not the client-default retry budget.
    let route_config = |backends: Vec<BackendSpec>| RouteConfig {
        backends,
        client: ClientConfig {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            io_timeout: Some(Duration::from_secs(2)),
            ..ClientConfig::default()
        },
        ..RouteConfig::default()
    };

    // The home backend is computed the way the router computes it (`ShardMap`
    // over two shards with the default replica count), so the kill
    // always hits the node actually holding the cursor.
    let pattern = "(0|1)*11";
    let length = 12usize;
    let alphabet = lsc_automata::Alphabet::from_chars(&['0', '1']);
    let nfa = lsc_automata::regex::Regex::parse(pattern, &alphabet)
        .unwrap()
        .compile();
    let fingerprint = PreparedInstance::instance_fingerprint(&nfa, length);
    let home = ShardMap::new(2, RouteConfig::default().ring_replicas).shard_for(fingerprint);
    let prepare_line = format!(r#"{{"op":"prepare","regex":"{pattern}","length":{length}}}"#);
    for (name, kill) in [("fault-free-cycle", false), ("kill-resume-cycle", true)] {
        group.bench_function(BenchmarkId::new("failover", name), |b| {
            b.iter(|| {
                let mut nodes: Vec<Option<(Server, _)>> = (0..2)
                    .map(|_| {
                        let server = Server::new(small(ServeConfig::default())).unwrap();
                        let tcp = server.spawn_tcp("127.0.0.1:0").unwrap();
                        Some((server, tcp))
                    })
                    .collect();
                let specs = nodes
                    .iter()
                    .map(|n| BackendSpec::new(n.as_ref().unwrap().1.addr().to_string()))
                    .collect();
                let router = Router::new(route_config(specs)).unwrap();
                let mut front = router.spawn_tcp("127.0.0.1:0").unwrap();
                let (mut reader, mut writer) = connect(front.addr());
                let prepared = rpc(&mut reader, &mut writer, &prepare_line);
                let session = field(&prepared, "session").to_string();
                let page_line =
                    format!(r#"{{"op":"enumerate","session":"{session}","page_size":8}}"#);
                rpc(&mut reader, &mut writer, &page_line);
                if kill {
                    let (server, mut tcp) = nodes[home].take().unwrap();
                    tcp.shutdown();
                    server.shutdown();
                }
                let resumed = rpc(&mut reader, &mut writer, &page_line);
                assert!(resumed.contains("\"rank\":16"), "cursor lost: {resumed}");
                drop((reader, writer));
                front.shutdown();
                for node in nodes.into_iter().flatten() {
                    let (server, mut tcp) = node;
                    tcp.shutdown();
                    server.shutdown();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    serve_throughput,
    serve_warm_restart,
    serve_shard_scaling,
    serve_sketch_persistence,
    serve_connection_scaling,
    serve_route_overhead
);
criterion_main!(benches);
