//! The traced per-layer run.
//!
//! A fixed prefix of the workload's op sequence (so every count in it
//! repeats exactly for a seed) is replayed down the layer ladder
//! `parse_request → handle_line → submit_and_wait → threaded TCP →
//! event-loop TCP → Router`, each rung on a freshly set-up stack. Every op
//! lands on every rung, so a layer's self time is the median over ops of
//! the paired difference between consecutive rungs. The compile phases,
//! the samplers and the enumerators are then priced by timing calls into
//! their public functions on fresh instances of the same catalog.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `perfbench/out/trace-<workload>-<seed>.jsonl` at exit; the
//! report line carries each span name's total self time (a span minus
//! its children).

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use lsc_automata::ops::determinize_capped;
use lsc_core::engine::{
    PreparedInstance, ResumeToken, RouterConfig, ShardedConfig, ShardedEngine, WordCursor,
};
use lsc_core::serve::json::Json;
use lsc_core::serve::protocol::parse_request;
use lsc_core::serve::Router;
use lsc_core::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::Checker;
use crate::driver::{num_field, serve_config, str_field, Player, Record, Rig, Rung};
use crate::e2e::Outcome;
use crate::gen::{Kind, Op, Verb, Workload};
use crate::stats::{median, percentile, HostProbe};
use crate::Metrics;

/// Timed ops replayed on every rung, per workload.
fn replay_len(kind: Kind) -> usize {
    match kind {
        Kind::WarmWire | Kind::RoutedWire => 2000,
        // 24 instances, five ops each.
        Kind::ColdCompile => 120,
        // 24 steps, four ops each.
        Kind::BulkStream => 96,
    }
}

/// `advance` calls timed per instance.
const ADVANCES: usize = 20_000;
/// Sampler draws (or Las Vegas attempts) timed per instance.
const DRAWS: usize = 2_000;
/// Warm resolutions timed per instance.
const RESOLVES: usize = 200;
/// Closed-loop passes per side of the tracing-overhead comparison.
const OVERHEAD_PASSES: usize = 2;

/// One span: a timed call at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer and call.
    pub name: String,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// The request (op index or instance index) it belongs to.
    pub request: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span log.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            request,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result and elapsed ns.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (value, (end - start).as_nanos() as u64)
    }

    /// Closes a span opened earlier with [`Tracer::record`] at `start`.
    fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.offset(end);
    }

    /// Total self time per span name: each span's duration minus what
    /// its children cover.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(children);
            *out.entry(span.name.clone()).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// File-system failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".to_string(), Json::num(id as f64)),
                ("name".to_string(), Json::str(span.name.clone())),
                (
                    "parent".to_string(),
                    span.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("request".to_string(), Json::num(span.request as f64)),
                ("start_ns".to_string(), Json::num(span.start_ns as f64)),
                ("end_ns".to_string(), Json::num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// One rung's replay: the records and the counters read off the stack.
struct RungRun {
    records: Vec<Record>,
    engine: Option<lsc_core::engine::EngineStats>,
    pool: Option<lsc_core::serve::PoolStats>,
    router: Option<lsc_core::serve::RouteStats>,
}

fn replay(
    workload: &Workload,
    rung: Rung,
    ops: &[Op],
    tracer: &mut Tracer,
) -> std::io::Result<(RungRun, Vec<Record>)> {
    let mut rig = Rig::start(rung, &serve_config(workload.kind))?;
    let mut player = Player::new(workload);
    let mut setup = Vec::new();
    for &op in &workload.warmup {
        player.play(&mut rig, op, &mut setup)?;
    }
    let mut records = Vec::with_capacity(ops.len() * 2);
    let start = Instant::now();
    for &op in ops {
        player.play(&mut rig, op, &mut records)?;
    }
    let root = tracer.record(format!("rung.{}", rung.name()), None, 0, start, start);
    for (i, record) in records.iter().enumerate() {
        let end = record.start + std::time::Duration::from_nanos(record.ns);
        tracer.record(
            span_name(record.op),
            Some(root),
            i as u64,
            record.start,
            end,
        );
    }
    tracer.close(root, Instant::now());
    let run = RungRun {
        engine: rig.server().map(|s| s.stats().engine),
        pool: rig.server().map(|s| s.stats().pool),
        router: rig.router().map(Router::stats),
        records,
    };
    rig.stop();
    Ok((run, setup))
}

fn span_name(op: Op) -> &'static str {
    op.verb().map_or("close", Verb::name)
}

/// Median over paired ops of `outer − inner`, µs.
fn paired_us(inner: &[Record], outer: &[Record]) -> f64 {
    if inner.len() != outer.len() || inner.iter().zip(outer).any(|(a, b)| a.op != b.op) {
        return f64::NAN;
    }
    let mut diffs: Vec<f64> = inner
        .iter()
        .zip(outer)
        .map(|(a, b)| (b.ns as f64 - a.ns as f64) / 1e3)
        .collect();
    median(&mut diffs)
}

fn verb_p50_us(records: &[Record], verb: Verb) -> f64 {
    let mut values: Vec<f64> = records
        .iter()
        .filter(|r| r.op.verb() == Some(verb))
        .map(|r| r.ns as f64 / 1e3)
        .collect();
    median(&mut values)
}

/// Distinct catalog entries the replay touches, in first-use order.
fn touched(workload: &Workload, ops: &[Op]) -> Vec<usize> {
    let mut seen = BTreeSet::new();
    workload
        .warmup
        .iter()
        .chain(ops)
        .map(Op::inst)
        .filter(|i| seen.insert(*i))
        .collect()
}

/// Runs the traced ladder for `kind` under `seed`.
///
/// # Errors
/// Failures to start a stack or to talk to it, or to write the spans.
pub fn run(kind: Kind, seed: u64, _seconds: f64, corrupt: bool) -> std::io::Result<Outcome> {
    let started = Instant::now();
    let workload = Workload::generate(kind, seed);
    let ops: Vec<Op> = workload.ops().take(replay_len(kind)).collect();
    let host = HostProbe::start();
    let mut tracer = Tracer::new();
    let mut checker = Checker::new(&workload, corrupt);
    let mut metrics = Metrics::default();

    // The ladder.
    let mut runs = BTreeMap::new();
    for rung in Rung::LADDER {
        let (run, setup) = replay(&workload, rung, &ops, &mut tracer)?;
        checker.check_all(setup.iter().chain(&run.records));
        runs.insert(rung, run);
    }
    let direct = &runs[&Rung::HandleLine].records;
    let mut parse_ns = Vec::with_capacity(direct.len());
    for (i, record) in direct.iter().enumerate() {
        let (_, ns) = tracer.time("protocol.parse_request", None, i as u64, || {
            parse_request(std::hint::black_box(&record.request)).is_ok()
        });
        parse_ns.push(ns as f64);
    }
    metrics.set("serve.protocol.parse_ns", median(&mut parse_ns));
    let bytes: usize = direct.iter().map(|r| r.reply.len()).sum();
    metrics.set(
        "serve.protocol.reply_bytes",
        bytes as f64 / direct.len().max(1) as f64,
    );
    for (name, verb) in [
        ("serve.server.prepare_us", Verb::Prepare),
        ("serve.server.count_us", Verb::Count),
        ("serve.server.enumerate_us", Verb::Enumerate),
        ("serve.server.sample_us", Verb::Sample),
    ] {
        metrics.set(name, verb_p50_us(direct, verb));
    }
    let pooled = &runs[&Rung::SubmitAndWait];
    metrics.set("serve.pool.hop_us", paired_us(direct, &pooled.records));
    let pool = pooled.pool.unwrap_or_default();
    metrics.set("serve.pool.completed", pool.completed as f64);
    metrics.set("serve.pool.rejected", pool.rejected as f64);
    metrics.set("serve.pool.expired", pool.expired as f64);
    let threaded = &runs[&Rung::Threaded].records;
    metrics.set(
        "serve.transport.threaded_us",
        paired_us(&pooled.records, threaded),
    );
    metrics.set(
        "serve.transport.event_loop_us",
        paired_us(&pooled.records, &runs[&Rung::EventLoop].records),
    );
    let routed = &runs[&Rung::Routed];
    metrics.set("serve.router.hop_us", paired_us(threaded, &routed.records));
    let route = routed.router.unwrap_or_default();
    metrics.set("serve.router.forwarded", route.forwarded as f64);
    metrics.set("serve.router.failovers", route.failovers as f64);
    metrics.set("serve.router.backends_lost", route.backends_lost as f64);
    let engine = runs[&Rung::HandleLine].engine.unwrap_or_default();
    metrics.set("engine.hits", engine.hits as f64);
    metrics.set("engine.misses", engine.misses as f64);
    metrics.set("engine.evictions", engine.evictions as f64);
    metrics.set("engine.bytes", engine.bytes as f64);
    let mut routes = [0u64; 3];
    for record in direct.iter().filter(|r| r.op.verb() == Some(Verb::Count)) {
        match str_field(&record.reply, "route") {
            Some("exact-unambiguous") => routes[0] += 1,
            Some(r) if r.starts_with("exact-determinized") => routes[1] += 1,
            Some("fpras") => routes[2] += 1,
            _ => {}
        }
    }
    metrics.set("engine.route.exact_unambiguous", routes[0] as f64);
    metrics.set("engine.route.exact_determinized", routes[1] as f64);
    metrics.set("engine.route.fpras", routes[2] as f64);

    let insts = touched(&workload, &ops);
    engine_layer(&workload, &insts, direct, &mut tracer, &mut metrics);
    kernels(&workload, &insts, &mut tracer, &mut metrics);
    let (untraced, traced) = overhead(&workload, &ops)?;
    metrics.set("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);

    let noise = host.finish();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.jsonl", kind.name()));
    tracer.write_jsonl(&path)?;
    let self_ms = Json::Obj(
        tracer
            .self_times()
            .into_iter()
            .map(|(name, ns)| (name, Json::num(ns as f64 / 1e6)))
            .collect(),
    );
    let mut failed = checker.failed;
    let mut messages = checker.messages;
    for def in crate::PER_LAYER {
        if !metrics.get(def.name).is_some_and(f64::is_finite) {
            failed += 1;
            messages.push(format!("per-layer metric {} was not measured", def.name));
        }
    }
    Ok(Outcome {
        metrics,
        attempted: checker.checked,
        failed,
        messages,
        host: noise,
        samples: vec![("replayed_ops", ops.len())],
        elapsed_s: started.elapsed().as_secs_f64(),
        setups_s: Vec::new(),
        extra: Json::Obj(vec![
            ("spans".to_string(), Json::str(path.display().to_string())),
            ("self_ms".to_string(), self_ms),
            ("ops_per_s_untraced".to_string(), Json::num(untraced)),
            ("ops_per_s_traced".to_string(), Json::num(traced)),
        ]),
    })
}

/// `engine.resolve_us` (a resident `ShardedEngine::prepare_nfa`),
/// `engine.resume_us` (`ResumeToken::parse` + `resume_cursor`, on the
/// tokens the replay's pages returned) and
/// `serve.server.format_ns_per_witness`.
fn engine_layer(
    workload: &Workload,
    insts: &[usize],
    direct: &[Record],
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) {
    let config = serve_config(workload.kind).engine;
    let sharded = ShardedEngine::new(ShardedConfig {
        engine: config,
        ..ShardedConfig::default()
    });
    let mut resolve = Vec::new();
    for &inst in insts {
        let spec = &workload.catalog[inst];
        let nfa = Arc::new(spec.nfa());
        let _pin = sharded.prepare_nfa(&nfa, spec.length);
        for _ in 0..RESOLVES {
            let (_, ns) = tracer.time("engine.prepare_nfa", None, inst as u64, || {
                sharded.prepare_nfa(std::hint::black_box(&nfa), spec.length)
            });
            resolve.push(ns as f64 / 1e3);
        }
    }
    metrics.set("engine.resolve_us", median(&mut resolve));

    let engine = Engine::new(config);
    let mut handles = BTreeMap::new();
    let (mut resume, mut format) = (Vec::new(), Vec::new());
    for (i, record) in direct.iter().enumerate() {
        let Op::Enumerate { inst, page } = record.op else {
            continue;
        };
        let handle = handles.entry(inst).or_insert_with(|| {
            let spec = &workload.catalog[inst];
            engine.prepare_nfa(&Arc::new(spec.nfa()), spec.length)
        });
        // Resume where the page left off: what the next page pays.
        if let Some(text) = str_field(&record.reply, "token") {
            let (ok, ns) = tracer.time("engine.resume", None, i as u64, || {
                ResumeToken::parse(text)
                    .ok()
                    .and_then(|token| engine.resume_cursor(handle, &token).ok())
                    .is_some()
            });
            if ok {
                resume.push(ns as f64 / 1e3);
            }
        }
        // Formatting: the page through `handle_line` minus the same
        // page's `advance` calls, per witness.
        let returned = num_field(&record.reply, "returned").unwrap_or(0);
        let cursor = match str_field(&record.request, "resume") {
            Some(text) => ResumeToken::parse(text)
                .ok()
                .and_then(|token| engine.resume_cursor(handle, &token).ok()),
            None => Some(engine.cursor(handle)),
        };
        let (Some(mut cursor), true) = (cursor, returned > 0) else {
            continue;
        };
        let start = Instant::now();
        for _ in 0..page {
            if std::hint::black_box(cursor.advance()).is_none() {
                break;
            }
        }
        let advance_ns = start.elapsed().as_nanos() as f64;
        format.push((record.ns as f64 - advance_ns) / returned as f64);
    }
    metrics.set("engine.resume_us", median(&mut resume));
    metrics.set("serve.server.format_ns_per_witness", median(&mut format));
}

/// Compile phases, samplers and enumerators on fresh instances.
fn kernels(workload: &Workload, insts: &[usize], tracer: &mut Tracer, metrics: &mut Metrics) {
    let router = RouterConfig::default();
    let mut phase: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut nodes, mut edges, mut dfa_states) = (0usize, 0usize, 0usize);
    let mut sketch_ms = Vec::new();
    let (mut lv_ns, mut lv_accepted, mut lv_attempts) = (Vec::new(), 0usize, 0usize);
    let mut table_ns = Vec::new();
    let mut constant = Vec::new();
    let mut poly = Vec::new();
    for &inst in insts {
        let spec = &workload.catalog[inst];
        let request = inst as u64;
        let start = Instant::now();
        let root = tracer.record("compile", None, request, start, start);
        // Phases in the order the server pays them: `prepare` parses and
        // classifies; the first `count` takes the degree and the
        // determinization probe, then unrolls and runs the completion DP
        // (unambiguous) or builds the sketch (ambiguous).
        let mut phase_us = |name: &'static str, f: &mut dyn FnMut()| {
            let (_, ns) = tracer.time(name, Some(root), request, f);
            phase.entry(name).or_default().push(ns as f64 / 1e3);
        };
        let mut nfa = None;
        phase_us("automata.parse", &mut || nfa = Some(Arc::new(spec.nfa())));
        let nfa = nfa.expect("parsed above");
        let prepared = Arc::new(PreparedInstance::from_arc(nfa.clone(), spec.length));
        let mut unambiguous = false;
        phase_us("automata.unambiguity", &mut || {
            unambiguous = prepared.is_unambiguous()
        });
        phase_us("automata.degree", &mut || {
            prepared.ambiguity();
        });
        let mut dfa = None;
        phase_us("automata.determinize", &mut || {
            dfa = determinize_capped(&nfa, router.determinization_cap)
        });
        phase_us("automata.unroll", &mut || {
            prepared.dag();
        });
        if unambiguous {
            phase_us("arith.completion_table", &mut || {
                prepared.completion_table();
            });
        }
        dfa_states += dfa.map_or(0, |d| d.num_states());
        nodes += prepared.dag().num_nodes();
        edges += prepared.dag().num_edges();
        let mut rng = StdRng::seed_from_u64(workload.seed ^ request);
        if unambiguous {
            tracer.close(root, Instant::now());
            if let Ok(sampler) = prepared.uniform_sampler() {
                for _ in 0..DRAWS {
                    let start = Instant::now();
                    std::hint::black_box(sampler.sample(&mut rng));
                    table_ns.push(start.elapsed().as_nanos() as f64);
                }
            }
        } else {
            let (sketch, ns) = tracer.time("fpras.sketch", Some(root), request, || {
                prepared.fpras_sketch(router.fpras, workload.seed)
            });
            sketch_ms.push(ns as f64 / 1e6);
            tracer.close(root, Instant::now());
            if let Ok(sketch) = sketch {
                let mut sampler = sketch.witness_sampler();
                for _ in 0..DRAWS {
                    let start = Instant::now();
                    let drawn = std::hint::black_box(sampler.sample(&mut rng)).is_some();
                    lv_ns.push(start.elapsed().as_nanos() as f64);
                    lv_attempts += 1;
                    lv_accepted += usize::from(drawn);
                }
            }
        }
        let delays = if unambiguous {
            &mut constant
        } else {
            &mut poly
        };
        let mut cursor = WordCursor::fresh(prepared.clone());
        for _ in 0..ADVANCES {
            let start = Instant::now();
            let more = std::hint::black_box(cursor.advance()).is_some();
            delays.push(start.elapsed().as_nanos() as f64);
            if !more {
                break;
            }
        }
    }
    for (span, metric) in [
        ("automata.parse", "automata.parse_us"),
        ("automata.unroll", "automata.unroll_us"),
        ("automata.unambiguity", "automata.unambiguity_us"),
        ("automata.degree", "automata.degree_us"),
        ("automata.determinize", "automata.determinize_us"),
        ("arith.completion_table", "arith.completion_dp_us"),
    ] {
        metrics.set(metric, median(phase.entry(span).or_default()));
    }
    metrics.set("automata.dag_nodes", nodes as f64);
    metrics.set("automata.dag_edges", edges as f64);
    metrics.set("automata.dfa_states", dfa_states as f64);
    metrics.set("fpras.sketch_p50_ms", percentile(&mut sketch_ms, 0.5));
    metrics.set("fpras.sketch_p90_ms", percentile(&mut sketch_ms, 0.9));
    metrics.set("fpras.lv_draw_ns", median(&mut lv_ns));
    metrics.set(
        "fpras.lv_accept_ratio",
        lv_accepted as f64 / lv_attempts.max(1) as f64,
    );
    metrics.set("sample.table_draw_ns", median(&mut table_ns));
    for (prefix, values) in [("constant", &mut constant), ("poly", &mut poly)] {
        let names: [&'static str; 3] = if prefix == "constant" {
            [
                "enumerate.constant_delay_p50_ns",
                "enumerate.constant_delay_p99_ns",
                "enumerate.constant_delay_max_ns",
            ]
        } else {
            [
                "enumerate.poly_delay_p50_ns",
                "enumerate.poly_delay_p99_ns",
                "enumerate.poly_delay_max_ns",
            ]
        };
        metrics.set(names[0], percentile(values, 0.5));
        metrics.set(names[1], percentile(values, 0.99));
        metrics.set(names[2], percentile(values, 1.0));
    }
}

/// Closed-loop ops/s on the workload's own rung, untraced and traced
/// (a span per exchange), alternating; returns the two medians.
fn overhead(workload: &Workload, ops: &[Op]) -> std::io::Result<(f64, f64)> {
    let rung = Rung::of(workload.kind);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PASSES {
        for with_spans in [false, true] {
            let mut rig = Rig::start(rung, &serve_config(workload.kind))?;
            let mut player = Player::new(workload);
            let mut setup = Vec::new();
            for &op in &workload.warmup {
                player.play(&mut rig, op, &mut setup)?;
            }
            let mut tracer = Tracer::new();
            let mut records = Vec::new();
            let start = Instant::now();
            for (i, &op) in ops.iter().enumerate() {
                if with_spans {
                    let span_start = Instant::now();
                    let root = tracer.record("op", None, i as u64, span_start, span_start);
                    let before = records.len();
                    player.play(&mut rig, op, &mut records)?;
                    for record in &records[before..] {
                        let end = record.start + std::time::Duration::from_nanos(record.ns);
                        tracer.record(
                            span_name(record.op),
                            Some(root),
                            i as u64,
                            record.start,
                            end,
                        );
                    }
                    tracer.close(root, Instant::now());
                } else {
                    player.play(&mut rig, op, &mut records)?;
                }
            }
            let rate = records.len() as f64 / start.elapsed().as_secs_f64();
            rig.stop();
            if with_spans {
                traced.push(rate);
            } else {
                plain.push(rate);
            }
        }
    }
    Ok((median(&mut plain), median(&mut traced)))
}
