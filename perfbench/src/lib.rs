//! An outside-in benchmark of the serve stack.
//!
//! Four seeded workloads ([`gen`]) run closed-loop over one client
//! connection against an in-process `Server` or `Router` ([`driver`]);
//! every reply is checked against a fresh single-thread engine
//! ([`check`]). The end-to-end run ([`e2e`]) reports what a client sees;
//! the traced run ([`trace`]) replays each workload down a ladder of
//! layers and prices each one by timing calls into its public functions.

pub mod check;
pub mod driver;
pub mod e2e;
pub mod gen;
pub mod stats;
pub mod trace;

/// One reported metric: its name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    higher("witnesses_per_s", "1/s"),
    lower("rss_peak_mb", "MiB"),
    lower("prepare_p50_us", "us"),
    lower("count_p50_us", "us"),
    lower("enumerate_p50_us", "us"),
    lower("sample_p50_us", "us"),
    lower("prepare_p90_us", "us"),
    lower("count_p90_us", "us"),
    lower("enumerate_p90_us", "us"),
    lower("sample_p90_us", "us"),
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: &[MetricDef] = &[
    lower("serve.protocol.parse_ns", "ns"),
    lower("serve.protocol.reply_bytes", "bytes"),
    lower("serve.server.prepare_us", "us"),
    lower("serve.server.count_us", "us"),
    lower("serve.server.enumerate_us", "us"),
    lower("serve.server.sample_us", "us"),
    lower("serve.server.format_ns_per_witness", "ns"),
    lower("serve.pool.hop_us", "us"),
    higher("serve.pool.completed", "count"),
    lower("serve.pool.rejected", "count"),
    lower("serve.pool.expired", "count"),
    lower("serve.transport.threaded_us", "us"),
    lower("serve.transport.event_loop_us", "us"),
    lower("serve.router.hop_us", "us"),
    higher("serve.router.forwarded", "count"),
    lower("serve.router.failovers", "count"),
    lower("serve.router.backends_lost", "count"),
    lower("engine.resolve_us", "us"),
    lower("engine.resume_us", "us"),
    higher("engine.hits", "count"),
    lower("engine.misses", "count"),
    lower("engine.evictions", "count"),
    lower("engine.bytes", "bytes"),
    higher("engine.route.exact_unambiguous", "count"),
    higher("engine.route.exact_determinized", "count"),
    lower("engine.route.fpras", "count"),
    lower("automata.parse_us", "us"),
    lower("automata.unroll_us", "us"),
    lower("automata.unambiguity_us", "us"),
    lower("automata.degree_us", "us"),
    lower("automata.determinize_us", "us"),
    lower("automata.dag_nodes", "count"),
    lower("automata.dag_edges", "count"),
    lower("automata.dfa_states", "count"),
    lower("arith.completion_dp_us", "us"),
    lower("fpras.sketch_p50_ms", "ms"),
    lower("fpras.sketch_p90_ms", "ms"),
    lower("fpras.lv_draw_ns", "ns"),
    higher("fpras.lv_accept_ratio", "ratio"),
    lower("sample.table_draw_ns", "ns"),
    lower("enumerate.constant_delay_p50_ns", "ns"),
    lower("enumerate.constant_delay_p99_ns", "ns"),
    lower("enumerate.constant_delay_max_ns", "ns"),
    lower("enumerate.poly_delay_p50_ns", "ns"),
    lower("enumerate.poly_delay_p99_ns", "ns"),
    lower("enumerate.poly_delay_max_ns", "ns"),
    lower("trace.overhead_pct", "%"),
];

/// A run's metric values, in report order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Records a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}
