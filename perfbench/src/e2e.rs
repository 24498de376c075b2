//! The untraced end-to-end run: set up, drive the timed closed loop,
//! check every answer, and report what a client sees.

use std::time::{Duration, Instant};

use crate::check::Checker;
use crate::driver::{num_field, serve_config, Player, Record, Rig, Rung};
use crate::gen::{Kind, Verb, Workload};
use crate::stats::{median, percentile, rss_peak_mb, us, HostNoise, HostProbe};
use crate::Metrics;
use lsc_core::serve::json::Json;
use lsc_core::serve::ServeConfig;

/// Set-ups before the timed loop (the last one serves it).
pub const SETUPS_BEFORE: usize = 3;

/// Set-ups after the timed loop. `setup_s` is the median of all set-ups,
/// so it samples the host at both ends of the run, not in one burst.
pub const SETUPS_AFTER: usize = 4;

/// Timed records between two checking pauses.
pub const CHECK_BATCH: usize = 512;

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The metric values.
    pub metrics: Metrics,
    /// Replies checked (set-up and timed).
    pub attempted: u64,
    /// Replies that were not ok or failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
    /// The host's state over the run.
    pub host: HostNoise,
    /// Timed samples per verb, in [`Verb::ALL`] order.
    pub samples: Vec<(&'static str, usize)>,
    /// Wall time of the timed loop, s.
    pub elapsed_s: f64,
    /// Every set-up time, s.
    pub setups_s: Vec<f64>,
    /// Anything else worth reporting beside the metrics.
    pub extra: Json,
}

/// Witnesses a reply delivered (enumerated or sampled).
pub fn witnesses(record: &Record) -> u64 {
    match record.op.verb() {
        Some(Verb::Enumerate | Verb::Sample) => num_field(&record.reply, "returned").unwrap_or(0),
        _ => 0,
    }
}

/// Starts the stack and plays the workload's warm-up into `records`: one
/// set-up. Returns the live stack, its player and the set-up time in s.
fn set_up<'w>(
    workload: &'w Workload,
    config: &ServeConfig,
    records: &mut Vec<Record>,
) -> std::io::Result<(Rig, Player<'w>, f64)> {
    let start = Instant::now();
    let mut rig = Rig::start(Rung::of(workload.kind), config)?;
    let mut player = Player::new(workload);
    for &op in &workload.warmup {
        player.play(&mut rig, op, records)?;
    }
    Ok((rig, player, start.elapsed().as_secs_f64()))
}

/// Runs `kind` under `seed` for `seconds` of timed load.
///
/// # Errors
/// Failures to start the stack or to talk to it.
pub fn run(kind: Kind, seed: u64, seconds: f64, corrupt: bool) -> std::io::Result<Outcome> {
    let workload = Workload::generate(kind, seed);
    let config = serve_config(kind);
    let host = HostProbe::start();
    let mut setups_s = Vec::new();
    let mut setup_records = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        let (rig, _, took) = set_up(&workload, &config, &mut setup_records)?;
        setups_s.push(took);
        rig.stop();
    }
    let (mut rig, mut player, took) = set_up(&workload, &config, &mut setup_records)?;
    setups_s.push(took);
    let mut checker = Checker::new(&workload, corrupt);
    checker.check_all(&setup_records);
    setup_records.clear();

    // The timed loop runs in batches; checking a batch happens between
    // them, off the clock, so memory stays flat however fast the server.
    let budget = Duration::from_secs_f64(seconds);
    let mut elapsed = Duration::ZERO;
    let mut ops = workload.ops();
    let mut batch = Vec::with_capacity(CHECK_BATCH + 8);
    let mut latencies = vec![Vec::new(); Verb::ALL.len()];
    let (mut completed, mut delivered) = (0usize, 0u64);
    loop {
        let start = Instant::now();
        let over = player.play_batch(
            &mut rig,
            &mut ops,
            budget.saturating_sub(elapsed),
            CHECK_BATCH,
            &mut batch,
        )?;
        elapsed += start.elapsed();
        completed += batch.len();
        for record in &batch {
            delivered += witnesses(record);
            if let Some(verb) = record.op.verb() {
                latencies[verb as usize].push(us(record.ns));
            }
        }
        checker.check_all(&batch);
        batch.clear();
        if over || elapsed >= budget {
            break;
        }
    }
    let elapsed = elapsed.as_secs_f64();
    let rss = rss_peak_mb();
    let noise = host.finish();
    rig.stop();
    for _ in 0..SETUPS_AFTER {
        let (rig, _, took) = set_up(&workload, &config, &mut setup_records)?;
        setups_s.push(took);
        rig.stop();
    }
    checker.check_all(&setup_records);

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&mut setups_s.clone()));
    metrics.set("ops_per_s", completed as f64 / elapsed);
    metrics.set("witnesses_per_s", delivered as f64 / elapsed);
    metrics.set("rss_peak_mb", rss);
    for (q, names) in [
        (
            0.5,
            [
                "prepare_p50_us",
                "count_p50_us",
                "enumerate_p50_us",
                "sample_p50_us",
            ],
        ),
        (
            0.9,
            [
                "prepare_p90_us",
                "count_p90_us",
                "enumerate_p90_us",
                "sample_p90_us",
            ],
        ),
    ] {
        for (values, name) in latencies.iter_mut().zip(names) {
            metrics.set(name, percentile(values, q));
        }
    }
    let mut failed = checker.failed;
    let mut messages = checker.messages;
    for (name, value) in &metrics.0 {
        if !value.is_finite() || *value <= 0.0 {
            failed += 1;
            messages.push(format!("metric {name} has no measurement ({value})"));
        }
    }
    Ok(Outcome {
        metrics,
        attempted: checker.checked,
        failed,
        messages,
        host: noise,
        samples: Verb::ALL
            .iter()
            .map(|v| (v.name(), latencies[*v as usize].len()))
            .collect(),
        elapsed_s: elapsed,
        setups_s,
        extra: Json::Null,
    })
}
