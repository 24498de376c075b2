//! Percentiles and the host-noise record.

/// Nearest-rank percentile `q ∈ (0, 1]` of `values` (sorted in place).
/// `NaN` for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// CPUs online on the host (`/sys/devices/system/cpu/online`, a list
/// of ranges such as `0-1`): the harness takes turns over them, so the
/// process's own affinity would read 1.
fn online_cpus() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    text.trim().split(',').try_fold(0, |total, range| {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        Some(total + hi.checked_sub(lo)? + 1)
    })
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The host's state over one measured interval.
#[derive(Clone, Debug, Default)]
pub struct HostNoise {
    /// Logical CPUs online.
    pub nproc: usize,
    /// Share of CPU time stolen by the hypervisor over the interval, %.
    pub steal_pct: f64,
    /// One-minute load average at the end of the interval.
    pub loadavg: f64,
    /// Threads in this process at the end of the interval.
    pub threads: u64,
}

/// Opens a host-noise interval.
pub struct HostProbe {
    start: Option<(u64, u64)>,
}

impl HostProbe {
    /// Samples the counters now.
    pub fn start() -> HostProbe {
        HostProbe {
            start: cpu_jiffies(),
        }
    }

    /// Closes the interval.
    pub fn finish(&self) -> HostNoise {
        let steal_pct = match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse().ok())
            .unwrap_or(f64::NAN);
        HostNoise {
            nproc: online_cpus()
                .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
                .unwrap_or(1),
            steal_pct,
            loadavg,
            threads: status_field("Threads:").unwrap_or(0),
        }
    }
}
