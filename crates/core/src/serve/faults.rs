//! Deterministic fault injection for the serve/snapshot stack.
//!
//! The serving layer's recovery claims — "a reset connection costs a
//! reconnect, never a wrong answer", "a crashed snapshot write costs a
//! re-prepare, never a torn artifact" — are only claims until something
//! *injects* those failures on a schedule the tests control. This module
//! is that schedule: a [`FaultPlan`] seeded with SplitMix64 (the same
//! vendored-RNG discipline as the shard-stress op log) decides, per I/O
//! site and per operation index, whether the next operation proceeds
//! cleanly or fails in one of the planned ways:
//!
//! * **short reads** — a stream read returns fewer bytes than asked;
//! * **partial writes** — a stream write accepts a prefix of the buffer;
//! * **mid-frame resets** — a write pushes *half* a response line onto
//!   the wire, then the connection dies (the cruelest tear: the peer sees
//!   a syntactically plausible prefix);
//! * **slow I/O** — an operation stalls before completing (exercises the
//!   socket timeouts);
//! * **disk write errors** — a snapshot save fails cleanly;
//! * **torn snapshot writes** — a snapshot save crashes mid-`tmp`-file,
//!   leaving the stale `.tmp` the startup sweep must reap;
//! * **queued-job panics** — a worker job panics mid-execution
//!   (contained by the pool; the client sees a typed `internal` error).
//!
//! **Determinism.** A decision is a pure function of `(seed, site,
//! index)` — no global RNG, no time dependence — so a failing chaos run
//! replays exactly from its seed. Concurrent connections interleave their
//! *index draws* nondeterministically (each site keeps one atomic
//! counter), but the chaos suite never asserts on *which* operation
//! failed — only that every completed answer is correct — so schedule
//! interleaving is free while the fault *mix* stays pinned.
//!
//! **Zero overhead when disabled.** Everything threads through as an
//! `Option<Arc<FaultPlan>>`; the disabled path is a single `None` branch
//! per I/O call ([`FaultyStream`] compiles to a passthrough), which is
//! noise against a syscall. The serve benches run with faults disabled
//! and pin the RTT.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::splitmix64;

/// Where in the stack an operation is about to happen. Each site draws
/// from its own decision stream (own salt, own operation counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A connection-stream read (blocking, thread-per-connection transport).
    StreamRead,
    /// A connection-stream write (blocking transport).
    StreamWrite,
    /// A snapshot-store save.
    SnapshotWrite,
    /// A queued worker job about to execute.
    Job,
    /// A nonblocking read driven by a readiness event (event-loop
    /// transport). Its own decision stream, so the two transports draw
    /// the same fault *mix* without aliasing each other's schedules.
    EventRead,
    /// A nonblocking write driven by a readiness event (event-loop
    /// transport).
    EventWrite,
    /// A router front connection or a router→backend forward (cluster
    /// router). Its own decision stream so router chaos does not alias
    /// the backends' stream schedules.
    RouterForward,
    /// A snapshot export/import shipped between stores by the router on
    /// topology change.
    SnapshotShip,
}

impl FaultSite {
    /// Every fault site in the stack, in stats-index order. Tests iterate
    /// this instead of hand-listing variants so a new site cannot ship
    /// without chaos coverage.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::StreamRead,
        FaultSite::StreamWrite,
        FaultSite::SnapshotWrite,
        FaultSite::Job,
        FaultSite::EventRead,
        FaultSite::EventWrite,
        FaultSite::RouterForward,
        FaultSite::SnapshotShip,
    ];

    fn salt(self) -> u64 {
        match self {
            FaultSite::StreamRead => 0x5EAD_0001,
            FaultSite::StreamWrite => 0x5EAD_0002,
            FaultSite::SnapshotWrite => 0x5EAD_0003,
            FaultSite::Job => 0x5EAD_0004,
            FaultSite::EventRead => 0x5EAD_0005,
            FaultSite::EventWrite => 0x5EAD_0006,
            FaultSite::RouterForward => 0x5EAD_0007,
            FaultSite::SnapshotShip => 0x5EAD_0008,
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::StreamRead => 0,
            FaultSite::StreamWrite => 1,
            FaultSite::SnapshotWrite => 2,
            FaultSite::Job => 3,
            FaultSite::EventRead => 4,
            FaultSite::EventWrite => 5,
            FaultSite::RouterForward => 6,
            FaultSite::SnapshotShip => 7,
        }
    }
}

/// What the plan injects into one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Deliver fewer bytes than the caller asked for (reads only).
    ShortRead,
    /// Accept a prefix of the buffer (writes only).
    PartialWrite,
    /// Fail with `ConnectionReset` — on writes, after pushing half the
    /// buffer onto the wire first (a mid-frame tear).
    Reset,
    /// Stall for the configured [`FaultConfig::slow_io`] before
    /// proceeding normally.
    SlowIo,
    /// Fail a snapshot save with an I/O error before any bytes move.
    DiskError,
    /// Crash a snapshot save mid-`tmp`-file: a prefix of the bytes lands
    /// on disk under the `.tmp` name and the save errors out.
    TornWrite,
    /// Panic inside the queued job (the worker pool contains it).
    Panic,
}

/// One planned fault plus an auxiliary draw (used where the fault needs
/// a size — e.g. how many bytes of a torn write survive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// The fault to inject.
    pub fault: Fault,
    /// A deterministic auxiliary value derived from the same decision
    /// draw (torn-write prefix length, short-read byte budget, ...).
    pub aux: u64,
}

/// Per-site fault probabilities, in parts per 1024 of operations.
///
/// Rates are per *operation class at that site*: e.g. `reset_per_1024 =
/// 64` resets ~6% of stream operations. The default plan is all-zeros
/// (a seeded but inert plan); the chaos suite turns on what it tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// The master seed: the entire schedule is a pure function of it.
    pub seed: u64,
    /// Stream reads that return fewer bytes than asked.
    pub short_read_per_1024: u16,
    /// Stream writes that accept only a prefix.
    pub partial_write_per_1024: u16,
    /// Stream operations that die with `ConnectionReset` (writes tear
    /// mid-frame first).
    pub reset_per_1024: u16,
    /// Stream operations that stall for [`FaultConfig::slow_io`] first.
    pub slow_io_per_1024: u16,
    /// The stall injected by slow-I/O faults.
    pub slow_io: Duration,
    /// Snapshot saves that fail cleanly with an I/O error.
    pub disk_error_per_1024: u16,
    /// Snapshot saves that crash mid-`tmp`-file (leaving the stale
    /// `.tmp` for the startup sweep).
    pub torn_write_per_1024: u16,
    /// Queued jobs that panic mid-execution.
    pub job_panic_per_1024: u16,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            short_read_per_1024: 0,
            partial_write_per_1024: 0,
            reset_per_1024: 0,
            slow_io_per_1024: 0,
            slow_io: Duration::from_millis(5),
            disk_error_per_1024: 0,
            torn_write_per_1024: 0,
            job_panic_per_1024: 0,
        }
    }
}

impl FaultConfig {
    /// The chaos suite's standard mix under `seed`: a few percent of
    /// stream operations fail (resets, short reads, partial writes, the
    /// occasional stall), snapshot saves occasionally tear or error, and
    /// the odd queued job panics. Everything the recovery machinery must
    /// survive, at rates high enough to fire in a smoke-sized run.
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            short_read_per_1024: 48,
            partial_write_per_1024: 48,
            reset_per_1024: 24,
            slow_io_per_1024: 8,
            slow_io: Duration::from_millis(2),
            disk_error_per_1024: 96,
            torn_write_per_1024: 96,
            job_panic_per_1024: 16,
        }
    }
}

/// How many faults of each kind the plan has actually injected — the
/// observability half of the chaos harness (tests assert the run was
/// not accidentally fault-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Short reads injected.
    pub short_reads: u64,
    /// Partial writes injected.
    pub partial_writes: u64,
    /// Connection resets injected.
    pub resets: u64,
    /// Slow-I/O stalls injected.
    pub slow_ios: u64,
    /// Snapshot disk errors injected.
    pub disk_errors: u64,
    /// Torn snapshot writes injected.
    pub torn_writes: u64,
    /// Job panics injected.
    pub job_panics: u64,
}

impl FaultStats {
    /// Total faults injected across every class.
    pub fn total(&self) -> u64 {
        self.short_reads
            + self.partial_writes
            + self.resets
            + self.slow_ios
            + self.disk_errors
            + self.torn_writes
            + self.job_panics
    }
}

/// A seeded fault schedule shared by every wrapped I/O site. See the
/// module docs for the determinism and overhead contracts.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    /// One operation counter per site (indexed by [`FaultSite::index`]).
    counters: [AtomicU64; 8],
    short_reads: AtomicU64,
    partial_writes: AtomicU64,
    resets: AtomicU64,
    slow_ios: AtomicU64,
    disk_errors: AtomicU64,
    torn_writes: AtomicU64,
    job_panics: AtomicU64,
}

impl FaultPlan {
    /// A plan executing `config`'s schedule.
    pub fn new(config: FaultConfig) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            config,
            counters: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            short_reads: AtomicU64::new(0),
            partial_writes: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            slow_ios: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            job_panics: AtomicU64::new(0),
        })
    }

    /// The configuration this plan executes.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// What the plan would decide for operation `index` at `site` — the
    /// pure function underneath [`FaultPlan::decide`], exposed so tests
    /// can pin the schedule without consuming counter state.
    pub fn decision_at(&self, site: FaultSite, index: u64) -> Option<PlannedFault> {
        let draw = splitmix64(self.config.seed ^ site.salt() ^ index.wrapping_mul(0x9E37));
        let roll = (draw % 1024) as u16;
        let aux = splitmix64(draw);
        let c = &self.config;
        // Partition [0, 1024) into per-fault bands, site by site. A roll
        // past every band is a clean operation.
        let mut band = 0u16;
        let mut hit = |rate: u16, fault: Fault| -> Option<PlannedFault> {
            let lo = band;
            band = band.saturating_add(rate);
            (lo..band)
                .contains(&roll)
                .then_some(PlannedFault { fault, aux })
        };
        match site {
            // Readiness-driven reads/writes draw from the same rate knobs as
            // the blocking stream sites (the chaos mix applies to any
            // transport) but on their own salted streams.
            FaultSite::StreamRead | FaultSite::EventRead => hit(c.reset_per_1024, Fault::Reset)
                .or_else(|| hit(c.short_read_per_1024, Fault::ShortRead))
                .or_else(|| hit(c.slow_io_per_1024, Fault::SlowIo)),
            FaultSite::StreamWrite | FaultSite::EventWrite => hit(c.reset_per_1024, Fault::Reset)
                .or_else(|| hit(c.partial_write_per_1024, Fault::PartialWrite))
                .or_else(|| hit(c.slow_io_per_1024, Fault::SlowIo)),
            // Router front/forward traffic is duplex behind one site; the
            // reset band covers both directions and the read-only /
            // write-only bands are applied by whichever half draws them.
            FaultSite::RouterForward => hit(c.reset_per_1024, Fault::Reset)
                .or_else(|| hit(c.short_read_per_1024, Fault::ShortRead))
                .or_else(|| hit(c.partial_write_per_1024, Fault::PartialWrite))
                .or_else(|| hit(c.slow_io_per_1024, Fault::SlowIo)),
            FaultSite::SnapshotWrite | FaultSite::SnapshotShip => {
                hit(c.disk_error_per_1024, Fault::DiskError)
                    .or_else(|| hit(c.torn_write_per_1024, Fault::TornWrite))
            }
            FaultSite::Job => hit(c.job_panic_per_1024, Fault::Panic),
        }
    }

    /// Draws the next operation index for `site` and returns the planned
    /// fault, if any, recording it in the injected-fault counters.
    pub fn decide(&self, site: FaultSite) -> Option<PlannedFault> {
        let index = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        let planned = self.decision_at(site, index)?;
        let counter = match planned.fault {
            Fault::ShortRead => &self.short_reads,
            Fault::PartialWrite => &self.partial_writes,
            Fault::Reset => &self.resets,
            Fault::SlowIo => &self.slow_ios,
            Fault::DiskError => &self.disk_errors,
            Fault::TornWrite => &self.torn_writes,
            Fault::Panic => &self.job_panics,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(planned)
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            short_reads: self.short_reads.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            slow_ios: self.slow_ios.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            job_panics: self.job_panics.load(Ordering::Relaxed),
        }
    }

    /// The stall for slow-I/O faults.
    pub fn slow_io(&self) -> Duration {
        self.config.slow_io
    }
}

/// The injected `ConnectionReset` error (distinguishable in logs from a
/// real peer reset by its message).
fn reset_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected: connection reset")
}

/// A `Read + Write` wrapper that consults a [`FaultPlan`] before every
/// operation. With no plan it forwards untouched — the production
/// configuration compiles to a passthrough.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: Option<Arc<FaultPlan>>,
    read_site: FaultSite,
    write_site: FaultSite,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan` (`None` disables injection entirely),
    /// drawing from the blocking-transport sites
    /// ([`FaultSite::StreamRead`] / [`FaultSite::StreamWrite`]).
    pub fn new(inner: S, plan: Option<Arc<FaultPlan>>) -> FaultyStream<S> {
        FaultyStream::with_sites(inner, plan, FaultSite::StreamRead, FaultSite::StreamWrite)
    }

    /// Wraps `inner` drawing decisions from explicit sites — how the
    /// event-loop transport routes its nonblocking socket I/O through
    /// [`FaultSite::EventRead`] / [`FaultSite::EventWrite`].
    pub fn with_sites(
        inner: S,
        plan: Option<Arc<FaultPlan>>,
        read_site: FaultSite,
        write_site: FaultSite,
    ) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan,
            read_site,
            write_site,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(plan) = &self.plan else {
            return self.inner.read(buf);
        };
        match plan.decide(self.read_site) {
            Some(PlannedFault {
                fault: Fault::Reset,
                ..
            }) => Err(reset_error()),
            Some(PlannedFault {
                fault: Fault::ShortRead,
                aux,
            }) if buf.len() > 1 => {
                // Deliver a nonempty strict prefix: correctness must not
                // depend on any read filling its buffer.
                let n = 1 + (aux as usize) % (buf.len() - 1);
                self.inner.read(&mut buf[..n])
            }
            Some(PlannedFault {
                fault: Fault::SlowIo,
                ..
            }) => {
                std::thread::sleep(plan.slow_io());
                self.inner.read(buf)
            }
            _ => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(plan) = &self.plan else {
            return self.inner.write(buf);
        };
        match plan.decide(self.write_site) {
            Some(PlannedFault {
                fault: Fault::Reset,
                ..
            }) => {
                // The mid-frame tear: push half the frame, then die. The
                // peer sees a prefix of a response line with no newline.
                if buf.len() > 1 {
                    let _ = self.inner.write(&buf[..buf.len() / 2]);
                    let _ = self.inner.flush();
                }
                Err(reset_error())
            }
            Some(PlannedFault {
                fault: Fault::PartialWrite,
                aux,
            }) if buf.len() > 1 => {
                let n = 1 + (aux as usize) % (buf.len() - 1);
                self.inner.write(&buf[..n])
            }
            Some(PlannedFault {
                fault: Fault::SlowIo,
                ..
            }) => {
                std::thread::sleep(plan.slow_io());
                self.inner.write(buf)
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_and_index() {
        let a = FaultPlan::new(FaultConfig::chaos(42));
        let b = FaultPlan::new(FaultConfig::chaos(42));
        let c = FaultPlan::new(FaultConfig::chaos(43));
        let mut diverged = false;
        for site in FaultSite::ALL {
            for index in 0..2048 {
                assert_eq!(a.decision_at(site, index), b.decision_at(site, index));
                if a.decision_at(site, index) != c.decision_at(site, index) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds must give different schedules");
    }

    #[test]
    fn chaos_rates_actually_fire() {
        let plan = FaultPlan::new(FaultConfig::chaos(7));
        let mut stream_faults = 0usize;
        let mut snap_faults = 0usize;
        for index in 0..4096 {
            if plan.decision_at(FaultSite::StreamWrite, index).is_some() {
                stream_faults += 1;
            }
            if plan.decision_at(FaultSite::SnapshotWrite, index).is_some() {
                snap_faults += 1;
            }
        }
        // ~12% of stream writes, ~19% of snapshot saves at the chaos mix.
        assert!(
            stream_faults > 64,
            "stream faults must fire: {stream_faults}"
        );
        assert!(
            snap_faults > 128,
            "snapshot faults must fire: {snap_faults}"
        );
    }

    #[test]
    fn every_site_is_triggerable_under_chaos() {
        // Enumerate ALL (not a hand-picked subset): each site's decision
        // stream must actually fire under the standard chaos mix, and the
        // indices must be distinct so no site aliases another's stream.
        let plan = FaultPlan::new(FaultConfig::chaos(11));
        let mut indices = std::collections::BTreeSet::new();
        for site in FaultSite::ALL {
            assert!(indices.insert(site.index()), "{site:?} reuses an index");
            let fired = (0..4096).any(|i| plan.decision_at(site, i).is_some());
            assert!(fired, "{site:?} never fires under FaultConfig::chaos");
        }
        assert_eq!(indices.len(), FaultSite::ALL.len());
    }

    #[test]
    fn event_sites_share_rates_but_not_schedules() {
        // The readiness sites fire under the standard chaos mix (same rate
        // knobs as the blocking stream sites)...
        let plan = FaultPlan::new(FaultConfig::chaos(5));
        let stream: Vec<_> = (0..512)
            .map(|i| plan.decision_at(FaultSite::StreamRead, i))
            .collect();
        let event: Vec<_> = (0..512)
            .map(|i| plan.decision_at(FaultSite::EventRead, i))
            .collect();
        assert!(event.iter().any(Option::is_some));
        // ...but on their own salted decision streams.
        assert_ne!(stream, event, "sites must not alias one another");

        // A FaultyStream routed at the event sites records its injections.
        let plan = FaultPlan::new(FaultConfig {
            seed: 9,
            reset_per_1024: 1024,
            ..FaultConfig::default()
        });
        let mut s = FaultyStream::with_sites(
            std::io::Cursor::new(b"data".to_vec()),
            Some(plan.clone()),
            FaultSite::EventRead,
            FaultSite::EventWrite,
        );
        assert!(s.read(&mut [0u8; 4]).is_err());
        assert!(s.write(b"0123456789").is_err());
        assert_eq!(plan.stats().resets, 2);
    }

    #[test]
    fn disabled_stream_is_a_passthrough() {
        let mut stream = FaultyStream::new(std::io::Cursor::new(Vec::new()), None);
        stream.write_all(b"hello world").unwrap();
        stream.flush().unwrap();
        let mut stream = FaultyStream::new(std::io::Cursor::new(b"hello".to_vec()), None);
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn injected_resets_and_short_reads_surface() {
        // A reset-only plan at full rate: the very first operation fails.
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            reset_per_1024: 1024,
            ..FaultConfig::default()
        });
        let mut stream =
            FaultyStream::new(std::io::Cursor::new(b"data".to_vec()), Some(plan.clone()));
        let err = stream.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let err = stream.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The tear left a strict prefix of the frame in the stream.
        let written = stream.get_ref().get_ref();
        assert_eq!(written.len(), 5, "half the frame on the wire");
        assert_eq!(plan.stats().resets, 2);

        // A short-read-only plan: reads deliver nonempty strict prefixes.
        let plan = FaultPlan::new(FaultConfig {
            seed: 2,
            short_read_per_1024: 1024,
            ..FaultConfig::default()
        });
        let mut stream = FaultyStream::new(
            std::io::Cursor::new(b"abcdefgh".to_vec()),
            Some(plan.clone()),
        );
        let mut buf = [0u8; 8];
        let n = stream.read(&mut buf).unwrap();
        assert!(
            (1..8).contains(&n),
            "short read must be a strict prefix: {n}"
        );
        assert!(plan.stats().short_reads >= 1);
    }

    #[test]
    fn aggregate_stats_sum_the_classes() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            partial_write_per_1024: 1024,
            ..FaultConfig::default()
        });
        let mut stream = FaultyStream::new(std::io::Cursor::new(Vec::new()), Some(plan.clone()));
        // write_all loops over the injected partial writes and completes.
        stream
            .write_all(b"the whole frame eventually lands")
            .unwrap();
        assert_eq!(
            stream.get_ref().get_ref().as_slice(),
            b"the whole frame eventually lands"
        );
        let stats = plan.stats();
        assert!(stats.partial_writes >= 1);
        assert_eq!(stats.total(), stats.partial_writes);
    }
}
