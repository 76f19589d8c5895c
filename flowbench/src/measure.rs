//! Interval bookkeeping shared by every workload: a run is cut into
//! [`INTERVALS`] equal wall-clock intervals, each interval yields one rate
//! and one latency distribution, and the reported figures are the slower
//! quartile over intervals (see [`Series`]).

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Intervals per run.
pub const INTERVALS: usize = 40;

/// Where a run's rate sits among its interval rates (the slower quartile).
const SLOW_RATE: f64 = 0.25;
/// Where a run's latency sits among its interval latencies.
const SLOW_LATENCY: f64 = 0.75;

/// Set-up rounds per run, the set-ups per round, and the idle gap before
/// each round.
const SETUP_ROUNDS: usize = 20;
const SETUPS_PER_ROUND: usize = 5;
const SETUP_GAP: Duration = Duration::from_millis(50);

/// Times [`SETUP_ROUNDS`] × [`SETUPS_PER_ROUND`] complete set-ups and
/// returns the median set-up time in seconds together with the last
/// set-up's product (the one the run uses). Earlier products are dropped
/// outside the timed region.
///
/// A set-up runs on the calling thread and never blocks, so it is timed in
/// that thread's CPU time ([`thread_cpu_ns`]): one preemption would
/// otherwise multiply a set-up of tens of microseconds. Each round starts
/// after the thread has idled for [`SETUP_GAP`], so every round starts
/// from the same state. On a two-vCPU Xeon guest, back-to-back set-ups of
/// `resident-deep` read alternately ~33 and ~50 µs from one 0.3 s moment
/// to the next, depending on what the core ran just before; 51 set-ups at
/// one moment put a run's median at either level (spread of ten runs
/// 0.29), while rounds after an idle gap read ~50 µs (spreads 0.10 and
/// 0.12 in two sets of ten runs).
pub fn time_setups<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUP_ROUNDS * SETUPS_PER_ROUND);
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        std::thread::sleep(SETUP_GAP);
        for _ in 0..SETUPS_PER_ROUND {
            drop(last.take());
            let t0 = thread_cpu_ns();
            let built = build();
            secs.push((thread_cpu_ns() - t0) as f64 / 1e9);
            last = Some(built);
        }
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// Runs `a` and `b` on two new threads over a grid of `seconds` that
/// starts once both threads are up. Returns the seconds from the first
/// spawn until both threads were running, the grid, and the two results.
///
/// The spawn is timed once, not folded into `setup_s`: a single spawn
/// swings between 0.2 and 1.6 ms on a shared host, and spawning threads
/// once per set-up repetition makes the peak RSS vary by megabytes.
pub fn run_pair<RA: Send, RB: Send>(
    seconds: f64,
    a: impl FnOnce(Grid) -> RA + Send,
    b: impl FnOnce(Grid) -> RB + Send,
) -> (f64, Grid, RA, RB) {
    let (ready, go) = (Barrier::new(3), Barrier::new(3));
    let grid = OnceLock::new();
    let start = || {
        ready.wait();
        go.wait();
        *grid
            .get()
            .expect("the grid is set before the threads are released")
    };
    std::thread::scope(|s| {
        let t0 = Instant::now();
        let ha = s.spawn(|| a(start()));
        let hb = s.spawn(|| b(start()));
        ready.wait();
        let spawn_s = t0.elapsed().as_secs_f64();
        let g = Grid::new(Instant::now() + Duration::from_millis(1), seconds);
        grid.set(g).ok();
        go.wait();
        let ra = ha.join().expect("workload thread panicked");
        let rb = hb.join().expect("workload thread panicked");
        (spawn_s, g, ra, rb)
    })
}

/// Median of `v` (the mean of the middle two for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `p`-quantile (0..=1) of `v`, linearly interpolated between
/// neighbouring values; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `p`-quantile (0..=1) of ascending `sorted`, linearly interpolated
/// between neighbouring samples; 0 when empty.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// CPU time the calling thread has run, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out the
/// stretches in which the host ran something else on the core, so a rate
/// over it measures the program rather than the neighbours. Only for
/// threads that never block: a blocked thread's waiting is left out too.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark reads
    // `/proc` and `/sys` on) for the whole call, and the clock id is a
    // valid constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Nanoseconds in a duration, saturating.
#[inline]
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-interval rates and latency quantiles of one operation stream.
///
/// A run reports the slower quartile of its intervals: the 25th
/// percentile of the interval rates and the 75th percentile of each
/// interval latency quantile. On a shared host a core spends most of the
/// time with a co-tenant on its caches and the rest in uncontended
/// stretches that come and go over seconds; the share of fast intervals
/// differs from run to run and drags the median with it, while the slower
/// quartile reads the contended state, which repeats. Over five 25 s runs
/// of `probe-poll` on a two-vCPU Xeon guest, the spread of the probe p50
/// (quartile distance over median) was 0.25 with the median and 0.05 with
/// the slower quartile.
#[derive(Default)]
pub struct Series {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p75: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    /// Latency samples over every closed interval.
    pub samples: u64,
    /// Operations over every closed interval.
    pub ops: u64,
}

impl Series {
    /// Closes an interval: `ops` completed operations over `secs` seconds
    /// of timed work, with per-operation latencies `lat_ns` (sorted in
    /// place; may be empty when the stream has no latency).
    pub fn close(&mut self, ops: u64, secs: f64, lat_ns: &mut [u64]) {
        self.ops += ops;
        if secs > 0.0 {
            self.rates.push(ops as f64 / secs);
        }
        if !lat_ns.is_empty() {
            lat_ns.sort_unstable();
            self.p50.push(quantile(lat_ns, 0.50));
            self.p75.push(quantile(lat_ns, 0.75));
            self.p90.push(quantile(lat_ns, 0.90));
            self.p99.push(quantile(lat_ns, 0.99));
            self.samples += lat_ns.len() as u64;
        }
    }

    /// The slower quartile's interval rate, operations per second.
    pub fn rate(&self) -> f64 {
        percentile(&self.rates, SLOW_RATE)
    }

    /// The slower quartile's interval p50 latency, microseconds.
    pub fn p50_us(&self) -> f64 {
        percentile(&self.p50, SLOW_LATENCY) / 1e3
    }

    /// The slower quartile's interval p75 latency, microseconds.
    pub fn p75_us(&self) -> f64 {
        percentile(&self.p75, SLOW_LATENCY) / 1e3
    }

    /// The slower quartile's interval p90 latency, microseconds.
    pub fn p90_us(&self) -> f64 {
        percentile(&self.p90, SLOW_LATENCY) / 1e3
    }

    /// The slower quartile's interval p99 latency, microseconds.
    pub fn p99_us(&self) -> f64 {
        percentile(&self.p99, SLOW_LATENCY) / 1e3
    }
}

/// The wall-clock grid both threads of a two-thread workload agree on:
/// interval `k` covers `[start + k·len, start + (k+1)·len)`.
#[derive(Clone, Copy)]
pub struct Grid {
    /// Start of interval 0.
    pub start: Instant,
    /// Interval length.
    pub len: Duration,
}

impl Grid {
    /// A grid of [`INTERVALS`] intervals over `seconds`, starting at `start`.
    pub fn new(start: Instant, seconds: f64) -> Self {
        Self {
            start,
            len: Duration::from_secs_f64(seconds / INTERVALS as f64),
        }
    }

    /// Interval holding `t` (`INTERVALS` or more once the run is over).
    #[inline]
    pub fn interval(&self, t: Instant) -> usize {
        (ns(t.saturating_duration_since(self.start)) / ns(self.len).max(1)) as usize
    }

    /// Start of interval `k`.
    pub fn at(&self, k: usize) -> Instant {
        self.start + self.len * k as u32
    }
}

/// Whether interval `k` of a run records per-layer spans: every other
/// interval of a traced run, so the untraced intervals in between give the
/// same run's untraced rate for the tracing-overhead figure.
#[inline]
pub fn traced(trace: bool, k: usize) -> bool {
    trace && k % 2 == 1
}

/// `100·part/whole`, or 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num/den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_samples() {
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.99), 4.96);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn series_reports_the_slower_quartile_of_intervals() {
        let mut s = Series::default();
        for (ops, lat) in [(100, 10), (200, 20), (300, 30), (400, 40), (500, 50)] {
            s.close(ops, 1.0, &mut [lat * 1000]);
        }
        assert_eq!(s.rate(), 200.0);
        assert_eq!(s.p50_us(), 40.0);
        assert_eq!(s.ops, 1500);
    }
}
