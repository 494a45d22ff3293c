//! Sample statistics, CPU and memory readings of the process, and window deltas of
//! the program's own instruments (registry, pause log, timelines).

use std::collections::BTreeMap;

use mst_telemetry::timeline::{ProcTimeline, NSTATES};
use mst_telemetry::{pauselog, GcPause, HistogramSnapshot, ProcState};

/// The nearest-rank `q`-quantile of `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `struct timespec` on Linux, where `time_t` is a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

/// Reads one of the kernel's CPU-time clocks in nanoseconds. Unlike the
/// `/proc` counters, which fold a running thread's time in only at
/// scheduler ticks, these clocks include the current slice, so short
/// intervals (one request, one spin) are measured exactly.
fn cpu_clock_ns(clock: std::ffi::c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock` is one of the two fixed CPU-time clock ids above,
    // which the kernel accepts for the calling process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (user + system, all threads including
/// exited ones) in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Registry instruments read at the start and end of a window.
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Registry {
    /// Reads every registered counter and histogram.
    pub fn read() -> Registry {
        let snap = mst_telemetry::registry::snapshot();
        Registry {
            counters: snap.counters.into_iter().collect(),
            histograms: snap.histograms.into_iter().collect(),
        }
    }

    /// Growth of counter `name` since `before`.
    pub fn counter_since(&self, before: &Registry, name: &str) -> u64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(before.counters.get(name).copied().unwrap_or(0))
    }

    /// Samples histogram `name` recorded since `before` (`max` is the
    /// all-time maximum, which a delta cannot recover).
    pub fn histogram_since(&self, before: &Registry, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot {
            buckets: [0; mst_telemetry::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        };
        let now = self.histograms.get(name).copied().unwrap_or(empty);
        let then = before.histograms.get(name).copied().unwrap_or(empty);
        let mut d = now;
        for (b, t) in d.buckets.iter_mut().zip(then.buckets) {
            *b = b.saturating_sub(t);
        }
        d.count = now.count.saturating_sub(then.count);
        d.sum = now.sum.saturating_sub(then.sum);
        d
    }
}

/// Per-state nanoseconds accounted between two readings, summed over the
/// processors `only` admits (one first registered in between counts from
/// zero).
pub fn timeline_since(
    before: &[ProcTimeline],
    after: &[ProcTimeline],
    only: impl Fn(usize) -> bool,
) -> [u64; NSTATES] {
    let mut total = [0u64; NSTATES];
    for a in after.iter().filter(|a| only(a.proc)) {
        let b = before.iter().find(|b| b.proc == a.proc);
        for (i, t) in total.iter_mut().enumerate() {
            *t += a.ns[i].saturating_sub(b.map_or(0, |b| b.ns[i]));
        }
    }
    total
}

/// Share of accounted processor time spent in `state` (0 when nothing was
/// accounted).
pub fn state_share(ns: &[u64; NSTATES], state: ProcState) -> f64 {
    let total: u64 = ns.iter().sum();
    if total == 0 {
        0.0
    } else {
        ns[state as usize] as f64 / total as f64
    }
}

/// Collects GC pauses from the program's bounded pause log. The log keeps
/// only its newest records, so a window is sampled repeatedly and the
/// readings are merged, keyed by kind and start time.
#[derive(Default)]
pub struct Pauses {
    seen: BTreeMap<(u64, &'static str), GcPause>,
}

impl Pauses {
    /// Merges the log's current records.
    pub fn sample(&mut self) {
        for p in pauselog::snapshot().0 {
            self.seen.entry((p.start_ns, p.kind)).or_insert(p);
        }
    }

    /// Pauses of `kinds` that started inside `[t0, t1)` (`now_ns` clock).
    pub fn within(&self, t0: u64, t1: u64, kinds: &[&str]) -> Vec<&GcPause> {
        self.seen
            .values()
            .filter(|p| p.start_ns >= t0 && p.start_ns < t1 && kinds.contains(&p.kind))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let (c0, p0) = (thread_cpu_ns(), process_cpu_ns());
        // Well under a 4 ms scheduler tick: the clocks include the running
        // slice, so even this short spin must register.
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_micros(500) {
            std::hint::spin_loop();
        }
        let (c1, p1) = (thread_cpu_ns(), process_cpu_ns());
        assert!(c1 > c0 && p1 > p0);
    }
}
