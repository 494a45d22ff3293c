//! Metric definitions, the values a run measures, and the output formats.
//!
//! The tables here are the one place that names each metric, its unit, how
//! it is measured and, for layer metrics, which end-to-end metric it should
//! move on which workload and where it should stay flat. A self-test keeps
//! them identical to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// How the value is measured.
    pub from: &'static str,
    /// Layer metrics: what it should move, on which workload, and where it
    /// should stay flat or near zero.
    pub predicts: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    from: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        from,
        predicts: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    from: &'static str,
    predicts: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        from,
        predicts,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "median over several set-ups of workload start to first timed op: bootstrap or template \
         build, session warm-up, competitors spawned"),
    e2e("latency_p50_ms", "ms", Lower, 0.25,
        "median op latency; serve-mixed times each request from its due time"),
    e2e("latency_p99_ms", "ms", Lower, 0.25,
        "nearest-rank p99 of the same samples"),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25,
        "ops completed per second of the timed window (serve-mixed: the offered rate it kept up with)"),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25,
        "whole-process CPU time (utime + stime) per op, idle interpreters spinning included \
         (serve-mixed: less the generator's spin until due times)"),
    e2e("client_cpu_ms_per_op", "ms", Lower, 0.25,
        "CPU time of the client thread (serve-mixed: the executor threads, less their spin \
         until due times) per op"),
    e2e("recovery_ms", "ms", Lower, 0.25,
        "median of several restarts from disk: Server::recover of every tenant (serve-mixed) or \
         MsSystem::from_snapshot_file of the image saved at the end of the run"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "VmHWM at the end of the run, in MiB"),
];

/// Per-layer metrics, measured in a separate traced run (`--trace 1`).
pub const LAYERS: &[Metric] = &[
    layer(
        "image.bootstrap_ms",
        "ms",
        Lower,
        "MsSystem::new span",
        "setup_s on ide-*, old-churn and serve-mixed (template build)",
    ),
    layer(
        "compiler.prepare_us",
        "us",
        Lower,
        "median MsSystem::prepare span",
        "latency_p50_ms on ide-solo; flat on old-churn (one prepare), 0 on serve-mixed",
    ),
    layer(
        "interp.run_ms",
        "ms",
        Lower,
        "median run_prepared / run_prepared_rooted span",
        "latency_p50_ms and throughput_ops_s on ide-solo; 0 on serve-mixed",
    ),
    layer(
        "interp.bytecodes_per_s",
        "1/s",
        Higher,
        "Vm::counters() bytecodes delta per window second",
        "throughput_ops_s on ide-solo; 0 on serve-mixed (sessions are private to the server)",
    ),
    layer(
        "interp.sends_per_op",
        "count",
        Lower,
        "Vm::counters() sends delta per op",
        "throughput_ops_s on ide-solo; 0 on serve-mixed",
    ),
    layer(
        "interp.cache_hit_ratio",
        "ratio",
        Higher,
        "Vm::counters() cache hits / lookups",
        "throughput_ops_s on ide-solo; 0 on serve-mixed",
    ),
    layer(
        "interp.context_recycle_ratio",
        "ratio",
        Higher,
        "Vm::counters() recycled / (recycled + allocated) contexts",
        "throughput_ops_s on ide-solo; 0 on serve-mixed",
    ),
    layer(
        "interp.idle_share",
        "ratio",
        Lower,
        "timeline Idle share of processor time",
        "cpu_ms_per_op (not latency) on ide-solo; flat on serve-mixed (1 processor per tenant)",
    ),
    layer(
        "objmem.scavenges",
        "count",
        Lower,
        "scavenge pauses in the window (pause log)",
        "latency_p99_ms and throughput_ops_s on old-churn; small on ide-solo",
    ),
    layer(
        "objmem.scavenge_p50_us",
        "us",
        Lower,
        "median scavenge pause (pause log)",
        "latency_p99_ms on old-churn; small on ide-solo",
    ),
    layer(
        "objmem.scavenge_p99_us",
        "us",
        Lower,
        "p99 scavenge pause (pause log)",
        "latency_p99_ms on old-churn; small on ide-solo",
    ),
    layer(
        "objmem.survived_words_per_scavenge",
        "words",
        Lower,
        "gc_stats() words_survived delta per scavenge",
        "throughput_ops_s on old-churn; small on ide-solo; 0 on serve-mixed",
    ),
    layer(
        "objmem.tenured_words",
        "words",
        Lower,
        "gc_stats() words_tenured delta",
        "latency_p99_ms on old-churn; small on ide-solo; 0 on serve-mixed",
    ),
    layer(
        "objmem.full_gcs",
        "count",
        Lower,
        "full-GC pauses in the window (pause log)",
        "latency_p99_ms on old-churn; 0 on ide-* and serve-mixed",
    ),
    layer(
        "objmem.fullgc_pause_ms",
        "ms",
        Lower,
        "median full-GC pause (pause log)",
        "latency_p99_ms on old-churn; 0 on ide-* and serve-mixed",
    ),
    layer(
        "objmem.fullgc.mark_ms",
        "ms",
        Lower,
        "mean full-GC mark phase (pause log)",
        "latency_p99_ms on old-churn; 0 on ide-* and serve-mixed",
    ),
    layer(
        "objmem.fullgc.update_ms",
        "ms",
        Lower,
        "mean full-GC update phase (pause log)",
        "latency_p99_ms on old-churn; 0 on ide-* and serve-mixed",
    ),
    layer(
        "objmem.fullgc.move_ms",
        "ms",
        Lower,
        "mean full-GC move phase (pause log)",
        "latency_p99_ms on old-churn; 0 on ide-* and serve-mixed",
    ),
    layer(
        "objmem.fullgc.clear_ms",
        "ms",
        Lower,
        "mean full-GC clear phase (pause log)",
        "latency_p99_ms on old-churn; 0 on ide-* and serve-mixed",
    ),
    layer(
        "objmem.gc_share",
        "ratio",
        Lower,
        "GC pause time / window wall time",
        "throughput_ops_s on old-churn; small on ide-solo",
    ),
    layer(
        "objmem.gc_helper_share",
        "ratio",
        Lower,
        "timeline GcHelper share of processor time",
        "throughput_ops_s on old-churn; ~0 on ide-solo",
    ),
    layer(
        "objmem.snapshot_save_ms",
        "ms",
        Lower,
        "median save_snapshot_file span",
        "setup_s on serve-mixed (template), recovery_ms set-up elsewhere",
    ),
    layer(
        "vkernel.safepoint_stops",
        "count",
        Lower,
        "safepoint.stops delta",
        "client_cpu_ms_per_op and latency_p50_ms on ide-busy; low on ide-solo",
    ),
    layer(
        "vkernel.time_to_stop_mean_us",
        "us",
        Lower,
        "safepoint.time_to_stop_ns delta, mean (exact; the log2 buckets would make a quantile read as a bucket bound)",
        "client_cpu_ms_per_op and latency_p50_ms on ide-busy; low on ide-solo",
    ),
    layer(
        "vkernel.park_mean_us",
        "us",
        Lower,
        "safepoint.park_ns delta, mean (exact, as above)",
        "client_cpu_ms_per_op and latency_p50_ms on ide-busy; low on ide-solo",
    ),
    layer(
        "vkernel.lock_contended",
        "count",
        Lower,
        "lock.contended delta",
        "client_cpu_ms_per_op on ide-busy; ~0 on ide-solo",
    ),
    layer(
        "vkernel.lock_spin_ms",
        "ms",
        Lower,
        "lock.spin_wait_ns delta sum",
        "client_cpu_ms_per_op on ide-busy; ~0 on ide-solo",
    ),
    layer(
        "vkernel.safepoint_wait_share",
        "ratio",
        Lower,
        "timeline SafepointWait share of the client processors' time",
        "client_cpu_ms_per_op on ide-busy; ~0 on ide-solo",
    ),
    layer(
        "vkernel.lock_spin_share",
        "ratio",
        Lower,
        "timeline LockSpin share of the client processors' time",
        "client_cpu_ms_per_op on ide-busy; ~0 on ide-solo",
    ),
    layer(
        "serve.request_us",
        "us",
        Lower,
        "median Server::request span",
        "latency_p50_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.wait_ms",
        "ms",
        Lower,
        "p99 of due time to call start",
        "latency_p99_ms and serve.generator_lag_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.queue_wait_us",
        "us",
        Lower,
        "mean serve.queue_wait_ns delta",
        "latency_p99_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "serve.rejected delta",
        "the result line's failed count on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.deadline_expired",
        "count",
        Lower,
        "serve.deadline_expired delta",
        "the result line's failed count on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.cold_request_ms",
        "ms",
        Lower,
        "median first request per tenant (template spawn)",
        "setup_s on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.checkpoint_ms",
        "ms",
        Lower,
        "median Server::checkpoint span",
        "latency_p99_ms on serve-mixed; absent (0) elsewhere",
    ),
    layer(
        "serve.ckpt_commit_ms",
        "ms",
        Lower,
        "mean serve.ckpt.commit_ns delta",
        "latency_p99_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.recover_tenant_ms",
        "ms",
        Lower,
        "median RecoveryReport tenant duration",
        "recovery_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.generator_lag_ms",
        "ms",
        Lower,
        "largest lateness of a request against its schedule",
        "latency_p99_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "serve.max_rate_ops_s",
        "ops/s",
        Higher,
        "highest ladder rate whose p99 stays within 20 ms with no growing backlog",
        "latency_p99_ms on serve-mixed; 0 elsewhere",
    ),
    layer(
        "telemetry.overhead_pct",
        "%",
        Lower,
        "traced latency_p50_ms over an untraced reference window's, minus 1",
        "nothing; reported on every workload",
    ),
    layer(
        "telemetry.span_coverage_pct",
        "%",
        Higher,
        "smallest share of an op's wall time covered by its layer spans",
        "nothing; at least 95 on every workload",
    ),
];

/// The metric named `name`.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(LAYERS).find(|m| m.name == name)
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples the value summarises.
    pub n: usize,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops that failed, returned a wrong result, were rejected or expired.
    pub failed: u64,
    /// End-of-run checks that failed (heap audits, recovered epochs).
    pub check_failures: Vec<String>,
    /// First few op failures, for the log.
    pub failure_examples: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, Sample>,
}

impl RunResult {
    /// Records value `v` of metric `name` over `n` samples.
    pub fn set(&mut self, name: &'static str, v: f64, n: usize) {
        debug_assert!(find(name).is_some(), "undefined metric {name}");
        self.values.insert(name, Sample { value: v, n });
    }

    /// Counts one op and its outcome.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failure_examples.len() < 5 {
                self.failure_examples.push(e);
            }
        }
    }

    /// Whether every op and every end-of-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// The share of ops that failed.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table: every metric measured, with unit and
    /// sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in END_TO_END.iter().chain(LAYERS) {
            if let Some(s) = self.values.get(m.name) {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>14.4} {:<6} n={}",
                    m.name, s.value, m.unit, s.n
                );
            }
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>14.4} {:<6} n={}",
            "error_frac",
            self.error_frac(),
            "ratio",
            self.attempted
        );
        out
    }

    /// The result line: the metrics of `set`, which must all be measured
    /// and finite.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing or not finite.
    pub fn json_line(&self, set: &[Metric]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in set {
            let s = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !s.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, s.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, s.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_telemetry::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn check_set(listed: &Json, defs: &[Metric]) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), defs.len());
        for (j, d) in listed.iter().zip(defs) {
            assert!(valid_name(d.name), "{}", d.name);
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        }
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let b = benchmark_json();
        check_set(b.get("end_to_end").expect("end_to_end"), END_TO_END);
        check_set(b.get("per_layer").expect("per_layer"), LAYERS);
        let names: Vec<_> = END_TO_END.iter().chain(LAYERS).map(|m| m.name).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are used once");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(LAYERS.iter().all(|m| !m.predicts.is_empty()));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let b = benchmark_json();
        let listed = b
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let ours = crate::plan::Workload::ALL;
        assert_eq!(listed.len(), ours.len());
        for (j, w) in listed.iter().zip(ours) {
            assert!(valid_name(w.name()));
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name()));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why()));
        }
    }

    #[test]
    fn a_failed_op_is_counted_and_the_run_is_incorrect() {
        let mut r = RunResult::default();
        r.tally(Ok(()));
        r.tally(Err("Benchmark findAllCalls: got 14, want 13".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
        assert_eq!(r.error_frac(), 0.5);
    }

    #[test]
    fn the_result_line_refuses_missing_or_non_finite_metrics() {
        let mut r = RunResult::default();
        r.tally(Ok(()));
        for m in END_TO_END {
            r.set(m.name, 1.5, 3);
        }
        let line = r.json_line(END_TO_END).expect("all metrics present");
        let j = json::parse(&line).expect("result line is JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let metrics = j.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert!(r.json_line(LAYERS).is_err());
        r.set("setup_s", f64::NAN, 1);
        assert!(r.json_line(END_TO_END).is_err());
    }
}
