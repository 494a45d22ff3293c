//! Per-layer metrics shared by every workload, derived after a traced
//! window from the program's own instruments (registry counters and
//! histograms, the GC pause log, per-processor timelines) and from the
//! benchmark's spans.

use std::time::Instant;

use mst_telemetry::timeline::ProcTimeline;
use mst_telemetry::{GcPause, ProcState};

use crate::metrics::RunResult;
use crate::spans::Tracer;
use crate::stats::{self, Pauses, Registry};

/// Instrument readings at one edge of a timed window.
pub struct Edge {
    /// Wall clock.
    pub at: Instant,
    /// The telemetry clock (`now_ns`), which pause records use.
    pub tel_ns: u64,
    /// Registry counters and histograms.
    pub registry: Registry,
    /// Per-processor timelines.
    pub timelines: Vec<ProcTimeline>,
}

impl Edge {
    /// Reads every instrument now.
    pub fn read() -> Edge {
        Edge {
            at: Instant::now(),
            tel_ns: mst_telemetry::now_ns(),
            registry: Registry::read(),
            timelines: mst_telemetry::timeline::snapshot(),
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median of span durations named `name` in unit `scale` (ns divided by
/// it), with the sample count.
fn span_median(tracer: &Tracer, name: &str, scale: f64) -> (f64, usize) {
    let d = tracer.durations(name);
    (stats::median(&d) / scale, d.len())
}

/// Records the layer metrics every workload derives the same way.
/// `client` admits the processors the client ops run on.
pub fn common(
    r: &mut RunResult,
    start: &Edge,
    end: &Edge,
    pauses: &Pauses,
    tracer: &Tracer,
    client: impl Fn(usize) -> bool,
) {
    let wall_ns = end.at.duration_since(start.at).as_nanos() as f64;
    let (t0, t1) = (start.tel_ns, end.tel_ns);

    let scav: Vec<f64> = pauses
        .within(t0, t1, &["scavenge"])
        .iter()
        .map(|p| p.total_ns as f64)
        .collect();
    let sorted = stats::sorted(scav.clone());
    r.set("objmem.scavenges", scav.len() as f64, scav.len());
    r.set(
        "objmem.scavenge_p50_us",
        us(stats::quantile(&sorted, 0.5)),
        scav.len(),
    );
    r.set(
        "objmem.scavenge_p99_us",
        us(stats::quantile(&sorted, 0.99)),
        scav.len(),
    );

    let full = pauses.within(t0, t1, &["fullgc", "fullgc_finish"]);
    let totals: Vec<f64> = full.iter().map(|p| p.total_ns as f64).collect();
    r.set("objmem.full_gcs", full.len() as f64, full.len());
    r.set(
        "objmem.fullgc_pause_ms",
        ms(stats::median(&totals)),
        full.len(),
    );
    for (phase, name) in [
        ("mark", "objmem.fullgc.mark_ms"),
        ("update", "objmem.fullgc.update_ms"),
        ("move", "objmem.fullgc.move_ms"),
        ("clear", "objmem.fullgc.clear_ms"),
    ] {
        let ns: Vec<f64> = full
            .iter()
            .flat_map(|p| {
                p.phases
                    .iter()
                    .filter(|(n, _)| *n == phase)
                    .map(|&(_, v)| v as f64)
            })
            .collect();
        let mean = if ns.is_empty() {
            0.0
        } else {
            ns.iter().sum::<f64>() / ns.len() as f64
        };
        r.set(name, ms(mean), ns.len());
    }
    // A scavenge that runs out of old space runs a full collection inside
    // its own pause; count that time once.
    let nested = |f: &GcPause| {
        pauses
            .within(t0, t1, &["scavenge"])
            .iter()
            .any(|s| f.start_ns >= s.start_ns && f.start_ns < s.start_ns + s.total_ns)
    };
    let full_outside: f64 = full
        .iter()
        .filter(|f| !nested(f))
        .map(|f| f.total_ns as f64)
        .sum();
    let gc_ns = scav.iter().sum::<f64>() + full_outside;
    r.set("objmem.gc_share", gc_ns / wall_ns, scav.len() + full.len());

    let all = stats::timeline_since(&start.timelines, &end.timelines, |_| true);
    let procs = end.timelines.len();
    r.set(
        "interp.idle_share",
        stats::state_share(&all, ProcState::Idle),
        procs,
    );
    r.set(
        "objmem.gc_helper_share",
        stats::state_share(&all, ProcState::GcHelper),
        procs,
    );
    // Waiting and spinning predict the client's CPU per op, so they are
    // shares of the client processors' time only.
    let client = stats::timeline_since(&start.timelines, &end.timelines, client);
    r.set(
        "vkernel.safepoint_wait_share",
        stats::state_share(&client, ProcState::SafepointWait),
        procs,
    );
    r.set(
        "vkernel.lock_spin_share",
        stats::state_share(&client, ProcState::LockSpin),
        procs,
    );

    let (a, b) = (&end.registry, &start.registry);
    let stops = a.counter_since(b, "safepoint.stops");
    r.set("vkernel.safepoint_stops", stops as f64, stops as usize);
    let tts = a.histogram_since(b, "safepoint.time_to_stop_ns");
    r.set(
        "vkernel.time_to_stop_mean_us",
        us(tts.mean()),
        tts.count as usize,
    );
    let park = a.histogram_since(b, "safepoint.park_ns");
    r.set("vkernel.park_mean_us", us(park.mean()), park.count as usize);
    let contended = a.counter_since(b, "lock.contended");
    r.set(
        "vkernel.lock_contended",
        contended as f64,
        contended as usize,
    );
    let spin = a.histogram_since(b, "lock.spin_wait_ns");
    r.set(
        "vkernel.lock_spin_ms",
        ms(spin.sum as f64),
        spin.count as usize,
    );

    let rejected = a.counter_since(b, "serve.rejected");
    r.set("serve.rejected", rejected as f64, rejected as usize);
    let expired = a.counter_since(b, "serve.deadline_expired");
    r.set("serve.deadline_expired", expired as f64, expired as usize);
    let qw = a.histogram_since(b, "serve.queue_wait_ns");
    r.set("serve.queue_wait_us", us(qw.mean()), qw.count as usize);
    let commit = a.histogram_since(b, "serve.ckpt.commit_ns");
    r.set(
        "serve.ckpt_commit_ms",
        ms(commit.mean()),
        commit.count as usize,
    );

    let (v, n) = span_median(tracer, "new", 1e6);
    r.set("image.bootstrap_ms", v, n);
    let (v, n) = span_median(tracer, "prepare", 1e3);
    r.set("compiler.prepare_us", v, n);
    let (v, n) = span_median(tracer, "save_snapshot_file", 1e6);
    r.set("objmem.snapshot_save_ms", v, n);
    let (v, n) = span_median(tracer, "checkpoint", 1e6);
    r.set("serve.checkpoint_ms", v, n);
    let ops = tracer.spans().iter().filter(|s| s.name == "op").count();
    r.set(
        "telemetry.span_coverage_pct",
        tracer.min_op_coverage_pct(),
        ops,
    );
}

/// Records the tracing overhead: the traced window's median op latency
/// against the untraced reference window's.
pub fn overhead(r: &mut RunResult, traced_p50_ms: f64, reference_p50_ms: f64, n: usize) {
    let pct = if reference_p50_ms > 0.0 {
        (traced_p50_ms / reference_p50_ms - 1.0) * 100.0
    } else {
        0.0
    };
    r.set("telemetry.overhead_pct", pct, n);
}
