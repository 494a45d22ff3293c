//! The closed-loop workloads on one `MsSystem`: `ide-solo`, `ide-busy` and
//! `old-churn`. One client on the calling thread sends its next op only
//! after the previous one completed.

use std::path::Path;
use std::time::{Duration, Instant};

use mst_core::{MsConfig, MsSystem, Prepared, Value};
use mst_interp::VmCounters;
use mst_objmem::{GcStats, RootHandle};
use mst_telemetry::timeline;

use crate::layers::{self, Edge};
use crate::metrics::RunResult;
use crate::plan::{self, Op, Workload, CHURN_RETAINED, CHURN_SIZE};
use crate::spans::{Laps, Tracer, NO_OP};
use crate::stats::{self, Pauses};
use crate::{config, Opts};

/// Ops run before timing, one pass of the IDE doits: caches, free lists and
/// the heap settle.
const WARMUP_OPS: usize = plan::TABLE2.len();

/// How often a traced window samples the bounded GC pause log.
const PAUSE_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// A set-up system and the client's state.
struct Session {
    ms: MsSystem,
    /// old-churn's doit, prepared once.
    churn: Option<Prepared>,
    /// old-churn results kept alive.
    retained: Vec<Option<RootHandle>>,
    /// Index of the next plan op.
    next: usize,
}

impl Session {
    /// Builds the system, spawns the competitors, and runs the warm-up ops.
    fn setup(opts: &Opts, plan: &[Op], tracer: &mut Tracer, r: &mut RunResult) -> Session {
        let cfg = system_config(opts);
        let mut ms = tracer.time("new", || MsSystem::new(cfg));
        if opts.workload == Workload::IdeBusy {
            tracer.time("spawn_competitors", || {
                ms.spawn_competitors(opts.nproc - 1, false)
            });
        }
        let churn = (opts.workload == Workload::OldChurn).then(|| {
            tracer
                .time("prepare", || ms.prepare(plan::CHURN_SOURCE))
                .expect("the old-churn doit compiles")
        });
        let mut s = Session {
            ms,
            churn,
            retained: vec![None; CHURN_RETAINED],
            next: 0,
        };
        for _ in 0..WARMUP_OPS {
            let (outcome, _) = s.run_next(plan, tracer, opts);
            r.tally(outcome);
        }
        s
    }

    /// Runs the next plan op, returning its outcome and latency.
    fn run_next(
        &mut self,
        plan: &[Op],
        tracer: &mut Tracer,
        opts: &Opts,
    ) -> (Result<(), String>, Duration) {
        let op = plan[self.next % plan.len()];
        let start = Instant::now();
        let mut laps = tracer.begin_op(self.next as u64, start);
        self.next += 1;
        let outcome = self.run_op(op, &mut laps, tracer, opts);
        (outcome, tracer.end_op(laps).duration_since(start))
    }

    /// Runs one op, checking every result.
    fn run_op(
        &mut self,
        op: Op,
        laps: &mut Laps,
        tracer: &mut Tracer,
        opts: &Opts,
    ) -> Result<(), String> {
        let ms = &mut self.ms;
        match op {
            Op::Typed(doit) => {
                let got = tracer
                    .lap(laps, "prepare", || ms.prepare(doit.source()))
                    .and_then(|p| tracer.lap(laps, "run_prepared", || ms.run_prepared(&p)));
                let want = opts.expected.of(doit);
                match got {
                    Ok(v) if v == want => Ok(()),
                    Ok(v) => Err(format!("{}: got {v}, want {want}", doit.source())),
                    Err(e) => Err(format!("{}: {e}", doit.source())),
                }
            }
            Op::Churn { slot } => {
                let prepared = self.churn.as_ref().expect("old-churn prepared its doit");
                let root = tracer
                    .lap(laps, "run_prepared_rooted", || {
                        ms.run_prepared_rooted(prepared)
                    })
                    .map_err(|e| format!("old-churn doit: {e}"))?;
                let checked = check_churn(ms, &root);
                // The new result replaces a retained one, which dies.
                self.retained[slot] = Some(root);
                checked
            }
            Op::Request { .. } => unreachable!("closed-loop plans hold no requests"),
        }
    }
}

/// Checks an old-churn result: an OrderedCollection of 2 000 Arrays whose
/// first slots count from 1. Between old-churn doits nothing else runs
/// Smalltalk (there are no competitors), so no collection can move the
/// objects while they are read here.
fn check_churn(ms: &MsSystem, root: &RootHandle) -> Result<(), String> {
    let mem = ms.mem();
    let oc = root.get();
    if oc.is_small_int() {
        return Err(format!("old-churn doit returned {}", oc.as_small_int()));
    }
    let class_name = mem.fetch(mem.class_of(oc), mst_objmem::layout::class::NAME);
    let class_name = mem.str_value(class_name);
    if class_name != "OrderedCollection" {
        return Err(format!("old-churn doit returned a {class_name}"));
    }
    let (first, last) = (mem.fetch(oc, 1), mem.fetch(oc, 2));
    if !(first.is_small_int() && last.is_small_int()) {
        return Err("old-churn collection has no integer bounds".into());
    }
    let (first, last) = (first.as_small_int(), last.as_small_int());
    if last - first + 1 != CHURN_SIZE {
        return Err(format!(
            "old-churn size {}, want {CHURN_SIZE}",
            last - first + 1
        ));
    }
    let array = mem.fetch(oc, 0);
    for k in [1, CHURN_SIZE] {
        let elem = mem.fetch(array, (first + k - 2) as usize);
        if elem.is_small_int() || !mem.fetch(elem, 0).is_small_int() {
            return Err(format!("old-churn element {k} is not an Array"));
        }
        if mem.fetch(elem, 0).as_small_int() != k {
            return Err(format!("old-churn element {k} does not start with {k}"));
        }
    }
    Ok(())
}

fn system_config(opts: &Opts) -> MsConfig {
    config::system(opts.workload, opts.nproc, opts.nproc)
}

/// What one timed window measured.
struct Window {
    latencies_ms: Vec<f64>,
    start: Edge,
    end: Edge,
    client_cpu_ns: u64,
    process_cpu_ns: u64,
    vm: (VmCounters, VmCounters),
    gc: (GcStats, GcStats),
}

impl Window {
    fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    fn wall_s(&self) -> f64 {
        self.end.at.duration_since(self.start.at).as_secs_f64()
    }
}

/// Runs ops for `seconds`, timing each.
fn window(
    s: &mut Session,
    opts: &Opts,
    plan: &[Op],
    seconds: f64,
    tracer: &mut Tracer,
    mut pauses: Option<&mut Pauses>,
    r: &mut RunResult,
) -> Window {
    let vm0 = s.ms.vm().counters();
    let gc0 = s.ms.mem().gc_stats();
    let start = Edge::read();
    let (c0, p0) = (stats::thread_cpu_ns(), stats::process_cpu_ns());
    let deadline = start.at + Duration::from_secs_f64(seconds);
    let mut latencies_ms = Vec::new();
    let mut sampled = start.at;
    loop {
        let (outcome, latency) = s.run_next(plan, tracer, opts);
        latencies_ms.push(latency.as_secs_f64() * 1e3);
        r.tally(outcome);
        let end = Instant::now();
        if let Some(p) = pauses.as_deref_mut() {
            if end.duration_since(sampled) >= PAUSE_SAMPLE_EVERY {
                p.sample();
                sampled = end;
            }
        }
        if end >= deadline {
            break;
        }
    }
    let (c1, p1) = (stats::thread_cpu_ns(), stats::process_cpu_ns());
    let end = Edge::read();
    if let Some(p) = pauses {
        p.sample();
    }
    Window {
        latencies_ms,
        start,
        end,
        client_cpu_ns: c1 - c0,
        process_cpu_ns: p1 - p0,
        vm: (vm0, s.ms.vm().counters()),
        gc: (gc0, s.ms.mem().gc_stats()),
    }
}

/// Runs a closed-loop workload.
pub fn run(opts: &Opts) -> RunResult {
    let mut r = RunResult::default();
    let plan = plan::plan(opts.workload, opts.seed, 1 << 16);
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut off = Tracer::new(false, epoch);

    let reference_p50 = if opts.trace {
        // An untraced reference window for the tracing overhead, on its
        // own system: timelines register processors when they start.
        let mut s = Session::setup(opts, &plan, &mut off, &mut r);
        let w = window(
            &mut s,
            opts,
            &plan,
            opts.reference_seconds(),
            &mut off,
            None,
            &mut r,
        );
        s.ms.shutdown();
        timeline::set_enabled(true);
        Some(stats::median(&w.latencies_ms))
    } else {
        // Extra set-ups, discarded, so set-up time is a median.
        for _ in 1..opts.setups() {
            let t = Instant::now();
            let s = Session::setup(opts, &plan, &mut off, &mut r);
            setup_s.push(t.elapsed().as_secs_f64());
            s.ms.shutdown();
        }
        None
    };

    // The client thread is processor 0; workers register themselves.
    let _proc0 = timeline::register(0);
    let mut tracer = Tracer::new(opts.trace, epoch);
    let t = Instant::now();
    let mut s = Session::setup(opts, &plan, &mut tracer, &mut r);
    setup_s.push(t.elapsed().as_secs_f64());
    let mut pauses = Pauses::default();
    let w = window(
        &mut s,
        opts,
        &plan,
        opts.seconds,
        &mut tracer,
        opts.trace.then_some(&mut pauses),
        &mut r,
    );

    let audit = s.ms.audit_heap();
    if !audit.is_clean() {
        r.check_failures.push(format!(
            "heap audit found {} violation(s): {:?}",
            audit.error_count, audit.errors
        ));
    }
    let recovery_ms = recover(s, opts, &mut tracer, &mut r);

    let ops = w.ops();
    let sorted = stats::sorted(w.latencies_ms.clone());
    let p50 = stats::quantile(&sorted, 0.5);
    r.set("setup_s", stats::median(&setup_s), setup_s.len());
    r.set("latency_p50_ms", p50, ops);
    r.set("latency_p99_ms", stats::quantile(&sorted, 0.99), ops);
    r.set("throughput_ops_s", ops as f64 / w.wall_s(), ops);
    r.set(
        "cpu_ms_per_op",
        w.process_cpu_ns as f64 / 1e6 / ops as f64,
        ops,
    );
    r.set(
        "client_cpu_ms_per_op",
        w.client_cpu_ns as f64 / 1e6 / ops as f64,
        ops,
    );
    r.set(
        "recovery_ms",
        stats::median(&recovery_ms),
        recovery_ms.len(),
    );
    r.set("peak_rss_mb", stats::peak_rss_mb(), 1);

    if let Some(reference) = reference_p50 {
        layers::common(&mut r, &w.start, &w.end, &pauses, &tracer, is_client);
        layers::overhead(&mut r, p50, reference, ops);
        closed_layers(&mut r, &w, &tracer);
        opts.report_spans(&tracer);
    }
    r
}

/// Saves the image, shuts the system down, and restarts it from disk
/// several times; returns each restart's milliseconds.
fn recover(s: Session, opts: &Opts, tracer: &mut Tracer, r: &mut RunResult) -> Vec<f64> {
    let path = opts.work_dir.join("image");
    // Collect first, so the image holds the live state rather than however
    // much garbage old space happened to hold when the window ended.
    s.ms.full_collect();
    let saved = tracer.time("save_snapshot_file", || s.ms.save_snapshot_file(&path));
    s.ms.shutdown();
    if let Err(e) = saved {
        r.check_failures.push(format!("saving the image: {e}"));
        return vec![0.0];
    }
    (0..opts.recoveries())
        .map(|_| restart(&path, system_config(opts), tracer, r))
        .collect()
}

fn restart(path: &Path, cfg: MsConfig, tracer: &mut Tracer, r: &mut RunResult) -> f64 {
    let t = Instant::now();
    let loaded = tracer.time("from_snapshot_file", || {
        MsSystem::from_snapshot_file(path, cfg)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match loaded {
        Ok(mut sys) => {
            match sys.evaluate("3 + 4") {
                Ok(Value::Int(7)) => {}
                other => r
                    .check_failures
                    .push(format!("restarted image: 3 + 4 = {other:?}")),
            }
            sys.shutdown();
        }
        Err(e) => r
            .check_failures
            .push(format!("restarting from the image: {e}")),
    }
    ms
}

/// Layer metrics only a closed loop can read: the VM's own counters and
/// the object memory's collection statistics.
fn closed_layers(r: &mut RunResult, w: &Window, tracer: &Tracer) {
    let ops = w.ops();
    let (a, b) = (&w.vm.0, &w.vm.1);
    let bytecodes = b.bytecodes - a.bytecodes;
    r.set("interp.bytecodes_per_s", bytecodes as f64 / w.wall_s(), ops);
    r.set(
        "interp.sends_per_op",
        (b.sends - a.sends) as f64 / ops as f64,
        ops,
    );
    let hits = b.cache_hits - a.cache_hits;
    let lookups = hits + (b.cache_misses - a.cache_misses);
    r.set(
        "interp.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    let recycled = b.contexts_recycled - a.contexts_recycled;
    let contexts = recycled + (b.contexts_allocated - a.contexts_allocated);
    r.set(
        "interp.context_recycle_ratio",
        recycled as f64 / contexts.max(1) as f64,
        contexts as usize,
    );
    let run_spans: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.op != NO_OP && matches!(s.name, "run_prepared" | "run_prepared_rooted"))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    r.set("interp.run_ms", stats::median(&run_spans), run_spans.len());
    let (g0, g1) = (&w.gc.0, &w.gc.1);
    let scavenges = g1.scavenges - g0.scavenges;
    r.set(
        "objmem.survived_words_per_scavenge",
        (g1.words_survived - g0.words_survived) as f64 / scavenges.max(1) as f64,
        scavenges as usize,
    );
    r.set(
        "objmem.tenured_words",
        (g1.words_tenured - g0.words_tenured) as f64,
        scavenges as usize,
    );
    for name in [
        "serve.request_us",
        "serve.wait_ms",
        "serve.cold_request_ms",
        "serve.recover_tenant_ms",
        "serve.generator_lag_ms",
        "serve.max_rate_ops_s",
    ] {
        r.set(name, 0.0, 0);
    }
}

/// The client runs on processor 0; the workers are 1..nproc.
fn is_client(processor: usize) -> bool {
    processor == 0
}
