//! The open-loop `serve-mixed` workload: seeded requests over four tenant
//! sessions of one `mst_serve::Server`, at a fixed offered rate, with a
//! checkpoint on every 50th request and whole-process recovery at the end.
//!
//! `nproc` executor threads share one schedule: each takes the next
//! request, spins until its due time, and calls `Server::request`. Latency is
//! timed from the due time, so a stall also charges the requests behind it.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mst_core::{MsConfig, MsSystem, SnapshotTemplate};
use mst_serve::{RecoverySource, ServeConfig, Server};
use mst_telemetry::{timeline, ProcState};

use crate::layers::{self, Edge};
use crate::metrics::RunResult;
use crate::plan::{self, Doit, Op, Workload, TABLE2, TENANTS};
use crate::spans::{Tracer, NO_OP};
use crate::stats::{self, Pauses};
use crate::{config, Opts};

/// Offered load, in requests per second: about a quarter of the highest
/// ladder rate that met the p99 limit on a 2-core host (1 500 req/s), where
/// ten runs agreed within a few percent; at 800 req/s one run in three
/// showed a p99 20-35% higher. Fixed, never calibrated per run.
pub const RATE: f64 = 400.0;

/// Every this many requests, the tenant just served is checkpointed.
pub const CHECKPOINT_EVERY: usize = 50;

/// Offered rates of the capacity ladder, in requests per second.
pub const LADDER: [f64; 6] = [600.0, 900.0, 1200.0, 1500.0, 1800.0, 2400.0];

/// Seconds each ladder step runs.
const LADDER_STEP_S: f64 = 1.0;

/// The latency limit a ladder step's p99 must meet, in milliseconds.
pub const P99_LIMIT_MS: f64 = 20.0;

/// How often the traced window samples the bounded GC pause log.
const PAUSE_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// A server over a freshly built template, with warm sessions.
struct Fleet {
    server: Server,
    template: SnapshotTemplate,
    base: MsConfig,
    cfg: ServeConfig,
    /// Epoch of each tenant's newest committed checkpoint.
    committed: Mutex<[u64; TENANTS]>,
    /// First request per tenant: the session spawn from the template.
    cold_ms: Vec<f64>,
}

impl Fleet {
    /// Builds the template image, starts the server with its checkpoint
    /// store in `dir`, and warms every tenant: a cold first request, every
    /// doit once, and one checkpoint.
    fn setup(opts: &Opts, dir: &Path, tracer: &mut Tracer, r: &mut RunResult) -> Fleet {
        std::fs::create_dir_all(dir).expect("the work directory can be created");
        let base = config::system(Workload::ServeMixed, opts.nproc, 1);
        let image = dir.join("template.image");
        let ms = tracer.time("new", || MsSystem::new(base));
        tracer
            .time("save_snapshot_file", || ms.save_snapshot_file(&image))
            .expect("the template image saves");
        ms.shutdown();
        let template = tracer
            .time("load_template", || MsSystem::load_template(&image, base))
            .expect("the template image loads");
        let cfg = config::serve(opts.nproc, dir.join("checkpoints"));
        let mut fleet = Fleet {
            server: Server::new(template.clone(), base, cfg.clone(), TENANTS),
            template,
            base,
            cfg,
            committed: Mutex::new([0; TENANTS]),
            cold_ms: Vec::new(),
        };
        let doits: Vec<Doit> = (0..4)
            .map(Doit::Small)
            .chain((0..TABLE2.len()).map(Doit::Table2))
            .collect();
        for tenant in 0..TENANTS {
            for (k, &doit) in doits.iter().enumerate() {
                let t = Instant::now();
                let got = tracer.time("request", || fleet.server.request(tenant, doit.source()));
                if k == 0 {
                    fleet.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                r.tally(check(got, opts, doit));
            }
            let ckpt = tracer.time("checkpoint", || fleet.checkpoint(tenant));
            r.tally(ckpt);
        }
        fleet
    }

    /// Checkpoints `tenant` and records the committed epoch.
    fn checkpoint(&self, tenant: usize) -> Result<(), String> {
        self.server
            .checkpoint(tenant)
            .map_err(|e| format!("checkpoint of tenant {tenant}: {e}"))?;
        let mut committed = self.committed.lock().expect("no executor panicked");
        committed[tenant] = self.server.epoch(tenant);
        Ok(())
    }
}

fn check(
    got: Result<mst_serve::Response, mst_serve::ServeError>,
    opts: &Opts,
    doit: Doit,
) -> Result<(), String> {
    let want = opts.expected.of(doit);
    match got {
        Ok(resp) if resp.value == want => Ok(()),
        Ok(resp) => Err(format!(
            "{}: got {}, want {want}",
            doit.source(),
            resp.value
        )),
        Err(e) => Err(format!("{}: {e}", doit.source())),
    }
}

/// What one executor thread saw.
struct Executor {
    latencies_ms: Vec<f64>,
    waits_ms: Vec<f64>,
    outcomes: Vec<Result<(), String>>,
    cpu_ns: u64,
    /// CPU time spent spinning until due times.
    wait_cpu_ns: u64,
    done: Instant,
    tracer: Tracer,
}

/// What one open-loop window measured.
struct Window {
    latencies_ms: Vec<f64>,
    waits_ms: Vec<f64>,
    outcomes: Vec<Result<(), String>>,
    start: Edge,
    end: Edge,
    /// When the last request completed.
    done: Instant,
    client_cpu_ns: u64,
    process_cpu_ns: u64,
}

impl Window {
    fn ops(&self) -> usize {
        self.latencies_ms.len()
    }
}

/// Offers `rate` requests per second for `seconds`, from plan op `first`.
#[allow(clippy::too_many_arguments)]
fn window(
    fleet: &Fleet,
    opts: &Opts,
    plan: &[Op],
    first: usize,
    rate: f64,
    seconds: f64,
    tracer: &mut Tracer,
    mut pauses: Option<&mut Pauses>,
) -> Window {
    let requests = ((rate * seconds).round() as usize).max(1);
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let start = Edge::read();
    let p0 = stats::process_cpu_ns();
    let t0 = start.at;
    let (traced, epoch) = (tracer.on(), tracer.epoch());
    let executors: Vec<Executor> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..opts.nproc)
            .map(|k| {
                let (next, finished) = (&next, &finished);
                sc.spawn(move || {
                    let _session = timeline::register(k);
                    let mut ex = Executor {
                        latencies_ms: Vec::new(),
                        waits_ms: Vec::new(),
                        outcomes: Vec::new(),
                        cpu_ns: 0,
                        wait_cpu_ns: 0,
                        done: t0,
                        tracer: Tracer::new(traced, epoch),
                    };
                    let c0 = stats::thread_cpu_ns();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            break;
                        }
                        serve_one(
                            fleet,
                            opts,
                            plan[(first + i) % plan.len()],
                            i,
                            t0,
                            rate,
                            &mut ex,
                        );
                    }
                    ex.cpu_ns = stats::thread_cpu_ns() - c0;
                    finished.fetch_add(1, Ordering::Relaxed);
                    ex
                })
            })
            .collect();
        if let Some(p) = pauses.as_deref_mut() {
            while finished.load(Ordering::Relaxed) < opts.nproc {
                std::thread::sleep(PAUSE_SAMPLE_EVERY);
                p.sample();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("executor thread"))
            .collect()
    });
    let p1 = stats::process_cpu_ns();
    let end = Edge::read();
    if let Some(p) = pauses {
        p.sample();
    }
    let mut w = Window {
        latencies_ms: Vec::new(),
        waits_ms: Vec::new(),
        outcomes: Vec::new(),
        start,
        end,
        done: t0,
        client_cpu_ns: 0,
        process_cpu_ns: p1 - p0,
    };
    for ex in executors {
        w.latencies_ms.extend(ex.latencies_ms);
        w.waits_ms.extend(ex.waits_ms);
        w.outcomes.extend(ex.outcomes);
        w.client_cpu_ns += ex.cpu_ns - ex.wait_cpu_ns;
        w.process_cpu_ns -= ex.wait_cpu_ns.min(w.process_cpu_ns);
        w.done = w.done.max(ex.done);
        tracer.absorb(ex.tracer);
    }
    w
}

/// Serves request `i`: waits for its due time, calls the server, checks
/// the value, and checkpoints on every 50th request.
fn serve_one(
    fleet: &Fleet,
    opts: &Opts,
    op: Op,
    i: usize,
    t0: Instant,
    rate: f64,
    ex: &mut Executor,
) {
    let Op::Request { tenant, doit } = op else {
        unreachable!("serve plans hold only requests")
    };
    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut wait_cpu_ns = 0;
    let tracer = &mut ex.tracer;
    let mut laps = tracer.begin_op(i as u64, due);
    // The generator spins until the due time: sleeping would charge the
    // host's wake-up latency to the request and let the processor go cold
    // between requests. The spin's CPU time is not the system's cost, so it
    // is subtracted from the CPU metrics.
    let called = tracer.lap(&mut laps, "wait", || {
        let _idle = timeline::enter_state(ProcState::Idle);
        let c0 = stats::thread_cpu_ns();
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        wait_cpu_ns = stats::thread_cpu_ns() - c0;
        Instant::now()
    });
    ex.wait_cpu_ns += wait_cpu_ns;
    let got = tracer.lap(&mut laps, "request", || {
        fleet.server.request(tenant, doit.source())
    });
    let mut outcome = check(got, opts, doit);
    if (i + 1).is_multiple_of(CHECKPOINT_EVERY) {
        let ckpt = tracer.lap(&mut laps, "checkpoint", || fleet.checkpoint(tenant));
        outcome = outcome.and(ckpt);
    }
    let end = tracer.end_op(laps);
    ex.latencies_ms
        .push(end.duration_since(due).as_secs_f64() * 1e3);
    ex.waits_ms
        .push(called.duration_since(due).as_secs_f64() * 1e3);
    ex.outcomes.push(outcome);
    ex.done = end;
}

/// Runs the serve-mixed workload.
pub fn run(opts: &Opts) -> RunResult {
    let mut r = RunResult::default();
    let requests = (RATE * opts.seconds).round() as usize;
    let plan = plan::plan(Workload::ServeMixed, opts.seed, requests.max(1) + 1);
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    let mut setup_s = Vec::new();
    let mut setups = 0;
    let mut next_dir = || {
        setups += 1;
        opts.work_dir.join(format!("setup{setups}"))
    };

    // A traced run first measures untraced: a reference window for the
    // tracing overhead, then the capacity ladder, on their own fleet.
    let reference = if opts.trace {
        let fleet = Fleet::setup(opts, &next_dir(), &mut off, &mut r);
        let w = window(
            &fleet,
            opts,
            &plan,
            0,
            RATE,
            opts.reference_seconds(),
            &mut off,
            None,
        );
        let max_rate = ladder(&fleet, opts, &plan);
        drop(fleet);
        timeline::set_enabled(true);
        Some((stats::median(&w.latencies_ms), max_rate))
    } else {
        for _ in 1..opts.setups() {
            let t = Instant::now();
            let fleet = Fleet::setup(opts, &next_dir(), &mut off, &mut r);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(fleet);
        }
        None
    };

    let mut tracer = Tracer::new(opts.trace, epoch);
    let t = Instant::now();
    let fleet = Fleet::setup(opts, &next_dir(), &mut tracer, &mut r);
    setup_s.push(t.elapsed().as_secs_f64());
    let mut pauses = Pauses::default();
    let w = window(
        &fleet,
        opts,
        &plan,
        0,
        RATE,
        opts.seconds,
        &mut tracer,
        opts.trace.then_some(&mut pauses),
    );
    for outcome in w.outcomes.iter().cloned() {
        r.tally(outcome);
    }
    for tenant in 0..TENANTS {
        match fleet.server.audit(tenant) {
            Ok(a) if a.is_clean() => {}
            Ok(a) => r.check_failures.push(format!(
                "tenant {tenant} heap audit found {} violation(s): {:?}",
                a.error_count, a.errors
            )),
            Err(e) => r.check_failures.push(format!("tenant {tenant} audit: {e}")),
        }
    }
    let cold_ms = fleet.cold_ms.clone();
    let (recovery_ms, tenant_ms) = recover(fleet, opts, &mut tracer, &mut r);

    let ops = w.ops();
    let sorted = stats::sorted(w.latencies_ms.clone());
    let p50 = stats::quantile(&sorted, 0.5);
    let active_s = w.done.duration_since(w.start.at).as_secs_f64();
    r.set("setup_s", stats::median(&setup_s), setup_s.len());
    r.set("latency_p50_ms", p50, ops);
    r.set("latency_p99_ms", stats::quantile(&sorted, 0.99), ops);
    r.set("throughput_ops_s", ops as f64 / active_s, ops);
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

    if let Some((reference, max_rate)) = reference {
        layers::common(&mut r, &w.start, &w.end, &pauses, &tracer, is_client);
        layers::overhead(&mut r, p50, reference, ops);
        let requests: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.op != NO_OP && s.name == "request")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        r.set("serve.request_us", stats::median(&requests), requests.len());
        let waits = stats::sorted(w.waits_ms.clone());
        r.set("serve.wait_ms", stats::quantile(&waits, 0.99), waits.len());
        r.set(
            "serve.generator_lag_ms",
            waits.last().copied().unwrap_or(0.0),
            waits.len(),
        );
        r.set(
            "serve.cold_request_ms",
            stats::median(&cold_ms),
            cold_ms.len(),
        );
        r.set(
            "serve.recover_tenant_ms",
            stats::median(&tenant_ms),
            tenant_ms.len(),
        );
        r.set("serve.max_rate_ops_s", max_rate, LADDER.len());
        // The sessions' interpreters and memories are private to the
        // server, so their counters cannot be read through its API.
        for name in [
            "interp.run_ms",
            "interp.bytecodes_per_s",
            "interp.sends_per_op",
            "interp.cache_hit_ratio",
            "interp.context_recycle_ratio",
            "objmem.survived_words_per_scavenge",
            "objmem.tenured_words",
        ] {
            r.set(name, 0.0, 0);
        }
        opts.report_spans(&tracer);
    }
    r
}

/// Steps the offered rate up the ladder and returns the highest rate whose
/// p99 latency meets the limit with every request correct and no growing
/// backlog (the last tenth of requests started within the limit of their
/// due times); 0 if none does.
fn ladder(fleet: &Fleet, opts: &Opts, plan: &[Op]) -> f64 {
    let mut best = 0.0;
    let mut off = Tracer::new(false, Instant::now());
    let mut first = 0;
    for rate in LADDER {
        let seconds = if opts.smoke { 0.2 } else { LADDER_STEP_S };
        let w = window(fleet, opts, plan, first, rate, seconds, &mut off, None);
        first += w.ops();
        let p99 = stats::quantile(&stats::sorted(w.latencies_ms.clone()), 0.99);
        let mut waits = w.waits_ms.clone();
        let tail = waits.split_off(waits.len() - waits.len().div_ceil(10));
        let backlog = tail.iter().copied().fold(0.0, f64::max);
        let ok = w.outcomes.iter().all(Result::is_ok);
        eprintln!(
            "  ladder {rate:>6.0} req/s: p99 {p99:.3} ms, tail lag {backlog:.3} ms, {}",
            if ok { "all correct" } else { "failures" }
        );
        if !(ok && p99 <= P99_LIMIT_MS && backlog <= P99_LIMIT_MS) {
            break;
        }
        best = rate;
    }
    best
}

/// Shuts the server down as a process death would, then recovers the whole
/// fleet from its checkpoint directory several times. Returns each
/// recovery's milliseconds and every tenant's recovery milliseconds.
fn recover(
    fleet: Fleet,
    opts: &Opts,
    tracer: &mut Tracer,
    r: &mut RunResult,
) -> (Vec<f64>, Vec<f64>) {
    let Fleet {
        server,
        template,
        base,
        cfg,
        committed,
        ..
    } = fleet;
    drop(server);
    let committed = committed.into_inner().expect("no executor panicked");
    let mut total_ms = Vec::new();
    let mut tenant_ms = Vec::new();
    for k in 0..opts.recoveries() {
        let t = Instant::now();
        let (server, report) = tracer.time("recover", || {
            Server::recover(template.clone(), base, cfg.clone(), TENANTS)
        });
        total_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tenant_ms.extend(report.tenants.iter().map(|t| t.duration_ns as f64 / 1e6));
        for (tenant, &epoch) in committed.iter().enumerate() {
            let source = report.tenants.get(tenant).map(|t| t.source);
            if server.epoch(tenant) != epoch || source != Some(RecoverySource::Checkpoint { epoch })
            {
                r.check_failures.push(format!(
                    "tenant {tenant} recovered at epoch {} from {source:?}, last committed {epoch}",
                    server.epoch(tenant)
                ));
            }
            if k + 1 == opts.recoveries() {
                match server.audit(tenant) {
                    Ok(a) if a.is_clean() => {}
                    other => r
                        .check_failures
                        .push(format!("recovered tenant {tenant} audit: {other:?}")),
                }
            }
        }
    }
    (total_ms, tenant_ms)
}

/// Every registered processor is an executor thread serving requests.
fn is_client(_processor: usize) -> bool {
    true
}
