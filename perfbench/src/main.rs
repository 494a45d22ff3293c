//! The repository benchmark: four workloads driven through the public API
//! (`mst_core::MsSystem`, `mst_serve::Server`), with end-to-end metrics
//! measured untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ide-solo --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Flags: `--workload ide-solo|ide-busy|old-churn|serve-mixed`, `--seed N`,
//! `--seconds N`, `--trace 0|1`, and `--smoke` for a short run that still
//! emits every metric. The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! every end-to-end metric (`--trace 0`) or every layer metric
//! (`--trace 1`). The lines before it print every measured metric with its
//! unit and sample count. A result file recording the seed, `nproc`, the
//! commit and the configuration is written under `perfbench/results/`, and
//! a traced run also writes its spans there. `--metrics` alone prints how
//! each metric is measured and which end-to-end metric each layer metric
//! should move on which workload.

mod closed;
mod config;
mod layers;
mod metrics;
mod plan;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{RunResult, END_TO_END, LAYERS};
use plan::{Expected, Workload};
use spans::Tracer;

/// Where result files are written, next to the benchmark's sources.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

/// Where a run keeps its images and checkpoint stores while it runs.
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/work");

/// One run's settings.
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// The plan seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Short run for self-tests.
    pub smoke: bool,
    /// Processors of the host.
    pub nproc: usize,
    /// Expected doit values.
    pub expected: Expected,
    /// Scratch directory for this run, removed when it ends.
    pub work_dir: PathBuf,
}

impl Opts {
    /// Set-ups per untraced run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            2
        } else {
            7
        }
    }

    /// Restarts from disk per run; `recovery_ms` is their median.
    pub fn recoveries(&self) -> usize {
        if self.smoke {
            2
        } else {
            7
        }
    }

    /// Length of a traced run's untraced reference window.
    pub fn reference_seconds(&self) -> f64 {
        if self.smoke {
            0.2
        } else {
            self.seconds.min(3.0)
        }
    }

    /// Prints a traced run's total and self time per span name and writes
    /// its spans to the results directory.
    pub fn report_spans(&self, tracer: &Tracer) {
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in tracer.self_times() {
            let (total, own) = (total as f64 / 1e6, own as f64 / 1e6);
            println!("  {name:<24} {count:>8} {total:>12.3} {own:>12.3}");
        }
        let path = Path::new(RESULTS_DIR).join(format!(
            "{}-seed{}-spans.json",
            self.workload.name(),
            self.seed
        ));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

/// Removes the run's work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64, bool, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.unwrap_or(if smoke { 0.5 } else { 25.0 });
    Ok((workload, seed, seconds, trace, smoke))
}

/// The commit the sources came from, read from `.git` when there is one.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload.
pub fn run(opts: &Opts) -> RunResult {
    match opts.workload {
        Workload::ServeMixed => serve::run(opts),
        _ => closed::run(opts),
    }
}

fn result_file(opts: &Opts, r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .values
        .iter()
        .map(|(name, s)| {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            format!(
                "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"n\": {}}}",
                s.value, s.n
            )
        })
        .collect();
    let checks: Vec<String> = r
        .check_failures
        .iter()
        .chain(&r.failure_examples)
        .map(|c| format!("\"{}\"", mst_telemetry::json::escape(c)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"held_out_seed\": {},\n  \"nproc\": {},\n  \
         \"commit\": \"{}\",\n  \"trace\": {},\n  \"seconds\": {},\n  \"config\": \"{}\",\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        opts.workload.name(),
        opts.seed,
        plan::HELD_OUT_SEED,
        opts.nproc,
        commit(),
        opts.trace,
        opts.seconds,
        mst_telemetry::json::escape(&config::describe(opts.workload, opts.nproc)),
        r.correct(),
        r.attempted,
        r.failed,
        checks.join(", "),
        metrics.join(",\n")
    )
}

/// Prints every metric's definition and, for layer metrics, what it should
/// move on which workload.
fn print_metrics() {
    for m in END_TO_END.iter().chain(LAYERS) {
        let bound = m.bound.map_or(String::new(), |b| format!(", bound {b}"));
        println!(
            "{} ({}, {} is better{bound}): {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.from
        );
        if !m.predicts.is_empty() {
            println!("    moves: {}", m.predicts);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--metrics"] {
        print_metrics();
        return ExitCode::SUCCESS;
    }
    let (workload, seed, seconds, trace, smoke) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = config::refuse_runtime_env() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workload == Workload::IdeBusy && nproc < 2 {
        eprintln!(
            "perfbench: ide-busy is unavailable on a 1-processor host (it would oversubscribe it)"
        );
        return ExitCode::from(3);
    }
    let work = WorkDir(Path::new(WORK_DIR).join(std::process::id().to_string()));
    for dir in [&work.0, Path::new(RESULTS_DIR)] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        nproc,
        expected: Expected::bundled(),
        work_dir: work.0.clone(),
    };
    println!(
        "perfbench {} seed={seed} seconds={seconds} trace={} nproc={nproc} commit={}",
        workload.name(),
        u8::from(trace),
        commit()
    );
    println!("  config: {}", config::describe(workload, nproc));
    let r = run(&opts);
    drop(work);

    let file = Path::new(RESULTS_DIR).join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&file, result_file(&opts, &r)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    for f in r.check_failures.iter().chain(&r.failure_examples) {
        eprintln!("perfbench: FAILED: {f}");
    }
    print!("{}", r.table());
    match r.json_line(if trace { LAYERS } else { END_TO_END }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts(workload: Workload, trace: bool, expected: Expected) -> Opts {
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let work_dir = Path::new(WORK_DIR).join(format!("test-{}/{run}", std::process::id()));
        std::fs::create_dir_all(&work_dir).expect("work dir");
        std::fs::create_dir_all(RESULTS_DIR).expect("results dir");
        Opts {
            workload,
            seed: 1,
            seconds: 0.3,
            trace,
            smoke: true,
            nproc: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .max(2),
            expected,
            work_dir,
        }
    }

    /// Every workload, untraced and traced, emits every metric with its
    /// unit; a doctored expectation makes every run of that doit a counted
    /// failure. One test, because the runs share process-wide telemetry.
    #[test]
    fn smoke_runs_emit_every_metric_and_count_wrong_results() {
        let _cleanup = WorkDir(Path::new(WORK_DIR).join(format!("test-{}", std::process::id())));
        for w in Workload::ALL {
            for trace in [false, true] {
                let opts = smoke_opts(w, trace, Expected::bundled());
                let r = run(&opts);
                assert!(
                    r.correct(),
                    "{} trace={trace}: {:?} {:?}",
                    w.name(),
                    r.check_failures,
                    r.failure_examples
                );
                let set = if trace { LAYERS } else { END_TO_END };
                let line = r
                    .json_line(set)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                let j = mst_telemetry::json::parse(&line).expect("result line is JSON");
                let m = j.get("metrics").expect("metrics");
                for def in set {
                    let got = m
                        .get(def.name)
                        .unwrap_or_else(|| panic!("{} lacks {}", w.name(), def.name));
                    assert_eq!(got.get("unit").and_then(|u| u.as_str()), Some(def.unit));
                }
            }
        }
        let mut doctored = Expected::bundled();
        doctored.doctor(2, mst_core::Value::Int(640));
        let r = run(&smoke_opts(Workload::IdeSolo, false, doctored));
        assert!(
            r.failed > 0 && r.failed < r.attempted,
            "{} of {}",
            r.failed,
            r.attempted
        );
        assert!(r
            .failure_examples
            .iter()
            .all(|e| e.contains("printClassHierarchy: got 639, want 640")));
        assert!(!r.correct());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload old-churn --seed 3 --seconds 10 --trace 1",
        ));
        assert_eq!(ok, Ok((Workload::OldChurn, 3, 10.0, true, false)));
        assert!(parse_args(&args("--workload nope --seed 3")).is_err());
        assert!(parse_args(&args("--workload ide-solo")).is_err());
        assert!(parse_args(&args("--workload ide-solo --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload ide-solo --seed 1 --seconds 0")).is_err());
    }
}
