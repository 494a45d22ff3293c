//! Pinned configurations. Every field of every configuration struct is set
//! here by hand: the `Default`s read `MST_GC_THREADS`, `MST_FULLGC` and
//! `MST_SUPERVISOR_POLICY`, and `MsSystem::try_new` arms tracing, timelines,
//! chaos and the watchdog process-wide from other `MST_*` variables, so a
//! stray variable would change what is measured.

use std::path::PathBuf;
use std::time::Duration;

use mst_core::{MsConfig, Strategies, SupervisorPolicy};
use mst_objmem::{AllocPolicy, FullGcMode, MemoryConfig};
use mst_serve::{CheckpointPolicy, ServeConfig};
use mst_vkernel::SyncMode;

use crate::plan::Workload;

/// Refuses to run when any `MST_*` variable is set.
///
/// # Errors
///
/// Names the variables found.
pub fn refuse_runtime_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MST_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: these variables reconfigure the system process-wide",
            set.join(", ")
        ))
    }
}

/// Memory sizing of a workload's systems.
pub fn memory(workload: Workload, nproc: usize) -> MemoryConfig {
    let (old_words, eden_words, survivor_words) = match workload {
        Workload::IdeSolo | Workload::IdeBusy => (6 << 20, 512 << 10, 192 << 10),
        // Small enough that retained collections tenure, die in old space
        // and force full collections on their own.
        Workload::OldChurn => (2 << 20, 128 << 10, 48 << 10),
        Workload::ServeMixed => (2 << 20, 256 << 10, 96 << 10),
    };
    MemoryConfig {
        old_words,
        eden_words,
        survivor_words,
        sync: SyncMode::Multiprocessor,
        alloc_policy: AllocPolicy::SharedEden,
        tenure_age: 3,
        gc_helpers: nproc,
        full_gc_mode: FullGcMode::Stw,
    }
}

/// The system configuration: the paper's final MS strategies (replicated
/// method cache, replicated free-context lists, shared eden).
pub fn system(workload: Workload, nproc: usize, processors: usize) -> MsConfig {
    MsConfig {
        strategies: Strategies::ms(),
        processors,
        memory: memory(workload, nproc),
        quantum: 1024,
        trace: false,
        chaos: None,
        supervisor: SupervisorPolicy::Degrade,
    }
}

/// The serving configuration: one processor per tenant session, admission
/// limits that the offered load never reaches, and a durable checkpoint
/// store in `dir` driven by explicit `Server::checkpoint` calls.
pub fn serve(nproc: usize, dir: PathBuf) -> ServeConfig {
    ServeConfig {
        processors: 1,
        deadline: Duration::from_secs(2),
        queue_cap: nproc,
        queue_wait_limit: Duration::from_secs(1),
        degraded_eden_words: 16 << 10,
        slow_stall: Duration::from_millis(20),
        checkpoint_dir: Some(dir),
        checkpoint: CheckpointPolicy {
            every_requests: None,
            on_degrade: false,
        },
        retain: 2,
    }
}

/// A one-line description of a workload's configuration for result files,
/// printed from the structs the run builds.
pub fn describe(workload: Workload, nproc: usize) -> String {
    match workload {
        Workload::ServeMixed => format!(
            "{:?} {:?} tenants={} executors={nproc} rate_per_s={} checkpoint_every={}",
            system(workload, nproc, 1),
            serve(nproc, PathBuf::from("checkpoints")),
            crate::plan::TENANTS,
            crate::serve::RATE,
            crate::serve::CHECKPOINT_EVERY
        ),
        _ => format!("{:?}", system(workload, nproc, nproc)),
    }
}
