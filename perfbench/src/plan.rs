//! The workloads, the doits they run, and their seeded op plans.
//!
//! Every input a run feeds the system is drawn from one `SplitMix64`
//! stream seeded by `--seed`, before any timing starts: the same seed gives
//! the same plan, and the system under test sees only the generated doits.

use mst_core::Value;
use mst_vkernel::SplitMix64;

/// The seed reserved for confirming a performance claim on inputs the
/// change was not tuned on. Do not run it while developing a change.
pub const HELD_OUT_SEED: u64 = 20_260_917;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop client typing the Table 2 doits, no competitors.
    IdeSolo,
    /// `IdeSolo` plus `nproc - 1` busy sweep-hand Processes.
    IdeBusy,
    /// One closed-loop client tenuring collections into a small old space.
    OldChurn,
    /// Open-loop multi-tenant requests with checkpoints and recovery.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::IdeSolo,
        Workload::IdeBusy,
        Workload::OldChurn,
        Workload::ServeMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IdeSolo => "ide-solo",
            Workload::IdeBusy => "ide-busy",
            Workload::OldChurn => "old-churn",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Why the workload is in the benchmark (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IdeSolo => {
                "Table 2 doits with no competitors: interp and young-generation allocation work, \
                 locks, full GC and serve stay idle"
            }
            Workload::IdeBusy => {
                "ide-solo plus nproc-1 busy Processes: same interp work plus rendezvous stops \
                 and contended spin-locks"
            }
            Workload::OldChurn => {
                "collections that tenure and die in a small old space: objmem survivor copying \
                 and full-GC phases, little interp"
            }
            Workload::ServeMixed => {
                "open-loop requests over 4 tenants with checkpoints and recovery: admission, \
                 per-request compile, snapshot and store commit"
            }
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The Table 2 selectors of class `Benchmark`, in column order.
pub const TABLE2: [&str; 8] = [
    "readWriteClassOrganization",
    "printClassDefinition",
    "printClassHierarchy",
    "findAllCalls",
    "findAllImplementors",
    "createInspectorView",
    "compileDummyMethod",
    "decompileClass",
];

/// The Table 2 doit sources, in column order.
const TABLE2_SOURCES: [&str; 8] = [
    "Benchmark readWriteClassOrganization",
    "Benchmark printClassDefinition",
    "Benchmark printClassHierarchy",
    "Benchmark findAllCalls",
    "Benchmark findAllImplementors",
    "Benchmark createInspectorView",
    "Benchmark compileDummyMethod",
    "Benchmark decompileClass",
];

/// The small serve doits: a fold, a collection fill, string building and a
/// block value.
const SMALL_SOURCES: [&str; 4] = [
    "(1 to: 50) inject: 0 into: [:a :b | a + b]",
    "| o | o := OrderedCollection new. 1 to: 40 do: [:i | o add: i * i]. o size",
    "'serve' , '/' , 42 printString",
    "[:a :b | a * b] value: 6 value: 7",
];

/// The old-churn doit: a 2 000-element collection of fresh three-slot
/// Arrays, each holding an integer, a String and a Point.
pub const CHURN_SOURCE: &str = "| oc | oc := OrderedCollection new. \
     1 to: 2000 do: [:i | oc add: (Array with: i with: i printString with: i @ i)]. oc";

/// Elements every old-churn result must hold.
pub const CHURN_SIZE: i64 = 2000;

/// Old-churn results kept alive at once.
pub const CHURN_RETAINED: usize = 40;

/// Tenants of the serve-mixed workload.
pub const TENANTS: usize = 4;

/// One doit of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Doit {
    /// Table 2 column `i`.
    Table2(usize),
    /// Small serve doit `i`.
    Small(usize),
}

impl Doit {
    /// The Smalltalk source.
    pub fn source(self) -> &'static str {
        match self {
            Doit::Table2(i) => TABLE2_SOURCES[i],
            Doit::Small(i) => SMALL_SOURCES[i],
        }
    }
}

/// The value every doit must return.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    table2: Vec<Value>,
}

impl Expected {
    /// Parses the hand-written expected-values file.
    ///
    /// # Errors
    ///
    /// A line that is not `<selector> <integer>`, a selector out of Table 2
    /// order, or a missing selector.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut table2 = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(sel), Some(v), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("expected '<selector> <integer>', got {line:?}"));
            };
            let v: i64 = v.parse().map_err(|_| format!("not an integer: {line:?}"))?;
            if TABLE2.get(table2.len()) != Some(&sel) {
                return Err(format!("{sel} is out of Table 2 order"));
            }
            table2.push(Value::Int(v));
        }
        if table2.len() != TABLE2.len() {
            return Err(format!(
                "{} of {} selectors given",
                table2.len(),
                TABLE2.len()
            ));
        }
        Ok(Expected { table2 })
    }

    /// The checked-in expected values.
    pub fn bundled() -> Expected {
        Expected::parse(include_str!("../expected_table2.txt"))
            .expect("expected_table2.txt is well formed")
    }

    /// The value `doit` must return.
    pub fn of(&self, doit: Doit) -> Value {
        match doit {
            Doit::Table2(i) => self.table2[i].clone(),
            Doit::Small(0) => Value::Int(1275),
            Doit::Small(1) => Value::Int(40),
            Doit::Small(2) => Value::Str("serve/42".into()),
            Doit::Small(_) => Value::Int(42),
        }
    }

    /// Replaces the expectation for Table 2 column `i` (self-tests doctor a
    /// result this way to prove wrong answers are counted).
    #[cfg(test)]
    pub fn doctor(&mut self, i: usize, v: Value) {
        self.table2[i] = v;
    }
}

/// One operation of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A typed IDE doit.
    Typed(Doit),
    /// An old-churn doit whose result replaces retained slot `slot`.
    Churn {
        /// Retained-result slot in `0..CHURN_RETAINED`.
        slot: usize,
    },
    /// A serve request.
    Request {
        /// Tenant id in `0..TENANTS`.
        tenant: usize,
        /// The doit.
        doit: Doit,
    },
}

/// Share of serve requests that are small doits, in percent; the rest are
/// Table 2 doits.
pub const SMALL_PCT: u64 = 70;

/// Draws `len` ops of `workload` from `seed`. IDE plans are passes over the
/// eight Table 2 doits in column order, each pass starting at a drawn
/// column and wrapping around.
pub fn plan(workload: Workload, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let n = TABLE2.len();
    match workload {
        Workload::IdeSolo | Workload::IdeBusy => {
            std::iter::repeat_with(|| rng.gen_range(0, n as u64) as usize)
                .flat_map(|first| (0..n).map(move |k| Op::Typed(Doit::Table2((first + k) % n))))
                .take(len)
                .collect()
        }
        Workload::OldChurn => (0..len)
            .map(|_| Op::Churn {
                slot: rng.gen_range(0, CHURN_RETAINED as u64) as usize,
            })
            .collect(),
        Workload::ServeMixed => (0..len)
            .map(|_| {
                let tenant = rng.gen_range(0, TENANTS as u64) as usize;
                let doit = if rng.gen_range(0, 100) < SMALL_PCT {
                    Doit::Small(rng.gen_range(0, SMALL_SOURCES.len() as u64) as usize)
                } else {
                    Doit::Table2(rng.gen_range(0, n as u64) as usize)
                };
                Op::Request { tenant, doit }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_and_different_seeds_differ() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 7, 500), plan(w, 7, 500), "{}", w.name());
            assert_ne!(plan(w, 7, 500), plan(w, 8, 500), "{}", w.name());
            assert_ne!(plan(w, 7, 500), plan(w, HELD_OUT_SEED, 500), "{}", w.name());
        }
    }

    #[test]
    fn serve_mix_is_about_seventy_percent_small() {
        let ops = plan(Workload::ServeMixed, 1, 20_000);
        let small = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Request {
                        doit: Doit::Small(_),
                        ..
                    }
                )
            })
            .count();
        let pct = small * 100 / ops.len();
        assert!((67..=73).contains(&pct), "{pct}% small");
        for t in 0..TENANTS {
            assert!(ops
                .iter()
                .any(|op| matches!(op, Op::Request { tenant, .. } if *tenant == t)));
        }
    }

    #[test]
    fn ide_plans_are_passes_in_column_order() {
        let ops = plan(Workload::IdeSolo, 3, 8 * 50);
        let firsts: Vec<_> = ops.chunks(8).map(|pass| pass[0]).collect();
        assert!(
            firsts.iter().any(|&f| f != firsts[0]),
            "passes start at drawn columns"
        );
        for pass in ops.chunks(8) {
            let Op::Typed(Doit::Table2(first)) = pass[0] else {
                panic!("IDE plans hold typed Table 2 doits");
            };
            for (k, op) in pass.iter().enumerate() {
                assert_eq!(*op, Op::Typed(Doit::Table2((first + k) % 8)));
            }
        }
    }

    #[test]
    fn expected_values_file_parses_and_rejects_bad_input() {
        let e = Expected::bundled();
        assert_eq!(e.of(Doit::Table2(0)), Value::Int(32));
        assert_eq!(e.of(Doit::Small(2)), Value::Str("serve/42".into()));
        assert!(Expected::parse("printClassDefinition 1").is_err());
        assert!(Expected::parse("readWriteClassOrganization x").is_err());
        assert!(Expected::parse("readWriteClassOrganization 32").is_err());
    }
}
