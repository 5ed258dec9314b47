//! # dl2fence-campaign — a declarative, parallel scenario-campaign engine
//!
//! DL2Fence's evaluation (Tables 1–3, Figures 1 and 4 of the paper) is built
//! from hundreds of independent simulate→sample→detect→localize runs across
//! mesh sizes, flooding injection rates, attack placements and benign
//! workloads. This crate turns that pattern into infrastructure:
//!
//! 1. **Declarative specs** — [`CampaignSpec`] describes a whole experiment
//!    campaign as a cartesian parameter grid, written as TOML (parsed by the
//!    built-in [`minitoml`] reader) or JSON.
//! 2. **Deterministic expansion** — [`grid::expand`] turns the grid into a
//!    dense run matrix; every run's seed derives from the spec alone via
//!    [`grid::derive_run_seed`].
//! 3. **Parallel execution** — [`Executor`] fans the matrix out over a
//!    worker pool (`std::thread::scope`) and reassembles results in matrix
//!    order, so **parallel and serial execution produce byte-identical
//!    output**.
//! 4. **Aggregated reports** — [`CampaignReport`] groups per-run
//!    measurements by declarative keys and serializes as deterministic
//!    JSON; an optional train/evaluate phase (fanned out over the same
//!    worker pool) reproduces the paper's table-style detection/
//!    localization metrics. All aggregation is incremental: the
//!    [`ReportAccumulator`] folds runs one at a time and retains none of
//!    them (only, with the eval phase on, their labeled samples).
//! 5. **Streaming & resume** — every campaign verb is a thin call onto two
//!    primitives. *Execute* ([`stream`]) opens and verifies a campaign
//!    directory, heals a torn tail, and runs an index set on the pool,
//!    persisting each finished run as a JSONL record the moment it
//!    completes. *Fold* ([`merge`](mod@merge)) unites directories into a
//!    report, refusing or re-executing gaps. [`run`] creates a directory and
//!    folds it; [`resume`] folds an existing one after a crash, executing
//!    only the missing run indices and rebuilding a byte-identical report
//!    (the stored [`spec_fingerprint`] guards against mixing results from
//!    different specs). Each verb takes only the values it reads: a shard
//!    slice for [`run`] and gap re-execution for [`merge`](merge::merge).
//! 6. **Cross-machine sharding** — [`run`] with a [`ShardSlice`]
//!    executes a deterministic strided slice of the run matrix into
//!    an ordinary campaign directory, and [`merge`](merge::merge) folds
//!    shard directories (verifying fingerprints, deduplicating identical
//!    records, refusing or re-executing gaps and refusing conflicts) into a
//!    report byte-identical to a single-machine run. Shards are the one
//!    way to split a campaign: a lost or slow machine's slice is healed by
//!    resuming its directory or by re-executing its gaps at merge.
//! 7. **Inspection** — [`status`] inspects any set of campaign directories
//!    read-only: stored and missing runs, the exact gap list, duplicate
//!    records and a torn tail. The fold is the only code that writes a run
//!    log; it reads records in any order and dedupes identical ones, so a
//!    log never needs rewriting. (Each record keeps its labeled samples:
//!    the eval phase trains on all of a frame geometry's samples at once,
//!    so the fold keeps them in memory.)
//!
//! The `campaign` binary exposes the engine on the command line
//! (`expand` / `run` / `resume` / `shard` / `merge` / `status` /
//! `report`), and the benchmark harness's table and figure binaries are
//! built on top of it.
//!
//! ## Quick example
//!
//! ```
//! use dl2fence_campaign::{CampaignReport, CampaignSpec, Executor};
//!
//! let spec = CampaignSpec::from_toml(r#"
//!     name = "smoke"
//!     [sim]
//!     warmup_cycles = 50
//!     sample_period = 100
//!     samples_per_run = 1
//!     [grid]
//!     mesh = [4]
//!     fir = [0.8]
//!     workloads = ["uniform"]
//!     attack_placements = 2
//!     benign_runs = 1
//!     seeds = [7]
//! "#).unwrap();
//! let outcome = Executor::new(2).execute(&spec).unwrap();
//! let report = CampaignReport::build(&outcome).unwrap();
//! assert_eq!(report.total_runs, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod executor;
pub mod grid;
pub mod merge;
pub mod minitoml;
pub mod report;
pub mod spec;
pub mod status;
pub mod stream;

pub use events::{
    read_events, segment_sessions, summarize, summarize_events, CounterTotal, EventLog,
    SessionSummary, StageTiming, TimingSummary, WorkerUtilization, TIMINGS_SCHEMA,
};
pub use executor::{execute_run, CampaignOutcome, Executor, JobPanic, RunMetrics, RunResult};
pub use grid::{derive_run_seed, expand, runs_from_scenarios, RunSpec};
pub use merge::merge;
pub use report::{CampaignReport, EvalEntry, EvalJob, GroupSummary, ReportAccumulator};
pub use spec::{
    parse_feature, parse_workload, require_mesh, validate_group_by, CampaignSpec, EvalSpec,
    GridSpec, ReportSpec, SimParams, SpecError,
};
pub use status::{human_bytes, status, DirStatus, StatusReport};
pub use stream::{
    resume, run, run_streaming, spec_fingerprint, CampaignDir, LogIndex, Manifest, RecordEntry,
    ShardSlice, EVENTS_FILE,
};
