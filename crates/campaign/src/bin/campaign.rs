//! The `campaign` CLI: expand, run, resume, shard, merge and inspect
//! declarative scenario campaigns. Every executing subcommand is a
//! thin call onto the library's run/resume/merge entry points, and one flag
//! parser serves every subcommand.
//!
//! ```text
//! campaign expand  <spec.toml|spec.json>
//! campaign run     <spec.toml|spec.json> [--workers N] [--out DIR] [--telemetry] [--quiet]
//! campaign resume  <campaign-dir> [--spec PATH] [--workers N] [--telemetry] [--quiet]
//! campaign shard   <spec.toml|spec.json> --shards N --index I --out DIR [--telemetry]
//! campaign merge   <dir>... --out DIR [--workers N] [--reexec-gaps] [--quiet]
//! campaign status  <dir>... [--json]
//! campaign report  <report.json|campaign-dir> [--timings]
//! ```

use dl2fence_campaign::{
    expand, merge, resume, run, spec_fingerprint, status, summarize_events, CampaignDir,
    CampaignOutcome, CampaignReport, CampaignSpec, Executor, ShardSlice, EVENTS_FILE,
};
use dl2fence_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage:
  campaign expand <spec.toml|spec.json>
      Print the expanded run matrix as JSON (one run per line).
  campaign run <spec.toml|spec.json> [--workers N] [--out DIR] [--quiet]
               [--telemetry]
      Execute the campaign. Without --out the aggregated JSON report goes to
      stdout; with --out DIR every finished run is streamed to DIR/runs.jsonl
      as it completes and the report lands in DIR/report.json (a DIR ending
      in .json is treated as a plain report file instead).
      --workers defaults to the machine's available parallelism.
      --telemetry (needs --out DIR) streams structured span/counter/histogram
      events to DIR/events.jsonl for `report --timings`.
  campaign resume <campaign-dir> [--spec PATH] [--workers N] [--quiet]
                  [--telemetry]
      Resume an interrupted `run --out` or `shard` campaign: verify the
      stored spec fingerprint (and PATH's, when given), re-execute only the
      missing run indices, and — for whole-campaign directories — rebuild a
      report byte-identical to an uninterrupted run. --telemetry appends to
      DIR/events.jsonl, continuing the original run's sequence numbers.
  campaign shard <spec.toml|spec.json> --shards N --index I --out DIR
                 [--workers W] [--quiet] [--telemetry]
      Execute shard I of N: the run indices congruent to I modulo N, streamed
      to an ordinary campaign directory whose manifest records the slice.
      Run one shard per machine, collect the directories, then `merge`. A
      crashed shard resumes like any campaign directory; a lost one is
      re-executed by `merge --reexec-gaps`.
  campaign merge <dir>... --out DIR [--workers N] [--reexec-gaps] [--quiet]
      Merge shard directories sharing one spec fingerprint into DIR: the
      union of their run logs (identical duplicates dedupe; gaps and
      conflicts are refused) plus a report.json
      byte-identical to an uninterrupted single-machine run. With
      --reexec-gaps, run indices no input holds are speculatively
      re-executed locally instead of refused — runs are deterministic, so
      the report stays byte-identical.
  campaign status <dir>... [--json]
      Read-only progress inspection: per directory the stored/missing run
      counts, exact gap list, shard slice, torn-tail state, duplicate
      records and log size; over several directories, the union gap list a
      merge would refuse on. Safe to run while a campaign is executing.
  campaign report <report.json|campaign-dir> [--timings]
      Render a saved report as a human-readable table. With --timings,
      aggregate DIR/events.jsonl instead and print the timing summary JSON
      (per-stage histograms, worker utilization, counter totals) — the
      schema committed as BENCH_campaign.json.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("expand") => cmd_expand(args.get(1).ok_or("expand needs a spec path")?),
        Some("run") => cmd_run(&args[1..], false),
        Some("resume") => cmd_resume(&args[1..]),
        Some("shard") => cmd_run(&args[1..], true),
        Some("merge") => cmd_merge(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".to_string()),
    }
}

/// Every flag of the subcommands; each subcommand names the flags it
/// accepts and refuses the rest. Positional arguments collect into `paths`.
#[derive(Debug, Default)]
struct Flags {
    paths: Vec<String>,
    spec: Option<String>,
    workers: Option<usize>,
    out: Option<PathBuf>,
    shards: Option<usize>,
    index: Option<usize>,
    reexec_gaps: bool,
    telemetry: bool,
    quiet: bool,
    json: bool,
    timings: bool,
}

impl Flags {
    /// Parses `args`, accepting only the space-separated flags `allowed`.
    fn parse(args: &[String], allowed: &str) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            if !flag.starts_with('-') {
                flags.paths.push(arg.clone());
                continue;
            }
            if !allowed.split(' ').any(|a| a == flag) {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--spec" => flags.spec = Some(value()?.to_string()),
                "--out" => flags.out = Some(PathBuf::from(value()?)),
                "--workers" => flags.workers = Some(parse_positive(flag, value()?)?),
                "--shards" => flags.shards = Some(parse_count(flag, value()?)?),
                "--index" => flags.index = Some(parse_count(flag, value()?)?),
                "--reexec-gaps" => flags.reexec_gaps = true,
                "--telemetry" => flags.telemetry = true,
                "--quiet" => flags.quiet = true,
                "--json" => flags.json = true,
                "--timings" => flags.timings = true,
                other => unreachable!("allowed flag `{other}` has no parser"),
            }
        }
        Ok(flags)
    }

    /// The shard slice `--shards` and `--index` select together.
    fn shard(&self) -> Option<ShardSlice> {
        self.shards
            .zip(self.index)
            .map(|(count, index)| ShardSlice { index, count })
    }

    fn single_path(&self, what: &str) -> Result<&str, String> {
        match self.paths.as_slice() {
            [path] => Ok(path),
            [] => Err(format!("{what} needs a path")),
            _ => Err(format!("{what} takes exactly one path")),
        }
    }

    /// The executor the flags select; with `--telemetry`, events stream to
    /// `events_dir/events.jsonl`, appending (with continued sequence
    /// numbers) when a previous session left one there.
    fn executor(&self, events_dir: Option<&Path>) -> Result<Executor, String> {
        let executor = match self.workers {
            Some(n) => Executor::new(n),
            None => Executor::with_available_parallelism(),
        };
        if !self.telemetry {
            return Ok(executor);
        }
        let events_dir =
            events_dir.ok_or("--telemetry needs a campaign directory (run with --out DIR)")?;
        std::fs::create_dir_all(events_dir)
            .map_err(|e| format!("cannot create {}: {e}", events_dir.display()))?;
        let path = events_dir.join(EVENTS_FILE);
        let telemetry = if path.exists() {
            Telemetry::append_jsonl_file(&path)
        } else {
            Telemetry::to_jsonl_file(&path)
        };
        let telemetry =
            telemetry.map_err(|e| format!("cannot open event log {}: {e}", path.display()))?;
        Ok(executor.with_telemetry(telemetry))
    }
}

fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("invalid {flag} `{value}`"))
}

/// Parses a count that must be at least 1, refusing zero before any
/// directory is created or any run executes.
fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match parse_count(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::from_path(Path::new(path)).map_err(|e| e.to_string())
}

fn cmd_expand(path: &str) -> Result<(), String> {
    let spec = load_spec(path)?;
    let runs = expand(&spec).map_err(|e| e.to_string())?;
    for run in &runs {
        println!(
            "{}",
            serde_json::to_string(run).expect("run serialization cannot fail")
        );
    }
    eprintln!("{} runs expanded from campaign `{}`", runs.len(), spec.name);
    Ok(())
}

/// `run` and `shard`: execute a spec into a fresh campaign directory — a
/// shard only its strided slice, building no report. `run` without a
/// campaign directory aggregates in memory instead.
fn cmd_run(args: &[String], sharded: bool) -> Result<(), String> {
    let (what, allowed) = if sharded {
        (
            "shard",
            "--shards --index --out --workers --quiet --telemetry",
        )
    } else {
        ("run", "--out --workers --quiet --telemetry")
    };
    let flags = Flags::parse(args, allowed)?;
    let spec = load_spec(flags.single_path(what)?)?;
    let shard = flags.shard();
    let out = match &flags.out {
        // A .json path keeps the single-file behaviour; anything else is a
        // campaign directory that streams runs.jsonl.
        Some(path) if path.extension().and_then(|e| e.to_str()) != Some("json") => Some(path),
        _ => None,
    };
    if sharded {
        if shard.is_none() {
            return Err("shard needs --shards N and --index I".to_string());
        }
        if out.is_none() {
            return Err("shard needs --out DIR".to_string());
        }
    }
    let executor = flags.executor(out.map(PathBuf::as_path))?;
    let announce = |runs: String| {
        if !flags.quiet {
            eprintln!(
                "campaign `{}` (fingerprint {}){runs}{} on {} workers...",
                spec.name,
                spec_fingerprint(&spec),
                shard
                    .map(|s| format!(", shard {}/{}", s.index, s.count))
                    .unwrap_or_default(),
                executor.workers()
            );
        }
    };
    if let Some(dir) = out {
        // `run` expands the spec itself; the summary line counts the runs.
        announce(String::new());
        let started = Instant::now();
        let report = run(&executor, &spec, dir, shard).map_err(|e| e.to_string())?;
        finish_dir(report, started, dir, flags.quiet);
        return Ok(());
    }
    let runs = expand(&spec).map_err(|e| e.to_string())?;
    announce(format!(": {} runs", runs.len()));
    let started = Instant::now();
    let results = executor.execute_runs(&spec.sim, &runs);
    let outcome = CampaignOutcome {
        spec,
        runs: results,
    };
    let report = CampaignReport::build_with(&outcome, &executor).map_err(|e| e.to_string())?;
    if let Some(path) = &flags.out {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    finish(&report, started, flags.out.as_deref(), flags.quiet);
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--spec --workers --quiet --telemetry")?;
    let dir = Path::new(flags.single_path("resume")?);
    let expected = flags.spec.as_deref().map(load_spec).transpose()?;
    // Refuse a path that is not a campaign before `--telemetry` creates it.
    CampaignDir::open(dir).map_err(|e| e.to_string())?;
    let executor = flags.executor(Some(dir))?;
    if !flags.quiet {
        eprintln!(
            "resuming campaign in {} on {} workers...",
            dir.display(),
            executor.workers()
        );
    }
    let started = Instant::now();
    let report = resume(&executor, dir, expected.as_ref()).map_err(|e| e.to_string())?;
    finish_dir(report, started, dir, flags.quiet);
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--out --workers --reexec-gaps --quiet")?;
    if flags.paths.is_empty() {
        return Err("merge needs at least one shard directory".to_string());
    }
    let out = flags.out.clone().ok_or("merge needs --out DIR")?;
    let inputs: Vec<PathBuf> = flags.paths.iter().map(PathBuf::from).collect();
    let executor = flags.executor(None)?;
    if !flags.quiet {
        eprintln!(
            "merging {} campaign director{} into {}...",
            inputs.len(),
            if inputs.len() == 1 { "y" } else { "ies" },
            out.display()
        );
    }
    let started = Instant::now();
    let report = merge(&executor, &inputs, &out, flags.reexec_gaps).map_err(|e| e.to_string())?;
    finish(
        &report,
        started,
        Some(&out.join("report.json")),
        flags.quiet,
    );
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--json")?;
    let paths: Vec<PathBuf> = flags.paths.iter().map(PathBuf::from).collect();
    let report = status(&paths).map_err(|e| e.to_string())?;
    if flags.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// Reports a finished directory verb: the report summary, or — for a shard
/// directory, which builds none — a completion line.
fn finish_dir(report: Option<CampaignReport>, started: Instant, dir: &Path, quiet: bool) {
    match report {
        Some(report) => finish(&report, started, Some(&dir.join("report.json")), quiet),
        None if !quiet => eprintln!(
            "{} holds every run it owes ({:.2}s); merge the shards to build the report",
            dir.display(),
            started.elapsed().as_secs_f64()
        ),
        None => {}
    }
}

fn finish(report: &CampaignReport, started: Instant, written_to: Option<&Path>, quiet: bool) {
    let elapsed = started.elapsed();
    if !quiet {
        eprintln!(
            "{} runs finished in {:.2}s ({:.1} runs/s)",
            report.total_runs,
            elapsed.as_secs_f64(),
            report.total_runs as f64 / elapsed.as_secs_f64().max(1e-9)
        );
    }
    match written_to {
        Some(path) => {
            if !quiet {
                eprintln!("report written to {}", path.display());
            }
        }
        None => println!("{}", report.to_json()),
    }
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--timings")?;
    let path = flags.single_path("report")?;
    if flags.timings {
        // Aggregate the telemetry event log instead of the run report.
        let file = if Path::new(path).is_dir() {
            Path::new(path).join(EVENTS_FILE)
        } else {
            PathBuf::from(path)
        };
        let summary = summarize_events(&file).map_err(|e| e.to_string())?;
        if summary.events == 0 {
            return Err(format!(
                "{} holds no telemetry events; run the campaign with --telemetry",
                file.display()
            ));
        }
        println!("{}", summary.to_json());
        return Ok(());
    }
    // Accept either a report file or a campaign directory.
    let file = if Path::new(path).is_dir() {
        Path::new(path).join("report.json")
    } else {
        PathBuf::from(path)
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let report = CampaignReport::from_json(&text).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(())
}
