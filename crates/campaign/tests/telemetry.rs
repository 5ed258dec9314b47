//! Telemetry integration suite.
//!
//! The observability layer's contract has two halves, and both are locked
//! here:
//!
//! 1. **Zero observable effect on results** — running a campaign with a
//!    live telemetry sink must produce report bytes identical to the same
//!    campaign with telemetry disabled (and to the committed golden
//!    fixture). Telemetry is a tap on the pipeline, never a tee into it.
//! 2. **The event log is trustworthy** — every line `campaign run
//!    --telemetry` writes parses back losslessly (property-tested over
//!    arbitrary events, including names exercising every JSON escape), a
//!    torn final line heals to the longest valid prefix (the shape of a
//!    crash mid-append), and an appending resume keeps `seq` unique across
//!    the whole log.

use dl2fence_campaign::{
    expand, read_events, run, summarize, CampaignSpec, EventLog, Executor, EVENTS_FILE,
};
use dl2fence_telemetry::{Event, EventData, Telemetry};
use std::path::{Path, PathBuf};

fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("dl2fence-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Streams `spec` into a fresh campaign directory, with a JSONL telemetry
/// sink wired through the executor when `telemetry` is set, and returns
/// `(campaign dir, report bytes)`.
fn run_campaign(spec: &CampaignSpec, tag: &str, telemetry: bool) -> (PathBuf, String) {
    let root = temp_root(tag);
    std::fs::create_dir_all(&root).unwrap();
    let mut executor = Executor::new(2);
    if telemetry {
        let sink = Telemetry::to_jsonl_file(&root.join(EVENTS_FILE)).unwrap();
        executor = executor.with_telemetry(sink);
    }
    let report = run(&executor, spec, &root, None)
        .unwrap()
        .expect("a whole campaign builds a report")
        .to_json();
    (root, report)
}

/// The tentpole guarantee: a telemetry-on run's report is byte-identical
/// to the telemetry-off run of the same spec — and to the golden fixture
/// the telemetry-off corpus committed. The observer changes nothing.
#[test]
fn telemetry_on_report_is_byte_identical_to_telemetry_off() {
    let spec = CampaignSpec::from_path(&spec_path("smoke_eval.toml")).unwrap();
    let (on_root, on_report) = run_campaign(&spec, "on", true);
    let (off_root, off_report) = run_campaign(&spec, "off", false);
    assert_eq!(
        on_report, off_report,
        "running with a live telemetry sink changed the report bytes"
    );
    // The golden corpus (tests/golden.rs) owns this fixture; under a bless
    // run it may not be rewritten yet, so only verify, never regenerate.
    if std::env::var_os("DL2FENCE_BLESS").is_none() {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smoke_eval_on.report.json");
        let expected = std::fs::read_to_string(fixture).unwrap();
        assert_eq!(
            on_report, expected,
            "telemetry-on report drifted from the golden fixture"
        );
    }
    assert!(!off_root.join(EVENTS_FILE).exists());
    let _ = std::fs::remove_dir_all(on_root);
    let _ = std::fs::remove_dir_all(off_root);
}

/// The event log a real campaign writes parses in full and summarizes into
/// non-empty stage/worker tables.
#[test]
fn campaign_event_log_parses_and_summarizes() {
    let spec = CampaignSpec::from_path(&spec_path("smoke_eval.toml")).unwrap();
    let total_runs = expand(&spec).unwrap().len();
    let (root, _report) = run_campaign(&spec, "watch", true);

    let log = read_events(&root.join(EVENTS_FILE)).unwrap();
    assert!(!log.truncated_tail, "a finished run leaves no torn tail");
    assert!(!log.events.is_empty());
    let mut seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), log.events.len(), "seq numbers must be unique");

    let summary = summarize(&log);
    assert_eq!(summary.events, log.events.len());
    let run_spans = summary.stage("run").expect("per-run spans recorded");
    assert_eq!(run_spans.count as usize, total_runs);
    for stage in [
        "stage.detect",
        "stage.fuse",
        "stage.localize",
        "eval.train",
        "eval.evaluate",
        "log.append",
        "campaign.execute",
        "campaign.report",
    ] {
        let timing = summary
            .stage(stage)
            .unwrap_or_else(|| panic!("stage `{stage}` missing from summary"));
        assert!(timing.count > 0, "stage `{stage}` recorded no observations");
        assert!(timing.max_us >= timing.p50_us);
    }
    assert!(!summary.workers.is_empty(), "worker utilization missing");
    assert_eq!(summary.counter("executor.worker_panics"), 0);
    let _ = std::fs::remove_dir_all(root);
}

/// A log whose events have not advanced the wall clock yet (`t_us == 0`,
/// the moment before the first batch flush) summarizes to zero worker
/// utilization — never `busy / 0` as `inf` or `NaN`, which JSON cannot
/// carry.
#[test]
fn unflushed_log_summarizes_to_zero_utilization() {
    let counter = |seq, name: &str, delta| Event {
        seq,
        t_us: 0,
        worker: 0,
        data: EventData::Counter {
            name: name.to_string(),
            delta,
            index: Some(0),
        },
    };
    let log = EventLog {
        events: vec![
            counter(0, "worker.jobs", 1),
            counter(1, "worker.busy_us", 500),
        ],
        truncated_tail: false,
    };
    let summary = summarize(&log);
    assert_eq!(summary.wall_us, 0, "the clock must not have advanced");
    assert_eq!(summary.workers.len(), 1);
    assert_eq!(summary.workers[0].busy_us, 500);
    assert_eq!(summary.workers[0].utilization, 0.0);
    let json = summary.to_json();
    assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
}

/// An appending handle (what `campaign resume --telemetry` opens) continues
/// sequence numbers after the existing log — even past a torn final line —
/// so `seq` stays unique across crash/resume boundaries.
#[test]
fn appending_telemetry_continues_seq_numbers_past_a_torn_tail() {
    let root = temp_root("append");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join(EVENTS_FILE);

    let first = Telemetry::to_jsonl_file(&path).unwrap();
    {
        let rec = first.recorder();
        rec.add("phase", 1);
        rec.time("work", || ());
    }
    drop(first);
    let before = read_events(&path).unwrap().events;
    assert!(!before.is_empty());
    let max_seq = before.iter().map(|e| e.seq).max().unwrap();

    // A crash mid-append leaves a torn final line; the appender must skip
    // it when scanning for the largest seq, not refuse the file.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"{\"seq\":9999,\"t_us\":1");
    std::fs::write(&path, &bytes).unwrap();

    let second = Telemetry::append_jsonl_file(&path).unwrap();
    {
        let rec = second.recorder();
        rec.add("phase", 1);
    }
    drop(second);

    let log = read_events(&path).unwrap();
    let mut seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
    assert!(seqs.iter().any(|&s| s > max_seq), "appended events resumed");
    assert!(seqs.iter().all(|&s| s != 9999), "torn line must not count");
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), log.events.len(), "seq unique across append");
    let _ = std::fs::remove_dir_all(root);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Characters chosen to exercise every branch of the event JSON string
    /// escaper: plain ASCII, every named escape, a bare control character
    /// (`\u` path) and multi-byte UTF-8.
    const NAME_CHARS: &[char] = &[
        'a', 'Z', '0', '.', '_', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', 'µ', '✓',
    ];

    /// splitmix64 step — the same generator the proptest shim uses, applied
    /// here to expand one drawn seed into a whole event's worth of fields.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn name_from(state: &mut u64) -> String {
        let len = 1 + (mix(state) % 12) as usize;
        (0..len)
            .map(|_| NAME_CHARS[(mix(state) as usize) % NAME_CHARS.len()])
            .collect()
    }

    fn build_event(state: &mut u64, seq: u64) -> Event {
        let data = match mix(state) % 3 {
            0 => EventData::Span {
                name: name_from(state),
                dur_us: mix(state),
                parent: mix(state).is_multiple_of(2).then(|| name_from(state)),
                index: mix(state).is_multiple_of(2).then(|| mix(state)),
            },
            1 => EventData::Counter {
                name: name_from(state),
                delta: mix(state),
                index: mix(state).is_multiple_of(2).then(|| mix(state)),
            },
            _ => EventData::Hist {
                name: name_from(state),
                count: mix(state),
                sum_us: mix(state),
                max_us: mix(state),
                buckets: (0..mix(state) % 41).map(|_| mix(state)).collect(),
            },
        };
        Event {
            seq,
            t_us: mix(state),
            worker: mix(state) % 64,
            data,
        }
    }

    fn prop_temp(tag: &str, case: u64) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dl2fence-telemetry-prop-{tag}-{}-{case}.jsonl",
            std::process::id()
        ))
    }

    proptest! {
        /// For arbitrary events — every kind, optional fields present and
        /// absent, names hitting every escape branch — `emit` → `parse`
        /// recovers the event exactly and re-emitting reproduces the bytes,
        /// both per line and through a whole `read_events` log file.
        #[test]
        fn event_jsonl_round_trips_losslessly(
            seed in 0u64..u64::MAX,
            nevents in 1usize..6,
        ) {
            let mut state = seed;
            let events: Vec<Event> =
                (0..nevents).map(|i| build_event(&mut state, i as u64)).collect();
            let mut text = String::new();
            for event in &events {
                let line = event.emit();
                let parsed = Event::parse(&line).map_err(|e| e.to_string())?;
                prop_assert_eq!(&parsed, event);
                prop_assert_eq!(parsed.emit(), line.clone());
                text.push_str(&line);
                text.push('\n');
            }
            let path = prop_temp("roundtrip", seed);
            std::fs::write(&path, &text).map_err(|e| e.to_string())?;
            let log = read_events(&path).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(&path);
            prop_assert!(!log.truncated_tail);
            prop_assert_eq!(log.events, events);
        }

        /// A log whose final line is cut at an arbitrary byte — the shape
        /// of a crash mid-append — heals to exactly the events before the
        /// cut, flagged as a torn tail rather than an error.
        #[test]
        fn torn_final_line_heals_to_the_valid_prefix(
            seed in 0u64..u64::MAX,
            nevents in 1usize..6,
            cut in 0usize..4096,
        ) {
            let mut state = seed;
            let events: Vec<Event> =
                (0..nevents).map(|i| build_event(&mut state, i as u64)).collect();
            let mut text = String::new();
            for event in &events[..nevents - 1] {
                text.push_str(&event.emit());
                text.push('\n');
            }
            let last = events[nevents - 1].emit();
            // Cut strictly inside the line (never keep the full line or its
            // newline), backing up to a char boundary — the cut may land
            // mid-way through a multi-byte name character.
            let mut cut = 1 + cut % (last.len() - 1);
            while !last.is_char_boundary(cut) {
                cut -= 1;
            }
            text.push_str(&last[..cut]);
            let path = prop_temp("torn", seed);
            std::fs::write(&path, &text).map_err(|e| e.to_string())?;
            let log = read_events(&path).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(&path);
            prop_assert!(log.truncated_tail, "a cut final line is a torn tail");
            prop_assert_eq!(log.events, events[..nevents - 1].to_vec());
        }
    }
}
