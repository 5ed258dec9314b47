//! The `campaign` CLI refuses `--workers 0` while parsing, before it
//! creates a directory or executes a run, instead of running on one worker;
//! and `watch` and `compact` are no longer subcommands (`status` and
//! `report --timings` inspect a campaign; the fold alone writes its log).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("the campaign binary runs")
}

fn spec() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke.toml").to_string()
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn path(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

#[test]
fn zero_workers_exit_1_and_create_nothing() {
    let root = temp_root("zero-workers");
    let spec = spec();
    let (run_dir, resume_dir, shard_dir) =
        (root.join("run"), root.join("resume"), root.join("shard"));
    let (merge_in, merge_out) = (root.join("merge-in"), root.join("merge-out"));
    let cases: [(Vec<&str>, &Path); 4] = [
        (vec!["run", &spec, "--out", path(&run_dir)], &run_dir),
        (vec!["resume", path(&resume_dir)], &resume_dir),
        (
            vec![
                "shard",
                &spec,
                "--shards",
                "2",
                "--index",
                "0",
                "--out",
                path(&shard_dir),
            ],
            &shard_dir,
        ),
        (
            vec!["merge", path(&merge_in), "--out", path(&merge_out)],
            &merge_out,
        ),
    ];
    for (mut args, created) in cases {
        args.extend(["--workers", "0"]);
        let out = campaign(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let message = stderr.lines().next().unwrap_or_default();
        assert!(
            message.contains("--workers"),
            "{args:?}: the message names --workers: {stderr}"
        );
        assert!(!created.exists(), "{args:?} created {}", created.display());
    }
    assert!(!root.exists(), "no subcommand may create the temp root");
}

#[test]
fn watch_and_compact_are_unknown_subcommands() {
    let dir = temp_root("removed");
    for verb in ["watch", "compact"] {
        let out = campaign(&[verb, path(&dir)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{verb}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown subcommand `{verb}`")),
            "{verb}: {stderr}"
        );
    }
}
