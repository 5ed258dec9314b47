//! Every committed campaign spec — the quick ones in `specs/` and the
//! paper-scale ones in `specs/paper/` — loads and expands to a non-empty run
//! matrix, and the paper-scale table specs keep the paper's matrix sizes.
//! CI runs the paper binaries only at quick scale, so this is what keeps
//! `specs/paper/` from breaking unnoticed.

use dl2fence_campaign::{expand, CampaignSpec};
use std::path::{Path, PathBuf};

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn toml_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

fn run_count(path: &Path) -> usize {
    let spec = CampaignSpec::from_path(path)
        .unwrap_or_else(|e| panic!("{} does not load: {e}", path.display()));
    expand(&spec)
        .unwrap_or_else(|e| panic!("{} does not expand: {e}", path.display()))
        .len()
}

#[test]
fn every_committed_spec_expands_to_a_non_empty_matrix() {
    let dir = specs_dir();
    let quick = toml_files(&dir);
    let paper = toml_files(&dir.join("paper"));
    assert!(quick.len() >= 2 && paper.len() >= 4, "{quick:?} {paper:?}");
    for path in quick.iter().chain(&paper) {
        assert!(run_count(path) > 0, "{} expands to no runs", path.display());
    }
}

#[test]
fn paper_scale_table_specs_have_the_paper_matrix_sizes() {
    let paper = specs_dir().join("paper");
    // 6 patterns × (6 attack-free runs + 18 attack placements).
    assert_eq!(run_count(&paper.join("stp.toml")), 144);
    // 3 workloads × (6 attack-free runs + 18 attack placements).
    assert_eq!(run_count(&paper.join("parsec.toml")), 72);
}

#[test]
fn every_quick_bench_spec_has_a_paper_scale_twin() {
    let dir = specs_dir();
    for name in ["stp", "parsec", "fig4_localization", "fir_sweep"] {
        let quick = CampaignSpec::from_path(&dir.join(format!("{name}.toml"))).unwrap();
        let paper = CampaignSpec::from_path(&dir.join(format!("paper/{name}.toml"))).unwrap();
        assert_eq!(quick.name, paper.name, "{name}");
        assert_eq!(quick.grid.workloads, paper.grid.workloads, "{name}");
        assert_eq!(quick.eval.enabled, paper.eval.enabled, "{name}");
    }
}

#[test]
fn figure1_config_covers_eleven_points() {
    // Figure 1 sweeps FIR 0.0–1.0 in steps of 0.1 at both scales.
    let dir = specs_dir();
    for path in [dir.join("fir_sweep.toml"), dir.join("paper/fir_sweep.toml")] {
        let fir = CampaignSpec::from_path(&path).unwrap().grid.fir;
        let expected: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        assert_eq!(fir, expected, "{}", path.display());
    }
}
