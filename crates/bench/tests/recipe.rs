//! The paper binaries score the eval phase's own recipe. On the quick `stp`
//! spec, `eval_job` is the job behind the campaign report's evaluation, so
//! the ablations' baseline rows are Table 3/4's numbers: the quantization
//! ablation's float detector scores Table 4's detection, and threshold 0.5
//! with VCE on scores Table 3's localization.

use dl2fence_bench::{eval_job, quantized_detection};
use dl2fence_campaign::{CampaignReport, CampaignSpec, EvalEntry, EvalJob, Executor};
use dl2fence_telemetry::Recorder;
use std::path::Path;
use std::sync::OnceLock;

/// The quick `stp` spec's eval job and its campaign report's evaluation,
/// built once for every test in this file.
fn fixture() -> &'static (EvalJob, EvalEntry) {
    static FIXTURE: OnceLock<(EvalJob, EvalEntry)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/stp.toml");
        let spec = CampaignSpec::from_path(&path).expect("specs/stp.toml loads");
        let outcome = Executor::new(2).execute(&spec).expect("stp executes");
        let report = CampaignReport::build(&outcome).expect("stp's eval phase runs");
        let entry = report
            .evaluations
            .into_iter()
            .next()
            .expect("stp enables eval");
        (eval_job(&spec), entry)
    })
}

#[test]
fn eval_job_trains_and_scores_the_report_evaluation_bit_for_bit() {
    let (job, entry) = fixture();
    let run = job.run(&Recorder::default());
    assert_eq!(run, *entry);
    assert_eq!(
        serde_json::to_string(&run).unwrap(),
        serde_json::to_string(entry).unwrap()
    );
}

#[test]
fn quantization_float_detector_is_the_eval_phase_detector() {
    let (job, entry) = fixture();
    let export = job.train_fence(&Recorder::default()).export_model();
    let float = quantized_detection(job, &export, 32);
    let table = entry.report.overall_detection();
    assert_eq!(float, table);
    assert_eq!(float.accuracy().to_bits(), table.accuracy().to_bits());
}

#[test]
fn threshold_one_half_with_vce_on_is_the_eval_phase_localization() {
    let (job, entry) = fixture();
    let mut config = job.config;
    config.fusion_threshold = 0.5;
    config.vce_enabled = true;
    let ablation = EvalJob {
        config,
        train: job.train.clone(),
        test: job.test.clone(),
    };
    let localization = ablation
        .run(&Recorder::default())
        .report
        .overall_localization();
    assert_eq!(localization, entry.report.overall_localization());
}
