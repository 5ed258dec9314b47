//! Versioned JSON schema identifiers for every self-describing artifact
//! the workspace writes.
//!
//! Each identifier is `<producer>/<artifact>/v<version>` and is stamped
//! into the artifact's `schema` field. Consumers (CI greps, the benchmark
//! baseline differ, external tooling) match on the exact string, so a
//! format change that is not read-compatible MUST bump the version here —
//! and only here: every producer re-exports its constant from this module,
//! which is what keeps a topology- or attack-axis field addition a
//! single-line version decision instead of a scavenger hunt.

/// `campaign report --timings` timing summaries (committed baselines live
/// in `BENCH_campaign.json`).
pub const TIMINGS_SCHEMA: &str = "dl2fence-campaign/timings/v1";

/// `dl2fence-serve status --json` snapshots. v2 dropped v1's `quantized`
/// field.
pub const STATUS_SCHEMA: &str = "dl2fence-serve/status/v2";

/// `manifest.json` at the root of a streaming campaign directory.
/// Manifests written before the tag existed carry an empty `schema`
/// field and stay loadable.
pub const MANIFEST_SCHEMA: &str = "dl2fence-campaign/manifest/v1";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_follow_the_producer_artifact_version_shape() {
        for id in [TIMINGS_SCHEMA, STATUS_SCHEMA, MANIFEST_SCHEMA] {
            let parts: Vec<&str> = id.split('/').collect();
            assert_eq!(parts.len(), 3, "{id} must be producer/artifact/version");
            assert!(parts[0].starts_with("dl2fence"), "{id}");
            assert!(parts[2].starts_with('v'), "{id}");
            assert!(parts[2][1..].parse::<u32>().is_ok(), "{id}");
        }
    }
}
