//! The versioned model artifact a service instance runs.

use dl2fence::FenceModelExport;

/// Everything a worker needs to rebuild its pipeline: the pipeline export
/// and a version number assigned by the service at install/swap time.
///
/// A worker clones the installed bundle's `Arc` under the same lock that
/// drains its batch, which is what makes hot-swap atomic: a batch captures
/// one bundle when it forms and runs it to completion, so no batch ever
/// mixes model versions.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The f32 pipeline (config + detector + localizer weights).
    pub fence: FenceModelExport,
    /// Monotonic version assigned by the service; version `0` is the
    /// install-time model.
    pub version: u64,
}

impl ModelBundle {
    /// A bundle at version 0.
    pub fn f32_only(fence: FenceModelExport) -> Self {
        ModelBundle { fence, version: 0 }
    }

    /// A stable fingerprint of what the bundle serves: the whole pipeline
    /// export, configuration included ([`FenceModelExport::fingerprint`]).
    /// Two bundles fingerprint equal iff a swap between them would change
    /// nothing.
    pub fn fingerprint(&self) -> u64 {
        self.fence.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl2fence::{Dl2Fence, FenceConfig};
    use noc_monitor::FeatureKind;

    fn bundle(config: FenceConfig) -> ModelBundle {
        ModelBundle::f32_only(Dl2Fence::new(config).export_model())
    }

    #[test]
    fn fingerprint_covers_the_config_and_survives_json() {
        let base = FenceConfig::new(4, 4);
        let a = bundle(base);
        let round = FenceModelExport::from_json(&a.fence.to_json().unwrap()).unwrap();
        assert_eq!(ModelBundle::f32_only(round).fingerprint(), a.fingerprint());
        // Same weights (same seed), different verdict rules.
        for changed in [
            FenceConfig {
                vce_enabled: !base.vce_enabled,
                ..base
            },
            FenceConfig {
                fusion_threshold: 0.75,
                ..base
            },
            FenceConfig {
                detection_feature: FeatureKind::Boc,
                ..base
            },
        ] {
            let b = bundle(changed);
            assert_eq!(
                b.fence.detector.fingerprint(),
                a.fence.detector.fingerprint()
            );
            assert_ne!(b.fingerprint(), a.fingerprint(), "{changed:?}");
        }
    }
}
