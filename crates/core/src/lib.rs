//! # dl2fence — deep learning and frame fusion for flooding-DoS detection
//! and localization in large-scale NoCs
//!
//! This crate is the reproduction of the paper's primary contribution. It
//! composes the three framework stages on top of the [`noc_sim`],
//! [`noc_traffic`], [`noc_monitor`] and [`tinycnn`] substrates:
//!
//! 1. **DoS Detector** ([`DosDetector`]) — a lightweight CNN *classification*
//!    model that consumes the four directional **VCO** feature frames as a
//!    4-channel image and outputs the probability that a flooding attack is
//!    in progress.
//! 2. **DoS Profile Localizer** ([`DosLocalizer`]) — a CNN *segmentation*
//!    model that consumes one (normalized **BOC**) directional frame at a
//!    time and marks the pixels (routers) whose input port lies on the
//!    attack route.
//! 3. **Victim & attacker localization** — [`fusion::MultiFrameFusion`]
//!    merges the binarized, zero-padded segmentation outputs into a single
//!    victim map (Algorithm 1), [`vce::VictimComplementingEnhancement`]
//!    optionally completes the routing-path victims by reverse XY-routing
//!    deduction, and [`tlm::TableLikeMethod`] converts the abnormal
//!    directions plus the routing-path-victim extents into attacker node
//!    identifiers (Figure 3). VCE and TLM hold the protected NoC's
//!    [`noc_sim::Topology`], the only owner of node neighbours, distances
//!    and routes, and are built with `new(topology)`; fusion needs only the
//!    frame shape.
//!
//! [`Dl2Fence`] wires the stages into the end-to-end pipeline the paper
//! evaluates in Tables 1–3, building the mesh `Topology` once from its
//! [`FenceConfig`], and [`evaluation`] reproduces those tables' metrics.
//!
//! ## Quick example
//!
//! Train on a small collected dataset and analyse a fresh sample:
//!
//! ```no_run
//! use dl2fence::prelude::*;
//! use noc_sim::NocConfig;
//! use noc_traffic::{BenignWorkload, SyntheticPattern};
//! use noc_monitor::{CollectionConfig, DatasetGenerator};
//! use noc_monitor::dataset::specs_for_benchmark;
//!
//! let noc = NocConfig::mesh(8, 8);
//! let generator = DatasetGenerator::new(CollectionConfig::quick(noc.clone()));
//! let workload = BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.02);
//! let samples = generator.collect(&specs_for_benchmark(workload, 8, 8, 6, 3, 0.8));
//!
//! let mut fence = Dl2Fence::new(FenceConfig::new(8, 8));
//! fence.train(&samples);
//! let report = fence.analyze(&samples[0]);
//! println!("attack detected: {}", report.detected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod evaluation;
pub mod fusion;
pub mod input;
pub mod localizer;
pub mod pipeline;
pub mod tlm;
pub mod vce;

pub use detector::{DetectionResult, DosDetector, QuantizedDetector};
pub use evaluation::{BenchmarkMetrics, EvaluationReport};
pub use fusion::MultiFrameFusion;
pub use localizer::DosLocalizer;
pub use pipeline::{Dl2Fence, FenceConfig, FenceModelExport, FenceReport};
pub use tlm::TableLikeMethod;
pub use vce::VictimComplementingEnhancement;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::detector::{DetectionResult, DosDetector, QuantizedDetector};
    pub use crate::evaluation::{BenchmarkMetrics, EvaluationReport};
    pub use crate::fusion::MultiFrameFusion;
    pub use crate::localizer::DosLocalizer;
    pub use crate::pipeline::{Dl2Fence, FenceConfig, FenceModelExport, FenceReport};
    pub use crate::tlm::TableLikeMethod;
    pub use crate::vce::VictimComplementingEnhancement;
}
