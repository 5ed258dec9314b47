//! # noc-monitor — the global performance monitor of the DL2Fence framework
//!
//! The paper attaches a *global performance monitor* to the NoC that
//! periodically samples two features from every router input port:
//!
//! * **VCO** (Virtual Channel Occupancy) — an instantaneous value in
//!   `[0, 1]`, used by the DoS *detector*;
//! * **BOC** (Buffer Operation Counts) — the number of buffer reads/writes
//!   accumulated over the sampling window, used by the DoS *localizer* after
//!   min–max normalization.
//!
//! Samples are arranged as **directional feature frames**: one matrix per
//! input-port direction (E, N, W, S) whose pixel `(y, x)` is the feature of
//! the router at node `y·cols + x`. Routers that lack a port in a direction
//! (mesh edges) contribute a zero pixel, so every frame has the full
//! `rows × cols` shape — a superset of the paper's `R × (R−1)` frames that
//! keeps the pixel→node mapping trivial for the localization stage (the extra
//! column/row is identically zero and carries no information).
//!
//! The crate also contains the dataset generator used to train and evaluate
//! the two CNN models (it re-creates the paper's "162 simulations, 12 960
//! frames" collection procedure at configurable scale) and the one
//! monitoring-window loop ([`dataset::sample_windows`]) that every
//! collection, the campaign engine's included, runs. Figure 1's latency
//! sweep runs on the campaign engine.
//!
//! ## Quick example
//!
//! ```
//! use noc_sim::{NocConfig, NodeId};
//! use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};
//! use noc_monitor::{FeatureKind, FrameSampler};
//!
//! let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
//!     .benign(SyntheticPattern::UniformRandom, 0.02)
//!     .attack(DosAttack::new(AttackKind::Fdos, vec![NodeId(63)], NodeId(0), 0.8))
//!     .build();
//! scenario.run(1_000);
//! let frames = FrameSampler::sample(scenario.network(), FeatureKind::Vco);
//! assert_eq!(frames.rows(), 8);
//! assert!(frames.max_value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod frame;
pub mod label;
pub mod sampler;

pub use dataset::{CollectionConfig, DatasetGenerator, LabeledSample, ScenarioSpec};
pub use frame::{DirectionalFrames, FeatureFrame, FeatureKind};
pub use label::GroundTruth;
pub use sampler::FrameSampler;
