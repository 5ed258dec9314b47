//! `dl2fence-serve`: online multi-tenant DoS detection.
//!
//! The offline story of this workspace runs the detect → segment → fuse →
//! localize pipeline inside batch campaigns. This crate wraps the same
//! pipeline in a **long-running service** that ingests frame streams from
//! many concurrent meshes (tenants):
//!
//! - each tenant gets a [`FrameAssembler`]: a bounded ring buffer that
//!   reassembles the monitor sampler's directional frames into 4-frame
//!   bundles, with **explicit backpressure** — a window that completes
//!   while the ring is full is rejected with a [`RejectReason`] and
//!   counted, never silently dropped;
//! - a small worker pool pulls batches of assembled windows straight from
//!   the engine, round-robin across tenants, whenever a worker is free;
//!   workers run [`dl2fence::Dl2Fence::analyze_frames_batch`]: batched
//!   detector inference, and the segment → fuse → localize tail only on
//!   flagged windows;
//! - p50/p99 end-to-end and per-stage latencies fold into
//!   [`dl2fence_telemetry::AggregateSink`] histograms, snapshotted as a
//!   [`ServeStatus`] (`dl2fence-serve status --json`);
//! - models **hot-swap atomically**: a worker captures the installed
//!   [`ModelBundle`] behind an `Arc` when it takes a batch, so one batch
//!   always runs one model version and a swap never drops in-flight frames.
//!
//! The campaign engine doubles as the load generator: [`soak::run_soak`]
//! replays a campaign spec's traffic against the service, forces a
//! backpressure rejection deterministically, hot-swaps to a second model
//! mid-stream, and asserts SLOs plus verdicts bit-identical to the offline
//! pipeline of each verdict's model version.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod engine;
pub mod model;
pub mod service;
pub mod soak;
pub mod status;

pub use assembler::{AssembledWindow, FrameAssembler, RejectReason};
pub use engine::{EngineCounters, ServeEngine};
pub use model::ModelBundle;
pub use service::{DetectionService, ServeConfig, Verdict};
pub use soak::{run_soak, SoakOptions, SoakReport};
pub use status::{RejectCount, ServeStatus, STATUS_SCHEMA};
