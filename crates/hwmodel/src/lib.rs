//! # hw-overhead — analytical hardware area model for DL2Fence
//!
//! The paper synthesizes two CNN accelerators (one detector, one localizer,
//! each built from three pipelined convolution kernels) next to a
//! ProNoC-generated mesh and reports the accelerator area as a fraction of
//! the NoC area: **7.4 % on 4×4, 1.9 % on 8×8, 0.45 % on 16×16 and 0.11 % on
//! 32×32** (Figure 5), plus a comparison against distributed per-router
//! schemes (Table 4).
//!
//! ASIC synthesis is not available in this reproduction, so this crate models
//! the area analytically:
//!
//! * the NoC area grows with the number of routers and links (routers
//!   dominate; each has 5 ports × VCs × buffer depth of flit storage plus a
//!   crossbar and allocators);
//! * the DL2Fence accelerators are **global** — exactly two of them serve the
//!   whole chip, so their area is *constant* in mesh size;
//! * distributed schemes add a fixed per-router overhead, so their relative
//!   cost never amortises with mesh size.
//!
//! The accelerator area constant is calibrated so the model reproduces the
//! paper's published overhead points; the NoC per-router area uses
//! gate-count estimates typical of an open-source VC router. The headline
//! claim — overhead falls roughly as `1/N²` and drops by ≈76 % from 8×8 to
//! 16×16 — is a structural property the model preserves.
//!
//! ## Quick example
//!
//! ```
//! use hw_overhead::{AreaModel, RouterParams};
//!
//! let model = AreaModel::new(RouterParams::default());
//! let overhead_8 = model.dl2fence_overhead(8);
//! let overhead_16 = model.dl2fence_overhead(16);
//! assert!(overhead_16 < overhead_8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod comparison;

pub use area::{AreaModel, RouterParams};
pub use comparison::{related_works, ComparisonEntry};
