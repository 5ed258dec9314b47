//! # tinycnn — a from-scratch convolutional neural network library
//!
//! `tinycnn` implements the small set of deep-learning primitives required to
//! train and run the two CNN models used by the DL2Fence framework:
//!
//! * a **classification** model (`Conv2d → ReLU → MaxPool2d → Flatten → Dense → Sigmoid`)
//!   used as the DoS *detector*, and
//! * a **segmentation** model (`Conv2d → ReLU → Conv2d → ReLU → Conv2d → Sigmoid`)
//!   used as the DoS *profile localizer*.
//!
//! The library is deliberately dependency-light (only `rand` for weight
//! initialization and `serde` for model serialization) because the Rust deep
//! learning ecosystem is thin and this reproduction must be fully
//! self-contained. It is **not** a general-purpose DL framework: it supports
//! dense `f32` tensors, a handful of layers, two losses and two optimizers —
//! exactly what the paper's models need, plus enough headroom for the
//! ablations (extra conv layers, different kernel counts).
//!
//! ## Quick example
//!
//! ```
//! use tinycnn::prelude::*;
//!
//! // A tiny classifier for 1×8×8 inputs.
//! let mut model = Sequential::new()
//!     .push(Conv2d::new(1, 4, 3, Padding::Valid, 42))
//!     .push(Relu::new())
//!     .push(MaxPool2d::new(2))
//!     .push(Flatten::new())
//!     .push(Dense::new(4 * 3 * 3, 1, 43))
//!     .push(Sigmoid::new());
//!
//! let x = Tensor::zeros(&[1, 1, 8, 8]);
//! let y = model.forward(&x);
//! assert_eq!(y.shape(), &[1, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod gemm;
pub mod init;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod quantize;
pub mod serialize;
pub mod tensor;
pub mod trainer;

pub use dataset::{Batch, Dataset};
pub use layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Padding, Relu, Sigmoid};
pub use loss::{BinaryCrossEntropy, DiceLoss, Loss, Mse};
pub use metrics::{binary_accuracy, confusion, dice_coefficient, BinaryConfusion};
pub use model::Sequential;
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Tensor;
pub use trainer::{Trainer, TrainingConfig, TrainingReport};

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::dataset::{Batch, Dataset};
    pub use crate::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Padding, Relu, Sigmoid};
    pub use crate::loss::{BinaryCrossEntropy, DiceLoss, Loss, Mse};
    pub use crate::metrics::{binary_accuracy, confusion, dice_coefficient, BinaryConfusion};
    pub use crate::model::Sequential;
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::tensor::Tensor;
    pub use crate::trainer::{Trainer, TrainingConfig, TrainingReport};
}
