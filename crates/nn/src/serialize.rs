//! Model serialization.
//!
//! Trained models are exported to a JSON-friendly [`ModelExport`] so that the
//! detector and localizer weights produced by a training run can be stored as
//! experiment artifacts and reloaded later (e.g. by the benchmark harness).

use crate::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Padding, Relu, Sigmoid};
use crate::model::Sequential;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Serializable description of one layer (configuration plus weights).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LayerExport {
    /// A [`Conv2d`] layer.
    Conv2d {
        /// Number of input channels.
        in_channels: usize,
        /// Number of output channels (kernels).
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Padding mode.
        padding: Padding,
        /// Weight tensor `[out, in, k, k]`.
        weight: Tensor,
        /// Bias tensor `[out]`.
        bias: Tensor,
    },
    /// A [`Dense`] layer.
    Dense {
        /// Number of input features.
        in_features: usize,
        /// Number of output features.
        out_features: usize,
        /// Weight tensor `[in, out]`.
        weight: Tensor,
        /// Bias tensor `[out]`.
        bias: Tensor,
    },
    /// A [`MaxPool2d`] layer.
    MaxPool2d {
        /// Square pooling window.
        window: usize,
    },
    /// A [`Relu`] activation.
    Relu,
    /// A [`Sigmoid`] activation.
    Sigmoid,
    /// A [`Flatten`] layer.
    Flatten,
}

impl LayerExport {
    /// Rebuilds a boxed layer from this export.
    pub fn into_layer(self) -> Box<dyn Layer> {
        match self {
            LayerExport::Conv2d {
                in_channels,
                out_channels,
                kernel,
                padding,
                weight,
                bias,
            } => Box::new(Conv2d::from_weights(
                in_channels,
                out_channels,
                kernel,
                padding,
                weight,
                bias,
            )),
            LayerExport::Dense {
                in_features,
                out_features,
                weight,
                bias,
            } => Box::new(Dense::from_weights(in_features, out_features, weight, bias)),
            LayerExport::MaxPool2d { window } => Box::new(MaxPool2d::new(window)),
            LayerExport::Relu => Box::new(Relu::new()),
            LayerExport::Sigmoid => Box::new(Sigmoid::new()),
            LayerExport::Flatten => Box::new(Flatten::new()),
        }
    }
}

/// Serializable description of a whole [`Sequential`] model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelExport {
    /// The layers, in forward order.
    pub layers: Vec<LayerExport>,
}

impl ModelExport {
    /// Serializes the export to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails (it cannot for
    /// well-formed tensors, but the signature is fallible for forward
    /// compatibility).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses an export from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Rebuilds a runnable [`Sequential`] model from this export.
    pub fn into_model(self) -> Sequential {
        let mut model = Sequential::new();
        for layer in self.layers {
            model = model.push_boxed(layer.into_layer());
        }
        model
    }

    /// A stable 64-bit fingerprint of the exported weights (FNV-1a over the
    /// canonical JSON form). Two exports fingerprint equal iff they
    /// serialize identically, so a serving layer can tag model versions and
    /// detect whether a hot-swap actually changed the model.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_json(&self.to_json().expect("model export serializes"))
    }
}

/// FNV-1a over a canonical JSON serialization: the fingerprint of any
/// artifact that serializes to JSON.
pub fn fingerprint_json(json: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Sequential {
        Sequential::new()
            .push(Conv2d::new(1, 2, 3, Padding::Valid, 7))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(2 * 3 * 3, 1, 8))
            .push(Sigmoid::new())
    }

    #[test]
    fn export_import_preserves_predictions() {
        let mut model = tiny_model();
        let x = crate::init::Init::XavierUniform.make(&[2, 1, 8, 8], 64, 64, 1);
        let y_before = model.forward(&x);

        let json = model.export().to_json().unwrap();
        let mut restored = ModelExport::from_json(&json).unwrap().into_model();
        let y_after = restored.forward(&x);

        for (a, b) in y_before.data().iter().zip(y_after.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn export_layer_count_matches() {
        let model = tiny_model();
        assert_eq!(model.export().layers.len(), 6);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(ModelExport::from_json("{not json").is_err());
    }

    #[test]
    fn fingerprints_distinguish_models_and_survive_round_trips() {
        let a = tiny_model().export();
        let b = Sequential::new()
            .push(Conv2d::new(1, 2, 3, Padding::Valid, 99))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(2 * 3 * 3, 1, 100))
            .push(Sigmoid::new())
            .export();
        assert_ne!(a.fingerprint(), b.fingerprint(), "distinct weights");
        let round = ModelExport::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(a.fingerprint(), round.fingerprint(), "round trip stable");
    }
}
