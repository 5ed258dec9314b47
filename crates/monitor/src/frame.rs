//! Directional feature frames.

use noc_sim::Direction;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which feature a frame holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Virtual Channel Occupancy (instantaneous, already in `[0, 1]`).
    Vco,
    /// Buffer Operation Counts (accumulated over the sampling window,
    /// requires min–max normalization before model inference).
    Boc,
}

impl FeatureKind {
    /// The feature name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureKind::Vco => "VCO",
            FeatureKind::Boc => "BOC",
        }
    }

    /// Whether this feature needs normalization before being fed to a model.
    pub fn needs_normalization(&self) -> bool {
        matches!(self, FeatureKind::Boc)
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One directional feature frame: a `rows × cols` matrix whose pixel
/// `(y, x)` is the feature value of the input port facing `direction` at
/// node `y·cols + x` (0 where that port does not exist).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureFrame {
    direction: Direction,
    kind: FeatureKind,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl FeatureFrame {
    /// Creates a frame from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(
        direction: Direction,
        kind: FeatureKind,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> Self {
        assert_eq!(data.len(), rows * cols, "frame data length mismatch");
        FeatureFrame {
            direction,
            kind,
            rows,
            cols,
            data,
        }
    }

    /// Creates an all-zero frame.
    pub fn zeros(direction: Direction, kind: FeatureKind, rows: usize, cols: usize) -> Self {
        Self::new(direction, kind, rows, cols, vec![0.0; rows * cols])
    }

    /// The port direction this frame describes.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The feature kind.
    pub fn kind(&self) -> FeatureKind {
        self.kind
    }

    /// Number of rows (mesh rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (mesh columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major pixel data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The value at mesh coordinate `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.cols && y < self.rows, "({x}, {y}) out of range");
        self.data[y * self.cols + x]
    }

    /// Sets the value at mesh coordinate `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(x < self.cols && y < self.rows, "({x}, {y}) out of range");
        self.data[y * self.cols + x] = value;
    }

    /// The largest pixel value.
    pub fn max_value(&self) -> f32 {
        self.data.iter().cloned().fold(0.0f32, f32::max)
    }

    /// Min–max normalizes the frame into `[0, 1]` (a constant frame becomes
    /// all zeros). BOC frames must be normalized before inference; VCO
    /// frames are already in range.
    pub fn normalized(&self) -> FeatureFrame {
        let lo = self.data.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let data = if (hi - lo).abs() < f32::EPSILON {
            vec![0.0; self.data.len()]
        } else {
            self.data.iter().map(|v| (v - lo) / (hi - lo)).collect()
        };
        FeatureFrame {
            data,
            ..self.clone()
        }
    }

    /// Binarizes the frame with the given threshold (pixels strictly above
    /// the threshold become 1.0).
    pub fn binarized(&self, threshold: f32) -> FeatureFrame {
        FeatureFrame {
            data: self
                .data
                .iter()
                .map(|&v| if v > threshold { 1.0 } else { 0.0 })
                .collect(),
            ..self.clone()
        }
    }
}

/// The bundle of four cardinal-direction frames sampled at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectionalFrames {
    kind: FeatureKind,
    rows: usize,
    cols: usize,
    frames: Vec<FeatureFrame>,
}

impl DirectionalFrames {
    /// Assembles the bundle from exactly four frames in E, N, W, S order.
    ///
    /// # Panics
    ///
    /// Panics if the frames are not in E, N, W, S order or have mismatched
    /// shapes or kinds.
    pub fn new(frames: Vec<FeatureFrame>) -> Self {
        assert_eq!(frames.len(), 4, "exactly four directional frames expected");
        for (frame, dir) in frames.iter().zip(Direction::CARDINAL) {
            assert_eq!(frame.direction(), dir, "frames must be in E, N, W, S order");
            assert_eq!(frame.rows(), frames[0].rows());
            assert_eq!(frame.cols(), frames[0].cols());
            assert_eq!(frame.kind(), frames[0].kind());
        }
        DirectionalFrames {
            kind: frames[0].kind(),
            rows: frames[0].rows(),
            cols: frames[0].cols(),
            frames,
        }
    }

    /// The feature kind of all four frames.
    pub fn kind(&self) -> FeatureKind {
        self.kind
    }

    /// Mesh rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mesh columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The frame for one cardinal direction.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is [`Direction::Local`].
    pub fn frame(&self, dir: Direction) -> &FeatureFrame {
        assert_ne!(dir, Direction::Local, "no frame exists for the local port");
        &self.frames[dir.index()]
    }

    /// Iterates over the four frames in E, N, W, S order.
    pub fn iter(&self) -> impl Iterator<Item = &FeatureFrame> {
        self.frames.iter()
    }

    /// The largest pixel value across all four frames.
    pub fn max_value(&self) -> f32 {
        self.frames
            .iter()
            .map(|f| f.max_value())
            .fold(0.0, f32::max)
    }

    /// Flattens the four frames into a single channel-major buffer
    /// `[4 · rows · cols]` in E, N, W, S order — the layout the detector CNN
    /// consumes as a 4-channel image.
    pub fn to_channels(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(4 * self.rows * self.cols);
        for f in &self.frames {
            out.extend_from_slice(f.data());
        }
        out
    }

    /// Decomposes the bundle back into its four frames in E, N, W, S order —
    /// the wire shape a frame stream delivers one direction at a time, which
    /// a receiving assembler reassembles via [`DirectionalFrames::new`].
    pub fn into_frames(self) -> Vec<FeatureFrame> {
        self.frames
    }

    /// Applies min–max normalization to every frame.
    pub fn normalized(&self) -> DirectionalFrames {
        DirectionalFrames {
            kind: self.kind,
            rows: self.rows,
            cols: self.cols,
            frames: self.frames.iter().map(|f| f.normalized()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dir: Direction, data: Vec<f32>) -> FeatureFrame {
        FeatureFrame::new(dir, FeatureKind::Vco, 2, 2, data)
    }

    #[test]
    fn get_set_round_trip() {
        let mut f = FeatureFrame::zeros(Direction::East, FeatureKind::Boc, 3, 4);
        f.set(2, 1, 7.0);
        assert_eq!(f.get(2, 1), 7.0);
        assert_eq!(f.data()[4 + 2], 7.0);
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let f = frame(Direction::East, vec![2.0, 4.0, 6.0, 10.0]);
        let n = f.normalized();
        assert_eq!(n.data()[0], 0.0);
        assert_eq!(n.data()[3], 1.0);
        assert!((n.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn constant_frame_normalizes_to_zero() {
        let f = frame(Direction::East, vec![3.0; 4]);
        assert!(f.normalized().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn binarization_thresholds_strictly() {
        let f = frame(Direction::West, vec![0.1, 0.5, 0.6, 0.9]);
        let b = f.binarized(0.5);
        assert_eq!(b.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn directional_bundle_enforces_order() {
        let frames = vec![
            frame(Direction::East, vec![0.0; 4]),
            frame(Direction::North, vec![0.0; 4]),
            frame(Direction::West, vec![0.0; 4]),
            frame(Direction::South, vec![0.0; 4]),
        ];
        let bundle = DirectionalFrames::new(frames);
        assert_eq!(bundle.frame(Direction::West).direction(), Direction::West);
        assert_eq!(bundle.to_channels().len(), 16);
    }

    #[test]
    #[should_panic(expected = "E, N, W, S order")]
    fn wrong_order_panics() {
        let frames = vec![
            frame(Direction::North, vec![0.0; 4]),
            frame(Direction::East, vec![0.0; 4]),
            frame(Direction::West, vec![0.0; 4]),
            frame(Direction::South, vec![0.0; 4]),
        ];
        DirectionalFrames::new(frames);
    }

    #[test]
    #[should_panic(expected = "local port")]
    fn local_frame_access_panics() {
        let frames = vec![
            frame(Direction::East, vec![0.0; 4]),
            frame(Direction::North, vec![0.0; 4]),
            frame(Direction::West, vec![0.0; 4]),
            frame(Direction::South, vec![0.0; 4]),
        ];
        let bundle = DirectionalFrames::new(frames);
        bundle.frame(Direction::Local);
    }

    #[test]
    fn into_frames_round_trips_through_new() {
        let frames = vec![
            frame(Direction::East, vec![0.5; 4]),
            frame(Direction::North, vec![0.25; 4]),
            frame(Direction::West, vec![0.75; 4]),
            frame(Direction::South, vec![1.0; 4]),
        ];
        let bundle = DirectionalFrames::new(frames.clone());
        let parts = bundle.clone().into_frames();
        assert_eq!(parts, frames);
        assert_eq!(DirectionalFrames::new(parts), bundle);
    }

    #[test]
    fn feature_kind_properties() {
        assert!(FeatureKind::Boc.needs_normalization());
        assert!(!FeatureKind::Vco.needs_normalization());
        assert_eq!(FeatureKind::Vco.name(), "VCO");
    }
}
