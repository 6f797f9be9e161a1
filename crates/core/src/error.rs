//! Error types for model construction and validation.

use std::error::Error;
use std::fmt;

/// Why a [`ModelBuilder`](crate::builder::ModelBuilder) run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelBuildError {
    /// The calibration matrix is empty or has fewer than two rows/columns.
    TooFewSamples {
        /// Calibrator rows provided.
        rows: usize,
        /// External-pressure columns provided.
        cols: usize,
    },
    /// A matrix row's length disagrees with the external-pressure axis.
    RaggedMatrix {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The expected length.
        expected: usize,
    },
    /// The standalone- or external-bandwidth axis is not strictly
    /// increasing.
    NonMonotonicAxis {
        /// Which axis: `"standalone"` or `"external"`.
        axis: &'static str,
    },
    /// A relative-speed sample fell outside `(0, 100 + tolerance]`.
    InvalidRelativeSpeed {
        /// Row of the sample.
        row: usize,
        /// Column of the sample.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// The peak bandwidth supplied was not positive.
    InvalidPeakBandwidth {
        /// The offending value.
        value: f64,
    },
    /// A model's parameters break an invariant of
    /// [`PccsModel::validate`](crate::PccsModel::validate).
    InvalidParameters {
        /// The broken invariant.
        reason: &'static str,
    },
}

impl fmt::Display for ModelBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelBuildError::TooFewSamples { rows, cols } => write!(
                f,
                "calibration needs at least 2x2 samples, got {rows}x{cols}"
            ),
            ModelBuildError::RaggedMatrix { row, len, expected } => {
                write!(f, "matrix row {row} has {len} samples, expected {expected}")
            }
            ModelBuildError::NonMonotonicAxis { axis } => {
                write!(f, "{axis} bandwidth axis is not strictly increasing")
            }
            ModelBuildError::InvalidRelativeSpeed { row, col, value } => write!(
                f,
                "relative speed at [{row}][{col}] is {value}, outside (0, 100]"
            ),
            ModelBuildError::InvalidPeakBandwidth { value } => {
                write!(f, "peak bandwidth {value} is not positive")
            }
            ModelBuildError::InvalidParameters { reason } => {
                write!(f, "invalid model parameters: {reason}")
            }
        }
    }
}

impl Error for ModelBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_useful_messages() {
        let e = ModelBuildError::TooFewSamples { rows: 1, cols: 0 };
        assert!(e.to_string().contains("1x0"));
        let e = ModelBuildError::NonMonotonicAxis { axis: "external" };
        assert!(e.to_string().contains("external"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_: E) {}
        takes_error(ModelBuildError::InvalidPeakBandwidth { value: -1.0 });
    }
}
