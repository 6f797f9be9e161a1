//! Typed failures of the experiment harness.
//!
//! The experiments drive the simulators with *named* resources — PUs
//! looked up by name on a `SocConfig`, mixes and policies looked up by
//! name in `pccs-sched`. A misspelled or missing name used to panic deep
//! inside an experiment; it now surfaces as an [`ExperimentError`] that the
//! `repro` binary prints as a one-line diagnosis.

use pccs_soc::soc::SocConfig;
use std::fmt;

/// A failure preparing or running an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// A PU name was not found on the SoC preset (e.g. asking the
    /// Snapdragon 855 for its DLA).
    MissingPu {
        /// The SoC searched.
        soc: String,
        /// The PU name requested.
        pu: String,
        /// The names the SoC does have.
        available: Vec<String>,
    },
    /// A named scheduling mix does not exist.
    UnknownMix {
        /// The mix requested.
        mix: String,
        /// The bundled mix names.
        available: Vec<String>,
    },
    /// A named scheduling policy does not exist.
    UnknownPolicy {
        /// The policy requested.
        policy: String,
    },
    /// The scheduling or serving engine rejected the job stream — e.g. a
    /// mix references a PU kind absent from the chosen SoC preset.
    Sched {
        /// The underlying engine error, rendered.
        detail: String,
    },
    /// The serving loop rejected its configuration — e.g. a request class
    /// that cannot run anywhere on the chosen SoC preset.
    Serve {
        /// The underlying serving error, rendered.
        detail: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingPu { soc, pu, available } => write!(
                f,
                "SoC '{soc}' has no PU named '{pu}' (available: {})",
                available.join(", ")
            ),
            Self::UnknownMix { mix, available } => write!(
                f,
                "unknown scheduling mix '{mix}' (available: {})",
                available.join(", ")
            ),
            Self::UnknownPolicy { policy } => write!(
                f,
                "unknown scheduling policy '{policy}' (available: round-robin, greedy, pccs, oracle)"
            ),
            Self::Sched { detail } => write!(f, "scheduling engine: {detail}"),
            Self::Serve { detail } => write!(f, "serving loop: {detail}"),
        }
    }
}

impl ExperimentError {
    /// The [`ExperimentError::MissingPu`] for PU `name` on `soc`.
    pub(crate) fn missing_pu(soc: &SocConfig, name: &str) -> Self {
        Self::MissingPu {
            soc: soc.name.clone(),
            pu: name.to_owned(),
            available: soc.pus.iter().map(|pu| pu.name.clone()).collect(),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<pccs_sched::SchedError> for ExperimentError {
    fn from(err: pccs_sched::SchedError) -> Self {
        Self::Sched {
            detail: err.to_string(),
        }
    }
}

impl From<pccs_serve::ServeError> for ExperimentError {
    fn from(err: pccs_serve::ServeError) -> Self {
        Self::Serve {
            detail: err.to_string(),
        }
    }
}

/// Shorthand result for experiment `run` functions.
pub type Result<T> = std::result::Result<T, ExperimentError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_missing_resource() {
        let e = ExperimentError::MissingPu {
            soc: "Snapdragon 855".into(),
            pu: "DLA".into(),
            available: vec!["CPU".into(), "GPU".into()],
        };
        let text = e.to_string();
        assert!(text.contains("Snapdragon 855"));
        assert!(text.contains("DLA"));
        assert!(text.contains("CPU, GPU"));
    }
}
