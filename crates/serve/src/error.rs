//! Typed failures of the serving loop.

use std::fmt;

/// A failure configuring or running the serving loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The serving loop was started with no request classes.
    EmptyClasses,
    /// A request class cannot run on any PU of the SoC preset.
    UnschedulableClass {
        /// The class name.
        class: String,
        /// The SoC the class was validated against.
        soc: String,
    },
    /// A trace-replay line names a class that does not exist.
    UnknownTraceClass {
        /// The class named in the trace.
        class: String,
        /// The classes the run does have.
        available: Vec<String>,
    },
    /// A trace-replay line could not be parsed.
    BadTrace {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// An arrival or admission parameter is outside its valid range.
    BadConfig {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyClasses => write!(f, "serving needs at least one request class"),
            Self::UnschedulableClass { class, soc } => {
                write!(f, "request class '{class}' cannot run on any PU of {soc}")
            }
            Self::UnknownTraceClass { class, available } => write!(
                f,
                "trace names unknown request class '{class}' (available: {})",
                available.join(", ")
            ),
            Self::BadTrace { line, detail } => write!(f, "trace line {line}: {detail}"),
            Self::BadConfig { detail } => write!(f, "invalid serving config: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = ServeError::UnknownTraceClass {
            class: "resnet".into(),
            available: vec!["mnist".into(), "alexnet".into()],
        };
        let text = e.to_string();
        assert!(text.contains("resnet"));
        assert!(text.contains("mnist, alexnet"));
        assert!(ServeError::BadTrace {
            line: 4,
            detail: "missing class".into()
        }
        .to_string()
        .contains("line 4"));
    }
}
