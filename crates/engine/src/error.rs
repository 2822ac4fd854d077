//! The workspace-unified error type.
//!
//! Before the engine, each subsystem crate answered solvability questions
//! through its own error type and callers had to juggle four `Result`
//! vocabularies. [`Error`] wraps all four per-crate errors plus the
//! engine's own failure modes (missing spec, cross-engine disagreement,
//! rejected evidence, exhausted budgets, malformed JSON). The
//! `gsb_universe` facade re-exports it as `gsb_universe::Error`.

use std::fmt;

/// A specialized [`Result`](std::result::Result) type for engine
/// operations.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified error type of the query→verdict engine (re-exported as
/// `gsb_universe::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A task-model error from `gsb-core` (invalid spec, infeasible…).
    Core(gsb_core::Error),
    /// A simulation error from `gsb-memory` (step limits, protocol
    /// violations…).
    Memory(gsb_memory::Error),
    /// An algorithm-layer error from `gsb-algorithms` (unsupported
    /// configuration, spec violation in a sweep…).
    Algorithms(gsb_algorithms::Error),
    /// A topology-layer error from `gsb-topology` (witness replay or
    /// certificate failure).
    Topology(gsb_topology::Error),
    /// The question needs a task specification but the query has none
    /// (only [`Question::Atlas`](crate::Question::Atlas) runs spec-less).
    MissingSpec {
        /// Label of the question that was asked.
        question: String,
    },
    /// The query is well-formed but outside what the engine supports.
    Unsupported {
        /// Human-readable description.
        reason: String,
    },
    /// **Cross-engine disagreement**: two verdict sources that must
    /// concur (classifier vs. round-bounded search, or the CDCL engine
    /// vs. the reference backtracker) produced conflicting answers. This
    /// is a diagnostic error — it means a soundness bug somewhere, not a
    /// property of the task.
    Disagreement {
        /// Label of the question being answered.
        question: String,
        /// What disagreed with what.
        details: String,
    },
    /// The verdict's evidence failed its independent re-verification.
    /// Like [`Error::Disagreement`], this flags an engine bug.
    EvidenceRejected {
        /// What the re-check found.
        details: String,
    },
    /// A governed computation stopped before reaching a verdict
    /// (cancellation, deadline, budget exhaustion, or an injected
    /// fault). Internal to the dispatcher: [`execute`](crate::Query::run)
    /// translates it into an indeterminate [`Verdict`](crate::Verdict)
    /// rather than surfacing it to callers.
    Interrupted {
        /// The first limit that tripped.
        reason: gsb_core::StopReason,
        /// Counters accumulated before the stop, when the interrupted
        /// engine kept any.
        partial: Option<gsb_topology::SearchStats>,
    },
    /// A query panicked. Only produced by [`Batch`](crate::Batch), whose
    /// per-query panic isolation converts the unwind into this error so
    /// sibling queries complete undisturbed.
    Panicked {
        /// The panic payload, when it was a string.
        details: String,
    },
    /// A JSON report could not be parsed back into a verdict.
    Json {
        /// Parse failure description.
        details: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "core error: {e}"),
            Error::Memory(e) => write!(f, "simulation error: {e}"),
            Error::Algorithms(e) => write!(f, "algorithm error: {e}"),
            Error::Topology(e) => write!(f, "topology error: {e}"),
            Error::MissingSpec { question } => {
                write!(f, "question '{question}' needs a task specification")
            }
            Error::Unsupported { reason } => write!(f, "unsupported query: {reason}"),
            Error::Disagreement { question, details } => {
                write!(f, "engines disagree on '{question}': {details}")
            }
            Error::EvidenceRejected { details } => {
                write!(f, "evidence failed re-verification: {details}")
            }
            Error::Interrupted { reason, .. } => {
                write!(f, "computation stopped: {reason}")
            }
            Error::Panicked { details } => {
                write!(f, "query panicked: {details}")
            }
            Error::Json { details } => write!(f, "malformed verdict JSON: {details}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Memory(e) => Some(e),
            Error::Algorithms(e) => Some(e),
            Error::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gsb_core::Error> for Error {
    fn from(e: gsb_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<gsb_memory::Error> for Error {
    fn from(e: gsb_memory::Error) -> Self {
        Error::Memory(e)
    }
}

impl From<gsb_algorithms::Error> for Error {
    fn from(e: gsb_algorithms::Error) -> Self {
        Error::Algorithms(e)
    }
}

impl From<gsb_topology::Error> for Error {
    /// A governed topology build that stopped is an interruption, not
    /// a failed check.
    fn from(e: gsb_topology::Error) -> Self {
        match e {
            gsb_topology::Error::Stopped(stopped) => stopped.into(),
            other => Error::Topology(other),
        }
    }
}

impl Error {
    /// An [`Error::Interrupted`] carrying the ticket's recorded stop
    /// reason and the partial counters the interrupted engine returned.
    pub(crate) fn interrupted(
        ticket: &gsb_core::Ticket,
        partial: gsb_topology::SearchStats,
    ) -> Self {
        Error::Interrupted {
            reason: ticket
                .stop_reason()
                .unwrap_or(gsb_core::StopReason::Cancelled),
            partial: Some(partial),
        }
    }
}

impl From<gsb_core::Stopped> for Error {
    fn from(stopped: gsb_core::Stopped) -> Self {
        Error::Interrupted {
            reason: stopped.reason,
            partial: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_all_four_subsystem_errors() {
        let core: Error = gsb_core::Error::DuplicateIdentity { id: 3 }.into();
        assert!(core.to_string().contains("core error"));
        let memory: Error = gsb_memory::Error::InvalidConfig { reason: "x".into() }.into();
        assert!(memory.to_string().contains("simulation error"));
        let algorithms: Error = gsb_algorithms::Error::Unsupported { reason: "y".into() }.into();
        assert!(algorithms.to_string().contains("algorithm error"));
        let topology: Error =
            gsb_topology::Error::from(gsb_topology::CertificateFailure::NotPseudomanifold).into();
        assert!(topology.to_string().contains("topology error"));
        use std::error::Error as _;
        for e in [core, memory, algorithms, topology] {
            assert!(e.source().is_some(), "{e} has a source");
        }
    }

    #[test]
    fn engine_variants_display() {
        let e = Error::Disagreement {
            question: "classify".into(),
            details: "classifier says UNSAT, search found a map".into(),
        };
        assert!(e.to_string().contains("disagree"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
