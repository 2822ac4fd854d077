//! Error types for the `gsb-topology` crate.
//!
//! Introduced with the engine/evidence redesign: witness replay
//! ([`DecisionMap::check`](crate::solvability::DecisionMap::check)) and
//! certificate checking report structured failures instead of panicking,
//! so the unified `gsb_universe::Error` can carry them across crate
//! boundaries.

use std::fmt;

use gsb_core::govern::Stopped;

use crate::theorem11::CertificateFailure;

/// A specialized [`Result`](std::result::Result) type for `gsb-topology`
/// operations.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type returned by fallible `gsb-topology` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A Theorem 11 structural certificate did not go through.
    Certificate(CertificateFailure),
    /// A decision map was replayed against a complex whose symmetry
    /// quotient has a different class count — the witness does not
    /// describe this `(n, rounds)` subdivision.
    ClassCountMismatch {
        /// Classes recorded in the witness.
        witness: usize,
        /// Classes of the complex's facet-class table.
        complex: usize,
    },
    /// The complex's class list holds a view-signature class the
    /// witness does not cover (same count, different classes) — the
    /// witness describes some other complex.
    UnknownClassSignature {
        /// Index of the uncovered class in the complex's class list.
        class: usize,
    },
    /// A decision map assigned a value outside `[1..m]`.
    ValueOutOfRange {
        /// The class whose assignment is out of range.
        class: usize,
        /// The offending value.
        value: usize,
        /// The number of output values `m`.
        values: usize,
    },
    /// Facet-by-facet replay found a facet whose decision vector violates
    /// the task's counting bounds — the witness is not a decision map for
    /// this specification.
    IllegalFacet {
        /// Index of the violating facet (in the complex's facet order).
        facet: usize,
        /// Value decided `counts[v−1]` times across the facet's vertices.
        counts: Vec<usize>,
    },
    /// The specification's process count does not match the complex.
    ProcessCountMismatch {
        /// Processes in the specification.
        spec: usize,
        /// Colors of the complex the witness was built over.
        complex: usize,
    },
    /// A governed build stopped on its ticket before the check could
    /// run: no claim either way.
    Stopped(Stopped),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Certificate(failure) => write!(f, "certificate failed: {failure}"),
            Error::ClassCountMismatch { witness, complex } => write!(
                f,
                "decision map covers {witness} symmetry classes but the complex has {complex}"
            ),
            Error::UnknownClassSignature { class } => write!(
                f,
                "complex class {class} has a view signature the decision map does not cover"
            ),
            Error::ValueOutOfRange {
                class,
                value,
                values,
            } => write!(
                f,
                "class {class} decides {value}, outside the value space [1..{values}]"
            ),
            Error::IllegalFacet { facet, counts } => write!(
                f,
                "facet {facet} replays to counts {counts:?}, violating the task bounds"
            ),
            Error::ProcessCountMismatch { spec, complex } => write!(
                f,
                "specification has {spec} processes but the complex has {complex} colors"
            ),
            Error::Stopped(stopped) => write!(f, "{stopped}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<CertificateFailure> for Error {
    fn from(failure: CertificateFailure) -> Self {
        Error::Certificate(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = Error::IllegalFacet {
            facet: 7,
            counts: vec![3, 0],
        };
        assert!(err.to_string().contains("facet 7"));
        let err: Error = CertificateFailure::NotPseudomanifold.into();
        assert!(err.to_string().contains("pseudomanifold"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
