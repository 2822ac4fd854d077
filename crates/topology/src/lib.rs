//! # gsb-topology — combinatorial topology for wait-free computability
//!
//! The machinery behind the paper's impossibility results (Theorem 11 and
//! the renaming lower bounds it cites), made executable for small `n`:
//!
//! * [`views`] — IIS process views, their order-type canonicalization
//!   (the comparison-based restriction of Section 2.2, mechanized), and
//!   the hash-consing [`ViewArena`] the builders run on.
//! * [`complex`] — chromatic simplicial complexes with packed `u32`
//!   vertex ids and exact `u128` ridge keys, pseudomanifold and
//!   strong-connectivity checks (the structural facts Theorem 11 uses),
//!   and the signature quotient feeding the solver.
//! * [`protocol`] — the standard chromatic subdivision `χ^r(Δ^{n−1})`:
//!   protocol complexes of `r`-round immediate-snapshot full-information
//!   algorithms, memoized process-wide per `(n, r)`.
//! * [`solvability`] — the symmetric decision-map search: decides whether
//!   a GSB task is solvable by an `r`-round comparison-based IIS
//!   protocol, reproducing election's and WSB's impossibilities and
//!   renaming's small-`n` boundaries.
//! * [`cdcl`] — the conflict-driven engine behind the search: one
//!   deterministic solver per query with clause learning and
//!   symmetry-orbit pruning, which pushed the solvability frontier to
//!   the `r = 2` UNSAT certificates.
//! * [`local`] — the greedy/min-conflicts completion engine for
//!   suspected-SAT instances and the CDCL-vs-local completion race.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdcl;
pub mod complex;
mod error;
pub mod local;
pub mod protocol;
pub mod solvability;
pub mod theorem11;
pub mod views;

pub use cdcl::{CdclConfig, SearchStats};
pub use complex::{ridge_key, ChromaticComplex, RidgeKey, SignatureQuotient, Vertex, VertexId};
pub use error::{Error, Result};
pub use protocol::{
    ordered_bell, process_permutations, protocol_complex, protocol_complex_governed,
    protocol_complex_reference, shared_protocol_complex, FacetClasses, OrbitFrontier, OrbitStats,
};
pub use solvability::{
    ConstraintSystem, DecisionMap, SearchMode, SearchResult, SolveRoute, SymmetricSearch,
};
pub use theorem11::{
    check_election_certificate, election_impossibility_certificate, CertificateFailure,
};
pub use views::{ordered_partitions, round_templates, RoundTemplate, View, ViewArena, ViewKey};
