//! # gsb-engine — the unified query→verdict engine
//!
//! One typed entry point for every solvability surface of the workspace.
//! Before this crate, callers picked between four disconnected APIs —
//! `gsb_core::classify()` (the arithmetic characterization),
//! `gsb_topology::SymmetricSearch` (round-bounded decision-map search),
//! the `gsb_algorithms` validation harness, and the bench atlas — each
//! with its own result and error types and no shared evidence format.
//! Here the question is separated from the engine answering it:
//!
//! * [`Query`] = a [`GsbSpec`](gsb_core::GsbSpec) + a [`Question`]
//!   (`Classify`, `SolvableInRounds`, `NoCommWitness`, `Certificate`,
//!   `Atlas`) + [`EngineOpts`] (engine selection, budgets, agreement
//!   mode).
//! * [`Verdict`] = solvability + machine-checkable [`Evidence`] +
//!   [`Provenance`] + [`RunStats`]. [`Evidence::check`] re-verifies the
//!   verdict **independently of the engine that produced it** — decision
//!   maps facet by facet over a facet-class table the streaming
//!   subdivision builder produced (not the solver), witnesses against
//!   every adversarial identity subset, counts through a second counting
//!   algorithm.
//! * [`Batch`] fans a query set out over rayon with one shared
//!   [`EngineCache`] (the workspace's memo layers, promoted into an
//!   injectable object).
//! * [`Error`] is the workspace-unified error, wrapping all four
//!   per-crate error types; the `gsb_universe` facade re-exports it.
//! * Verdicts serialize to the workspace's hand-rolled JSON report
//!   format and parse back ([`Verdict::to_json`] /
//!   [`Verdict::from_json`]), still checkable after the round trip.
//!
//! ## Quick start
//!
//! ```
//! use gsb_engine::{Evidence, Query};
//! use gsb_core::{Solvability, SymmetricGsb};
//!
//! // Classify weak symmetry breaking for 6 processes…
//! let wsb = SymmetricGsb::wsb(6)?.to_spec();
//! let verdict = Query::classify(wsb.clone()).run()?;
//! assert_eq!(verdict.solvability, Some(Solvability::WaitFreeSolvable));
//!
//! // …and ask the topological engine about one-round solvability: the
//! // UNSAT evidence records the refuting search's counters.
//! let verdict = Query::solvable_in_rounds(wsb, 1).run()?;
//! assert!(matches!(verdict.evidence, Evidence::RoundsUnsat { rounds: 1, .. }));
//! # Ok::<(), gsb_engine::Error>(())
//! ```
//!
//! The `gsb` CLI binary (in the façade crate) is a thin shell over these
//! types: `gsb classify wsb --n 6 --json` prints
//! [`Verdict::to_json`] verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cache;
mod error;
pub mod evidence;
pub mod governor;
pub mod json;
pub mod query;
mod run;
pub mod tasks;
pub mod verdict;

pub use batch::Batch;
pub use cache::{CacheStats, EngineCache};
pub use error::{Error, Result};
pub use evidence::{AtlasCell, Evidence};
pub use governor::Governor;
pub use json::Json;
pub use query::{EngineOpts, Query, Question, SearchEngine};
pub use tasks::{named_task, KNOWN_TASKS};
pub use verdict::{Provenance, RunStats, Verdict};

// Governance vocabulary, re-exported so engine callers can build limits
// and inspect stop reasons without naming `gsb_core` directly.
pub use gsb_core::{Limits, StopReason, Stopped, Ticket};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Query>();
        assert_send_sync::<Verdict>();
        assert_send_sync::<Evidence>();
        assert_send_sync::<EngineCache>();
        assert_send_sync::<Batch>();
        assert_send_sync::<Error>();
    }
}
