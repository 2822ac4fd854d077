//! # gsb-universe
//!
//! A production-quality Rust reproduction of *The Universe of Symmetry
//! Breaking Tasks* (Imbs, Rajsbaum, Raynal — IRISA PI-1965 / PODC 2011).
//!
//! ## The engine: one question, one answer shape
//!
//! Every solvability surface of the workspace is asked through the
//! unified query→verdict engine: build a [`Query`] (a task spec + a
//! [`Question`] + [`EngineOpts`]), run it, get a [`Verdict`] whose
//! [`Evidence`] is machine-checkable **independently of the engine that
//! produced it** (decision maps replay facet by facet, witnesses are
//! brute-forced against every adversarial identity subset, counts are
//! recomputed through a second algorithm). [`Batch`] fans query sets out
//! over rayon with a shared [`EngineCache`]; [`Error`] unifies the four
//! per-crate error types; verdicts serialize to JSON and parse back
//! ([`Verdict::to_json`] / [`Verdict::from_json`]).
//!
//! The same surface is scriptable from the shell via the `gsb` binary:
//!
//! ```text
//! gsb classify wsb --n 6 --json     # classifier verdict + evidence
//! gsb frontier --task wsb --n 3 --rounds 2   # round-by-round search
//! gsb atlas 9                       # every feasible task through n = 9
//! ```
//!
//! ## Quick start
//!
//! ```
//! use gsb_universe::{Query, Verdict};
//! use gsb_universe::core::{Solvability, SymmetricGsb};
//!
//! // Weak symmetry breaking for 6 processes is wait-free solvable
//! // (6 is not a prime power)…
//! let wsb = SymmetricGsb::wsb(6)?.to_spec();
//! let verdict: Verdict = Query::classify(wsb).run()?;
//! assert_eq!(verdict.solvability, Some(Solvability::WaitFreeSolvable));
//!
//! // …and the verdict survives a JSON round trip, still checkable.
//! let parsed = Verdict::from_json(&verdict.to_json())?;
//! parsed.check()?;
//! # Ok::<(), gsb_universe::Error>(())
//! ```
//!
//! ## The subsystem crates
//!
//! The engine sits on four subsystem crates, re-exported here:
//!
//! * [`core`] (`gsb-core`) — the GSB task family: specifications, kernel
//!   structure theory, canonical representatives, Table 1 / Figure 1
//!   generators, and the solvability classifier.
//! * [`memory`] (`gsb-memory`) — the wait-free shared-memory substrate:
//!   step-level simulator, schedulers, exhaustive enumeration, AADGMS
//!   snapshots, immediate snapshots, oracle task objects, and a
//!   real-thread backend.
//! * [`algorithms`] (`gsb-algorithms`) — the paper's algorithms and
//!   reductions: `(2n−1)`-renaming, communication-free solvers, the
//!   universal construction (Theorem 8), the Figure 2 slot→renaming
//!   algorithm (Theorem 12), WSB reductions, election.
//! * [`topology`] (`gsb-topology`) — protocol complexes and the
//!   symmetric decision-map search behind the impossibility results
//!   (Theorem 11): a conflict-driven (CDCL) engine with symmetry-orbit
//!   learning that runs one deterministic solver per query, plus the
//!   retained backtracking oracle it is property-tested against, and the
//!   replayable [`DecisionMap`](topology::DecisionMap) witness the
//!   engine's SAT evidence is built on.
//! * [`engine`] (`gsb-engine`) — the query→verdict engine itself.
//! * [`serve`] (`gsb-serve`) — the persistent solvability service: a
//!   JSON-lines TCP server with a disk-backed
//!   [`VerdictStore`](serve::VerdictStore), admission control, and a
//!   metrics endpoint, plus the blocking [`Client`](serve::Client)
//!   behind the CLI's `--connect` paths.
//!
//! See the `examples/` directory for runnable end-to-end scenarios,
//! `DESIGN.md` §7 for the engine/evidence architecture, and
//! `DESIGN.md` §11 for the serve subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gsb_algorithms as algorithms;
pub use gsb_core as core;
pub use gsb_engine as engine;
pub use gsb_memory as memory;
pub use gsb_serve as serve;
pub use gsb_topology as topology;

pub use gsb_engine::{
    named_task, AtlasCell, Batch, CacheStats, EngineCache, EngineOpts, Error, Evidence, Provenance,
    Query, Question, Result, RunStats, SearchEngine, Verdict, KNOWN_TASKS,
};
pub use gsb_topology::SearchMode;
