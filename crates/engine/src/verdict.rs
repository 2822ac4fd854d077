//! The unified answer type: [`Verdict`] = solvability + machine-checkable
//! [`Evidence`] + [`Provenance`] + [`RunStats`].

use std::time::Duration;

use gsb_core::{GsbSpec, Solvability};
use gsb_topology::SearchStats;

use crate::error::Result;
use crate::evidence::Evidence;
use crate::query::Question;

/// Where a verdict came from: the question asked, the spec it was asked
/// about, and the engines whose answers concurred.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The question this verdict answers.
    pub question: Question,
    /// The task it was asked about (`None` for the atlas sweep).
    pub spec: Option<GsbSpec>,
    /// Engines that produced or corroborated the answer, e.g.
    /// `["classifier"]` or `["cdcl", "reference", "classifier"]`.
    pub engines: Vec<String>,
    /// Human-readable justification (the classifier's theorem chain, or
    /// a search summary).
    pub justification: String,
    /// Whether the answer was served from the [`EngineCache`](crate::EngineCache).
    pub cache_hit: bool,
}

/// Counters of one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Wall time of the whole query (including evidence checking).
    pub wall: Duration,
    /// Solver counters, when a round-bounded search ran.
    pub search: Option<SearchStats>,
    /// Whether this query asked for its evidence to be verified against
    /// the spec, and it was. Always false when
    /// [`EngineOpts::check_evidence`](crate::EngineOpts::check_evidence)
    /// is off. On a search served from the
    /// [`EngineCache`](crate::EngineCache) the cached map may have been
    /// checked when its entry was inserted, and is not checked again.
    pub evidence_checked: bool,
    /// Simulator runs executed while replaying witness evidence.
    pub simulated_runs: usize,
}

/// The unified answer to a [`Query`](crate::Query).
///
/// `solvability` is the task-level verdict (`None` only for the
/// spec-less atlas sweep, whose per-task verdicts live in the evidence
/// rows). `evidence` is machine-checkable independently of the engine
/// that produced it — see [`Evidence::check`] — and [`Verdict::check`]
/// re-runs that verification against the provenance spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The task-level verdict (`None` for [`Question::Atlas`]).
    pub solvability: Option<Solvability>,
    /// Machine-checkable evidence backing the verdict.
    pub evidence: Evidence,
    /// Which question, which task, which engines.
    pub provenance: Provenance,
    /// Execution counters.
    pub stats: RunStats,
}

impl Verdict {
    /// Whether the verdict asserts wait-free solvability (with or
    /// without communication); `None` when undetermined (`Open`) or for
    /// the atlas sweep.
    #[must_use]
    pub fn is_solvable(&self) -> Option<bool> {
        let s = self.solvability?;
        if s.is_positive() {
            Some(true)
        } else if s.is_negative() {
            Some(false)
        } else {
            None
        }
    }

    /// Whether a governed run stopped (cancellation, deadline, budget,
    /// injected fault) before reaching a verdict — the evidence is
    /// [`Evidence::Indeterminate`] and no solvability is claimed.
    #[must_use]
    pub fn is_indeterminate(&self) -> bool {
        matches!(self.evidence, Evidence::Indeterminate { .. })
    }

    /// Re-verifies this verdict's evidence against its provenance spec,
    /// independently of the engine that produced it (see
    /// [`Evidence::check`]). Atlas verdicts re-classify every row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EvidenceRejected`](crate::Error::EvidenceRejected)
    /// (or a wrapped per-crate error) when the evidence does not hold up.
    pub fn check(&self) -> Result<()> {
        self.check_governed(None, &gsb_core::Ticket::unlimited())
    }

    /// [`Verdict::check`] under a query's `ticket`, replaying a decision
    /// map over `cache`'s facet-class table when one is given (see
    /// [`Evidence::check_governed`]).
    pub(crate) fn check_governed(
        &self,
        cache: Option<&crate::EngineCache>,
        ticket: &gsb_core::Ticket,
    ) -> Result<()> {
        match &self.provenance.spec {
            Some(spec) => self.evidence.check_governed(spec, cache, ticket),
            // The atlas is the one spec-less question; its evidence rows
            // carry their own specs and ignore the argument.
            None => self.evidence.check_rows(),
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.provenance.spec, self.solvability) {
            (Some(spec), Some(s)) => {
                write!(f, "{spec}: {s} ({})", self.provenance.justification)
            }
            _ => write!(f, "{}: {}", self.provenance.question, self.evidence),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_solvable_maps_polarity() {
        let mut v = Verdict {
            solvability: Some(Solvability::WaitFreeSolvable),
            evidence: Evidence::NoCommImpossible,
            provenance: Provenance {
                question: Question::Classify,
                spec: None,
                engines: vec!["classifier".into()],
                justification: "test".into(),
                cache_hit: false,
            },
            stats: RunStats::default(),
        };
        assert_eq!(v.is_solvable(), Some(true));
        v.solvability = Some(Solvability::NotWaitFreeSolvable);
        assert_eq!(v.is_solvable(), Some(false));
        v.solvability = Some(Solvability::Open);
        assert_eq!(v.is_solvable(), None);
        v.solvability = None;
        assert_eq!(v.is_solvable(), None);
    }
}
