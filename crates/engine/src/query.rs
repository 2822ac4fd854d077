//! The typed entry point: [`Query`] = specification + [`Question`] +
//! [`EngineOpts`].
//!
//! Every solvability surface of the workspace — the arithmetic
//! classifier, the no-communication characterization, the round-bounded
//! decision-map searches, the Theorem 11 structural certificate, and the
//! atlas sweep — is asked through one `Query` whose
//! [`run`](Query::run) returns a unified [`Verdict`](crate::Verdict)
//! with machine-checkable [`Evidence`](crate::Evidence).

use gsb_core::GsbSpec;
use gsb_topology::{CdclConfig, SearchMode};

use crate::cache::EngineCache;
use crate::error::Result;
use crate::verdict::Verdict;

/// What is being asked about a task.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Question {
    /// Wait-free solvability per the paper's Section 5 results (the
    /// closed-form classifier), with structure-theory evidence.
    Classify,
    /// Is the task solvable by an `rounds`-round comparison-based IIS
    /// protocol? SAT verdicts carry a replayable decision map.
    SolvableInRounds {
        /// Round bound of the protocol complex.
        rounds: usize,
    },
    /// Is the task solvable with **no communication at all** (Theorem 9
    /// and its asymmetric generalization)? Positive verdicts carry the
    /// witness decision map over the identity space.
    NoCommWitness,
    /// The strongest machine-checkable certificate the engine can
    /// produce at this round bound: a no-communication witness, a
    /// replayable decision map, the Theorem 11 structural certificate
    /// (election), or round-bounded UNSAT search counters.
    Certificate {
        /// Round bound for the topological certificates.
        rounds: usize,
    },
    /// Classify every feasible symmetric task with `n ≤ max_n` (the
    /// atlas sweep). The only spec-less question.
    Atlas {
        /// Largest process count swept.
        max_n: usize,
    },
}

impl Question {
    /// Stable machine-readable label (JSON `kind`, error messages).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Question::Classify => "classify",
            Question::SolvableInRounds { .. } => "solvable-in-rounds",
            Question::NoCommWitness => "no-comm-witness",
            Question::Certificate { .. } => "certificate",
            Question::Atlas { .. } => "atlas",
        }
    }
}

impl std::fmt::Display for Question {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Question::SolvableInRounds { rounds } => write!(f, "solvable-in-rounds({rounds})"),
            Question::Certificate { rounds } => write!(f, "certificate({rounds})"),
            Question::Atlas { max_n } => write!(f, "atlas({max_n})"),
            other => f.write_str(other.label()),
        }
    }
}

/// Which engine answers round-bounded search questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchEngine {
    /// The conflict-driven engine (clause learning, orbit pruning, one
    /// deterministic solver) — the production default.
    #[default]
    Cdcl,
    /// The retained backtracking oracle (optionally node-budgeted).
    Reference,
    /// Run both and require them to concur; a mismatch is returned as a
    /// diagnostic [`Error::Disagreement`](crate::Error::Disagreement).
    Both,
}

impl SearchEngine {
    /// Stable machine-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchEngine::Cdcl => "cdcl",
            SearchEngine::Reference => "reference",
            SearchEngine::Both => "both",
        }
    }

    /// The engine for a [`label`](SearchEngine::label), if known.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "cdcl" => Some(SearchEngine::Cdcl),
            "reference" => Some(SearchEngine::Reference),
            "both" => Some(SearchEngine::Both),
            _ => None,
        }
    }
}

/// Budgets and engine-selection knobs of a query.
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Engine used for round-bounded searches (default: CDCL).
    pub search: SearchEngine,
    /// Wall-clock deadline for the whole query. Construction and solve
    /// loops poll it cooperatively, so it is noticed within one polling
    /// stride. Exhaustion yields an indeterminate verdict
    /// ([`Evidence::Indeterminate`](crate::Evidence)).
    pub deadline: Option<std::time::Duration>,
    /// CDCL decision budget of the query (a race's CDCL lane counts).
    pub decision_budget: Option<u64>,
    /// CDCL conflict budget of the query (a race's CDCL lane counts).
    pub conflict_budget: Option<u64>,
    /// Node budget for the reference backtracker.
    pub node_budget: Option<u64>,
    /// Approximate memory budget in bytes, charged at frontier/arena
    /// growth points during streamed construction and by each CDCL
    /// solver's setup (clauses, watch lists, facet counters).
    pub memory_budget: Option<u64>,
    /// **Cross-engine agreement mode** for [`Question::Classify`]: when
    /// `Some(r)`, the classifier's verdict is checked against both
    /// decision-map engines for every round count `0..=r` (in the sound
    /// direction — a SAT map contradicts a negative classification, and
    /// vice versa). Any conflict aborts the query with a diagnostic
    /// [`Error::Disagreement`](crate::Error::Disagreement). Exponential
    /// in `r` and `n`; meant for small instances and CI sweeps.
    pub agreement_rounds: Option<usize>,
    /// Verify the verdict's evidence before returning it (decision maps
    /// facet-by-facet on a freshly built complex, witnesses against
    /// every adversarial identity subset). A decision map the
    /// [`EngineCache`](crate::EngineCache) serves is checked once per
    /// cached entry, not once per query: on the checking miss that
    /// inserts it. An entry an unchecked query inserted is checked on
    /// every checking query that reads it. Default `true`.
    pub check_evidence: bool,
    /// Additionally replay no-communication witnesses through the actual
    /// shared-memory simulator (one run per adversarial identity subset,
    /// capped). Default `false`.
    pub simulate_witness: bool,
    /// Configuration handed to the conflict-driven engine.
    pub cdcl: CdclConfig,
    /// How the CDCL engine attacks a round-bounded search: plain CDCL,
    /// a CDCL-vs-local-search completion race, or local search alone
    /// (which can only produce SAT witnesses — exhaustion comes back
    /// indeterminate, never UNSAT). Ignored by the reference engine.
    pub mode: SearchMode,
    /// Seed the solver with the lifted `r − 1` decision map when the
    /// cache already holds one (phase saving + initial VSIDS order for
    /// CDCL, first-restart construction pin for local search). Purely
    /// a performance hint: seeds never constrain the search, so
    /// verdicts are unaffected. Default `true`.
    pub warm_start: bool,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            search: SearchEngine::Cdcl,
            deadline: None,
            decision_budget: None,
            conflict_budget: None,
            node_budget: None,
            memory_budget: None,
            agreement_rounds: None,
            check_evidence: true,
            simulate_witness: false,
            cdcl: CdclConfig::default(),
            mode: SearchMode::default(),
            warm_start: true,
        }
    }
}

impl EngineOpts {
    /// The governance limits these options describe; all `None` gives
    /// the unlimited ticket every query holds by default.
    #[must_use]
    pub fn limits(&self) -> gsb_core::Limits {
        gsb_core::Limits {
            deadline: self.deadline,
            decisions: self.decision_budget,
            conflicts: self.conflict_budget,
            nodes: self.node_budget,
            memory_bytes: self.memory_budget,
        }
    }
}

/// One solvability question about one task (or one atlas sweep),
/// runnable against the process-global [`EngineCache`] or an explicit
/// one.
///
/// # Examples
///
/// ```
/// use gsb_engine::{Query, Question};
/// use gsb_core::{Solvability, SymmetricGsb};
///
/// let wsb6 = SymmetricGsb::wsb(6)?.to_spec();
/// let verdict = Query::classify(wsb6).run()?;
/// assert_eq!(verdict.solvability, Some(Solvability::WaitFreeSolvable));
/// # Ok::<(), gsb_engine::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    spec: Option<GsbSpec>,
    question: Question,
    opts: EngineOpts,
}

impl Query {
    /// A query with explicit question (and default options).
    #[must_use]
    pub fn new(spec: GsbSpec, question: Question) -> Self {
        Query {
            spec: Some(spec),
            question,
            opts: EngineOpts::default(),
        }
    }

    /// Ask for the closed-form classification of `spec`.
    #[must_use]
    pub fn classify(spec: GsbSpec) -> Self {
        Query::new(spec, Question::Classify)
    }

    /// Ask whether `spec` is solvable by an `rounds`-round
    /// comparison-based IIS protocol.
    #[must_use]
    pub fn solvable_in_rounds(spec: GsbSpec, rounds: usize) -> Self {
        Query::new(spec, Question::SolvableInRounds { rounds })
    }

    /// Ask for Theorem 9's no-communication witness.
    #[must_use]
    pub fn no_comm_witness(spec: GsbSpec) -> Self {
        Query::new(spec, Question::NoCommWitness)
    }

    /// Ask for the strongest machine-checkable certificate at `rounds`.
    #[must_use]
    pub fn certificate(spec: GsbSpec, rounds: usize) -> Self {
        Query::new(spec, Question::Certificate { rounds })
    }

    /// Ask for the atlas sweep over every feasible symmetric task with
    /// `n ≤ max_n` (the spec-less question).
    #[must_use]
    pub fn atlas(max_n: usize) -> Self {
        Query {
            spec: None,
            question: Question::Atlas { max_n },
            opts: EngineOpts::default(),
        }
    }

    /// Replaces the options (builder style).
    #[must_use]
    pub fn with_opts(mut self, opts: EngineOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Mutable access to the options.
    pub fn opts_mut(&mut self) -> &mut EngineOpts {
        &mut self.opts
    }

    /// The options this query will run with.
    #[must_use]
    pub fn opts(&self) -> &EngineOpts {
        &self.opts
    }

    /// The task specification, if the question has one.
    #[must_use]
    pub fn spec(&self) -> Option<&GsbSpec> {
        self.spec.as_ref()
    }

    /// The question.
    #[must_use]
    pub fn question(&self) -> &Question {
        &self.question
    }

    /// Runs the query against the process-global cache.
    ///
    /// # Errors
    ///
    /// Returns the unified [`Error`](crate::Error): per-crate failures,
    /// [`Disagreement`](crate::Error::Disagreement) when engines that
    /// must concur do not, and
    /// [`EvidenceRejected`](crate::Error::EvidenceRejected) when the
    /// produced evidence fails its independent re-check.
    pub fn run(&self) -> Result<Verdict> {
        self.run_with(EngineCache::global())
    }

    /// Runs the query against an explicit cache (the [`Batch`] path —
    /// see [`Batch::run_with`](crate::Batch::run_with)).
    ///
    /// # Errors
    ///
    /// As [`Query::run`].
    pub fn run_with(&self, cache: &EngineCache) -> Result<Verdict> {
        crate::run::execute(self, cache)
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.spec {
            Some(spec) => write!(f, "{} on {spec}", self.question),
            None => write!(f, "{}", self.question),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_core::SymmetricGsb;

    #[test]
    fn question_labels_and_display() {
        assert_eq!(Question::Classify.label(), "classify");
        assert_eq!(
            Question::SolvableInRounds { rounds: 2 }.to_string(),
            "solvable-in-rounds(2)"
        );
        assert_eq!(Question::Atlas { max_n: 5 }.to_string(), "atlas(5)");
        assert_eq!(SearchEngine::Both.label(), "both");
    }

    #[test]
    fn query_display_includes_the_spec() {
        let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
        let q = Query::classify(spec);
        assert!(q.to_string().contains("classify"));
        assert!(q.to_string().contains("GSB"));
        assert!(Query::atlas(4).spec().is_none());
    }

    #[test]
    fn default_opts_are_production_settings() {
        let opts = EngineOpts::default();
        assert_eq!(opts.search, SearchEngine::Cdcl);
        assert!(opts.check_evidence);
        assert!(!opts.simulate_witness);
        assert_eq!(opts.agreement_rounds, None);
    }
}
