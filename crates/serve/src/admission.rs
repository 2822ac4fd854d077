//! Server-side admission control: structural caps that reject
//! adversarial questions outright, plus budget clamps that bound
//! whatever the engine is allowed to spend on admitted ones.

use std::time::Duration;

use gsb_engine::{Query, Question};

/// The admission limits a running server enforces on every query.
///
/// Two layers: **structural** caps (`max_n`, `max_rounds`, …) reject a
/// question before any work happens, and **budget** clamps bound the
/// engine's spend on admitted questions — a client may ask for less
/// than the cap, never more, and a request with no deadline gets the
/// cap as its deadline. Combined with the in-flight gate
/// (`max_in_flight`, enforced by the server loop), no request mix can
/// wedge the solver.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Queries allowed to run the engine concurrently; beyond this the
    /// server sheds with a typed `overloaded` response.
    pub max_in_flight: usize,
    /// Largest process count accepted for per-task questions.
    pub max_n: usize,
    /// Largest round bound accepted for search questions.
    pub max_rounds: usize,
    /// Largest process count accepted for round-bounded search
    /// questions (`solvable-in-rounds` / `certificate`), whose cost
    /// grows like `fubini(n)^rounds` — far steeper than classification.
    pub max_search_n: usize,
    /// Largest `max_n` accepted for the atlas sweep.
    pub max_atlas_n: usize,
    /// Wall-clock cap per admitted query; also the default deadline for
    /// requests that name none.
    pub deadline_cap: Duration,
    /// Solver conflict cap per admitted query.
    pub conflict_cap: u64,
    /// Reference-engine node cap per admitted query.
    pub node_cap: u64,
    /// Memory-charge cap per admitted query, in bytes.
    pub memory_cap: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_in_flight: 64,
            max_n: 9,
            max_rounds: 3,
            max_search_n: 5,
            max_atlas_n: 7,
            deadline_cap: Duration::from_secs(10),
            conflict_cap: 5_000_000,
            node_cap: 50_000_000,
            memory_cap: 1 << 31, // 2 GiB
        }
    }
}

impl AdmissionPolicy {
    /// Admits or rejects `query`, clamping its budgets in place.
    ///
    /// # Errors
    ///
    /// Returns the human-readable rejection reason when the question is
    /// structurally outside this policy (the server answers with a
    /// typed `rejected` response and does no work).
    pub fn admit(&self, query: &mut Query) -> Result<(), String> {
        if let Some(spec) = query.spec() {
            if spec.n() > self.max_n {
                return Err(format!(
                    "n = {} exceeds the server cap of {}",
                    spec.n(),
                    self.max_n
                ));
            }
        }
        match query.question() {
            Question::SolvableInRounds { rounds } | Question::Certificate { rounds } => {
                if *rounds > self.max_rounds {
                    return Err(format!(
                        "rounds = {rounds} exceeds the server cap of {}",
                        self.max_rounds
                    ));
                }
                let n = query.spec().map_or(0, gsb_core::GsbSpec::n);
                if n > self.max_search_n {
                    return Err(format!(
                        "round-bounded search at n = {n} exceeds the server cap of {}",
                        self.max_search_n
                    ));
                }
            }
            Question::Atlas { max_n } if *max_n > self.max_atlas_n => {
                return Err(format!(
                    "atlas max_n = {max_n} exceeds the server cap of {}",
                    self.max_atlas_n
                ));
            }
            Question::Atlas { .. } | Question::Classify | Question::NoCommWitness => {}
        }
        let opts = query.opts_mut();
        opts.deadline = Some(match opts.deadline {
            Some(asked) => asked.min(self.deadline_cap),
            None => self.deadline_cap,
        });
        opts.conflict_budget = Some(clamp(opts.conflict_budget, self.conflict_cap));
        opts.node_budget = Some(clamp(opts.node_budget, self.node_cap));
        opts.memory_budget = Some(clamp(opts.memory_budget, self.memory_cap));
        Ok(())
    }
}

fn clamp(asked: Option<u64>, cap: u64) -> u64 {
    asked.map_or(cap, |x| x.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_engine::named_task;

    #[test]
    fn structural_violations_are_rejected() {
        let policy = AdmissionPolicy::default();
        let spec = named_task("wsb", 4, None).unwrap();
        let mut over_rounds = Query::new(
            spec.clone(),
            Question::SolvableInRounds {
                rounds: policy.max_rounds + 1,
            },
        );
        assert!(policy.admit(&mut over_rounds).is_err());
        let mut over_atlas = Query::atlas(policy.max_atlas_n + 1);
        assert!(policy.admit(&mut over_atlas).is_err());
        let big = named_task("wsb", policy.max_search_n + 1, None).unwrap();
        let mut over_search = Query::new(big, Question::SolvableInRounds { rounds: 1 });
        assert!(policy.admit(&mut over_search).is_err());
    }

    #[test]
    fn budgets_clamp_to_the_caps() {
        let policy = AdmissionPolicy::default();
        let spec = named_task("wsb", 4, None).unwrap();
        let mut query = Query::new(spec, Question::Classify);
        query.opts_mut().conflict_budget = Some(policy.conflict_cap * 10);
        query.opts_mut().deadline = Some(policy.deadline_cap * 10);
        policy.admit(&mut query).unwrap();
        assert_eq!(query.opts().conflict_budget, Some(policy.conflict_cap));
        assert_eq!(query.opts().deadline, Some(policy.deadline_cap));
        // A modest ask is honored as-is.
        let spec = named_task("wsb", 4, None).unwrap();
        let mut modest = Query::new(spec, Question::Classify);
        modest.opts_mut().conflict_budget = Some(7);
        policy.admit(&mut modest).unwrap();
        assert_eq!(modest.opts().conflict_budget, Some(7));
    }
}
