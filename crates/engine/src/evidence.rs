//! Machine-checkable evidence: every verdict carries data that can be
//! re-verified **independently of the engine that produced it**.
//!
//! The re-verification paths deliberately avoid the producing engine's
//! machinery:
//!
//! * decision maps are replayed **facet by facet** over a facet-class
//!   table of the protocol complex built by the streaming subdivision
//!   builder ([`DecisionMap::check_against`]): fresh offline, once per
//!   `(n, r)` per [`EngineCache`] in a query, and never from the CDCL
//!   encoding, the deduplicated constraint system, or the process-wide
//!   subdivision memo;
//! * no-communication witnesses are checked against **every** adversarial
//!   `n`-subset of the identity space by brute force
//!   ([`GsbSpec::map_beats_all_subsets`]), not by re-deriving Theorem 9's
//!   arithmetic;
//! * kernel/counting data is cross-checked between two independent
//!   counting algorithms (the DP over count profiles vs. the kernel-orbit
//!   sum);
//! * atlas rows are re-classified one by one.
//!
//! Round-bounded UNSAT claims are the one place no cheap independent
//! replay exists; their evidence records the solver counters, and the
//! engine's cross-engine agreement mode
//! ([`EngineOpts::agreement_rounds`](crate::EngineOpts::agreement_rounds),
//! [`SearchEngine::Both`](crate::SearchEngine::Both)) is the
//! corroboration path.

use gsb_core::kernel::KernelVector;
use gsb_core::solvability::{binomial_gcd, BINOMIAL_GCD_MAX_N};
use gsb_core::Ticket;
use gsb_core::{GsbSpec, Solvability, SymmetricGsb};
use gsb_topology::{protocol_complex_governed, DecisionMap, SearchStats};

use crate::cache::EngineCache;
use crate::error::{Error, Result};

/// One row of an atlas sweep: a task and its classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtlasCell {
    /// The classified task.
    pub task: SymmetricGsb,
    /// Its verdict.
    pub solvability: Solvability,
    /// The classifier's justification.
    pub justification: String,
}

/// Machine-checkable evidence backing a [`Verdict`](crate::Verdict).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Evidence {
    /// The output set is empty (Lemma 1/2): the recorded bound sums
    /// violate `Σℓ ≤ n ≤ Σu`.
    Infeasible {
        /// Sum of the lower bounds.
        lower_sum: usize,
        /// Sum of the upper bounds.
        upper_sum: usize,
    },
    /// Theorem 9 witness: entry `id − 1` is the value decided by a
    /// process holding identity `id ∈ [1..2n−1]`, with no communication.
    NoCommunication {
        /// The witness decision map over the identity space.
        witness: Vec<usize>,
    },
    /// Closed-form refutation: no no-communication decision map exists
    /// (re-checked by brute force for small `n`).
    NoCommImpossible,
    /// Replayable SAT witness of a round-bounded decision-map search.
    DecisionMap(DecisionMap),
    /// Round-bounded UNSAT: no symmetric decision map on
    /// `χ^rounds(Δ^{n−1})`, with the solver counters of the refutation.
    RoundsUnsat {
        /// The checked round bound.
        rounds: usize,
        /// Counters of the refuting search.
        stats: SearchStats,
    },
    /// Structure-theory data behind a classifier verdict: the canonical
    /// representative and two independently recomputable counts.
    Kernel {
        /// Canonical representative (Theorem 7), for symmetric tasks.
        canonical: Option<SymmetricGsb>,
        /// Size of the canonical task's kernel set (symmetric tasks).
        kernel_vectors: Option<usize>,
        /// Number of legal output vectors of the task itself.
        legal_outputs: u128,
        /// `gcd{C(n,i)}` (Theorem 10's criterion), when `2 ≤ n ≤ 130`.
        binomial_gcd: Option<u128>,
    },
    /// The Theorem 11 structural certificate: election admits no
    /// symmetric decision map on `χ^rounds(Δ^{n−1})` because the complex
    /// is a pseudomanifold with connected per-color linkage and
    /// symmetric corners.
    ElectionCertificate {
        /// Round bound of the certified complex.
        rounds: usize,
        /// Facet count of that complex (pinned for the re-check).
        facets: usize,
    },
    /// Atlas sweep: per-task classifications for every feasible
    /// symmetric task with `n ≤ max_n`.
    Atlas {
        /// Largest process count swept.
        max_n: usize,
        /// One row per feasible task, family order.
        rows: Vec<AtlasCell>,
    },
    /// The governed computation stopped before reaching a verdict
    /// (deadline, budget, cancellation, or injected fault): an honest
    /// partial answer, not an error. The verdict's `solvability` is
    /// `None`.
    Indeterminate {
        /// The first limit that tripped (see
        /// [`StopReason::label`](gsb_core::StopReason::label)).
        reason: gsb_core::StopReason,
        /// Counters accumulated before the stop, when the interrupted
        /// engine kept any.
        partial: Option<SearchStats>,
    },
}

impl Evidence {
    /// Stable machine-readable label (the JSON `kind` discriminator).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Evidence::Infeasible { .. } => "infeasible",
            Evidence::NoCommunication { .. } => "no-communication",
            Evidence::NoCommImpossible => "no-comm-impossible",
            Evidence::DecisionMap(_) => "decision-map",
            Evidence::RoundsUnsat { .. } => "rounds-unsat",
            Evidence::Kernel { .. } => "kernel",
            Evidence::ElectionCertificate { .. } => "election-certificate",
            Evidence::Atlas { .. } => "atlas",
            Evidence::Indeterminate { .. } => "indeterminate",
        }
    }

    /// The replayable decision map, for SAT search evidence.
    #[must_use]
    pub fn decision_map(&self) -> Option<&DecisionMap> {
        match self {
            Evidence::DecisionMap(map) => Some(map),
            _ => None,
        }
    }

    /// The no-communication witness map, when present.
    #[must_use]
    pub fn witness(&self) -> Option<&[usize]> {
        match self {
            Evidence::NoCommunication { witness } => Some(witness),
            _ => None,
        }
    }

    /// The refuted round bound, for round-bounded UNSAT evidence (both
    /// the search counters and the election certificate).
    #[must_use]
    pub fn unsat_rounds(&self) -> Option<usize> {
        match self {
            Evidence::RoundsUnsat { rounds, .. } | Evidence::ElectionCertificate { rounds, .. } => {
                Some(*rounds)
            }
            _ => None,
        }
    }

    /// The atlas rows, for sweep evidence.
    #[must_use]
    pub fn atlas_rows(&self) -> Option<&[AtlasCell]> {
        match self {
            Evidence::Atlas { rows, .. } => Some(rows),
            _ => None,
        }
    }

    /// Independently re-verifies the evidence against `spec` (see the
    /// module docs for what "independently" means per variant). Atlas
    /// evidence ignores `spec` — its rows carry their own tasks; use
    /// [`Evidence::check_rows`] directly when no spec is at hand.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EvidenceRejected`] (or a wrapped
    /// [`Error::Topology`] replay failure) when the evidence does not
    /// hold up against `spec`.
    pub fn check(&self, spec: &GsbSpec) -> Result<()> {
        self.check_governed(spec, None, &Ticket::unlimited())
    }

    /// [`Evidence::check`] as a query runs it: the complexes the check
    /// builds are built under the query's `ticket`, and with a `cache`
    /// a decision map replays over the cache's facet-class table for its
    /// `(n, rounds)` ([`EngineCache::check_map`]) instead of a fresh one.
    ///
    /// # Errors
    ///
    /// As [`Evidence::check`], plus [`Error::Interrupted`] when the
    /// ticket trips before the check could run.
    pub(crate) fn check_governed(
        &self,
        spec: &GsbSpec,
        cache: Option<&EngineCache>,
        ticket: &Ticket,
    ) -> Result<()> {
        match self {
            Evidence::Infeasible {
                lower_sum,
                upper_sum,
            } => {
                let lo: usize = spec.lower_bounds().iter().sum();
                let hi: usize = spec.upper_bounds().iter().sum();
                if lo != *lower_sum || hi != *upper_sum {
                    return Err(Error::EvidenceRejected {
                        details: format!(
                            "recorded bound sums ({lower_sum}, {upper_sum}) differ from the \
                             spec's ({lo}, {hi})"
                        ),
                    });
                }
                if spec.is_feasible() {
                    return Err(Error::EvidenceRejected {
                        details: format!(
                            "{spec} is feasible (Σℓ = {lo} ≤ n = {} ≤ Σu = {hi})",
                            spec.n()
                        ),
                    });
                }
                Ok(())
            }
            Evidence::NoCommunication { witness } => check_no_comm_witness(spec, witness),
            Evidence::NoCommImpossible => {
                if spec.no_communication_solvable() {
                    return Err(Error::EvidenceRejected {
                        details: format!("{spec} is solvable without communication"),
                    });
                }
                // For tiny systems, corroborate the closed form by the
                // exhaustive map search.
                if spec.n() <= 3 && spec.is_feasible() && spec.no_communication_brute_force() {
                    return Err(Error::EvidenceRejected {
                        details: format!("brute force found a no-communication map for {spec}"),
                    });
                }
                Ok(())
            }
            Evidence::DecisionMap(map) => match cache {
                Some(cache) => cache.check_map(spec, map, ticket),
                None => Ok(map.check(spec)?),
            },
            Evidence::RoundsUnsat { stats, .. } => {
                // No cheap independent refutation replay exists; validate
                // the counters' internal consistency (a refutation that
                // never branched nor propagated on a non-trivial
                // instance would be vacuous).
                if stats.workers == 0 {
                    return Err(Error::EvidenceRejected {
                        details: "UNSAT counters report zero workers".into(),
                    });
                }
                Ok(())
            }
            Evidence::Kernel {
                canonical,
                kernel_vectors,
                legal_outputs,
                binomial_gcd: recorded_gcd,
            } => check_kernel(
                spec,
                canonical,
                *kernel_vectors,
                *legal_outputs,
                *recorded_gcd,
            ),
            Evidence::ElectionCertificate { rounds, facets } => {
                let n = spec.n();
                if *spec != GsbSpec::election(n)? {
                    return Err(Error::EvidenceRejected {
                        details: format!("{spec} is not the election task"),
                    });
                }
                // Fresh build, not the process-wide memo.
                let complex = protocol_complex_governed(n, *rounds, ticket)?;
                if complex.facet_count() != *facets {
                    return Err(Error::EvidenceRejected {
                        details: format!(
                            "certificate pinned {facets} facets but χ^{rounds} has {}",
                            complex.facet_count()
                        ),
                    });
                }
                gsb_topology::check_election_certificate(&complex, ticket)?;
                Ok(())
            }
            Evidence::Atlas { .. } => self.check_rows(),
            // Indeterminate evidence makes no solvability claim, so
            // there is nothing to falsify.
            Evidence::Indeterminate { .. } => Ok(()),
        }
    }

    /// Re-classifies every atlas row (the spec-less check path). For
    /// non-atlas evidence this is an error — use [`Evidence::check`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::EvidenceRejected`] when any row's recorded
    /// verdict differs from a fresh classification, or when called on
    /// non-atlas evidence.
    pub fn check_rows(&self) -> Result<()> {
        // An interrupted spec-less sweep makes no claim to verify.
        if let Evidence::Indeterminate { .. } = self {
            return Ok(());
        }
        let Evidence::Atlas { max_n, rows } = self else {
            return Err(Error::EvidenceRejected {
                details: format!("'{}' evidence needs a spec to check against", self.label()),
            });
        };
        let mut expected = 0usize;
        for n in 2..=*max_n {
            for m in 1..=n {
                expected += gsb_core::order::feasible_family(n, m)
                    .map_err(Error::Core)?
                    .len();
            }
        }
        if rows.len() != expected {
            return Err(Error::EvidenceRejected {
                details: format!(
                    "atlas({max_n}) has {} rows but the feasible families hold {expected}",
                    rows.len()
                ),
            });
        }
        for row in rows {
            let fresh = row.task.classify();
            if fresh.solvability != row.solvability {
                return Err(Error::EvidenceRejected {
                    details: format!(
                        "atlas row {} replays to '{}' but recorded '{}'",
                        row.task, fresh.solvability, row.solvability
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Brute-force replay of a no-communication witness: the map must beat
/// **every** adversarial `n`-subset of the identity space `[1..2n−1]`.
fn check_no_comm_witness(spec: &GsbSpec, witness: &[usize]) -> Result<()> {
    let n = spec.n();
    let expected_len = if n == 1 { 1 } else { 2 * n - 1 };
    if witness.len() != expected_len {
        return Err(Error::EvidenceRejected {
            details: format!(
                "witness covers {} identities, the space has {expected_len}",
                witness.len()
            ),
        });
    }
    if n == 1 {
        let v = witness[0];
        let ok = v >= 1
            && v <= spec.m()
            && spec.upper(v) >= 1
            && (1..=spec.m()).all(|w| w == v || spec.lower(w) == 0);
        if !ok {
            return Err(Error::EvidenceRejected {
                details: format!("solo decision {v} is not legal for {spec}"),
            });
        }
        return Ok(());
    }
    if !spec.map_beats_all_subsets(witness) {
        return Err(Error::EvidenceRejected {
            details: format!("witness loses to some {n}-subset of identities for {spec}"),
        });
    }
    Ok(())
}

/// Cross-checks kernel/counting evidence through independent
/// computations: the DP output count vs. the kernel-orbit sum, synonym
/// equivalence for the canonical form, and the gcd table vs. the
/// prime-power characterization.
fn check_kernel(
    spec: &GsbSpec,
    canonical: &Option<SymmetricGsb>,
    kernel_vectors: Option<usize>,
    legal_outputs: u128,
    recorded_gcd: Option<u128>,
) -> Result<()> {
    // Count the output set by dynamic programming — independent of the
    // kernel machinery used to produce the evidence.
    let dp_count = spec.legal_output_count();
    if dp_count != legal_outputs {
        return Err(Error::EvidenceRejected {
            details: format!("recorded {legal_outputs} legal outputs, DP counts {dp_count}"),
        });
    }
    if let Some(canonical) = canonical {
        let Some(task) = spec.as_symmetric() else {
            return Err(Error::EvidenceRejected {
                details: format!("canonical form recorded for asymmetric {spec}"),
            });
        };
        if !task.is_synonym_of(canonical) {
            return Err(Error::EvidenceRejected {
                details: format!("{task} is not a synonym of recorded canonical {canonical}"),
            });
        }
        if let Some(kernel_vectors) = kernel_vectors {
            // Second counting path: kernel vectors enumerate output
            // orbits, so their orbit sizes must re-sum to the DP count
            // (computed on the canonical representative, which has the
            // same output set).
            let kernel_set = canonical.kernel_set();
            if kernel_set.len() != kernel_vectors {
                return Err(Error::EvidenceRejected {
                    details: format!(
                        "recorded {kernel_vectors} kernel vectors, the set has {}",
                        kernel_set.len()
                    ),
                });
            }
            let orbit_sum = kernel_set
                .iter()
                .map(KernelVector::output_vector_count)
                .fold(0u128, u128::saturating_add);
            if orbit_sum != dp_count {
                return Err(Error::EvidenceRejected {
                    details: format!(
                        "kernel orbits sum to {orbit_sum} outputs, DP counts {dp_count}"
                    ),
                });
            }
        }
    } else if kernel_vectors.is_some() {
        return Err(Error::EvidenceRejected {
            details: "kernel count recorded without a canonical form".into(),
        });
    }
    if let Some(g) = recorded_gcd {
        let n = spec.n();
        if !(2..=BINOMIAL_GCD_MAX_N).contains(&n) {
            return Err(Error::EvidenceRejected {
                details: format!("gcd recorded for n = {n} outside [2..{BINOMIAL_GCD_MAX_N}]"),
            });
        }
        if binomial_gcd(n) != g {
            return Err(Error::EvidenceRejected {
                details: format!("recorded gcd {g}, table says {}", binomial_gcd(n)),
            });
        }
        // Classical characterization as a second, independent path.
        if (g > 1) != gsb_core::solvability::is_prime_power(n) {
            return Err(Error::EvidenceRejected {
                details: format!("gcd {g} contradicts the prime-power characterization at n = {n}"),
            });
        }
    }
    Ok(())
}

impl std::fmt::Display for Evidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Evidence::Infeasible {
                lower_sum,
                upper_sum,
            } => write!(f, "infeasible (Σℓ = {lower_sum}, Σu = {upper_sum})"),
            Evidence::NoCommunication { witness } => {
                write!(
                    f,
                    "no-communication witness over {} identities",
                    witness.len()
                )
            }
            Evidence::NoCommImpossible => f.write_str("no no-communication map exists"),
            Evidence::DecisionMap(map) => write!(f, "{map}"),
            Evidence::RoundsUnsat { rounds, stats } => write!(
                f,
                "UNSAT through {rounds} round(s) ({} conflicts)",
                stats.conflicts
            ),
            Evidence::Kernel {
                canonical,
                kernel_vectors,
                legal_outputs,
                ..
            } => match (canonical, kernel_vectors) {
                (Some(c), Some(k)) => write!(
                    f,
                    "kernel data: canonical {c}, {k} kernel vectors, {legal_outputs} outputs"
                ),
                _ => write!(f, "counting data: {legal_outputs} outputs"),
            },
            Evidence::ElectionCertificate { rounds, facets } => {
                write!(f, "Theorem 11 certificate on χ^{rounds} ({facets} facets)")
            }
            Evidence::Indeterminate { reason, partial } => {
                write!(f, "indeterminate (stopped: {reason}")?;
                if let Some(stats) = partial {
                    write!(
                        f,
                        "; partial: {} conflicts, {} decisions",
                        stats.conflicts, stats.decisions
                    )?;
                }
                f.write_str(")")
            }
            Evidence::Atlas { max_n, rows } => {
                write!(f, "atlas sweep: {} tasks through n = {max_n}", rows.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_topology::protocol_complex;

    #[test]
    fn infeasible_evidence_checks_and_rejects() {
        let spec = SymmetricGsb::renaming(5, 4).unwrap().to_spec(); // Σu = 4 < 5
        let good = Evidence::Infeasible {
            lower_sum: 0,
            upper_sum: 4,
        };
        good.check(&spec).unwrap();
        let wrong_sums = Evidence::Infeasible {
            lower_sum: 1,
            upper_sum: 4,
        };
        assert!(wrong_sums.check(&spec).is_err());
        let feasible = SymmetricGsb::wsb(3).unwrap().to_spec();
        assert!(good.check(&feasible).is_err());
    }

    #[test]
    fn witness_evidence_is_brute_force_checked() {
        let spec = SymmetricGsb::loose_renaming(3).unwrap().to_spec();
        let witness = spec.no_communication_witness().unwrap();
        Evidence::NoCommunication {
            witness: witness.clone(),
        }
        .check(&spec)
        .unwrap();
        // A forged witness (everyone decides 1) violates u = 1.
        let forged = Evidence::NoCommunication {
            witness: vec![1; witness.len()],
        };
        assert!(matches!(
            forged.check(&spec),
            Err(Error::EvidenceRejected { .. })
        ));
        // Wrong arity.
        let short = Evidence::NoCommunication { witness: vec![1] };
        assert!(short.check(&spec).is_err());
    }

    #[test]
    fn no_comm_impossible_corroborated_by_brute_force() {
        let wsb = SymmetricGsb::wsb(3).unwrap().to_spec();
        Evidence::NoCommImpossible.check(&wsb).unwrap();
        let solvable = SymmetricGsb::loose_renaming(3).unwrap().to_spec();
        assert!(Evidence::NoCommImpossible.check(&solvable).is_err());
    }

    #[test]
    fn kernel_evidence_cross_counts() {
        let task = SymmetricGsb::wsb(4).unwrap();
        let spec = task.to_spec();
        let canonical = task.canonical().unwrap();
        let good = Evidence::Kernel {
            canonical: Some(canonical),
            kernel_vectors: Some(canonical.kernel_set().len()),
            legal_outputs: spec.legal_output_count(),
            binomial_gcd: Some(2),
        };
        good.check(&spec).unwrap();
        let wrong_count = Evidence::Kernel {
            canonical: Some(canonical),
            kernel_vectors: Some(canonical.kernel_set().len()),
            legal_outputs: 999,
            binomial_gcd: None,
        };
        assert!(wrong_count.check(&spec).is_err());
        let wrong_gcd = Evidence::Kernel {
            canonical: Some(canonical),
            kernel_vectors: None,
            legal_outputs: spec.legal_output_count(),
            binomial_gcd: Some(7),
        };
        assert!(wrong_gcd.check(&spec).is_err());
    }

    #[test]
    fn election_certificate_evidence_replays() {
        let spec = GsbSpec::election(3).unwrap();
        let facets = protocol_complex(3, 1).facet_count();
        let good = Evidence::ElectionCertificate { rounds: 1, facets };
        good.check(&spec).unwrap();
        let wrong_facets = Evidence::ElectionCertificate {
            rounds: 1,
            facets: facets + 1,
        };
        assert!(wrong_facets.check(&spec).is_err());
        let not_election = SymmetricGsb::wsb(3).unwrap().to_spec();
        assert!(good.check(&not_election).is_err());
    }

    #[test]
    fn atlas_rows_are_replayed() {
        let task = SymmetricGsb::wsb(2).unwrap();
        let c = task.classify();
        let mut rows = Vec::new();
        for n in 2..=2usize {
            for m in 1..=n {
                for t in gsb_core::order::feasible_family(n, m).unwrap() {
                    let c = t.classify();
                    rows.push(AtlasCell {
                        task: t,
                        solvability: c.solvability,
                        justification: c.justification,
                    });
                }
            }
        }
        let good = Evidence::Atlas { max_n: 2, rows };
        good.check_rows().unwrap();
        let forged = Evidence::Atlas {
            max_n: 2,
            rows: vec![AtlasCell {
                task,
                solvability: if c.solvability == Solvability::Open {
                    Solvability::WaitFreeSolvable
                } else {
                    Solvability::Open
                },
                justification: c.justification,
            }],
        };
        assert!(forged.check_rows().is_err());
        // Non-atlas evidence has no row check.
        assert!(Evidence::NoCommImpossible.check_rows().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Evidence::NoCommImpossible.label(), "no-comm-impossible");
        assert_eq!(
            Evidence::Atlas {
                max_n: 2,
                rows: vec![]
            }
            .label(),
            "atlas"
        );
    }
}
