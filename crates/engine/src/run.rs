//! Query execution: one dispatcher from [`Question`] to engines, with
//! cross-engine agreement, evidence construction, and re-verification.

use std::time::Instant;

use gsb_algorithms::harness::{run_synchronous, AlgorithmUnderTest};
use gsb_algorithms::FreeDecisionProtocol;
use gsb_core::solvability::{binomial_gcd, BINOMIAL_GCD_MAX_N};
use gsb_core::{Classification, GsbSpec, Identity, OutputVector, Solvability, StopReason, Ticket};
use gsb_memory::ProtocolFactory;
use gsb_topology::{
    election_impossibility_certificate, SearchResult, SearchStats, SolveRoute, SymmetricSearch,
};
use rayon::prelude::*;

use crate::cache::{solve_entry, EngineCache, SearchEntry};
use crate::error::{Error, Result};
use crate::evidence::{AtlasCell, Evidence};
use crate::governor::Governor;
use crate::query::{EngineOpts, Query, Question, SearchEngine};
use crate::verdict::{Provenance, RunStats, Verdict};

/// Identity-subset replays are capped at this many simulator runs (the
/// subsets beyond the cap are already covered by the brute-force subset
/// check; the simulator replays exist to exercise the real substrate).
const MAX_SIMULATED_RUNS: usize = 64;

/// Executes `query` against `cache`.
pub(crate) fn execute(query: &Query, cache: &EngineCache) -> Result<Verdict> {
    let start = Instant::now();
    // Every query holds a ticket: unlimited unless `opts` sets limits.
    let governor = Governor::new(query.opts());
    let ticket = governor.ticket();
    // Admission: every question observes a tripped ticket at least
    // once, even closed-form ones that never reach a solver loop.
    // ticket.check poll site (query admission)
    let admitted = ticket.check().map_err(Error::from);
    let outcome = admitted.and_then(|()| match query.question() {
        Question::Classify => run_classify(require_spec(query)?, query.opts(), cache, ticket),
        Question::SolvableInRounds { rounds } => {
            run_rounds(require_spec(query)?, *rounds, query.opts(), cache, ticket)
        }
        Question::NoCommWitness => run_no_comm(require_spec(query)?, cache),
        Question::Certificate { rounds } => {
            run_certificate(require_spec(query)?, *rounds, query.opts(), cache, ticket)
        }
        Question::Atlas { max_n } => run_atlas(*max_n, cache, ticket),
    });
    // A verdict built from a checked cache entry arrives with
    // `evidence_checked` already set: its map was checked once, before
    // the entry was cached, and is not checked again. Other checks run
    // under the query's ticket, decision maps over the cache's table.
    let check = |mut verdict: Verdict| {
        if query.opts().check_evidence && !verdict.stats.evidence_checked {
            verdict.check_governed(Some(cache), ticket)?;
            verdict.stats.evidence_checked = true;
        }
        Ok(verdict)
    };
    let mut verdict = match outcome.and_then(check) {
        Ok(verdict) => verdict,
        // A stop is a verdict about the *run*, not the task: report it
        // as indeterminate evidence instead of an error. It claims
        // nothing, so it passes any check.
        Err(Error::Interrupted { reason, partial }) => {
            let mut verdict = indeterminate_verdict(query, reason, partial);
            verdict.stats.evidence_checked = query.opts().check_evidence;
            verdict
        }
        Err(other) => return Err(other),
    };
    if query.opts().simulate_witness {
        if let (Some(spec), Some(witness)) = (query.spec(), verdict.evidence.witness()) {
            verdict.stats.simulated_runs = simulate_witness(spec, witness)?;
        }
    }
    verdict.stats.wall = start.elapsed();
    Ok(verdict)
}

fn require_spec(query: &Query) -> Result<&GsbSpec> {
    query.spec().ok_or_else(|| Error::MissingSpec {
        question: query.question().to_string(),
    })
}

/// The verdict of a query whose ticket stopped it before deciding
/// anything: no solvability claim, [`Evidence::Indeterminate`] carrying
/// the stop reason and whatever counters the interrupted engine kept.
fn indeterminate_verdict(
    query: &Query,
    reason: StopReason,
    partial: Option<SearchStats>,
) -> Verdict {
    Verdict {
        solvability: None,
        evidence: Evidence::Indeterminate { reason, partial },
        provenance: Provenance {
            question: query.question().clone(),
            spec: query.spec().cloned(),
            engines: vec!["governor".into()],
            justification: format!("stopped before a verdict: {reason}"),
            cache_hit: false,
        },
        stats: RunStats {
            search: partial,
            ..RunStats::default()
        },
    }
}

/// Runs the round-bounded search with the engine(s) selected in `opts`,
/// enforcing engine-vs-engine agreement when both run. CDCL goes
/// through the cache's verdict memo, which checks SAT maps itself when
/// `opts.check_evidence` asks; `Reference` and `Both` solve over the
/// cache's shared constraint system, are not memoized, and return
/// unchecked entries. The ticket is threaded through construction and
/// solve; a tripped ticket surfaces as [`Error::Interrupted`] with
/// partial counters, which [`execute`] converts to an indeterminate
/// verdict.
fn search_at(
    spec: &GsbSpec,
    rounds: usize,
    opts: &EngineOpts,
    cache: &EngineCache,
    ticket: &Ticket,
) -> Result<(SearchEntry, bool, Vec<String>)> {
    if opts.search == SearchEngine::Cdcl {
        let (entry, hit) = cache.search(spec, rounds, opts, ticket)?;
        return Ok((entry, hit, vec!["cdcl".into()]));
    }
    let (system, _) = cache.build_system(spec.n(), rounds, ticket)?;
    let search = SymmetricSearch::with_system(spec.clone(), Some(rounds), system);
    let solve = |route| solve_entry(&search, &opts.cdcl, route, ticket);
    if opts.search == SearchEngine::Reference {
        let entry = solve(SolveRoute::Reference)?;
        return Ok((entry, false, vec!["reference".into()]));
    }
    // `Both`: forced CDCL, bypassing the verdict memo and the
    // tiny-instance route: the whole point of `Both` is a genuine
    // cdcl-vs-reference diff, and the production front door routes
    // small instances to the same backtracker as the reference arm —
    // which would make this check vacuous exactly where a CDCL setup
    // bug would first appear.
    let entry = solve(SolveRoute::Cdcl)?;
    let reference = solve(SolveRoute::Reference)?.result;
    if entry.result.is_solvable() != reference.is_solvable() {
        return Err(Error::Disagreement {
            question: format!("solvable-in-rounds({rounds})"),
            details: format!(
                "on {spec}: cdcl says '{}', reference says '{}'",
                entry.result, reference
            ),
        });
    }
    Ok((entry, false, vec!["cdcl".into(), "reference".into()]))
}

/// `Question::Classify`: the closed-form classifier, with
/// structure-theory evidence and optional round-bounded agreement.
fn run_classify(
    spec: &GsbSpec,
    opts: &EngineOpts,
    cache: &EngineCache,
    ticket: &Ticket,
) -> Result<Verdict> {
    let (classification, cache_hit) = cache.classification(spec);
    let mut engines = vec!["classifier".to_string()];
    if let Some(max_rounds) = opts.agreement_rounds {
        agreement_sweep(spec, &classification, max_rounds, opts, cache, ticket)?;
        engines.push("cdcl".into());
        engines.push("reference".into());
    }
    let evidence = classify_evidence(spec, &classification, cache)?;
    Ok(Verdict {
        solvability: Some(classification.solvability),
        evidence,
        provenance: Provenance {
            question: Question::Classify,
            spec: Some(spec.clone()),
            engines,
            justification: classification.justification,
            cache_hit,
        },
        stats: RunStats::default(),
    })
}

/// Evidence for a classifier verdict, by verdict kind.
fn classify_evidence(
    spec: &GsbSpec,
    classification: &Classification,
    cache: &EngineCache,
) -> Result<Evidence> {
    match classification.solvability {
        Solvability::Infeasible => Ok(Evidence::Infeasible {
            lower_sum: spec.lower_bounds().iter().sum(),
            upper_sum: spec.upper_bounds().iter().sum(),
        }),
        Solvability::SolvableWithoutCommunication => {
            let (witness, _) = cache.no_comm_witness(spec);
            let witness = witness.ok_or_else(|| Error::EvidenceRejected {
                details: format!(
                    "classifier ruled {spec} solvable without communication but no witness exists"
                ),
            })?;
            Ok(Evidence::NoCommunication { witness })
        }
        _ => {
            let symmetric = spec.as_symmetric();
            let canonical = symmetric.map(|t| {
                t.canonical()
                    .expect("classified non-infeasible tasks are feasible")
            });
            let n = spec.n();
            Ok(Evidence::Kernel {
                canonical,
                kernel_vectors: canonical.map(|c| c.kernel_set().len()),
                legal_outputs: spec.legal_output_count(),
                binomial_gcd: (2..=BINOMIAL_GCD_MAX_N)
                    .contains(&n)
                    .then(|| binomial_gcd(n)),
            })
        }
    }
}

/// Cross-engine agreement mode: classifier vs. both decision-map engines
/// through `0..=max_rounds`, in the sound directions.
fn agreement_sweep(
    spec: &GsbSpec,
    classification: &Classification,
    max_rounds: usize,
    opts: &EngineOpts,
    cache: &EngineCache,
    ticket: &Ticket,
) -> Result<()> {
    for rounds in 0..=max_rounds {
        let both = EngineOpts {
            search: SearchEngine::Both,
            ..opts.clone()
        };
        // `Both` enforces cdcl-vs-reference agreement internally.
        let (entry, _, _) = search_at(spec, rounds, &both, cache, ticket)?;
        let result = entry.result;
        // Sound direction 1: a SAT decision map is a wait-free protocol,
        // so a negative classification contradicts it.
        if result.is_solvable() && classification.solvability.is_negative() {
            return Err(Error::Disagreement {
                question: "classify".into(),
                details: format!(
                    "on {spec}: classifier says '{}' but a {rounds}-round decision map exists",
                    classification.solvability
                ),
            });
        }
        // Sound direction 2 is the same check read contrapositively; a
        // round-bounded UNSAT against a *positive* classification is NOT
        // a conflict (no-communication protocols may use identity values,
        // which comparison-based maps cannot).
    }
    Ok(())
}

/// `Question::SolvableInRounds`: the round-bounded search, combined with
/// the classifier for the task-level verdict.
fn run_rounds(
    spec: &GsbSpec,
    rounds: usize,
    opts: &EngineOpts,
    cache: &EngineCache,
    ticket: &Ticket,
) -> Result<Verdict> {
    let (classification, _) = cache.classification(spec);
    let (entry, cache_hit, mut engines) = search_at(spec, rounds, opts, cache, ticket)?;
    engines.push("classifier".into());
    let stats = entry.stats;
    let (solvability, evidence, justification) = match (&entry.result, entry.map) {
        (SearchResult::Solvable { .. }, Some(map)) => {
            // Always-on soundness guard: a SAT map against a negative
            // classification means one of the engines is wrong.
            if classification.solvability.is_negative() {
                return Err(Error::Disagreement {
                    question: format!("solvable-in-rounds({rounds})"),
                    details: format!(
                        "on {spec}: classifier says '{}' but the search found a map",
                        classification.solvability
                    ),
                });
            }
            let solvability =
                if classification.solvability == Solvability::SolvableWithoutCommunication {
                    Solvability::SolvableWithoutCommunication
                } else {
                    Solvability::WaitFreeSolvable
                };
            let justification = format!(
                "symmetric decision map on χ^{rounds} over {} classes",
                map.classes().len()
            );
            (solvability, Evidence::DecisionMap(map), justification)
        }
        (SearchResult::Solvable { .. }, None) => {
            unreachable!("engine searches always package SAT witnesses")
        }
        (SearchResult::Unsolvable, _) => {
            let justification = format!(
                "no symmetric decision map through {rounds} round(s); overall: {}",
                classification.justification
            );
            (
                classification.solvability,
                Evidence::RoundsUnsat { rounds, stats },
                justification,
            )
        }
    };
    Ok(Verdict {
        solvability: Some(solvability),
        evidence,
        provenance: Provenance {
            question: Question::SolvableInRounds { rounds },
            spec: Some(spec.clone()),
            engines,
            justification,
            cache_hit,
        },
        stats: RunStats {
            search: Some(stats),
            // Only a checking query reports the memo's check: an
            // unchecked query reports false whatever the cache holds.
            evidence_checked: opts.check_evidence && entry.checked,
            ..RunStats::default()
        },
    })
}

/// `Question::NoCommWitness`: Theorem 9 and its asymmetric
/// generalization.
fn run_no_comm(spec: &GsbSpec, cache: &EngineCache) -> Result<Verdict> {
    let (witness, cache_hit) = cache.no_comm_witness(spec);
    let (solvability, evidence, justification, engines) = match witness {
        Some(witness) => (
            Solvability::SolvableWithoutCommunication,
            Evidence::NoCommunication { witness },
            if spec.is_symmetric() {
                "Theorem 9 witness partition".to_string()
            } else {
                "interval-partition generalization of Theorem 9".to_string()
            },
            vec!["theorem9".to_string()],
        ),
        None => {
            let (classification, _) = cache.classification(spec);
            (
                classification.solvability,
                Evidence::NoCommImpossible,
                format!(
                    "no no-communication map; overall: {}",
                    classification.justification
                ),
                vec!["theorem9".to_string(), "classifier".to_string()],
            )
        }
    };
    Ok(Verdict {
        solvability: Some(solvability),
        evidence,
        provenance: Provenance {
            question: Question::NoCommWitness,
            spec: Some(spec.clone()),
            engines,
            justification,
            cache_hit,
        },
        stats: RunStats::default(),
    })
}

/// `Question::Certificate`: the strongest machine-checkable certificate
/// available at this round bound.
fn run_certificate(
    spec: &GsbSpec,
    rounds: usize,
    opts: &EngineOpts,
    cache: &EngineCache,
    ticket: &Ticket,
) -> Result<Verdict> {
    // 1. A no-communication witness is the cheapest positive certificate.
    let (witness, cache_hit) = cache.no_comm_witness(spec);
    if let Some(witness) = witness {
        return Ok(Verdict {
            solvability: Some(Solvability::SolvableWithoutCommunication),
            evidence: Evidence::NoCommunication { witness },
            provenance: Provenance {
                question: Question::Certificate { rounds },
                spec: Some(spec.clone()),
                engines: vec!["theorem9".into()],
                justification: "Theorem 9 witness partition".into(),
                cache_hit,
            },
            stats: RunStats::default(),
        });
    }
    // 2. Election gets the polynomial structural certificate (Theorem 11
    //    proper), which scales past the search.
    let n = spec.n();
    if n >= 2 && *spec == GsbSpec::election(n)? {
        let facets = election_impossibility_certificate(n, rounds, ticket)?;
        return Ok(Verdict {
            solvability: Some(Solvability::NotWaitFreeSolvable),
            evidence: Evidence::ElectionCertificate { rounds, facets },
            provenance: Provenance {
                question: Question::Certificate { rounds },
                spec: Some(spec.clone()),
                engines: vec!["theorem11-certificate".into()],
                justification: format!(
                    "pseudomanifold + per-color linkage + corner symmetry on χ^{rounds}"
                ),
                cache_hit: false,
            },
            stats: RunStats::default(),
        });
    }
    // 3. Otherwise the round-bounded search: SAT gives a replayable map,
    //    UNSAT the refutation counters.
    let mut verdict = run_rounds(spec, rounds, opts, cache, ticket)?;
    verdict.provenance.question = Question::Certificate { rounds };
    Ok(verdict)
}

/// `Question::Atlas`: classify every feasible symmetric task with
/// `n ≤ max_n`, fanned out over rayon with the shared cache.
fn run_atlas(max_n: usize, cache: &EngineCache, ticket: &Ticket) -> Result<Verdict> {
    if max_n < 2 {
        return Err(Error::Unsupported {
            reason: format!("atlas needs max_n ≥ 2, got {max_n}"),
        });
    }
    let families: Vec<(usize, usize)> = (2..=max_n)
        .flat_map(|n| (1..=n).map(move |m| (n, m)))
        .collect();
    let per_family: Vec<Result<Vec<AtlasCell>>> = families
        .into_par_iter()
        .map(|(n, m)| {
            // ticket.check poll site (per-family stride)
            ticket.check()?;
            let family = gsb_core::order::feasible_family(n, m).map_err(Error::Core)?;
            Ok(family
                .into_iter()
                .map(|task| {
                    let (c, _) = cache.classification(&task.to_spec());
                    AtlasCell {
                        task,
                        solvability: c.solvability,
                        justification: c.justification,
                    }
                })
                .collect())
        })
        .collect();
    let mut rows = Vec::new();
    for family in per_family {
        rows.extend(family?);
    }
    let justification = format!("classifier sweep over {} feasible tasks", rows.len());
    Ok(Verdict {
        solvability: None,
        evidence: Evidence::Atlas { max_n, rows },
        provenance: Provenance {
            question: Question::Atlas { max_n },
            spec: None,
            engines: vec!["classifier".into()],
            justification,
            cache_hit: false,
        },
        stats: RunStats::default(),
    })
}

/// Replays a no-communication witness through the actual shared-memory
/// simulator: one synchronous run per adversarial `n`-subset of the
/// identity space (capped at [`MAX_SIMULATED_RUNS`]), each outcome
/// checked against the spec. Returns the number of runs executed.
fn simulate_witness(spec: &GsbSpec, witness: &[usize]) -> Result<usize> {
    let n = spec.n();
    let ids_space = witness.len();
    if n == 1 {
        // One process, one identity: nothing adversarial to schedule.
        return Ok(0);
    }
    let witness_owned: Vec<usize> = witness.to_vec();
    let factory: Box<ProtocolFactory<'_>> = Box::new(move |_pid, id, _n| {
        Box::new(
            FreeDecisionProtocol::from_witness(&witness_owned, id)
                .expect("identities come from the witness's space"),
        )
    });
    let algo = AlgorithmUnderTest {
        spec: spec.clone(),
        factory: &factory,
        oracles: &Vec::new,
    };
    let mut runs = 0usize;
    let mut subset: Vec<usize> = (0..n).collect();
    loop {
        let ids: Vec<Identity> = subset
            .iter()
            .map(|&i| Identity::new(i as u32 + 1).expect("identities are positive"))
            .collect();
        let outcome = run_synchronous(&algo, &ids)?;
        let output = OutputVector::try_from(&outcome).map_err(Error::Core)?;
        if !spec.is_legal_output(&output) {
            return Err(Error::EvidenceRejected {
                details: format!(
                    "simulated witness run with identities {ids:?} decided {output}, \
                     illegal for {spec}"
                ),
            });
        }
        runs += 1;
        if runs >= MAX_SIMULATED_RUNS {
            break;
        }
        if !gsb_core::counting::next_index_subset(&mut subset, ids_space) {
            break;
        }
    }
    Ok(runs)
}
