//! Cross-engine agreement over the full task zoo at `n ≤ 4`: the
//! closed-form classifier, the CDCL decision-map engine, and the
//! retained backtracking oracle must tell one consistent story.
//!
//! The engine's agreement mode
//! ([`EngineOpts::agreement_rounds`](gsb_engine::EngineOpts)) does the
//! checking: for every round count up to the bound it runs **both**
//! search engines (erroring on any CDCL-vs-reference divergence) and
//! rejects SAT maps against negative classifications. A clean verdict
//! therefore certifies three-way consistency; any soundness bug in any
//! engine surfaces as [`gsb_engine::Error::Disagreement`].

use gsb_core::zoo::catalog;
use gsb_engine::{EngineCache, Evidence, Query, SearchEngine};

#[test]
fn zoo_classifier_vs_cdcl_vs_reference() {
    let cache = EngineCache::new();
    for n in 2..=4usize {
        for entry in catalog(n).expect("zoo instantiates") {
            let mut query = Query::classify(entry.spec.clone());
            // One round per task: the reference oracle is exponential,
            // and r = 1 is what the topology crate's own equivalence
            // suite sustains in debug builds (r = 2 is spot-checked on
            // election below).
            query.opts_mut().agreement_rounds = Some(1);
            let verdict = query
                .run_with(&cache)
                .unwrap_or_else(|e| panic!("{} at n = {n}: {e}", entry.name));
            // Agreement mode records all three corroborating engines.
            for engine in ["classifier", "cdcl", "reference"] {
                assert!(
                    verdict.provenance.engines.iter().any(|e| e == engine),
                    "{} at n = {n} missing engine {engine}",
                    entry.name
                );
            }
            assert!(verdict.stats.evidence_checked);
        }
    }
}

#[test]
fn zoo_round_bounded_verdicts_run_both_engines() {
    // `SearchEngine::Both` enforces cdcl-vs-reference agreement inside
    // every round-bounded query; sweep the zoo once at one round.
    let cache = EngineCache::new();
    for n in 2..=4usize {
        for entry in catalog(n).expect("zoo instantiates") {
            let mut query = Query::solvable_in_rounds(entry.spec.clone(), 1);
            query.opts_mut().search = SearchEngine::Both;
            let verdict = query
                .run_with(&cache)
                .unwrap_or_else(|e| panic!("{} at n = {n}: {e}", entry.name));
            match &verdict.evidence {
                Evidence::DecisionMap(map) => {
                    // SAT: replay the witness facet-by-facet once more,
                    // from the parsed-back JSON to cover that path too.
                    map.check(&entry.spec).expect("witness replays");
                    assert_eq!(verdict.is_solvable(), Some(true));
                }
                Evidence::RoundsUnsat { rounds, .. } => {
                    assert_eq!(*rounds, 1);
                }
                other => panic!("{}: unexpected evidence {other:?}", entry.name),
            }
        }
    }
}

#[test]
fn election_agreement_extends_to_two_rounds() {
    // The deepest instance the reference oracle sustains in debug mode.
    let spec = gsb_core::GsbSpec::election(2).expect("well-formed");
    let mut query = Query::classify(spec);
    query.opts_mut().agreement_rounds = Some(2);
    query.run().expect("three-way agreement at r ≤ 2");
}

#[test]
fn budget_exhaustion_is_an_indeterminate_verdict() {
    // Node-budget exhaustion surfaces as an indeterminate verdict, not
    // as an error.
    let spec = gsb_core::SymmetricGsb::wsb(3)
        .expect("well-formed")
        .to_spec();
    let mut query = Query::solvable_in_rounds(spec, 1);
    query.opts_mut().search = SearchEngine::Reference;
    query.opts_mut().node_budget = Some(1);
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("exhaustion is a verdict, not an error");
    assert!(verdict.is_indeterminate(), "got {verdict:?}");
    assert_eq!(verdict.solvability, None);
    match &verdict.evidence {
        Evidence::Indeterminate { reason, .. } => {
            assert_eq!(*reason, gsb_engine::StopReason::NodeBudget);
        }
        other => panic!("expected indeterminate evidence, got {other:?}"),
    }
}
