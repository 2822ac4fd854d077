//! The query→verdict engine end-to-end through the façade: one typed
//! entry point, machine-checkable evidence, batched execution, unified
//! errors, JSON round trips.

use std::time::Duration;

use gsb_universe::core::{GsbSpec, Solvability, SymmetricGsb};
use gsb_universe::engine::Json;
use gsb_universe::{named_task, Batch, CacheStats, EngineCache, Error, Evidence, Query, Verdict};

#[test]
fn one_entry_point_answers_all_four_surfaces() {
    let cache = EngineCache::new();
    // Classifier surface.
    let wsb6 = SymmetricGsb::wsb(6).unwrap().to_spec();
    let classify = Query::classify(wsb6.clone()).run_with(&cache).unwrap();
    assert_eq!(classify.solvability, Some(Solvability::WaitFreeSolvable));
    assert!(matches!(classify.evidence, Evidence::Kernel { .. }));
    // Topology surface: SAT carries a replayable map.
    let renaming = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
    let sat = Query::solvable_in_rounds(renaming.clone(), 1)
        .run_with(&cache)
        .unwrap();
    let map = sat.evidence.decision_map().expect("SAT witness");
    map.check(&renaming).expect("facet-by-facet replay");
    // Theorem 9 surface: witness brute-force verified.
    let loose = SymmetricGsb::loose_renaming(4).unwrap().to_spec();
    let witness = Query::no_comm_witness(loose).run_with(&cache).unwrap();
    assert_eq!(witness.evidence.witness().map(<[usize]>::len), Some(7));
    // Certificate surface: election gets the structural certificate.
    let election = GsbSpec::election(4).unwrap();
    let certificate = Query::certificate(election, 1).run_with(&cache).unwrap();
    assert!(matches!(
        certificate.evidence,
        Evidence::ElectionCertificate { rounds: 1, .. }
    ));
    assert_eq!(
        certificate.solvability,
        Some(Solvability::NotWaitFreeSolvable)
    );
}

#[test]
fn every_sat_verdict_recheck_is_on_by_default() {
    // `check_evidence` defaults to true: the verdict arrives already
    // re-verified, and `Verdict::check` can be repeated at will.
    let spec = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
    let verdict = Query::solvable_in_rounds(spec, 1).run().unwrap();
    assert!(verdict.stats.evidence_checked);
    verdict.check().unwrap();
}

#[test]
fn batch_fans_out_with_one_shared_cache() {
    let cache = EngineCache::new();
    let batch: Batch = gsb_universe::core::zoo::catalog(4)
        .unwrap()
        .into_iter()
        .map(|entry| Query::classify(entry.spec))
        .collect();
    let verdicts = batch.run_with(&cache);
    assert!(verdicts.iter().all(Result::is_ok));
    // The zoo repeats synonym specs across entries rarely, but the atlas
    // over the same cache definitely re-enters them.
    let atlas = Query::atlas(4).run_with(&cache).unwrap();
    assert!(atlas.solvability.is_none());
    let rows = atlas.evidence.atlas_rows().unwrap();
    assert!(rows.len() > 20);
    assert!(cache.stats().hits > 0);
}

#[test]
fn json_reports_round_trip_and_recheck() {
    let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
    let verdict = Query::solvable_in_rounds(spec, 1).run().unwrap();
    let parsed = Verdict::from_json(&verdict.to_json()).unwrap();
    assert_eq!(parsed.evidence, verdict.evidence);
    assert_eq!(parsed.provenance, verdict.provenance);
    parsed.check().unwrap();
}

#[test]
fn unified_error_wraps_the_subsystem_crates() {
    // Core constructor errors arrive as Error::Core through the façade.
    assert!(matches!(
        named_task("election", 1, None),
        Err(Error::Core(_))
    ));
    // Engine-level errors keep their own variants.
    assert!(matches!(
        Query::atlas(1).run(),
        Err(Error::Unsupported { .. })
    ));
    let missing = Query::atlas(0).run().unwrap_err();
    assert!(!missing.to_string().is_empty());
}

/// `verdict` with the fields that legitimately differ between a miss
/// and a hit of one key (`cache_hit`, `wall`) reset.
fn served_part(verdict: &Verdict) -> Verdict {
    let mut v = verdict.clone();
    v.provenance.cache_hit = false;
    v.stats.wall = Duration::ZERO;
    v
}

#[test]
fn a_cached_decision_map_is_checked_once() {
    let cache = EngineCache::new();
    let spec = named_task("loose_renaming", 4, None).unwrap();
    let query = Query::solvable_in_rounds(spec, 2);
    let miss = query.run_with(&cache).unwrap();
    assert!(!miss.provenance.cache_hit && miss.stats.evidence_checked);
    assert!(miss.evidence.decision_map().is_some());
    assert_eq!(cache.stats().evidence_checks, 1);
    for _ in 0..5 {
        let hit = query.run_with(&cache).unwrap();
        assert!(hit.provenance.cache_hit && hit.stats.evidence_checked);
        assert_eq!(served_part(&hit), served_part(&miss));
    }
    assert_eq!(cache.stats().evidence_checks, 1, "hits check nothing");
}

#[test]
fn only_checking_queries_report_a_check() {
    let spec = named_task("loose_renaming", 4, None).unwrap();
    let checked = Query::solvable_in_rounds(spec, 2);
    let mut unchecked = checked.clone();
    unchecked.opts_mut().check_evidence = false;
    // An entry an unchecked query inserted is left unmarked: every
    // checking re-ask checks the verdict itself, outside the memo.
    let cache = EngineCache::new();
    assert!(!unchecked.run_with(&cache).unwrap().stats.evidence_checked);
    for _ in 0..2 {
        let hit = checked.run_with(&cache).unwrap();
        assert!(hit.provenance.cache_hit && hit.stats.evidence_checked);
    }
    assert_eq!(cache.stats().evidence_checks, 0);
    // An unchecked re-ask of a checked entry reports no check either.
    let cache = EngineCache::new();
    assert!(checked.run_with(&cache).unwrap().stats.evidence_checked);
    let hit = unchecked.run_with(&cache).unwrap();
    assert!(hit.provenance.cache_hit && !hit.stats.evidence_checked);
    assert_eq!(cache.stats().evidence_checks, 1);
}

#[test]
fn an_unsat_re_ask_still_reports_its_check() {
    let cache = EngineCache::new();
    let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
    let query = Query::solvable_in_rounds(spec.clone(), 2);
    query.run_with(&cache).unwrap();
    let hit = query.run_with(&cache).unwrap();
    assert!(hit.provenance.cache_hit && hit.stats.evidence_checked);
    assert!(matches!(hit.evidence, Evidence::RoundsUnsat { .. }));
    // A certificate question reaches the same memo.
    let certificate = Query::certificate(spec, 2).run_with(&cache).unwrap();
    assert!(certificate.provenance.cache_hit && certificate.stats.evidence_checked);
    assert_eq!(
        cache.stats().evidence_checks,
        0,
        "UNSAT entries carry no map"
    );
}

#[test]
fn cache_stats_json_round_trips_and_reads_old_payloads() {
    let stats = CacheStats {
        hits: 9,
        misses: 4,
        classifications: 3,
        witnesses: 1,
        searches: 2,
        systems: 2,
        frontiers: 1,
        extensions: 1,
        evidence_checks: 2,
        check_tables: 1,
    };
    assert_eq!(
        CacheStats::from_json_value(&stats.to_json_value()).unwrap(),
        stats
    );
    let old = Json::parse(
        r#"{"hits":9,"misses":4,"classifications":3,"witnesses":1,
            "searches":2,"systems":2,"frontiers":1,"extensions":1}"#,
    )
    .unwrap();
    let parsed = CacheStats::from_json_value(&old).unwrap();
    assert_eq!(
        parsed,
        CacheStats {
            evidence_checks: 0,
            check_tables: 0,
            ..stats
        }
    );
}
