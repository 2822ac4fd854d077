//! The query→verdict engine end-to-end through the façade: one typed
//! entry point, machine-checkable evidence, batched execution, unified
//! errors, JSON round trips.

use gsb_universe::core::{GsbSpec, Solvability, SymmetricGsb};
use gsb_universe::{named_task, Batch, EngineCache, Error, Evidence, Query, Verdict};

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
