//! JSON round-trip: every evidence kind the engine emits must parse
//! back losslessly and remain machine-checkable afterwards.

use std::time::Duration;

use gsb_core::{GsbSpec, SymmetricGsb};
use gsb_engine::{EngineCache, EngineOpts, Evidence, Json, Query, SearchEngine, Verdict};

/// One query per evidence kind.
fn sample_queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "kernel",
            Query::classify(SymmetricGsb::wsb(6).unwrap().to_spec()),
        ),
        (
            "no-communication",
            Query::classify(SymmetricGsb::loose_renaming(4).unwrap().to_spec()),
        ),
        (
            "infeasible",
            Query::classify(SymmetricGsb::renaming(5, 4).unwrap().to_spec()),
        ),
        (
            "decision-map",
            Query::solvable_in_rounds(SymmetricGsb::renaming(3, 6).unwrap().to_spec(), 1),
        ),
        (
            "rounds-unsat",
            Query::solvable_in_rounds(SymmetricGsb::wsb(3).unwrap().to_spec(), 1),
        ),
        (
            "no-comm-impossible",
            Query::no_comm_witness(SymmetricGsb::wsb(4).unwrap().to_spec()),
        ),
        (
            "election-certificate",
            Query::certificate(GsbSpec::election(4).unwrap(), 1),
        ),
        ("atlas", Query::atlas(3)),
    ]
}

#[test]
fn every_evidence_kind_round_trips() {
    let cache = EngineCache::new();
    for (expected_kind, query) in sample_queries() {
        let verdict = query
            .run_with(&cache)
            .unwrap_or_else(|e| panic!("{expected_kind}: {e}"));
        assert_eq!(
            verdict.evidence.label(),
            expected_kind,
            "query produced unexpected evidence"
        );
        let json = verdict.to_json();
        // Both entry points: the text parser, and the value path the
        // serve client and the verdict store take on an already-parsed
        // document.
        for (path, parsed) in [
            ("text", Verdict::from_json(&json)),
            ("value", Verdict::from_json_value(&verdict.to_json_value())),
        ] {
            let parsed = parsed.unwrap_or_else(|e| {
                panic!("{expected_kind} ({path}) failed to parse: {e}\n{json}")
            });
            // Everything except wall time is lossless; wall time survives
            // to f64 precision, which re-rendering pins exactly.
            assert_eq!(parsed.solvability, verdict.solvability, "{expected_kind}");
            assert_eq!(parsed.evidence, verdict.evidence, "{expected_kind}");
            assert_eq!(parsed.provenance, verdict.provenance, "{expected_kind}");
            assert_eq!(parsed.stats.search, verdict.stats.search, "{expected_kind}");
            assert_eq!(
                parsed.to_json(),
                json,
                "{expected_kind} ({path}) not idempotent"
            );
            // The parsed verdict is still independently checkable.
            parsed
                .check()
                .unwrap_or_else(|e| panic!("{expected_kind} ({path}) re-check after parse: {e}"));
        }
        // Stored lines may still carry the `imported` counter of the
        // removed clause pool: such a line parses to the same verdict,
        // and new output never writes the key.
        assert!(!json.contains("\"imported\""), "{expected_kind}: {json}");
        if let Some(stats) = verdict.stats.search {
            let legacy = json.replace("\"deleted\":", "\"imported\": 7, \"deleted\":");
            assert_ne!(legacy, json, "{expected_kind}: counters are rendered");
            let parsed = Verdict::from_json(&legacy)
                .unwrap_or_else(|e| panic!("{expected_kind}: legacy stats line: {e}"));
            assert_eq!(parsed.stats.search, Some(stats), "{expected_kind}");
            assert_eq!(parsed.evidence, verdict.evidence, "{expected_kind}");
            assert_eq!(parsed.to_json(), json, "{expected_kind}");
        }
    }
}

/// A governed run stopped by its limits emits `indeterminate` evidence,
/// and that verdict survives JSON like every other kind: lossless,
/// idempotent, and still checkable after parsing. A zero deadline makes
/// the interruption deterministic (the first poll trips).
#[test]
fn indeterminate_verdicts_round_trip() {
    let mut query = Query::solvable_in_rounds(SymmetricGsb::wsb(3).unwrap().to_spec(), 2);
    query.opts_mut().deadline = Some(Duration::ZERO);
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("a tripped deadline is a verdict, not an error");
    assert!(verdict.is_indeterminate());
    assert_eq!(verdict.evidence.label(), "indeterminate");
    let json = verdict.to_json();
    let parsed = Verdict::from_json(&json).expect("indeterminate verdicts parse back");
    assert!(parsed.is_indeterminate());
    assert_eq!(parsed.solvability, None);
    assert_eq!(parsed.evidence, verdict.evidence);
    assert_eq!(parsed.provenance, verdict.provenance);
    assert_eq!(parsed.to_json(), json, "not idempotent");
    parsed
        .check()
        .expect("indeterminate evidence makes no claim and must pass the recheck");
}

/// `EngineOpts` governance fields (deadline + the four budgets) round
/// trip through their JSON form, including through a render/parse of
/// the text itself — and so do the search-mode and warm-start toggles
/// behind `--search-mode` / `--no-warm-start`.
#[test]
fn engine_opts_round_trip_through_json() {
    let opts = EngineOpts {
        search: SearchEngine::Both,
        deadline: Some(Duration::from_millis(1500)),
        decision_budget: Some(10_000),
        conflict_budget: None,
        node_budget: Some(77),
        memory_budget: Some(64 * 1024 * 1024),
        mode: gsb_topology::SearchMode::Race,
        warm_start: false,
        ..EngineOpts::default()
    };
    let text = opts.to_json_value().render();
    assert!(text.contains("\"mode\": \"race\""), "{text}");
    assert!(text.contains("\"warm_start\": false"), "{text}");
    let parsed = EngineOpts::from_json_value(&Json::parse(&text).expect("well-formed"))
        .expect("options parse back");
    assert_eq!(parsed.search, opts.search);
    assert_eq!(parsed.deadline, opts.deadline);
    assert_eq!(parsed.decision_budget, opts.decision_budget);
    assert_eq!(parsed.conflict_budget, opts.conflict_budget);
    assert_eq!(parsed.node_budget, opts.node_budget);
    assert_eq!(parsed.memory_budget, opts.memory_budget);
    assert_eq!(parsed.mode, opts.mode);
    assert_eq!(parsed.warm_start, opts.warm_start);
}

/// Search-mode defaults and rejects: a payload without the new keys
/// parses to plain CDCL with warm starts on (pre-PR payloads keep their
/// meaning), every mode label round-trips, and an unknown label is a
/// structured JSON error rather than a silent fallback.
#[test]
fn search_mode_json_defaults_and_rejects() {
    let legacy = Json::parse("{\"search\": \"cdcl\"}").expect("well-formed");
    let parsed = EngineOpts::from_json_value(&legacy).expect("legacy options parse");
    assert_eq!(parsed.mode, gsb_topology::SearchMode::Cdcl);
    assert!(parsed.warm_start);
    for mode in [
        gsb_topology::SearchMode::Cdcl,
        gsb_topology::SearchMode::Race,
        gsb_topology::SearchMode::Local,
    ] {
        let opts = EngineOpts {
            mode,
            ..EngineOpts::default()
        };
        let text = opts.to_json_value().render();
        let parsed = EngineOpts::from_json_value(&Json::parse(&text).expect("well-formed"))
            .expect("mode label parses back");
        assert_eq!(parsed.mode, mode);
    }
    let bad = Json::parse("{\"mode\": \"quantum\"}").expect("well-formed");
    assert!(matches!(
        EngineOpts::from_json_value(&bad),
        Err(gsb_engine::Error::Json { .. })
    ));
}

/// A local-search SAT witness is indistinguishable from a CDCL one to
/// the evidence layer: it ships as a decision map, survives JSON, and
/// replays facet by facet through the independent checker.
#[test]
fn local_search_witness_replays_through_evidence_check() {
    let spec = SymmetricGsb::loose_renaming(4).unwrap().to_spec();
    let mut query = Query::solvable_in_rounds(spec, 2);
    query.opts_mut().mode = gsb_topology::SearchMode::Local;
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("local search cracks the n=4 SAT instance");
    assert_eq!(verdict.evidence.label(), "decision-map");
    assert!(
        verdict.stats.search.expect("a search ran").local_won,
        "the witness must come from the local engine, not CDCL"
    );
    let parsed = Verdict::from_json(&verdict.to_json()).expect("round trips");
    parsed
        .check()
        .expect("local-search witness replays facet by facet");
}

/// Pre-governance options JSON still parses (missing budget fields stay
/// `None`), but the removed `reference_budget` key is rejected with an
/// error naming its replacement instead of running without a budget.
#[test]
fn legacy_reference_budget_key_is_rejected() {
    let legacy = Json::parse("{\"search\": \"reference\"}").expect("well-formed");
    let parsed = EngineOpts::from_json_value(&legacy).expect("legacy options parse");
    assert_eq!(parsed.search, SearchEngine::Reference);
    assert_eq!(parsed.node_budget, None);
    assert_eq!(parsed.deadline, None);
    assert_eq!(parsed.memory_budget, None);
    for body in [
        "{\"search\": \"reference\", \"reference_budget\": 42}",
        "{\"search\": \"cdcl\", \"node_budget\": 7, \"reference_budget\": 42}",
    ] {
        let value = Json::parse(body).expect("well-formed");
        let err = EngineOpts::from_json_value(&value).expect_err("removed key");
        assert!(matches!(err, gsb_engine::Error::Json { .. }), "{err}");
        assert!(err.to_string().contains("node_budget"), "{err}");
    }
}

#[test]
fn tampered_reports_fail_the_recheck() {
    let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
    let verdict = Query::solvable_in_rounds(spec, 1)
        .run_with(&EngineCache::new())
        .unwrap();
    let Evidence::DecisionMap(map) = &verdict.evidence else {
        panic!("expected a decision map");
    };
    // Forge the witness (everyone decides 1 — renaming's u = 1 tolerates
    // no duplicated value inside a facet), ship it through JSON, and
    // verify the parsed report's facet-by-facet replay rejects it.
    let forged = gsb_topology::DecisionMap::rebuild(3, 1, vec![1; map.assignment().len()])
        .expect("right arity");
    let mut bad = verdict.clone();
    bad.evidence = Evidence::DecisionMap(forged);
    let parsed = Verdict::from_json(&bad.to_json()).expect("well-formed JSON");
    assert!(parsed.check().is_err(), "forged witness must be rejected");
}

#[test]
fn malformed_reports_are_rejected_with_context() {
    for bad in [
        "",
        "{}",
        "{\"solvability\": 3}",
        "{\"solvability\": \"sideways\", \"evidence\": {\"kind\": \"no-comm-impossible\"}}",
    ] {
        let err = Verdict::from_json(bad).unwrap_err();
        assert!(matches!(err, gsb_engine::Error::Json { .. }), "{bad}");
    }
}
