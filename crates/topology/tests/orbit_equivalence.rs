//! The orbit-quotient streaming pipeline against the full
//! materialized-complex path — the equivalence suite behind the fused
//! `SymmetricSearch::build` front door.
//!
//! The orbit pipeline stamps one lex-leader representative per
//! `S_n`-orbit of facets and recovers exact counts by orbit–stabilizer;
//! everything the solver consumes (classes, deduplicated facet
//! constraints, weights) must be indistinguishable from the full
//! build's. The byte-level instance identity is pinned in-crate
//! (`solvability::tests`); this suite covers counts, views, verdicts,
//! and witness replay over the zoo.

use std::sync::Arc;

use gsb_core::govern::Ticket;
use gsb_core::{GsbSpec, SymmetricGsb};
use gsb_topology::{
    protocol_complex, shared_protocol_complex, CdclConfig, ConstraintSystem, OrbitFrontier,
    SearchMode, SearchResult, SymmetricSearch,
};

/// The materialized reference build and the fused build of one search.
fn both_builds(spec: &GsbSpec, rounds: usize) -> (SymmetricSearch, SymmetricSearch) {
    let system = ConstraintSystem::from_complex(&shared_protocol_complex(spec.n(), rounds));
    let full = SymmetricSearch::with_system(spec.clone(), Some(rounds), Arc::new(system));
    let fused = SymmetricSearch::build(spec.clone(), rounds, &Ticket::unlimited())
        .expect("unlimited ticket");
    (full, fused)
}

/// The front door's plain-CDCL verdict.
fn solve(search: &SymmetricSearch) -> SearchResult {
    let (result, _) = search.solve_mode_with(&CdclConfig::default(), SearchMode::Cdcl);
    result.expect("CDCL is complete")
}

/// The fused build's system and orbit counters under an unlimited ticket.
fn streamed(n: usize, rounds: usize) -> (ConstraintSystem, gsb_topology::OrbitStats) {
    ConstraintSystem::streamed(n, rounds, &Ticket::unlimited()).expect("unlimited ticket")
}

/// The equivalence zoo: `(spec, rounds)` pairs spanning SAT and UNSAT,
/// symmetric and asymmetric specs, `n ≤ 4`.
fn zoo() -> Vec<(GsbSpec, usize)> {
    vec![
        (SymmetricGsb::renaming(2, 3).unwrap().to_spec(), 0),
        (SymmetricGsb::renaming(2, 3).unwrap().to_spec(), 1),
        (SymmetricGsb::renaming(2, 2).unwrap().to_spec(), 2),
        (SymmetricGsb::wsb(3).unwrap().to_spec(), 1),
        (SymmetricGsb::wsb(3).unwrap().to_spec(), 2),
        (SymmetricGsb::slot(3, 2).unwrap().to_spec(), 2),
        (SymmetricGsb::renaming(3, 6).unwrap().to_spec(), 1),
        (SymmetricGsb::loose_renaming(3).unwrap().to_spec(), 1),
        (GsbSpec::election(3).unwrap(), 2),
        (SymmetricGsb::renaming(4, 10).unwrap().to_spec(), 1),
        (SymmetricGsb::renaming(4, 9).unwrap().to_spec(), 1),
        (SymmetricGsb::wsb(4).unwrap().to_spec(), 1),
    ]
}

#[test]
fn fused_prep_matches_full_prep_over_the_zoo() {
    for (spec, rounds) in zoo() {
        let (full, fused) = both_builds(&spec, rounds);
        // Same classes — as materialized views, in the same canonical
        // order — and the same deduplicated constraint family size.
        assert_eq!(full.classes(), fused.classes(), "{spec} r={rounds}");
        assert_eq!(full.facet_count(), fused.facet_count(), "{spec} r={rounds}");
        assert_eq!(fused.rounds(), Some(rounds));
    }
}

#[test]
fn fused_and_full_verdicts_agree_over_the_zoo() {
    for (spec, rounds) in zoo() {
        let (full, fused) = both_builds(&spec, rounds);
        let full_result = solve(&full);
        let fused_result = solve(&fused);
        assert_eq!(
            full_result.is_solvable(),
            fused_result.is_solvable(),
            "{spec} r={rounds}"
        );
        // SAT verdicts from the fused path package replayable maps that
        // survive the independent facet-by-facet check on a *fresh
        // reference build* — the fused pipeline never gets to verify
        // itself.
        if let Some(map) = fused.decision_map(&fused_result) {
            map.check(&spec)
                .unwrap_or_else(|e| panic!("{spec} r={rounds}: fused witness rejected: {e}"));
        }
    }
}

#[test]
fn orbit_counters_match_full_build_counters() {
    // The orbit pipeline's exact orbit–stabilizer accounting, against
    // the full pipeline's literal counts.
    for (n, r) in [(2usize, 2usize), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)] {
        let full = protocol_complex(n, r);
        let (_, orbit) = streamed(n, r);
        assert_eq!(orbit.facets, full.facet_count(), "facets at ({n},{r})");
        assert_eq!(
            orbit.vertices,
            full.vertices().len(),
            "vertices at ({n},{r})"
        );
        assert_eq!(
            orbit.classes,
            full.signature_quotient().classes.len(),
            "classes at ({n},{r})"
        );
        assert!(
            orbit.orbit_rows <= full.facet_count(),
            "representatives never exceed facets"
        );
    }
}

#[test]
fn non_trivial_stabilizers_are_counted_exactly() {
    // χ(Δ²) has four facet orbits of sizes 6, 3, 3, 1: the all-see-all
    // schedule is fixed by the whole group, the two-block schedules by
    // a transposition. Any stabilizer slip breaks the 13.
    let mut frontier = OrbitFrontier::new(3);
    frontier.advance(&Ticket::unlimited()).unwrap();
    let stats = frontier.quotient_stats(&Ticket::unlimited()).unwrap();
    assert_eq!(stats.orbit_rows, 4);
    assert_eq!(stats.facets, 13);
    // Two rounds deep the counts must still be exact (13² = 169 facets
    // from 11 representatives — stabilizers persist across rounds).
    frontier.advance(&Ticket::unlimited()).unwrap();
    let stats = frontier.quotient_stats(&Ticket::unlimited()).unwrap();
    assert_eq!(stats.facets, 169);
    assert!(stats.orbit_rows < 169 / 3, "quotient actually collapses");
}

#[test]
fn zero_round_orbit_frontier_is_the_fixed_simplex() {
    for n in 1..=4usize {
        let (system, stats) = streamed(n, 0);
        assert_eq!(stats.facets, 1);
        assert_eq!(stats.orbit_rows, 1);
        assert_eq!(stats.classes, 1, "all initial views are isomorphic");
        assert_eq!(system.class_count(), 1);
        assert_eq!(system.facet_count(), 1);
    }
}

#[test]
fn orbit_rows_shrink_by_up_to_the_group_order() {
    // The point of the whole pipeline: χ²(Δ³)'s 5,625 facets are held
    // as ≤ 300 representatives (n! = 24 collapse, minus stabilizers).
    let (_, stats) = streamed(4, 2);
    assert_eq!(stats.facets, 5_625);
    assert!(
        stats.orbit_rows * 18 <= stats.facets,
        "5,625 facets collapse to {} representatives",
        stats.orbit_rows
    );
    assert!(
        stats.stamped_rows < stats.facets / 5,
        "stamping is the saved work: {} stamped vs {} facets",
        stats.stamped_rows,
        stats.facets
    );
}
