//! The solvability frontier the CDCL engine opened — pinned as
//! regression tests.
//!
//! The seed's plain backtracking search could not certify these within
//! reasonable time (its own docs capped WSB at `n = 3, r ≤ 1` and called
//! the `r = 2` instance "out of reach for plain search"; the retained
//! reference engine needs ~10 s on it, the conflict-driven engine ~1 ms):
//!
//! * **WSB `n = 3, r = 2` UNSAT** — the 81-class not-all-equal system
//!   behind the index-lemma argument of the paper's \[17\].
//! * **`(2n−1)`-renaming at `n = 4` solved in two rounds** — `χ²(Δ³)`
//!   has 865 classes and 5625 facet constraints; one round provably
//!   needs 10 names, two rounds reach the wait-free optimum of 7.

use gsb_core::govern::Ticket;
use gsb_core::{GsbSpec, SymmetricGsb};
use gsb_topology::{
    election_impossibility_certificate, CdclConfig, SearchMode, SearchResult, SearchStats,
    SymmetricSearch,
};

/// The fused orbit-quotient build under an unlimited ticket.
fn build(spec: GsbSpec, rounds: usize) -> SymmetricSearch {
    SymmetricSearch::build(spec, rounds, &Ticket::unlimited()).expect("unlimited ticket")
}

/// The front door's plain-CDCL verdict.
fn solve(search: &SymmetricSearch) -> SearchResult {
    let (result, _) = search.solve_mode_with(&CdclConfig::default(), SearchMode::Cdcl);
    result.expect("CDCL is complete")
}

fn solvable_in_rounds(spec: &GsbSpec, rounds: usize) -> SearchResult {
    solve(&build(spec.clone(), rounds))
}

#[test]
fn wsb_n3_r2_unsat_certificate() {
    // Previously infeasible: the r = 2 index-lemma UNSAT at n = 3.
    let wsb = SymmetricGsb::wsb(3).unwrap().to_spec();
    assert!(!solvable_in_rounds(&wsb, 2).is_solvable());
    // 2-slot ≡ WSB must agree at r = 2 as well (the seed test could
    // only check this through r = 1).
    let slot = SymmetricGsb::slot(3, 2).unwrap().to_spec();
    assert!(!solvable_in_rounds(&slot, 2).is_solvable());
}

#[test]
fn election_n3_r2_unsat_cross_checked_against_certificate() {
    // The search's UNSAT and Theorem 11's structural certificate must
    // both hold on the same complex.
    election_impossibility_certificate(3, 2).expect("Theorem 11 certificate holds");
    let election = gsb_core::GsbSpec::election(3).unwrap();
    assert!(!solvable_in_rounds(&election, 2).is_solvable());
}

#[test]
fn renaming_n4_needs_ten_names_in_one_round() {
    // The rank-in-view bound: one IS round renames n = 4 into
    // n(n+1)/2 = 10 names and no fewer.
    let ten = SymmetricGsb::renaming(4, 10).unwrap().to_spec();
    assert!(solvable_in_rounds(&ten, 1).is_solvable());
    let nine = SymmetricGsb::renaming(4, 9).unwrap().to_spec();
    assert!(!solvable_in_rounds(&nine, 1).is_solvable());
}

#[test]
fn loose_renaming_n4_solved_in_two_rounds() {
    // Previously infeasible: a symmetric decision map for
    // (2n−1)-renaming (7 names) on χ²(Δ³) — 865 classes, 5625 facets.
    let seven = SymmetricGsb::loose_renaming(4).unwrap().to_spec();
    let search = build(seven, 2);
    match solve(&search) {
        SearchResult::Solvable { assignment } => {
            // `solve` re-checks every facet before returning; sanity-pin
            // the shape here too.
            assert_eq!(assignment.len(), search.classes().len());
            assert!(assignment.iter().all(|&v| (1..=7).contains(&v)));
        }
        SearchResult::Unsolvable => panic!("(2n−1)-renaming must be 2-round solvable at n = 4"),
    }
}

/// The repair walk's trajectory, pinned: alone, the local lane solves
/// `loose_renaming(4)` at `r = 2` in exactly 647 moves from its first
/// restart — the figure `gsb solvable loose-renaming --n 4 --rounds 2
/// --search-mode local --json` reports. Faster move scoring must take
/// the very same moves.
#[test]
fn loose_renaming_n4_r2_local_trajectory_is_pinned() {
    let seven = SymmetricGsb::loose_renaming(4).unwrap().to_spec();
    let search = build(seven, 2);
    let (result, stats) = search.solve_mode_with(&CdclConfig::default(), SearchMode::Local);
    assert!(result
        .expect("the local lane finds a witness")
        .is_solvable());
    assert!(stats.local_won);
    assert_eq!(stats.local_steps, 647);
    assert_eq!(stats.local_restarts, 1);
}

#[test]
fn renaming_n5_needs_fifteen_names_in_one_round() {
    // The n = 5 frontier, opened by the streaming construction pipeline
    // (χ(Δ⁴): 541 facets, 15 classes): one IS round renames five
    // processes into n(n+1)/2 = 15 names (rank-in-view), and not into
    // the wait-free optimum of 2n−1 = 9.
    let fifteen = SymmetricGsb::renaming(5, 15).unwrap().to_spec();
    let search = build(fifteen.clone(), 1);
    let result = solve(&search);
    assert!(result.is_solvable());
    // The witness replays facet-by-facet on a fresh complex.
    let map = search.decision_map(&result).expect("SAT with known rounds");
    map.check(&fifteen).expect("genuine witness must replay");
    let nine = SymmetricGsb::loose_renaming(5).unwrap().to_spec();
    assert!(!solvable_in_rounds(&nine, 1).is_solvable());
}

#[test]
#[ignore = "χ³(Δ²) UNSAT over 1,086 classes: ~125k conflicts, ~7 s of release-build CDCL \
            (minutes under debug); the --full search bench records it in BENCH_search.json"]
fn wsb_n3_r3_unsat_certificate() {
    // One round deeper than the r = 2 frontier row: the index-lemma
    // UNSAT still holds on χ³(Δ²), whose 2,197 facets stream through
    // construction and constraint prep in milliseconds.
    let wsb = SymmetricGsb::wsb(3).unwrap().to_spec();
    assert!(!solvable_in_rounds(&wsb, 3).is_solvable());
}

#[test]
#[ignore = "χ²(Δ⁴) SAT over 10,945 classes: ~25 s of 2-thread release CDCL, far longer \
            under debug (the --full search bench records it in BENCH_search.json); the \
            orbit-quotient prep itself takes ~50 ms"]
fn loose_renaming_n5_solved_in_two_rounds() {
    // The first n = 5, r = 2 frontier row, reached through the fused
    // orbit-quotient instance prep: (2n−1)-renaming (9 names) has a
    // symmetric decision map on χ²(Δ⁴) — one round provably needs
    // n(n+1)/2 = 15 names (see above), two reach the wait-free optimum.
    let nine = SymmetricGsb::loose_renaming(5).unwrap().to_spec();
    let search = build(nine.clone(), 2);
    let result = solve(&search);
    match &result {
        SearchResult::Solvable { assignment } => {
            assert_eq!(assignment.len(), 10_945);
            assert!(assignment.iter().all(|&v| (1..=9).contains(&v)));
        }
        SearchResult::Unsolvable => panic!("(2n−1)-renaming must be 2-round solvable at n = 5"),
    }
    // The witness replays facet-by-facet on a fresh reference build.
    let map = search.decision_map(&result).expect("SAT with known rounds");
    map.check(&nine).expect("genuine witness must replay");
}

#[test]
fn race_counters_are_the_winning_lanes_alone() {
    // A decided race reports its winner's counters and zeroes the
    // loser's, so its counters are exactly what that lane reports when
    // it runs alone, and they repeat from run to run.
    let loose = SymmetricGsb::loose_renaming(4).unwrap().to_spec();
    let search = build(loose, 2);
    let config = CdclConfig::default();
    let lane = |mode| search.solve_mode_with(&config, mode).1;
    let (cdcl, local) = (lane(SearchMode::Cdcl), lane(SearchMode::Local));
    let races: Vec<SearchStats> = (0..3).map(|_| lane(SearchMode::Race)).collect();
    for race in &races {
        assert_eq!(race, if race.local_won { &local } else { &cdcl });
    }
    assert!(
        races[0].local_won,
        "the repair walk wins at loose_renaming(4)"
    );
    assert_eq!(
        races[0].decisions, 0,
        "the cancelled CDCL lane reports nothing"
    );
    assert!(races.iter().all(|race| *race == races[0]));
}

#[test]
#[ignore = "χ²(Δ⁴) SAT over 10,945 classes through the completion race: ~1.3 s in a \
            release build (the local lane's 23,427 repair moves take under a second, where \
            plain CDCL needs minutes; the --full search bench records the split in \
            BENCH_search.json), ~27 s under debug, including the raw-facet witness replay \
            on a reference complex build"]
fn loose_renaming_n5_r2_race_record() {
    // The large-SAT record configuration: CDCL and the min-conflicts
    // repair engine race on χ²(Δ⁴), first finisher wins, and either
    // winner's witness is the same replayable decision map.
    let nine = SymmetricGsb::loose_renaming(5).unwrap().to_spec();
    let search = build(nine.clone(), 2);
    let (result, stats) = search.solve_mode_with(&CdclConfig::default(), SearchMode::Race);
    let result = result.expect("the race's CDCL lane is complete");
    match &result {
        SearchResult::Solvable { assignment } => {
            assert_eq!(assignment.len(), 10_945);
            assert!(assignment.iter().all(|&v| (1..=9).contains(&v)));
        }
        SearchResult::Unsolvable => panic!("(2n−1)-renaming must be 2-round solvable at n = 5"),
    }
    assert!(
        stats.local_won || stats.conflicts > 0,
        "one of the two lanes did the work"
    );
    if stats.local_won {
        // The local lane's trajectory is deterministic: a win always
        // takes the same 23,427 repair moves.
        assert_eq!(stats.local_steps, 23_427);
    }
    // The witness replays facet-by-facet on a fresh reference build —
    // whichever lane produced it.
    let map = search.decision_map(&result).expect("SAT with known rounds");
    map.check(&nine).expect("race winner's witness must replay");
}

#[test]
#[ignore = "χ²(Δ³) UNSAT over 865 classes for wsb(4): hours-scale 1-core CDCL — the \
            hardest refutation in the repo (4 = 2² is a prime power, so the index-lemma \
            obstruction has no parity escape); run explicitly when refreshing the record"]
fn wsb_n4_r2_unsat_certificate() {
    // The first n = 4 weak-symmetry-breaking row: r = 2 stays UNSAT,
    // matching the paper's prime-power characterization (wsb(4) is
    // wait-free *unsolvable* outright, and in particular has no 2-round
    // symmetric decision map; contrast loose_renaming(4), SAT on the
    // same complex).
    let wsb = SymmetricGsb::wsb(4).unwrap().to_spec();
    let search = build(wsb, 2);
    let (result, _) = search.solve_mode_with(&CdclConfig::default(), SearchMode::Cdcl);
    assert!(
        !result.expect("CDCL is complete").is_solvable(),
        "wsb(4) must have no 2-round symmetric decision map"
    );
}

/// The lift pipeline at small scale, exercised on every test run: solve
/// `renaming(3,6)` at `r = 1`, lift the map through the subdivision,
/// and let the repair engine verify the lifted map *is* a complete
/// `r = 2` witness — full coverage, zero violations, zero moves. This
/// is the always-on twin of the `n = 5, r = 3` record below.
#[test]
fn lifted_map_is_a_complete_witness_one_round_deeper() {
    let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
    let r1 = build(spec.clone(), 1);
    let result = solve(&r1);
    let map = r1
        .decision_map(&result)
        .expect("renaming(3,6) solves at r = 1");
    let r2 = build(spec, 2);
    let seed = r2.lift_warm_start(&map);
    assert_eq!(seed.len(), r2.classes().len());
    assert!(seed.iter().all(|&v| v != 0), "the lift covers every class");
    let config = CdclConfig {
        warm_start: Some(std::sync::Arc::new(seed.clone())),
    };
    let (lifted, stats) = r2.solve_mode_with(&config, SearchMode::Local);
    let lifted = lifted.expect("a lifted SAT map is SAT");
    assert!(
        stats.local_won,
        "the instance must be past the tiny-route cutoff, or this test is vacuous"
    );
    let expected: Vec<usize> = seed.iter().map(|&v| v as usize).collect();
    assert_eq!(lifted.assignment(), Some(expected.as_slice()));
    assert_eq!(stats.local_steps, 0, "a lifted SAT map needs no repair");
}

#[test]
#[ignore = "χ³(Δ⁴) SAT over the ~32 GB streamed constraint system (541³ ≈ 158M raw \
            facets; the build alone takes minutes): certified constructively through \
            the lift theorem, since cold search at this scale exhausts any reasonable \
            budget and the raw-facet complex replay is out of reach"]
fn loose_renaming_n5_solved_in_three_rounds_by_lifted_map() {
    // The first n = 5, r = 3 row. The local lane's offending-class
    // repair walk cracks r = 2 in seconds; the r = 2 map then lifts
    // through the subdivision (each r = 3 class's previous-round
    // subview projects to its parent class), and because facets project
    // to facets with the same value multiset, the lifted assignment is
    // itself a complete r = 3 decision map. The repair engine verifies
    // exactly that: handed the lift as a fully-pinned warm seed, it
    // recounts every deduplicated facet's value multiset from scratch,
    // finds zero violations, and returns the map without a single move.
    let nine = SymmetricGsb::loose_renaming(5).unwrap().to_spec();
    let r2 = build(nine.clone(), 2);
    let config = CdclConfig::default();
    let (r2_result, r2_stats) = r2.solve_mode_with(&config, SearchMode::Local);
    let r2_result = r2_result.expect("local search cracks the r = 2 record in seconds");
    assert!(r2_stats.local_won);
    let map = r2.decision_map(&r2_result).expect("SAT with known rounds");
    let r3 = build(nine, 3);
    let seed = r3.lift_warm_start(&map);
    assert_eq!(seed.len(), r3.classes().len());
    assert!(seed.iter().all(|&v| v != 0), "the lift covers every class");
    assert!(seed.iter().all(|&v| (1..=9).contains(&v)));
    let lifted_config = CdclConfig {
        warm_start: Some(std::sync::Arc::new(seed.clone())),
    };
    let (r3_result, r3_stats) = r3.solve_mode_with(&lifted_config, SearchMode::Local);
    let r3_result = r3_result.expect("a lifted SAT map is SAT");
    let expected: Vec<usize> = seed.iter().map(|&v| v as usize).collect();
    assert_eq!(
        r3_result.assignment(),
        Some(expected.as_slice()),
        "the repair engine must accept the lifted map verbatim"
    );
    assert_eq!(r3_stats.local_steps, 0, "a lifted SAT map needs no repair");
}
