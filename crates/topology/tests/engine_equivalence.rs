//! Equivalence of the decision-map search engines over a task zoo.
//!
//! The CDCL engine ([`SolveRoute::Cdcl`]) must agree verdict-for-verdict
//! with the retained backtracking oracle ([`SolveRoute::Reference`]) on
//! every zoo task and on property-sampled symmetric specs at
//! `r ∈ {0, 1}` — with orbit learning on, so an unsound symmetry image
//! would surface as a divergence. SAT answers are
//! additionally re-checked facet-by-facet inside `solve` (a bad map
//! panics there).

use std::sync::Arc;

use gsb_core::govern::Ticket;
use gsb_core::{GsbSpec, SymmetricGsb};
use gsb_topology::{
    protocol_complex, CdclConfig, ConstraintSystem, DecisionMap, SearchMode, SearchResult,
    SolveRoute, SymmetricSearch,
};
use proptest::prelude::*;

/// The materialized reference build of `spec` at `rounds`.
fn reference_build(spec: &GsbSpec, rounds: usize) -> SymmetricSearch {
    let system = ConstraintSystem::from_complex(&protocol_complex(spec.n(), rounds));
    SymmetricSearch::with_system(spec.clone(), Some(rounds), Arc::new(system))
}

/// Runs `route` under an unlimited ticket (`None` only from local-search
/// exhaustion).
fn solve(search: &SymmetricSearch, config: &CdclConfig, route: SolveRoute) -> Option<SearchResult> {
    search.solve(config, route, &Ticket::unlimited()).0
}

/// The backtracking oracle's verdict.
fn oracle(search: &SymmetricSearch) -> SearchResult {
    solve(search, &CdclConfig::default(), SolveRoute::Reference).expect("the oracle is complete")
}

/// Every named paper task at this `n` (the catalog already includes the
/// asymmetric members, e.g. election).
fn zoo(n: usize) -> Vec<GsbSpec> {
    gsb_core::zoo::catalog(n)
        .expect("zoo is well-formed")
        .into_iter()
        .map(|entry| entry.spec)
        .collect()
}

fn engines_agree(spec: &GsbSpec, rounds: usize) {
    let search = reference_build(spec, rounds);
    let reference = oracle(&search);
    // Forced CDCL, not the front door: the production path routes tiny
    // instances (most of this suite) straight to the backtracking
    // oracle, which would make the CDCL-vs-oracle comparison vacuous.
    let cdcl = solve(&search, &CdclConfig::default(), SolveRoute::Cdcl).expect("CDCL is complete");
    assert_eq!(
        cdcl.is_solvable(),
        reference.is_solvable(),
        "engines diverge on {spec:?} at r = {rounds}"
    );
    if let SearchResult::Solvable { assignment } = &cdcl {
        assert_eq!(assignment.len(), search.classes().len());
    }
}

/// The search modes against the oracle: forced CDCL and the
/// CDCL-vs-local race are complete and must agree everywhere, and
/// local search alone may only
/// ever return SAT verdicts the oracle confirms (exhaustion on a
/// genuinely SAT zoo instance would be a budget bug — the repair walk
/// cracks these in microseconds).
fn modes_agree(spec: &GsbSpec, rounds: usize) {
    let search = reference_build(spec, rounds);
    let reference = oracle(&search);
    let config = CdclConfig::default();
    let cdcl = solve(&search, &config, SolveRoute::Cdcl).expect("CDCL is complete");
    assert_eq!(
        cdcl.is_solvable(),
        reference.is_solvable(),
        "engines diverge on {spec:?} at r = {rounds}"
    );
    let (race, _) = search.solve_mode_with(&config, SearchMode::Race);
    let race = race.expect("the race's CDCL lane is complete");
    assert_eq!(
        race.is_solvable(),
        reference.is_solvable(),
        "race diverges on {spec:?} at r = {rounds}"
    );
    // Local search is run only where a model exists: on UNSAT instances
    // it can do nothing but grind through its whole restart budget
    // (millions of moves under a debug build) before reporting the
    // indeterminate exhaustion the API already types as `None`.
    if reference.is_solvable() {
        let (local, _) = search.solve_mode_with(&config, SearchMode::Local);
        let local = local.expect("local search cracks SAT zoo instances");
        assert!(
            local.is_solvable(),
            "local search can only answer SAT, diverged on {spec:?} at r = {rounds}"
        );
    }
}

/// The lifted warm start must be a pure performance hint: seeding the
/// CDCL engine with the lift of the task's own `r−1` decision map (when
/// one exists) cannot change the `r`-round verdict.
fn warm_start_agrees(spec: &GsbSpec, rounds: usize) {
    let search = reference_build(spec, rounds);
    let reference = oracle(&search);
    let parent = reference_build(spec, rounds - 1);
    let SearchResult::Solvable { assignment } = oracle(&parent) else {
        return; // no r−1 map to lift
    };
    // Reference assignments are in the canonical class order.
    let map = DecisionMap::new(spec.n(), rounds - 1, assignment);
    let config = CdclConfig {
        warm_start: Some(std::sync::Arc::new(search.lift_warm_start(&map))),
    };
    let warm = solve(&search, &config, SolveRoute::Cdcl).expect("CDCL is complete");
    assert_eq!(
        warm.is_solvable(),
        reference.is_solvable(),
        "warm-started engine diverges on {spec:?} at r = {rounds}"
    );
}

#[test]
fn engines_agree_on_the_zoo() {
    for n in 2..=3 {
        for spec in zoo(n) {
            for rounds in 0..=1 {
                engines_agree(&spec, rounds);
            }
        }
    }
}

#[test]
fn search_modes_agree_on_the_zoo() {
    // n = 4 at r = 1 (χ(Δ³), 75 raw facets) is past the tiny-instance
    // cutoff, so the race and local paths genuinely run here.
    for n in 2..=4 {
        for spec in zoo(n) {
            modes_agree(&spec, 1);
        }
    }
}

#[test]
fn warm_started_engine_agrees_on_the_zoo() {
    for n in 2..=4 {
        for spec in zoo(n) {
            warm_start_agrees(&spec, 1);
        }
    }
}

#[test]
fn engines_agree_on_election_at_two_rounds() {
    // The asymmetric member at the largest feasible instance: no value
    // precedence, no value images — exercises the taint-free path.
    engines_agree(&GsbSpec::election(2).expect("well-formed"), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random feasible symmetric specs: both engines, both rounds.
    #[test]
    fn engines_agree_on_sampled_specs(
        n in 2usize..=3,
        m in 1usize..=5,
        l in 0usize..=2,
        du in 0usize..=3,
        rounds in 0usize..=1,
    ) {
        let u = (l + du).max(1);
        if let Ok(task) = SymmetricGsb::new(n, m, l, u) {
            if task.is_feasible() {
                engines_agree(&task.to_spec(), rounds);
            }
        }
    }
}
