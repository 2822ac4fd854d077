//! Governance integration: every query holds a ticket (unlimited by
//! default), every long loop — CDCL solver, reference backtracker,
//! streamed orbit construction — stops when its ticket trips, and the
//! engine reports the stop as an *indeterminate verdict* (never a hang,
//! never an abort). The deterministic
//! fault-injection harness drives the cancellation/panic paths from
//! explicit seeds.
//!
//! The fault harness is process-global (any `Ticket::check` in the
//! process can consume an armed plan), so every test here serializes on
//! one mutex — the fault tests via the harness's own gate would not
//! protect the budget/deadline tests from consuming a plan armed by a
//! concurrently running fault test.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use gsb_core::govern::fault::{self, FaultAction};
use gsb_core::SymmetricGsb;
use gsb_engine::{Batch, EngineCache, Error, Evidence, Query, SearchEngine, StopReason, Verdict};
use gsb_topology::SearchMode;

/// Serializes all governance tests in this binary (see module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn wsb(n: usize) -> gsb_core::GsbSpec {
    SymmetricGsb::wsb(n).expect("well-formed").to_spec()
}

/// Asserts the indeterminate shape and returns the stop reason.
fn stop_reason_of(verdict: &Verdict) -> StopReason {
    assert!(verdict.is_indeterminate(), "got {verdict:?}");
    assert_eq!(verdict.solvability, None);
    assert_eq!(verdict.provenance.engines, vec!["governor".to_string()]);
    match &verdict.evidence {
        Evidence::Indeterminate { reason, .. } => *reason,
        other => panic!("expected indeterminate evidence, got {other:?}"),
    }
}

/// A long-running solve under a short deadline stops within a polling
/// interval instead of hanging: wsb(3) at three rounds is far beyond
/// the deadline, and every construction and CDCL poll reads the
/// deadline itself.
#[test]
fn deadline_stops_a_long_cdcl_solve() {
    let _g = lock();
    let mut query = Query::solvable_in_rounds(wsb(3), 3);
    query.opts_mut().deadline = Some(Duration::from_millis(40));
    let start = Instant::now();
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("a deadline is a verdict, not an error");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "governed solve must stop within a polling interval"
    );
    assert_eq!(stop_reason_of(&verdict), StopReason::Deadline);
}

/// A conflict budget trips the CDCL solver at a strided poll site and
/// the verdict carries its partial counters.
#[test]
fn conflict_budget_stops_cdcl_with_partial_counters() {
    let _g = lock();
    let mut query = Query::solvable_in_rounds(wsb(3), 3);
    query.opts_mut().conflict_budget = Some(1);
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("budget exhaustion is a verdict");
    assert_eq!(stop_reason_of(&verdict), StopReason::ConflictBudget);
    let partial = verdict.stats.search.expect("partial counters survive");
    assert!(
        partial.conflicts + partial.decisions > 0,
        "interrupted solve reports the work it did: {partial:?}"
    );
}

/// The `node_budget` field governs the reference backtracker.
#[test]
fn node_budget_stops_the_reference_backtracker() {
    let _g = lock();
    let mut query = Query::solvable_in_rounds(wsb(3), 1);
    query.opts_mut().search = SearchEngine::Reference;
    query.opts_mut().node_budget = Some(1);
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("budget exhaustion is a verdict");
    assert_eq!(stop_reason_of(&verdict), StopReason::NodeBudget);
}

/// A one-byte memory budget trips during streamed construction (the
/// frontier/arena growth charges), before any solving happens.
#[test]
fn memory_budget_stops_streamed_construction() {
    let _g = lock();
    let mut query = Query::solvable_in_rounds(wsb(3), 2);
    query.opts_mut().memory_budget = Some(1);
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("budget exhaustion is a verdict");
    assert_eq!(stop_reason_of(&verdict), StopReason::MemoryBudget);
}

/// The memory budget covers the solver too: with construction served
/// from the cache, a budget below the CDCL setup charge trips before
/// any search, in a plain CDCL solve and in the race's CDCL lane alike, and
/// the interrupted verdict leaves no cache entry behind.
#[test]
fn memory_budget_covers_solver_setup() {
    let _g = lock();
    for mode in [SearchMode::Cdcl, SearchMode::Race] {
        let cache = EngineCache::new();
        let _ = cache.constraint_system(3, 2);
        let mut tripped = Query::solvable_in_rounds(wsb(3), 2);
        tripped.opts_mut().mode = mode;
        tripped.opts_mut().memory_budget = Some(1024);
        let verdict = tripped
            .run_with(&cache)
            .expect("budget exhaustion is a verdict");
        assert_eq!(stop_reason_of(&verdict), StopReason::MemoryBudget);
        let mut clean = Query::solvable_in_rounds(wsb(3), 2);
        clean.opts_mut().mode = mode;
        let clean = clean.run_with(&cache).expect("clean verdict");
        assert_eq!(clean.is_solvable(), Some(false));
        assert!(
            !clean.provenance.cache_hit,
            "the interrupted run must not have populated the cache"
        );
    }
}

/// Generous limits reach the same verdicts as the unlimited default.
#[test]
fn generous_limits_do_not_change_the_verdict() {
    let _g = lock();
    let mut query = Query::solvable_in_rounds(wsb(3), 1);
    query.opts_mut().deadline = Some(Duration::from_secs(3600));
    query.opts_mut().conflict_budget = Some(u64::MAX / 4);
    let verdict = query.run_with(&EngineCache::new()).expect("clean run");
    assert!(!verdict.is_indeterminate());
    assert_eq!(verdict.is_solvable(), Some(false));
}

/// Seeded fault injection cancels the CDCL solver at a counted poll
/// site: construction finishes before the plan is armed (its polls
/// would otherwise consume the countdown) and the solver setup charge
/// is the first counted poll, so the countdown-one seed lands on the
/// solver's first strided conflict/decision poll. The solve returns no
/// result, reports the cancellation on the ticket, and keeps the
/// partial counters it accumulated before the trip.
#[test]
fn seeded_fault_cancels_the_cdcl_path() {
    let _g = lock();
    let ticket = gsb_core::Ticket::unlimited();
    let search = gsb_topology::SymmetricSearch::build(wsb(3), 3, &ticket).expect("unarmed build");
    // splitmix64(1) % 32 == 1: the setup charge survives, the next
    // counted poll fires.
    let guard = fault::arm_action(1, FaultAction::Cancel);
    let start = Instant::now();
    let (result, stats) = search.solve(
        &gsb_topology::CdclConfig::default(),
        gsb_topology::SolveRoute::Cdcl,
        &ticket,
    );
    drop(guard);
    assert!(start.elapsed() < Duration::from_secs(30));
    assert!(result.is_none(), "a cancelled solve reaches no result");
    assert_eq!(ticket.stop_reason(), Some(StopReason::Cancelled));
    // The fault lands on a member's first strided poll (decision count
    // 0 is a multiple of the stride), so only propagation work precedes
    // it — the stats are partial but well-formed.
    assert!(
        stats.propagations + stats.decisions + stats.conflicts > 0,
        "the interrupted solve reports the work it did: {stats:?}"
    );
}

/// The same seed cancels at the same counted poll site every run.
#[test]
fn seeded_fault_cancellation_is_deterministic() {
    let _g = lock();
    let reasons: Vec<StopReason> = (0..2)
        .map(|_| {
            // splitmix64(12) % 32 == 3: lands in the governed
            // construction polls, the same site each run.
            let guard = fault::arm_action(12, FaultAction::TripBudget);
            let mut query = Query::solvable_in_rounds(wsb(3), 2);
            query.opts_mut().conflict_budget = Some(u64::MAX / 4);
            let verdict = query
                .run_with(&EngineCache::new())
                .expect("an injected trip is a verdict");
            drop(guard);
            stop_reason_of(&verdict)
        })
        .collect();
    assert_eq!(reasons, vec![StopReason::Fault, StopReason::Fault]);
}

/// Seeded fault injection cancels the reference backtracker, which
/// polls on every visited node.
#[test]
fn seeded_fault_cancels_the_reference_backtracker() {
    let _g = lock();
    let guard = fault::arm_action(0xBEEF, FaultAction::Cancel);
    let mut query = Query::solvable_in_rounds(wsb(3), 1);
    query.opts_mut().search = SearchEngine::Reference;
    query.opts_mut().node_budget = Some(u64::MAX / 4);
    let verdict = query
        .run_with(&EngineCache::new())
        .expect("an injected cancellation is a verdict");
    drop(guard);
    assert_eq!(stop_reason_of(&verdict), StopReason::Cancelled);
}

/// Seeded fault injection cancels the orbit-frontier expansion loops
/// directly at the topology layer: `advance`/`expand` return `Stopped`
/// and leave the frontier at its last completed round.
#[test]
fn seeded_fault_cancels_orbit_frontier_expansion() {
    let _g = lock();
    let ticket = gsb_core::Ticket::unlimited();
    // Countdown for this seed lands inside the construction loops of a
    // 4-process, 2-round streamed build (hundreds of poll sites).
    let guard = fault::arm_action(0x0B17, FaultAction::Cancel);
    let outcome = gsb_topology::ConstraintSystem::streamed(4, 2, &ticket);
    drop(guard);
    let stopped = outcome.expect_err("the armed cancel must land mid-construction");
    assert_eq!(stopped.reason, gsb_core::StopReason::Cancelled);
    // A fresh build still works afterwards (no shared-state corruption
    // from the aborted one).
    let fresh = gsb_core::Ticket::unlimited();
    let (system, _) = gsb_topology::ConstraintSystem::streamed(4, 2, &fresh).expect("unarmed");
    assert!(system.facet_count() > 0);
}

/// A query with default options holds an unlimited ticket that still
/// polls: an armed cancellation reaches it mid-construction (the
/// countdown-one seed survives the admission poll and fires on the
/// next) and comes back as an indeterminate verdict.
#[test]
fn armed_cancel_reaches_a_query_with_default_opts() {
    let _g = lock();
    let guard = fault::arm_action(1, FaultAction::Cancel);
    let verdict = Query::solvable_in_rounds(wsb(3), 2)
        .run_with(&EngineCache::new())
        .expect("an injected cancellation is a verdict");
    drop(guard);
    assert_eq!(stop_reason_of(&verdict), StopReason::Cancelled);
}

/// **Batch panic isolation**: a deliberately poisoned query (injected
/// panic at a counted poll site) yields `Error::Panicked` in its own
/// slot while its batch-mates complete undisturbed, and the results
/// stay index-aligned with the queries.
#[test]
fn poisoned_batch_query_leaves_siblings_intact() {
    let _g = lock();
    let guard = fault::arm_action(3, FaultAction::Panic);
    let mut poisoned = Query::solvable_in_rounds(wsb(3), 2);
    // Every query polls its ticket, but each classify sibling polls
    // only once, at admission, while the poisoned search polls dozens
    // of times through construction: seed 3's countdown of 13 outlasts
    // the siblings' two polls, so the injected panic lands in slot 1
    // whatever the scheduling.
    poisoned.opts_mut().conflict_budget = Some(u64::MAX / 4);
    let batch: Batch = [Query::classify(wsb(4)), poisoned, Query::classify(wsb(5))]
        .into_iter()
        .collect();
    let results = batch.run_with(&EngineCache::new());
    drop(guard);
    assert_eq!(results.len(), 3, "results stay index-aligned");
    match &results[1] {
        Err(Error::Panicked { details }) => {
            assert!(details.contains("injected fault"), "details: {details}");
        }
        other => panic!("expected Panicked in slot 1, got {other:?}"),
    }
    for (i, n) in [(0usize, 4usize), (2, 5)] {
        let sibling = results[i].as_ref().expect("siblings complete");
        assert_eq!(sibling.provenance.spec.as_ref(), Some(&wsb(n)));
    }
}

/// Batch results stay index-aligned when a member comes back
/// indeterminate (budget-tripped) rather than panicked.
#[test]
fn indeterminate_batch_member_keeps_result_alignment() {
    let _g = lock();
    let mut tripped = Query::solvable_in_rounds(wsb(3), 3);
    tripped.opts_mut().conflict_budget = Some(1);
    let batch: Batch = [Query::classify(wsb(4)), tripped, Query::classify(wsb(6))]
        .into_iter()
        .collect();
    let results = batch.run_with(&EngineCache::new());
    assert_eq!(results.len(), 3);
    assert!(results[1].as_ref().expect("a verdict").is_indeterminate());
    assert!(!results[0].as_ref().expect("clean").is_indeterminate());
    assert!(!results[2].as_ref().expect("clean").is_indeterminate());
}

/// Interrupted searches are never cached: after a budget-tripped run,
/// the same query with generous limits recomputes a real verdict.
#[test]
fn interrupted_results_are_not_cached() {
    let _g = lock();
    let cache = EngineCache::new();
    // One node is not enough for wsb(3) at one round (five visits), so
    // the tiny-instance path trips on its per-node poll.
    let mut tripped = Query::solvable_in_rounds(wsb(3), 1);
    tripped.opts_mut().node_budget = Some(1);
    let first = tripped.run_with(&cache).expect("tripped verdict");
    assert_eq!(stop_reason_of(&first), StopReason::NodeBudget);
    let clean = Query::solvable_in_rounds(wsb(3), 1)
        .run_with(&cache)
        .expect("clean verdict");
    assert!(!clean.is_indeterminate());
    assert_eq!(clean.is_solvable(), Some(false));
    assert!(
        !clean.provenance.cache_hit,
        "the interrupted run must not have populated the cache"
    );
    // The clean run *does* populate it.
    let again = Query::solvable_in_rounds(wsb(3), 1)
        .run_with(&cache)
        .expect("cached verdict");
    assert!(again.provenance.cache_hit);
}

/// The Theorem 11 certificate builds χ^r through the ticketed streaming
/// round loop: χ³(Δ³)'s 421,875 facets do not fit in 1 MB, and a 1 ms
/// deadline stops the build at its next poll instead of after the
/// whole subdivision.
#[test]
fn certificate_builds_stop_on_memory_and_deadline() {
    let _g = lock();
    let election = gsb_core::GsbSpec::election(4).expect("well-formed");
    let mut capped = Query::certificate(election.clone(), 3);
    capped.opts_mut().memory_budget = Some(1 << 20);
    let verdict = capped
        .run_with(&EngineCache::new())
        .expect("a budget trip is a verdict");
    assert_eq!(stop_reason_of(&verdict), StopReason::MemoryBudget);
    let mut hurried = Query::certificate(election, 3);
    hurried.opts_mut().deadline = Some(Duration::from_millis(1));
    let start = Instant::now();
    let verdict = hurried
        .run_with(&EngineCache::new())
        .expect("a deadline is a verdict");
    assert_eq!(stop_reason_of(&verdict), StopReason::Deadline);
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "stopped after {:?}",
        start.elapsed()
    );
}

/// Every question — including the closed-form ones that never reach a
/// solver loop — accepts a deadline: a zero deadline stops each before
/// any real work (the admission poll observes the tripped ticket).
#[test]
fn certificate_and_atlas_respect_deadlines() {
    let _g = lock();
    for mut query in [
        Query::certificate(wsb(3), 2),
        Query::atlas(6),
        Query::classify(wsb(4)),
        Query::no_comm_witness(wsb(4)),
    ] {
        query.opts_mut().deadline = Some(Duration::ZERO);
        let verdict = query
            .run_with(&EngineCache::new())
            .expect("a deadline is a verdict");
        assert_eq!(stop_reason_of(&verdict), StopReason::Deadline);
    }
}
