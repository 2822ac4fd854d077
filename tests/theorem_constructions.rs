//! Integration: the constructions of Theorems 1, 2 and 11's certificate,
//! end-to-end, plus the adaptivity observation of Section 1.

use std::sync::Arc;

use gsb_universe::algorithms::harness::{sweep_adversarial, sweep_random, AlgorithmUnderTest};
use gsb_universe::algorithms::{
    FreeDecisionProtocol, InnerFactory, RenameThenProtocol, RenamingProtocol, UniversalGsbProtocol,
};
use gsb_universe::core::{GsbSpec, Identity, SymmetricGsb, Ticket};
use gsb_universe::memory::{
    build_executor, CrashPlan, GsbOracle, Oracle, OraclePolicy, Pid, ProtocolFactory,
    RoundRobinScheduler,
};
use gsb_universe::topology::election_impossibility_certificate;

#[test]
fn theorem_1_large_identity_spaces_add_no_power() {
    // Solve homonymous renaming with identities from [1..10⁵]: rename to
    // [1..2n−1] first, then apply the small-space witness map.
    let n = 5;
    let spec = SymmetricGsb::homonymous_renaming(n, 3).unwrap().to_spec();
    let inner_spec = spec.clone();
    let build: Arc<InnerFactory> = Arc::new(move |id, _n| {
        Box::new(FreeDecisionProtocol::new(&inner_spec, id).expect("solvable"))
    });
    let factory: Box<ProtocolFactory<'static>> =
        Box::new(move |_pid, id, n| Box::new(RenameThenProtocol::new(id, n, Arc::clone(&build))));
    let algo = AlgorithmUnderTest {
        spec,
        factory: &factory,
        oracles: &Vec::new,
    };
    sweep_random(&algo, 100_000, 40, 101).unwrap();
    sweep_adversarial(&algo, 100_000, 40, 103).unwrap();
}

#[test]
fn theorem_2_composition_with_oracle_based_inner() {
    // Rename, then run the universal construction on the renamed ids —
    // the full Theorem 2 pipeline with an enriched-model inner protocol.
    let n = 4;
    let target = GsbSpec::election(n).unwrap();
    let inner_target = target.clone();
    let build: Arc<InnerFactory> = Arc::new(move |_id, _n| {
        Box::new(UniversalGsbProtocol::new(&inner_target).expect("feasible"))
    });
    let factory: Box<ProtocolFactory<'static>> =
        Box::new(move |_pid, id, n| Box::new(RenameThenProtocol::new(id, n, Arc::clone(&build))));
    let oracles = move || -> Vec<Box<dyn Oracle>> {
        let pr = SymmetricGsb::perfect_renaming(n).unwrap().to_spec();
        vec![Box::new(
            GsbOracle::new(pr, OraclePolicy::Seeded(31)).unwrap(),
        )]
    };
    let algo = AlgorithmUnderTest {
        spec: target,
        factory: &factory,
        oracles: &oracles,
    };
    sweep_random(&algo, 5_000, 40, 107).unwrap();
}

#[test]
fn theorem_11_certificate_through_n5() {
    for (n, r) in [
        (2usize, 1usize),
        (2, 2),
        (2, 3),
        (3, 1),
        (3, 2),
        (4, 1),
        (5, 1),
    ] {
        election_impossibility_certificate(n, r, &Ticket::unlimited())
            .unwrap_or_else(|e| panic!("n={n} r={r}: {e}"));
    }
}

#[test]
fn classic_renaming_is_adaptive_in_participation() {
    // Section 1 contrasts non-adaptive GSB renaming with adaptive
    // renaming. The classic algorithm is in fact adaptive: when only p of
    // n processes participate, names stay within [1..2p−1] — because
    // ranks and conflicts only involve participants.
    let n = 6;
    for p in 1..=n {
        let ids: Vec<Identity> = (0..n as u32)
            .map(|i| Identity::new(10 + 7 * i).unwrap())
            .collect();
        let factory: Box<ProtocolFactory<'static>> =
            Box::new(|_pid, id, _n| Box::new(RenamingProtocol::new(id)));
        let mut exec = build_executor(&factory, &ids, vec![]);
        // Crash all but the first p processes before they start.
        let crashes: Vec<(Pid, usize)> = (p..n).map(|i| (Pid::new(i), 0usize)).collect();
        let plan = CrashPlan::with_crashes(n, &crashes);
        let outcome = exec
            .run(&mut RoundRobinScheduler::new(), &plan, 100_000)
            .unwrap();
        let mut names: Vec<usize> = outcome.decided_values();
        assert_eq!(names.len(), p);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), p, "names must be distinct");
        let max = names.last().copied().unwrap_or(0);
        assert!(
            max < 2 * p,
            "participation-adaptive bound violated: p={p}, max name {max}"
        );
    }
}

#[test]
fn asymmetric_tightening_is_canonical_across_the_committee_zoo() {
    // The beyond-the-paper extension at work: specs with slack bounds
    // tighten to the same canonical form as their exact counterparts.
    let slack = GsbSpec::committees(6, &[(0, 6), (2, 6), (0, 1)]).unwrap();
    let tight = slack.tighten();
    // Value 1 can absorb at most 6−2−0 = 4; value 2 at least 6−?…
    assert!(tight.upper(1) <= 4);
    assert!(slack.is_same_task(&tight));
    // Tightened bounds are attained: every bound appears in some legal
    // output's counting vector.
    let counting = tight.counting_set();
    for v in 1..=tight.m() {
        assert!(counting.iter().any(|c| c.counts()[v - 1] == tight.lower(v)));
        assert!(counting.iter().any(|c| c.counts()[v - 1] == tight.upper(v)));
    }
}
