//! The serve soak: a disk-backed store served to a fleet of
//! self-healing clients under seeded connection drops, with one
//! mid-serve compaction and one hot reload, and exact accounting
//! asserted against the server's metrics (see DESIGN.md §13).
//!
//! This is the only test in its binary: I/O fault arming
//! (`fault::arm_io`) is process-global, so a second server running
//! concurrently in the same process could consume the drops armed here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gsb_core::govern::fault::{self, IoFaultAction};
use gsb_engine::{EngineCache, Query, Question};
use gsb_serve::{
    Client, RetryPolicy, SelfHealingClient, ServedBy, Server, ServerConfig, VerdictStore,
};

/// Zoo classification queries for `2 ..= max_n` — all precomputed by
/// `build_atlas(max_n)`, so each is a pure store lookup at serve time.
fn warm_queries(max_n: usize) -> Vec<Query> {
    let mut queries = Vec::new();
    for n in 2..=max_n {
        for entry in gsb_core::zoo::catalog(n).expect("catalog") {
            queries.push(Query::new(entry.spec, Question::Classify));
        }
    }
    queries
}

/// Soak mode: a disk-backed store served to a self-healing client
/// fleet while seeded connection drops fire, then one mid-serve
/// compaction and one hot reload — every request must resolve Ok and
/// the metrics line must account for every verdict served.
fn soak(ms: u64) {
    const SEED: u64 = 0x50a4_0010;
    const DROPS: u64 = 2;
    const FLEET: u64 = 4;

    let dir = std::env::temp_dir().join(format!("gsb-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("soak temp dir");
    let path = dir.join("verdicts.jsonl");
    let store = VerdictStore::open(&path).expect("open soak store");
    store
        .build_atlas(5, &EngineCache::new())
        .expect("atlas precompute");
    let entries = store.stats().entries;
    println!("soak: {entries} verdicts on disk, {FLEET} clients, {ms} ms, seed {SEED:#x}");

    let config = ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    };
    let handle =
        Server::start(config, Arc::new(store), Arc::new(EngineCache::new())).expect("bind");
    let addr = handle.addr().to_string();
    let warm = warm_queries(5);

    let guard = fault::arm_io(SEED, IoFaultAction::DropConnection, DROPS);
    let (ok, retries) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..FLEET)
            .map(|t| {
                let addr = addr.clone();
                let warm = warm.clone();
                s.spawn(move || {
                    let policy = RetryPolicy {
                        seed: SEED + t,
                        ..RetryPolicy::default()
                    };
                    let mut client = SelfHealingClient::new(addr, policy);
                    let deadline = Instant::now() + Duration::from_millis(ms);
                    let mut ok = 0u64;
                    for query in warm.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let served = client
                            .query(query)
                            .expect("soak queries must heal, not fail");
                        assert_eq!(served.served_by, ServedBy::Store);
                        ok += 1;
                    }
                    (ok, client.retries())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client panicked"))
            .fold((0u64, 0u64), |(a, b), (ok, r)| (a + ok, b + r))
    });
    let fired = fault::io_fired();
    drop(guard);
    assert!(fired <= DROPS, "at most the armed number of drops fire");

    // One compaction in the middle of a live server, one hot reload.
    let report = handle.store().compact().expect("soak compaction");
    assert_eq!(report.entries, entries, "compaction preserves every entry");
    let mut admin = Client::connect(&addr).expect("connect admin");
    let (reloaded, generation) = admin.reload(None).expect("hot reload");
    assert_eq!(reloaded as usize, entries, "reload serves the full store");
    assert_eq!(generation, report.generation);

    // Exact accounting: every Ok above is a store-served verdict; a
    // drop that lands after answering but before the reply reaches the
    // client re-serves that one request, so the books close to within
    // the fired-drop count — and to zero errors, one reload, one
    // compaction, no engine traffic.
    let metrics = admin.metrics().expect("metrics");
    let get = |path: &[&str]| {
        let mut cursor = &metrics;
        for key in path {
            cursor = cursor
                .get(key)
                .unwrap_or_else(|| panic!("metrics field {path:?} missing"));
        }
        cursor.as_f64().expect("numeric metric") as u64
    };
    let served = get(&["server", "served_store"]);
    assert!(
        served >= ok && served <= ok + fired,
        "accounting: {served} served vs {ok} ok + {fired} drops"
    );
    assert_eq!(get(&["server", "served_engine"]), 0, "warm keys only");
    assert_eq!(get(&["server", "errors"]), 0);
    assert_eq!(get(&["server", "reloads"]), 1);
    assert_eq!(get(&["server", "compactions"]), 1);
    assert!(
        get(&["server", "retries_observed"]) <= retries,
        "the server cannot observe more retries than clients performed"
    );
    println!(
        "soak ok: {ok} requests, {served} served, {fired} drops fired, \
         {retries} client retries, generation {generation}"
    );

    admin.shutdown().expect("shutdown");
    handle.join();
    std::fs::remove_dir_all(&dir).expect("soak cleanup");
}

#[test]
fn soak_heals_every_request_and_closes_the_books() {
    soak(3000);
}
