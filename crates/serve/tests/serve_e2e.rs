//! End-to-end serve-loop tests: a real server on an ephemeral port,
//! real TCP clients, concurrent mixed traffic, hostile bytes, load
//! shedding, and clean shutdown with the store intact.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use gsb_engine::{EngineCache, Json, Query, Question};
use gsb_serve::{
    AdmissionPolicy, Client, ClientError, Served, ServedBy, Server, ServerConfig, ServerHandle,
    VerdictStore,
};

fn start(policy: AdmissionPolicy, store: VerdictStore) -> (ServerHandle, String, Arc<EngineCache>) {
    let cache = Arc::new(EngineCache::new());
    let config = ServerConfig {
        policy,
        // Enough workers for every concurrent test client even on
        // small CI machines (the pool defaults to the core count).
        workers: 8,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, Arc::new(store), Arc::clone(&cache)).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr, cache)
}

fn zoo_classify_queries(max_n: usize) -> Vec<Query> {
    let mut queries = Vec::new();
    for n in 2..=max_n {
        for entry in gsb_core::zoo::catalog(n).expect("catalog") {
            queries.push(Query::new(entry.spec, Question::Classify));
        }
    }
    queries
}

#[test]
fn prebuilt_store_answers_the_zoo_without_the_solver() {
    // Precompute with a throwaway cache so the server's own cache
    // proves the solver was never consulted at serve time.
    let store = VerdictStore::in_memory();
    store
        .build_atlas(5, &EngineCache::new())
        .expect("atlas precompute");
    let (handle, addr, cache) = start(AdmissionPolicy::default(), store);
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.ping().expect("ping"), 1);

    let queries = zoo_classify_queries(5);
    assert!(!queries.is_empty());
    for query in &queries {
        let Served { verdict, served_by } = client.query(query).expect("query");
        assert_eq!(served_by, ServedBy::Store, "zoo classify must be a lookup");
        assert!(verdict.solvability.is_some());
        verdict.check().expect("store verdicts re-verify");
    }
    // Witness questions ride the same precompute.
    for n in 2..=5 {
        for entry in gsb_core::zoo::catalog(n).unwrap() {
            let query = Query::new(entry.spec, Question::NoCommWitness);
            let served = client.query(&query).expect("witness query");
            assert_eq!(served.served_by, ServedBy::Store);
        }
    }

    let metrics = client.metrics().expect("metrics");
    let served_store = metric(&metrics, &["server", "served_store"]);
    let served_engine = metric(&metrics, &["server", "served_engine"]);
    assert_eq!(served_engine, 0.0, "the solver must never have run");
    assert!(served_store >= 2.0 * queries.len() as f64);
    assert_eq!(
        metric(&metrics, &["cache", "misses"]),
        0.0,
        "the engine cache was never consulted"
    );
    assert_eq!(metric(&metrics, &["store", "misses"]), 0.0);
    let p50 = metrics
        .get("server")
        .and_then(|s| s.get("latency"))
        .and_then(|l| l.get("classify"))
        .and_then(|h| h.get("p50_us"))
        .and_then(Json::as_f64)
        .expect("classify latency histogram is populated");
    assert!(p50 > 0.0);

    client.shutdown().expect("graceful shutdown");
    handle.join();
    drop(cache);
}

#[test]
fn hostile_bytes_get_error_responses_and_the_server_survives() {
    let (handle, addr, _cache) = start(AdmissionPolicy::default(), VerdictStore::in_memory());

    // Raw garbage on a raw socket: every line answers an error line.
    let stream = TcpStream::connect(&addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let write = |line: &str| {
        (&stream).write_all(line.as_bytes()).unwrap();
        (&stream).write_all(b"\n").unwrap();
    };
    let bomb = format!("{}{}", "[".repeat(4000), "]".repeat(4000));
    for hostile in [
        "not json at all",
        "{\"kind\":\"query\"}",
        "{\"kind\":\"no-such-kind\"}",
        &bomb,
        "{\"kind\":\"query\",\"question\":{\"kind\":\"classify\"},\"spec\":{\"n\":1e18}}",
    ] {
        write(hostile);
        let mut line = String::new();
        reader.read_line(&mut line).expect("error response");
        let value = Json::parse(&line).expect("responses stay well-formed");
        assert_eq!(value.get("kind").and_then(Json::as_str), Some("error"));
    }

    // An over-long line is answered then the connection is dropped...
    write(&"x".repeat((2 << 20) + 16));
    let mut line = String::new();
    reader.read_line(&mut line).expect("cap response");
    assert!(line.contains("error"));

    // ...but the server itself is fine: fresh connections still work.
    let mut client = Client::connect(&addr).expect("reconnect");
    client.ping().expect("server survived the hostile bytes");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn latency_counts_from_the_first_byte_of_the_request_line() {
    let (handle, addr, _cache) = start(AdmissionPolicy::default(), VerdictStore::in_memory());
    let spec = gsb_engine::named_task("wsb", 3, None).unwrap();
    let line = gsb_serve::proto::render_query(&Query::new(spec, Question::Classify), None) + "\n";
    let (head, tail) = line.split_at(line.len() / 2);
    let stream = TcpStream::connect(&addr).expect("connect raw");
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    // A ping first, so a worker is already reading this connection when
    // the first half lands. The pause is 60 ms against a 50 ms bar:
    // under parallel test load the read that returns the first half can
    // lag its write by about a millisecond, and the clock starts there.
    (&stream).write_all(b"{\"kind\":\"ping\"}\n").unwrap();
    reader.read_line(&mut reply).expect("pong");
    (&stream).write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    (&stream).write_all(tail.as_bytes()).unwrap();
    reply.clear();
    reader.read_line(&mut reply).expect("verdict");
    assert!(reply.contains("\"verdict\""), "{reply}");
    let mut client = Client::connect(&addr).expect("connect");
    let p50 = metric(
        &client.metrics().expect("metrics"),
        &["server", "latency", "classify", "p50_us"],
    );
    assert!(p50 >= 50_000.0, "classify p50 read {p50} µs");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn accept_queue_wait_is_timed_until_a_worker_picks_the_connection_up() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let store = Arc::new(VerdictStore::in_memory());
    let handle = Server::start(config, store, Arc::new(EngineCache::new())).expect("bind");
    let addr = handle.addr().to_string();
    let ping = |stream: &TcpStream| {
        (&*stream).write_all(b"{\"kind\":\"ping\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("pong");
        assert!(reply.contains("pong"), "{reply}");
    };
    // The only worker serves this connection until it hangs up.
    let busy = TcpStream::connect(&addr).expect("connect busy");
    ping(&busy);
    // A second connection queues behind it. Once the accept loop has
    // taken it (its accept time is read before the counter moves), the
    // worker stays busy for `hold`.
    let waiting = TcpStream::connect(&addr).expect("connect waiting");
    while handle.metrics().connections.load(Ordering::Relaxed) < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let hold = Duration::from_millis(150);
    std::thread::sleep(hold);
    drop(busy);
    ping(&waiting);
    let waits = &handle.metrics().accept_wait;
    assert_eq!(waits.count(), 2, "one wait per connection a worker took");
    let longest = waits.quantile_us(1.0).expect("two waits");
    assert!(
        longest >= hold.as_micros() as u64,
        "the queued connection waited {longest} µs, the worker was busy {hold:?}"
    );
    // The wire metrics and the text summary carry the histogram.
    drop(waiting);
    let mut client = Client::connect(&addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metric(&metrics, &["server", "accept_wait", "count"]), 3.0);
    assert!(metric(&metrics, &["server", "accept_wait", "p99_us"]) >= longest as f64);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn saturated_server_sheds_with_a_typed_overloaded_response() {
    let policy = AdmissionPolicy {
        max_in_flight: 0, // every engine-bound query sheds deterministically
        ..AdmissionPolicy::default()
    };
    let store = VerdictStore::in_memory();
    let precomputed = Query::new(
        gsb_engine::named_task("wsb", 4, None).unwrap(),
        Question::Classify,
    );
    store.insert(
        &precomputed,
        &precomputed.run_with(&EngineCache::new()).unwrap(),
    );
    let (handle, addr, _cache) = start(policy, store);
    let mut client = Client::connect(&addr).expect("connect");

    // Store hits bypass the gate entirely.
    let served = client.query(&precomputed).expect("store hit");
    assert_eq!(served.served_by, ServedBy::Store);

    // Engine-bound queries shed with the typed response.
    let uncached = Query::new(
        gsb_engine::named_task("wsb", 5, None).unwrap(),
        Question::Classify,
    );
    match client.query(&uncached) {
        Err(ClientError::Overloaded { limit, .. }) => assert_eq!(limit, 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let metrics = client.metrics().expect("metrics");
    assert!(metric(&metrics, &["server", "shed"]) >= 1.0);
    assert_eq!(metric(&metrics, &["server", "in_flight"]), 0.0);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn admission_rejects_structurally_oversized_questions() {
    let (handle, addr, _cache) = start(AdmissionPolicy::default(), VerdictStore::in_memory());
    let mut client = Client::connect(&addr).expect("connect");
    let spec = gsb_engine::named_task("wsb", 4, None).unwrap();
    let over = Query::new(spec, Question::SolvableInRounds { rounds: 99 });
    match client.query(&over) {
        Err(ClientError::Rejected { reason }) => assert!(reason.contains("rounds")),
        other => panic!("expected Rejected, got {other:?}"),
    }
    let metrics = client.metrics().expect("metrics");
    assert!(metric(&metrics, &["server", "rejected"]) >= 1.0);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn starved_deadlines_return_indeterminate_not_hung() {
    let policy = AdmissionPolicy {
        deadline_cap: Duration::from_nanos(1),
        ..AdmissionPolicy::default()
    };
    let (handle, addr, _cache) = start(policy, VerdictStore::in_memory());
    let mut client = Client::connect(&addr).expect("connect");
    let spec = gsb_engine::named_task("wsb", 4, None).unwrap();
    let starved = Query::new(spec, Question::SolvableInRounds { rounds: 2 });
    let served = client.query(&starved).expect("an answer, not a hang");
    assert_eq!(served.served_by, ServedBy::Engine);
    assert!(
        served.verdict.is_indeterminate(),
        "a 1 ns deadline cannot complete a round-2 search"
    );
    assert_eq!(
        metric(&client.metrics().unwrap(), &["store", "appended"]),
        0.0,
        "indeterminate verdicts are never stored"
    );
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn concurrent_mixed_traffic_stays_consistent() {
    let store = VerdictStore::in_memory();
    store
        .build_atlas(4, &EngineCache::new())
        .expect("precompute");
    let (handle, addr, _cache) = start(AdmissionPolicy::default(), store);

    let queries = zoo_classify_queries(4);
    let ok_count = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..4 {
            let addr = addr.clone();
            let queries = queries.clone();
            handles.push(s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut ok = 0u64;
                for query in queries.iter().cycle().skip(t).take(20) {
                    let served = client.query(query).expect("query");
                    assert!(served.verdict.solvability.is_some());
                    ok += 1;
                }
                ok
            }));
        }
        // One hostile client in the mix.
        {
            let addr = addr.clone();
            handles.push(s.spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect raw");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for _ in 0..10 {
                    (&stream).write_all(b"definitely not json\n").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.contains("error"));
                }
                0
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    assert_eq!(ok_count, 80);

    let mut client = Client::connect(&addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    let served = metric(&metrics, &["server", "served_store"])
        + metric(&metrics, &["server", "served_engine"]);
    assert_eq!(served, 80.0, "every verdict is accounted exactly once");
    assert_eq!(metric(&metrics, &["server", "errors"]), 10.0);
    assert_eq!(metric(&metrics, &["server", "in_flight"]), 0.0);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn solver_misses_append_to_the_disk_store_and_reload() {
    let dir = std::env::temp_dir().join(format!("gsb-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verdicts.jsonl");
    let _ = std::fs::remove_file(&path);

    let query = Query::new(
        gsb_engine::named_task("wsb", 6, None).unwrap(),
        Question::Classify,
    );
    {
        let store = VerdictStore::open(&path).expect("open store");
        let (handle, addr, _cache) = start(AdmissionPolicy::default(), store);
        let mut client = Client::connect(&addr).expect("connect");
        let first = client.query(&query).expect("first query");
        assert_eq!(first.served_by, ServedBy::Engine, "cold store misses");
        let second = client.query(&query).expect("second query");
        assert_eq!(second.served_by, ServedBy::Store, "the miss was appended");
        assert_eq!(first.verdict.solvability, second.verdict.solvability);
        client.shutdown().expect("shutdown");
        handle.join();
    }
    // The store file survives the shutdown and reloads cleanly.
    let reloaded = VerdictStore::open(&path).expect("reload");
    assert!(reloaded.lookup(&query).is_some(), "the verdict persisted");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn slow_loris_connections_are_reaped_not_leaked() {
    let cache = Arc::new(EngineCache::new());
    let config = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = Server::start(
        config,
        Arc::new(VerdictStore::in_memory()),
        Arc::clone(&cache),
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    // Two silent connections occupy the entire two-worker pool; the
    // idle reaper must evict them or the real client below starves.
    let loris: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(&addr).expect("connect loris"))
        .collect();
    for stream in &loris {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read until reap");
        assert_eq!(n, 0, "the server closes an idle connection");
    }

    let mut client = Client::connect(&addr).expect("connect after reap");
    client.ping().expect("workers were freed");
    let metrics = client.metrics().expect("metrics");
    assert!(metric(&metrics, &["server", "timeouts"]) >= 2.0);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn hot_reload_under_traffic_drops_nothing() {
    let dir = std::env::temp_dir().join(format!("gsb-reload-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verdicts.jsonl");

    let store = VerdictStore::open(&path).expect("open");
    store
        .build_atlas(4, &EngineCache::new())
        .expect("precompute");
    let (handle, addr, _cache) = start(AdmissionPolicy::default(), store);

    let queries = zoo_classify_queries(4);
    let ok_count = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..3 {
            let addr = addr.clone();
            let queries = queries.clone();
            handles.push(s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut ok = 0u64;
                for query in queries.iter().cycle().skip(t).take(30) {
                    let served = client.query(query).expect("query across reload");
                    assert_eq!(served.served_by, ServedBy::Store);
                    ok += 1;
                }
                ok
            }));
        }
        // Reload mid-traffic — twice, to exercise repeated swaps.
        let mut admin = Client::connect(&addr).expect("connect admin");
        for _ in 0..2 {
            let (entries, _generation) = admin.reload(None).expect("hot reload");
            assert!(entries > 0);
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    assert_eq!(ok_count, 90, "no request was dropped by the swaps");

    let mut client = Client::connect(&addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metric(&metrics, &["server", "reloads"]), 2.0);
    assert_eq!(metric(&metrics, &["server", "errors"]), 0.0);
    client.shutdown().expect("shutdown");
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connect_retry_to_a_dead_port_reports_attempts_then_gives_up() {
    // Bind-then-drop yields a port that refuses connections.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let started = std::time::Instant::now();
    match Client::connect_retry(&dead, Duration::from_millis(300)) {
        Err(ClientError::RetryExhausted { attempts, last }) => {
            assert!(attempts >= 2, "bounded backoff keeps trying: {attempts}");
            assert!(matches!(*last, ClientError::Io(_)));
        }
        other => panic!("expected RetryExhausted, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(250) && elapsed < Duration::from_secs(5),
        "the deadline bounds the retry loop: {elapsed:?}"
    );
}

/// Digs a numeric field out of the metrics payload.
fn metric(value: &Json, path: &[&str]) -> f64 {
    let mut cursor = value;
    for key in path {
        cursor = cursor
            .get(key)
            .unwrap_or_else(|| panic!("metrics field {path:?} missing"));
    }
    cursor
        .as_f64()
        .unwrap_or_else(|| panic!("metrics field {path:?} is not a number"))
}
