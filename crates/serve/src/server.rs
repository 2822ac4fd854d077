//! The hand-rolled serve loop: a `TcpListener` accept thread feeding a
//! bounded worker pool over a `sync_channel`, JSON-lines framing per
//! connection, and cooperative shutdown via an atomic flag plus a
//! self-connect to unblock the accepting thread.
//!
//! The verdict store sits behind a `RwLock<Arc<_>>`: the `reload` wire
//! message builds a fresh store from disk and swaps the `Arc` in one
//! write-lock blip, while every in-flight request keeps serving from
//! the clone it grabbed on entry — nothing is dropped mid-answer.
//! Connections carry an idle deadline (slow-loris guard) and a write
//! timeout, both counted in the `timeouts` metric, and the per-site
//! [`fault`] hooks let tests inject dropped connections and stalled
//! reads deterministically.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gsb_core::govern::fault::{self, IoFaultAction, IoSite};
use gsb_engine::{Batch, EngineCache, Json, Query};

use crate::admission::AdmissionPolicy;
use crate::metrics::ServerMetrics;
use crate::proto::{parse_request, response, Request};
use crate::store::VerdictStore;

/// Hard cap on one request line; longer lines answer `error` and drop
/// the connection (an unbounded line is an out-of-memory vector).
pub const MAX_REQUEST_LINE: usize = 1 << 20; // 1 MiB

/// How often a blocked connection read wakes up to poll the shutdown
/// flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7414` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Admission limits applied to every query.
    pub policy: AdmissionPolicy,
    /// Whether solver misses are appended to the verdict store.
    pub append_to_store: bool,
    /// A connection with no complete request line for this long is
    /// reaped (slow-loris guard) and counted in `timeouts`.
    pub idle_timeout: Duration,
    /// Per-connection socket write timeout; a peer that stops reading
    /// its responses is reaped and counted in `timeouts`.
    pub write_timeout: Duration,
    /// Back-off hint attached to `overloaded` responses, in ms.
    pub retry_after_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let parallel = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: parallel.clamp(2, 8),
            policy: AdmissionPolicy::default(),
            append_to_store: true,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            retry_after_ms: Some(25),
        }
    }
}

/// The serve subsystem entry point; see [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// Everything shared between the accept loop and the workers.
struct Shared {
    config: ServerConfig,
    /// The served store. Reads clone the `Arc` (one lock blip per
    /// request); `reload` swaps the whole `Arc` under the write lock.
    store: RwLock<Arc<VerdictStore>>,
    cache: Arc<EngineCache>,
    metrics: Arc<ServerMetrics>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running server: its bound address, shared counters, and the thread
/// handles needed to join it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `config.addr` and starts the accept loop plus worker pool.
    /// Returns once the socket is listening — the handle's address is
    /// immediately connectable.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(
        config: ServerConfig,
        store: Arc<VerdictStore>,
        cache: Arc<EngineCache>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            store: RwLock::new(store),
            cache,
            metrics: Arc::new(ServerMetrics::default()),
            shutdown: AtomicBool::new(false),
            addr,
        });
        // A bounded hand-off: when every worker is busy and the backlog
        // is full, the accept loop sheds right at the door instead of
        // queueing unboundedly. Each connection travels with the moment
        // it was accepted, so its wait in the queue is timed.
        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(workers * 2);
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("gsb-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gsb-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &tx))
                .expect("spawn accept thread")
        };
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the resolved port when `:0` was asked).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's live counters.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The verdict store this server currently consults (a hot reload
    /// may swap it — the returned `Arc` keeps serving the snapshot you
    /// grabbed).
    #[must_use]
    pub fn store(&self) -> Arc<VerdictStore> {
        self.shared.store()
    }

    /// Requests shutdown: new connections stop being accepted, workers
    /// drain and exit. Idempotent; returns immediately — use
    /// [`ServerHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits for the accept loop and every worker to exit. Call
    /// [`ServerHandle::shutdown`] first (or send a `shutdown` request)
    /// or this blocks until one arrives.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Shared {
    /// One clone of the currently served store.
    fn store(&self) -> Arc<VerdictStore> {
        Arc::clone(&self.store.read().unwrap_or_else(|p| p.into_inner()))
    }

    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop: a throwaway local connection
            // makes `accept()` return so it can observe the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<(TcpStream, Instant)>) {
    loop {
        let (stream, accepted) = match listener.accept() {
            Ok((stream, _)) => (stream, Instant::now()),
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // drops tx; idle workers drain and exit
        }
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        match tx.try_send((stream, accepted)) {
            Ok(()) => {}
            Err(TrySendError::Full((stream, _))) => {
                // Shed at the door with the typed overloaded response.
                shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                let limit = shared.config.policy.max_in_flight;
                let in_flight = shared.metrics.in_flight.load(Ordering::Relaxed);
                let _ = write_line(
                    &stream,
                    &response::overloaded(in_flight, limit, shared.config.retry_after_ms),
                );
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<(TcpStream, Instant)>>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let stream = {
            let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
            rx.recv_timeout(READ_POLL)
        };
        match stream {
            Ok((stream, accepted)) => {
                shared.metrics.accept_wait.record(accepted.elapsed());
                handle_connection(shared, &stream);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection: bounded JSON-lines framing, one response line
/// per request line, polling the shutdown flag between reads. A
/// connection that produces no complete line within the idle timeout is
/// reaped (counted in `timeouts`); injected `DropConnection` faults
/// close it, `StallRead` faults stop reading until the reaper fires.
///
/// A query's latency is timed from the return of the read that
/// delivered its line's first byte, so a line that trickles in, or
/// waits behind an earlier line of the same read, counts that time.
fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut last_line = Instant::now();
    // When the read holding the first byte of `buf` returned, and when
    // the latest read returned.
    let mut line_arrived = Instant::now();
    let mut last_read = Instant::now();
    let mut stalled = false;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line already buffered.
        while let Some(at) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=at).collect();
            let arrived = line_arrived;
            // Every complete line is served right after the read that
            // ends it, so the next line starts in the latest read.
            line_arrived = last_read;
            let line = String::from_utf8_lossy(&line[..line.len() - 1]);
            let line = line.trim();
            last_line = Instant::now();
            if line.is_empty() {
                continue;
            }
            if !serve_line(shared, stream, line, arrived) {
                return;
            }
            // Reset again after serving: a long engine run must not
            // count against the peer's idle budget.
            last_line = Instant::now();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if last_line.elapsed() >= shared.config.idle_timeout {
            // Slow-loris guard: no complete request line in too long.
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if stalled {
            // A stalled read never recovers; wait for the reaper above.
            std::thread::sleep(READ_POLL);
            continue;
        }
        match fault::io_poll(IoSite::ConnRead) {
            Some(IoFaultAction::DropConnection) => return,
            Some(IoFaultAction::StallRead) => {
                stalled = true;
                continue;
            }
            _ => {}
        }
        match (&mut &*stream).read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => {
                last_read = Instant::now();
                if buf.is_empty() {
                    line_arrived = last_read;
                }
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_REQUEST_LINE {
                    let _ = write_line(
                        stream,
                        &response::error("request line exceeds the 1 MiB cap"),
                    );
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: loop around to poll the shutdown flag.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Handles one request line whose first byte arrived at `arrived`.
/// Returns `false` when the connection (or the whole server) should
/// wind down.
fn serve_line(shared: &Shared, stream: &TcpStream, line: &str, arrived: Instant) -> bool {
    match parse_request(line) {
        Ok(Request::Ping) => send_line(shared, stream, &response::pong()).is_ok(),
        Ok(Request::Metrics) => send_line(shared, stream, &metrics_payload(shared)).is_ok(),
        Ok(Request::Shutdown) => {
            let _ = send_line(shared, stream, &response::shutting_down());
            shared.request_shutdown();
            false
        }
        Ok(Request::Reload { path }) => {
            let reply = match reload_store(shared, path.as_deref()) {
                Ok(reply) => reply,
                Err(details) => {
                    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    response::error(&details)
                }
            };
            send_line(shared, stream, &reply).is_ok()
        }
        Ok(Request::Query { id, attempt, query }) => {
            if attempt > 0 {
                shared
                    .metrics
                    .retries_observed
                    .fetch_add(1, Ordering::Relaxed);
            }
            let reply = answer_query(shared, id, *query, arrived);
            send_line(shared, stream, &reply).is_ok()
        }
        Err(details) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            send_line(shared, stream, &response::error(&details)).is_ok()
        }
    }
}

/// Rebuilds the verdict store from disk and atomically swaps it in.
/// In-flight requests keep the `Arc` they already cloned, so nothing is
/// dropped; the next request sees the fresh store.
fn reload_store(shared: &Shared, path: Option<&str>) -> Result<String, String> {
    let current = shared.store();
    let path: PathBuf = match path {
        Some(p) => PathBuf::from(p),
        None => current
            .path()
            .ok_or("the served store is in-memory: reload needs an explicit 'path'")?
            .to_path_buf(),
    };
    let fresh = VerdictStore::open_with(&path, current.compaction_policy())
        .map_err(|e| format!("reload of '{}' failed: {e}", path.display()))?;
    let stats = fresh.stats();
    // The fresh store's compaction counter starts over; fold the
    // outgoing store's count into the server metric so the monotone
    // `compactions` line survives the swap.
    shared
        .metrics
        .compactions
        .fetch_max(current.stats().compactions, Ordering::Relaxed);
    *shared.store.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(fresh);
    shared.metrics.reloads.fetch_add(1, Ordering::Relaxed);
    Ok(response::reloaded(
        stats.entries,
        stats.generation,
        &path.display().to_string(),
    ))
}

/// Answers one admitted-or-not query: store first, then admission,
/// then the in-flight gate, then the engine (panic-isolated through a
/// single-entry [`Batch`]). Latency is recorded from `arrived`, when
/// the request line's first byte was read.
fn answer_query(shared: &Shared, id: Option<u64>, mut query: Query, arrived: Instant) -> String {
    let metrics = &shared.metrics;
    // One clone up front: this request serves (and appends) against
    // the same store snapshot even if a reload swaps mid-answer.
    let store = shared.store();
    // The store is consulted before the in-flight gate: hits are index
    // lookups and must stay serveable at full rate even when the
    // engine is saturated.
    if let Some(rendered) = store.lookup(&query) {
        metrics.served_store.fetch_add(1, Ordering::Relaxed);
        metrics
            .histogram(query.question())
            .record(arrived.elapsed());
        return response::verdict(id, "store", &rendered);
    }
    if let Err(reason) = shared.config.policy.admit(&mut query) {
        metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return response::rejected(&reason);
    }
    let limit = shared.config.policy.max_in_flight;
    let admitted = metrics
        .in_flight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
            (current < limit).then_some(current + 1)
        });
    if admitted.is_err() {
        metrics.shed.fetch_add(1, Ordering::Relaxed);
        return response::overloaded(
            metrics.in_flight.load(Ordering::Relaxed),
            limit,
            shared.config.retry_after_ms,
        );
    }
    let outcome = {
        let mut batch = Batch::new();
        batch.push(query.clone());
        batch
            .run_with(&shared.cache)
            .pop()
            .expect("one query in, one verdict out")
    };
    metrics.in_flight.fetch_sub(1, Ordering::SeqCst);
    match outcome {
        Ok(verdict) => {
            if shared.config.append_to_store {
                store.insert(&query, &verdict);
            }
            metrics.served_engine.fetch_add(1, Ordering::Relaxed);
            metrics
                .histogram(query.question())
                .record(arrived.elapsed());
            response::verdict(id, "engine", &verdict.to_json_value().render_compact())
        }
        Err(e) => {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            response::error(&e.to_string())
        }
    }
}

/// The full metrics response: server counters, engine cache counters,
/// and store counters on one line.
fn metrics_payload(shared: &Shared) -> String {
    let store = shared.store();
    let stats = store.stats();
    // Mirror the store's compaction count (manual + auto) into the
    // server counters as a high-water mark, so one metrics line tells
    // the whole accounting story.
    shared
        .metrics
        .compactions
        .fetch_max(stats.compactions, Ordering::Relaxed);
    Json::Obj(vec![
        ("kind".into(), Json::Str("metrics".into())),
        ("server".into(), shared.metrics.to_json_value()),
        ("cache".into(), shared.cache.stats().to_json_value()),
        ("store".into(), stats.to_json_value()),
    ])
    .render_compact()
}

/// [`write_line`] with the injected-fault hook and timeout accounting:
/// a `DropConnection` fault aborts the write, a socket write timeout
/// (peer stopped reading) is counted in `timeouts`.
fn send_line(shared: &Shared, stream: &TcpStream, line: &str) -> std::io::Result<()> {
    if matches!(
        fault::io_poll(IoSite::ConnWrite),
        Some(IoFaultAction::DropConnection)
    ) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "injected connection drop",
        ));
    }
    match write_line(stream, line) {
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
        other => other,
    }
}

/// Writes one response line (LF-terminated) and flushes it.
fn write_line(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}
