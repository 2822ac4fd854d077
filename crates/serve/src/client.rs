//! A small blocking client for the serve wire protocol — the consumer
//! used by the CLI's `--connect` paths, the integration tests, and the
//! serve benchmark — plus [`SelfHealingClient`], the retrying wrapper
//! that survives dropped connections and load shedding.
//!
//! Retry discipline: capped exponential backoff with decorrelated
//! jitter (each sleep is drawn from `[base, prev*3]`, capped), a total
//! sleep budget so a dead server fails in bounded time, and the
//! server's optional `retry_after_ms` hint as a floor. The jitter
//! stream is seeded, so a test re-running the same seed sees the same
//! sleep schedule.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gsb_core::govern::fault::splitmix64;
use gsb_engine::{Json, Query, Verdict};

use crate::proto::render_query_attempt;

/// Hard cap on one response line (atlas verdicts are large, but not
/// this large).
const MAX_RESPONSE_LINE: usize = 64 << 20; // 64 MiB

/// Client-side failures, separating transport problems from the
/// server's typed refusals.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's bytes did not parse as a protocol response.
    Protocol(String),
    /// The server shed this request under load.
    Overloaded {
        /// Queries in flight when the request was shed.
        in_flight: u64,
        /// The server's in-flight limit.
        limit: u64,
        /// The server's back-off hint, when it sent one.
        retry_after_ms: Option<u64>,
    },
    /// A retry loop gave up: every attempt failed (or the sleep budget
    /// ran out) and `last` is the final failure.
    RetryExhausted {
        /// Attempts made before giving up.
        attempts: u64,
        /// The error from the final attempt.
        last: Box<ClientError>,
    },
    /// The admission policy refused the question outright.
    Rejected {
        /// The server's human-readable reason.
        reason: String,
    },
    /// The server answered with an `error` response (malformed request
    /// or engine failure).
    Server {
        /// The server's error details.
        details: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve transport error: {e}"),
            ClientError::Protocol(details) => write!(f, "malformed server response: {details}"),
            ClientError::Overloaded {
                in_flight,
                limit,
                retry_after_ms,
            } => {
                write!(f, "server overloaded ({in_flight}/{limit} in flight)")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, ", retry after {ms}ms")?;
                }
                Ok(())
            }
            ClientError::RetryExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            ClientError::Server { details } => write!(f, "server error: {details}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Who answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The verdict store (an index lookup, no solver work).
    Store,
    /// The engine (a fresh solve, possibly cached for next time).
    Engine,
}

/// A verdict plus where it came from.
#[derive(Debug, Clone)]
pub struct Served {
    /// The parsed, re-checkable verdict.
    pub verdict: Verdict,
    /// Which layer answered.
    pub served_by: ServedBy,
}

/// A blocking JSON-lines client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            buf: Vec::new(),
            next_id: 0,
        })
    }

    /// Retries [`Client::connect`] until `wait` elapses — the readiness
    /// probe used by CI right after spawning `gsb serve`. Sleeps with
    /// bounded backoff and jitter (not a fixed wait), so a fleet of
    /// probes does not hammer the socket in lockstep.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::RetryExhausted`] wrapping the last
    /// connection error (and the attempt count) when the deadline
    /// passes.
    pub fn connect_retry(addr: &str, wait: Duration) -> Result<Client, ClientError> {
        let deadline = Instant::now() + wait;
        // Jitter seeded from the address so two probes to different
        // servers decorrelate, yet each probe is reproducible.
        let mut state = splitmix64(addr.bytes().fold(0u64, |h, b| splitmix64(h ^ u64::from(b))));
        let mut sleep = Duration::from_millis(5);
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => {
                    return Err(ClientError::RetryExhausted {
                        attempts,
                        last: Box::new(e),
                    })
                }
                Err(_) => {
                    state = splitmix64(state);
                    let span = (sleep.as_millis() as u64).saturating_mul(3).max(1);
                    sleep =
                        (Duration::from_millis(5 + state % span)).min(Duration::from_millis(250));
                    std::thread::sleep(
                        sleep.min(deadline.saturating_duration_since(Instant::now())),
                    );
                }
            }
        }
    }

    /// Round-trips a `ping`, returning the server's protocol version.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol failures.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let value = self.round_trip("{\"kind\":\"ping\"}")?;
        match value.get("kind").and_then(Json::as_str) {
            Some("pong") => Ok(value
                .get("protocol")
                .and_then(Json::as_f64)
                .map_or(0, |x| x as u64)),
            _ => Err(unexpected(&value)),
        }
    }

    /// Executes `query` on the server.
    ///
    /// # Errors
    ///
    /// Returns the server's typed refusal (`Overloaded`, `Rejected`,
    /// `Server`) or a transport/protocol failure.
    pub fn query(&mut self, query: &Query) -> Result<Served, ClientError> {
        self.query_attempt(query, 0)
    }

    /// [`Client::query`] with an explicit retry counter stamped on the
    /// wire (the server tallies positive attempts in
    /// `retries_observed`).
    ///
    /// # Errors
    ///
    /// Returns the server's typed refusal (`Overloaded`, `Rejected`,
    /// `Server`) or a transport/protocol failure.
    pub fn query_attempt(&mut self, query: &Query, attempt: u64) -> Result<Served, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let value = self.round_trip(&render_query_attempt(query, Some(id), attempt))?;
        match value.get("kind").and_then(Json::as_str) {
            Some("verdict") => {
                let served_by = match value.get("served_by").and_then(Json::as_str) {
                    Some("store") => ServedBy::Store,
                    Some("engine") => ServedBy::Engine,
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "unknown served_by {other:?}"
                        )))
                    }
                };
                let verdict = value
                    .get("verdict")
                    .ok_or_else(|| ClientError::Protocol("verdict payload missing".into()))?;
                let verdict = Verdict::from_json_value(verdict)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Ok(Served { verdict, served_by })
            }
            _ => Err(unexpected(&value)),
        }
    }

    /// Fetches the server's metrics snapshot as a JSON value.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol failures.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let value = self.round_trip("{\"kind\":\"metrics\"}")?;
        match value.get("kind").and_then(Json::as_str) {
            Some("metrics") => Ok(value),
            _ => Err(unexpected(&value)),
        }
    }

    /// Asks the server to hot-swap its verdict store from disk.
    /// `path` of `None` re-opens the store file the server already
    /// serves. Returns `(entries, generation)` of the fresh store.
    ///
    /// # Errors
    ///
    /// Returns the server's `error` response (e.g. for an in-memory
    /// store with no path) or a transport/protocol failure.
    pub fn reload(&mut self, path: Option<&str>) -> Result<(u64, u64), ClientError> {
        let request = match path {
            Some(p) => Json::Obj(vec![
                ("kind".into(), Json::Str("reload".into())),
                ("path".into(), Json::Str(p.into())),
            ])
            .render_compact(),
            None => "{\"kind\":\"reload\"}".to_string(),
        };
        let value = self.round_trip(&request)?;
        match value.get("kind").and_then(Json::as_str) {
            Some("reloaded") => {
                let num = |name: &str| {
                    value
                        .get(name)
                        .and_then(Json::as_f64)
                        .map_or(0, |x| x as u64)
                };
                Ok((num("entries"), num("generation")))
            }
            _ => Err(unexpected(&value)),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let value = self.round_trip("{\"kind\":\"shutdown\"}")?;
        match value.get("kind").and_then(Json::as_str) {
            Some("shutting-down") => Ok(()),
            _ => Err(unexpected(&value)),
        }
    }

    /// Sends one request line, reads one response line, parses it.
    fn round_trip(&mut self, line: &str) -> Result<Json, ClientError> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let line = self.read_line()?;
        Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Reads up to the next LF, bounded by [`MAX_RESPONSE_LINE`].
    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(at) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=at).collect();
                return String::from_utf8(line[..line.len() - 1].to_vec())
                    .map_err(|e| ClientError::Protocol(e.to_string()));
            }
            if self.buf.len() > MAX_RESPONSE_LINE {
                return Err(ClientError::Protocol(
                    "response line exceeds the 64 MiB cap".into(),
                ));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// The retry discipline of a [`SelfHealingClient`]: capped exponential
/// backoff with decorrelated jitter, bounded by an attempt count and a
/// total sleep budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Give up after this many attempts (including the first).
    pub max_attempts: u64,
    /// The floor of every backoff sleep.
    pub base: Duration,
    /// The ceiling of every backoff sleep.
    pub cap: Duration,
    /// Total sleep budget across all retries; once spent, the next
    /// failure is final.
    pub budget: Duration,
    /// Seed of the jitter stream — same seed, same sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            budget: Duration::from_secs(5),
            seed: 0x5e1f_4ea1,
        }
    }
}

impl RetryPolicy {
    /// The next decorrelated-jitter sleep: drawn from
    /// `[base, prev * 3]`, capped, floored by the server's
    /// `retry_after_ms` hint when one arrived.
    fn next_sleep(&self, state: &mut u64, prev: Duration, hint: Option<u64>) -> Duration {
        *state = splitmix64(*state);
        let span = (prev.as_millis() as u64).saturating_mul(3).max(1);
        let mut sleep = (self.base + Duration::from_millis(*state % span)).min(self.cap);
        if let Some(ms) = hint {
            sleep = sleep.max(Duration::from_millis(ms));
        }
        sleep
    }
}

/// A [`Client`] wrapper that retries transient failures — load
/// shedding and transport errors (with a reconnect) — and fails fast on
/// definitive answers (`Rejected`, `Server`, `Protocol`). Every retry
/// re-sends the query with an incremented `attempt` counter so the
/// server's `retries_observed` metric sees it.
#[derive(Debug)]
pub struct SelfHealingClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<Client>,
    retries: u64,
}

impl SelfHealingClient {
    /// Wraps `addr` with `policy`. Connects lazily on first use, so
    /// construction never fails.
    #[must_use]
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> SelfHealingClient {
        SelfHealingClient {
            addr: addr.into(),
            policy,
            client: None,
            retries: 0,
        }
    }

    /// Total retries this client has performed (excluding first tries).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Executes `query`, retrying `Overloaded` responses and transport
    /// failures (the latter with a fresh connection) under the policy's
    /// attempt and sleep budgets.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::RetryExhausted`] once the budgets are
    /// spent, or the server's definitive refusal (`Rejected`,
    /// `Server`, `Protocol`) immediately.
    pub fn query(&mut self, query: &Query) -> Result<Served, ClientError> {
        let mut state = splitmix64(self.policy.seed);
        let mut prev_sleep = self.policy.base;
        let mut slept = Duration::ZERO;
        let mut attempts = 0u64;
        loop {
            let outcome = self
                .connected()
                .and_then(|c| c.query_attempt(query, attempts));
            attempts += 1;
            let failure = match outcome {
                Ok(served) => return Ok(served),
                // Definitive answers: retrying cannot change them.
                Err(
                    e @ (ClientError::Rejected { .. }
                    | ClientError::Server { .. }
                    | ClientError::Protocol(_)),
                ) => return Err(e),
                Err(e) => e,
            };
            if matches!(
                failure,
                ClientError::Io(_) | ClientError::RetryExhausted { .. }
            ) {
                // The connection is suspect; rebuild it on retry.
                self.client = None;
            }
            let hint = match &failure {
                ClientError::Overloaded { retry_after_ms, .. } => *retry_after_ms,
                _ => None,
            };
            let sleep = self.policy.next_sleep(&mut state, prev_sleep, hint);
            if attempts >= self.policy.max_attempts || slept + sleep > self.policy.budget {
                return Err(ClientError::RetryExhausted {
                    attempts,
                    last: Box::new(failure),
                });
            }
            std::thread::sleep(sleep);
            slept += sleep;
            prev_sleep = sleep;
            self.retries += 1;
        }
    }

    /// The live connection, dialing a fresh one when needed.
    fn connected(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr)?);
        }
        Ok(self.client.as_mut().expect("connection just established"))
    }
}

/// Maps the server's typed refusals onto [`ClientError`] variants.
fn unexpected(value: &Json) -> ClientError {
    match value.get("kind").and_then(Json::as_str) {
        Some("overloaded") => ClientError::Overloaded {
            in_flight: value
                .get("in_flight")
                .and_then(Json::as_f64)
                .map_or(0, |x| x as u64),
            limit: value
                .get("limit")
                .and_then(Json::as_f64)
                .map_or(0, |x| x as u64),
            retry_after_ms: value
                .get("retry_after_ms")
                .and_then(Json::as_f64)
                .map(|x| x as u64),
        },
        Some("rejected") => ClientError::Rejected {
            reason: value
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string(),
        },
        Some("error") => ClientError::Server {
            details: value
                .get("details")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string(),
        },
        other => ClientError::Protocol(format!("unexpected response kind {other:?}")),
    }
}
