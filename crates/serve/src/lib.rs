//! gsb-serve: the persistent solvability service.
//!
//! A long-running `gsb serve` process answers solvability questions
//! over a JSON-lines TCP protocol, layering three defenses between
//! untrusted clients and the solver:
//!
//! 1. the **[`VerdictStore`]** — a disk-backed, content-addressed map
//!    from canonical `(question, spec)` keys to serialized verdicts,
//!    precomputable offline (`gsb store build --atlas <n>`) and
//!    consulted before any engine work, so queries over the precomputed
//!    universe are index lookups;
//! 2. the **[`AdmissionPolicy`]** — structural caps that reject
//!    oversized questions outright plus budget clamps feeding the
//!    engine's governance layer, so no admitted request can outspend
//!    the server's limits; and
//! 3. the **in-flight gate** — a hard bound on concurrently executing
//!    engine queries, shedding the excess with a typed `overloaded`
//!    response instead of queueing unboundedly.
//!
//! The transport is deliberately boring: a hand-rolled
//! `std::net::TcpListener` accept loop, a bounded worker pool over a
//! `sync_channel`, one compact JSON object per line in each direction
//! (see [`proto`]), and cooperative shutdown via an atomic flag. A
//! blocking [`Client`] wraps the same protocol for the CLI's
//! `--connect` paths, the integration tests, and the `perfbench/` harness.
//!
//! Crash safety and self-healing (PR 10): the store rewrites its
//! append log into sorted, checksummed **generation files**
//! ([`VerdictStore::compact`], auto-triggered by [`CompactionPolicy`])
//! and reloads by preferring the newest *complete* generation, falling
//! back past torn ones; a `reload` wire message hot-swaps a freshly
//! built store without dropping in-flight requests; and
//! [`SelfHealingClient`] retries shed or dropped requests under a
//! seeded, budget-capped [`RetryPolicy`]. The whole failure surface is
//! deterministically testable through `gsb_core::govern::fault`'s
//! seeded I/O fault plans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod store;

pub use admission::AdmissionPolicy;
pub use client::{Client, ClientError, RetryPolicy, SelfHealingClient, Served, ServedBy};
pub use metrics::{Histogram, ServerMetrics};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{CompactReport, CompactionPolicy, StoreStats, VerdictStore};
