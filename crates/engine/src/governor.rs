//! The engine's resource governor: one [`Ticket`] per query, plus a
//! shared watchdog thread that backstops wall-clock deadlines. A query
//! without limits holds an unlimited ticket: it still observes
//! cancellation and injected faults, and registers nothing with the
//! watchdog.
//!
//! Governed loops poll their ticket cooperatively (see
//! [`gsb_core::govern`]), which bounds how late a deadline can be
//! noticed by the polling stride. For solves whose stride is long —
//! a CDCL burst between conflict checkpoints, a huge orbit expansion —
//! the [`Governor`] also registers the deadline with a watchdog that
//! trips the ticket with [`StopReason::Deadline`] the moment the
//! deadline passes, so the *next* poll anywhere in the stack observes
//! the stop immediately instead of re-deriving the deadline from
//! `Instant::now()` late.
//!
//! The watchdog is one process-wide service thread, parked on a channel
//! until the earliest registered deadline. Registering and
//! deregistering are single channel sends, so a query with a deadline
//! pays nanoseconds for deadline coverage rather than a thread spawn +
//! join per query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

use gsb_core::govern::{StopReason, Ticket};

use crate::query::EngineOpts;

/// Per-query governance: the ticket threaded through construct/solve
/// loops, and the watchdog registration (when a deadline is set).
///
/// Dropping the governor deregisters the deadline from the watchdog.
#[derive(Debug)]
pub struct Governor {
    ticket: Ticket,
    watch_id: Option<u64>,
}

impl Governor {
    /// A governor for the limits in `opts`; the deadline clock starts
    /// now, and only a deadline registers with the watchdog.
    #[must_use]
    pub fn new(opts: &EngineOpts) -> Self {
        let ticket = Ticket::new(opts.limits());
        let watch_id = opts
            .deadline
            .map(|d| watchdog_watch(ticket.clone(), Instant::now() + d));
        Governor { ticket, watch_id }
    }

    /// The ticket to thread through governed loops.
    #[must_use]
    pub fn ticket(&self) -> &Ticket {
        &self.ticket
    }
}

impl Drop for Governor {
    fn drop(&mut self) {
        if let Some(id) = self.watch_id.take() {
            watchdog_unwatch(id);
        }
    }
}

/// A watchdog registration change.
enum Command {
    /// Trip `ticket` with [`StopReason::Deadline`] once `deadline`
    /// passes (unless unwatched first).
    Watch {
        id: u64,
        ticket: Ticket,
        deadline: Instant,
    },
    /// The governed query finished — forget the registration.
    Unwatch { id: u64 },
}

/// The shared watchdog's command channel; the service thread starts on
/// first use and lives for the rest of the process, parked on the
/// channel whenever nothing is registered.
fn watchdog() -> &'static mpsc::Sender<Command> {
    static SERVICE: OnceLock<mpsc::Sender<Command>> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let (tx, rx) = mpsc::channel::<Command>();
        std::thread::spawn(move || watchdog_loop(&rx));
        tx
    })
}

/// The service body: sleep until the earliest registered deadline or
/// the next command, whichever comes first; trip everything past due.
fn watchdog_loop(rx: &mpsc::Receiver<Command>) {
    let mut watches: Vec<(u64, Instant, Ticket)> = Vec::new();
    loop {
        let now = Instant::now();
        watches.retain(|(_, deadline, ticket)| {
            let due = *deadline <= now;
            if due {
                ticket.trip(StopReason::Deadline);
            }
            !due
        });
        let next = watches.iter().map(|&(_, deadline, _)| deadline).min();
        // A disconnect means the process is tearing the statics down —
        // nothing left to watch over.
        let command = match next {
            Some(deadline) => match rx.recv_timeout(deadline.saturating_duration_since(now)) {
                Ok(command) => command,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(command) => command,
                Err(mpsc::RecvError) => return,
            },
        };
        match command {
            Command::Watch {
                id,
                ticket,
                deadline,
            } => watches.push((id, deadline, ticket)),
            Command::Unwatch { id } => watches.retain(|&(watch_id, ..)| watch_id != id),
        }
    }
}

/// Registers a deadline; returns the id to deregister with.
fn watchdog_watch(ticket: Ticket, deadline: Instant) -> u64 {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    // A send failure means the service thread is gone (process
    // teardown); the cooperative polls still enforce the deadline.
    let _ = watchdog().send(Command::Watch {
        id,
        ticket,
        deadline,
    });
    id
}

/// Deregisters a deadline (the query finished before it passed).
fn watchdog_unwatch(id: u64) {
    let _ = watchdog().send(Command::Unwatch { id });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_opts_get_an_unlimited_ticket_without_a_watch() {
        let governor = Governor::new(&EngineOpts::default());
        assert_eq!(
            governor.watch_id, None,
            "no deadline, no watchdog registration"
        );
        let ticket = governor.ticket();
        assert!(ticket.charge_conflicts(u64::MAX / 2).is_ok());
        assert!(ticket.charge_nodes(u64::MAX / 2).is_ok());
        assert!(ticket.charge_memory(u64::MAX / 2).is_ok());
        assert_eq!(ticket.stop_reason(), None);
    }

    #[test]
    fn governed_opts_get_a_ticket_with_their_limits() {
        let opts = EngineOpts {
            conflict_budget: Some(10),
            ..EngineOpts::default()
        };
        let governor = Governor::new(&opts);
        assert!(governor.ticket().check().is_ok());
        assert!(governor.ticket().charge_conflicts(11).is_err());
    }

    #[test]
    fn watchdog_trips_a_rarely_polling_solve() {
        let opts = EngineOpts {
            deadline: Some(Duration::from_millis(10)),
            ..EngineOpts::default()
        };
        let governor = Governor::new(&opts);
        let ticket = governor.ticket().clone();
        // Simulate a loop that never reaches a poll site: the watchdog
        // must trip the ticket on its own.
        let deadline = Instant::now() + Duration::from_secs(10);
        while ticket.stop_reason().is_none() {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ticket.stop_reason(), Some(StopReason::Deadline));
    }

    #[test]
    fn dropping_the_governor_stands_the_watchdog_down() {
        let opts = EngineOpts {
            deadline: Some(Duration::from_secs(3600)),
            ..EngineOpts::default()
        };
        let governor = Governor::new(&opts);
        let ticket = governor.ticket().clone();
        drop(governor); // must not hang for an hour, must not trip
        assert_eq!(ticket.stop_reason(), None);
    }

    #[test]
    fn the_watchdog_serves_overlapping_deadlines_independently() {
        let short = EngineOpts {
            deadline: Some(Duration::from_millis(10)),
            ..EngineOpts::default()
        };
        let long = EngineOpts {
            deadline: Some(Duration::from_secs(3600)),
            ..EngineOpts::default()
        };
        let short_governor = Governor::new(&short);
        let long_governor = Governor::new(&long);
        let short_ticket = short_governor.ticket().clone();
        let stop = Instant::now() + Duration::from_secs(10);
        while short_ticket.stop_reason().is_none() {
            assert!(Instant::now() < stop, "short deadline never tripped");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(short_ticket.stop_reason(), Some(StopReason::Deadline));
        // The long watch is untouched by its neighbor tripping.
        assert_eq!(long_governor.ticket().stop_reason(), None);
    }
}
