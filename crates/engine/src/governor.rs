//! The engine's resource governor: one [`Ticket`] per query. A query
//! without limits holds an unlimited ticket: it still observes
//! cancellation and injected faults.
//!
//! Governed loops poll their ticket cooperatively (see
//! [`gsb_core::govern`]). Every poll — [`Ticket::check`], or a
//! `charge_*` that ends in one — compares the clock with the deadline
//! itself, so the polling stride bounds how late a deadline can be
//! noticed; `ci/check_ticket_polls.sh` pins the poll sites.

use gsb_core::govern::Ticket;

use crate::query::EngineOpts;

/// Per-query governance: the ticket threaded through construct/solve
/// loops.
#[derive(Debug)]
pub struct Governor {
    ticket: Ticket,
}

impl Governor {
    /// A governor for the limits in `opts`; the deadline clock starts
    /// now.
    #[must_use]
    pub fn new(opts: &EngineOpts) -> Self {
        Governor {
            ticket: Ticket::new(opts.limits()),
        }
    }

    /// The ticket to thread through governed loops.
    #[must_use]
    pub fn ticket(&self) -> &Ticket {
        &self.ticket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_get_an_unlimited_ticket_without_a_watch() {
        let governor = Governor::new(&EngineOpts::default());
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
}
