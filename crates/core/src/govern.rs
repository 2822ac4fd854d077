//! Cooperative cancellation and resource governance.
//!
//! A [`Ticket`] is a cheap, cloneable handle that every long-running
//! loop in the workspace polls: the CDCL search, the retained
//! backtracking oracle, streaming template stamping, orbit-frontier
//! expansion, and atlas sweeps. A ticket carries
//!
//! * **cooperative cancellation** ([`Ticket::cancel`]),
//! * an optional **wall-clock deadline**,
//! * optional **decision / conflict / node budgets**, and
//! * an approximate **memory budget** charged at frontier/arena
//!   growth points.
//!
//! Governed loops call [`Ticket::check`] (or one of the `charge_*`
//! methods) at a bounded stride; the first limit to trip wins and every
//! subsequent poll observes the same [`StopReason`]. Exhaustion is
//! **not** an error in the engine's vocabulary: callers translate
//! [`Stopped`] into an *indeterminate* verdict carrying whatever
//! partial statistics the solve accumulated.
//!
//! The [`fault`] submodule is a deterministic fault-injection harness:
//! tests arm a seeded countdown that fires a cancellation, a budget
//! trip, or a panic at a counted poll site, proving that every governed
//! loop actually stops within one polling interval.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed computation stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StopReason {
    /// The caller cancelled the computation ([`Ticket::cancel`]).
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The decision budget was exhausted.
    DecisionBudget,
    /// The conflict budget was exhausted.
    ConflictBudget,
    /// The node budget (reference backtracker) was exhausted.
    NodeBudget,
    /// The approximate memory budget was exhausted.
    MemoryBudget,
    /// A test-only injected fault tripped the ticket.
    Fault,
}

impl StopReason {
    /// Stable machine-readable label (used by the JSON layer).
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::Deadline => "deadline",
            StopReason::DecisionBudget => "decision-budget",
            StopReason::ConflictBudget => "conflict-budget",
            StopReason::NodeBudget => "node-budget",
            StopReason::MemoryBudget => "memory-budget",
            StopReason::Fault => "fault",
        }
    }

    /// Parse a label produced by [`StopReason::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "cancelled" => StopReason::Cancelled,
            "deadline" => StopReason::Deadline,
            "decision-budget" => StopReason::DecisionBudget,
            "conflict-budget" => StopReason::ConflictBudget,
            "node-budget" => StopReason::NodeBudget,
            "memory-budget" => StopReason::MemoryBudget,
            "fault" => StopReason::Fault,
            _ => return None,
        })
    }

    fn code(self) -> u8 {
        match self {
            StopReason::Cancelled => 1,
            StopReason::Deadline => 2,
            StopReason::DecisionBudget => 3,
            StopReason::ConflictBudget => 4,
            StopReason::NodeBudget => 5,
            StopReason::MemoryBudget => 6,
            StopReason::Fault => 7,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => StopReason::Cancelled,
            2 => StopReason::Deadline,
            3 => StopReason::DecisionBudget,
            4 => StopReason::ConflictBudget,
            5 => StopReason::NodeBudget,
            6 => StopReason::MemoryBudget,
            7 => StopReason::Fault,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The error a governed loop propagates when its ticket trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped {
    /// The first limit that tripped.
    pub reason: StopReason,
}

impl std::fmt::Display for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "computation stopped: {}", self.reason)
    }
}

impl std::error::Error for Stopped {}

/// Resource limits for one governed computation.
///
/// `None` everywhere (the [`Default`]) means unlimited: the ticket only
/// responds to explicit cancellation and injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock deadline, measured from [`Ticket::new`].
    pub deadline: Option<Duration>,
    /// Maximum CDCL decisions of the governed solve.
    pub decisions: Option<u64>,
    /// Maximum CDCL conflicts of the governed solve.
    pub conflicts: Option<u64>,
    /// Maximum reference-backtracker nodes.
    pub nodes: Option<u64>,
    /// Approximate memory budget in bytes, charged at growth points.
    pub memory_bytes: Option<u64>,
}

impl Limits {
    /// No limits at all.
    pub fn none() -> Self {
        Self::default()
    }
}

#[derive(Debug)]
struct TicketShared {
    /// First tripped [`StopReason::code`]; 0 = still running.
    stopped: AtomicU8,
    deadline: Option<Instant>,
    decision_budget: u64,
    conflict_budget: u64,
    node_budget: u64,
    memory_budget: u64,
    decisions: AtomicU64,
    conflicts: AtomicU64,
    nodes: AtomicU64,
    memory: AtomicU64,
}

/// Cheap, cloneable governance handle polled by every long-running
/// loop. See the [module docs](self) for the contract.
#[derive(Debug, Clone)]
pub struct Ticket {
    inner: Arc<TicketShared>,
}

impl Default for Ticket {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Ticket {
    /// A ticket with the given limits; the deadline clock starts now.
    pub fn new(limits: Limits) -> Self {
        Ticket {
            inner: Arc::new(TicketShared {
                stopped: AtomicU8::new(0),
                deadline: limits.deadline.map(|d| Instant::now() + d),
                decision_budget: limits.decisions.unwrap_or(u64::MAX),
                conflict_budget: limits.conflicts.unwrap_or(u64::MAX),
                node_budget: limits.nodes.unwrap_or(u64::MAX),
                memory_budget: limits.memory_bytes.unwrap_or(u64::MAX),
                decisions: AtomicU64::new(0),
                conflicts: AtomicU64::new(0),
                nodes: AtomicU64::new(0),
                memory: AtomicU64::new(0),
            }),
        }
    }

    /// A ticket that never trips on its own (cancel/fault still work).
    pub fn unlimited() -> Self {
        Self::new(Limits::none())
    }

    /// Cancel the computation: trips the ticket with
    /// [`StopReason::Cancelled`] unless it already stopped. Idempotent;
    /// safe from any thread.
    pub fn cancel(&self) {
        self.trip(StopReason::Cancelled);
    }

    /// Trip the ticket with an explicit reason (used by cancellation,
    /// the budget charges, the deadline check, and the fault harness).
    /// The first reason recorded wins.
    pub fn trip(&self, reason: StopReason) {
        let _ = self.inner.stopped.compare_exchange(
            0,
            reason.code(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// The reason this ticket stopped, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        StopReason::from_code(self.inner.stopped.load(Ordering::SeqCst))
    }

    /// Poll the ticket: returns `Err` once any limit has tripped.
    ///
    /// Called at a bounded stride from every governed loop; the cost is
    /// a few atomic loads (plus one `Instant::now` when a deadline is
    /// set), so polling every few hundred iterations is free in
    /// practice.
    pub fn check(&self) -> Result<(), Stopped> {
        fault::poll(self);
        if let Some(reason) = self.stop_reason() {
            return Err(Stopped { reason });
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(StopReason::Deadline);
                return Err(Stopped {
                    reason: StopReason::Deadline,
                });
            }
        }
        Ok(())
    }

    fn charge(
        &self,
        counter: &AtomicU64,
        budget: u64,
        amount: u64,
        reason: StopReason,
    ) -> Result<(), Stopped> {
        let total = counter.fetch_add(amount, Ordering::Relaxed) + amount;
        if total > budget {
            self.trip(reason);
            return Err(Stopped { reason });
        }
        self.check()
    }

    /// Charge `amount` CDCL decisions and poll.
    pub fn charge_decisions(&self, amount: u64) -> Result<(), Stopped> {
        self.charge(
            &self.inner.decisions,
            self.inner.decision_budget,
            amount,
            StopReason::DecisionBudget,
        )
    }

    /// Charge `amount` CDCL conflicts and poll.
    pub fn charge_conflicts(&self, amount: u64) -> Result<(), Stopped> {
        self.charge(
            &self.inner.conflicts,
            self.inner.conflict_budget,
            amount,
            StopReason::ConflictBudget,
        )
    }

    /// Charge `amount` backtracking nodes and poll.
    pub fn charge_nodes(&self, amount: u64) -> Result<(), Stopped> {
        self.charge(
            &self.inner.nodes,
            self.inner.node_budget,
            amount,
            StopReason::NodeBudget,
        )
    }

    /// Charge `bytes` of approximate memory growth and poll.
    pub fn charge_memory(&self, bytes: u64) -> Result<(), Stopped> {
        self.charge(
            &self.inner.memory,
            self.inner.memory_budget,
            bytes,
            StopReason::MemoryBudget,
        )
    }

    /// Total nodes charged so far (partial-progress reporting).
    pub fn nodes_charged(&self) -> u64 {
        self.inner.nodes.load(Ordering::Relaxed)
    }
}

pub mod fault {
    //! Deterministic fault injection at counted poll sites.
    //!
    //! Tests arm a plan with [`arm`] (action derived from the seed) or
    //! [`arm_action`] (explicit action): after a seed-derived number of
    //! [`Ticket::check`](super::Ticket::check) polls anywhere in the
    //! process, the plan fires **once**, injecting a cancellation, a
    //! budget trip, or a panic at that exact poll site. The returned
    //! [`FaultGuard`] serializes fault tests process-wide and disarms
    //! on drop.
    //!
    //! A second, independent plan covers the **I/O layer**: [`arm_io`]
    //! arms a seeded, possibly multi-fire schedule of
    //! [`IoFaultAction`]s (torn writes, failed fsyncs, dropped
    //! connections, stalled reads) consumed by [`io_poll`] calls
    //! threaded through the verdict store's append/compact/load paths
    //! and the server's per-connection read/write paths. The whole
    //! schedule — both the gaps between firings and what fires — is a
    //! pure function of the seed ([`io_plan`]), so a failing run is
    //! replayable bit-for-bit.
    //!
    //! When disarmed (the production state) each hook costs one relaxed
    //! atomic load per poll.

    use super::{StopReason, Ticket};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static ARMED: AtomicBool = AtomicBool::new(false);
    /// Polls to survive before the plan fires.
    static COUNTDOWN: AtomicU64 = AtomicU64::new(0);
    static ACTION: AtomicU8 = AtomicU8::new(0);
    /// Serializes fault-injection tests across the whole process; the
    /// injected panic fires on a *different* thread, so this guard is
    /// never poisoned by the fault itself — but recover anyway.
    static GATE: Mutex<()> = Mutex::new(());

    static IO_ARMED: AtomicBool = AtomicBool::new(false);
    /// Applicable-site polls to survive before the next I/O fault.
    static IO_COUNTDOWN: AtomicU64 = AtomicU64::new(0);
    static IO_ACTION: AtomicU8 = AtomicU8::new(0);
    /// Firings left in the armed plan.
    static IO_REMAINING: AtomicU64 = AtomicU64::new(0);
    /// The splitmix chain state deriving the next countdown gap.
    static IO_STATE: AtomicU64 = AtomicU64::new(0);
    /// Total I/O faults fired since the plan was armed.
    static IO_FIRED: AtomicU64 = AtomicU64::new(0);

    /// Gap modulus for the seeded I/O schedule: each firing is at most
    /// this many applicable polls after the previous one.
    const IO_GAP_MOD: u64 = 12;

    /// What an armed fault plan does when its countdown expires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// Cancel the ticket ([`StopReason::Cancelled`]).
        Cancel,
        /// Trip the ticket with [`StopReason::Fault`].
        TripBudget,
        /// Panic at the poll site (exercises `Batch` panic isolation).
        Panic,
    }

    impl FaultAction {
        fn code(self) -> u8 {
            match self {
                FaultAction::Cancel => 1,
                FaultAction::TripBudget => 2,
                FaultAction::Panic => 3,
            }
        }
    }

    /// Where an I/O fault can be injected. Each site names one hook in
    /// the serving stack's I/O layer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum IoSite {
        /// The verdict store's per-entry append path.
        StoreAppend,
        /// The verdict store's generation-compaction write/fsync path.
        StoreCompact,
        /// The verdict store's load path (log and generation files).
        StoreLoad,
        /// A server connection's read path.
        ConnRead,
        /// A server connection's write path.
        ConnWrite,
    }

    /// What an armed I/O fault plan injects when its countdown expires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum IoFaultAction {
        /// Write only a prefix of the payload and stop — the on-disk
        /// image looks like a crash mid-write.
        TornWrite,
        /// Fail the flush/fsync (or, at [`IoSite::StoreLoad`], make the
        /// file unreadable) — durability is silently lost.
        FailFsync,
        /// Close the connection abruptly, mid-request or mid-response.
        DropConnection,
        /// Stop reading from the peer — the connection goes silent
        /// until the server's idle timeout reaps it.
        StallRead,
    }

    impl IoFaultAction {
        fn code(self) -> u8 {
            match self {
                IoFaultAction::TornWrite => 1,
                IoFaultAction::FailFsync => 2,
                IoFaultAction::DropConnection => 3,
                IoFaultAction::StallRead => 4,
            }
        }

        fn from_code(code: u8) -> Option<Self> {
            Some(match code {
                1 => IoFaultAction::TornWrite,
                2 => IoFaultAction::FailFsync,
                3 => IoFaultAction::DropConnection,
                4 => IoFaultAction::StallRead,
                _ => return None,
            })
        }

        /// Whether this action makes sense at `site`; countdowns only
        /// advance at applicable sites, so a connection-fault plan is
        /// untouched by store traffic and vice versa.
        #[must_use]
        pub fn applies_at(self, site: IoSite) -> bool {
            match self {
                IoFaultAction::TornWrite => {
                    matches!(site, IoSite::StoreAppend | IoSite::StoreCompact)
                }
                IoFaultAction::FailFsync => matches!(
                    site,
                    IoSite::StoreAppend | IoSite::StoreCompact | IoSite::StoreLoad
                ),
                IoFaultAction::DropConnection => {
                    matches!(site, IoSite::ConnRead | IoSite::ConnWrite)
                }
                IoFaultAction::StallRead => matches!(site, IoSite::ConnRead),
            }
        }
    }

    /// RAII guard for an armed fault plan: holds the process-wide test
    /// gate and disarms on drop.
    #[derive(Debug)]
    pub struct FaultGuard {
        _gate: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            IO_ARMED.store(false, Ordering::SeqCst);
        }
    }

    /// splitmix64 — the standard seed scrambler; keeps `arm(seed)`
    /// deterministic but decorrelated from consecutive seeds (the serve
    /// client's seeded retry jitter draws from it too).
    #[must_use]
    pub fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Arm a seeded plan; the action cycles through all three
    /// [`FaultAction`]s as a function of the seed.
    pub fn arm(seed: u64) -> FaultGuard {
        let action = match splitmix64(seed ^ 0xfau64) % 3 {
            0 => FaultAction::Cancel,
            1 => FaultAction::TripBudget,
            _ => FaultAction::Panic,
        };
        arm_action(seed, action)
    }

    /// Arm a seeded countdown with an explicit action.
    pub fn arm_action(seed: u64, action: FaultAction) -> FaultGuard {
        let gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
        // Survive a small, seed-determined number of polls so the fault
        // lands mid-loop rather than on the very first check.
        COUNTDOWN.store(splitmix64(seed) % 32, Ordering::SeqCst);
        ACTION.store(action.code(), Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        FaultGuard { _gate: gate }
    }

    /// Arm a seeded I/O fault plan: `action` fires `fires` times, each
    /// firing separated by a seed-derived number of applicable
    /// [`io_poll`] calls (the exact gap sequence is [`io_plan`]). The
    /// returned guard holds the process-wide test gate and disarms on
    /// drop.
    pub fn arm_io(seed: u64, action: IoFaultAction, fires: u64) -> FaultGuard {
        let gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
        let gaps = io_plan(seed, fires.max(1));
        let state = splitmix64(seed ^ 0x10_ca11);
        IO_STATE.store(splitmix64(state), Ordering::SeqCst);
        IO_COUNTDOWN.store(gaps[0], Ordering::SeqCst);
        IO_REMAINING.store(fires.max(1), Ordering::SeqCst);
        IO_ACTION.store(action.code(), Ordering::SeqCst);
        IO_FIRED.store(0, Ordering::SeqCst);
        IO_ARMED.store(true, Ordering::SeqCst);
        FaultGuard { _gate: gate }
    }

    /// The seeded gap schedule [`arm_io`] walks: `gaps[i]` applicable
    /// polls are survived before firing `i`. Pure in the seed, so a
    /// test can assert the same seed reproduces the same schedule
    /// without arming anything.
    #[must_use]
    pub fn io_plan(seed: u64, fires: u64) -> Vec<u64> {
        let mut state = splitmix64(seed ^ 0x10_ca11);
        (0..fires)
            .map(|_| {
                let gap = state % IO_GAP_MOD;
                state = splitmix64(state);
                gap
            })
            .collect()
    }

    /// Total I/O faults fired by the currently (or most recently) armed
    /// plan.
    #[must_use]
    pub fn io_fired() -> u64 {
        IO_FIRED.load(Ordering::SeqCst)
    }

    /// The per-site I/O hook: returns the armed action when this poll
    /// is the one the schedule says should fail, `None` otherwise.
    /// Disarmed cost is one relaxed load. Polls at sites the armed
    /// action does not apply to neither fire nor advance the countdown.
    #[must_use]
    pub fn io_poll(site: IoSite) -> Option<IoFaultAction> {
        if !IO_ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let action = IoFaultAction::from_code(IO_ACTION.load(Ordering::SeqCst))?;
        if !action.applies_at(site) {
            return None;
        }
        if IO_COUNTDOWN
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            .is_ok()
        {
            return None; // still counting down
        }
        // Countdown exhausted: claim one firing (the remaining-counter
        // CAS makes this exactly-once even under racing polls).
        let Ok(prev) =
            IO_REMAINING.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1))
        else {
            IO_ARMED.store(false, Ordering::SeqCst);
            return None;
        };
        if prev <= 1 {
            IO_ARMED.store(false, Ordering::SeqCst);
        } else {
            // Re-seed the countdown for the next firing from the chain.
            let state = IO_STATE.load(Ordering::SeqCst);
            IO_COUNTDOWN.store(state % IO_GAP_MOD, Ordering::SeqCst);
            IO_STATE.store(splitmix64(state), Ordering::SeqCst);
        }
        IO_FIRED.fetch_add(1, Ordering::SeqCst);
        Some(action)
    }

    /// The per-poll hook; called from [`Ticket::check`].
    pub(super) fn poll(ticket: &Ticket) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        if COUNTDOWN
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            .is_ok()
        {
            return; // still counting down
        }
        // Countdown exhausted: fire exactly once, even under races.
        if !ARMED.swap(false, Ordering::SeqCst) {
            return;
        }
        match ACTION.load(Ordering::SeqCst) {
            1 => ticket.cancel(),
            2 => ticket.trip(StopReason::Fault),
            3 => panic!("injected fault: panic at counted poll site"),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_ticket_never_trips() {
        let t = Ticket::unlimited();
        for _ in 0..10_000 {
            t.check().expect("unlimited ticket stays clean");
        }
        assert_eq!(t.stop_reason(), None);
    }

    #[test]
    fn cancellation_is_sticky_and_observable_from_clones() {
        let t = Ticket::unlimited();
        let c = t.clone();
        c.cancel();
        let err = t.check().unwrap_err();
        assert_eq!(err.reason, StopReason::Cancelled);
        assert_eq!(t.stop_reason(), Some(StopReason::Cancelled));
        // Sticky: every later poll sees the same reason.
        assert_eq!(t.check().unwrap_err().reason, StopReason::Cancelled);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let t = Ticket::new(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        });
        assert_eq!(t.check().unwrap_err().reason, StopReason::Deadline);
        // A deadline that passes between polls is seen by the next poll
        // on the polling thread itself: nothing trips the ticket in the
        // meantime, then `check` and every `charge_*` report it.
        let t = Ticket::new(Limits {
            deadline: Some(Duration::from_millis(25)),
            ..Limits::default()
        });
        t.check().expect("the deadline is still ahead");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(t.stop_reason(), None, "no poll has run since it passed");
        assert_eq!(t.check().unwrap_err().reason, StopReason::Deadline);
        assert_eq!(t.stop_reason(), Some(StopReason::Deadline));
        let t = Ticket::new(Limits {
            deadline: Some(Duration::from_millis(25)),
            ..Limits::default()
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(t.stop_reason(), None);
        assert_eq!(t.charge_nodes(1).unwrap_err().reason, StopReason::Deadline);
        assert_eq!(t.stop_reason(), Some(StopReason::Deadline));
    }

    #[test]
    fn budgets_trip_with_the_right_reason() {
        type Charge<'a> = &'a dyn Fn(&Ticket) -> Result<(), Stopped>;
        let cases: [(Charge, StopReason); 4] = [
            (&|t| t.charge_decisions(10), StopReason::DecisionBudget),
            (&|t| t.charge_conflicts(10), StopReason::ConflictBudget),
            (&|t| t.charge_nodes(10), StopReason::NodeBudget),
            (&|t| t.charge_memory(10), StopReason::MemoryBudget),
        ];
        for (charge, reason) in cases {
            let t = Ticket::new(Limits {
                decisions: Some(25),
                conflicts: Some(25),
                nodes: Some(25),
                memory_bytes: Some(25),
                ..Limits::default()
            });
            charge(&t).expect("10 of 25");
            charge(&t).expect("20 of 25");
            assert_eq!(charge(&t).unwrap_err().reason, reason, "{reason}");
            assert_eq!(t.stop_reason(), Some(reason));
        }
    }

    #[test]
    fn first_trip_wins() {
        let t = Ticket::new(Limits {
            nodes: Some(1),
            ..Limits::default()
        });
        assert_eq!(
            t.charge_nodes(2).unwrap_err().reason,
            StopReason::NodeBudget
        );
        t.cancel();
        // The recorded reason stays NodeBudget even after a cancel.
        assert_eq!(t.check().unwrap_err().reason, StopReason::NodeBudget);
    }

    #[test]
    fn stop_reason_labels_round_trip() {
        for reason in [
            StopReason::Cancelled,
            StopReason::Deadline,
            StopReason::DecisionBudget,
            StopReason::ConflictBudget,
            StopReason::NodeBudget,
            StopReason::MemoryBudget,
            StopReason::Fault,
        ] {
            assert_eq!(StopReason::from_label(reason.label()), Some(reason));
        }
        assert_eq!(StopReason::from_label("sideways"), None);
    }

    #[test]
    fn seeded_fault_cancels_at_a_counted_poll() {
        let _guard = fault::arm_action(42, fault::FaultAction::Cancel);
        let t = Ticket::unlimited();
        let mut polls = 0u64;
        let reason = loop {
            polls += 1;
            if let Err(stop) = t.check() {
                break stop.reason;
            }
            assert!(polls < 100, "fault must fire within the countdown window");
        };
        assert_eq!(reason, StopReason::Cancelled);
    }

    #[test]
    fn seeded_fault_trips_budget_deterministically() {
        let fire_poll = |seed: u64| -> u64 {
            let _guard = fault::arm_action(seed, fault::FaultAction::TripBudget);
            let t = Ticket::unlimited();
            let mut polls = 0u64;
            loop {
                polls += 1;
                if let Err(stop) = t.check() {
                    assert_eq!(stop.reason, StopReason::Fault);
                    break polls;
                }
                assert!(polls < 100);
            }
        };
        assert_eq!(fire_poll(7), fire_poll(7), "same seed, same poll index");
    }

    #[test]
    fn ticket_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Ticket>();
        assert_send_sync::<Stopped>();
    }

    #[test]
    fn io_plan_is_a_pure_function_of_the_seed() {
        assert_eq!(fault::io_plan(99, 5), fault::io_plan(99, 5));
        assert_ne!(fault::io_plan(99, 5), fault::io_plan(100, 5));
        assert_eq!(fault::io_plan(99, 5).len(), 5);
    }

    #[test]
    fn io_faults_fire_on_schedule_at_applicable_sites_only() {
        use fault::{IoFaultAction, IoSite};
        let seed = 0xd15c;
        let fires = 3;
        let plan = fault::io_plan(seed, fires);
        let _guard = fault::arm_io(seed, IoFaultAction::TornWrite, fires);
        let mut observed = Vec::new();
        for poll in 0..200u64 {
            // Connection sites never advance a store-fault plan.
            assert_eq!(fault::io_poll(IoSite::ConnRead), None);
            if fault::io_poll(IoSite::StoreAppend) == Some(IoFaultAction::TornWrite) {
                observed.push(poll);
            }
        }
        assert_eq!(observed.len() as u64, fires);
        assert_eq!(fault::io_fired(), fires);
        // The observed poll indices are exactly the cumulative gaps.
        let mut expected = Vec::new();
        let mut at = 0u64;
        for gap in plan {
            at += gap;
            expected.push(at);
            at += 1; // the firing poll itself
        }
        assert_eq!(observed, expected);
        // Exhausted plans disarm: further polls are clean.
        assert_eq!(fault::io_poll(IoSite::StoreAppend), None);
    }

    #[test]
    fn io_fault_applicability_matrix() {
        use fault::{IoFaultAction, IoSite};
        assert!(IoFaultAction::TornWrite.applies_at(IoSite::StoreAppend));
        assert!(IoFaultAction::TornWrite.applies_at(IoSite::StoreCompact));
        assert!(!IoFaultAction::TornWrite.applies_at(IoSite::ConnWrite));
        assert!(IoFaultAction::FailFsync.applies_at(IoSite::StoreLoad));
        assert!(IoFaultAction::DropConnection.applies_at(IoSite::ConnRead));
        assert!(IoFaultAction::DropConnection.applies_at(IoSite::ConnWrite));
        assert!(!IoFaultAction::DropConnection.applies_at(IoSite::StoreAppend));
        assert!(IoFaultAction::StallRead.applies_at(IoSite::ConnRead));
        assert!(!IoFaultAction::StallRead.applies_at(IoSite::ConnWrite));
    }
}
