//! Greedy/min-conflicts local-search completion for suspected-SAT
//! instances, and the CDCL-vs-local completion race.
//!
//! The quotiented decision-map instance is a finite-domain CSP: one
//! value in `1..=m` per symmetry class, every facet's value multiset
//! inside the spec's per-value windows. When a decision map *exists*,
//! completing one is usually far easier than the CDCL engine's
//! refutation-grade search — a greedy weight-order construction
//! followed by min-conflicts repair walks straight into a witness. The
//! engine here can never prove unsolvability, so [`solve_race`]
//! races it against a cancellable CDCL lane (reusing the portfolio's
//! first-finisher-wins plumbing): whichever engine finishes first stops
//! the other, and a local win is converted into the exact same
//! `CdclResult::Sat` witness shape so downstream evidence replay (facet
//! by facet through `Evidence::check`) is engine-agnostic.
//!
//! Determinism: runs are seeded xorshift walks with a fixed restart
//! schedule; the same `(instance, config)` pair always visits the same
//! states. Governance: the inner move loop polls its ticket on a fixed
//! step stride (registered in `ci/check_ticket_polls.sh`), so deadlines,
//! budgets, and fault injection cover this engine exactly like the
//! conflict-driven one.

use crate::cdcl::{solve_charged, CdclConfig, CdclResult, Instance, SearchStats, XorShift};
use gsb_core::govern::{Stopped, Ticket};
use std::sync::atomic::{AtomicBool, Ordering};

/// Tuning knobs of one local-search run.
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// Seed of the xorshift RNG driving facet/class/value picks.
    pub seed: u64,
    /// Restart attempts before giving up (local search cannot refute;
    /// exhaustion means "no witness found", never "unsolvable").
    pub restarts: u64,
    /// Min-conflicts repair moves per restart.
    pub steps_per_restart: u64,
    /// Percentage (`0..100`) of repair moves that take a random value
    /// instead of the best-delta value (noise against local minima).
    pub walk_pct: u32,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            seed: 0x51ab_1e5e_ed00_7bad,
            restarts: 64,
            steps_per_restart: 400_000,
            walk_pct: 8,
        }
    }
}

/// What one local-search run produced.
pub(crate) struct LocalOutcome {
    /// A facet-legal assignment (`1..=m` per class), when found.
    pub assignment: Option<Vec<usize>>,
    /// Repair moves taken across all restarts.
    pub steps: u64,
    /// Restarts actually begun.
    pub restarts: u64,
    /// Set when a governance ticket tripped mid-run.
    pub stopped: Option<Stopped>,
}

/// Min-conflicts state over one instance: the current assignment, the
/// per-`(facet, value)` multiplicity-weighted counts, each facet's
/// cached violation, and the violated-facet worklist with its position
/// index for O(1) insert/remove.
struct Repair<'a> {
    inst: &'a Instance,
    /// CSR of facet memberships per class: `(facet, multiplicity)`.
    class_facets_off: Vec<u32>,
    class_facets: Vec<(u32, u32)>,
    /// Current value index (`0..m`) per class.
    assign: Vec<usize>,
    /// Assigned multiplicity per `(facet, value)`, indexed `f·m + vi`.
    counts: Vec<u32>,
    /// Cached window violation per facet.
    violation: Vec<u32>,
    /// Facets with nonzero violation, unordered.
    violated: Vec<u32>,
    /// `position[f]` = index of `f` in `violated`, `u32::MAX` if absent.
    position: Vec<u32>,
}

impl<'a> Repair<'a> {
    fn new(inst: &'a Instance) -> Repair<'a> {
        let m = inst.values;
        let mut off = vec![0u32; inst.classes + 1];
        for facet in &inst.facets {
            for &(c, _) in facet {
                off[c as usize + 1] += 1;
            }
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut cursor = off.clone();
        let mut class_facets = vec![(0u32, 0u32); *off.last().unwrap_or(&0) as usize];
        for (f, facet) in inst.facets.iter().enumerate() {
            for &(c, mult) in facet {
                class_facets[cursor[c as usize] as usize] = (f as u32, mult);
                cursor[c as usize] += 1;
            }
        }
        Repair {
            inst,
            class_facets_off: off,
            class_facets,
            assign: vec![0; inst.classes],
            counts: vec![0; inst.facets.len() * m],
            violation: vec![0; inst.facets.len()],
            violated: Vec::new(),
            position: vec![u32::MAX; inst.facets.len()],
        }
    }

    /// Window violation of one facet from its current counts.
    fn facet_violation(&self, f: usize) -> u32 {
        let m = self.inst.values;
        let counts = &self.counts[f * m..(f + 1) * m];
        let mut v = 0u32;
        for ((&c, &u), &l) in counts.iter().zip(&self.inst.upper).zip(&self.inst.lower) {
            v += c.saturating_sub(u) + l.saturating_sub(c);
        }
        v
    }

    fn set_violation(&mut self, f: usize, value: u32) {
        let old = self.violation[f];
        self.violation[f] = value;
        if old == 0 && value > 0 {
            self.position[f] = self.violated.len() as u32;
            self.violated.push(f as u32);
        } else if old > 0 && value == 0 {
            let pos = self.position[f] as usize;
            let last = *self.violated.last().expect("violated facet recorded");
            self.violated.swap_remove(pos);
            self.position[f] = u32::MAX;
            if pos < self.violated.len() {
                self.position[last as usize] = pos as u32;
            }
        }
    }

    /// Greedy construction: assign classes in the instance's
    /// weight-descending `precedence_order`, picking for each class the
    /// value with the smallest *over-window* penalty across its facets
    /// (deficits can still be repaired by later classes, overflows
    /// cannot), breaking ties by the RNG so restarts diversify.
    fn construct(&mut self, warm: Option<&[u32]>, rng: &mut XorShift) {
        let m = self.inst.values;
        self.counts.iter_mut().for_each(|c| *c = 0);
        let order: Vec<u32> = if self.inst.precedence_order.len() == self.inst.classes {
            self.inst.precedence_order.clone()
        } else {
            (0..self.inst.classes as u32).collect()
        };
        for &c in &order {
            let c = c as usize;
            // A warm seed pins the class's first-restart value outright;
            // later restarts fall through to the greedy pick.
            let seeded = warm
                .and_then(|w| w.get(c))
                .filter(|&&v| (1..=m as u32).contains(&v))
                .map(|&v| (v - 1) as usize);
            let vi = if let Some(vi) = seeded {
                vi
            } else {
                let mut best = 0usize;
                let mut best_penalty = u64::MAX;
                let rotate = rng.below(m);
                for probe in 0..m {
                    let cand = (probe + rotate) % m;
                    let mut penalty = 0u64;
                    let (s, e) = (
                        self.class_facets_off[c] as usize,
                        self.class_facets_off[c + 1] as usize,
                    );
                    for &(f, mult) in &self.class_facets[s..e] {
                        let count = self.counts[f as usize * m + cand] + mult;
                        penalty += u64::from(count.saturating_sub(self.inst.upper[cand]));
                    }
                    if penalty < best_penalty {
                        best_penalty = penalty;
                        best = cand;
                    }
                }
                best
            };
            self.assign[c] = vi;
            let (s, e) = (
                self.class_facets_off[c] as usize,
                self.class_facets_off[c + 1] as usize,
            );
            for i in s..e {
                let (f, mult) = self.class_facets[i];
                self.counts[f as usize * m + vi] += mult;
            }
        }
        self.violated.clear();
        self.position.iter_mut().for_each(|p| *p = u32::MAX);
        for f in 0..self.inst.facets.len() {
            self.violation[f] = 0;
            let v = self.facet_violation(f);
            self.set_violation(f, v);
        }
    }

    /// Total-violation delta of moving class `c` to value `vi`, without
    /// applying the move.
    fn move_delta(&self, c: usize, vi: usize) -> i64 {
        let m = self.inst.values;
        let cur = self.assign[c];
        if cur == vi {
            return 0;
        }
        let mut delta = 0i64;
        let (s, e) = (
            self.class_facets_off[c] as usize,
            self.class_facets_off[c + 1] as usize,
        );
        for &(f, mult) in &self.class_facets[s..e] {
            let f = f as usize;
            let before = i64::from(self.violation[f]);
            let old_cur = self.counts[f * m + cur];
            let old_new = self.counts[f * m + vi];
            let new_cur = old_cur - mult;
            let new_new = old_new + mult;
            let part = |count: u32, vx: usize| -> i64 {
                i64::from(count.saturating_sub(self.inst.upper[vx]))
                    + i64::from(self.inst.lower[vx].saturating_sub(count))
            };
            let after = before - part(old_cur, cur) - part(old_new, vi)
                + part(new_cur, cur)
                + part(new_new, vi);
            delta += after - before;
        }
        delta
    }

    /// Apply the move and refresh the touched facets' cached violations.
    fn apply_move(&mut self, c: usize, vi: usize) {
        let m = self.inst.values;
        let cur = self.assign[c];
        if cur == vi {
            return;
        }
        self.assign[c] = vi;
        let (s, e) = (
            self.class_facets_off[c] as usize,
            self.class_facets_off[c + 1] as usize,
        );
        for i in s..e {
            let (f, mult) = self.class_facets[i];
            let f = f as usize;
            self.counts[f * m + cur] -= mult;
            self.counts[f * m + vi] += mult;
            let v = self.facet_violation(f);
            self.set_violation(f, v);
        }
    }
}

/// One deterministic local-search run. `warm` seeds the first restart's
/// construction (the lifted r−1 decision map); `cancel` is the race's
/// first-finisher-wins flag; the ticket is polled on a fixed stride.
pub(crate) fn solve_local(
    inst: &Instance,
    cfg: &LocalConfig,
    warm: Option<&[u32]>,
    cancel: Option<&AtomicBool>,
    ticket: &Ticket,
) -> LocalOutcome {
    const POLL_STRIDE: u64 = 4096;
    let m = inst.values;
    let mut out = LocalOutcome {
        assignment: None,
        steps: 0,
        restarts: 0,
        stopped: None,
    };
    if inst.classes == 0 || m == 0 {
        out.assignment = (m > 0 || inst.facets.is_empty()).then(Vec::new);
        return out;
    }
    let mut repair = Repair::new(inst);
    let mut rng = XorShift(cfg.seed | 1);
    let mut poll_countdown = POLL_STRIDE;
    'restarts: for restart in 0..cfg.restarts.max(1) {
        out.restarts += 1;
        repair.construct((restart == 0).then_some(warm).flatten(), &mut rng);
        // ticket.check poll site (local-search restart construction)
        if let Err(stop) = ticket.charge_decisions(inst.classes as u64) {
            out.stopped = Some(stop);
            break 'restarts;
        }
        for _ in 0..cfg.steps_per_restart {
            if repair.violated.is_empty() {
                let assignment: Vec<usize> = repair.assign.iter().map(|&vi| vi + 1).collect();
                out.assignment = Some(assignment);
                break 'restarts;
            }
            poll_countdown -= 1;
            if poll_countdown == 0 {
                poll_countdown = POLL_STRIDE;
                if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    break 'restarts;
                }
                // ticket.check poll site (local-search move stride)
                if let Err(stop) = ticket.charge_decisions(POLL_STRIDE) {
                    out.stopped = Some(stop);
                    break 'restarts;
                }
            }
            out.steps += 1;
            let f = repair.violated[rng.below(repair.violated.len())] as usize;
            let facet = &inst.facets[f];
            // Move only a class that contributes to the facet's
            // violation: one whose current value overflows its window
            // here. Reassigning any other class cannot shrink the
            // overflow, and on all-different-style facets (every upper
            // window 1) most classes are innocent — uniform picks would
            // waste the bulk of the repair budget. A pure-deficit
            // violation has no overflowing class; any class can then
            // donate its multiplicity, so fall back to a uniform pick.
            // One-pass reservoir sampling keeps the choice uniform over
            // offenders and deterministic under the seeded RNG.
            let pick = {
                let mut offenders = 0usize;
                let mut chosen = 0usize;
                for (i, &(c, _)) in facet.iter().enumerate() {
                    let vi = repair.assign[c as usize];
                    if repair.counts[f * m + vi] > inst.upper[vi] {
                        offenders += 1;
                        if rng.below(offenders) == 0 {
                            chosen = i;
                        }
                    }
                }
                if offenders > 0 {
                    chosen
                } else {
                    rng.below(facet.len())
                }
            };
            let (c, _) = facet[pick];
            let c = c as usize;
            let vi = if rng.below(100) < cfg.walk_pct as usize {
                rng.below(m)
            } else {
                let rotate = rng.below(m);
                let mut best = repair.assign[c];
                let mut best_delta = i64::MAX;
                for probe in 0..m {
                    let cand = (probe + rotate) % m;
                    if cand == repair.assign[c] {
                        continue;
                    }
                    let d = repair.move_delta(c, cand);
                    if d < best_delta {
                        best_delta = d;
                        best = cand;
                    }
                }
                best
            };
            repair.apply_move(c, vi);
        }
    }
    if let Some(assignment) = &out.assignment {
        debug_assert!(assignment.iter().all(|&v| (1..=m).contains(&v)));
    }
    out
}

/// Race the cancellable CDCL lane against the local-search completion
/// engine: first finisher flips the shared cancel flag and wins. A
/// local win is packaged as `CdclResult::Sat` (same witness shape, same
/// downstream facet replay); a local exhaustion simply leaves CDCL to
/// finish. Both lanes poll the same governance ticket, so budgets and
/// deadlines cap the race as a whole. The CDCL lane builds its solver
/// while the local lane already searches; when its setup-memory charge
/// trips the ticket, the local lane stops at its next poll.
pub(crate) fn solve_race(
    inst: &Instance,
    cdcl_cfg: &CdclConfig,
    local_cfg: &LocalConfig,
    ticket: &Ticket,
) -> (CdclResult, SearchStats) {
    let warm: Option<Vec<u32>> = cdcl_cfg
        .warm_start
        .as_deref()
        .filter(|w| w.len() == inst.classes)
        .cloned();
    let cancel = AtomicBool::new(false);
    let local_out: std::sync::Mutex<Option<LocalOutcome>> = std::sync::Mutex::new(None);
    let (cdcl_result, mut stats) = std::thread::scope(|scope| {
        let local_lane = scope.spawn(|| {
            let out = solve_local(inst, local_cfg, warm.as_deref(), Some(&cancel), ticket);
            if out.assignment.is_some() {
                cancel.store(true, Ordering::Relaxed);
            }
            *local_out.lock().expect("local lane mutex") = Some(out);
        });
        let cdcl = solve_charged(inst, cdcl_cfg.clone(), Some(&cancel), None, ticket);
        cancel.store(true, Ordering::Relaxed);
        local_lane.join().expect("local-search lane must not panic");
        cdcl
    });
    let local = local_out
        .into_inner()
        .expect("local lane mutex")
        .expect("local lane stores its outcome");
    stats.local_steps = local.steps;
    stats.local_restarts = local.restarts;
    match (&cdcl_result, local.assignment) {
        // CDCL finished with a verdict: it wins outright (an UNSAT
        // verdict is authoritative; a SAT one arrived first).
        (CdclResult::Sat(_) | CdclResult::Unsat, _) => (cdcl_result, stats),
        // CDCL was cancelled or interrupted and the local lane holds a
        // witness: the completion engine won the race.
        (CdclResult::Interrupted, Some(assignment)) => {
            stats.local_won = true;
            (CdclResult::Sat(assignment), stats)
        }
        // Both lanes came up empty (ticket trip or exhaustion).
        (CdclResult::Interrupted, None) => (CdclResult::Interrupted, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 3-class instance: one facet per class pair, every value
    /// window `[0, 1]` over two values — a proper 2-coloring-style
    /// constraint that local search solves instantly.
    fn pair_instance() -> Instance {
        Instance {
            classes: 3,
            values: 2,
            lower: vec![0, 0],
            upper: vec![1, 1],
            facets: vec![
                vec![(0, 1), (1, 1)],
                vec![(0, 1), (2, 1)],
                vec![(1, 1), (2, 1)],
            ],
            class_weight: vec![2, 2, 2],
            value_symmetric: true,
            precedence_order: vec![0, 1, 2],
            class_perms: Vec::new(),
        }
    }

    #[test]
    fn local_finds_witness_on_satisfiable_instance() {
        // Drop one pair facet: the remaining path of pairs is
        // 2-colorable, so a witness exists.
        let mut inst = pair_instance();
        inst.facets.pop();
        let out = solve_local(
            &inst,
            &LocalConfig::default(),
            None,
            None,
            &Ticket::unlimited(),
        );
        let assignment = out.assignment.expect("pair instance is satisfiable");
        assert_eq!(assignment.len(), 3);
        for facet in &inst.facets {
            let mut counts = [0u32; 2];
            for &(c, mult) in facet {
                counts[assignment[c as usize] - 1] += mult;
            }
            for ((&c, &l), &u) in counts.iter().zip(&inst.lower).zip(&inst.upper) {
                assert!(c >= l && c <= u);
            }
        }
    }

    #[test]
    fn local_is_deterministic() {
        let inst = pair_instance();
        let cfg = LocalConfig {
            restarts: 3,
            steps_per_restart: 512,
            ..LocalConfig::default()
        };
        let a = solve_local(&inst, &cfg, None, None, &Ticket::unlimited());
        let b = solve_local(&inst, &cfg, None, None, &Ticket::unlimited());
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn warm_seed_pins_first_construction() {
        let inst = pair_instance();
        // The pair windows force distinct values on every pair — with
        // only two values over three mutually paired classes the
        // instance is UNSAT, so exhaustion must come back witness-free.
        // Use a satisfiable two-class variant instead to observe seeds.
        let inst2 = Instance {
            classes: 2,
            values: 2,
            facets: vec![vec![(0, 1), (1, 1)]],
            class_weight: vec![1, 1],
            precedence_order: vec![0, 1],
            ..inst
        };
        let cfg = LocalConfig::default();
        let out = solve_local(&inst2, &cfg, Some(&[2, 1]), None, &Ticket::unlimited());
        assert_eq!(out.assignment, Some(vec![2, 1]));
        assert_eq!(out.steps, 0, "warm seed satisfies outright");
    }

    #[test]
    fn exhaustion_returns_no_witness() {
        // Three mutually paired classes, two values, windows [0,1]:
        // some pair must repeat a value, so no witness exists.
        let inst = pair_instance();
        let cfg = LocalConfig {
            restarts: 3,
            steps_per_restart: 64,
            ..LocalConfig::default()
        };
        let out = solve_local(&inst, &cfg, None, None, &Ticket::unlimited());
        assert!(out.assignment.is_none());
        assert_eq!(out.restarts, 3);
        assert!(out.stopped.is_none());
    }

    #[test]
    fn race_returns_unsat_from_cdcl_lane() {
        let inst = pair_instance();
        let (result, stats) = solve_race(
            &inst,
            &CdclConfig::default(),
            &LocalConfig {
                restarts: 2,
                steps_per_restart: 64,
                ..LocalConfig::default()
            },
            &Ticket::unlimited(),
        );
        assert!(matches!(result, CdclResult::Unsat));
        assert!(!stats.local_won);
    }

    #[test]
    fn cancel_flag_stops_local_search() {
        let inst = pair_instance();
        let cancel = AtomicBool::new(true);
        let cfg = LocalConfig {
            restarts: 1,
            steps_per_restart: 100_000_000,
            ..LocalConfig::default()
        };
        let out = solve_local(&inst, &cfg, None, Some(&cancel), &Ticket::unlimited());
        assert!(out.assignment.is_none());
        assert!(
            out.steps < 100_000_000,
            "pre-set cancel flag cuts the run short"
        );
    }
}
