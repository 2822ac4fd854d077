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
//! races it against a cancellable CDCL lane on a second thread:
//! whichever engine finishes first stops the other, and a local win is
//! converted into the exact same `CdclResult::Sat` witness shape so
//! downstream evidence replay (facet by facet through
//! `Evidence::check`) is engine-agnostic.
//!
//! Determinism: runs are seeded xorshift walks with a fixed restart
//! schedule; the same instance and warm start always visit the same
//! states. Governance: the inner move loop polls its ticket on a fixed
//! step stride (registered in `ci/check_ticket_polls.sh`), so deadlines,
//! budgets, and fault injection cover this engine exactly like the
//! conflict-driven one.

use crate::cdcl::{
    cancelled, solve_charged, CdclConfig, CdclResult, Instance, SearchStats, XorShift,
};
use gsb_core::govern::{Stopped, Ticket};
use std::sync::atomic::{AtomicBool, Ordering};

/// Tuning knobs of one local-search run: every query runs
/// [`LocalConfig::default`]; only tests set other values.
#[derive(Debug, Clone)]
pub(crate) struct LocalConfig {
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
            // The seed of the pinned walks (23,427 moves on
            // loose_renaming(5) r=2, in CI and `search_frontier`).
            seed: 0x9E27_B3A5_755B_22F8,
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
///
/// A move of class `c` from `cur` to `vi` changes only two counts per
/// facet of `c`, so both scoring and applying a move are one walk of
/// `c`'s `(facet, multiplicity)` memberships in the instance's index
/// that looks up each changed count's window term in `rise`, never
/// re-summing a facet's `m` values.
struct Repair<'a> {
    inst: &'a Instance<'a>,
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
    /// Violation change when one facet's count of value `vi` rises by
    /// `mult` from `count`, at `(mult·m + vi)·(width + 1) + count`
    /// (0 where `count + mult` exceeds `width`). Counts per facet range
    /// over `0..=width`, the index's constraint width.
    rise: Vec<i64>,
}

impl<'a> Repair<'a> {
    fn new(inst: &'a Instance<'a>) -> Repair<'a> {
        let m = inst.values;
        let width = inst.index.width;
        let facets = inst.index.facet_count();
        let window = |vi: usize, count: usize| -> i64 {
            let count = count as i64;
            (count - i64::from(inst.upper[vi])).max(0) + (i64::from(inst.lower[vi]) - count).max(0)
        };
        let mut rise = vec![0i64; (width + 1) * m * (width + 1)];
        for mult in 1..=width {
            for vi in 0..m {
                for count in 0..=width - mult {
                    rise[(mult * m + vi) * (width + 1) + count] =
                        window(vi, count + mult) - window(vi, count);
                }
            }
        }
        Repair {
            inst,
            assign: vec![0; inst.index.classes()],
            counts: vec![0; facets * m],
            violation: vec![0; facets],
            violated: Vec::new(),
            position: vec![u32::MAX; facets],
            rise,
        }
    }

    /// `rise` row length: one slot per count in `0..=width`.
    fn row_len(&self) -> usize {
        self.inst.index.width + 1
    }

    /// The `m` rows of `rise` for one multiplicity.
    fn rise_rows(&self, mult: u32) -> &[i64] {
        let len = self.inst.values * self.row_len();
        &self.rise[mult as usize * len..(mult as usize + 1) * len]
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
    /// cannot), breaking ties by the RNG so restarts differ. One walk
    /// of a class's facets scores every value into `penalty` (`m` slots).
    fn construct(
        &mut self,
        warm: Option<&[u32]>,
        rng: &mut XorShift,
        penalty: &mut [u64],
        cancel: Option<&AtomicBool>,
    ) -> bool {
        let inst = self.inst;
        let index = inst.index;
        let m = inst.values;
        self.counts.iter_mut().for_each(|c| *c = 0);
        for &c in &index.precedence_order {
            if cancelled(cancel) {
                return false;
            }
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
                penalty.iter_mut().for_each(|p| *p = 0);
                for &(f, mult) in index.class_facets(c) {
                    let row = &self.counts[f as usize * m..(f as usize + 1) * m];
                    for ((p, &count), &u) in penalty.iter_mut().zip(row).zip(&inst.upper) {
                        *p += u64::from((count + mult).saturating_sub(u));
                    }
                }
                let mut best = 0usize;
                let mut best_penalty = u64::MAX;
                let rotate = rng.below(m);
                for probe in 0..m {
                    let cand = (probe + rotate) % m;
                    if penalty[cand] < best_penalty {
                        best_penalty = penalty[cand];
                        best = cand;
                    }
                }
                best
            };
            self.assign[c] = vi;
            for &(f, mult) in index.class_facets(c) {
                self.counts[f as usize * m + vi] += mult;
            }
        }
        self.violated.clear();
        self.position.iter_mut().for_each(|p| *p = u32::MAX);
        for f in 0..index.facet_count() {
            self.violation[f] = 0;
            let v = self.facet_violation(f);
            self.set_violation(f, v);
        }
        true
    }

    /// Total-violation delta of moving class `c` to each value, without
    /// applying the move: `deltas[vi]` for every `vi ≠ assign[c]`, and 0
    /// at the current value. One walk of the class's facets reads each
    /// counts row once: the "leave the current value" change is shared
    /// by every candidate, each value's "enter" change goes to its slot.
    fn move_deltas(&self, c: usize, deltas: &mut [i64]) {
        let m = self.inst.values;
        let cur = self.assign[c];
        let w1 = self.row_len();
        deltas.iter_mut().for_each(|d| *d = 0);
        let mut leave = 0i64;
        for &(f, mult) in self.inst.index.class_facets(c) {
            let row = &self.counts[f as usize * m..(f as usize + 1) * m];
            let rise = self.rise_rows(mult);
            leave -= rise[cur * w1 + (row[cur] - mult) as usize];
            for ((d, &count), steps) in deltas.iter_mut().zip(row).zip(rise.chunks_exact(w1)) {
                *d += steps[count as usize];
            }
        }
        for d in deltas.iter_mut() {
            *d += leave;
        }
        deltas[cur] = 0;
    }

    /// Apply the move and refresh the touched facets' cached violations
    /// from the two changed counts' window terms.
    fn apply_move(&mut self, c: usize, vi: usize) {
        let m = self.inst.values;
        let w1 = self.row_len();
        let cur = self.assign[c];
        if cur == vi {
            return;
        }
        self.assign[c] = vi;
        for &(f, mult) in self.inst.index.class_facets(c) {
            let f = f as usize;
            let rise = self.rise_rows(mult);
            let left = self.counts[f * m + cur] - mult;
            let entered = self.counts[f * m + vi];
            let v = i64::from(self.violation[f]) - rise[cur * w1 + left as usize]
                + rise[vi * w1 + entered as usize];
            self.counts[f * m + cur] = left;
            self.counts[f * m + vi] = entered + mult;
            let v = u32::try_from(v).expect("facet violation is non-negative");
            debug_assert_eq!(v, self.facet_violation(f));
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
    let index = inst.index;
    if index.classes() == 0 || m == 0 {
        out.assignment = (m > 0 || index.facet_count() == 0).then(Vec::new);
        return out;
    }
    let mut repair = Repair::new(inst);
    let mut rng = XorShift(cfg.seed | 1);
    // Per-value scratch: construction penalties and move deltas.
    let mut penalty = vec![0u64; m];
    let mut deltas = vec![0i64; m];
    let mut poll_countdown = POLL_STRIDE;
    'restarts: for restart in 0..cfg.restarts.max(1) {
        out.restarts += 1;
        let built = repair.construct(
            (restart == 0).then_some(warm).flatten(),
            &mut rng,
            &mut penalty,
            cancel,
        );
        if !built {
            break 'restarts;
        }
        // ticket.check poll site (local-search restart construction)
        if let Err(stop) = ticket.charge_decisions(index.classes() as u64) {
            out.stopped = Some(stop);
            break 'restarts;
        }
        for _ in 0..cfg.steps_per_restart {
            if repair.violated.is_empty() {
                let assignment: Vec<usize> = repair.assign.iter().map(|&vi| vi + 1).collect();
                out.assignment = Some(assignment);
                break 'restarts;
            }
            // The race's cancel flag is one relaxed load: read it on
            // every step, so a lost race stops now.
            if cancelled(cancel) {
                break 'restarts;
            }
            poll_countdown -= 1;
            if poll_countdown == 0 {
                poll_countdown = POLL_STRIDE;
                // ticket.check poll site (local-search move stride)
                if let Err(stop) = ticket.charge_decisions(POLL_STRIDE) {
                    out.stopped = Some(stop);
                    break 'restarts;
                }
            }
            out.steps += 1;
            let f = repair.violated[rng.below(repair.violated.len())] as usize;
            // Move only a class that contributes to the facet's
            // violation: one whose current value overflows its window
            // here. Reassigning any other class cannot shrink the
            // overflow, and on all-different-style facets (every upper
            // window 1) most classes are innocent — uniform picks would
            // waste the bulk of the repair budget. A pure-deficit
            // violation has no overflowing class; any class can then
            // donate its multiplicity, so fall back to a uniform pick.
            // One-pass reservoir sampling keeps the choice uniform over
            // offenders and deterministic under the seeded RNG. Both
            // picks range over the facet's distinct classes, not its
            // `width` members.
            let c = {
                let mut offenders = 0usize;
                let mut distinct = 0usize;
                let mut chosen = 0u32;
                for (c, _) in index.runs(f) {
                    distinct += 1;
                    let vi = repair.assign[c as usize];
                    if repair.counts[f * m + vi] > inst.upper[vi] {
                        offenders += 1;
                        if rng.below(offenders) == 0 {
                            chosen = c;
                        }
                    }
                }
                if offenders == 0 {
                    let pick = rng.below(distinct);
                    chosen = index.runs(f).nth(pick).expect("pick is a run").0;
                }
                chosen as usize
            };
            let vi = if rng.below(100) < cfg.walk_pct as usize {
                rng.below(m)
            } else {
                let rotate = rng.below(m);
                repair.move_deltas(c, &mut deltas);
                let mut best = repair.assign[c];
                let mut best_delta = i64::MAX;
                for probe in 0..m {
                    let cand = (probe + rotate) % m;
                    if cand != repair.assign[c] && deltas[cand] < best_delta {
                        best_delta = deltas[cand];
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
///
/// The returned counters are the winning lane's alone: the loser's
/// partial counters depend on when its strided poll saw the cancel
/// flag, so they are zeroed and a decided race reports the same
/// [`SearchStats`] on every run. Only a race that neither lane decided
/// (a tripped ticket, or local exhaustion with CDCL interrupted)
/// reports both lanes' partial counters.
pub(crate) fn solve_race(
    inst: &Instance,
    cdcl_cfg: &CdclConfig,
    local_cfg: &LocalConfig,
    ticket: &Ticket,
) -> (CdclResult, SearchStats) {
    let warm: Option<Vec<u32>> = cdcl_cfg
        .warm_start
        .as_deref()
        .filter(|w| w.len() == inst.index.classes())
        .cloned();
    let cancel = AtomicBool::new(false);
    let local_out: std::sync::Mutex<Option<LocalOutcome>> = std::sync::Mutex::new(None);
    let (cdcl_result, cdcl_stats) = std::thread::scope(|scope| {
        let local_lane = scope.spawn(|| {
            let out = solve_local(inst, local_cfg, warm.as_deref(), Some(&cancel), ticket);
            if out.assignment.is_some() {
                cancel.store(true, Ordering::Relaxed);
            }
            *local_out.lock().expect("local lane mutex") = Some(out);
        });
        let cdcl = solve_charged(inst, cdcl_cfg, Some(&cancel), ticket);
        cancel.store(true, Ordering::Relaxed);
        local_lane.join().expect("local-search lane must not panic");
        cdcl
    });
    let local = local_out
        .into_inner()
        .expect("local lane mutex")
        .expect("local lane stores its outcome");
    match (&cdcl_result, local.assignment) {
        // CDCL finished with a verdict: it wins outright (an UNSAT
        // verdict is authoritative; a SAT one arrived first).
        (CdclResult::Sat(_) | CdclResult::Unsat, _) => (cdcl_result, cdcl_stats),
        // CDCL was cancelled or interrupted and the local lane holds a
        // witness: the completion engine won the race.
        (CdclResult::Interrupted, Some(assignment)) => {
            let stats = SearchStats {
                local_steps: local.steps,
                local_restarts: local.restarts,
                local_won: true,
                workers: 1,
                ..SearchStats::default()
            };
            (CdclResult::Sat(assignment), stats)
        }
        // Both lanes came up empty (ticket trip or exhaustion).
        (CdclResult::Interrupted, None) => {
            let stats = SearchStats {
                local_steps: local.steps,
                local_restarts: local.restarts,
                ..cdcl_stats
            };
            (CdclResult::Interrupted, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdcl::tests::index_of;
    use crate::solvability::ConstraintIndex;

    /// Three classes, one facet per class pair: a proper
    /// 2-coloring-style constraint over a triangle.
    fn triangle() -> ConstraintIndex {
        index_of(3, 2, &[&[0, 1], &[0, 2], &[1, 2]])
    }

    /// Every value window `[0, 1]` over two values.
    fn pair_instance(index: &ConstraintIndex) -> Instance<'_> {
        Instance {
            values: 2,
            lower: vec![0, 0],
            upper: vec![1, 1],
            value_symmetric: true,
            index,
            class_perms: &[],
        }
    }

    /// A seeded random instance that exercises every window term: lower
    /// windows up to 2, facets of one random width whose repeated
    /// classes give multiplicities above 1, and 1 to 15 values. Widths
    /// vary between instances, not within one: an index holds facets of
    /// a single width.
    fn random_instance(rng: &mut XorShift) -> (ConstraintIndex, Vec<u32>, Vec<u32>) {
        let classes = 1 + rng.below(10);
        let values = 1 + rng.below(15);
        let lower: Vec<u32> = (0..values).map(|_| rng.below(3) as u32).collect();
        let upper: Vec<u32> = lower.iter().map(|&l| l + rng.below(3) as u32).collect();
        let width = 1 + rng.below(6);
        let facets: Vec<u32> = (0..1 + rng.below(12))
            .flat_map(|_| {
                let mut members: Vec<u32> = (0..width).map(|_| rng.below(classes) as u32).collect();
                members.sort_unstable();
                members
            })
            .collect();
        (ConstraintIndex::new(facets, width, classes), lower, upper)
    }

    /// Per-facet window violations of `assign`, recounted from scratch.
    fn brute_violations(inst: &Instance, assign: &[usize]) -> Vec<u32> {
        (0..inst.index.facet_count())
            .map(|f| {
                let mut counts = vec![0u32; inst.values];
                for (c, mult) in inst.index.runs(f) {
                    counts[assign[c as usize]] += mult;
                }
                (0..inst.values)
                    .map(|vi| {
                        counts[vi].saturating_sub(inst.upper[vi])
                            + inst.lower[vi].saturating_sub(counts[vi])
                    })
                    .sum()
            })
            .collect()
    }

    fn brute_total(inst: &Instance, assign: &[usize]) -> i64 {
        brute_violations(inst, assign)
            .iter()
            .map(|&v| i64::from(v))
            .sum()
    }

    /// The cached counts, violations, worklist and positions equal a
    /// full recompute from the assignment.
    fn assert_state_recomputes(repair: &Repair) {
        let inst = repair.inst;
        let m = inst.values;
        let facets = inst.index.facet_count();
        let mut counts = vec![0u32; facets * m];
        for f in 0..facets {
            for (c, mult) in inst.index.runs(f) {
                counts[f * m + repair.assign[c as usize]] += mult;
            }
        }
        assert_eq!(repair.counts, counts);
        let violation = brute_violations(inst, &repair.assign);
        assert_eq!(repair.violation, violation);
        let mut violated = repair.violated.clone();
        violated.sort_unstable();
        let expected: Vec<u32> = (0..facets as u32)
            .filter(|&f| violation[f as usize] > 0)
            .collect();
        assert_eq!(violated, expected);
        for (f, &pos) in repair.position.iter().enumerate() {
            if violation[f] > 0 {
                assert_eq!(repair.violated[pos as usize], f as u32);
            } else {
                assert_eq!(pos, u32::MAX);
            }
        }
    }

    /// The incremental repair state against brute force, on seeded
    /// random instances: after every move, `move_deltas` equals the
    /// recounted change in total violation for every (class, value),
    /// and the cached state equals a full recompute. The checks are
    /// plain asserts, so they hold in release builds too.
    #[test]
    fn repair_state_matches_brute_force() {
        for seed in 1..=300u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let (index, lower, upper) = random_instance(&mut rng);
            let inst = Instance {
                values: lower.len(),
                lower,
                upper,
                value_symmetric: false,
                index: &index,
                class_perms: &[],
            };
            let m = inst.values;
            let mut repair = Repair::new(&inst);
            let mut penalty = vec![0u64; m];
            let mut deltas = vec![0i64; m];
            assert!(repair.construct(None, &mut rng, &mut penalty, None));
            assert_state_recomputes(&repair);
            for _ in 0..24 {
                let total = brute_total(&inst, &repair.assign);
                for c in 0..index.classes() {
                    repair.move_deltas(c, &mut deltas);
                    for (vi, &delta) in deltas.iter().enumerate() {
                        let mut moved = repair.assign.clone();
                        moved[c] = vi;
                        assert_eq!(
                            delta,
                            brute_total(&inst, &moved) - total,
                            "seed {seed}: class {c} to value {vi}"
                        );
                    }
                }
                repair.apply_move(rng.below(index.classes()), rng.below(m));
                assert_state_recomputes(&repair);
            }
        }
    }

    #[test]
    fn local_finds_witness_on_satisfiable_instance() {
        // Drop one pair facet: the remaining path of pairs is
        // 2-colorable, so a witness exists.
        let path = index_of(3, 2, &[&[0, 1], &[0, 2]]);
        let inst = pair_instance(&path);
        let out = solve_local(
            &inst,
            &LocalConfig::default(),
            None,
            None,
            &Ticket::unlimited(),
        );
        let assignment = out.assignment.expect("pair instance is satisfiable");
        assert_eq!(assignment.len(), 3);
        for f in 0..path.facet_count() {
            let mut counts = [0u32; 2];
            for (c, mult) in path.runs(f) {
                counts[assignment[c as usize] - 1] += mult;
            }
            for ((&c, &l), &u) in counts.iter().zip(&inst.lower).zip(&inst.upper) {
                assert!(c >= l && c <= u);
            }
        }
    }

    #[test]
    fn local_is_deterministic() {
        let index = triangle();
        let inst = pair_instance(&index);
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
        // The pair windows force distinct values on every pair — with
        // only two values over three mutually paired classes the
        // instance is UNSAT, so exhaustion must come back witness-free.
        // Use a satisfiable two-class variant instead to observe seeds.
        let edge = index_of(2, 2, &[&[0, 1]]);
        let inst2 = pair_instance(&edge);
        let cfg = LocalConfig::default();
        let out = solve_local(&inst2, &cfg, Some(&[2, 1]), None, &Ticket::unlimited());
        assert_eq!(out.assignment, Some(vec![2, 1]));
        assert_eq!(out.steps, 0, "warm seed satisfies outright");
    }

    #[test]
    fn exhaustion_returns_no_witness() {
        // Three mutually paired classes, two values, windows [0,1]:
        // some pair must repeat a value, so no witness exists.
        let index = triangle();
        let inst = pair_instance(&index);
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
        let index = triangle();
        let inst = pair_instance(&index);
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
        let index = triangle();
        let inst = pair_instance(&index);
        let cancel = AtomicBool::new(true);
        let cfg = LocalConfig {
            restarts: 1,
            steps_per_restart: 100_000_000,
            ..LocalConfig::default()
        };
        let out = solve_local(&inst, &cfg, None, Some(&cancel), &Ticket::unlimited());
        assert!(out.assignment.is_none() && out.stopped.is_none());
        assert_eq!(
            out.steps, 0,
            "a pre-set cancel flag stops the first construction"
        );
    }

    #[test]
    fn cancel_flag_stops_cdcl_before_its_first_decision() {
        // Three pairwise-distinct classes over three values: SAT, but
        // not at the root, so an unflagged solve decides.
        let index = triangle();
        let inst = Instance {
            values: 3,
            lower: vec![0; 3],
            upper: vec![1; 3],
            ..pair_instance(&index)
        };
        let ticket = Ticket::unlimited();
        let (free, free_stats) = solve_charged(&inst, &CdclConfig::default(), None, &ticket);
        assert!(matches!(free, CdclResult::Sat(_)) && free_stats.decisions > 0);
        let cancel = AtomicBool::new(true);
        let (result, stats) = solve_charged(&inst, &CdclConfig::default(), Some(&cancel), &ticket);
        assert!(matches!(result, CdclResult::Interrupted));
        assert_eq!((stats.decisions, stats.conflicts), (0, 0));
    }
}
