//! Conflict-driven search for symmetric decision maps.
//!
//! The quotiented solvability instance — "assign each view-signature
//! class a value in `1..m` so every facet's value multiset falls inside
//! the spec's per-value windows" — is solved here as a CDCL
//! (conflict-driven clause-learning) problem instead of the seed's plain
//! backtracking:
//!
//! * **Encoding.** Boolean variable `x_{c,v}` ⟺ "class `c` decides value
//!   `v`". At-least-one and pairwise at-most-one clauses make the
//!   per-class domain exact; facet cardinality windows stay *native*
//!   (counter propagators that explain their implications as clauses on
//!   demand), so no cardinality-to-CNF blow-up is ever materialized.
//!   Value precedence uses Walsh's linear ladder over auxiliary
//!   variables `a(t, w)`, which are never decided.
//! * **Propagation.** Clausal constraints (domain clauses, value
//!   precedence, learned clauses) use the classic two-watched-literal
//!   scheme; facet windows keep per-`(facet, value)` assigned/forbidden
//!   weight counters that fire upper-saturation and lower-deficit
//!   implications with eagerly materialized reason clauses. A facet
//!   whose counter cannot cross its window is skipped in O(1).
//! * **Learning.** First-UIP conflict analysis with VSIDS-style variable
//!   activities (seeded by facet-occurrence `class_weight`, decayed
//!   geometrically), phase saving, Luby restarts, and LBD-guarded
//!   learned-clause reduction.
//! * **Orbit pruning.** Each learned clause that was derived purely from
//!   symmetry-invariant constraints (taint tracking over antecedents)
//!   is replayed through the instance's verified symmetries — the
//!   order-reversal class permutation of the view-signature quotient and,
//!   for fully symmetric specs, adjacent value transpositions — so one
//!   conflict prunes its entire (small) orbit. Value-interchangeable
//!   specs additionally get static value-precedence breaking; clauses
//!   touching those constraints (and so every clause mentioning a ladder
//!   auxiliary) are tainted and never imaged.
//! * **One solver per query.** Every solve runs one seeded solver on
//!   the calling thread, so an instance and its warm start always take
//!   the same trajectory. The completion race
//!   ([`local::solve_race`](crate::local)) is the only place a query
//!   uses a second thread.
//!
//! The seed's backtracking engine is retained in
//! [`solvability`](crate::solvability) as the reference oracle; the
//! equivalence of the two engines is property-tested over a task zoo.

use crate::solvability::ConstraintIndex;
use gsb_core::govern::Ticket;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// The quotiented decision-map instance handed to the CDCL and local
/// engines: one spec's value windows over a borrowed constraint index.
///
/// Built by [`SymmetricSearch`](crate::solvability::SymmetricSearch)
/// from its cached [`ConstraintSystem`](crate::ConstraintSystem), whose
/// index and verified symmetries it borrows — building an instance
/// copies no constraint. All soundness obligations (facet windows,
/// symmetry verification, precedence applicability) are discharged
/// there. `PartialEq` backs the orbit-vs-full identity test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Instance<'a> {
    /// Number of output values (`m`).
    pub values: usize,
    /// Per-value lower window bound, indexed by `v − 1`.
    pub lower: Vec<u32>,
    /// Per-value upper window bound, indexed by `v − 1`.
    pub upper: Vec<u32>,
    /// Whether all values are interchangeable (`spec.is_symmetric()`):
    /// gates value-precedence breaking and value-transposition images.
    pub value_symmetric: bool,
    /// The facet constraints over `k` classes with their per-class
    /// `(facet, multiplicity)` index, occurrence weights (VSIDS
    /// seeding) and weight-descending precedence order.
    pub index: &'a ConstraintIndex,
    /// Verified class permutations (beyond identity) under which the
    /// facet family is invariant — the view-signature symmetries.
    pub class_perms: &'a [Vec<u32>],
}

/// Seed of the solver's xorshift RNG (random decisions).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Luby restart unit, in conflicts.
const RESTART_BASE: u64 = 64;

/// Percentage (`0..100`) of decisions taken on a random variable.
const RANDOM_DECISION_PCT: u64 = 2;

/// Longest learned clause replayed through the symmetry group.
const SYMMETRIC_IMAGE_MAX_LEN: usize = 16;

/// What a caller may hand one CDCL solve beyond the instance.
#[derive(Debug, Clone, Default)]
pub struct CdclConfig {
    /// Per-class warm-start values (`1..=m`, `0` = unseeded), lifted
    /// from the previous round's decision map. Seeds preset saved
    /// phases and boost initial VSIDS activity; they never constrain
    /// the search, so verdicts are unaffected.
    pub warm_start: Option<std::sync::Arc<Vec<u32>>>,
}

/// Counters reported by one solve.
///
/// A completion race ([`SearchMode::Race`](crate::SearchMode::Race))
/// reports its winning lane's counters only: a CDCL win leaves the
/// `local_*` counters at 0, and a local win leaves every CDCL counter
/// (decisions through `warm_seeded`) at 0. The loser's counters depend on
/// when it noticed the cancel flag, so reporting them would make a
/// decided race's counters differ from run to run. A race that neither
/// lane decided reports both lanes' partial counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned from conflicts.
    pub learned: u64,
    /// Learned clauses added as symmetry-orbit images.
    pub symmetric_images: u64,
    /// Learned clauses deleted by DB reduction.
    pub deleted: u64,
    /// Classes whose initial phase came from a lifted warm start.
    pub warm_seeded: u64,
    /// Min-conflicts moves performed by the local-search member
    /// (completion-race and local modes only).
    pub local_steps: u64,
    /// Seeded restarts performed by the local-search member.
    pub local_restarts: u64,
    /// Whether the local-search member produced the winning assignment.
    pub local_won: bool,
    /// Solvers that ran: always 1, since every query runs one engine
    /// (a race reports its winning lane). UNSAT evidence rejects 0.
    pub workers: usize,
}

/// Outcome of a CDCL run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CdclResult {
    /// A satisfying decision map: value (`1..=m`) per class.
    Sat(Vec<usize>),
    /// The instance admits no decision map.
    Unsat,
    /// No verdict: the race's other lane finished first, the ticket
    /// tripped, or local search ran out of restarts.
    Interrupted,
}

/// A literal over the `x_{c,v}` (and ladder) variables, `code = var · 2 + negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Lit(u32);

impl Lit {
    fn new(var: u32, positive: bool) -> Lit {
        Lit(var << 1 | u32::from(!positive))
    }
    fn var(self) -> u32 {
        self.0 >> 1
    }
    fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }
    fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }
    fn code(self) -> usize {
        self.0 as usize
    }
}

const UNDEF: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Branching decision (or root fact).
    None,
    /// Propagated by the clause at this index (implied lit at `lits[0]`).
    Clause(u32),
    /// Propagated by a facet window; the eagerly materialized reason
    /// clause lives at this index of the explanation arena.
    Explained(u32),
}

/// xorshift64* — deterministic, dependency-free randomness (shared
/// with the local-search engine).
#[derive(Debug)]
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw in `0..bound` (`bound > 0`).
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next() % bound as u64) as usize
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    /// Derived purely from symmetry-invariant constraints (see module
    /// docs); only such clauses may be replayed through the group.
    symmetric: bool,
    lbd: u32,
    deleted: bool,
}

/// Indexed binary max-heap over variable activities (MiniSat's order).
#[derive(Debug)]
struct VarOrder {
    heap: Vec<u32>,
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarOrder {
    fn new(nvars: usize) -> VarOrder {
        VarOrder {
            heap: Vec::with_capacity(nvars),
            pos: vec![ABSENT; nvars],
        }
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bump(&mut self, v: u32, act: &[f64]) {
        let p = self.pos[v as usize];
        if p != ABSENT {
            self.sift_up(p as usize, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

struct Solver<'a> {
    inst: &'a Instance<'a>,
    /// Luby restart unit ([`RESTART_BASE`]; tests shorten it).
    restart_base: u64,
    /// Number of `x_{c,v}` variables (`k · m`, numbered `c · m + v − 1`);
    /// the value-precedence ladder's auxiliaries are numbered after them.
    class_vars: usize,
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>,
    value: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    /// For variables assigned at level 0: whether the root fact's
    /// derivation touched a non-symmetric constraint. Conflict analysis
    /// silently drops level-0 literals, so learned clauses must inherit
    /// this taint or orbit images of them would be unsound.
    root_tainted: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    saved_phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    explanations: Vec<Vec<Lit>>,
    expl_lim: Vec<usize>,
    /// Per-`(facet, value)` weight assigned to the value / forbidden it.
    /// Every facet's total weight is the index's `width`.
    true_w: Vec<u32>,
    false_w: Vec<u32>,
    /// Largest class multiplicity of each facet: no implication fires
    /// while a counter stays this far inside its window.
    facet_max_mult: Vec<u32>,
    seen: Vec<bool>,
    rng: XorShift,
    /// Variable permutations of the verified symmetry group (identity
    /// excluded), used to replay symmetric learned clauses.
    var_maps: Vec<Vec<u32>>,
    pending: Vec<(Vec<Lit>, bool)>,
    image_seen: HashSet<Vec<Lit>>,
    learned_live: usize,
    learned_limit: usize,
    /// Set when input installation already refutes the instance (a unit
    /// conflict or a facet whose lower window exceeds its weight).
    root_conflict: bool,
    stats: SearchStats,
}

impl<'a> Solver<'a> {
    fn var_of(&self, class: u32, value_index: usize) -> u32 {
        class * self.inst.values as u32 + value_index as u32
    }

    /// Ladder auxiliary `a(t, w)`: "value `w` occurs at a precedence
    /// position `≤ t`" (`t < k − 1`, `w < m`).
    fn aux_of(&self, position: usize, value_index: usize) -> u32 {
        (self.class_vars + position * (self.inst.values - 1) + value_index) as u32
    }

    /// Whether `var` is a ladder auxiliary rather than an `x_{c,v}`.
    fn is_aux(&self, var: u32) -> bool {
        var as usize >= self.class_vars
    }

    fn new(inst: &'a Instance<'a>, cfg: &CdclConfig) -> Solver<'a> {
        let index = inst.index;
        let m = inst.values;
        let classes = index.classes();
        let class_vars = classes * m;
        let nvars = class_vars + ladder_vars(inst);
        let facet_max_mult: Vec<u32> = (0..index.facet_count())
            .map(|f| index.runs(f).map(|(_, mult)| mult).max().unwrap_or(0))
            .collect();
        let max_weight = index.class_weight.iter().copied().max().unwrap_or(1).max(1);
        let mut activity = vec![0.0f64; nvars];
        for c in 0..classes {
            let base = index.class_weight[c] as f64 / max_weight as f64;
            activity[c * m..(c + 1) * m].fill(base);
        }
        // Warm-start seeds lift the previous round's decision map into
        // initial phases and a VSIDS boost: seeded variables start on
        // top of the order with a positive saved phase, so the first
        // dive replays the lifted solution. Pure heuristic — verdicts
        // are unaffected.
        let mut saved_phase = vec![false; nvars];
        let mut warm_seeded = 0u64;
        if let Some(seed) = cfg.warm_start.as_deref() {
            if seed.len() == classes {
                for (c, &val) in seed.iter().enumerate() {
                    if (1..=m as u32).contains(&val) {
                        warm_seeded += 1;
                        let var = c * m + (val - 1) as usize;
                        saved_phase[var] = true;
                        activity[var] += 2.0;
                    }
                }
            }
        }
        // Ladder auxiliaries are never decided: they stay out of the
        // order (and out of the random-decision scan).
        let mut order = VarOrder::new(nvars);
        for v in 0..class_vars as u32 {
            order.insert(v, &activity);
        }
        let var_maps = build_var_maps(inst, m, nvars);
        let mut solver = Solver {
            inst,
            restart_base: RESTART_BASE,
            class_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); nvars * 2],
            value: vec![UNDEF; nvars],
            level: vec![0; nvars],
            reason: vec![Reason::None; nvars],
            root_tainted: vec![false; nvars],
            activity,
            var_inc: 1.0,
            order,
            saved_phase,
            trail: Vec::with_capacity(nvars),
            trail_lim: Vec::new(),
            qhead: 0,
            explanations: Vec::new(),
            expl_lim: Vec::new(),
            true_w: vec![0; index.facet_count() * m],
            false_w: vec![0; index.facet_count() * m],
            facet_max_mult,
            seen: vec![false; nvars],
            rng: XorShift(SEED | 1),
            var_maps,
            pending: Vec::new(),
            image_seen: HashSet::new(),
            learned_live: 0,
            learned_limit: 4000,
            root_conflict: false,
            stats: SearchStats {
                warm_seeded,
                ..SearchStats::default()
            },
        };
        // A facet whose lower window exceeds its total weight can never
        // be satisfied, and — with `m = 1` — never produces the false
        // literals the counter propagators watch; refute it up front.
        if index.facet_count() > 0 && inst.lower.iter().any(|&l| l as usize > index.width) {
            solver.root_conflict = true;
        }
        solver.install_domain_constraints();
        solver
    }

    /// At-least-one / at-most-one domain clauses, plus value-precedence
    /// breaking for interchangeable values (tainted: `symmetric = false`).
    fn install_domain_constraints(&mut self) {
        let m = self.inst.values;
        for c in 0..self.inst.index.classes() as u32 {
            let alo: Vec<Lit> = (0..m)
                .map(|vi| Lit::new(self.var_of(c, vi), true))
                .collect();
            self.add_input_clause(alo, true);
            for vi in 0..m {
                for wi in vi + 1..m {
                    self.add_input_clause(
                        vec![
                            Lit::new(self.var_of(c, vi), false),
                            Lit::new(self.var_of(c, wi), false),
                        ],
                        true,
                    );
                }
            }
        }
        if self.inst.value_symmetric && m >= 2 {
            // Value v may first appear at position t of the precedence
            // order only after v−1 appeared strictly earlier: with fully
            // interchangeable values every solution has a relabelling
            // whose first occurrences come in value order. Walsh's ladder
            // states this in linear size: a(t, w) is pushed down by
            //   a(t, w) → a(t−1, w) ∨ x(c_t, w)      (a(−1, w) false)
            // and demanded by
            //   x(c_t, v) → a(t−1, v−1),
            // 2·k·(m−1) clauses of at most three literals on which unit
            // propagation derives exactly what the quadratic family
            // ¬x(c_t, v) ∨ ⋁_{s<t} x(c_s, v−1) derived.
            let order: &'a [u32] = &self.inst.index.precedence_order;
            for (t, &c) in order.iter().enumerate() {
                for wi in 0..m - 1 {
                    if t + 1 < order.len() {
                        let mut down = vec![
                            Lit::new(self.aux_of(t, wi), false),
                            Lit::new(self.var_of(c, wi), true),
                        ];
                        if t > 0 {
                            down.push(Lit::new(self.aux_of(t - 1, wi), true));
                        }
                        self.add_input_clause(down, false);
                    }
                    let mut demand = vec![Lit::new(self.var_of(c, wi + 1), false)];
                    if t > 0 {
                        demand.push(Lit::new(self.aux_of(t - 1, wi), true));
                    }
                    self.add_input_clause(demand, false);
                }
            }
        }
    }

    /// Installs an input clause at level 0 (before search starts).
    fn add_input_clause(&mut self, lits: Vec<Lit>, symmetric: bool) {
        debug_assert!(self.trail_lim.is_empty());
        match lits.len() {
            0 => unreachable!("input clauses are non-empty"),
            1 => {
                // Root fact; a contradicting unit refutes the instance.
                if !self.enqueue_root(lits[0], !symmetric) {
                    self.root_conflict = true;
                }
            }
            _ => {
                self.attach_clause(lits, false, symmetric, 0);
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learned: bool, symmetric: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        self.debug_assert_untainted_free_of_aux(&lits, symmetric);
        let cref = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(cref);
        self.watches[lits[1].code()].push(cref);
        if learned {
            self.learned_live += 1;
        }
        self.clauses.push(Clause {
            lits,
            learned,
            symmetric,
            lbd,
            deleted: false,
        });
        cref
    }

    /// Ladder auxiliaries live only in tainted clauses, so orbit
    /// learning (which images untainted clauses alone) never has to map
    /// one; `var_maps` fixes them all the same.
    fn debug_assert_untainted_free_of_aux(&self, lits: &[Lit], symmetric: bool) {
        debug_assert!(
            !symmetric || !lits.iter().any(|l| self.is_aux(l.var())),
            "untainted clause mentions a precedence-ladder auxiliary: {lits:?}"
        );
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn lit_value(&self, lit: Lit) -> u8 {
        match self.value[lit.var() as usize] {
            UNDEF => UNDEF,
            v => {
                if (v == TRUE) == lit.is_positive() {
                    TRUE
                } else {
                    FALSE
                }
            }
        }
    }

    /// Assigns `lit` (updating facet counters) unless already decided;
    /// `false` means `lit` is currently false (the caller has a conflict
    /// discovered outside the propagation queue — only possible for root
    /// facts and pending-clause absorption at level 0).
    fn enqueue(&mut self, lit: Lit, reason: Reason) -> bool {
        match self.lit_value(lit) {
            TRUE => true,
            FALSE => false,
            _ => {
                let var = lit.var() as usize;
                let root = self.trail_lim.is_empty();
                if root {
                    self.root_tainted[var] = self.reason_root_taint(lit, reason);
                }
                self.value[var] = if lit.is_positive() { TRUE } else { FALSE };
                self.level[var] = self.decision_level() as u32;
                self.reason[var] = reason;
                self.trail.push(lit);
                // Counters move at enqueue (and symmetrically at undo) so
                // trail and counters never disagree; threshold checks run
                // when the literal is dequeued. Ladder auxiliaries are in
                // no facet.
                if self.is_aux(lit.var()) {
                    return true;
                }
                let m = self.inst.values;
                let (c, vi) = ((lit.var() as usize) / m, (lit.var() as usize) % m);
                let w = if lit.is_positive() {
                    &mut self.true_w
                } else {
                    &mut self.false_w
                };
                for &(f, mult) in self.inst.index.class_facets(c) {
                    w[f as usize * m + vi] += mult;
                }
                true
            }
        }
    }

    /// Taint of a fresh level-0 assignment: the propagating constraint's
    /// own taint, or-ed with the taint of the root facts it leans on.
    /// `Reason::None` roots are conservatively tainted — callers with
    /// exact knowledge use [`enqueue_root`](Self::enqueue_root).
    fn reason_root_taint(&self, lit: Lit, reason: Reason) -> bool {
        let others_tainted = |lits: &[Lit]| {
            lits.iter()
                .any(|&l| l.var() != lit.var() && self.root_tainted[l.var() as usize])
        };
        match reason {
            Reason::None => true,
            Reason::Clause(cref) => {
                let clause = &self.clauses[cref as usize];
                !clause.symmetric || others_tainted(&clause.lits)
            }
            Reason::Explained(idx) => others_tainted(&self.explanations[idx as usize]),
        }
    }

    /// Enqueues a level-0 fact with an explicit taint (input units,
    /// learned units, absorbed pending units).
    fn enqueue_root(&mut self, lit: Lit, tainted: bool) -> bool {
        debug_assert!(self.trail_lim.is_empty());
        let fresh = self.lit_value(lit) == UNDEF;
        let ok = self.enqueue(lit, Reason::None);
        if ok && fresh {
            self.root_tainted[lit.var() as usize] = tainted;
        }
        ok
    }

    fn assume(&mut self, lit: Lit) {
        self.trail_lim.push(self.trail.len());
        self.expl_lim.push(self.explanations.len());
        let ok = self.enqueue(lit, Reason::None);
        debug_assert!(ok, "decisions pick unassigned variables");
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let m = self.inst.values;
        let keep = self.trail_lim[target];
        while self.trail.len() > keep {
            let lit = self.trail.pop().expect("non-empty trail");
            let var = lit.var() as usize;
            self.value[var] = UNDEF;
            self.reason[var] = Reason::None;
            if self.is_aux(lit.var()) {
                continue;
            }
            let (c, vi) = (var / m, var % m);
            let w = if lit.is_positive() {
                &mut self.true_w
            } else {
                &mut self.false_w
            };
            for &(f, mult) in self.inst.index.class_facets(c) {
                w[f as usize * m + vi] -= mult;
            }
            self.saved_phase[var] = lit.is_positive();
            self.order.insert(lit.var(), &self.activity);
        }
        self.qhead = keep;
        self.explanations.truncate(self.expl_lim[target]);
        self.trail_lim.truncate(target);
        self.expl_lim.truncate(target);
    }

    /// Propagates to fixpoint; a conflict comes back as the violated
    /// clause's literals (all false) plus its symmetry taint.
    fn propagate(&mut self) -> Option<(Vec<Lit>, bool)> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            if let Some(conflict) = self.propagate_facets(lit) {
                return Some(conflict);
            }
            if let Some(conflict) = self.propagate_watches(lit) {
                return Some(conflict);
            }
        }
        None
    }

    /// Threshold checks for every facet containing the class of `lit`.
    ///
    /// Counters were already moved at enqueue time; this pass only fires
    /// conflicts and implications. Implied literals always concern a
    /// *different* class of the same facet (the dequeued class is
    /// assigned on this value), and the implied polarity updates the
    /// opposite counter, so thresholds are stable across the scan.
    ///
    /// A facet whose counter plus its largest multiplicity stays inside
    /// the window can neither conflict nor imply, so it is skipped in
    /// O(1) without scanning its classes.
    fn propagate_facets(&mut self, lit: Lit) -> Option<(Vec<Lit>, bool)> {
        if self.is_aux(lit.var()) {
            return None;
        }
        let index: &'a ConstraintIndex = self.inst.index;
        let m = self.inst.values;
        let var = lit.var() as usize;
        let (c, vi) = (var / m, var % m);
        for &(f, _) in index.class_facets(c) {
            let fi = f as usize;
            let idx = fi * m + vi;
            let max_mult = self.facet_max_mult[fi];
            if lit.is_positive() {
                // Σ mult(c')·x_{c',v} ≤ u_v: saturation forbids the value
                // for the facet's remaining classes.
                let u = self.inst.upper[vi];
                if self.true_w[idx] + max_mult <= u {
                    continue;
                }
                if self.true_w[idx] > u {
                    return Some((self.upper_reason(fi, vi, None), true));
                }
                for (c2, mult2) in index.runs(fi) {
                    let v2 = Lit::new(self.var_of(c2, vi), false);
                    if self.lit_value(v2) == UNDEF && self.true_w[idx] + mult2 > u {
                        let expl = self.upper_reason(fi, vi, Some(v2));
                        let idx_e = self.push_explanation(expl);
                        let ok = self.enqueue(v2, Reason::Explained(idx_e));
                        debug_assert!(ok);
                    }
                }
            } else {
                // Σ mult(c')·x_{c',v} ≥ l_v ⇔ forbidden weight ≤ n − l_v:
                // a deficit forces the value on the remaining classes.
                let width = index.width as u32;
                let slack = width - self.inst.lower[vi].min(width);
                if self.false_w[idx] + max_mult <= slack {
                    continue;
                }
                if self.false_w[idx] > slack {
                    return Some((self.lower_reason(fi, vi, None), true));
                }
                for (c2, mult2) in index.runs(fi) {
                    let v2 = Lit::new(self.var_of(c2, vi), true);
                    if self.lit_value(v2) == UNDEF && self.false_w[idx] + mult2 > slack {
                        let expl = self.lower_reason(fi, vi, Some(v2));
                        let idx_e = self.push_explanation(expl);
                        let ok = self.enqueue(v2, Reason::Explained(idx_e));
                        debug_assert!(ok);
                    }
                }
            }
        }
        None
    }

    /// Reason clause for an upper-window event on `(facet, value)`: the
    /// implied literal (if any) followed by the negations of the
    /// assignments that saturated the window.
    fn upper_reason(&self, f: usize, vi: usize, implied: Option<Lit>) -> Vec<Lit> {
        let mut lits = Vec::new();
        lits.extend(implied);
        for (c2, _) in self.inst.index.runs(f) {
            let x = Lit::new(self.var_of(c2, vi), true);
            if self.lit_value(x) == TRUE {
                lits.push(x.negated());
            }
        }
        lits
    }

    /// Reason clause for a lower-window event on `(facet, value)`.
    fn lower_reason(&self, f: usize, vi: usize, implied: Option<Lit>) -> Vec<Lit> {
        let mut lits = Vec::new();
        lits.extend(implied);
        for (c2, _) in self.inst.index.runs(f) {
            let x = Lit::new(self.var_of(c2, vi), true);
            if self.lit_value(x) == FALSE {
                lits.push(x);
            }
        }
        lits
    }

    fn push_explanation(&mut self, lits: Vec<Lit>) -> u32 {
        let idx = self.explanations.len() as u32;
        self.explanations.push(lits);
        idx
    }

    /// Two-watched-literal clause propagation for a newly true `lit`.
    fn propagate_watches(&mut self, lit: Lit) -> Option<(Vec<Lit>, bool)> {
        let false_lit = lit.negated();
        let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
        let mut i = 0;
        let mut conflict = None;
        'next_clause: while i < ws.len() {
            let cref = ws[i];
            if self.clauses[cref as usize].deleted {
                ws.swap_remove(i);
                continue;
            }
            // Normalize: the false watcher sits at position 1.
            {
                let lits = &mut self.clauses[cref as usize].lits;
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
            }
            let first = self.clauses[cref as usize].lits[0];
            if self.lit_value(first) == TRUE {
                i += 1;
                continue;
            }
            // Look for a non-false replacement watch.
            let len = self.clauses[cref as usize].lits.len();
            for j in 2..len {
                let lj = self.clauses[cref as usize].lits[j];
                if self.lit_value(lj) != FALSE {
                    let lits = &mut self.clauses[cref as usize].lits;
                    lits.swap(1, j);
                    self.watches[lj.code()].push(cref);
                    ws.swap_remove(i);
                    continue 'next_clause;
                }
            }
            // Unit or conflicting.
            if self.lit_value(first) == UNDEF {
                let ok = self.enqueue(first, Reason::Clause(cref));
                debug_assert!(ok);
                i += 1;
            } else {
                let clause = &self.clauses[cref as usize];
                conflict = Some((clause.lits.clone(), clause.symmetric));
                break;
            }
        }
        let watched = &mut self.watches[false_lit.code()];
        debug_assert!(watched.is_empty());
        *watched = ws;
        conflict
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, &self.activity);
    }

    fn reason_lits(&self, var: u32) -> (Vec<Lit>, bool) {
        match self.reason[var as usize] {
            Reason::None => unreachable!("decisions are never resolved"),
            Reason::Clause(cref) => {
                let clause = &self.clauses[cref as usize];
                (clause.lits.clone(), clause.symmetric)
            }
            Reason::Explained(idx) => (self.explanations[idx as usize].clone(), true),
        }
    }

    /// First-UIP analysis; returns the learned clause (asserting literal
    /// first, a max-level literal second), backtrack level, LBD, and the
    /// clause's symmetry taint.
    fn analyze(&mut self, conflict: (Vec<Lit>, bool)) -> (Vec<Lit>, usize, u32, bool) {
        let current = self.decision_level() as u32;
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut symmetric = conflict.1;
        let mut reason = conflict.0;
        let mut skip_first = false;
        let mut path = 0usize;
        let mut index = self.trail.len();
        let p;
        loop {
            for (i, &q) in reason.iter().enumerate() {
                if skip_first && i == 0 {
                    continue;
                }
                let v = q.var() as usize;
                if self.level[v] == 0 {
                    // The root fact is silently resolved away; the clause
                    // still *depends* on it, so its taint must flow into
                    // the learned clause (or orbit images would be
                    // implied only by the tainted system).
                    symmetric &= !self.root_tainted[v];
                } else if !self.seen[v] {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == current {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pivot = self.trail[index];
            self.seen[pivot.var() as usize] = false;
            path -= 1;
            if path == 0 {
                p = pivot;
                break;
            }
            let (r, r_sym) = self.reason_lits(pivot.var());
            debug_assert_eq!(r[0], pivot, "implied literal leads its reason");
            symmetric &= r_sym;
            reason = r;
            skip_first = true;
        }
        learnt[0] = p.negated();
        for &q in &learnt[1..] {
            self.seen[q.var() as usize] = false;
        }
        // Backtrack level: the highest level below `current` in the
        // clause; its literal moves to the second watch position.
        let mut backtrack = 0usize;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            backtrack = self.level[learnt[1].var() as usize] as usize;
        }
        let mut levels: Vec<u32> = learnt
            .iter()
            .map(|l| self.level[l.var() as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        (learnt, backtrack, levels.len() as u32, symmetric)
    }

    /// Installs a learned clause (after backtracking) and queues its
    /// symmetry-orbit images.
    fn record(&mut self, learnt: Vec<Lit>, lbd: u32, symmetric: bool) {
        self.stats.learned += 1;
        self.debug_assert_untainted_free_of_aux(&learnt, symmetric);
        if learnt.len() == 1 {
            let ok = self.enqueue_root(learnt[0], !symmetric);
            debug_assert!(ok, "asserting literal is unassigned after backtrack");
        } else {
            let cref = self.attach_clause(learnt.clone(), true, symmetric, lbd);
            let ok = self.enqueue(learnt[0], Reason::Clause(cref));
            debug_assert!(ok, "asserting literal is unassigned after backtrack");
        }
        // Every own clause goes into the dedup set, so no orbit image
        // re-adds a clause the solver already holds.
        let mut canonical = learnt.clone();
        canonical.sort_unstable();
        self.image_seen.insert(canonical);
        if symmetric && learnt.len() <= SYMMETRIC_IMAGE_MAX_LEN {
            for map_index in 0..self.var_maps.len() {
                let mut image: Vec<Lit> = learnt
                    .iter()
                    .map(|l| Lit::new(self.var_maps[map_index][l.var() as usize], l.is_positive()))
                    .collect();
                image.sort_unstable();
                image.dedup();
                if self.image_seen.insert(image.clone()) {
                    self.pending.push((image, true));
                }
            }
        }
    }

    /// Absorbs queued symmetry images at decision level 0; `false`
    /// means the instance is now UNSAT.
    fn absorb_pending(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let pending = std::mem::take(&mut self.pending);
        for (lits, mut symmetric) in pending {
            let mut reduced: Vec<Lit> = Vec::with_capacity(lits.len());
            let mut satisfied = false;
            for &l in &lits {
                match self.lit_value(l) {
                    TRUE => {
                        satisfied = true;
                        break;
                    }
                    FALSE => {
                        // Simplified away against a root fact: the stored
                        // clause depends on it, so inherit its taint.
                        symmetric &= !self.root_tainted[l.var() as usize];
                    }
                    _ => reduced.push(l),
                }
            }
            if satisfied {
                continue;
            }
            match reduced.len() {
                0 => return false,
                1 => {
                    if !self.enqueue_root(reduced[0], !symmetric) {
                        return false;
                    }
                }
                _ => {
                    self.stats.symmetric_images += u64::from(symmetric);
                    let lbd = reduced.len() as u32;
                    self.attach_clause(reduced, true, symmetric, lbd);
                }
            }
        }
        true
    }

    /// Drops the worst half of the learned clauses (by LBD, then length),
    /// keeping binary, low-LBD, and locked clauses. Runs at level 0 with
    /// a propagation fixpoint, so watch rebuilding is straightforward.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert_eq!(self.qhead, self.trail.len());
        let mut candidates: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&cref| {
                let c = &self.clauses[cref as usize];
                c.learned && !c.deleted && c.lits.len() > 2 && c.lbd > 3 && !self.is_locked(cref)
            })
            .collect();
        candidates.sort_by_key(|&cref| {
            let c = &self.clauses[cref as usize];
            std::cmp::Reverse((c.lbd, c.lits.len() as u32))
        });
        for &cref in candidates.iter().take(candidates.len() / 2) {
            self.clauses[cref as usize].deleted = true;
            self.learned_live -= 1;
            self.stats.deleted += 1;
        }
        // Rebuild all watches; deleted clauses drop out. For each
        // survivor move two non-false (or one true) literal(s) up front —
        // sound at a level-0 fixpoint, where every clause is satisfied or
        // has two non-false literals.
        for w in &mut self.watches {
            w.clear();
        }
        for cref in 0..self.clauses.len() as u32 {
            if self.clauses[cref as usize].deleted {
                continue;
            }
            let mut lits = std::mem::take(&mut self.clauses[cref as usize].lits);
            let mut front = 0;
            for j in 0..lits.len() {
                if self.lit_value(lits[j]) != FALSE {
                    lits.swap(front, j);
                    front += 1;
                    if front == 2 {
                        break;
                    }
                }
            }
            debug_assert!(
                front == 2 || lits.iter().any(|&l| self.lit_value(l) == TRUE),
                "level-0 fixpoint leaves clauses satisfied or 2-watchable"
            );
            self.watches[lits[0].code()].push(cref);
            self.watches[lits[1].code()].push(cref);
            self.clauses[cref as usize].lits = lits;
        }
        self.learned_limit = self.learned_limit + self.learned_limit / 5;
    }

    fn is_locked(&self, cref: u32) -> bool {
        let first = self.clauses[cref as usize].lits[0];
        self.lit_value(first) == TRUE && self.reason[first.var() as usize] == Reason::Clause(cref)
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        self.stats.decisions += 1;
        if (self.rng.next() % 100) < RANDOM_DECISION_PCT && self.class_vars > 0 {
            let start = self.rng.below(self.class_vars);
            for i in 0..self.class_vars {
                let v = (start + i) % self.class_vars;
                if self.value[v] == UNDEF {
                    return Some(Lit::new(v as u32, self.saved_phase[v]));
                }
            }
            return None;
        }
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.value[v as usize] == UNDEF {
                return Some(Lit::new(v, self.saved_phase[v as usize]));
            }
        }
    }

    /// Bytes allocated at setup: clause literals, watch lists, the
    /// per-`(facet, value)` counters and the symmetry variable maps.
    /// The class→facet index is the constraint system's, charged when
    /// the system is built.
    fn setup_bytes(&self) -> u64 {
        use std::mem::size_of;
        let clauses: usize = self
            .clauses
            .iter()
            .map(|c| size_of::<Clause>() + c.lits.capacity() * size_of::<Lit>())
            .sum();
        let watches: usize = self
            .watches
            .iter()
            .map(|w| size_of::<Vec<u32>>() + w.capacity() * size_of::<u32>())
            .sum();
        let counters = (self.true_w.capacity() + self.false_w.capacity()) * size_of::<u32>();
        let var_maps: usize = self
            .var_maps
            .iter()
            .map(|map| map.capacity() * size_of::<u32>())
            .sum();
        (clauses + watches + counters + var_maps) as u64
    }

    fn extract_assignment(&self) -> Vec<usize> {
        let m = self.inst.values;
        (0..self.inst.index.classes())
            .map(|c| {
                (0..m)
                    .find(|&vi| self.value[c * m + vi] == TRUE)
                    .map(|vi| vi + 1)
                    .expect("exactly-one domain constraints hold at SAT")
            })
            .collect()
    }

    fn solve(mut self, cancel: Option<&AtomicBool>, ticket: &Ticket) -> (CdclResult, SearchStats) {
        self.stats.workers = 1;
        if self.root_conflict {
            return (CdclResult::Unsat, self.stats);
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_threshold = luby(1) * self.restart_base;
        // Work already reported to the ticket; deltas are charged at the
        // strided poll sites below so the governed counters track the
        // true totals without a per-iteration atomic.
        let mut charged_conflicts = 0u64;
        let mut charged_decisions = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    return (CdclResult::Unsat, self.stats);
                }
                let (learnt, backtrack, lbd, symmetric) = self.analyze(conflict);
                self.cancel_until(backtrack);
                self.record(learnt, lbd, symmetric);
                self.var_inc /= 0.95;
                if self.stats.conflicts.is_multiple_of(1024) {
                    // ticket.check poll site (conflict stride)
                    if let Some(flag) = cancel {
                        if flag.load(Ordering::Relaxed) {
                            return (CdclResult::Interrupted, self.stats);
                        }
                    }
                    let delta = self.stats.conflicts - charged_conflicts;
                    charged_conflicts = self.stats.conflicts;
                    if ticket.charge_conflicts(delta).is_err() {
                        return (CdclResult::Interrupted, self.stats);
                    }
                }
            } else if conflicts_since_restart >= restart_threshold {
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                restart_threshold = luby(self.stats.restarts + 1) * self.restart_base;
                self.cancel_until(0);
                if self.propagate().is_some() || !self.absorb_pending() {
                    return (CdclResult::Unsat, self.stats);
                }
                if self.learned_live > self.learned_limit {
                    if self.propagate().is_some() {
                        return (CdclResult::Unsat, self.stats);
                    }
                    self.reduce_db();
                }
            } else {
                // Poll cancellation here too: a race's CDCL lane deep in
                // a low-conflict SAT dive would otherwise only notice the
                // local lane's win at its next conflict burst.
                if self.stats.decisions.is_multiple_of(2048) {
                    // ticket.check poll site (decision stride)
                    if let Some(flag) = cancel {
                        if flag.load(Ordering::Relaxed) {
                            return (CdclResult::Interrupted, self.stats);
                        }
                    }
                    let delta = self.stats.decisions - charged_decisions;
                    charged_decisions = self.stats.decisions;
                    if ticket.charge_decisions(delta).is_err() {
                        return (CdclResult::Interrupted, self.stats);
                    }
                }
                match self.pick_branch() {
                    None => {
                        let assignment = self.extract_assignment();
                        return (CdclResult::Sat(assignment), self.stats);
                    }
                    Some(lit) => self.assume(lit),
                }
            }
        }
    }
}

/// Auxiliary variables of the value-precedence ladder: `a(t, w)` for
/// every precedence position but the last and every value but the last.
fn ladder_vars(inst: &Instance) -> usize {
    if inst.value_symmetric && inst.values >= 2 {
        inst.index.precedence_order.len().saturating_sub(1) * (inst.values - 1)
    } else {
        0
    }
}

/// Variable permutations of the symmetry group elements: verified class
/// permutations, adjacent value transpositions (symmetric specs), and
/// their products — identity excluded. Ladder auxiliaries (variables
/// `k · m..nvars`) map to themselves.
fn build_var_maps(inst: &Instance, m: usize, nvars: usize) -> Vec<Vec<u32>> {
    let classes = inst.index.classes();
    let identity_class: Vec<u32> = (0..classes as u32).collect();
    let mut class_choices: Vec<&[u32]> = vec![&identity_class];
    for perm in inst.class_perms {
        class_choices.push(perm);
    }
    let mut value_choices: Vec<Vec<usize>> = vec![(0..m).collect()];
    if inst.value_symmetric {
        for vi in 0..m.saturating_sub(1) {
            let mut swap: Vec<usize> = (0..m).collect();
            swap.swap(vi, vi + 1);
            value_choices.push(swap);
        }
    }
    let mut maps = Vec::new();
    for (ci, perm) in class_choices.iter().enumerate() {
        for (vj, values) in value_choices.iter().enumerate() {
            if ci == 0 && vj == 0 {
                continue; // identity
            }
            let map: Vec<u32> = (0..classes * m)
                .map(|var| {
                    let (c, vi) = (var / m, var % m);
                    perm[c] * m as u32 + values[vi] as u32
                })
                .chain((classes * m) as u32..nvars as u32)
                .collect();
            maps.push(map);
        }
    }
    maps
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing i, then recurse.
    let mut k = 1u64;
    while (1u64 << (k + 1)) - 1 <= i {
        k += 1;
    }
    while i != (1u64 << k) - 1 {
        i -= (1u64 << k) - 1;
        k = 1;
        while (1u64 << (k + 1)) - 1 <= i {
            k += 1;
        }
    }
    1u64 << (k - 1)
}

/// One CDCL run on the calling thread: the solver is built and its
/// setup memory is charged to the ticket before it searches, so a
/// memory budget bounds the solver as well as construction. A tripped
/// charge or poll comes back `Interrupted` with the partial counters.
/// The cancel flag lets the completion race stop this lane.
pub(crate) fn solve_charged(
    inst: &Instance,
    cfg: &CdclConfig,
    cancel: Option<&AtomicBool>,
    ticket: &Ticket,
) -> (CdclResult, SearchStats) {
    let solver = Solver::new(inst, cfg);
    // ticket.check poll site (solver setup memory)
    if ticket.charge_memory(solver.setup_bytes()).is_err() {
        let stats = SearchStats {
            workers: 1,
            ..SearchStats::default()
        };
        return (CdclResult::Interrupted, stats);
    }
    solver.solve(cancel, ticket)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    /// The index of hand-written facets (sorted class lists, all
    /// `width` long) over `classes` classes.
    pub(crate) fn index_of(classes: usize, width: usize, facets: &[&[u32]]) -> ConstraintIndex {
        ConstraintIndex::new(facets.concat(), width, classes)
    }

    /// One ungoverned solve with the default configuration.
    fn solve(inst: &Instance) -> (CdclResult, SearchStats) {
        solve_charged(inst, &CdclConfig::default(), None, &Ticket::unlimited())
    }

    /// Two interchangeable values, each exactly once per facet: on pair
    /// facets, a proper 2-colouring of the graph they form.
    fn one_of_each(index: &ConstraintIndex) -> Instance<'_> {
        Instance {
            values: 2,
            lower: vec![1, 1],
            upper: vec![1, 1],
            value_symmetric: true,
            index,
            class_perms: &[],
        }
    }

    /// The 3-cycle: each edge needs both values, which an odd cycle
    /// cannot give.
    fn nae_triangle() -> ConstraintIndex {
        index_of(3, 2, &[&[0, 1], &[1, 2], &[0, 2]])
    }

    #[test]
    fn odd_nae_cycle_is_unsat() {
        // Each edge needs one 1 and one 2: a proper 2-coloring of an odd
        // cycle, which does not exist.
        let index = nae_triangle();
        let inst = one_of_each(&index);
        let (result, stats) = solve(&inst);
        assert_eq!(result, CdclResult::Unsat);
        assert!(stats.conflicts >= 1);
    }

    #[test]
    fn even_nae_path_is_sat() {
        let index = index_of(2, 2, &[&[0, 1]]);
        let inst = one_of_each(&index);
        let (result, _) = solve(&inst);
        match result {
            CdclResult::Sat(assignment) => {
                assert_eq!(assignment.len(), 2);
                assert_ne!(assignment[0], assignment[1]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn multiplicity_windows_respected() {
        // One facet [c, c, c] with window exactly-3 of one value: the
        // single class must take a value with u ≥ 3 — here only value 1.
        let index = index_of(1, 3, &[&[0, 0, 0]]);
        let inst = Instance {
            values: 2,
            lower: vec![0, 0],
            upper: vec![3, 2],
            value_symmetric: false,
            index: &index,
            class_perms: &[],
        };
        let (result, _) = solve(&inst);
        assert_eq!(result, CdclResult::Sat(vec![1]));
    }

    #[test]
    fn symmetric_images_stay_sound_on_unsat_instances() {
        // The triangle with its rotation as a class symmetry: orbit
        // learning must not change the verdict.
        let index = nae_triangle();
        let rotations = [vec![1, 2, 0], vec![2, 0, 1]];
        let inst = Instance {
            class_perms: &rotations,
            ..one_of_each(&index)
        };
        let (result, _) = solve(&inst);
        assert_eq!(result, CdclResult::Unsat);
    }

    #[test]
    fn precedence_taint_does_not_poison_symmetric_images() {
        // A SAT even NAE cycle with genuine class symmetries and
        // interchangeable values: value precedence plants tainted root
        // facts, and any orbit image of a clause that silently resolved
        // against them would wrongly exclude the remaining solutions.
        // Aggressive restarts force image absorption early.
        let index = index_of(4, 2, &[&[0, 1], &[1, 2], &[2, 3], &[0, 3]]);
        let symmetries = [vec![2, 3, 0, 1], vec![1, 0, 3, 2]];
        let inst = Instance {
            class_perms: &symmetries,
            ..one_of_each(&index)
        };
        for restart_base in [1, RESTART_BASE] {
            let mut solver = Solver::new(&inst, &CdclConfig::default());
            solver.restart_base = restart_base;
            match solver.solve(None, &Ticket::unlimited()).0 {
                CdclResult::Sat(assignment) => {
                    for pair in [(0, 1), (1, 2), (2, 3), (0, 3)] {
                        assert_ne!(assignment[pair.0], assignment[pair.1]);
                    }
                }
                other => panic!("expected SAT, got {other:?}"),
            }
        }
    }

    /// The index of a random graph for colouring: one pair facet per
    /// edge, a shuffled precedence order. Every class has at most three
    /// neighbours, so four values always suffice.
    fn colouring(classes: usize, seed: u64) -> ConstraintIndex {
        let mut rng = XorShift(seed | 1);
        let mut degree = vec![0usize; classes];
        let mut facets: Vec<[u32; 2]> =
            (0..classes - 1).map(|c| [c as u32, c as u32 + 1]).collect();
        for c in 0..classes - 1 {
            degree[c] += 1;
            degree[c + 1] += 1;
        }
        for _ in 0..classes {
            let a = rng.below(classes);
            let b = rng.below(classes);
            let (a, b) = (a.min(b), a.max(b));
            let edge = [a as u32, b as u32];
            if b > a + 1 && degree[a] < 3 && degree[b] < 3 && !facets.contains(&edge) {
                degree[a] += 1;
                degree[b] += 1;
                facets.push(edge);
            }
        }
        let mut index = ConstraintIndex::new(facets.concat(), 2, classes);
        for i in (1..classes).rev() {
            index.precedence_order.swap(i, rng.below(i + 1));
        }
        index
    }

    /// Each of `values` interchangeable values at most once per facet.
    fn at_most_once(index: &ConstraintIndex, values: usize) -> Instance<'_> {
        Instance {
            values,
            lower: vec![0; values],
            upper: vec![1; values],
            value_symmetric: true,
            index,
            class_perms: &[],
        }
    }

    /// Whether first occurrences along the precedence order come in value
    /// order (value `v` only after `v − 1`).
    fn respects_precedence(inst: &Instance, assignment: &[usize]) -> bool {
        let mut highest = 0;
        for &c in &inst.index.precedence_order {
            let v = assignment[c as usize];
            if v > highest + 1 {
                return false;
            }
            highest = highest.max(v);
        }
        true
    }

    #[test]
    fn sat_models_respect_value_precedence() {
        // Each solve is warm-started from a proper colouring relabelled
        // so that the first class of the precedence order takes the
        // highest value: without the ladder the warm dive replays that
        // map conflict-free, so only the precedence clauses can steer
        // the solver to a relabelling.
        for seed in 1..=12u64 {
            let values = 3 + (seed % 2) as usize;
            let index = colouring(24, seed);
            let inst = at_most_once(&index, values);
            let edges: Vec<&[u32]> = index.facet_classes.chunks_exact(2).collect();
            let mut colour = vec![0usize; index.classes()];
            for c in 0..index.classes() {
                let used: Vec<usize> = edges
                    .iter()
                    .filter_map(|f| match (f[0] as usize, f[1] as usize) {
                        (a, b) if b == c && a < c => Some(colour[a]),
                        (a, b) if a == c && b < c => Some(colour[b]),
                        _ => None,
                    })
                    .collect();
                colour[c] = (1..=4).find(|v| !used.contains(v)).expect("degree <= 3");
            }
            let first = colour[index.precedence_order[0] as usize];
            let relabelled: Vec<u32> = colour
                .iter()
                .map(|&v| match v {
                    v if v == first => values as u32,
                    v if v == values => first as u32,
                    v => v as u32,
                })
                .collect();
            if relabelled.iter().any(|&v| v as usize > values) {
                continue; // the greedy colouring needed a fourth value
            }
            assert!(!respects_precedence(
                &inst,
                &relabelled.iter().map(|&v| v as usize).collect::<Vec<_>>()
            ));
            let config = CdclConfig {
                warm_start: Some(std::sync::Arc::new(relabelled.clone())),
            };
            // Both initial phases for unseeded variables (seeded ones
            // start positive either way), under a per-graph RNG seed.
            for default_phase in [false, true] {
                let mut solver = Solver::new(&inst, &config);
                solver.rng = XorShift(seed | 1);
                if default_phase {
                    solver.saved_phase.fill(true);
                }
                match solver.solve(None, &Ticket::unlimited()).0 {
                    CdclResult::Sat(assignment) => {
                        for f in &edges {
                            assert_ne!(assignment[f[0] as usize], assignment[f[1] as usize]);
                        }
                        assert!(
                            respects_precedence(&inst, &assignment),
                            "seed {seed}: {assignment:?} breaks precedence along {:?}",
                            index.precedence_order
                        );
                    }
                    other => panic!("seed {seed}: expected SAT, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn precedence_encoding_is_linear_in_the_classes() {
        // k = 2,000 classes, m = 9 values: the quadratic precedence
        // family alone held (m − 1)·k(k + 1)/2 ≈ 16M literals here.
        let (k, m) = (2000usize, 9usize);
        let path: Vec<u32> = (0..k as u32 - 1).flat_map(|c| [c, c + 1]).collect();
        let mut index = ConstraintIndex::new(path, 2, k);
        index.precedence_order = (0..k as u32).rev().collect();
        let inst = at_most_once(&index, m);
        let solver = Solver::new(&inst, &CdclConfig::default());
        let literals: usize =
            solver.clauses.iter().map(|c| c.lits.len()).sum::<usize>() + solver.trail.len();
        assert!(literals <= 2 * k * m * m, "{literals} input literals");
        assert_eq!(solver.value.len(), k * m + (k - 1) * (m - 1));
        assert!(matches!(
            solver.solve(None, &Ticket::unlimited()).0,
            CdclResult::Sat(_)
        ));
    }
}
