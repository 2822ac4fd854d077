//! Exhaustive decision-map search: comparison-based solvability of GSB
//! tasks over iterated immediate snapshot, for small `n`.
//!
//! **What is decided.** A one-shot task is solvable by an `r`-round
//! comparison-based full-information IIS protocol iff there is a
//! *symmetric* decision map `δ` on the vertices of `χ^r(Δ^{n−1})` —
//! constant on order-isomorphism classes of views
//! ([`View::signature`](crate::views::View::signature)) — such that every
//! facet's decision vector is a legal output. The symmetry requirement is
//! exactly the paper's comparison-based restriction (Section 2.2): a
//! comparison-based process behaves identically on order-isomorphic
//! views, and conversely any symmetric map is realizable by such a
//! protocol. This is the finite certificate used in the renaming
//! literature (the paper's \[10\], \[16\], \[17\]).
//!
//! **Engines.** [`SymmetricSearch::solve`] runs the conflict-driven
//! solver of [`cdcl`](crate::cdcl) — one deterministic solver with
//! clause learning and orbit pruning, on the calling thread — which
//! certifies instances the seed's plain backtracking could not reach in
//! reasonable time, such as the WSB `n = 3, r = 2` index-lemma UNSAT.
//! The seed engine is retained verbatim as [`SolveRoute::Reference`],
//! the oracle the CDCL engine is property-tested against (same pattern
//! as the enumeration crate's `enumerate_schedules_reference`). Every
//! solve runs under a governance [`Ticket`]; an unlimited ticket is
//! what "ungoverned" means.
//!
//! **Scope of conclusions.** `Unsolvable` here means "by protocols of at
//! most the checked round count"; the classical model-equivalence results
//! (IIS ≡ wait-free read/write, e.g. Borowsky–Gafni) lift bounded-round
//! statements to the models the paper discusses, and for the tasks we
//! check (election, WSB at prime-power `n`, perfect renaming) the
//! unbounded impossibility is known from the paper's Theorems 10–11 — the
//! checker *reproduces* those facts at small `n` rather than re-proving
//! them in full generality.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

use gsb_core::govern::{Stopped, Ticket};
use gsb_core::GsbSpec;
use rayon::prelude::*;

use crate::cdcl::{self, CdclConfig, CdclResult, SearchStats};
use crate::complex::ChromaticComplex;
use crate::error::Error;
use crate::local::{self, LocalConfig};
use crate::protocol::{
    multiset_bits, pack_multiset, unpack_multiset, FacetClasses, OrbitFrontier, OrbitStats,
};
use crate::views::{View, ViewArena, ViewKey};

/// The result of a decision-map search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchResult {
    /// A symmetric decision map exists; `assignment[c]` is the value
    /// decided by symmetry class `c` (classes listed in
    /// [`SymmetricSearch::classes`]).
    Solvable {
        /// Value per symmetry class.
        assignment: Vec<usize>,
    },
    /// No symmetric decision map exists at the checked round count.
    Unsolvable,
}

impl SearchResult {
    /// Whether a map was found.
    #[must_use]
    pub fn is_solvable(&self) -> bool {
        matches!(self, SearchResult::Solvable { .. })
    }

    /// The per-class assignment of a SAT result, if any.
    #[must_use]
    pub fn assignment(&self) -> Option<&[usize]> {
        match self {
            SearchResult::Solvable { assignment } => Some(assignment),
            SearchResult::Unsolvable => None,
        }
    }
}

impl std::fmt::Display for SearchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchResult::Solvable { assignment } => {
                write!(
                    f,
                    "solvable: symmetric decision map over {} classes",
                    assignment.len()
                )
            }
            SearchResult::Unsolvable => f.write_str("unsolvable at the checked round count"),
        }
    }
}

/// Which engine family answers a solvability search.
///
/// A performance knob, never a semantics knob: any verdict returned
/// under any mode is correct and carries the same replayable evidence.
/// [`SearchMode::Local`] is *incomplete* — it can complete witnesses
/// but never refute, so "no verdict" is a possible outcome even under
/// an unlimited ticket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SearchMode {
    /// The complete conflict-driven engine (SAT and UNSAT verdicts).
    #[default]
    Cdcl,
    /// CDCL raced against the min-conflicts completion engine with
    /// first-finisher-wins cancellation; an UNSAT verdict can only come
    /// from the CDCL lane.
    Race,
    /// The min-conflicts completion engine alone: a witness or no
    /// answer.
    Local,
}

impl SearchMode {
    /// Stable wire label (`--search-mode` values, JSON round-trip).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchMode::Cdcl => "cdcl",
            SearchMode::Race => "race",
            SearchMode::Local => "local",
        }
    }

    /// Parses a [`SearchMode::label`] back; `None` on unknown labels.
    #[must_use]
    pub fn from_label(label: &str) -> Option<SearchMode> {
        match label {
            "cdcl" => Some(SearchMode::Cdcl),
            "race" => Some(SearchMode::Race),
            "local" => Some(SearchMode::Local),
            _ => None,
        }
    }
}

/// A **replayable symmetric decision map**: the SAT witness of a
/// round-bounded solvability search, packaged so that anyone — not just
/// the engine that found it — can re-verify it facet by facet.
///
/// The map is `(n, rounds, assignment)`, exactly its serialized form:
/// one value per order-isomorphism class of views of
/// `χ^rounds(Δ^{n−1})`, read in the canonical ascending-view class
/// order, which depends only on `(n, rounds)`.
/// [`DecisionMap::check_against`] replays the assignment over **every
/// raw facet** of a [`FacetClasses`] table — built by the streaming
/// subdivision builder, not from the deduplicated constraint system the
/// solvers work on — so a bug in the search's quotienting or clause
/// encoding cannot also hide in the checker. [`DecisionMap::check`]
/// builds that table fresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionMap {
    n: usize,
    rounds: usize,
    /// Value decided by each class, in canonical class order.
    assignment: Vec<usize>,
}

impl DecisionMap {
    /// A decision map from its serialized form. Nothing is checked
    /// here, not even the assignment's length: [`DecisionMap::check`]
    /// is what refuses a map that does not fit its `(n, rounds)`.
    #[must_use]
    pub fn new(n: usize, rounds: usize, assignment: Vec<usize>) -> Self {
        DecisionMap {
            n,
            rounds,
            assignment,
        }
    }

    /// Number of processes (colors of the underlying complex).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Protocol rounds of the underlying subdivision.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Value decided by each class, in canonical ascending-view class
    /// order.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Independently re-verifies the witness against `spec`, **facet by
    /// facet**, over a [`FacetClasses`] table of `χ^rounds(Δ^{n−1})`
    /// built fresh under an unlimited ticket (see
    /// [`DecisionMap::check_against`]).
    ///
    /// # Errors
    ///
    /// Returns the structured [`Error`] describing the first replay
    /// failure (process-count, value-range, class-count, or a facet
    /// whose counts violate the bounds).
    pub fn check(&self, spec: &GsbSpec) -> Result<(), Error> {
        if spec.n() != self.n {
            return Err(Error::ProcessCountMismatch {
                spec: spec.n(),
                complex: self.n,
            });
        }
        let table = FacetClasses::build(self.n, self.rounds, &Ticket::unlimited())
            .expect("an unlimited ticket only stops under an armed fault plan");
        self.check_against(spec, &table)
    }

    /// The one decision-map check: requires one value in `1..=m` per
    /// class of the table, then maps every raw facet's views through
    /// their classes and checks the decision vector against the task's
    /// counting bounds. `table` may be shared across checks; it must
    /// come from the streaming builder, never from the search that
    /// produced the map.
    ///
    /// # Errors
    ///
    /// As [`DecisionMap::check`].
    ///
    /// # Panics
    ///
    /// Panics if `table` is not the table of this map's `(n, rounds)`.
    pub fn check_against(&self, spec: &GsbSpec, table: &FacetClasses) -> Result<(), Error> {
        assert_eq!(
            (table.n(), table.rounds()),
            (self.n, self.rounds),
            "a map is checked against the table of its own (n, rounds)"
        );
        if spec.n() != self.n {
            return Err(Error::ProcessCountMismatch {
                spec: spec.n(),
                complex: self.n,
            });
        }
        let m = spec.m();
        for (class, &value) in self.assignment.iter().enumerate() {
            if value == 0 || value > m {
                return Err(Error::ValueOutOfRange {
                    class,
                    value,
                    values: m,
                });
            }
        }
        if table.class_count() != self.assignment.len() {
            return Err(Error::ClassCountMismatch {
                witness: self.assignment.len(),
                complex: table.class_count(),
            });
        }
        // The table's class ids are canonical, so they index the
        // assignment directly.
        let lower: Vec<usize> = (1..=m).map(|v| spec.lower(v)).collect();
        let upper: Vec<usize> = (1..=m).map(|v| spec.upper(v)).collect();
        let mut counts = vec![0usize; m];
        for (f, facet) in table.facets().enumerate() {
            counts.iter_mut().for_each(|c| *c = 0);
            for &class in facet {
                counts[self.assignment[class as usize] - 1] += 1;
            }
            let legal = counts
                .iter()
                .zip(lower.iter().zip(&upper))
                .all(|(&count, (&lo, &hi))| lo <= count && count <= hi);
            if !legal {
                return Err(Error::IllegalFacet {
                    facet: f,
                    counts: counts.clone(),
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for DecisionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decision map on χ^{}(Δ^{}) over {} classes",
            self.rounds,
            self.n.saturating_sub(1),
            self.assignment.len()
        )
    }
}

/// The **spec-independent half of a prepared search**: the protocol
/// complex's signature classes in canonical (ascending-view) order and
/// the one [`ConstraintIndex`] over them that every engine borrows —
/// the CDCL solver, the local repair lane and the reference
/// backtracker read it in place, so no query copies the family.
///
/// Two pipelines produce it, and they are equivalence-tested to the
/// byte (`tests/orbit_equivalence.rs` and the in-crate instance test):
///
/// * [`ConstraintSystem::from_complex`] — the reference path: quotient
///   a materialized [`ChromaticComplex`] and stream its facet windows
///   into deduplicated class multisets.
/// * [`ConstraintSystem::from_orbit_frontier`] /
///   [`ConstraintSystem::streamed`] — the **fused orbit path**: stamp
///   one lex-leader representative per `S_n`-orbit of facets
///   ([`OrbitFrontier`]) and expand constraints at the class level,
///   never materializing a complex. Classes are kept as arena keys and
///   materialized to [`View`]s only on demand.
///
/// Because the system depends only on `(n, rounds)` — never on the
/// task — the engine cache shares one `Arc<ConstraintSystem>` across
/// every spec searched at the same parameters.
#[derive(Debug)]
pub struct ConstraintSystem {
    /// Materialized class signatures, canonically ordered. Set eagerly
    /// by the complex path, sharing the complex's list; the orbit path
    /// fills it lazily from `lazy`.
    classes: OnceLock<Arc<[View]>>,
    /// Orbit-path source: the frontier's arena, the canonical class
    /// keys, and the first free permutation-memo id (the group ids
    /// `0..base` are taken by the `S_n` enumeration).
    lazy: Option<Mutex<(ViewArena, Vec<ViewKey>, u32)>>,
    /// The distinct facet constraints and their per-class index.
    index: ConstraintIndex,
    /// Verified class permutations (orbit learning), computed on first
    /// demand — spec-independent, like everything else here.
    class_perms: OnceLock<Vec<Vec<u32>>>,
}

/// The one constraint index of a [`ConstraintSystem`]: the distinct
/// facet constraints stored flat, and for every class the constraints
/// that mention it with the class's multiplicity there. Every engine
/// reads this one copy; none re-packs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConstraintIndex {
    /// Constraint width: one class id per process (`n`); every
    /// constraint's multiplicities sum to it.
    pub width: usize,
    /// Facet constraints as sorted class multisets, deduplicated,
    /// family-sorted, and stored flat (`width` ids per constraint) —
    /// 421,875 `χ³(Δ³)` constraints are one allocation.
    pub facet_classes: Vec<u32>,
    /// Class occurrence counts over the distinct constraints.
    pub class_weight: Vec<usize>,
    /// Classes by descending weight (stable sort): the backtracker's
    /// branching order and CDCL's value-precedence order.
    pub precedence_order: Vec<u32>,
    /// For each class, the distinct constraints mentioning it as
    /// `(facet, multiplicity)`, ascending by facet — CSR-packed
    /// (`memberships[offsets[c]..offsets[c + 1]]`).
    offsets: Vec<u32>,
    memberships: Vec<(u32, u32)>,
}

impl ConstraintIndex {
    /// Indexes a flat family of sorted `width`-multisets over `classes`
    /// classes.
    pub(crate) fn new(facet_classes: Vec<u32>, width: usize, classes: usize) -> Self {
        assert!(width > 0, "constraints have at least one member");
        let mut class_weight = vec![0usize; classes];
        let mut offsets = vec![0u32; classes + 1];
        for facet in facet_classes.chunks_exact(width) {
            for run in facet.chunk_by(|a, b| a == b) {
                class_weight[run[0] as usize] += run.len();
                offsets[run[0] as usize + 1] += 1;
            }
        }
        for c in 0..classes {
            offsets[c + 1] += offsets[c];
        }
        let mut fill: Vec<u32> = offsets[..classes].to_vec();
        let mut memberships = vec![(0u32, 0u32); offsets[classes] as usize];
        for (f, facet) in facet_classes.chunks_exact(width).enumerate() {
            let f = u32::try_from(f).expect("facets fit in u32");
            for run in facet.chunk_by(|a, b| a == b) {
                let c = run[0] as usize;
                memberships[fill[c] as usize] = (f, run.len() as u32);
                fill[c] += 1;
            }
        }
        let mut precedence_order: Vec<u32> =
            (0..u32::try_from(classes).expect("classes fit in u32")).collect();
        precedence_order.sort_by_key(|&c| std::cmp::Reverse(class_weight[c as usize]));
        ConstraintIndex {
            width,
            facet_classes,
            class_weight,
            precedence_order,
            offsets,
            memberships,
        }
    }

    /// Number of symmetry classes.
    pub(crate) fn classes(&self) -> usize {
        self.class_weight.len()
    }

    /// Number of distinct facet constraints.
    pub(crate) fn facet_count(&self) -> usize {
        self.facet_classes.len() / self.width
    }

    /// One distinct constraint: a sorted class multiset of `width` ids.
    pub(crate) fn facet(&self, f: usize) -> &[u32] {
        &self.facet_classes[f * self.width..(f + 1) * self.width]
    }

    /// One constraint as `(class, multiplicity)` runs, classes
    /// strictly increasing.
    pub(crate) fn runs(&self, f: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.facet(f)
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u32))
    }

    /// The distinct constraints mentioning class `c` with its
    /// multiplicity in each, ascending by facet.
    pub(crate) fn class_facets(&self, c: usize) -> &[(u32, u32)] {
        &self.memberships[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Bytes of the derived per-class structures (the flat family is
    /// charged by the construction that emits it).
    fn index_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.class_weight.len() * size_of::<usize>()
            + (self.precedence_order.len() + self.offsets.len()) * size_of::<u32>()
            + self.memberships.len() * size_of::<(u32, u32)>()) as u64
    }
}

impl ConstraintSystem {
    /// Builds the system from a materialized complex (the reference
    /// path).
    ///
    /// Signatures are interned once per class through the complex's
    /// [`signature_quotient`](ChromaticComplex::signature_quotient) —
    /// no per-vertex signature clones. Facet constraints stream through
    /// per-chunk windows: each window maps its facets to sorted class
    /// multisets and deduplicates hash-based, so the raw facet list
    /// (421,875 rows for `χ³(Δ³)`) is never rebuilt as an intermediate
    /// `Vec<Vec<usize>>` — only the far smaller distinct-constraint set
    /// is ever materialized.
    #[must_use]
    pub fn from_complex(complex: &ChromaticComplex) -> Self {
        // The quotient's canonical class order is the orbit pipeline's
        // key-level order, so the two paths hand the solver
        // byte-identical instances.
        let quotient = complex.signature_quotient();
        let vertex_class = &quotient.vertex_class;
        let class_count = quotient.classes.len();
        // Facets with the same class multiset impose the same constraint;
        // deduplicating them collapses the subdivision's symmetry and is
        // what makes r = 2 searches tractable.
        let n = complex.n().max(1);
        let bits = multiset_bits(n);
        assert!(
            (class_count as u128) <= (1u128 << bits),
            "class count exceeds the {bits}-bit constraint packing at n = {n}"
        );
        let data = complex.facet_data();
        let facet_count = complex.facet_count();
        let workers = rayon::current_num_threads().max(1);
        let mut distinct: HashSet<u128> = HashSet::new();
        if workers > 1 && facet_count >= 2 * workers {
            // Parallel windows, each deduplicating locally; the serial
            // merge then unions the (already small) distinct sets.
            let window = facet_count.div_ceil(workers) * n;
            let locals: Vec<HashSet<u128>> = data
                .chunks(window)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|window| facet_class_window(window, n, vertex_class, bits))
                .collect();
            for local in locals {
                distinct.extend(local);
            }
        } else {
            distinct = facet_class_window(data, n, vertex_class, bits);
        }
        // One u128 sort orders the packed family lexicographically.
        let mut packed: Vec<u128> = distinct.into_iter().collect();
        packed.sort_unstable();
        let mut facet_classes: Vec<u32> = vec![0; packed.len() * n];
        for (chunk, &word) in facet_classes.chunks_exact_mut(n).zip(&packed) {
            unpack_multiset(word, bits, chunk);
        }
        ConstraintSystem {
            classes: OnceLock::from(Arc::clone(&quotient.classes)),
            lazy: None,
            index: ConstraintIndex::new(facet_classes, n, class_count),
            class_perms: OnceLock::new(),
        }
    }

    /// Builds the system through the fused orbit pipeline: stream
    /// `rounds` orbit-quotiented subdivision rounds and expand the
    /// representative frontier straight into constraints, returning the
    /// orbit counters alongside. No [`ChromaticComplex`] is ever
    /// materialized. Every subdivision round and the final expansion
    /// poll the ticket and charge their allocations against its memory
    /// budget, and so does the constraint index built last.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the ticket trips mid-construction.
    ///
    /// # Panics
    ///
    /// Panics if `n = 0`.
    pub fn streamed(
        n: usize,
        rounds: usize,
        ticket: &Ticket,
    ) -> Result<(Self, OrbitStats), Stopped> {
        let mut frontier = OrbitFrontier::new(n);
        for _ in 0..rounds {
            frontier.advance(ticket)?;
        }
        let expansion = frontier.expand(ticket)?;
        let stats = frontier.stats();
        let perm_id_base = frontier.perm_id_base();
        // One-shot path: the frontier is consumed, so the arena moves.
        let arena = frontier.into_arena();
        Ok((
            Self::from_orbit_parts(n, expansion, arena, perm_id_base, ticket)?,
            stats,
        ))
    }

    /// Builds the system from an already-advanced [`OrbitFrontier`]
    /// (the engine cache's path: cached frontiers extend round by round
    /// during sweeps, and each round's expansion leaves the frontier
    /// valid for the next extension). Expansion never mutates the
    /// frontier's rows, so an `Err` return leaves the cached frontier
    /// valid for later extension. The constraint index is charged to
    /// the ticket like the expansion.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the ticket trips mid-expansion.
    pub fn from_orbit_frontier(
        frontier: &mut OrbitFrontier,
        ticket: &Ticket,
    ) -> Result<Self, Stopped> {
        let expansion = frontier.expand(ticket)?;
        // The frontier stays cached for later round extension, so the
        // arena is cloned.
        let arena = frontier.clone_arena();
        Self::from_orbit_parts(
            frontier.n(),
            expansion,
            arena,
            frontier.perm_id_base(),
            ticket,
        )
    }

    fn from_orbit_parts(
        n: usize,
        expansion: crate::protocol::OrbitExpansion,
        arena: ViewArena,
        perm_id_base: u32,
        ticket: &Ticket,
    ) -> Result<Self, Stopped> {
        let class_count = expansion.class_keys.len();
        let index = ConstraintIndex::new(expansion.facet_classes, n, class_count);
        // ticket.check poll site (constraint index memory)
        ticket.charge_memory(index.index_bytes())?;
        Ok(ConstraintSystem {
            classes: OnceLock::new(),
            lazy: Some(Mutex::new((arena, expansion.class_keys, perm_id_base))),
            index,
            class_perms: OnceLock::new(),
        })
    }

    /// Number of symmetry classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.index.classes()
    }

    /// Number of distinct facet constraints.
    #[must_use]
    pub fn facet_count(&self) -> usize {
        self.index.facet_count()
    }

    /// Number of *verified* class permutations available to orbit
    /// learning (forces verification on first call; cached afterwards).
    #[must_use]
    pub fn verified_class_perm_count(&self) -> usize {
        self.class_perms().len()
    }

    /// The classes as canonical view signatures, ascending. The orbit
    /// path materializes them from its arena on first demand (the
    /// solver itself never needs the recursive views — only witnesses
    /// and displays do).
    #[must_use]
    pub fn classes(&self) -> &[View] {
        self.classes.get_or_init(|| {
            let lazy = self
                .lazy
                .as_ref()
                .expect("a system is eager or carries its orbit arena");
            let guard = lazy.lock().expect("orbit arena poisoned");
            let (arena, keys, _) = &*guard;
            keys.iter().map(|&k| arena.view(k)).collect()
        })
    }

    /// Verified class permutations of the quotient: the order reversal
    /// of view signatures ([`View::reversed_signature`]), kept only if
    /// it is a bijection on classes under which the facet multiset
    /// family is invariant, so orbit learning never uses an unsound
    /// symmetry. No other renaming is tried: among process renamings
    /// only the identity and the reversal act consistently on
    /// order-isomorphism classes.
    /// Computed on first demand and cached; the orbit path derives the
    /// reversal key-level (reversal is an arbitrary-permutation relabel
    /// of the signature's `1..s` support), without materializing views.
    fn class_perms(&self) -> &[Vec<u32>] {
        self.class_perms.get_or_init(|| {
            let reversal: Option<Vec<u32>> = match &self.lazy {
                Some(lazy) => {
                    let mut guard = lazy.lock().expect("orbit arena poisoned");
                    let (arena, keys, base) = &mut *guard;
                    let index: HashMap<ViewKey, u32> = keys
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| (k, u32::try_from(i).expect("classes fit in u32")))
                        .collect();
                    let keys: Vec<ViewKey> = keys.clone();
                    let base = *base;
                    keys.iter()
                        .map(|&key| {
                            let s = arena.support_len(key);
                            // A signature's support is exactly 1..=s, so
                            // reversal is the bijection i ↦ s+1−i; its
                            // image is again canonical, hence a class key.
                            let reversal: Vec<u32> = (1..=s).rev().collect();
                            let rev = arena.permute(key, &reversal, base + s);
                            index.get(&rev).copied()
                        })
                        .collect()
                }
                None => {
                    let classes = self
                        .classes
                        .get()
                        .expect("the complex path sets its classes eagerly");
                    let index: HashMap<&View, u32> = classes
                        .iter()
                        .enumerate()
                        .map(|(i, sig)| (sig, u32::try_from(i).expect("fits in u32")))
                        .collect();
                    classes
                        .iter()
                        .map(|sig| index.get(&sig.reversed_signature()).copied())
                        .collect()
                }
            };
            let index = &self.index;
            reversal
                .into_iter()
                .filter(|perm| {
                    is_class_symmetry(perm, &index.facet_classes, index.width, index.classes())
                })
                .collect()
        })
    }
}

/// Whether a class map is a genuine non-identity bijection under which
/// the facet family is invariant.
///
/// The family is stored lex-sorted and deduplicated, and a bijection on
/// classes maps distinct multisets to distinct multisets. So the family
/// is invariant exactly when its images, each sorted and packed
/// big-endian ([`pack_multiset`]), sort into the family's own packed
/// rows: one `u128` sort and one merge-compare per candidate, with no
/// per-candidate hash set. Any image outside the family breaks the
/// equality, so a surviving candidate maps every row into the family.
fn is_class_symmetry(perm: &[u32], facet_classes: &[u32], width: usize, classes: usize) -> bool {
    // Identity or non-bijective maps are useless/unsound.
    let mut targets: Vec<u32> = perm.to_vec();
    targets.sort_unstable();
    targets.dedup();
    if targets.len() != classes
        || targets.last().is_some_and(|&t| t as usize >= classes)
        || perm.iter().enumerate().all(|(i, &p)| p == i as u32)
    {
        return false;
    }
    // Facet family invariance.
    let bits = multiset_bits(width);
    assert!(
        (classes as u128) <= (1u128 << bits),
        "class count exceeds the {bits}-bit constraint packing at width {width}"
    );
    let mut image: Vec<u32> = vec![0; width];
    let mut images: Vec<u128> = facet_classes
        .chunks_exact(width)
        .map(|facet| {
            for (slot, &c) in image.iter_mut().zip(facet) {
                *slot = perm[c as usize];
            }
            image.sort_unstable();
            pack_multiset(&image, bits)
        })
        .collect();
    images.sort_unstable();
    images
        .iter()
        .zip(facet_classes.chunks_exact(width))
        .all(|(&img, facet)| img == pack_multiset(facet, bits))
}

/// Distinct-constraint count at or below which the front door of
/// [`SymmetricSearch::solve`] runs the reference backtracker
/// instead of standing up the CDCL engine: tiny instances pay more for
/// watcher and counter-propagator setup than the whole search costs
/// (`renaming(3,6) r = 1`: 0.065 ms of solver setup against a 0.011 ms
/// backtracking verdict).
const TINY_INSTANCE_FACETS: usize = 32;

/// Node admission for the reference backtracker: every visited node
/// charges the ticket once, so a node budget of `k` admits exactly `k`
/// nodes, and deadlines, cancellation and injected faults land on the
/// next node (tiny searches finish in a handful of nodes, so a stride
/// would never poll them).
struct NodeGate<'a> {
    visited: u64,
    ticket: &'a Ticket,
}

impl NodeGate<'_> {
    /// Admit one node; `false` means the search must stop.
    fn visit(&mut self) -> bool {
        self.visited += 1;
        // ticket.check poll site (per-node)
        self.ticket.charge_nodes(1).is_ok()
    }
}

/// Which engine [`SymmetricSearch::solve`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveRoute {
    /// The production front door: the engine the [`SearchMode`] names.
    /// Instances of at most 32 distinct constraints run the reference
    /// backtracker instead, whatever the mode: watcher and propagator
    /// setup costs several times the whole search there
    /// (`renaming(3,6) r = 1` is 13 constraints), and the backtracker
    /// is complete, so even `Local` gets full verdicts.
    Mode(SearchMode),
    /// The conflict-driven engine unconditionally, bypassing the
    /// tiny-instance route — the hook cross-engine checks diff against
    /// the backtracker (through the front door, small instances would
    /// route to the very oracle they are compared against).
    Cdcl,
    /// The retained seed engine: weight-ordered backtracking with unit
    /// propagation, the reference oracle the CDCL engine is tested
    /// against.
    Reference,
}

/// A prepared search instance: a task specification over the
/// spec-independent [`ConstraintSystem`] of its protocol complex.
#[derive(Debug, Clone)]
pub struct SymmetricSearch {
    spec: GsbSpec,
    /// Round count of the underlying subdivision (`None` when the search
    /// was prepared over an explicit complex of unknown provenance).
    rounds: Option<usize>,
    /// The shared constraint system (classes + deduplicated facet
    /// constraints), reusable across specs at the same `(n, rounds)`.
    system: Arc<ConstraintSystem>,
}

impl SymmetricSearch {
    /// Prepares the search for `spec` over the `rounds`-round protocol
    /// complex through the **fused orbit-quotient path**: orbit
    /// representatives stream straight into the constraint system,
    /// never materializing a [`ChromaticComplex`] — for `χ³(Δ³)` that
    /// is ~19k stamped representative rows instead of 421,875 facets.
    /// Construction polls the ticket and charges its memory budget, so
    /// even the build phase of a query is interruptible.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the ticket trips mid-construction.
    ///
    /// # Panics
    ///
    /// Panics if `spec.n() = 0`.
    pub fn build(spec: GsbSpec, rounds: usize, ticket: &Ticket) -> Result<Self, Stopped> {
        let (system, _) = ConstraintSystem::streamed(spec.n(), rounds, ticket)?;
        Ok(Self::with_system(spec, Some(rounds), Arc::new(system)))
    }

    /// Prepares the search for `spec` over an already-built (usually
    /// cache-shared) constraint system — or over the materialized
    /// reference build, `ConstraintSystem::from_complex`, that the
    /// fused path is equivalence-tested against. `rounds` records the
    /// subdivision depth when known, enabling replayable witnesses.
    ///
    /// # Panics
    ///
    /// Panics in later checks if `system` was not built for
    /// `spec.n()` processes (facet multisets would have the wrong
    /// arity).
    #[must_use]
    pub fn with_system(
        spec: GsbSpec,
        rounds: Option<usize>,
        system: Arc<ConstraintSystem>,
    ) -> Self {
        SymmetricSearch {
            spec,
            rounds,
            system,
        }
    }

    /// The shared constraint system this search runs on.
    #[must_use]
    pub fn system(&self) -> &Arc<ConstraintSystem> {
        &self.system
    }

    /// The symmetry classes (canonical view signatures).
    #[must_use]
    pub fn classes(&self) -> &[View] {
        self.system.classes()
    }

    /// The task specification this search decides.
    #[must_use]
    pub fn spec(&self) -> &GsbSpec {
        &self.spec
    }

    /// Round count of the subdivision, when known (`None` for a search
    /// prepared over a system of unknown provenance).
    #[must_use]
    pub fn rounds(&self) -> Option<usize> {
        self.rounds
    }

    /// Packages a SAT result as a public, replayable [`DecisionMap`].
    ///
    /// Returns `None` for UNSAT results and for searches whose round
    /// count is unknown (the witness could not be replayed).
    #[must_use]
    pub fn decision_map(&self, result: &SearchResult) -> Option<DecisionMap> {
        let assignment = result.assignment()?;
        let rounds = self.rounds?;
        Some(DecisionMap::new(self.spec.n(), rounds, assignment.to_vec()))
    }

    /// Number of facet constraints.
    #[must_use]
    pub fn facet_count(&self) -> usize {
        self.system.facet_count()
    }

    /// Runs the engine `route` selects under `ticket`, returning the
    /// verdict and the solver counters. `None` means no verdict: the
    /// ticket tripped (the counters then report the partial work), or
    /// the incomplete local mode exhausted its restarts without a
    /// witness.
    ///
    /// Every SAT answer is re-checked facet by facet before it is
    /// returned. The backtracker reports one worker and its visited
    /// nodes as `decisions`.
    ///
    /// # Panics
    ///
    /// Panics if an engine produces an assignment that fails the
    /// facet-by-facet re-check (that would be a soundness bug).
    #[must_use]
    pub fn solve(
        &self,
        config: &CdclConfig,
        route: SolveRoute,
        ticket: &Ticket,
    ) -> (Option<SearchResult>, SearchStats) {
        let (outcome, stats) = match route {
            SolveRoute::Reference => self.backtrack_all(ticket),
            SolveRoute::Mode(_) if self.facet_count() <= TINY_INSTANCE_FACETS => {
                self.backtrack_all(ticket)
            }
            SolveRoute::Cdcl | SolveRoute::Mode(SearchMode::Cdcl) => {
                cdcl::solve_charged(&self.instance(), config, None, ticket)
            }
            SolveRoute::Mode(SearchMode::Race) => {
                local::solve_race(&self.instance(), config, &LocalConfig::default(), ticket)
            }
            SolveRoute::Mode(SearchMode::Local) => {
                let warm = config.warm_start.as_deref().map(Vec::as_slice);
                let out = local::solve_local(
                    &self.instance(),
                    &LocalConfig::default(),
                    warm,
                    None,
                    ticket,
                );
                let stats = SearchStats {
                    local_steps: out.steps,
                    local_restarts: out.restarts,
                    local_won: out.assignment.is_some(),
                    workers: 1,
                    ..SearchStats::default()
                };
                (
                    out.assignment
                        .map_or(CdclResult::Interrupted, CdclResult::Sat),
                    stats,
                )
            }
        };
        let result = match outcome {
            CdclResult::Sat(assignment) => {
                let checked: Vec<Option<usize>> = assignment.iter().map(|&v| Some(v)).collect();
                assert!(
                    self.all_facets_legal(&checked),
                    "{route:?} assignment must satisfy every facet"
                );
                Some(SearchResult::Solvable { assignment })
            }
            CdclResult::Unsat => Some(SearchResult::Unsolvable),
            CdclResult::Interrupted => None,
        };
        (result, stats)
    }

    /// [`SymmetricSearch::solve`] through the front door under an
    /// unlimited ticket.
    #[must_use]
    pub fn solve_mode_with(
        &self,
        config: &CdclConfig,
        mode: SearchMode,
    ) -> (Option<SearchResult>, SearchStats) {
        self.solve(config, SolveRoute::Mode(mode), &Ticket::unlimited())
    }

    /// Lifts a round-`r−1` decision map through the subdivision into
    /// per-class warm-start values (`1..=m`; `0` = unseeded) for this
    /// round-`r` search: each round-`r` class's own previous-round
    /// subview projects to a parent class of the `r−1` quotient, whose
    /// decided value seeds it. Facets of `χ^r` project to facets of
    /// `χ^{r−1}` with the same value multiset, so a lifted SAT map is
    /// again SAT — warm-seeded dives complete without conflicts.
    ///
    /// The parent's classes are not stored anywhere: every `r−1` class
    /// is the own subview of some `r` class, so the sorted, distinct
    /// signatures of those subviews are the canonical `r−1` class list
    /// the parent's assignment is read in ([`classes_by_parent`]).
    ///
    /// All-zero (never harmful, merely unseeded) when `parent` is not
    /// the matching `(n, r−1)` map, or when its assignment does not
    /// have one value per derived parent class.
    #[must_use]
    pub fn lift_warm_start(&self, parent: &DecisionMap) -> Vec<u32> {
        let mut seed = vec![0; self.system.class_count()];
        let matching = self.spec.n() == parent.n()
            && self
                .rounds
                .is_some_and(|r| r >= 1 && r - 1 == parent.rounds())
            && parent.rounds() >= 1;
        if !matching {
            return seed;
        }
        let parents = classes_by_parent(self.classes());
        if parents.len() != parent.assignment().len() {
            return seed;
        }
        for (members, &value) in parents.values().zip(parent.assignment()) {
            for &class in members {
                seed[class] = value as u32;
            }
        }
        seed
    }

    /// The reference backtracker over the whole instance: the verdict
    /// (`Interrupted` when the ticket tripped first) and one-worker
    /// counters reporting the visited nodes as `decisions`.
    fn backtrack_all(&self, ticket: &Ticket) -> (CdclResult, SearchStats) {
        let k = self.system.class_count();
        // Classes by descending weight: most-constrained first.
        let order: Vec<usize> = self
            .system
            .index
            .precedence_order
            .iter()
            .map(|&c| c as usize)
            .collect();
        let mut assignment: Vec<Option<usize>> = vec![None; k];
        // Value symmetry breaking is sound only for fully symmetric specs.
        let value_symmetric = self.spec.is_symmetric();
        let mut gate = NodeGate { visited: 0, ticket };
        let outcome = match self.backtrack(&order, 0, &mut assignment, value_symmetric, &mut gate) {
            Some(true) => CdclResult::Sat(
                assignment
                    .into_iter()
                    .map(|v| v.expect("complete"))
                    .collect(),
            ),
            Some(false) => CdclResult::Unsat,
            None => CdclResult::Interrupted,
        };
        let stats = SearchStats {
            workers: 1,
            decisions: gate.visited,
            ..SearchStats::default()
        };
        (outcome, stats)
    }

    /// The quotiented instance handed to the CDCL and local engines:
    /// the spec's value windows over the system's borrowed index and
    /// verified class permutations.
    fn instance(&self) -> cdcl::Instance<'_> {
        let m = self.spec.m();
        cdcl::Instance {
            values: m,
            lower: (1..=m).map(|v| self.spec.lower(v) as u32).collect(),
            upper: (1..=m).map(|v| self.spec.upper(v) as u32).collect(),
            value_symmetric: self.spec.is_symmetric(),
            index: &self.system.index,
            class_perms: self.system.class_perms(),
        }
    }

    fn backtrack(
        &self,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<Option<usize>>,
        value_symmetric: bool,
        gate: &mut NodeGate,
    ) -> Option<bool> {
        // Skip classes already fixed by propagation.
        let mut idx = depth;
        while idx < order.len() && assignment[order[idx]].is_some() {
            idx += 1;
        }
        if idx == order.len() {
            return Some(self.all_facets_legal(assignment));
        }
        let class = order[idx];
        let max_used = assignment.iter().flatten().copied().max().unwrap_or(0);
        let value_cap = if value_symmetric {
            // Interchangeable values: trying more than one fresh value at a
            // decision point is redundant (propagated values stay sound:
            // a *forced* fresh value is unique only when no second fresh
            // value exists, see assign_and_propagate).
            (max_used + 1).min(self.spec.m())
        } else {
            self.spec.m()
        };
        for value in 1..=value_cap {
            if !gate.visit() {
                return None;
            }
            let mut trail = Vec::new();
            if self.assign_and_propagate(class, value, assignment, &mut trail) {
                match self.backtrack(order, idx + 1, assignment, value_symmetric, gate) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            for c in trail {
                assignment[c] = None;
            }
        }
        Some(false)
    }

    /// Assigns `class := value`, then runs unit propagation: any facet
    /// left with a single distinct unassigned class whose legal completion
    /// is unique forces that class, transitively. Records every assignment
    /// made on `trail` (for undo) and returns `false` on conflict.
    fn assign_and_propagate(
        &self,
        class: usize,
        value: usize,
        assignment: &mut [Option<usize>],
        trail: &mut Vec<usize>,
    ) -> bool {
        let m = self.spec.m();
        assignment[class] = Some(value);
        trail.push(class);
        let mut queue = vec![class];
        while let Some(c) = queue.pop() {
            for &(f, _) in self.system.index.class_facets(c) {
                let facet = self.system.index.facet(f as usize);
                if !self.facet_completable(facet, assignment) {
                    return false;
                }
                // Distinct unassigned classes of this facet (facet sorted).
                let mut pending = facet
                    .iter()
                    .map(|&x| x as usize)
                    .filter(|&x| assignment[x].is_none())
                    .collect::<Vec<_>>();
                pending.dedup();
                if pending.len() != 1 {
                    continue;
                }
                let x = pending[0];
                let mut allowed = Vec::new();
                for v in 1..=m {
                    assignment[x] = Some(v);
                    if self.facet_completable(facet, assignment) {
                        allowed.push(v);
                        if allowed.len() > 1 {
                            break;
                        }
                    }
                }
                assignment[x] = None;
                match allowed.as_slice() {
                    [] => return false,
                    [only] => {
                        assignment[x] = Some(*only);
                        trail.push(x);
                        queue.push(x);
                    }
                    _ => {}
                }
            }
        }
        true
    }

    fn facet_completable(&self, facet: &[u32], assignment: &[Option<usize>]) -> bool {
        let m = self.spec.m();
        {
            let mut counts = vec![0usize; m];
            let mut unassigned = 0usize;
            for &c in facet {
                match assignment[c as usize] {
                    Some(v) => counts[v - 1] += 1,
                    None => unassigned += 1,
                }
            }
            let mut deficit = 0usize;
            let mut capacity = 0usize;
            for v in 1..=m {
                if counts[v - 1] > self.spec.upper(v) {
                    // Counts only grow as the assignment extends, so an
                    // upper-bound violation can never heal.
                    return false;
                }
                deficit += self.spec.lower(v).saturating_sub(counts[v - 1]);
                capacity += self.spec.upper(v) - counts[v - 1];
            }
            if deficit > unassigned || unassigned > capacity {
                return false;
            }
        }
        true
    }

    fn all_facets_legal(&self, assignment: &[Option<usize>]) -> bool {
        let m = self.spec.m();
        let index = &self.system.index;
        for facet in index.facet_classes.chunks_exact(index.width) {
            let mut counts = vec![0usize; m];
            for &c in facet {
                match assignment[c as usize] {
                    Some(v) => counts[v - 1] += 1,
                    None => return false,
                }
            }
            for v in 1..=m {
                if counts[v - 1] < self.spec.lower(v) || counts[v - 1] > self.spec.upper(v) {
                    return false;
                }
            }
        }
        true
    }
}

/// The signature of a round view's own previous-round subview (`None`
/// for a round-0 view).
fn own_subview(view: &View) -> Option<View> {
    let View::Round { id, seen } = view else {
        return None;
    };
    seen.iter()
        .find(|(q, _)| q == id)
        .map(|(_, prev)| prev.signature())
}

/// The round-`r` classes grouped by the signature of their own
/// previous-round subview ([`own_subview`]; round-0 classes have none),
/// in ascending subview order: the keys are the canonical `r−1` class
/// list. A map rather than a sorted list of every subview, because the
/// classes outnumber their distinct subviews by far (10,945 to 15 at
/// `(5, 2)`).
fn classes_by_parent(classes: &[View]) -> BTreeMap<View, Vec<usize>> {
    let mut parents: BTreeMap<View, Vec<usize>> = BTreeMap::new();
    for (class, view) in classes.iter().enumerate() {
        if let Some(own) = own_subview(view) {
            parents.entry(own).or_default().push(class);
        }
    }
    parents
}

/// Maps one window of facets to its distinct sorted class multisets,
/// each packed into one `u128` word — the per-chunk streaming step of
/// [`ConstraintSystem::from_complex`]'s constraint construction.
/// Nothing is allocated per facet; duplicates die in the reused scratch
/// buffer.
fn facet_class_window(
    facet_data: &[crate::complex::VertexId],
    n: usize,
    vertex_class: &[u32],
    bits: u32,
) -> HashSet<u128> {
    let mut distinct: HashSet<u128> = HashSet::new();
    let mut scratch: Vec<u32> = vec![0; n];
    for facet in facet_data.chunks_exact(n) {
        for (slot, &v) in scratch.iter_mut().zip(facet) {
            *slot = vertex_class[v as usize];
        }
        scratch.sort_unstable();
        distinct.insert(pack_multiset(&scratch, bits));
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::protocol_complex;
    use gsb_core::SymmetricGsb;

    const FRONT_DOOR: SolveRoute = SolveRoute::Mode(SearchMode::Cdcl);

    /// The fused build under an unlimited ticket.
    fn fused(spec: GsbSpec, rounds: usize) -> SymmetricSearch {
        SymmetricSearch::build(spec, rounds, &Ticket::unlimited()).expect("unlimited ticket")
    }

    /// The materialized reference build.
    fn full(spec: GsbSpec, rounds: usize) -> SymmetricSearch {
        let complex = protocol_complex(spec.n(), rounds);
        let system = Arc::new(ConstraintSystem::from_complex(&complex));
        SymmetricSearch::with_system(spec, Some(rounds), system)
    }

    /// Runs a complete route to its verdict under an unlimited ticket.
    fn run(search: &SymmetricSearch, route: SolveRoute) -> (SearchResult, SearchStats) {
        let (result, stats) = search.solve(&CdclConfig::default(), route, &Ticket::unlimited());
        (result.expect("a complete route reaches a verdict"), stats)
    }

    fn solvable_in_rounds(spec: &GsbSpec, rounds: usize) -> SearchResult {
        run(&full(spec.clone(), rounds), FRONT_DOOR).0
    }

    #[test]
    fn zero_rounds_allows_only_constant_maps() {
        // At r = 0 every initial view is order-isomorphic, so all
        // processes decide the same value: solvable iff some value v has
        // u_v ≥ n and ℓ_w = 0 elsewhere.
        let ok = SymmetricGsb::new(3, 2, 0, 3).unwrap().to_spec();
        assert!(solvable_in_rounds(&ok, 0).is_solvable());
        let not = SymmetricGsb::loose_renaming(3).unwrap().to_spec();
        assert!(!solvable_in_rounds(&not, 0).is_solvable());
    }

    #[test]
    fn renaming_n2_needs_three_names() {
        // ⟨2,3,0,1⟩ solvable in one round; ⟨2,2,·⟩ (perfect renaming) not.
        let three = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
        assert!(solvable_in_rounds(&three, 1).is_solvable());
        let two = SymmetricGsb::renaming(2, 2).unwrap().to_spec();
        for r in 0..=3 {
            assert!(!solvable_in_rounds(&two, r).is_solvable(), "r = {r}");
        }
    }

    #[test]
    fn theorem_11_election_unsolvable_n2() {
        let election = gsb_core::GsbSpec::election(2).unwrap();
        for r in 0..=3 {
            assert!(!solvable_in_rounds(&election, r).is_solvable(), "r = {r}");
        }
    }

    #[test]
    fn theorem_11_election_unsolvable_n3() {
        let election = gsb_core::GsbSpec::election(3).unwrap();
        for r in 0..=2 {
            assert!(!solvable_in_rounds(&election, r).is_solvable(), "r = {r}");
        }
    }

    #[test]
    fn wsb_unsolvable_at_prime_power_n() {
        // n = 2, 3 are prime powers: WSB unsolvable (Theorem 10 + [17]).
        //
        // n = 3 through r = 2 — the 81-class not-all-equal system whose
        // unsolvability is the index-lemma counting fact of [17]. The
        // seed's backtracking needed ~100 s for the r = 2 certificate;
        // the CDCL engine closes it in well under a second (see
        // `tests/search_frontier.rs` for the pinned frontier).
        let wsb2 = SymmetricGsb::wsb(2).unwrap().to_spec();
        for r in 0..=3 {
            assert!(!solvable_in_rounds(&wsb2, r).is_solvable(), "n=2 r={r}");
        }
        let wsb3 = SymmetricGsb::wsb(3).unwrap().to_spec();
        for r in 0..=2 {
            assert!(!solvable_in_rounds(&wsb3, r).is_solvable(), "n=3 r={r}");
        }
    }

    #[test]
    fn is_renaming_bound_matches_search_n3() {
        // One IS round renames into n(n+1)/2 = 6 names (rank-in-view rule);
        // the search must find a map for m = 6.
        let six = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        assert!(solvable_in_rounds(&six, 1).is_solvable());
    }

    #[test]
    fn one_round_renaming_n3_cannot_reach_2n_minus_1() {
        // With one IS round, 5 names do not suffice for n = 3 (the
        // rank-based lower bound for one-shot IS renaming); more rounds
        // are needed for (2n−1)-renaming.
        let five = SymmetricGsb::loose_renaming(3).unwrap().to_spec();
        assert!(!solvable_in_rounds(&five, 1).is_solvable());
    }

    #[test]
    fn slot_tasks_match_wsb_when_k_is_2() {
        // 2-slot ≡ WSB: same search outcome at every checked round.
        let wsb = SymmetricGsb::wsb(3).unwrap().to_spec();
        let slot = SymmetricGsb::slot(3, 2).unwrap().to_spec();
        for r in 0..=1 {
            assert_eq!(
                solvable_in_rounds(&wsb, r).is_solvable(),
                solvable_in_rounds(&slot, r).is_solvable(),
                "r = {r}"
            );
        }
    }

    #[test]
    fn found_assignments_satisfy_every_facet() {
        let spec = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
        let search = fused(spec.clone(), 1);
        match run(&search, FRONT_DOOR).0 {
            SearchResult::Solvable { assignment } => {
                // Re-check independently of the search's own bookkeeping.
                let complex = protocol_complex(2, 1);
                let system = Arc::new(ConstraintSystem::from_complex(&complex));
                let again = SymmetricSearch::with_system(spec.clone(), None, system);
                let option_assignment: Vec<Option<usize>> =
                    assignment.iter().map(|&v| Some(v)).collect();
                assert!(again.all_facets_legal(&option_assignment));
            }
            SearchResult::Unsolvable => panic!("expected solvable"),
        }
    }

    #[test]
    fn class_counts_are_small() {
        // Documents the symmetry quotient's effectiveness: χ²(Δ²) has
        // hundreds of vertices but far fewer classes.
        let search = full(SymmetricGsb::wsb(3).unwrap().to_spec(), 2);
        assert!(search.classes().len() < 100, "{}", search.classes().len());
        assert_eq!(search.facet_count(), 169);
    }

    #[test]
    fn trivial_single_value_task_solvable_everywhere() {
        let spec = SymmetricGsb::new(3, 1, 0, 3).unwrap().to_spec();
        for r in 0..=2 {
            assert!(solvable_in_rounds(&spec, r).is_solvable());
        }
    }

    #[test]
    fn reference_engine_matches_cdcl_on_small_instances() {
        // Spot equivalence on both verdict kinds; the full zoo sweep
        // lives in `tests/engine_equivalence.rs`.
        for (spec, r) in [
            (SymmetricGsb::renaming(2, 3).unwrap().to_spec(), 1),
            (SymmetricGsb::wsb(3).unwrap().to_spec(), 1),
            (SymmetricGsb::renaming(3, 6).unwrap().to_spec(), 1),
        ] {
            let search = full(spec, r);
            assert_eq!(
                run(&search, SolveRoute::Cdcl).0,
                run(&search, SolveRoute::Reference).0
            );
        }
    }

    #[test]
    fn reference_budget_exhausts_cleanly() {
        let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
        let search = full(spec, 1);
        let config = CdclConfig::default();
        let budget = |nodes| {
            Ticket::new(gsb_core::Limits {
                nodes: Some(nodes),
                ..gsb_core::Limits::none()
            })
        };
        let (stopped, _) = search.solve(&config, SolveRoute::Reference, &budget(0));
        assert!(stopped.is_none());
        // A budget of k admits exactly k nodes.
        let (done, stats) = run(&search, SolveRoute::Reference);
        assert!(!done.is_solvable());
        let exact = budget(stats.decisions);
        assert!(search
            .solve(&config, SolveRoute::Reference, &exact)
            .0
            .is_some());
        let short = budget(stats.decisions - 1);
        assert!(search
            .solve(&config, SolveRoute::Reference, &short)
            .0
            .is_none());
    }

    #[test]
    fn fused_and_full_preps_hand_the_solver_identical_instances() {
        // The orbit-quotient pipeline must be *byte-identical* to the
        // materialized-complex path at the instance level: same classes
        // in the same canonical order, same constraint index (family,
        // memberships, weights, precedence), same verified symmetries.
        for (spec, r) in [
            (SymmetricGsb::renaming(2, 3).unwrap().to_spec(), 1usize),
            (SymmetricGsb::wsb(3).unwrap().to_spec(), 2),
            (gsb_core::GsbSpec::election(3).unwrap(), 2),
            (SymmetricGsb::renaming(4, 10).unwrap().to_spec(), 1),
            (SymmetricGsb::wsb(4).unwrap().to_spec(), 1),
        ] {
            let full = full(spec.clone(), r);
            let fused = fused(spec.clone(), r);
            assert_eq!(full.classes(), fused.classes(), "{spec} r={r}");
            assert_eq!(full.instance(), fused.instance(), "{spec} r={r}");
        }
    }

    /// Every class's `(facet, multiplicity)` list and weight equal a
    /// brute-force recount of the flat family, on both pipelines.
    #[test]
    fn constraint_index_matches_a_recount() {
        let mut systems: Vec<(String, ConstraintSystem)> =
            [(3usize, 1usize), (3, 2), (4, 1), (4, 2)]
                .into_iter()
                .map(|(n, r)| {
                    let (sys, _) = ConstraintSystem::streamed(n, r, &Ticket::unlimited()).unwrap();
                    (format!("streamed n={n} r={r}"), sys)
                })
                .collect();
        systems.push((
            "complex n=3 r=2".into(),
            ConstraintSystem::from_complex(&protocol_complex(3, 2)),
        ));
        for (label, sys) in &systems {
            let index = &sys.index;
            let facets: Vec<&[u32]> = index.facet_classes.chunks_exact(index.width).collect();
            for c in 0..sys.class_count() {
                let recount: Vec<(u32, u32)> = facets
                    .iter()
                    .enumerate()
                    .filter_map(|(f, facet)| {
                        let mult = facet.iter().filter(|&&x| x as usize == c).count();
                        (mult > 0).then_some((f as u32, mult as u32))
                    })
                    .collect();
                assert_eq!(index.class_facets(c), recount, "{label} class {c}");
                let weight: u32 = recount.iter().map(|&(_, mult)| mult).sum();
                assert_eq!(index.class_weight[c], weight as usize, "{label} class {c}");
            }
        }
    }

    /// The solver counters `(decisions, conflicts, propagations,
    /// restarts, learned, symmetric images)` of a forced CDCL solve.
    fn cdcl_counters(search: &SymmetricSearch) -> (u64, u64, u64, u64, u64, u64) {
        let (result, stats) = run(search, SolveRoute::Cdcl);
        assert_eq!(result, SearchResult::Unsolvable);
        assert_eq!(stats.workers, 1);
        (
            stats.decisions,
            stats.conflicts,
            stats.propagations,
            stats.restarts,
            stats.learned,
            stats.symmetric_images,
        )
    }

    /// The trajectory every CDCL solve of `wsb(3)` at r = 2 takes.
    const WSB3_R2_COUNTERS: (u64, u64, u64, u64, u64, u64) = (337, 100, 5_009, 1, 99, 45);

    /// A CDCL solve of `wsb(3)` at r = 2 takes one fixed trajectory;
    /// any change to propagation, learning or the index order it reads
    /// moves these counters.
    #[test]
    fn cdcl_trajectory_is_pinned_on_wsb3_r2() {
        let search = fused(SymmetricGsb::wsb(3).unwrap().to_spec(), 2);
        assert_eq!(cdcl_counters(&search), WSB3_R2_COUNTERS);
    }

    /// The trajectory does not depend on how many threads the caller's
    /// rayon pool has: a solve runs one solver on the calling thread.
    #[test]
    fn cdcl_trajectory_ignores_the_rayon_pool_width() {
        let search = fused(SymmetricGsb::wsb(3).unwrap().to_spec(), 2);
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("a small rayon pool");
            let counters = pool.install(|| cdcl_counters(&search));
            assert_eq!(counters, WSB3_R2_COUNTERS, "{threads} rayon threads");
        }
    }

    #[test]
    fn tiny_instances_route_through_the_reference_backtracker() {
        // renaming(3,6) r=1 is 13 distinct constraints — the front door
        // must skip CDCL setup and report bare one-worker counters.
        let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        let search = fused(spec, 1);
        assert!(search.facet_count() <= TINY_INSTANCE_FACETS);
        for mode in [SearchMode::Cdcl, SearchMode::Race, SearchMode::Local] {
            let (result, stats) = run(&search, SolveRoute::Mode(mode));
            assert!(result.is_solvable());
            assert_eq!(stats.workers, 1);
            assert!(stats.decisions > 0, "backtracker nodes count as decisions");
            assert_eq!(stats.propagations, 0, "no CDCL engine ran");
            assert_eq!(stats.local_steps, 0, "no local engine ran");
        }
        // Forced CDCL bypasses the route.
        let (_, stats) = run(&search, SolveRoute::Cdcl);
        assert!(stats.propagations > 0);
        // Above the threshold the engine still runs and counts work.
        let wsb = SymmetricGsb::wsb(3).unwrap().to_spec();
        let big = fused(wsb, 2);
        assert!(big.facet_count() > TINY_INSTANCE_FACETS);
        let (_, stats) = run(&big, FRONT_DOOR);
        assert!(stats.conflicts > 0);
    }

    /// `is_class_symmetry` keeps a genuine symmetry and rejects forged
    /// bijections, non-bijections, out-of-range maps and the identity.
    #[test]
    fn class_perm_verification_is_sound() {
        let (sys, _) = ConstraintSystem::streamed(3, 2, &Ticket::unlimited()).unwrap();
        let k = sys.class_count();
        let verify =
            |perm: Vec<u32>| is_class_symmetry(&perm, &sys.index.facet_classes, sys.index.width, k);
        // The order reversal of view signatures is a symmetry.
        let classes = sys.classes();
        let index: HashMap<&View, u32> = classes
            .iter()
            .enumerate()
            .map(|(i, sig)| (sig, i as u32))
            .collect();
        let reversal: Vec<u32> = classes
            .iter()
            .map(|sig| index[&sig.reversed_signature()])
            .collect();
        assert!(verify(reversal));
        // Automorphisms preserve occurrence counts, so swapping two
        // classes of different weight is a bijection but no symmetry.
        let (a, b) = (0..k)
            .flat_map(|a| (a + 1..k).map(move |b| (a, b)))
            .find(|&(a, b)| sys.index.class_weight[a] != sys.index.class_weight[b])
            .expect("classes of different weight");
        let mut forged: Vec<u32> = (0..k as u32).collect();
        forged.swap(a, b);
        assert!(!verify(forged));
        // Two classes onto one: not a bijection.
        let mut merged: Vec<u32> = (0..k as u32).collect();
        merged[1] = 0;
        assert!(!verify(merged));
        // Distinct targets, one outside the class range: the family
        // {0,1}, {0,2} never mentions class 3, so only the range check
        // stands between this map and acceptance.
        assert!(!is_class_symmetry(&[0, 2, 1, 7], &[0, 1, 0, 2], 2, 4));
        assert!(is_class_symmetry(&[0, 2, 1, 3], &[0, 1, 0, 2], 2, 4));
        // The identity is useless to orbit learning.
        assert!(!verify((0..k as u32).collect()));
        // The survivors on the streamed systems: the reversal alone.
        for (n, r) in [(3usize, 1usize), (3, 2), (4, 1), (4, 2), (5, 1)] {
            let (sys, _) = ConstraintSystem::streamed(n, r, &Ticket::unlimited()).unwrap();
            assert_eq!(sys.verified_class_perm_count(), 1, "n={n} r={r}");
        }
    }

    #[test]
    fn verified_class_perms_are_bijections() {
        let search = full(SymmetricGsb::wsb(3).unwrap().to_spec(), 1);
        for perm in search.system.class_perms() {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), search.classes().len(), "bijection");
            assert!(
                perm.iter().enumerate().any(|(i, &p)| p != i as u32),
                "identity is filtered out"
            );
        }
    }

    #[test]
    fn decision_map_replays_facet_by_facet() {
        let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        let search = fused(spec.clone(), 1);
        let (result, _) = run(&search, FRONT_DOOR);
        let map = search
            .decision_map(&result)
            .expect("SAT result with known rounds");
        assert_eq!(map.rounds(), 1);
        assert_eq!(map.n(), 3);
        map.check(&spec).expect("genuine witness must replay");
        assert_eq!(map.assignment().len(), search.classes().len());
    }

    #[test]
    fn decision_map_check_rejects_tampering() {
        let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        let search = fused(spec.clone(), 1);
        let classes = search.classes().len();
        // All-ones violates u = 1 on every facet.
        let forged = DecisionMap::new(3, 1, vec![1; classes]);
        assert!(matches!(
            forged.check(&spec),
            Err(Error::IllegalFacet { .. })
        ));
        // A value outside [1..m].
        let out_of_range = DecisionMap::new(3, 1, vec![99; classes]);
        assert!(matches!(
            out_of_range.check(&spec),
            Err(Error::ValueOutOfRange { .. })
        ));
        // One class short or one class long: constructed as decoded,
        // refused by the check.
        let short = DecisionMap::new(3, 1, vec![1; classes - 1]);
        let long = DecisionMap::new(3, 1, vec![1; classes + 1]);
        for wrong_length in [&short, &long] {
            assert!(matches!(
                wrong_length.check(&spec),
                Err(Error::ClassCountMismatch { .. })
            ));
        }
        // One warm table, shared across checks, rejects every forgery
        // the fresh builds above rejected and still passes the genuine
        // witness.
        let table = FacetClasses::build(3, 1, &Ticket::unlimited()).unwrap();
        let genuine = search.decision_map(&run(&search, FRONT_DOOR).0).unwrap();
        genuine.check_against(&spec, &table).unwrap();
        assert!(matches!(
            forged.check_against(&spec, &table),
            Err(Error::IllegalFacet { .. })
        ));
        assert!(matches!(
            out_of_range.check_against(&spec, &table),
            Err(Error::ValueOutOfRange { .. })
        ));
        for wrong_length in [&short, &long] {
            assert!(matches!(
                wrong_length.check_against(&spec, &table),
                Err(Error::ClassCountMismatch { .. })
            ));
        }
        genuine.check_against(&spec, &table).unwrap();
        // Wrong process count.
        let other = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
        let map = search.decision_map(&run(&search, FRONT_DOOR).0).unwrap();
        assert!(matches!(
            map.check(&other),
            Err(Error::ProcessCountMismatch { .. })
        ));
    }

    /// The lift derives the `(n, r−1)` class list from the round-`r`
    /// classes; it must be the streamed `r−1` system's list. A parent
    /// that decides class `i` as `i + 1` then seeds each class with the
    /// position of its own subview in that list.
    #[test]
    fn lift_derives_the_canonical_parent_class_list() {
        let points = (1..=4usize)
            .flat_map(|n| (1..=2usize).map(move |r| (n, r)))
            .chain([(3, 3)]);
        for (n, r) in points {
            let spec = SymmetricGsb::renaming(n, 2 * n).unwrap().to_spec();
            let child = fused(spec, r);
            let (parent, _) = ConstraintSystem::streamed(n, r - 1, &Ticket::unlimited()).unwrap();
            let expected = parent.classes();
            let derived: Vec<View> = classes_by_parent(child.classes()).into_keys().collect();
            assert_eq!(derived, expected, "({n},{r})");
            if r < 2 {
                continue; // a round-0 parent seeds nothing
            }
            let numbered = DecisionMap::new(n, r - 1, (1..=expected.len()).collect());
            let seed = child.lift_warm_start(&numbered);
            let want: Vec<u32> = child
                .classes()
                .iter()
                .map(|view| {
                    let own = own_subview(view).expect("a round view");
                    expected.binary_search(&own).expect("a parent class") as u32 + 1
                })
                .collect();
            assert_eq!(seed, want, "({n},{r})");
        }
    }

    /// A parent that is not the `(n, r−1)` map, or whose assignment does
    /// not have one value per derived parent class, seeds nothing.
    #[test]
    fn mismatched_parents_lift_to_the_all_zero_seed() {
        let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        let child = fused(spec, 2);
        let zero = vec![0u32; child.classes().len()];
        let parent_count = ConstraintSystem::streamed(3, 1, &Ticket::unlimited())
            .unwrap()
            .0
            .class_count();
        // The right parent seeds every class.
        let right = DecisionMap::new(3, 1, vec![1; parent_count]);
        assert!(child.lift_warm_start(&right).iter().all(|&v| v == 1));
        for wrong in [
            DecisionMap::new(2, 1, vec![1; parent_count]),
            DecisionMap::new(3, 2, vec![1; parent_count]),
            DecisionMap::new(3, 0, vec![1; 1]),
            DecisionMap::new(3, 1, vec![1; parent_count - 1]),
            DecisionMap::new(3, 1, vec![1; parent_count + 1]),
            DecisionMap::new(3, 1, Vec::new()),
        ] {
            assert_eq!(child.lift_warm_start(&wrong), zero, "{wrong:?}");
        }
    }

    #[test]
    fn decision_map_unavailable_when_unsat_or_rounds_unknown() {
        let wsb = SymmetricGsb::wsb(3).unwrap().to_spec();
        let search = fused(wsb.clone(), 1);
        let (result, _) = run(&search, FRONT_DOOR);
        assert!(!result.is_solvable());
        assert!(search.decision_map(&result).is_none());
        assert_eq!(result.assignment(), None);
        // Systems of unknown provenance have no recorded round count.
        let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        let system = Arc::new(ConstraintSystem::from_complex(&protocol_complex(3, 1)));
        let search = SymmetricSearch::with_system(spec, None, system);
        assert_eq!(search.rounds(), None);
        let (sat, _) = run(&search, FRONT_DOOR);
        assert!(sat.is_solvable());
        assert!(search.decision_map(&sat).is_none());
    }

    #[test]
    fn search_result_display_is_uniform() {
        let spec = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
        let (sat, _) = run(&fused(spec, 1), FRONT_DOOR);
        assert!(sat.to_string().contains("solvable"));
        assert!(SearchResult::Unsolvable.to_string().contains("unsolvable"));
    }

    #[test]
    fn solver_stats_reflect_work() {
        let search = fused(SymmetricGsb::wsb(3).unwrap().to_spec(), 2);
        let (result, stats) = run(&search, FRONT_DOOR);
        assert!(!result.is_solvable());
        assert!(stats.conflicts > 0);
        assert!(stats.propagations > 0);
        assert!(stats.workers >= 1);
    }
}
