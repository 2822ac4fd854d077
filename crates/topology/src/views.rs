//! Process views in iterated immediate snapshot (IIS) executions, and
//! their order-type canonicalization.
//!
//! A comparison-based algorithm cannot distinguish two local states whose
//! identity content is *order-isomorphic* (Section 2.2); the decision map
//! of any such algorithm is therefore constant on order-isomorphism
//! classes of views. [`View::signature`] computes a canonical form —
//! identities relabelled `1..k` preserving order, recursively — so that
//! two views get equal signatures iff they are order-isomorphic.

use std::collections::{BTreeSet, HashMap, HashSet};

/// The local state (view) of a process after some IIS rounds.
///
/// Identities are abstract positive integers; only their relative order is
/// meaningful (the solvability checker fixes them to `1..n`, justified by
/// Theorem 2).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum View {
    /// Initial state: the process knows only its own identity.
    Initial {
        /// The process's identity.
        id: u32,
    },
    /// State after one more IS round: the process saw the previous-round
    /// views of a set of processes (always including itself).
    Round {
        /// The observing process's identity.
        id: u32,
        /// `(identity, previous view)` for every process seen, sorted by
        /// identity.
        seen: Vec<(u32, View)>,
    },
}

impl View {
    /// The identity of the process holding this view.
    #[must_use]
    pub fn id(&self) -> u32 {
        match self {
            View::Initial { id } | View::Round { id, .. } => *id,
        }
    }

    /// The set of identities occurring anywhere in the view.
    #[must_use]
    pub fn id_support(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        self.collect_ids(&mut out);
        out
    }

    fn collect_ids(&self, out: &mut BTreeSet<u32>) {
        match self {
            View::Initial { id } => {
                out.insert(*id);
            }
            View::Round { id, seen } => {
                out.insert(*id);
                for (q, view) in seen {
                    out.insert(*q);
                    view.collect_ids(out);
                }
            }
        }
    }

    /// Rewrites every identity through `relabel` (an order-preserving map
    /// is supplied by [`View::signature`]).
    fn relabelled(&self, relabel: &dyn Fn(u32) -> u32) -> View {
        match self {
            View::Initial { id } => View::Initial { id: relabel(*id) },
            View::Round { id, seen } => View::Round {
                id: relabel(*id),
                seen: seen
                    .iter()
                    .map(|(q, v)| (relabel(*q), v.relabelled(relabel)))
                    .collect(),
            },
        }
    }

    /// The canonical order-type signature: identities relabelled to
    /// `1..k` by rank within [`View::id_support`]. Two views are
    /// order-isomorphic — indistinguishable to a comparison-based
    /// process — iff their signatures are equal.
    ///
    /// # Examples
    ///
    /// ```
    /// use gsb_topology::View;
    ///
    /// // Seeing {2,5} with own id 2 ≅ seeing {1,4} with own id 1…
    /// let a = View::one_round(2, &[2, 5]);
    /// let b = View::one_round(1, &[1, 4]);
    /// assert_eq!(a.signature(), b.signature());
    /// // …but not ≅ seeing {1,4} with own id 4.
    /// let c = View::one_round(4, &[1, 4]);
    /// assert_ne!(a.signature(), c.signature());
    /// ```
    #[must_use]
    pub fn signature(&self) -> View {
        let support: Vec<u32> = self.id_support().into_iter().collect();
        let relabel = |id: u32| -> u32 {
            (support
                .binary_search(&id)
                .expect("id is in its own support") as u32)
                + 1
        };
        self.relabelled(&relabel)
    }

    /// The canonical signature of this view with the identity *order
    /// reversed* (largest ↔ smallest).
    ///
    /// Order-reversal normalizes order-isomorphism: if `v ≅ w` then
    /// `rev(v) ≅ rev(w)` (conjugating an order-preserving support
    /// bijection by two reversals is again order-preserving), so this
    /// descends to a well-defined involution on signature classes — the
    /// one nontrivial view-signature symmetry the comparison-based
    /// quotient retains from the `S_n` relabelling group. The solver uses
    /// it (after re-verifying facet invariance) for orbit learning.
    #[must_use]
    pub fn reversed_signature(&self) -> View {
        fn reverse(view: &View, s: u32) -> View {
            match view {
                View::Initial { id } => View::Initial { id: s + 1 - id },
                View::Round { id, seen } => {
                    let mut seen: Vec<(u32, View)> = seen
                        .iter()
                        .map(|(q, inner)| (s + 1 - q, reverse(inner, s)))
                        .collect();
                    seen.sort();
                    View::Round {
                        id: s + 1 - id,
                        seen,
                    }
                }
            }
        }
        let signature = self.signature();
        let s = signature.id_support().len() as u32;
        // A signature's support is exactly 1..=s, so id ↦ s+1−id is a
        // bijection on it; seen-lists are re-sorted on the way.
        reverse(&signature, s).signature()
    }

    /// Convenience constructor for a one-round view: process `id` saw the
    /// initial states of `seen_ids` (must contain `id`).
    ///
    /// # Panics
    ///
    /// Panics if `seen_ids` does not contain `id`.
    #[must_use]
    pub fn one_round(id: u32, seen_ids: &[u32]) -> View {
        assert!(seen_ids.contains(&id), "a process always sees itself");
        let mut seen: Vec<(u32, View)> = seen_ids
            .iter()
            .map(|&q| (q, View::Initial { id: q }))
            .collect();
        seen.sort();
        View::Round { id, seen }
    }

    /// Number of rounds this view has been through.
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            View::Initial { .. } => 0,
            View::Round { seen, .. } => 1 + seen.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
        }
    }
}

/// Handle to a view interned in a [`ViewArena`].
///
/// Keys are dense `u32` indices: equality of keys from the same arena is
/// equality of views, so the subdivision builder and the solvability
/// front-end compare and hash views in O(1) instead of walking the
/// recursive [`View`] tree. Keys are issued in creation order, and a node
/// can only reference already-interned children — so ascending key order
/// is a topological order of the view DAG (children before parents), a
/// fact the iterative signature machinery leans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewKey(u32);

impl ViewKey {
    /// The dense arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a key from a dense arena index (builder internals only:
    /// the index must have come from the same arena).
    pub(crate) fn from_index(index: usize) -> ViewKey {
        ViewKey(u32::try_from(index).expect("arena fits in u32"))
    }
}

/// One interned view: the observer's identity plus what it saw, as keys.
/// An empty `seen` encodes [`View::Initial`]; a [`View::Round`] always
/// sees at least itself, so the encoding is unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ViewNode {
    id: u32,
    seen: Box<[(u32, ViewKey)]>,
}

/// One multiply-xor mixing step (fxhash-style): fast enough for the
/// hot interning and dedup paths, where SipHash was a measurable cost.
/// Collisions are handled by content comparison everywhere, so hash
/// quality only affects probe lengths, never correctness.
#[inline]
pub(crate) fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Content hash of a view node (observer id plus seen list); the
/// streaming builder computes the same hash incrementally via
/// [`node_hash_seed`] and [`node_hash_pair`].
fn node_hash(id: u32, seen: &[(u32, ViewKey)]) -> u64 {
    let mut hash = node_hash_seed(id, seen.len());
    for &pair in seen {
        hash = node_hash_pair(hash, pair);
    }
    hash
}

/// Starts a node-content hash (observer id plus seen length).
#[inline]
pub(crate) fn node_hash_seed(id: u32, seen_len: usize) -> u64 {
    fx_mix(u64::from(id), seen_len as u64)
}

/// Folds one `(identity, previous view)` pair into a node-content hash.
#[inline]
pub(crate) fn node_hash_pair(hash: u64, (q, key): (u32, ViewKey)) -> u64 {
    fx_mix(hash, (u64::from(q) << 32) | u64::from(key.0))
}

/// A minimal open-addressing hash table mapping 64-bit content hashes to
/// `u32` payloads (arena keys, row offsets, …), with linear probing and
/// caller-supplied equality — the shared engine under the arena's
/// interning index, the streaming builder's frontier dedup, and the
/// signature relabel memo. Unlike `HashMap<u64, Vec<u32>>` buckets it
/// allocates nothing per entry; stored hashes make growth a plain
/// reinsertion sweep. No deletions.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbeTable {
    /// `(content hash, payload)`; [`ProbeTable::EMPTY`] payload = free.
    slots: Box<[(u64, u32)]>,
    len: usize,
}

impl ProbeTable {
    const EMPTY: u32 = u32::MAX;

    /// A table pre-sized for about `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> ProbeTable {
        let slots = (capacity * 2).next_power_of_two().max(16);
        ProbeTable {
            slots: vec![(0, Self::EMPTY); slots].into_boxed_slice(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(hash: u64, mask: usize) -> usize {
        // The multiply mixes into the high bits; fold them down before
        // masking.
        (hash ^ (hash >> 32)) as usize & mask
    }

    /// Looks up the payload whose stored hash equals `hash` and for
    /// which `eq` confirms content equality.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_of(hash, mask);
        loop {
            let (stored, payload) = self.slots[slot];
            if payload == Self::EMPTY {
                return None;
            }
            if stored == hash && eq(payload) {
                return Some(payload);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts `payload` under `hash` (the caller has already ruled out
    /// a duplicate via [`ProbeTable::find`]).
    pub(crate) fn insert(&mut self, hash: u64, payload: u32) {
        debug_assert_ne!(payload, Self::EMPTY, "payload space is 0..u32::MAX-1");
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_of(hash, mask);
        while self.slots[slot].1 != Self::EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = (hash, payload);
        self.len += 1;
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(
            &mut self.slots,
            vec![(0, Self::EMPTY); capacity].into_boxed_slice(),
        );
        let mask = capacity - 1;
        for (hash, payload) in old {
            if payload != Self::EMPTY {
                let mut slot = Self::slot_of(hash, mask);
                while self.slots[slot].1 != Self::EMPTY {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = (hash, payload);
            }
        }
    }
}

/// A hash-consing arena for [`View`]s.
///
/// Structurally equal views share one `u32` key, nested views share
/// subtrees, and canonical signatures ([`View::signature`]) are memoized
/// per key — the subdivision builder interns each round's views instead
/// of deep-cloning recursive trees, and the solvability front-end maps
/// vertices to symmetry classes by key without re-hashing whole views.
///
/// Nodes are stored once; the lookup index is a [`ProbeTable`] mapping a
/// 64-bit content hash to keys, so probing for an existing view hashes a
/// scratch slice instead of allocating a candidate node
/// ([`ViewArena::round_from_slice`] is the zero-allocation hit path the
/// streaming subdivision builder stamps templates through).
///
/// Every node also carries its **identity-support bitmask** (ids `1..64`
/// as bits, maintained incrementally at intern time), which is what
/// makes [`ViewArena::signature`] cheap: the canonical relabelling of a
/// node under an order-preserving map is determined by the *image mask*
/// of its support, so relabel results are memoized globally per
/// `(key, image mask)` — shared sub-DAGs are relabelled once across all
/// signature computations, and an already-canonical node (support equal
/// to the image) returns itself without any walk. Views with identities
/// outside `1..64` fall back to an explicit-map walk (still per-call
/// memoized, so shared sub-DAGs stay linear).
#[derive(Debug, Default, Clone)]
pub struct ViewArena {
    nodes: Vec<ViewNode>,
    /// Identity-support bitmask per node (bit `i` ⟺ identity `i + 1`);
    /// `0` marks an identity outside `1..64` somewhere in the sub-DAG
    /// (the slow relabel path).
    support: Vec<u64>,
    /// Content-hash index over `nodes`.
    index: ProbeTable,
    /// Memoized canonical signature per key (`u32::MAX` = not yet
    /// computed), dense like the arena itself.
    signatures: Vec<u32>,
    /// Relabel memo: `(key, image mask) → relabelled key`, entries in
    /// `relabel_entries`, probed by hash.
    relabel_memo: ProbeTable,
    relabel_entries: Vec<(u32, u64, u32)>,
    /// Arbitrary-permutation memo: `(key, perm id) → permuted key`,
    /// entries in `perm_entries`, probed by hash. Backs
    /// [`ViewArena::permute`], the non-order-preserving relabel the
    /// orbit-quotient pipeline streams the `S_n` action through.
    perm_memo: ProbeTable,
    perm_entries: Vec<(u32, u32, u32)>,
}

/// The support bit of one identity (`0` = outside the mask domain).
#[inline]
fn support_bit(id: u32) -> u64 {
    if (1..=64).contains(&id) {
        1u64 << (id - 1)
    } else {
        0
    }
}

/// The identity that `id` maps to under the unique order-preserving
/// bijection from support mask `s` onto image mask `t`.
#[inline]
fn relabel_id(s: u64, t: u64, id: u32) -> u32 {
    let rank = (s & (support_bit(id) - 1)).count_ones();
    let mut rest = t;
    for _ in 0..rank {
        rest &= rest - 1;
    }
    rest.trailing_zeros() + 1
}

/// The image of sub-support `sub ⊆ s` under the order-preserving
/// bijection `s → t`.
#[inline]
fn image_mask(s: u64, t: u64, sub: u64) -> u64 {
    let mut out = 0u64;
    let mut rest = sub;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        out |= support_bit(relabel_id(s, t, bit.trailing_zeros() + 1));
        rest ^= bit;
    }
    out
}

impl ViewArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct views interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns the node `(id, seen)`; `seen` must already be sorted.
    /// Allocates only when the node is new.
    fn intern_slice(&mut self, id: u32, seen: &[(u32, ViewKey)]) -> ViewKey {
        let hash = node_hash(id, seen);
        self.intern_slice_hashed(id, seen, hash)
    }

    fn intern_slice_hashed(&mut self, id: u32, seen: &[(u32, ViewKey)], hash: u64) -> ViewKey {
        debug_assert!(seen.windows(2).all(|w| w[0] <= w[1]), "seen must be sorted");
        let nodes = &self.nodes;
        if let Some(existing) = self.index.find(hash, |key| {
            let node = &nodes[key as usize];
            node.id == id && *node.seen == *seen
        }) {
            return ViewKey(existing);
        }
        let key = ViewKey(u32::try_from(self.nodes.len()).expect("arena fits in u32"));
        // Incremental support: own id plus every seen id and sub-support;
        // any identity outside the mask domain poisons the whole mask.
        let mut mask = support_bit(id);
        if mask != 0 {
            for &(q, inner) in seen {
                let sub = self.support[inner.index()];
                if support_bit(q) == 0 || sub == 0 {
                    mask = 0;
                    break;
                }
                mask |= support_bit(q) | sub;
            }
        }
        self.nodes.push(ViewNode {
            id,
            seen: seen.into(),
        });
        self.support.push(mask);
        self.signatures.push(u32::MAX);
        self.index.insert(hash, key.0);
        key
    }

    /// Interns the initial view of process `id`.
    pub fn initial(&mut self, id: u32) -> ViewKey {
        self.intern_slice(id, &[])
    }

    /// Interns a one-more-round view: process `id` saw `seen`
    /// (`(identity, previous view)` pairs; sorted here, must be
    /// non-empty — a process always sees itself — with **distinct**
    /// identities, since one IS round shows each process at most once).
    ///
    /// # Panics
    ///
    /// Panics if `seen` is empty or repeats an identity (a repeated
    /// identity is a malformed view: the relabelling machinery relies on
    /// seen lists being strictly id-sorted).
    pub fn round(&mut self, id: u32, mut seen: Vec<(u32, ViewKey)>) -> ViewKey {
        assert!(!seen.is_empty(), "a process always sees itself");
        seen.sort_unstable();
        assert!(
            seen.windows(2).all(|w| w[0].0 < w[1].0),
            "a process is seen at most once per round"
        );
        self.intern_slice(id, &seen)
    }

    /// [`ViewArena::round`] without the owned argument: interns process
    /// `id`'s one-more-round view from an already **identity-sorted**
    /// scratch slice (distinct identities, like [`ViewArena::round`]),
    /// allocating nothing when the view exists. This is the hot path of
    /// the streaming subdivision builder, which stamps round templates
    /// through a reused scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `seen` is empty; sortedness and identity distinctness
    /// are debug-checked.
    pub fn round_from_slice(&mut self, id: u32, seen: &[(u32, ViewKey)]) -> ViewKey {
        assert!(!seen.is_empty(), "a process always sees itself");
        debug_assert!(
            seen.windows(2).all(|w| w[0].0 < w[1].0),
            "seen lists are strictly id-sorted"
        );
        self.intern_slice(id, seen)
    }

    /// [`ViewArena::round_from_slice`] with the content hash already
    /// computed (the builder folds hashing into its template scratch
    /// fill, saving one pass over `seen` per stamped view).
    pub(crate) fn round_prehashed(
        &mut self,
        id: u32,
        seen: &[(u32, ViewKey)],
        hash: u64,
    ) -> ViewKey {
        debug_assert!(!seen.is_empty(), "a process always sees itself");
        debug_assert_eq!(hash, node_hash(id, seen));
        self.intern_slice_hashed(id, seen, hash)
    }

    /// Interns a recursive [`View`], sharing any subtrees already present.
    pub fn intern(&mut self, view: &View) -> ViewKey {
        match view {
            View::Initial { id } => self.initial(*id),
            View::Round { id, seen } => {
                let seen_keys: Vec<(u32, ViewKey)> = seen
                    .iter()
                    .map(|(q, inner)| (*q, self.intern(inner)))
                    .collect();
                self.round(*id, seen_keys)
            }
        }
    }

    /// Materializes the recursive [`View`] behind `key`.
    #[must_use]
    pub fn view(&self, key: ViewKey) -> View {
        let node = &self.nodes[key.index()];
        if node.seen.is_empty() {
            View::Initial { id: node.id }
        } else {
            View::Round {
                id: node.id,
                seen: node
                    .seen
                    .iter()
                    .map(|&(q, inner)| (q, self.view(inner)))
                    .collect(),
            }
        }
    }

    /// The identity of the process holding view `key`.
    #[must_use]
    pub fn id(&self, key: ViewKey) -> u32 {
        self.nodes[key.index()].id
    }

    /// The keys of the sub-DAG reachable from `key` (including `key`),
    /// ascending — which is children-before-parents order, since a node
    /// can only reference already-interned keys. Iterative, and each
    /// shared subtree is visited once (the seed walked shared sub-DAGs
    /// once *per path*, which is exponential on hash-consed chains).
    fn reachable(&self, key: ViewKey) -> Vec<ViewKey> {
        let mut visited: HashSet<ViewKey> = HashSet::new();
        let mut stack = vec![key];
        visited.insert(key);
        while let Some(k) = stack.pop() {
            for &(_, inner) in self.nodes[k.index()].seen.iter() {
                if visited.insert(inner) {
                    stack.push(inner);
                }
            }
        }
        let mut keys: Vec<ViewKey> = visited.into_iter().collect();
        keys.sort_unstable();
        keys
    }

    fn collect_support(&self, key: ViewKey, out: &mut BTreeSet<u32>) {
        for k in self.reachable(key) {
            let node = &self.nodes[k.index()];
            out.insert(node.id);
            for &(q, _) in node.seen.iter() {
                out.insert(q);
            }
        }
    }

    /// Rewrites every identity of `key`'s view through `map`, interning
    /// the result. Iterative bottom-up over the reachable sub-DAG with a
    /// per-call memo, so shared subtrees are relabelled exactly once.
    /// `map` must be order-preserving on the support (seen lists stay
    /// sorted). This is the fallback for identities outside the support
    /// bitmask's `1..64` domain; in-domain views take the memoized
    /// [`ViewArena::relabel_masked`] path.
    fn relabel(&mut self, key: ViewKey, map: &HashMap<u32, u32>) -> ViewKey {
        let mut relabelled: HashMap<ViewKey, ViewKey> = HashMap::new();
        let mut scratch: Vec<(u32, ViewKey)> = Vec::new();
        for k in self.reachable(key) {
            let node = &self.nodes[k.index()];
            let id = map[&node.id];
            scratch.clear();
            scratch.extend(
                node.seen
                    .iter()
                    .map(|&(q, inner)| (map[&q], relabelled[&inner])),
            );
            debug_assert!(
                scratch.windows(2).all(|w| w[0] <= w[1]),
                "order-preserving relabel keeps seen lists sorted"
            );
            let image = if scratch.is_empty() {
                self.initial(id)
            } else {
                self.round_from_slice(id, &scratch)
            };
            relabelled.insert(k, image);
        }
        relabelled[&key]
    }

    /// Relabels `key` under the unique order-preserving bijection from
    /// its support mask onto `t_mask`, memoized globally per
    /// `(key, t_mask)` — so shared sub-DAGs are relabelled once *across*
    /// signature computations, and the identity case (`support ==
    /// t_mask`) is free. Recursion depth is the view depth; the memo
    /// keeps the walk linear in distinct `(node, image)` pairs.
    fn relabel_masked(&mut self, key: ViewKey, t_mask: u64) -> ViewKey {
        let s_mask = self.support[key.index()];
        debug_assert_eq!(s_mask.count_ones(), t_mask.count_ones());
        if s_mask == t_mask {
            return key;
        }
        let hash = fx_mix(u64::from(key.0), t_mask);
        let entries = &self.relabel_entries;
        if let Some(hit) = self.relabel_memo.find(hash, |entry| {
            let (k, t, _) = entries[entry as usize];
            k == key.0 && t == t_mask
        }) {
            return ViewKey(self.relabel_entries[hit as usize].2);
        }
        let node = self.nodes[key.index()].clone();
        let mut seen: Vec<(u32, ViewKey)> = Vec::with_capacity(node.seen.len());
        for &(q, inner) in node.seen.iter() {
            let inner_t = image_mask(s_mask, t_mask, self.support[inner.index()]);
            seen.push((
                relabel_id(s_mask, t_mask, q),
                self.relabel_masked(inner, inner_t),
            ));
        }
        let id = relabel_id(s_mask, t_mask, node.id);
        let image = if seen.is_empty() {
            self.initial(id)
        } else {
            debug_assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "order-preserving relabel keeps seen lists sorted"
            );
            self.round_from_slice(id, &seen)
        };
        let entry = u32::try_from(self.relabel_entries.len()).expect("memo fits in u32");
        self.relabel_entries.push((key.0, t_mask, image.0));
        self.relabel_memo.insert(hash, entry);
        image
    }

    /// Rewrites every identity of `key`'s view through the bijection
    /// `perm` (`perm[i]` = image of identity `i + 1`), re-sorting seen
    /// lists along the way — the **arbitrary-permutation** relabel
    /// behind the orbit-quotient pipeline. Unlike
    /// [`ViewArena::relabel_masked`], `perm` need not be
    /// order-preserving; every identity in the view must lie in
    /// `1..=perm.len()`.
    ///
    /// Memoized globally per `(key, perm_id)`; the caller guarantees
    /// `perm_id` stably identifies `perm` for this arena's lifetime
    /// (the builders index their fixed group enumeration). A
    /// permutation whose restriction to the view's support is
    /// order-preserving (the identity included) short-circuits through
    /// the mask-relabel memo, so orbit scans pay nothing for the group
    /// elements that fix a view's order type.
    pub(crate) fn permute(&mut self, key: ViewKey, perm: &[u32], perm_id: u32) -> ViewKey {
        let mask = self.support[key.index()];
        if mask != 0 {
            // Order-preserving on the support ⇒ the unique mask relabel.
            let mut image_mask = 0u64;
            let mut prev = 0u32;
            let mut monotone = true;
            let mut rest = mask;
            while rest != 0 {
                let id = rest.trailing_zeros() + 1;
                rest &= rest - 1;
                let to = perm[(id - 1) as usize];
                let bit = support_bit(to);
                if to <= prev || bit == 0 {
                    monotone = false;
                    break;
                }
                prev = to;
                image_mask |= bit;
            }
            if monotone {
                return self.relabel_masked(key, image_mask);
            }
        }
        let hash = fx_mix(u64::from(key.0), u64::from(perm_id));
        let entries = &self.perm_entries;
        if let Some(hit) = self.perm_memo.find(hash, |entry| {
            let (k, p, _) = entries[entry as usize];
            k == key.0 && p == perm_id
        }) {
            return ViewKey(self.perm_entries[hit as usize].2);
        }
        let node = self.nodes[key.index()].clone();
        let mut seen: Vec<(u32, ViewKey)> = node
            .seen
            .iter()
            .map(|&(q, inner)| (perm[(q - 1) as usize], self.permute(inner, perm, perm_id)))
            .collect();
        seen.sort_unstable();
        let id = perm[(node.id - 1) as usize];
        let image = if seen.is_empty() {
            self.initial(id)
        } else {
            self.round_from_slice(id, &seen)
        };
        let entry = u32::try_from(self.perm_entries.len()).expect("memo fits in u32");
        self.perm_entries.push((key.0, perm_id, image.0));
        self.perm_memo.insert(hash, entry);
        image
    }

    /// The keys reachable from any of `roots` (roots included),
    /// ascending — children before parents, the order bottom-up image
    /// assembly wants.
    pub(crate) fn reachable_closure(&self, roots: &[ViewKey]) -> Vec<ViewKey> {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack: Vec<ViewKey> = Vec::new();
        for &root in roots {
            if !visited[root.index()] {
                visited[root.index()] = true;
                stack.push(root);
            }
        }
        while let Some(k) = stack.pop() {
            for &(_, inner) in self.nodes[k.index()].seen.iter() {
                if !visited[inner.index()] {
                    visited[inner.index()] = true;
                    stack.push(inner);
                }
            }
        }
        visited
            .iter()
            .enumerate()
            .filter(|&(_, &seen)| seen)
            .map(|(i, _)| ViewKey::from_index(i))
            .collect()
    }

    /// Images of a whole sub-DAG under the bijection `perm`, assembled
    /// bottom-up: for every key of `closure` (ascending — children
    /// before parents, see [`ViewArena::reachable_closure`]),
    /// `column[key] = image key + 1`. Child images are dense array
    /// reads, so the only hashing left is one intern probe per node —
    /// the bulk form of [`ViewArena::permute`] the orbit pipeline's
    /// constraint expansion runs on.
    pub(crate) fn permute_column(
        &mut self,
        closure: &[ViewKey],
        perm: &[u32],
        column: &mut Vec<u32>,
    ) {
        if column.len() < self.nodes.len() {
            column.resize(self.nodes.len(), 0);
        }
        let mut scratch: Vec<(u32, ViewKey)> = Vec::new();
        for &key in closure {
            let id = {
                let node = &self.nodes[key.index()];
                scratch.clear();
                for &(q, child) in node.seen.iter() {
                    debug_assert_ne!(column[child.index()], 0, "children precede parents");
                    scratch.push((
                        perm[(q - 1) as usize],
                        ViewKey::from_index(column[child.index()] as usize - 1),
                    ));
                }
                perm[(node.id - 1) as usize]
            };
            scratch.sort_unstable();
            let image = if scratch.is_empty() {
                self.initial(id)
            } else {
                self.round_from_slice(id, &scratch)
            };
            column[key.index()] = u32::try_from(image.index() + 1).expect("arena fits in u32");
        }
    }

    /// Number of distinct identities in `key`'s view (the size of its
    /// [`View::id_support`]).
    pub(crate) fn support_len(&self, key: ViewKey) -> u32 {
        let mask = self.support[key.index()];
        if mask != 0 {
            mask.count_ones()
        } else {
            let mut support = BTreeSet::new();
            self.collect_support(key, &mut support);
            u32::try_from(support.len()).expect("support fits in u32")
        }
    }

    /// Compares the views behind two keys exactly as the derived
    /// [`Ord`] on materialized [`View`]s would — without materializing
    /// either, and in O(1) on shared sub-views (hash-consing makes equal
    /// views equal keys). Sorts a quotient's classes; the pairwise
    /// reference [`ViewArena::view_order_ranks`] is tested against.
    pub(crate) fn cmp_views(&self, a: ViewKey, b: ViewKey) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        let (na, nb) = (&self.nodes[a.index()], &self.nodes[b.index()]);
        // `View`'s derived Ord: `Initial < Round`, then fields in
        // declaration order; `seen` compares element-wise (id first,
        // then the nested view), shorter prefix first.
        match (na.seen.is_empty(), nb.seen.is_empty()) {
            (true, true) => na.id.cmp(&nb.id),
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => na.id.cmp(&nb.id).then_with(|| {
                for (&(qa, ia), &(qb, ib)) in na.seen.iter().zip(nb.seen.iter()) {
                    let by_id = qa.cmp(&qb);
                    if by_id != Ordering::Equal {
                        return by_id;
                    }
                    let by_view = self.cmp_views(ia, ib);
                    if by_view != Ordering::Equal {
                        return by_view;
                    }
                }
                na.seen.len().cmp(&nb.seen.len())
            }),
        }
    }

    /// View-order ranks of **every** interned node: `ranks[a] <
    /// ranks[b]` iff the view behind key `a` precedes the view behind
    /// key `b` in the derived [`Ord`] on materialized [`View`]s. One
    /// bulk computation in linear passes — layered by view depth, each
    /// node compared through its children's already-assigned ranks —
    /// instead of `O(N log N)` recursive [`ViewArena::cmp_views`]
    /// walks; the orbit pipeline orders tens of thousands of signature
    /// classes through this in single-digit milliseconds.
    pub(crate) fn view_order_ranks(&self) -> Vec<u32> {
        let count = self.nodes.len();
        // Depth per node; children precede parents in key order.
        let mut depth = vec![0u32; count];
        let mut max_depth = 0u32;
        for i in 0..count {
            let d = self.nodes[i]
                .seen
                .iter()
                .map(|&(_, c)| depth[c.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            max_depth = max_depth.max(d);
        }
        // Grow a cumulative sorted order layer by layer. Children of a
        // depth-d node all have smaller depth, so their ranks are valid
        // when the layer is sorted; merging shifts positions but never
        // reorders already-placed nodes (rank comparisons are
        // order-isomorphic under the shift).
        let mut ranks = vec![0u32; count];
        let mut sorted: Vec<u32> = Vec::with_capacity(count);
        let mut by_depth: Vec<Vec<u32>> = vec![Vec::new(); max_depth as usize + 1];
        for (i, &d) in depth.iter().enumerate() {
            by_depth[d as usize].push(u32::try_from(i).expect("arena fits in u32"));
        }
        for mut layer in by_depth {
            layer.sort_unstable_by(|&a, &b| self.cmp_by_ranks(a, b, &ranks));
            let mut merged = Vec::with_capacity(sorted.len() + layer.len());
            let (mut i, mut j) = (0, 0);
            while i < sorted.len() && j < layer.len() {
                if self.cmp_by_ranks(sorted[i], layer[j], &ranks).is_lt() {
                    merged.push(sorted[i]);
                    i += 1;
                } else {
                    merged.push(layer[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&sorted[i..]);
            merged.extend_from_slice(&layer[j..]);
            sorted = merged;
            for (pos, &k) in sorted.iter().enumerate() {
                ranks[k as usize] = u32::try_from(pos).expect("arena fits in u32");
            }
        }
        ranks
    }

    /// [`ViewArena::cmp_views`] with child comparisons replaced by
    /// rank lookups (valid whenever both children's ranks are final).
    fn cmp_by_ranks(&self, a: u32, b: u32, ranks: &[u32]) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        match (na.seen.is_empty(), nb.seen.is_empty()) {
            (true, true) => na.id.cmp(&nb.id),
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => na.id.cmp(&nb.id).then_with(|| {
                for (&(qa, ia), &(qb, ib)) in na.seen.iter().zip(nb.seen.iter()) {
                    let by_id = qa.cmp(&qb);
                    if by_id != Ordering::Equal {
                        return by_id;
                    }
                    let by_rank = ranks[ia.index()].cmp(&ranks[ib.index()]);
                    if by_rank != Ordering::Equal {
                        return by_rank;
                    }
                }
                na.seen.len().cmp(&nb.seen.len())
            }),
        }
    }

    /// The canonical order-type signature of `key`, as a key — identities
    /// relabelled to `1..k` by rank within the support, exactly like
    /// [`View::signature`], but memoized per interned view.
    pub fn signature(&mut self, key: ViewKey) -> ViewKey {
        let memo = self.signatures[key.index()];
        if memo != u32::MAX {
            return ViewKey(memo);
        }
        let mask = self.support[key.index()];
        let sig = if mask != 0 {
            let k = mask.count_ones();
            let canonical = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
            self.relabel_masked(key, canonical)
        } else {
            let mut support = BTreeSet::new();
            self.collect_support(key, &mut support);
            let map: HashMap<u32, u32> = support
                .into_iter()
                .enumerate()
                .map(|(rank, id)| (id, rank as u32 + 1))
                .collect();
            self.relabel(key, &map)
        };
        self.signatures[key.index()] = sig.0;
        sig
    }
}

/// One ordered partition of `{0..n}` in flat **round-template** form:
/// the per-process "sees prefix of length k" index maps the streaming
/// subdivision builder stamps facets through.
///
/// A process in block `B_j` of the ordered partition `(B_1, …, B_k)`
/// sees exactly `B_1 ∪ … ∪ B_j`. The template precomputes, for every
/// process index `p`, that union as a sorted slice of process indices —
/// so applying one immediate-snapshot round to a facet's view tuple is
/// pure index arithmetic: `next[p] = round(p + 1, [(q + 1, views[q]) for
/// q in seen_of(p)])`, with no per-process set construction, cloning, or
/// re-sorting.
///
/// Rows are stored concatenated CSR-style (`seen[offsets[p]..offsets[p +
/// 1]]`), one allocation pair per template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTemplate {
    /// Block index (position in the ordered partition, `0`-based) of
    /// each process index.
    block: Box<[u32]>,
    /// Concatenated sorted seen-lists, as `0`-based process indices.
    seen: Box<[u32]>,
    /// Row boundaries into `seen`; length `n + 1`.
    offsets: Box<[u32]>,
}

impl RoundTemplate {
    /// Builds the template of the ordered partition encoded by `block`
    /// (`block[q]` = index of the block containing process `q`; block
    /// indices must cover `0..=max` with no gaps).
    fn from_blocks(block: &[u32]) -> RoundTemplate {
        let n = block.len();
        let mut seen = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for p in 0..n {
            for q in 0..n {
                if block[q] <= block[p] {
                    seen.push(q as u32);
                }
            }
            offsets.push(u32::try_from(seen.len()).expect("template fits in u32"));
        }
        RoundTemplate {
            block: block.into(),
            seen: seen.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
        }
    }

    /// Number of processes the template schedules.
    #[must_use]
    pub fn n(&self) -> usize {
        self.block.len()
    }

    /// The sorted `0`-based process indices seen by process index `p`
    /// under this round's schedule (always contains `p`).
    #[must_use]
    pub fn seen_of(&self, p: usize) -> &[u32] {
        &self.seen[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// The raw block-assignment vector (`block[q]` = ordered-partition
    /// block index of process index `q`) — the orbit pipeline keys its
    /// template-permutation table on it.
    pub(crate) fn block_assignment(&self) -> &[u32] {
        &self.block
    }

    /// The ordered partition as explicit blocks of the given `items`
    /// (`items[q]` replaces process index `q`) — the adapter behind the
    /// retained [`ordered_partitions`] API.
    #[must_use]
    pub fn blocks(&self, items: &[u32]) -> Vec<Vec<u32>> {
        assert_eq!(items.len(), self.block.len(), "one item per process");
        let k = self.block.iter().max().map_or(0, |&b| b as usize + 1);
        let mut blocks = vec![Vec::new(); k];
        for (q, &b) in self.block.iter().enumerate() {
            blocks[b as usize].push(items[q]);
        }
        blocks
    }
}

/// All one-round immediate-snapshot schedules of `n` processes, as flat
/// [`RoundTemplate`]s — the ordered Bell number of them (1, 1, 3, 13,
/// 75, 541, 4683, … for `n` = 0, 1, 2, 3, 4, 5, 6).
///
/// The generator is **iterative** (the seed recursed over first-block
/// bitmasks, allocating intermediate partition vectors at every level):
/// an odometer sweeps block-assignment vectors `a ∈ {0..n−1}ⁿ` in
/// lexicographic order and keeps exactly the surjective ones (`a`'s
/// image is `{0..max}` with no gaps), each of which encodes one ordered
/// partition. The scan is `O(nⁿ)` against `fubini(n)` outputs — a
/// constant-factor overhead (< 10×) on the `n ≤ 6` domain the builders
/// operate in, with no recursion and no intermediate allocation.
#[must_use]
pub fn round_templates(n: usize) -> Vec<RoundTemplate> {
    if n == 0 {
        return vec![RoundTemplate::from_blocks(&[])];
    }
    let mut out = Vec::new();
    let mut assignment = vec![0u32; n];
    loop {
        // Keep surjective assignments: every block index up to the max
        // must be inhabited.
        let max = *assignment.iter().max().expect("n > 0");
        let mut inhabited = vec![false; max as usize + 1];
        for &b in &assignment {
            inhabited[b as usize] = true;
        }
        if inhabited.iter().all(|&b| b) {
            out.push(RoundTemplate::from_blocks(&assignment));
        }
        // Odometer step over {0..n−1}ⁿ.
        let Some(pos) = assignment.iter().rposition(|&b| (b as usize) < n - 1) else {
            break;
        };
        assignment[pos] += 1;
        assignment[pos + 1..].fill(0);
    }
    out
}

/// All *ordered partitions* (sequences of disjoint non-empty blocks
/// covering `items`) — the combinatorial skeleton of one-round IS
/// executions: processes in earlier blocks are seen by later blocks.
///
/// The count is the ordered Bell number: 1, 1, 3, 13, 75, 541, … for
/// `|items|` = 0, 1, 2, 3, 4, 5. This is a thin adapter over the flat
/// iterative generator ([`round_templates`]), retained for callers that
/// want explicit block lists.
///
/// # Examples
///
/// ```
/// use gsb_topology::views::ordered_partitions;
///
/// assert_eq!(ordered_partitions(&[1, 2]).len(), 3);
/// assert_eq!(ordered_partitions(&[1, 2, 3]).len(), 13);
/// ```
#[must_use]
pub fn ordered_partitions(items: &[u32]) -> Vec<Vec<Vec<u32>>> {
    round_templates(items.len())
        .iter()
        .map(|template| template.blocks(items))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_partition_counts_are_fubini_numbers() {
        assert_eq!(ordered_partitions(&[]).len(), 1);
        assert_eq!(ordered_partitions(&[1]).len(), 1);
        assert_eq!(ordered_partitions(&[1, 2]).len(), 3);
        assert_eq!(ordered_partitions(&[1, 2, 3]).len(), 13);
        assert_eq!(ordered_partitions(&[1, 2, 3, 4]).len(), 75);
    }

    #[test]
    fn template_counts_are_fubini_numbers_through_n6() {
        // The iterative generator pinned through n = 6 (the adapter above
        // covers the same counts for the explicit-blocks API).
        for (n, fubini) in [
            (0usize, 1usize),
            (1, 1),
            (2, 3),
            (3, 13),
            (4, 75),
            (5, 541),
            (6, 4683),
        ] {
            assert_eq!(round_templates(n).len(), fubini, "n = {n}");
        }
    }

    #[test]
    fn templates_encode_prefix_visibility() {
        // Every template row is sorted, contains its own process, and is
        // exactly the union of the blocks up to the process's own.
        for template in round_templates(4) {
            for p in 0..4 {
                let seen = template.seen_of(p);
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                assert!(seen.contains(&(p as u32)), "a process sees itself");
                for q in 0..4u32 {
                    let expected = template.block[q as usize] <= template.block[p];
                    assert_eq!(seen.contains(&q), expected, "prefix rule at p={p} q={q}");
                }
            }
            // The seen sets along one template are prefix unions, so they
            // are totally ordered by inclusion.
            for p in 0..4 {
                for q in 0..4 {
                    let (a, b) = (template.seen_of(p), template.seen_of(q));
                    if a.len() <= b.len() {
                        assert!(a.iter().all(|x| b.contains(x)), "prefix chains nest");
                    }
                }
            }
        }
    }

    #[test]
    fn template_blocks_adapter_matches_seed_partitions() {
        // The adapter reproduces the seed's recursive enumeration as a
        // set (order differs): same blocks, same multiplicities.
        fn seed_ordered_partitions(items: &[u32]) -> Vec<Vec<Vec<u32>>> {
            if items.is_empty() {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            let n = items.len();
            for mask in 1u32..(1 << n) {
                let mut block = Vec::new();
                let mut rest = Vec::new();
                for (i, &item) in items.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        block.push(item);
                    } else {
                        rest.push(item);
                    }
                }
                for mut tail in seed_ordered_partitions(&rest) {
                    let mut partition = vec![block.clone()];
                    partition.append(&mut tail);
                    out.push(partition);
                }
            }
            out
        }
        for items in [vec![1u32, 2, 3], vec![2, 5, 7, 9]] {
            let mut new: Vec<_> = ordered_partitions(&items);
            let mut seed = seed_ordered_partitions(&items);
            new.sort();
            seed.sort();
            assert_eq!(new, seed, "items = {items:?}");
        }
    }

    #[test]
    fn ordered_partitions_cover_and_are_disjoint() {
        for partition in ordered_partitions(&[1, 2, 3]) {
            let mut all: Vec<u32> = partition.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![1, 2, 3]);
            assert!(partition.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn signatures_identify_order_isomorphic_views() {
        // Solo views are all isomorphic regardless of id.
        let solo_a = View::one_round(3, &[3]);
        let solo_b = View::one_round(7, &[7]);
        assert_eq!(solo_a.signature(), solo_b.signature());

        // Own-rank-within-seen matters.
        let low = View::one_round(1, &[1, 5]);
        let high = View::one_round(5, &[1, 5]);
        assert_ne!(low.signature(), high.signature());

        // Size matters.
        let pair = View::one_round(1, &[1, 2]);
        let triple = View::one_round(1, &[1, 2, 3]);
        assert_ne!(pair.signature(), triple.signature());
    }

    #[test]
    fn signature_is_idempotent() {
        let v = View::one_round(4, &[2, 4, 9]);
        assert_eq!(v.signature(), v.signature().signature());
    }

    #[test]
    fn nested_views_canonicalize_recursively() {
        // p3 saw p1's solo view in round 2; relabelling must reach inside.
        let inner_a = View::one_round(1, &[1]);
        let outer_a = View::Round {
            id: 3,
            seen: vec![(1, inner_a.clone()), (3, View::one_round(3, &[1, 3]))],
        };
        let inner_b = View::one_round(2, &[2]);
        let outer_b = View::Round {
            id: 9,
            seen: vec![(2, inner_b.clone()), (9, View::one_round(9, &[2, 9]))],
        };
        assert_eq!(outer_a.signature(), outer_b.signature());
    }

    #[test]
    fn depth_counts_rounds() {
        assert_eq!(View::Initial { id: 1 }.depth(), 0);
        assert_eq!(View::one_round(1, &[1, 2]).depth(), 1);
        let nested = View::Round {
            id: 1,
            seen: vec![(1, View::one_round(1, &[1]))],
        };
        assert_eq!(nested.depth(), 2);
    }

    #[test]
    fn reversed_signature_is_an_involution_swapping_ranks() {
        // "Self low of a pair" ↔ "self high of a pair".
        let low = View::one_round(1, &[1, 5]).signature();
        let high = View::one_round(5, &[1, 5]).signature();
        assert_eq!(low.reversed_signature(), high);
        assert_eq!(high.reversed_signature(), low);
        // Involution on a deeper view.
        let nested = View::Round {
            id: 3,
            seen: vec![
                (1, View::one_round(1, &[1])),
                (3, View::one_round(3, &[1, 3])),
            ],
        };
        let rev = nested.reversed_signature();
        assert_eq!(rev.reversed_signature(), nested.signature());
        // Solo views are rank-symmetric: fixed by reversal.
        let solo = View::one_round(4, &[4]);
        assert_eq!(solo.reversed_signature(), solo.signature());
    }

    #[test]
    fn arena_interning_matches_structural_equality() {
        let mut arena = ViewArena::new();
        let a = arena.intern(&View::one_round(2, &[2, 5]));
        let b = arena.intern(&View::one_round(2, &[2, 5]));
        let c = arena.intern(&View::one_round(2, &[2, 4]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.view(a), View::one_round(2, &[2, 5]));
    }

    #[test]
    fn arena_signature_agrees_with_view_signature() {
        let mut arena = ViewArena::new();
        let views = [
            View::one_round(2, &[2, 5]),
            View::one_round(1, &[1, 4]),
            View::one_round(4, &[1, 4]),
            View::Round {
                id: 9,
                seen: vec![
                    (2, View::one_round(2, &[2])),
                    (9, View::one_round(9, &[2, 9])),
                ],
            },
        ];
        for view in &views {
            let key = arena.intern(view);
            let sig = arena.signature(key);
            assert_eq!(arena.view(sig), view.signature(), "{view:?}");
            // Memoized: second call is the same key.
            assert_eq!(arena.signature(key), sig);
        }
        // Order-isomorphic views share one signature key.
        let a = arena.intern(&views[0]);
        let b = arena.intern(&views[1]);
        assert_eq!(arena.signature(a), arena.signature(b));
    }

    #[test]
    fn arena_round_trip_preserves_nested_views() {
        let mut arena = ViewArena::new();
        let nested = View::Round {
            id: 3,
            seen: vec![
                (1, View::one_round(1, &[1])),
                (3, View::one_round(3, &[1, 3])),
            ],
        };
        let key = arena.intern(&nested);
        assert_eq!(arena.view(key), nested);
        assert_eq!(arena.id(key), 3);
    }

    #[test]
    fn deep_shared_dag_signature_is_linear_not_exponential() {
        // Regression: `relabel`/`collect_support` used to recurse once per
        // *path*, so a hash-consed chain where each level references both
        // previous-level views fanned out to 2^depth walks. At depth 64
        // that would never terminate; the memoized iterative walk visits
        // each of the ~2·depth shared nodes once.
        let mut arena = ViewArena::new();
        let depth = 64u32;
        let (mut a, mut b) = (arena.initial(1), arena.initial(2));
        for _ in 0..depth {
            let next_a = arena.round(1, vec![(1, a), (2, b)]);
            let next_b = arena.round(2, vec![(1, a), (2, b)]);
            (a, b) = (next_a, next_b);
        }
        let interned_before = arena.len();
        let sig_a = arena.signature(a);
        let sig_b = arena.signature(b);
        assert_ne!(sig_a, sig_b, "own rank differs");
        // Ids 1..2 are already canonical, so the signature is the view
        // itself and relabelling interned nothing new.
        assert_eq!(sig_a, a);
        assert_eq!(sig_b, b);
        assert_eq!(arena.len(), interned_before);
        // A non-canonical support ({3,7}) exercises the relabelling walk
        // itself on the same deep DAG shape.
        let (mut c, mut d) = (arena.initial(3), arena.initial(7));
        for _ in 0..depth {
            let next_c = arena.round(3, vec![(3, c), (7, d)]);
            let next_d = arena.round(7, vec![(3, c), (7, d)]);
            (c, d) = (next_c, next_d);
        }
        assert_eq!(arena.signature(c), sig_a, "order-isomorphic deep DAGs");
        assert_eq!(arena.signature(d), sig_b);
    }

    #[test]
    #[should_panic(expected = "seen at most once per round")]
    fn repeated_identity_in_seen_is_rejected() {
        // A repeated identity is a malformed view (one IS round shows
        // each process at most once); accepting it would let the
        // relabelling machinery intern non-canonical nodes.
        let mut arena = ViewArena::new();
        let a = arena.initial(2);
        let b = arena.round(2, vec![(2, a)]);
        arena.round(3, vec![(2, a), (2, b), (3, a)]);
    }

    #[test]
    fn round_from_slice_matches_round() {
        let mut arena = ViewArena::new();
        let x = arena.initial(1);
        let y = arena.initial(4);
        let via_vec = arena.round(4, vec![(4, y), (1, x)]);
        let via_slice = arena.round_from_slice(4, &[(1, x), (4, y)]);
        assert_eq!(via_vec, via_slice);
        assert_eq!(arena.view(via_slice), View::one_round(4, &[1, 4]));
    }

    /// Reference permutation action on recursive views: relabel every
    /// identity and re-sort seen lists (what [`ViewArena::permute`]
    /// computes key-level).
    fn permute_view(view: &View, perm: &[u32]) -> View {
        match view {
            View::Initial { id } => View::Initial {
                id: perm[(*id - 1) as usize],
            },
            View::Round { id, seen } => {
                let mut seen: Vec<(u32, View)> = seen
                    .iter()
                    .map(|(q, inner)| (perm[(*q - 1) as usize], permute_view(inner, perm)))
                    .collect();
                seen.sort();
                View::Round {
                    id: perm[(*id - 1) as usize],
                    seen,
                }
            }
        }
    }

    #[test]
    fn arena_permute_matches_view_level_action() {
        let mut arena = ViewArena::new();
        let views = [
            View::one_round(1, &[1, 2]),
            View::one_round(2, &[1, 2, 3]),
            View::Round {
                id: 3,
                seen: vec![
                    (1, View::one_round(1, &[1])),
                    (3, View::one_round(3, &[1, 3])),
                ],
            },
        ];
        // All six permutations of {1,2,3}, ids 0..6.
        let perms: Vec<Vec<u32>> = vec![
            vec![1, 2, 3],
            vec![1, 3, 2],
            vec![2, 1, 3],
            vec![2, 3, 1],
            vec![3, 1, 2],
            vec![3, 2, 1],
        ];
        for view in &views {
            let key = arena.intern(view);
            for (perm_id, perm) in perms.iter().enumerate() {
                let image = arena.permute(key, perm, perm_id as u32);
                assert_eq!(
                    arena.view(image),
                    permute_view(view, perm),
                    "{view:?} under {perm:?}"
                );
                // Memoized: the second call returns the same key.
                assert_eq!(arena.permute(key, perm, perm_id as u32), image);
            }
            // Identity is free (the order-preserving fast path).
            assert_eq!(arena.permute(key, &[1, 2, 3], 0), key);
        }
    }

    #[test]
    fn arena_cmp_views_matches_derived_view_order() {
        let mut arena = ViewArena::new();
        let views = [
            View::Initial { id: 1 },
            View::Initial { id: 2 },
            View::one_round(1, &[1]),
            View::one_round(1, &[1, 2]),
            View::one_round(2, &[1, 2]),
            View::one_round(2, &[2, 3]),
            View::Round {
                id: 1,
                seen: vec![(1, View::one_round(1, &[1, 2]))],
            },
        ];
        let keys: Vec<ViewKey> = views.iter().map(|v| arena.intern(v)).collect();
        for (i, a) in views.iter().enumerate() {
            for (j, b) in views.iter().enumerate() {
                assert_eq!(
                    arena.cmp_views(keys[i], keys[j]),
                    a.cmp(b),
                    "cmp({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn view_order_ranks_agree_with_materialized_view_order() {
        // A mixed-depth arena (shared subtrees, varying supports): bulk
        // ranks must order keys exactly as the derived Ord on
        // materialized views does.
        let mut arena = ViewArena::new();
        let mut keys = Vec::new();
        for id in 1..=4u32 {
            keys.push(arena.initial(id));
        }
        for view in [
            View::one_round(1, &[1]),
            View::one_round(1, &[1, 2]),
            View::one_round(2, &[1, 2]),
            View::one_round(3, &[1, 2, 3]),
            View::Round {
                id: 2,
                seen: vec![
                    (2, View::one_round(2, &[2])),
                    (3, View::one_round(3, &[2, 3])),
                ],
            },
            View::Round {
                id: 1,
                seen: vec![(1, View::one_round(1, &[1, 2]))],
            },
        ] {
            keys.push(arena.intern(&view));
        }
        let ranks = arena.view_order_ranks();
        let mut by_rank = keys.clone();
        by_rank.sort_unstable_by_key(|k| ranks[k.index()]);
        let mut by_view = keys.clone();
        by_view.sort_unstable_by_key(|&k| arena.view(k));
        assert_eq!(by_rank, by_view);
        // And the pairwise comparator agrees too.
        for &a in &keys {
            for &b in &keys {
                assert_eq!(
                    ranks[a.index()].cmp(&ranks[b.index()]),
                    arena.view(a).cmp(&arena.view(b)),
                    "{:?} vs {:?}",
                    arena.view(a),
                    arena.view(b)
                );
            }
        }
    }

    #[test]
    fn support_len_counts_distinct_ids() {
        let mut arena = ViewArena::new();
        let key = arena.intern(&View::Round {
            id: 5,
            seen: vec![
                (2, View::one_round(2, &[2, 7])),
                (5, View::Initial { id: 5 }),
            ],
        });
        assert_eq!(arena.support_len(key), 3);
        let solo = arena.initial(9);
        assert_eq!(arena.support_len(solo), 1);
    }

    #[test]
    fn id_support_collects_nested_ids() {
        let nested = View::Round {
            id: 5,
            seen: vec![
                (2, View::one_round(2, &[2, 7])),
                (5, View::Initial { id: 5 }),
            ],
        };
        let support: Vec<u32> = nested.id_support().into_iter().collect();
        assert_eq!(support, vec![2, 5, 7]);
    }
}
