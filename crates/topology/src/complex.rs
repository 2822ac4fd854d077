//! Chromatic simplicial complexes in facet representation.
//!
//! The protocol complexes of wait-free computability theory are *chromatic*
//! (pure, properly colored) simplicial complexes: every facet has exactly
//! one vertex per process. This module provides the shared container used
//! by the subdivision builder and the solvability checker, plus the
//! structural checks Theorem 11's proof leans on (pseudomanifoldness and
//! facet connectivity).
//!
//! Vertex ids are dense `u32`s and facets are packed sorted id slices;
//! ridges ((n−2)-faces) key hash maps through [`RidgeKey`], an exact
//! `u128` bit-packing of up to four sorted ids, so the ridge-incidence
//! passes underlying the structural checks allocate nothing per ridge.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use crate::views::{View, ViewArena, ViewKey};

/// Index of a vertex within a [`ChromaticComplex`].
pub type VertexId = u32;

/// A vertex: a process (color) together with its local view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Vertex {
    /// The process identity (color), in `[1..n]`.
    pub color: u32,
    /// The process's local state.
    pub view: View,
}

/// Exact key of a ridge ((n−2)-face, a facet minus one vertex).
///
/// Vertex ids are 32-bit, so up to four sorted ids pack exactly into one
/// `u128` word; wider ridges (n > 5) fall back to the boxed id list.
/// Within one complex all ridges have the same length, so packed keys are
/// collision-free — this is an identity, not a lossy hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RidgeKey {
    /// Up to four sorted ids packed little-endian into one word.
    Packed(u128),
    /// Five or more ids, kept explicit.
    Wide(Box<[VertexId]>),
}

/// Builds the [`RidgeKey`] of `facet` with position `skip` removed.
#[must_use]
pub fn ridge_key(facet: &[VertexId], skip: usize) -> RidgeKey {
    let ids = facet
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != skip)
        .map(|(_, &v)| v);
    if facet.len() <= 5 {
        let mut packed = 0u128;
        for (slot, id) in ids.enumerate() {
            packed |= u128::from(id) << (32 * slot);
        }
        RidgeKey::Packed(packed)
    } else {
        RidgeKey::Wide(ids.collect())
    }
}

/// The quotient of a complex's vertex set by view order-isomorphism
/// ([`View::signature`]): the symmetry classes a comparison-based
/// decision map must be constant on.
///
/// Classes are in canonical (ascending-view) order whichever builder
/// produced the complex — the one order every constraint system and
/// [`DecisionMap`](crate::DecisionMap) uses — so class `c` means the same
/// signature on every build of `χ^r(Δ^{n−1})`.
#[derive(Debug, Clone)]
pub struct SignatureQuotient {
    /// Canonical signature of each class, ascending. Shared behind an
    /// [`Arc`], so a constraint system built from the complex clones no
    /// class.
    pub classes: Arc<[View]>,
    /// Class index of each vertex.
    pub vertex_class: Vec<u32>,
}

impl SignatureQuotient {
    /// Puts classes found in any order into canonical order: ranks the
    /// distinct signature keys ([`SignatureQuotient::rank_canonically`])
    /// and materializes each class view.
    pub(crate) fn in_canonical_order(
        arena: &ViewArena,
        class_keys: &[ViewKey],
        mut vertex_class: Vec<u32>,
    ) -> Self {
        let order = Self::rank_canonically(arena, class_keys, &mut vertex_class);
        SignatureQuotient {
            classes: order
                .iter()
                .map(|&old| arena.view(class_keys[old as usize]))
                .collect(),
            vertex_class,
        }
    }

    /// Sorts the distinct signature keys once (through the arena, so
    /// equal shared sub-views compare in O(1)) and renumbers
    /// `class_ids` from discovery order to canonical order. Returns the
    /// discovery-order class at each canonical position.
    pub(crate) fn rank_canonically(
        arena: &ViewArena,
        class_keys: &[ViewKey],
        class_ids: &mut [u32],
    ) -> Vec<u32> {
        let mut order: Vec<u32> = (0..).take(class_keys.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            arena.cmp_views(class_keys[a as usize], class_keys[b as usize])
        });
        let mut rank = vec![0u32; order.len()];
        for (new, &old) in (0..).zip(&order) {
            rank[old as usize] = new;
        }
        for class in class_ids {
            *class = rank[*class as usize];
        }
        order
    }
}

/// A pure, properly colored simplicial complex given by its facets.
///
/// Facets are stored as packed sorted vertex-id slices of uniform
/// dimension `n − 1` (one vertex per color).
#[derive(Debug, Clone)]
pub struct ChromaticComplex {
    n: usize,
    vertices: Vec<Vertex>,
    index: HashMap<Vertex, VertexId>,
    /// Flat CSR facet storage: `n` sorted vertex ids per facet, no
    /// per-facet boxes (421,875 `χ³(Δ³)` facets are one allocation).
    facet_data: Vec<VertexId>,
    /// The signature quotient, computed lazily on first demand — or
    /// attached up front by the streaming subdivision builder, which
    /// tracks classes incrementally per round; either way
    /// [`ChromaticComplex::signature_quotient`] is a lookup afterwards.
    quotient: OnceLock<Arc<SignatureQuotient>>,
}

impl ChromaticComplex {
    /// Creates an empty complex over `n` colors.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ChromaticComplex {
            n,
            vertices: Vec::new(),
            index: HashMap::new(),
            facet_data: Vec::new(),
            quotient: OnceLock::new(),
        }
    }

    /// Number of colors (processes).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Interns a vertex, returning its id (existing id if already present).
    pub fn intern(&mut self, vertex: Vertex) -> VertexId {
        // The streaming builder appends via `push_vertex` without
        // maintaining the dedup index (its vertices are distinct by
        // construction); re-sync lazily if interning resumes afterwards.
        if self.index.len() != self.vertices.len() {
            self.index = self
                .vertices
                .iter()
                .enumerate()
                .map(|(id, v)| (v.clone(), id as VertexId))
                .collect();
        }
        if let Some(&id) = self.index.get(&vertex) {
            return id;
        }
        // A new vertex invalidates any computed quotient.
        self.quotient = OnceLock::new();
        let id = VertexId::try_from(self.vertices.len()).expect("vertex ids fit in u32");
        self.vertices.push(vertex.clone());
        self.index.insert(vertex, id);
        id
    }

    /// Pre-sizes the vertex and facet stores (the streaming builder
    /// knows both counts up front).
    pub(crate) fn reserve(&mut self, vertices: usize, facets: usize) {
        self.vertices.reserve(vertices);
        self.facet_data.reserve(facets * self.n);
    }

    /// Appends a vertex known to be new (the streaming builder's path:
    /// hash-consed view keys guarantee distinctness, so the dedup index
    /// is skipped — [`ChromaticComplex::intern`] rebuilds it lazily if
    /// ever needed again).
    pub(crate) fn push_vertex(&mut self, vertex: Vertex) -> VertexId {
        self.quotient = OnceLock::new();
        let id = VertexId::try_from(self.vertices.len()).expect("vertex ids fit in u32");
        self.vertices.push(vertex);
        id
    }

    /// Adds a facet from one vertex per color.
    ///
    /// # Panics
    ///
    /// Panics if the facet does not have exactly one vertex of each color
    /// `1..n` (chromatic purity).
    pub fn add_facet(&mut self, vertex_ids: Vec<VertexId>) {
        assert_eq!(vertex_ids.len(), self.n, "facet must have n vertices");
        let colors: BTreeSet<u32> = vertex_ids
            .iter()
            .map(|&v| self.vertices[v as usize].color)
            .collect();
        assert_eq!(colors.len(), self.n, "facet colors must be distinct");
        let mut sorted = vertex_ids;
        sorted.sort_unstable();
        self.facet_data.extend_from_slice(&sorted);
    }

    /// Appends a facet from one **sorted** vertex-id slice whose proper
    /// coloring the caller guarantees (the streaming builder emits one
    /// vertex per color by construction; checked in debug builds).
    pub(crate) fn push_facet_sorted(&mut self, vertex_ids: &[VertexId]) {
        debug_assert_eq!(vertex_ids.len(), self.n, "facet must have n vertices");
        debug_assert!(vertex_ids.windows(2).all(|w| w[0] < w[1]), "sorted ids");
        debug_assert_eq!(
            vertex_ids
                .iter()
                .map(|&v| self.vertices[v as usize].color)
                .collect::<BTreeSet<u32>>()
                .len(),
            self.n,
            "facet colors must be distinct"
        );
        self.facet_data.extend_from_slice(vertex_ids);
    }

    /// Deduplicates facets (subdivision builders may generate repeats).
    pub fn dedup_facets(&mut self) {
        let n = self.n.max(1);
        let mut order: Vec<usize> = (0..self.facet_count()).collect();
        let data = &self.facet_data;
        order.sort_unstable_by(|&a, &b| data[a * n..a * n + n].cmp(&data[b * n..b * n + n]));
        order.dedup_by(|&mut a, &mut b| data[a * n..a * n + n] == data[b * n..b * n + n]);
        let mut deduped = Vec::with_capacity(order.len() * n);
        for f in order {
            deduped.extend_from_slice(&self.facet_data[f * n..f * n + n]);
        }
        self.facet_data = deduped;
    }

    /// All vertices.
    #[must_use]
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All facets, as packed sorted vertex-id slices over the flat CSR
    /// store.
    pub fn facets(&self) -> std::slice::ChunksExact<'_, VertexId> {
        self.facet_data.chunks_exact(self.n.max(1))
    }

    /// One facet's packed sorted vertex ids.
    #[must_use]
    pub fn facet(&self, f: usize) -> &[VertexId] {
        let n = self.n.max(1);
        &self.facet_data[f * n..f * n + n]
    }

    /// The flat facet store (`n` sorted ids per facet, concatenated) —
    /// for consumers that fan windows of facets out in parallel.
    #[must_use]
    pub fn facet_data(&self) -> &[VertexId] {
        &self.facet_data
    }

    /// Number of facets.
    #[must_use]
    pub fn facet_count(&self) -> usize {
        self.facet_data.len() / self.n.max(1)
    }

    /// Quotients the vertex set by view order-isomorphism, interning
    /// signatures once (each canonical [`View`] is materialized exactly
    /// once) and indexing vertices by dense class id, classes in
    /// canonical order.
    ///
    /// The quotient is computed at most once per complex and shared
    /// behind an [`Arc`]: complexes from the streaming builder carry the
    /// classes tracked incrementally during construction, and any other
    /// complex memoizes the first computation — so the searches,
    /// replayable-witness checks, and benches that all quotient the same
    /// shared complex pay for it once.
    #[must_use]
    pub fn signature_quotient(&self) -> Arc<SignatureQuotient> {
        Arc::clone(
            self.quotient
                .get_or_init(|| Arc::new(self.compute_quotient())),
        )
    }

    /// Attaches a quotient computed during construction (the streaming
    /// builder's incremental class tracking). Must equal what
    /// [`ChromaticComplex::signature_quotient`] would compute: one class
    /// entry per vertex, classes in canonical order.
    pub(crate) fn set_quotient(&mut self, quotient: SignatureQuotient) {
        debug_assert_eq!(quotient.vertex_class.len(), self.vertices.len());
        debug_assert!(quotient.classes.windows(2).all(|w| w[0] < w[1]));
        self.quotient = OnceLock::from(Arc::new(quotient));
    }

    fn compute_quotient(&self) -> SignatureQuotient {
        let mut arena = ViewArena::new();
        let mut class_of: HashMap<ViewKey, u32> = HashMap::new();
        let mut class_keys: Vec<ViewKey> = Vec::new();
        let mut vertex_class: Vec<u32> = Vec::with_capacity(self.vertices.len());
        for vertex in &self.vertices {
            let key = arena.intern(&vertex.view);
            let sig = arena.signature(key);
            let class = *class_of.entry(sig).or_insert_with(|| {
                class_keys.push(sig);
                u32::try_from(class_keys.len() - 1).expect("classes fit in u32")
            });
            vertex_class.push(class);
        }
        SignatureQuotient::in_canonical_order(&arena, &class_keys, vertex_class)
    }

    /// Whether every `(n−2)`-face lies in at most two facets, i.e. the
    /// complex is a pseudomanifold (with boundary). This is the structural
    /// property Theorem 11's proof invokes for IS protocol complexes.
    #[must_use]
    pub fn is_pseudomanifold(&self) -> bool {
        self.ridge_incidence().values().all(|&c| c <= 2)
    }

    /// The number of boundary ridges (`(n−2)`-faces in exactly one facet).
    #[must_use]
    pub fn boundary_ridge_count(&self) -> usize {
        self.ridge_incidence().values().filter(|&&c| c == 1).count()
    }

    /// Whether the facet graph (facets adjacent when sharing a ridge) is
    /// connected — the second ingredient of Theorem 11's argument.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        let facet_count = self.facet_count();
        if facet_count <= 1 {
            return true;
        }
        // Build ridge → facet incidence, then BFS over facets.
        let mut ridge_to_facets: HashMap<RidgeKey, Vec<usize>> = HashMap::new();
        for (f, facet) in self.facets().enumerate() {
            for skip in 0..facet.len() {
                ridge_to_facets
                    .entry(ridge_key(facet, skip))
                    .or_default()
                    .push(f);
            }
        }
        let mut seen = vec![false; facet_count];
        let mut queue = vec![0usize];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(f) = queue.pop() {
            let facet = self.facet(f);
            for skip in 0..facet.len() {
                if let Some(neighbours) = ridge_to_facets.get(&ridge_key(facet, skip)) {
                    for &g in neighbours {
                        if !seen[g] {
                            seen[g] = true;
                            reached += 1;
                            queue.push(g);
                        }
                    }
                }
            }
        }
        reached == facet_count
    }

    fn ridge_incidence(&self) -> HashMap<RidgeKey, usize> {
        let mut counts: HashMap<RidgeKey, usize> = HashMap::new();
        for facet in self.facets() {
            for skip in 0..facet.len() {
                *counts.entry(ridge_key(facet, skip)).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertex(color: u32, seen: &[u32]) -> Vertex {
        Vertex {
            color,
            view: View::one_round(color, seen),
        }
    }

    #[test]
    fn intern_deduplicates() {
        let mut c = ChromaticComplex::new(2);
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(1, &[1]));
        let d = c.intern(vertex(1, &[1, 2]));
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(c.vertices().len(), 2);
    }

    #[test]
    #[should_panic(expected = "colors must be distinct")]
    fn facets_must_be_properly_colored() {
        let mut c = ChromaticComplex::new(2);
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(1, &[1, 2]));
        c.add_facet(vec![a, b]);
    }

    #[test]
    fn a_path_of_two_triangles_is_a_pseudomanifold() {
        let mut c = ChromaticComplex::new(2);
        // 1-dimensional "triangles" (edges) sharing a vertex: three
        // vertices a—b—c where edges {a,b}, {b,c}.
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(2, &[1, 2]));
        let d = c.intern(vertex(1, &[1, 2]));
        c.add_facet(vec![a, b]);
        c.add_facet(vec![b, d]);
        assert!(c.is_pseudomanifold());
        assert!(c.is_strongly_connected());
        // Boundary: vertices a and d each in exactly one edge.
        assert_eq!(c.boundary_ridge_count(), 2);
    }

    #[test]
    fn disconnected_facets_detected() {
        let mut c = ChromaticComplex::new(2);
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(2, &[2]));
        let d = c.intern(vertex(1, &[1, 2]));
        let e = c.intern(vertex(2, &[1, 2]));
        c.add_facet(vec![a, b]);
        c.add_facet(vec![d, e]);
        assert!(!c.is_strongly_connected());
    }

    #[test]
    fn dedup_facets_removes_repeats() {
        let mut c = ChromaticComplex::new(2);
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(2, &[1, 2]));
        c.add_facet(vec![a, b]);
        c.add_facet(vec![b, a]);
        c.dedup_facets();
        assert_eq!(c.facet_count(), 1);
    }

    #[test]
    fn ridge_keys_are_exact() {
        // Same multiset of ids → same key; different ids → different key.
        let facet_a = [3u32, 7, 9];
        let facet_b = [3u32, 7, 11];
        assert_eq!(ridge_key(&facet_a, 2), ridge_key(&facet_b, 2));
        assert_ne!(ridge_key(&facet_a, 0), ridge_key(&facet_a, 1));
        assert_ne!(ridge_key(&facet_a, 1), ridge_key(&facet_b, 1));
        // Wide facets (n > 5) fall back to explicit ids, still exact.
        let wide: Vec<u32> = (1..=7).collect();
        assert_eq!(ridge_key(&wide, 6), ridge_key(&wide, 6));
        assert_ne!(ridge_key(&wide, 0), ridge_key(&wide, 6));
        assert!(matches!(ridge_key(&wide, 0), RidgeKey::Wide(_)));
        assert!(matches!(ridge_key(&facet_a, 0), RidgeKey::Packed(_)));
    }

    #[test]
    fn quotients_are_shared_until_the_vertex_set_changes() {
        let mut c = ChromaticComplex::new(2);
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(2, &[1, 2]));
        c.add_facet(vec![a, b]);
        let before = c.signature_quotient();
        assert!(before.classes.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(Arc::ptr_eq(&before, &c.signature_quotient()));
        // Re-interning a known vertex changes nothing.
        c.intern(vertex(1, &[1]));
        assert!(Arc::ptr_eq(&before, &c.signature_quotient()));
        // A vertex of a new class yields a fresh list that has it.
        let fresh = vertex(1, &[1, 2]);
        c.intern(fresh.clone());
        let after = c.signature_quotient();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.classes.len(), before.classes.len() + 1);
        assert!(after.classes.binary_search(&fresh.view.signature()).is_ok());
        assert!(after.classes.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn signature_quotient_groups_isomorphic_views() {
        let mut c = ChromaticComplex::new(2);
        // Both solo corners are order-isomorphic; the two "saw both"
        // vertices split by own rank.
        let a = c.intern(vertex(1, &[1]));
        let b = c.intern(vertex(2, &[2]));
        let d = c.intern(vertex(1, &[1, 2]));
        let e = c.intern(vertex(2, &[1, 2]));
        let q = c.signature_quotient();
        assert_eq!(q.vertex_class.len(), 4);
        assert_eq!(q.vertex_class[a as usize], q.vertex_class[b as usize]);
        assert_ne!(q.vertex_class[d as usize], q.vertex_class[e as usize]);
        assert_eq!(q.classes.len(), 3);
        for (v, &class) in q.vertex_class.iter().enumerate() {
            assert_eq!(
                q.classes[class as usize],
                c.vertices()[v].view.signature(),
                "vertex {v}"
            );
        }
    }
}
