//! The streaming template-stamping subdivision builder against the
//! retained reference builder, plus the pinned construction frontier.
//!
//! The streaming pipeline (flat CSR frontier, chunked stamping,
//! incremental signature classes — see `DESIGN.md` §8) must be
//! *indistinguishable* from the seed's tuple-cloning builder: same
//! facets as vertex-content sets (vertex ids may be numbered
//! differently), same signature classes in the same canonical order,
//! same structural invariants.

use gsb_core::govern::Ticket;
use gsb_topology::{
    protocol_complex, protocol_complex_reference, ChromaticComplex, ConstraintSystem, FacetClasses,
    Vertex, View,
};

/// Canonical content form of a complex: every facet as its sorted
/// `(color, view)` multiset, the whole family sorted — invariant under
/// vertex renumbering and facet reordering.
fn canonical_facets(complex: &ChromaticComplex) -> Vec<Vec<(u32, View)>> {
    let mut facets: Vec<Vec<(u32, View)>> = complex
        .facets()
        .map(|facet| {
            let mut contents: Vec<(u32, View)> = facet
                .iter()
                .map(|&v| {
                    let vertex = &complex.vertices()[v as usize];
                    (vertex.color, vertex.view.clone())
                })
                .collect();
            contents.sort();
            contents
        })
        .collect();
    facets.sort();
    facets
}

#[test]
fn streaming_builder_matches_reference_builder_through_n4_r2() {
    for n in 1..=4usize {
        for r in 0..=2usize {
            let streamed = protocol_complex(n, r);
            let reference = protocol_complex_reference(n, r);
            assert_eq!(
                streamed.facet_count(),
                reference.facet_count(),
                "facet count at ({n},{r})"
            );
            assert_eq!(
                streamed.vertices().len(),
                reference.vertices().len(),
                "vertex count at ({n},{r})"
            );
            assert_eq!(
                canonical_facets(&streamed),
                canonical_facets(&reference),
                "facet contents at ({n},{r})"
            );
        }
    }
    // One deeper column: the subdivided edge through r = 3.
    let streamed = protocol_complex(2, 3);
    let reference = protocol_complex_reference(2, 3);
    assert_eq!(canonical_facets(&streamed), canonical_facets(&reference));
}

/// One class order for every pipeline: the streaming builder, the
/// reference builder (whose quotient is recomputed from its vertices)
/// and the fused orbit system list the same classes in the same
/// strictly ascending order.
#[test]
fn every_pipeline_lists_classes_in_one_ascending_order() {
    let points = (1..=4usize)
        .flat_map(|n| (0..=2usize).map(move |r| (n, r)))
        .chain([(5, 1)]);
    for (n, r) in points {
        let streamed = protocol_complex(n, r).signature_quotient().classes.to_vec();
        let reference = protocol_complex_reference(n, r)
            .signature_quotient()
            .classes
            .to_vec();
        let (system, _) = ConstraintSystem::streamed(n, r, &Ticket::unlimited()).unwrap();
        assert_eq!(streamed, reference, "streaming vs reference at ({n},{r})");
        assert_eq!(
            streamed,
            system.classes(),
            "streaming vs orbit at ({n},{r})"
        );
        assert!(
            streamed.windows(2).all(|w| w[0] < w[1]),
            "strictly ascending at ({n},{r})"
        );
    }
}

#[test]
fn streamed_quotient_is_consistent_per_vertex() {
    // The builder-attached quotient must assign every vertex the class
    // whose signature is that vertex's own view signature.
    for (n, r) in [(3usize, 2usize), (4, 2)] {
        let complex = protocol_complex(n, r);
        let quotient = complex.signature_quotient();
        for (v, vertex) in complex.vertices().iter().enumerate() {
            let class = quotient.vertex_class[v] as usize;
            assert_eq!(
                quotient.classes[class],
                vertex.view.signature(),
                "vertex {v} of χ^{r}(Δ^{})",
                n - 1
            );
        }
    }
}

/// The check-side table is the streamed complex with its vertices
/// replaced by their classes: the same class count and, facet for facet
/// in the builder's order, each process's canonical class id.
#[test]
fn facet_class_tables_match_the_streamed_complex() {
    let points = (1..=4usize)
        .flat_map(|n| (0..=2usize).map(move |r| (n, r)))
        .chain([(5, 1)]);
    for (n, r) in points {
        let complex = protocol_complex(n, r);
        let quotient = complex.signature_quotient();
        let table = FacetClasses::build(n, r, &Ticket::unlimited()).unwrap();
        assert_eq!((table.n(), table.rounds()), (n, r));
        assert_eq!(
            table.class_count(),
            quotient.classes.len(),
            "({n},{r}) classes"
        );
        assert_eq!(table.facet_count(), complex.facet_count(), "({n},{r})");
        for (f, (facet, row)) in complex.facets().zip(table.facets()).enumerate() {
            let mut by_color = vec![u32::MAX; n];
            for &v in facet {
                let color = complex.vertices()[v as usize].color as usize;
                by_color[color - 1] = quotient.vertex_class[v as usize];
            }
            assert_eq!(row, &by_color[..], "({n},{r}) facet {f}");
        }
    }
}

/// The pinned construction frontier: `(n, r, facets, vertices,
/// classes)`. Facet counts are the ordered Bell powers `fubini(n)^r`
/// (stamping is injective); vertex and class counts were cross-checked
/// against the reference builder when first recorded. The construction
/// bench (`gsb-bench --bin record`) fails on drift against the same
/// table (`CONSTRUCT_PINNED`), read off the built complexes.
const PINNED: &[(usize, usize, usize, usize, usize)] = &[
    (3, 3, 2_197, 1_140, 1_086),
    (4, 2, 5_625, 1_124, 865),
    (5, 1, 541, 80, 15),
    (5, 2, 292_681, 14_805, 10_945),
];

#[test]
fn pinned_construction_counts() {
    for &(n, r, facets, vertices, classes) in PINNED {
        // (5,2) is the largest in-suite case: ~100 ms release, a few
        // seconds debug — still inside a normal test budget.
        let complex = protocol_complex(n, r);
        assert_eq!(
            complex.facet_count(),
            facets,
            "facets of χ^{r}(Δ^{})",
            n - 1
        );
        assert_eq!(
            complex.vertices().len(),
            vertices,
            "vertices of χ^{r}(Δ^{})",
            n - 1
        );
        assert_eq!(
            complex.signature_quotient().classes.len(),
            classes,
            "classes of χ^{r}(Δ^{})",
            n - 1
        );
    }
}

#[test]
#[ignore = "χ³(Δ³) (421,875 facets) takes ~1 s release but minutes under a debug build; \
            run explicitly or via the construction bench"]
fn pinned_construction_counts_chi3_delta3() {
    let complex = protocol_complex(4, 3);
    assert_eq!(
        (
            complex.facet_count(),
            complex.vertices().len(),
            complex.signature_quotient().classes.len()
        ),
        (421_875, 72_560, 69_250)
    );
}

#[test]
fn chi_of_delta4_is_a_strongly_connected_pseudomanifold() {
    // The structural facts Theorem 11 leans on, at the new n = 5 reach.
    let complex = protocol_complex(5, 1);
    assert_eq!(complex.facet_count(), 541);
    assert!(complex.is_pseudomanifold());
    assert!(complex.is_strongly_connected());
    // χ(Δ⁴)'s boundary is the subdivided boundary of the 4-simplex:
    // five χ(Δ³)s of 75 facets each.
    assert_eq!(complex.boundary_ridge_count(), 5 * 75);
}

#[test]
fn streamed_complex_supports_later_interning() {
    // The streaming fast path skips the vertex dedup index; a later
    // intern must still deduplicate against the streamed vertices.
    let mut complex = protocol_complex(2, 1);
    let existing = complex.vertices()[0].clone();
    let count_before = complex.vertices().len();
    let id = complex.intern(existing.clone());
    assert_eq!(complex.vertices()[id as usize], existing);
    assert_eq!(complex.vertices().len(), count_before, "no duplicate");
    // An initial (depth-0) view cannot occur in a 1-round complex.
    let fresh = Vertex {
        color: 1,
        view: View::Initial { id: 1 },
    };
    let fresh_id = complex.intern(fresh);
    assert_eq!(fresh_id as usize, count_before, "new vertex appended");
}
