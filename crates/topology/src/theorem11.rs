//! A mechanized **Theorem 11 certificate**: election is not solvable by
//! any symmetric decision map on `χ^r(Δ^{n−1})` — verified by checking
//! the *structure* of the complex rather than searching over maps.
//!
//! The paper's proof goes: (i) the protocol complex is a connected
//! pseudomanifold; (ii) in any map solving election, two facets sharing a
//! ridge give the *same* decision to their two private vertices (both
//! privates have the ridge's missing color; if the shared ridge already
//! contains the unique 1, both privates decide 2, otherwise both decide
//! 1); (iii) hence each process decides one fixed value in the whole
//! complex; (iv) solo corners are order-isomorphic, so a comparison-based
//! map gives all processes the same fixed value — contradicting "exactly
//! one process decides 1".
//!
//! [`election_impossibility_certificate`] checks the two structural facts
//! that make (ii)–(iv) go through:
//!
//! * **per-color linkage**: for every color, the graph on that color's
//!   vertices linking the private vertices of ridge-adjacent facets is
//!   connected (this yields step (iii)); and
//! * **corner symmetry**: the `n` solo corners share one view signature
//!   (this yields step (iv)).
//!
//! Unlike the search in [`solvability`](crate::solvability) — worst-case
//! exponential even with its CDCL engine — the certificate is polynomial
//! in the complex size, so it verifies Theorem 11 for every `(n, r)`
//! whose complex fits in memory (e.g. `n = 4, r = 1` with 75 facets, or
//! `n = 5, r = 1` with 541); where both run, the frontier tests
//! cross-check them against each other.

use std::collections::HashMap;

use gsb_core::govern::Ticket;

use crate::complex::{ridge_key, ChromaticComplex, RidgeKey, VertexId};
use crate::error::Error;
use crate::protocol::shared_protocol_complex_governed;
use crate::views::View;

/// Why a certificate attempt failed (the structure did not support the
/// argument — *not* evidence that election is solvable).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertificateFailure {
    /// Some ridge is contained in more than two facets (not a
    /// pseudomanifold), so "the two private vertices" is ill-defined.
    NotPseudomanifold,
    /// The per-color linkage graph is disconnected for this color, so
    /// step (iii) (one fixed decision per process) does not follow.
    ColorLinkageDisconnected {
        /// The color whose vertices do not all link up.
        color: u32,
    },
    /// The solo corners are not all order-isomorphic, so step (iv) does
    /// not follow.
    CornersNotSymmetric,
    /// A color has no solo corner (malformed complex).
    MissingCorner {
        /// The color lacking a solo corner.
        color: u32,
    },
}

impl std::fmt::Display for CertificateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateFailure::NotPseudomanifold => {
                write!(f, "complex is not a pseudomanifold")
            }
            CertificateFailure::ColorLinkageDisconnected { color } => {
                write!(f, "per-color linkage disconnected for color {color}")
            }
            CertificateFailure::CornersNotSymmetric => {
                write!(f, "solo corners are not order-isomorphic")
            }
            CertificateFailure::MissingCorner { color } => {
                write!(f, "no solo corner for color {color}")
            }
        }
    }
}

/// Up to two private vertices sharing one ridge (the pseudomanifold
/// bound); a third arrival aborts the certificate.
#[derive(Debug, Default, Clone, Copy)]
struct RidgeSlot {
    count: u8,
    privates: [VertexId; 2],
}

impl RidgeSlot {
    /// Records another private vertex; `false` when the ridge already
    /// holds two (the complex is not a pseudomanifold).
    fn push(&mut self, v: VertexId) -> bool {
        if self.count >= 2 {
            return false;
        }
        self.privates[self.count as usize] = v;
        self.count += 1;
        true
    }

    /// The two privates of an interior ridge, if both are present.
    fn pair(&self) -> Option<(VertexId, VertexId)> {
        (self.count == 2).then(|| (self.privates[0], self.privates[1]))
    }
}

/// Facets, ridges or vertices walked between ticket polls.
const POLL_STRIDE: usize = 4096;

/// Checks the Theorem 11 certificate on an explicit complex, polling
/// `ticket` every 4,096 facets, ridges and vertices of its passes.
///
/// On success, election (one process decides 1, the rest 2) admits **no**
/// symmetric decision map on this complex — for `χ^r(Δ^{n−1})` this is
/// exactly "no `r`-round comparison-based IIS protocol elects a leader".
///
/// # Errors
///
/// Returns [`Error::Stopped`] when the ticket trips, and otherwise
/// [`Error::Certificate`] with the first [`CertificateFailure`]
/// encountered; see its variants for what each means.
pub fn check_election_certificate(
    complex: &ChromaticComplex,
    ticket: &Ticket,
) -> Result<(), Error> {
    let n = complex.n();
    let poll = |i: usize| {
        if i.is_multiple_of(POLL_STRIDE) {
            ticket.check().map_err(Error::Stopped)
        } else {
            Ok(())
        }
    };
    // Build ridge → private-vertex incidence, keyed by the exact packed
    // ridge key (no per-ridge id-vector allocation). A ridge meets at
    // most two facets in a pseudomanifold, so two slots suffice.
    let mut ridge_privates: HashMap<RidgeKey, RidgeSlot> = HashMap::new();
    for (f, facet) in complex.facets().enumerate() {
        // ticket.check poll site (certificate facet stride)
        poll(f)?;
        for skip in 0..facet.len() {
            let private = facet[skip];
            let slot = ridge_privates.entry(ridge_key(facet, skip)).or_default();
            if !slot.push(private) {
                return Err(CertificateFailure::NotPseudomanifold.into());
            }
        }
    }
    // Per-color union-find over vertices, linked through interior ridges.
    let vertex_count = complex.vertices().len();
    let mut parent: Vec<u32> = (0..vertex_count as u32).collect();
    // Iterative path-halving find: every other node on the walk is
    // re-pointed at its grandparent, so trees stay shallow without the
    // recursion the seed used (a stack-overflow risk on large complexes).
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let grandparent = parent[parent[x as usize] as usize];
            parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }
    for (r, slot) in ridge_privates.values().enumerate() {
        // ticket.check poll site (certificate ridge stride)
        poll(r)?;
        if let Some((a, b)) = slot.pair() {
            debug_assert_eq!(
                complex.vertices()[a as usize].color,
                complex.vertices()[b as usize].color,
                "private vertices carry the ridge's missing color"
            );
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra as usize] = rb;
        }
    }
    for color in 1..=n as u32 {
        let mut members =
            (0..vertex_count as u32).filter(|&v| complex.vertices()[v as usize].color == color);
        let Some(first) = members.next() else {
            return Err(CertificateFailure::MissingCorner { color }.into());
        };
        let root = find(&mut parent, first);
        for (i, v) in members.enumerate() {
            // ticket.check poll site (certificate vertex stride)
            poll(i)?;
            if find(&mut parent, v) != root {
                return Err(CertificateFailure::ColorLinkageDisconnected { color }.into());
            }
        }
    }
    // Corner symmetry: one signature shared by all solo corners. A solo
    // corner is the vertex whose view mentions only its own identity.
    let mut corner_signatures: Vec<View> = Vec::new();
    for color in 1..=n as u32 {
        let corner = complex
            .vertices()
            .iter()
            .find(|v| v.color == color && v.view.id_support().len() == 1);
        match corner {
            Some(v) => corner_signatures.push(v.view.signature()),
            None => return Err(CertificateFailure::MissingCorner { color }.into()),
        }
    }
    if corner_signatures.windows(2).any(|w| w[0] != w[1]) {
        return Err(CertificateFailure::CornersNotSymmetric.into());
    }
    Ok(())
}

/// Certifies Theorem 11 for the `r`-round IIS protocol complex on
/// `n ≥ 2` processes under `ticket`, returning the complex's facet
/// count.
///
/// The complex comes from the process-wide [`shared_protocol_complex`]
/// memo, so repeated certificates at one `(n, r)` share a single build;
/// a miss builds through the ticketed streaming round loop, and a
/// tripped build memoizes nothing.
///
/// [`shared_protocol_complex`]: crate::shared_protocol_complex
///
/// # Errors
///
/// As [`check_election_certificate`], whose ticket polls cover the
/// build too; complexes built by [`crate::protocol::protocol_complex`]
/// are expected to always pass.
pub fn election_impossibility_certificate(
    n: usize,
    rounds: usize,
    ticket: &Ticket,
) -> Result<usize, Error> {
    let complex = shared_protocol_complex_governed(n, rounds, ticket).map_err(Error::Stopped)?;
    check_election_certificate(&complex, ticket)?;
    Ok(complex.facet_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Vertex;

    #[test]
    fn certificate_holds_for_small_complexes() {
        // Beyond the search's reach: n = 4 (75 facets) and n = 5 (541)
        // certify in milliseconds.
        for (n, r) in [
            (2usize, 1usize),
            (2, 2),
            (2, 3),
            (3, 1),
            (3, 2),
            (4, 1),
            (5, 1),
        ] {
            election_impossibility_certificate(n, r, &Ticket::unlimited())
                .unwrap_or_else(|e| panic!("n={n} r={r}: {e}"));
        }
    }

    #[test]
    fn certificate_agrees_with_the_search() {
        // Where the DPLL search runs, both methods must agree that
        // election is unsolvable.
        use crate::solvability::{SearchMode, SolveRoute, SymmetricSearch};
        let ticket = Ticket::unlimited();
        for (n, r) in [(2usize, 1usize), (2, 2), (3, 1), (3, 2)] {
            assert!(election_impossibility_certificate(n, r, &ticket).is_ok());
            let spec = gsb_core::GsbSpec::election(n).unwrap();
            let search = SymmetricSearch::build(spec, r, &ticket).unwrap();
            let route = SolveRoute::Mode(SearchMode::Cdcl);
            let (result, _) = search.solve(&crate::CdclConfig::default(), route, &ticket);
            assert!(!result.unwrap().is_solvable(), "n={n} r={r}");
        }
    }

    #[test]
    fn a_tripped_certificate_build_is_a_stop() {
        use gsb_core::govern::{Limits, StopReason, Stopped};
        // χ³(Δ³) streams 421,875 facets; 1 MB does not hold them.
        let ticket = Ticket::new(Limits {
            memory_bytes: Some(1 << 20),
            ..Limits::none()
        });
        assert_eq!(
            election_impossibility_certificate(4, 3, &ticket),
            Err(Error::Stopped(Stopped {
                reason: StopReason::MemoryBudget
            }))
        );
    }

    #[test]
    fn certificate_rejects_a_disconnected_complex() {
        // Two disjoint edges (n = 2): color linkage cannot connect.
        let mut c = ChromaticComplex::new(2);
        let a = c.intern(Vertex {
            color: 1,
            view: View::one_round(1, &[1]),
        });
        let b = c.intern(Vertex {
            color: 2,
            view: View::one_round(2, &[2]),
        });
        let d = c.intern(Vertex {
            color: 1,
            view: View::one_round(1, &[1, 2]),
        });
        let e = c.intern(Vertex {
            color: 2,
            view: View::one_round(2, &[1, 2]),
        });
        c.add_facet(vec![a, b]);
        c.add_facet(vec![d, e]);
        let err = check_election_certificate(&c, &Ticket::unlimited()).unwrap_err();
        assert!(matches!(
            err,
            Error::Certificate(CertificateFailure::ColorLinkageDisconnected { .. })
        ));
    }

    #[test]
    fn certificate_failure_messages_are_informative() {
        let err = CertificateFailure::ColorLinkageDisconnected { color: 2 };
        assert!(err.to_string().contains("color 2"));
        assert!(!CertificateFailure::NotPseudomanifold.to_string().is_empty());
    }
}
