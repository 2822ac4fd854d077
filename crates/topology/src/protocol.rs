//! Iterated immediate-snapshot protocol complexes (standard chromatic
//! subdivisions).
//!
//! One round of immediate snapshot among processes `1..n` corresponds to
//! an *ordered partition* `(B_1, …, B_k)` of `{1..n}`: a process in block
//! `B_j` sees exactly `B_1 ∪ … ∪ B_j`. The complex whose facets are these
//! executions is the standard chromatic subdivision `χ(Δ^{n−1})`;
//! iterating `r` times gives `χ^r(Δ^{n−1})`, the protocol complex of the
//! `r`-round full-information IIS algorithm. A one-shot comparison-based
//! task is solvable by such an algorithm iff a *symmetric* simplicial
//! decision map exists on some `χ^r` (see
//! [`solvability`](crate::solvability)).
//!
//! **The streaming pipeline** (`χ³(Δ³)`'s 421,875 facets in ~1 s on one
//! core; see `DESIGN.md` §8):
//!
//! * Each ordered partition is precomputed once as a flat
//!   [`RoundTemplate`] — per-process "sees prefix" index maps — so
//!   applying a round to a facet is index arithmetic over a reused
//!   scratch buffer, with no per-process set cloning or re-sorting.
//! * The facet frontier is a flat CSR-style arena (one `Vec<ViewKey>`,
//!   `n` keys per row) fanned out in parallel chunks (rayon stand-in;
//!   single-chunk serial on one core), each chunk deduplicating its rows
//!   hash-based locally before a serial order-preserving merge — there
//!   is no global sort+dedup of the frontier.
//! * Chunk workers never touch the [`ViewArena`]: a new row references
//!   only previous-round keys, so workers intern candidate view nodes
//!   into chunk-local tables that the merge step replays into the shared
//!   arena in chunk order (deterministic whatever the thread count).
//! * Signature classes are assigned as the final frontier is walked
//!   (arena signatures are memoized per key), so the finished complex
//!   carries its [`SignatureQuotient`] and
//!   [`ChromaticComplex::signature_quotient`] is a lookup, not a
//!   re-walk.
//! * The round loop is governed: it polls its [`Ticket`] every 64
//!   frontier rows and charges each round's frontier and arena growth
//!   ([`protocol_complex_governed`]). The same loop feeds
//!   [`FacetClasses`], the per-facet class table decision-map checks
//!   replay over, which skips vertex materialization.
//!
//! The seed's tuple-cloning builder is retained as
//! [`protocol_complex_reference`] — the oracle the streaming pipeline is
//! equivalence-tested against (`tests/streaming_equivalence.rs`).
//! Nothing here is memoized across calls: every build is owned by its
//! caller and charged to its caller's ticket (an unlimited one for the
//! ticket-less forms).

use gsb_core::govern::{Stopped, Ticket};
use std::collections::HashMap;

use rayon::prelude::*;

use crate::complex::{ChromaticComplex, SignatureQuotient, Vertex, VertexId};
use crate::views::{
    fx_mix, node_hash_pair, node_hash_seed, ordered_partitions, round_templates, ProbeTable,
    RoundTemplate, ViewArena, ViewKey,
};

/// Frontier rows stamped between ticket polls in the streaming round
/// loop (the orbit path's representative-row stride).
const ROW_POLL_STRIDE: usize = 64;

/// Facets walked between ticket polls in the passes after the rounds.
const FACET_POLL_STRIDE: usize = 4096;

/// Hash of one facet row (a tuple of `n` view keys) — the debug-build
/// injectivity sweep and the orbit pipeline's canonical-row dedup both
/// key their probe tables on it.
fn row_hash(row: &[ViewKey]) -> u64 {
    let mut hash = row.len() as u64;
    for &key in row {
        hash = fx_mix(hash, key.index() as u64);
    }
    hash
}

/// Debug-build invariant check behind the pipeline's no-dedup design:
/// template stamping is **injective** — a produced row reveals its
/// parent row (every process's new view contains that process's
/// previous view) and its schedule (the seen-sets of one row are
/// exactly the prefix unions of the ordered partition, which they
/// determine) — so distinct `(parent row, template)` pairs can never
/// produce equal rows and the frontier needs no deduplication at all.
/// This replaces the seed's global `sort` + `dedup` of the whole
/// frontier with an `O(rows)` hash-set sweep that release builds skip.
#[cfg(debug_assertions)]
fn assert_rows_distinct(buf: &[ViewKey], n: usize) {
    let mut starts = ProbeTable::with_capacity(buf.len() / n);
    for start in (0..buf.len()).step_by(n) {
        let row = &buf[start..start + n];
        let hash = row_hash(row);
        assert!(
            starts
                .find(hash, |other| buf[other as usize..][..n] == *row)
                .is_none(),
            "template stamping must be injective (duplicate frontier row)"
        );
        starts.insert(hash, u32::try_from(start).expect("frontier fits in u32"));
    }
}

/// One chunk worker's output: rows over chunk-local node indices, plus
/// the table of distinct candidate view nodes (whose seen-lists
/// reference previous-round *global* keys — workers never touch the
/// shared arena).
#[derive(Debug, Default)]
struct ChunkRows {
    /// Flat rows of chunk-local node indices (`n` per row).
    rows: Vec<ViewKey>,
    /// Observer identity of each local node.
    node_ids: Vec<u32>,
    /// Concatenated seen-lists of the local nodes (global prev keys).
    node_seen: Vec<(u32, ViewKey)>,
    /// Row boundaries into `node_seen`; length `nodes + 1`.
    node_offsets: Vec<u32>,
}

/// Fills `scratch` with process `p`'s one-round seen list under
/// `template` applied to `row` — pure index arithmetic over the
/// template's prefix map, already identity-sorted — folding the node
/// content hash along the way. Returns `(observer id, seen length,
/// content hash)`; the single shared stamping step of the serial and
/// chunked paths.
#[inline]
fn stamp_process(
    row: &[ViewKey],
    template: &RoundTemplate,
    p: usize,
    scratch: &mut [(u32, ViewKey)],
) -> (u32, usize, u64) {
    let seen_of = template.seen_of(p);
    let id = p as u32 + 1;
    let mut hash = node_hash_seed(id, seen_of.len());
    for (slot, &q) in seen_of.iter().enumerate() {
        let pair = (q + 1, row[q as usize]);
        hash = node_hash_pair(hash, pair);
        scratch[slot] = pair;
    }
    (id, seen_of.len(), hash)
}

/// Stamps every template onto every facet row of `chunk`, interning the
/// produced views into a chunk-local node table. Polls `ticket` every
/// [`ROW_POLL_STRIDE`] rows.
fn stamp_chunk(
    chunk: &[ViewKey],
    n: usize,
    templates: &[RoundTemplate],
    ticket: &Ticket,
) -> Result<ChunkRows, Stopped> {
    let mut out = ChunkRows {
        rows: Vec::with_capacity(chunk.len() * templates.len()),
        node_offsets: vec![0],
        ..ChunkRows::default()
    };
    // Local hash-consing: content hash → local node indices.
    let mut node_index = ProbeTable::with_capacity(chunk.len());
    let mut scratch: Vec<(u32, ViewKey)> = vec![(0, ViewKey::from_index(0)); n];
    for (r, row) in chunk.chunks_exact(n).enumerate() {
        // ticket.check poll site (chunk-row stride)
        if r.is_multiple_of(ROW_POLL_STRIDE) {
            ticket.check()?;
        }
        for template in templates {
            for p in 0..n {
                let (id, len, hash) = stamp_process(row, template, p, &mut scratch);
                let local = intern_local(&mut out, &mut node_index, id, &scratch[..len], hash);
                out.rows.push(ViewKey::from_index(local as usize));
            }
        }
    }
    Ok(out)
}

/// Interns `(id, seen)` into the chunk-local node table, returning its
/// local index.
fn intern_local(
    out: &mut ChunkRows,
    node_index: &mut ProbeTable,
    id: u32,
    seen: &[(u32, ViewKey)],
    hash: u64,
) -> u32 {
    if let Some(local) = node_index.find(hash, |local| {
        let (from, to) = (
            out.node_offsets[local as usize] as usize,
            out.node_offsets[local as usize + 1] as usize,
        );
        out.node_ids[local as usize] == id && out.node_seen[from..to] == *seen
    }) {
        return local;
    }
    let local = u32::try_from(out.node_ids.len()).expect("chunk nodes fit in u32");
    out.node_ids.push(id);
    out.node_seen.extend_from_slice(seen);
    out.node_offsets
        .push(u32::try_from(out.node_seen.len()).expect("chunk nodes fit in u32"));
    node_index.insert(hash, local);
    local
}

/// Applies one subdivision round to the whole frontier. Multi-worker
/// hosts fan the frontier out in parallel chunks whose local node
/// tables a serial merge replays into the shared arena in chunk order;
/// a single worker stamps straight into the arena with no local
/// indirection. Injectivity of stamping (see [`assert_rows_distinct`])
/// means the produced rows are distinct by construction — chunks are
/// contiguous frontier ranges, so the merged row order equals the
/// serial stamping order whatever the worker count. Both paths poll
/// `ticket` every [`ROW_POLL_STRIDE`] frontier rows.
fn advance_round(
    frontier: &[ViewKey],
    n: usize,
    templates: &[RoundTemplate],
    arena: &mut ViewArena,
    workers: usize,
    ticket: &Ticket,
) -> Result<Vec<ViewKey>, Stopped> {
    let rows = frontier.len() / n;
    // One chunk per worker; below a few rows per worker the fan-out
    // overhead outweighs the stamping itself.
    let chunks = if rows >= 2 * workers { workers } else { 1 };
    let next = if chunks == 1 {
        let mut next: Vec<ViewKey> = Vec::with_capacity(rows * templates.len() * n);
        // Fixed-width scratch row: indexed writes, no per-push growth
        // checks (a template row never exceeds n entries).
        let mut scratch: Vec<(u32, ViewKey)> = vec![(0, ViewKey::from_index(0)); n];
        for (r, row) in frontier.chunks_exact(n).enumerate() {
            // ticket.check poll site (frontier-row stride)
            if r.is_multiple_of(ROW_POLL_STRIDE) {
                ticket.check()?;
            }
            for template in templates {
                for p in 0..n {
                    let (id, len, hash) = stamp_process(row, template, p, &mut scratch);
                    next.push(arena.round_prehashed(id, &scratch[..len], hash));
                }
            }
        }
        next
    } else {
        let rows_per_chunk = rows.div_ceil(chunks);
        let chunk_outputs: Vec<ChunkRows> = frontier
            .chunks(rows_per_chunk * n)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|chunk| stamp_chunk(chunk, n, templates, ticket))
            .collect::<Vec<_>>()
            .into_iter()
            .collect::<Result<_, _>>()?;
        let mut next: Vec<ViewKey> =
            Vec::with_capacity(chunk_outputs.iter().map(|c| c.rows.len()).sum());
        for chunk in chunk_outputs {
            let global: Vec<ViewKey> = (0..chunk.node_ids.len())
                .map(|local| {
                    let (from, to) = (
                        chunk.node_offsets[local] as usize,
                        chunk.node_offsets[local + 1] as usize,
                    );
                    arena.round_from_slice(chunk.node_ids[local], &chunk.node_seen[from..to])
                })
                .collect();
            next.extend(chunk.rows.iter().map(|&local| global[local.index()]));
        }
        next
    };
    #[cfg(debug_assertions)]
    assert_rows_distinct(&next, n);
    Ok(next)
}

/// The streaming builder's round loop, shared by the complex builder
/// and [`FacetClasses::build`]: `rounds` rounds of template stamping
/// from the initial simplex, returning the arena and the flat facet
/// frontier (`n` view keys per facet, process order). Stamping polls
/// `ticket` every [`ROW_POLL_STRIDE`] frontier rows; each round charges
/// its frontier before allocating it and its arena growth after.
fn stream_rounds(
    n: usize,
    rounds: usize,
    workers: usize,
    ticket: &Ticket,
) -> Result<(ViewArena, Vec<ViewKey>), Stopped> {
    assert!(n > 0, "need at least one process");
    let templates = round_templates(n);
    let mut arena = ViewArena::new();
    // Facet frontier: flat CSR rows of per-process view keys.
    let mut frontier: Vec<ViewKey> = (1..=n as u32).map(|id| arena.initial(id)).collect();
    for _ in 0..rounds {
        let keys_before = arena.len();
        let next_keys = frontier.len() * templates.len();
        // ticket.check poll site (next frontier memory, before allocation)
        ticket.charge_memory((next_keys * std::mem::size_of::<ViewKey>()) as u64)?;
        frontier = advance_round(&frontier, n, &templates, &mut arena, workers, ticket)?;
        // ticket.check poll site (arena growth memory)
        ticket.charge_memory(((arena.len() - keys_before) * arena_node_bytes(n)) as u64)?;
    }
    Ok((arena, frontier))
}

/// Approximate heap bytes of one arena node over `n` processes: the
/// node with its boxed seen list, the support mask, the signature slot
/// and the index entry. Only memory-budget charges read it.
fn arena_node_bytes(n: usize) -> usize {
    32 + n * std::mem::size_of::<(u32, ViewKey)>() + 8 + 4 + 8
}

/// [`protocol_complex`] with an explicit chunk-fan-out width (normally
/// `rayon::current_num_threads()`) — kept injectable so the test suite
/// exercises the multi-chunk stamping/merge path even on the 1-core
/// containers CI runs on — and a ticket, polled and charged by the
/// round loop and the materialization pass.
fn protocol_complex_with_workers(
    n: usize,
    rounds: usize,
    workers: usize,
    ticket: &Ticket,
) -> Result<ChromaticComplex, Stopped> {
    let (mut arena, frontier) = stream_rounds(n, rounds, workers, ticket)?;
    // Materialize: one vertex per distinct (color, key), each class
    // once; the classes are then put in canonical order, exactly as
    // `compute_quotient` would, so the attached quotient is
    // indistinguishable from a recomputation.
    // ticket.check poll site (complex facet and lookup memory)
    ticket.charge_memory(
        (frontier.len() * std::mem::size_of::<VertexId>()
            + 2 * arena.len() * std::mem::size_of::<u32>()) as u64,
    )?;
    let mut complex = ChromaticComplex::new(n);
    complex.reserve(arena.len(), frontier.len() / n);
    // Dense key → vertex map (keys are arena indices); u32::MAX = unseen.
    let mut vertex_of: Vec<VertexId> = vec![VertexId::MAX; arena.len()];
    // Dense signature-key → class map (signature keys are arena indices).
    let mut class_of_signature: Vec<u32> = vec![u32::MAX; arena.len()];
    let mut class_keys: Vec<ViewKey> = Vec::new();
    let mut vertex_class: Vec<u32> = Vec::new();
    let mut facet: Vec<VertexId> = Vec::with_capacity(n);
    for (f, row) in frontier.chunks_exact(n).enumerate() {
        // ticket.check poll site (materialized-facet stride)
        if f.is_multiple_of(FACET_POLL_STRIDE) {
            ticket.check()?;
        }
        facet.clear();
        for (color, &key) in (1..=n as u32).zip(row) {
            let mut vertex = vertex_of[key.index()];
            if vertex == VertexId::MAX {
                // Hash-consing guarantees a fresh key is a fresh vertex.
                vertex = complex.push_vertex(Vertex {
                    color,
                    view: arena.view(key),
                });
                let signature = arena.signature(key);
                vertex_of[key.index()] = vertex;
                let class = class_id(&mut class_of_signature, &mut class_keys, signature);
                vertex_class.push(class);
            }
            facet.push(vertex);
        }
        facet.sort_unstable();
        complex.push_facet_sorted(&facet);
    }
    complex.set_quotient(SignatureQuotient::in_canonical_order(
        &arena,
        &class_keys,
        vertex_class,
    ));
    Ok(complex)
}

/// The class of `signature` in discovery order, numbering it on first
/// sight (`class_of_signature` is dense over arena keys, `u32::MAX` =
/// unseen); [`SignatureQuotient::in_canonical_order`] renumbers later.
fn class_id(
    class_of_signature: &mut [u32],
    class_keys: &mut Vec<ViewKey>,
    signature: ViewKey,
) -> u32 {
    let class = &mut class_of_signature[signature.index()];
    if *class == u32::MAX {
        *class = u32::try_from(class_keys.len()).expect("classes fit in u32");
        class_keys.push(signature);
    }
    *class
}

/// Builds the `r`-round IIS protocol complex `χ^r(Δ^{n−1})` for processes
/// with identities `1..n` through the streaming template-stamping
/// pipeline (see the module docs). The finished complex carries its
/// signature quotient, so
/// [`signature_quotient`](ChromaticComplex::signature_quotient) on it is
/// a lookup.
///
/// Facet counts grow as (ordered Bell number of `n`)^`r`; the streaming
/// builder keeps `n ≤ 4, r ≤ 3` and `n = 5, r ≤ 2` interactive (χ³(Δ³)'s
/// 421,875 facets build in about a second on one core — `BENCH_construct.json`
/// has the record).
///
/// # Panics
///
/// Panics if `n = 0`.
///
/// # Examples
///
/// ```
/// use gsb_topology::protocol_complex;
///
/// let one_round = protocol_complex(3, 1);
/// assert_eq!(one_round.facet_count(), 13); // ordered partitions of 3
/// ```
#[must_use]
pub fn protocol_complex(n: usize, rounds: usize) -> ChromaticComplex {
    protocol_complex_governed(n, rounds, &Ticket::unlimited())
        .expect("an unlimited ticket only stops under an armed fault plan")
}

/// [`protocol_complex`] under `ticket`: the round loop polls it every
/// 64 frontier rows and the materialization every 4,096 facets, and the
/// frontier, the arena's growth and the complex's facet storage are
/// charged to its memory budget.
///
/// # Errors
///
/// Returns [`Stopped`] when the ticket trips; nothing is kept.
///
/// # Panics
///
/// Panics if `n = 0`.
pub fn protocol_complex_governed(
    n: usize,
    rounds: usize,
    ticket: &Ticket,
) -> Result<ChromaticComplex, Stopped> {
    protocol_complex_with_workers(n, rounds, rayon::current_num_threads().max(1), ticket)
}

/// The seed's tuple-cloning subdivision builder, retained verbatim as
/// the reference oracle for the streaming pipeline
/// (`tests/streaming_equivalence.rs` asserts facet-level equality after
/// canonical ordering) and as the baseline of the construction bench.
///
/// # Panics
///
/// Panics if `n = 0`.
#[must_use]
pub fn protocol_complex_reference(n: usize, rounds: usize) -> ChromaticComplex {
    assert!(n > 0, "need at least one process");
    let ids: Vec<u32> = (1..=n as u32).collect();
    let partitions = ordered_partitions(&ids);
    let mut arena = ViewArena::new();
    // Facet frontier: per-execution view tuples, one key per process.
    let initial: Vec<ViewKey> = ids.iter().map(|&id| arena.initial(id)).collect();
    let mut frontier: Vec<Vec<ViewKey>> = vec![initial];
    for _ in 0..rounds {
        let mut next: Vec<Vec<ViewKey>> = Vec::with_capacity(frontier.len() * partitions.len());
        for views in &frontier {
            for partition in &partitions {
                // Apply one IS round: a process in block j sees blocks 1..=j.
                let mut next_views = views.clone();
                let mut seen_so_far: Vec<(u32, ViewKey)> = Vec::new();
                for block in partition {
                    for &q in block {
                        let qi = (q - 1) as usize;
                        seen_so_far.push((q, views[qi]));
                    }
                    for &p in block {
                        let pi = (p - 1) as usize;
                        next_views[pi] = arena.round(p, seen_so_far.clone());
                    }
                }
                next.push(next_views);
            }
        }
        // Distinct schedules can merge into one view tuple; dedup early so
        // the next round's fan-out works on distinct executions only.
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    // Materialize: one recursive View per distinct (color, key) vertex.
    let mut complex = ChromaticComplex::new(n);
    let mut vertex_of: HashMap<ViewKey, VertexId> = HashMap::new();
    for views in &frontier {
        let facet: Vec<_> = ids
            .iter()
            .zip(views)
            .map(|(&id, &key)| match vertex_of.get(&key) {
                Some(&v) => v,
                None => {
                    let v = complex.intern(Vertex {
                        color: id,
                        view: arena.view(key),
                    });
                    vertex_of.insert(key, v);
                    v
                }
            })
            .collect();
        complex.add_facet(facet);
    }
    complex.dedup_facets();
    complex
}

/// The check-side table of `χ^r(Δ^{n−1})`: its class count and, for
/// every raw facet in the streaming builder's facet order, the
/// canonical class id of each process's view (`n` ids per facet,
/// process order). Ids index the canonical ascending-view class order
/// of `(n, r)`, the order a [`DecisionMap`](crate::DecisionMap)'s
/// assignment is read in; a check replays over the table
/// ([`DecisionMap::check_against`](crate::DecisionMap::check_against)).
///
/// It comes from the streaming round loop the complex builder runs, but
/// skips vertex materialization, and no class view is built either:
/// classes are ranked by comparing arena keys. No facet is
/// deduplicated, and nothing in it is shared with a search's
/// [`ConstraintSystem`](crate::ConstraintSystem), so a check over it
/// trusts no state a solver built.
#[derive(Debug)]
pub struct FacetClasses {
    n: usize,
    rounds: usize,
    class_count: usize,
    facets: Box<[u32]>,
}

impl FacetClasses {
    /// Streams `rounds` subdivision rounds under `ticket` and tables
    /// every facet's classes. The round loop polls and charges the
    /// ticket like [`protocol_complex_governed`]'s, the class pass
    /// polls every 4,096 facets, and its lookup tables are charged too.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the ticket trips; nothing is kept.
    ///
    /// # Panics
    ///
    /// Panics if `n = 0`.
    pub fn build(n: usize, rounds: usize, ticket: &Ticket) -> Result<Self, Stopped> {
        let workers = rayon::current_num_threads().max(1);
        let (mut arena, frontier) = stream_rounds(n, rounds, workers, ticket)?;
        // ticket.check poll site (class lookup memory)
        ticket.charge_memory((2 * arena.len() * std::mem::size_of::<u32>()) as u64)?;
        // Dense key → discovery-order class (u32::MAX = unseen).
        let mut class_of_key: Vec<u32> = vec![u32::MAX; arena.len()];
        let mut class_of_signature: Vec<u32> = vec![u32::MAX; arena.len()];
        let mut class_keys: Vec<ViewKey> = Vec::new();
        for (f, row) in frontier.chunks_exact(n).enumerate() {
            // ticket.check poll site (class-pass facet stride)
            if f.is_multiple_of(FACET_POLL_STRIDE) {
                ticket.check()?;
            }
            for &key in row {
                if class_of_key[key.index()] == u32::MAX {
                    let signature = arena.signature(key);
                    class_of_key[key.index()] =
                        class_id(&mut class_of_signature, &mut class_keys, signature);
                }
            }
        }
        // Same element layout, so this collect reuses the frontier's
        // buffer: the table costs no second copy of the facets.
        let mut facets: Vec<u32> = frontier
            .into_iter()
            .map(|key| class_of_key[key.index()])
            .collect();
        SignatureQuotient::rank_canonically(&arena, &class_keys, &mut facets);
        Ok(FacetClasses {
            n,
            rounds,
            class_count: class_keys.len(),
            facets: facets.into_boxed_slice(),
        })
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Subdivision rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of raw facets.
    #[must_use]
    pub fn facet_count(&self) -> usize {
        self.facets.len() / self.n
    }

    /// Each facet's class ids, process `1..n` in order.
    pub fn facets(&self) -> std::slice::ChunksExact<'_, u32> {
        self.facets.chunks_exact(self.n)
    }
}

/// All permutations of the identities `1..=n`, lexicographic —
/// the process-renaming group `S_n` the orbit-quotient pipeline streams
/// over (`result[g][i]` = image of identity `i + 1` under element `g`;
/// element 0 is the identity).
#[must_use]
pub fn process_permutations(n: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut current: Vec<u32> = (1..=n as u32).collect();
    loop {
        out.push(current.clone());
        // Classic next-permutation step.
        let Some(i) = current.windows(2).rposition(|w| w[0] < w[1]) else {
            break;
        };
        let j = current
            .iter()
            .rposition(|&x| x > current[i])
            .expect("a successor exists right of the pivot");
        current.swap(i, j);
        current[i + 1..].reverse();
    }
    out
}

/// Construction counters of an orbit-quotient streaming build
/// ([`OrbitFrontier`]): the full complex's exact counts recovered via
/// orbit–stabilizer, next to the far smaller representative frontier
/// actually held in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrbitStats {
    /// Facets of the represented full complex — `Σ n!/|Stab(row)|` over
    /// the canonical rows, exact by orbit–stabilizer.
    pub facets: usize,
    /// Canonical representative rows held at the current round (one per
    /// `S_n`-orbit of full facets).
    pub orbit_rows: usize,
    /// Largest representative frontier held at any round — the orbit
    /// pipeline's peak working-set measure (the full pipeline's
    /// equivalent peaks at `facets`).
    pub peak_orbit_rows: usize,
    /// Rows stamped across all rounds (representatives × templates) —
    /// the work the full pipeline pays once per facet.
    pub stamped_rows: usize,
    /// Distinct vertices of the represented full complex (filled by the
    /// constraint expansion).
    pub vertices: usize,
    /// View order-isomorphism classes of the represented full complex
    /// (filled by the constraint expansion).
    pub classes: usize,
    /// Subdivision rounds applied.
    pub rounds: usize,
}

/// The orbit-level output of [`OrbitFrontier::expand`]: everything a
/// search instance needs, over canonical class ids. The frontier's
/// arena (which materializes class views on demand) is obtained
/// separately — cloned when the frontier stays cached, moved when it is
/// consumed.
#[derive(Debug)]
pub(crate) struct OrbitExpansion {
    /// Signature key of each class, canonically ordered (ascending
    /// [`View`](crate::View) order — the same order the full path sorts into).
    pub class_keys: Vec<ViewKey>,
    /// The distinct facet constraints of the **full** complex as sorted
    /// class multisets, flat (`n` class ids per constraint) and
    /// family-sorted — byte-identical to what
    /// [`ConstraintSystem::from_complex`](crate::ConstraintSystem)
    /// derives from the materialized complex.
    pub facet_classes: Vec<u32>,
}

/// Bits per class id when a width-`n` sorted multiset is packed
/// big-endian into one `u128` (so integer order equals lexicographic
/// order). Capped at 32; for every reachable complex (`n ≤ 6` leaves 21
/// bits — 2M classes, far beyond what one core can build) the packing
/// is exact, and the packers assert it.
pub(crate) fn multiset_bits(n: usize) -> u32 {
    u32::try_from(128 / n.max(1)).unwrap_or(32).min(32)
}

/// Packs a sorted class multiset big-endian; unpacking is
/// [`unpack_multiset`]. Caller asserts every id fits in `bits`.
#[inline]
pub(crate) fn pack_multiset(ids: &[u32], bits: u32) -> u128 {
    let mut packed = 0u128;
    for &id in ids {
        debug_assert!(u128::from(id) < (1u128 << bits), "class id fits packing");
        packed = (packed << bits) | u128::from(id);
    }
    packed
}

/// Unpacks a [`pack_multiset`] word back into `out` (ascending ids).
#[inline]
pub(crate) fn unpack_multiset(packed: u128, bits: u32, out: &mut [u32]) {
    let mask = (1u128 << bits) - 1;
    let n = out.len();
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((packed >> (bits * u32::try_from(n - 1 - i).expect("width fits"))) & mask) as u32;
    }
}

/// The **orbit-quotient streaming frontier**: the subdivision pipeline
/// of [`protocol_complex`], quotiented by the process-renaming action
/// *during* generation instead of after it.
///
/// Every frontier of `χ^r(Δ^{n−1})` is invariant under `S_n` relabelling
/// (a permuted execution is an execution), and stamping commutes with
/// the action: `π · stamp(R, T) = stamp(π·R, π·T)`, with the template
/// set closed under relabelling. So the frontier can be held as **one
/// lex-leader representative per orbit**: each round stamps every
/// template onto every representative, canonicalizes the produced row
/// (minimum of its `S_n`-images under the arena's key order, via the
/// memoized [`ViewArena::permute`] machinery), and keeps each canonical
/// row once with its orbit size `n!/|Stab|` — the stabilizer order
/// falls out of the same scan as the count of group elements that tie
/// the minimum. Facet counts and per-class statistics stay *exact* by
/// orbit–stabilizer, while the held frontier shrinks by up to `n!`
/// (`χ³(Δ³)`: 421,875 rows → ~19k representatives).
///
/// [`OrbitFrontier::expand`] then walks each representative's orbit at
/// the *class* level — `n` memoized permute+signature lookups per group
/// element, served from a per-key table — to recover the full complex's
/// distinct facet constraints without ever materializing a
/// [`ChromaticComplex`]. The full builder remains the reference oracle
/// (`tests/orbit_equivalence.rs`), and evidence replay stays on it.
#[derive(Debug, Clone)]
pub struct OrbitFrontier {
    n: usize,
    arena: ViewArena,
    templates: Vec<RoundTemplate>,
    /// `S_n`, lexicographic; `group[g][i]` = image of identity `i + 1`.
    group: Vec<Vec<u32>>,
    /// Inverse permutations as 0-based positions: `inverse[g][q]` = the
    /// process index whose view lands at position `q` under `group[g]`.
    inverse: Vec<Vec<u32>>,
    /// Permutation array → group-element index (stabilizer recovery).
    group_index: HashMap<Vec<u32>, u16>,
    /// `tmpl_perm[t · n! + g]` = index of the template `group[g] · T_t`.
    tmpl_perm: Vec<u16>,
    /// Flat canonical rows, `n` keys per row (position `p` = process
    /// `p + 1`), one per orbit of the full frontier.
    rows: Vec<ViewKey>,
    /// Orbit size (`n!/|Stab|`) of each canonical row.
    orbit_sizes: Vec<u32>,
    /// Stabilizer of each canonical row, CSR-packed group indices
    /// (always led by the identity) — drives the next round's
    /// template-orbit skipping.
    stab_offsets: Vec<u32>,
    stab_data: Vec<u16>,
    /// Dense permutation-image cache: slot `key · n! + g` holds
    /// `permute(key, group[g])` (+1; 0 = not yet computed). One indexed
    /// read on the hot canonicalization path instead of a probe through
    /// the arena's permutation memo.
    perm_cache: Vec<u32>,
    stats: OrbitStats,
}

/// [`ViewArena::permute`] through a dense `(key, perm-slot)` cache: a
/// repeat image is one indexed read. `stride` is the caller's slot
/// count per key; `perm_id` must stably identify `perm`.
#[inline]
fn cached_permute(
    cache: &mut Vec<u32>,
    arena: &mut ViewArena,
    key: ViewKey,
    slot_in_key: usize,
    stride: usize,
    perm: &[u32],
    perm_id: u32,
) -> ViewKey {
    let slot = key.index() * stride + slot_in_key;
    if slot >= cache.len() {
        // Doubling growth: the arena interns nodes one at a time while
        // images are computed, and resizing to the exact need each time
        // would re-copy the multi-megabyte cache per interned node.
        cache.resize((cache.len() * 2).max(arena.len() * stride).max(slot + 1), 0);
    }
    let cached = cache[slot];
    if cached != 0 {
        return ViewKey::from_index(cached as usize - 1);
    }
    let image = arena.permute(key, perm, perm_id);
    cache[slot] = u32::try_from(image.index() + 1).expect("arena fits in u32");
    image
}

impl OrbitFrontier {
    /// The round-0 frontier: the single facet of `Δ^{n−1}` (its own
    /// orbit — the initial row is fixed by every relabelling).
    ///
    /// # Panics
    ///
    /// Panics if `n = 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        let mut arena = ViewArena::new();
        let rows: Vec<ViewKey> = (1..=n as u32).map(|id| arena.initial(id)).collect();
        let group = process_permutations(n);
        let group_order = group.len();
        let inverse: Vec<Vec<u32>> = group
            .iter()
            .map(|perm| {
                let mut inv = vec![0u32; n];
                for (i, &to) in perm.iter().enumerate() {
                    inv[(to - 1) as usize] = u32::try_from(i).expect("n fits in u32");
                }
                inv
            })
            .collect();
        // Group-element index (for converting lex-leader tie cosets
        // into stabilizers by composition).
        let group_index: HashMap<Vec<u32>, u16> = group
            .iter()
            .enumerate()
            .map(|(g, perm)| (perm.clone(), u16::try_from(g).expect("group fits in u16")))
            .collect();
        let templates = round_templates(n);
        // tmpl_perm[t · n! + g] = index of π_g · T_t (relabel the
        // partition's members): stamp(π·R, π·T) = π · stamp(R, T).
        // Block vectors pack into 3-bit fields (block indices < n ≤ 6),
        // so the lookup side is one dense array read per permuted
        // template instead of a hash of the vector.
        let pack_blocks = |blocks: &[u32]| -> usize {
            blocks
                .iter()
                .enumerate()
                .map(|(q, &b)| (b as usize) << (3 * q))
                .sum()
        };
        let mut template_of_code = vec![u16::MAX; 1 << (3 * n)];
        for (t, tpl) in templates.iter().enumerate() {
            template_of_code[pack_blocks(tpl.block_assignment())] =
                u16::try_from(t).expect("templates fit in u16");
        }
        let mut tmpl_perm = vec![0u16; templates.len() * group_order];
        let mut permuted_blocks = vec![0u32; n];
        for (t, tpl) in templates.iter().enumerate() {
            let blocks = tpl.block_assignment();
            for (g, perm) in group.iter().enumerate() {
                for q in 0..n {
                    permuted_blocks[(perm[q] - 1) as usize] = blocks[q];
                }
                tmpl_perm[t * group_order + g] = template_of_code[pack_blocks(&permuted_blocks)];
            }
        }
        OrbitFrontier {
            n,
            arena,
            templates,
            group,
            inverse,
            group_index,
            tmpl_perm,
            rows,
            orbit_sizes: vec![1],
            // The initial row is fixed by the whole group.
            stab_offsets: vec![0, u32::try_from(group_order).expect("fits")],
            stab_data: (0..group_order)
                .map(|g| u16::try_from(g).expect("fits"))
                .collect(),
            perm_cache: Vec::new(),
            stats: OrbitStats {
                facets: 1,
                orbit_rows: 1,
                peak_orbit_rows: 1,
                ..OrbitStats::default()
            },
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds applied so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.stats.rounds
    }

    /// Current construction counters (class/vertex counts are filled by
    /// [`OrbitFrontier::expand`]).
    #[must_use]
    pub fn stats(&self) -> OrbitStats {
        self.stats
    }

    /// First permutation-memo id unused by this frontier's group
    /// enumeration (callers needing further ad-hoc permutations on the
    /// shared arena start here).
    pub(crate) fn perm_id_base(&self) -> u32 {
        u32::try_from(self.group.len()).expect("fits in u32")
    }

    /// Applies one subdivision round at the orbit level: stamps one
    /// template per `Stab(representative)`-orbit onto every
    /// representative (duplicate canonical rows arise *exactly* from
    /// stabilizer-related templates, so nothing else is ever stamped),
    /// keeps the lex-leader of each produced orbit, and carries the
    /// orbit's exact size and stabilizer. Polls the ticket at a bounded
    /// representative-row stride and charges the round's cache/row
    /// allocations against its memory budget.
    ///
    /// **Abort safety:** the next round's rows are built locally and
    /// committed only at the end, so an `Err` return leaves the
    /// frontier logically at the *previous* round — safe to retry or
    /// drop (only arena interning and the `stamped_rows` counter have
    /// advanced).
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the ticket trips mid-round.
    pub fn advance(&mut self, ticket: &Ticket) -> Result<(), Stopped> {
        let OrbitFrontier {
            n,
            arena,
            templates,
            group,
            inverse,
            group_index,
            tmpl_perm,
            rows,
            orbit_sizes,
            stab_offsets,
            stab_data,
            perm_cache,
            stats,
            ..
        } = self;
        let n = *n;
        let group_order = group.len();
        let mut next_rows: Vec<ViewKey> = Vec::new();
        let mut next_sizes: Vec<u32> = Vec::new();
        let mut next_stab_offsets: Vec<u32> = vec![0];
        let mut next_stab_data: Vec<u16> = Vec::new();
        let mut dedup = ProbeTable::with_capacity(rows.len() / n * templates.len());
        // Pre-size the image cache for the keys this round will create
        // (≈ stamped rows × n new nodes), so growth never re-copies it
        // mid-round.
        let expected_nodes = arena.len() + rows.len() * templates.len();
        if perm_cache.len() < expected_nodes * group_order {
            let grown = expected_nodes * group_order - perm_cache.len();
            ticket.charge_memory((grown * std::mem::size_of::<u32>()) as u64)?;
            perm_cache.resize(expected_nodes * group_order, 0);
        }
        let mut scratch: Vec<(u32, ViewKey)> = vec![(0, ViewKey::from_index(0)); n];
        let mut stamped: Vec<ViewKey> = vec![ViewKey::from_index(0); n];
        let mut image = stamped.clone();
        let mut best = stamped.clone();
        let mut ties: Vec<u16> = Vec::with_capacity(group_order);
        let mut stab_scratch: Vec<u16> = Vec::with_capacity(group_order);
        let mut composed: Vec<u32> = vec![0; n];
        for (r, row) in rows.chunks_exact(n).enumerate() {
            // ticket.check poll site (representative-row stride)
            if r % 64 == 0 {
                ticket.check()?;
            }
            let stab = &stab_data[stab_offsets[r] as usize..stab_offsets[r + 1] as usize];
            for (t, template) in templates.iter().enumerate() {
                // Stamp only the minimum template of each Stab(row)
                // orbit; the others reproduce the same canonical row.
                if stab.len() > 1
                    && stab[1..]
                        .iter()
                        .any(|&h| tmpl_perm[t * group_order + h as usize] < t as u16)
                {
                    continue;
                }
                stats.stamped_rows += 1;
                for (p, slot) in stamped.iter_mut().enumerate() {
                    let (id, len, hash) = stamp_process(row, template, p, &mut scratch);
                    *slot = arena.round_prehashed(id, &scratch[..len], hash);
                }
                // Lex-leader scan: minimize the image tuple over the
                // group, comparing positions lazily. The elements tying
                // the final minimum form a coset of its stabilizer.
                best.copy_from_slice(&stamped);
                ties.clear();
                ties.push(0);
                for g in 1..group_order {
                    let inv = &inverse[g];
                    let mut verdict = std::cmp::Ordering::Equal;
                    for pos in 0..n {
                        let img = cached_permute(
                            perm_cache,
                            arena,
                            stamped[inv[pos] as usize],
                            g,
                            group_order,
                            &group[g],
                            g as u32,
                        );
                        image[pos] = img;
                        match img.cmp(&best[pos]) {
                            std::cmp::Ordering::Equal => {}
                            other => {
                                verdict = other;
                                if other == std::cmp::Ordering::Less {
                                    for rest in pos + 1..n {
                                        image[rest] = cached_permute(
                                            perm_cache,
                                            arena,
                                            stamped[inv[rest] as usize],
                                            g,
                                            group_order,
                                            &group[g],
                                            g as u32,
                                        );
                                    }
                                }
                                break;
                            }
                        }
                    }
                    match verdict {
                        std::cmp::Ordering::Less => {
                            best.copy_from_slice(&image);
                            ties.clear();
                            ties.push(u16::try_from(g).expect("group fits in u16"));
                        }
                        std::cmp::Ordering::Equal => {
                            ties.push(u16::try_from(g).expect("group fits in u16"));
                        }
                        std::cmp::Ordering::Greater => {}
                    }
                }
                debug_assert_eq!(group_order % ties.len(), 0, "stabilizers divide the group");
                let hash = row_hash(&best);
                let start_of = |entry: u32| entry as usize * n;
                if dedup
                    .find(hash, |entry| next_rows[start_of(entry)..][..n] == *best)
                    .is_none()
                {
                    let entry = u32::try_from(next_rows.len() / n).expect("rows fit in u32");
                    dedup.insert(hash, entry);
                    next_rows.extend_from_slice(&best);
                    next_sizes
                        .push(u32::try_from(group_order / ties.len()).expect("orbit fits in u32"));
                    // Stab(best) = ties ∘ ties[0]⁻¹ (the scan found the
                    // coset {g : g·stamped = best}).
                    let t0 = ties[0] as usize;
                    stab_scratch.clear();
                    for &t in &ties {
                        let perm_t = &group[t as usize];
                        for i in 0..n {
                            // π_t ∘ π_{t0}⁻¹ applied to i + 1.
                            composed[i] = perm_t[inverse[t0][i] as usize];
                        }
                        stab_scratch.push(group_index[&composed]);
                    }
                    stab_scratch.sort_unstable();
                    debug_assert_eq!(stab_scratch.first(), Some(&0), "stabilizers contain id");
                    next_stab_data.extend_from_slice(&stab_scratch);
                    next_stab_offsets
                        .push(u32::try_from(next_stab_data.len()).expect("fits in u32"));
                } else {
                    debug_assert!(
                        false,
                        "stabilizer-orbit template skipping removes duplicates"
                    );
                }
            }
        }
        // Post-hoc memory charge for the round's committed rows and
        // stabilizer tables; an `Err` here still leaves the frontier at
        // the previous round (see the abort-safety note above).
        let committed = next_rows.len() * std::mem::size_of::<ViewKey>()
            + next_sizes.len() * std::mem::size_of::<u32>()
            + next_stab_data.len() * std::mem::size_of::<u16>();
        ticket.charge_memory(committed as u64)?;
        *rows = next_rows;
        *orbit_sizes = next_sizes;
        *stab_offsets = next_stab_offsets;
        *stab_data = next_stab_data;
        stats.rounds += 1;
        stats.orbit_rows = rows.len() / n;
        stats.peak_orbit_rows = stats.peak_orbit_rows.max(stats.orbit_rows);
        stats.facets = orbit_sizes.iter().map(|&s| s as usize).sum();
        Ok(())
    }

    /// Walks every representative's orbit at the class level and
    /// returns the full complex's distinct facet constraints over
    /// canonically ordered classes (see [`OrbitExpansion`]), filling
    /// the vertex/class counters of [`OrbitFrontier::stats`].
    ///
    /// The σ∘ρ factorization does the heavy lifting: `sig(π·v) = ρ·σ`
    /// where `σ = sig(v)` and `ρ` is `π`'s rank pattern on `supp(v)` —
    /// so one memoized canonical-to-canonical permutation per
    /// `(σ, pattern)` yields the class key directly, with no image
    /// vertex ever interned and no second signature pass. Vertex counts
    /// come from the same factorization: a class of support size `s`
    /// has exactly `C(n, s)` vertices (one per support), so
    /// `vertices = Σ_classes C(n, s)`.
    ///
    /// Polls the ticket once per group element and per emission stride,
    /// and charges the image/constraint tables against its memory
    /// budget. Expansion never mutates the frontier's rows, so an `Err`
    /// return leaves the frontier valid for later extension.
    pub(crate) fn expand(&mut self, ticket: &Ticket) -> Result<OrbitExpansion, Stopped> {
        let OrbitFrontier {
            n,
            arena,
            group,
            rows,
            stats,
            ..
        } = self;
        let n = *n;
        let group_order = group.len();
        // Distinct representative keys, discovery order.
        let mut slot_of_key: Vec<u32> = vec![u32::MAX; arena.len()];
        let mut distinct_keys: Vec<ViewKey> = Vec::new();
        for &key in rows.iter() {
            if slot_of_key[key.index()] == u32::MAX {
                slot_of_key[key.index()] = u32::try_from(distinct_keys.len()).expect("fits in u32");
                distinct_keys.push(key);
            }
        }
        // For each group element, one bottom-up pass over the reachable
        // sub-DAG assembles every image with dense child lookups (no
        // memo probes); class ids then come from the memoized signature
        // of the image.
        let closure = arena.reachable_closure(&distinct_keys);
        let mut column: Vec<u32> = Vec::new();
        let table_bytes = distinct_keys.len() * group_order * std::mem::size_of::<u32>();
        ticket.charge_memory(table_bytes as u64)?;
        let mut table = vec![0u32; distinct_keys.len() * group_order];
        let mut sigs: Vec<ViewKey> = Vec::new();
        let mut sig_slot: Vec<u32> = Vec::new(); // indexed by arena key, grown on demand
        let bits = multiset_bits(n);
        for g in 0..group_order {
            // ticket.check poll site (group-element stride)
            ticket.check()?;
            if g > 0 {
                arena.permute_column(&closure, &group[g], &mut column);
            }
            for (slot, &key) in distinct_keys.iter().enumerate() {
                let image = if g == 0 {
                    key
                } else {
                    ViewKey::from_index(column[key.index()] as usize - 1)
                };
                let class_key = arena.signature(image);
                if sig_slot.len() <= class_key.index() {
                    sig_slot.resize(class_key.index() + 1, u32::MAX);
                }
                if sig_slot[class_key.index()] == u32::MAX {
                    let id = u32::try_from(sigs.len()).expect("fits in u32");
                    assert!(
                        u128::from(id) < (1u128 << bits),
                        "class count exceeds the {bits}-bit constraint packing at n = {n}"
                    );
                    sig_slot[class_key.index()] = id;
                    sigs.push(class_key);
                }
                table[slot * group_order + g] = sig_slot[class_key.index()];
            }
        }
        stats.classes = sigs.len();
        // One vertex per (class, support): Σ C(n, support size).
        let mut binomial = vec![0usize; n + 1];
        for (s, slot) in binomial.iter_mut().enumerate() {
            let mut value = 1usize;
            for i in 0..s {
                value = value * (n - i) / (i + 1);
            }
            *slot = value;
        }
        stats.vertices = sigs
            .iter()
            .map(|&sig| binomial[arena.support_len(sig) as usize])
            .sum();
        // Canonical class order: ascending view order, matching the
        // full path's sort of materialized signature views — computed
        // as bulk layered ranks over the whole arena, then the class
        // table is rewritten to canonical ids up front so constraints
        // need no post-hoc remap.
        let ranks = arena.view_order_ranks();
        let mut order: Vec<u32> = (0..u32::try_from(sigs.len()).expect("fits in u32")).collect();
        order.sort_unstable_by_key(|&slot| ranks[sigs[slot as usize].index()]);
        let mut class_of_slot = vec![0u32; sigs.len()];
        for (class, &slot) in order.iter().enumerate() {
            class_of_slot[slot as usize] = u32::try_from(class).expect("fits in u32");
        }
        let class_keys: Vec<ViewKey> = order.iter().map(|&slot| sigs[slot as usize]).collect();
        for entry in &mut table {
            *entry = class_of_slot[*entry as usize];
        }
        // Constraint emission: one packed word per (representative,
        // group element) — big-endian packing makes word order equal
        // lexicographic multiset order, so a single u128 sort both
        // deduplicates the family and puts it in canonical order. No
        // hashing, no per-constraint allocation.
        let emission_bytes = rows.len() / n * group_order * std::mem::size_of::<u128>();
        ticket.charge_memory(emission_bytes as u64)?;
        let mut packed_constraints: Vec<u128> = Vec::with_capacity(rows.len() / n * group_order);
        let mut multiset: Vec<u32> = vec![0; n];
        for (r, row) in rows.chunks_exact(n).enumerate() {
            // ticket.check poll site (emission stride)
            if r % 64 == 0 {
                ticket.check()?;
            }
            for g in 0..group_order {
                for (pos, &key) in row.iter().enumerate() {
                    multiset[pos] = table[slot_of_key[key.index()] as usize * group_order + g];
                }
                multiset.sort_unstable();
                packed_constraints.push(pack_multiset(&multiset, bits));
            }
        }
        packed_constraints.sort_unstable();
        packed_constraints.dedup();
        let mut facet_classes: Vec<u32> = vec![0; packed_constraints.len() * n];
        for (chunk, &packed) in facet_classes.chunks_exact_mut(n).zip(&packed_constraints) {
            unpack_multiset(packed, bits, chunk);
        }
        Ok(OrbitExpansion {
            class_keys,
            facet_classes,
        })
    }

    /// A clone of the frontier's arena (for callers that keep the
    /// frontier cached for later round extension).
    pub(crate) fn clone_arena(&self) -> ViewArena {
        self.arena.clone()
    }

    /// Consumes the frontier, yielding its arena without a copy (the
    /// one-shot streaming path).
    pub(crate) fn into_arena(self) -> ViewArena {
        self.arena
    }

    /// Runs the constraint expansion for its side effect only: the
    /// vertex/class counters of [`OrbitFrontier::stats`] (the
    /// `gsb complex --orbits` report path).
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the ticket trips mid-expansion.
    pub fn quotient_stats(&mut self, ticket: &Ticket) -> Result<OrbitStats, Stopped> {
        self.expand(ticket)?;
        Ok(self.stats)
    }
}

/// Facet counts of `χ^r(Δ^{n−1})` known in closed form for one round: the
/// ordered Bell numbers. Exposed for tests and benches.
#[must_use]
pub fn ordered_bell(n: usize) -> usize {
    // a(n) = Σ_{k=1..n} C(n,k)·a(n−k), a(0) = 1.
    let mut a = vec![0usize; n + 1];
    a[0] = 1;
    for i in 1..=n {
        let mut total = 0usize;
        let mut binom = 1usize; // C(i, k)
        for k in 1..=i {
            binom = binom * (i - k + 1) / k;
            total += binom * a[i - k];
        }
        a[i] = total;
    }
    a[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::View;

    #[test]
    fn ordered_bell_numbers() {
        assert_eq!(ordered_bell(0), 1);
        assert_eq!(ordered_bell(1), 1);
        assert_eq!(ordered_bell(2), 3);
        assert_eq!(ordered_bell(3), 13);
        assert_eq!(ordered_bell(4), 75);
        assert_eq!(ordered_bell(5), 541);
    }

    #[test]
    fn one_round_facet_counts_match_ordered_bell() {
        for n in 1..=4 {
            let complex = protocol_complex(n, 1);
            assert_eq!(complex.facet_count(), ordered_bell(n), "n = {n}");
        }
    }

    #[test]
    fn two_round_facet_count_n2() {
        // χ²(Δ¹): the edge subdivided twice: 3² = 9 facets.
        let complex = protocol_complex(2, 2);
        assert_eq!(complex.facet_count(), 9);
    }

    #[test]
    fn zero_rounds_is_a_single_simplex() {
        let complex = protocol_complex(3, 0);
        assert_eq!(complex.facet_count(), 1);
        assert_eq!(complex.vertices().len(), 3);
    }

    #[test]
    fn subdivisions_are_pseudomanifolds() {
        for (n, r) in [(2usize, 1usize), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)] {
            let complex = protocol_complex(n, r);
            assert!(complex.is_pseudomanifold(), "χ^{r}(Δ^{}) n={n}", n - 1);
            assert!(complex.is_strongly_connected(), "χ^{r} n={n}");
        }
    }

    #[test]
    fn boundary_of_subdivided_edge() {
        // χ(Δ¹) is a path: exactly 2 boundary vertices (the corners).
        let complex = protocol_complex(2, 1);
        assert_eq!(complex.boundary_ridge_count(), 2);
        // χ(Δ²)'s boundary is the subdivided triangle boundary: each of
        // the 3 edges of Δ² is subdivided into a path of 3 edges → 9
        // boundary ridges.
        let complex = protocol_complex(3, 1);
        assert_eq!(complex.boundary_ridge_count(), 9);
    }

    #[test]
    fn vertex_views_have_expected_depth() {
        let complex = protocol_complex(3, 2);
        for v in complex.vertices() {
            assert_eq!(v.view.depth(), 2);
            assert_eq!(v.view.id(), v.color);
        }
    }

    #[test]
    fn solo_corner_exists_per_color() {
        // In χ(Δ²) each color has a corner vertex seeing only itself.
        let complex = protocol_complex(3, 1);
        for color in 1..=3u32 {
            let solo = View::one_round(color, &[color]);
            assert!(
                complex
                    .vertices()
                    .iter()
                    .any(|v| v.color == color && v.view == solo),
                "missing solo corner for color {color}"
            );
        }
    }

    #[test]
    fn chunked_fanout_is_identical_to_serial_stamping() {
        // The multi-chunk path (chunk-local node tables + serial merge)
        // is unreachable through the public API on a 1-core host, so
        // force it: chunks are contiguous frontier ranges replayed in
        // order, hence the build must be bit-identical to the serial
        // one — same facet rows, same vertex numbering, same classes.
        for workers in [2usize, 3, 5] {
            // The second round's 13 rows are at least two per worker,
            // so it fans out over `workers` chunks.
            assert!(
                ordered_bell(3) >= 2 * workers,
                "fan-out engaged ({workers})"
            );
            let serial = with_workers(3, 2, 1);
            let chunked = with_workers(3, 2, workers);
            assert_eq!(serial.facet_data(), chunked.facet_data());
            assert_eq!(serial.vertices(), chunked.vertices());
            let sq = serial.signature_quotient();
            let cq = chunked.signature_quotient();
            assert_eq!(sq.classes, cq.classes);
            assert_eq!(sq.vertex_class, cq.vertex_class);
        }
        // A width wider than the frontier rows degrades to one chunk.
        let wide = with_workers(2, 1, 64);
        assert_eq!(wide.facet_count(), 3);
    }

    /// An ungoverned build at an explicit fan-out width.
    fn with_workers(n: usize, rounds: usize, workers: usize) -> ChromaticComplex {
        protocol_complex_with_workers(n, rounds, workers, &Ticket::unlimited()).unwrap()
    }

    #[test]
    fn governed_builds_stop_on_a_tripped_ticket() {
        use gsb_core::govern::{Limits, StopReason};
        // χ³(Δ³)'s last frontier alone is 421,875 × 4 keys (6.75 MB),
        // so a 1 MB budget trips inside the round loop, serial and
        // chunked alike; a cancelled ticket stops at the first poll.
        let capped = || {
            Ticket::new(Limits {
                memory_bytes: Some(1 << 20),
                ..Limits::none()
            })
        };
        for workers in [1usize, 2] {
            let stopped = protocol_complex_with_workers(4, 3, workers, &capped()).unwrap_err();
            assert_eq!(
                stopped.reason,
                StopReason::MemoryBudget,
                "{workers} workers"
            );
        }
        let stopped = FacetClasses::build(4, 3, &capped()).unwrap_err();
        assert_eq!(stopped.reason, StopReason::MemoryBudget);
        let cancelled = Ticket::unlimited();
        cancelled.cancel();
        let stopped = protocol_complex_governed(3, 1, &cancelled).unwrap_err();
        assert_eq!(stopped.reason, StopReason::Cancelled);
        let stopped = FacetClasses::build(3, 1, &cancelled).unwrap_err();
        assert_eq!(stopped.reason, StopReason::Cancelled);
    }

    #[test]
    fn process_permutations_enumerate_the_symmetric_group() {
        assert_eq!(process_permutations(0), vec![Vec::<u32>::new()]);
        assert_eq!(process_permutations(1), vec![vec![1]]);
        let s3 = process_permutations(3);
        assert_eq!(s3.len(), 6);
        assert_eq!(s3[0], vec![1, 2, 3], "element 0 is the identity");
        assert_eq!(s3[5], vec![3, 2, 1], "lexicographically last");
        let distinct: std::collections::HashSet<_> = s3.iter().collect();
        assert_eq!(distinct.len(), 6);
        assert_eq!(process_permutations(4).len(), 24);
    }

    #[test]
    fn orbit_frontier_counts_facets_exactly_by_orbit_stabilizer() {
        // Orbits of one-round facets are template orbits under S_n, i.e.
        // compositions of n; the orbit sizes must re-sum to the ordered
        // Bell number exactly.
        for (n, orbit_rows) in [(1usize, 1usize), (2, 2), (3, 4), (4, 8)] {
            let mut frontier = OrbitFrontier::new(n);
            assert_eq!(frontier.stats().facets, 1, "round 0 is one facet");
            frontier.advance(&Ticket::unlimited()).unwrap();
            let stats = frontier.stats();
            assert_eq!(stats.orbit_rows, orbit_rows, "compositions of {n}");
            assert_eq!(stats.facets, ordered_bell(n), "n = {n}");
        }
        // n = 3, r = 1 forces non-trivial stabilizers: the four orbits
        // have sizes 6, 3, 3, 1 (the all-see-all schedule is fixed by
        // every relabelling) — only exact orbit–stabilizer accounting
        // makes 13.
        let mut frontier = OrbitFrontier::new(3);
        frontier.advance(&Ticket::unlimited()).unwrap();
        let mut sizes = frontier.orbit_sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 3, 6]);
    }

    #[test]
    fn orbit_frontier_matches_full_build_through_rounds() {
        for (n, r) in [(2usize, 3usize), (3, 2), (4, 2), (5, 1)] {
            let full = protocol_complex(n, r);
            let mut frontier = OrbitFrontier::new(n);
            for _ in 0..r {
                frontier.advance(&Ticket::unlimited()).unwrap();
            }
            let orbit = frontier.quotient_stats(&Ticket::unlimited()).unwrap();
            assert_eq!(orbit.facets, full.facet_count(), "facets at ({n},{r})");
            assert_eq!(
                orbit.vertices,
                full.vertices().len(),
                "vertices at ({n},{r})"
            );
            assert_eq!(
                orbit.classes,
                full.signature_quotient().classes.len(),
                "classes at ({n},{r})"
            );
            assert_eq!(orbit.rounds, r);
            // The full frontier only grows, so its peak is the facet set.
            assert!(
                orbit.peak_orbit_rows <= full.facet_count(),
                "the representative frontier never exceeds the full one"
            );
        }
    }

    #[test]
    fn orbit_expansion_is_stable_across_repeat_and_extension() {
        // Expanding, extending a round, and expanding again must agree
        // with a fresh build at the deeper round (the EngineCache
        // extends cached frontiers in place during sweeps).
        let mut extended = OrbitFrontier::new(3);
        extended.advance(&Ticket::unlimited()).unwrap();
        let first = extended.expand(&Ticket::unlimited()).unwrap();
        extended.advance(&Ticket::unlimited()).unwrap();
        let second = extended.expand(&Ticket::unlimited()).unwrap();
        let mut fresh = OrbitFrontier::new(3);
        fresh.advance(&Ticket::unlimited()).unwrap();
        fresh.advance(&Ticket::unlimited()).unwrap();
        let fresh_expansion = fresh.expand(&Ticket::unlimited()).unwrap();
        assert_eq!(second.facet_classes, fresh_expansion.facet_classes);
        assert_eq!(second.class_keys.len(), fresh_expansion.class_keys.len());
        assert_eq!(extended.stats().facets, fresh.stats().facets);
        // And the round-1 expansion was not clobbered by the extension.
        let mut fresh1 = OrbitFrontier::new(3);
        fresh1.advance(&Ticket::unlimited()).unwrap();
        assert_eq!(
            first.facet_classes,
            fresh1.expand(&Ticket::unlimited()).unwrap().facet_classes
        );
    }

    #[test]
    fn streamed_quotient_matches_recomputation() {
        // The builder-attached quotient must be indistinguishable from
        // what the complex would compute from scratch: same classes in
        // the same order, same per-vertex class ids.
        let streamed = protocol_complex(3, 2);
        let attached = streamed.signature_quotient();
        let mut scratch = ChromaticComplex::new(3);
        for facet in streamed.facets() {
            let vertices: Vec<VertexId> = facet
                .iter()
                .map(|&v| scratch.intern(streamed.vertices()[v as usize].clone()))
                .collect();
            scratch.add_facet(vertices);
        }
        let recomputed = scratch.signature_quotient();
        assert_eq!(attached.classes, recomputed.classes);
        assert_eq!(attached.vertex_class, recomputed.vertex_class);
    }
}
