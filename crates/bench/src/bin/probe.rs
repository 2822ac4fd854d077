//! Internal diagnostics: class/facet counts and engine timings of
//! solvability-search instances (kept as a bin target for quick
//! inspection).

use std::time::Instant;

use gsb_bench::reference_baseline;
use gsb_core::govern::Ticket;
use gsb_topology::{CdclConfig, SearchMode, SymmetricSearch};

fn build(spec: gsb_core::GsbSpec, rounds: usize) -> SymmetricSearch {
    SymmetricSearch::build(spec, rounds, &Ticket::unlimited()).expect("unlimited ticket")
}

fn probe(label: &str, spec: gsb_core::GsbSpec, rounds: usize) {
    let t = Instant::now();
    let search = build(spec, rounds);
    let prep = t.elapsed();
    let t = Instant::now();
    let (result, stats) = search.solve_mode_with(&CdclConfig::default(), SearchMode::Cdcl);
    let result = result.expect("CDCL is complete");
    println!(
        "{label} r={rounds}: classes={} facets={} prep={prep:?} solve={:?} solvable={} \
         conflicts={} decisions={} props={} learned={} images={} restarts={}",
        search.classes().len(),
        search.facet_count(),
        t.elapsed(),
        result.is_solvable(),
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.learned,
        stats.symmetric_images,
        stats.restarts,
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    probe(
        "wsb(3)",
        gsb_core::SymmetricGsb::wsb(3).unwrap().to_spec(),
        1,
    );
    probe(
        "wsb(3)",
        gsb_core::SymmetricGsb::wsb(3).unwrap().to_spec(),
        2,
    );
    probe("election(3)", gsb_core::GsbSpec::election(3).unwrap(), 2);
    if which.contains("r1") {
        for m in [10, 9, 8, 7] {
            probe(
                &format!("renaming(4,{m})"),
                gsb_core::SymmetricGsb::renaming(4, m).unwrap().to_spec(),
                1,
            );
        }
    }
    if which.contains("n4") {
        for m in [10, 9, 8, 7] {
            probe(
                &format!("renaming(4,{m})"),
                gsb_core::SymmetricGsb::renaming(4, m).unwrap().to_spec(),
                2,
            );
        }
    }
    if which.contains("budget") {
        for (label, spec, r, budget) in [
            (
                "wsb(3)",
                gsb_core::SymmetricGsb::wsb(3).unwrap().to_spec(),
                2usize,
                1_000_000u64,
            ),
            (
                "loose_renaming(4)",
                gsb_core::SymmetricGsb::loose_renaming(4).unwrap().to_spec(),
                2,
                100_000,
            ),
            (
                "election(3)",
                gsb_core::GsbSpec::election(3).unwrap(),
                2,
                1_000_000,
            ),
        ] {
            let search = build(spec, r);
            let t = Instant::now();
            let out = reference_baseline(&search, budget);
            println!(
                "{label} r={r} budget={budget}: {:?} verdict={:?}",
                t.elapsed(),
                out.map(|o| o.is_solvable())
            );
        }
    }
    if which.contains("ref") {
        let spec = gsb_core::SymmetricGsb::wsb(3).unwrap().to_spec();
        let search = build(spec, 2);
        let t = Instant::now();
        let result = reference_baseline(&search, u64::MAX).expect("no node budget");
        println!(
            "wsb(3) r=2 reference: solvable={} in {:?}",
            result.is_solvable(),
            t.elapsed()
        );
    }
}
