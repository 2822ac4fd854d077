//! The **bench records**: measures the atlas (engine vs. the naive
//! baseline, DESIGN.md §4), the decision-map search suite (DESIGN.md §6
//! and §12) and the construction suite (DESIGN.md §8), checks every
//! gate, and writes `BENCH_atlas.json`, `BENCH_search.json` and
//! `BENCH_construct.json` to the working directory.
//!
//! ```text
//! cargo run --release -p gsb-bench --bin record [-- --quick]
//! ```
//!
//! * no flag — the full run that produces the committed records: the
//!   atlas through n = 9, the full search suite with each row's full
//!   baseline budget (uncensored `wsb(3) r=2`, `wsb(3) r=3`, the
//!   `loose_renaming(5) r=2` CDCL/race/local split, the
//!   `renaming(3,6) r=2` cold/warm split), and the full construction
//!   suite. Expect tens of minutes on one quiet core.
//! * `--quick` — the CI smoke: the atlas through n = 6, the base search
//!   suite with a 100,000-node baseline cap, and the quick construction
//!   suite plus the χ³(Δ³) orbit gate. Checks every gate, writes nothing.
//!
//! Every wall column is the median of 7 timed runs after one warm-up,
//! with its IQR beside it (`gsb_bench::sample`).

use std::time::Duration;

use gsb_bench::{
    atlas_report, construct_report, record, search_report, write_record, BaselineBudget,
    SearchBenchRow, Wall,
};

fn ms(wall: Wall) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    match wall.iqr {
        Some(iqr) => format!("{:.3}±{:.3}ms", ms(wall.median), ms(iqr)),
        None => format!("{:.3}ms", ms(wall.median)),
    }
}

fn row<'a>(rows: &'a [SearchBenchRow], instance: &str) -> &'a SearchBenchRow {
    rows.iter()
        .find(|r| r.instance == instance)
        .unwrap_or_else(|| panic!("{instance} row missing"))
}

fn main() {
    let quick = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--quick") => true,
        Some(other) => panic!("unknown argument {other:?}: `record` takes only --quick"),
    };
    let mut records = Vec::new();

    let atlas = atlas_report(if quick { 6 } else { 9 });
    println!(
        "atlas({}): {} rows, engine {} vs naive {} — {:.2}x (enumeration n=3: {} → {} nodes)",
        atlas.max_n,
        atlas.rows,
        ms(atlas.engine_wall),
        ms(atlas.naive_wall),
        atlas.atlas_speedup(),
        atlas.enumeration.naive_nodes,
        atlas.enumeration.memoized_nodes,
    );
    records.push(("atlas", atlas.body()));

    println!("\nDecision-map search: solver engine vs. retained backtracking baseline\n");
    let search = search_report(if quick {
        BaselineBudget::Capped(100_000)
    } else {
        BaselineBudget::Full
    });
    println!(
        "{:<30} {:>7} {:>7} {:>9} {:>20} {:>20} {:>8}  verdict",
        "instance", "classes", "facets", "conflicts", "engine", "baseline", "speedup"
    );
    for r in &search.rows {
        println!(
            "{:<30} {:>7} {:>7} {:>9} {:>20} {:>20} {:>7}{} {}",
            r.instance,
            r.classes,
            r.facets,
            r.cdcl_stats.conflicts,
            ms(r.cdcl_wall),
            ms(r.baseline_wall),
            r.speedup().map_or("—".to_string(), |x| format!("{x:.1}x")),
            if r.baseline_censored { "+" } else { " " },
            if r.solvable { "solvable" } else { "UNSAT" },
        );
    }
    println!(
        "('+' marks censored baselines, so the speedup is a lower bound; '—' marks tiny \
         rows the baseline wins outright, or mode variants that skip the baseline.)"
    );
    // The frontier must stay closed, whatever the budgets.
    assert!(
        !row(&search.rows, "wsb(3) r=2").solvable,
        "WSB n=3 r=2 must be UNSAT"
    );
    assert!(
        row(&search.rows, "loose_renaming(4) r=2").solvable,
        "(2n−1)-renaming n=4 must solve at r=2"
    );
    // The completion race must reach plain CDCL's verdict on its smoke
    // instance, in both modes.
    assert!(
        row(&search.rows, "loose_renaming(4) r=2 [race]").solvable,
        "the completion race must reach the plain row's SAT verdict"
    );
    if !quick {
        // loose_renaming(5) r=2 under the race is the large-SAT
        // acceptance gate: the local lane's repair walk closed what took
        // plain CDCL minutes, and the record must not regress past 20 s.
        let flagship = row(&search.rows, "loose_renaming(5) r=2 [race]");
        assert!(flagship.solvable, "loose_renaming(5) r=2 is SAT");
        assert!(
            flagship.cdcl_wall.median <= Duration::from_secs(20),
            "the flagship race row regressed past the 20 s record: {:?}",
            flagship.cdcl_wall.median
        );
        // The warm-started twin must actually have seeded (the lift of
        // the r=1 map reached the r=2 instance).
        assert!(
            row(&search.rows, "renaming(3,6) r=2 [warm]").warm_seeded,
            "the lifted warm start must seed the solver"
        );
    }
    records.push(("search", search.body()));

    println!("\nProtocol-complex construction: streaming pipeline vs. reference builder\n");
    let construct = construct_report(quick);
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>20} {:>20} {:>20} {:>8} {:>8}",
        "complex",
        "facets",
        "classes",
        "orbitrows",
        "streaming",
        "full prep",
        "fused prep",
        "total x",
        "fused x"
    );
    for r in &construct.rows {
        println!(
            "χ^{}(Δ^{})   {:>9} {:>9} {:>10} {:>20} {:>20} {:>20} {:>8} {:>7.1}x",
            r.rounds,
            r.n - 1,
            r.facets,
            r.classes,
            r.orbit.orbit_rows,
            ms(r.streaming_wall),
            ms(r.full_prep_wall),
            ms(r.fused_wall),
            r.total_speedup()
                .map_or("—".to_string(), |x| format!("{x:.1}x")),
            r.fused_speedup(),
        );
    }
    records.push(("construct", construct.body()));

    if quick {
        println!("\n--quick: every gate held; no record written.");
        return;
    }
    for (name, body) in records {
        let path = write_record(name, &record(name, quick, body))
            .unwrap_or_else(|e| panic!("could not write BENCH_{name}.json: {e}"));
        println!("\nRecord written to {}", path.display());
    }
}
