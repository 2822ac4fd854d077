//! The **solvability-frontier search bench**: the decision-map engine
//! (CDCL, the CDCL-vs-local completion race, and local search alone)
//! vs. the retained backtracking baseline on the frontier instances,
//! recorded in `BENCH_search.json` (see `DESIGN.md` §6 and §12).
//!
//! ```text
//! cargo run --release -p gsb-bench --bin search [-- --quick | --full]
//! ```
//!
//! * default — per-row baseline budgets (censored rows take ~1 s each).
//! * `--quick` — CI smoke: one small node cap for every baseline row;
//!   still asserts the frontier verdicts and races the
//!   `loose_renaming(4) r=2 [race]` row.
//! * `--full` — uncensored `wsb(3) r=2` baseline (~10 s) plus the
//!   heavyweight frontier records: `wsb(3) r=3`, the
//!   `loose_renaming(5) r=2` CDCL/race/local split (gated at
//!   ≤ 20 s for the race row), and the `renaming(3,6) r=2` cold/warm
//!   split; use this when refreshing the committed
//!   `BENCH_search.json`. Expect ~15 minutes on one quiet core.

use gsb_bench::{search_report_budgeted, write_search_json, BaselineBudget};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let mode = if full {
        BaselineBudget::Full
    } else if args.iter().any(|a| a == "--quick") {
        BaselineBudget::Capped(100_000)
    } else {
        BaselineBudget::Default
    };

    println!("Decision-map search: solver engine vs. retained backtracking baseline\n");
    let report = search_report_budgeted(mode);
    println!(
        "{:<30} {:>7} {:>7} {:>9} {:>12} {:>12} {:>12} {:>10}  verdict",
        "instance", "classes", "facets", "conflicts", "engine", "governed", "baseline", "speedup"
    );
    for row in &report.rows {
        println!(
            "{:<30} {:>7} {:>7} {:>9} {:>11.3}ms {:>11.3}ms {:>11.1}ms {:>10}{} {}",
            row.instance,
            row.classes,
            row.facets,
            row.cdcl_stats.conflicts,
            row.cdcl_wall.as_secs_f64() * 1e3,
            row.governed_wall.as_secs_f64() * 1e3,
            row.baseline_wall.as_secs_f64() * 1e3,
            row.speedup()
                .map_or("—".to_string(), |ratio| format!("{ratio:.0}x")),
            if row.baseline_censored { "+" } else { " " },
            if row.solvable { "solvable" } else { "UNSAT" },
        );
    }
    println!(
        "\n('+' marks censored baselines: the budget ran out, so the speedup is a lower \
         bound; '—' marks tiny rows the baseline wins outright or mode-variant rows \
         that skip the duplicate baseline.)"
    );

    // The frontier must stay closed, whatever the budgets.
    let wsb = report
        .rows
        .iter()
        .find(|r| r.instance.starts_with("wsb"))
        .expect("wsb row");
    assert!(!wsb.solvable, "WSB n=3 r=2 must be UNSAT");
    let renaming = report
        .rows
        .iter()
        .find(|r| r.instance.starts_with("loose_renaming"))
        .expect("renaming row");
    assert!(renaming.solvable, "(2n−1)-renaming n=4 must solve at r=2");
    // The completion race must reach the same verdict as plain CDCL on
    // its smoke instance — every mode, every run, including --quick CI.
    let race_smoke = report
        .rows
        .iter()
        .find(|r| r.instance == "loose_renaming(4) r=2 [race]")
        .expect("race smoke row");
    assert!(
        race_smoke.solvable,
        "the completion race must reach the plain row's SAT verdict"
    );

    if full {
        // The record rows this bench pins. loose_renaming(5) r=2 under
        // the race is the large-SAT acceptance gate: the local lane's
        // offending-class repair walk closed what took plain CDCL
        // minutes, and the committed record must not regress past 20 s.
        let flagship = report
            .rows
            .iter()
            .find(|r| r.instance == "loose_renaming(5) r=2 [race]")
            .expect("flagship race row");
        assert!(flagship.solvable, "loose_renaming(5) r=2 is SAT");
        assert!(
            flagship.cdcl_wall <= std::time::Duration::from_secs(20),
            "the flagship race row regressed past the 20 s record: {:?}",
            flagship.cdcl_wall
        );
        // The warm-started twin must actually have seeded (the lift of
        // the r=1 map reached the r=2 instance).
        let warm = report
            .rows
            .iter()
            .find(|r| r.instance == "renaming(3,6) r=2 [warm]")
            .expect("warm row");
        assert!(
            warm.warm_seeded,
            "the lifted warm start must seed the solver"
        );
    }

    // Governance drift gate on the pinned frontier rows: budgets and a
    // channel-parked watchdog must stay near-free. The reference side
    // (`cdcl_wall`) runs under the default unlimited ticket — every
    // query polls one — so the gap prices the limits and the watchdog
    // registration on top of the same poll sites. `--full`
    // (the mode that refreshes the committed record) enforces the 2%
    // budget; the other modes run on noisy CI boxes and gate loosely so
    // only a real regression (a poll in a hot inner loop) trips them.
    // A 200 µs absolute floor keeps scheduler jitter on the sub-ms row
    // from masquerading as drift — a poll added to a hot inner loop
    // costs orders of magnitude more than that on these instances.
    let tolerance = if full { 0.02 } else { 0.50 };
    let slack = std::time::Duration::from_micros(200);
    for row in [&wsb, &renaming] {
        let overhead = row.governed_overhead();
        let gap = row.governed_wall.saturating_sub(row.cdcl_wall);
        println!(
            "governed overhead on {}: {:+.2}% (gate {:.0}% or <{:?} absolute)",
            row.instance,
            overhead * 100.0,
            tolerance * 100.0,
            slack
        );
        assert!(
            overhead < tolerance || gap < slack,
            "governance overhead drifted on {}: {:.2}% >= {:.0}% (gap {:?})",
            row.instance,
            overhead * 100.0,
            tolerance * 100.0,
            gap
        );
    }

    let path = std::path::Path::new("BENCH_search.json");
    match write_search_json(&report, path) {
        Ok(()) => println!("\nRecord written to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
