//! The **solvability atlas**: classifies every feasible symmetric GSB
//! task (Theorems 9–11, Corollaries 2–5) and prints the gcd-of-binomials
//! table behind Theorem 10. Print-only; the engine-vs-naive timing lives
//! in the `record` bin's `BENCH_atlas.json` (see `DESIGN.md` §4).
//!
//! ```text
//! cargo run -p gsb-bench --bin atlas [-- max_n]
//! ```

use gsb_bench::atlas;
use gsb_core::solvability::{binomial_gcd, is_prime_power};
use gsb_core::Solvability;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .map_or(8, |s| s.parse().expect("max_n"));

    println!("gcd{{C(n,i) : 1 ≤ i ≤ ⌊n/2⌋}} — the Theorem 10 criterion\n");
    println!(
        "{:<4} {:<8} {:<12} {:<30}",
        "n", "gcd", "prime power", "WSB / (2n−2)-renaming"
    );
    for n in 2..=max_n.max(20) {
        let g = binomial_gcd(n);
        println!(
            "{:<4} {:<8} {:<12} {:<30}",
            n,
            g,
            is_prime_power(n),
            if g > 1 {
                "not wait-free solvable"
            } else {
                "wait-free solvable (exceptional n)"
            }
        );
    }

    println!("\nThe task zoo at n = {max_n} (§3.2's named tasks)\n");
    // One engine batch over the zoo: rayon fan-out, shared cache,
    // every verdict's evidence re-checked before printing.
    match gsb_core::zoo::catalog(max_n) {
        Ok(entries) => {
            let batch: gsb_engine::Batch = entries
                .iter()
                .map(|entry| gsb_engine::Query::classify(entry.spec.clone()))
                .collect();
            for (entry, verdict) in entries.iter().zip(batch.run()) {
                match verdict {
                    Ok(verdict) => {
                        println!("  {:<34} {:<38} {}", entry.name, entry.reference, verdict)
                    }
                    Err(e) => println!(
                        "  {:<34} {:<38} engine error: {e}",
                        entry.name, entry.reference
                    ),
                }
            }
        }
        Err(e) => println!("  (zoo unavailable: {e})"),
    }

    println!("\nSolvability atlas — every feasible ⟨n, m, ℓ, u⟩, n ≤ {max_n}\n");
    let rows = atlas(max_n);
    let mut counts = std::collections::BTreeMap::new();
    for row in &rows {
        *counts.entry(format!("{}", row.verdict)).or_insert(0usize) += 1;
    }
    println!(
        "{:<22} {:<20} {:>7} {:>9} {:>5}  {:<16} {:<28} justification",
        "task", "canonical", "kernels", "outputs", "depth", "anchoring", "verdict"
    );
    for row in &rows {
        println!(
            "{:<22} {:<20} {:>7} {:>9} {:>5}  {:<16} {:<28} {}",
            row.task.to_string(),
            format!("({}, {})", row.canonical.l(), row.canonical.u()),
            row.kernel_vectors,
            row.legal_outputs,
            row.inclusion_depth,
            row.anchoring.to_string(),
            row.verdict.to_string(),
            row.justification
        );
    }
    println!("\nTotals over {} tasks:", rows.len());
    for (verdict, count) in counts {
        println!("  {verdict:<30} {count}");
    }
    let open = rows
        .iter()
        .filter(|r| r.verdict == Solvability::Open)
        .count();
    println!("\n{open} tasks remain open — the frontier of the paper's §7 questions.");
}
