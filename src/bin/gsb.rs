//! `gsb` — the query→verdict engine from the shell.
//!
//! ```text
//! gsb classify <task|--spec n,m,l,u> --n N [--k K] [--json]
//! gsb solvable <task> --n N --rounds R [--engine cdcl|reference|both] [--json]
//! gsb frontier --task <task> --n N --rounds R [--json]
//! gsb witness  <task> --n N [--simulate] [--json]
//! gsb certify  <task> --n N --rounds R [--json]
//! gsb atlas    <max_n> [--rows] [--json]
//! gsb complex  <n> <r> [--json]
//! gsb tasks
//! gsb serve    [--addr A] [--store PATH] [--workers W] [--no-append]
//! gsb store    build --atlas N --out PATH
//! gsb query    <task> --n N --connect ADDR [--question Q] [--json]
//! gsb ping     --connect ADDR [--wait-ms MS]
//! gsb metrics  --connect ADDR [--json]
//! gsb shutdown --connect ADDR
//! gsb cache-stats [--warm N | --connect ADDR] [--json]
//! ```
//!
//! Every subcommand is a thin shell over `gsb_universe::Query`; `--json`
//! prints the verdict report verbatim (`Verdict::to_json`), which can be
//! parsed back and re-checked offline with `Verdict::from_json`. The
//! `serve`/`store`/`--connect` family fronts the `gsb-serve` subsystem
//! (DESIGN.md §11): a persistent JSON-lines solvability service with a
//! disk-backed verdict store, admission control, and metrics.

use std::collections::BTreeMap;
use std::process::ExitCode;

use std::sync::Arc;

use gsb_universe::core::GsbSpec;
use gsb_universe::engine::Json;
use gsb_universe::serve::{
    AdmissionPolicy, Client, CompactionPolicy, RetryPolicy, SelfHealingClient, Served, ServedBy,
    Server, ServerConfig, VerdictStore,
};
use gsb_universe::{
    named_task, EngineCache, Error, Query, SearchEngine, SearchMode, Verdict, KNOWN_TASKS,
};

const USAGE: &str = "\
gsb — unified solvability queries over the GSB task universe

USAGE:
  gsb classify <task|--spec n,m,l,u> --n N [--k K] [--agree R] [--json]
  gsb solvable <task> --n N --rounds R [--engine cdcl|reference|both]
               [--search-mode cdcl|race|local] [--no-warm-start] [--json]
  gsb frontier --task <task> --n N --rounds R [--search-mode M]
               [--no-warm-start] [--json]
  gsb witness  <task> --n N [--simulate] [--json]
  gsb certify  <task> --n N --rounds R [--json]
  gsb atlas    <max_n> [--rows] [--json]
  gsb complex  <n> <r> [--orbits] [--json]
  gsb tasks

Serving (DESIGN.md §11, failure model §13):
  gsb serve    [--addr A] [--store PATH] [--workers W] [--max-inflight M]
               [--max-rounds R] [--deadline-cap-ms MS] [--no-append]
               [--idle-timeout-ms MS] [--retry-after-ms MS]
               [--compact-after N]
  gsb store    build --atlas N --out PATH
  gsb store    compact PATH
  gsb query    <task> --n N [--k K] --connect ADDR
               [--question classify|solvable|witness|certificate|atlas]
               [--rounds R] [--max-n N] [--retries R] [--json]
  gsb reload   --connect ADDR [--store PATH]
  gsb ping     --connect ADDR [--wait-ms MS]
  gsb metrics  --connect ADDR [--json]
  gsb shutdown --connect ADDR
  gsb cache-stats [--warm N | --connect ADDR] [--json]

`gsb serve` answers solvability questions over a JSON-lines TCP
protocol, consulting the disk-backed verdict store before the solver
and shedding load beyond its admission limits with a typed
`overloaded` response. Build a store offline with `gsb store build
--atlas 6 --out verdicts.jsonl`, then serve it with `--store`.
`gsb store compact` rewrites the append log into a sorted, checksummed
generation file (the server also auto-compacts past --compact-after
log entries); `gsb reload` hot-swaps the served store without a
restart or dropped requests; `gsb query --retries R` retries shed or
dropped requests with capped, jittered backoff.

Every query command also takes resource-governance limits:
  [--deadline-ms MS] [--decision-budget D] [--conflict-budget C]
  [--node-budget K] [--memory-budget-mb MB]
A query that hits a limit stops cooperatively and reports an
*indeterminate* verdict (solvability null, evidence kind
\"indeterminate\" with the stop reason and partial search counters)
instead of hanging or erroring, e.g.:
  gsb solvable wsb --n 3 --rounds 3 --deadline-ms 50 --json
  gsb solvable loose_renaming --n 4 --k 5 --rounds 2 --conflict-budget 1000

OPTIONS:
  --n N          number of processes
  --k K          task parameter (renaming name space, slot count, …)
  --spec n,m,l,u explicit symmetric ⟨n,m,ℓ,u⟩ spec instead of a task name
  --rounds R     round bound for the topological engines
  --engine E     search engine: cdcl (default), reference, or both
  --search-mode M  how the cdcl engine attacks the search: cdcl
                 (default), race (CDCL vs. local-search completion,
                 first finisher wins), or local (completion only —
                 exhaustion is indeterminate, never UNSAT)
  --no-warm-start  don't seed the solver with the lifted r−1 decision
                 map when the cache holds one (A/B runs, benchmarks)
  --agree R      cross-engine agreement mode through R rounds (classify)
  --simulate     replay witness evidence through the simulator (witness)
  --rows         print every atlas row, not just the totals
  --orbits       run the orbit-quotient pipeline instead: one lex-leader
                 representative per facet orbit, exact counts by
                 orbit–stabilizer, no complex materialized (complex)
  --json         emit the machine-readable verdict report
  --deadline-ms MS      wall-clock deadline (checked at every poll)
  --decision-budget D   CDCL decision budget of the query
  --conflict-budget C   CDCL conflict budget of the query
  --node-budget K       reference-backtracker node budget
  --memory-budget-mb MB approximate memory budget: construction plus
                        each CDCL solver's setup

`gsb complex <n> <r>` builds χ^r(Δ^{n−1}) through the streaming
subdivision pipeline and prints facet/vertex/signature-class counts plus
build time; with `--orbits` the orbit-quotient frontier streams the same
counts from up to n!-fold fewer representative rows.

Run `gsb tasks` for the known task names.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gsb: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: positionals plus `--name value` / boolean flags.
struct Args {
    positionals: Vec<String>,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

const BOOLEAN_FLAGS: &[&str] = &[
    "json",
    "simulate",
    "rows",
    "orbits",
    "no-append",
    "no-warm-start",
];
const VALUE_FLAGS: &[&str] = &[
    "n",
    "k",
    "spec",
    "rounds",
    "engine",
    "search-mode",
    "agree",
    "task",
    "max-n",
    "deadline-ms",
    "decision-budget",
    "conflict-budget",
    "node-budget",
    "memory-budget-mb",
    // Serving flags (DESIGN.md §11).
    "addr",
    "store",
    "workers",
    "max-inflight",
    "max-rounds",
    "deadline-cap-ms",
    "atlas",
    "out",
    "connect",
    "wait-ms",
    "question",
    "warm",
    // Crash-safe serving flags (DESIGN.md §13).
    "idle-timeout-ms",
    "retry-after-ms",
    "compact-after",
    "retries",
];

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            positionals: Vec::new(),
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    parsed.switches.push(name.to_string());
                } else if VALUE_FLAGS.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.values.insert(name.to_string(), value.clone());
                } else {
                    return Err(format!(
                        "unknown option --{name} (see `gsb help` for the option list)"
                    ));
                }
            } else {
                parsed.positionals.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn usize_value(&self, name: &str) -> Result<Option<usize>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--{name} must be a number, got '{v}'"))
            })
            .transpose()
    }

    fn require_usize(&self, name: &str) -> Result<usize, String> {
        self.usize_value(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn u64_value(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{name} must be a number, got '{v}'"))
            })
            .transpose()
    }
}

/// Applies the shared governance flags (deadline and budgets) to a
/// query's options. Every query subcommand accepts them; a tripped
/// limit yields an indeterminate verdict, not an error.
fn apply_governance(args: &Args, query: &mut Query) -> Result<(), String> {
    let opts = query.opts_mut();
    opts.deadline = args
        .u64_value("deadline-ms")?
        .map(std::time::Duration::from_millis);
    opts.decision_budget = args.u64_value("decision-budget")?;
    opts.conflict_budget = args.u64_value("conflict-budget")?;
    opts.node_budget = args.u64_value("node-budget")?;
    opts.memory_budget = args
        .u64_value("memory-budget-mb")?
        .map(|mb| mb.saturating_mul(1024 * 1024));
    Ok(())
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first().map(String::as_str) else {
        println!("{USAGE}");
        return Ok(());
    };
    let rest = Args::parse(&args[1..])?;
    match command {
        "classify" => classify(&rest),
        "solvable" => solvable(&rest),
        "frontier" => frontier(&rest),
        "witness" => witness(&rest),
        "certify" | "certificate" => certify(&rest),
        "atlas" => atlas(&rest),
        "complex" => complex(&rest),
        "serve" => serve(&rest),
        "store" => store(&rest),
        "query" => remote_query(&rest),
        "reload" => reload(&rest),
        "ping" => ping(&rest),
        "metrics" => metrics(&rest),
        "shutdown" => shutdown(&rest),
        "cache-stats" => cache_stats(&rest),
        "tasks" => {
            println!("Known task names (`gsb classify <name> --n N`):\n");
            for &(name, help) in KNOWN_TASKS {
                println!("  {name:<20} {help}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; try `gsb help`")),
    }
}

/// Resolves the task under query: a named task + `--n` (+ `--k`), or an
/// explicit `--spec n,m,l,u`.
fn resolve_spec(args: &Args) -> Result<GsbSpec, String> {
    if let Some(spec) = args.value("spec") {
        let parts: Vec<usize> = spec
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("--spec component '{p}' is not a number"))
            })
            .collect::<Result<_, _>>()?;
        let [n, m, l, u] = parts.as_slice() else {
            return Err("--spec takes four components: n,m,l,u".into());
        };
        return gsb_universe::core::SymmetricGsb::new(*n, *m, *l, *u)
            .map(|t| t.to_spec())
            .map_err(|e| e.to_string());
    }
    let name = args
        .value("task")
        .map(str::to_string)
        .or_else(|| args.positionals.first().cloned())
        .ok_or_else(|| "name a task (e.g. `wsb`) or pass --spec n,m,l,u".to_string())?;
    let n = args.require_usize("n")?;
    named_task(&name, n, args.usize_value("k")?).map_err(|e| e.to_string())
}

fn emit(verdict: &Verdict, json: bool) {
    if json {
        print!("{}", verdict.to_json());
    } else {
        println!("{verdict}");
        println!("  evidence:   {}", verdict.evidence);
        println!(
            "  provenance: {} via [{}]{}",
            verdict.provenance.question,
            verdict.provenance.engines.join(", "),
            if verdict.provenance.cache_hit {
                " (cached)"
            } else {
                ""
            }
        );
        println!(
            "  stats:      {:.3} ms{}{}",
            verdict.stats.wall.as_secs_f64() * 1e3,
            if verdict.stats.evidence_checked {
                ", evidence checked"
            } else {
                ""
            },
            match verdict.stats.simulated_runs {
                0 => String::new(),
                runs => format!(", {runs} simulator replays"),
            }
        );
    }
}

fn run_query(query: Query) -> Result<Verdict, String> {
    query.run().map_err(|e| render_error(&e))
}

fn render_error(e: &Error) -> String {
    match e {
        Error::Disagreement { question, details } => {
            format!("cross-engine disagreement on {question}: {details} (this is a bug)")
        }
        other => other.to_string(),
    }
}

fn classify(args: &Args) -> Result<(), String> {
    let spec = resolve_spec(args)?;
    let mut query = Query::classify(spec);
    if let Some(rounds) = args.usize_value("agree")? {
        query.opts_mut().agreement_rounds = Some(rounds);
    }
    apply_governance(args, &mut query)?;
    let verdict = run_query(query)?;
    emit(&verdict, args.switch("json"));
    Ok(())
}

fn parse_engine(args: &Args) -> Result<SearchEngine, String> {
    match args.value("engine") {
        None | Some("cdcl") => Ok(SearchEngine::Cdcl),
        Some("reference") => Ok(SearchEngine::Reference),
        Some("both") => Ok(SearchEngine::Both),
        Some(other) => Err(format!(
            "unknown engine '{other}' (cdcl, reference, or both)"
        )),
    }
}

/// Applies `--search-mode {cdcl,race,local}` and `--no-warm-start` to a
/// round-bounded query's options.
fn apply_search_mode(args: &Args, query: &mut Query) -> Result<(), String> {
    if let Some(label) = args.value("search-mode") {
        query.opts_mut().mode = SearchMode::from_label(label)
            .ok_or_else(|| format!("unknown search mode '{label}' (cdcl, race, or local)"))?;
    }
    if args.switch("no-warm-start") {
        query.opts_mut().warm_start = false;
    }
    Ok(())
}

fn solvable(args: &Args) -> Result<(), String> {
    let spec = resolve_spec(args)?;
    let rounds = args.require_usize("rounds")?;
    let mut query = Query::solvable_in_rounds(spec, rounds);
    query.opts_mut().search = parse_engine(args)?;
    apply_search_mode(args, &mut query)?;
    apply_governance(args, &mut query)?;
    let verdict = run_query(query)?;
    emit(&verdict, args.switch("json"));
    Ok(())
}

fn frontier(args: &Args) -> Result<(), String> {
    let spec = resolve_spec(args)?;
    let max_rounds = args.require_usize("rounds")?;
    let engine = parse_engine(args)?;
    let mut verdicts = Vec::with_capacity(max_rounds + 1);
    for rounds in 0..=max_rounds {
        let mut query = Query::solvable_in_rounds(spec.clone(), rounds);
        query.opts_mut().search = engine;
        apply_search_mode(args, &mut query)?;
        apply_governance(args, &mut query)?;
        verdicts.push(run_query(query)?);
    }
    if args.switch("json") {
        let report = Json::Arr(verdicts.iter().map(Verdict::to_json_value).collect());
        print!("{}", report.render());
        return Ok(());
    }
    println!("Solvability frontier for {spec}:");
    println!(
        "{:<8} {:<10} {:>10} {:>12}",
        "rounds", "verdict", "conflicts", "wall"
    );
    for (rounds, verdict) in verdicts.iter().enumerate() {
        let (answer, conflicts) = match verdict.evidence.decision_map() {
            Some(map) => (
                "SAT".to_string(),
                format!("{} classes", map.classes().len()),
            ),
            None => (
                "UNSAT".to_string(),
                verdict
                    .stats
                    .search
                    .map_or_else(String::new, |s| s.conflicts.to_string()),
            ),
        };
        println!(
            "{rounds:<8} {answer:<10} {conflicts:>10} {:>9.3} ms",
            verdict.stats.wall.as_secs_f64() * 1e3
        );
    }
    if let Some(last) = verdicts.last() {
        println!(
            "\noverall: {} ({})",
            last.solvability
                .map_or_else(|| "—".to_string(), |s| s.to_string()),
            last.provenance.justification
        );
    }
    Ok(())
}

fn witness(args: &Args) -> Result<(), String> {
    let spec = resolve_spec(args)?;
    let mut query = Query::no_comm_witness(spec);
    query.opts_mut().simulate_witness = args.switch("simulate");
    apply_governance(args, &mut query)?;
    let verdict = run_query(query)?;
    if !args.switch("json") {
        if let Some(map) = verdict.evidence.witness() {
            println!("witness (identity → value): {map:?}");
        }
    }
    emit(&verdict, args.switch("json"));
    Ok(())
}

fn certify(args: &Args) -> Result<(), String> {
    let spec = resolve_spec(args)?;
    let rounds = args.require_usize("rounds")?;
    let mut query = Query::certificate(spec, rounds);
    apply_governance(args, &mut query)?;
    let verdict = run_query(query)?;
    emit(&verdict, args.switch("json"));
    Ok(())
}

/// `gsb complex <n> <r>`: builds the protocol complex through the
/// streaming pipeline and reports its shape and build cost.
fn complex(args: &Args) -> Result<(), String> {
    let n = args
        .usize_value("n")?
        .or(args
            .positionals
            .first()
            .map(|p| p.parse::<usize>().map_err(|_| format!("bad n '{p}'")))
            .transpose()?)
        .ok_or_else(|| "pass the process count, e.g. `gsb complex 4 2`".to_string())?;
    let rounds = args
        .usize_value("rounds")?
        .or(args
            .positionals
            .get(1)
            .map(|p| p.parse::<usize>().map_err(|_| format!("bad r '{p}'")))
            .transpose()?)
        .ok_or_else(|| "pass the round count, e.g. `gsb complex 4 2`".to_string())?;
    if n == 0 {
        return Err("need at least one process".into());
    }
    if args.switch("orbits") {
        return complex_orbits(n, rounds, args.switch("json"));
    }
    let start = std::time::Instant::now();
    let complex = gsb_universe::topology::protocol_complex(n, rounds);
    let wall = start.elapsed();
    let (facets, vertices) = (complex.facet_count(), complex.vertices().len());
    // The streamed complex carries its quotient: this is a lookup.
    let classes = complex.signature_quotient().classes.len();
    if args.switch("json") {
        let report = Json::Obj(vec![
            ("n".into(), Json::Num(n as f64)),
            ("rounds".into(), Json::Num(rounds as f64)),
            ("facets".into(), Json::Num(facets as f64)),
            ("vertices".into(), Json::Num(vertices as f64)),
            ("classes".into(), Json::Num(classes as f64)),
            (
                "build_ms".into(),
                Json::Num((wall.as_secs_f64() * 1e3 * 1000.0).round() / 1000.0),
            ),
        ]);
        print!("{}", report.render());
        return Ok(());
    }
    println!(
        "χ^{rounds}(Δ^{}) — the {rounds}-round IIS protocol complex on {n} processes:",
        n.saturating_sub(1)
    );
    println!("  facets:            {facets}");
    println!("  vertices:          {vertices}");
    println!("  signature classes: {classes}");
    println!(
        "  built in:          {:.3} ms (streaming pipeline, quotient included)",
        wall.as_secs_f64() * 1e3
    );
    Ok(())
}

/// `gsb complex <n> <r> --orbits`: the orbit-quotient streaming
/// pipeline — stamps one representative per symmetry orbit and reports
/// the full complex's exact counts via orbit–stabilizer, fused straight
/// into a solver-ready constraint system.
fn complex_orbits(n: usize, rounds: usize, json: bool) -> Result<(), String> {
    let start = std::time::Instant::now();
    let ticket = gsb_universe::core::Ticket::unlimited();
    let (system, stats) = gsb_universe::topology::ConstraintSystem::streamed(n, rounds, &ticket)
        .map_err(|stopped| stopped.to_string())?;
    let wall = start.elapsed();
    if json {
        let report = Json::Obj(vec![
            ("n".into(), Json::Num(n as f64)),
            ("rounds".into(), Json::Num(rounds as f64)),
            ("facets".into(), Json::Num(stats.facets as f64)),
            ("vertices".into(), Json::Num(stats.vertices as f64)),
            ("classes".into(), Json::Num(stats.classes as f64)),
            ("orbit_rows".into(), Json::Num(stats.orbit_rows as f64)),
            ("stamped_rows".into(), Json::Num(stats.stamped_rows as f64)),
            (
                "peak_orbit_rows".into(),
                Json::Num(stats.peak_orbit_rows as f64),
            ),
            (
                "facet_constraints".into(),
                Json::Num(system.facet_count() as f64),
            ),
            (
                "fused_prep_ms".into(),
                Json::Num((wall.as_secs_f64() * 1e3 * 1000.0).round() / 1000.0),
            ),
        ]);
        print!("{}", report.render());
        return Ok(());
    }
    println!(
        "χ^{rounds}(Δ^{}) through the orbit-quotient pipeline ({n} processes):",
        n.saturating_sub(1)
    );
    println!(
        "  facets:            {} (exact, via orbit–stabilizer)",
        stats.facets
    );
    println!("  vertices:          {}", stats.vertices);
    println!("  signature classes: {}", stats.classes);
    println!(
        "  orbit rows:        {} representatives held ({} stamped across rounds)",
        stats.orbit_rows, stats.stamped_rows
    );
    println!("  facet constraints: {} distinct", system.facet_count());
    println!(
        "  fused prep in:     {:.3} ms (solver-ready instance, no complex materialized)",
        wall.as_secs_f64() * 1e3
    );
    Ok(())
}

fn atlas(args: &Args) -> Result<(), String> {
    let max_n = args
        .usize_value("max-n")?
        .or(args
            .positionals
            .first()
            .map(|p| p.parse::<usize>().map_err(|_| format!("bad max_n '{p}'")))
            .transpose()?)
        .ok_or_else(|| "pass the largest n to sweep, e.g. `gsb atlas 9`".to_string())?;
    let mut query = Query::atlas(max_n);
    apply_governance(args, &mut query)?;
    let verdict = run_query(query)?;
    if args.switch("json") {
        print!("{}", verdict.to_json());
        return Ok(());
    }
    let rows = verdict
        .evidence
        .atlas_rows()
        .ok_or_else(|| "atlas produced unexpected evidence".to_string())?;
    if args.switch("rows") {
        println!("{:<24} {:<30} justification", "task", "verdict");
        for row in rows {
            println!(
                "{:<24} {:<30} {}",
                row.task.to_string(),
                row.solvability.to_string(),
                row.justification
            );
        }
        println!();
    }
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    for row in rows {
        *totals.entry(row.solvability.to_string()).or_default() += 1;
    }
    println!(
        "Atlas through n = {max_n}: {} feasible tasks ({:.3} ms{})",
        rows.len(),
        verdict.stats.wall.as_secs_f64() * 1e3,
        if verdict.stats.evidence_checked {
            ", every row re-checked"
        } else {
            ""
        }
    );
    for (verdict_label, count) in totals {
        println!("  {verdict_label:<32} {count}");
    }
    Ok(())
}

/// The admission policy assembled from `gsb serve`'s flags (defaults
/// from [`AdmissionPolicy::default`]).
fn parse_policy(args: &Args) -> Result<AdmissionPolicy, String> {
    let mut policy = AdmissionPolicy::default();
    if let Some(max) = args.usize_value("max-inflight")? {
        policy.max_in_flight = max;
    }
    if let Some(rounds) = args.usize_value("max-rounds")? {
        policy.max_rounds = rounds;
    }
    if let Some(ms) = args.u64_value("deadline-cap-ms")? {
        policy.deadline_cap = std::time::Duration::from_millis(ms);
    }
    Ok(policy)
}

/// `gsb serve`: bind, print the resolved address, and block until a
/// `shutdown` request arrives on the wire.
fn serve(args: &Args) -> Result<(), String> {
    let mut compaction = CompactionPolicy::default();
    if let Some(entries) = args.u64_value("compact-after")? {
        compaction.max_log_entries = entries.max(1);
    }
    let store = match args.value("store") {
        Some(path) => VerdictStore::open_with(path, Some(compaction)).map_err(|e| e.to_string())?,
        None => VerdictStore::in_memory(),
    };
    let mut config = ServerConfig {
        policy: parse_policy(args)?,
        append_to_store: !args.switch("no-append"),
        ..ServerConfig::default()
    };
    if let Some(addr) = args.value("addr") {
        config.addr = addr.to_string();
    }
    if let Some(workers) = args.usize_value("workers")? {
        config.workers = workers;
    }
    if let Some(ms) = args.u64_value("idle-timeout-ms")? {
        config.idle_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = args.u64_value("retry-after-ms")? {
        config.retry_after_ms = Some(ms);
    }
    let entries = store.stats().entries;
    let backing = store
        .path()
        .map_or("memory only".to_string(), |p| p.display().to_string());
    let workers = config.workers;
    let handle = Server::start(config, Arc::new(store), Arc::new(EngineCache::new()))
        .map_err(|e| e.to_string())?;
    println!(
        "gsb serve listening on {} ({} workers, store: {backing}, {entries} precomputed verdicts)",
        handle.addr(),
        workers
    );
    println!("stop with `gsb shutdown --connect {}`", handle.addr());
    handle.join();
    println!("gsb serve: shut down cleanly");
    Ok(())
}

/// `gsb store build --atlas N --out PATH`: precompute the symmetric
/// universe (plus the task zoo) into a disk-backed verdict store.
/// `gsb store compact PATH`: rewrite its append log into a sorted,
/// checksummed generation file.
fn store(args: &Args) -> Result<(), String> {
    match args.positionals.first().map(String::as_str) {
        Some("build") => {}
        Some("compact") => return store_compact(args),
        _ => {
            return Err(
                "usage: gsb store build --atlas N --out PATH | gsb store compact PATH".into(),
            )
        }
    }
    let max_n = args
        .usize_value("atlas")?
        .ok_or_else(|| "--atlas N names the largest process count to precompute".to_string())?;
    let out = args
        .value("out")
        .ok_or_else(|| "--out PATH names the store file to build".to_string())?;
    let store = VerdictStore::open(out).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let added = store
        .build_atlas(max_n, EngineCache::global())
        .map_err(|e| render_error(&e))?;
    println!(
        "store {} now holds {} verdicts ({added} added, atlas through n = {max_n}, {:.3} ms)",
        out,
        store.stats().entries,
        start.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

/// `gsb store compact PATH`: one offline compaction pass.
fn store_compact(args: &Args) -> Result<(), String> {
    let path = args
        .positionals
        .get(1)
        .ok_or_else(|| "usage: gsb store compact PATH".to_string())?;
    let store = VerdictStore::open_with(path, None).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let report = store.compact().map_err(|e| e.to_string())?;
    println!(
        "store {} compacted into generation {} ({} entries, {} bytes, {:.3} ms)",
        path,
        report.generation,
        report.entries,
        report.bytes,
        start.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn require_connect(args: &Args) -> Result<&str, String> {
    args.value("connect")
        .ok_or_else(|| "--connect HOST:PORT names the server to talk to".to_string())
}

/// `gsb query`: run a question on a remote `gsb serve` instead of the
/// in-process engine.
fn remote_query(args: &Args) -> Result<(), String> {
    let addr = require_connect(args)?;
    let question = args.value("question").unwrap_or("classify");
    let mut query = match question {
        "classify" => Query::classify(resolve_spec(args)?),
        "solvable" | "solvable-in-rounds" => {
            Query::solvable_in_rounds(resolve_spec(args)?, args.require_usize("rounds")?)
        }
        "witness" | "no-comm-witness" => Query::no_comm_witness(resolve_spec(args)?),
        "certificate" | "certify" => {
            Query::certificate(resolve_spec(args)?, args.require_usize("rounds")?)
        }
        "atlas" => Query::atlas(args.require_usize("max-n")?),
        other => {
            return Err(format!(
                "unknown --question '{other}' (classify, solvable, witness, certificate, atlas)"
            ))
        }
    };
    apply_governance(args, &mut query)?;
    let retries = args.u64_value("retries")?.unwrap_or(0);
    let (served, retried) = if retries > 0 {
        let policy = RetryPolicy {
            max_attempts: retries + 1,
            ..RetryPolicy::default()
        };
        let mut client = SelfHealingClient::new(addr, policy);
        let served = client.query(&query).map_err(|e| e.to_string())?;
        (served, client.retries())
    } else {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        (client.query(&query).map_err(|e| e.to_string())?, 0)
    };
    let Served { verdict, served_by } = served;
    if !args.switch("json") {
        println!(
            "served by the {} at {addr}{}",
            match served_by {
                ServedBy::Store => "verdict store",
                ServedBy::Engine => "engine",
            },
            if retried > 0 {
                format!(" after {retried} retries")
            } else {
                String::new()
            }
        );
    }
    emit(&verdict, args.switch("json"));
    Ok(())
}

/// `gsb reload`: hot-swap the served verdict store without a restart.
fn reload(args: &Args) -> Result<(), String> {
    let addr = require_connect(args)?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (entries, generation) = client
        .reload(args.value("store"))
        .map_err(|e| e.to_string())?;
    println!("reloaded: {entries} verdicts, generation {generation}, served from {addr}");
    Ok(())
}

/// `gsb ping`: readiness probe, retrying until `--wait-ms` elapses.
fn ping(args: &Args) -> Result<(), String> {
    let addr = require_connect(args)?;
    let wait = std::time::Duration::from_millis(args.u64_value("wait-ms")?.unwrap_or(0));
    let mut client = Client::connect_retry(addr, wait).map_err(|e| e.to_string())?;
    let protocol = client.ping().map_err(|e| e.to_string())?;
    println!("pong from {addr} (protocol {protocol})");
    Ok(())
}

/// `gsb metrics`: the server's counters — raw JSON or a summary.
fn metrics(args: &Args) -> Result<(), String> {
    let addr = require_connect(args)?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let payload = client.metrics().map_err(|e| e.to_string())?;
    if args.switch("json") {
        print!("{}", payload.render());
        return Ok(());
    }
    let num = |path: &[&str]| -> f64 {
        let mut cursor = &payload;
        for key in path {
            match cursor.get(key) {
                Some(next) => cursor = next,
                None => return f64::NAN,
            }
        }
        cursor.as_f64().unwrap_or(f64::NAN)
    };
    println!("gsb serve metrics from {addr}:");
    println!(
        "  served:    {} from store, {} from engine",
        num(&["server", "served_store"]),
        num(&["server", "served_engine"])
    );
    println!(
        "  pressure:  {} in flight, {} shed, {} rejected, {} errors",
        num(&["server", "in_flight"]),
        num(&["server", "shed"]),
        num(&["server", "rejected"]),
        num(&["server", "errors"])
    );
    println!(
        "  store:     {} entries ({} hits / {} misses, {} appended)",
        num(&["store", "entries"]),
        num(&["store", "hits"]),
        num(&["store", "misses"]),
        num(&["store", "appended"])
    );
    println!(
        "  cache:     {} hits / {} misses",
        num(&["cache", "hits"]),
        num(&["cache", "misses"])
    );
    for question in gsb_universe::serve::metrics::QUESTION_LABELS {
        let count = num(&["server", "latency", question, "count"]);
        if count > 0.0 {
            println!(
                "  {question:<18} n={count} p50≤{}µs p95≤{}µs p99≤{}µs",
                num(&["server", "latency", question, "p50_us"]),
                num(&["server", "latency", question, "p95_us"]),
                num(&["server", "latency", question, "p99_us"]),
            );
        }
    }
    let waits = num(&["server", "accept_wait", "count"]);
    if waits > 0.0 {
        println!(
            "  {:<18} n={waits} p50≤{}µs p95≤{}µs p99≤{}µs (accept to worker)",
            "accept-wait",
            num(&["server", "accept_wait", "p50_us"]),
            num(&["server", "accept_wait", "p95_us"]),
            num(&["server", "accept_wait", "p99_us"]),
        );
    }
    Ok(())
}

/// `gsb shutdown`: ask a remote server to wind down gracefully.
fn shutdown(args: &Args) -> Result<(), String> {
    let addr = require_connect(args)?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("{addr} is shutting down");
    Ok(())
}

/// `gsb cache-stats`: one-shot [`CacheStats`](gsb_universe::CacheStats)
/// printout — the process-global cache (optionally warmed with a small
/// classification sweep), or a remote server's cache via `--connect`.
fn cache_stats(args: &Args) -> Result<(), String> {
    let stats_json = if let Some(addr) = args.value("connect") {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let payload = client.metrics().map_err(|e| e.to_string())?;
        payload
            .get("cache")
            .ok_or_else(|| "metrics payload carries no cache block".to_string())?
            .clone()
    } else {
        let cache = EngineCache::global();
        if let Some(max_n) = args.usize_value("warm")? {
            let mut batch = gsb_universe::Batch::new();
            for n in 1..=max_n {
                for m in 1..=n {
                    let Ok(family) = gsb_universe::core::order::feasible_family(n, m) else {
                        continue;
                    };
                    for task in family {
                        batch.push(Query::classify(task.to_spec()));
                    }
                }
            }
            for outcome in batch.run_with(cache) {
                outcome.map_err(|e| render_error(&e))?;
            }
        }
        cache.stats().to_json_value()
    };
    if args.switch("json") {
        print!("{}", stats_json.render());
        return Ok(());
    }
    let num = |key: &str| {
        stats_json
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    println!("engine cache:");
    println!(
        "  lookups:  {} hits / {} misses",
        num("hits"),
        num("misses")
    );
    println!(
        "  entries:  {} classifications, {} witnesses, {} searches",
        num("classifications"),
        num("witnesses"),
        num("searches")
    );
    println!(
        "  topology: {} systems, {} frontiers ({} incremental extensions)",
        num("systems"),
        num("frontiers"),
        num("extensions")
    );
    println!(
        "  evidence: {} decision-map checks (one per checked search entry) over {} facet-class tables",
        num("evidence_checks"),
        num("check_tables")
    );
    Ok(())
}
