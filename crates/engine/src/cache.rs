//! The shared [`EngineCache`]: the workspace's formerly scattered
//! `OnceLock` memo layers, promoted into one injectable object.
//!
//! Before the engine, memoization lived in per-crate process-wide
//! statics: the binomial-gcd table and kernel-set memo in `gsb-core`,
//! the subdivision memo in `gsb-topology`, and a classification memo
//! inside the bench crate. Those remain (they cache pure functions of
//! small keys), but the *query-level* layers — classifications,
//! no-communication witnesses, and round-bounded search verdicts with
//! their replayable decision maps — now live here, shared across a
//! [`Batch`](crate::Batch)'s rayon workers and across queries of one
//! process via [`EngineCache::global`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use std::sync::Arc;

use gsb_core::govern::{Stopped, Ticket};
use gsb_core::{Classification, GsbSpec, StopReason};
use gsb_topology::{
    CdclConfig, ConstraintSystem, DecisionMap, FacetClasses, OrbitFrontier, SearchResult,
    SearchStats, SolveRoute, SymmetricSearch,
};

use crate::error::Error;
use crate::query::EngineOpts;

/// Hit/miss counters and entry counts of an [`EngineCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Cached classifications.
    pub classifications: usize,
    /// Cached no-communication witness answers.
    pub witnesses: usize,
    /// Cached round-bounded search verdicts.
    pub searches: usize,
    /// Cached constraint systems (fused orbit-quotient instance preps).
    pub systems: usize,
    /// Orbit frontiers kept for incremental round extension.
    pub frontiers: usize,
    /// Frontier sweeps served by extending a cached χ^r frontier to
    /// χ^{r+1} instead of re-streaming from round 0.
    pub extensions: u64,
    /// Decision-map checks the search memo ran: one per SAT miss of a
    /// check-requesting query, before its entry is cached. Hits run none.
    pub evidence_checks: u64,
    /// Cached facet-class tables ([`FacetClasses`]): at most one per
    /// `(n, rounds)` whose decision maps a query checked. Tables are not
    /// lookups, so they count toward neither `hits` nor `misses`.
    pub check_tables: usize,
}

/// A cached search verdict: result, replayable witness (SAT only), the
/// counters of the solve that produced it, and whether the witness has
/// passed its evidence check.
#[derive(Debug, Clone)]
pub(crate) struct SearchEntry {
    pub(crate) result: SearchResult,
    pub(crate) map: Option<DecisionMap>,
    pub(crate) stats: SearchStats,
    /// Whether `map` passed its check against the entry's spec before
    /// the entry was cached. Never set on UNSAT entries:
    /// they carry no map, and `execute` checks their counters per query.
    pub(crate) checked: bool,
}

/// Per-key in-flight build guards: the first thread to miss a key takes
/// its guard and builds; concurrent missers of the **same** key block on
/// that guard, re-check the result map once it frees, and are served the
/// winner's entry instead of duplicate-building a multi-hundred-ms
/// construction (the server's batch fan-outs hit one `(n, rounds)` from
/// many worker threads at once). Different keys build concurrently —
/// the map lock is only held to fetch the guard `Arc`, never across a
/// build.
#[derive(Debug)]
struct BuildGuards<K> {
    guards: Mutex<HashMap<K, Arc<Mutex<()>>>>,
}

// Manual impl: the derive would needlessly require `K: Default`.
impl<K> Default for BuildGuards<K> {
    fn default() -> Self {
        BuildGuards {
            guards: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone> BuildGuards<K> {
    /// The guard for `key` (created on first use).
    fn guard(&self, key: &K) -> Arc<Mutex<()>> {
        let mut guards = self.guards.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(guards.entry(key.clone()).or_default())
    }
}

/// The shared memo layers behind [`Query::run`](crate::Query::run) and
/// [`Batch`](crate::Batch) fan-out.
///
/// All methods take `&self` and are safe to call from rayon workers; the
/// maps are guarded by plain mutexes (lookups are tiny next to the
/// computations they save). Every lock recovers from poisoning: a
/// panicking query (isolated per-entry by [`Batch`](crate::Batch)) must
/// not wedge the shared cache, and the maps only ever hold
/// fully-constructed entries, so the recovered data is sound —
/// in-flight computations insert nothing until they complete.
#[derive(Debug, Default)]
pub struct EngineCache {
    classifications: Mutex<HashMap<GsbSpec, Classification>>,
    witnesses: Mutex<HashMap<GsbSpec, Option<Vec<usize>>>>,
    searches: Mutex<HashMap<(GsbSpec, usize), SearchEntry>>,
    /// Fused instance preps per `(n, rounds)` — spec-independent, so
    /// every task searched at the same parameters shares one system.
    systems: Mutex<HashMap<(usize, usize), Arc<ConstraintSystem>>>,
    /// Deepest orbit frontier per `n`, each in its own slot: frontier
    /// sweeps extend it round by round instead of re-streaming from
    /// round 0, and the per-`n` slot lock doubles as the in-flight
    /// build guard for `systems` — concurrent first-touch of one
    /// `(n, rounds)` serializes on the slot while different `n` build
    /// in parallel (the old single map-wide lock serialized everything).
    frontiers: Mutex<HashMap<usize, Arc<Mutex<OrbitFrontier>>>>,
    /// In-flight guards for `searches`: without them, concurrent
    /// identical queries would each run the full CDCL solve and only
    /// deduplicate post-hoc at insertion.
    search_guards: BuildGuards<(GsbSpec, usize)>,
    /// The facet-class table every decision-map check at `(n, rounds)`
    /// replays over, built by the streaming subdivision builder under
    /// the first checking query's ticket. No search reads it.
    check_tables: Mutex<HashMap<(usize, usize), Arc<FacetClasses>>>,
    /// In-flight guards for `check_tables`.
    table_guards: BuildGuards<(usize, usize)>,
    hits: AtomicU64,
    misses: AtomicU64,
    extensions: AtomicU64,
    evidence_checks: AtomicU64,
}

impl EngineCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        EngineCache::default()
    }

    /// The process-global cache used by [`Query::run`](crate::Query::run).
    #[must_use]
    pub fn global() -> &'static EngineCache {
        static GLOBAL: OnceLock<EngineCache> = OnceLock::new();
        GLOBAL.get_or_init(EngineCache::new)
    }

    /// Classification of `spec`, memoized. Returns the verdict and
    /// whether it was served from the cache.
    #[must_use]
    pub fn classification(&self, spec: &GsbSpec) -> (Classification, bool) {
        self.memo(&self.classifications, spec, || spec.classify())
    }

    /// No-communication witness of `spec` (Theorem 9 / its asymmetric
    /// generalization), memoized. Returns the answer and whether it was
    /// served from the cache.
    #[must_use]
    pub fn no_comm_witness(&self, spec: &GsbSpec) -> (Option<Vec<usize>>, bool) {
        self.memo(&self.witnesses, spec, || spec.no_communication_witness())
    }

    /// The get-or-compute body of the per-spec memo layers: a hit is
    /// counted and cloned out; a miss is counted, computed outside the
    /// lock, and inserted (a racing first insert wins).
    fn memo<V: Clone>(
        &self,
        map: &Mutex<HashMap<GsbSpec, V>>,
        spec: &GsbSpec,
        compute: impl FnOnce() -> V,
    ) -> (V, bool) {
        if let Some(hit) = map.lock().unwrap_or_else(|p| p.into_inner()).get(spec) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = compute();
        map.lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(spec.clone())
            .or_insert_with(|| computed.clone());
        (computed, false)
    }

    /// Round-bounded search verdict for `(spec, rounds)` in
    /// `opts.mode`, memoized with its replayable decision map and solver
    /// counters. Returns the entry and whether it was served from the
    /// cache.
    ///
    /// The key deliberately excludes `opts.cdcl` and `opts.mode`:
    /// verdicts (and witnesses' validity) are configuration-independent,
    /// so the entry produced by the first miss is served to every later
    /// configuration. Callers that need config-faithful *counters*
    /// (benchmarks) run each query on a fresh cache.
    ///
    /// `opts.warm_start` lifts a cached `rounds − 1` SAT decision map
    /// through the subdivision into the solver's seed when one is
    /// already present (never triggering a recursive solve); seeds are
    /// perf hints only, so the cached entry stays
    /// configuration-independent.
    ///
    /// With `opts.check_evidence` on, a miss checks its SAT map
    /// ([`EngineCache::check_map`], over this cache's facet-class table
    /// for `(n, rounds)`) before the entry is cached and marks it
    /// `checked`. A hit returns the cached
    /// entry as it is; an entry an unchecked query inserted stays
    /// unmarked, and `execute` checks its verdict on every checking
    /// query.
    ///
    /// Hits are served whatever the ticket's state (they cost nothing);
    /// misses construct and solve under `ticket`.
    ///
    /// # Errors
    ///
    /// A tripped ticket returns [`Error::Interrupted`] carrying the
    /// partial counters, and the incomplete result is **not** cached —
    /// a later, better-funded query recomputes it cleanly. That holds
    /// for a trip during the check's table build too.
    /// [`SearchMode::Local`](gsb_topology::SearchMode::Local) cannot
    /// refute: when local search exhausts its restart schedule without a
    /// witness this also returns [`Error::Interrupted`], and nothing is
    /// cached. A map that fails its check is returned as that error and
    /// is never cached.
    pub(crate) fn search(
        &self,
        spec: &GsbSpec,
        rounds: usize,
        opts: &EngineOpts,
        ticket: &Ticket,
    ) -> Result<(SearchEntry, bool), Error> {
        let key = (spec.clone(), rounds);
        if let Some(hit) = self.cached_search(&key) {
            return Ok((hit, true));
        }
        // In-flight guard: concurrent identical queries block here and
        // are served the winner's entry by the re-check, instead of
        // each running the full solve and check. If the winner's ticket
        // trips it caches nothing and releases the guard; the next
        // waiter re-checks, misses, and retries under its own budget.
        let guard = self.search_guards.guard(&key);
        let _build = guard.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = self.cached_search(&key) {
            return Ok((hit, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The fused orbit-quotient prep, shared across every spec at
        // the same (n, rounds) and extended incrementally across round
        // sweeps (uncounted: this search is one logical cache lookup).
        let (system, _) = self.build_system(spec.n(), rounds, ticket)?;
        let search = SymmetricSearch::with_system(spec.clone(), Some(rounds), system);
        let config = self.seeded_config(spec, rounds, opts, &search);
        let mut computed = solve_entry(&search, &config, SolveRoute::Mode(opts.mode), ticket)?;
        if opts.check_evidence {
            self.check_entry(spec, &mut computed, ticket)?;
        }
        self.searches
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(key)
            .or_insert_with(|| computed.clone());
        Ok((computed, false))
    }

    /// The cached search entry for `key`, counted as a hit when present.
    fn cached_search(&self, key: &(GsbSpec, usize)) -> Option<SearchEntry> {
        let hit = self
            .searches
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .cloned()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Checks `entry`'s decision map against `spec` as
    /// [`EngineCache::check_map`] does, counted in
    /// [`CacheStats::evidence_checks`] once its table is in hand, and
    /// marks the entry checked when it passes. UNSAT entries have no map
    /// and stay unmarked.
    fn check_entry(
        &self,
        spec: &GsbSpec,
        entry: &mut SearchEntry,
        ticket: &Ticket,
    ) -> Result<(), Error> {
        if let Some(map) = &entry.map {
            let table = self.facet_classes(map.n(), map.rounds(), ticket)?;
            self.evidence_checks.fetch_add(1, Ordering::Relaxed);
            map.check_against(spec, &table)?;
            entry.checked = true;
        }
        Ok(())
    }

    /// Checks `map` against `spec` facet by facet
    /// ([`DecisionMap::check_against`]) over this cache's facet-class
    /// table for the map's `(n, rounds)`, building the table under
    /// `ticket` on first use.
    ///
    /// # Errors
    ///
    /// [`Error::Interrupted`] when the table build trips the ticket
    /// (nothing is cached), or the replay failure as
    /// [`Error::Topology`].
    pub(crate) fn check_map(
        &self,
        spec: &GsbSpec,
        map: &DecisionMap,
        ticket: &Ticket,
    ) -> Result<(), Error> {
        let table = self.facet_classes(map.n(), map.rounds(), ticket)?;
        map.check_against(spec, &table)?;
        Ok(())
    }

    /// The facet-class table for `(n, rounds)`, memoized; a miss builds
    /// it under `ticket` behind a per-key in-flight guard, so concurrent
    /// checks at one `(n, rounds)` build it once. A tripped build caches
    /// nothing, and the next waiter builds under its own ticket.
    fn facet_classes(
        &self,
        n: usize,
        rounds: usize,
        ticket: &Ticket,
    ) -> Result<Arc<FacetClasses>, Stopped> {
        let key = (n, rounds);
        let cached = || {
            self.check_tables
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(&key)
                .cloned()
        };
        if let Some(hit) = cached() {
            return Ok(hit);
        }
        let guard = self.table_guards.guard(&key);
        let _build = guard.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = cached() {
            return Ok(hit);
        }
        let table = Arc::new(FacetClasses::build(n, rounds, ticket)?);
        self.check_tables
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// `opts.cdcl` with the lifted warm-start seed filled in, when
    /// wanted, absent, and liftable from a cached `rounds − 1` SAT entry.
    fn seeded_config(
        &self,
        spec: &GsbSpec,
        rounds: usize,
        opts: &EngineOpts,
        search: &SymmetricSearch,
    ) -> CdclConfig {
        let mut config = opts.cdcl.clone();
        if opts.warm_start && config.warm_start.is_none() {
            config.warm_start = self.lifted_warm_start(spec, rounds, search);
        }
        config
    }

    /// The lifted warm-start seed for `(spec, rounds)`: when the cache
    /// already holds a SAT decision map at `rounds − 1` (a frontier
    /// sweep asking round counts in turn), lift it through the
    /// subdivision — each round-`rounds` class seeds the value its
    /// nested round-`(rounds − 1)` subview was assigned. Never triggers
    /// a recursive solve; a cold cache just means no seed.
    fn lifted_warm_start(
        &self,
        spec: &GsbSpec,
        rounds: usize,
        search: &SymmetricSearch,
    ) -> Option<Arc<Vec<u32>>> {
        let parent_key = (spec.clone(), rounds.checked_sub(1)?);
        let parent_map = {
            let searches = self.searches.lock().unwrap_or_else(|p| p.into_inner());
            let parent = searches.get(&parent_key)?;
            if !parent.result.is_solvable() {
                return None;
            }
            // Clone so the lift (signature computations per class) runs
            // outside the cache lock.
            parent.map.clone()?
        };
        let seed = search.lift_warm_start(&parent_map);
        seed.iter().any(|&v| v != 0).then(|| Arc::new(seed))
    }

    /// The fused orbit-quotient constraint system for `(n, rounds)`,
    /// memoized — and **extended incrementally**: if a frontier for `n`
    /// is cached at a shallower round (a frontier sweep asking r = 0,
    /// 1, 2, … in turn), it is advanced round by round instead of
    /// re-streamed from round 0, counted in
    /// [`CacheStats::extensions`]. Returns the system and whether it
    /// was served from the cache.
    #[must_use]
    pub fn constraint_system(&self, n: usize, rounds: usize) -> (Arc<ConstraintSystem>, bool) {
        let (system, hit) = self
            .build_system(n, rounds, &Ticket::unlimited())
            .expect("an unlimited ticket only stops under an armed fault plan");
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        (system, hit)
    }

    /// The frontier slot for `n` (created at round 0 on first use). The
    /// map lock is held only for the lookup — building happens under the
    /// slot's own lock.
    fn frontier_slot(&self, n: usize) -> Arc<Mutex<OrbitFrontier>> {
        let mut slots = self.frontiers.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            slots
                .entry(n)
                .or_insert_with(|| Arc::new(Mutex::new(OrbitFrontier::new(n)))),
        )
    }

    /// The constraint-system layer without the shared hit/miss
    /// accounting (a nested call inside [`EngineCache::search`] is one
    /// logical lookup, whatever the internal layering; the unmemoized
    /// `Reference`/`Both` engines solve over it too). Construction
    /// polls the ticket and charges its memory budget; a trip leaves
    /// any cached frontier logically at its previous round (round
    /// commits are atomic — see [`OrbitFrontier::advance`]), so the
    /// cache stays valid for later queries.
    pub(crate) fn build_system(
        &self,
        n: usize,
        rounds: usize,
        ticket: &Ticket,
    ) -> Result<(Arc<ConstraintSystem>, bool), Stopped> {
        if let Some(hit) = self
            .systems
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&(n, rounds))
        {
            return Ok((Arc::clone(hit), true));
        }
        let slot = self.frontier_slot(n);
        let mut frontier = slot.lock().unwrap_or_else(|p| p.into_inner());
        // Double-checked under the per-n build lock: a racing builder of
        // the same (n, rounds) may have published while this thread
        // waited on the slot (server worker pools and batch fan-outs hit
        // one key concurrently) — don't re-run a multi-hundred-ms
        // expansion. Builds for *different* n proceed in parallel.
        if let Some(hit) = self
            .systems
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&(n, rounds))
        {
            return Ok((Arc::clone(hit), true));
        }
        let system = if frontier.rounds() <= rounds {
            // Advancing a frontier that earlier work already used is an
            // extension. A slot that a racing thread created but has not
            // yet built from (still at round 0, no system for `n`) is not.
            let reused = frontier.rounds() > 0
                || self
                    .systems
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .keys()
                    .any(|&(built_n, _)| built_n == n);
            if reused && frontier.rounds() < rounds {
                self.extensions.fetch_add(1, Ordering::Relaxed);
            }
            while frontier.rounds() < rounds {
                // A trip mid-extension leaves the cached frontier at
                // its last completed round.
                frontier.advance(ticket)?;
            }
            ConstraintSystem::from_orbit_frontier(&mut frontier, ticket)?
        } else {
            // Cached deeper than requested (a downward query): build
            // fresh without disturbing the deeper cache.
            let mut fresh = OrbitFrontier::new(n);
            for _ in 0..rounds {
                fresh.advance(ticket)?;
            }
            ConstraintSystem::from_orbit_frontier(&mut fresh, ticket)?
        };
        let system = Arc::new(system);
        self.systems
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry((n, rounds))
            .or_insert_with(|| Arc::clone(&system));
        Ok((system, false))
    }

    /// Current counters and entry counts.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            classifications: self
                .classifications
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
            witnesses: self
                .witnesses
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
            searches: self
                .searches
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
            systems: self.systems.lock().unwrap_or_else(|p| p.into_inner()).len(),
            frontiers: self
                .frontiers
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
            extensions: self.extensions.load(Ordering::Relaxed),
            evidence_checks: self.evidence_checks.load(Ordering::Relaxed),
            check_tables: self
                .check_tables
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
        }
    }
}

/// Solves `search` along `route` under `ticket` and packages the
/// verdict with its replayable witness (SAT only) and counters.
///
/// # Errors
///
/// An empty solve comes back as [`Error::Interrupted`]: a tripped
/// ticket reports its own stop reason; otherwise the empty result can
/// only be local-search exhaustion, reported as a spent decision budget
/// (the restart schedule is exactly that — a built-in decision budget
/// the engine ran out of).
pub(crate) fn solve_entry(
    search: &SymmetricSearch,
    config: &CdclConfig,
    route: SolveRoute,
    ticket: &Ticket,
) -> Result<SearchEntry, Error> {
    let (result, stats) = search.solve(config, route, ticket);
    let Some(result) = result else {
        return Err(match ticket.stop_reason() {
            Some(_) => Error::interrupted(ticket, stats),
            None => Error::Interrupted {
                reason: StopReason::DecisionBudget,
                partial: Some(stats),
            },
        });
    };
    let map = search.decision_map(&result);
    Ok(SearchEntry {
        result,
        map,
        stats,
        checked: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_core::SymmetricGsb;
    use gsb_topology::SearchMode;

    /// Plain-CDCL options, checking evidence when `check` is set.
    fn cdcl_opts(check: bool) -> EngineOpts {
        EngineOpts {
            mode: SearchMode::Cdcl,
            check_evidence: check,
            ..EngineOpts::default()
        }
    }

    /// A plain-CDCL, evidence-checking cache search under an unlimited
    /// ticket.
    fn search(cache: &EngineCache, spec: &GsbSpec, rounds: usize) -> (SearchEntry, bool) {
        cache
            .search(spec, rounds, &cdcl_opts(true), &Ticket::unlimited())
            .expect("CDCL is complete")
    }

    #[test]
    fn classification_hits_after_first_miss() {
        let cache = EngineCache::new();
        let spec = SymmetricGsb::wsb(6).unwrap().to_spec();
        let (first, hit1) = cache.classification(&spec);
        let (second, hit2) = cache.classification(&spec);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.classifications, 1);
    }

    #[test]
    fn search_entries_carry_the_decision_map() {
        let cache = EngineCache::new();
        let spec = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
        let (entry, hit) = search(&cache, &spec, 1);
        assert!(!hit);
        assert!(entry.result.is_solvable());
        let map = entry.map.expect("SAT entries carry a witness");
        map.check(&spec).unwrap();
        let (cached, hit) = search(&cache, &spec, 1);
        assert!(hit);
        assert_eq!(cached.result, entry.result);
        let cached_map = cached.map.expect("the hit carries the witness");
        assert_eq!(cached_map, map);
    }

    #[test]
    fn witness_cache_stores_negative_answers_too() {
        let cache = EngineCache::new();
        let wsb = SymmetricGsb::wsb(4).unwrap().to_spec();
        let (none, hit) = cache.no_comm_witness(&wsb);
        assert!(none.is_none());
        assert!(!hit);
        let (none_again, hit) = cache.no_comm_witness(&wsb);
        assert!(none_again.is_none());
        assert!(hit, "negative answers are cached");
    }

    #[test]
    fn every_search_engine_shares_the_cached_system() {
        use crate::{Query, SearchEngine};
        let cache = EngineCache::new();
        let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
        for engine in [
            SearchEngine::Reference,
            SearchEngine::Both,
            SearchEngine::Cdcl,
        ] {
            let mut query = Query::solvable_in_rounds(spec.clone(), 1);
            query.opts_mut().search = engine;
            let verdict = query.run_with(&cache).expect("clean run");
            assert_eq!(verdict.is_solvable(), Some(false), "{engine:?}");
            assert_eq!(
                cache.stats().systems,
                1,
                "{engine:?} solves over the one cached (3, 1) system"
            );
        }
    }

    #[test]
    fn frontier_sweeps_extend_cached_rounds_incrementally() {
        let cache = EngineCache::new();
        let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
        // r = 0, 1, 2 in turn: the first builds the n = 3 frontier, the
        // later rounds extend it in place instead of re-streaming.
        for rounds in 0..=2usize {
            let (entry, hit) = search(&cache, &spec, rounds);
            assert!(!hit, "distinct (spec, rounds) keys");
            assert!(!entry.result.is_solvable(), "WSB n=3 is UNSAT through r=2");
        }
        let stats = cache.stats();
        assert_eq!(stats.frontiers, 1, "one cached frontier per n");
        assert_eq!(stats.systems, 3, "one system per (n, rounds)");
        assert_eq!(stats.extensions, 2, "r=1 and r=2 extended the cache");
        // A second task at the same parameters reuses the cached system.
        let slot = SymmetricGsb::slot(3, 2).unwrap().to_spec();
        let (_, hit) = search(&cache, &slot, 2);
        assert!(!hit, "different spec misses the search cache");
        let after = cache.stats();
        assert_eq!(after.extensions, 2, "no new streaming work");
        assert_eq!(after.systems, 3, "the (3, 2) system was shared");
        // A downward query must not clobber the deeper cached frontier.
        let (system_low, _) = cache.constraint_system(3, 1);
        assert_eq!(system_low.class_count(), 6, "χ(Δ²) has 6 classes");
        assert_eq!(cache.stats().frontiers, 1);
    }

    #[test]
    fn global_cache_is_one_instance() {
        let a = EngineCache::global() as *const EngineCache;
        let b = EngineCache::global() as *const EngineCache;
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_first_touch_builds_the_system_once() {
        use std::sync::Barrier;
        let cache = EngineCache::new();
        let threads = 8;
        let barrier = Barrier::new(threads);
        let results: Vec<(Arc<ConstraintSystem>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.constraint_system(4, 2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let builders = results.iter().filter(|(_, hit)| !hit).count();
        assert_eq!(builders, 1, "exactly one thread builds the (4, 2) system");
        for (system, _) in &results[1..] {
            assert!(
                Arc::ptr_eq(system, &results[0].0),
                "every thread is served the same shared instance"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "losers of the build race count as hits");
        assert_eq!(stats.hits, threads as u64 - 1);
        assert_eq!(stats.systems, 1);
        assert_eq!(stats.frontiers, 1);
        assert_eq!(
            stats.extensions, 0,
            "a fresh slot is a build, not an extension"
        );
    }

    #[test]
    fn concurrent_identical_searches_solve_once() {
        use std::sync::Barrier;
        let cache = EngineCache::new();
        let spec = SymmetricGsb::renaming(2, 3).unwrap().to_spec();
        let threads = 8;
        let barrier = Barrier::new(threads);
        let results: Vec<(SearchEntry, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        search(&cache, &spec, 1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let solvers = results.iter().filter(|(_, hit)| !hit).count();
        assert_eq!(solvers, 1, "exactly one thread runs the CDCL solve");
        for (entry, _) in &results[1..] {
            assert_eq!(entry.result, results[0].0.result);
            assert_eq!(entry.map, results[0].0.map);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, threads as u64 - 1);
        assert_eq!(stats.searches, 1);
        assert_eq!(stats.evidence_checks, 1, "the winner's map is checked once");
    }

    /// `loose_renaming(4)`, SAT at two rounds.
    fn loose_renaming_4() -> GsbSpec {
        crate::named_task("loose_renaming", 4, None).expect("a zoo task")
    }

    #[test]
    fn a_sat_entry_is_checked_once_however_often_it_is_asked() {
        let cache = EngineCache::new();
        let spec = loose_renaming_4();
        let (miss, hit) = search(&cache, &spec, 2);
        assert!(!hit && miss.checked, "the miss checks before caching");
        for _ in 0..5 {
            let (again, hit) = search(&cache, &spec, 2);
            assert!(hit && again.checked);
            assert_eq!(again.map, miss.map);
        }
        assert_eq!(cache.stats().evidence_checks, 1);
    }

    /// Inserts `loose_renaming(4)`'s r = 2 entry unchecked, replaces its
    /// map with `tamper(assignment)`, and returns a checking re-ask's
    /// outcome.
    fn ask_tampered(tamper: impl FnOnce(&mut Vec<usize>)) -> Result<crate::Verdict, Error> {
        let cache = EngineCache::new();
        let spec = loose_renaming_4();
        let mut query = crate::Query::solvable_in_rounds(spec.clone(), 2);
        query.opts_mut().check_evidence = false;
        query.run_with(&cache).unwrap();
        let key = (spec, 2);
        let map = cache.searches.lock().unwrap()[&key]
            .map
            .clone()
            .expect("SAT");
        let mut assignment = map.assignment().to_vec();
        tamper(&mut assignment);
        let forged = DecisionMap::new(map.n(), map.rounds(), assignment);
        cache.searches.lock().unwrap().get_mut(&key).unwrap().map = Some(forged);
        query.opts_mut().check_evidence = true;
        query.run_with(&cache)
    }

    #[test]
    fn a_checking_re_ask_rejects_a_tampered_unchecked_entry() {
        // One class's value moved out of the task's range.
        let out_of_range = ask_tampered(|a| a[0] = 99);
        assert!(out_of_range.is_err(), "{out_of_range:?}");
        // Every class deciding one value: an illegal output on every facet.
        let illegal = ask_tampered(|a| a.iter_mut().for_each(|v| *v = 1));
        assert!(illegal.is_err(), "{illegal:?}");
    }

    #[test]
    fn one_check_table_per_n_and_rounds_and_none_unchecked() {
        let cache = EngineCache::new();
        let unchecked = cdcl_opts(false);
        for spec in [
            loose_renaming_4(),
            SymmetricGsb::renaming(4, 8).unwrap().to_spec(),
        ] {
            cache
                .search(&spec, 2, &unchecked, &Ticket::unlimited())
                .unwrap();
        }
        assert_eq!(cache.stats().check_tables, 0, "no check, no table");
        let cache = EngineCache::new();
        // Two SAT maps at (4, 2) and one at (4, 1) share two tables.
        for (spec, rounds) in [
            (loose_renaming_4(), 2),
            (SymmetricGsb::renaming(4, 8).unwrap().to_spec(), 2),
            (SymmetricGsb::renaming(4, 10).unwrap().to_spec(), 1),
        ] {
            let (entry, _) = search(&cache, &spec, rounds);
            assert!(entry.checked, "{spec} r={rounds}");
        }
        let stats = cache.stats();
        assert_eq!((stats.evidence_checks, stats.check_tables), (3, 2));
        // Table builds are not lookups.
        assert_eq!((stats.hits, stats.misses), (0, 3));
    }

    #[test]
    fn a_warm_table_still_rejects_forged_maps() {
        // Wrong-length maps are refused in
        // `wrong_length_maps_parse_and_fail_the_check`.
        let cache = EngineCache::new();
        let spec = loose_renaming_4();
        let (entry, _) = search(&cache, &spec, 2);
        let map = entry.map.expect("SAT");
        let ticket = Ticket::unlimited();
        let forge = |value: usize| {
            let assignment = vec![value; map.assignment().len()];
            DecisionMap::new(map.n(), map.rounds(), assignment)
        };
        for forged in [forge(1), forge(spec.m() + 1)] {
            let err = cache.check_map(&spec, &forged, &ticket).unwrap_err();
            assert!(matches!(err, Error::Topology(_)), "{err:?}");
        }
        cache.check_map(&spec, &map, &ticket).unwrap();
        assert_eq!(cache.stats().check_tables, 1);
    }

    /// A decode checks nothing about a map's length: a map one class
    /// short or one class long parses, and both checks refuse it.
    #[test]
    fn wrong_length_maps_parse_and_fail_the_check() {
        use crate::Evidence;
        use gsb_topology::Error as TopologyError;
        let cache = EngineCache::new();
        let spec = SymmetricGsb::renaming(3, 6).unwrap().to_spec();
        let verdict = crate::Query::solvable_in_rounds(spec.clone(), 1)
            .run_with(&cache)
            .unwrap();
        let Evidence::DecisionMap(map) = &verdict.evidence else {
            panic!("renaming(3,6) solves at r = 1");
        };
        let classes = map.assignment().len();
        for len in [classes - 1, classes + 1] {
            let mut forged = verdict.clone();
            forged.evidence = Evidence::DecisionMap(DecisionMap::new(3, 1, vec![1; len]));
            let parsed = crate::Verdict::from_json(&forged.to_json()).expect("a map parses");
            let Evidence::DecisionMap(parsed_map) = &parsed.evidence else {
                panic!("a decision map parses as one");
            };
            assert_eq!(parsed_map.assignment().len(), len);
            let refused = |err: Error| {
                matches!(
                    err,
                    Error::Topology(TopologyError::ClassCountMismatch { witness, complex })
                        if witness == len && complex == classes
                )
            };
            let err = parsed.check().unwrap_err();
            assert!(refused(err), "check of {len} values");
            let err = cache
                .check_map(&spec, parsed_map, &Ticket::unlimited())
                .unwrap_err();
            assert!(refused(err), "check_map of {len} values");
        }
    }

    #[test]
    fn a_tripped_table_build_caches_nothing() {
        use gsb_core::govern::Limits;
        let cache = EngineCache::new();
        let spec = loose_renaming_4();
        // Construction outside the query; the local lane charges no
        // memory, so the table build is the query's only charge.
        let _ = cache.constraint_system(4, 2);
        let opts = EngineOpts {
            mode: SearchMode::Local,
            ..cdcl_opts(true)
        };
        let starved = Ticket::new(Limits {
            memory_bytes: Some(1),
            ..Limits::none()
        });
        // A stop in the solve would carry its counters; this one came
        // from the table build after it.
        let err = cache.search(&spec, 2, &opts, &starved).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Interrupted {
                    reason: StopReason::MemoryBudget,
                    partial: None,
                }
            ),
            "{err:?}"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.searches, stats.check_tables, stats.evidence_checks),
            (0, 0, 0)
        );
        let (entry, hit) = cache.search(&spec, 2, &opts, &Ticket::unlimited()).unwrap();
        assert!(!hit && entry.checked);
        assert_eq!(cache.stats().check_tables, 1);
    }

    #[test]
    fn unsat_entries_carry_no_check_flag() {
        let cache = EngineCache::new();
        let spec = SymmetricGsb::wsb(3).unwrap().to_spec();
        let (miss, _) = search(&cache, &spec, 1);
        let (hit, cached) = search(&cache, &spec, 1);
        assert!(cached && !miss.checked && !hit.checked);
        assert_eq!(cache.stats().evidence_checks, 0);
    }
}
