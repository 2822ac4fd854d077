//! Batched execution: fan a query set out over rayon with one shared
//! [`EngineCache`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use rayon::prelude::*;

use crate::cache::EngineCache;
use crate::error::{Error, Result};
use crate::query::Query;
use crate::verdict::Verdict;

/// A set of queries executed together.
///
/// `run` fans the queries out over rayon; every worker shares one
/// [`EngineCache`], so repeated specs (atlas sweeps over synonym-heavy
/// families, zoo sweeps at one `n`) are classified and searched once.
/// Results come back in query order, one `Result` per query — a failing
/// query does not poison its batch-mates.
///
/// # Examples
///
/// ```
/// use gsb_engine::{Batch, Query};
/// use gsb_core::zoo::catalog;
///
/// let batch: Batch = catalog(3)?
///     .into_iter()
///     .map(|entry| Query::classify(entry.spec))
///     .collect();
/// let verdicts = batch.run();
/// assert_eq!(verdicts.len(), batch.len());
/// assert!(verdicts.iter().all(Result::is_ok));
/// # Ok::<(), gsb_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch {
    queries: Vec<Query>,
}

impl Batch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Batch::default()
    }

    /// Adds a query.
    pub fn push(&mut self, query: Query) {
        self.queries.push(query);
    }

    /// Number of queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in execution order.
    #[must_use]
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Runs every query against the process-global cache; results in
    /// query order.
    #[must_use]
    pub fn run(&self) -> Vec<Result<Verdict>> {
        self.run_with(EngineCache::global())
    }

    /// Runs every query against an explicit shared cache; results in
    /// query order. Each query runs under panic isolation: a panicking
    /// query yields [`Error::Panicked`] in its slot (the results stay
    /// index-aligned with [`Batch::queries`]) and its batch-mates
    /// complete undisturbed.
    #[must_use]
    pub fn run_with(&self, cache: &EngineCache) -> Vec<Result<Verdict>> {
        self.queries
            .par_iter()
            .map(|query| {
                // `&Query`/`&EngineCache` are only read on the other
                // side of the boundary, and the cache's locks recover
                // from poisoning — safe to assert unwind safety.
                catch_unwind(AssertUnwindSafe(|| query.run_with(cache))).unwrap_or_else(|payload| {
                    Err(Error::Panicked {
                        details: panic_details(payload),
                    })
                })
            })
            .collect()
    }
}

/// The panic payload as a string, when it was one (the common
/// `panic!("…")` case); a placeholder otherwise.
fn panic_details(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<&str>() {
        Ok(s) => (*s).to_string(),
        Err(payload) => match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

impl FromIterator<Query> for Batch {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        Batch {
            queries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Query> for Batch {
    fn extend<I: IntoIterator<Item = Query>>(&mut self, iter: I) {
        self.queries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Question;
    use gsb_core::{Solvability, SymmetricGsb};

    #[test]
    fn batch_preserves_query_order_and_shares_the_cache() {
        let cache = EngineCache::new();
        let specs: Vec<_> = (2..=6)
            .map(|n| SymmetricGsb::wsb(n).unwrap().to_spec())
            .collect();
        let mut batch = Batch::new();
        for spec in &specs {
            batch.push(Query::classify(spec.clone()));
            // The duplicate hits the shared cache.
            batch.push(Query::classify(spec.clone()));
        }
        let verdicts = batch.run_with(&cache);
        assert_eq!(verdicts.len(), 10);
        for (i, spec) in specs.iter().enumerate() {
            for j in [2 * i, 2 * i + 1] {
                let v = verdicts[j].as_ref().unwrap();
                assert_eq!(v.provenance.spec.as_ref(), Some(spec));
            }
            let (first, second) = (
                verdicts[2 * i].as_ref().unwrap(),
                verdicts[2 * i + 1].as_ref().unwrap(),
            );
            assert_eq!(first.solvability, second.solvability);
            assert_eq!(first.evidence, second.evidence);
        }
        // The classification memo has no in-flight guard, so two copies
        // of a duplicate running at once may both miss; what the cache
        // guarantees is one lookup per query and one entry per spec.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 10, "{stats:?}");
        assert_eq!(stats.classifications, 5, "{stats:?}");
    }

    #[test]
    fn failing_queries_do_not_poison_the_batch() {
        let cache = EngineCache::new();
        let mut batch = Batch::new();
        batch.push(Query::classify(SymmetricGsb::wsb(4).unwrap().to_spec()));
        batch.push(Query::atlas(0)); // unsupported: max_n < 2
        let verdicts = batch.run_with(&cache);
        assert!(verdicts[0].is_ok());
        assert!(verdicts[1].is_err());
    }

    #[test]
    fn collected_batches_answer_mixed_questions() {
        let spec = SymmetricGsb::wsb(4).unwrap().to_spec();
        let batch: Batch = [
            Query::classify(spec.clone()),
            Query::no_comm_witness(spec.clone()),
            Query::new(spec, Question::SolvableInRounds { rounds: 0 }),
        ]
        .into_iter()
        .collect();
        let verdicts = batch.run_with(&EngineCache::new());
        assert_eq!(verdicts.len(), 3);
        let classify = verdicts[0].as_ref().unwrap();
        assert_eq!(classify.solvability, Some(Solvability::NotWaitFreeSolvable));
        let witness = verdicts[1].as_ref().unwrap();
        assert_eq!(witness.is_solvable(), Some(false));
        let rounds = verdicts[2].as_ref().unwrap();
        assert_eq!(rounds.evidence.unsat_rounds(), Some(0));
    }
}
