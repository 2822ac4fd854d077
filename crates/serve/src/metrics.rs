//! Lock-free server metrics: request counters, an in-flight gauge, and
//! per-question latency histograms with log-linear microsecond buckets,
//! eight per octave (p50/p95/p99 read out of cumulative bucket counts).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use gsb_engine::Json;

/// Linear sub-buckets per octave. With 8, a bucket at or above 8 µs is
/// at most 1/8 of its lower bound wide, so a quantile read as its
/// bucket's largest latency is within 12.5% of the samples there.
const SUB_BUCKETS: u64 = 8;

/// Octaves covered: latencies up to `2^OCTAVES − 1` µs (~71 minutes) get
/// their own bucket; longer ones share the last.
const OCTAVES: u32 = 32;

/// Buckets: one per whole µs below 8 µs, then 8 per octave from
/// `[8, 16)` µs through `[2^31, 2^32)` µs.
const BUCKETS: usize = (SUB_BUCKETS * (OCTAVES as u64 - 2)) as usize;

/// The bucket of a latency of `micros` µs. Below 8 µs every value has
/// its own bucket; in octave `[2^e, 2^(e+1))`, `e ≥ 3`, the bucket is
/// the octave's base index plus the 3 bits below the leading one.
fn bucket_of(micros: u64) -> usize {
    if micros < SUB_BUCKETS {
        return micros as usize;
    }
    let octave = u64::from(u64::BITS - 1 - micros.leading_zeros());
    let sub = (micros >> (octave - 3)) - SUB_BUCKETS;
    (SUB_BUCKETS * (octave - 2) + sub).min(BUCKETS as u64 - 1) as usize
}

/// The largest latency, in whole µs, that lands in `bucket`.
fn bucket_max_us(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_BUCKETS {
        return bucket;
    }
    let shift = bucket / SUB_BUCKETS - 1;
    let low = (SUB_BUCKETS + bucket % SUB_BUCKETS) << shift;
    low + (1 << shift) - 1
}

/// The question labels tracked by the per-question histograms, in the
/// order reported by the metrics response.
pub const QUESTION_LABELS: [&str; 5] = [
    "classify",
    "solvable-in-rounds",
    "no-comm-witness",
    "certificate",
    "atlas",
];

/// A lock-free latency histogram over log-linear µs buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one latency sample, rounded up to whole µs (so a bucket's
    /// largest latency bounds every sample in it from above).
    pub fn record(&self, latency: Duration) {
        let micros = u64::try_from(latency.as_nanos().div_ceil(1_000)).unwrap_or(u64::MAX);
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The largest latency, in whole µs, of the bucket holding quantile
    /// `q` (0 < q ≤ 1); `None` when the histogram is empty. Exact below
    /// 8 µs and within 12.5% above it, up to ~71 minutes (the last
    /// bucket collects everything longer).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(bucket_max_us(i));
            }
        }
        None
    }

    /// `{count, p50_us, p95_us, p99_us}` for the metrics response.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let quantile = |q| {
            self.quantile_us(q)
                .map_or(Json::Null, |us| Json::Num(us as f64))
        };
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count() as f64)),
            ("p50_us".into(), quantile(0.50)),
            ("p95_us".into(), quantile(0.95)),
            ("p99_us".into(), quantile(0.99)),
        ])
    }
}

/// All counters of a running server. Shared by every worker thread;
/// everything is a relaxed atomic — metrics snapshots are allowed to be
/// slightly torn across fields, individual counters are never lost.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Queries answered from the verdict store.
    pub served_store: AtomicU64,
    /// Queries answered by running the engine.
    pub served_engine: AtomicU64,
    /// Queries shed with an `overloaded` response.
    pub shed: AtomicU64,
    /// Queries rejected by the admission policy.
    pub rejected: AtomicU64,
    /// Malformed requests and engine errors answered with `error`.
    pub errors: AtomicU64,
    /// Connections reaped by the idle/write timeout (slow-loris guard).
    pub timeouts: AtomicU64,
    /// Hot reloads completed via the `reload` wire message.
    pub reloads: AtomicU64,
    /// Store compactions observed (manual or auto-triggered).
    pub compactions: AtomicU64,
    /// Queries that arrived with a positive `attempt` counter — client
    /// retries as seen from the server side.
    pub retries_observed: AtomicU64,
    /// Queries currently executing in the engine (gauge).
    pub in_flight: AtomicUsize,
    /// Per-question latency histograms, indexed like [`QUESTION_LABELS`].
    pub latency: [Histogram; QUESTION_LABELS.len()],
}

impl ServerMetrics {
    /// The histogram tracking `label` (a [`Question::label`] value);
    /// unknown labels fall back to the first slot.
    ///
    /// [`Question::label`]: gsb_engine::Question::label
    #[must_use]
    pub fn histogram(&self, label: &str) -> &Histogram {
        let at = QUESTION_LABELS
            .iter()
            .position(|&l| l == label)
            .unwrap_or(0);
        &self.latency[at]
    }

    /// The server-counter block of the metrics response.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let num = |x: &AtomicU64| Json::Num(x.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            ("connections".into(), num(&self.connections)),
            ("served_store".into(), num(&self.served_store)),
            ("served_engine".into(), num(&self.served_engine)),
            ("shed".into(), num(&self.shed)),
            ("rejected".into(), num(&self.rejected)),
            ("errors".into(), num(&self.errors)),
            ("timeouts".into(), num(&self.timeouts)),
            ("reloads".into(), num(&self.reloads)),
            ("compactions".into(), num(&self.compactions)),
            ("retries_observed".into(), num(&self.retries_observed)),
            (
                "in_flight".into(),
                Json::Num(self.in_flight.load(Ordering::Relaxed) as f64),
            ),
            (
                "latency".into(),
                Json::Obj(
                    QUESTION_LABELS
                        .iter()
                        .zip(&self.latency)
                        .map(|(label, histogram)| ((*label).into(), histogram.to_json_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(3)); // exact bucket 3
        }
        h.record(Duration::from_micros(1000)); // bucket [960, 1024)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), Some(3));
        assert_eq!(h.quantile_us(0.99), Some(3));
        assert_eq!(h.quantile_us(1.0), Some(1023));
        // 43 µs lands in [40, 44) and reads 43 µs, 45 µs in [44, 48)
        // and reads 47 µs.
        let h = Histogram::default();
        h.record(Duration::from_micros(43));
        h.record(Duration::from_micros(45));
        assert_eq!(h.quantile_us(0.5), Some(43));
        assert_eq!(h.quantile_us(1.0), Some(47));
    }

    #[test]
    fn zero_latency_lands_in_the_first_bucket() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), Some(0));
        // Any positive latency rounds up to at least 1 µs.
        h.record(Duration::from_nanos(1));
        assert_eq!(h.quantile_us(1.0), Some(1));
    }

    #[test]
    fn quantiles_are_within_an_eighth_from_1us_to_10s() {
        let mut micros = 1u64;
        while micros <= 10_000_000 {
            let h = Histogram::default();
            h.record(Duration::from_micros(micros));
            let read = h.quantile_us(0.5).expect("one sample");
            assert!(read >= micros, "{micros} µs read {read} µs");
            let error = (read - micros) as f64 / micros as f64;
            assert!(error <= 0.125, "{micros} µs read {read} µs ({error:.3})");
            micros = (micros + 1).max(micros * 101 / 100);
        }
    }

    #[test]
    fn buckets_tile_the_latency_axis() {
        // Consecutive buckets meet without gaps or overlaps, and every
        // bucket's largest latency maps back to it.
        for bucket in 0..BUCKETS - 1 {
            let max = bucket_max_us(bucket);
            assert_eq!(bucket_of(max), bucket);
            assert_eq!(bucket_of(max + 1), bucket + 1);
        }
        assert_eq!(bucket_max_us(BUCKETS - 1), (1 << OCTAVES) - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histograms_key_by_question_label() {
        let metrics = ServerMetrics::default();
        metrics.histogram("atlas").record(Duration::from_micros(10));
        assert_eq!(metrics.latency[4].count(), 1);
        assert_eq!(metrics.histogram("no-such-label").count(), 0);
    }
}
