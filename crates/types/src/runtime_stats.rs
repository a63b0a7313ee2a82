//! Statistics vocabulary for the concurrent serving runtime.
//!
//! The offline simulator reports [`SimStats`]-shaped counters from a
//! single-threaded replay; the `gc-runtime` crate serves live traffic from
//! many threads and needs a richer shape: the same hit/miss/attribution
//! counters **plus** fetch-path telemetry (how many backend loads actually
//! happened, how many misses coalesced onto an in-flight load, how many
//! items the backend returned vs how many the policy admitted) and a fetch
//! latency histogram. This module is that shape — plain data,
//! no atomics; the runtime keeps concurrent accumulators internally and
//! snapshots into these types.
//!
//! [`SimStats`]: https://docs.rs/gc-sim

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 is `[0, 1)`). 64 buckets cover
/// the full `u64` nanosecond range.
pub const LATENCY_BUCKETS: usize = 64;

/// A fixed power-of-two-bucket latency histogram (nanosecond samples).
///
/// No external histogram dependency: bucket `i` holds the number of
/// recorded samples whose nanosecond value has bit-length `i`, i.e.
/// `record(0)` lands in bucket 0 and `record(n)` for `n > 0` lands in
/// bucket `64 - n.leading_zeros()`. Quantiles are answered at bucket
/// resolution (the upper bound of the containing bucket), which is the
/// usual accuracy trade for lock-free fixed-footprint histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts, inline: building, clearing and cloning a
    /// histogram never touches the allocator.
    buckets: [u64; LATENCY_BUCKETS],
    /// Total samples recorded.
    count: u64,
    /// Sum of all recorded samples, in nanoseconds (saturating).
    sum_nanos: u64,
    /// Largest recorded sample, in nanoseconds.
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

/// The bucket index a nanosecond sample falls into.
#[inline]
pub fn latency_bucket(nanos: u64) -> usize {
    (u64::BITS - nanos.leading_zeros()) as usize
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Rebuild a histogram from raw bucket counts (the runtime's atomic
    /// accumulator snapshots through this). `buckets` beyond
    /// [`LATENCY_BUCKETS`] entries are ignored; missing entries are zero.
    pub fn from_buckets(buckets: &[u64], sum_nanos: u64, max_nanos: u64) -> Self {
        let mut h = LatencyHistogram::new();
        for (i, &c) in buckets.iter().take(LATENCY_BUCKETS).enumerate() {
            h.buckets[i] = c;
            h.count += c;
        }
        h.sum_nanos = sum_nanos;
        h.max_nanos = max_nanos;
        h
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.buckets[latency_bucket(nanos)] += 1;
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// The quantile `q` in `[0, 1]`, answered at bucket resolution: the
    /// upper bound (exclusive) of the bucket containing the `ceil(q·n)`-th
    /// smallest sample, clamped to the observed maximum. Returns 0 when
    /// empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i spans [2^(i-1), 2^i); report its upper bound,
                // never exceeding the true observed max.
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return upper.min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Per-bucket counts (always [`LATENCY_BUCKETS`] entries).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Fold another histogram into this one. Folding an empty histogram
    /// is a no-op that reads only its count.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Forget every sample. The buckets always sum to the count, so an
    /// empty histogram's buckets are left untouched.
    pub fn clear(&mut self) {
        if self.count != 0 {
            self.buckets = [0; LATENCY_BUCKETS];
        }
        self.count = 0;
        self.sum_nanos = 0;
        self.max_nanos = 0;
    }
}

/// Per-tier fetch telemetry reported by layered backends (a RAM staging
/// tier over a disk store, say). One entry per tier, in tier order
/// (fastest first); `fetches` counts loads *served* by the tier, so a
/// tiered backend's entries sum to its total backend loads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Human-readable tier label (e.g. `"mem"`, `"disk"`).
    pub label: String,
    /// Block loads served by this tier.
    pub fetches: u64,
    /// Blocks written into this tier (write-through population).
    pub stores: u64,
    /// Latency of the loads this tier served.
    pub latency: LatencyHistogram,
}

impl TierStats {
    /// Fold another snapshot of the *same* tier into this one.
    pub fn merge(&mut self, other: &TierStats) {
        self.fetches += other.fetches;
        self.stores += other.stores;
        self.latency.merge(&other.latency);
    }
}

/// Counters accumulated by one shard (or aggregated over all shards) of
/// the serving runtime.
///
/// The first seven fields mirror the offline simulator's stats shape so
/// runtime results fold losslessly into it (`gc-runtime`'s `drain()` does
/// exactly that): `admitted_items` corresponds to the simulator's
/// `items_loaded` — the items the policy *chose to admit*, which under the
/// GC model may be any subset of what the backend fetched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Requests served.
    pub accesses: u64,
    /// Requests that missed (unit-cost loads in the paper's model).
    pub misses: u64,
    /// Hits to items resident because of their own earlier request.
    pub temporal_hits: u64,
    /// First hits to items resident only because a sibling's miss
    /// co-loaded them (§2's spatial-locality hits).
    pub spatial_hits: u64,
    /// Items the policy admitted across all misses (≥ `misses`; the
    /// simulator calls this `items_loaded`).
    pub admitted_items: u64,
    /// Items evicted across all misses.
    pub evicted_items: u64,
    /// Largest observed occupancy, in lines.
    pub peak_len: usize,
    /// Backend block loads actually performed (single-flight leaders).
    pub backend_fetches: u64,
    /// Misses that coalesced onto an already-in-flight fetch of the same
    /// block instead of issuing their own backend load.
    pub coalesced_fetches: u64,
    /// Items returned by the backend across all fetches (whole blocks —
    /// the "rest of the block is free" supply the policy admits from).
    pub fetched_items: u64,
    /// Latency of backend fetches, as observed by single-flight leaders.
    pub fetch_latency: LatencyHistogram,
    /// Misses that parked on the single-flight table waiting for another
    /// caller's in-flight load — *delayed hits* in the sense of Manohar &
    /// Atre: the block was already being fetched, so the request neither
    /// hit nor paid a full fetch, it waited. A subset of
    /// `coalesced_fetches` (same-batch dedup rides along with zero wait
    /// and is not delayed).
    pub delayed_hits: u64,
    /// How long delayed hits waited on the in-flight fetch.
    pub waiter_wait: LatencyHistogram,
    /// Per-tier fetch telemetry, present when the backend is tiered.
    /// Attached to aggregate snapshots only (tiers are a backend-wide
    /// resource, not a per-shard one).
    pub tiers: Vec<TierStats>,
}

impl RuntimeStats {
    /// All hits (temporal + spatial).
    pub fn hits(&self) -> u64 {
        self.temporal_hits + self.spatial_hits
    }

    /// Hits per access.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses as f64
        }
    }

    /// Misses per access.
    pub fn fault_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of misses that coalesced onto an in-flight fetch instead
    /// of paying their own backend load.
    pub fn coalescing_rate(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.coalesced_fetches as f64 / self.misses as f64
        }
    }

    /// Fraction of backend-fetched items the policy actually admitted —
    /// the measured subset-selection ratio of the GC model.
    pub fn admission_ratio(&self) -> f64 {
        if self.fetched_items == 0 {
            0.0
        } else {
            self.admitted_items as f64 / self.fetched_items as f64
        }
    }

    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.temporal_hits += other.temporal_hits;
        self.spatial_hits += other.spatial_hits;
        self.admitted_items += other.admitted_items;
        self.evicted_items += other.evicted_items;
        self.peak_len = self.peak_len.max(other.peak_len);
        self.backend_fetches += other.backend_fetches;
        self.coalesced_fetches += other.coalesced_fetches;
        self.fetched_items += other.fetched_items;
        self.fetch_latency.merge(&other.fetch_latency);
        self.delayed_hits += other.delayed_hits;
        self.waiter_wait.merge(&other.waiter_wait);
        for tier in &other.tiers {
            match self.tiers.iter_mut().find(|t| t.label == tier.label) {
                Some(mine) => mine.merge(tier),
                None => self.tiers.push(tier.clone()),
            }
        }
    }

    /// Fraction of misses that were delayed hits (parked on an in-flight
    /// fetch rather than leading their own or riding a same-batch dedup).
    pub fn delayed_hit_rate(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.delayed_hits as f64 / self.misses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_nanos(0.5), 0);
        for nanos in [100u64, 200, 300, 400, 100_000] {
            h.record(nanos);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_nanos(), 100_000);
        // p50: 3rd smallest (300) lives in bucket [256, 512) → upper 511.
        assert_eq!(h.quantile_nanos(0.5), 511);
        // p100 clamps to the observed max, not the bucket bound.
        assert_eq!(h.quantile_nanos(1.0), 100_000);
        assert!((h.mean_nanos() - 20_200.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_and_from_buckets() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        let mut b = LatencyHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_nanos(), 1_000_000);

        let rebuilt = LatencyHistogram::from_buckets(a.buckets(), 1_000_010, 1_000_000);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn histogram_clear_forgets_every_sample() {
        let mut h = LatencyHistogram::new();
        for nanos in [0u64, 7, 1 << 20, 1 << 62] {
            h.record(nanos);
        }
        h.clear();
        assert_eq!(h, LatencyHistogram::default());
        assert!(h.buckets().iter().all(|&c| c == 0));
        h.clear();
        assert_eq!(h, LatencyHistogram::default(), "clearing an empty one");
        h.record(300);
        assert_eq!((h.count(), h.max_nanos()), (1, 300), "usable after clear");
    }

    #[test]
    fn merging_an_empty_histogram_is_a_no_op() {
        let mut a = LatencyHistogram::new();
        a.record(40);
        a.record(90_000);
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
        let mut empty = LatencyHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty one copies");
    }

    #[test]
    fn from_buckets_round_trips_every_bucket() {
        // `1 << i` lands in bucket `i + 1` and 0 in bucket 0, so every
        // bucket is filled, with one to three samples.
        let mut h = LatencyHistogram::new();
        for i in 0..LATENCY_BUCKETS as u32 - 1 {
            for _ in 0..=i % 3 {
                h.record(1u64 << i);
            }
        }
        h.record(0);
        assert!(h.buckets().iter().all(|&c| c > 0));
        let sum = (0..LATENCY_BUCKETS as u32 - 1)
            .map(|i| (u64::from(i % 3) + 1).saturating_mul(1u64 << i))
            .fold(0u64, u64::saturating_add);
        let rebuilt = LatencyHistogram::from_buckets(h.buckets(), sum, h.max_nanos());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.quantile_nanos(0.5), h.quantile_nanos(0.5));
    }

    #[test]
    fn from_buckets_tolerates_short_and_long_inputs() {
        let h = LatencyHistogram::from_buckets(&[1, 2], 3, 2);
        assert_eq!(h.count(), 3);
        let long = vec![1u64; 100];
        let h = LatencyHistogram::from_buckets(&long, 0, 0);
        assert_eq!(h.count(), LATENCY_BUCKETS as u64);
    }

    #[test]
    fn runtime_stats_rates() {
        let s = RuntimeStats {
            accesses: 100,
            misses: 40,
            temporal_hits: 50,
            spatial_hits: 10,
            admitted_items: 80,
            evicted_items: 60,
            peak_len: 32,
            backend_fetches: 30,
            coalesced_fetches: 10,
            fetched_items: 480,
            delayed_hits: 6,
            ..RuntimeStats::default()
        };
        assert_eq!(s.hits(), 60);
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.fault_rate() - 0.4).abs() < 1e-12);
        assert!((s.coalescing_rate() - 0.25).abs() < 1e-12);
        assert!((s.admission_ratio() - 80.0 / 480.0).abs() < 1e-12);
        assert!((s.delayed_hit_rate() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn runtime_stats_empty_rates_are_zero() {
        let s = RuntimeStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.fault_rate(), 0.0);
        assert_eq!(s.coalescing_rate(), 0.0);
        assert_eq!(s.admission_ratio(), 0.0);
        assert_eq!(s.delayed_hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_delayed_hits_and_matches_tiers_by_label() {
        let mut mem = TierStats {
            label: "mem".into(),
            fetches: 3,
            stores: 5,
            ..TierStats::default()
        };
        mem.latency.record(100);
        let mut disk = TierStats {
            label: "disk".into(),
            fetches: 2,
            ..TierStats::default()
        };
        disk.latency.record(50_000);

        let mut a = RuntimeStats {
            delayed_hits: 2,
            tiers: vec![mem.clone()],
            ..RuntimeStats::default()
        };
        a.waiter_wait.record(700);
        let b = RuntimeStats {
            delayed_hits: 1,
            tiers: vec![mem.clone(), disk.clone()],
            ..RuntimeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.delayed_hits, 3);
        assert_eq!(a.waiter_wait.count(), 1);
        assert_eq!(a.tiers.len(), 2, "disk tier appended, mem tier merged");
        assert_eq!(a.tiers[0].label, "mem");
        assert_eq!(a.tiers[0].fetches, 6);
        assert_eq!(a.tiers[0].stores, 10);
        assert_eq!(a.tiers[0].latency.count(), 2);
        assert_eq!(a.tiers[1], disk);
    }

    #[test]
    fn runtime_stats_merge_sums() {
        let mut a = RuntimeStats {
            accesses: 10,
            misses: 4,
            peak_len: 8,
            ..RuntimeStats::default()
        };
        let b = RuntimeStats {
            accesses: 5,
            misses: 1,
            peak_len: 16,
            ..RuntimeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.misses, 5);
        assert_eq!(a.peak_len, 16);
    }
}
