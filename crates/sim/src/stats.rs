//! Simulation statistics.

/// Counters accumulated over one simulation run.
///
/// The cost model follows Definition 1: every miss costs one unit no matter
/// how many items of the block it loads, so `misses` *is* the total cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Requests served (after any warm-up exclusion).
    pub accesses: u64,
    /// Requests that missed — equivalently, unit-cost loads performed.
    pub misses: u64,
    /// Hits to items resident because of their *own* earlier request.
    pub temporal_hits: u64,
    /// First hits to items resident only because a sibling's miss
    /// co-loaded them (§2's definition of a spatial-locality hit).
    pub spatial_hits: u64,
    /// Total items brought in across all loads (≥ `misses`).
    pub items_loaded: u64,
    /// Total items evicted.
    pub items_evicted: u64,
    /// Largest observed occupancy, in lines.
    pub peak_len: usize,
}

impl SimStats {
    /// All hits (temporal + spatial).
    pub fn hits(&self) -> u64 {
        self.temporal_hits + self.spatial_hits
    }

    /// Misses per access — the fault rate of §7.
    pub fn fault_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hits per access.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses as f64
        }
    }

    /// Fraction of hits attributable to spatial locality.
    pub fn spatial_fraction(&self) -> f64 {
        let hits = self.hits();
        if hits == 0 {
            0.0
        } else {
            self.spatial_hits as f64 / hits as f64
        }
    }

    /// Average items brought in per unit-cost load.
    pub fn load_width(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.items_loaded as f64 / self.misses as f64
        }
    }

    /// Merge another run's counters into this one (for sharded traces).
    pub fn merge(&mut self, other: &SimStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.temporal_hits += other.temporal_hits;
        self.spatial_hits += other.spatial_hits;
        self.items_loaded += other.items_loaded;
        self.items_evicted += other.items_evicted;
        self.peak_len = self.peak_len.max(other.peak_len);
    }
}

gc_types::json_record!(SimStats {
    accesses,
    misses,
    temporal_hits,
    spatial_hits,
    items_loaded,
    items_evicted,
    peak_len,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            accesses: 100,
            misses: 25,
            temporal_hits: 60,
            spatial_hits: 15,
            items_loaded: 100,
            items_evicted: 80,
            peak_len: 64,
        }
    }

    #[test]
    fn rates() {
        let s = sample();
        assert_eq!(s.hits(), 75);
        assert!((s.fault_rate() - 0.25).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.spatial_fraction() - 0.2).abs() < 1e-12);
        assert!((s.load_width() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_all_zero_rates() {
        let s = SimStats::default();
        assert_eq!(s.fault_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.spatial_fraction(), 0.0);
        assert_eq!(s.load_width(), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.accesses, 200);
        assert_eq!(a.misses, 50);
        assert_eq!(a.peak_len, 64);
    }
}
