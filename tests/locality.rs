//! §7 locality-model integration: empirical working-set profiles are
//! consistent, the Albers-style fault-rate bounds hold for measured runs,
//! and the Theorem 8 family forces the predicted fault floor.

use gc_cache::gc_locality::bounds as fr;
use gc_cache::gc_locality::{fit_polynomial, GcLocality, PolyLocality, SpatialRatio};
use gc_cache::gc_trace::adversary::{locality_family, LocalityFamilyConfig};
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::gc_trace::working_set::{
    max_distinct_blocks_in_window, max_distinct_items_in_window,
};
use gc_cache::gc_trace::WorkingSetProfile;
use gc_cache::prelude::*;

#[test]
fn profiles_are_consistent_across_workloads() {
    for (theta, spatial) in [(0.0, 0.0), (0.9, 0.3), (0.5, 0.9), (1.1, 0.6)] {
        let cfg = BlockRunConfig {
            num_blocks: 128,
            block_size: 8,
            block_theta: theta,
            spatial_locality: spatial,
            len: 30_000,
            seed: 5,
        };
        let trace = block_runs(&cfg);
        let map = block_runs_map(&cfg);
        let windows = WorkingSetProfile::geometric_windows(trace.len());
        let profile = WorkingSetProfile::compute(&trace, &map, &windows);
        profile
            .check_consistency(cfg.block_size)
            .unwrap_or_else(|e| {
                panic!("θ={theta} s={spatial}: {e}");
            });
    }
}

#[test]
fn fg_ratio_rises_monotonically_with_the_spatial_knob() {
    // The generator's spatial-locality knob is what the model's f/g
    // measures: at a fixed window, more spatial locality means fewer
    // distinct blocks per distinct item.
    let mut last = 0.0;
    for spatial in [0.0, 0.3, 0.6, 0.9, 0.99] {
        let cfg = BlockRunConfig {
            num_blocks: 512,
            block_size: 16,
            block_theta: 0.6,
            spatial_locality: spatial,
            len: 100_000,
            seed: 77,
        };
        let trace = block_runs(&cfg);
        let profile = WorkingSetProfile::compute(&trace, &block_runs_map(&cfg), &[4096]);
        profile
            .check_consistency(cfg.block_size)
            .unwrap_or_else(|e| panic!("s={spatial}: {e}"));
        let ratio = profile.fg_ratio()[0];
        assert!(ratio > last, "s={spatial}: f/g {ratio} not above {last}");
        last = ratio;
    }
}

/// Exact empirical inverse: the smallest window whose max distinct-item
/// count reaches `target` (binary search — the count is monotone in `n`).
fn empirical_f_inverse(trace: &Trace, target: usize) -> Option<usize> {
    if max_distinct_items_in_window(trace, trace.len()) < target {
        return None;
    }
    let (mut lo, mut hi) = (1usize, trace.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if max_distinct_items_in_window(trace, mid) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

#[test]
fn item_lru_fault_rate_respects_empirical_albers_bound() {
    // Theorem 9 instantiated with the trace's own empirical f: the
    // steady-state fault rate of LRU(i) is at most (i−1)/(f⁻¹(i+1) − 2).
    // Cold-start misses are excluded (the Albers model's bound is
    // amortized over phases of a long trace).
    let cfg = BlockRunConfig {
        num_blocks: 256,
        block_size: 8,
        block_theta: 0.8,
        spatial_locality: 0.4,
        len: 50_000,
        seed: 9,
    };
    let trace = block_runs(&cfg);
    for i in [64usize, 128, 256] {
        let Some(f_inv) = empirical_f_inverse(&trace, i + 1) else {
            continue;
        };
        let bound = (i as f64 - 1.0) / (f_inv as f64 - 2.0);
        let mut lru = ItemLru::new(i);
        let rate = gc_cache::gc_sim::simulate_with_warmup(&mut lru, &trace, 4 * i).fault_rate();
        assert!(
            rate <= bound.min(1.0) + 1e-9,
            "i={i}: measured {rate} above Albers bound {bound} (f_inv={f_inv})"
        );
    }
}

#[test]
fn block_layer_fault_rate_respects_empirical_g_bound() {
    // Theorem 10: a block cache of b lines behaves as LRU over blocks with
    // b/B entries; its fault rate obeys the Albers bound with g.
    let cfg = BlockRunConfig {
        num_blocks: 256,
        block_size: 8,
        block_theta: 0.7,
        spatial_locality: 0.8,
        len: 50_000,
        seed: 10,
    };
    let trace = block_runs(&cfg);
    let map = block_runs_map(&cfg);
    let b_lines = 256usize;
    let entries = b_lines / cfg.block_size;
    // Exact empirical g⁻¹(entries+1) by binary search (monotone count).
    let (mut lo, mut hi) = (1usize, trace.len());
    assert!(max_distinct_blocks_in_window(&trace, &map, hi) > entries);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if max_distinct_blocks_in_window(&trace, &map, mid) > entries {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let g_inv = lo;
    let bound = (entries as f64 - 1.0) / (g_inv as f64 - 2.0);
    let mut cache = BlockLru::new(b_lines, map);
    let rate = gc_cache::gc_sim::simulate_with_warmup(&mut cache, &trace, 4 * b_lines).fault_rate();
    assert!(
        rate <= bound.min(1.0) + 1e-9,
        "measured {rate} above block-layer bound {bound}"
    );
}

#[test]
fn thm8_family_forces_fault_floor_on_lru() {
    // The Theorem 8 construction with a known polynomial envelope: the
    // online cache must fault at least g(p)/p per phase-sized window.
    let k = 32usize;
    let block_size = 4usize;
    let f = PolyLocality::unit(2.0); // f⁻¹(m) = m²
    let phase_len = (f.c * ((k + 1) as f64).powf(f.p)) as usize - 2;
    let blocks_per_phase = 4usize; // g(p) budget
    let cfg = LocalityFamilyConfig {
        cache_size: k,
        block_size,
        phase_len,
        blocks_per_phase,
        phases: 30,
    };
    let mut probe = ProbeAdapter::new(ItemLru::new(k));
    let rep = locality_family(&mut probe, &cfg);
    let measured_rate = rep.online_misses as f64 / (rep.trace.len() - rep.warmup_len) as f64;
    // Theorem 8 floor with g(p) = blocks_per_phase: g(f⁻¹(k+1)−2)/(f⁻¹(k+1)−2).
    let floor = blocks_per_phase as f64 / phase_len as f64;
    assert!(
        measured_rate >= floor * 0.9,
        "measured {measured_rate} below Theorem 8 floor {floor}"
    );
}

#[test]
fn fitted_polynomials_track_generated_locality() {
    // A scan has f(n) = n (p = 1); skewed block-runs have p > 1.
    let scan = gc_cache::gc_trace::synthetic::scan(1 << 14, 20_000);
    let windows = WorkingSetProfile::geometric_windows(scan.len());
    let profile = WorkingSetProfile::compute(&scan, &BlockMap::singleton(), &windows);
    let fit = fit_polynomial(&profile.window_sizes, &profile.f).unwrap();
    assert!(fit.p < 1.1, "scan fit p = {}", fit.p);

    let cfg = BlockRunConfig {
        num_blocks: 512,
        block_size: 8,
        block_theta: 1.0,
        spatial_locality: 0.5,
        len: 40_000,
        seed: 3,
    };
    let skewed = block_runs(&cfg);
    let windows = WorkingSetProfile::geometric_windows(skewed.len());
    let profile = WorkingSetProfile::compute(&skewed, &block_runs_map(&cfg), &windows);
    let fit = fit_polynomial(&profile.window_sizes, &profile.f).unwrap();
    assert!(fit.p > 1.2, "skewed fit p = {}", fit.p);
}

#[test]
fn table2_bounds_bracket_measured_rates_for_balanced_iblp() {
    // Drive balanced IBLP on a maximal-spatial-locality workload and check
    // the Theorem 11 bound (with a fitted f and measured f/g ratio) is not
    // violated.
    let cfg = BlockRunConfig {
        num_blocks: 1024,
        block_size: 16,
        block_theta: 0.9,
        spatial_locality: 0.95,
        len: 60_000,
        seed: 12,
    };
    let trace = block_runs(&cfg);
    let map = block_runs_map(&cfg);
    let windows = WorkingSetProfile::geometric_windows(trace.len());
    let profile = WorkingSetProfile::compute(&trace, &map, &windows);
    let fit_f = fit_polynomial(&profile.window_sizes, &profile.f).expect("f fits");
    // Use the weakest (largest) admissible spatial ratio consistent with
    // the measurement so the bound is conservative.
    let min_ratio = profile
        .fg_ratio()
        .into_iter()
        .fold(f64::INFINITY, f64::min)
        .max(1.0);
    let loc = GcLocality::new(
        fit_f,
        cfg.block_size as f64,
        SpatialRatio::Custom(min_ratio),
    );

    let (i, b) = (512usize, 512usize);
    let mut iblp = Iblp::new(i, b, map);
    let rate = gc_cache::gc_sim::simulate(&mut iblp, &trace).fault_rate();
    if let Some(bound) = fr::thm11_iblp_ub(&loc, i, b) {
        assert!(
            rate <= bound.min(1.0) * 1.05 + 0.01,
            "measured {rate} above Theorem 11 bound {bound}"
        );
    }
}
