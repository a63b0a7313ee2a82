//! The headline validation: execute the §4 adversaries against live
//! policies and check the measured competitive ratios against the paper's
//! closed-form theorems — lower bounds are achieved, upper bounds are
//! respected.

use gc_cache::gc_bounds::{
    gc_lower_bound, iblp_optimal_split, sleator_tarjan, thm2_item_cache_lower,
    thm3_block_cache_lower, thm4_general_lower, thm7_iblp,
};
use gc_cache::gc_offline::gc_belady_heuristic;
use gc_cache::gc_trace::adversary;
use gc_cache::prelude::*;

#[test]
fn sleator_tarjan_is_achieved_by_the_adversary() {
    for (k, h) in [(64, 32), (128, 16), (256, 255)] {
        let mut probe = ProbeAdapter::new(ItemLru::new(k));
        let rep = adversary::sleator_tarjan(&mut probe, k, h, 50);
        let bound = sleator_tarjan(k, h).unwrap();
        assert!(
            (rep.competitive_ratio() - bound).abs() < 1e-9,
            "k={k} h={h}: measured {} vs bound {bound}",
            rep.competitive_ratio()
        );
    }
}

#[test]
fn thm2_ratio_matches_closed_form_against_item_lru() {
    // The adversary certifies the per-round ratio
    // ((k−h+1) + (h−B)) / ⌈(k−h+1)/B⌉, and Theorem 2's B(k−B+1)/(k−h+1)
    // is its k ≫ B idealization. Check both: exact per-round accounting
    // and closeness to the closed form.
    for (k, h, b) in [(128usize, 32usize, 8usize), (512, 64, 16), (256, 96, 32)] {
        let mut probe = ProbeAdapter::new(ItemLru::new(k));
        let rep = adversary::item_cache(&mut probe, k, h, b, 40);
        let per_round_online = (k - h + 1) + (h - b);
        let per_round_opt = (k - h + 1).div_ceil(b);
        let exact = per_round_online as f64 / per_round_opt as f64;
        assert!((rep.competitive_ratio() - exact).abs() < 1e-9);
        let closed = thm2_item_cache_lower(k, h, b).unwrap();
        assert!(
            rep.competitive_ratio() > 0.55 * closed,
            "k={k} h={h} B={b}: measured {} too far below theorem {closed}",
            rep.competitive_ratio()
        );
    }
}

#[test]
fn thm2_applies_to_every_item_cache_not_just_lru() {
    let (k, h, b) = (256usize, 64usize, 16usize);
    let st = sleator_tarjan(k, h).unwrap();
    let check = |mut probe: ProbeAdapter<Box<dyn GcPolicy>>, name: &str| {
        let rep = adversary::item_cache(&mut probe, k, h, b, 30);
        assert!(
            rep.competitive_ratio() > 5.0 * st,
            "{name}: measured {} not ≫ ST {st}",
            rep.competitive_ratio()
        );
    };
    let map = BlockMap::strided(b);
    for kind in [
        PolicyKind::ItemLru,
        PolicyKind::ItemFifo,
        PolicyKind::ItemClock,
        PolicyKind::ItemLfu,
    ] {
        check(ProbeAdapter::new(kind.build(k, &map)), &kind.label());
    }
}

#[test]
fn thm3_ratio_matches_closed_form_against_block_lru() {
    for (k, h, b) in [(128usize, 4usize, 16usize), (512, 8, 32)] {
        let map = BlockMap::strided(b);
        let mut probe = ProbeAdapter::new(BlockLru::new(k, map));
        let rep = adversary::block_cache(&mut probe, k, h, b, 40);
        // Executed construction certifies (k/B)/(k/B − h + 1); Theorem 3's
        // k/(k − B(h−1)) equals it when B | k.
        let closed = thm3_block_cache_lower(k, h, b).unwrap();
        assert!(
            (rep.competitive_ratio() - closed).abs() / closed < 0.05,
            "k={k} h={h} B={b}: measured {} vs theorem {closed}",
            rep.competitive_ratio()
        );
    }
}

#[test]
fn thm4_family_ordering_matches_theory() {
    // Against the Theorem 4 adversary, ThresholdLoad(a)'s measured ratio
    // should track the theorem's value for that a, and the interior values
    // should be worse than both extremes exactly as §4.4 argues.
    let (k, h, b) = (256usize, 64usize, 8usize);
    let mut measured = Vec::new();
    for a in [1usize, 2, 4, 8] {
        let map = BlockMap::strided(b);
        let mut probe = ProbeAdapter::new(ThresholdLoad::new(k, a, map));
        let rep = adversary::general(&mut probe, k, h, b, 40);
        let theory = thm4_general_lower(k, h, b, a).unwrap();
        assert!(
            rep.competitive_ratio() >= 0.8 * theory,
            "a={a}: measured {} below theory {theory}",
            rep.competitive_ratio()
        );
        measured.push((a, rep.competitive_ratio()));
    }
    let ratio_of = |a: usize| measured.iter().find(|(x, _)| *x == a).unwrap().1;
    let envelope = ratio_of(1).min(ratio_of(8));
    assert!(
        ratio_of(2) >= envelope * 0.99,
        "interior a=2 better than both extremes"
    );
    assert!(
        ratio_of(4) >= envelope * 0.99,
        "interior a=4 better than both extremes"
    );
}

#[test]
fn gc_lower_bound_is_below_measured_for_all_policies() {
    // The universal lower bound must not exceed what any actual policy
    // achieves on its own worst-case trace family.
    let (k, h, b) = (256usize, 64usize, 16usize);
    let lb = gc_lower_bound(k, h, b).unwrap();
    let map = BlockMap::strided(b);
    // ThresholdLoad(1) is the policy §4.4 recommends at this size ratio.
    let mut probe = ProbeAdapter::new(ThresholdLoad::new(k, 1, map));
    let rep = adversary::general(&mut probe, k, h, b, 40);
    assert!(
        rep.competitive_ratio() >= lb * 0.8,
        "measured {} vs universal lower bound {lb}",
        rep.competitive_ratio()
    );
}

#[test]
fn iblp_measured_ratio_respects_thm7_upper_bound() {
    // Theorem 7 upper-bounds IBLP against ANY trace and any offline cache
    // of size h. Measured ratio uses the offline block-Belady heuristic
    // (≥ OPT), so measured ≤ true ratio ≤ bound must hold.
    let (i, b_lines, h, b) = (96usize, 64usize, 24usize, 8usize);
    let bound = thm7_iblp(i, b_lines, h, b).unwrap();
    let map = BlockMap::strided(b);

    for seed in 1..=5u64 {
        let cfg = gc_cache::gc_trace::synthetic::BlockRunConfig {
            num_blocks: 64,
            block_size: b,
            block_theta: 0.7,
            spatial_locality: 0.5,
            len: 30_000,
            seed,
        };
        let trace = gc_cache::gc_trace::synthetic::block_runs(&cfg);
        let mut iblp = Iblp::new(i, b_lines, map.clone());
        let online = gc_cache::gc_sim::simulate(&mut iblp, &trace).misses;
        let offline = gc_belady_heuristic(&trace, &map, h);
        let measured = online as f64 / offline.max(1) as f64;
        assert!(
            measured <= bound * 1.001,
            "seed {seed}: measured {measured} exceeds Theorem 7 bound {bound}"
        );
    }

    // Adversarial traces too: the Theorem 2 adversary (driven against this
    // IBLP) still cannot push it beyond its upper bound.
    let mut probe = ProbeAdapter::new(Iblp::new(i, b_lines, map.clone()));
    let rep = adversary::item_cache(&mut probe, i + b_lines, h, b, 40);
    let offline = gc_belady_heuristic(&rep.trace, &map, h);
    let measured = probe.misses() as f64 / offline.max(1) as f64;
    assert!(
        measured <= bound * 1.001,
        "adversarial: measured {measured} exceeds bound {bound}"
    );
}

#[test]
fn iblp_beats_item_cache_bound_on_the_item_adversary() {
    // On Theorem 2's trace family, the item cache is pinned at ≈ thm2 but
    // IBLP (which co-loads blocks) does substantially better.
    let (k, h, b) = (256usize, 64usize, 16usize);
    let map = BlockMap::strided(b);

    let mut lru_probe = ProbeAdapter::new(ItemLru::new(k));
    let lru_rep = adversary::item_cache(&mut lru_probe, k, h, b, 40);

    let mut iblp_probe = ProbeAdapter::new(Iblp::balanced(k, map.clone()));
    let _ = adversary::item_cache(&mut iblp_probe, k, h, b, 40);
    // Feed IBLP the same trace the LRU adversary generated, for a clean
    // same-trace comparison.
    let mut iblp = Iblp::balanced(k, map);
    let iblp_misses =
        gc_cache::gc_sim::simulate_with_warmup(&mut iblp, &lru_rep.trace, lru_rep.warmup_len)
            .misses;
    assert!(
        (iblp_misses as f64) < 0.5 * lru_rep.online_misses as f64,
        "IBLP {iblp_misses} vs item LRU {}",
        lru_rep.online_misses
    );
}

#[test]
fn figure3_empirical_overlay_tracks_theory_at_every_h() {
    // Figure 3 at laptop scale (k = 4096, B = 16), measured: at each h the
    // Theorem 2 adversary against ItemLRU and the Theorem 4 (a = 1)
    // adversary against ThresholdLoad(1) certify ratios within 1 % of
    // their closed forms, and IBLP at the optimal split for that h, run
    // on the Theorem 2 trace, stays below its Theorem 7 bound. Prints the
    // overlay as CSV (`-- --nocapture` shows it).
    let (k, b, rounds) = (4096usize, 16usize, 12usize);
    let map = BlockMap::strided(b);
    println!("h,thm2,item_lru,gc_lower,loadk1,thm7,iblp");
    let mut h = 64usize;
    while h <= k / 2 {
        let mut lru = ProbeAdapter::new(ItemLru::new(k));
        let item = adversary::item_cache(&mut lru, k, h, b, rounds);
        let thm2 = thm2_item_cache_lower(k, h, b).unwrap();
        let gap = (item.competitive_ratio() - thm2).abs() / thm2;
        assert!(
            gap < 0.01,
            "h={h}: ItemLRU {} vs Theorem 2 {thm2}",
            item.competitive_ratio()
        );

        let mut loadk = ProbeAdapter::new(ThresholdLoad::new(k, 1, map.clone()));
        let general = adversary::general(&mut loadk, k, h, b, rounds);
        let lower = gc_lower_bound(k, h, b).unwrap();
        let gap = (general.competitive_ratio() - lower).abs() / lower;
        assert!(
            gap < 0.01,
            "h={h}: ThresholdLoad(1) {} vs GC lower bound {lower}",
            general.competitive_ratio()
        );

        let (i, _) = iblp_optimal_split(k, h, b).unwrap();
        let i = i.clamp(b, k - b);
        let thm7 = thm7_iblp(i, k - i, h, b).unwrap();
        let mut iblp = Iblp::new(i, k - i, map.clone());
        let online =
            gc_cache::gc_sim::simulate_with_warmup(&mut iblp, &item.trace, item.warmup_len).misses;
        let measured = online as f64 / gc_belady_heuristic(&item.trace, &map, h).max(1) as f64;
        println!(
            "{h},{thm2:.3},{:.3},{lower:.3},{:.3},{thm7:.3},{measured:.3}",
            item.competitive_ratio(),
            general.competitive_ratio()
        );
        assert!(
            measured <= thm7,
            "h={h}: IBLP {measured} above Theorem 7 bound {thm7}"
        );
        h *= 2;
    }
}
