//! Table 1 of the paper: salient (augmentation ⇒ competitive ratio)
//! comparison points between traditional caching and GC caching.
//!
//! | Setting | Sleator–Tarjan | GC lower bound | GC upper bound |
//! |---|---|---|---|
//! | Constant augmentation | `k = 2h ⇒ 2×` | `k ≈ 2h ⇒ B×` | `k ≈ 2h ⇒ 2B×` |
//! | Ratio = augmentation | `k = 2h ⇒ 2×` | `k ≈ √B·h ⇒ √B×` | `k ≈ √(2B)·h ⇒ √(2B)×` |
//! | Constant ratio | `k = 2h ⇒ 2×` | `k ≈ Bh ⇒ 2×` | `k ≈ Bh ⇒ 3×` |
//!
//! [`table1`] evaluates each cell numerically from the closed forms (the
//! "ratio = augmentation" rows solve for the crossing by bisection), so
//! the tests can assert the paper's approximations are faithful.

use crate::competitive::{gc_lower_bound, sleator_tarjan};
use crate::iblp::iblp_optimal_split;

/// One row of Table 1 for one bound family.
#[derive(Clone, Debug)]
pub struct Table1Cell {
    /// Augmentation factor `k/h` at the row's operating point.
    pub augmentation: f64,
    /// Competitive ratio at that point.
    pub ratio: f64,
}

/// All nine cells of Table 1, evaluated at offline size `h`, block size `B`.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Block size used.
    pub block_size: usize,
    /// Offline cache size used.
    pub h: usize,
    /// Row 1: constant augmentation (`k = 2h`).
    pub constant_augmentation: [Table1Cell; 3],
    /// Row 2: the point where ratio equals augmentation.
    pub ratio_equals_augmentation: [Table1Cell; 3],
    /// Row 3: the augmentation needed for a constant (2–3×) ratio.
    pub constant_ratio: [Table1Cell; 3],
}

fn crossing(h: usize, mut ratio_at: impl FnMut(usize) -> Option<f64>) -> Table1Cell {
    // Find k where ratio(k) = k/h by bisection; the ratio is decreasing in
    // k while k/h increases, so the crossing is unique.
    let (mut lo, mut hi) = (h + 1, h.saturating_mul(10_000));
    for _ in 0..200 {
        let mid = lo + (hi - lo) / 2;
        let aug = mid as f64 / h as f64;
        match ratio_at(mid) {
            Some(r) if r > aug => lo = mid + 1,
            _ => hi = mid,
        }
    }
    let k = lo;
    Table1Cell {
        augmentation: k as f64 / h as f64,
        ratio: ratio_at(k).unwrap_or(f64::NAN),
    }
}

fn ratio_target(
    h: usize,
    target: f64,
    mut ratio_at: impl FnMut(usize) -> Option<f64>,
) -> Table1Cell {
    // Find the smallest k with ratio(k) ≤ target (ratio decreasing in k).
    let (mut lo, mut hi) = (h + 1, h.saturating_mul(10_000));
    for _ in 0..200 {
        let mid = lo + (hi - lo) / 2;
        match ratio_at(mid) {
            Some(r) if r > target => lo = mid + 1,
            _ => hi = mid,
        }
    }
    let k = lo;
    Table1Cell {
        augmentation: k as f64 / h as f64,
        ratio: ratio_at(k).unwrap_or(f64::NAN),
    }
}

/// Evaluate Table 1 at offline size `h` (use a large `h`, e.g. `2¹⁴`, so
/// the `+1`/`−1` terms vanish and the asymptotic approximations emerge).
pub fn table1(h: usize, block_size: usize) -> Table1 {
    let st = |k: usize| sleator_tarjan(k, h);
    let lower = |k: usize| gc_lower_bound(k, h, block_size);
    let upper = |k: usize| iblp_optimal_split(k, h, block_size).map(|(_, r)| r);

    let at = |k: usize, f: &dyn Fn(usize) -> Option<f64>| Table1Cell {
        augmentation: k as f64 / h as f64,
        ratio: f(k).unwrap_or(f64::NAN),
    };

    Table1 {
        block_size,
        h,
        constant_augmentation: [at(2 * h, &st), at(2 * h, &lower), at(2 * h, &upper)],
        ratio_equals_augmentation: [crossing(h, st), crossing(h, lower), crossing(h, upper)],
        constant_ratio: [
            ratio_target(h, 2.0, st),
            ratio_target(h, 2.0, lower),
            ratio_target(h, 3.0, upper),
        ],
    }
}

/// Render the table as aligned text mirroring the paper's layout.
pub fn render(t: &Table1) -> String {
    let fmt_cell = |c: &Table1Cell| format!("k≈{:.2}h ⇒ {:.2}×", c.augmentation, c.ratio);
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1 (B = {}, h = {}):\n{:<26} {:<24} {:<24} {:<24}\n",
        t.block_size, t.h, "Setting", "Sleator-Tarjan", "GC Lower Bound", "GC Upper Bound"
    ));
    let rows = [
        ("Constant augmentation", &t.constant_augmentation),
        ("Ratio = augmentation", &t.ratio_equals_augmentation),
        ("Constant ratio", &t.constant_ratio),
    ];
    for (label, cells) in rows {
        out.push_str(&format!(
            "{:<26} {:<24} {:<24} {:<24}\n",
            label,
            fmt_cell(&cells[0]),
            fmt_cell(&cells[1]),
            fmt_cell(&cells[2])
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: usize = 1 << 14;
    const B: usize = 64;

    #[test]
    fn row1_constant_augmentation() {
        let t = table1(H, B);
        let [st, lb, ub] = &t.constant_augmentation;
        assert!((st.ratio - 2.0).abs() < 0.01, "ST at 2h: {}", st.ratio);
        assert!(
            (lb.ratio / B as f64 - 1.0).abs() < 0.1,
            "LB at 2h ≈ B: {}",
            lb.ratio
        );
        assert!(
            (ub.ratio / (2 * B) as f64 - 1.0).abs() < 0.15,
            "UB at 2h ≈ 2B: {}",
            ub.ratio
        );
    }

    #[test]
    fn row2_meeting_points() {
        let t = table1(H, B);
        let [st, lb, ub] = &t.ratio_equals_augmentation;
        assert!((st.augmentation - 2.0).abs() < 0.01, "{}", st.augmentation);
        // LB crossing at ≈ √B = 8.
        assert!(
            (lb.augmentation / (B as f64).sqrt() - 1.0).abs() < 0.15,
            "LB crossing {}",
            lb.augmentation
        );
        // UB crossing at ≈ √(2B) ≈ 11.3.
        assert!(
            (ub.augmentation / (2.0 * B as f64).sqrt() - 1.0).abs() < 0.15,
            "UB crossing {}",
            ub.augmentation
        );
        // At the crossing, ratio ≈ augmentation by construction.
        for cell in [st, lb, ub] {
            assert!(
                (cell.ratio / cell.augmentation - 1.0).abs() < 0.02,
                "{cell:?}"
            );
        }
    }

    #[test]
    fn row3_constant_ratio() {
        let t = table1(H, B);
        let [st, lb, ub] = &t.constant_ratio;
        assert!((st.augmentation - 2.0).abs() < 0.01);
        // LB reaches ratio 2 at k ≈ Bh.
        assert!(
            (lb.augmentation / B as f64 - 1.0).abs() < 0.1,
            "LB at ratio 2: k ≈ {}h",
            lb.augmentation
        );
        // UB reaches ratio 3 at k ≈ Bh.
        assert!(
            (ub.augmentation / B as f64 - 1.0).abs() < 0.35,
            "UB at ratio 3: k ≈ {}h",
            ub.augmentation
        );
    }

    #[test]
    fn penalty_product_is_theta_b() {
        // Table 1's headline: GC adds Θ(B) to ratio × augmentation.
        let t = table1(H, B);
        for cells in [
            &t.constant_augmentation,
            &t.ratio_equals_augmentation,
            &t.constant_ratio,
        ] {
            let st = cells[0].ratio * cells[0].augmentation;
            let lb = cells[1].ratio * cells[1].augmentation;
            let penalty = lb / st;
            assert!(
                penalty > B as f64 / 4.0 && penalty < 4.0 * B as f64,
                "penalty {penalty} not Θ(B)"
            );
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render(&table1(H, B));
        assert!(text.contains("Constant augmentation"));
        assert!(text.contains("Ratio = augmentation"));
        assert!(text.contains("Constant ratio"));
        assert_eq!(text.lines().count(), 5);
    }
}
