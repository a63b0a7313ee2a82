//! §6 on randomized policies, measured on the marking family.
//!
//! §6.1: plain marking (no co-loads) pays `B×` on streaming, and marking
//! every co-loaded item pollutes a sparse working set; GCM (co-load
//! unmarked) avoids both. §6.2: which member of the family looks best
//! *flips* with the offline comparison regime, so randomization does not
//! remove the dependence on `h`.

use gc_cache::gc_offline::gc_belady_heuristic;
use gc_cache::gc_sim::simulate_with_warmup;
use gc_cache::prelude::*;

const K: usize = 256;
const B: usize = 16;

/// A member of the marking family: co-load `coload` items per miss, and
/// mark them or not.
#[derive(Clone, Copy)]
struct Member {
    coload: usize,
    mark: bool,
}

const CLASSIC: Member = Member {
    coload: 0,
    mark: false,
};
const GCM: Member = Member {
    coload: B - 1,
    mark: false,
};
const MARK_ALL: Member = Member {
    coload: B - 1,
    mark: true,
};

/// Measured misses over the offline block-Belady cost at size `h`.
fn ratio(member: Member, trace: &Trace, h: usize, warmup: usize) -> f64 {
    let map = BlockMap::strided(B);
    let mut policy = Gcm::with_options(K, map.clone(), 0xCAFE, member.coload, member.mark);
    let online = simulate_with_warmup(&mut policy, trace, warmup).misses;
    let offline = gc_belady_heuristic(trace, &map, h).max(1);
    online as f64 / offline as f64
}

/// The spatial regime: 3000 fresh blocks streamed once, against `h = 32`.
fn streaming(member: Member) -> f64 {
    ratio(member, &Trace::from_ids(0..(3000 * B as u64)), 32, 0)
}

/// The temporal regime: a cycle over 240 single-item blocks, which fits
/// the cache only if no marked co-loads accumulate, against `h = 240`.
fn sparse(member: Member) -> f64 {
    let items: Vec<u64> = (0..240u64).map(|i| 1_000_000 + i * B as u64).collect();
    let trace = Trace::from_ids(items.iter().cycle().copied().take(80_000));
    ratio(member, &trace, 240, 2 * K)
}

/// Prints the measured table (`-- --nocapture` shows it), then asserts
/// the two claims on it.
#[test]
fn section_6_2_flip_with_gcm_near_the_winner() {
    println!(
        "{:<16} {:>18} {:>16}",
        "policy", "streaming vs h=32", "sparse vs h=240"
    );
    let members = [
        ("classic marking", CLASSIC),
        ("GCM", GCM),
        ("mark-all", MARK_ALL),
    ];
    let [classic, gcm, mark_all] = members.map(|(label, member)| {
        let (s, t) = (streaming(member), sparse(member));
        println!("{label:<16} {s:>18.3} {t:>16.3}");
        (s, t)
    });
    // §6.2: the ranking of the family's two extremes flips with the regime.
    assert!(
        mark_all.0 < classic.0,
        "streaming: mark-all {:.3} must beat classic marking {:.3}",
        mark_all.0,
        classic.0
    );
    assert!(
        classic.1 < mark_all.1,
        "sparse: classic marking {:.3} must beat mark-all {:.3}",
        classic.1,
        mark_all.1
    );
    // §6.1: GCM stays near the winner in both regimes.
    assert!(
        gcm.0 <= 1.1 * mark_all.0.max(1.0),
        "streaming: GCM {:.3} vs winner mark-all {:.3}",
        gcm.0,
        mark_all.0
    );
    assert!(
        gcm.1 <= classic.1 + 0.5,
        "sparse: GCM {:.3} vs winner classic marking {:.3}",
        gcm.1,
        classic.1
    );
}
