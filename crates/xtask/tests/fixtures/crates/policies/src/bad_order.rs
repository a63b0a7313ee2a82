use std::collections::BTreeSet;

// lint: hot-path
fn evict(order: &mut BTreeSet<(u64, u64)>) -> Option<(u64, u64)> {
    order.pop_first()
}
