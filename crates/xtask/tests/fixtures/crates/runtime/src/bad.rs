use std::sync::Arc;
use std::sync::Mutex;

fn risky(x: Option<u8>) -> u8 {
    x.unwrap()
}

fn waived(x: Option<u8>) -> u8 {
    // lint: allow(panic): fixture — demonstrates a valid waiver.
    x.unwrap()
}

// lint: hot-path
fn hot() -> String {
    let t = std::time::Instant::now();
    format!("{t:?}")
}
