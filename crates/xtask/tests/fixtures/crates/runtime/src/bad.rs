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

// lint: hot-path
fn shared(v: Vec<u8>) -> (Arc<Vec<u8>>, std::rc::Rc<u8>) {
    let a = Arc::new(v);
    (a, std::rc::Rc::new(7))
}
