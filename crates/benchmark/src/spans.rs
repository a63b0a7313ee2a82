//! The traced run: spans recorded from the benchmark's own files, around
//! the calls into each layer.
//!
//! A driver thread that called [`start_thread`] records into a
//! preallocated thread-local buffer — no lock, no allocation per span. A
//! *scope* span ([`open`]/[`close`]) wraps one caller-visible request (or a
//! window of them on the workloads too fast to time singly); a *leaf* span
//! ([`leaf`]) is recorded by [`TracingBackend`] around each wrapped block
//! load made inside an open scope, and takes that scope as parent. A
//! layer's self time is then its span minus the part its children cover.
//! Buffers are handed back by [`finish_thread`] and written as JSONL when
//! the run ends. End-to-end numbers are never taken with any of this on.

use gc_cache::gc_runtime::BlockBackend;
use gc_cache::gc_types::{BlockId, GcError, ItemId, TierStats};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 4] = ["request", "backend.load", "window", "cell"];
/// One caller-visible request (a `get`, or one session batch flush).
pub const REQUEST: u8 = 0;
/// One wrapped `load_block`/`load_block_into` call.
pub const BACKEND_LOAD: u8 = 1;
/// A window of requests on a workload too fast to span singly.
pub const WINDOW: u8 = 2;
/// One `(policy, trace)` simulation cell.
pub const CELL: u8 = 3;

/// One recorded span. `parent` is the 1-based index of the enclosing span
/// in the same thread's buffer (0 = none); `req` ties the spans of one
/// request together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u8,
    /// Start, nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process-wide epoch.
    pub end_ns: u64,
    /// 1-based index of the parent in the same buffer; 0 for a root.
    pub parent: u32,
    /// Request (or window) sequence number on this thread.
    pub req: u64,
}

/// What one thread recorded.
#[derive(Clone, Debug, Default)]
pub struct ThreadSpans {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

struct Local {
    spans: Vec<Span>,
    /// 1-based index of the open scope span; 0 when none.
    open: u32,
    dropped: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Start recording on the calling thread into a buffer of `capacity`
/// spans, allocated here so that recording never allocates.
pub fn start_thread(capacity: usize) {
    epoch();
    LOCAL.with(|l| {
        *l.borrow_mut() = Some(Local {
            spans: Vec::with_capacity(capacity),
            open: 0,
            dropped: 0,
        })
    });
}

/// Stop recording on the calling thread and take what it recorded.
pub fn finish_thread() -> ThreadSpans {
    LOCAL.with(|l| match l.borrow_mut().take() {
        Some(local) => ThreadSpans {
            spans: local.spans,
            dropped: local.dropped,
        },
        None => ThreadSpans::default(),
    })
}

/// Open a scope span starting now. Returns whether it was recorded; a
/// full buffer or a thread that is not recording makes this a no-op.
#[inline]
pub fn open(name: u8, req: u64) -> bool {
    open_at(name, req, now_ns())
}

/// [`open`] with a start the caller has already read off [`now_ns`], so a
/// caller that times the same interval anyway reads the clock once.
#[inline]
pub fn open_at(name: u8, req: u64, start_ns: u64) -> bool {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(local) = l.as_mut() else {
            return false;
        };
        if local.spans.len() == local.spans.capacity() {
            local.dropped += 1;
            local.open = 0;
            return false;
        }
        local.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: 0,
            req,
        });
        local.open = local.spans.len() as u32;
        true
    })
}

/// Close the scope span opened last on this thread, ending it now.
#[inline]
pub fn close() {
    close_at(now_ns());
}

/// [`close`] with an end the caller has already read off [`now_ns`].
#[inline]
pub fn close_at(end_ns: u64) {
    LOCAL.with(|l| {
        if let Some(local) = l.borrow_mut().as_mut() {
            if local.open != 0 {
                local.spans[local.open as usize - 1].end_ns = end_ns;
                local.open = 0;
            }
        }
    });
}

/// Whether the calling thread is recording and has a scope open.
#[inline]
pub fn in_scope() -> bool {
    LOCAL.with(|l| l.borrow().as_ref().is_some_and(|local| local.open != 0))
}

/// Record a finished leaf span as a child of the open scope, if any.
#[inline]
pub fn leaf(name: u8, start_ns: u64, end_ns: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(local) = l.as_mut() else { return };
        if local.spans.len() == local.spans.capacity() {
            local.dropped += 1;
            return;
        }
        let (parent, req) = match local.open {
            0 => (0, 0),
            p => (p, local.spans[p as usize - 1].req),
        };
        local.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    });
}

/// A [`BlockBackend`] wrapper that records a `backend.load` span around
/// every load it forwards from inside an open scope; outside one it only
/// forwards, so a pass that traces one request in N pays the clock for
/// that one. Only traced passes wrap their backend in it.
pub struct TracingBackend {
    inner: Arc<dyn BlockBackend>,
}

impl TracingBackend {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn BlockBackend>) -> Self {
        TracingBackend { inner }
    }
}

impl BlockBackend for TracingBackend {
    fn load_block(&self, block: BlockId) -> Result<Vec<ItemId>, GcError> {
        if !in_scope() {
            return self.inner.load_block(block);
        }
        let t0 = now_ns();
        let out = self.inner.load_block(block);
        leaf(BACKEND_LOAD, t0, now_ns());
        out
    }

    fn load_block_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<(), GcError> {
        if !in_scope() {
            return self.inner.load_block_into(block, out);
        }
        let t0 = now_ns();
        let r = self.inner.load_block_into(block, out);
        leaf(BACKEND_LOAD, t0, now_ns());
        r
    }

    fn tier_snapshot(&self) -> Vec<TierStats> {
        self.inner.tier_snapshot()
    }
}

/// Totals derived from recorded spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Scope spans (requests, windows or cells).
    pub scopes: u64,
    /// Summed scope durations, ns.
    pub scope_ns: u64,
    /// Summed durations of leaf spans that have a scope parent, ns.
    pub child_ns: u64,
    /// Durations of every `backend.load` span, ascending, ns.
    pub load_ns: Vec<u64>,
    /// Spans recorded, all kinds.
    pub recorded: u64,
    /// Spans dropped for lack of buffer space.
    pub dropped: u64,
}

impl SpanTotals {
    /// Scope time not covered by child spans: the self time of the layers
    /// between the caller and the backend, ns.
    pub fn self_ns(&self) -> u64 {
        self.scope_ns.saturating_sub(self.child_ns)
    }
}

/// Fold every thread's spans into [`SpanTotals`].
pub fn totals(threads: &[ThreadSpans]) -> SpanTotals {
    let mut t = SpanTotals::default();
    for th in threads {
        t.dropped += th.dropped;
        t.recorded += th.spans.len() as u64;
        for s in &th.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.name == BACKEND_LOAD {
                t.load_ns.push(dur);
                if s.parent != 0 {
                    t.child_ns += dur;
                }
            } else {
                t.scopes += 1;
                t.scope_ns += dur;
            }
        }
    }
    t.load_ns.sort_unstable();
    t
}

/// Write spans as JSONL: one object per span with the keys `name`,
/// `start_ns`, `end_ns`, `parent`, `req`, plus `thread` and `id` (which
/// `parent` refers to; `null` for a root).
pub fn write_jsonl(path: &Path, threads: &[ThreadSpans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (tid, th) in threads.iter().enumerate() {
        for (i, s) in th.spans.iter().enumerate() {
            let parent = match s.parent {
                0 => "null".to_string(),
                p => (p - 1).to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"thread\":{},\"id\":{}}}",
                NAMES[s.name as usize], s.start_ns, s.end_ns, parent, s.req, tid, i
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_cache::gc_runtime::SyntheticBackend;
    use gc_cache::gc_types::BlockMap;

    #[test]
    fn leaf_spans_take_the_open_scope_as_parent() {
        std::thread::spawn(|| {
            let backend =
                TracingBackend::new(Arc::new(SyntheticBackend::new(BlockMap::strided(4))));
            // Not recording yet: wrapped loads work and record nothing.
            backend.load_block(BlockId(0)).unwrap();
            start_thread(16);
            assert!(open(REQUEST, 7));
            backend.load_block(BlockId(1)).unwrap();
            let mut buf = Vec::new();
            backend.load_block_into(BlockId(2), &mut buf).unwrap();
            close();
            backend.load_block(BlockId(3)).unwrap(); // outside any scope: not recorded
            leaf(BACKEND_LOAD, 5, 6); // a leaf given directly is a root
            let th = finish_thread();
            assert_eq!(th.spans.len(), 4);
            assert_eq!(
                (th.spans[0].name, th.spans[0].parent, th.spans[0].req),
                (REQUEST, 0, 7)
            );
            assert_eq!(
                (th.spans[1].name, th.spans[1].parent, th.spans[1].req),
                (BACKEND_LOAD, 1, 7)
            );
            assert_eq!(th.spans[2].parent, 1);
            assert_eq!(th.spans[3].parent, 0);
            assert!(th.spans[0].start_ns <= th.spans[1].start_ns);
            assert!(th.spans[2].end_ns <= th.spans[0].end_ns);

            let t = totals(&[th]);
            assert_eq!((t.scopes, t.load_ns.len(), t.dropped), (1, 3, 0));
            assert!(t.child_ns <= t.scope_ns);
            assert_eq!(t.self_ns(), t.scope_ns - t.child_ns);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        std::thread::spawn(|| {
            start_thread(2);
            assert!(open(WINDOW, 0));
            leaf(BACKEND_LOAD, 1, 2);
            close();
            assert!(!open(WINDOW, 1));
            leaf(BACKEND_LOAD, 3, 4);
            close();
            let th = finish_thread();
            assert_eq!(th.spans.len(), 2);
            assert_eq!(th.dropped, 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_the_span_keys() {
        let th = ThreadSpans {
            spans: vec![
                Span {
                    name: REQUEST,
                    start_ns: 10,
                    end_ns: 50,
                    parent: 0,
                    req: 3,
                },
                Span {
                    name: BACKEND_LOAD,
                    start_ns: 20,
                    end_ns: 40,
                    parent: 1,
                    req: 3,
                },
            ],
            dropped: 0,
        };
        let dir = std::env::temp_dir().join(format!("gcbench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.jsonl");
        write_jsonl(&path, &[th]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = crate::json::parse(lines[1]).unwrap();
        assert_eq!(child.get("name").unwrap().as_str(), Some("backend.load"));
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child.get("req").unwrap().as_f64(), Some(3.0));
        let root = crate::json::parse(lines[0]).unwrap();
        assert_eq!(root.get("parent"), Some(&crate::json::Value::Null));
        for key in ["name", "start_ns", "end_ns", "parent", "req"] {
            assert!(root.get(key).is_some(), "{key}");
        }
    }
}
