//! `store`: populate (or extend) a persistent disk block store.

use super::{invalid, Failure};
use crate::args::Args;
use gc_cache::gc_runtime::{BlockStore, DiskBackend};
use gc_cache::prelude::*;
use std::io::Write;

pub const USAGE: &str = "\
populate (or extend) a persistent disk block store
--path <file> [--blocks N] [--block-size B] [--sync-every K]
appends missing blocks, fsyncs every K, prints an acked
line per durable batch (crash-safe: a kill mid-run never
loses acked blocks)";

/// Fsyncs every `--sync-every` blocks and prints an `acked <last_block>`
/// line per durable batch. Crash-safety harnesses kill this process
/// mid-run and assert every acked block survives bit-identically.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let Some(path) = args.get_str("path") else {
        return Err(invalid(
            "--path is required (segment file to populate)".into(),
        ));
    };
    let block_size: usize = args.get_or("block-size", 16usize)?;
    let blocks: u64 = args.get_or("blocks", 1024u64)?;
    let sync_every: u64 = args.get_or("sync-every", 64u64)?;
    args.finish()?;
    if block_size == 0 {
        return Err(invalid("--block-size must be >= 1".into()));
    }
    if blocks == 0 {
        return Err(invalid("--blocks must be >= 1".into()));
    }
    if sync_every == 0 {
        return Err(invalid(
            "--sync-every must be >= 1 (it is the fsync cadence in blocks)".into(),
        ));
    }

    let store = DiskBackend::open(path, BlockMap::strided(block_size)).map_err(|e| match e {
        GcError::InvalidParameter(msg) => invalid(format!("--path: {msg}")),
        e @ GcError::Io { .. } => invalid(format!("--path: {e}")),
        e => e.to_string().into(),
    })?;
    let already = store.stored_blocks();
    let mut appended = 0usize;
    let mut start = 0u64;
    while start < blocks {
        let end = (start + sync_every).min(blocks);
        appended += store
            .populate((start..end).map(BlockId))
            .map_err(|e| e.to_string())?;
        store.sync().map_err(|e| e.to_string())?;
        // The ack line is the durability contract: by the time it is
        // visible, every block up to `end - 1` has been fsynced.
        writeln!(out, "acked {}", end - 1)?;
        out.flush()?;
        start = end;
    }
    writeln!(
        out,
        "store {path}: {} blocks held ({already} pre-existing, {appended} appended)",
        store.stored_blocks()
    )?;
    Ok(())
}
