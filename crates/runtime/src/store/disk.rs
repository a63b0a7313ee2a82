//! A persistent, crash-safe, single-file block store.
//!
//! # On-disk format
//!
//! One append-friendly segment file:
//!
//! ```text
//! [ magic: 8 bytes = "GCSTORE1" ]
//! [ record ]*
//!
//! record := block_id: u64 LE
//!           n_items:  u32 LE
//!           checksum: u64 LE      (FNV-1a over block_id, n_items, items)
//!           items:    n_items × u64 LE
//! ```
//!
//! Records are append-only; re-storing a block appends a new record and
//! the in-memory index keeps the **last** one (recovery replays the log in
//! order, so last-wins survives restarts). The checksum is 64-bit FNV-1a,
//! hand-rolled and frozen here because `std::hash` promises no stability
//! across runs or platforms, and a store file must outlive both.
//!
//! # Crash safety
//!
//! - **Creation is atomic**: [`DiskBackend::create_with`] writes the
//!   header and every record to a `.tmp` sibling, fsyncs, then renames
//!   into place — a kill during bulk population can never leave a
//!   half-built store under the real path.
//! - **Appends are checksummed**: a kill mid-append leaves a torn record
//!   at the tail. [`DiskBackend::open`] scans the log, validates every
//!   record's bounds and checksum, and truncates the file at the first
//!   invalid byte — everything before the torn tail (in particular every
//!   record acknowledged by [`sync`](DiskBackend::sync)) reads back
//!   bit-identical.
//! - **Appends are group-committed**: a record is encoded into a pending
//!   group held in the process, and the group reaches the file with one
//!   positioned write once it would pass `GROUP_BYTES` (256 KiB), in
//!   [`sync`](DiskBackend::sync), or when the store is dropped. The file
//!   then holds exactly the bytes one write per record would have left.
//! - **Durability is explicit**: [`sync`](DiskBackend::sync) writes the
//!   pending group and fsyncs; records stored before it are acknowledged
//!   when it returns `Ok`. Unacknowledged records may be lost — a SIGKILL
//!   loses the pending group (up to `GROUP_BYTES` of appends the OS page
//!   cache used to keep), power loss anything not fsynced. They are a
//!   cache's contents and re-derivable, and never *torn into*
//!   acknowledged ones, because recovery cuts at record granularity.
//!
//! # Concurrency
//!
//! Every read takes the state lock for the segment lookup only. A record
//! still in the pending group is copied out under the lock. A record that
//! [`open`](DiskBackend::open) recovered is decoded straight from a
//! read-only shared map of the recovered prefix, which the store keeps for
//! its lifetime: no syscall, and nothing in the mapped bytes can change,
//! since appends only ever land past it. Records written since open are
//! read positionally (`pread`) against the shared file handle, as are
//! recovered ones on targets without the map (anything but 64-bit unix)
//! or where `mmap` failed. Concurrent leaders for different blocks
//! therefore read in parallel. Appends and group writes serialize on the
//! state lock (index, group and file offset move together).
//!
//! # One opener per file
//!
//! A file is served by at most one open `DiskBackend` at a time. A second
//! `open` of the same path recovers and may truncate the file; if it cut a
//! corrupt tail inside the prefix the first store mapped, the first
//! store's next read of a cut record would fault (`SIGBUS`) instead of
//! returning an error. Drop a store before reopening its path.

use super::BlockStore;
use crate::backend::{materialize_block, BlockBackend};
use crate::sync::Mutex;
use gc_types::{BlockId, BlockMap, FxHashMap, GcError, ItemId};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a gc block-store segment file, version 1.
const MAGIC: &[u8; 8] = b"GCSTORE1";
/// Fixed-size record prologue: block id (8) + item count (4) + checksum (8).
const RECORD_HEADER: usize = 20;
/// Upper bound on items per record, so a corrupt length field cannot make
/// recovery (or a read) allocate gigabytes. Far above any real block size.
const MAX_BLOCK_ITEMS: u32 = 1 << 24;
/// Encoded records are held until the next one would take the pending
/// group past this many bytes; then the group goes out in one write.
const GROUP_BYTES: usize = 256 << 10;
/// A record written since open is read through a stack buffer of this
/// many bytes.
const READ_CHUNK: usize = 4096;

/// Where a block's payload lives in the segment file.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Byte offset of the items payload (past the record header).
    payload: u64,
    /// Number of items in the payload.
    n_items: u32,
}

/// Index, pending group and file offset; guarded together so the index
/// never points at bytes that are neither in the file nor pending.
struct DiskState {
    index: FxHashMap<u64, Segment>,
    /// File offset the pending group starts at: every byte before it has
    /// been handed to the OS.
    written: u64,
    /// Encoded records not yet written, in append order.
    pending: Vec<u8>,
}

/// A persistent disk-backed [`BlockBackend`]: see the module docs for the
/// format and crash-safety contract.
///
/// Blocks absent from the store are materialized from the block map
/// (identically to [`SyntheticBackend`](crate::SyntheticBackend)),
/// appended, and served — so a cold store self-populates, and a
/// prepopulated one serves pure reads.
pub struct DiskBackend {
    map: BlockMap,
    file: File,
    state: Mutex<DiskState>,
    /// The prefix `open` recovered, mapped read-only; `None` when it held
    /// no record, on targets without `mmap`, or when mapping failed.
    recovered: Option<mapped::Mapping>,
    path: PathBuf,
}

/// 64-bit FNV-1a over the bytes written to it: the record checksum.
/// Frozen, since every stored file depends on it.
struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// The FNV-1a offset basis.
    fn new() -> Self {
        StableHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u64`, little-endian.
    fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a checksum of one record's integrity-relevant bytes: block id,
/// item count (widened to `u64`) and items.
fn record_checksum(block: u64, items: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(block);
    h.write_u64((items.len() / 8) as u64);
    h.write_bytes(items);
    h.finish()
}

/// Refuse a block whose record `recover` would read as a torn tail:
/// reopening would cut it and every later record, acknowledged or not.
fn check_record(block: BlockId, items: &[ItemId]) -> Result<(), GcError> {
    if items.is_empty() || items.len() > MAX_BLOCK_ITEMS as usize {
        return Err(GcError::InvalidParameter(format!(
            "block {} has {} items; a stored block holds 1 to {MAX_BLOCK_ITEMS}",
            block.0,
            items.len()
        )));
    }
    Ok(())
}

/// Append one record to `buf`. The checksum is computed over the payload
/// bytes where they land and patched into the header.
// lint: hot-path
fn encode_record(buf: &mut Vec<u8>, block: u64, items: &[ItemId]) {
    let start = buf.len();
    buf.reserve(RECORD_HEADER + items.len() * 8);
    buf.extend_from_slice(&block.to_le_bytes());
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0; 8]);
    for item in items {
        buf.extend_from_slice(&item.0.to_le_bytes());
    }
    let checksum = record_checksum(block, &buf[start + RECORD_HEADER..]);
    buf[start + 12..start + RECORD_HEADER].copy_from_slice(&checksum.to_le_bytes());
}

/// Append the items encoded in `bytes` (whole little-endian `u64`s) to `out`.
// lint: hot-path
fn decode_items(bytes: &[u8], out: &mut Vec<ItemId>) {
    out.extend(bytes.chunks_exact(8).map(|chunk| {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        ItemId(u64::from_le_bytes(word))
    }));
}

fn io_err(path: &Path, e: std::io::Error) -> GcError {
    GcError::Io {
        kind: e.kind(),
        message: format!("{}: {e}", path.display()),
    }
}

impl DiskBackend {
    /// Open (or create) the store at `path`, recovering the index by
    /// scanning the log and truncating any torn tail. Blocks not yet
    /// stored will be materialized from `map` on first load.
    ///
    /// # Errors
    ///
    /// [`GcError::InvalidParameter`] when `path` exists but is not a
    /// gc-store file (bad magic); [`GcError::Io`] for filesystem failures
    /// (nonexistent parent directory, readonly file or directory, ...).
    pub fn open(path: impl AsRef<Path>, map: BlockMap) -> Result<DiskBackend, GcError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let (index, written) = recover(&mut file, &path)?;
        // Every byte before `written` was validated and is never written
        // again: appends start at `written`.
        let recovered = if index.is_empty() {
            None
        } else {
            mapped::Mapping::of(&file, written)
        };
        Ok(DiskBackend {
            map,
            file,
            state: Mutex::new(DiskState {
                index,
                written,
                pending: Vec::new(),
            }),
            recovered,
            path,
        })
    }

    /// Build a fresh store at `path` holding exactly `blocks` (materialized
    /// from `map`), atomically: the whole store is written to a `.tmp`
    /// sibling, fsynced, and renamed into place. A kill at any point leaves
    /// either no store or the complete one — never a partial file under
    /// `path`.
    pub fn create_with<I>(
        path: impl AsRef<Path>,
        map: BlockMap,
        blocks: I,
    ) -> Result<DiskBackend, GcError>
    where
        I: IntoIterator<Item = BlockId>,
    {
        let path = path.as_ref().to_path_buf();
        let tmp = path.with_extension("tmp");
        {
            let mut out = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            let mut items: Vec<ItemId> = Vec::new();
            let mut group: Vec<u8> = MAGIC.to_vec();
            for block in blocks {
                materialize_block(&map, block, &mut items)?;
                check_record(block, &items)?;
                encode_record(&mut group, block.0, &items);
                if group.len() >= GROUP_BYTES {
                    out.write_all(&group).map_err(|e| io_err(&tmp, e))?;
                    group.clear();
                }
            }
            out.write_all(&group).map_err(|e| io_err(&tmp, e))?;
            out.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        DiskBackend::open(&path, map)
    }

    /// Append every block of `blocks` that the store does not already
    /// hold. Returns how many records were appended. Call
    /// [`sync`](Self::sync) afterwards to make them durable.
    pub fn populate<I>(&self, blocks: I) -> Result<usize, GcError>
    where
        I: IntoIterator<Item = BlockId>,
    {
        let mut items: Vec<ItemId> = Vec::new();
        let mut appended = 0usize;
        for block in blocks {
            if self.contains_block(block) {
                continue;
            }
            materialize_block(&self.map, block, &mut items)?;
            self.store_block(block, &items)?;
            appended += 1;
        }
        Ok(appended)
    }

    /// Write the pending group and flush every appended record to stable
    /// storage (fsync). This is the durability acknowledgement point:
    /// records stored before a `sync` that returned `Ok` survive a crash
    /// bit-identically.
    pub fn sync(&self) -> Result<(), GcError> {
        self.write_pending(&mut self.state.lock())?;
        self.file.sync_all().map_err(|e| io_err(&self.path, e))
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Hand the pending group to the OS with one positioned write at its
    /// file offset. On failure the group stays pending, and readable, and
    /// the next attempt rewrites all of it at the same offset.
    fn write_pending(&self, state: &mut DiskState) -> Result<(), GcError> {
        if state.pending.is_empty() {
            return Ok(());
        }
        #[cfg(unix)]
        std::os::unix::fs::FileExt::write_all_at(&self.file, &state.pending, state.written)
            .map_err(|e| io_err(&self.path, e))?;
        #[cfg(not(unix))]
        {
            // The caller holds the state lock, as the seek+read fallback
            // below requires of every cursor user.
            use std::io::{Seek, SeekFrom};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(state.written))
                .and_then(|_| f.write_all(&state.pending))
                .map_err(|e| io_err(&self.path, e))?;
        }
        state.written += state.pending.len() as u64;
        state.pending.clear();
        Ok(())
    }

    /// Positional read of `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), GcError> {
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
                .map_err(|e| io_err(&self.path, e))
        }
        #[cfg(not(unix))]
        {
            // No pread: serialize on the state lock and seek. Reads and
            // group writes share the cursor, so both sides must hold the
            // lock for their whole seek+IO sequence (group writes do).
            use std::io::{Seek, SeekFrom};
            let _guard = self.state.lock();
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(buf))
                .map_err(|e| io_err(&self.path, e))
        }
    }
}

/// Scan the log from the header on, validating record bounds and
/// checksums; returns the rebuilt index and the offset of the first
/// invalid byte (the recovered tail). Truncates the file there if any
/// torn/corrupt suffix was found, and rewrites the header of an empty or
/// sub-header-length file.
fn recover(file: &mut File, path: &Path) -> Result<(FxHashMap<u64, Segment>, u64), GcError> {
    let len = file.metadata().map_err(|e| io_err(path, e))?.len();
    if len < MAGIC.len() as u64 {
        // Nothing durable yet (fresh file, or a kill before the header
        // landed): initialize in place.
        file.set_len(0).map_err(|e| io_err(path, e))?;
        file.write_all(MAGIC).map_err(|e| io_err(path, e))?;
        file.sync_all().map_err(|e| io_err(path, e))?;
        return Ok((FxHashMap::default(), MAGIC.len() as u64));
    }

    let mut reader = std::io::BufReader::new(&*file);
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic).map_err(|e| io_err(path, e))?;
    if &magic != MAGIC {
        return Err(GcError::InvalidParameter(format!(
            "{} is not a gc block-store file (bad magic)",
            path.display()
        )));
    }

    let mut index = FxHashMap::default();
    let mut pos = MAGIC.len() as u64;
    let mut header = [0u8; RECORD_HEADER];
    let mut payload: Vec<u8> = Vec::new();
    loop {
        if pos + RECORD_HEADER as u64 > len {
            break; // torn record header (or clean EOF when pos == len)
        }
        reader
            .read_exact(&mut header)
            .map_err(|e| io_err(path, e))?;
        let block = u64::from_le_bytes(header[0..8].try_into().unwrap_or_default());
        let n_items = u32::from_le_bytes(header[8..12].try_into().unwrap_or_default());
        let checksum = u64::from_le_bytes(header[12..20].try_into().unwrap_or_default());
        let payload_len = n_items as u64 * 8;
        if n_items == 0
            || n_items > MAX_BLOCK_ITEMS
            || pos + RECORD_HEADER as u64 + payload_len > len
        {
            break; // implausible length or payload runs past EOF: torn
        }
        payload.resize(payload_len as usize, 0);
        reader
            .read_exact(&mut payload)
            .map_err(|e| io_err(path, e))?;
        if record_checksum(block, &payload) != checksum {
            break; // bit rot or a torn overwrite: cut here
        }
        let payload_at = pos + RECORD_HEADER as u64;
        index.insert(
            block,
            Segment {
                payload: payload_at,
                n_items,
            },
        );
        pos = payload_at + payload_len;
    }
    drop(reader);
    if pos < len {
        // Discard the torn tail so the next append starts on a clean
        // record boundary; fsync so the truncation itself is durable.
        file.set_len(pos).map_err(|e| io_err(path, e))?;
        file.sync_all().map_err(|e| io_err(path, e))?;
    }
    Ok((index, pos))
}

impl BlockBackend for DiskBackend {
    fn load_block(&self, block: BlockId) -> Result<Vec<ItemId>, GcError> {
        let mut items = Vec::new();
        self.load_block_into(block, &mut items)?;
        Ok(items)
    }

    fn load_block_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<(), GcError> {
        if self.try_load_into(block, out)? {
            return Ok(());
        }
        // Cold block: materialize from the map (same canonical contents
        // as every other backend), persist, serve.
        materialize_block(&self.map, block, out)?;
        self.store_block(block, out)
    }
}

impl BlockStore for DiskBackend {
    fn store_block(&self, block: BlockId, items: &[ItemId]) -> Result<(), GcError> {
        check_record(block, items)?;
        let mut state = self.state.lock();
        if state.pending.len() + RECORD_HEADER + items.len() * 8 > GROUP_BYTES {
            self.write_pending(&mut state)?;
        }
        let at = state.written + state.pending.len() as u64;
        encode_record(&mut state.pending, block.0, items);
        state.index.insert(
            block.0,
            Segment {
                payload: at + RECORD_HEADER as u64,
                n_items: items.len() as u32,
            },
        );
        Ok(())
    }

    fn try_load_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<bool, GcError> {
        let state = self.state.lock();
        let Some(&segment) = state.index.get(&block.0) else {
            return Ok(false);
        };
        let len = segment.n_items as usize * 8;
        out.clear();
        out.reserve(segment.n_items as usize);
        if let Some(start) = segment.payload.checked_sub(state.written) {
            let start = start as usize;
            decode_items(&state.pending[start..start + len], out);
            return Ok(true);
        }
        drop(state);
        // Written records never move, so the lookup above stays valid
        // without the lock.
        let at = segment.payload as usize;
        if let Some(bytes) = self
            .recovered
            .as_ref()
            .and_then(|m| m.bytes().get(at..at + len))
        {
            decode_items(bytes, out);
            return Ok(true);
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut at = segment.payload;
        let end = at + len as u64;
        while at < end {
            let n = (end - at).min(READ_CHUNK as u64) as usize;
            self.read_exact_at(&mut chunk[..n], at)?;
            decode_items(&chunk[..n], out);
            at += n as u64;
        }
        Ok(true)
    }

    fn contains_block(&self, block: BlockId) -> bool {
        self.state.lock().index.contains_key(&block.0)
    }

    fn stored_blocks(&self) -> usize {
        self.state.lock().index.len()
    }
}

/// A read-only shared map of a store file's recovered prefix.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mapped {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::unix::io::AsRawFd;
    use std::ptr::NonNull;

    // Linux and the BSDs (macOS included) share these values.
    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// `len` bytes of a file from offset 0, mapped `PROT_READ` and
    /// `MAP_SHARED`, unmapped on drop.
    pub(super) struct Mapping {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only memory owned by this value alone;
    // sharing or moving it between threads is as safe as a `&[u8]`.
    unsafe impl Send for Mapping {}
    // SAFETY: as above; no method mutates through the pointer.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map the first `len` bytes of `file`; `None` if `mmap` refused
        /// (as it does a zero `len`).
        pub(super) fn of(file: &File, len: u64) -> Option<Mapping> {
            let len = usize::try_from(len).ok()?;
            // SAFETY: a fresh mapping at an address the kernel chooses
            // aliases no Rust object; the descriptor is open for reading.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            // `MAP_FAILED` is `(void *) -1`.
            if ptr as usize == usize::MAX {
                return None;
            }
            Some(Mapping {
                ptr: NonNull::new(ptr.cast())?,
                len,
            })
        }

        /// The mapped bytes.
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` maps `len` readable bytes until `drop`. They
            // are the recovered, validated prefix of a file whose appends
            // land past it, so nothing writes them while they are mapped
            // and the file is never truncated below them while its one
            // opener lives (see the module docs, "One opener per file").
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly what `mmap` returned, and no
            // borrow of `bytes` outlives `self`.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

/// Targets without the map read every written record positionally.
#[cfg(not(all(unix, target_pointer_width = "64")))]
mod mapped {
    /// Never constructed: `of` always declines.
    pub(super) enum Mapping {}

    impl Mapping {
        pub(super) fn of(_file: &std::fs::File, _len: u64) -> Option<Mapping> {
            None
        }

        pub(super) fn bytes(&self) -> &[u8] {
            match *self {}
        }
    }
}

impl Drop for DiskBackend {
    /// Write the pending group, so a store dropped without `sync` leaves
    /// the same file as one that wrote each record as it was stored. A
    /// failure here is dropped with the store; `sync` is what reports one.
    fn drop(&mut self) {
        // `try_lock` cannot meet contention through `&mut self`; it only
        // declines a lock poisoned by a panic, instead of panicking again.
        if let Some(mut state) = self.state.try_lock() {
            let _ = self.write_pending(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Seek;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gc-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("blocks.gcs")
    }

    #[test]
    fn roundtrip_and_reopen_bit_identical() {
        let path = temp_store("roundtrip");
        let map = BlockMap::strided(4);
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        assert_eq!(store.stored_blocks(), 0);
        // Cold loads materialize, persist, and serve canonical contents.
        for b in [0u64, 7, 3] {
            let items = store.load_block(BlockId(b)).unwrap();
            let expect: Vec<ItemId> = (b * 4..b * 4 + 4).map(ItemId).collect();
            assert_eq!(items, expect);
        }
        assert_eq!(store.stored_blocks(), 3);
        store.sync().unwrap();
        drop(store);

        // Reopen: the index rebuilds from the log and every block reads
        // back bit-identical, now as a pure disk read.
        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 3);
        for b in [0u64, 7, 3] {
            assert!(store.contains_block(BlockId(b)));
            let items = store.load_block(BlockId(b)).unwrap();
            let expect: Vec<ItemId> = (b * 4..b * 4 + 4).map(ItemId).collect();
            assert_eq!(items, expect);
        }
    }

    #[test]
    fn recovery_discards_torn_tail_but_keeps_acknowledged_records() {
        let path = temp_store("torn");
        let map = BlockMap::strided(8);
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        store.populate((0..5).map(BlockId)).unwrap();
        store.sync().unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        drop(store);

        // Simulate a kill mid-append: half a record of garbage at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; RECORD_HEADER + 3]).unwrap();
        }
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        assert_eq!(store.stored_blocks(), 5, "acknowledged records survive");
        for b in 0..5u64 {
            let items = store.load_block(BlockId(b)).unwrap();
            let expect: Vec<ItemId> = (b * 8..b * 8 + 8).map(ItemId).collect();
            assert_eq!(items, expect, "bit-identical after recovery");
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail truncated"
        );

        // A checksum-corrupted record is cut too (with everything after it).
        drop(store);
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            // Flip one payload byte of the last record.
            f.seek(std::io::SeekFrom::End(-1)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 4, "corrupt final record dropped");
        assert!(std::fs::metadata(&path).unwrap().len() < clean_len);
    }

    #[test]
    fn create_with_is_atomic_and_restore_appends_win() {
        let path = temp_store("create");
        let map = BlockMap::strided(2);
        let store = DiskBackend::create_with(&path, map.clone(), (0..10).map(BlockId)).unwrap();
        assert_eq!(store.stored_blocks(), 10);
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");

        // Re-storing a block appends a new record; reopen keeps the last.
        let new_items = [ItemId(1_000), ItemId(1_001)];
        store.store_block(BlockId(3), &new_items).unwrap();
        store.sync().unwrap();
        drop(store);
        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 10);
        assert_eq!(store.load_block(BlockId(3)).unwrap(), new_items);
    }

    #[test]
    fn non_store_file_is_rejected() {
        let path = temp_store("magic");
        std::fs::write(&path, b"definitely not a block store").unwrap();
        let err = DiskBackend::open(&path, BlockMap::strided(4))
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, GcError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn missing_parent_directory_is_an_io_error() {
        let path = std::env::temp_dir()
            .join(format!("gc-store-missing-{}", std::process::id()))
            .join("no-such-dir")
            .join("blocks.gcs");
        let err = DiskBackend::open(&path, BlockMap::strided(4))
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, GcError::Io { .. }), "{err}");
    }

    #[test]
    fn unknown_block_in_explicit_map_errors() {
        let path = temp_store("unknown");
        let map = BlockMap::from_groups(vec![vec![ItemId(1), ItemId(2)]]).unwrap();
        let store = DiskBackend::open(&path, map).unwrap();
        let err = store.load_block(BlockId(9)).unwrap_err();
        assert!(matches!(err, GcError::Backend { block, .. } if block == BlockId(9)));
    }

    /// `n` items that differ per block and per position.
    fn items_of(b: u64, n: u64) -> Vec<ItemId> {
        (0..n)
            .map(|i| ItemId(b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i))
            .collect()
    }

    /// Whether `store` still holds some of its records only in the process.
    fn has_pending(store: &DiskBackend) -> bool {
        !store.state.lock().pending.is_empty()
    }

    #[test]
    fn empty_block_is_refused_and_later_synced_records_survive() {
        let path = temp_store("empty");
        let map = BlockMap::strided(4);
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        store.store_block(BlockId(1), &items_of(1, 4)).unwrap();
        let err = store.store_block(BlockId(2), &[]).unwrap_err();
        assert!(matches!(err, GcError::InvalidParameter(_)), "{err}");
        store.store_block(BlockId(3), &items_of(3, 4)).unwrap();
        store.sync().unwrap();
        drop(store);

        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 2);
        assert!(!store.contains_block(BlockId(2)));
        let mut out = Vec::new();
        assert!(store.try_load_into(BlockId(3), &mut out).unwrap());
        assert_eq!(out, items_of(3, 4), "the record after the refusal survives");
    }

    #[test]
    fn pending_records_read_back_before_sync_and_across_group_boundaries() {
        let path = temp_store("pending");
        let store = DiskBackend::open(&path, BlockMap::strided(1)).unwrap();
        // 1 000 items is 8 000 payload bytes, read in two chunks, the
        // second partial; the 200 records fill about two groups.
        let n_items = |b: u64| if b % 3 == 0 { 1_000 } else { 1 + b % 16 };
        let mut out = Vec::new();
        let mut saw_pending = false;
        for b in 0..200u64 {
            store
                .store_block(BlockId(b), &items_of(b, n_items(b)))
                .unwrap();
            saw_pending |= has_pending(&store);
            for probe in [b, b / 2, 0] {
                assert!(store.try_load_into(BlockId(probe), &mut out).unwrap());
                assert_eq!(out, items_of(probe, n_items(probe)), "block {probe}");
            }
        }
        let saw_written = store.state.lock().written > MAGIC.len() as u64;
        assert!(saw_pending && saw_written, "both read paths ran");
        // An overwrite still in the group wins over the written record.
        store.store_block(BlockId(0), &items_of(7, 3)).unwrap();
        assert!(store.try_load_into(BlockId(0), &mut out).unwrap());
        assert_eq!(out, items_of(7, 3));
    }

    #[test]
    fn store_dropped_without_sync_reopens_with_every_record() {
        let path = temp_store("drop");
        let map = BlockMap::strided(16);
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        store.populate((0..3_000).map(BlockId)).unwrap();
        assert!(has_pending(&store));
        drop(store);

        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 3_000);
        let mut out = Vec::new();
        for b in [0u64, 1_234, 2_999] {
            assert!(store.try_load_into(BlockId(b), &mut out).unwrap());
            let expect: Vec<ItemId> = (b * 16..b * 16 + 16).map(ItemId).collect();
            assert_eq!(out, expect, "block {b}");
        }
    }

    /// The file after a fixed sequence of creates, appends and overwrites
    /// (crossing several groups), once synced and once more after further
    /// appends and a drop. The pinned lengths and FNV-1a digests were
    /// recorded with a store that wrote each record with its own `pwrite`:
    /// grouping must not move a byte.
    #[test]
    fn append_and_overwrite_sequence_writes_the_pinned_file() {
        fn digest(path: &Path) -> (usize, u64) {
            let bytes = std::fs::read(path).unwrap();
            let mut h = StableHasher::new();
            h.write_bytes(&bytes);
            (bytes.len(), h.finish())
        }
        let path = temp_store("pinned");
        let store =
            DiskBackend::create_with(&path, BlockMap::strided(16), (0..100).map(BlockId)).unwrap();
        for b in 100..3_000u64 {
            store
                .store_block(BlockId(b), &items_of(b, 1 + b % 37))
                .unwrap();
        }
        for b in (0..3_000u64).step_by(7) {
            store
                .store_block(BlockId(b), &items_of(b + 1, 1 + b % 5))
                .unwrap();
        }
        store.sync().unwrap();
        assert_eq!(digest(&path), (533_212, 15_687_435_344_015_261_610));
        for b in 3_000..3_100u64 {
            store.store_block(BlockId(b), &items_of(b, 16)).unwrap();
        }
        drop(store);
        assert_eq!(digest(&path), (548_012, 17_768_886_934_024_406_784));
    }

    #[test]
    fn two_threads_store_and_load_disjoint_blocks_while_groups_flush() {
        let path = temp_store("threads");
        let map = BlockMap::strided(64);
        // Every block starts out recovered, with its canonical contents,
        // so each thread overwrites mapped records while it reads others.
        drop(DiskBackend::create_with(&path, map.clone(), (0..4_000).map(BlockId)).unwrap());
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        assert_eq!(store.stored_blocks(), 4_000);
        let canonical = |b: u64| -> Vec<ItemId> { (b * 64..b * 64 + 64).map(ItemId).collect() };
        // 4 000 records of 532 bytes fill about eight groups; the barrier
        // makes the two threads' appends and group writes overlap.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    let mut out = Vec::new();
                    start.wait();
                    for i in 0..2_000u64 {
                        let b = 2 * i + t;
                        store.store_block(BlockId(b), &items_of(b, 64)).unwrap();
                        let probe = 2 * (i / 2) + t;
                        assert!(store.try_load_into(BlockId(probe), &mut out).unwrap());
                        assert_eq!(out, items_of(probe, 64), "block {probe}");
                        // Only this thread stores this parity, and not yet
                        // this block: it still reads from the map.
                        let ahead = b + 2;
                        if ahead < 4_000 {
                            assert!(store.try_load_into(BlockId(ahead), &mut out).unwrap());
                            assert_eq!(out, canonical(ahead), "recovered block {ahead}");
                        }
                    }
                });
            }
        });
        store.sync().unwrap();
        drop(store);
        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 4_000);
        let mut out = Vec::new();
        for b in 0..4_000u64 {
            assert!(store.try_load_into(BlockId(b), &mut out).unwrap());
            assert_eq!(out, items_of(b, 64), "block {b} after reopen");
        }
    }

    /// Whether this target maps the recovered prefix at all.
    const MAPS: bool = cfg!(all(unix, target_pointer_width = "64"));

    /// Bytes of the file `store` mapped at open.
    fn mapped_len(store: &DiskBackend) -> usize {
        store.recovered.as_ref().map_or(0, |m| m.bytes().len())
    }

    #[test]
    fn every_recovered_record_reads_bit_identically_from_the_map() {
        let path = temp_store("mapped");
        let store = DiskBackend::open(&path, BlockMap::strided(1)).unwrap();
        // Records of 1 to 1 000 items, some past one read chunk, and
        // overwrites whose earlier records stay in the file.
        let n_items = |b: u64| if b % 5 == 0 { 1_000 } else { 1 + b % 23 };
        for b in 0..300u64 {
            store
                .store_block(BlockId(b), &items_of(b, n_items(b)))
                .unwrap();
        }
        for b in (0..300u64).step_by(9) {
            store.store_block(BlockId(b), &items_of(b + 1, 7)).unwrap();
        }
        let expect = |b: u64| {
            if b % 9 == 0 {
                items_of(b + 1, 7)
            } else {
                items_of(b, n_items(b))
            }
        };
        store.sync().unwrap();
        drop(store);

        let mut store = DiskBackend::open(&path, BlockMap::strided(1)).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(mapped_len(&store), if MAPS { len } else { 0 });
        let (mut mapped, mut positioned) = (Vec::new(), Vec::new());
        let from_map: Vec<Vec<ItemId>> = (0..300u64)
            .map(|b| {
                assert!(store.try_load_into(BlockId(b), &mut mapped).unwrap());
                assert_eq!(mapped, expect(b), "block {b} from the map");
                mapped.clone()
            })
            .collect();
        // The same store without its map reads every record with `pread`.
        store.recovered = None;
        for b in 0..300u64 {
            assert!(store.try_load_into(BlockId(b), &mut positioned).unwrap());
            assert_eq!(positioned, from_map[b as usize], "block {b}");
        }
    }

    #[test]
    fn a_recovered_block_stored_again_reads_its_new_record() {
        let path = temp_store("restore");
        let map = BlockMap::strided(4);
        drop(DiskBackend::create_with(&path, map.clone(), (0..50).map(BlockId)).unwrap());
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        let mut out = Vec::new();
        // Pending, then written past the map: the newest record wins both
        // times, and the blocks beside it still read from the map.
        store.store_block(BlockId(7), &items_of(7, 3)).unwrap();
        assert!(has_pending(&store));
        assert!(store.try_load_into(BlockId(7), &mut out).unwrap());
        assert_eq!(out, items_of(7, 3));
        store.sync().unwrap();
        assert!(!has_pending(&store));
        assert!(store.try_load_into(BlockId(7), &mut out).unwrap());
        assert_eq!(out, items_of(7, 3));
        assert!(store.try_load_into(BlockId(8), &mut out).unwrap());
        assert_eq!(out, (32..36).map(ItemId).collect::<Vec<_>>());
        store.store_block(BlockId(7), &items_of(70, 5)).unwrap();
        drop(store);

        // After a reopen the last record is the one in the map.
        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 50);
        assert!(store.try_load_into(BlockId(7), &mut out).unwrap());
        assert_eq!(out, items_of(70, 5));
    }

    #[test]
    fn a_torn_tail_is_cut_before_the_map_and_later_appends_read_back() {
        let path = temp_store("torn-map");
        let map = BlockMap::strided(8);
        drop(DiskBackend::create_with(&path, map.clone(), (0..20).map(BlockId)).unwrap());
        let clean_len = std::fs::metadata(&path).unwrap().len() as usize;
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xCD; RECORD_HEADER + 11]).unwrap();
        }
        let store = DiskBackend::open(&path, map.clone()).unwrap();
        assert_eq!(mapped_len(&store), if MAPS { clean_len } else { 0 });
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, clean_len);
        // Appends start at the cut, past the map, and read back pending,
        // written and after another reopen.
        let mut out = Vec::new();
        for b in 100..140u64 {
            store.store_block(BlockId(b), &items_of(b, 8)).unwrap();
        }
        for b in 100..140u64 {
            assert!(store.try_load_into(BlockId(b), &mut out).unwrap());
            assert_eq!(out, items_of(b, 8), "pending block {b}");
        }
        store.sync().unwrap();
        for b in (0..20u64).chain(100..140) {
            let want = if b < 20 {
                (b * 8..b * 8 + 8).map(ItemId).collect()
            } else {
                items_of(b, 8)
            };
            assert!(store.try_load_into(BlockId(b), &mut out).unwrap());
            assert_eq!(out, want, "block {b}");
        }
        drop(store);
        let store = DiskBackend::open(&path, map).unwrap();
        assert_eq!(store.stored_blocks(), 60);
        assert!(mapped_len(&store) > clean_len || !MAPS);
        for b in 100..140u64 {
            assert!(store.try_load_into(BlockId(b), &mut out).unwrap());
            assert_eq!(out, items_of(b, 8), "block {b} after reopen");
        }
    }

    #[test]
    fn a_header_only_store_maps_nothing() {
        let path = temp_store("header-only");
        let store = DiskBackend::open(&path, BlockMap::strided(4)).unwrap();
        assert!(store.recovered.is_none());
        drop(store);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), MAGIC.len() as u64);
        let store = DiskBackend::open(&path, BlockMap::strided(4)).unwrap();
        assert!(store.recovered.is_none(), "a reopened empty store");
        // Its first loads materialize, append and read back as before.
        assert_eq!(
            store.load_block(BlockId(2)).unwrap(),
            (8..12).map(ItemId).collect::<Vec<_>>()
        );
        let mut out = Vec::new();
        assert!(store.try_load_into(BlockId(2), &mut out).unwrap());
        assert_eq!(out, (8..12).map(ItemId).collect::<Vec<_>>());
    }
}
