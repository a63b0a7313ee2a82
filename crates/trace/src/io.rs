//! Trace file I/O.
//!
//! Two formats:
//!
//! * **JSON** — the full `(Trace, BlockMap)` pair through `gc_types::json`;
//!   lossless and self-describing, used by the CLI's `generate --out` and
//!   `--trace <file>.json` (format: DESIGN.md, "JSON file formats").
//! * **Plain text** — one item id per line, `#` comments; the least common
//!   denominator for interoperating with other simulators.
//!
//! Text ingest is **streaming**: [`TraceReader`] holds one line in memory
//! at a time, so a multi-gigabyte trace never needs to fit in RAM, and
//! every error carries the 1-based line number and byte offset of the
//! offending record. [`read_text_with`] adds the fault policy layer: fail
//! fast, skip bad lines, or quarantine them to a sidecar — all under an
//! error budget so a thoroughly corrupt file aborts instead of silently
//! yielding a near-empty trace.

use gc_types::json::{FromJson, Json, ToJson};
use gc_types::{BlockMap, GcError, ItemId, Trace};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// A trace bundled with the block partition it was generated against.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// The request trace.
    pub trace: Trace,
    /// The block partition.
    pub block_map: BlockMap,
}

/// Serialize a trace + map to pretty JSON:
/// `{"trace": <Trace>, "block_map": <BlockMap>}`.
pub fn to_json(trace: &Trace, block_map: &BlockMap) -> String {
    Json::object([
        ("trace", trace.to_json()),
        ("block_map", block_map.to_json()),
    ])
    .to_string_pretty()
}

/// Parse a JSON trace file produced by [`to_json`].
///
/// Syntax and shape errors carry their line/column position in a
/// structured [`GcError::Parse`], so a hand-edited trace file that broke
/// reports exactly where; a partition that is well-formed JSON but not a
/// partition (an item in two blocks, an empty block) is the model error
/// [`BlockMap::from_groups`] reports.
pub fn from_json(json: &str) -> Result<TraceFile, GcError> {
    TraceFile::from_json(&Json::parse(json)?)
}

gc_types::json_record!(TraceFile { trace, block_map });

/// Write a trace in plain-text format: a header comment, then one decimal
/// item id per line.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    writeln!(
        w,
        "# gc-trace v1: {} requests, name={}",
        trace.len(),
        trace.name
    )?;
    for item in trace {
        writeln!(w, "{}", item.0)?;
    }
    Ok(())
}

/// A streaming plain-text trace parser: an iterator of `Result<ItemId,
/// GcError>` that holds exactly one line in memory at a time.
///
/// Blank lines and `#` comments are skipped; `\r\n` line endings are
/// accepted (the trailing `\r` is trimmed, so Windows-written traces parse
/// identically). Parse errors carry the 1-based line number and the
/// 1-based byte offset of the start of the offending line; after an I/O
/// error the iterator fuses (further `next()` calls return `None`).
pub struct TraceReader<R> {
    reader: R,
    buf: String,
    lineno: usize,
    /// Byte offset of the *end* of the last line read (= bytes consumed).
    consumed: u64,
    /// Byte offset of the *start* of the last line read.
    line_start: u64,
    done: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        TraceReader {
            reader,
            buf: String::new(),
            lineno: 0,
            consumed: 0,
            line_start: 0,
            done: false,
        }
    }

    /// 1-based number of the last line read (0 before any read).
    pub fn line(&self) -> usize {
        self.lineno
    }

    /// Total bytes consumed from the underlying reader.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// The raw text of the last line read, without its line terminator.
    /// Valid until the next `next()` call — used by quarantine mode to
    /// copy offending lines verbatim.
    pub fn raw_line(&self) -> &str {
        self.buf.trim_end_matches(['\n', '\r'])
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<ItemId, GcError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            self.buf.clear();
            self.line_start = self.consumed;
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(n) => {
                    self.lineno += 1;
                    self.consumed += n as u64;
                    let token = self.buf.trim();
                    if token.is_empty() || token.starts_with('#') {
                        continue;
                    }
                    return Some(token.parse::<u64>().map(ItemId).map_err(|e| {
                        GcError::bad_item_id(self.lineno, self.line_start + 1, token, e)
                    }));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            }
        }
    }
}

/// What to do with a malformed record during text ingest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IngestPolicy {
    /// Abort on the first malformed record (the historical behavior).
    #[default]
    Fail,
    /// Drop malformed records and keep going.
    Skip,
    /// Drop malformed records, copying each verbatim to the quarantine
    /// sidecar writer (if one is configured).
    Quarantine,
}

impl std::str::FromStr for IngestPolicy {
    type Err = GcError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail" => Ok(IngestPolicy::Fail),
            "skip" => Ok(IngestPolicy::Skip),
            "quarantine" => Ok(IngestPolicy::Quarantine),
            other => Err(GcError::InvalidParameter(format!(
                "unknown ingest policy {other:?} (expected fail, skip, or quarantine)"
            ))),
        }
    }
}

/// Options for [`read_text_with`].
pub struct IngestOptions<'a> {
    /// Malformed-record policy.
    pub policy: IngestPolicy,
    /// Sidecar writer for [`IngestPolicy::Quarantine`]; ignored otherwise.
    pub quarantine: Option<&'a mut dyn Write>,
    /// Abort with [`GcError::ErrorBudgetExceeded`] once *more than* this
    /// many malformed records have been seen. Irrelevant under
    /// [`IngestPolicy::Fail`] (the first one aborts anyway).
    pub error_budget: usize,
}

impl Default for IngestOptions<'_> {
    fn default() -> Self {
        IngestOptions {
            policy: IngestPolicy::Fail,
            quarantine: None,
            error_budget: usize::MAX,
        }
    }
}

/// What a text ingest pass saw, reported alongside the trace so silent
/// data loss is visible at the end of the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Total lines read (including comments and blanks).
    pub lines: usize,
    /// Valid records ingested into the trace.
    pub records: usize,
    /// Malformed records dropped (includes quarantined ones).
    pub skipped: usize,
    /// Malformed records copied to the quarantine sidecar.
    pub quarantined: usize,
    /// Bytes consumed from the reader.
    pub bytes: u64,
}

impl std::fmt::Display for IngestStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} records from {} lines ({} bytes), {} skipped, {} quarantined",
            self.records, self.lines, self.bytes, self.skipped, self.quarantined
        )
    }
}

/// Read a plain-text trace under an explicit fault policy, streaming:
/// memory use is bounded by the longest single line, not the file size.
///
/// I/O errors are always fatal regardless of policy — a short read is not
/// a malformed record. Returns the trace together with [`IngestStats`].
pub fn read_text_with<R: Read>(
    r: R,
    opts: &mut IngestOptions<'_>,
) -> Result<(Trace, IngestStats), GcError> {
    let mut reader = TraceReader::new(BufReader::new(r));
    let mut trace = Trace::new();
    let mut stats = IngestStats::default();
    while let Some(record) = reader.next() {
        match record {
            Ok(id) => {
                trace.push(id);
                stats.records += 1;
            }
            Err(e @ GcError::Io { .. }) => return Err(e),
            Err(e) => {
                match opts.policy {
                    IngestPolicy::Fail => return Err(e),
                    IngestPolicy::Skip => {}
                    IngestPolicy::Quarantine => {
                        if let Some(w) = opts.quarantine.as_deref_mut() {
                            writeln!(w, "{}", reader.raw_line())?;
                        }
                        stats.quarantined += 1;
                    }
                }
                stats.skipped += 1;
                if stats.skipped > opts.error_budget {
                    return Err(GcError::ErrorBudgetExceeded {
                        budget: opts.error_budget,
                        line: reader.line(),
                    });
                }
            }
        }
    }
    stats.lines = reader.line();
    stats.bytes = reader.bytes_consumed();
    Ok((trace, stats))
}

/// Read a plain-text trace: one decimal item id per line, blank lines and
/// `#` comments ignored, `\r\n` accepted. Aborts on the first malformed
/// record ([`IngestPolicy::Fail`]); see [`read_text_with`] for the
/// fault-tolerant variants.
pub fn read_text<R: Read>(r: R) -> Result<Trace, GcError> {
    read_text_with(r, &mut IngestOptions::default()).map(|(trace, _)| trace)
}

/// A file writer that creates its file only on first write, so a
/// quarantine sidecar appears on disk only if something was actually
/// quarantined.
pub struct LazyFile {
    path: PathBuf,
    file: Option<File>,
}

impl LazyFile {
    /// A lazy writer targeting `path`; nothing touches the filesystem yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        LazyFile {
            path: path.into(),
            file: None,
        }
    }

    /// The target path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the file has been created (something was written).
    pub fn created(&self) -> bool {
        self.file.is_some()
    }
}

impl Write for LazyFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.file.is_none() {
            self.file = Some(File::create(&self.path)?);
        }
        self.file.as_mut().expect("just created").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.file {
            Some(f) => f.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let t = Trace::from_ids([1, 2, 3]).named("demo");
        let m = BlockMap::strided(4);
        let json = to_json(&t, &m);
        let back = from_json(&json).unwrap();
        assert_eq!(back.trace, t);
        assert_eq!(back.block_map.max_block_size(), 4);
    }

    #[test]
    fn json_ids_are_exact_and_explicit_maps_survive() {
        let t = Trace::from_ids([u64::MAX, 0, (1 << 53) + 1]);
        let m = BlockMap::from_groups(vec![
            vec![ItemId(u64::MAX), ItemId(0)],
            vec![ItemId((1 << 53) + 1)],
        ])
        .unwrap();
        let back = from_json(&to_json(&t, &m)).unwrap();
        assert_eq!(back.trace, t);
        assert_eq!(back.block_map.block_of(ItemId(u64::MAX)).0, 0);
        assert_eq!(back.block_map.block_of(ItemId((1 << 53) + 1)).0, 1);
        assert_eq!(back.block_map.max_block_size(), 2);
    }

    /// Files nobody should have written: each is refused with the error
    /// — and, for parse errors, the 1-based line and column — a person
    /// fixing the file needs.
    #[test]
    fn hostile_json_files_are_refused_with_a_location() {
        let good_trace = "{\"name\": \"t\", \"requests\": [1, 2]}";
        let file = |trace: &str, map: &str| {
            format!("{{\n  \"trace\": {trace},\n  \"block_map\": {map}\n}}")
        };
        let depth_bomb = "[".repeat(10_000);
        let at = |line, column, message: &str| GcError::Parse {
            line,
            column: Some(column),
            byte_offset: None,
            reason: gc_types::ParseReason::Json {
                message: message.to_string(),
            },
        };
        let cases = [
            (
                file(good_trace, "{\"groups\": [[1, 2], [3, 1]]}"),
                GcError::DuplicateItem { item: ItemId(1) },
            ),
            (
                file(good_trace, "{\"groups\": [[1], []]}"),
                GcError::EmptyBlock { block: 1 },
            ),
            (
                file(good_trace, "{\"strided\": 0}"),
                at(3, 28, "block size must be positive"),
            ),
            (
                file(good_trace, "{\"strided\": 4}")[..30].to_string(),
                at(2, 29, "unexpected end of input"),
            ),
            (
                file(good_trace, "{\"strided\": 4}") + "\ngarbage",
                at(5, 1, "trailing characters after the document"),
            ),
            (
                file(
                    "{\"name\": \"t\", \"requests\": [1], \"extra\": true}",
                    "{\"strided\": 4}",
                ),
                at(2, 52, "unknown field `extra`"),
            ),
            (
                file(
                    "{\"name\": \"t\", \"requests\": [1, -2]}",
                    "{\"strided\": 4}",
                ),
                at(2, 42, "expected a non-negative integer"),
            ),
            (
                file("{\"name\": 7, \"requests\": []}", "{\"strided\": 4}"),
                at(2, 21, "expected a string"),
            ),
            (
                file(good_trace, &depth_bomb),
                at(3, 79, "nesting deeper than 64 levels"),
            ),
            (
                "{\"trace\": ".to_string() + good_trace + "}",
                at(1, 1, "missing field `block_map`"),
            ),
        ];
        for (doc, expected) in cases {
            assert_eq!(from_json(&doc).expect_err(&doc), expected, "{doc}");
        }
    }

    #[test]
    fn text_roundtrip() {
        let t = Trace::from_ids([10, 20, 30]);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let src = "# header\n\n5\n # another\n7\n";
        let t = read_text(src.as_bytes()).unwrap();
        assert_eq!(t.requests(), &[ItemId(5), ItemId(7)]);
    }

    #[test]
    fn text_reports_bad_lines() {
        let err = read_text("1\nbogus\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn text_accepts_crlf() {
        // A Windows-written trace: CRLF terminators throughout, including
        // on the comment and the final line without trailing newline.
        let src = "# header\r\n10\r\n\r\n20\r\n30";
        let t = read_text(src.as_bytes()).unwrap();
        assert_eq!(t.requests(), &[ItemId(10), ItemId(20), ItemId(30)]);
    }

    #[test]
    fn text_errors_carry_line_and_byte_offset() {
        // "7\n" is 2 bytes, "# c\n" is 4: the bad token starts at byte
        // offset 7 (1-based) on line 3.
        let err = read_text("7\n# c\nbad\n".as_bytes()).unwrap_err();
        match err {
            GcError::Parse {
                line, byte_offset, ..
            } => {
                assert_eq!(line, 3);
                assert_eq!(byte_offset, Some(7));
            }
            other => panic!("expected structured Parse, got {other}"),
        }
    }

    #[test]
    fn reader_is_streaming_and_fused() {
        let mut reader = TraceReader::new("1\nx\n2\n".as_bytes());
        assert_eq!(reader.next().unwrap().unwrap(), ItemId(1));
        assert!(reader.next().unwrap().is_err());
        // An error on one record does not fuse the iterator — only I/O
        // errors do; the caller's policy decides whether to continue.
        assert_eq!(reader.next().unwrap().unwrap(), ItemId(2));
        assert!(reader.next().is_none());
        assert!(reader.next().is_none());
        assert_eq!(reader.line(), 3);
        assert_eq!(reader.bytes_consumed(), 6);
    }

    #[test]
    fn skip_policy_keeps_valid_subsequence() {
        let src = "1\nfoo\n2\n99999999999999999999999999\n3\n";
        let mut opts = IngestOptions {
            policy: IngestPolicy::Skip,
            ..IngestOptions::default()
        };
        let (trace, stats) = read_text_with(src.as_bytes(), &mut opts).unwrap();
        assert_eq!(trace.requests(), &[ItemId(1), ItemId(2), ItemId(3)]);
        assert_eq!(stats.records, 3);
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.lines, 5);
    }

    #[test]
    fn quarantine_policy_copies_bad_lines_verbatim() {
        let src = "1\nfoo bar\n2\n";
        let mut sidecar = Vec::new();
        let mut opts = IngestOptions {
            policy: IngestPolicy::Quarantine,
            quarantine: Some(&mut sidecar),
            ..IngestOptions::default()
        };
        let (trace, stats) = read_text_with(src.as_bytes(), &mut opts).unwrap();
        assert_eq!(trace.requests(), &[ItemId(1), ItemId(2)]);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(String::from_utf8(sidecar).unwrap(), "foo bar\n");
    }

    #[test]
    fn error_budget_aborts_corrupt_files() {
        let src = "a\nb\nc\n1\n";
        let mut opts = IngestOptions {
            policy: IngestPolicy::Skip,
            error_budget: 2,
            ..IngestOptions::default()
        };
        let err = read_text_with(src.as_bytes(), &mut opts).unwrap_err();
        match err {
            GcError::ErrorBudgetExceeded { budget, line } => {
                assert_eq!(budget, 2);
                assert_eq!(line, 3);
            }
            other => panic!("expected ErrorBudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn ingest_policy_parses_from_str() {
        assert_eq!("fail".parse::<IngestPolicy>().unwrap(), IngestPolicy::Fail);
        assert_eq!("skip".parse::<IngestPolicy>().unwrap(), IngestPolicy::Skip);
        assert_eq!(
            "quarantine".parse::<IngestPolicy>().unwrap(),
            IngestPolicy::Quarantine
        );
        assert!("explode".parse::<IngestPolicy>().is_err());
    }

    #[test]
    fn lazy_file_only_appears_on_write() {
        let dir = std::env::temp_dir().join(format!("gc-lazyfile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sidecar.txt");
        let mut lazy = LazyFile::new(&path);
        lazy.flush().unwrap();
        assert!(!lazy.created());
        assert!(!path.exists());
        writeln!(lazy, "bad line").unwrap();
        lazy.flush().unwrap();
        assert!(lazy.created());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "bad line\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
