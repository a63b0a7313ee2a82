//! The repository's custom lint pass (`cargo run -p xtask -- lint`).
//!
//! A lexical (comment/string-aware, not type-aware) pass enforcing the
//! concurrency-hygiene rules the type system cannot:
//!
//! | rule          | scope                         | requirement |
//! |---------------|-------------------------------|-------------|
//! | `sync-import` | `gc-runtime` non-test sources | no direct `std::sync` — all synchronization goes through `crate::sync`, so the `loom` feature swaps every primitive at once |
//! | `panic`       | `gc-runtime` non-test sources | no `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` without a `// lint: allow(panic): <why>` waiver |
//! | `hot-alloc`   | `// lint: hot-path` functions | no allocation-prone calls (`Vec::new`, `format!`, `.clone()`, …) without a `// lint: allow(alloc): <why>` waiver |
//! | `hot-instant` | `// lint: hot-path` functions | no `Instant::now` (timestamps belong outside shard critical sections) |
//! | `hot-map`     | `// lint: hot-path` functions, **every** workspace crate | no `HashMap`/`FxHashMap` lookups — hot loops index dense slabs and compiled-trace arrays — and no `BTreeMap`/`BTreeSet`, whose O(log n) node churn an O(1) order structure replaces; waive with `// lint: allow(map): <why>` |
//! | `unsafe-doc`  | every workspace source        | every `unsafe` is preceded by a `// SAFETY:` comment |
//!
//! Waivers must sit on the violating line or in the contiguous comment
//! block immediately above it, so a justification cannot drift away from
//! the code it excuses. Test code (`tests/` trees, `#[cfg(test)]` regions,
//! the loom suite) is exempt from every rule except `unsafe-doc`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod perfgate;

/// One lint violation, pointing at a source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file (as passed in; relative when walking).
    pub path: PathBuf,
    /// 1-based line of the violation.
    pub line: usize,
    /// Stable rule identifier (e.g. `panic`, `sync-import`).
    pub rule: &'static str,
    /// Human-readable explanation, including how to waive when waivable.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rule set applies to a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/runtime/src/**` minus the sync facade: all rules.
    RuntimeSrc,
    /// The `crate::sync` facade itself: exempt from `sync-import` (it is
    /// the one sanctioned place those names appear).
    RuntimeSyncModule,
    /// Test code (integration `tests/`, the loom suite): `unsafe-doc` only.
    TestCode,
    /// Any other workspace source: `unsafe-doc` only.
    Other,
}

/// Classify `path` (relative to the workspace root) into its rule set.
pub fn classify(path: &Path) -> FileKind {
    let p = path.to_string_lossy().replace('\\', "/");
    if p.contains("/tests/") || p.ends_with("loom_tests.rs") {
        return FileKind::TestCode;
    }
    if p.contains("crates/runtime/src/") {
        if p.ends_with("/sync.rs") {
            return FileKind::RuntimeSyncModule;
        }
        return FileKind::RuntimeSrc;
    }
    FileKind::Other
}

const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect(...)`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "format!",
    "Box::new",
    "Arc::new",
    "Rc::new",
    "String::new",
    "String::from",
    ".to_string(",
    ".to_owned(",
    ".to_vec(",
    ".clone()",
    "HashMap::new",
    "HashSet::new",
];

const HOT_MAP_TOKENS: &[&str] = &[
    "HashMap",
    "FxHashMap",
    "HashSet",
    "FxHashSet",
    "BTreeMap",
    "BTreeSet",
];

/// Lint one file's contents under its [`FileKind`] rule set.
pub fn lint_file(path: &Path, src: &str, kind: FileKind) -> Vec<Diagnostic> {
    let masked = lexer::mask(src);
    let test_lines = masked.test_region_lines();
    let mut out = Vec::new();

    let diag = |line: usize, rule: &'static str, message: String| Diagnostic {
        path: path.to_path_buf(),
        line,
        rule,
        message,
    };

    // unsafe-doc applies everywhere, test regions included: an
    // undocumented `unsafe impl Send` in a test can hide a real soundness
    // hole (tests run the same code the checker reasons about).
    for line in masked.lines_with_token("unsafe") {
        if !has_tag_above(&masked.comments, line, "SAFETY:") {
            out.push(diag(
                line,
                "unsafe-doc",
                "`unsafe` without a `// SAFETY:` comment on the line or the \
                 contiguous comment block above it"
                    .into(),
            ));
        }
    }

    // hot-map applies to every non-test hot-path function in the
    // workspace (not just gc-runtime): the compiled data layer exists
    // precisely so hot loops index flat arrays instead of hashing, so a
    // `HashMap`/`FxHashMap` lookup inside one is a regression by default.
    // An ordered tree is the same regression for eviction order: it
    // allocates a node per insert and pays O(log n) where the policies
    // keep O(1) lists, buckets or an indexed heap.
    for extent in masked.hot_path_extents() {
        for token in HOT_MAP_TOKENS {
            for line in masked.lines_with_token_in(token, extent.clone()) {
                if test_lines.contains(&line) {
                    continue;
                }
                if has_tag_above(&masked.comments, line, "lint: allow(map)") {
                    continue;
                }
                out.push(diag(
                    line,
                    "hot-map",
                    format!(
                        "`{token}` inside a `// lint: hot-path` function; \
                         index a dense slab or compiled-trace array, or keep \
                         an O(1) order structure, instead, or waive with \
                         `// lint: allow(map): <why the map is required>`"
                    ),
                ));
            }
        }
    }

    let full_rules = matches!(kind, FileKind::RuntimeSrc | FileKind::RuntimeSyncModule);
    if !full_rules {
        out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        return out;
    }

    if kind == FileKind::RuntimeSrc {
        for line in masked.lines_with_token("std::sync") {
            if test_lines.contains(&line) {
                continue;
            }
            out.push(diag(
                line,
                "sync-import",
                "direct `std::sync` use in gc-runtime; import through \
                 `crate::sync` so the `loom` feature can swap every \
                 primitive at once"
                    .to_string(),
            ));
        }
    }

    for &(token, pretty) in PANIC_TOKENS {
        for line in masked.lines_with_token(token) {
            if test_lines.contains(&line) {
                continue;
            }
            if has_tag_above(&masked.comments, line, "lint: allow(panic)") {
                continue;
            }
            out.push(diag(
                line,
                "panic",
                format!(
                    "{pretty} in runtime non-test code; return a `GcError`, \
                     refactor the invariant into the types, or waive with \
                     `// lint: allow(panic): <why it cannot fire>`"
                ),
            ));
        }
    }

    for extent in masked.hot_path_extents() {
        for token in ALLOC_TOKENS {
            for line in masked.lines_with_token_in(token, extent.clone()) {
                if test_lines.contains(&line) {
                    continue;
                }
                if has_tag_above(&masked.comments, line, "lint: allow(alloc)") {
                    continue;
                }
                out.push(diag(
                    line,
                    "hot-alloc",
                    format!(
                        "`{token}` inside a `// lint: hot-path` function; \
                         reuse a per-shard buffer, or waive with \
                         `// lint: allow(alloc): <why it is not per-access>`"
                    ),
                ));
            }
        }
        for line in masked.lines_with_token_in("Instant::now", extent.clone()) {
            if test_lines.contains(&line) {
                continue;
            }
            out.push(diag(
                line,
                "hot-instant",
                "`Instant::now` inside a `// lint: hot-path` function; take \
                 timestamps outside the critical section"
                    .into(),
            ));
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Whether a comment containing `tag` sits on `line` or in the contiguous
/// run of comment-only lines immediately above it.
fn has_tag_above(comments: &BTreeMap<usize, lexer::CommentLine>, line: usize, tag: &str) -> bool {
    if let Some(c) = comments.get(&line) {
        if c.text.contains(tag) {
            return true;
        }
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        match comments.get(&l) {
            // Only comment-only lines extend the waiver block: a comment
            // trailing unrelated code must not excuse the line below it.
            Some(c) if c.comment_only => {
                if c.text.contains(tag) {
                    return true;
                }
            }
            _ => return false,
        }
    }
    false
}

/// Lint every workspace source under `root/crates`, relative paths in the
/// diagnostics. Skips build output and the lint's own violation fixtures.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    collect_rs(&crates, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let src =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        out.extend(lint_file(&rel, &src, classify(&rel)));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds deliberately-violating inputs for the
            // lint's own tests; `target` is build output.
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, kind: FileKind) -> Vec<Diagnostic> {
        lint_file(Path::new("crates/runtime/src/x.rs"), src, kind)
    }

    #[test]
    fn flags_direct_sync_imports_outside_facade() {
        let src = "use std::sync::Arc;\nuse std::sync::Mutex;\n";
        let d = lint(src, FileKind::RuntimeSrc);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].rule, "sync-import");
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
        assert!(lint(src, FileKind::RuntimeSyncModule).is_empty());
    }

    #[test]
    fn sync_imports_in_comments_strings_and_tests_are_ignored() {
        let src = r#"
// std::sync is fine in prose
fn f() { let _ = "std::sync::Arc"; }
#[cfg(test)]
mod tests {
    use std::sync::Arc;
}
"#;
        assert!(lint(src, FileKind::RuntimeSrc).is_empty());
    }

    #[test]
    fn flags_panics_unless_waived() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let d = lint(src, FileKind::RuntimeSrc);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "panic");

        let waived = "fn f(x: Option<u8>) -> u8 {\n    \
                      // lint: allow(panic): caller checked\n    x.unwrap()\n}\n";
        assert!(lint(waived, FileKind::RuntimeSrc).is_empty());
    }

    #[test]
    fn waiver_does_not_leak_past_intervening_code() {
        let src = "fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n    \
                   // lint: allow(panic): x is checked\n    let a = x.unwrap();\n    \
                   a + y.unwrap()\n}\n";
        let d = lint(src, FileKind::RuntimeSrc);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn hot_path_allocation_and_instant_are_flagged_only_inside_extent() {
        let src = "\
// lint: hot-path
fn hot(&mut self) {
    let v = Vec::new();
    let t = std::time::Instant::now();
}

fn cold() {
    let v = Vec::new();
    let t = std::time::Instant::now();
}
";
        let d = lint(src, FileKind::RuntimeSrc);
        let rules: Vec<_> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(rules, vec![("hot-alloc", 3), ("hot-instant", 4)]);
    }

    #[test]
    fn hot_path_alloc_waiver_works() {
        let src = "\
// lint: hot-path
fn hot(&mut self) {
    // lint: allow(alloc): error path only
    let v = Vec::new();
}
";
        assert!(lint(src, FileKind::RuntimeSrc).is_empty());
    }

    #[test]
    fn hot_map_is_flagged_in_every_crate_and_waivable() {
        let src = "\
// lint: hot-path
fn hot(&mut self, k: u64) -> Option<u32> {
    self.index.get(&k).copied() // the FxHashMap lookup
}
";
        // The token is caught through the type name at the use site.
        let typed = "\
// lint: hot-path
fn hot(index: &FxHashMap<u64, u32>, k: u64) -> Option<u32> {
    index.get(&k).copied()
}
";
        // `src` names no map type, so it cannot be flagged lexically;
        // `typed` names one and must be, in runtime and non-runtime
        // crates alike.
        assert!(lint(src, FileKind::Other).is_empty());
        for kind in [FileKind::Other, FileKind::RuntimeSrc] {
            let d = lint(typed, kind);
            assert_eq!(d.len(), 1, "{kind:?}: {d:?}");
            assert_eq!(d[0].rule, "hot-map");
            assert_eq!(d[0].line, 2);
        }
        let waived = "\
// lint: hot-path
// lint: allow(map): sparse fallback path — keys are not dense here
fn hot(index: &FxHashMap<u64, u32>, k: u64) -> Option<u32> {
    index.get(&k).copied()
}
";
        assert!(lint(waived, FileKind::Other).is_empty());
        let cold = "fn cold(index: &FxHashMap<u64, u32>) -> usize { index.len() }\n";
        assert!(lint(cold, FileKind::Other).is_empty());
    }

    #[test]
    fn hot_map_flags_ordered_trees() {
        let src = "\
use std::collections::BTreeSet;
// lint: hot-path
fn evict(order: &mut BTreeSet<(u64, u64)>) -> Option<(u64, u64)> {
    let _ = std::collections::BTreeMap::<u64, u64>::new();
    order.pop_first()
}
";
        let d = lint(src, FileKind::Other);
        let rules: Vec<_> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(rules, vec![("hot-map", 3), ("hot-map", 4)], "{d:?}");
    }

    #[test]
    fn undocumented_unsafe_is_flagged_everywhere_documented_is_not() {
        let src = "unsafe impl Send for X {}\n";
        for kind in [FileKind::Other, FileKind::TestCode, FileKind::RuntimeSrc] {
            let d = lint(src, kind);
            assert_eq!(d.len(), 1, "{kind:?}");
            assert_eq!(d[0].rule, "unsafe-doc");
        }
        let ok = "// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}\n";
        assert!(lint(ok, FileKind::Other).is_empty());
    }

    #[test]
    fn non_runtime_files_only_get_unsafe_doc() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nuse std::sync::Arc;\n";
        assert!(lint(src, FileKind::Other).is_empty());
        assert!(lint(src, FileKind::TestCode).is_empty());
    }

    #[test]
    fn classify_maps_paths_to_rule_sets() {
        assert_eq!(
            classify(Path::new("crates/runtime/src/owner.rs")),
            FileKind::RuntimeSrc
        );
        assert_eq!(
            classify(Path::new("crates/runtime/src/sync.rs")),
            FileKind::RuntimeSyncModule
        );
        assert_eq!(
            classify(Path::new("crates/runtime/src/loom_tests.rs")),
            FileKind::TestCode
        );
        assert_eq!(
            classify(Path::new("crates/runtime/tests/stress.rs")),
            FileKind::TestCode
        );
        assert_eq!(
            classify(Path::new("crates/sim/src/lib.rs")),
            FileKind::Other
        );
    }
}
