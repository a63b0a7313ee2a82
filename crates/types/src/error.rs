//! Error type shared across the `gc-*` crates.
//!
//! The taxonomy splits into three families:
//!
//! * **Model errors** — invalid caching instances (`DuplicateItem`,
//!   `ZeroCapacity`, ...). These are programming/configuration mistakes.
//! * **Ingest errors** — [`GcError::Io`] and the structured
//!   [`GcError::Parse`] (with a [`ParseReason`] payload and a
//!   [`source()`](std::error::Error::source) chain), produced by the
//!   streaming trace readers. A parse error carries enough location
//!   information (line, column, byte offset) to point at the offending
//!   record in a multi-gigabyte trace file.
//! * **Execution errors** — [`GcError::CellFailed`] (a parallel job
//!   panicked), [`GcError::CheckpointMismatch`] (a resume was attempted
//!   against a different configuration), and
//!   [`GcError::ErrorBudgetExceeded`] (too many bad records for a
//!   degraded-mode ingest to continue).
//! * **Serving errors** — [`GcError::Backend`] (a block load failed; the
//!   single-flight protocol propagates it to every coalesced waiter) and
//!   [`GcError::ZeroShards`] (invalid runtime configuration).

use crate::ItemId;
use std::fmt;

/// Errors produced while constructing or validating GC caching instances,
/// ingesting traces, or executing fault-isolated runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GcError {
    /// An item was assigned to more than one block.
    DuplicateItem {
        /// The offending item.
        item: ItemId,
    },
    /// A block in an explicit partition had no items.
    EmptyBlock {
        /// Index of the empty group.
        block: usize,
    },
    /// A cache was configured with zero capacity.
    ZeroCapacity,
    /// A cache capacity was too small for the policy's requirements
    /// (e.g. a block cache needs `k >= B`).
    CapacityTooSmall {
        /// Configured capacity.
        capacity: usize,
        /// Minimum the policy needs.
        required: usize,
    },
    /// Invalid parameter for a generator or bound (message explains).
    InvalidParameter(String),
    /// A trace file could not be parsed (legacy, unstructured form).
    ///
    /// Kept so existing `match` arms compile; new code produces the
    /// structured [`GcError::Parse`] instead.
    ParseError(String),
    /// An underlying I/O operation failed.
    ///
    /// The original [`std::io::Error`] is not `Clone`/`Eq`, so its kind and
    /// rendered message are preserved instead.
    Io {
        /// The [`std::io::ErrorKind`] of the underlying error.
        kind: std::io::ErrorKind,
        /// The rendered message of the underlying error.
        message: String,
    },
    /// A record could not be parsed, with structured location information.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// 1-based column within the line, when known (JSON errors).
        column: Option<usize>,
        /// 1-based byte offset of the start of the offending line within
        /// the stream, when known (text traces).
        byte_offset: Option<u64>,
        /// What exactly failed.
        reason: ParseReason,
    },
    /// A checkpoint was produced by a different configuration than the one
    /// being resumed, so its cells cannot be reused.
    CheckpointMismatch {
        /// Fingerprint of the configuration being resumed.
        expected: u64,
        /// Fingerprint recorded in the checkpoint file.
        found: u64,
    },
    /// A parallel execution cell failed (panicked) and the error policy
    /// was to fail the run.
    CellFailed {
        /// Index of the failing cell in the job list.
        index: usize,
        /// Rendered panic payload.
        reason: String,
    },
    /// A degraded-mode ingest saw more bad records than its error budget
    /// allows.
    ErrorBudgetExceeded {
        /// The configured budget (maximum tolerated bad records).
        budget: usize,
        /// 1-based line number of the record that exhausted the budget.
        line: usize,
    },
    /// A backend block load failed. Every miss coalesced onto the failing
    /// fetch observes the same error.
    Backend {
        /// The block whose load failed.
        block: crate::BlockId,
        /// Rendered backend failure message.
        message: String,
    },
    /// The serving runtime was configured with zero shards.
    ZeroShards,
}

/// The specific reason a record failed to parse, carried by
/// [`GcError::Parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseReason {
    /// A token that should have been a decimal item id was not.
    ///
    /// The underlying [`std::num::ParseIntError`] is preserved and exposed
    /// through [`source()`](std::error::Error::source).
    InvalidItemId {
        /// The offending token, as read (truncated to a sane length by the
        /// producer).
        token: String,
        /// The integer-parse failure.
        source: std::num::ParseIntError,
    },
    /// Malformed JSON, or well-formed JSON of the wrong shape; the message
    /// comes from [`crate::json`].
    Json {
        /// What the reader or decoder objected to.
        message: String,
    },
    /// Any other malformed record.
    Other {
        /// Free-form description.
        message: String,
    },
}

impl fmt::Display for ParseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseReason::InvalidItemId { token, .. } => {
                write!(f, "expected item id, got {token:?}")
            }
            ParseReason::Json { message } => write!(f, "malformed JSON: {message}"),
            ParseReason::Other { message } => write!(f, "{message}"),
        }
    }
}

impl GcError {
    /// Build a [`GcError::Parse`] for a bad item-id token in a text trace.
    pub fn bad_item_id(
        line: usize,
        byte_offset: u64,
        token: &str,
        source: std::num::ParseIntError,
    ) -> GcError {
        // Cap the echoed token so a corrupt multi-megabyte line cannot
        // balloon the error message.
        let mut token = token.to_string();
        if token.len() > 80 {
            let mut cut = 80;
            while !token.is_char_boundary(cut) {
                cut -= 1;
            }
            token.truncate(cut);
            token.push('…');
        }
        GcError::Parse {
            line,
            column: None,
            byte_offset: Some(byte_offset),
            reason: ParseReason::InvalidItemId { token, source },
        }
    }
}

impl From<std::io::Error> for GcError {
    fn from(e: std::io::Error) -> GcError {
        GcError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for GcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcError::DuplicateItem { item } => {
                write!(f, "item {item} appears in more than one block")
            }
            GcError::EmptyBlock { block } => write!(f, "block group {block} is empty"),
            GcError::ZeroCapacity => write!(f, "cache capacity must be positive"),
            GcError::CapacityTooSmall { capacity, required } => write!(
                f,
                "cache capacity {capacity} is below the policy minimum {required}"
            ),
            GcError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            GcError::ParseError(msg) => write!(f, "parse error: {msg}"),
            GcError::Io { kind, message } => write!(f, "I/O error ({kind:?}): {message}"),
            GcError::Parse {
                line,
                column,
                byte_offset,
                reason,
            } => {
                write!(f, "parse error at line {line}")?;
                if let Some(column) = column {
                    write!(f, ", column {column}")?;
                }
                if let Some(byte) = byte_offset {
                    write!(f, " (byte {byte})")?;
                }
                write!(f, ": {reason}")
            }
            GcError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different configuration \
                 (config hash {found:#018x}, expected {expected:#018x}); \
                 refusing to resume"
            ),
            GcError::CellFailed { index, reason } => {
                write!(f, "cell {index} failed: {reason}")
            }
            GcError::ErrorBudgetExceeded { budget, line } => write!(
                f,
                "error budget of {budget} bad records exceeded at line {line}"
            ),
            GcError::Backend { block, message } => {
                write!(f, "backend failed to load block {block}: {message}")
            }
            GcError::ZeroShards => write!(f, "runtime must have at least one shard"),
        }
    }
}

impl std::error::Error for GcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GcError::Parse {
                reason: ParseReason::InvalidItemId { source, .. },
                ..
            } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages() {
        assert_eq!(
            GcError::DuplicateItem { item: ItemId(3) }.to_string(),
            "item i3 appears in more than one block"
        );
        assert_eq!(
            GcError::EmptyBlock { block: 2 }.to_string(),
            "block group 2 is empty"
        );
        assert_eq!(
            GcError::ZeroCapacity.to_string(),
            "cache capacity must be positive"
        );
        assert!(GcError::CapacityTooSmall {
            capacity: 4,
            required: 64
        }
        .to_string()
        .contains("below the policy minimum"));
        assert!(GcError::InvalidParameter("x".into())
            .to_string()
            .contains("x"));
        assert!(GcError::ParseError("bad line".into())
            .to_string()
            .contains("bad line"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<GcError>();
    }

    #[test]
    fn parse_error_reports_location_and_chains_source() {
        let source = "zzz".parse::<u64>().unwrap_err();
        let err = GcError::bad_item_id(7, 120, "zzz", source.clone());
        let msg = err.to_string();
        assert!(msg.contains("line 7"), "{msg}");
        assert!(msg.contains("byte 120"), "{msg}");
        assert!(msg.contains("\"zzz\""), "{msg}");
        let chained = err.source().expect("source chain");
        assert_eq!(chained.to_string(), source.to_string());
    }

    #[test]
    fn bad_item_id_truncates_huge_tokens() {
        let token = "x".repeat(10_000);
        let source = token.parse::<u64>().unwrap_err();
        let err = GcError::bad_item_id(1, 1, &token, source);
        assert!(err.to_string().len() < 300);
    }

    #[test]
    fn io_conversion_preserves_kind() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: GcError = io.into();
        assert_eq!(
            err,
            GcError::Io {
                kind: std::io::ErrorKind::NotFound,
                message: "gone".into()
            }
        );
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn json_parse_reason_displays_location() {
        let err = GcError::Parse {
            line: 3,
            column: Some(14),
            byte_offset: None,
            reason: ParseReason::Json {
                message: "expected value".into(),
            },
        };
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("column 14"), "{msg}");
    }

    #[test]
    fn checkpoint_and_budget_messages() {
        assert!(GcError::CheckpointMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("refusing to resume"));
        assert!(GcError::CellFailed {
            index: 12,
            reason: "boom".into()
        }
        .to_string()
        .contains("cell 12"));
        assert!(GcError::ErrorBudgetExceeded { budget: 5, line: 9 }
            .to_string()
            .contains("line 9"));
    }

    #[test]
    fn serving_error_messages() {
        let msg = GcError::Backend {
            block: crate::BlockId(12),
            message: "device timed out".into(),
        }
        .to_string();
        assert!(msg.contains("b12"), "{msg}");
        assert!(msg.contains("device timed out"), "{msg}");
        assert!(GcError::ZeroShards.to_string().contains("shard"));
    }
}
