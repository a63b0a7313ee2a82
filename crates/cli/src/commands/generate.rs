//! `generate`: write a workload to a trace file.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
use gc_cache::gc_trace::io::{to_json, write_text};
use std::io::Write;

pub const USAGE: &str = "\
write a workload to a trace file
--out <path> [--format json|text] [workload flags]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let path = args
        .get_str("out")
        .ok_or("missing required flag --out <path>")?
        .to_string();
    let format = args.get_str("format").unwrap_or("json");
    let Workload { trace, map, .. } = workload(args)?;
    match format {
        "json" => {
            std::fs::write(&path, to_json(&trace, &map)).map_err(|e| format!("{path}: {e}"))?;
        }
        "text" => {
            let mut buf = Vec::new();
            write_text(&trace, &mut buf).map_err(|e| e.to_string())?;
            std::fs::write(&path, buf).map_err(|e| format!("{path}: {e}"))?;
        }
        other => return Err(format!("unknown format {other:?} (json|text)").into()),
    }
    writeln!(out, "wrote {} requests to {path}", trace.len())?;
    Ok(())
}
