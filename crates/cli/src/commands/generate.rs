//! `generate`: write a workload to a trace file.

use super::workload::{workload, Workload};
use crate::args::Args;
use gc_cache::gc_trace::io::{to_json, write_text};

pub const USAGE: &str = "\
write a workload to a trace file
--out <path> [--format json|text] [workload flags]";

pub fn run(args: &Args) -> Result<(), String> {
    let out = args
        .get_str("out")
        .ok_or("missing required flag --out <path>")?
        .to_string();
    let format = args.get_str("format").unwrap_or("json");
    let Workload { trace, map, .. } = workload(args)?;
    match format {
        "json" => {
            std::fs::write(&out, to_json(&trace, &map)).map_err(|e| format!("{out}: {e}"))?;
        }
        "text" => {
            let mut buf = Vec::new();
            write_text(&trace, &mut buf).map_err(|e| e.to_string())?;
            std::fs::write(&out, buf).map_err(|e| format!("{out}: {e}"))?;
        }
        other => return Err(format!("unknown format {other:?} (json|text)")),
    }
    println!("wrote {} requests to {out}", trace.len());
    Ok(())
}
