//! One module per subcommand. Each holds its `USAGE` text next to the
//! flags it reads and one `run`; [`COMMANDS`] drives both dispatch and
//! `gc-cache help`, so the help text cannot drift from the code.

use crate::args::Args;
use gc_cache::gc_types::GcError;
use std::fmt::Write;

mod adversary;
mod bracket;
mod fg;
mod figure3;
mod figure6;
mod generate;
mod mrc;
mod serve;
mod simulate;
mod stats;
mod store;
mod sweep;
mod table1;
mod table2;
mod workload;

type Run = fn(&Args) -> Result<(), String>;

/// Every subcommand: its name, its usage (a summary line, then its flags)
/// and its entry point, in the order `help` lists them.
const COMMANDS: [(&str, &str, Run); 15] = [
    ("simulate", simulate::USAGE, simulate::run),
    ("sweep", sweep::USAGE, sweep::run),
    ("adversary", adversary::USAGE, adversary::run),
    ("figure3", figure3::USAGE, figure3::run),
    ("figure6", figure6::USAGE, figure6::run),
    ("table1", table1::USAGE, table1::run),
    ("table2", table2::USAGE, table2::run),
    ("fg", fg::USAGE, fg::run),
    ("mrc", mrc::USAGE, mrc::run),
    ("bracket", bracket::USAGE, bracket::run),
    ("serve", serve::USAGE, serve::run),
    ("store", store::USAGE, store::run),
    ("generate", generate::USAGE, generate::run),
    ("stats", stats::USAGE, stats::run),
    ("help", "this text", print_help),
];

/// Dispatch on the first positional argument.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        print!("{}", help());
        return Ok(());
    };
    let name = match cmd.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let args = Args::parse(name, rest)?;
    let (_, _, run) = COMMANDS
        .iter()
        .find(|(listed, ..)| *listed == name)
        .ok_or_else(|| format!("unknown command {cmd:?}"))?;
    run(&args)
}

fn print_help(args: &Args) -> Result<(), String> {
    args.finish()?;
    print!("{}", help());
    Ok(())
}

fn help() -> String {
    let mut text = String::from(
        "gc-cache — Granularity-Change caching toolkit\n\n\
         USAGE: gc-cache <command> [--flag value ...]\n\nCOMMANDS:\n",
    );
    for (name, usage, _) in COMMANDS {
        let mut lines = usage.lines();
        let summary = lines.next().unwrap_or_default();
        writeln!(text, "  {name:<10} {summary}").expect("writing to a String cannot fail");
        for line in lines {
            writeln!(text, "             {line}").expect("writing to a String cannot fail");
        }
    }
    text + "\n" + workload::USAGE
}

/// An `invalid parameter` error, the structured refusal of operator input.
fn invalid(msg: String) -> String {
    GcError::InvalidParameter(msg).to_string()
}

/// `--capacity`, refused when zero: every policy constructor asserts a
/// positive capacity, and an operator typo should not surface as a panic.
fn positive_capacity(args: &Args) -> Result<usize, String> {
    match args.require("capacity")? {
        0 => Err(invalid("--capacity must be >= 1".into())),
        capacity => Ok(capacity),
    }
}

/// One CSV cell of a bound curve: four decimals, `inf` where the bound
/// diverges, and empty where it is undefined at that point.
fn cell(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        Some(_) => "inf".to_string(),
        None => String::new(),
    }
}
