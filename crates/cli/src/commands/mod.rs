//! One module per subcommand. Each holds its `USAGE` text next to the
//! flags it reads and one `run`; [`COMMANDS`] drives both dispatch and
//! `gc-cache help`, so the help text cannot drift from the code. Every
//! `run` writes its report to the one writer it is handed, so a failed
//! write reaches the caller as a [`Failure`] instead of a panic.

use crate::args::Args;
use gc_cache::gc_types::GcError;
use std::fmt::{self, Write as _};
use std::io::{self, Write};

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

/// Why a subcommand stopped early.
#[derive(Debug)]
pub enum Failure {
    /// Refused input or a failed computation, for the operator to read.
    Refused(String),
    /// Writing the report failed, e.g. because its reader went away.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Refused(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Refused(msg.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Output(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Refused(msg) => f.write_str(msg),
            Failure::Output(e) => write!(f, "writing output: {e}"),
        }
    }
}

type Run = fn(&Args, &mut dyn Write) -> Result<(), Failure>;

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

/// Dispatch on the first positional argument, writing the report to `out`.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let Some((cmd, rest)) = argv.split_first() else {
        out.write_all(help().as_bytes())?;
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
    run(&args, out)
}

fn print_help(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.finish()?;
    out.write_all(help().as_bytes())?;
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
fn invalid(msg: String) -> Failure {
    Failure::Refused(GcError::InvalidParameter(msg).to_string())
}

/// `--capacity`, refused when zero: every policy constructor asserts a
/// positive capacity, and an operator typo should not surface as a panic.
fn positive_capacity(args: &Args) -> Result<usize, Failure> {
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
