//! `gc-cache` — command-line driver for GC caching simulations and
//! paper-figure regeneration.
//!
//! ```text
//! gc-cache simulate --policy iblp --capacity 1024 --blocks 512 --block-size 16 \
//!                   --spatial 0.6 --theta 0.9 --len 200000
//! gc-cache sweep    --capacities 256,512,1024 --block-size 16 [--csv]
//! gc-cache adversary --which thm2 --k 512 --h 64 --block-size 16 --rounds 100
//! gc-cache figure3  --k 1280000 --block-size 64
//! gc-cache figure6  --k 1280000 --block-size 64
//! gc-cache table1   --h 16384 --block-size 64
//! gc-cache table2   --p 3 --block-size 64 --h 1048576
//! gc-cache fg       --blocks 256 --block-size 16 --spatial 0.7 --len 100000
//! ```

mod args;
mod commands;

use commands::Failure;
use std::io::ErrorKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped reading (`gc-cache ... | head`): it has all
        // the output it wanted.
        Err(Failure::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `gc-cache help` for usage");
            ExitCode::FAILURE
        }
    }
}
