//! `gcbench` — command line of the repository's benchmark.

use gc_benchmark::names::{unknown_workload, WORKLOADS};
use gc_benchmark::{suite, RunConfig, NOMINAL_SECONDS};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: gcbench (--workload <name> | --all | --check-repeat) [options]

  --workload <name>       run one workload in this process
  --all                   run every workload, each in a fresh child process
  --check-repeat          run the suite twice and compare every end-to-end
                          metric against its bound in BENCHMARK.json
  --seed <n>              seed of every generated input (default 1)
  --seconds <n>           target length of a workload's timed part; at 60
                          (the default) every workload runs at full size
  --quick                 tiny sizes, 3 repetitions: every code path in
                          seconds, numbers comparable with nothing
  --trace [0|1]           traced run: per-layer metrics and span files
                          (with --all, in addition to the end-to-end run)
  --out <file>            with --all: also write the suite as one JSON file
  --scratch <dir>         where store files and span files go (default:
                          gcbench-scratch beside the executable)
  --benchmark-json <file> BENCHMARK.json to take bounds from (default: the
                          nearest at or above the working directory)
";

enum Mode {
    One(String),
    All,
    CheckRepeat,
}

struct Args {
    mode: Mode,
    cfg: RunConfig,
    out: Option<PathBuf>,
    benchmark_json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: NOMINAL_SECONDS,
        quick: false,
        trace: false,
        scratch: PathBuf::new(),
    };
    let (mut out, mut benchmark_json, mut scratch) = (None, None, None);
    let mut set_mode = |m: Mode| match mode.replace(m) {
        None => Ok(()),
        Some(_) => Err("give exactly one of --workload, --all, --check-repeat".to_string()),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => set_mode(Mode::One(value()?))?,
            "--all" => set_mode(Mode::All)?,
            "--check-repeat" => set_mode(Mode::CheckRepeat)?,
            "--seed" => {
                let v = value()?;
                cfg.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            "--quick" => cfg.quick = true,
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                cfg.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    Some(v) if !v.starts_with("--") => {
                        return Err(format!("--trace {v:?} is neither 0 nor 1"))
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--benchmark-json" => benchmark_json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    cfg.scratch = match scratch {
        Some(dir) => dir,
        None => std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("gcbench-scratch")))
            .ok_or("cannot place the default scratch directory; pass --scratch")?,
    };
    let mode = mode.ok_or("give one of --workload, --all, --check-repeat")?;
    if let Mode::One(name) = &mode {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            return Err(unknown_workload(name));
        }
    }
    if out.is_some() && !matches!(mode, Mode::All) {
        return Err("--out goes with --all".into());
    }
    Ok(Args {
        mode,
        cfg,
        out,
        benchmark_json,
    })
}

fn run(args: Args) -> Result<bool, String> {
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let ok = match args.mode {
        Mode::One(name) => suite::run_one(&name, &args.cfg, &mut w)?,
        Mode::All => {
            let reports = suite::run_all(&args.cfg, &mut w)?;
            suite::print_summary(&reports, &mut w)
                .map_err(|e| format!("cannot write report: {e}"))?;
            if let Some(path) = &args.out {
                std::fs::write(path, suite::document(&args.cfg, &reports))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            reports.values().all(|r| r.correct)
        }
        Mode::CheckRepeat => {
            let path = suite::find_benchmark_json(args.benchmark_json.as_deref())
                .ok_or("no BENCHMARK.json found; pass --benchmark-json")?;
            suite::check_repeat(&args.cfg, &path, &mut w)?
        }
    };
    w.flush().map_err(|e| format!("cannot write report: {e}"))?;
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gcbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gcbench: operations failed or checks did not hold; see the failure lines");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("gcbench: {e}");
            ExitCode::from(1)
        }
    }
}
