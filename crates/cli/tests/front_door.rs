//! The front door refuses what it does not understand, and `sweep`
//! renders every output mode from one simulation pass.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gc-cache"))
        .args(args)
        .output()
        .expect("gc-cache binary runs")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "gc-cache failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// A misspelled flag on any subcommand is an `invalid parameter` error
/// (exit 1) naming the flag and the subcommand, raised before any work:
/// nothing on stdout, no file created.
#[test]
fn every_subcommand_refuses_a_flag_it_never_reads() {
    let dir = std::env::temp_dir().join(format!("gc-front-door-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let store = dir.join("blocks.gcs");
    let trace = dir.join("trace.json");
    let (store, trace) = (store.to_str().unwrap(), trace.to_str().unwrap());
    let table: [(&str, &[&str]); 15] = [
        ("simulate", &["--capacity", "64"]),
        ("sweep", &["--capacities", "64"]),
        ("adversary", &["--k", "64", "--h", "16"]),
        ("figure3", &[]),
        ("figure6", &[]),
        ("table1", &[]),
        ("table2", &[]),
        ("fg", &[]),
        ("mrc", &["--capacity", "64"]),
        ("bracket", &["--capacity", "64"]),
        ("serve", &["--capacity", "64"]),
        ("store", &["--path", store]),
        ("generate", &["--out", trace]),
        ("stats", &[]),
        ("help", &[]),
    ];

    // The table above is every subcommand the help text lists.
    let help = stdout_of(&run(&["help"]));
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| *l != "COMMANDS:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let tested: Vec<&str> = table.iter().map(|(cmd, _)| *cmd).collect();
    assert_eq!(listed, tested, "one row per subcommand of `gc-cache help`");

    for (cmd, valid) in table {
        for bogus in [&["--bogus", "1"][..], &["--bogus"], &["stray"]] {
            let mut argv = vec![cmd];
            argv.extend_from_slice(valid);
            argv.extend_from_slice(bogus);
            let out = run(&argv);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
            assert!(
                err.contains("invalid parameter")
                    && err.contains(bogus[0])
                    && err.contains(&format!("`{cmd}`")),
                "{argv:?} must name the flag and the subcommand: {err}"
            );
            assert!(
                out.stdout.is_empty(),
                "{argv:?} printed before refusing: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
    assert!(
        std::fs::read_dir(&dir).expect("read dir").next().is_none(),
        "store and generate must refuse before creating their files"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The two spellings ROADMAP item 1 reproduced: both used to run with the
/// default and exit 0.
#[test]
fn near_miss_spellings_do_not_run_with_the_default() {
    for argv in [
        &[
            "serve",
            "--capacity",
            "2048",
            "--shard",
            "8",
            "--len",
            "20000",
        ][..],
        &["sweep", "--capacities", "64", "--thread", "1"],
    ] {
        let out = run(argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
        assert!(err.contains(argv[3]), "{argv:?}: {err}");
    }
}

/// `sweep`'s default table, byte for byte as the two-pass implementation
/// printed it (fixture captured from the parent commit's binary).
#[test]
fn sweep_table_matches_the_two_pass_output() {
    let expected = include_str!("fixtures/sweep_table_seed42.txt");
    assert_eq!(stdout_of(&run(&["sweep", "--seed", "42"])), expected);
    assert_eq!(
        stdout_of(&run(&["sweep", "--seed", "42", "--compile"])),
        expected,
        "--compile without --csv prints the table too"
    );
}

/// Table mode and CSV mode come from the same `SweepResult`s: every cell
/// of one is in the other, plain and compiled.
#[test]
fn sweep_table_and_csv_agree_cell_for_cell() {
    const GRID: [&str; 9] = [
        "sweep",
        "--capacities",
        "64,512",
        "--len",
        "20000",
        "--blocks",
        "256",
        "--seed",
        "9",
    ];
    for engine in [&[][..], &["--compile"]] {
        let with = |extra: &[&'static str]| {
            let mut argv = GRID.to_vec();
            argv.extend_from_slice(engine);
            argv.extend_from_slice(extra);
            stdout_of(&run(&argv))
        };
        let (table, csv) = (with(&[]), with(&["--csv"]));

        // (capacity, policy) → accesses, misses, temporal, spatial, width
        let mut cells = std::collections::BTreeMap::new();
        for line in csv.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let n = |i: usize| f[i].parse::<u64>().expect("integer cell");
            let width: f64 = f[7].parse().expect("width");
            cells.insert((n(1), f[0].to_string()), (n(2), n(3), n(5), n(6), width));
        }
        let mut capacity = 0;
        let mut seen = 0;
        let mut last_misses = 0;
        for line in table.lines().filter(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("== capacity ") {
                capacity = rest.trim_end_matches(" ==").parse().expect("capacity");
                last_misses = 0;
                continue;
            }
            if line.starts_with("policy ") {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let n = |i: usize| f[i].parse::<u64>().expect("integer cell");
            let (accesses, misses, temporal, spatial, width) = cells
                .remove(&(capacity, f[0].to_string()))
                .unwrap_or_else(|| panic!("{} @ {capacity} is not in the CSV", f[0]));
            assert_eq!(
                (n(1), n(2), n(4), n(5)),
                (accesses, misses, temporal, spatial)
            );
            assert_eq!(f[3], format!("{:.4}", misses as f64 / accesses as f64));
            assert!((f[6].parse::<f64>().expect("width") - width).abs() < 0.006);
            assert!(misses >= last_misses, "rows sorted by misses: {line}");
            last_misses = misses;
            seen += 1;
        }
        assert!(
            seen > 0 && cells.is_empty(),
            "CSV cells not in the table: {cells:?}"
        );
    }
}
