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

/// Each workload kind reads only the knobs its generator takes, the ingest
/// flags come only with a text trace, and a trace file takes no generator
/// flag: every other combination is refused, naming the flag, before any
/// work. A row is a source (a generator, run with `--len 500`, or a trace
/// file) and the flags given with it to `simulate --capacity 64`.
#[test]
fn workload_flags_are_read_only_where_they_apply() {
    let dir = std::env::temp_dir().join(format!("gc-workload-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (text, json) = (dir.join("t.txt"), dir.join("t.json"));
    std::fs::write(&text, "1\n2\n3\n1\n").expect("write text trace");
    let (text, json) = (text.to_str().unwrap(), json.to_str().unwrap());
    stdout_of(&run(&["generate", "--out", json, "--len", "50"]));

    let table: [(&str, &str, Option<&str>); 22] = [
        (
            "zipf",
            "--spatial 0.9 --stride 3 --on-error skip",
            Some("--on-error"),
        ),
        ("zipf", "--spatial 0.9", Some("--spatial")),
        ("zipf", "--stride 3", Some("--stride")),
        ("zipf", "--items 64 --theta 1.1 --seed 3", None),
        (
            "block-runs",
            "--blocks 64 --theta 0.5 --spatial 0.9 --seed 1",
            None,
        ),
        ("block-runs", "--items 64", Some("--items")),
        ("block-runs", "--quarantine q.txt", Some("--quarantine")),
        ("scan", "--items 64", None),
        ("scan", "--seed 3", Some("--seed")),
        ("chase", "--items 64 --seed 2", None),
        ("chase", "--step 2", Some("--step")),
        ("walk", "--step 2 --seed 1", None),
        ("walk", "--hot-weight 0.5", Some("--hot-weight")),
        ("hotspot", "--hot-fraction 0.1 --hot-weight 0.5", None),
        ("hotspot", "--theta 0.5", Some("--theta")),
        ("strided", "--items 64 --stride 3 --block-size 4", None),
        ("strided", "--blocks 8", Some("--blocks")),
        (
            text,
            "--on-error skip --error-budget 3 --block-size 4",
            None,
        ),
        (text, "--spatial 0.5", Some("--spatial")),
        (text, "--workload zipf", Some("--workload")),
        (json, "--block-size 4", Some("--block-size")),
        (json, "--on-error skip", Some("--on-error")),
    ];
    for (source, flags, refused) in table {
        let mut argv = vec!["simulate", "--capacity", "64"];
        if source == text || source == json {
            argv.extend(["--load", source]);
        } else {
            argv.extend(["--workload", source, "--len", "500"]);
        }
        argv.extend(flags.split_whitespace());
        let out = run(&argv);
        let err = String::from_utf8_lossy(&out.stderr);
        match refused {
            None => assert!(out.status.success(), "{argv:?} must run: {err}"),
            Some(flag) => {
                assert_eq!(out.status.code(), Some(1), "{argv:?} must be refused");
                assert!(
                    err.contains("invalid parameter") && err.contains(flag),
                    "{argv:?} must name {flag}: {err}"
                );
                assert!(out.stdout.is_empty(), "{argv:?} printed before refusing");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's artifacts at their default flags: each subcommand prints
/// its header line and a row pinned from the output of the last commit
/// that had a second regenerator for it (rows compared token by token).
#[test]
fn paper_subcommands_print_their_pinned_rows() {
    let table: [(&str, &str, &[&str]); 4] = [
        (
            "table1",
            "Table 1 (B = 64, h = 16384):",
            &[
                "Ratio", "=", "augmentation", "k≈2.00h", "⇒", "2.00×", "k≈9.00h", "⇒", "9.00×",
                "k≈12.82h", "⇒", "12.82×",
            ],
        ),
        (
            "table2",
            "Table 2 (f(n) = n^(1/p), i = b = h = 1048576, B = 64; rows 1-3: p = 2, rows 4-6: p = 3):",
            &[
                "x^{1/3}",
                "x^{1/3}/B^{(3-1)/3}",
                "5.684e-14",
                "9.095e-13",
                "9.095e-13",
            ],
        ),
        (
            "figure3",
            "h,sleator_tarjan,gc_lower,iblp_upper,item_cache_lower,block_cache_lower",
            &["12799,1.0101,1.6464,2.3158,64.6432,2.7770"],
        ),
        (
            "figure6",
            "h,optimal,fixed_i_12381,fixed_i_48708,fixed_i_290459",
            &["12799,2.3158,,2.4621,10.3552"],
        ),
    ];
    for (cmd, header, row) in table {
        let out = stdout_of(&run(&[cmd]));
        assert_eq!(out.lines().next(), Some(header), "{cmd} header");
        assert!(
            out.lines()
                .any(|l| l.split_whitespace().collect::<Vec<_>>().starts_with(row)),
            "{cmd} must print {row:?}:\n{out}"
        );
    }
}

/// A capacity below what the policy (or the MRC split grid) can be built
/// at is a structured error naming the minimum, raised before any output
/// and not a panic.
#[test]
fn undersized_capacities_are_errors_not_panics() {
    let table: [(&[&str], &str); 6] = [
        (
            &[
                "simulate",
                "--policy",
                "iblp",
                "--capacity",
                "256",
                "--block-size",
                "256",
            ],
            "cache capacity 256 is below the policy minimum 512",
        ),
        (
            &["simulate", "--policy", "block-lru", "--capacity", "15"],
            "cache capacity 15 is below the policy minimum 16",
        ),
        (
            &[
                "serve",
                "--capacity",
                "256",
                "--block-size",
                "256",
                "--shards",
                "1",
            ],
            "cache capacity 256 is below the policy minimum 512",
        ),
        (
            &["mrc", "--capacity", "16"],
            "cache capacity 16 is below the policy minimum 17",
        ),
        // Cell 6 is the first IBLP cell at capacity 16; both engines
        // refuse it the same way.
        (
            &["sweep", "--capacities", "16,64", "--len", "2000"],
            "cell 6 failed: cache capacity 16 is below the policy minimum 32",
        ),
        (
            &[
                "sweep",
                "--capacities",
                "16,64",
                "--len",
                "2000",
                "--compile",
            ],
            "cell 6 failed: cache capacity 16 is below the policy minimum 32",
        ),
    ];
    for (argv, message) in table {
        let out = run(argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
        assert!(err.contains(message), "{argv:?}: {err}");
        assert!(!err.contains("panicked"), "{argv:?}: {err}");
        assert!(out.stdout.is_empty(), "{argv:?} printed before refusing");
    }
    // One line more is enough.
    stdout_of(&run(&[
        "simulate",
        "--policy",
        "block-lru",
        "--capacity",
        "16",
    ]));
}

/// `mrc` on the default workload, byte for byte as the binary printed it
/// before the plain, checked and compiled bundles became one entry point
/// (fixtures captured from that binary). Exact curves do not depend on the
/// engine; a sampled run prints its sampler footer; a sampled run does not
/// read `--compile`.
#[test]
fn mrc_output_is_pinned_across_engines() {
    let exact = include_str!("fixtures/mrc_exact_capacity1024.txt");
    for extra in [&[][..], &["--compile"]] {
        let mut argv = vec!["mrc", "--capacity", "1024"];
        argv.extend_from_slice(extra);
        assert_eq!(stdout_of(&run(&argv)), exact, "{argv:?}");
    }

    let sampled = include_str!("fixtures/mrc_sampled_capacity1024.txt");
    let argv = ["mrc", "--capacity", "1024", "--sample-rate", "0.01"];
    assert_eq!(stdout_of(&run(&argv)), sampled, "{argv:?}");

    let out = run(&[
        "mrc",
        "--capacity",
        "1024",
        "--sample-rate",
        "0.01",
        "--compile",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("invalid parameter: unknown flag --compile for `mrc`"),
        "{err}"
    );
    assert!(out.stdout.is_empty());
}

/// A sweep whose capacity-0 column every policy refuses, under
/// `--on-error skip`: the surviving rows, the `# cell` trailers and the
/// per-cell stderr reports, byte for byte as captured from the binary
/// before sweeps lost their resume layer. The compiled engine skips the
/// same cells with the same output.
#[test]
fn skipped_cells_are_pinned_on_both_engines() {
    let csv = include_str!("fixtures/sweep_skip_capacities_0_64_256.csv");
    let stderr = include_str!("fixtures/sweep_skip_capacities_0_64_256.stderr");
    let argv = [
        "sweep",
        "--csv",
        "--capacities",
        "0,64,256",
        "--on-error",
        "skip",
    ];
    for extra in [&[][..], &["--compile"]] {
        let mut argv = argv.to_vec();
        argv.extend_from_slice(extra);
        let out = run(&argv);
        assert_eq!(stdout_of(&out), csv, "{argv:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "{argv:?}");
    }
}

/// `sweep` and `mrc` have no checkpoint or resume flags: each is refused
/// as unknown before any work, printing nothing and creating no file.
#[test]
fn sweep_and_mrc_refuse_the_removed_resume_flags() {
    let dir = std::env::temp_dir().join(format!("gc-removed-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join("p");
    let p = p.to_str().unwrap();
    let table: [(&str, &[&str], &str); 5] = [
        ("sweep", &["--capacities", "64"], "checkpoint"),
        ("sweep", &["--capacities", "64"], "resume"),
        ("sweep", &["--capacities", "64"], "checkpoint-every"),
        ("mrc", &["--capacity", "64"], "checkpoint"),
        ("mrc", &["--capacity", "64"], "resume"),
    ];
    for (cmd, valid, flag) in table {
        let value = if flag == "checkpoint-every" { "5" } else { p };
        let flag = format!("--{flag}");
        let mut argv = vec![cmd];
        argv.extend_from_slice(valid);
        argv.extend([flag.as_str(), value]);
        let out = run(&argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag {flag} for `{cmd}`")),
            "{argv:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} printed before refusing");
        assert!(!dir.join("p").exists(), "{argv:?} created {p}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes the pipe after the first line (`| head -1`) ends
/// the run quietly with success: no panic, no error message. The first
/// line comes out before the simulation runs, so the later lines meet a
/// closed pipe.
#[test]
fn a_reader_that_stops_early_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_gc-cache"))
        .args([
            "simulate",
            "--policy",
            "iblp",
            "--capacity",
            "2048",
            "--workload",
            "block-runs",
            "--len",
            "400000",
            "--seed",
            "7",
            "--compile",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gc-cache binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("# compiled:"), "{first}");
    // The reader, and with it the pipe's only read end, is gone here.
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("stderr");
    let status = child.wait().expect("gc-cache exits");
    assert!(!err.contains("panicked"), "{err}");
    assert!(status.success(), "{status}: {err}");
    assert!(err.is_empty(), "{err}");
}
