#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build gcbench from source in the
# checkout this script sits in, then run it with the arguments given.
#
#   bash crates/benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything is built and written inside the checkout: the target
# directory is $CARGO_TARGET_DIR (relative to the checkout root) or
# target/, and store and span files go to gcbench-scratch/ beside the
# executable. Build output goes to stderr; stdout carries only gcbench's
# report, whose last line is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/runtime" ]; then
    echo "run.sh: $root is not the gc-cache workspace; the benchmark measures that workspace and cannot run without it" >&2
    exit 2
fi
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

build=(build --release --offline -p gc-benchmark --bin gcbench)
# With the registry crates at hand a plain offline build works. Without
# them (no network, no vendored registry) the workspace's own stub crates
# stand in, exactly as devtools/offline-check.sh arranges, with the
# alternate cargo home kept inside the target directory.
if ! cargo "${build[@]}" >&2 2>/dev/null; then
    stub="$root/devtools/offline-stubs"
    home="$target/offline-cargo-home"
    mkdir -p "$home"
    {
        echo "[patch.crates-io]"
        for dep in serde serde_json rand crossbeam parking_lot proptest criterion; do
            echo "$dep = { path = \"$stub/$dep\" }"
        done
    } >"$home/config.toml"
    CARGO_HOME="$home" cargo "${build[@]}" >&2
fi

exec "$target/release/gcbench" "$@"
