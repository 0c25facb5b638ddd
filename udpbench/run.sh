#!/usr/bin/env bash
# Build `udp-serve` and the benchmark from source, then run one benchmark
# invocation. Run from the repository root:
#
#   bash udpbench/run.sh --workload corpus|stream|joins|all \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr. Stdout carries one row per workload and, as
# its last line, the JSON result. `--trace 1` runs the traced binary, which
# counts allocations; `--trace 0` runs the plain one.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "udpbench: $root does not hold the udp sources" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin udp-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

bin=udpbench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=udpbench-traced
    fi
    prev=$arg
done

work="$target/udpbench-work"
mkdir -p "$work"
exec "$target/release/$bin" --serve-bin "$target/release/udp-serve" --work-dir "$work" "$@"
