#!/usr/bin/env bash
# Build the release binaries sdchecker and sdcheckerd from the root
# workspace, build the benchmark package, then run it with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
# Run from the root of the repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sdchecker --bin sdchecker --bin sdcheckerd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
