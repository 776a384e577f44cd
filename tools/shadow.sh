#!/usr/bin/env bash
# Offline stand-in for tier-1: the sandbox has no crates.io registry, so the
# root workspace does not build where the work is done. This copies the tree
# to DEST (default /root/scratch/shadow), patches the copy's crates.io
# dependencies to the stand-ins under its own perf-ledger/offline/ and to
# tools/proptest-stub, drops crates/bench (criterion, serde_json and real
# serde derives have no stand-in), and runs fmt, clippy, rustdoc, the
# workspace tests and the `data_path`, `train_step` and `gemm_shapes` examples
# there. Reads the repository; writes only under DEST, and replaces what an
# earlier run left there: DEST must be new, empty or carry the `.adcnn-shadow`
# marker this script drops.
#
#   tools/shadow.sh [DEST] [-- extra `cargo test` arguments]
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd -P)"
dest="/root/scratch/shadow"
if [[ $# -gt 0 && "$1" != "--" ]]; then
    dest="$1"
    shift
fi
[[ "${1:-}" == "--" ]] && shift

dest="$(realpath -m "$dest")"
case "$dest/" in "$repo"/*) echo "DEST must lie outside the repository" >&2; exit 2 ;; esac
if [[ "$dest" == / || "$repo/" == "$dest"/* ]]; then
    echo "DEST must not contain the repository" >&2
    exit 2
fi
mkdir -p "$dest"
if [[ ! -e "$dest/.adcnn-shadow" && -n "$(ls -A "$dest")" ]]; then
    echo "$dest is not empty and was not made by this script; refusing to replace it" >&2
    exit 2
fi
touch "$dest/.adcnn-shadow"

"$repo/tools/machine-facts.sh"

echo "==> copy $repo -> $dest"
# No rsync in the container. The copy's build output survives reruns.
find "$dest" -mindepth 1 -maxdepth 1 ! -name target ! -name .adcnn-shadow -exec rm -rf {} +
tar -C "$repo" --exclude=./target --exclude=./.git --exclude=./perf-ledger/target \
    --exclude=./perf-ledger/out --exclude=./.bench_build -cf - . | tar -C "$dest" -xf -

rm -rf "$dest/crates/bench"
sed -i -e '/^criterion = /d' -e '/^serde_json = /d' \
    -e "s|^proptest = .*|proptest = { path = \"$dest/tools/proptest-stub\" }|" "$dest/Cargo.toml"
{
    echo
    echo "[patch.crates-io]"
    for dep in rand rayon crossbeam parking_lot bytes serde serde_derive; do
        echo "$dep = { path = \"$dest/perf-ledger/offline/$dep\" }"
    done
} >>"$dest/Cargo.toml"

cd "$dest"
export CARGO_TARGET_DIR="$dest/target"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo test --workspace"
cargo test --offline --workspace --no-fail-fast "$@"

echo "==> element-wise passes (examples/data_path.rs, writes under $dest/results)"
cargo run --offline --release --example data_path
grep -q '"clock": "wall"' "$dest/results/BENCH_datapath.json"

echo "==> training path (examples/train_step.rs, writes under $dest/results)"
cargo run --offline --release --example train_step
grep -q '"clock": "wall"' "$dest/results/BENCH_train.json"

echo "==> packed GEMM (examples/gemm_shapes.rs, writes under $dest/results)"
cargo run --offline --release --example gemm_shapes
grep -q '"clock": "wall"' "$dest/results/BENCH_gemm.json"
"$repo/tools/machine-facts.sh" "$dest/results/BENCH_gemm.json"

echo "==> shadow OK"
