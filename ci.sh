#!/usr/bin/env bash
# Repo CI gate: build, tests, lints, then re-record the packed-GEMM
# acceptance baseline (results/BENCH_gemm.json). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

tools/machine-facts.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --workspace --all-targets --examples"
# --all-targets keeps benches/tests/examples compiling, not just the libs:
# the examples are documentation that must not rot. --workspace reaches
# every member (the root is also a package, so the default would be the
# facade alone) — it is what builds the adcnn-conv-worker binary.
cargo build --release --workspace --all-targets --examples

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> perf ledger: its own tests, then a smoke run of every workload"
# The wall-clock benchmark later PRs are judged by (BENCHMARK.json) checks
# every served output bit-for-bit against the serial reference; run that
# check before the PR is sent, not after. The last stdout line of a run is
# its result document.
cargo test --offline --manifest-path perf-ledger/Cargo.toml
for w in small_inproc_d4 small_inproc_d1 vgg_inproc_d2 small_tcp_d4; do
    cargo run --release --offline --quiet --manifest-path perf-ledger/Cargo.toml -- \
        --workload "$w" --smoke | tail -n 1 | grep -q '"failed":0'
done

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (intra-doc links)"
# A deleted type leaves its [`Name`] links behind in module docs and
# nothing else notices; rustdoc does.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> quickstart smoke run"
# The README's front-door example must actually run end to end (train →
# retrain → distributed serve); QUICKSTART_SMOKE shrinks the budgets so
# this finishes in seconds.
QUICKSTART_SMOKE=1 cargo run --release --example quickstart >/dev/null

echo "==> forensic observability smoke run (heterogeneous_cluster)"
# The example attaches the full sink stack (Chrome trace + metrics +
# attribution + flight recorder) and asserts the forensic/attribution JSON
# it emits under results/ is well-formed before writing it.
cargo run --release --example heterogeneous_cluster >/dev/null

echo "==> record GEMM baseline (results/BENCH_gemm.json)"
# The packed-vs-seed speedup, the register tile alone and `gemm_fused` on the
# served im2col shapes, each beside the parent commit's reading.
cargo run --release --example gemm_shapes
# Beside the 256^3 trajectory the file must carry the served im2col shapes,
# say which clock it read, and name the tier this machine dispatches to.
grep -q '"shapes"' results/BENCH_gemm.json
grep -q '"clock": "wall"' results/BENCH_gemm.json
tools/machine-facts.sh results/BENCH_gemm.json

echo "==> record the element-wise passes (results/BENCH_datapath.json)"
# Pool, clip+quantize+RLE, decode, paste, tile extraction and the task codec
# on the two served geometries, each beside the parent commit's reading.
cargo run --release --example data_path
grep -q '"clock": "wall"' results/BENCH_datapath.json

echo "==> record the training path (results/BENCH_train.json)"
# The two backward products on four conv-backward shapes and two epochs of
# ShapesCNN / small_resnet training, each beside the parent commit's reading.
cargo run --release --example train_step
grep -q '"clock": "wall"' results/BENCH_train.json

echo "==> record runtime baseline + pipeline depth sweep (results/BENCH_runtime.json)"
# Figure 15's harness runs with attribution + the flight recorder tee'd in
# and flattens the adaptive run's MetricsSnapshot into the stable perf
# trajectory schema (flat fields = depth 1), then sweeps the admission
# window over depths 1/2/4/8 on the serving cluster into `depth_sweep`.
# The bench itself asserts depth-4 throughput >= 2.5x depth 1 at a flat
# p99 and unchanged zero-fill rate, and fails if the emitted JSON is not
# well formed per obs::json::is_well_formed.
cargo bench -p adcnn-bench --bench fig15_dynamic_adaptation >/dev/null
grep -q '"depth_sweep"' results/BENCH_runtime.json

echo "==> multi-process worker smoke run (real TCP, kill -9 recovery)"
# The worker binary must build and a real multi-process cluster must
# serve bit-identically to the in-process runtime, survive a kill -9 by
# re-dispatch, and accept a replacement process into the vacant slot.
test -x target/release/adcnn-conv-worker
MULTI_PROCESS_SMOKE=1 cargo run --release --example multi_process >/dev/null

cat results/BENCH_runtime.json

echo "==> fleet-scale smoke scenario + placement sweep (results/BENCH_netsim.json)"
# Seeded fleet smoke: the size/load sweeps shrink, but the headline
# scenario still runs 64 nodes, 2 models, churn on, ~50k virtual requests
# in seconds of wall time. The bench self-asserts scaling/queueing
# invariants, a < 512 MiB RSS bound on the bulk run, that at least one
# placement policy beats the all-nodes baseline on throughput or p99,
# and that the emitted document passes obs::json::is_well_formed before
# and after the write.
FLEET_SMOKE=1 cargo bench -p adcnn-bench --bench fleet_scale >/dev/null
grep -q '"fleet"' results/BENCH_netsim.json
grep -q '"placement"' results/BENCH_netsim.json
# The observability plane: the headline scenario carries per-tenant SLO
# burn-rate reports and the labeled-metrics registry marker (the bench
# self-asserts the tenant shards sum to the global completed counter).
grep -q '"slo"' results/BENCH_netsim.json
grep -q '"labeled_metrics"' results/BENCH_netsim.json

echo "==> CI OK"
