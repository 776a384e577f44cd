#!/usr/bin/env bash
# The machine facts that belong beside every recorded number (ROADMAP aim 1):
# the GEMM tier this CPU should dispatch to (read from /proc/cpuinfo with the
# rule of `adcnn_tensor::gemm::simd_tier`, so it needs no build), the core
# count and the compiler. With a file argument it checks instead: the file's
# "simd" field — written by the program from `simd_tier()` — must name that
# tier, or the number was recorded on another machine or another dispatch.
#
#   tools/machine-facts.sh [results/BENCH_gemm.json]
set -euo pipefail
flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
if [[ "$flags" == *" avx512f "* ]]; then
    simd="avx512f"
elif [[ "$flags" == *" avx2 "* && "$flags" == *" fma "* ]]; then
    simd="avx2+fma"
else
    simd="scalar"
fi
if [[ $# -eq 0 ]]; then
    echo "==> machine: simd $simd, nproc $(nproc), $(rustc --version)"
elif ! grep -q "\"simd\": \"$simd\"" "$1"; then
    echo "$1 was not recorded at this machine's tier ($simd):" >&2
    grep '"simd"' "$1" >&2 || echo "no \"simd\" field" >&2
    exit 1
fi
