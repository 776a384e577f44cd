#!/usr/bin/env bash
# The machine facts that belong beside every recorded number (ROADMAP aim 1):
# the GEMM tier this CPU should dispatch to (read from /proc/cpuinfo with the
# rule of `adcnn_tensor::gemm::simd_tier`, so it needs no build), the tier the
# §4 codec dispatches to (the rule of `adcnn_core::compress`'s probe: AVX-512
# BW + VBMI + VBMI2 and BMI2, else the scalar loops), the core count and the
# compiler. With a file argument it checks instead: the file's "simd" field —
# written by the program from `simd_tier()` — must name the GEMM tier, or,
# with `codec` after the file, its "codec" field must name the codec tier;
# otherwise the number was recorded on another machine or another dispatch.
#
#   tools/machine-facts.sh [results/BENCH_gemm.json | results/BENCH_datapath.json codec]
set -euo pipefail
flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
has() { [[ "$flags" == *" $1 "* ]]; }
if has avx512f; then
    simd="avx512f"
elif has avx2 && has fma; then
    simd="avx2+fma"
else
    simd="scalar"
fi
if has avx512f && has avx512bw && has avx512vbmi && has avx512_vbmi2 && has bmi2; then
    codec="avx512vbmi2"
else
    codec="scalar"
fi
if [[ $# -eq 0 ]]; then
    echo "==> machine: simd $simd, codec $codec, nproc $(nproc), $(rustc --version)"
    exit 0
fi
field="${2:-simd}"
case "$field" in
    simd) want="$simd" ;;
    codec) want="$codec" ;;
    *) echo "unknown field $field (simd or codec)" >&2; exit 2 ;;
esac
if ! grep -q "\"$field\": \"$want\"" "$1"; then
    echo "$1 was not recorded at this machine's $field tier ($want):" >&2
    grep "\"$field\"" "$1" >&2 || echo "no \"$field\" field" >&2
    exit 1
fi
