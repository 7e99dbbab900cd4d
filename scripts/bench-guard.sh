#!/bin/sh
# bench-guard: the block-path performance gate run by `make check`.
#
# Measures the engine block-vs-scalar benchmark pair (EngineBlockN1k /
# EngineScalarN1k in internal/agm, the block path against the scalar
# reference sketcher) and compares the block/scalar ns-per-op RATIO against
# the ratio recorded in bench/baseline.txt. Gating on the ratio rather
# than absolute ns/op makes the check hold on any machine: both sides of
# the pair run the identical workload in the same process moments apart,
# so host speed cancels. The gate fails when the current ratio exceeds
# the baseline ratio by more than BENCH_GUARD_TOL (default 1.10, i.e. a
# >10% relative regression of the block path).
#
#   BENCH_BASELINE=bench/baseline.txt BENCH_GUARD_TOL=1.10 \
#       ./scripts/bench-guard.sh
set -eu

BASELINE="${BENCH_BASELINE:-bench/baseline.txt}"
TOL="${BENCH_GUARD_TOL:-1.10}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

if [ ! -f "$BASELINE" ]; then
    echo "bench-guard: $BASELINE not found; run 'make bench-baseline' and commit it" >&2
    exit 1
fi

# min_ns FILE NAME: the fastest ns/op recorded for benchmark NAME
# (matching Benchmark<NAME> or Benchmark<NAME>-P), empty when absent.
# Minimum over -count runs is the standard noise filter for gating.
min_ns() {
    awk -v name="$2" '
        $1 ~ ("^Benchmark" name "(-[0-9]+)?$") {
            for (i = 2; i <= NF; i++)
                if ($(i) == "ns/op") { v = $(i - 1) + 0; if (best == "" || v < best + 0) best = v }
        }
        END { print best }
    ' "$1"
}

base_block="$(min_ns "$BASELINE" EngineBlockN1k)"
base_scalar="$(min_ns "$BASELINE" EngineScalarN1k)"
if [ -z "$base_block" ] || [ -z "$base_scalar" ]; then
    echo "bench-guard: $BASELINE has no EngineBlockN1k/EngineScalarN1k lines; run 'make bench-baseline' and commit it" >&2
    exit 1
fi

# Three invocations of one repetition each, so block and scalar runs
# alternate (block, scalar, block, ...): a burst of host noise then
# lands on both sides instead of on every repetition of one of them.
echo "bench-guard: measuring EngineBlockN1k vs EngineScalarN1k" >&2
for rep in 1 2 3; do
    go test -run='^$' -bench='EngineBlockN1k|EngineScalarN1k' -benchtime=1x -count=1 ./internal/agm/ >>"$TMP"
done

now_block="$(min_ns "$TMP" EngineBlockN1k)"
now_scalar="$(min_ns "$TMP" EngineScalarN1k)"
if [ -z "$now_block" ] || [ -z "$now_scalar" ]; then
    echo "bench-guard: benchmark run produced no engine pair measurements:" >&2
    cat "$TMP" >&2
    exit 1
fi

ratio_base="$(awk -v b="$base_block" -v s="$base_scalar" 'BEGIN { printf "%.4f", b / s }')"
ratio_now="$(awk -v b="$now_block" -v s="$now_scalar" 'BEGIN { printf "%.4f", b / s }')"
echo "bench-guard: block/scalar ratio now $ratio_now (block $now_block ns/op, scalar $now_scalar ns/op), baseline $ratio_base, tolerance ${TOL}x" >&2

if awk -v now="$ratio_now" -v base="$ratio_base" -v tol="$TOL" 'BEGIN { exit !(now <= base * tol) }'; then
    echo "bench-guard: ok" >&2
else
    echo "bench-guard: FAIL — block path regressed: ratio $ratio_now > $ratio_base * $TOL" >&2
    echo "bench-guard: if the regression is intentional, re-run 'make bench-baseline' on a quiet machine and commit bench/baseline.txt" >&2
    exit 1
fi
