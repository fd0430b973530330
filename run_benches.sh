#!/bin/bash
# Regenerate every table/figure: one binary per experiment
# (includes bench/portfolio_scaling, the portfolio racing
# trajectory, and bench/micro_frontend, the frontend fast-path
# micro-benchmark), then smoke the batch DIMACS service end to end.
#
#   ./run_benches.sh           full run, writes BENCH_<name>.json
#   ./run_benches.sh --smoke   tiny inputs (HYQSAT_BENCH_TINY=1),
#                              portfolio_scaling + micro_frontend +
#                              micro_anneal + micro_simplify +
#                              micro_incremental only,
#                              writes BENCH_<name>_smoke.json
#
# Any bench that prints machine-readable "BENCH {json}" lines gets
# its trajectory collected into BENCH_<name><suffix>.json (a JSON
# array, one element per line) next to this script — that file is
# what CI validates and plots consume.
#
# Every bench/<name>.cpp is expected to have a built binary at
# build/bench/<name>; a missing binary fails the run immediately
# (a silently skipped bench looks like a passing one). A per-bench
# wall-clock summary is printed at the end.
#
# Threading knob: HYQSAT_POOL_THREADS caps the shared WorkPool the
# hybrid loop's lockstep read groups draw from; it is carried through
# to every bench. micro_anneal's batch8 rows run one group on the
# caller, and its par64 rungs own dedicated pools sized from the
# hardware, so they ignore the knob by design — the parallel_scaling
# bar must measure the machine, not the env.
cd "$(dirname "$0")"

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
    SMOKE=1
fi

suffix=""
if [ "$SMOKE" = 1 ]; then
    export HYQSAT_BENCH_TINY=1
    suffix="_smoke"
fi

SUMMARY=""

# Collect "^BENCH " JSON lines from a log into BENCH_<name><suffix>.json.
write_trajectory() {
    local name="$1" log="$2"
    grep -q '^BENCH ' "$log" || return 0
    local out="BENCH_${name}${suffix}.json"
    sed -n 's/^BENCH //p' "$log" | awk '
        BEGIN { print "[" }
        { if (NR > 1) printf(",\n"); printf("  %s", $0) }
        END { print "\n]" }' > "$out"
    echo "wrote $out"
}

run_bench() {
    local b="$1"
    local name log st t0 t1
    name=$(basename "$b")
    if [ ! -x "$b" ]; then
        echo "ERROR: bench binary $b is missing (build it first)" >&2
        exit 1
    fi
    echo "===== $b ====="
    log=$(mktemp)
    t0=$(date +%s.%N)
    timeout 1500 "$b" | tee "$log"
    st=${PIPESTATUS[0]}
    t1=$(date +%s.%N)
    write_trajectory "$name" "$log"
    rm -f "$log"
    SUMMARY+=$(printf '%-28s %8.2f s  exit %d' "$name" \
        "$(echo "$t1 $t0" | awk '{print $1 - $2}')" "$st")$'\n'
    echo
    return "$st"
}

print_summary() {
    echo "===== per-bench wall clock ====="
    printf '%s' "$SUMMARY"
}

if [ "$SMOKE" = 1 ]; then
    run_bench build/bench/portfolio_scaling || exit 1
    run_bench build/bench/micro_frontend || exit 1
    run_bench build/bench/micro_anneal || exit 1
    run_bench build/bench/micro_simplify || exit 1
    run_bench build/bench/micro_incremental || exit 1
    print_summary
    echo "ALL_BENCHES_DONE"
    exit 0
fi

# Fail fast when any expected binary is absent: every bench source
# must have a built, executable counterpart.
for src in bench/*.cpp; do
    name=$(basename "$src" .cpp)
    if [ ! -x "build/bench/$name" ]; then
        echo "ERROR: bench binary build/bench/$name is missing" \
             "(expected for $src; build the bench target first)" >&2
        exit 1
    fi
done

for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
        run_bench "$b"
    fi
done

# Batch service smoke: portfolio-race the bundled suite; --strict
# fails on any UNKNOWN/TIMEOUT/parse error.
if [ -x build/examples/batch_solver ] &&
   [ -x build/examples/generate_suite ]; then
    echo "===== batch_solver (suite smoke) ====="
    suite_dir=$(mktemp -d)
    trap 'rm -rf "$suite_dir"' EXIT
    build/examples/generate_suite "$suite_dir" >/dev/null &&
        timeout 1500 build/examples/batch_solver --dir "$suite_dir" \
            --workers 2 --jobs 1 --timeout-s 300 --strict
    echo
fi
print_summary
echo "ALL_BENCHES_DONE"
