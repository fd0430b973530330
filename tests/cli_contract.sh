#!/usr/bin/env bash
# CLI contract smoke for the three solver front doors: every one exits
# 2 on an unknown flag and on a malformed or out-of-range value, and
# the documented invocations (README, CI, run_benches.sh) still parse.
#
#   tests/cli_contract.sh <dir holding dimacs_solver, batch_solver,
#                          solver_daemon>
set -u
bin=${1:?usage: $0 <examples build dir>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cnf="$work/tiny.cnf"
printf 'p cnf 3 2\n1 2 3 0\n-1 2 0\n' > "$cnf"
sock="$work/never.sock"
failures=0

# expect <status> <command...>: run it, compare the exit status. The
# time limit turns a daemon that wrongly starts serving into a failure
# instead of a hang.
expect() {
    local want=$1
    shift
    timeout 60 "$@" > "$work/out" 2>&1
    local got=$?
    if [ "$got" != "$want" ]; then
        echo "FAIL: expected exit $want, got $got: $*" >&2
        sed 's/^/  | /' "$work/out" >&2
        failures=$((failures + 1))
    fi
}

dimacs="$bin/dimacs_solver"
batch="$bin/batch_solver"
daemon="$bin/solver_daemon"

# Unknown flags, malformed values, missing values: exit 2 everywhere.
for bad in "--no-such-flag" "-x" "--num-reads abc" "--num-reads=0" \
           "--reads-groups 5000" "--topology kite" "--simplify=max" \
           "--depth 0" "--reads-batch=yes" "--noisy=2" "--depth"; do
    # shellcheck disable=SC2086 # split the flag from its value
    expect 2 "$dimacs" "$cnf" $bad
    # shellcheck disable=SC2086
    expect 2 "$batch" "$cnf" --quiet $bad
    # shellcheck disable=SC2086
    expect 2 "$daemon" --socket "$sock" $bad
done
expect 2 "$dimacs" "$cnf" --warmup soon
expect 2 "$dimacs" "$cnf" --timeout-s nan
expect 2 "$batch" "$cnf" --timeout-s -1
expect 2 "$dimacs" "$cnf" "$cnf"
expect 2 "$batch" "$cnf" --jobs x
expect 2 "$batch" "$cnf" --warmup 3
expect 2 "$batch" --manifest "$work/missing.txt"
expect 2 "$daemon" --socket "$sock" --drain later
expect 2 "$daemon" --socket "$sock" --port 70000
expect 2 "$daemon" "$cnf"
# No operand / no socket: usage, exit 2.
expect 2 "$dimacs"
expect 2 "$batch"
expect 2 "$daemon"

# Documented invocations keep their meaning (10 = SAT).
expect 10 "$dimacs" "$cnf"
expect 10 "$dimacs" "$cnf" --classic --simplify
expect 10 "$dimacs" "$cnf" --simplify=full --timeout-s 120 \
    --metrics "$work/m.json" --trace "$work/t.jsonl"
expect 10 "$dimacs" "$cnf" --simplify full --noisy --warmup 4
expect 10 "$dimacs" "$cnf" --num-reads 8 --reads-batch --reads-groups 2
expect 10 "$dimacs" "$cnf" --topology=pegasus --no-frontend-cache \
    --incremental-tracking --sampler=sa --depth 2 --conflicts 1000
expect 0 "$batch" "$cnf" --quiet --workers 2 --jobs 1 --timeout-s 300 \
    --strict --simplify full --topology zephyr --reads-batch \
    --reads-groups=3 --num-reads 4 --noisy --no-share \
    --json "$work/r.json" --csv "$work/r.csv"
expect 0 "$batch" --quiet --strict --dir "$work" --manifest - < /dev/null

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI contract check(s) failed" >&2
    exit 1
fi
echo "CLI contract: all checks passed"
