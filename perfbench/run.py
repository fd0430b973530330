#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first call configures and
builds perfbench/ (the solver libraries plus the benchmark program)
into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Traced runs write their spans to
.bench_build/perfbench/spans/.

--self-test checks the benchmark itself at a tiny scale: the gate and
span unit checks, every metric named in BENCHMARK.json emitted with
its unit by every workload, and a corrupted reference answer failing
the run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hyqsat_perfbench")
SPANS = os.path.join(BUILD, "spans")
RUN_TIMEOUT_S = 170


def call(cmd, stdout=None, timeout=None, env=None):
    """Run cmd to completion; on a signal or timeout, kill and reap it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s exceeded %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "hyqsat_perfbench"],
    ]
    for step in steps:
        if call(step, stdout=sys.stderr, env=env)[0]:
            sys.exit("perfbench: build failed: " + " ".join(step))


def run(args, capture=False):
    """Run the benchmark binary; returns (exit code, captured stdout)."""
    return call([BINARY] + args, stdout=subprocess.PIPE if capture else None,
                timeout=RUN_TIMEOUT_S)


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    if run(["--self-test"])[0] != 0:
        failures += 1
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, out = run(["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", trace, "--pool", "8",
                             "--out-dir", SPANS], capture=True)
            result = result_of(out)
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in metrics.items()}
            ok = (code == 0 and result["correct"] and got == expected
                  and result["attempted"] >= 1)
            print("%s %s --trace %s emits every declared metric with its unit"
                  % ("ok  " if ok else "FAIL", workload, trace))
            failures += 0 if ok else 1
        code, out = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", "0", "--pool", "8", "--corrupt-reference"],
                        capture=True)
        ok = code != 0 and not result_of(out)["correct"]
        print("%s %s: a corrupted reference answer fails the run"
              % ("ok  " if ok else "FAIL", workload))
        failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    build()
    os.makedirs(SPANS, exist_ok=True)
    if args.self_test:
        return self_test()
    return run(["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--out-dir", SPANS])[0]


if __name__ == "__main__":
    sys.exit(main())
