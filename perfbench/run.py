#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
go next to it and are removed when the run ends. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.

The exact work counters of every run are kept under the build directory,
keyed by the benchmark binary's digest, workload, seed and mode; a later run
of the same key that counts differently is a determinism failure and
reports correct=false.

    python3 perfbench/run.py --emit-golden   # print golden.txt's values
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "backfill", "scaled", "durable")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "paper.hpp")):
        fail(f"no simulator sources under {ROOT}/src; run from a source checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "dc_perfbench")


def run_binary(binary, args):
    env = dict(os.environ, DC_THREADS="1")
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, env=env,
                          text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"dc_perfbench exited with {proc.returncode}")
    return proc.stdout


def check_exact(key, exact):
    """Compares this run's exact counters with the first run of `key`."""
    store = os.path.join(build_dir(), "exact")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".json")
    if not os.path.isfile(path):
        with open(path, "w") as f:
            json.dump(exact, f, sort_keys=True)
        return True
    with open(path) as f:
        first = json.load(f)
    differing = sorted(k for k in set(first) | set(exact)
                       if first.get(k) != exact.get(k))
    for name in differing:
        print(f"perfbench: determinism failure: {name} = {exact.get(name)}, "
              f"first run of {key} counted {first.get(name)}", file=sys.stderr)
    return not differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.txt"))
    parser.add_argument("--emit-golden", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.emit_golden and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    tag = f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = os.path.join(build_dir(), "work", tag)
    common = ["--workdir", workdir, "--golden", args.golden]
    if args.emit_golden:
        for workload in WORKLOADS:
            sys.stdout.write(run_binary(binary, [
                "--workload", workload, "--seed", "0", "--emit-golden"] + common))
        return

    lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
        + common).strip().splitlines()
    if not lines:
        fail("dc_perfbench printed no result")
    result = json.loads(lines[-1])
    info = result.pop("info")
    exact = result.pop("exact")
    print("perfbench: " + json.dumps(info), file=sys.stderr)
    with open(binary, "rb") as f:
        code = hashlib.sha1(f.read()).hexdigest()[:12]
    key = f"{code}-{args.workload}-seed{args.seed}-trace{args.trace}"
    if not check_exact(key, exact):
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
