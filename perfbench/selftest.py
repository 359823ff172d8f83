#!/usr/bin/env python3
"""Self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks, on every workload, with short runs:
  * every metric BENCHMARK.json names is emitted with its unit, in the
    mode that reports it (end-to-end with --trace 0, per-layer with 1);
  * a non-default seed changes the inputs but not the set of metric names;
  * exact work counters repeat in a second run of the same seed;
  * a corrupted golden value drives pass_ratio below 1 on the paper's seed
    and on another, so the correctness gate compares the values it names
    in every run, not only in runs of the paper's inputs.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def bench(binary, workload, seed, trace, golden=None):
    """One short run straight through the binary: (result, info, exact)."""
    workdir = os.path.join(run.build_dir(), "work", f"selftest-{workload}")
    out = run.run_binary(binary, [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--min-cycles", "3", "--workdir", workdir,
        "--golden", golden or os.path.join(run.HERE, "golden.txt")])
    result = json.loads(out.strip().splitlines()[-1])
    return result, result.pop("info"), result.pop("exact")


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def corrupt_golden():
    """A golden file with the first value of every workload off by one."""
    path = os.path.join(run.build_dir(), "golden-corrupted.txt")
    seen, lines = set(), []
    for line in open(os.path.join(run.HERE, "golden.txt")):
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#") and fields[0] not in seen:
            seen.add(fields[0])
            line = f"{fields[0]} {fields[1]} {int(fields[2]) + 1}\n"
        lines.append(line)
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def main():
    binary = run.build()
    corrupted = corrupt_golden()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        names = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, info, exact = bench(binary, workload, 0, trace)
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: seed 0 passes the golden gate")
            expect(got == wanted,
                   f"{workload} trace={trace}: emits exactly the {key} metrics with their units")
            names[trace] = (set(got), info["inputs"], exact)
        _, again_info, again_exact = bench(binary, workload, 0, 1)
        expect(again_exact == names[1][2],
               f"{workload}: exact counters repeat for an equal seed")
        other, other_info, _ = bench(binary, workload, 7, 0)
        expect(other_info["inputs"] != names[0][1] and set(other["metrics"]) == names[0][0],
               f"{workload}: seed 7 changes the inputs, not the metric names")
        for seed in (0, 7):
            bad, _, _ = bench(binary, workload, seed, 0, golden=corrupted)
            ratio = bad["metrics"]["pass_ratio"]["value"]
            expect(ratio < 1 and not bad["correct"],
                   f"{workload} seed {seed}: a corrupted golden value drives "
                   f"pass_ratio to {ratio}")
    shutil.rmtree(os.path.join(run.build_dir(), "work"), ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
