#!/usr/bin/env python3
"""The repository benchmark: builds perfbench against the cnet library in
Release, runs its self-tests, runs one workload, and prints the result as a
JSON object on the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their spans to traces/<workload>.tsv there. The result line is checked
against BENCHMARK.json (keys, metric names, units) before it is printed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# A run measures for --seconds plus a few seconds of set-up and checks.
RUN_SLACK_S = 60
RUN_LIMIT_S = 175


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"{' '.join(cmd)} failed with exit code {proc.returncode}")
    return proc.stdout


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "cnet")):
        die(f"no library sources at {os.path.join(ROOT, 'src', 'cnet')}; "
            "run from the root of a full checkout")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def load_spec():
    try:
        with open(SPEC_PATH, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH}: {e}")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_problems(line, expected):
    """Why `line` is not a valid result for the metric->unit map `expected`."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict):
        return ["result is not an object"]
    problems = []
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys are {sorted(keys)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            problems.append(f"{key} is not a whole number >= {low}")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            problems.append(f"{name}: not a {{value, unit}} object")
            continue
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and metric["unit"] != expected[name]:
            problems.append(f"{name}: unit {metric['unit']!r}, "
                            f"BENCHMARK.json says {expected[name]!r}")
    return problems


def list_problems(binary, spec):
    """Differences between what the binary reports and BENCHMARK.json."""
    listed = {"workload": [], "end_to_end": {}, "per_layer": {}}
    for line in run_quiet([binary, "--list"]).splitlines():
        kind, *rest = line.split()
        if kind == "workload":
            listed["workload"].append(rest[0])
        else:
            listed[kind][rest[0]] = rest[1]
    problems = []
    if listed["workload"] != [w["name"] for w in spec["workloads"]]:
        problems.append(f"workloads: binary {listed['workload']}")
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if listed[kind] != declared:
            problems.append(f"{kind}: binary and BENCHMARK.json differ")
    return problems


def selftest(binary, spec):
    failures = []
    good = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"a": {"value": 1.5, "unit": "ns"}}})
    cases = {
        "accepts a well-formed result": (good, True),
        "rejects an extra key": (good[:-1] + ', "x": 1}', False),
        "rejects attempted = 0": (good.replace('"attempted": 3', '"attempted": 0'), False),
        "rejects a wrong unit": (good.replace('"ns"', '"ms"'), False),
        "rejects a missing metric": (good.replace('"a"', '"b"'), False),
        "rejects a null value": (good.replace("1.5", "null"), False),
        "rejects a non-JSON line": ("metric a 1.5 ns", False),
    }
    for what, (line, ok) in cases.items():
        if (not result_problems(line, {"a": "ns"})) != ok:
            failures.append(what)
    failures += list_problems(binary, spec)
    for what in failures:
        print(f"selftest FAILED: run.py {what}")
    proc = subprocess.run([binary, "--selftest"], cwd=ROOT, check=False,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0 or failures:
        sys.stdout.write(proc.stdout)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if not args.selftest:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            die(f"--workload must be one of {names}")
        if not 1 <= args.seconds <= RUN_LIMIT_S - RUN_SLACK_S:
            die("--seconds out of range")
        if args.seed < 0:
            die("--seed must be non-negative")

    binary = build()
    if not selftest(binary, spec):
        die("self-tests failed", 1)
    if args.selftest:
        print("selftest passed")
        return 0

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=min(RUN_LIMIT_S, args.seconds + RUN_SLACK_S),
                              check=False)
    except subprocess.TimeoutExpired:
        die("the workload run timed out", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    problems = result_problems(lines[-1], expected_metrics(spec, args.trace))
    if proc.returncode not in (0, 1) or problems:
        for p in problems:
            print(f"run.py: bad result line: {p}", file=sys.stderr)
        die(f"perfbench exited with code {proc.returncode}", 3)
    print(lines[-1], flush=True)
    return proc.returncode  # 1: an invariant check failed


if __name__ == "__main__":
    sys.exit(main())
