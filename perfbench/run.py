#!/usr/bin/env python3
"""Builds and runs the benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
libraries under src/ plus the perfbench binary into .bench_build/
(Release); later runs only rebuild what changed. The benchmark's own tests
run before every measurement. Prints the binary's report, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics,
where metrics holds exactly the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) named in BENCHMARK.json. A per-layer metric of a layer
the workload does not run (for example mesh.* on a workload without a
mesh) reads 0.

Exit status: 0 on success, 1 on a build failure, a failed self-test, a
crash or a wrong output, 2 on a usage or environment refusal.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run one workload of the benchmark of record.")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args(argv)


def seed_arg(text):
    if not re.fullmatch(r"[0-9]{1,19}", text):
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return int(text)


def seconds_arg(text):
    if not re.fullmatch(r"[0-9]{1,3}", text) or not 1 <= int(text) <= 600:
        raise argparse.ArgumentTypeError("must be a whole number from 1 to 600")
    return int(text)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; False on failure."""
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log(f"{what} failed (exit {r.returncode})")
        return False
    return True


def build():
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"], "configure"):
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    return run_quiet(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "perfbench_selftest", "-j", jobs], "build")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_bench(cmd):
    """Runs the binary, echoing its report; returns (exit code, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, (lines[-1] if lines else None)


def select(result, spec_metrics, per_layer):
    """Keeps exactly the BENCHMARK.json metrics, in its order."""
    got = result["metrics"]
    metrics, absent = {}, []
    for m in spec_metrics:
        name = m["name"]
        if name in got:
            metrics[name] = got[name]
        elif per_layer:
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
            absent.append(name)
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
    if absent:
        log(f"{len(absent)} per-layer metrics are of layers this workload "
            f"does not run and read 0: {' '.join(absent)}")
    return metrics


def main(argv):
    for key in os.environ:
        if key.startswith("ANAHY_"):
            log(f"refusing to run with {key} set: the benchmark measures "
                f"the default configuration")
            return 2
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]] +
                      ["fib_fine", "raytrace_coarse", "serve_open",
                       "mesh_skew"])
    if not build():
        return 1
    selftest = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("the benchmark's self-test failed")
        return 1

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--commit", git_commit(),
           "--out", str(RESULTS_DIR / f"{stem}.json")]
    if args.trace == "1":
        cmd += ["--spans", str(RESULTS_DIR / f"{args.workload}-spans.csv")]
    code, last = run_bench(cmd)
    if code == 2 or last is None:
        return code or 1
    try:
        result = json.loads(last)
        per_layer = args.trace == "1"
        result["metrics"] = select(
            result, spec["per_layer" if per_layer else "end_to_end"],
            per_layer)
    except (ValueError, KeyError) as e:
        log(f"unusable perfbench result: {e}")
        return 1
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
