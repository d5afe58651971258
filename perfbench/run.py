#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sim_tcp|ctrl_coflow|plan_w3 \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the src/ libraries plus corral_perfbench) from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks the printed metrics against BENCHMARK.json, and prints the
benchmark binary's result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result when the sources are missing, the build
fails or the benchmark binary crashes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
DEADLINE_S = 175  # a run must end within 180 s of its start


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}: run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "corral_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "corral_perfbench", build_dir / "work"


def run_binary(binary, work_dir, args, extra=(), timeout=DEADLINE_S):
    """Runs corral_perfbench; returns (stdout lines, parsed last line)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"corral_perfbench exceeded {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"corral_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"corral_perfbench's last line is not JSON: {lines[-1]!r}")
    return lines, result


def check_metrics(spec, result, trace):
    """The result names exactly the BENCHMARK.json metrics, with units."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    start = time.monotonic()
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    binary, work_dir = build()
    remaining = DEADLINE_S - (time.monotonic() - start)
    # The first run in a checkout builds and may take longer.
    lines, result = run_binary(binary, work_dir, args,
                               timeout=max(remaining, 120))
    check_metrics(spec, result, args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
