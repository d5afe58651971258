#!/usr/bin/env python3
"""Short self-check of the benchmark (under a minute).

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it builds corral_perfbench, then runs
a few ops untraced and traced, each twice in separate processes with one
seed.
It checks that every run is correct, that the printed metric names and
units match BENCHMARK.json, and that the deterministic outputs (the
"fingerprint" line: quality_ratio, per-input outputs, fixed per-layer
counts) are identical across the two processes. Exits 1 on the first
failure.
"""
import sys
from argparse import Namespace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark command, used as a library)

SEED = 1  # the benchmark's default seed (README.md)
QUICK = ["--inputs", "3", "--min-ops", "6", "--setups", "2",
         "--p90-tail", "0"]


def fingerprint(lines):
    found = [line for line in lines if line.startswith("fingerprint ")]
    if len(found) != 1:
        run.fail("expected one fingerprint line")
    return found[0]


def main():
    spec = run.load_spec()
    binary, work_dir = run.build()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = Namespace(workload=workload, seed=SEED, seconds=1,
                             trace=trace)
            prints = []
            for _ in range(2):
                lines, result = run.run_binary(binary, work_dir, args, QUICK)
                run.check_metrics(spec, result, trace)
                if not result["correct"] or result["failed"]:
                    run.fail(f"{workload} trace={trace}: incorrect result")
                prints.append(fingerprint(lines))
            if prints[0] != prints[1]:
                run.fail(f"{workload} trace={trace}: outputs differ between "
                         f"two runs of seed {SEED}")
            print(f"selfcheck: {workload} trace={trace} ok")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
