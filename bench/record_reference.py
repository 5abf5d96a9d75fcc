#!/usr/bin/env python3
"""Record the reference outputs the benchmark's checks compare against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_reference.py

Writes, under ``bench/reference/``:

- ``<case id>/<file>`` for the outputs that do not depend on the workload
  seed;
- ``per_seed.json`` with the seed-dependent exact outputs for workload seeds
  0 .. RECORDED_SEEDS - 1;
- ``trace_stats.json`` with the mean and tolerance of each trace statistic
  over as many seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run_bench import BLAS_ENV, WORK, Deadline, cli, expand, fresh_dir, run_process
from workloads import (
    PER_SEED_CASES,
    RECORDED_SEEDS,
    REFERENCE,
    SIMULATE_TRACES,
    STATIC_CASES,
    TRACE_STATS,
    WORKLOADS,
    scan_trace,
    stat_tolerance,
)


def run(workload: str, case_name: str, seed: int) -> Path:
    """Run one case, as a fresh process, after its workload's set-up."""
    case = next(c for c in WORKLOADS[workload].cases if c.name == case_name)
    graphs = fresh_dir(WORK / "record" / "graphs")
    argv = list(case.argv)
    out = fresh_dir(WORK / "record" / case_name)
    for cmd in [*WORKLOADS[workload].setup, argv + ["--out", str(out)]]:
        res = run_process(cli(expand(cmd, seed, graphs)), WORK / "record.log",
                          Deadline(3600))
        if res["exit"] != 0:
            sys.exit(f"{cmd[0]} for {case_name} (seed {seed}) exited with {res['exit']}")
    return out


def tolerances(samples: list) -> dict:
    return {key: stat_tolerance([s[key] for s in samples]) for key in samples[0]}


def main() -> int:
    os.environ.update(BLAS_ENV)
    WORK.mkdir(exist_ok=True)
    for case_id, (workload, case_name, files) in STATIC_CASES.items():
        out = run(workload, case_name, 0)
        dest = fresh_dir(REFERENCE / case_id)
        for name in files:
            shutil.copy(out / name, dest / name)
    per_seed = {case_id: {} for case_id in PER_SEED_CASES}
    samples = {stats_id: [] for stats_id in SIMULATE_TRACES}
    for seed in range(RECORDED_SEEDS):
        for case_id, (workload, case_name, name) in PER_SEED_CASES.items():
            out = run(workload, case_name, seed)
            per_seed[case_id][str(seed)] = json.loads((out / name).read_text())
        for stats_id, (case_name, shape) in SIMULATE_TRACES.items():
            out = run("chains", case_name, seed)
            problems, sample = scan_trace(out / "trace.csv", **shape)
            if problems:
                sys.exit(f"{case_name} (seed {seed}): {problems}")
            samples[stats_id].append(sample)
        print(f"seed {seed} recorded", flush=True)
    (REFERENCE / "per_seed.json").write_text(json.dumps(per_seed, indent=1, sort_keys=True) + "\n")
    stats = {stats_id: tolerances(s) for stats_id, s in samples.items()}
    TRACE_STATS.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
