"""Times a workload's CLI cases in one interpreter, for the end-to-end metrics.

The cases run in turn, round after round, each as a call of
``isinglab.cli.main`` with the arguments ``python -m isinglab`` would get.
A call writes its outputs to a fresh directory and is checked after its time
was taken; a non-zero exit or a failed check counts as a failed operation.
Rounds repeat while the next one still fits in the time given, and at least
one runs.  Interpreter start-up and imports are timed in set-up, not here.

    PYTHONPATH=src python3 bench/worker.py WORKLOAD SEED GRAPHS WORKDIR SECONDS RESULT.json

RESULT.json holds one record per call: case name, wall time, problems and
the SHA-256 of each data file.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from isinglab import cli
from run_bench import expand
from workloads import WORKLOADS, sha256


def call(case, seed: int, graphs: Path, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    argv = expand(case.argv, seed, graphs) + ["--out", str(out)]
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        problems = [f"exit code {code}"]
    else:
        try:
            problems = case.check(out, seed)
        except Exception as exc:  # a malformed output fails the case
            problems = [f"check raised {exc!r}"]
    digests = {n: sha256(out / n) for n in case.data_files if (out / n).is_file()}
    return {"case": case.name, "wall_s": wall, "problems": problems, "sha256": digests}


def main(argv) -> int:
    name, seed, graphs, work = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    seconds, result = float(argv[4]), Path(argv[5])
    cases = WORKLOADS[name].cases
    records, rounds, t0 = [], 0, time.perf_counter()
    while True:
        records += [call(c, seed, graphs, work / f"case{i + 1}")
                    for i, c in enumerate(cases)]
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    result.write_text(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
