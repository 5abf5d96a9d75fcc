#!/usr/bin/env python3
"""Benchmark of the isinglab command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run_bench.py --workload chains --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload exact --seed 1 --trace 1
    python3 bench/run_bench.py --workload all --seed 1

Each workload (see ``workloads.py``) is a list of CLI cases, run with
``PYTHONPATH=src`` and checked after each call; a non-zero exit or a failed
check counts as a failed operation.  With ``--trace 0`` the set-up repeats
in fresh processes, then ``worker.py`` calls the cases in turn in one
interpreter, round after round for ``--seconds``, and each case counts with
its median call.  With ``--trace 1`` the cases run once untraced and once under
``tracer.py``, each as a fresh ``python -m isinglab ...`` process, then the
layer probes of ``probes.py``, and the per-layer metrics are reported.
``--workload all`` runs every workload in turn, each printing its own report
and result line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report,
including every data file's SHA-256 and the environment, is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import per_layer_units
from workloads import WORKLOADS, sha256, unrecorded_seed_warning

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
TRACER = HERE / "tracer.py"
WORKER = HERE / "worker.py"
# set-up repeats at least this often, and until it has taken this long
SETUP_REPEATS, SETUP_MIN_S = 5, 3.0
# every run ends within this many seconds; children still running are killed
RUN_LIMIT_S = 165
# BLAS runs single-threaded in every process, so an eigensolve's time does
# not hinge on whether the second core is free
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_process(cmd, log: Path, deadline: Deadline, cwd=ROOT) -> dict:
    """Run one child to completion; wall time, peak RSS and exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    limit = deadline.left()
    if limit <= 0:
        return {"wall_s": 0.0, "peak_rss_mb": 0.0, "exit": None, "timed_out": True}
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=err,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "timed_out": wall >= limit}


def cli(argv) -> list:
    return [sys.executable, "-m", "isinglab", *argv]


def expand(argv, seed: int, graphs: Path) -> list:
    return [a.format(seed=seed, graphs=graphs) for a in argv]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Set-up and cases
# ---------------------------------------------------------------------------


def setup(workload, seed: int, work: Path, deadline: Deadline) -> float:
    """Median over repeats of: a fresh interpreter importing isinglab.cli,
    plus the workload's graph-gen inputs.  Leaves the graphs in work/graphs."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        graphs = fresh_dir(work / "graphs")
        runs = [run_process([sys.executable, "-c", "import isinglab.cli"],
                            work / "setup.log", deadline)]
        for argv in workload.setup:
            runs.append(run_process(cli(expand(argv, seed, graphs)),
                                    work / "setup.log", deadline))
        if any(r["exit"] != 0 for r in runs):
            log = (work / "setup.log").read_text()[-2000:]
            raise RuntimeError(f"set-up failed:\n{log}")
        times.append(sum(r["wall_s"] for r in runs))
    return statistics.median(times)


def run_case(case, index: int, seed: int, work: Path, deadline: Deadline,
             traced: bool = False) -> dict:
    out = fresh_dir(work / f"case{index + 1}")
    argv = expand(case.argv, seed, work / "graphs") + ["--out", str(out)]
    spans = work / "spans" / f"case{index + 1}.json"
    cmd = [sys.executable, str(TRACER), "case", str(spans), "--", *argv] \
        if traced else cli(argv)
    res = run_process(cmd, work / f"case{index + 1}.log", deadline)
    res["case"] = case.name
    if res["timed_out"]:
        res["problems"] = ["timed out"]
    elif res["exit"] != 0:
        res["problems"] = [f"exit code {res['exit']}"]
    else:
        try:
            res["problems"] = case.check(out, seed)
        except Exception as exc:  # a malformed output fails the case
            res["problems"] = [f"check raised {exc!r}"]
    res["sha256"] = {n: sha256(out / n) for n in case.data_files if (out / n).is_file()}
    res["bytes_written"] = sum(p.stat().st_size for p in out.iterdir()
                               if p.name != "manifest.json")
    return res


def run_round(workload, seed: int, work: Path, deadline: Deadline,
              traced: bool = False) -> list:
    return [run_case(c, i, seed, work, deadline, traced)
            for i, c in enumerate(workload.cases)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(calls: list, setup_s: float, peak_rss_mb: float) -> tuple:
    """The end-to-end metrics, and each case's median call by name.

    wall_s sums each case's median over its calls.  The calls are short and
    many, so the median is taken over the whole run rather than over a few
    long samples that each catch the shared host in one mood."""
    walls = {}
    for c in calls:
        walls.setdefault(c["case"], []).append(c["wall_s"])
    cases = {case: statistics.median(w) for case, w in walls.items()}
    metrics = {"setup_s": setup_s, "wall_s": sum(cases.values()),
               "peak_rss_mb": peak_rss_mb}
    return metrics, cases


def _span_table(spans: list) -> list:
    """(name, duration, self time, ancestor names, info) for each span."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
    rows = []
    for s in spans:
        ancestors, parent = set(), s[1]
        while parent is not None:
            ancestors.add(by_id[parent][2])
            parent = by_id[parent][1]
        dur = s[4] - s[3]
        rows.append((s[2], dur, dur - child_time.get(s[0], 0.0), ancestors, s[5]))
    return rows


def per_layer(case_spans: dict, probe_spans: list, probes: dict,
              traced: list, untraced: list) -> dict:
    """Per-layer metrics over the traced cases and the probe section."""
    units = per_layer_units()
    metrics = {name: 0 for name, unit in units.items() if unit in ("count", "bytes")}
    metrics.update({name: 0.0 for name, unit in units.items() if unit == "s"})
    rows = [row for spans in case_spans.values() for row in _span_table(spans)]
    rows += _span_table(probe_spans)
    for name, dur, self_s, ancestors, info in rows:
        if name.startswith("probe."):
            continue
        if name == "cli.main":
            metrics["cli.self_s"] += self_s
            continue
        metrics[f"{name}.s"] += dur
        metrics[f"{name}.calls"] += 1
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] += self_s
        if info and name == "dynamics.build_transition_matrix":
            for key in ("states", "bytes", "nonzeros"):
                metrics[f"dynamics.kernel.{key}"] += info[key]
        if info and name == "measures.exact_partition_table":
            metrics["measures.exact_partition_table.states"] += info["states"]
        if name in ("thresholds.eta_plus", "thresholds.eta_minus") \
                and "metastability.find_union_parameters" in ancestors:
            metrics["metastability.find_union_parameters.field_solves"] += 1
    gap_case = case_spans.get("spectra.gap_s", [])
    metrics["spectra.gap.spectral_gap_calls"] = sum(
        1 for s in gap_case if s[2] == "spectral.spectral_gap")
    metrics["cli.bytes_written"] = sum(r["bytes_written"] for r in traced)
    metrics["trace.overhead_s"] = (sum(r["wall_s"] for r in traced)
                                   - sum(r["wall_s"] for r in untraced))
    metrics.update(probes)
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics differ from the list: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {name: metrics[name] for name in units}


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


BLAS_PROBE = """
import ctypes, numpy
libs = {l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l.lower()}
for lib in sorted(libs):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(fn())
            raise SystemExit
"""


def blas_threads():
    """Thread count of the OpenBLAS that numpy loads in a child, or None.

    Asked in a child so that this process stays small: Linux carries a
    process's peak RSS over fork and exec, so it is a floor under every
    child's peak RSS."""
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return int(proc.stdout) if proc.stdout.strip().isdigit() else None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": git_sha(),
        "seed": seed,
    }


def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:<56} {value:>16.6g} {units[name]}")


def digests(result: dict) -> str:
    return " ".join(f"{n}={h[:16]}" for n, h in result["sha256"].items())


def summarize(results: list) -> tuple:
    failed = sum(1 for r in results if r["problems"])
    for r in results:
        for p in r["problems"]:
            print(f"FAILED {r['case']}: {p}", file=sys.stderr)
    return len(results), failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def measure(workload, seed: int, seconds: float, trace: bool,
            deadline: Deadline) -> tuple:
    """Run one workload; returns (report, results, metrics, units, case wall
    times by name)."""
    work = fresh_dir(WORK / workload.name)
    (work / "spans").mkdir()
    setup_s = setup(workload, seed, work, deadline)
    report = {"workload": workload.name, "setup_s": setup_s}
    if not trace:
        result = work / "calls.json"
        proc = run_process([sys.executable, str(WORKER), workload.name, str(seed),
                            str(work / "graphs"), str(work), str(seconds), str(result)],
                           work / "worker.log", deadline)
        if proc["exit"] != 0:
            raise RuntimeError("worker failed:\n" + (work / "worker.log").read_text()[-2000:])
        calls = json.loads(result.read_text())
        report["calls"] = calls
        metrics, cases = end_to_end(calls, setup_s, proc["peak_rss_mb"])
        return report, calls, metrics, E2E_UNITS, cases
    untraced = run_round(workload, seed, work, deadline)
    traced = run_round(workload, seed, work, deadline, traced=True)
    probe_spans, probe_out = work / "spans" / "probes.json", work / "probes.json"
    probe = run_process([sys.executable, str(TRACER), "probes", str(probe_spans),
                         str(probe_out)], work / "probes.log", deadline)
    if probe["exit"] != 0:
        raise RuntimeError("probes failed:\n" + (work / "probes.log").read_text()[-2000:])
    case_spans = {}
    for i, case in enumerate(workload.cases):
        path = work / "spans" / f"case{i + 1}.json"
        case_spans[case.name] = json.loads(path.read_text()) if path.is_file() else []
    metrics = per_layer(case_spans, json.loads(probe_spans.read_text()),
                        json.loads(probe_out.read_text()), traced, untraced)
    report.update(untraced=untraced, traced=traced,
                  spans=sorted(str(p) for p in (work / "spans").iterdir()))
    return report, untraced + traced, metrics, per_layer_units(), {}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> int:
    """Measure one workload and print its report; the last line printed is
    the JSON result."""
    try:
        rep, results, metrics, units, cases = measure(
            WORKLOADS[name], seed, seconds, trace, Deadline(RUN_LIMIT_S))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = summarize(results)
    report_path = WORK / f"report-{name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(
        {"environment": env, "workload": rep, "metrics": metrics}, indent=1, default=str))
    print(json.dumps({"environment": env}))
    for r in results if trace else []:
        print(f"{r['case']:<26} exit {r['exit']} wall {r['wall_s']:.3f} s "
              f"rss {r['peak_rss_mb']:.0f} MB sha256 " + digests(r))
    print_table(metrics, units)
    for case, value in cases.items():
        calls = [r for r in results if r["case"] == case]
        fastest = min(r["wall_s"] for r in calls)
        print(f"case {case:<21} {value:>8.4f} s median, {fastest:>8.4f} s fastest "
              f"of {len(calls):>3} calls, sha256 " + digests(calls[-1]))
    warning = unrecorded_seed_warning(name, seed)
    if warning:
        print(warning)
    print(f"report: {report_path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "isinglab" / "cli.py").is_file():
        print(f"error: no isinglab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    env = environment(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # `all` runs the workloads one after another, each with its own report
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace), env)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
