"""Workload definitions: the CLI cases each workload times, and their checks.

A case is one ``python -m isinglab ...`` invocation.  ``{seed}`` in its
arguments becomes the workload seed and ``{graphs}`` the directory that the
workload's set-up filled with ``graph-gen`` outputs.  Every case is checked
after it ran; a check returns a list of problems, empty when the outputs are
right.

Deterministic outputs are compared with the files recorded at the seed commit
(``reference/``, written by ``record_reference.py``) to 1e-9 relative.
Outputs that depend on the workload seed through a sampled graph are compared
with ``reference/per_seed.json`` when it holds that seed, and otherwise only
with the invariants below.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
# stationarity errors and the like are rounding noise near 1e-17; they agree
# with the recorded value when both sit below this floor
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    name: str  # end-to-end metric name in the combined report
    argv: tuple
    check: Callable[[Path, int], list]
    data_files: tuple  # outputs whose SHA-256 is reported


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple
    setup: tuple = ()  # graph-gen argument lists, timed in setup_s


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or abs(a - b) <= ABS_TOL
    return a == b


def compare(got, want, where: str) -> list:
    """Recursive comparison of parsed JSON/CSV values; returns problems."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        out = []
        for key in want:
            out += compare(got[key], want[key], f"{where}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r}"
                    f" != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{where}[{i}]")
            if len(out) > 5:
                break
        return out
    return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


def read_data(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, rows = read_csv(path)
    return {"header": header, "rows": rows}


def _missing(out: Path, names) -> list:
    return [f"{n}: missing" for n in names if not (out / n).is_file()]


def matches_reference(case_id: str, names):
    """Check data files against ``reference/<case_id>/<name>``."""

    def check(out: Path, seed: int) -> list:
        problems = _missing(out, names)
        for name in names:
            if not problems:
                want = read_data(REFERENCE / case_id / name)
                problems += compare(read_data(out / name), want, name)
        return problems

    return check


def _per_seed_reference(case_id: str, seed: int):
    path = REFERENCE / "per_seed.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(case_id, {}).get(str(seed))


def matches_seed_reference(case_id: str, name: str, invariants):
    """Check a seed-dependent JSON output by its invariants, and against the
    value recorded for this seed when there is one."""

    def check(out: Path, seed: int) -> list:
        problems = _missing(out, [name])
        if problems:
            return problems
        got = json.loads((out / name).read_text())
        problems = invariants(got)
        want = _per_seed_reference(case_id, seed)
        if want is not None:
            problems += compare(got, want, name)
        return problems

    return check


# ---------------------------------------------------------------------------
# Trace outputs: invariants, and statistics against the seed commit's spread
# ---------------------------------------------------------------------------

# Trace statistics recorded by record_reference.py: for each statistic, the
# mean over the recorded seeds and a tolerance from their spread
TRACE_STATS = REFERENCE / "trace_stats.json"


def stat_tolerance(values: list) -> dict:
    """Mean of a statistic over the recorded traces, and how far a trace's
    value may lie from it: six standard deviations, and at least 1 % of the
    mean, so that a chain with another random stream still passes while a
    frozen or wrong chain does not."""
    mean = statistics.fmean(values)
    return {"mean": mean, "tol": max(6 * statistics.stdev(values), 0.01 * abs(mean))}


# Statistics are phase-symmetric (|eta|, mono_edges): a low-temperature
# chain may escape to the other phase and still be right.


def within_stats(stats_id: str, samples: list) -> list:
    """Check each trace's statistics against the recorded mean and tolerance."""
    want = json.loads(TRACE_STATS.read_text())[stats_id]
    problems = []
    for i, sample in enumerate(samples):
        for key, value in sample.items():
            mean, tol = want[key]["mean"], want[key]["tol"]
            if not abs(value - mean) <= tol:
                problems.append(f"{stats_id} trace {i}: {key} = {value:.6g}, "
                                f"recorded {mean:.6g} +- {tol:.3g}")
    return problems


def _eta_ok(eta: float, plus: float, n: int) -> bool:
    return abs(eta - (2 * plus - n) / n) <= 1e-9


# A trace must move: at least this share of its rows differ from the row
# before.  Frozen chains give 0; Glauber traces move on about 3 rows in 4,
# the others on more.
MIN_MOVED = 0.5


class _SecondHalf:
    """Running means over the second half of a trace, and the share of rows
    whose watched columns differ from the row before."""

    def __init__(self, rows: int):
        self.first, self.count, self.moved, self.sums = rows // 2, 0, 0, {}

    def add(self, i: int, values: dict, watched: tuple, previous: tuple) -> None:
        if i and watched != previous:
            self.moved += 1
        if i >= self.first:
            self.count += 1
            for key, value in values.items():
                self.sums[key] = self.sums.get(key, 0.0) + value

    def sample(self) -> dict:
        return {key: total / self.count for key, total in self.sums.items()}

    def stuck(self, rows: int, where: str) -> list:
        share = self.moved / (rows - 1)
        return [f"{where}: only {share:.3g} of the rows move"] if share < MIN_MOVED else []


def scan_trace(path: Path, n: int, delta: int, steps: int, thin: int,
               kind: str, k: int = None, phi: float = None) -> tuple:
    """Check a ``simulate`` trace row by row and return (problems, sample).

    Every trace has steps/thin + 1 rows at t = i*thin.  On a simple
    delta-regular graph with |E| = n delta / 2:

    - glauber rows (t, plus_count, mono_edges, eta): eta = (2 plus - n)/n,
      0 <= mono <= |E|; between rows plus moves by at most thin and mono by
      at most thin*delta, and a flip moves mono by an amount of delta's
      parity, so d(mono) - delta*d(plus) is even;
    - kawasaki rows: as glauber, with plus_count = k, and a swap moves mono
      by an even amount of at most 2 delta;
    - coupled rows (t, n_disagree, n_bad, rho): rho = phi n_disagree + n_bad,
      0 <= n_disagree <= k, n_bad >= 0.

    The trace must move (MIN_MOVED).  The sample holds its second-half means:
    |eta| and mono_edges/n, or n_disagree/k."""
    edges = n * delta // 2
    rows = steps // thin + 1
    half = _SecondHalf(rows)
    problems, count, prev = [], 0, None
    # streamed, not loaded: a child's peak RSS starts at this process's
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, cells in enumerate(reader):
            count += 1
            row = [float(c) for c in cells]
            bad = []
            if row[0] != i * thin:
                bad.append(f"t = {row[0]}")
            if kind == "coupled":
                t, n_dis, n_bad, rho = row
                if abs(rho - (phi * n_dis + n_bad)) > 1e-9:
                    bad.append(f"rho {rho} != {phi}*{n_dis}+{n_bad}")
                if not (0 <= n_dis <= k and n_bad >= 0):
                    bad.append(f"n_disagree {n_dis}, n_bad {n_bad}")
                if i < rows:
                    half.add(i, {"disagree": n_dis / k}, (n_dis, n_bad), prev)
                prev = (n_dis, n_bad)
            else:
                t, plus, mono, eta = row
                if not _eta_ok(eta, plus, n):
                    bad.append(f"eta {eta} != (2*{plus}-n)/n")
                if kind == "kawasaki" and plus != k:
                    bad.append(f"plus_count {plus} != {k}")
                if not 0 <= mono <= edges:
                    bad.append(f"mono_edges {mono} outside [0, {edges}]")
                if prev is not None:
                    dp, dm = plus - prev[0], mono - prev[1]
                    step_max = delta if kind == "glauber" else 2 * delta
                    if abs(dp) > thin or abs(dm) > thin * step_max:
                        bad.append(f"moved by {dp} plus, {dm} mono in {thin} steps")
                    if (dm - (delta * dp if kind == "glauber" else 0)) % 2:
                        bad.append(f"mono moved by {dm}, of the wrong parity")
                if i < rows:
                    values = {"mono_per_n": mono / n}
                    if kind == "glauber":
                        values["abs_eta"] = abs(eta)
                    half.add(i, values, (plus, mono), prev)
                prev = (plus, mono)
            if bad and len(problems) <= 5:
                problems.append(f"trace.csv row {i}: " + "; ".join(bad))
    if count != rows:
        problems.append(f"trace.csv: {count} rows, want {rows}")
        return problems, None
    return problems + half.stuck(rows, "trace.csv"), half.sample()


# The chains workload's simulate cases, by statistics id: the case name and
# the shape of its trace (graph, steps, thin and chain parameters)
SIMULATE_TRACES = {
    "chains.glauber": ("simulate.glauber_s", dict(
        n=2000, delta=3, steps=100_000, thin=10, kind="glauber")),
    "chains.kawasaki": ("simulate.kawasaki_s", dict(
        n=2000, delta=3, steps=150_000, thin=1000, kind="kawasaki", k=1000)),
    "chains.coupled": ("simulate.coupled_s", dict(
        n=600, delta=3, steps=50, thin=10, kind="coupled", k=300, phi=0.5)),
}


def trace_csv(stats_id: str):
    """A ``simulate`` trace: the invariants of scan_trace, and its statistics
    within the spread recorded at the seed commit (``stats_id``)."""
    shape = SIMULATE_TRACES[stats_id][1]

    def check(out: Path, seed: int) -> list:
        problems = _missing(out, ["trace.csv"])
        if problems:
            return problems
        problems, sample = scan_trace(out / "trace.csv", **shape)
        if sample is not None:
            problems += within_stats(stats_id, [sample])
        return problems

    return check


def gap_report(states: int):
    def invariants(rep) -> list:
        gap, tmix = rep.get("gap"), rep.get("mixing_time_upper")
        if rep.get("states") != states:
            return [f"spectra.json: states {rep.get('states')} != {states}"]
        if not (isinstance(gap, float) and 0 < gap <= 2):
            return [f"spectra.json: gap {gap!r} outside (0, 2]"]
        if not (isinstance(tmix, float) and tmix >= 1 / gap):
            return [f"spectra.json: mixing_time_upper {tmix!r} < 1/gap"]
        return []

    return invariants


def exactcheck_report(rep) -> list:
    problems = [] if rep.get("all_passed") is True else ["exactcheck.json: all_passed"]
    for kind in ("kawasaki", "downup", "glauber"):
        if not rep.get(f"{kind}_stationarity_error", 1.0) < 1e-10:
            problems.append(f"exactcheck.json: {kind} stationarity error")
    return problems


def edgeworth_report(rep) -> list:
    kappas, errs = rep.get("kappas", []), rep.get("sup_errors", {})
    if len(kappas) != 5 or not all(math.isfinite(x) for x in kappas):
        return [f"spectra.json: kappas {kappas!r}"]
    if not (0 < kappas[0] < rep["graph_n"] and kappas[1] > 0):
        return ["spectra.json: mean size or variance out of range"]
    if sorted(errs) != ["d0", "d1", "d2"] or \
            not all(math.isfinite(e) and e >= 0 for e in errs.values()):
        return [f"spectra.json: sup_errors {errs!r}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


# Each call of a case takes 0.1-0.5 s on a 2-core VM, so that a run makes
# dozens of calls of each and its median does not rest on a few long samples
# taken while a shared host is busy (see README.md).  Larger inputs (3 432-
# state kernels, 2^22-state enumerations, the 416-solve union search) are
# timed by the probes of the traced run.
WORKLOADS = {
    # Seeded simulation.  Loads the per-step loops of dynamics and the CSV
    # writing of cli, with graphs in set-up.  Builds no exact kernel,
    # enumerates nothing and solves no tree recursion, so sparse-kernel,
    # enumeration and tree-solver changes must leave it flat.
    "chains": Workload(
        name="chains",
        why="seeded Glauber/Kawasaki/coupled chains: per-step loops and CSV "
            "writing; bypasses exact kernels, enumeration and tree solvers",
        setup=(
            ("graph-gen", "--n", "2000", "--delta", "3", "--simple",
             "--seed", "{seed}", "--out", "{graphs}", "--out-file", "g2000.edges"),
            ("graph-gen", "--n", "600", "--delta", "3", "--simple",
             "--seed", "{seed}", "--out", "{graphs}", "--out-file", "g600.edges"),
        ),
        cases=(
            # 10k rows: the cli CSV formatting is a visible share.  Above the
            # critical temperature, so that the cost per step does not hinge
            # on the phase a seed's chain falls into
            Case("simulate.glauber_s",
                 ("simulate", "--chain", "glauber", "--graph", "{graphs}/g2000.edges",
                  "--beta", "0.4", "--lam", "1.01", "--steps", "100000",
                  "--thin", "10", "--seed", "{seed}"),
                 trace_csv("chains.glauber"), ("trace.csv",)),
            # bound by step cost; few rows
            Case("simulate.kawasaki_s",
                 ("simulate", "--chain", "kawasaki", "--graph", "{graphs}/g2000.edges",
                  "--beta", "0.9", "--k", "1000", "--steps", "150000",
                  "--thin", "1000", "--seed", "{seed}"),
                 trace_csv("chains.kawasaki"), ("trace.csv",)),
            # CoupledKawasaki.step recomputes D and B in O(n k) per step
            Case("simulate.coupled_s",
                 ("simulate", "--chain", "coupled-kawasaki",
                  "--graph", "{graphs}/g600.edges", "--beta", "0.5", "--k", "300",
                  "--steps", "50", "--thin", "10", "--seed", "{seed}"),
                 trace_csv("chains.coupled"), ("trace.csv",)),
        ),
    ),
    # Tree recursion and the annealed landscape: all thresholds and
    # meanfield (field solves, lambda_u bisection, f_eta).  Bypasses the
    # exact kernels and the chain loops.
    "tree": Workload(
        name="tree",
        why="tree fixed points, thresholds, phase diagram and landscape; "
            "bypasses exact kernels and chain loops",
        cases=(
            # 3 betas, each a lambda_u bisection and four field solves
            Case("phase_diagram_s",
                 ("phase-diagram", "--delta", "3", "--beta-min", "0.2",
                  "--beta-max", "1.5", "--steps", "3", "--seed", "{seed}"),
                 matches_reference("tree.phase_diagram", ["phase_diagram.csv"]),
                 ("phase_diagram.csv",)),
            # nearly all f_eta calls
            Case("landscape_s",
                 ("landscape", "--delta", "3", "--beta", "1.2", "--lambda", "1.01",
                  "--grid", "5e-3", "--seed", "{seed}"),
                 matches_reference("tree.landscape",
                                   ["landscape.csv", "landscape_critical.json"]),
                 ("landscape.csv", "landscape_critical.json")),
            Case("thresholds_s",
                 ("thresholds", "--delta", "4", "--beta", "0.7931", "--seed", "{seed}"),
                 matches_reference("tree.thresholds", ["thresholds.json"]),
                 ("thresholds.json",)),
        ),
    ),
    # The exact oracles: measures enumeration, dynamics kernel builders and
    # spectral eigensolves, with no chain loops.  One larger kernel (924
    # states, two eigensolves) and many small ones (exactcheck), so a sparse
    # rewrite that helps the first and slows the second shows up here.
    "exact": Workload(
        name="exact",
        why="exact kernels, eigensolves and Gray-code enumeration, large and "
            "small; bypasses chain loops and tree solvers",
        cases=(
            Case("spectra.gap_s",
                 ("spectra", "--report", "gap", "--chain", "kawasaki", "--n", "12",
                  "--delta", "3", "--beta", "0.5", "--k", "6", "--seed", "{seed}"),
                 matches_seed_reference("exact.gap", "spectra.json", gap_report(924)),
                 ("spectra.json",)),
            # the kl down-up build is a Python triple loop
            Case("spectra.kl_gap_s",
                 ("spectra", "--report", "gap", "--chain", "kl_downup", "--n", "11",
                  "--delta", "4", "--beta", "0.5", "--k", "5", "--ell", "3",
                  "--seed", "{seed}"),
                 matches_seed_reference("exact.kl_gap", "spectra.json", gap_report(462)),
                 ("spectra.json",)),
            # many small kernels: 512-state Glauber, 126-state Kawasaki and
            # down-up, and 9 pinned down-up kernels
            Case("exactcheck_s",
                 ("exactcheck", "--n", "9", "--delta", "4", "--k", "4",
                  "--seed", "{seed}"),
                 matches_seed_reference("exact.exactcheck", "exactcheck.json",
                                        exactcheck_report),
                 ("exactcheck.json",)),
            # Gray-code enumeration of 2^18 states
            Case("spectra.edgeworth_s",
                 ("spectra", "--report", "edgeworth", "--n", "18", "--delta", "3",
                  "--beta", "0.5", "--lam", "1.01", "--seed", "{seed}"),
                 matches_seed_reference("exact.edgeworth", "spectra.json",
                                        edgeworth_report),
                 ("spectra.json",)),
        ),
    ),
}

# What record_reference.py records, by reference id: the case (workload, case
# name) and its files.  Per-seed references hold seed-dependent JSON outputs
# for workload seeds 0 .. RECORDED_SEEDS - 1; the trace statistics are taken
# over as many seeds.
RECORDED_SEEDS = 64
PER_SEED_CASES = {
    "exact.gap": ("exact", "spectra.gap_s", "spectra.json"),
    "exact.kl_gap": ("exact", "spectra.kl_gap_s", "spectra.json"),
    "exact.exactcheck": ("exact", "exactcheck_s", "exactcheck.json"),
    "exact.edgeworth": ("exact", "spectra.edgeworth_s", "spectra.json"),
}
STATIC_CASES = {
    "tree.phase_diagram": ("tree", "phase_diagram_s", ("phase_diagram.csv",)),
    "tree.landscape": ("tree", "landscape_s", ("landscape.csv", "landscape_critical.json")),
    "tree.thresholds": ("tree", "thresholds_s", ("thresholds.json",)),
}


def unrecorded_seed_warning(workload: str, seed: int):
    """A warning when the workload's seed-dependent outputs have no recorded
    value for this seed, so only their invariants are checked; else None."""
    ids = [cid for cid, (name, _, _) in PER_SEED_CASES.items() if name == workload]
    if ids and _per_seed_reference(ids[0], seed) is None:
        return (f"warning: no reference recorded for seed {seed} (only seeds "
                f"0-{RECORDED_SEEDS - 1}); {', '.join(ids)} are checked by "
                f"their invariants only")
    return None
