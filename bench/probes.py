"""Layer probes: fixed inputs at graded sizes, timed with a fixed amount of work.

Each probe times one layer call (or a fixed number of steps) and reports a
per-unit cost, so that growth with n, state count or free vertices shows the
complexity rather than a constant factor.  The probes run traced, after the
wrappers are installed, so their calls also count towards the per-layer busy
times; every wrapped function is reached here at least once, which keeps each
per-layer time above zero on every workload.  The wrapper costs about 1 us
per call, which the per-step figures include.
"""

from __future__ import annotations

import time

import numpy as np

from isinglab import dynamics, graphs, measures, meanfield, metastability, spectral
from isinglab import thresholds
from isinglab.rng import make_rng
from layers import ENUM_SIZES, KERNEL_SIZES, STEP_SIZES, TRACE_N, TRACE_T



def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _steps(kind: str, n: int, steps: int) -> float:
    """Seconds for ``steps`` calls of one step API on a random cubic graph."""
    g = graphs.random_regular(n, 3, seed=0)
    rng = make_rng(0)
    k = n // 2
    spins = [1 if v < k else -1 for v in range(n)]
    if kind == "coupled_step":
        coupled = dynamics.CoupledKawasaki(g, 0.5, k, measures.EMPTY_PINNING, 0.5)
        state = coupled.make_state(range(k), range(n - k, n))
        t0 = time.perf_counter()
        for _ in range(steps):
            state = coupled.step(state, rng)
        return time.perf_counter() - t0
    sigma = measures.SpinConfiguration.from_spins(g, spins)
    params = measures.IsingParams(beta=0.5, lam=1.0)
    t0 = time.perf_counter()
    for _ in range(steps):
        if kind == "glauber_step":
            sigma = dynamics.glauber_step(g, params, sigma, rng)
        elif kind == "kawasaki_step":
            sigma = dynamics.kawasaki_step(g, 0.5, k, measures.EMPTY_PINNING, sigma, rng)
        else:
            sigma = dynamics.downup_step(g, 0.5, k, measures.EMPTY_PINNING, sigma, rng)
    return time.perf_counter() - t0


def _trace_probes(out: dict) -> None:
    g = graphs.random_regular(TRACE_N, 3, seed=0)
    k = TRACE_N // 2
    runs = {
        "run_glauber_trace": (metastability.run_glauber_trace,
                              (g, 1.2, 1.01, "all_minus", TRACE_T, 0), {"record_every": 200}),
        "run_kawasaki_trace": (metastability.run_kawasaki_trace,
                               (g, 0.9, k, "band_sample", TRACE_T, 0), {"record_every": 200}),
        "trace_rows_glauber": (metastability.trace_rows_glauber,
                               (g, 1.2, 1.01, "all_minus", TRACE_T, 0), {"thin": 10}),
        "trace_rows_kawasaki": (metastability.trace_rows_kawasaki,
                                (g, 0.9, k, "band_sample", TRACE_T, 0), {"thin": 1000}),
    }
    for name, (fn, args, kwargs) in runs.items():
        out[f"metastability.{name}.us_per_step"] = 1e6 * _timed(fn, *args, **kwargs) / TRACE_T
    g200 = graphs.random_regular(200, 3, seed=0)
    out["metastability.trace_rows_coupled.us_per_step"] = 1e6 * _timed(
        metastability.trace_rows_coupled, g200, 0.5, 100, 0.5, 300, 0, thin=10) / 300


def _tree_probes(out: dict) -> None:
    for name, fn, args, reps in (
        ("eta_plus", thresholds.eta_plus, (3, 1.2, 1.01), 10),
        ("tree_fixed_points", thresholds.tree_fixed_points, (3, 1.2, 1.01), 20),
        ("lambda_u", thresholds.lambda_u, (3, 1.2), 3),
    ):
        t = sum(_timed(fn, *args) for _ in range(reps))
        out[f"thresholds.{name}.ms"] = 1e3 * t / reps
    etas = np.linspace(-0.9, 0.9, 500)
    t = sum(_timed(meanfield.f_eta, float(e), 3, 1.2, 1.01) for e in etas)
    out["meanfield.f_eta.us"] = 1e6 * t / len(etas)


def _kernel_probes(out: dict, tracer) -> None:
    for n, k in KERNEL_SIZES:
        g = graphs.random_regular(n, 4, seed=0)
        kernel = dynamics.ChainKernel("kawasaki", beta=0.5, k=k)
        tm = dynamics.build_transition_matrix(kernel, g)
        # the span's own times: the wrapper counts nonzeros after it closes
        start, end = next((s[3], s[4]) for s in reversed(tracer.spans)
                          if s[2] == "dynamics.build_transition_matrix")
        states = len(tm.states)
        out[f"dynamics.build_transition_matrix.s.states{states}"] = end - start
        out[f"spectral.spectral_gap.s.states{states}"] = _timed(spectral.spectral_gap, tm)
        del tm


def _enumeration_probes(out: dict) -> None:
    for n in ENUM_SIZES:
        g = graphs.random_regular(n, 3, seed=0)
        t0 = time.perf_counter()
        table = measures.exact_partition_table(g, 0.5)
        out[f"measures.exact_partition_table.s.free{n}"] = time.perf_counter() - t0
    spectral.lclt_error(table, 1.01, d=1)


def _coverage_calls(workdir: str) -> None:
    """One small call of each wrapped layer the probes above do not reach."""
    metastability.trace_bands(3, 1.2, 1.01)
    thresholds.compute_thresholds(4, 0.7931)
    g = graphs.random_regular(8, 3, seed=0)
    spectral.gap_factorization_check(g, 0.5, 4, 1)
    spectral.mixing_time_upper(
        dynamics.build_transition_matrix(dynamics.ChainKernel("kawasaki", beta=0.5, k=4), g))
    path = f"{workdir}/probe_graph.edges"
    graphs.write_edge_list(g, path)
    graphs.read_edge_list(path)


def run_probes(tracer, workdir: str) -> dict:
    """Run every probe inside its own root span; return metric -> value."""
    out = {}
    for kind, sizes in STEP_SIZES.items():
        for n, steps in sizes:
            secs = tracer.rooted(f"probe.{kind}.n{n}", _steps, kind, n, steps)
            out[f"dynamics.{kind}.us.n{n}"] = 1e6 * secs / steps
    tracer.rooted("probe.traces", _trace_probes, out)
    tracer.rooted("probe.tree", _tree_probes, out)
    # a target above the rational shortcut: a bisection of 416 field solves
    # that lands on (m, ell) = (3, 2)
    tracer.rooted("probe.union", metastability.find_union_parameters, 3, 1.2, 0.3)
    tracer.rooted("probe.kernels", _kernel_probes, out, tracer)
    tracer.rooted("probe.enumeration", _enumeration_probes, out)
    tracer.rooted("probe.coverage", _coverage_calls, workdir)
    return out
