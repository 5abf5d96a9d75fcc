"""The layers the benchmark attributes time to, and its per-layer metrics.

``LAYERS`` lists, per isinglab module, the public functions ``tracer.py``
wraps; the sizes below are the graded inputs of ``probes.py``.  Both
``run_bench.py`` and ``BENCHMARK.json`` take the metric list from
``per_layer_units``.  The tracer fails loudly when a listed function is
missing, so a change that renames or removes one updates this list.
"""

from math import comb

# module -> public functions wrapped, in call-graph order (callers first)
LAYERS = {
    "graphs": ("random_regular", "read_edge_list"),
    "measures": ("exact_partition_table", "fixed_k_states"),
    "thresholds": ("compute_thresholds", "lambda_u", "lambda_a_bar", "eta_plus",
                   "eta_minus", "tree_fixed_points"),
    "meanfield": ("critical_points", "f_eta"),
    "dynamics": ("build_transition_matrix", "glauber_step", "kawasaki_step",
                 "downup_step", "CoupledKawasaki.step"),
    "spectral": ("gap_factorization_check", "mixing_time_upper", "spectral_gap",
                 "lclt_error"),
    "metastability": ("find_union_parameters", "trace_bands", "run_glauber_trace",
                      "run_kawasaki_trace", "trace_rows_glauber",
                      "trace_rows_kawasaki", "trace_rows_coupled"),
}

# (n, steps) per step API; steps shrink as the O(n) cost per step grows
STEP_SIZES = {
    "glauber_step": ((100, 2000), (1000, 400), (10000, 40)),
    "kawasaki_step": ((100, 2000), (1000, 400), (10000, 40)),
    "downup_step": ((100, 400), (1000, 40)),
    "coupled_step": ((200, 400), (1000, 30)),
}
# Kawasaki kernels of C(12,6), C(13,6) and C(14,7) states on 4-regular graphs
KERNEL_SIZES = ((12, 6), (13, 6), (14, 7))
ENUM_SIZES = (16, 20, 22)
TRACE_N, TRACE_T = 1000, 200_000

# per-layer metrics: wrapped function -> reported with .s and .calls; these
# also report .self_s because they call other wrapped functions
SELF_TIMED = (
    "thresholds.compute_thresholds", "thresholds.lambda_u",
    "meanfield.critical_points", "dynamics.build_transition_matrix",
    "spectral.gap_factorization_check", "spectral.mixing_time_upper",
    "metastability.find_union_parameters", "metastability.trace_bands",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, names in LAYERS.items():
        for name in names:
            units[f"{mod}.{name}.s"] = "s"
            units[f"{mod}.{name}.calls"] = "count"
            if f"{mod}.{name}" in SELF_TIMED:
                units[f"{mod}.{name}.self_s"] = "s"
    for kind, sizes in STEP_SIZES.items():
        for n, _ in sizes:
            units[f"dynamics.{kind}.us.n{n}"] = "us"
    for name in ("run_glauber_trace", "run_kawasaki_trace", "trace_rows_glauber",
                 "trace_rows_kawasaki", "trace_rows_coupled"):
        units[f"metastability.{name}.us_per_step"] = "us"
    for name in ("eta_plus", "tree_fixed_points", "lambda_u"):
        units[f"thresholds.{name}.ms"] = "ms"
    units["meanfield.f_eta.us"] = "us"
    for n, k in KERNEL_SIZES:
        units[f"dynamics.build_transition_matrix.s.states{comb(n, k)}"] = "s"
        units[f"spectral.spectral_gap.s.states{comb(n, k)}"] = "s"
    for n in ENUM_SIZES:
        units[f"measures.exact_partition_table.s.free{n}"] = "s"
    units.update({
        "dynamics.kernel.states": "count",
        "dynamics.kernel.bytes": "bytes",
        "dynamics.kernel.nonzeros": "count",
        "measures.exact_partition_table.states": "count",
        "metastability.find_union_parameters.field_solves": "count",
        "spectra.gap.spectral_gap_calls": "count",
        "cli.self_s": "s",
        "cli.bytes_written": "bytes",
        "trace.overhead_s": "s",
    })
    return units
