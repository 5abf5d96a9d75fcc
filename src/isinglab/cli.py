"""Unified command-line front end.

Subcommands: thresholds, phase-diagram, landscape, simulate, spectra,
exactcheck, metastability, graph-gen.  Every run writes its artifacts plus a
manifest recording the exact parameter set, seed, package and numpy versions,
and wall time.  Data outputs are byte-identical across reruns of the same
config and seed (the manifest's wall-time field is the one exception).

A config file of flat ``key = value`` lines can pre-populate any flag;
explicit flags override the file.  Exit codes: 0 ok, 1 failed check
(exactcheck, a non-reversible kernel, a degenerate spectrum or tree fixed
points out of order), 2 validation error (also a missing input file, or a
float overflow at extreme beta or lambda), 3 runtime cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    InvalidInputError,
    IsinglabError,
    NoNonuniquenessError,
    RetriesExhaustedError,
    TooLargeError,
)
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME_CAP = 3


def fmt(x) -> str:
    """Floats at 12 significant digits; everything else via str."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _json_ready(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    np = sys.modules.get("numpy")  # a numpy scalar means numpy is loaded
    if np is not None and isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    return obj


@functools.cache
def _numpy_version() -> str:
    """numpy's version, without importing numpy for the commands that need none.

    Read off the one ``numpy-<version>.dist-info`` directory beside the
    package; ``importlib.metadata``, whose import slows a fresh process's
    start, is the fallback for an install without one."""
    np = sys.modules.get("numpy")
    if np is not None:
        return np.__version__
    from importlib.util import find_spec

    spec = find_spec("numpy")
    if spec is not None and spec.origin:
        infos = list(Path(spec.origin).parents[1].glob("numpy-*.dist-info"))
        if len(infos) == 1:
            return infos[0].name[len("numpy-"):-len(".dist-info")]
    from importlib.metadata import version

    return version("numpy")


class RunContext:
    """Tracks written artifacts so failures leave no partial outputs."""

    def __init__(self, out_dir: Path, command: str, params: dict):
        self.out_dir = out_dir
        self.command = command
        self.params = params
        self.written = []
        self.t0 = time.time()

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        self.written.append(p)
        return p

    def write_json(self, name: str, payload) -> Path:
        p = self.path(name)
        p.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")
        return p

    def write_csv(self, name: str, header, rows) -> Path:
        """Rows formatted as ``fmt`` would, one template per column-type tuple:
        the first row's, with a per-cell ``fmt`` for rows of other types."""
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(",".join(header) + "\n")
            types = template = None
            for row in rows:
                if types is None:
                    types = tuple(map(type, row))
                    template = ",".join("{:.12g}" if issubclass(t, float) else "{}"
                                        for t in types) + "\n"
                if tuple(map(type, row)) == types:
                    fh.write(template.format(*row))
                else:
                    fh.write(",".join(fmt(x) for x in row) + "\n")
        return p

    def finish(self) -> None:
        # params is read only now, so a live vars(args) records the defaults
        # the handler filled in
        params = {k: v for k, v in self.params.items()
                  if k not in ("func", "config", "command")}
        manifest = {
            "command": self.command,
            "parameters": _json_ready(params),
            "isinglab_version": __version__,
            "numpy_version": _numpy_version(),
            "wall_time_s": round(time.time() - self.t0, 3),
            "outputs": [p.name for p in self.written],
        }
        (self.out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )

    def cleanup(self) -> None:
        for p in self.written:
            try:
                p.unlink()
            except OSError:
                pass


def validate_args(args) -> list:
    """Check module preconditions before dispatch; returns problem strings."""
    problems = []
    for name, val in vars(args).items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (val if isinstance(val, list) else [val])):
            problems.append(f"--{name.replace('_', '-')} must be finite")
    beta = getattr(args, "beta", None)
    if beta is not None and beta < 0:
        problems.append("beta must be >= 0 (ferromagnetic only)")
    for name in ("lam", "eta"):
        val = getattr(args, name, None)
        if name == "lam" and val is not None and val <= 0:
            problems.append("lambda must be > 0")
        if name == "eta" and val is not None and not (-1 <= val <= 1):
            problems.append("eta must lie in [-1, 1]")
    n = getattr(args, "n", None)
    k = getattr(args, "k", None)
    if n is not None and n < 2 and args.command != "thresholds":
        problems.append("need n >= 2")
    if k is not None and k < 0:
        problems.append("k must be nonnegative")
    if k is not None and n is not None and k > n:
        problems.append(f"k = {k} exceeds n = {n}")
    ell = getattr(args, "ell", None)
    if ell is not None and k is not None and not (0 <= ell <= k - 1):
        problems.append("need 0 <= ell <= k - 1")
    for name in ("steps", "T", "thin", "seeds", "m"):
        val = getattr(args, name, None)
        if val is not None and val < 1:
            problems.append(f"{name} must be >= 1")
    if args.command == "phase-diagram" and args.steps == 1:
        problems.append("phase-diagram needs steps >= 2")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        problems.append("seed must be >= 0")
    delta = getattr(args, "delta", None)
    if delta is not None and delta < 0:
        problems.append("delta must be nonnegative")
    if args.command in ("thresholds", "phase-diagram", "landscape",
                        "metastability") and (delta is not None and delta < 3):
        problems.append("tree thresholds need delta >= 3")
    return problems


def _load_graph(args):
    from .graphs import random_regular, read_edge_list

    if getattr(args, "graph", None):
        return read_edge_list(args.graph)
    if getattr(args, "n", None) and getattr(args, "delta", None):
        return random_regular(
            args.n, args.delta, seed=args.seed,
            simple=getattr(args, "simple", False),
        )
    raise InvalidInputError("provide --graph FILE or --n and --delta")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_thresholds(args, ctx: RunContext) -> int:
    from .thresholds import compute_thresholds

    ts = compute_thresholds(args.delta, args.beta, lam=args.lam)
    ctx.write_json("thresholds.json", ts.to_dict())
    return EXIT_OK


def cmd_phase_diagram(args, ctx: RunContext) -> int:
    from .thresholds import compute_thresholds

    if args.beta_max <= args.beta_min:
        raise InvalidInputError("need beta_max > beta_min")
    betas = [
        args.beta_min + i * (args.beta_max - args.beta_min) / (args.steps - 1)
        for i in range(args.steps)
    ]
    header = ["beta", "lambda_u", "lambda_a_bar", "eta_c", "eta_u", "eta_a_bar"]
    rows = []
    for beta in betas:
        ts = vars(compute_thresholds(args.delta, beta))
        rows.append(tuple(math.nan if ts[h] is None else ts[h] for h in header))
    ctx.write_csv("phase_diagram.csv", header, rows)
    return EXIT_OK


def cmd_landscape(args, ctx: RunContext) -> int:
    from .meanfield import ETA_CLIP, _curve, critical_points

    pts = critical_points(args.delta, args.beta, args.lam, grid_resolution=args.grid)
    n_grid = max(2, int(2 / args.grid))
    lo, hi = -1 + ETA_CLIP, 1 - ETA_CLIP
    step = (hi - lo) / n_grid
    # the points of numpy.linspace(lo, hi, n_grid + 1), bit for bit
    etas = [i * step + lo for i in range(n_grid)] + [hi]
    f = _curve(args.delta, args.beta, args.lam)
    rows = [(e, f(e), "interior-critical-none") for e in etas]
    rows.extend((p.eta, p.f_value, p.classification) for p in pts)
    rows.sort(key=lambda r: r[0])
    ctx.write_csv("landscape.csv", ["eta", "f", "classification"], rows)
    ctx.write_json(
        "landscape_critical.json",
        [
            {"eta": p.eta, "f": p.f_value, "classification": p.classification}
            for p in pts
        ],
    )
    return EXIT_OK


def cmd_graph_gen(args, ctx: RunContext) -> int:
    from .graphs import random_regular, write_edge_list

    g = random_regular(args.n, args.delta, seed=args.seed, simple=args.simple)
    out = ctx.path(args.out_file)
    write_edge_list(g, out)
    return EXIT_OK


def cmd_simulate(args, ctx: RunContext) -> int:
    from .metastability import (
        trace_rows_coupled,
        trace_rows_glauber,
        trace_rows_kawasaki,
    )
    from .rng import make_rng

    g = _load_graph(args)
    rng = make_rng(args.seed, 1)  # trace stream; a --n graph takes stream 0
    if args.chain == "glauber":
        if args.lam is None:
            raise InvalidInputError("glauber needs --lam")
        args.start = args.start or "all_minus"
        rows = trace_rows_glauber(
            g, args.beta, args.lam, args.start, args.steps, rng, thin=args.thin
        )
        header = ["t", "plus_count", "mono_edges", "eta"]
    elif args.chain == "kawasaki":
        if args.k is None:
            raise InvalidInputError("kawasaki needs --k")
        args.start = args.start or "band_sample"
        rows = trace_rows_kawasaki(
            g, args.beta, args.k, args.start, args.steps, rng, thin=args.thin
        )
        header = ["t", "plus_count", "mono_edges", "eta"]
    elif args.chain == "coupled-kawasaki":
        if args.k is None:
            raise InvalidInputError("coupled-kawasaki needs --k")
        rows = trace_rows_coupled(
            g, args.beta, args.k, args.phi, args.steps, rng, thin=args.thin
        )
        header = ["t", "n_disagree", "n_bad", "rho"]
    else:
        raise InvalidInputError(f"unknown chain {args.chain!r}")
    ctx.write_csv("trace.csv", header, rows)
    return EXIT_OK


def cmd_spectra(args, ctx: RunContext) -> int:
    from .dynamics import ChainKernel, build_transition_matrix
    from .spectral import (
        fixed_mag_distribution,
        gap_factorization_check,
        grand_canonical_distribution,
        influence_matrix,
        lclt_error,
        local_expansion_zetas,
        local_to_global_gap_bound,
        mixing_time_upper,
        spectral_gap,
    )
    from .measures import cumulants_of_size, exact_partition_table

    g = _load_graph(args)
    report = {"graph_n": g.n, "beta": args.beta, "report": args.report}
    if args.report == "gap":
        kernel = ChainKernel(
            args.chain, beta=args.beta,
            lam=args.lam if args.chain == "glauber" else None,
            k=args.k if args.chain != "glauber" else None,
            ell=args.ell if args.chain == "kl_downup" else None,
        )
        tm = build_transition_matrix(kernel, g)
        gap = spectral_gap(tm)
        report.update(
            chain=args.chain,
            gap=gap,
            mixing_time_upper=mixing_time_upper(tm, gap) if gap > 0 else None,
            states=len(tm.states),
        )
    elif args.report == "influence":
        if args.k is not None:
            X, probs = fixed_mag_distribution(g, args.beta, args.k)
        else:
            if args.lam is None:
                raise InvalidInputError("influence needs --k or --lam")
            X, probs = grand_canonical_distribution(g, args.beta, args.lam)
        infl = influence_matrix(X, probs)
        report.update(
            linf_norm=infl.linf_norm,
            top_eigenvalue=infl.top_eigenvalue,
            has_complex_pair=infl.has_complex_pair,
        )
    elif args.report == "localwalks":
        if args.k is None:
            raise InvalidInputError("localwalks needs --k")
        zetas = local_expansion_zetas(g, args.beta, args.k)
        ell = args.ell if args.ell is not None else args.k - 1
        bound = local_to_global_gap_bound(zetas, ell)
        report.update(
            zetas=list(zetas), ell=ell, gammas=list(bound.gammas),
            gap_lower_bound=bound.bound, collapsed=bound.collapsed,
        )
    elif args.report == "factorization":
        if args.k is None or args.ell is None:
            raise InvalidInputError("factorization needs --k and --ell")
        rep = gap_factorization_check(g, args.beta, args.k, args.ell)
        report.update(
            gap_full=rep.gap_full,
            gap_pinned_inf=rep.gap_pinned_inf,
            gap_kl=rep.gap_kl,
            product=rep.product,
            satisfied=rep.satisfied,
        )
    elif args.report == "edgeworth":
        if args.lam is None:
            raise InvalidInputError("edgeworth needs --lam")
        table = exact_partition_table(g, args.beta)
        kappas = cumulants_of_size(table, args.lam, 5).kappas
        errs = {
            f"d{d}": lclt_error(table, args.lam, d=d).sup_error for d in (0, 1, 2)
        }
        report.update(kappas=list(kappas), sup_errors=errs)
        # recorded zero-freeness assumptions; the artifact does not certify them
        if args.zero_free_domain:
            report["assumed_zero_free_domain"] = list(args.zero_free_domain)
        if args.zero_free_delta is not None:
            report["assumed_zero_free_delta"] = args.zero_free_delta
    else:
        raise InvalidInputError(f"unknown report {args.report!r}")
    ctx.write_json("spectra.json", report)
    return EXIT_OK


def cmd_exactcheck(args, ctx: RunContext) -> int:
    import numpy as np

    from .dynamics import ChainKernel, build_transition_matrix
    from .measures import exact_partition_table, size_distribution
    from .spectral import gap_factorization_check

    g = _load_graph(args)
    k = args.k
    beta = args.beta
    checks = {}
    table = exact_partition_table(g, beta)
    pmf = size_distribution(table, args.lam)
    checks["pmf_normalized"] = bool(abs(float(pmf.sum()) - 1.0) < 1e-12)

    def stationarity(kind, tm=None):
        if tm is None:
            tm = build_transition_matrix(ChainKernel(kind, beta=beta, k=k, lam=args.lam), g)
        err = float(np.max(np.abs(tm.pi @ tm.K - tm.pi)))
        checks[f"{kind}_stationarity_error"] = err
        checks[f"{kind}_stationary_ok"] = bool(err < 1e-10)

    # any k or n the down-up kernel refuses, the Kawasaki one refuses first,
    # so the factorization check can build the down-up kernel last
    stationarity("kawasaki")
    stationarity("glauber")
    if k >= 2:
        rep = gap_factorization_check(g, beta, k, ell=1)
        stationarity("downup", rep.full_kernel)
        checks["factorization_satisfied"] = rep.satisfied
        checks["gap_full"] = rep.gap_full
        checks["gap_product"] = rep.product
    else:
        stationarity("downup")
    ok = all(v for key, v in checks.items() if key.endswith(("_ok", "satisfied")))
    checks["all_passed"] = ok
    ctx.write_json("exactcheck.json", checks)
    return EXIT_OK if ok else 1


def cmd_metastability(args, ctx: RunContext) -> int:
    from .graphs import disjoint_union, random_regular
    from .measures import k_of_eta
    from .metastability import (
        find_union_parameters,
        run_glauber_trace,
        run_kawasaki_trace,
        trace_bands,
    )
    from .rng import make_rng

    if args.T is None:
        args.T = int(100 * args.n * math.log(args.n))
    summary = {
        "mode": args.mode, "delta": args.delta, "beta": args.beta,
        "n": args.n, "T": args.T, "seeds": args.seeds,
        "graph_model": "configuration-multigraph" if not args.simple else "simple",
    }
    if args.mode == "glauber":
        if args.lam is None:
            raise InvalidInputError("glauber mode needs --lam")
        args.start = args.start or "all_minus"
        bp, bm = trace_bands(args.delta, args.beta, args.lam)
        summary.update(lam=args.lam, band_plus=list(bp), band_minus=list(bm))
        per_seed = []
        rows = []
        for r in range(args.seeds):
            # replica r: graph on stream 2r, trace on stream 2r + 1
            g = random_regular(args.n, args.delta, seed=make_rng(args.seed, 2 * r),
                               simple=args.simple)
            tr = run_glauber_trace(
                g, args.beta, args.lam, args.start, args.T,
                seed=make_rng(args.seed, 2 * r + 1),
                record_every=max(1, args.T // 1000), band_plus=bp, band_minus=bm,
            )
            per_seed.append(
                {
                    "seed": r,
                    "dwell_plus": tr.dwell_plus,
                    "dwell_minus": tr.dwell_minus,
                    "hit_plus": tr.hit_plus,
                    "hit_minus": tr.hit_minus,
                }
            )
            rows.extend(
                (r, i * tr.record_every, e) for i, e in enumerate(tr.etas)
            )
        summary["per_seed"] = per_seed
        ctx.write_csv("traces.csv", ["seed", "t", "eta"], rows)
    elif args.mode == "kawasaki-union":
        if args.eta is None:
            raise InvalidInputError("kawasaki-union mode needs --eta")
        if args.start is not None:
            raise InvalidInputError("kawasaki-union always starts split; drop --start")
        params = find_union_parameters(args.delta, args.beta, args.eta)
        m = params.m if args.m is None else args.m
        if m % params.m:
            raise InvalidInputError(
                f"--m must be a multiple of the minimal m = {params.m}"
            )
        scale = m // params.m
        ell = params.ell * scale
        base = random_regular(args.n, args.delta, seed=args.seed, simple=args.simple)
        union = disjoint_union(base, m)
        k_plus = k_of_eta(args.n, params.eta_plus)
        k_minus = k_of_eta(args.n, params.eta_minus)
        k_total = ell * k_plus + (m - ell) * k_minus
        summary.update(
            m=m, ell=ell, lam_plus=params.lam_plus,
            eta_plus=params.eta_plus, eta_minus=params.eta_minus,
            k_plus=k_plus, k_minus=k_minus, k_total=k_total,
        )
        record_every = max(1, args.T // 1000)
        rows = []
        per_seed = []
        for r in range(args.seeds):
            # replica r on stream r + 1 (the base graph's is 0): the split start,
            # l copies at k_plus and the rest at k_minus, then the trace
            rng = make_rng(args.seed, r + 1)
            spins = [-1] * union.n
            for c in range(m):
                kc = k_plus if c < ell else k_minus
                for v in rng.choice(args.n, size=kc, replace=False):
                    spins[int(v) + c * args.n] = 1
            counts = run_kawasaki_trace(
                union, args.beta, k_total, spins, args.T,
                seed=rng, record_every=record_every, copies=m,
            )
            rows.extend(
                (r, i * record_every, *c) for i, c in enumerate(counts)
            )
            per_seed.append({"seed": r, "final_counts": list(counts[-1])})
        summary["per_seed"] = per_seed
        ctx.write_csv(
            "traces.csv",
            ["seed", "t"] + [f"k_comp{j}" for j in range(m)],
            rows,
        )
    else:
        raise InvalidInputError(f"unknown mode {args.mode!r}")
    ctx.write_json("summary.json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _common(p):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _graph_source(p):
    p.add_argument("--graph", help="edge-list file")
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--simple", action="store_true")


def _thresholds_args(p):
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float)


def _phase_diagram_args(p):
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=20)


def _landscape_args(p):
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid", type=float, default=1e-3)


def _graph_gen_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--out-file", default="graph.edges")


def _simulate_args(p):
    p.add_argument("--chain", required=True,
                   choices=["glauber", "kawasaki", "coupled-kawasaki"])
    _graph_source(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--phi", type=float, default=0.5)
    p.add_argument("--start", default=None,
                   choices=["all_plus", "all_minus", "band_sample"])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--thin", type=int, default=1)


def _spectra_args(p):
    p.add_argument("--chain", default="downup",
                   choices=["glauber", "kawasaki", "downup", "kl_downup"])
    _graph_source(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--report", required=True,
                   choices=["gap", "influence", "localwalks", "factorization",
                            "edgeworth"])
    p.add_argument("--zero-free-domain", type=float, nargs=2, metavar=("LO", "HI"),
                   help="assumed zero-free activity interval, recorded verbatim")
    p.add_argument("--zero-free-delta", type=float,
                   help="assumed zero-freeness radius, recorded verbatim")


def _exactcheck_args(p):
    _graph_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)


def _metastability_args(p):
    p.add_argument("--mode", required=True, choices=["glauber", "kawasaki-union"])
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--start", choices=["all_plus", "all_minus"],
                   help="glauber start, default all_minus; kawasaki-union "
                   "always starts split")


# name -> (help, handler, its arguments), in --help order
COMMANDS = {
    "thresholds": ("tree-recursion threshold report", cmd_thresholds,
                   _thresholds_args),
    "phase-diagram": ("threshold curves vs beta", cmd_phase_diagram,
                      _phase_diagram_args),
    "landscape": ("annealed free-energy curve", cmd_landscape, _landscape_args),
    "graph-gen": ("configuration-model regular graph", cmd_graph_gen,
                  _graph_gen_args),
    "simulate": ("run a chain, emit a trace CSV", cmd_simulate, _simulate_args),
    "spectra": ("exact spectral diagnostics", cmd_spectra, _spectra_args),
    "exactcheck": ("stationarity/reversibility asserts", cmd_exactcheck,
                   _exactcheck_args),
    "metastability": ("dwell/escape experiments", cmd_metastability,
                      _metastability_args),
}


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of all eight commands when
    ``command`` is None.

    Building all eight subparsers costs as much as a short tree command, so
    ``main`` passes the command when it is the first argument.  That parser
    prints what the full one would: its usage line keeps every command name,
    and any other argument list (``--help``, a misspelt command) gets the
    full parser.
    """
    ap = argparse.ArgumentParser(
        prog="isinglab",
        description="Fixed-magnetization Ising dynamics: exact kernels, "
        "tree thresholds, landscapes, and metastability experiments.",
    )
    ap.add_argument("--config", help="flat key=value file; flags override it")
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=func)
            add_arguments(p)
            _common(p)
    return ap


def _apply_config_file(argv):
    """Pre-parse --config PATH or --config=PATH and turn its lines into
    leading defaults."""
    i = next((i for i, a in enumerate(argv)
              if a == "--config" or a.startswith("--config=")), None)
    if i is None:
        return argv
    _, joined, path = argv[i].partition("=")
    if not joined:
        if i + 1 == len(argv):
            raise InvalidInputError("--config needs a path")
        path = argv[i + 1]
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc.strerror}") from exc
    extra = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            extra.append(flag)
        else:
            extra.extend([flag, value])
    rest = argv[:i] + argv[i + (1 if joined else 2):]
    # config-derived flags come first so explicit flags override them
    return rest[:1] + extra + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    problems = validate_args(args)
    if problems:
        for msg in problems:
            print(f"validation error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    ctx = RunContext(Path(args.out), args.command, vars(args))
    try:
        code = args.func(args, ctx)
    except (InvalidInputError, NoNonuniquenessError) as exc:
        ctx.cleanup()
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError:
        ctx.cleanup()
        print("validation error: float overflow; beta or lambda too extreme",
              file=sys.stderr)
        return EXIT_VALIDATION
    except (TooLargeError, RetriesExhaustedError) as exc:
        ctx.cleanup()
        print(f"runtime cap: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_CAP
    except IsinglabError as exc:
        ctx.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ctx.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
