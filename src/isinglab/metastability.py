"""Slow-mixing experiments: bottleneck sets, band weights, traces, escape times.

Two bottleneck geometries:

  * glauber_eta_bands - on a single graph, S1 is the size band at the global
    free-energy maximizer, S2 a band around the subdominant maximizer, and S3
    the annulus separating them.  Glauber changes the plus-count by at most
    one per step, so any path from S2 to S1 crosses S3.

  * kawasaki_union - on m disjoint copies, S2 holds l copies near k_plus and
    m - l near k_minus (total fixed), S1 is the balanced state, and S3
    consists of configurations where at least one copy has slipped into the
    adjacent escape window.  One Kawasaki step moves one plus, changing two
    per-copy counts by one, so again S2 -> S1 passes through S3.

Weights for these sets come either exactly (per-copy partition tables
convolved by dynamic programming) or from the annealed finite-n surrogate
E[Z_{G,k}], which first/second-moment bounds justify as a poly(n)-accurate
proxy at local maximizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice

import numpy as np

from .errors import InvalidInputError, NoNonuniquenessError
from .graphs import Graph, UnionGraph
from .dynamics import CoupledKawasaki, heat_bath_table
from .measures import (
    EMPTY_PINNING,
    NEG_INF,
    PartitionTable,
    _logsumexp,
    exact_partition_table,
    monochromatic_edges,
    size_distribution,
)
from .meanfield import annealed_log_EZ_per_k, critical_points
from .rng import as_rng
from .thresholds import (beta_u, bisect_root, eta_minus, eta_of_fixed_point,
                         eta_plus, lambda_u, tree_fixed_points)


# ---------------------------------------------------------------------------
# Bottleneck specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlauberBandSpec:
    """S1 = {k1}; S2 = [k2 +- inner]; S3 = the annulus (inner, outer]."""

    kind = "glauber_eta_bands"
    n: int
    k1: int
    k2: int
    inner: int
    outer: int

    def __post_init__(self):
        if not (0 <= self.k1 <= self.n and 0 <= self.k2 <= self.n):
            raise InvalidInputError("band centers must lie in [0, n]")
        if not (1 <= self.inner < self.outer):
            raise InvalidInputError("need 1 <= inner < outer")
        if abs(self.k1 - self.k2) <= self.outer:
            raise InvalidInputError(
                "S1 must lie strictly outside the S3 annulus: "
                f"|k1 - k2| = {abs(self.k1 - self.k2)} <= outer = {self.outer}"
            )

    def sets(self):
        s1 = {self.k1}
        s2 = set(range(max(0, self.k2 - self.inner),
                       min(self.n, self.k2 + self.inner) + 1))
        s3 = set(
            j
            for j in range(max(0, self.k2 - self.outer),
                           min(self.n, self.k2 + self.outer) + 1)
            if abs(j - self.k2) > self.inner
        )
        return s1, s2, s3

    def validate_separation(self):
        """Single +-1 steps from S2 toward k1 land in S3 before reaching S1."""
        s1, s2, s3 = self.sets()
        assert not (s1 & s2) and not (s1 & s3) and not (s2 & s3)
        step = 1 if self.k1 > self.k2 else -1
        j = self.k2 + step * self.inner
        crossed = False
        while j != self.k1:
            j += step
            if j in s3:
                crossed = True
        assert crossed, "no S3 crossing between S2 and S1"


@dataclass(frozen=True)
class UnionBandSpec:
    """Bands on m copies: l near k_plus, m - l near k_minus, total fixed.

    The escape windows sit just below the k_plus band ([k_plus - 2 eps,
    k_plus - eps - 1]) and just above the k_minus band.  With
    ``balanced_s1`` (the default), S1 puts every copy at exactly
    k_total / m; otherwise S1 mirrors S2 with the roles of the copy groups
    swapped (the |eta| <= eta_c construction).
    """

    kind = "kawasaki_union"
    base_n: int
    m: int
    ell: int
    k_plus: int
    k_minus: int
    eps: int
    balanced_s1: bool = True

    def __post_init__(self):
        if not (1 <= self.ell < self.m):
            raise InvalidInputError("need 1 <= ell < m")
        if not (0 <= self.k_minus < self.k_plus <= self.base_n):
            raise InvalidInputError("need 0 <= k_minus < k_plus <= base_n")
        if self.eps < 1:
            raise InvalidInputError("need eps >= 1")
        if self.k_plus - 2 * self.eps < 0 or self.k_minus + 2 * self.eps > self.base_n:
            raise InvalidInputError("escape windows leave [0, base_n]")
        if self.k_minus + 2 * self.eps >= self.k_plus - 2 * self.eps:
            raise InvalidInputError(
                "bands and escape windows overlap: need k_plus - k_minus > 4 eps"
            )

    @property
    def k_total(self) -> int:
        return self.ell * self.k_plus + (self.m - self.ell) * self.k_minus

    @property
    def k_balanced(self) -> int:
        if self.k_total % self.m:
            raise InvalidInputError(
                f"total size {self.k_total} not divisible by m = {self.m}"
            )
        return self.k_total // self.m

    def plus_band(self):
        return (self.k_plus - self.eps, self.k_plus + self.eps)

    def minus_band(self):
        return (self.k_minus - self.eps, self.k_minus + self.eps)

    def plus_escape(self):
        return (self.k_plus - 2 * self.eps, self.k_plus - self.eps - 1)

    def minus_escape(self):
        return (self.k_minus + self.eps + 1, self.k_minus + 2 * self.eps)

    def validate_separation(self):
        """Escape windows are adjacent to the bands and shield S1."""
        if self.balanced_s1:
            k = self.k_balanced
            if not (self.k_minus + 2 * self.eps < k < self.k_plus - 2 * self.eps):
                raise InvalidInputError(
                    "balanced size must lie strictly between the escape windows"
                )
        lo_p, hi_p = self.plus_band()
        lo_m, hi_m = self.minus_band()
        if hi_m >= lo_p:
            raise InvalidInputError("plus and minus bands overlap")
        # adjacency of windows to bands (one step leaves the band into them)
        assert self.plus_escape()[1] == lo_p - 1
        assert self.minus_escape()[0] == hi_m + 1


# ---------------------------------------------------------------------------
# Band weights: exact and annealed
# ---------------------------------------------------------------------------


def _dp_logsum(per_component_values, target_total):
    """log sum over per-component choices with a fixed total.

    ``per_component_values`` is a list (one per component) of dicts
    {k: log_value}; returns log sum over tuples with sum(k_i) = target of
    sum of values.
    """
    dp = {0: 0.0}
    for vals in per_component_values:
        new = {}
        for tot, acc in dp.items():
            for k, lv in vals.items():
                if lv == NEG_INF:
                    continue
                key = tot + k
                contrib = acc + lv
                if key in new:
                    new[key] = _logsumexp([new[key], contrib])
                else:
                    new[key] = contrib
        dp = new
    return dp.get(target_total, NEG_INF)


def _range_dict(values_by_k, lo, hi):
    return {k: values_by_k[k] for k in range(max(lo, 0), hi + 1) if k < len(values_by_k)}


def _union_set_logweights(spec: UnionBandSpec, values_by_k):
    """Unnormalized log weights of S1, S2, S3 from per-k component values."""
    band_p = _range_dict(values_by_k, *spec.plus_band())
    band_m = _range_dict(values_by_k, *spec.minus_band())
    esc_p = _range_dict(values_by_k, *spec.plus_escape())
    esc_m = _range_dict(values_by_k, *spec.minus_escape())
    total = spec.k_total

    if spec.balanced_s1:
        w1 = spec.m * values_by_k[spec.k_balanced]
    else:
        comps = [band_m] * (spec.m - spec.ell) + [band_p] * spec.ell
        w1 = _dp_logsum(comps, total)

    comps2 = [band_p] * spec.ell + [band_m] * (spec.m - spec.ell)
    w2 = _dp_logsum(comps2, total)

    terms = []
    for i in range(spec.ell + 1):
        for j in range(spec.m - spec.ell + 1):
            if (i, j) == (0, 0):
                continue
            comps = (
                [esc_p] * i + [band_p] * (spec.ell - i)
                + [esc_m] * j + [band_m] * (spec.m - spec.ell - j)
            )
            w = _dp_logsum(comps, total)
            if w != NEG_INF:
                terms.append(
                    w
                    + math.log(math.comb(spec.ell, i))
                    + math.log(math.comb(spec.m - spec.ell, j))
                )
    w3 = _logsumexp(terms) if terms else NEG_INF
    return {"S1": w1, "S2": w2, "S3": w3}


def annealed_band_weights(
    n: int, delta: int, beta: float, lam: float, spec
) -> dict:
    """Annealed surrogate log weights of S1/S2/S3 using E[Z_{G,k}]."""
    if isinstance(spec, GlauberBandSpec):
        if spec.n != n:
            raise InvalidInputError("spec.n differs from n")
        values = [annealed_log_EZ_per_k(n, k, delta, beta, lam) for k in range(n + 1)]
        s1, s2, s3 = spec.sets()
        out = {}
        for name, band in (("S1", s1), ("S2", s2), ("S3", s3)):
            if not band:
                raise InvalidInputError(f"band {name} is empty")
            out[name] = _logsumexp(values[j] for j in sorted(band))
        return out
    if isinstance(spec, UnionBandSpec):
        values = [
            annealed_log_EZ_per_k(spec.base_n, k, delta, beta, lam)
            for k in range(spec.base_n + 1)
        ]
        return _union_set_logweights(spec, values)
    raise InvalidInputError(f"unknown spec type {type(spec).__name__}")


def exact_band_weights(g_or_union, beta: float, spec, lam: float = None) -> dict:
    """Exact probabilities of S1/S2/S3 under mu (glauber) or mu-hat (union)."""
    if isinstance(spec, GlauberBandSpec):
        if lam is None:
            raise InvalidInputError("glauber bands need lambda")
        table = exact_partition_table(g_or_union, beta)
        pmf = size_distribution(table, lam)
        s1, s2, s3 = spec.sets()
        out = {
            name: float(sum(pmf[j] for j in band))
            for name, band in (("S1", s1), ("S2", s2), ("S3", s3))
        }
        assert sum(out.values()) <= 1.0 + 1e-9
        return out
    if isinstance(spec, UnionBandSpec):
        base = (
            g_or_union.base if isinstance(g_or_union, UnionGraph) else g_or_union
        )
        if base.n != spec.base_n:
            raise InvalidInputError("base graph size differs from spec")
        table = exact_partition_table(base, beta)
        values = list(table.log_zhat_by_k)
        weights = _union_set_logweights(spec, values)
        all_k = {k: v for k, v in enumerate(values) if v != NEG_INF}
        log_z_total = _dp_logsum([all_k] * spec.m, spec.k_total)
        return {
            name: math.exp(w - log_z_total) if w != NEG_INF else 0.0
            for name, w in weights.items()
        }
    raise InvalidInputError(f"unknown spec type {type(spec).__name__}")


@dataclass(frozen=True)
class ConductanceReport:
    ratio_s3_s2: float
    log_ratio: float
    bottleneck_flag: bool  # S3 carries (numerically) negligible mass vs S2
    disconnected: bool  # S3 empty while S1, S2 both carry mass


def conductance_lower_bound_report(weights: dict, log_scale: bool = False,
                                   flag_threshold: float = 1e-3) -> ConductanceReport:
    """Ratio pi(S3)/pi(S2) and a bottleneck-evidence flag.

    The mixing-time content is indirect (via the conductance argument); the
    report only states the measured ratio and flags, never a mixing constant.
    """
    w2, w3 = weights["S2"], weights["S3"]
    if log_scale:
        if w2 == NEG_INF:
            raise InvalidInputError("S2 has zero weight")
        if w3 == NEG_INF:
            return ConductanceReport(0.0, NEG_INF, True, True)
        log_ratio = w3 - w2
        ratio = math.exp(log_ratio)
    else:
        if w2 <= 0:
            raise InvalidInputError("S2 has zero weight")
        ratio = w3 / w2
        if ratio == 0.0:
            return ConductanceReport(0.0, NEG_INF, True, True)
        log_ratio = math.log(ratio)
    return ConductanceReport(
        ratio_s3_s2=ratio,
        log_ratio=log_ratio,
        bottleneck_flag=ratio < flag_threshold,
        disconnected=False,
    )


# ---------------------------------------------------------------------------
# Magnetization traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSummary:
    chain: str
    n: int
    T: int
    seed: int
    record_every: int
    etas: np.ndarray = field(repr=False)
    band_plus: tuple
    band_minus: tuple
    dwell_plus: float
    dwell_minus: float
    hit_plus: int  # first step entering the plus band; -1 if censored
    hit_minus: int

    @property
    def censored_plus(self) -> bool:
        return self.hit_plus < 0

    @property
    def censored_minus(self) -> bool:
        return self.hit_minus < 0


def default_band_epsilon(delta: int, beta: float, lam: float) -> float:
    """Half the minimum gap between adjacent landscape critical points.

    With a unique critical point, falls back to half the distance to the
    nearer magnetization boundary, capped at 0.1.
    """
    pts = critical_points(delta, beta, lam, grid_resolution=1e-3)
    etas = [p.eta for p in pts]
    if len(etas) >= 2:
        return min(b - a for a, b in zip(etas, etas[1:])) / 2
    eta0 = etas[0]
    return min(0.1, (1 - abs(eta0)) / 2)


def trace_bands(delta: int, beta: float, lam: float, eps: float = None):
    if eps is None:
        eps = default_band_epsilon(delta, beta, lam)
    ep = eta_plus(delta, beta, lam)
    em = eta_minus(delta, beta, lam)
    return (ep - eps, ep + eps), (em - eps, em + eps)


def _start_spins(g: Graph, start, rng, k: int = None):
    if isinstance(start, (list, tuple, np.ndarray)):
        spins = [int(s) for s in start]
        if len(spins) != g.n or any(s not in (-1, 1) for s in spins):
            raise InvalidInputError("explicit start must be +-1 of length n")
    elif start == "all_plus":
        spins = [1] * g.n
    elif start == "all_minus":
        spins = [-1] * g.n
    elif start == "band_sample":
        if k is None:
            raise InvalidInputError("band_sample start needs k")
        spins = [-1] * g.n
        for v in rng.choice(g.n, size=k, replace=False):
            spins[int(v)] = 1
    else:
        raise InvalidInputError(f"unknown start {start!r}")
    return spins


_CHUNK = 1 << 10


def _chunks(*arrays):
    """Zip predrawn arrays as plain Python values, _CHUNK positions at a time."""
    return chain.from_iterable(
        zip(*(a[lo:lo + _CHUNK].tolist() for a in arrays))
        for lo in range(0, len(arrays[0]), _CHUNK))


def _heat_bath(g: Graph, beta: float, lam: float, spins: list, rng, T: int):
    """Glauber heat-bath kernel: T updates of ``spins`` (+-1, in place).

    Draws the T vertices, then the T uniforms.  Yields (plus count,
    monochromatic edges) before the first update and after each one.  Every
    vertex keeps its plus-neighbour count (parallel edges once per copy,
    self-loops never) and plus probability; a flip updates its neighbours'.
    """
    nbrs = [tuple(w for w in row if w != v) for v, row in enumerate(g.adjacency)]
    tables = {d: heat_bath_table(beta, lam, d) for d in {len(nb) for nb in nbrs}}
    table_of = [tables[len(nb)] for nb in nbrs]
    j_of = [sum(1 for w in nb if spins[w] == 1) for nb in nbrs]
    p_of = [table[j] for table, j in zip(table_of, j_of)]
    plus = spins.count(1)
    mono = monochromatic_edges(g, spins)
    vs = rng.integers(0, g.n, size=T)
    us = rng.random(size=T)
    yield plus, mono
    for v, u in _chunks(vs, us):
        s_new = 1 if u < p_of[v] else -1
        if s_new != spins[v]:
            spins[v] = s_new
            nb = nbrs[v]
            plus += s_new
            mono += s_new * (2 * j_of[v] - len(nb))
            for w in nb:
                j_of[w] += s_new
                p_of[w] = table_of[w][j_of[w]]
        yield plus, mono


def _kawasaki_spins(g: Graph, start, rng, k: int) -> list:
    """Start spins with exactly k pluses, where a swap needs 1 <= k <= n - 1."""
    if not 1 <= k <= g.n - 1:
        raise InvalidInputError(f"Kawasaki needs 1 <= k <= n - 1 = {g.n - 1}, got {k}")
    spins = _start_spins(g, start, rng, k=k)
    if spins.count(1) != k:
        raise InvalidInputError("start incompatible with k")
    return spins


def _kawasaki_swaps(g: Graph, beta: float, spins: list, rng, T: int):
    """Kawasaki kernel: T Metropolis swaps of a uniform (+, -) pair of ``spins``.

    Draws the T plus indices, the T minus indices, then the T uniforms.
    Yields (u, w, d) when the plus at u moved to the minus at w, changing
    the monochromatic edges by d, and None for a rejected swap.  Every vertex
    keeps e = minus - plus neighbours, so d = e[u] - e[w] - 2 (u-w edges).
    """
    nbrs = [tuple(w for w in row if w != v) for v, row in enumerate(g.adjacency)]
    e = [-sum(spins[w] for w in nb) for nb in nbrs]
    plus = [v for v, s in enumerate(spins) if s == 1]
    minus = [v for v, s in enumerate(spins) if s == -1]
    # e^{beta d} for d = -2 delta .. -1, indexed by d itself
    accept = [math.exp(beta * d) for d in range(-2 * g.delta_max, 0)]
    iu = rng.integers(0, len(plus), size=T)
    iw = rng.integers(0, len(minus), size=T)
    us = rng.random(size=T)
    for a, b, r in _chunks(iu, iw, us):
        u, w = plus[a], minus[b]
        nu = nbrs[u]
        d = e[u] - e[w] - 2 * nu.count(w)
        if d >= 0 or r < accept[d]:
            spins[u], spins[w] = -1, 1
            plus[a], minus[b] = w, u
            for x in nu:
                e[x] += 2
            for x in nbrs[w]:
                e[x] -= 2
            yield u, w, d
        else:
            yield None


def run_glauber_trace(g: Graph, beta: float, lam: float, start: str, T: int,
                      seed, record_every: int = 1,
                      band_plus=None, band_minus=None) -> TraceSummary:
    """Fast Glauber run recording the magnetization trajectory."""
    if T < 1:
        raise InvalidInputError("need T >= 1")
    rng = as_rng(seed)
    n = g.n
    moves = _heat_bath(g, beta, lam, _start_spins(g, start, rng), rng, T)
    plus, _ = next(moves)
    etas = np.empty(T // record_every + 1)
    etas[0] = (2 * plus - n) / n
    bp = band_plus or (2.0, 3.0)
    bm = band_minus or (2.0, 3.0)
    # band membership per plus count
    in_p = [bp[0] <= (2 * j - n) / n <= bp[1] for j in range(n + 1)]
    in_m = [bm[0] <= (2 * j - n) / n <= bm[1] for j in range(n + 1)]
    hit_plus = hit_minus = -1
    in_plus = in_minus = 0
    idx = 1
    for t, (plus, _) in enumerate(moves, 1):
        if hit_plus < 0 and in_p[plus]:
            hit_plus = t
        if hit_minus < 0 and in_m[plus]:
            hit_minus = t
        # dwell counting is exclusive (plus band wins) so the fractions sum
        # to <= 1 even when the bands coincide in the uniqueness regime
        if in_p[plus]:
            in_plus += 1
        elif in_m[plus]:
            in_minus += 1
        if t % record_every == 0:
            etas[idx] = (2 * plus - n) / n
            idx += 1
    return TraceSummary(
        chain="glauber", n=n, T=T, seed=int(seed) if isinstance(seed, int) else -1,
        record_every=record_every, etas=etas[:idx],
        band_plus=tuple(bp), band_minus=tuple(bm),
        dwell_plus=in_plus / T, dwell_minus=in_minus / T,
        hit_plus=hit_plus, hit_minus=hit_minus,
    )


def run_kawasaki_trace(g: Graph, beta: float, k: int, start: str, T: int,
                       seed, record_every: int = 1,
                       component_of=None) -> dict:
    """Kawasaki run; with ``component_of``, also tracks per-copy counts.

    Returns {"component_counts": trajectory or None, "spins": final spins}.
    """
    if T < 1:
        raise InvalidInputError("need T >= 1")
    rng = as_rng(seed)
    spins = _kawasaki_spins(g, start, rng, k)
    swaps = _kawasaki_swaps(g, beta, spins, rng, T)
    traj = None
    if component_of is None:
        for _ in swaps:
            pass
    else:
        counts = [0] * (max(component_of) + 1)
        for v in range(g.n):
            counts[component_of[v]] += spins[v] == 1
        traj = []
        for t, swap in enumerate(swaps, 1):
            if swap:
                counts[component_of[swap[0]]] -= 1
                counts[component_of[swap[1]]] += 1
            if t % record_every == 0:
                traj.append(tuple(counts))
    return {"component_counts": traj, "spins": spins}


def mc_band_occupancy_ratio(g: Graph, beta: float, lam: float,
                            spec: GlauberBandSpec, T: int, seed) -> dict:
    """Censored long-run estimate of pi(S3)/pi(S2) from an S2 start.

    Runs Glauber from a uniform size-k2 configuration and counts per-step
    occupancy of the S2 band and the S3 annulus; the run is right-censored
    at T, so with an exponential bottleneck the ratio estimates the
    conditional measure inside the metastable well.
    """
    rng = as_rng(seed)
    spins = _start_spins(g, "band_sample", rng, k=spec.k2)
    _, s2, s3 = spec.sets()
    in_s2 = in_s3 = 0
    for plus, _ in islice(_heat_bath(g, beta, lam, spins, rng, T), 1, None):
        if plus in s2:
            in_s2 += 1
        elif plus in s3:
            in_s3 += 1
    return {
        "occupancy_s2": in_s2 / T,
        "occupancy_s3": in_s3 / T,
        "ratio": (in_s3 / in_s2) if in_s2 else math.inf,
        "censored_at": T,
    }


def trace_rows_glauber(g: Graph, beta: float, lam: float, start: str, T: int,
                       seed, thin: int = 1) -> list:
    """Glauber trajectory rows (t, plus_count, mono_edges, eta)."""
    rng = as_rng(seed)
    n = g.n
    moves = _heat_bath(g, beta, lam, _start_spins(g, start, rng), rng, T)
    return [
        (t, plus, mono, (2 * plus - n) / n)
        for t, (plus, mono) in zip(count(0, thin), islice(moves, 0, None, thin))
    ]


def trace_rows_kawasaki(g: Graph, beta: float, k: int, start: str, T: int,
                        seed, thin: int = 1) -> list:
    """Kawasaki trajectory rows (t, plus_count, mono_edges, eta)."""
    rng = as_rng(seed)
    n = g.n
    spins = _kawasaki_spins(g, start, rng, k)
    mono = monochromatic_edges(g, spins)
    eta = (2 * k - n) / n
    rows = [(0, k, mono, eta)]
    swaps = _kawasaki_swaps(g, beta, spins, rng, T)
    for t in range(thin, T + 1, thin):
        for swap in islice(swaps, thin):
            if swap:
                mono += swap[2]
        rows.append((t, k, mono, eta))
    return rows


def trace_rows_coupled(g: Graph, beta: float, k: int, phi: float, T: int,
                       seed, thin: int = 1) -> list:
    """Coupled-Kawasaki rows (t, n_disagree, n_bad, rho)."""
    rng = as_rng(seed)
    driver = CoupledKawasaki(g, beta=beta, k=k, plus_pinning=EMPTY_PINNING, phi=phi)
    xs = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
    ys = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
    state = driver.make_state(xs, ys)
    rows = [(0, len(state.D), len(state.B), state.rho)]
    for t in range(T):
        state = driver.step(state, rng)
        if (t + 1) % thin == 0:
            rows.append((t + 1, len(state.D), len(state.B), state.rho))
    return rows


def overlap(sigma, sigma_prime) -> float:
    """nu(sigma, sigma') = (sigma . sigma') / n."""
    a = np.asarray(sigma, dtype=float)
    b = np.asarray(sigma_prime, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError("configurations must have equal length")
    return float(a @ b / len(a))


# ---------------------------------------------------------------------------
# Partition-ratio bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionRatioReport:
    satisfied: bool
    min_margin_up: float  # min over steps of log(Z_{k+1}/Z_k) - log bound
    min_margin_down: float
    tight: bool  # both margins ~ 0 (the beta = 0 case)


def partition_ratio_bounds(g: Graph, beta: float, lam: float, k: int, t: int,
                           table: PartitionTable = None) -> PartitionRatioReport:
    """One-step bounds Z_{k+1}/Z_k >= ((n-k)/(k+1)) lam e^{-2 delta beta}
    and the spin-flip mirror Z_k/Z_{k+1} >= ((k+1)/(n-k)) lam^{-1} e^{-2 delta beta},
    checked on exact tables for each step k .. k+t-1.
    """
    if not (0 <= k <= k + t <= g.n):
        raise InvalidInputError("need 0 <= k <= k+t <= n")
    if t < 1:
        raise InvalidInputError("need t >= 1")
    if table is None:
        table = exact_partition_table(g, beta)
    delta = g.delta_max
    n = g.n
    margins_up, margins_down = [], []
    for kk in range(k, k + t):
        log_zk = table.log_zhat(kk) + kk * math.log(lam)
        log_zk1 = table.log_zhat(kk + 1) + (kk + 1) * math.log(lam)
        if log_zk == NEG_INF or log_zk1 == NEG_INF:
            raise InvalidInputError(f"empty size class at k={kk}")
        log_bound_up = (
            math.log(n - kk) - math.log(kk + 1) + math.log(lam) - 2 * delta * beta
        )
        log_bound_down = (
            math.log(kk + 1) - math.log(n - kk) - math.log(lam) - 2 * delta * beta
        )
        margins_up.append((log_zk1 - log_zk) - log_bound_up)
        margins_down.append((log_zk - log_zk1) - log_bound_down)
    mu, md = min(margins_up), min(margins_down)
    return PartitionRatioReport(
        satisfied=(mu >= -1e-12 and md >= -1e-12),
        min_margin_up=mu,
        min_margin_down=md,
        tight=(abs(mu) <= 1e-12 and abs(md) <= 1e-12),
    )


# ---------------------------------------------------------------------------
# Union construction parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnionParameters:
    m: int
    ell: int
    lam_plus: float
    eta_plus: float
    eta_minus: float
    eta_target: float

    def residual(self) -> float:
        return abs(
            self.ell * self.eta_plus + (self.m - self.ell) * self.eta_minus
            - self.m * self.eta_target
        )


def find_union_parameters(delta: int, beta: float, eta_target: float,
                          m_max: int = 40) -> UnionParameters:
    """Smallest (m, l) and the field lam_plus realizing the target magnetization.

    Solves l eta+(lam) + (m - l) eta-(lam) = m eta over lam in (1, lambda_u)
    by bisection to adjacent floats for each candidate (m, l); for
    |eta| <= eta_c with a rational eta/eta_c a continued-fraction pick at
    lam = 1 is exact.
    """
    if beta <= beta_u(delta):
        raise NoNonuniquenessError("union construction needs beta > beta_u")
    lu = lambda_u(delta, beta)
    eta_c = eta_plus(delta, beta, 1.0)
    if abs(eta_target) >= eta_plus(delta, beta, lu):
        raise InvalidInputError("target magnetization outside (-eta_u, eta_u)")

    if abs(eta_target) <= eta_c:
        theta = Fraction(eta_target + eta_c) / Fraction(2 * eta_c)
        approx = theta.limit_denominator(m_max)
        if 0 < approx < 1 and abs(float(approx) - float(theta)) < 1e-12:
            m, ell = approx.denominator, approx.numerator
            return UnionParameters(
                m=m, ell=ell, lam_plus=1.0, eta_plus=eta_c, eta_minus=-eta_c,
                eta_target=eta_target,
            )

    def etas(lam):
        """(eta+, eta-) from one solve of the tree equation at lam."""
        fps = tree_fixed_points(delta, beta, lam)
        return eta_of_fixed_point(fps[-1].R, beta), eta_of_fixed_point(fps[0].R, beta)

    def combo(e, m, ell):
        return ell * e[0] + (m - ell) * e[1] - m * eta_target

    lam_lo, lam_hi = 1.0 + 1e-9, lu - 1e-9
    e_lo, e_hi = etas(lam_lo), etas(lam_hi)
    for m in range(2, m_max + 1):
        for ell in range(1, m):
            f_lo, f_hi = combo(e_lo, m, ell), combo(e_hi, m, ell)
            if f_lo == 0.0:
                lam = lam_lo
            elif (f_lo < 0) == (f_hi < 0):
                continue
            else:
                lam = bisect_root(lambda x: combo(etas(x), m, ell),
                                  lam_lo, lam_hi, f_lo)
            ep, em = etas(lam)
            params = UnionParameters(
                m=m, ell=ell, lam_plus=lam, eta_plus=ep, eta_minus=em,
                eta_target=eta_target,
            )
            if params.residual() <= 1e-10:
                return params
    raise InvalidInputError(
        f"no (m, l) with m <= {m_max} realizes eta = {eta_target}"
    )
