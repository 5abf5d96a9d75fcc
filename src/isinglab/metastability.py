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

Every band weight is a log weight.  Each spec's ``log_weights`` maps one
per-k log-weight vector to the log weights of S1, S2 and S3 (for unions, by
dynamic programming over the copies), and ``log_total`` to the log weight of
every size.  The vector comes either exactly, from a partition table's
``log_weights_by_k``, or from the annealed finite-n surrogate E[Z_{G,k}],
which first/second-moment bounds justify as a poly(n)-accurate proxy at
local maximizers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice

import numpy as np

from .errors import InvalidInputError, NoNonuniquenessError
from .graphs import Graph
from .dynamics import CoupledKawasaki, _heat_bath, _kawasaki_swaps
from .measures import (
    EMPTY_PINNING,
    NEG_INF,
    _logsumexp,
    exact_partition_table,
    monochromatic_edges,
)
from .meanfield import annealed_log_EZ_per_k
from .rng import as_rng
from .thresholds import (beta_u, bisect_root, eta_of_fixed_point, eta_plus,
                         lambda_u, tree_fixed_points)


# ---------------------------------------------------------------------------
# Bottleneck specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlauberBandSpec:
    """S1 = {k1}; S2 = [k2 +- inner]; S3 = the annulus (inner, outer]."""

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

    @property
    def table_n(self) -> int:  # the per-k values cover sizes 0..table_n
        return self.n

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

    def log_weights(self, values_by_k) -> dict:
        """Log weights of S1, S2, S3: each set's log-sum of the per-k values."""
        values = _per_k(self, values_by_k)
        return {name: _logsumexp(values[sorted(band)])
                for name, band in zip(("S1", "S2", "S3"), self.sets())}

    def log_total(self, values_by_k) -> float:
        """Log weight of every size."""
        return _logsumexp(_per_k(self, values_by_k))


@dataclass(frozen=True)
class UnionBandSpec:
    """Bands on m copies: l near k_plus, m - l near k_minus, total fixed.

    The escape windows sit just below the k_plus band ([k_plus - 2 eps,
    k_plus - eps - 1]) and just above the k_minus band.  With
    ``balanced_s1`` (the default), S1 puts every copy at exactly
    k_total / m; otherwise S1 mirrors S2 with the roles of the copy groups
    swapped (the |eta| <= eta_c construction).  The per-k values are those
    of one copy, and a set's weight sums their products over the per-copy
    size tuples with total k_total.
    """

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
        if self.balanced_s1 and not (
            self.k_minus + 2 * self.eps < self.k_balanced < self.k_plus - 2 * self.eps
        ):
            raise InvalidInputError(
                "balanced size must lie strictly between the escape windows"
            )

    @property
    def table_n(self) -> int:
        return self.base_n

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

    def log_weights(self, values_by_k) -> dict:
        """Log weights of S1, S2, S3 from one pass over the copies."""
        values = _per_k(self, values_by_k)
        band_p = _window(values, *self.plus_band())
        band_m = _window(values, *self.minus_band())
        esc_p = _window(values, *self.plus_escape())
        esc_m = _window(values, *self.minus_escape())
        ell, rest = self.ell, self.m - self.ell
        w2, w3 = _copy_pass([(band_p, esc_p)] * ell + [(band_m, esc_m)] * rest,
                            self.k_total)
        if self.balanced_s1:
            w1 = self.m * values[self.k_balanced]
        else:
            w1 = w2  # the copies are exchangeable: the mirrored S1 is S2 relabelled
        return {"S1": float(w1), "S2": w2, "S3": w3}

    def log_total(self, values_by_k) -> float:
        """Log weight of every per-copy size tuple with total k_total."""
        values = _per_k(self, values_by_k)
        no_escape = np.full(len(values), NEG_INF)
        return _copy_pass([(values, no_escape)] * self.m, self.k_total)[0]


# ---------------------------------------------------------------------------
# Band weights: exact and annealed, as log weights
# ---------------------------------------------------------------------------


def _per_k(spec, values_by_k) -> np.ndarray:
    """The per-k log values as an array, one for each k in [0, spec.table_n]."""
    values = np.asarray(values_by_k, dtype=float)
    if values.shape != (spec.table_n + 1,):
        raise InvalidInputError(
            f"need one value per size 0..{spec.table_n}, got {values.shape}"
        )
    return values


def _window(values, lo, hi):
    """Log values by size, -inf outside [lo, hi]."""
    out = np.full(len(values), NEG_INF)
    lo = max(lo, 0)
    out[lo:hi + 1] = values[lo:hi + 1]
    return out


def _convolve(acc, window):
    """log sum_k exp(acc[t - k] + window[k]) for every total t."""
    out = np.full(len(acc) + len(window) - 1, NEG_INF)
    for k in np.flatnonzero(window > NEG_INF):
        shifted = out[k:k + len(acc)]
        np.logaddexp(shifted, acc + window[k], out=shifted)
    return out


def _copy_pass(copies, total):
    """Log weights of per-copy size tuples with sum ``total``.

    ``copies`` holds one (band, escape) pair of windows per copy.  Returns
    (no copy escaped, some copy escaped): every copy in its band, and every
    copy in its band or its escape window with at least one in the window.
    """
    stay, gone = np.zeros(1), np.full(1, NEG_INF)
    for band, escape in copies:
        stay, gone = _convolve(stay, band), np.logaddexp(
            _convolve(gone, np.logaddexp(band, escape)), _convolve(stay, escape))
    if total >= len(stay):
        return NEG_INF, NEG_INF
    return float(stay[total]), float(gone[total])


def annealed_band_weights(delta: int, beta: float, lam: float, spec) -> dict:
    """Annealed surrogate log weights of S1/S2/S3 from E[Z_{G,k}], unnormalized."""
    n = spec.table_n
    return spec.log_weights(
        [annealed_log_EZ_per_k(n, k, delta, beta, lam) for k in range(n + 1)])


def exact_band_weights(g: Graph, beta: float, spec, lam: float = 1.0) -> dict:
    """Exact log probabilities of S1/S2/S3 from the partition table of ``g``.

    Glauber bands are sizes of ``g`` under mu_{beta,lambda}; union bands are
    copies of ``g`` under mu-hat at the union's total size, where lambda
    cancels because every set shares that one total.
    """
    values = exact_partition_table(g, beta).log_weights_by_k(lam)
    log_total = spec.log_total(values)
    return {name: w - log_total for name, w in spec.log_weights(values).items()}


# pi(S3)/pi(S2) below this flags a bottleneck
BOTTLENECK_RATIO = 1e-3


@dataclass(frozen=True)
class ConductanceReport:
    ratio_s3_s2: float
    log_ratio: float
    bottleneck_flag: bool  # S3 carries (numerically) negligible mass vs S2
    disconnected: bool  # S3 empty while S1, S2 both carry mass


def conductance_lower_bound_report(log_weights: dict) -> ConductanceReport:
    """Ratio pi(S3)/pi(S2) from S1/S2/S3 log weights, and a bottleneck flag.

    The mixing-time content is indirect (via the conductance argument); the
    report only states the measured ratio and flags, never a mixing constant.
    """
    w2, w3 = log_weights["S2"], log_weights["S3"]
    if w2 == NEG_INF:
        raise InvalidInputError("S2 has zero weight")
    if w3 == NEG_INF:
        return ConductanceReport(0.0, NEG_INF, True, True)
    log_ratio = w3 - w2
    ratio = math.exp(log_ratio)
    return ConductanceReport(
        ratio_s3_s2=ratio,
        log_ratio=log_ratio,
        bottleneck_flag=ratio < BOTTLENECK_RATIO,
        disconnected=False,
    )


# ---------------------------------------------------------------------------
# Magnetization traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSummary:
    n: int
    T: int
    record_every: int
    etas: np.ndarray = field(repr=False)
    dwell_plus: float
    dwell_minus: float
    hit_plus: int  # first step entering the plus band; -1 if censored
    hit_minus: int


def _critical_etas(delta: int, beta: float, lam: float) -> list:
    """Landscape critical points, in increasing order, from one tree solve:
    the magnetizations of the tree fixed points."""
    return [eta_of_fixed_point(fp.R, beta)
            for fp in tree_fixed_points(delta, beta, lam)]


def _half_min_gap(etas) -> float:
    if len(etas) >= 2:
        return min(b - a for a, b in zip(etas, etas[1:])) / 2
    return min(0.1, (1 - abs(etas[0])) / 2)


def default_band_epsilon(delta: int, beta: float, lam: float) -> float:
    """Half the minimum gap between adjacent landscape critical points.

    The critical points are the magnetizations of the tree fixed points,
    which the tree solver gives exactly.  With a unique critical point, falls
    back to half the distance to the nearer magnetization boundary, capped
    at 0.1.
    """
    return _half_min_gap(_critical_etas(delta, beta, lam))


def trace_bands(delta: int, beta: float, lam: float, eps: float = None):
    """Bands of half-width eps (default_band_epsilon by default) around
    eta+ and eta-, the outer critical points, all from one tree solve."""
    etas = _critical_etas(delta, beta, lam)
    if eps is None:
        eps = _half_min_gap(etas)
    ep, em = etas[-1], etas[0]
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


def _kawasaki_spins(g: Graph, start, rng, k: int) -> list:
    """Start spins with exactly k pluses, where a swap needs 1 <= k <= n - 1."""
    if not 1 <= k <= g.n - 1:
        raise InvalidInputError(f"Kawasaki needs 1 <= k <= n - 1 = {g.n - 1}, got {k}")
    spins = _start_spins(g, start, rng, k=k)
    if spins.count(1) != k:
        raise InvalidInputError("start incompatible with k")
    return spins


def _band_members(name: str, band, n: int) -> list:
    """Per plus count j, whether (2j - n)/n lies in ``band``.  An omitted
    band holds no count; a band given must hold one."""
    if band is None:
        return [False] * (n + 1)
    lo, hi = band
    members = [lo <= (2 * j - n) / n <= hi for j in range(n + 1)]
    if not any(members):
        raise InvalidInputError(
            f"the {name} band ({lo:.4g}, {hi:.4g}) holds no attainable "
            f"magnetization (2j - n)/n at n = {n}")
    return members


def _check_run_length(T: int, record_every: int) -> None:
    if T < 1:
        raise InvalidInputError("need T >= 1")
    if record_every < 1:
        raise InvalidInputError("need record_every >= 1")


def run_glauber_trace(g: Graph, beta: float, lam: float, start: str, T: int,
                      seed, record_every: int = 1,
                      band_plus=None, band_minus=None) -> TraceSummary:
    """Fast Glauber run recording the magnetization trajectory, with the
    dwell in and first hit of each band given."""
    _check_run_length(T, record_every)
    n = g.n
    in_p = _band_members("plus", band_plus, n)
    in_m = _band_members("minus", band_minus, n)
    rng = as_rng(seed)
    moves = _heat_bath(g, beta, lam, _start_spins(g, start, rng), rng, T)
    plus, _ = next(moves)
    etas = np.empty(T // record_every + 1)
    etas[0] = (2 * plus - n) / n
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
        n=n, T=T, record_every=record_every, etas=etas[:idx],
        dwell_plus=in_plus / T, dwell_minus=in_minus / T,
        hit_plus=hit_plus, hit_minus=hit_minus,
    )


def run_kawasaki_trace(g: Graph, beta: float, k: int, start: str, T: int,
                       seed, record_every: int = 1, copies: int = 1) -> list:
    """Kawasaki run on ``copies`` equal blocks of ids, as ``disjoint_union``
    lays them out: vertex v lies in copy v // (n / copies).

    Returns the plus count of each copy, as a tuple, at steps 0,
    record_every, 2 record_every, ... up to T.
    """
    _check_run_length(T, record_every)
    if copies < 1 or g.n % copies:
        raise InvalidInputError(
            f"need a number of copies that divides n = {g.n}, got {copies}")
    size = g.n // copies
    rng = as_rng(seed)
    spins = _kawasaki_spins(g, start, rng, k)
    counts = [0] * copies
    for v, s in enumerate(spins):
        counts[v // size] += s == 1
    traj = [tuple(counts)]
    for t, swap in enumerate(_kawasaki_swaps(g, beta, spins, rng, T), 1):
        if swap:
            counts[swap[0] // size] -= 1
            counts[swap[1] // size] += 1
        if t % record_every == 0:
            traj.append(tuple(counts))
    return traj


def trace_rows_glauber(g: Graph, beta: float, lam: float, start: str, T: int,
                       seed, thin: int = 1) -> Iterator[tuple]:
    """Glauber trajectory rows (t, plus_count, mono_edges, eta), as the chain
    makes them.  The kernel's set-up, with its checks, runs before this
    returns."""
    rng = as_rng(seed)
    n = g.n
    moves = _heat_bath(g, beta, lam, _start_spins(g, start, rng), rng, T)
    moves = chain([next(moves)], moves)
    return ((t, plus, mono, (2 * plus - n) / n)
            for t, (plus, mono) in zip(count(0, thin), islice(moves, 0, None, thin)))


def trace_rows_kawasaki(g: Graph, beta: float, k: int, start: str, T: int,
                        seed, thin: int = 1) -> Iterator[tuple]:
    """Kawasaki trajectory rows (t, plus_count, mono_edges, eta), as the
    chain makes them.  The start is drawn and checked before this returns."""
    rng = as_rng(seed)
    n = g.n
    spins = _kawasaki_spins(g, start, rng, k)
    eta = (2 * k - n) / n
    swaps = _kawasaki_swaps(g, beta, spins, rng, T)

    def rows(mono):
        yield 0, k, mono, eta
        for t in range(thin, T + 1, thin):
            for swap in islice(swaps, thin):
                if swap:
                    mono += swap[2]
            yield t, k, mono, eta

    return rows(monochromatic_edges(g, spins))


def trace_rows_coupled(g: Graph, beta: float, k: int, phi: float, T: int,
                       seed, thin: int = 1) -> Iterator[tuple]:
    """Coupled-Kawasaki rows (t, n_disagree, n_bad, rho), as the chain makes
    them.  The coupled start is built before this returns."""
    rng = as_rng(seed)
    driver = CoupledKawasaki(g, beta=beta, k=k, pinned=EMPTY_PINNING, phi=phi)
    xs = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
    ys = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))

    def rows(state):
        yield 0, len(state.D), len(state.B), state.rho
        for t in range(1, T + 1):
            state = driver.step(state, rng)
            if t % thin == 0:
                yield t, len(state.D), len(state.B), state.rho

    return rows(driver.make_state(xs, ys))


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


UNION_M_MAX = 40  # largest number of copies find_union_parameters tries


def find_union_parameters(delta: int, beta: float,
                          eta_target: float) -> UnionParameters:
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
        approx = theta.limit_denominator(UNION_M_MAX)
        if 0 < approx < 1 and abs(float(approx) - float(theta)) < 1e-12:
            m, ell = approx.denominator, approx.numerator
            return UnionParameters(
                m=m, ell=ell, lam_plus=1.0, eta_plus=eta_c, eta_minus=-eta_c,
                eta_target=eta_target,
            )

    def etas(lam):
        """(eta+, eta-) from one solve of the tree equation at lam."""
        crit = _critical_etas(delta, beta, lam)
        return crit[-1], crit[0]

    def combo(e, m, ell):
        return ell * e[0] + (m - ell) * e[1] - m * eta_target

    lam_lo, lam_hi = 1.0 + 1e-9, lu - 1e-9
    e_lo, e_hi = etas(lam_lo), etas(lam_hi)
    for m in range(2, UNION_M_MAX + 1):
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
        f"no (m, l) with m <= {UNION_M_MAX} realizes eta = {eta_target}"
    )
