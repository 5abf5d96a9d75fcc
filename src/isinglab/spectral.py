"""Spectral gaps, influence matrices, local walks, and the Edgeworth/LCLT kit.

Gap conventions follow the Poincare characterization: gap(P) = 1 - second
largest eigenvalue of the pi-symmetrized kernel (so a two-state swap chain
has gap 2).  Influence matrices use the one-sided conditioning
M[u, v] = pi(v | u) - pi(v) on subset-valued distributions, which ties
directly to local walks: the second eigenvalue of the local walk at U is at
most (C - 1)/(k - |U| - 1) when M has top eigenvalue at most C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DegenerateError, InvalidInputError, TooLargeError
from .graphs import Graph
from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EMPTY_PINNING,
    TABLE_ENTRY_CAP,
    PartitionTable,
    Pinning,
    cumulants_of_size,
    exact_partition_table,
    fixed_k_states,
    gibbs_law,
    size_distribution,
)
from .dynamics import ChainKernel, TransitionMatrix, build_transition_matrix
from .rng import make_rng


# ---------------------------------------------------------------------------
# Spectral gap and mixing time
# ---------------------------------------------------------------------------


def _second_eigenvalue(tm: TransitionMatrix) -> float:
    """lambda_2 of the pi-symmetrized kernel D^{1/2} K D^{-1/2}, D = diag(pi).

    One Lanczos solve (ARPACK ``eigsh``, the two largest eigenvalues) that
    applies K itself, from a fixed start vector so that reruns agree; two
    states use lambda_2 = trace K - 1.
    """
    size = len(tm.states)
    if size == 1:
        raise DegenerateError("a one-state chain has no second eigenvalue")
    if size == 2:
        return float(tm.K.trace()) - 1.0
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    sq = np.sqrt(tm.pi)
    A = LinearOperator((size, size), dtype=float,
                       matvec=lambda x: sq * (tm.K @ (x.ravel() / sq)))
    try:
        top = eigsh(A, k=2, which="LA", v0=make_rng(0).random(size),
                    return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise DegenerateError(f"Lanczos solve did not converge: {exc}") from exc
    return float(top.min())


def spectral_gap(tm: TransitionMatrix, variational_samples: int = 0) -> float:
    """Poincare constant 1 - lambda_2 of a reversible kernel.

    Reversibility was checked when ``tm`` was built.  With
    ``variational_samples`` > 0, also checks gap <= E(f, f)/Var(f) on random
    test functions, which holds for every f by the variational
    characterization; f is drawn from ``make_rng(0, 1)``, a stream apart from
    the solver's start vector.
    """
    gap = 1.0 - _second_eigenvalue(tm)
    if variational_samples:
        rng = make_rng(0, 1)
        for _ in range(variational_samples):
            f = rng.normal(size=len(tm.pi))
            q = dirichlet_quotient(tm, f)
            if q is not None and gap > q + 1e-8:
                raise AssertionError(f"gap {gap} exceeds a Dirichlet quotient {q}")
    return float(gap)


def dirichlet_quotient(tm: TransitionMatrix, f: np.ndarray):
    """E_P(f, f) / Var_pi(f); None for (near-)constant f."""
    mean = tm.pi @ f
    var = tm.pi @ (f - mean) ** 2
    if var < 1e-14:
        return None
    K = tm.K.tocoo()
    energy = 0.5 * np.sum(tm.pi[K.row] * K.data * (f[K.row] - f[K.col]) ** 2)
    return float(energy / var)


def mixing_time_upper(tm: TransitionMatrix, gap: float = None) -> float:
    """Spectral bound gap^{-1} * log(4 / min pi); pass ``gap`` if known."""
    if gap is None:
        gap = spectral_gap(tm)
    if gap <= 0:
        raise DegenerateError("zero spectral gap; no mixing bound")
    return (1.0 / gap) * math.log(4.0 / tm.pi.min())


def exact_mixing_time(tm: TransitionMatrix, lazy: bool = True,
                      max_steps: int = 1_000_000) -> int:
    """First t with worst-start total variation <= 1/4, by matrix powers.

    Raw Kawasaki on two states is periodic and never mixes; the default runs
    the lazy kernel (I + P)/2.
    """
    if len(tm.states) > 4000:
        raise InvalidInputError("exact mixing time limited to <= 4000 states")
    P = 0.5 * (np.eye(len(tm.states)) + tm.P) if lazy else tm.P
    M = np.eye(len(tm.states))
    for t in range(1, max_steps + 1):
        M = M @ P
        tv = 0.5 * np.max(np.abs(M - tm.pi[None, :]).sum(axis=1))
        if tv <= 0.25:
            return t
    raise DegenerateError(f"chain did not mix within {max_steps} steps")


# ---------------------------------------------------------------------------
# Influence matrices and independence norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfluenceMatrix:
    M: np.ndarray = field(repr=False)
    linf_norm: float
    top_eigenvalue: float
    has_complex_pair: bool


def _marginals(X, probs):
    """pi(v) and pi(u and v) over the columns of the plus matrix X: p X and
    X^T diag(p) X, in C order (BLAS sums in an order set by the layout)."""
    X = X.astype(float, order="C")
    return probs @ X, X.T @ (probs[:, None] * X)


def influence_matrix(X, probs) -> InfluenceMatrix:
    """M[u, v] = pi(v | u) - pi(v) for a distribution on subsets.

    The subsets are the rows of the boolean plus matrix X (states x
    vertices) and ``probs`` their probabilities.  Rows with pi(u) = 0 are
    zero.  The top eigenvalue is the largest real part of the spectrum; a
    flag reports complex pairs (none appear for FKG measures, where M is
    nonnegative).
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise InvalidInputError("probabilities must sum to 1")
    marg, joint = _marginals(X, probs)
    M = np.zeros_like(joint)
    live = marg > 0
    M[live] = joint[live] / marg[live, None] - marg
    linf = float(np.max(np.abs(M).sum(axis=1)))
    eigs = np.linalg.eigvals(M)
    has_complex = bool(np.any(np.abs(eigs.imag) > 1e-9))
    top = float(np.max(eigs.real))
    return InfluenceMatrix(M=M, linf_norm=linf, top_eigenvalue=top,
                           has_complex_pair=has_complex)


def _check_listing(g: Graph, size: int, max_free: int) -> None:
    """Refuse, before listing, more than ``max_free`` free vertices, or a plus
    matrix of ``size`` states over TABLE_ENTRY_CAP entries (as many float64
    as ``_marginals`` then holds)."""
    if g.n > max_free:
        raise TooLargeError(f"{g.n} free vertices exceeds enumeration cap {max_free}")
    if size * g.n > TABLE_ENTRY_CAP:
        raise TooLargeError(f"a plus matrix of {size} x {g.n} entries is over "
                            f"the {TABLE_ENTRY_CAP}-entry cap")


def grand_canonical_distribution(g: Graph, beta: float, lam: float,
                                 max_free: int = DEFAULT_ENUMERATION_CAP):
    """(X, probs) over plus-sets for the grand-canonical measure: the plus
    matrix listed size by size, enumerating at most ``max_free`` vertices."""
    if beta < 0:
        raise InvalidInputError("beta must be >= 0")
    _check_listing(g, 2**g.n, max_free)
    X, logw = [], []
    for r in range(g.n + 1):
        plus_sets, mono = fixed_k_states(g, r)
        X.append(plus_sets)
        logw.append(beta * mono + r * math.log(lam))
    return np.concatenate(X), gibbs_law(np.concatenate(logw))


def fixed_mag_distribution(g: Graph, beta: float, k: int,
                           max_free: int = DEFAULT_ENUMERATION_CAP):
    """(X, probs) over plus-sets for the fixed-magnetization measure,
    enumerating at most ``max_free`` vertices."""
    if not 0 <= k <= g.n:
        raise InvalidInputError(f"k={k} outside [0, {g.n}]")
    _check_listing(g, math.comb(g.n, k), max_free)
    X, mono = fixed_k_states(g, k)
    return X, gibbs_law(beta * mono)


# ---------------------------------------------------------------------------
# Local walks and the local-to-global bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalWalk:
    pinned: frozenset
    vertices: tuple
    Q: np.ndarray = field(repr=False)
    second_eigenvalue: float


def local_walk(X, probs, pinned, k) -> LocalWalk:
    """Single-element exchange walk on the link of a pinned set.

    The distribution is ``probs`` over the rows of the plus matrix X.
    Q(u, v) = pi^{U + u}(v) / (k - |U| - 1) for u != v over the unpinned
    vertices; reversible with respect to pi^U(.)/(k - |U|).
    """
    pinned = frozenset(pinned)
    if len(pinned) > k - 2:
        raise InvalidInputError("need |U| <= k - 2 for a nontrivial local walk")
    if not pinned <= set(range(X.shape[1])):
        raise InvalidInputError("pinned vertices must be columns of X")
    probs = np.asarray(probs, dtype=float)
    keep = X[:, sorted(pinned)].all(axis=1)
    mass = probs[keep].sum()
    if mass <= 0:
        raise InvalidInputError("pinned set has zero probability")
    X = X[keep]
    support = np.setdiff1d(np.flatnonzero(X.any(axis=0)), list(pinned))
    marg, joint = _marginals(X[:, support], probs[keep] / mass)
    np.fill_diagonal(joint, 0.0)
    Q = np.zeros_like(joint)
    live = marg > 0
    Q[live] = joint[live] / marg[live, None] / (k - len(pinned) - 1)
    # reversible wrt pi-hat(u) = pi^U(u)/(k - |U|)
    pi_hat = marg / (k - len(pinned))
    sq = np.sqrt(pi_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = (sq[:, None] / sq[None, :]) * Q
    A[~np.isfinite(A)] = 0.0
    A = 0.5 * (A + A.T)
    eigs = np.linalg.eigvalsh(A)
    return LocalWalk(
        pinned=pinned,
        vertices=tuple(support.tolist()),
        Q=Q,
        second_eigenvalue=float(eigs[-2]),
    )


@dataclass(frozen=True)
class LocalToGlobalBound:
    gammas: tuple
    bound: float
    collapsed: bool  # some zeta hit 1, zeroing the Gamma tail


def local_to_global_gap_bound(zetas, ell: int) -> LocalToGlobalBound:
    """gap(Q_{pi,ell}) >= sum_{m>=ell} Gamma_m / sum_m Gamma_m.

    ``zetas`` are the per-level local second-eigenvalue bounds
    (zeta_0 .. zeta_{k-2}); Gamma_m = prod_{j<m} (1 - zeta_j)/(1 + zeta_j).
    """
    zetas = list(zetas)
    k = len(zetas) + 1
    if not (0 <= ell <= k - 1):
        raise InvalidInputError("need 0 <= ell <= k-1")
    if any(z < -1 or z > 1 for z in zetas):
        raise InvalidInputError("zetas must lie in [-1, 1]")
    collapsed = any(z == 1.0 for z in zetas)
    gammas = [1.0]
    for z in zetas:
        gammas.append(gammas[-1] * (1 - z) / (1 + z) if z < 1 else 0.0)
    total = sum(gammas)
    tail = sum(gammas[ell:])
    bound = tail / total if total > 0 else 0.0
    return LocalToGlobalBound(gammas=tuple(gammas), bound=bound,
                              collapsed=collapsed)


@dataclass(frozen=True)
class GapFactorizationReport:
    gap_full: float
    gap_pinned_inf: float
    gap_kl: float
    product: float
    satisfied: bool


def gap_factorization_check(g: Graph, beta: float, k: int, ell: int,
                            tol: float = 1e-12) -> GapFactorizationReport:
    """Exact check of gap(P_{beta,k}) >= inf_U gap(P^U_{beta,k}) gap(P_{ell,beta,k})."""
    tm_full = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
    gap_full = spectral_gap(tm_full)
    gap_inf = gap_full if ell == 0 else min(
        spectral_gap(build_transition_matrix(
            ChainKernel("downup", beta=beta, k=k, pinning=Pinning.plus(u)), g))
        for u in combinations(range(g.n), ell)
    )
    tm_kl = build_transition_matrix(
        ChainKernel("kl_downup", beta=beta, k=k, ell=ell), g
    )
    gap_kl = spectral_gap(tm_kl)
    product = gap_inf * gap_kl
    return GapFactorizationReport(
        gap_full=gap_full,
        gap_pinned_inf=gap_inf,
        gap_kl=gap_kl,
        product=product,
        satisfied=gap_full >= product - tol,
    )


def local_expansion_zetas(g: Graph, beta: float, k: int,
                          max_free: int = DEFAULT_ENUMERATION_CAP) -> list:
    """zeta_m = max over U in C(V, m) of the local-walk second eigenvalue."""
    X, probs = fixed_mag_distribution(g, beta, k, max_free=max_free)
    zetas = []
    for m in range(k - 1):
        worst = -1.0
        for u in combinations(range(g.n), m):
            try:
                lw = local_walk(X, probs, u, k)
            except InvalidInputError:
                continue
            worst = max(worst, lw.second_eigenvalue)
        zetas.append(worst)
    return zetas


# ---------------------------------------------------------------------------
# Edgeworth expansion and LCLT probes
# ---------------------------------------------------------------------------


def _hermite(r: int, x: float) -> float:
    """Probabilists' Hermite polynomial He_r(x)."""
    h0, h1 = 1.0, x
    if r == 0:
        return h0
    for m in range(1, r):
        h0, h1 = h1, x * h1 - m * h0
    return h1


def _edgeworth_tuples(r: int, d: int):
    """Tuples (k_3..k_{2d+1}) with sum j k_j = r, sum k_j (j-2)/2 <= d."""
    js = list(range(3, 2 * d + 2))
    out = []

    def rec(pos, remaining, half_weight, acc):
        if pos == len(js):
            if remaining == 0 and half_weight <= d:
                out.append(tuple(acc))
            return
        j = js[pos]
        for kj in range(remaining // j + 1):
            hw = half_weight + kj * (j - 2) / 2
            if hw > d:
                break
            rec(pos + 1, remaining - kj * j, hw, acc + [kj])

    rec(0, r, 0.0, [])
    return out


@dataclass(frozen=True)
class EdgeworthApprox:
    s: float
    beta_coeffs: dict  # j -> kappa_j / (j! s^j)
    order: int
    ells: tuple
    values: tuple


def edgeworth_pmf(kappas, ells, d: int) -> EdgeworthApprox:
    """Series approximation to P(X - E[X] = ell).

    Order d = 0 is the pure Gaussian term e^{-ell^2/(2 s^2)}/(sqrt(2 pi) s);
    order d adds Hermite corrections H_r(ell/s) over r = 3 .. 6d with
    coefficients built from cumulants kappa_3 .. kappa_{2d+1}.
    """
    if d < 0 or d > 2:
        raise InvalidInputError("supported orders are d in {0, 1, 2}")
    kappas = list(kappas)
    if len(kappas) < max(2, 2 * d + 1):
        raise InvalidInputError(f"need cumulants up to order {max(2, 2 * d + 1)}")
    s2 = kappas[1]
    if s2 <= 0:
        raise DegenerateError("variance must be positive")
    s = math.sqrt(s2)
    beta_coeffs = {}
    for j in range(3, 2 * d + 2):
        scale = math.factorial(j) * s**j  # underflows to 0 for a tiny variance
        if scale == 0 or not math.isfinite(kappas[j - 1] / scale):
            raise DegenerateError(
                f"Edgeworth coefficient of order {j} is not finite (s = {s:.3g})")
        beta_coeffs[j] = kappas[j - 1] / scale
    values = []
    for ell in ells:
        x = ell / s
        series = 1.0
        for r in range(3, 6 * d + 1):
            coeff = 0.0
            for tup in _edgeworth_tuples(r, d):
                term = 1.0
                for j, kj in zip(range(3, 2 * d + 2), tup):
                    term *= beta_coeffs[j] ** kj / math.factorial(kj)
                coeff += term
            if coeff:
                series += _hermite(r, x) * coeff
        values.append(math.exp(-(ell**2) / (2 * s2)) / (math.sqrt(2 * math.pi) * s) * series)
    return EdgeworthApprox(
        s=s, beta_coeffs=beta_coeffs, order=d, ells=tuple(ells), values=tuple(values)
    )


@dataclass(frozen=True)
class LcltErrorReport:
    sup_error: float
    scaled_sup_error: float  # sup error * s


def lclt_error(table: PartitionTable, lam: float, d: int,
               window: int = 2) -> LcltErrorReport:
    """Sup |exact - Edgeworth_d| over plus-counts within ``window`` of the mean."""
    pmf = size_distribution(table, lam)
    kappas = cumulants_of_size(table, lam, max(2, 2 * d + 1)).kappas
    mean = kappas[0]
    ks = [k for k in range(table.n + 1) if abs(k - mean) <= window]
    ells = [k - mean for k in ks]
    approx = edgeworth_pmf(kappas, ells, d)
    sup = max(abs(pmf[k] - v) for k, v in zip(ks, approx.values))
    return LcltErrorReport(sup_error=sup, scaled_sup_error=sup * approx.s)


@dataclass(frozen=True)
class StabilityProbe:
    pmf_delta: float
    kappa_deltas: tuple


def stability_probe(g: Graph, beta: float, lam: float, pinning: Pinning,
                    v: int) -> StabilityProbe:
    """|P(X=k) - P(X=k | sigma(v)=+1)| at the central k, plus cumulant shifts."""
    table = exact_partition_table(g, beta, pinning)
    res = cumulants_of_size(table, lam, 3)
    if v in pinning:
        return StabilityProbe(pmf_delta=0.0, kappa_deltas=(0.0, 0.0, 0.0))
    plus_pin = Pinning({**pinning.assignments, v: 1})
    table_v = exact_partition_table(g, beta, plus_pin)
    res_v = cumulants_of_size(table_v, lam, 3)
    k = int(round(res.kappas[0]))
    pmf = size_distribution(table, lam)
    pmf_v = size_distribution(table_v, lam)
    return StabilityProbe(
        pmf_delta=abs(pmf[k] - pmf_v[k]),
        kappa_deltas=tuple(
            abs(a - b) for a, b in zip(res.kappas, res_v.kappas)
        ),
    )


@dataclass(frozen=True)
class CharacteristicBound:
    fitted_c: float
    degenerate: bool


def characteristic_bound_probe(g: Graph, beta: float, lam: float,
                               pinning: Pinning = EMPTY_PINNING) -> CharacteristicBound:
    """Largest c with |E e^{itX}| <= e^{-c t^2 n} on the 200-point grid of
    t in (0, pi]."""
    table = exact_partition_table(g, beta, pinning)
    pmf = size_distribution(table, lam)
    ks = np.arange(table.n + 1)
    c_best = math.inf
    degenerate = False
    for i in range(1, 201):
        t = math.pi * i / 200
        phi = abs(np.sum(pmf * np.exp(1j * t * ks)))
        if phi >= 1.0 - 1e-15:
            degenerate = True
            c_best = 0.0
            break
        c_best = min(c_best, -math.log(phi) / (t**2 * g.n))
    return CharacteristicBound(fitted_c=float(c_best), degenerate=degenerate)
