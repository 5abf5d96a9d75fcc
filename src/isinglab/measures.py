"""Spin configurations, pinnings, and exact partition tables.

The partition table is the enumeration oracle behind every exact test in the
package: it aggregates configuration weights e^{beta * mono_edges} by
plus-count k, in log space, so that the grand-canonical measure for any
external field lambda and the fixed-magnetization measure for any k can both
be recovered exactly from one enumeration pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateError,
    InvalidInputError,
    TooLargeError,
)
from .graphs import Graph

DEFAULT_ENUMERATION_CAP = 24

NEG_INF = float("-inf")


@dataclass(frozen=True)
class IsingParams:
    """Inverse temperature beta >= 0 (ferromagnetic) and field lambda > 0."""

    beta: float
    lam: float

    def __post_init__(self):
        if self.beta < 0:
            raise InvalidInputError("beta must be >= 0 (ferromagnetic)")
        if self.lam <= 0:
            raise InvalidInputError("lambda must be > 0")


@dataclass(frozen=True)
class Pinning:
    """Partial spin assignment on a vertex subset U."""

    assignments: dict

    def __post_init__(self):
        for v, s in self.assignments.items():
            if s not in (-1, 1):
                raise InvalidInputError(f"pinned spin at {v} must be +-1, got {s}")

    @property
    def plus_only(self) -> bool:
        return all(s == 1 for s in self.assignments.values())

    @property
    def plus_count(self) -> int:
        return sum(1 for s in self.assignments.values() if s == 1)

    def __len__(self):
        return len(self.assignments)

    def __contains__(self, v):
        return v in self.assignments

    @staticmethod
    def plus(vertices) -> "Pinning":
        return Pinning({v: 1 for v in vertices})


EMPTY_PINNING = Pinning({})


@dataclass(frozen=True)
class SpinConfiguration:
    """+-1 assignment with cached plus-count and monochromatic edge count."""

    spins: tuple
    plus_count: int
    mono_edges: int

    @staticmethod
    def from_spins(g: Graph, spins) -> "SpinConfiguration":
        spins = tuple(int(s) for s in spins)
        if len(spins) != g.n:
            raise InvalidInputError("spin vector length must equal vertex count")
        if any(s not in (-1, 1) for s in spins):
            raise InvalidInputError("spins must be +-1")
        return SpinConfiguration(
            spins=spins,
            plus_count=sum(1 for s in spins if s == 1),
            mono_edges=monochromatic_edges(g, spins),
        )

    @property
    def n(self) -> int:
        return len(self.spins)

    def magnetization(self) -> float:
        return (2 * self.plus_count - self.n) / self.n


def k_of_eta(n: int, eta: float) -> int:
    """Size convention k = floor(n (eta + 1) / 2), as used throughout."""
    if not (-1.0 <= eta <= 1.0):
        raise InvalidInputError("eta must lie in [-1, 1]")
    return math.floor(n * (eta + 1) / 2)


def monochromatic_edges(g: Graph, spins) -> int:
    """Count edges of the multiset whose endpoints carry equal spins.

    A self-loop is monochromatic by definition and counts once.
    """
    if len(spins) != g.n:
        raise InvalidInputError("spin vector length must equal vertex count")
    m = 0
    for u, w in g.edges():
        if u == w or spins[u] == spins[w]:
            m += 1
    return m


def _logsumexp(values) -> float:
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    hi = max(vals)
    return hi + math.log(sum(math.exp(v - hi) for v in vals))


@dataclass(frozen=True)
class PartitionTable:
    """Per-k log fixed-magnetization partition values at one beta.

    ``log_zhat_by_k[k] = log sum_{sigma in Omega_k^{tau_U}} e^{beta m(sigma)}``
    with -inf at infeasible k.  Any-lambda quantities are assembled on demand.
    """

    n: int
    beta: float
    pinning: Pinning
    log_zhat_by_k: tuple

    def log_z(self, lam: float) -> float:
        """log Z(beta, lambda) = log sum_k lambda^k Zhat_k."""
        if lam <= 0:
            raise InvalidInputError("lambda must be > 0")
        ll = math.log(lam)
        return _logsumexp(
            v + k * ll for k, v in enumerate(self.log_zhat_by_k) if v != NEG_INF
        )

    def log_zhat(self, k: int) -> float:
        if not (0 <= k <= self.n):
            raise InvalidInputError(f"k={k} outside [0, {self.n}]")
        return self.log_zhat_by_k[k]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "beta": self.beta,
                "pinning": {str(v): s for v, s in self.pinning.assignments.items()},
                "logZ_by_k": [None if v == NEG_INF else v for v in self.log_zhat_by_k],
            }
        )

    @staticmethod
    def from_json(text: str) -> "PartitionTable":
        obj = json.loads(text)
        return PartitionTable(
            n=obj["n"],
            beta=obj["beta"],
            pinning=Pinning({int(v): s for v, s in obj["pinning"].items()}),
            log_zhat_by_k=tuple(
                NEG_INF if v is None else float(v) for v in obj["logZ_by_k"]
            ),
        )


def exact_partition_table(
    g: Graph,
    beta: float,
    pinning: Pinning = EMPTY_PINNING,
    max_free: int = DEFAULT_ENUMERATION_CAP,
) -> PartitionTable:
    """Enumerate all configurations consistent with the pinning.

    Iterates the free vertices in Gray-code order, updating the
    monochromatic-edge count incrementally per flipped vertex (O(deg) per
    configuration), and tallies exact integer counts N[k][m]; log values come
    from a stable log-sum-exp over m at the end.
    """
    if beta < 0:
        raise InvalidInputError("beta must be >= 0")
    for v in pinning.assignments:
        if not (0 <= v < g.n):
            raise InvalidInputError(f"pinned vertex {v} not in graph")
    free = [v for v in range(g.n) if v not in pinning]
    if len(free) > max_free:
        raise TooLargeError(
            f"{len(free)} free vertices exceeds enumeration cap {max_free}"
        )

    spins = [-1] * g.n
    for v, s in pinning.assignments.items():
        spins[v] = s
    k = pinning.plus_count
    m = monochromatic_edges(g, spins)

    # counts[k][m] over the enumeration; ints are exact.
    counts = [dict() for _ in range(g.n + 1)]
    counts[k][m] = counts[k].get(m, 0) + 1

    adj = g.adjacency
    nfree = len(free)
    for i in range(1, 1 << nfree):
        v = free[(i & -i).bit_length() - 1]
        s_new = -spins[v]
        spins[v] = s_new
        k += 1 if s_new == 1 else -1
        for w in adj[v]:
            if w == v:
                continue  # self-loops stay monochromatic under any flip
            m += 1 if spins[w] == s_new else -1
        counts[k][m] = counts[k].get(m, 0) + 1

    log_by_k = []
    for kk in range(g.n + 1):
        if not counts[kk]:
            log_by_k.append(NEG_INF)
            continue
        log_by_k.append(
            _logsumexp(beta * mm + math.log(c) for mm, c in counts[kk].items())
        )
    return PartitionTable(
        n=g.n,
        beta=beta,
        pinning=pinning,
        log_zhat_by_k=tuple(log_by_k),
    )


def size_distribution(table: PartitionTable, lam: float) -> np.ndarray:
    """Exact pmf of the plus-count X under the grand-canonical measure."""
    if lam <= 0:
        raise InvalidInputError("lambda must be > 0")
    logs = np.array(
        [
            v + k * math.log(lam) if v != NEG_INF else NEG_INF
            for k, v in enumerate(table.log_zhat_by_k)
        ]
    )
    if np.all(np.isneginf(logs)):
        raise DegenerateError("partition table is identically -inf")
    hi = logs.max()
    p = np.exp(logs - hi)
    p /= p.sum()
    assert abs(p.sum() - 1.0) < 1e-12
    return p


@dataclass(frozen=True)
class CumulantResult:
    kappas: tuple  # kappa_1 .. kappa_jmax
    degenerate: bool


def cumulants_of_size(table: PartitionTable, lam: float, j_max: int) -> CumulantResult:
    """Cumulants of the plus-count, exactly, from the pmf.

    Central moments feed the standard moment->cumulant recursion; this equals
    differentiating the cumulant generating function t -> log Z(lambda e^t)
    at 0 but avoids numerical differentiation.
    """
    if not (1 <= j_max <= 8):
        raise InvalidInputError("j_max must be in [1, 8]")
    p = size_distribution(table, lam)
    ks = np.arange(table.n + 1, dtype=float)
    mean = float(p @ ks)
    if np.count_nonzero(p > 0) == 1:
        kappas = [mean] + [0.0] * (j_max - 1)
        return CumulantResult(kappas=tuple(kappas), degenerate=True)
    centered = ks - mean
    central = [1.0, 0.0]
    for j in range(2, j_max + 1):
        central.append(float(p @ centered**j))
    # kappa_j from central moments: kappa_j = c_j - sum C(j-1, i-1) kappa_i c_{j-i}
    kap = [0.0] * (j_max + 1)
    for j in range(1, j_max + 1):
        acc = central[j]
        for i in range(1, j):
            acc -= math.comb(j - 1, i - 1) * kap[i] * central[j - i]
        kap[j] = acc
    kap[1] = mean
    return CumulantResult(kappas=tuple(kap[1:]), degenerate=False)


def cumulants_by_t_derivative(
    g: Graph, beta: float, lam: float, pinning: Pinning = EMPTY_PINNING,
    j_max: int = 3, step: float = 1e-3,
) -> tuple:
    """Cross-check route: central finite differences of t -> log Z(lambda e^t)."""
    if j_max > 3:
        raise InvalidInputError("finite-difference route supports j_max <= 3")
    table = exact_partition_table(g, beta, pinning)

    def K(t):
        return table.log_z(lam * math.exp(t))

    h = step
    k1 = (K(h) - K(-h)) / (2 * h)
    k2 = (K(h) - 2 * K(0.0) + K(-h)) / h**2
    k3 = (K(2 * h) - 2 * K(h) + 2 * K(-h) - K(-2 * h)) / (2 * h**3)
    return (k1, k2, k3)[:j_max]


def _check_consistent(sigma: SpinConfiguration, pinning: Pinning) -> None:
    for v, s in pinning.assignments.items():
        if sigma.spins[v] != s:
            raise InvalidInputError(f"configuration contradicts pinning at {v}")


def gibbs_prob(
    g: Graph,
    params: IsingParams,
    pinning: Pinning,
    sigma: SpinConfiguration,
    table: PartitionTable = None,
) -> float:
    """Exact mu^{tau_U}_{beta,lambda}(sigma) via the partition table."""
    _check_consistent(sigma, pinning)
    if table is None:
        table = exact_partition_table(g, params.beta, pinning)
    log_w = sigma.plus_count * math.log(params.lam) + params.beta * sigma.mono_edges
    return math.exp(log_w - table.log_z(params.lam))


def fixed_mag_prob(
    g: Graph,
    beta: float,
    k: int,
    pinning: Pinning,
    sigma: SpinConfiguration,
    table: PartitionTable = None,
) -> float:
    """Exact mu-hat^{tau_U}_{beta,k}(sigma) via the partition table."""
    _check_consistent(sigma, pinning)
    if sigma.plus_count != k:
        raise InvalidInputError(
            f"configuration has plus-count {sigma.plus_count}, expected k={k}"
        )
    if table is None:
        table = exact_partition_table(g, beta, pinning)
    log_zhat = table.log_zhat(k)
    if log_zhat == NEG_INF:
        raise InvalidInputError(f"Omega_k empty for k={k} under this pinning")
    return math.exp(beta * sigma.mono_edges - log_zhat)


def fixed_k_states(g: Graph, k: int, plus_pinned=()):
    """All plus-sets of size k containing the pinned vertices, with mono counts.

    Returns (states, mono) where states is a list of frozensets and mono the
    matching array of monochromatic edge counts.  Used by the exact-kernel
    and spectral machinery; sizes are small by construction.
    """
    pinned = frozenset(plus_pinned)
    if len(pinned) > k:
        raise InvalidInputError("pinning larger than k")
    free = [v for v in range(g.n) if v not in pinned]
    edge_list = list(g.edges())
    states, mono = [], []
    for extra in combinations(free, k - len(pinned)):
        s = pinned | frozenset(extra)
        m = 0
        for u, w in edge_list:
            if u == w or ((u in s) == (w in s)):
                m += 1
        states.append(s)
        mono.append(m)
    return states, np.array(mono, dtype=float)
