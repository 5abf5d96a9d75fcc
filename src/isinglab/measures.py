"""Spin configurations, pinnings, and exact partition tables.

The partition table is the exact oracle behind every exact test in the
package: it aggregates configuration weights e^{beta * mono_edges} by
plus-count k, in log space, so that the grand-canonical measure for any
external field lambda and the fixed-magnetization measure for any k can both
be recovered exactly from one table.  A transfer-matrix DP over the free
vertices builds it in about n^2 * 2^w steps, w being the widest frontier of a
greedy vertex order, instead of visiting all 2^n configurations.

A pinning is the set U of vertices pinned plus, as a frozenset (``pinned``):
the paper's arguments condition only on pluses (the links of k-sets behind
the local walks, the down-up walk and the pinned chains of the gap
factorization), so a pinned measure is the measure on the states that are
plus on U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import (
    DegenerateError,
    InvalidInputError,
    TooLargeError,
)
from .graphs import Graph

# Largest frontier-DP table, 256 MB of float64; as dynamics.KERNEL_NONZERO_CAP.
TABLE_ENTRY_CAP = 1 << 25

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


EMPTY_PINNING = frozenset()  # no vertex pinned


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
    return sum(1 for u, w in g.edges if spins[u] == spins[w])


def _logsumexp(values) -> float:
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    hi = max(vals)
    return float(hi + math.log(sum(math.exp(v - hi) for v in vals)))


@dataclass(frozen=True)
class PartitionTable:
    """Per-k log fixed-magnetization partition values at one beta.

    ``log_zhat_by_k[k] = log sum_{sigma in Omega_k^U} e^{beta m(sigma)}``, the
    states with k pluses that are plus on U = ``pinned``, with -inf at
    infeasible k.  Any-lambda quantities are assembled on demand.
    """

    n: int
    beta: float
    pinned: frozenset
    log_zhat_by_k: tuple

    def log_weights_by_k(self, lam: float) -> np.ndarray:
        """log Zhat_k + k log lambda for k = 0..n, -inf at infeasible k: the
        log weights of the plus-count under the grand-canonical measure."""
        if lam <= 0:
            raise InvalidInputError("lambda must be > 0")
        return np.array(self.log_zhat_by_k) + np.arange(self.n + 1) * math.log(lam)


def _frontier_steps(free, nbrs):
    """Greedy vertex order for the frontier DP, refused (TooLargeError) at
    the first step whose table of 2^w x (free + 1) entries, w frontier spins
    held just after a vertex enters, is over TABLE_ENTRY_CAP.

    Each step takes the free vertex that leaves the smallest frontier once
    finished vertices (those with no unprocessed neighbour) are dropped; ties
    go to the lowest id.  Returns [(v, finished after v enters), ...].
    """
    left = list(free)
    remaining = {v: len(nbrs[v]) for v in free}
    frontier = set()
    steps = []

    def frontier_after(v):
        done = sum(1 for u in nbrs[v] if u in frontier and remaining[u] == 1)
        return len(frontier) + 1 - done - (remaining[v] == 0)

    while left:
        v = min(left, key=frontier_after)
        left.remove(v)
        width = len(frontier) + 1
        if (1 << width) * (len(free) + 1) > TABLE_ENTRY_CAP:
            raise TooLargeError(
                f"a frontier table of 2^{width} x {len(free) + 1} entries is "
                f"over the {TABLE_ENTRY_CAP}-entry cap"
            )
        for u in nbrs[v]:
            remaining[u] -= 1
        frontier.add(v)
        done = sorted(u for u in frontier if remaining[u] == 0)
        frontier.difference_update(done)
        steps.append((v, done))
    return steps


def exact_partition_table(
    g: Graph,
    beta: float,
    pinned=EMPTY_PINNING,
) -> PartitionTable:
    """Exact per-k log partition values with the ``pinned`` vertices plus, by
    a transfer-matrix DP.

    Self-loops and pinned-pinned edges fold into a constant, free-pinned
    edges into a count of pinned neighbours per free vertex, and parallel
    free-free edges into a multiplicity.  The free vertices then enter one at
    a time in a greedy minimum-frontier order (``_frontier_steps``), and the
    table holds log-weights indexed by (spins of the frontier, plus-count so
    far): an entering vertex doubles it, and a vertex whose neighbours have
    all entered is summed out.  The cost is about n_free^2 * 2^w for peak
    frontier width w; a table of more than TABLE_ENTRY_CAP entries, its one
    bound, is refused while the order is built, before anything is allocated.
    """
    if beta < 0:
        raise InvalidInputError("beta must be >= 0")
    pinned = frozenset(pinned)
    for v in pinned:
        if not (0 <= v < g.n):
            raise InvalidInputError(f"pinned vertex {v} not in graph")
    free = [v for v in range(g.n) if v not in pinned]

    const = 0  # self-loops and pinned-pinned edges, monochromatic in every state
    field = {v: 0 for v in free}  # pinned (plus) neighbours
    mult = {v: {} for v in free}  # free-free edge multiplicities
    for u, w in g.edges:
        if u == w or (u in pinned and w in pinned):
            const += 1
        elif u in pinned or w in pinned:
            field[w if u in pinned else u] += 1
        else:
            mult[u][w] = mult[u].get(w, 0) + 1
            mult[w][u] = mult[w].get(u, 0) + 1

    steps = _frontier_steps(free, mult)

    table = np.zeros((1, 1))
    frontier = []  # vertex of each spin bit of the table's row index
    for v, done in steps:
        rows, cols = table.shape
        # beta * (frontier neighbours of v that are plus), by row, and for all
        index = np.arange(rows)
        plus_nbrs = np.zeros(rows)
        for i, u in enumerate(frontier):
            if u in mult[v]:
                plus_nbrs += beta * mult[v][u] * ((index >> i) & 1)
        all_nbrs = beta * sum(mult[v].get(u, 0) for u in frontier)
        # rows with v minus, then rows with v plus (one more plus spin)
        grown = np.empty((2 * rows, cols + 1))
        grown[:rows, -1] = grown[rows:, 0] = NEG_INF
        minus_mono = all_nbrs - plus_nbrs
        np.add(table, minus_mono[:, None], out=grown[:rows, :-1])
        plus_mono = beta * field[v] + plus_nbrs
        np.add(table, plus_mono[:, None], out=grown[rows:, 1:])
        frontier.append(v)
        for u in done:
            i = frontier.index(u)
            halves = grown.reshape(-1, 2, 1 << i, cols + 1)
            grown = np.logaddexp(halves[:, 0], halves[:, 1]).reshape(-1, cols + 1)
            frontier.pop(i)
        table = grown

    log_by_k = [NEG_INF] * (g.n + 1)
    for k, value in enumerate(table[0]):
        log_by_k[len(pinned) + k] = float(value) + beta * const
    return PartitionTable(n=g.n, beta=beta, pinned=pinned,
                          log_zhat_by_k=tuple(log_by_k))


def gibbs_law(logw: np.ndarray) -> np.ndarray:
    """Probabilities proportional to exp(logw), taken after subtracting the
    largest log-weight so that large beta stays finite."""
    p = np.exp(logw - logw.max())
    p /= p.sum()
    return p


def size_distribution(table: PartitionTable, lam: float) -> np.ndarray:
    """Exact pmf of the plus-count X under the grand-canonical measure."""
    logs = table.log_weights_by_k(lam)
    if np.all(np.isneginf(logs)):
        raise DegenerateError("partition table is identically -inf")
    p = gibbs_law(logs)
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


def mono_counts(g: Graph, X: np.ndarray) -> np.ndarray:
    """Monochromatic edge counts of the plus sets that are the rows of the
    boolean matrix X (True at a plus), as floats; self-loops always count,
    parallel copies once each."""
    u, w = g.edge_ends
    return (X[:, u] == X[:, w]).sum(axis=1, dtype=float)


def fixed_k_states(g: Graph, k: int, pinned=EMPTY_PINNING):
    """All plus-sets of size k containing the ``pinned`` set, with mono counts.

    Returns (X, mono): X is the (states x n) boolean plus matrix, its rows in
    ``combinations`` order of the free pluses, and mono their ``mono_counts``.
    The one lister of plus sets (exact kernels, down-up resamples, spectral
    distributions).  It lists C(n - |pinned|, k - |pinned|) states, which the
    kernel, (k, l) resample and spectral callers cap before calling it.
    """
    pinned = frozenset(pinned)
    if len(pinned) > k:
        raise InvalidInputError("pinned set larger than k")
    free = [v for v in range(g.n) if v not in pinned]
    r = k - len(pinned)
    size = math.comb(len(free), r)
    X = np.zeros((size, g.n), dtype=bool)
    X[:, sorted(pinned)] = True
    X[np.repeat(np.arange(size), r),
      np.fromiter(chain.from_iterable(combinations(free, r)), np.intp, size * r)] = True
    return X, mono_counts(g, X)
