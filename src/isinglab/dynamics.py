"""The four Markov chains, as seeded simulation steps and exact kernels.

Chains:
  * Glauber: single-site heat bath for the grand-canonical measure.
  * Kawasaki (global, optionally plus-pinned): Metropolis swap of a uniform
    unpinned (+, -) vertex pair.
  * +1-down-up walk (optionally plus-pinned): remove a uniform unpinned
    plus, resample its location from the conditional fixed-magnetization
    measure.
  * (k, l)-down-up walk: resample k - l pluses at once from the conditional
    measure given a uniform l-subset of the current pluses.

On enumerable instances every kernel can also be realized as an explicit
row-stochastic sparse (CSR) matrix with its exact stationary vector.  The
coupled Kawasaki chain tracks the disagreement set D, the "bad"
disagreements B (those adjacent to an agreeing plus), and the contraction
functional rho = phi |D| + |B|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import InvalidInputError, NonReversibleError, TooLargeError
from .graphs import Graph
from .measures import (
    EMPTY_PINNING,
    IsingParams,
    Pinning,
    SpinConfiguration,
    fixed_k_states,
)
from .rng import as_rng

EXACT_SUPPORT_CAP = 200_000  # states enumerated for one exact (k, l) resample
DENSE_KERNEL_BYTES = 512 << 20  # dense view P: at most 8 192 states
# A build peaks near 35 bytes per nonzero, measured as peak RSS growth:
# C(20, 10) = 184 756 Kawasaki states (18.7 M nonzeros) 0.62 GB, the +1
# down-up walk there 0.65 GB, Glauber at n = 20 (22 M) 0.70 GB.  So about
# 1.2 GB at the cap.
KERNEL_NONZERO_CAP = 1 << 25
ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-10


@dataclass(frozen=True)
class ChainKernel:
    """Declarative description of a chain, used by the exact-matrix builder."""

    kind: str  # glauber | kawasaki | downup | kl_downup
    beta: float
    lam: float = None  # glauber only
    k: int = None  # fixed-magnetization kinds
    pinning: Pinning = EMPTY_PINNING
    ell: int = None  # kl_downup only

    def __post_init__(self):
        if self.kind not in ("glauber", "kawasaki", "downup", "kl_downup"):
            raise InvalidInputError(f"unknown chain kind {self.kind!r}")
        if self.kind == "glauber":
            if self.lam is None or self.lam <= 0:
                raise InvalidInputError("glauber needs lambda > 0")
        else:
            if self.k is None:
                raise InvalidInputError(f"{self.kind} needs k")
            if not self.pinning.plus_only:
                raise InvalidInputError(
                    "fixed-magnetization chains support plus pinnings only"
                )
        if self.kind == "kl_downup":
            if self.ell is None or not (0 <= self.ell <= self.k - 1):
                raise InvalidInputError("kl_downup needs 0 <= ell <= k-1")


# ---------------------------------------------------------------------------
# Local weight helpers
# ---------------------------------------------------------------------------


def _plus_neighbor_count(g: Graph, spins, v: int) -> int:
    """Occurrences of +1 neighbors of v, self-loops excluded."""
    j = 0
    for w in g.adjacency[v]:
        if w != v and spins[w] == 1:
            j += 1
    return j


def _degree(g: Graph, v: int) -> int:
    """Non-loop degree of v, parallel edges counted once per copy."""
    return len(g.adjacency[v]) - g.adjacency[v].count(v)


def heat_bath_table(beta: float, lam: float, d: int) -> list:
    """Glauber plus probabilities p_+(j) for j = 0..d plus neighbours of d."""
    return [lam * math.exp(beta * j) / (lam * math.exp(beta * j)
                                        + math.exp(beta * (d - j)))
            for j in range(d + 1)]


def _local_mono(g: Graph, spins, vertices) -> int:
    """Monochromatic edges among those incident to the given vertex set.

    Edges inside the set are counted from their smaller endpoint only;
    parallel copies count once per adjacency occurrence; self-loops are
    always monochromatic.
    """
    m = 0
    for v in vertices:
        loops = 0
        for w in g.adjacency[v]:
            if w == v:
                loops += 1
            elif w in vertices:
                if w > v and spins[v] == spins[w]:
                    m += 1
            elif spins[v] == spins[w]:
                m += 1
        m += loops // 2
    return m


def _swap_delta_mono(g: Graph, spins, u: int, w: int) -> int:
    """Change in monochromatic edges when the spins of u and w are swapped."""
    before = _local_mono(g, spins, {u, w})
    spins[u], spins[w] = spins[w], spins[u]
    after = _local_mono(g, spins, {u, w})
    spins[u], spins[w] = spins[w], spins[u]
    return after - before


# ---------------------------------------------------------------------------
# Seeded simulation steps
# ---------------------------------------------------------------------------


def glauber_step(g: Graph, params: IsingParams, sigma: SpinConfiguration, rng):
    """One heat-bath update at a uniform vertex."""
    rng = as_rng(rng)
    spins = list(sigma.spins)
    v = int(rng.integers(g.n))
    table = heat_bath_table(params.beta, params.lam, _degree(g, v))
    p_plus = table[_plus_neighbor_count(g, spins, v)]
    spins[v] = 1 if rng.random() < p_plus else -1
    return SpinConfiguration.from_spins(g, spins)


def kawasaki_step(
    g: Graph,
    beta: float,
    k: int,
    pinning: Pinning,
    sigma: SpinConfiguration,
    rng,
):
    """Metropolis swap of a uniformly chosen unpinned (+, -) pair."""
    rng = as_rng(rng)
    if sigma.plus_count != k:
        raise InvalidInputError("configuration plus-count differs from k")
    spins = list(sigma.spins)
    plus = [v for v in range(g.n) if spins[v] == 1 and v not in pinning]
    minus = [v for v in range(g.n) if spins[v] == -1 and v not in pinning]
    if not plus or not minus:
        raise InvalidInputError("no swappable (+,-) pair under this pinning")
    u = plus[int(rng.integers(len(plus)))]
    w = minus[int(rng.integers(len(minus)))]
    delta_m = _swap_delta_mono(g, spins, u, w)
    if delta_m >= 0 or rng.random() < math.exp(beta * delta_m):
        spins[u], spins[w] = -1, 1
        return SpinConfiguration.from_spins(g, spins)
    return sigma


def _downup_candidate_weights(g: Graph, spins, v: int, beta: float):
    """Resampling weights over {current minuses} + {v} after removing plus v.

    With the remaining pluses W fixed, placing the plus at u carries relative
    weight e^{beta (2 j_u - d_u)} with j_u the number of edges from u into W
    and d_u its non-loop degree.
    """
    candidates = [v] + [u for u in range(g.n) if u != v and spins[u] == -1]
    spins[v] = -1
    weights = []
    for u in candidates:
        j = _plus_neighbor_count(g, spins, u)
        weights.append(beta * (2 * j - _degree(g, u)))
    spins[v] = 1
    return candidates, weights


def downup_step(
    g: Graph,
    beta: float,
    k: int,
    plus_pinning: Pinning,
    sigma: SpinConfiguration,
    rng,
):
    """Remove a uniform unpinned plus, resample it from the conditional law."""
    rng = as_rng(rng)
    if not plus_pinning.plus_only:
        raise InvalidInputError("down-up walk supports plus pinnings only")
    if sigma.plus_count != k:
        raise InvalidInputError("configuration plus-count differs from k")
    spins = list(sigma.spins)
    free_plus = [v for v in range(g.n) if spins[v] == 1 and v not in plus_pinning]
    if not free_plus:
        raise InvalidInputError("need at least one unpinned plus")
    v = free_plus[int(rng.integers(len(free_plus)))]
    candidates, logw = _downup_candidate_weights(g, spins, v, beta)
    logw = np.array(logw)
    p = np.exp(logw - logw.max())
    p /= p.sum()
    u = candidates[int(rng.choice(len(candidates), p=p))]
    if u != v:
        spins[v], spins[u] = -1, 1
    return SpinConfiguration.from_spins(g, spins)


def kl_downup_step(
    g: Graph,
    beta: float,
    k: int,
    ell: int,
    sigma: SpinConfiguration,
    rng,
    approximate: bool = False,
    inner_sweeps: int = 50,
):
    """One (k, l)-down-up transition: keep a uniform l-subset of pluses and
    resample the rest from the conditional fixed-magnetization measure.

    Exact resampling enumerates the conditional support; beyond the
    enumeration cap an inner Kawasaki run is used when ``approximate`` is set.
    """
    rng = as_rng(rng)
    if not (0 <= ell <= k - 1):
        raise InvalidInputError("need 0 <= ell <= k-1")
    if sigma.plus_count != k:
        raise InvalidInputError("configuration plus-count differs from k")
    plus = [v for v in range(len(sigma.spins)) if sigma.spins[v] == 1]
    keep = set(
        plus[i] for i in rng.choice(len(plus), size=ell, replace=False)
    ) if ell else set()
    n_choose = math.comb(g.n - ell, k - ell)
    if n_choose <= EXACT_SUPPORT_CAP:
        states, mono = fixed_k_states(g, k, plus_pinned=keep)
        logw = beta * mono
        p = np.exp(logw - logw.max())
        p /= p.sum()
        s = states[int(rng.choice(len(states), p=p))]
        spins = [1 if v in s else -1 for v in range(g.n)]
        return SpinConfiguration.from_spins(g, spins)
    if not approximate:
        raise TooLargeError(
            "conditional support too large for exact resampling; "
            "pass approximate=True for an inner Kawasaki run"
        )
    state = sigma
    pin = Pinning.plus(keep)
    for _ in range(inner_sweeps * max(1, k - ell)):
        state = kawasaki_step(g, beta, k, pin, state, rng)
    return state


# ---------------------------------------------------------------------------
# Exact transition matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic kernel as a CSR array, with its exact stationary vector.

    ``K`` may be passed dense or sparse and is kept as a canonical
    ``scipy.sparse.csr_array``.  Building one checks, once and in O(nnz)
    memory, that rows sum to 1 and that pi(x) K(x, y) = pi(y) K(y, x).
    """

    states: tuple  # hashable state labels, index-aligned with K
    K: object = field(repr=False)  # scipy.sparse.csr_array
    pi: np.ndarray = field(repr=False)
    kind: str = ""

    def __post_init__(self):
        from scipy.sparse import csr_array

        K = csr_array(self.K, dtype=float)
        K.sum_duplicates()
        object.__setattr__(self, "K", K)
        err = np.max(np.abs(K.sum(axis=1) - 1.0))
        if err > ROW_SUM_TOL:
            raise NonReversibleError(f"rows sum to 1 +- {err:.2e} > {ROW_SUM_TOL}")
        err = _detailed_balance_error(K, self.pi)
        if err > DETAILED_BALANCE_TOL:
            raise NonReversibleError(f"detailed balance violated by {err:.2e}")

    @cached_property
    def P(self) -> np.ndarray:
        """Read-only dense view of K, for oracles on small kernels."""
        _check_dense_size(len(self.states))
        P = self.K.toarray()
        P.flags.writeable = False
        return P

    def state_index(self, state) -> int:
        return self.states.index(state)


def _detailed_balance_error(K, pi: np.ndarray) -> float:
    """max |pi(x) K(x, y) - pi(y) K(y, x)| over the stored entries of K."""
    Kt = K.T.tocsr()
    if not (np.array_equal(K.indptr, Kt.indptr)
            and np.array_equal(K.indices, Kt.indices)):
        # entries without a stored reverse: compare on the union pattern
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        F = type(K)((pi[rows] * K.data, K.indices, K.indptr), shape=K.shape)
        return float(abs(F - F.T).max())
    # same pattern: entry p of K and of K^T are (x, y) and (y, x); in blocks,
    # so that no temporary grows with nnz
    err = 0.0
    for lo in range(0, K.nnz, 1 << 20):
        hi = min(lo + (1 << 20), K.nnz)
        rows = np.searchsorted(K.indptr, np.arange(lo, hi), side="right") - 1
        d = pi[rows] * K.data[lo:hi] - pi[K.indices[lo:hi]] * Kt.data[lo:hi]
        err = max(err, float(np.max(np.abs(d))))
    return err


def _check_dense_size(size: int) -> None:
    """Refuse a dense size x size float64 view beyond DENSE_KERNEL_BYTES."""
    need = 8 * size * size
    if need > DENSE_KERNEL_BYTES:
        raise TooLargeError(
            f"a dense kernel on {size} states needs {need} bytes, "
            f"over the {DENSE_KERNEL_BYTES}-byte cap"
        )


def _check_nonzeros(bound: int) -> None:
    """Refuse, before enumerating, a kernel with up to ``bound`` entries
    beyond KERNEL_NONZERO_CAP."""
    if bound > KERNEL_NONZERO_CAP:
        raise TooLargeError(
            f"a kernel with up to {bound} nonzeros is over the "
            f"{KERNEL_NONZERO_CAP}-nonzero cap"
        )


def _csr(data: np.ndarray, indices: np.ndarray, size: int):
    """CSR rows over ``size`` columns from equal-length rows (2-D ``data``
    and int32 ``indices``); repeated columns of a row are summed."""
    from scipy.sparse import csr_array

    rows, width = data.shape
    indptr = np.arange(0, rows * width + 1, width, dtype=np.int32)
    K = csr_array((data.ravel(), indices.ravel(), indptr), shape=(rows, size))
    K.sum_duplicates()
    return K


def _fixed_mag_stationary(mono: np.ndarray, beta: float) -> np.ndarray:
    logw = beta * mono
    pi = np.exp(logw - logw.max())
    return pi / pi.sum()


def build_transition_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """Exact sparse kernel and stationary vector for any of the four chains."""
    if kernel.kind == "glauber":
        return _glauber_matrix(kernel, g)
    return _fixed_mag_matrix(kernel, g)


def _glauber_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """States are the integers s < 2^n, bit v set where vertex v is plus; a
    row holds its n single-flip moves and the diagonal."""
    n = g.n
    size = 2**n
    _check_nonzeros(size * (n + 1))
    beta, lam = kernel.beta, kernel.lam
    s = np.arange(size)
    plus = [((s >> v) & 1).astype(bool) for v in range(n)]
    zero = np.zeros(size, dtype=np.int64)
    mono = sum((plus[u] == plus[w] for u, w in g.edges()), zero)
    logw = beta * mono + sum(plus, zero) * math.log(lam)
    pi = np.exp(logw - logw.max())
    pi /= pi.sum()

    cols = np.empty((size, n + 1), dtype=np.int32)
    vals = np.empty((size, n + 1))
    cols[:, 0] = s
    stay = np.zeros(size)
    for v in range(n):
        j = sum((plus[w] for w in g.adjacency[v] if w != v), zero)
        p_plus = np.asarray(heat_bath_table(beta, lam, _degree(g, v)))[j]
        up, down = p_plus / n, (1 - p_plus) / n
        cols[:, v + 1] = s ^ (1 << v)
        vals[:, v + 1] = np.where(plus[v], down, up)
        stay += np.where(plus[v], up, down)
    vals[:, 0] = stay
    return TransitionMatrix(states=tuple(range(size)), K=_csr(vals, cols, size),
                            pi=pi, kind="glauber")


def _fixed_mag_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """Kawasaki, +1 down-up and (k, l) down-up as moves on links.

    From a state S every l-subset K of its free pluses is kept in turn; the
    link of pinned + K is the set of states containing it, listed as
    pinned + K + W over the completions W.  The down-up walks resample from
    the link by its heat-bath law and average over the C(k_free, l) choices
    of K; the +1 walk is l = k_free - 1.  At that l the link is S and the
    states with one free plus of S moved, so Kawasaki proposes each of those
    moves with probability 1 / (k_free (n - k)) and accepts by Metropolis.
    """
    pinned = frozenset(kernel.pinning.assignments)
    beta, k = kernel.beta, kernel.k
    k_free = k - len(pinned)
    if k_free < 1:
        raise InvalidInputError("pinning must leave at least one free plus")
    if k > g.n:
        raise InvalidInputError("k exceeds vertex count")
    if kernel.kind == "kawasaki" and k == g.n:
        raise InvalidInputError("Kawasaki needs an unpinned plus and a minus")
    if kernel.kind == "kl_downup" and pinned:
        raise InvalidInputError("(k,l)-down-up is defined for the unpinned chain")
    ell = kernel.ell if kernel.kind == "kl_downup" else k_free - 1
    m = g.n - len(pinned)
    size = math.comb(m, k_free)
    # a row lies in C(k_free, l) links of C(m - l, k_free - l) states each
    _check_nonzeros(size * min(size, math.comb(k_free, ell)
                               * math.comb(m - ell, k_free - ell)))
    states, mono = fixed_k_states(g, k, plus_pinned=pinned)
    free = [v for v in range(g.n) if v not in pinned]
    if kernel.kind == "kawasaki":
        K = _kawasaki_kernel(states, mono, free, g.n, beta, k_free)
    else:
        K = _downup_kernel(states, mono, free, beta, pinned, ell)
    pi = _fixed_mag_stationary(mono, beta)
    return TransitionMatrix(states=tuple(states), K=K, pi=pi, kind=kernel.kind)


def _kawasaki_kernel(states, mono, free, n, beta, k_free):
    """Row i: its own state, then the k_free (n - k) swaps of a free plus
    with a minus, found by bitmask over the free vertices."""
    size, m = len(states), len(free)
    k = len(states[0])
    X = np.zeros((size, n), dtype=bool)
    X[np.repeat(np.arange(size), k),
      np.fromiter(chain.from_iterable(states), np.intp, size * k)] = True
    X = X[:, free]
    # Python integers past 62 free vertices
    bit = np.array([1 << j for j in range(m)], dtype=np.int64 if m < 63 else object)
    masks = X @ bit
    order = np.argsort(masks, kind="stable").astype(np.int32)
    ranked = masks[order]
    width = m - k_free
    plus = np.nonzero(X)[1].reshape(size, k_free)
    minus = np.nonzero(~X)[1].reshape(size, width)
    cols = np.empty((size, 1 + k_free * width), dtype=np.int32)
    vals = np.empty(cols.shape)
    cols[:, 0] = np.arange(size)
    filled = masks[:, None] ^ bit[minus]
    for a in range(k_free):
        block = slice(1 + a * width, 1 + (a + 1) * width)
        cols[:, block] = order[np.searchsorted(ranked, filled ^ bit[plus[:, a], None])]
        vals[:, block] = np.minimum(
            1.0, np.exp(beta * (mono[cols[:, block]] - mono[:, None]))) / (k_free * width)
    vals[:, 0] = 1.0 - vals[:, 1:].sum(axis=1)
    return _csr(vals, cols, size)


def _downup_kernel(states, mono, free, beta, pinned, ell):
    """Row i: the link of every kept l-subset of its free pluses, weighted
    by the link's heat-bath law over C(k_free, l); repeats are summed.

    Rows are summed in blocks, so that the repeats, which outnumber the
    nonzeros for small l, never all exist at once."""
    from scipy.sparse import vstack

    k_free = len(states[0]) - len(pinned)
    index = {s: i for i, s in enumerate(states)}
    n_subsets = math.comb(k_free, ell)
    width = n_subsets * math.comb(len(free) - ell, k_free - ell)
    links = {}  # K -> (state indices of its link, heat-bath law / C(k_free, l))

    def link(K):
        if K not in links:
            base = pinned.union(K)
            rest = [v for v in free if v not in base]
            idxs = np.array([index[base.union(W)]
                             for W in combinations(rest, k_free - ell)], dtype=np.int32)
            links[K] = idxs, _fixed_mag_stationary(mono[idxs], beta) / n_subsets
        return links[K]

    step = max(1, (1 << 22) // width)
    blocks = []
    for lo in range(0, len(states), step):
        row = [link(K) for s in states[lo:lo + step]
               for K in combinations(sorted(s - pinned), ell)]
        blocks.append(_csr(np.concatenate([law for _, law in row]).reshape(-1, width),
                           np.concatenate([idxs for idxs, _ in row]).reshape(-1, width),
                           len(states)))
    return blocks[0] if len(blocks) == 1 else vstack(blocks, format="csr")


# ---------------------------------------------------------------------------
# Coupled Kawasaki chain (injection form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledState:
    """Two pinned-Kawasaki copies as injections {1..k-|U|} -> V \\ U.

    D holds the disagreeing indices, B the "bad" ones whose plus position in
    either chain neighbors an agreeing plus; rho = phi |D| + |B| is the
    contraction functional.

    Outside == and hashing it caches each copy's vertex -> index map (-1 at
    a minus, -2 at a pinned plus; so also a plus mask) and the per-vertex
    count of neighbouring agreeing pluses.  Steps copy, never write, these.
    """

    X: tuple
    Y: tuple
    pinned: frozenset
    phi: float
    D: frozenset
    B: frozenset
    x_index: np.ndarray = field(default=None, compare=False, repr=False)
    y_index: np.ndarray = field(default=None, compare=False, repr=False)
    agree_nbrs: list = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.X) != len(self.Y):
            raise InvalidInputError("coupled copies must have equal plus counts")

    @property
    def rho(self) -> float:
        return self.phi * len(self.D) + len(self.B)

    def coalesced(self) -> bool:
        return len(self.D) == 0


def _disagreements(X, Y, neighbor_sets):
    D = frozenset(j for j in range(len(X)) if X[j] != Y[j])
    B = set()
    agree = [j for j in range(len(X)) if X[j] == Y[j]]
    for j in D:
        nbrs = neighbor_sets[X[j]] | neighbor_sets[Y[j]]
        if any(X[i] in nbrs for i in agree):
            B.add(j)
    return D, frozenset(B)


def coupled_kawasaki_step(g: Graph, beta: float, k: int, plus_pinning: Pinning,
                          state: CoupledState, rng) -> CoupledState:
    """One joint update of the coupled pinned-Kawasaki pair.

    Convenience wrapper; loops should hold a :class:`CoupledKawasaki` driver
    to reuse its precomputed neighbor sets.
    """
    driver = CoupledKawasaki(g, beta=beta, k=k, plus_pinning=plus_pinning,
                             phi=state.phi)
    return driver.step(state, rng)


class CoupledKawasaki:
    """Driver holding the graph context for the coupled chain."""

    def __init__(self, g: Graph, beta: float, k: int, plus_pinning: Pinning,
                 phi: float):
        if not plus_pinning.plus_only:
            raise InvalidInputError("coupling supports plus pinnings only")
        self.g = g
        self.beta = beta
        self.k = k
        self.pinned = frozenset(plus_pinning.assignments)
        self.phi = phi
        self.neighbor_sets = [
            frozenset(w for w in g.adjacency[v] if w != v) for v in range(g.n)
        ]
        # with multiplicity, for the monochromatic-edge change of a swap
        self.neighbors = [tuple(w for w in a if w != v)
                          for v, a in enumerate(g.adjacency)]
        self.k_free = k - len(self.pinned)
        if self.k_free < 1 or k > g.n - 1:
            raise InvalidInputError(f"need 1 <= k - |pinned| and k <= n - 1, got "
                                    f"k = {k}, |pinned| = {len(self.pinned)}")

    def make_state(self, x_positions, y_positions) -> CoupledState:
        """State built from scratch: D and B by :func:`_disagreements`."""
        X, Y = tuple(x_positions), tuple(y_positions)
        for pos in (X, Y):
            if len(set(pos)) != len(pos) or set(pos) & self.pinned:
                raise InvalidInputError("positions must be distinct and unpinned")
        D, B = _disagreements(X, Y, self.neighbor_sets)
        x_index, y_index = self._index_map(X), self._index_map(Y)
        agreeing = [w for x, y in zip(X, Y) if x == y for w in self.neighbor_sets[x]]
        agree_nbrs = np.bincount(agreeing, minlength=self.g.n).tolist()
        return CoupledState(X=X, Y=Y, pinned=self.pinned, phi=self.phi, D=D, B=B,
                            x_index=x_index, y_index=y_index,
                            agree_nbrs=agree_nbrs)

    def _index_map(self, positions) -> np.ndarray:
        index = np.full(self.g.n, -1, dtype=np.int64)
        index[list(self.pinned)] = -2
        index[list(positions)] = np.arange(len(positions))
        return index

    def _accept_prob(self, index, u, v) -> float:
        """Metropolis probability of moving the plus at u to the minus at v."""
        d = 0
        for x in self.neighbors[u]:
            if x != v:
                d += -1 if index.item(x) != -1 else 1
        for x in self.neighbors[v]:
            if x != u:
                d += 1 if index.item(x) != -1 else -1
        return min(1.0, math.exp(self.beta * d))

    def step(self, state: CoupledState, rng) -> CoupledState:
        """One joint update; each marginal is one pinned-Kawasaki step.

        O(delta) Python work plus O(n) vectorised copies."""
        rng = as_rng(rng)
        X, Y = state.X, state.Y
        x_index, y_index = state.x_index, state.y_index
        # candidates in ascending vertex order
        minus_x = (x_index == -1).nonzero()[0]
        i = int(rng.integers(self.k_free))
        v = int(minus_x[rng.integers(len(minus_x))])

        if y_index.item(v) == -1:
            v_y = v
        else:
            only_y = ((y_index == -1) & (x_index >= 0)).nonzero()[0]
            v_y = int(only_y[rng.integers(len(only_y))])

        phi_x = self._accept_prob(x_index, X[i], v)
        phi_y = self._accept_prob(y_index, Y[i], v_y)

        # maximal coupling: both move, neither moves, or the likelier one alone
        u = rng.random()
        both = min(phi_x, phi_y)
        alone = u >= both + min(1 - phi_x, 1 - phi_y)
        if u < both or (alone and phi_x > phi_y):
            X, x_index = self._moved(X, x_index, i, v)
        if u < both or (alone and phi_x <= phi_y):
            Y, y_index = self._moved(Y, y_index, i, v_y)
        return self._rescored(state, X, Y, x_index, y_index, i)

    @staticmethod
    def _moved(positions, index, i, v):
        """Positions and index map after the plus of index i moved to v."""
        index = index.copy()
        index[positions[i]] = -1
        index[v] = i
        return positions[:i] + (v,) + positions[i + 1:], index

    def _rescored(self, state, X, Y, x_index, y_index, i) -> CoupledState:
        """The new state.  Only index i moved: at most one agreeing plus left
        and one joined, so B changes only at i and at their neighbours."""
        agreed = state.X[i] if state.X[i] == state.Y[i] else None
        agrees = X[i] if X[i] == Y[i] else None
        agree_nbrs = state.agree_nbrs
        touched = {i}
        if agreed != agrees:
            agree_nbrs = agree_nbrs.copy()
            for a, sign in ((agreed, -1), (agrees, 1)):
                if a is not None:
                    for w in self.neighbor_sets[a]:
                        agree_nbrs[w] += sign
                        touched.update((x_index.item(w), y_index.item(w)))
            touched -= {-1, -2}
        bad = {j for j in touched
               if X[j] != Y[j] and (agree_nbrs[X[j]] or agree_nbrs[Y[j]])}
        D, B = state.D, state.B
        if (X[i] != Y[i]) != (i in D):
            D = D ^ {i}
        if touched & B != bad:
            B = (B - touched) | bad
        return CoupledState(X=X, Y=Y, pinned=self.pinned, phi=self.phi, D=D, B=B,
                            x_index=x_index, y_index=y_index,
                            agree_nbrs=agree_nbrs)
