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
row-stochastic matrix with its exact stationary vector.  The coupled
Kawasaki chain tracks the disagreement set D, the "bad" disagreements B
(those adjacent to an agreeing plus), and the contraction functional
rho = phi |D| + |B|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

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

MATRIX_STATE_CAP = 200_000
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
    j = _plus_neighbor_count(g, spins, v)
    d = len(g.adjacency[v]) - g.adjacency[v].count(v)
    w_plus = params.lam * math.exp(params.beta * j)
    w_minus = math.exp(params.beta * (d - j))
    p_plus = w_plus / (w_plus + w_minus)
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
        d = len(g.adjacency[u]) - g.adjacency[u].count(u)
        weights.append(beta * (2 * j - d))
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
    if n_choose <= MATRIX_STATE_CAP:
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
    """Dense row-stochastic kernel with its exact stationary vector."""

    states: tuple  # hashable state labels, index-aligned with P
    P: np.ndarray = field(repr=False)
    pi: np.ndarray = field(repr=False)
    kind: str = ""
    reversible: bool = True

    def state_index(self, state) -> int:
        return self.states.index(state)


def _validate_matrix(tm: TransitionMatrix) -> None:
    rows = tm.P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
        raise NonReversibleError(
            f"rows sum to 1 +- {np.max(np.abs(rows - 1)):.2e} > {ROW_SUM_TOL}"
        )
    if tm.reversible:
        F = tm.pi[:, None] * tm.P
        if np.max(np.abs(F - F.T)) > DETAILED_BALANCE_TOL:
            raise NonReversibleError(
                f"detailed balance violated by {np.max(np.abs(F - F.T)):.2e}"
            )


def _fixed_mag_stationary(mono: np.ndarray, beta: float) -> np.ndarray:
    logw = beta * mono
    pi = np.exp(logw - logw.max())
    return pi / pi.sum()


def build_transition_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """Exact dense kernel and stationary vector for any of the four chains."""
    if kernel.kind == "glauber":
        return _glauber_matrix(kernel, g)
    if kernel.kind == "kawasaki":
        return _kawasaki_matrix(kernel, g)
    if kernel.kind == "downup":
        return _downup_matrix(kernel, g)
    return _kl_downup_matrix(kernel, g)


def _glauber_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    n = g.n
    if 2**n > MATRIX_STATE_CAP:
        raise TooLargeError(f"2^{n} states exceed cap {MATRIX_STATE_CAP}")
    beta, lam = kernel.beta, kernel.lam
    size = 2**n
    states = tuple(range(size))

    def spins_of(s):
        return [1 if (s >> v) & 1 else -1 for v in range(n)]

    edge_list = list(g.edges())
    logw = np.empty(size)
    for s in range(size):
        spins = spins_of(s)
        m = sum(1 for u, w in edge_list if u == w or spins[u] == spins[w])
        k = bin(s).count("1")
        logw[s] = beta * m + k * math.log(lam)
    pi = np.exp(logw - logw.max())
    pi /= pi.sum()

    P = np.zeros((size, size))
    for s in range(size):
        spins = spins_of(s)
        for v in range(n):
            j = _plus_neighbor_count(g, spins, v)
            d = len(g.adjacency[v]) - g.adjacency[v].count(v)
            w_plus = lam * math.exp(beta * j)
            w_minus = math.exp(beta * (d - j))
            p_plus = w_plus / (w_plus + w_minus)
            s_plus = s | (1 << v)
            s_minus = s & ~(1 << v)
            P[s, s_plus] += p_plus / n
            P[s, s_minus] += (1 - p_plus) / n
    tm = TransitionMatrix(states=states, P=P, pi=pi, kind="glauber")
    _validate_matrix(tm)
    return tm


def _fixed_mag_state_space(kernel: ChainKernel, g: Graph):
    pinned = frozenset(kernel.pinning.assignments)
    k = kernel.k
    if len(pinned) >= k:
        raise InvalidInputError("pinning must leave at least one free plus")
    if k > g.n:
        raise InvalidInputError("k exceeds vertex count")
    count = math.comb(g.n - len(pinned), k - len(pinned))
    if count > MATRIX_STATE_CAP:
        raise TooLargeError(f"{count} states exceed cap {MATRIX_STATE_CAP}")
    states, mono = fixed_k_states(g, k, plus_pinned=pinned)
    index = {s: i for i, s in enumerate(states)}
    return pinned, states, mono, index


def _kawasaki_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    pinned, states, mono, index = _fixed_mag_state_space(kernel, g)
    beta, k = kernel.beta, kernel.k
    n_free_plus = k - len(pinned)
    n_minus = g.n - k
    if n_free_plus < 1 or n_minus < 1:
        raise InvalidInputError("Kawasaki needs an unpinned plus and a minus")
    size = len(states)
    P = np.zeros((size, size))
    pairs = n_free_plus * n_minus
    for i, s in enumerate(states):
        for u in s:
            if u in pinned:
                continue
            for w in range(g.n):
                if w in s:
                    continue
                t = (s - {u}) | {w}
                j = index[t]
                accept = min(1.0, math.exp(beta * (mono[j] - mono[i])))
                P[i, j] += accept / pairs
        P[i, i] += 1.0 - P[i].sum()
    pi = _fixed_mag_stationary(mono, beta)
    tm = TransitionMatrix(states=tuple(states), P=P, pi=pi, kind="kawasaki")
    _validate_matrix(tm)
    return tm


def _downup_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    pinned, states, mono, index = _fixed_mag_state_space(kernel, g)
    beta, k = kernel.beta, kernel.k
    n_free_plus = k - len(pinned)
    if n_free_plus < 1:
        raise InvalidInputError("down-up walk needs an unpinned plus")
    size = len(states)
    P = np.zeros((size, size))
    for i, s in enumerate(states):
        for v in s:
            if v in pinned:
                continue
            candidates = [v] + [u for u in range(g.n) if u not in s]
            logw = np.array([beta * mono[index[(s - {v}) | {u}]] for u in candidates])
            w = np.exp(logw - logw.max())
            w /= w.sum()
            for u, p_u in zip(candidates, w):
                P[i, index[(s - {v}) | {u}]] += p_u / n_free_plus
    pi = _fixed_mag_stationary(mono, beta)
    tm = TransitionMatrix(states=tuple(states), P=P, pi=pi, kind="downup")
    _validate_matrix(tm)
    return tm


def _kl_downup_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    pinned, states, mono, index = _fixed_mag_state_space(kernel, g)
    if pinned:
        raise InvalidInputError("(k,l)-down-up is defined for the unpinned chain")
    beta, k, ell = kernel.beta, kernel.k, kernel.ell
    size = len(states)
    P = np.zeros((size, size))
    n_subsets = math.comb(k, ell)
    # conditional laws mu-hat^U for each l-subset U, cached across rows
    cond_cache = {}
    for i, s in enumerate(states):
        for u_tuple in combinations(sorted(s), ell):
            u_set = frozenset(u_tuple)
            if u_set not in cond_cache:
                idxs = [j for j, t in enumerate(states) if u_set <= t]
                logw = np.array([beta * mono[j] for j in idxs])
                w = np.exp(logw - logw.max())
                w /= w.sum()
                cond_cache[u_set] = (idxs, w)
            idxs, w = cond_cache[u_set]
            for j, p_j in zip(idxs, w):
                P[i, j] += p_j / n_subsets
    pi = _fixed_mag_stationary(mono, beta)
    tm = TransitionMatrix(states=tuple(states), P=P, pi=pi, kind="kl_downup")
    _validate_matrix(tm)
    return tm


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
