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

Each chain has one update.  ``_heat_bath`` and ``_kawasaki_swaps`` run T
Glauber updates or Kawasaki swaps in O(Delta) per step; the long traces in
``metastability`` and the single-step functions (T = 1) both run them.
They draw the values one whole-array call per block would give, but a chunk
at a time (``_chunks``), so a run holds O(n + chunk) memory for any T.  The
+1 down-up step resamples from the conditional law (``_resample``:
``gibbs_law`` over the ``fixed_k_states`` that contain the kept plus set);
the (k, l) walk has an exact kernel only.

On enumerable instances every kernel can also be realized as an explicit
row-stochastic matrix with its exact stationary vector, held as fixed-width
rows (``FixedRows``: a states x width array of sorted columns and one of
values; every kernel here has one width for all its rows), in numpy alone.
The Kawasaki and down-up kernels, pinned or not, come from one builder of moves
on the links of kept plus sets (``_link_matrix``): one state x link
incidence A, whose pattern with its transpose is the Kawasaki kernel.  A
down-up kernel is kept as its two link factors, A and the links' heat-bath
laws L; it is checked on them, and K = A L is formed only when it is read,
while gaps are solved on the smaller side of A L and L A.  The +1 down-up
walks pinned at every l-subset are the blocks of a few block-diagonal
kernels of that builder (``pinned_downup_matrices``).  The coupled Kawasaki
chain tracks the disagreement set D, the "bad" disagreements B (those
adjacent to an agreeing plus), and the contraction functional
rho = phi |D| + |B|.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice

import numpy as np

from .errors import InvalidInputError, NonReversibleError, TooLargeError
from .graphs import Graph
from .measures import (
    EMPTY_PINNING,
    IsingParams,
    SpinConfiguration,
    fixed_k_states,
    gibbs_law,
    mono_counts,
    monochromatic_edges,
)
from .rng import as_rng

DENSE_KERNEL_BYTES = 512 << 20  # dense view P: at most 8 192 states
# A build peaks near 24 bytes per nonzero, and a Lanczos solve holds the
# kernel's 12 and a basis of 26 vectors over the states, measured as peak
# RSS growth on random_regular(20, 3, seed=1): C(20, 10) = 184 756 Kawasaki
# states (18.7 M nonzeros) 433 MiB built and no more solved, Glauber (2^20
# states, 22 M nonzeros) 490 MiB built and 540 MiB solved.  So about
# 0.8 GB at the cap.
# A down-up build holds only its link factors, but the cap still bounds the
# product K = A L that a read of its K forms.
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
    pinned: frozenset = EMPTY_PINNING  # vertices pinned plus
    ell: int = None  # kl_downup only

    def __post_init__(self):
        object.__setattr__(self, "pinned", frozenset(self.pinned))
        if self.kind not in ("glauber", "kawasaki", "downup", "kl_downup"):
            raise InvalidInputError(f"unknown chain kind {self.kind!r}")
        if self.kind == "glauber":
            if self.lam is None or self.lam <= 0:
                raise InvalidInputError("glauber needs lambda > 0")
            if self.pinned:
                raise InvalidInputError("glauber kernels take no pinning")
        elif self.k is None:
            raise InvalidInputError(f"{self.kind} needs k")
        if self.kind == "kl_downup":
            if self.ell is None or not (0 <= self.ell <= self.k - 1):
                raise InvalidInputError("kl_downup needs 0 <= ell <= k-1")


# ---------------------------------------------------------------------------
# Local weight helpers
# ---------------------------------------------------------------------------


def heat_bath_table(beta: float, lam: float, d: int) -> list:
    """Glauber plus probabilities p_+(j) for j = 0..d plus neighbours of d."""
    return [lam * math.exp(beta * j) / (lam * math.exp(beta * j)
                                        + math.exp(beta * (d - j)))
            for j in range(d + 1)]


# ---------------------------------------------------------------------------
# Chain kernels: the one update of each chain
# ---------------------------------------------------------------------------


# Draws are made this many at a time: small enough that a run's memory does
# not grow with T, large enough that the per-chunk numpy calls stay near 2 %
# of the heat-bath loop.
_CHUNK = 1 << 12


def _chunks(rng, T: int, *blocks):
    """T tuples of plain Python values, one from each block of draws.

    Each block is a function ``draw(gen, m)`` that draws m values from
    generator ``gen``.  The values are those of one whole call per block,
    made from ``rng`` in turn, yet only _CHUNK of each block are held at a
    time: every block but the last streams from a copy of ``rng`` taken
    where that block starts (found by drawing it chunk by chunk and
    discarding it), and ``rng`` streams the last, so it ends where whole
    calls would leave it.  For T <= _CHUNK the blocks are drawn whole.
    """
    if T <= _CHUNK:
        return zip(*(draw(rng, T).tolist() for draw in blocks))
    sizes = [min(_CHUNK, T - lo) for lo in range(0, T, _CHUNK)]
    gens = []
    for draw in blocks[:-1]:
        gens.append(copy.deepcopy(rng))
        for m in sizes:
            draw(rng, m)
    gens.append(rng)
    return chain.from_iterable(
        zip(*(draw(gen, m).tolist() for draw, gen in zip(blocks, gens)))
        for m in sizes)


def _heat_bath(g: Graph, beta: float, lam: float, spins: list, rng, T: int):
    """Glauber heat-bath kernel: T updates of ``spins`` (+-1, in place).

    Its stream is the T vertices, then the T uniforms (``_chunks``).  Yields
    (plus count, monochromatic edges) before the first update and after each
    one.  Every vertex keeps its plus-neighbour count (parallel edges once
    per copy, self-loops never) and plus probability; a flip updates its
    neighbours'.
    """
    nbrs = g.neighbors
    tables = {d: heat_bath_table(beta, lam, d) for d in {len(nb) for nb in nbrs}}
    table_of = [tables[len(nb)] for nb in nbrs]
    j_of = [sum(1 for w in nb if spins[w] == 1) for nb in nbrs]
    p_of = [table[j] for table, j in zip(table_of, j_of)]
    plus = spins.count(1)
    mono = monochromatic_edges(g, spins)
    draws = _chunks(rng, T, lambda gen, m: gen.integers(0, g.n, size=m),
                    lambda gen, m: gen.random(size=m))
    yield plus, mono
    for v, u in draws:
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


def _kawasaki_swaps(g: Graph, beta: float, spins: list, rng, T: int,
                    pinned=EMPTY_PINNING):
    """Kawasaki kernel: T Metropolis swaps of a uniform (+, -) pair of
    ``spins`` (in place), the ``pinned`` vertices left out of both lists.

    Its stream is the T plus indices, the T minus indices, then the T
    uniforms (``_chunks``).  Yields (u, w, d) when the plus at u moved to the
    minus at w, changing the monochromatic edges by d, and None for a
    rejected swap.  Every vertex keeps e = minus - plus neighbours, so
    d = e[u] - e[w] - 2 (u-w edges).  A uniform r becomes the threshold
    th = #{d' < 0 : e^{beta d'} <= r} - 2 Delta, and the swap is taken iff
    d >= th, the same comparison as d >= 0 or r < e^{beta d}.
    """
    nbrs = g.neighbors
    e = [-sum(spins[w] for w in nb) for nb in nbrs]
    plus = [v for v, s in enumerate(spins) if s == 1 and v not in pinned]
    minus = [v for v, s in enumerate(spins) if s == -1 and v not in pinned]
    # Metropolis acceptance min(1, e^{beta d}) for d = -2 delta .. -1,
    # nondecreasing in d
    two_delta = 2 * g.delta_max
    accept = [min(1.0, math.exp(beta * d)) for d in range(-two_delta, 0)]
    draws = _chunks(
        rng, T, lambda gen, m: gen.integers(0, len(plus), size=m),
        lambda gen, m: gen.integers(0, len(minus), size=m),
        lambda gen, m: np.searchsorted(accept, gen.random(size=m),
                                       side="right") - two_delta)
    for a, b, th in draws:
        u, w = plus[a], minus[b]
        d = e[u] - e[w]
        if d >= th:  # the u-w edges can only lower d
            nu = nbrs[u]
            d -= 2 * nu.count(w)
            if d >= th:
                spins[u], spins[w] = -1, 1
                plus[a], minus[b] = w, u
                for x in nu:
                    e[x] += 2
                for x in nbrs[w]:
                    e[x] -= 2
                yield u, w, d
                continue
        yield None


def _resample(g: Graph, beta: float, keep: set, r: int, rng) -> SpinConfiguration:
    """Add r pluses to ``keep``, drawn by Gibbs law among the plus sets of
    size |keep| + r that contain it; the draw keeps its listed mono count."""
    X, mono = fixed_k_states(g, len(keep) + r, pinned=keep)
    i = int(rng.choice(len(X), p=gibbs_law(beta * mono)))
    return SpinConfiguration(spins=tuple(np.where(X[i], 1, -1).tolist()),
                             plus_count=len(keep) + r, mono_edges=int(mono[i]))


# ---------------------------------------------------------------------------
# Seeded simulation steps: T = 1 views on the kernels
# ---------------------------------------------------------------------------


def glauber_step(g: Graph, params: IsingParams, sigma: SpinConfiguration, rng):
    """One heat-bath update at a uniform vertex."""
    spins = list(sigma.spins)
    *_, (plus, mono) = _heat_bath(g, params.beta, params.lam, spins, as_rng(rng), 1)
    return SpinConfiguration(spins=tuple(spins), plus_count=plus, mono_edges=mono)


def _pinned_plus(sigma: SpinConfiguration, k: int, pinned) -> frozenset:
    """``pinned`` as a frozenset, refused unless sigma has k pluses and is
    plus at every pinned vertex."""
    pinned = frozenset(pinned)
    if sigma.plus_count != k:
        raise InvalidInputError("configuration plus-count differs from k")
    if any(not 0 <= v < len(sigma.spins) or sigma.spins[v] != 1 for v in pinned):
        raise InvalidInputError("configuration is not plus at every pinned vertex")
    return pinned


def kawasaki_step(g: Graph, beta: float, k: int, pinned,
                  sigma: SpinConfiguration, rng):
    """Metropolis swap of a uniformly chosen unpinned (+, -) pair."""
    pinned = _pinned_plus(sigma, k, pinned)
    free = {s for v, s in enumerate(sigma.spins) if v not in pinned}
    if free != {1, -1}:
        raise InvalidInputError("no swappable (+,-) pair under this pinning")
    spins = list(sigma.spins)
    swap, = _kawasaki_swaps(g, beta, spins, as_rng(rng), 1, pinned)
    if swap is None:
        return sigma
    return SpinConfiguration(spins=tuple(spins), plus_count=k,
                             mono_edges=sigma.mono_edges + swap[2])


def downup_step(g: Graph, beta: float, k: int, pinned,
                sigma: SpinConfiguration, rng):
    """Remove a uniform unpinned plus, resample it from the conditional law."""
    rng = as_rng(rng)
    pinned = _pinned_plus(sigma, k, pinned)
    plus = [v for v in range(g.n) if sigma.spins[v] == 1]
    free_plus = [v for v in plus if v not in pinned]
    if not free_plus:
        raise InvalidInputError("need at least one unpinned plus")
    v = free_plus[int(rng.integers(len(free_plus)))]
    return _resample(g, beta, set(plus) - {v}, 1, rng)


# ---------------------------------------------------------------------------
# Exact transition matrices
# ---------------------------------------------------------------------------


class FixedRows:
    """A sparse matrix as fixed-width rows: row i holds ``vals[i, j]`` at
    column ``cols[i, j]``, its columns sorted and distinct.

    ``cols`` (int32) and ``vals`` (float) are rows x width arrays and
    ``shape`` is (rows, columns).  Every kernel and link factor built here
    has one width for all its rows (an entry may hold 0), and so does each
    product of them.  ``x @ M`` is one ``bincount``, summing each column's
    terms in row order.  ``M @ N`` gathers N's rows at the entries of each
    row of M, a block of rows at a time, and sums equal columns in the order
    of M's entries, then of N's: in a dense row of N's columns where that
    row is no longer than the terms gathered, else by one sort a row.  Dense
    against sort (one core, best of 7, random_regular(n, delta, seed=0)):
    0.6 against 1.2 ms for the kl walk's L A at n 11, delta 4, k 5, l 3
    (165 bins, 280 terms), 2.5 against 1.8 for its A L (462 bins, 280
    terms); for the +1 walks, 0.058 against 0.064 at n 9, k 4 (5 bins a
    term) and 0.085 against 0.090 pinned at n 9, k 4, l 1 (14), but 1.0
    against 0.45 and 1.3 against 0.52 for L A and A L at n 12, delta 3, k 6
    (19 and 22).
    """

    __array_ufunc__ = None  # so that ``x @ M`` with an array x reaches __rmatmul__

    def __init__(self, cols: np.ndarray, vals: np.ndarray, ncols: int):
        self.cols, self.vals = cols, vals
        self.shape = (len(cols), ncols)

    @classmethod
    def dense(cls, M) -> "FixedRows":
        """A dense matrix as full-width rows."""
        M = np.array(M, dtype=float)
        cols = np.broadcast_to(np.arange(M.shape[1], dtype=np.int32), M.shape)
        return cls(cols, M, M.shape[1])

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols.ravel(), weights=(self.vals * x[:, None]).ravel(),
                           minlength=self.shape[1])

    def __matmul__(self, other: "FixedRows") -> "FixedRows":
        if not isinstance(other, FixedRows):
            return NotImplemented
        ncols = other.shape[1]
        width = self.cols.shape[1] * other.cols.shape[1]  # a row's terms
        dense = ncols <= width
        parts = []
        for rows in _row_blocks(len(self.cols), width):
            at = self.cols[rows].astype(np.intp)  # numpy gathers far slower at int32
            cols = other.cols.take(at, axis=0).reshape(len(at), -1)
            terms = other.vals.take(at, axis=0)
            terms *= self.vals[rows, :, None]
            terms = terms.reshape(cols.shape)
            parts.append(_summed_dense(cols, terms, ncols) if dense
                         else _summed_sorted(cols, terms, ncols))
        return FixedRows(*map(np.concatenate, zip(*parts)), ncols)

    def row_sums(self) -> np.ndarray:
        """Each row's sum, in one order whatever the width (``sum(axis=1)``
        changes its order with the width)."""
        width = self.vals.shape[1]
        return np.add.reduceat(self.vals.ravel(), np.arange(0, self.vals.size, width))

    def block(self, lo: int, hi: int) -> "FixedRows":
        """Rows lo..hi-1 over columns lo..hi-1, of a matrix with no entry
        outside its diagonal blocks."""
        return FixedRows(self.cols[lo:hi] - lo, self.vals[lo:hi], hi - lo)

    def toarray(self) -> np.ndarray:
        M = np.zeros(self.shape)
        np.put_along_axis(M, self.cols, self.vals, axis=1)
        return M


def _row_blocks(rows: int, per_row: int) -> list:
    """Slices of ``rows`` rows of ``per_row`` entries, about 2^20 entries a
    slice, so that no temporary grows with the whole matrix."""
    step = max(1, (1 << 20) // per_row)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _summed_dense(cols: np.ndarray, terms: np.ndarray, ncols: int) -> tuple:
    """(cols, vals) of the rows that sum ``terms`` at ``cols`` (each below
    ``ncols``), row by row, each in a dense row of ``ncols`` bins, so that
    equal columns add in their order in the row."""
    starts = (np.arange(len(cols)) * ncols)[:, None]  # each row's bins
    bins = cols + starts
    sums = np.bincount(bins.ravel(), terms.ravel(), minlength=len(cols) * ncols)
    held = np.zeros(len(sums), dtype=bool)
    held[bins] = True
    entries = _by_row(np.flatnonzero(held), len(cols), ncols)
    return (entries - starts).astype(np.int32), sums[entries]


def _summed_sorted(cols: np.ndarray, terms: np.ndarray, ncols: int) -> tuple:
    """As ``_summed_dense``, by one sort of the keys (column, position) a
    row (int32 where they fit) instead of a dense row of bins."""
    rows, width = cols.shape
    bits = width.bit_length()
    dtype = np.int32 if ncols << bits <= 1 << 31 else np.int64
    keys = cols.astype(dtype)
    keys <<= bits
    keys |= np.arange(width, dtype=dtype)
    keys.sort(axis=1)
    col = keys >> bits
    first = _firsts(col)
    entries = _by_row(np.flatnonzero(first), rows, width)
    keys &= (1 << bits) - 1  # each sorted term's position in its row
    at = keys.astype(np.intp)
    at += np.arange(0, rows * width, width)[:, None]
    run = first.astype(np.intp)
    np.cumsum(run, out=run)
    run -= 1  # each sorted term's entry
    sums = np.bincount(run, terms.reshape(-1).take(at.reshape(-1)),
                       minlength=entries.size)
    return col.reshape(-1)[entries].astype(np.int32), sums.reshape(entries.shape)


def _firsts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal values in a row of the row-sorted ``rows``
    starts, as a flat boolean mask."""
    flat = rows.reshape(-1)
    first = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::rows.shape[1]] = True
    return first


def _by_row(flat: np.ndarray, rows: int, span: int) -> np.ndarray:
    """Ascending flat indices into a rows x span array, one row of them a
    row; refused unless every row holds as many."""
    kept = len(flat) // rows
    if kept == 0 or kept * rows != len(flat) or np.any(flat[::kept] // span != np.arange(rows)):
        raise InvalidInputError("a product of fixed-width rows has rows of unequal width")
    return flat.reshape(rows, kept)


def _transposition(M: FixedRows) -> np.ndarray:
    """M's entries (flat indices) ordered by column, then row: one sort of
    the distinct keys column * entries + index (int32 where they fit),
    which turns into the order in place."""
    size = M.cols.size
    dtype = np.int32 if M.shape[1] * size < 1 << 31 else np.int64
    order = M.cols.astype(dtype).reshape(-1)
    order *= size
    for lo in range(0, size, 1 << 20):  # no second array as long as the keys
        order[lo:lo + (1 << 20)] += np.arange(lo, min(lo + (1 << 20), size), dtype=dtype)
    order.sort()
    order %= size
    return order.astype(np.intp, copy=False)


class TransitionMatrix:
    """Row-stochastic kernel as fixed-width rows, with its exact stationary
    vector.

    ``states`` is the builder's boolean plus matrix, row i the pluses of
    state i of K; only its length is read here.  ``K`` may be passed dense
    (it becomes full-width rows) or as ``FixedRows``, or as the link factors
    (A, L) of a down-up kernel K = A L: A the state x link incidence and L
    the links' laws over states.  ``factors`` keeps them (None for a kernel
    passed whole), and ``tm.K`` is always ``FixedRows``, for factors formed
    when first read.  Building one checks, once and in row blocks, that rows
    sum to 1 and that pi(x) K(x, y) = pi(y) K(y, x).  Factors are checked
    instead: rows of A and of L sum to 1, and L(e, y) (pi A)(e) = pi(y) A(y, e)
    for every link e, which makes pi(x) K(x, y) a sum over links symmetric
    in x and y, so a K formed later is reversible and is not checked again.
    """

    def __init__(self, states: np.ndarray, K, pi: np.ndarray):
        self.states = states  # read-only, states x n
        self.pi = pi
        self.factors = K if isinstance(K, tuple) else None
        if self.factors is None:
            self.K = K if isinstance(K, FixedRows) else FixedRows.dense(K)
            _check_rows(self.K)
            err = _balance_error(self.K, pi, self.K, pi)
        else:
            A, L = K
            _check_rows(A, L)
            err = _balance_error(L, pi @ A, A, pi)
        if err > DETAILED_BALANCE_TOL:
            raise NonReversibleError(f"detailed balance violated by {err:.2e}")

    @cached_property
    def K(self) -> FixedRows:
        """The kernel, the product of the factors when ``factors`` is set."""
        A, L = self.factors
        return A @ L

    @cached_property
    def P(self) -> np.ndarray:
        """Read-only dense view of K, for oracles on small kernels."""
        _check_dense_size(len(self.states))
        P = self.K.toarray()
        P.flags.writeable = False
        return P


def _check_rows(*matrices) -> None:
    """Refuse any of ``matrices`` with a row that does not sum to 1."""
    err = max(float(np.max(np.abs(M.row_sums() - 1.0))) for M in matrices)
    if err > ROW_SUM_TOL:
        raise NonReversibleError(f"rows sum to 1 +- {err:.2e} > {ROW_SUM_TOL}")


def _balance_error(M: FixedRows, w: np.ndarray, N: FixedRows, u: np.ndarray) -> float:
    """max |w(x) M(x, y) - u(y) N(y, x)| over the entries (x, y) of M, for
    an N whose transpose has M's pattern (so the entries of M and N pair up
    and no other pair counts); refused otherwise.  N's entries are put in
    M's order by one sort (``_transposition``), and compared in blocks of
    rows, so that no temporary but that order grows with the entries."""
    order = _transposition(N)
    if order.size != M.cols.size:
        raise NonReversibleError("an entry of the kernel has no stored reverse")
    order = order.reshape(M.cols.shape)
    flat_cols, flat_vals = N.cols.ravel(), N.vals.ravel()
    err = 0.0
    for rows in _row_blocks(*M.cols.shape):
        at, y = order[rows], M.cols[rows].astype(np.intp)
        if not (np.array_equal(at // N.cols.shape[1], y)
                and np.all(flat_cols.take(at) == np.arange(rows.start, rows.stop)[:, None])):
            raise NonReversibleError("an entry of the kernel has no stored reverse")
        d = w[rows, None] * M.vals[rows]
        d -= u.take(y) * flat_vals.take(at)
        err = max(err, float(np.abs(d, out=d).max(initial=0.0)))
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
    """Refuse, before enumerating, a kernel (or a factor of one) with up to
    ``bound`` entries beyond KERNEL_NONZERO_CAP."""
    if bound > KERNEL_NONZERO_CAP:
        raise TooLargeError(
            f"a kernel with up to {bound} nonzeros is over the "
            f"{KERNEL_NONZERO_CAP}-nonzero cap"
        )


def build_transition_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """Exact sparse kernel and stationary vector for any of the four chains."""
    if kernel.kind == "glauber":
        return _glauber_matrix(kernel, g)
    return _fixed_mag_matrix(kernel, g)


def _glauber_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """State s < 2^n is row s of the plus matrix X, plus at the set bits of
    s; a row of K holds its n single-flip moves and the diagonal."""
    n = g.n
    size = 2**n
    _check_nonzeros(size * (n + 1))
    s = np.arange(size)
    X = np.empty((size, n), dtype=bool)
    for v in range(n):
        X[:, v] = (s >> v) & 1
    X.flags.writeable = False
    pi = gibbs_law(kernel.beta * mono_counts(g, X) + X.sum(axis=1) * math.log(kernel.lam))
    return TransitionMatrix(states=X, K=_glauber_rows(g, kernel.beta, kernel.lam, X), pi=pi)


def _glauber_rows(g: Graph, beta: float, lam: float, X: np.ndarray) -> FixedRows:
    """Glauber's K, each row in column order: s - 2^v for the set bits v of
    s from the highest down, s, then s + 2^v for its unset bits from the
    lowest up.  Kept apart from ``_glauber_matrix`` so that its temporaries
    are gone before the kernel is checked."""
    size, n = X.shape
    s = np.arange(size)
    cols = np.empty((size, n + 1), dtype=np.int32)
    vals = np.empty((size, n + 1))
    pluses = X.sum(axis=1)  # the diagonal's column
    below = np.zeros(size, dtype=np.intp)  # set bits below v
    stay = np.zeros(size)
    for v, nb in enumerate(g.neighbors):
        p_plus = np.asarray(heat_bath_table(beta, lam, len(nb)))[X[:, nb].sum(axis=1)]
        up, down = p_plus / n, (1 - p_plus) / n
        at = np.where(X[:, v], pluses - below - 1, pluses + 1 + v - below)
        cols[s, at] = s ^ (1 << v)
        vals[s, at] = np.where(X[:, v], down, up)
        stay += np.where(X[:, v], up, down)
        below += X[:, v]
    cols[s, pluses] = s
    vals[s, pluses] = stay
    return FixedRows(cols, vals, size)


def _fixed_mag_matrix(kernel: ChainKernel, g: Graph) -> TransitionMatrix:
    """Kawasaki, +1 down-up and (k, l) down-up on one pin set: validation
    and the nonzero check, then ``_link_matrix``."""
    pinned = kernel.pinned
    k = kernel.k
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
    _check_nonzeros(_nonzero_bound(g.n - len(pinned), k_free, ell))
    return _link_matrix(g, kernel.beta, k, [pinned], ell, kernel.kind)


def _nonzero_bound(m: int, k_free: int, ell: int) -> int:
    """Entries a fixed-magnetization kernel on C(m, k_free) states may hold:
    a row lies in C(k_free, l) links of C(m - l, k_free - l) states each
    (the bound on K = A L that a read of a down-up K forms), and the link
    incidence A lists its C(k_free, l) kept subsets."""
    size = math.comb(m, k_free)
    subsets = math.comb(k_free, ell)
    link = math.comb(m - ell, k_free - ell)
    return size * max(subsets, min(size, subsets * link))


def pinned_downup_matrices(g: Graph, beta: float, k: int, ell: int):
    """The +1 down-up walks pinned plus at each U in C(V, l), as few
    block-diagonal kernels.

    Yields (pin sets, kernel) per batch of pin sets, in ``combinations``
    order.  Block b of a kernel has as its ``states`` the rows of
    ``fixed_k_states(g, k, pinned=U_b)``, pinned pluses included, in
    their listed order, and as its entries and pi those of
    ``build_transition_matrix`` for ``ChainKernel("downup", beta=beta, k=k,
    pinned=U_b)``, so pi sums to the number of blocks and
    each block is checked as its own kernel would be.  One block's nonzero
    bound is checked before listing, and each batch holds as many blocks as
    fit KERNEL_NONZERO_CAP.
    """
    if not 0 <= ell < k <= g.n:
        raise InvalidInputError(f"need 0 <= ell < k <= n, got ell = {ell}, k = {k}")
    bound = _nonzero_bound(g.n - ell, k - ell, k - ell - 1)
    _check_nonzeros(bound)
    pin_sets = combinations(range(g.n), ell)
    while batch := list(islice(pin_sets, KERNEL_NONZERO_CAP // bound)):
        yield batch, _link_matrix(g, beta, k, batch, k - ell - 1, "downup")


def _link_matrix(g: Graph, beta: float, k: int, pin_sets: list, ell: int,
                 kind: str) -> TransitionMatrix:
    """Every fixed-magnetization kernel: one block per pin set U, each the
    rows of ``fixed_k_states(g, k, pinned=U)`` in their listed order
    (the kernel's ``states`` are these rows, concatenated and read-only),
    and ``_link_kernel``'s moves on the links of their kept plus sets
    (Kawasaki for ``kind`` "kawasaki", else the down-up walk)."""
    listed = [fixed_k_states(g, k, pinned=u) for u in pin_sets]
    X = np.concatenate([x for x, _ in listed])
    X.flags.writeable = False
    free = [x[:, [v for v in range(g.n) if v not in u]]  # each block's free columns
            for (x, _), u in zip(listed, pin_sets)]
    plus = np.nonzero(np.concatenate(free))[1].reshape(len(X), -1)
    mono = np.concatenate([m for _, m in listed])
    swaps = plus.shape[1] * (g.n - k) if kind == "kawasaki" else None
    K = _link_kernel(plus, mono, beta, ell, free[0].shape[1], len(pin_sets), swaps)
    pi = np.concatenate([gibbs_law(beta * m) for _, m in listed])
    return TransitionMatrix(states=X, K=K, pi=pi)


def _link_kernel(plus, mono, beta, ell, m, blocks, swaps):
    """Moves on links, for ``blocks`` equal blocks of rows over ``m`` free
    vertices each, row S with its free pluses at ``plus`` (their ascending
    positions among the block's free vertices, by row).

    From S every l-subset K of its free pluses is kept in turn; the link of
    the block's pin set + K is the set of states containing it.  Every
    l-subset of the m free vertices is a link, and link K of block b is
    numbered b C(m, l) + sum_j C(p_j, j + 1), K's colex rank (Knuth, TAOCP
    4A 7.2.1.3) at its positions p_0 < ... < p_{l-1}: each block's links
    are consecutive, in the order of their bitmasks.  A is the state x link
    matrix with A[S, K] = 1 / C(k_free, l) for K in S; every link lies in
    equally many states, which list A's transpose.
      * Down-up (``swaps`` None): the factors (A, L) of the kernel A L, where
        L has A^T's pattern and each link's row holds its heat-bath law,
        taken after subtracting the link's largest log-weight so that large
        beta stays finite.  The +1 walk is l = k_free - 1.
      * Kawasaki (l = k_free - 1): two distinct states share a link exactly
        when one free plus of S moved to a free minus gives T, so the pattern
        of A A^T is S and its ``swaps`` = k_free (n - k) swaps.  Each is
        proposed with probability 1 / swaps and accepted by Metropolis; the
        diagonal holds the rest.  The pattern is found in row blocks and the
        values are computed in place on it.
    Kept apart from ``_link_matrix`` so that its temporaries are gone before
    the kernel is checked.
    """
    size, k_free = plus.shape
    links = math.comb(m, ell)  # a block's
    kept = np.array(list(combinations(range(k_free), ell)),
                    dtype=np.intp).reshape(math.comb(k_free, ell), ell)
    cols = np.repeat(np.arange(blocks, dtype=np.int32) * links,
                     size // blocks * len(kept)).reshape(size, len(kept))
    for j in range(ell):
        # p_j <= m - l + j, so each term read is below C(m, l), and every
        # link is an entry of A: the ids fit int32
        rank = np.array([math.comb(p, j + 1) for p in range(m - ell + j + 1)],
                        dtype=np.int32)
        cols += rank[plus[:, kept[:, j]]]
    cols.sort(axis=1)
    A = FixedRows(cols, np.full(cols.shape, 1.0 / len(kept)), blocks * links)
    states = (_transposition(A) // len(kept)).astype(np.int32).reshape(A.shape[1], -1)
    if swaps is None:
        logw = beta * mono[states]
        L = FixedRows(states, np.exp(logw - logw.max(axis=1, keepdims=True)), size)
        L.vals /= L.row_sums()[:, None]
        return A, L
    gathered = A.cols.shape[1] * states.shape[1]  # S once a link, T once
    cols = []
    for rows in _row_blocks(size, gathered):
        at = A.cols[rows].astype(np.intp)  # numpy gathers far slower at int32
        near = np.sort(states.take(at, axis=0).reshape(-1, gathered))
        first = np.flatnonzero(_firsts(near))
        cols.append(near.reshape(-1)[_by_row(first, *near.shape)])
    cols = np.concatenate(cols)
    mono_f = mono.astype(float)  # mono_T - mono_S is exact
    d = mono_f[cols]
    d -= mono_f[:, None]
    d *= beta
    np.minimum(d, 0.0, out=d)  # min(1, e^x) = e^min(0, x), which never overflows
    np.exp(d, out=d)
    d /= swaps
    K = FixedRows(cols, d, size)
    diag = cols == np.arange(size, dtype=np.int32)[:, None]
    d[diag] = 0.0
    d[diag] = 1.0 - K.row_sums()
    return K


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


class CoupledKawasaki:
    """Driver holding the graph context for the coupled chain."""

    def __init__(self, g: Graph, beta: float, k: int, pinned, phi: float):
        if not phi > 0:
            # rho = phi |D| + |B| is a metric on the coupled states only then
            raise InvalidInputError(f"need phi > 0, got phi = {phi}")
        self.g = g
        self.beta = beta
        self.k = k
        self.pinned = frozenset(pinned)
        self.phi = phi
        self.neighbor_sets = [frozenset(nb) for nb in g.neighbors]
        # with multiplicity, for the monochromatic-edge change of a swap
        self.neighbors = g.neighbors
        self.k_free = k - len(self.pinned)
        if self.k_free < 1 or k > g.n - 1:
            raise InvalidInputError(f"need 1 <= k - |pinned| and k <= n - 1, got "
                                    f"k = {k}, |pinned| = {len(self.pinned)}")

    def make_state(self, x_positions, y_positions) -> CoupledState:
        """State built from scratch: B read off the agree counts, as in
        :meth:`_rescored`."""
        X, Y = tuple(x_positions), tuple(y_positions)
        for pos in (X, Y):
            if len(set(pos)) != len(pos) or set(pos) & self.pinned:
                raise InvalidInputError("positions must be distinct and unpinned")
        x_index, y_index = self._index_map(X), self._index_map(Y)
        agreeing = [w for x, y in zip(X, Y) if x == y for w in self.neighbor_sets[x]]
        agree_nbrs = np.bincount(agreeing, minlength=self.g.n).tolist()
        D = frozenset(j for j in range(len(X)) if X[j] != Y[j])
        B = frozenset(j for j in D if agree_nbrs[X[j]] or agree_nbrs[Y[j]])
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
