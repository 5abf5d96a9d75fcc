"""Spectral gaps, influence matrices, local walks, and the Edgeworth/LCLT kit.

Gap conventions follow the Poincare characterization: gap(P) = 1 - second
largest eigenvalue of the pi-symmetrized kernel (so a two-state swap chain
has gap 2).  Influence matrices use the one-sided conditioning
M[u, v] = pi(v | u) - pi(v) on subset-valued distributions, which ties
directly to local walks: the second eigenvalue of the local walk at U is at
most (C - 1)/(k - |U| - 1) when M has top eigenvalue at most C.

Second eigenvalues come from one dense ``eigvalsh`` for a kernel of at
most DENSE_EIGEN_STATES states, where the per-call cost of a Lanczos solve
dominates, and above that from one thick-restart Lanczos solve of the
kernel's fixed-width rows on the complement of its top eigenvector, in
numpy alone.  A down-up kernel K = A L, kept as its link
factors, is solved on the smaller of K and L A (the walk on its links,
which has the same nonzero spectrum), so its K is never formed for a gap
when it has fewer links than states.  The gap factorization check solves the
C(n, l) pinned walks as the blocks of block-diagonal kernels: one batched
``eigvalsh`` over the stacked blocks, or one Lanczos solve per block when
blocks are larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DegenerateError, InvalidInputError, TooLargeError
from .graphs import Graph
from .measures import (
    EMPTY_PINNING,
    TABLE_ENTRY_CAP,
    PartitionTable,
    cumulants_of_size,
    exact_partition_table,
    fixed_k_states,
    gibbs_law,
    size_distribution,
)
from .dynamics import (
    ChainKernel,
    FixedRows,
    TransitionMatrix,
    build_transition_matrix,
    pinned_downup_matrices,
)
from .rng import make_rng

FACTORIZATION_TOL = 1e-12  # slack allowed in gap_factorization_check
# Up to this many states one dense eigvalsh beats a Lanczos solve.  On
# Kawasaki kernels at beta = 0.5 (one BLAS thread, 2-core VM, best of 21)
# Lanczos against dense took 1.10 / 0.19 ms at 56 states, 1.40 / 1.37 and
# 1.83 / 1.32 ms at 190 (two graphs), 1.71 / 2.58 ms at 210 and
# 1.81 / 3.89 ms at 252.
DENSE_EIGEN_STATES = 200
DENSE_STACK_BYTES = 1 << 25  # a batched dense solve: its stack and one temporary
LANCZOS_BASIS = 24  # vectors a Lanczos basis holds before it restarts
LANCZOS_KEPT = 12  # Ritz vectors a restart keeps
RESTART_COLUMNS = 1 << 14  # columns of the basis rotated at a time
# A Lanczos product from a column-major copy of K against one from K's own
# rows, on random_regular(n, 3, seed=1) Kawasaki kernels at k = n / 2 (one
# core, best of 7): 0.041 against 0.070 ms at n 12 (a copy of 0.5 MB), 1.3
# against 2.0 at n 16 (13 MB), 7.8 against 11.2 at n 18 (64 MB), 62 against
# 52 at n 20 (300 MB).  The copy is made only while it is small, so that a
# large solve holds K once.
LANCZOS_COPY_BYTES = 16 << 20
LCLT_WINDOW = 2  # lclt_error's plus-counts lie within this of the mean


# ---------------------------------------------------------------------------
# Spectral gap and mixing time
# ---------------------------------------------------------------------------


def _dense_second_eigenvalues(Q: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """lambda_2 of D^{1/2} Q D^{-1/2} symmetrized, D^{1/2} = diag(sq), by
    ``eigvalsh``, for one matrix or each of a stack (sq then one row per
    matrix).  Entries that a zero of sq makes infinite or NaN count as 0.
    Q is overwritten, so the solve holds one temporary of Q's size at a
    time (the ratios sq_i / sq_j, then Q's transpose)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        Q *= sq[..., :, None] / sq[..., None, :]
    Q[~np.isfinite(Q)] = 0.0
    Q += np.swapaxes(Q, -1, -2)
    Q *= 0.5
    return np.linalg.eigvalsh(Q)[..., -2]


def _orthogonalize(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its parts along the orthonormal rows of V by
    two passes of classical Gram-Schmidt; return the coefficients removed."""
    c = V @ w
    w -= c @ V
    d = V @ w
    w -= d @ V
    return c + d


def _row_product(K: FixedRows):
    """y -> K y, each row summed in column order, as scipy's csr_matvec did:
    the terms are laid out column-major and added down the columns.

    A kernel whose column-major copy (16 bytes a nonzero) fits in
    LANCZOS_COPY_BYTES is copied once, and a product is a gather, a multiply
    and that sum.  A larger one is read from its own rows, a block of about
    2^16 entries at a time, each block's terms gathered, scaled and turned
    column-major, so no copy of it is held.  Those blocks hold equal rows,
    never one: numpy sums a one-row block's column pairwise.
    """
    size, width = K.cols.shape
    if 16 * K.cols.size <= LANCZOS_COPY_BYTES:
        cols, vals = K.cols.T.astype(np.intp, order="C"), K.vals.T.copy()
        terms = np.empty(cols.shape)  # reused: a new one page-faults

        def product(y):
            np.take(y, cols, out=terms, mode="clip")  # "raise" would copy
            np.multiply(terms, vals, out=terms)
            return np.add.reduce(terms, axis=0)

        return product
    blocks = min(size // 2, (size * width >> 16) + 1)
    bounds = [size * b // blocks for b in range(blocks + 1)]
    terms = np.empty((-(-size // blocks), width))
    down = np.empty(terms.shape[::-1])

    def product(y):
        out = np.empty(size)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            t, d = terms[:hi - lo], down[:, :hi - lo]
            np.take(y, K.cols[lo:hi], out=t, mode="clip")
            t *= K.vals[lo:hi]
            np.copyto(d, t.T)
            np.add.reduce(d, axis=0, out=out[lo:hi])
        return out

    return product


def _lanczos_second_eigenvalue(K, sq: np.ndarray) -> float:
    """lambda_2 of S = D^{1/2} K D^{-1/2}, D^{1/2} = diag(sq), by a
    thick-restart Lanczos solve (Wu and Simon 2000) for the largest
    eigenvalue of S on the complement of u = sq / |sq|, S's top eigenvector.

    u is the fixed first row of the basis, and each product is
    sq * (K (x / sq)), by ``_row_product``, with x / sq 0 where sq is 0 (pi
    underflowed), as the dense solve counts those entries.  Each new vector is
    orthogonalized against u and the basis, and the coefficients fill the
    projected matrix H.  When the basis holds LANCZOS_BASIS vectors it
    restarts from the top LANCZOS_KEPT Ritz vectors and the residual.  The
    solve stops when the top Ritz pair's residual b |y_last| is at most
    float eps (an absolute bound: |S| = 1, and S may vanish on u's
    complement), and gives up after 10 products a state.  It returns the
    Rayleigh quotient of that Ritz vector, one product more: it lies within
    an eps or two of lambda_2, where the Ritz value itself may be ten eps
    off.  The start vector is fixed, so reruns agree.
    """
    eps = np.finfo(float).eps
    size, m, p = len(sq), LANCZOS_BASIS, LANCZOS_KEPT
    kernel = _row_product(K)
    scaled = np.zeros(size)  # stays 0 where sq is

    def product(x):
        np.divide(x, sq, out=scaled, where=sq > 0)
        return sq * kernel(scaled)

    V = np.empty((m + 2, size))  # u, the basis, the residual
    V[0] = sq / np.linalg.norm(sq)
    V[1] = make_rng(0).random(size)
    _orthogonalize(V[1], V[:1])
    V[1] /= np.linalg.norm(V[1])
    H = np.zeros((m, m))
    j = 0  # basis vectors held
    for _ in range(10 * size):
        w = product(V[j + 1])
        H[:j + 1, j] = H[j, :j + 1] = _orthogonalize(w, V[:j + 2])[1:]
        b = np.linalg.norm(w)
        j += 1
        if b > eps and j < m:
            V[j + 1] = w / b
            continue
        theta, Y = np.linalg.eigh(H[:j, :j])
        if b * abs(Y[-1, -1]) <= eps:
            x = Y[:, -1] @ V[1:j + 1]
            return float(x @ product(x) / (x @ x))
        for lo in range(0, size, RESTART_COLUMNS):  # no second copy of the basis
            cols = slice(lo, lo + RESTART_COLUMNS)
            V[1:p + 1, cols] = Y[:, -p:].T @ V[1:m + 1, cols]
        V[p + 1] = w / b
        H[:p, :p] = np.diag(theta[-p:])
        j = p
    raise DegenerateError("Lanczos solve did not converge")


def _second_eigenvalues(tm: TransitionMatrix, block: int) -> np.ndarray:
    """lambda_2 of each diagonal block of ``block`` states of the
    pi-symmetrized kernel D^{1/2} K D^{-1/2}, D = diag(pi); K holds no entry
    outside these blocks.

    A kernel kept as link factors K = A L is solved on the link side
    M = L A, reversible for pi A, whenever a block has at least two links
    and fewer links than states.  M has K's nonzero eigenvalues, the rest of
    K's are 0, and a down-up kernel has none below 0, so lambda_2 is the
    same.  Otherwise the solve is on K.
    """
    if block == 1:
        raise DegenerateError("a one-state chain has no second eigenvalue")
    if tm.factors is not None:
        A, L = tm.factors
        links = A.shape[1] * block // len(tm.states)  # per block
        if 2 <= links < block:
            return _block_second_eigenvalues(L @ A, np.sqrt(tm.pi @ A), links)
    return _block_second_eigenvalues(tm.K, np.sqrt(tm.pi), block)


def _block_second_eigenvalues(K, sq: np.ndarray, block: int) -> np.ndarray:
    """lambda_2 of each diagonal block of ``block`` rows of
    D^{1/2} K D^{-1/2}, D^{1/2} = diag(sq), for a ``FixedRows`` K.

    Blocks of at most DENSE_EIGEN_STATES rows are filled dense from K's rows
    (never from ``tm.P``) and solved by one batched ``eigvalsh``, as many at
    a time as DENSE_STACK_BYTES holds with one temporary of their size;
    larger blocks get one Lanczos solve each, on their slice of K.
    """
    size = len(sq)
    if block > DENSE_EIGEN_STATES:
        return np.array([
            _lanczos_second_eigenvalue(
                K if block == size else K.block(lo, lo + block), sq[lo:lo + block])
            for lo in range(0, size, block)])
    # the stack plus one temporary of its size: while it is filled, an index
    # a nonzero (at most 8 bytes a stack entry), then the solve's
    step = block * max(1, DENSE_STACK_BYTES // (16 * block * block))
    out = []
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        Q = np.zeros(((hi - lo) // block, block, block))
        np.put_along_axis(Q.reshape(hi - lo, block), K.cols[lo:hi] % block,
                          K.vals[lo:hi], axis=1)
        out.append(_dense_second_eigenvalues(Q, sq[lo:hi].reshape(-1, block)))
    return np.concatenate(out)


def spectral_gap(tm: TransitionMatrix) -> float:
    """Poincare constant 1 - lambda_2 of a reversible kernel.

    Reversibility was checked when ``tm`` was built.
    """
    return float(1.0 - _second_eigenvalues(tm, len(tm.states))[0])


def dirichlet_quotient(tm: TransitionMatrix, f: np.ndarray):
    """E_P(f, f) / Var_pi(f); None for (near-)constant f."""
    mean = tm.pi @ f
    var = tm.pi @ (f - mean) ** 2
    if var < 1e-14:
        return None
    K = tm.K
    energy = 0.5 * np.sum(tm.pi[:, None] * K.vals * (f[:, None] - f[K.cols]) ** 2)
    return float(energy / var)


def mixing_time_upper(tm: TransitionMatrix, gap: float = None) -> float:
    """Spectral bound gap^{-1} * log(4 / min pi); pass ``gap`` if known."""
    if gap is None:
        gap = spectral_gap(tm)
    if gap <= 0:
        raise DegenerateError("zero spectral gap; no mixing bound")
    if tm.pi.min() == 0:
        raise DegenerateError("pi underflows to 0; no finite mixing bound")
    return (1.0 / gap) * math.log(4.0 / tm.pi.min())


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


def _check_listing(g: Graph, size: int) -> None:
    """Refuse, before listing, a plus matrix of ``size`` states over
    TABLE_ENTRY_CAP entries (as many float64 as ``_marginals`` then holds):
    the one bound on a listing, whatever the vertex count."""
    if size * g.n > TABLE_ENTRY_CAP:
        raise TooLargeError(f"a plus matrix of {size} x {g.n} entries is over "
                            f"the {TABLE_ENTRY_CAP}-entry cap")


def grand_canonical_distribution(g: Graph, beta: float, lam: float):
    """(X, probs) over plus-sets for the grand-canonical measure: the plus
    matrix listed size by size, all 2^n states, refused by ``_check_listing``."""
    if beta < 0:
        raise InvalidInputError("beta must be >= 0")
    _check_listing(g, 2**g.n)
    X, logw = [], []
    for r in range(g.n + 1):
        plus_sets, mono = fixed_k_states(g, r)
        X.append(plus_sets)
        logw.append(beta * mono + r * math.log(lam))
    return np.concatenate(X), gibbs_law(np.concatenate(logw))


def fixed_mag_distribution(g: Graph, beta: float, k: int):
    """(X, probs) over plus-sets for the fixed-magnetization measure: its
    C(n, k) states, refused by ``_check_listing``."""
    if not 0 <= k <= g.n:
        raise InvalidInputError(f"k={k} outside [0, {g.n}]")
    _check_listing(g, math.comb(g.n, k))
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
    return LocalWalk(
        pinned=pinned,
        vertices=tuple(support.tolist()),
        Q=Q,
        second_eigenvalue=float(_dense_second_eigenvalues(Q.copy(), np.sqrt(pi_hat))),
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
    full_kernel: TransitionMatrix = field(repr=False, compare=False)  # the unpinned +1 walk


def gap_factorization_check(g: Graph, beta: float, k: int,
                            ell: int) -> GapFactorizationReport:
    """Exact check of gap(P_{beta,k}) >= inf_U gap(P^U_{beta,k}) gap(P_{ell,beta,k}).

    The C(n, l) pinned walks P^U come as block-diagonal kernels
    (``pinned_downup_matrices``), and inf_U gap = 1 - the largest lambda_2
    of their blocks.  All three walks are down-up kernels, each solved on
    its links where it has fewer links than states.
    """
    kl_kernel = ChainKernel("kl_downup", beta=beta, k=k, ell=ell)  # checks ell first
    tm_full = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
    gap_full = spectral_gap(tm_full)
    gap_inf = gap_full if ell == 0 else float(1.0 - max(
        _second_eigenvalues(tm, len(tm.states) // len(pin_sets)).max()
        for pin_sets, tm in pinned_downup_matrices(g, beta, k, ell)))
    gap_kl = spectral_gap(build_transition_matrix(kl_kernel, g))
    product = gap_inf * gap_kl
    return GapFactorizationReport(
        gap_full=gap_full,
        gap_pinned_inf=gap_inf,
        gap_kl=gap_kl,
        product=product,
        satisfied=gap_full >= product - FACTORIZATION_TOL,
        full_kernel=tm_full,
    )


def local_expansion_zetas(g: Graph, beta: float, k: int) -> list:
    """zeta_m = max over U in C(V, m) of the local-walk second eigenvalue:
    sum_{m < k-1} C(n, m) local walks, a count no cap bounds."""
    X, probs = fixed_mag_distribution(g, beta, k)
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
    coeffs = []  # (r, coefficient of H_r), the same for every ell
    for r in range(3, 6 * d + 1):
        coeff = 0.0
        for tup in _edgeworth_tuples(r, d):
            term = 1.0
            for j, kj in zip(range(3, 2 * d + 2), tup):
                term *= beta_coeffs[j] ** kj / math.factorial(kj)
            coeff += term
        if coeff:
            coeffs.append((r, coeff))
    values = []
    for ell in ells:
        x = ell / s
        series = 1.0
        for r, coeff in coeffs:
            series += _hermite(r, x) * coeff
        values.append(math.exp(-(ell**2) / (2 * s2)) / (math.sqrt(2 * math.pi) * s) * series)
    return EdgeworthApprox(s=s, values=tuple(values))


@dataclass(frozen=True)
class LcltErrorReport:
    sup_error: float
    scaled_sup_error: float  # sup error * s


def lclt_error(table: PartitionTable, lam: float, d: int) -> LcltErrorReport:
    """Sup |exact - Edgeworth_d| over plus-counts within LCLT_WINDOW of the mean."""
    pmf = size_distribution(table, lam)
    kappas = cumulants_of_size(table, lam, max(2, 2 * d + 1)).kappas
    mean = kappas[0]
    ks = [k for k in range(table.n + 1) if abs(k - mean) <= LCLT_WINDOW]
    ells = [k - mean for k in ks]
    approx = edgeworth_pmf(kappas, ells, d)
    sup = max(abs(pmf[k] - v) for k, v in zip(ks, approx.values))
    return LcltErrorReport(sup_error=sup, scaled_sup_error=sup * approx.s)


@dataclass(frozen=True)
class StabilityProbe:
    pmf_delta: float
    kappa_deltas: tuple


def stability_probe(g: Graph, beta: float, lam: float, pinned,
                    v: int) -> StabilityProbe:
    """|P(X=k) - P(X=k | sigma(v)=+1)| at the central k, plus cumulant shifts,
    under the ``pinned`` plus set."""
    table = exact_partition_table(g, beta, pinned)
    res = cumulants_of_size(table, lam, 3)
    if v in table.pinned:
        return StabilityProbe(pmf_delta=0.0, kappa_deltas=(0.0, 0.0, 0.0))
    table_v = exact_partition_table(g, beta, table.pinned | {v})
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
                               pinned=EMPTY_PINNING) -> CharacteristicBound:
    """Largest c with |E e^{itX}| <= e^{-c t^2 n} on the 200-point grid of
    t in (0, pi], under the ``pinned`` plus set."""
    table = exact_partition_table(g, beta, pinned)
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
