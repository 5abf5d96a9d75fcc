"""Shared fixtures: the small named graphs and the exact test-set graphs
used across the suite, and the slow references the fast paths are checked
against: the Gray-code enumeration behind the partition-table DP, the
full rescan behind its greedy vertex order, the per-link loop behind the down-up kernel product, the per-pin-set loop
behind the block-diagonal pinned walks, the closed-form completion
law behind the down-up resample, the per-state grand-canonical loop, the
frozenset influence matrix and local walks behind the plus-matrix ones,
local mono counts, the coupled chain's disagreement sets from scratch, and
the list-based configuration-model sampler behind ``random_regular``.  Also
the oracles that only tests read: edge multisets and counts, log Z,
per-state Gibbs and fixed-magnetization probabilities, finite-difference
cumulants, the dense matrix-power mixing time, the (k, l)
down-up step, the censored band occupancy, overlaps, the partition-ratio
bounds and the landscape's g(eta, b0) at any b0."""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from math import log

import numpy as np
import pytest

from isinglab.dynamics import (
    ChainKernel,
    TransitionMatrix,
    _heat_bath,
    _resample,
    build_transition_matrix,
)
from isinglab.errors import (DegenerateError, InvalidInputError,
                             RetriesExhaustedError, TooLargeError)
from isinglab.graphs import SIMPLE_RETRY_CAP, Graph, disjoint_union, random_regular
from isinglab.measures import (
    EMPTY_PINNING,
    NEG_INF,
    IsingParams,
    PartitionTable,
    SpinConfiguration,
    _logsumexp,
    exact_partition_table,
    gibbs_law,
    monochromatic_edges,
)
from isinglab.meanfield import binary_entropy
from isinglab.metastability import GlauberBandSpec, _start_spins
from isinglab.rng import as_rng
from isinglab.spectral import spectral_gap

# loop at 0; doubled edges 1-2 and 3-4
LOOPED = Graph(n=6, edges=((0, 1), (0, 5), (0, 0), (1, 2), (1, 2), (2, 3),
                           (3, 4), (3, 4), (4, 5)), delta_max=4)


# Small named graphs used throughout the test rig.

def complete_graph(n: int) -> Graph:
    edges = tuple((u, w) for u in range(n) for w in range(u + 1, n))
    return Graph(n=n, edges=edges, delta_max=max(n - 1, 0))


def path_graph(n: int) -> Graph:
    edges = tuple((u, u + 1) for u in range(n - 1))
    return Graph(n=n, edges=edges, delta_max=2 if n > 2 else 1)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    edges = ((0, n - 1),) + tuple((u, u + 1) for u in range(n - 1))
    return Graph(n=n, edges=edges, delta_max=2)


def random_regular_lists(n: int, delta: int, seed, simple: bool = False) -> Graph:
    """Reference configuration-model sampler on Python lists: every draw is
    built as its sorted edge list, and a simple draw is one with no loop and
    no repeated pair."""
    rng = as_rng(seed)
    for _ in range(SIMPLE_RETRY_CAP if simple else 1):
        ends = [i // delta for i in rng.permutation(n * delta).tolist()]
        edges = sorted(((u, w) if u <= w else (w, u)
                        for u, w in zip(ends[::2], ends[1::2])),
                       key=lambda e: (e[0], e[0] == e[1]))
        if not simple or (len(set(edges)) == len(edges)
                          and all(u != w for u, w in edges)):
            return Graph(n=n, edges=tuple(edges), delta_max=delta)
    raise RetriesExhaustedError("no simple draw")


def edge_multiset(g: Graph) -> Counter:
    """Each edge (u, w), u <= w, with its multiplicity."""
    return Counter(g.edges)


def num_edges(g: Graph) -> int:
    """Edge count, a self-loop once."""
    return len(g.edges)


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def two_c6():
    return disjoint_union(cycle_graph(6), 2)


def exact_test_set():
    """The fixed exact-oracle graph family (<= 18 free vertices each)."""
    graphs = {
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "P3": path_graph(3),
    }
    for n in (5, 6, 7, 8):
        graphs[f"C{n}"] = cycle_graph(n)
    graphs["RR10"] = random_regular(10, 3, seed=7, simple=True)
    graphs["2xC6"] = disjoint_union(cycle_graph(6), 2)
    return graphs


def gray_code_table(g, beta, pinned=EMPTY_PINNING):
    """Reference partition table: visit every configuration that is plus on
    ``pinned`` in Gray-code order, updating the monochromatic-edge count per
    flipped vertex, and tally exact integer counts N[k][m]; log values come
    from a log-sum-exp over m at the end."""
    pinned = frozenset(pinned)
    spins = [1 if v in pinned else -1 for v in range(g.n)]
    free = [v for v in range(g.n) if v not in pinned]
    k = len(pinned)
    m = monochromatic_edges(g, spins)

    counts = [dict() for _ in range(g.n + 1)]
    counts[k][m] = 1
    for i in range(1, 1 << len(free)):
        v = free[(i & -i).bit_length() - 1]
        s_new = -spins[v]
        spins[v] = s_new
        k += 1 if s_new == 1 else -1
        for w in g.neighbors[v]:  # self-loops stay monochromatic under any flip
            m += 1 if spins[w] == s_new else -1
        counts[k][m] = counts[k].get(m, 0) + 1

    log_by_k = tuple(
        _logsumexp(beta * mm + math.log(c) for mm, c in by_m.items())
        if by_m else NEG_INF
        for by_m in counts
    )
    return PartitionTable(n=g.n, beta=beta, pinned=pinned, log_zhat_by_k=log_by_k)


def downup_kernel_loop(states, mono, free, beta, pinned, ell):
    """Reference (k, l) down-up kernel over frozenset states: for each state
    and each kept l-subset K of its free pluses, list the link of pinned + K
    as the states pinned + K + W over the completions W, and give them the
    link's heat-bath law over C(k_free, l); repeats are summed."""
    from scipy.sparse import csr_array

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
            links[K] = idxs, gibbs_law(beta * mono[idxs]) / n_subsets
        return links[K]

    row = [link(K) for s in states for K in combinations(sorted(s - pinned), ell)]
    K = csr_array((np.concatenate([law for _, law in row]),
                   np.concatenate([idxs for idxs, _ in row]),
                   np.arange(0, len(states) * width + 1, width)),
                  shape=(len(states), len(states)))
    K.sum_duplicates()
    return K


def csr(M):
    """A ``FixedRows`` matrix as a scipy CSR array, for the tests that
    compare kernels through scipy's sparse API."""
    from scipy.sparse import csr_array

    rows, width = M.cols.shape
    return csr_array((M.vals.ravel(), M.cols.ravel(),
                      np.arange(0, rows * width + 1, width)), shape=M.shape)


def frontier_steps_scan(free, nbrs):
    """Reference greedy order of ``measures._frontier_steps``, without its
    cap: each step rescans every unplaced vertex for the smallest frontier
    left once finished vertices are dropped, ties to the lowest id."""
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
        for u in nbrs[v]:
            remaining[u] -= 1
        frontier.add(v)
        done = sorted(u for u in frontier if remaining[u] == 0)
        frontier.difference_update(done)
        steps.append((v, done))
    return steps


def pinned_gap_inf_loop(g, beta, k, ell):
    """Reference inf_U gap of the +1 down-up walks pinned plus at each U in
    C(V, l): one kernel build and one gap per pin set."""
    return min(spectral_gap(build_transition_matrix(
        ChainKernel("downup", beta=beta, k=k, pinned=u), g))
        for u in combinations(range(g.n), ell))


def completion_law(g, beta, keep, r):
    """The r-subsets W of the vertices outside ``keep``, with their
    probabilities under the fixed-magnetization measure given that the plus
    set contains ``keep`` and is keep + W.

    Up to a constant of ``keep``, keep + W has log-weight
    beta (sum_{u in W} (2 j_u - d_u) + 2 e(W)): j_u counts the edges from u
    into ``keep``, d_u is the non-loop degree of u and e(W) counts the
    non-loop edges inside W, parallel edges once per copy.
    """
    nbrs = g.neighbors
    rest = [v for v in range(g.n) if v not in keep]
    a = {u: 2 * sum(w in keep for w in nbrs[u]) - len(nbrs[u]) for u in rest}
    completions = list(combinations(rest, r))
    # sum over u in W of its neighbours in W is 2 e(W)
    logw = beta * np.array([sum(a[u] + sum(w in W for w in nbrs[u]) for u in W)
                            for W in completions], dtype=float)
    p = np.exp(logw - logw.max())
    return completions, p / p.sum()


def plus_sets(X):
    """The rows of a boolean plus matrix as frozenset labels."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in X]


def marginals_loop(states, probs, vertices):
    """pi(v) and pi(u and v) over ``vertices`` for ``probs`` on frozenset
    states, from the 0/1 incidence matrix filled state by state."""
    vi = {v: i for i, v in enumerate(vertices)}
    X = np.zeros((len(states), len(vertices)))
    for r, s in enumerate(states):
        X[r, [vi[v] for v in s]] = 1.0
    return probs @ X, X.T @ (probs[:, None] * X)


def influence_loop(states, probs, vertices):
    """Influence matrix M[u, v] = pi(v | u) - pi(v) over frozenset states."""
    marg, joint = marginals_loop(states, probs, tuple(vertices))
    M = np.zeros_like(joint)
    live = marg > 0
    M[live] = joint[live] / marg[live, None] - marg
    return M


def local_walk_loop(states, probs, pinned, k):
    """(support, Q) of the local walk at ``pinned`` over frozenset states: the
    states containing it, selected by set inclusion, and their marginals."""
    pinned = frozenset(pinned)
    keep = [i for i, s in enumerate(states) if pinned <= s]
    sub_states = [states[i] for i in keep]
    support = sorted(set().union(*sub_states) - pinned)
    marg, joint = marginals_loop([s - pinned for s in sub_states],
                                 probs[keep] / probs[keep].sum(), support)
    np.fill_diagonal(joint, 0.0)
    Q = np.zeros_like(joint)
    live = marg > 0
    Q[live] = joint[live] / marg[live, None] / (k - len(pinned) - 1)
    return tuple(support), Q


def grand_canonical_loop(g, beta, lam):
    """(states, probs) of the grand-canonical measure, state by state: every
    plus set by size, in ``combinations`` order, with its mono count."""
    states, logw = [], []
    for r in range(g.n + 1):
        for s in combinations(range(g.n), r):
            spins = [1 if v in s else -1 for v in range(g.n)]
            states.append(frozenset(s))
            logw.append(beta * monochromatic_edges(g, spins) + r * math.log(lam))
    logw = np.array(logw)
    p = np.exp(logw - logw.max())
    p /= p.sum()
    return states, p


def local_mono(g, spins, vertices):
    """Monochromatic edges among those incident to the given vertex set,
    each edge of the multiset once; self-loops are always monochromatic."""
    return sum(1 for u, w in g.edges
               if (u in vertices or w in vertices) and spins[u] == spins[w])


def swap_delta_mono(g, spins, u, w):
    """Change in monochromatic edges when the spins of u and w are swapped."""
    before = local_mono(g, spins, {u, w})
    spins[u], spins[w] = spins[w], spins[u]
    after = local_mono(g, spins, {u, w})
    spins[u], spins[w] = spins[w], spins[u]
    return after - before


def _disagreements(X, Y, neighbor_sets):
    """D and B of a coupled state from scratch, in O(|D| k): B holds each
    disagreeing index whose plus in either copy neighbours an agreeing plus."""
    D = frozenset(j for j in range(len(X)) if X[j] != Y[j])
    B = set()
    agree = [j for j in range(len(X)) if X[j] == Y[j]]
    for j in D:
        nbrs = neighbor_sets[X[j]] | neighbor_sets[Y[j]]
        if any(X[i] in nbrs for i in agree):
            B.add(j)
    return D, frozenset(B)


# Per-state probabilities and finite-difference cumulants

def log_z(table: PartitionTable, lam: float) -> float:
    """log Z(beta, lambda) = log sum_k lambda^k Zhat_k."""
    return _logsumexp(table.log_weights_by_k(lam))


def cumulants_by_t_derivative(
    g: Graph, beta: float, lam: float, pinned=EMPTY_PINNING,
    j_max: int = 3, step: float = 1e-3,
) -> tuple:
    """Cross-check route: central finite differences of t -> log Z(lambda e^t)."""
    if j_max > 3:
        raise InvalidInputError("finite-difference route supports j_max <= 3")
    table = exact_partition_table(g, beta, pinned)

    def K(t):
        return log_z(table, lam * math.exp(t))

    h = step
    k1 = (K(h) - K(-h)) / (2 * h)
    k2 = (K(h) - 2 * K(0.0) + K(-h)) / h**2
    k3 = (K(2 * h) - 2 * K(h) + 2 * K(-h) - K(-2 * h)) / (2 * h**3)
    return (k1, k2, k3)[:j_max]


def _check_consistent(sigma: SpinConfiguration, pinned) -> None:
    for v in pinned:
        if sigma.spins[v] != 1:
            raise InvalidInputError(f"configuration is not plus at pinned vertex {v}")


def gibbs_prob(
    g: Graph,
    params: IsingParams,
    pinned,
    sigma: SpinConfiguration,
    table: PartitionTable = None,
) -> float:
    """Exact mu^U_{beta,lambda}(sigma), U the ``pinned`` plus set, via the
    partition table."""
    _check_consistent(sigma, pinned)
    if table is None:
        table = exact_partition_table(g, params.beta, pinned)
    log_w = sigma.plus_count * math.log(params.lam) + params.beta * sigma.mono_edges
    return math.exp(log_w - log_z(table, params.lam))


def fixed_mag_prob(
    g: Graph,
    beta: float,
    k: int,
    pinned,
    sigma: SpinConfiguration,
    table: PartitionTable = None,
) -> float:
    """Exact mu-hat^U_{beta,k}(sigma), U the ``pinned`` plus set, via the
    partition table."""
    _check_consistent(sigma, pinned)
    if sigma.plus_count != k:
        raise InvalidInputError(
            f"configuration has plus-count {sigma.plus_count}, expected k={k}"
        )
    if table is None:
        table = exact_partition_table(g, beta, pinned)
    log_zhat = table.log_zhat_by_k[k]
    if log_zhat == NEG_INF:
        raise InvalidInputError(f"Omega_k empty for k={k} under this pinning")
    return math.exp(beta * sigma.mono_edges - log_zhat)


# The (k, l) down-up step

EXACT_SUPPORT_CAP = 200_000  # states enumerated for one exact (k, l) resample


def kl_downup_step(g: Graph, beta: float, k: int, ell: int,
                   sigma: SpinConfiguration, rng):
    """One (k, l)-down-up transition: keep a uniform l-subset of pluses and
    resample the rest from the conditional fixed-magnetization measure.

    The resample enumerates its C(n - l, k - l) completions, at most
    EXACT_SUPPORT_CAP of them.
    """
    rng = as_rng(rng)
    if not (0 <= ell <= k - 1):
        raise InvalidInputError("need 0 <= ell <= k-1")
    if sigma.plus_count != k:
        raise InvalidInputError("configuration plus-count differs from k")
    if math.comb(g.n - ell, k - ell) > EXACT_SUPPORT_CAP:
        raise TooLargeError("conditional support too large for exact resampling")
    plus = [v for v in range(g.n) if sigma.spins[v] == 1]
    keep = {plus[i] for i in rng.choice(len(plus), size=ell, replace=False)}
    return _resample(g, beta, keep, k - ell, rng)


# Mixing time by dense matrix powers

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


# Band occupancy, overlaps and partition-ratio bounds

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


def overlap(sigma, sigma_prime) -> float:
    """nu(sigma, sigma') = (sigma . sigma') / n."""
    a = np.asarray(sigma, dtype=float)
    b = np.asarray(sigma_prime, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError("configurations must have equal length")
    return float(a @ b / len(a))


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
    log_w = table.log_weights_by_k(lam).tolist()
    margins_up, margins_down = [], []
    for kk in range(k, k + t):
        log_zk, log_zk1 = log_w[kk], log_w[kk + 1]
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


def _g_of_b0(eta: float, b0: float, delta: int, beta: float, lam: float) -> float:
    bp = (1 + eta) / 2 - b0
    bm = (1 - eta) / 2 - b0
    ent = 0.0
    for b in (bp, bm):
        if b > 0:
            ent += b * log(b)
    if b0 > 0:
        ent += 2 * b0 * log(b0)
    return (
        -(delta - 1) * binary_entropy((1 + eta) / 2)
        - delta / 2 * ent
        + beta * delta / 2 * (bp + bm)
        + (1 + eta) / 2 * log(lam)
    )
