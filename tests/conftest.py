"""Shared fixtures: the small exact test-set graphs used across the suite, and
the slow references the fast paths are checked against: the Gray-code
enumeration behind the partition-table DP, the per-link loop behind the
down-up kernel product, the closed-form completion law behind the down-up
resample, the per-state grand-canonical loop, the frozenset influence matrix
and local walks behind the plus-matrix ones, and local mono counts."""

import math
from itertools import combinations

import numpy as np
import pytest

from isinglab.dynamics import _csr
from isinglab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_regular,
)
from isinglab.measures import (
    EMPTY_PINNING,
    NEG_INF,
    PartitionTable,
    _logsumexp,
    gibbs_law,
    monochromatic_edges,
)

# loop at 0; doubled edges 1-2 and 3-4
LOOPED = Graph(n=6, adjacency=[[0, 0, 1, 5], [0, 2, 2], [1, 1, 3], [2, 4, 4],
                               [3, 3, 5], [4, 0]], delta_max=4)


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def p3():
    return path_graph(3)


@pytest.fixture(scope="session")
def rr10():
    return random_regular(10, 3, seed=7, simple=True)


@pytest.fixture(scope="session")
def two_c6():
    return disjoint_union(cycle_graph(6), 2).graph


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
    graphs["2xC6"] = disjoint_union(cycle_graph(6), 2).graph
    return graphs


def gray_code_table(g, beta, pinning=EMPTY_PINNING):
    """Reference partition table: visit every configuration consistent with
    the pinning in Gray-code order, updating the monochromatic-edge count per
    flipped vertex, and tally exact integer counts N[k][m]; log values come
    from a log-sum-exp over m at the end."""
    spins = [-1] * g.n
    for v, s in pinning.assignments.items():
        spins[v] = s
    free = [v for v in range(g.n) if v not in pinning]
    k = pinning.plus_count
    m = monochromatic_edges(g, spins)

    counts = [dict() for _ in range(g.n + 1)]
    counts[k][m] = 1
    for i in range(1, 1 << len(free)):
        v = free[(i & -i).bit_length() - 1]
        s_new = -spins[v]
        spins[v] = s_new
        k += 1 if s_new == 1 else -1
        for w in g.adjacency[v]:
            if w != v:  # self-loops stay monochromatic under any flip
                m += 1 if spins[w] == s_new else -1
        counts[k][m] = counts[k].get(m, 0) + 1

    log_by_k = tuple(
        _logsumexp(beta * mm + math.log(c) for mm, c in by_m.items())
        if by_m else NEG_INF
        for by_m in counts
    )
    return PartitionTable(n=g.n, beta=beta, pinning=pinning, log_zhat_by_k=log_by_k)


def downup_kernel_loop(states, mono, free, beta, pinned, ell):
    """Reference (k, l) down-up kernel over frozenset states: for each state
    and each kept l-subset K of its free pluses, list the link of pinned + K
    as the states pinned + K + W over the completions W, and give them the
    link's heat-bath law over C(k_free, l); repeats are summed."""
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
    return _csr(np.concatenate([law for _, law in row]).reshape(-1, width),
                np.concatenate([idxs for idxs, _ in row]).reshape(-1, width),
                len(states))


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


def swap_delta_mono(g, spins, u, w):
    """Change in monochromatic edges when the spins of u and w are swapped."""
    before = local_mono(g, spins, {u, w})
    spins[u], spins[w] = spins[w], spins[u]
    after = local_mono(g, spins, {u, w})
    spins[u], spins[w] = spins[w], spins[u]
    return after - before
