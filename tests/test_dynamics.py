import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from isinglab import dynamics
from isinglab.dynamics import (
    _CHUNK,
    ChainKernel,
    CoupledKawasaki,
    FixedRows,
    TransitionMatrix,
    _chunks,
    _heat_bath,
    _kawasaki_swaps,
    build_transition_matrix,
    downup_step,
    glauber_step,
    heat_bath_table,
    kawasaki_step,
    pinned_downup_matrices,
)
from isinglab.errors import InvalidInputError, NonReversibleError, TooLargeError
from isinglab.graphs import Graph, random_regular
from isinglab.measures import (
    EMPTY_PINNING,
    IsingParams,
    SpinConfiguration,
    fixed_k_states,
    monochromatic_edges,
)
from isinglab.rng import make_rng

from conftest import (
    LOOPED,
    _disagreements,
    complete_graph,
    completion_law,
    csr,
    cycle_graph,
    downup_kernel_loop,
    exact_test_set,
    kl_downup_step,
    link_ids_by_bitmask,
    plus_sets,
    swap_delta_mono,
)


def cfg(g, spins):
    return SpinConfiguration.from_spins(g, spins)


def test_glauber_isolated_vertex_unbiased():
    g = Graph(n=1, edges=(), delta_max=0)
    rng = make_rng(0)
    hits = sum(
        glauber_step(g, IsingParams(1.0, 1.0), cfg(g, [-1]), rng).spins[0] == 1
        for _ in range(20000)
    )
    assert abs(hits / 20000 - 0.5) < 0.02


def test_glauber_all_plus_neighbors_conditional():
    # star center with all neighbors +: P(+) = e^{b d}/(e^{b d}+1)
    g = Graph(n=4, edges=((0, 1), (0, 2), (0, 3)), delta_max=3)
    beta = 0.7
    rng = make_rng(1)
    start = cfg(g, [-1, 1, 1, 1])
    n = 40000
    hits = 0
    for _ in range(n):
        out = glauber_step(g, IsingParams(beta, 1.0), start, rng)
        if out.spins[0] == 1:
            hits += 1
    # vertex 0 chosen w.p. 1/4; if not chosen, spins[0] stays -1
    expected = 0.25 * math.exp(3 * beta) / (math.exp(3 * beta) + 1)
    assert abs(hits / n - expected) < 0.01


def test_glauber_self_loop_neutral():
    # a self-loop is always monochromatic, so it cancels from the heat-bath
    # conditional: vertex 0 with one loop and one + neighbor behaves like a
    # degree-1 vertex
    g = Graph(n=2, edges=((0, 1), (0, 0)), delta_max=3)
    beta = 0.9
    tm = build_transition_matrix(ChainKernel("glauber", beta=beta, lam=1.0), g)
    # P(spin0 = + | spin1 = +) = e^b / (e^b + 1): check row from state (-,+)
    p_plus = math.exp(beta) / (math.exp(beta) + 1)
    row = tm.P[0b10]
    assert math.isclose(row[0b11], 0.5 * p_plus, rel_tol=1e-12)
    assert np.allclose(tm.pi @ tm.P, tm.pi, atol=1e-12)


def test_glauber_matrix_k2_stationary_vector():
    g = complete_graph(2)
    beta, lam = 0.8, 1.3
    tm = build_transition_matrix(ChainKernel("glauber", beta=beta, lam=lam), g)
    # states indexed by bitmask: 0=(-,-), 1=(+,-), 2=(-,+), 3=(+,+)
    w = np.array([math.exp(beta), lam, lam, lam**2 * math.exp(beta)])
    assert np.allclose(tm.pi, w / w.sum(), atol=1e-14)
    assert np.allclose(tm.pi @ tm.P, tm.pi, atol=1e-12)


def test_kawasaki_k2_always_swaps():
    g = complete_graph(2)
    rng = make_rng(2)
    s = cfg(g, [1, -1])
    for _ in range(10):
        s2 = kawasaki_step(g, 0.9, 1, EMPTY_PINNING, s, rng)
        assert s2.spins == tuple(-x for x in s.spins)
        s = s2


def test_kawasaki_k3_uniform():
    g = complete_graph(3)
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=1.1, k=1), g)
    assert np.allclose(tm.pi, [1 / 3] * 3)
    # all moves accepted: off-diagonals are 1/2 each
    assert np.allclose(tm.P, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])


def test_kawasaki_positive_delta_always_accepted():
    g = cycle_graph(6)
    rng = make_rng(3)
    beta, k = 1.5, 3
    s = cfg(g, [1, -1, 1, -1, 1, -1])  # alternating: any swap has delta_m >= 0
    moved = 0
    for _ in range(200):
        s2 = kawasaki_step(g, beta, k, EMPTY_PINNING, s, rng)
        if s2.spins != s.spins:
            moved += 1
    assert moved == 200  # m=0 is the unique minimum; every move accepted


def test_kawasaki_matrix_k2():
    g = complete_graph(2)
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.5, k=1), g)
    assert np.allclose(tm.P, [[0, 1], [1, 0]])


CHUNKED_T = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


@pytest.mark.parametrize("T", CHUNKED_T)
def test_chunked_draws_equal_whole_array_draws(T):
    """Every block of ``_chunks`` holds the values of one whole-array call,
    the blocks in turn, and the generator ends where those calls leave it."""
    heat_bath = (lambda gen, m: gen.integers(0, 2001, size=m),
                 lambda gen, m: gen.random(size=m))
    kawasaki = (lambda gen, m: gen.integers(0, 999, size=m),
                lambda gen, m: gen.integers(0, 1001, size=m),
                lambda gen, m: gen.random(size=m))
    for blocks in (heat_bath, kawasaki):
        rng, twin = make_rng(7, 3), make_rng(7, 3)
        for gen in (rng, twin):  # an odd 32-bit draw leaves half a word buffered
            gen.integers(0, 5)
        whole = [draw(twin, T).tolist() for draw in blocks]
        assert list(_chunks(rng, T, *blocks)) == list(zip(*whole))
        assert np.array_equal(rng.random(4), twin.random(4))


def _heat_bath_whole(g, beta, lam, spins, rng, T):
    """Heat bath from whole-array draws, each conditional counted afresh."""
    vs, us = rng.integers(0, g.n, size=T), rng.random(size=T)
    for v, u in zip(vs.tolist(), us.tolist()):
        nb = g.neighbors[v]
        j = sum(1 for w in nb if spins[w] == 1)
        spins[v] = 1 if u < heat_bath_table(beta, lam, len(nb))[j] else -1
        yield spins.count(1), monochromatic_edges(g, spins)


def _kawasaki_whole(g, beta, spins, rng, T, pinned):
    """Metropolis swaps from whole-array draws, each d counted afresh."""
    plus = [v for v, s in enumerate(spins) if s == 1 and v not in pinned]
    minus = [v for v, s in enumerate(spins) if s == -1 and v not in pinned]
    iu, iw = rng.integers(0, len(plus), size=T), rng.integers(0, len(minus), size=T)
    for a, b, r in zip(iu.tolist(), iw.tolist(), rng.random(size=T).tolist()):
        u, w = plus[a], minus[b]
        moved = list(spins)
        moved[u], moved[w] = -1, 1
        d = monochromatic_edges(g, moved) - monochromatic_edges(g, spins)
        if d >= 0 or r < math.exp(beta * d):
            spins[:] = moved
            plus[a], minus[b] = w, u
            yield u, w, d
        else:
            yield None


@pytest.mark.parametrize("beta", [0.0, 0.7, 40.0])
def test_kernels_replay_whole_array_runs(beta):
    """Past one chunk, both kernels make the moves and leave the generator
    where a run on whole-array draws does; the Kawasaki threshold takes a
    swap iff d >= 0 or r < e^{beta d}.  On a multigraph with self-loops and
    parallel edges, with and without a plus pin."""
    T = 3 * _CHUNK + 7
    start = [1, -1, 1, -1, -1, 1]
    runs = [(lambda s, r: _heat_bath(LOOPED, beta, 1.3, s, r, T),
             lambda s, r: _heat_bath_whole(LOOPED, beta, 1.3, s, r, T))]
    for pinned in (frozenset(), frozenset({0})):
        runs.append((
            lambda s, r, p=pinned: _kawasaki_swaps(LOOPED, beta, s, r, T, p),
            lambda s, r, p=pinned: _kawasaki_whole(LOOPED, beta, s, r, T, p)))
    for kernel, whole in runs:
        spins, twin_spins = list(start), list(start)
        rng, twin = make_rng(5, 2), make_rng(5, 2)
        moves = list(kernel(spins, rng))
        assert moves[-T:] == list(whole(twin_spins, twin))
        assert spins == twin_spins
        assert np.array_equal(rng.random(4), twin.random(4))
    if beta == 0.7:  # the last Kawasaki run both took and refused swaps
        assert None in moves and any(moves)


def test_downup_k2_uniformizes():
    g = complete_graph(2)
    tm = build_transition_matrix(ChainKernel("downup", beta=0.7, k=1), g)
    assert np.allclose(tm.P, [[0.5, 0.5], [0.5, 0.5]])


def test_downup_beta0_uniform_candidates():
    g = cycle_graph(5)
    tm = build_transition_matrix(ChainKernel("downup", beta=0.0, k=2), g)
    # removing either plus, the new position is uniform over n-k+1 = 4
    # candidates, so each swap-neighbor gets 1/8 and the diagonal 2 * 1/8.
    i = plus_sets(tm.states).index(frozenset({0, 2}))
    row = tm.P[i]
    assert math.isclose(row.sum(), 1.0)
    assert math.isclose(row[i], 0.25)
    off = [p for j, p in enumerate(row) if j != i and p > 1e-12]
    assert len(off) == 6 and np.allclose(off, 1 / 8)
    assert np.allclose(tm.pi @ tm.P, tm.pi, atol=1e-12)


def test_stationarity_and_reversibility_all_kernels(two_c6):
    beta, lam, k = 0.6, 1.2, 4
    for g in (complete_graph(4), cycle_graph(5)):
        for kind, kwargs in [
            ("glauber", dict(lam=lam)),
            ("kawasaki", dict(k=2)),
            ("downup", dict(k=2)),
            ("kl_downup", dict(k=2, ell=1)),
        ]:
            tm = build_transition_matrix(ChainKernel(kind, beta=beta, **kwargs), g)
            assert np.allclose(tm.pi @ tm.P, tm.pi, atol=1e-12), (kind, g.n)


def test_kawasaki_stationary_matches_partition_table():
    g = cycle_graph(5)
    beta, k = 1.0, 2
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
    # power iteration vs PartitionTable-based mu-hat
    M = np.linalg.matrix_power(0.5 * (np.eye(len(tm.states)) + tm.P), 4000)
    pi_power = M[0]
    X, mono = fixed_k_states(g, k)
    states = plus_sets(X)
    w = np.exp(beta * mono)
    w /= w.sum()
    order = [states.index(s) for s in plus_sets(tm.states)]
    assert np.max(np.abs(pi_power - tm.pi)) < 1e-10
    assert np.max(np.abs(w[order] - tm.pi)) < 1e-12


def test_pinned_kernels():
    g = cycle_graph(6)
    for kind in ("kawasaki", "downup"):
        tm = build_transition_matrix(
            ChainKernel(kind, beta=0.8, k=3, pinned={0}), g
        )
        assert tm.states[:, 0].all()
        assert np.allclose(tm.pi @ tm.P, tm.pi, atol=1e-12)


def test_kl_ell_km1_equals_downup():
    g = complete_graph(4)
    beta, k = 0.9, 2
    tm_kl = build_transition_matrix(ChainKernel("kl_downup", beta=beta, k=k, ell=1), g)
    tm_du = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
    du_states = plus_sets(tm_du.states)
    order = [du_states.index(s) for s in plus_sets(tm_kl.states)]
    assert np.max(np.abs(tm_kl.P - tm_du.P[np.ix_(order, order)])) < 1e-12


def test_kl_ell0_full_resample():
    g = cycle_graph(5)
    beta, k = 0.7, 2
    tm = build_transition_matrix(ChainKernel("kl_downup", beta=beta, k=k, ell=0), g)
    for row in tm.P:
        assert np.allclose(row, tm.pi, atol=1e-12)


def test_kl_matrix_matches_expectation_formula():
    """Q(S1,S2) = sum_U P[U_ell = U] pi^U(S1) pi^U(S2) / pi(S1).

    The localization process puts P[U_ell = U] = pi(contains U)/C(k, ell);
    evaluating the expectation literally over all U in C(V, ell) is an
    independent route to the same kernel.  The pinned +1 walk keeps the
    pinned pluses, so its sum runs over U = pinned + (k_free - 1 free
    vertices) with C(k_free, k_free - 1) choices.
    """
    cases = [(complete_graph(4), 2, 1, ())]
    cases += [(cycle_graph(6), 3, ell, ()) for ell in (0, 1, 2)]
    cases += [(cycle_graph(6), 3, 1, (0,))]
    beta = 0.8
    for g, k, ell, pinned in cases:
        if pinned:
            kernel = ChainKernel("downup", beta=beta, k=k, pinned=pinned)
        else:
            kernel = ChainKernel("kl_downup", beta=beta, k=k, ell=ell)
        tm = build_transition_matrix(kernel, g)
        X, mono = fixed_k_states(g, k, pinned=pinned)
        states = plus_sets(X)
        w = np.exp(beta * (mono - mono.max()))
        pi = w / w.sum()
        idx = {s: i for i, s in enumerate(states)}
        tm_idx = {s: i for i, s in enumerate(plus_sets(tm.states))}
        n_sub = math.comb(k - len(pinned), ell)
        free = [v for v in range(g.n) if v not in pinned]
        for s1 in states:
            for s2 in states:
                q = 0.0
                for u in combinations(free, ell):
                    u = frozenset(u) | frozenset(pinned)
                    mass = sum(pi[idx[t]] for t in states if u <= t)
                    if mass == 0 or not (u <= s1 and u <= s2):
                        continue
                    p_u = mass / n_sub
                    q += p_u * (pi[idx[s1]] / mass) * (pi[idx[s2]] / mass) / pi[idx[s1]]
                entry = tm.P[tm_idx[s1], tm_idx[s2]]
                assert abs(q - entry) < 1e-12, (g.n, k, ell, pinned, s1, s2)


@pytest.mark.parametrize("beta", [0.0, 0.7, 40.0])
def test_downup_product_matches_per_link_loop(beta):
    """The sparse product A L equals the per-link loop entry by entry, for
    every l from 0 to k_free - 1, with and without plus pinnings, on the exact
    test set and on multigraphs with self-loops and parallel edges.  On the
    24-edge multigraph beta * mono passes 709, where exp overflows."""
    graphs = {**exact_test_set(), "looped": LOOPED,
              "RR12 multigraph": random_regular(12, 4, seed=3)}
    for name, g in graphs.items():
        for k in sorted({1, g.n // 2, g.n - 1}):
            for pinned in ((), (1, g.n - 1)):
                if len(pinned) >= k:
                    continue
                X, mono = fixed_k_states(g, k, pinned=pinned)
                free = [v for v in range(g.n) if v not in pinned]
                for ell in range(k - len(pinned)):
                    tm = dynamics._link_matrix(g, beta, k, [pinned], ell, "kl_downup")
                    want = downup_kernel_loop(plus_sets(X), mono, free, beta,
                                              frozenset(pinned), ell)
                    assert abs(csr(tm.K) - want).max() <= 1e-14, (name, k, pinned, ell)


def test_downup_product_past_62_free_vertices():
    """On C70 the links are ranked among subsets of 70 free vertices, more
    than a 64-bit bitmask holds."""
    g, beta = cycle_graph(70), 0.7
    X, mono = fixed_k_states(g, 2)
    states = plus_sets(X)
    want = downup_kernel_loop(states, mono, list(range(g.n)), beta, frozenset(), 1)
    for kernel in (ChainKernel("kl_downup", beta=beta, k=2, ell=1),
                   ChainKernel("downup", beta=beta, k=2)):
        tm = build_transition_matrix(kernel, g)
        assert np.array_equal(tm.states, X)
        assert abs(csr(tm.K) - want).max() <= 1e-14


@pytest.mark.parametrize("ell", [1, 2])
def test_pinned_blocks_equal_per_pin_set_kernels(ell):
    """Each diagonal block of the pinned +1 down-up kernels is, entry for
    entry, the kernel ``build_transition_matrix`` makes for its pin set, with
    the same plus-matrix rows and pi, and no entry leaves its block; on the
    exact test set up to 10 vertices and a multigraph with self-loops, and at
    a beta where exp(beta * mono) overflows."""
    graphs = {name: g for name, g in exact_test_set().items() if g.n <= 10}
    graphs["looped"] = LOOPED
    for name, g in graphs.items():
        for k in sorted({ell + 1, g.n // 2, g.n - 1} & set(range(ell + 1, g.n + 1))):
            size = math.comb(g.n - ell, k - ell)
            for beta in (0.0, 0.7, 40.0):
                (pin_sets, tm), = pinned_downup_matrices(g, beta, k, ell)
                assert pin_sets == list(combinations(range(g.n), ell))
                assert len(tm.states) == size * len(pin_sets)
                coo = csr(tm.K).tocoo()
                assert np.array_equal(coo.row // size, coo.col // size)
                for b, u in enumerate(pin_sets):
                    want = build_transition_matrix(
                        ChainKernel("downup", beta=beta, k=k, pinned=u), g)
                    block = slice(b * size, (b + 1) * size)
                    assert (csr(tm.K)[block, block] != csr(want.K)).nnz == 0, (name, k, u, beta)
                    assert np.array_equal(tm.states[block], want.states), (name, k, u)
                    assert np.array_equal(tm.pi[block], want.pi), (name, k, u, beta)


def _assert_fixed_width(M):
    """Every row of M holds as many entries, at sorted, distinct columns."""
    assert M.cols.shape == M.vals.shape and len(M.cols) == M.shape[0]
    assert np.all(np.diff(M.cols, axis=1) > 0)
    assert 0 <= M.cols.min() and M.cols.max() < M.shape[1]


def _close(got, want):
    """Two scipy arrays with the same stored entries, to 1e-15."""
    return got.nnz == want.nnz and abs(got - want).max() <= 1e-15


def _scipy_cross_check_cases():
    g = random_regular(9, 4, seed=2)
    kernels = {
        "glauber-looped": ChainKernel("glauber", beta=0.7, lam=1.2),
        "kawasaki": ChainKernel("kawasaki", beta=0.7, k=4),
        "kawasaki-pinned": ChainKernel("kawasaki", beta=0.7, k=4, pinned={1, 5}),
        "downup": ChainKernel("downup", beta=0.7, k=4),
        "downup-pinned": ChainKernel("downup", beta=0.7, k=4, pinned={1, 5}),
        "kl-ell0": ChainKernel("kl_downup", beta=0.7, k=4, ell=0),
        "kl-ell3": ChainKernel("kl_downup", beta=0.7, k=5, ell=3),
    }
    for name, kernel in kernels.items():
        yield name, kernel, build_transition_matrix(kernel, LOOPED if "looped" in name else g)
    for name, graph, k in (("blocks", g, 4), ("blocks-C70", cycle_graph(70), 2)):
        for _, tm in pinned_downup_matrices(graph, 0.7, k, 1):
            yield name, None, tm


def test_fixed_width_kernels_match_scipy_products():
    """Every kernel and factor has fixed-width rows of sorted, distinct
    columns; L has the pattern of A's transpose; each product (A L, L A,
    pi A, pi K) equals scipy's CSR product of the same arrays, entry for
    entry to 1e-15; and the Kawasaki pattern is that of A A^T for the +1
    walk's A on the same states.  On Glauber over a looped multigraph,
    Kawasaki and the +1 walk pinned and not, the (k, l) walk at l = 0 and 3,
    and the pinned blocks, also on C70, whose 70 vertices no 64-bit link
    bitmask holds."""
    g = random_regular(9, 4, seed=2)
    for name, kernel, tm in _scipy_cross_check_cases():
        _assert_fixed_width(tm.K)
        K = csr(tm.K)
        assert K.has_canonical_format, name
        assert abs(tm.pi @ tm.K - tm.pi @ K).max() <= 1e-15, name
        if tm.factors is not None:
            A, L = tm.factors
            for M in (A, L, L @ A):
                _assert_fixed_width(M)
            assert np.array_equal(csr(A).T.tocsr().indices, csr(L).indices), name
            assert _close(K, csr(A) @ csr(L)), name
            assert _close(csr(L @ A), csr(L) @ csr(A)), name
            assert abs(tm.pi @ A - tm.pi @ csr(A)).max() <= 1e-15, name
        elif name.startswith("kawasaki"):
            A, _ = build_transition_matrix(
                ChainKernel("downup", beta=0.7, k=kernel.k, pinned=kernel.pinned), g).factors
            want = csr(A) @ csr(A).T
            want.sort_indices()
            assert np.array_equal(K.indptr, want.indptr), name
            assert np.array_equal(K.indices, want.indices), name
        else:
            assert tm.K.cols.shape == (2**LOOPED.n, LOOPED.n + 1)


def test_downup_kernels_keep_their_link_factors():
    """A down-up kernel keeps A (state x link) and L (link x state) and forms
    K = A L only when it is read; Kawasaki and Glauber are passed whole."""
    g = cycle_graph(6)
    for kernel, links in ((ChainKernel("downup", beta=0.7, k=3), 15),
                          (ChainKernel("kl_downup", beta=0.7, k=3, ell=1), 6),
                          (ChainKernel("downup", beta=0.7, k=3,
                                       pinned={2}), 5)):
        tm = build_transition_matrix(kernel, g)
        A, L = tm.factors
        assert A.shape == L.shape[::-1] == (len(tm.states), links)
        assert "K" not in vars(tm)
        K = csr(tm.K)
        assert abs(K - csr(A) @ csr(L)).max() == 0.0 and K.has_canonical_format
    for kernel in (ChainKernel("kawasaki", beta=0.7, k=3),
                   ChainKernel("glauber", beta=0.7, lam=1.2)):
        assert build_transition_matrix(kernel, g).factors is None


def test_perturbed_link_factors_are_refused():
    """Factors are checked as they are passed: a row of A or of L off 1, and
    a row moved by +-eps so that it still sums to 1 but breaks
    L(e, y) (pi A)(e) = pi(y) A(y, e), each raise NonReversibleError."""
    tm = build_transition_matrix(ChainKernel("downup", beta=0.7, k=3), cycle_graph(6))
    A, L = tm.factors

    def moved(M, *eps):  # row 0 of A and of L holds at least two entries
        vals = M.vals.copy()
        vals[0, :len(eps)] += eps
        return FixedRows(M.cols, vals, M.shape[1])

    TransitionMatrix(states=tm.states, K=(A, L), pi=tm.pi)
    for factors, match in (((moved(A, 1e-9), L), "rows sum to 1"),
                           ((A, moved(L, 1e-9)), "rows sum to 1"),
                           ((moved(A, 1e-6, -1e-6), L), "detailed balance violated"),
                           ((A, moved(L, 1e-6, -1e-6)), "detailed balance violated")):
        with pytest.raises(NonReversibleError, match=match):
            TransitionMatrix(states=tm.states, K=factors, pi=tm.pi)
    with pytest.raises(NonReversibleError, match="detailed balance violated"):
        TransitionMatrix(states=tm.states, K=(A, L),
                         pi=tm.pi * np.linspace(1.0, 1.01, len(tm.pi)))


def test_detailed_balance_error_in_row_blocks():
    """2^16 Glauber states hold 17 entries each, more than one block of 2^20:
    under a pi off the reversing one, the blockwise maximum equals the one
    over the whole union pattern."""
    tm = build_transition_matrix(ChainKernel("glauber", beta=0.7, lam=1.2),
                                 cycle_graph(16))
    assert csr(tm.K).nnz > 1 << 20
    pi = tm.pi * np.linspace(1.0, 1.5, len(tm.pi))
    F = csr(tm.K).multiply(pi[:, None]).tocsr()
    want = float(abs(F - F.T).max())
    assert want > 0 and dynamics._balance_error(tm.K, pi, tm.K, pi) == want


def test_kernel_states_are_the_listed_plus_matrix():
    """``tm.states`` is the listing's read-only boolean plus matrix, one row
    per row of K: the ``fixed_k_states`` rows for the fixed-magnetization
    kernels, pinned or not, concatenated per pin set for the pinned blocks,
    and for Glauber row s holds the bits of s."""
    g, beta, k = random_regular(8, 3, seed=1), 0.7, 4
    bits = ((np.arange(2**g.n)[:, None] >> np.arange(g.n)) & 1).astype(bool)
    cases = [(ChainKernel("glauber", beta=beta, lam=1.2), bits),
             (ChainKernel("kl_downup", beta=beta, k=k, ell=2), fixed_k_states(g, k)[0])]
    for pinned in ((), (1, 5)):
        X, _ = fixed_k_states(g, k, pinned=pinned)
        cases += [(ChainKernel(kind, beta=beta, k=k, pinned=pinned), X)
                  for kind in ("kawasaki", "downup")]
    kernels = [(build_transition_matrix(kernel, g), want) for kernel, want in cases]
    for ell in (1, 2):
        for pin_sets, tm in pinned_downup_matrices(g, beta, k, ell):
            want = [fixed_k_states(g, k, pinned=u)[0] for u in pin_sets]
            kernels.append((tm, np.concatenate(want)))
    for tm, want in kernels:
        assert tm.states.dtype == bool
        assert not tm.states.flags.writeable
        assert np.array_equal(tm.states, want)
        assert len(tm.states) == tm.K.shape[0]


def test_pinned_blocks_batched_under_the_nonzero_cap(monkeypatch):
    """C6 at k = 3, l = 1: a block may hold 80 nonzeros and the six 480.
    Under a cap of 200 they come as three kernels of two blocks each, equal
    to the one kernel under the real cap; under a cap of 79 one block does
    not fit, and is refused before enumerating."""
    g = cycle_graph(6)
    (pin_sets, whole), = pinned_downup_matrices(g, 0.7, 3, 1)
    monkeypatch.setattr(dynamics, "KERNEL_NONZERO_CAP", 200)
    batches = list(pinned_downup_matrices(g, 0.7, 3, 1))
    assert [p for p, _ in batches] == [pin_sets[0:2], pin_sets[2:4], pin_sets[4:6]]
    from scipy.sparse import block_diag
    assert (block_diag([csr(tm.K) for _, tm in batches]) != csr(whole.K)).nnz == 0
    assert np.array_equal(np.concatenate([tm.pi for _, tm in batches]), whole.pi)
    assert np.array_equal(np.concatenate([tm.states for _, tm in batches]), whole.states)
    monkeypatch.setattr(dynamics, "KERNEL_NONZERO_CAP", 79)
    monkeypatch.setattr(dynamics, "fixed_k_states", _no_enumeration)
    with pytest.raises(TooLargeError, match="up to 80 nonzeros"):
        next(pinned_downup_matrices(g, 0.7, 3, 1))


def _link_id_cases():
    """(plus matrix, pin sets, l, A) of the +1 walk unpinned and pinned at
    one and at two vertices (Kawasaki links the same A), the (k, l) walk at
    every l, the pinned blocks at l = 1 and 2, and cycles past 62 vertices."""
    g = random_regular(9, 4, seed=2)
    kernels = [(g, ChainKernel("downup", beta=0.7, k=4, pinned=u)) for u in ((), {1}, {1, 5})]
    kernels += [(g, ChainKernel("kl_downup", beta=0.7, k=5, ell=ell)) for ell in range(5)]
    kernels += [(cycle_graph(70), ChainKernel("downup", beta=0.7, k=2)),
                (cycle_graph(70), ChainKernel("kl_downup", beta=0.7, k=2, ell=0)),
                (cycle_graph(66), ChainKernel("downup", beta=0.7, k=2, pinned={1})),
                (cycle_graph(64), ChainKernel("downup", beta=0.7, k=3, pinned={0, 1}))]
    for graph, kernel in kernels:
        tm = build_transition_matrix(kernel, graph)
        ell = kernel.ell if kernel.ell is not None else kernel.k - len(kernel.pinned) - 1
        yield tm.states, [kernel.pinned], ell, tm.factors[0]
    for graph, k, ell in ((g, 4, 1), (g, 4, 2), (cycle_graph(70), 2, 1)):
        for pin_sets, tm in pinned_downup_matrices(graph, 0.7, k, ell):
            yield tm.states, pin_sets, k - ell - 1, tm.factors[0]


def test_link_ids_follow_the_bitmask_order():
    """A link's id, its colex rank plus b C(m, l) in block b, numbers the
    links in the order of their keys bitmask + (block << n): A's columns,
    and with them the order of L's rows and the link-side start vector, are
    those of that numbering."""
    for X, pin_sets, ell, A in _link_id_cases():
        want = link_ids_by_bitmask(X, pin_sets, ell)
        assert A.cols.dtype == np.int32
        assert A.shape[1] == want.max() + 1
        assert np.array_equal(A.cols, want), (X.shape, pin_sets[:2], ell)


def test_pinned_blocks_past_62_bits():
    """On C70 with l = 1, 70 blocks of 69 free vertices, past what a 64-bit
    link bitmask holds; each block still equals its pin set's kernel."""
    g = cycle_graph(70)
    (pin_sets, tm), = pinned_downup_matrices(g, 0.7, 2, 1)
    for b in (0, 35, 69):
        want = build_transition_matrix(
            ChainKernel("downup", beta=0.7, k=2, pinned=pin_sets[b]), g)
        block = slice(b * 69, (b + 1) * 69)
        assert (csr(tm.K)[block, block] != csr(want.K)).nnz == 0


def test_kawasaki_matrix_matches_definition():
    """Every entry against min(1, e^{beta dm}) / (k_free (n - k)), with dm
    from the local swap count, and the diagonal holding the rest."""
    beta = 0.9
    # C66 and C64 have more vertices than a 62-bit bitmask holds, also where
    # C64 pinned at (0, 1) leaves 62 free vertices
    for g, k, pinnings in ((cycle_graph(5), 3, ((), (1,))), (cycle_graph(6), 3, ((), (1,))),
                           (cycle_graph(66), 2, ((1,),)), (cycle_graph(66), 1, ((),)),
                           (cycle_graph(64), 3, ((0, 1),))):
        for pinned in pinnings:
            tm = build_transition_matrix(
                ChainKernel("kawasaki", beta=beta, k=k, pinned=pinned), g)
            pairs = (k - len(pinned)) * (g.n - k)
            states = plus_sets(tm.states)
            for i, s in enumerate(states):
                spins = [1 if v in s else -1 for v in range(g.n)]
                expected = np.zeros(len(states))
                for u in s - set(pinned):
                    for w in set(range(g.n)) - s:
                        dm = swap_delta_mono(g, spins, u, w)
                        j = states.index((s - {u}) | {w})
                        expected[j] = min(1.0, math.exp(beta * dm)) / pairs
                expected[i] = 1.0 - expected.sum()
                assert np.max(np.abs(tm.P[i] - expected)) < 1e-14, (g.n, pinned, s)


def test_kawasaki_build_at_large_beta_warns_nothing():
    """At beta = 800 e^(beta dm) overflows for dm > 0; the build takes
    min(1, e^x) as e^min(0, x), so nothing warns and each entry is that
    value over the swaps, bit for bit."""
    g, beta = cycle_graph(6), 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tm = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=3), g)
    states = plus_sets(tm.states)
    for i, s in enumerate(states):
        spins = [1 if v in s else -1 for v in range(g.n)]
        for u in s:
            for w in set(range(g.n)) - s:
                dm = swap_delta_mono(g, spins, u, w)
                j = states.index((s - {u}) | {w})
                assert tm.P[i, j] == math.exp(min(0.0, beta * dm)) / 9, (s, u, w)


def test_kl_step_exact_sampling_distribution():
    g = complete_graph(4)
    beta, k, ell = 0.8, 2, 0
    rng = make_rng(11)
    start = cfg(g, [1, 1, -1, -1])
    counts = {}
    n = 30000
    for _ in range(n):
        out = kl_downup_step(g, beta, k, ell, start, rng)
        counts[out.spins] = counts.get(out.spins, 0) + 1
    # ell=0 resamples from mu-hat exactly, independent of the start
    X, mono = fixed_k_states(g, k)
    w = np.exp(beta * (mono - mono.max()))
    pi = w / w.sum()
    for s, m in zip(plus_sets(X), pi):
        spins = tuple(1 if v in s else -1 for v in range(4))
        assert abs(counts.get(spins, 0) / n - m) < 0.02


def test_kl_step_too_large_without_flag():
    from isinglab.graphs import random_regular

    g = random_regular(30, 3, seed=8, simple=True)
    start = cfg(g, [1] * 15 + [-1] * 15)
    rng = make_rng(9)
    with pytest.raises(TooLargeError):
        kl_downup_step(g, 0.4, 15, 0, start, rng)


def test_completion_law_matches_enumerated_conditional():
    """The down-up resampling law over completions W of a kept plus set
    equals the heat-bath law of the fixed-k states containing it, on a
    multigraph with a self-loop and parallel edges."""
    g = LOOPED
    beta = 0.8
    for keep, r in (({1, 4}, 1), ({2}, 2), ({5}, 3), (set(), 3)):
        completions, p = completion_law(g, beta, keep, r)
        X, mono = fixed_k_states(g, len(keep) + r, pinned=keep)
        w = np.exp(beta * (mono - mono.max()))
        want = dict(zip(plus_sets(X), w / w.sum()))
        assert len(completions) == len(want) == math.comb(g.n - len(keep), r)
        for W, q in zip(completions, p):
            assert abs(q - want[frozenset(keep).union(W)]) < 1e-12, (keep, W)


def _reference_downup(g, beta, spins, rng, pinned, ell):
    """One step with the random draws of downup_step (``ell`` None) or of
    kl_downup_step, completed from the closed-form completion law."""
    plus = [v for v in range(g.n) if spins[v] == 1]
    if ell is None:
        free_plus = [v for v in plus if v not in pinned]
        keep, r = set(plus) - {free_plus[int(rng.integers(len(free_plus)))]}, 1
    else:
        keep = {plus[i] for i in rng.choice(len(plus), size=ell, replace=False)}
        r = len(plus) - ell
    completions, p = completion_law(g, beta, keep, r)
    new = keep.union(completions[int(rng.choice(len(p), p=p))])
    return tuple(1 if v in new else -1 for v in range(g.n))


@pytest.mark.parametrize("walk", ["downup", "downup pinned", "kl"])
def test_downup_steps_draw_the_completion_law_and_carry_mono(walk):
    """200 steps at seeds 0-4, on LOOPED and on a cubic multigraph with a
    self-loop and parallel edges: every configuration is the one the
    closed-form completion law draws from the same random stream, and its
    mono_edges equals a recount.  The (k, l) walk keeps l = k/2 - 1 pluses:
    a full resample on LOOPED, 210 completions on the cubic graph."""
    beta = 0.8
    for g in (LOOPED, random_regular(12, 3, seed=1)):
        k = g.n // 2
        pinned = frozenset({0}) if walk == "downup pinned" else EMPTY_PINNING
        ell = k // 2 - 1 if walk == "kl" else None
        for seed in range(5):
            rng, ref_rng = make_rng(seed), make_rng(seed)
            sigma = cfg(g, [1] * k + [-1] * (g.n - k))
            for _ in range(200):
                want = _reference_downup(g, beta, sigma.spins, ref_rng, pinned, ell)
                if ell is None:
                    sigma = downup_step(g, beta, k, pinned, sigma, rng)
                else:
                    sigma = kl_downup_step(g, beta, k, ell, sigma, rng)
                assert sigma.spins == want, (g.n, seed)
                assert sigma.plus_count == k
                assert sigma.mono_edges == monochromatic_edges(g, sigma.spins)


def test_kernel_comparison_kawasaki_downup():
    """Obs: off-diagonal entries agree within e^{2 beta Delta} (Delta+1)^2."""
    for g, delta in [(complete_graph(4), 3), (cycle_graph(6), 2)]:
        for beta in (0.0, 0.5, 1.2):
            bound = math.exp(2 * beta * delta) * (delta + 1) ** 2
            for k in range(1, g.n):
                kq = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
                dq = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
                dq_states = plus_sets(dq.states)
                order = [dq_states.index(s) for s in plus_sets(kq.states)]
                Pk = kq.P
                Pd = dq.P[np.ix_(order, order)]
                off = ~np.eye(len(kq.states), dtype=bool)
                mask = off & ((Pk > 0) | (Pd > 0))
                assert np.all(Pk[mask] > 0) and np.all(Pd[mask] > 0)
                ratio = Pk[mask] / Pd[mask]
                assert ratio.max() <= bound + 1e-9
                assert ratio.min() >= 1 / bound - 1e-9


def test_spin_flip_equivariance():
    """Conjugating Kawasaki by the global flip gives the (beta, n-k) kernel."""
    g = cycle_graph(5)
    beta, k = 0.9, 2
    tm_k = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
    tm_flip = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=g.n - k), g)
    full = frozenset(range(g.n))
    flip_states = plus_sets(tm_flip.states)
    perm = [flip_states.index(full - s) for s in plus_sets(tm_k.states)]
    assert np.max(np.abs(tm_k.P - tm_flip.P[np.ix_(perm, perm)])) < 1e-14


def test_matrix_cap():
    g = cycle_graph(24)
    with pytest.raises(TooLargeError):
        build_transition_matrix(ChainKernel("glauber", beta=0.1, lam=1.0), g)


def _no_enumeration(*args, **kwargs):
    raise AssertionError("states enumerated before the size check")


def test_nonzero_cap_counts_entries(monkeypatch):
    """C(22, 11) states with 11 x 12 link entries each, and 2^22 Glauber states
    with 23 each, exceed the nonzero cap: refused before enumerating."""
    monkeypatch.setattr(dynamics, "fixed_k_states", _no_enumeration)
    with pytest.raises(TooLargeError, match="up to 93117024 nonzeros"):
        build_transition_matrix(ChainKernel("kawasaki", beta=0.5, k=11), cycle_graph(22))
    with pytest.raises(TooLargeError, match="up to 96468992 nonzeros"):
        build_transition_matrix(ChainKernel("glauber", beta=0.5, lam=1.0),
                                cycle_graph(22))


def test_nonzero_cap_counts_kept_subsets(monkeypatch):
    """(k, l) down-up on C30 at k = 29, l = 14: 30 states and at most 900
    kernel entries, but the product first lists 30 C(29, 14) kept subsets,
    so it is refused before enumerating."""
    monkeypatch.setattr(dynamics, "fixed_k_states", _no_enumeration)
    with pytest.raises(TooLargeError, match=f"up to {30 * math.comb(29, 14)} nonzeros"):
        build_transition_matrix(ChainKernel("kl_downup", beta=0.5, k=29, ell=14),
                                cycle_graph(30))


def test_sparse_gap_needs_no_dense_view(monkeypatch):
    """C(16, 8) = 12 870 Kawasaki states: built and solved without the
    1.3 GB dense view, whose cap it exceeds."""
    from isinglab.graphs import random_regular
    from isinglab.spectral import spectral_gap

    def no_dense(self):
        raise AssertionError("dense view read")

    monkeypatch.setattr(TransitionMatrix, "P", property(no_dense))
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.5, k=8),
                                 random_regular(16, 3, seed=0))
    assert len(tm.states) == 12870
    assert csr(tm.K).nnz == 12870 * (1 + 8 * 8)
    assert 0 < spectral_gap(tm) < 1


def test_coupled_sticky_on_diagonal():
    g = complete_graph(4)
    driver = CoupledKawasaki(g, beta=0.8, k=2, pinned=EMPTY_PINNING, phi=1.0)
    state = driver.make_state((0, 1), (0, 1))
    rng = make_rng(5)
    for _ in range(50):
        state = driver.step(state, rng)
        assert not state.D
        assert state.X == state.Y


def test_coupled_marginal_matches_exact_kawasaki_row():
    """One-step law of the X copy equals the exact Kawasaki row (3 sigma)."""
    g = complete_graph(4)
    beta, k = 0.7, 2
    driver = CoupledKawasaki(g, beta=beta, k=k, pinned=EMPTY_PINNING, phi=0.5)
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
    rng = make_rng(6)
    start = driver.make_state((0, 1), (2, 3))
    n = 100_000
    counts = {}
    for _ in range(n):
        out = driver.step(start, rng)
        key = frozenset(out.X)
        counts[key] = counts.get(key, 0) + 1
    states = plus_sets(tm.states)
    row = tm.P[states.index(frozenset({0, 1}))]
    for s, p in zip(states, row):
        observed = counts.get(s, 0) / n
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(observed - p) <= 4 * se + 1e-12, (s, observed, p)


def test_coupled_rho_zero_iff_equal():
    g = cycle_graph(6)
    driver = CoupledKawasaki(g, beta=0.5, k=2, pinned=EMPTY_PINNING, phi=0.7)
    eq = driver.make_state((0, 3), (0, 3))
    assert eq.rho == 0.0
    neq = driver.make_state((0, 3), (0, 4))
    assert neq.rho > 0.0


def test_coupled_bad_disagreement_definition():
    # path 0-1-2-3: X pluses (0,1), Y pluses (0,2): the disagreeing index
    # sits at vertices {1, 2} and the agreeing plus 0 neighbors 1, so bad.
    g = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), delta_max=2)
    driver = CoupledKawasaki(g, beta=0.3, k=2, pinned=EMPTY_PINNING, phi=0.4)
    st = driver.make_state((0, 1), (0, 2))
    assert st.D == frozenset({1})
    assert st.B == frozenset({1})
    # disagreement at vertices {3, 2}: neither neighbors the agreeing plus 0.
    st2 = driver.make_state((0, 3), (0, 2))
    assert st2.D == frozenset({1})
    assert st2.B == frozenset()


def test_coupled_incremental_matches_from_scratch():
    """Step's incremental D, B and caches equal make_state's and the
    from-scratch oracle's, step by step, and its swap probabilities equal
    those from the whole spin vector."""
    from isinglab.graphs import random_regular

    # loops at 3 and 13, parallel edges at 0, 9, 14 and 15
    g = random_regular(16, 3, seed=7)
    driver = CoupledKawasaki(g, beta=0.6, k=8, pinned={0, 5}, phi=0.5)
    rng = make_rng(11)
    free = [v for v in range(g.n) if v not in (0, 5)]
    xs = [free[int(j)] for j in rng.choice(len(free), size=6, replace=False)]
    ys = [free[int(j)] for j in rng.choice(len(free), size=6, replace=False)]
    state = driver.make_state(xs, ys)
    start = state
    frozen = [a.copy() for a in (start.x_index, start.y_index, start.agree_nbrs)]
    moved = set()
    for t in range(2000):
        state = driver.step(state, rng)
        D, B = _disagreements(state.X, state.Y, driver.neighbor_sets)
        assert (state.D, state.B) == (D, B)
        ref = driver.make_state(state.X, state.Y)
        assert (ref.D, ref.B) == (D, B)
        for name in ("x_index", "y_index", "agree_nbrs"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), name
        moved.add((len(D), len(B)))
        spins = [1 if v in (0, 5) or v in state.X else -1 for v in range(g.n)]
        minus = [v for v in range(g.n) if spins[v] == -1]
        u, v = state.X[t % 6], minus[t % len(minus)]
        want = min(1.0, math.exp(0.6 * swap_delta_mono(g, spins, u, v)))
        assert driver._accept_prob(state.x_index, u, v) == want
    assert len(moved) > 3  # the chain visited several (|D|, |B|) values
    # step(start) returns a new state and leaves start as it was
    out = driver.step(start, make_rng(3))
    assert out is not start
    assert start == driver.make_state(xs, ys)
    for a, b in zip(frozen, (start.x_index, start.y_index, start.agree_nbrs)):
        assert np.array_equal(a, b)


def test_coupled_caches_outside_equality():
    g = cycle_graph(6)
    driver = CoupledKawasaki(g, beta=0.5, k=2, pinned=EMPTY_PINNING, phi=0.7)
    a = driver.make_state((0, 3), (0, 4))
    b = driver.make_state((0, 3), (0, 4))
    assert a == b and hash(a) == hash(b)
    assert "x_index" not in repr(a)


def test_coupled_rejects_k_without_a_minus():
    g = cycle_graph(6)
    with pytest.raises(InvalidInputError):
        CoupledKawasaki(g, beta=0.5, k=6, pinned=EMPTY_PINNING, phi=0.5)
    with pytest.raises(InvalidInputError):
        CoupledKawasaki(g, beta=0.5, k=0, pinned=EMPTY_PINNING, phi=0.5)


def test_coupled_contraction_small_k():
    """Mean rho decreases per step for k << n."""
    from isinglab.graphs import random_regular

    g = random_regular(60, 3, seed=1, simple=True)
    beta, k = 0.2, 6
    driver = CoupledKawasaki(g, beta=beta, k=k, pinned=EMPTY_PINNING, phi=0.5)
    rng = make_rng(7)
    drops = []
    for _ in range(400):
        xs = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
        ys = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
        st = driver.make_state(xs, ys)
        if st.rho == 0:
            continue
        after = driver.step(st, rng)
        drops.append(after.rho - st.rho)
    assert np.mean(drops) < 0.0


def test_steps_refuse_a_minus_at_a_pinned_vertex():
    """A pinned vertex is plus: the Kawasaki and down-up steps refuse a
    configuration that is minus there, or a pinned vertex outside the graph,
    and a kernel's pinned set is stored as a frozenset."""
    g = cycle_graph(6)
    sigma = cfg(g, [1, 1, 1, -1, -1, -1])
    for step in (kawasaki_step, downup_step):
        for pinned in ({3}, {0, 4}, {-1}, {6}):
            with pytest.raises(InvalidInputError, match="not plus at every pinned"):
                step(g, 0.5, 3, pinned, sigma, make_rng(0))
        for seed in range(20):
            out = step(g, 0.5, 3, {0, 2}, sigma, make_rng(seed))
            assert out.spins[0] == out.spins[2] == 1
    assert ChainKernel("downup", beta=0.5, k=3, pinned=[0, 2]).pinned == frozenset({0, 2})


def test_chainkernel_validation():
    with pytest.raises(InvalidInputError):
        ChainKernel("glauber", beta=0.5)
    with pytest.raises(InvalidInputError, match="no pinning"):
        ChainKernel("glauber", beta=0.5, lam=1.2, pinned={0})
    with pytest.raises(InvalidInputError):
        ChainKernel("kawasaki", beta=0.5)
    with pytest.raises(InvalidInputError):
        ChainKernel("kl_downup", beta=0.5, k=2, ell=2)
    g = cycle_graph(6)
    for kernel in (
        ChainKernel("kl_downup", beta=0.5, k=3, ell=1, pinned={0}),
        ChainKernel("kawasaki", beta=0.5, k=6),
        ChainKernel("downup", beta=0.5, k=2, pinned={0, 1}),
    ):
        with pytest.raises(InvalidInputError):
            build_transition_matrix(kernel, g)
