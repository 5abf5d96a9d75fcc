import math
from itertools import combinations

import numpy as np
import pytest

from isinglab import dynamics
from isinglab.dynamics import (
    ChainKernel,
    CoupledKawasaki,
    TransitionMatrix,
    _swap_delta_mono,
    build_transition_matrix,
    downup_step,
    glauber_step,
    kawasaki_step,
    kl_downup_step,
)
from isinglab.errors import InvalidInputError, TooLargeError
from isinglab.graphs import Graph, complete_graph, cycle_graph
from isinglab.measures import (
    EMPTY_PINNING,
    IsingParams,
    Pinning,
    SpinConfiguration,
    exact_partition_table,
    fixed_k_states,
    size_distribution,
)
from isinglab.rng import make_rng


def cfg(g, spins):
    return SpinConfiguration.from_spins(g, spins)


def empirical_law(step_fn, start, n_steps, rng):
    counts = {}
    for _ in range(n_steps):
        out = step_fn(start, rng)
        counts[out.spins] = counts.get(out.spins, 0) + 1
    return counts


def test_glauber_isolated_vertex_unbiased():
    g = Graph(n=1, adjacency=[[]], delta_max=0)
    rng = make_rng(0)
    hits = sum(
        glauber_step(g, IsingParams(1.0, 1.0), cfg(g, [-1]), rng).spins[0] == 1
        for _ in range(20000)
    )
    assert abs(hits / 20000 - 0.5) < 0.02


def test_glauber_all_plus_neighbors_conditional():
    # star center with all neighbors +: P(+) = e^{b d}/(e^{b d}+1)
    g = Graph(n=4, adjacency=[[1, 2, 3], [0], [0], [0]], delta_max=3)
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
    g = Graph(n=2, adjacency=[[0, 0, 1], [0]], delta_max=3)
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


def test_downup_k2_uniformizes():
    g = complete_graph(2)
    tm = build_transition_matrix(ChainKernel("downup", beta=0.7, k=1), g)
    assert np.allclose(tm.P, [[0.5, 0.5], [0.5, 0.5]])


def test_downup_beta0_uniform_candidates():
    g = cycle_graph(5)
    tm = build_transition_matrix(ChainKernel("downup", beta=0.0, k=2), g)
    # removing either plus, the new position is uniform over n-k+1 = 4
    # candidates, so each swap-neighbor gets 1/8 and the diagonal 2 * 1/8.
    states = tm.states
    i = states.index(frozenset({0, 2}))
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
    states, mono = fixed_k_states(g, k)
    w = np.exp(beta * mono)
    w /= w.sum()
    order = [states.index(s) for s in tm.states]
    assert np.max(np.abs(pi_power - tm.pi)) < 1e-10
    assert np.max(np.abs(w[order] - tm.pi)) < 1e-12


def test_pinned_kernels():
    g = cycle_graph(6)
    pin = Pinning.plus([0])
    for kind in ("kawasaki", "downup"):
        tm = build_transition_matrix(
            ChainKernel(kind, beta=0.8, k=3, pinning=pin), g
        )
        assert all(0 in s for s in tm.states)
        assert np.allclose(tm.pi @ tm.P, tm.pi, atol=1e-12)


def test_kl_ell_km1_equals_downup():
    g = complete_graph(4)
    beta, k = 0.9, 2
    tm_kl = build_transition_matrix(ChainKernel("kl_downup", beta=beta, k=k, ell=1), g)
    tm_du = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
    order = [tm_du.states.index(s) for s in tm_kl.states]
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
            kernel = ChainKernel("downup", beta=beta, k=k, pinning=Pinning.plus(pinned))
        else:
            kernel = ChainKernel("kl_downup", beta=beta, k=k, ell=ell)
        tm = build_transition_matrix(kernel, g)
        states, mono = fixed_k_states(g, k, plus_pinned=pinned)
        w = np.exp(beta * (mono - mono.max()))
        pi = w / w.sum()
        idx = {s: i for i, s in enumerate(states)}
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
                entry = tm.P[tm.states.index(s1), tm.states.index(s2)]
                assert abs(q - entry) < 1e-12, (g.n, k, ell, pinned, s1, s2)


def test_kawasaki_matrix_matches_definition():
    """Every entry against min(1, e^{beta dm}) / (k_free (n - k)), with dm
    from the local swap count, and the diagonal holding the rest."""
    beta = 0.9
    # on C66 the bitmasks over 65 and 66 free vertices pass 62 bits
    for g, k, pinnings in ((cycle_graph(5), 3, ((), (1,))), (cycle_graph(6), 3, ((), (1,))),
                           (cycle_graph(66), 2, ((1,),)), (cycle_graph(66), 1, ((),))):
        for pinned in pinnings:
            pin = Pinning.plus(pinned)
            tm = build_transition_matrix(
                ChainKernel("kawasaki", beta=beta, k=k, pinning=pin), g)
            pairs = (k - len(pinned)) * (g.n - k)
            for i, s in enumerate(tm.states):
                spins = [1 if v in s else -1 for v in range(g.n)]
                expected = np.zeros(len(tm.states))
                for u in s - set(pinned):
                    for w in set(range(g.n)) - s:
                        dm = _swap_delta_mono(g, spins, u, w)
                        j = tm.states.index((s - {u}) | {w})
                        expected[j] = min(1.0, math.exp(beta * dm)) / pairs
                expected[i] = 1.0 - expected.sum()
                assert np.max(np.abs(tm.P[i] - expected)) < 1e-14, (g.n, pinned, s)


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
    states, mono = fixed_k_states(g, k)
    w = np.exp(beta * (mono - mono.max()))
    pi = w / w.sum()
    for s, m in zip(states, pi):
        spins = tuple(1 if v in s else -1 for v in range(4))
        assert abs(counts.get(spins, 0) / n - m) < 0.02


def test_kl_step_too_large_without_flag():
    from isinglab.graphs import random_regular

    g = random_regular(30, 3, seed=8, simple=True)
    start = cfg(g, [1] * 15 + [-1] * 15)
    rng = make_rng(9)
    with pytest.raises(TooLargeError):
        kl_downup_step(g, 0.4, 15, 0, start, rng)
    out = kl_downup_step(g, 0.4, 15, 0, start, rng, approximate=True,
                         inner_sweeps=5)
    assert out.plus_count == 15


def test_kernel_comparison_kawasaki_downup():
    """Obs: off-diagonal entries agree within e^{2 beta Delta} (Delta+1)^2."""
    for g, delta in [(complete_graph(4), 3), (cycle_graph(6), 2)]:
        for beta in (0.0, 0.5, 1.2):
            bound = math.exp(2 * beta * delta) * (delta + 1) ** 2
            for k in range(1, g.n):
                kq = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
                dq = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
                order = [dq.states.index(s) for s in kq.states]
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
    perm = [tm_flip.states.index(full - s) for s in tm_k.states]
    assert np.max(np.abs(tm_k.P - tm_flip.P[np.ix_(perm, perm)])) < 1e-14


def test_matrix_cap():
    g = cycle_graph(24)
    with pytest.raises(TooLargeError):
        build_transition_matrix(ChainKernel("glauber", beta=0.1, lam=1.0), g)


def test_nonzero_cap_counts_entries(monkeypatch):
    """C(22, 11) states with 11 x 12 link entries each, and 2^22 Glauber states
    with 23 each, exceed the nonzero cap: refused before enumerating."""
    def no_enumeration(*args, **kwargs):
        raise AssertionError("states enumerated before the size check")

    monkeypatch.setattr(dynamics, "fixed_k_states", no_enumeration)
    with pytest.raises(TooLargeError, match="up to 93117024 nonzeros"):
        build_transition_matrix(ChainKernel("kawasaki", beta=0.5, k=11), cycle_graph(22))
    with pytest.raises(TooLargeError, match="up to 96468992 nonzeros"):
        build_transition_matrix(ChainKernel("glauber", beta=0.5, lam=1.0),
                                cycle_graph(22))


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
    assert tm.K.nnz == 12870 * (1 + 8 * 8)
    assert 0 < spectral_gap(tm) < 1


def test_coupled_sticky_on_diagonal():
    g = complete_graph(4)
    driver = CoupledKawasaki(g, beta=0.8, k=2, plus_pinning=EMPTY_PINNING, phi=1.0)
    state = driver.make_state((0, 1), (0, 1))
    rng = make_rng(5)
    for _ in range(50):
        state = driver.step(state, rng)
        assert state.coalesced()
        assert state.X == state.Y


def test_coupled_marginal_matches_exact_kawasaki_row():
    """One-step law of the X copy equals the exact Kawasaki row (3 sigma)."""
    g = complete_graph(4)
    beta, k = 0.7, 2
    driver = CoupledKawasaki(g, beta=beta, k=k, plus_pinning=EMPTY_PINNING, phi=0.5)
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
    rng = make_rng(6)
    start = driver.make_state((0, 1), (2, 3))
    n = 100_000
    counts = {}
    for _ in range(n):
        out = driver.step(start, rng)
        key = frozenset(out.X)
        counts[key] = counts.get(key, 0) + 1
    row = tm.P[tm.states.index(frozenset({0, 1}))]
    for s, p in zip(tm.states, row):
        observed = counts.get(s, 0) / n
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(observed - p) <= 4 * se + 1e-12, (s, observed, p)


def test_coupled_step_function_wrapper():
    from isinglab.dynamics import coupled_kawasaki_step

    g = complete_graph(4)
    driver = CoupledKawasaki(g, beta=0.6, k=2, plus_pinning=EMPTY_PINNING, phi=0.8)
    st = driver.make_state((0, 1), (2, 3))
    out = coupled_kawasaki_step(g, 0.6, 2, EMPTY_PINNING, st, make_rng(4))
    assert out.phi == st.phi
    assert len(out.X) == len(st.X)
    # same seed through the driver path gives the identical transition
    out2 = driver.step(st, make_rng(4))
    assert out.X == out2.X and out.Y == out2.Y


def test_coupled_rho_zero_iff_equal():
    g = cycle_graph(6)
    driver = CoupledKawasaki(g, beta=0.5, k=2, plus_pinning=EMPTY_PINNING, phi=0.7)
    eq = driver.make_state((0, 3), (0, 3))
    assert eq.rho == 0.0
    neq = driver.make_state((0, 3), (0, 4))
    assert neq.rho > 0.0


def test_coupled_bad_disagreement_definition():
    # path 0-1-2-3: X pluses (0,1), Y pluses (0,2): the disagreeing index
    # sits at vertices {1, 2} and the agreeing plus 0 neighbors 1, so bad.
    g = Graph(n=4, adjacency=[[1], [0, 2], [1, 3], [2]], delta_max=2)
    driver = CoupledKawasaki(g, beta=0.3, k=2, plus_pinning=EMPTY_PINNING, phi=0.4)
    st = driver.make_state((0, 1), (0, 2))
    assert st.D == frozenset({1})
    assert st.B == frozenset({1})
    # disagreement at vertices {3, 2}: neither neighbors the agreeing plus 0.
    st2 = driver.make_state((0, 3), (0, 2))
    assert st2.D == frozenset({1})
    assert st2.B == frozenset()


def test_coupled_incremental_matches_from_scratch():
    """Step's incremental D, B and caches equal make_state's, step by step,
    and its swap probabilities equal those from the whole spin vector."""
    from isinglab.dynamics import _disagreements, _swap_delta_mono
    from isinglab.graphs import random_regular

    # loops at 3 and 13, parallel edges at 0, 9, 14 and 15
    g = random_regular(16, 3, seed=7)
    pinning = Pinning.plus([0, 5])
    driver = CoupledKawasaki(g, beta=0.6, k=8, plus_pinning=pinning, phi=0.5)
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
        for name in ("x_index", "y_index", "agree_nbrs"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), name
        moved.add((len(D), len(B)))
        spins = [1 if v in (0, 5) or v in state.X else -1 for v in range(g.n)]
        minus = [v for v in range(g.n) if spins[v] == -1]
        u, v = state.X[t % 6], minus[t % len(minus)]
        want = min(1.0, math.exp(0.6 * _swap_delta_mono(g, spins, u, v)))
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
    driver = CoupledKawasaki(g, beta=0.5, k=2, plus_pinning=EMPTY_PINNING, phi=0.7)
    a = driver.make_state((0, 3), (0, 4))
    b = driver.make_state((0, 3), (0, 4))
    assert a == b and hash(a) == hash(b)
    assert "x_index" not in repr(a)


def test_coupled_rejects_k_without_a_minus():
    g = cycle_graph(6)
    with pytest.raises(InvalidInputError):
        CoupledKawasaki(g, beta=0.5, k=6, plus_pinning=EMPTY_PINNING, phi=0.5)
    with pytest.raises(InvalidInputError):
        CoupledKawasaki(g, beta=0.5, k=0, plus_pinning=EMPTY_PINNING, phi=0.5)


def test_coupled_contraction_small_k():
    """Mean rho decreases per step for k << n."""
    from isinglab.graphs import random_regular

    g = random_regular(60, 3, seed=1, simple=True)
    beta, k = 0.2, 6
    driver = CoupledKawasaki(g, beta=beta, k=k, plus_pinning=EMPTY_PINNING, phi=0.5)
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


def test_chainkernel_validation():
    with pytest.raises(InvalidInputError):
        ChainKernel("glauber", beta=0.5)
    with pytest.raises(InvalidInputError):
        ChainKernel("kawasaki", beta=0.5)
    with pytest.raises(InvalidInputError):
        ChainKernel("kl_downup", beta=0.5, k=2, ell=2)
    with pytest.raises(InvalidInputError):
        ChainKernel("kawasaki", beta=0.5, k=2, pinning=Pinning({0: -1}))
    g = cycle_graph(6)
    for kernel in (
        ChainKernel("kl_downup", beta=0.5, k=3, ell=1, pinning=Pinning.plus([0])),
        ChainKernel("kawasaki", beta=0.5, k=6),
        ChainKernel("downup", beta=0.5, k=2, pinning=Pinning.plus([0, 1])),
    ):
        with pytest.raises(InvalidInputError):
            build_transition_matrix(kernel, g)
