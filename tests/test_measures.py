import math
import time
from itertools import combinations
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglab.errors import InvalidInputError, TooLargeError
from isinglab.graphs import Graph, disjoint_union, random_regular
from isinglab.measures import (
    EMPTY_PINNING,
    NEG_INF,
    IsingParams,
    PartitionTable,
    SpinConfiguration,
    _frontier_steps,
    _logsumexp,
    cumulants_of_size,
    exact_partition_table,
    fixed_k_states,
    mono_counts,
    monochromatic_edges,
    size_distribution,
)
from conftest import (
    LOOPED,
    complete_graph,
    cumulants_by_t_derivative,
    cycle_graph,
    edge_multiset,
    exact_test_set,
    fixed_mag_prob,
    frontier_steps_scan,
    gibbs_prob,
    gray_code_table,
    log_z,
    plus_sets,
)


def cfg(g, spins):
    return SpinConfiguration.from_spins(g, spins)


def test_mono_edges_k2():
    g = complete_graph(2)
    assert monochromatic_edges(g, [1, 1]) == 1
    assert monochromatic_edges(g, [1, -1]) == 0


def test_mono_edges_k4_hand_count():
    # K4 with spins (+,+,-,-): of the 6 edges only {0,1} and {2,3} agree.
    g = complete_graph(4)
    assert monochromatic_edges(g, [1, 1, -1, -1]) == 2


def test_mono_edges_size_mismatch():
    with pytest.raises(InvalidInputError):
        monochromatic_edges(complete_graph(2), [1])


def test_self_loop_counts_once():
    g = Graph(n=2, edges=((0, 1), (0, 0)), delta_max=3)
    assert monochromatic_edges(g, [1, -1]) == 1
    assert monochromatic_edges(g, [1, 1]) == 2


def test_partition_table_k2_beta0():
    t = exact_partition_table(complete_graph(2), beta=0.0)
    # per-k counts (1, 2, 1)
    assert np.allclose(np.exp(t.log_zhat_by_k), [1, 2, 1])
    assert math.isclose(math.exp(log_z(t, 1.0)), 4.0)


@pytest.mark.parametrize("beta,lam", [(0.3, 1.0), (0.8, 0.7), (1.2, 2.0)])
def test_partition_table_k2_closed_form(beta, lam):
    t = exact_partition_table(complete_graph(2), beta=beta)
    expected = lam**2 * math.exp(beta) + 2 * lam + math.exp(beta)
    assert math.isclose(math.exp(log_z(t, lam)), expected, rel_tol=1e-12)


def test_partition_table_pinned_k2():
    t = exact_partition_table(complete_graph(2), beta=0.9, pinned={0})
    lam = 1.3
    expected = lam**2 * math.exp(0.9) + lam
    assert math.isclose(math.exp(log_z(t, lam)), expected, rel_tol=1e-12)
    # entries below the pinned plus-count are -inf
    assert t.log_zhat_by_k[0] == float("-inf")


def assert_tables_match(got, want, where):
    """Equal -inf entries, and the finite ones equal to 1e-12 relative."""
    assert len(got.log_zhat_by_k) == len(want.log_zhat_by_k), where
    for k, (a, b) in enumerate(zip(got.log_zhat_by_k, want.log_zhat_by_k)):
        assert (a == NEG_INF) == (b == NEG_INF), (where, k, a, b)
        if b != NEG_INF:
            assert math.isclose(a, b, rel_tol=1e-12), (where, k, a, b)


def _pin_sets(n):
    return [
        EMPTY_PINNING,
        frozenset({0}),
        frozenset({1, n - 1, n // 2}),
        frozenset(range(0, n, 2)),
    ]


@pytest.mark.parametrize("beta", [0.0, 0.7, 40.0])
def test_dp_matches_gray_code_on_exact_test_set(beta):
    for name, g in exact_test_set().items():
        for pinned in _pin_sets(g.n):
            assert_tables_match(
                exact_partition_table(g, beta, pinned),
                gray_code_table(g, beta, pinned), (name, pinned),
            )


@pytest.mark.parametrize("beta", [0.0, 0.7, 40.0])
def test_dp_matches_gray_code_on_multigraphs(beta):
    """Configuration-model draws keep their self-loops and parallel edges."""
    loops = parallel = 0
    for seed, (n, delta) in enumerate([(6, 3), (8, 4), (9, 2), (10, 3), (12, 3),
                                       (12, 4), (7, 4), (11, 2)]):
        g = random_regular(n, delta, seed=seed)
        loops += any(u == w for u, w in g.edges)
        parallel += any(c > 1 for (u, w), c in edge_multiset(g).items() if u != w)
        for pinned in _pin_sets(n):
            assert_tables_match(
                exact_partition_table(g, beta, pinned),
                gray_code_table(g, beta, pinned), (n, delta, seed, pinned),
            )
    assert loops and parallel


def test_fixed_k_states_against_per_state_count():
    """Plus-matrix rows in combinations order of the free pluses, each with
    the mono count of its spins, on multigraphs with self-loops and parallel
    edges; and mono_counts over all 2^n plus sets of two such multigraphs."""
    for seed, (n, delta) in enumerate([(6, 3), (8, 4), (7, 4)]):
        g = random_regular(n, delta, seed=seed)
        for k, pinned in ((3, ()), (3, (0, 5)), (2, (1, 4)), (n, ()), (0, ())):
            X, mono = fixed_k_states(g, k, pinned=pinned)
            free = [v for v in range(n) if v not in pinned]
            assert X.dtype == bool and X.shape[1] == n
            states = plus_sets(X)
            assert states == [frozenset(pinned).union(c)
                              for c in combinations(free, k - len(pinned))]
            want = [monochromatic_edges(g, [1 if v in s else -1 for v in range(n)])
                    for s in states]
            assert mono.dtype == float and mono.tolist() == want, (n, k, pinned)
    multigraph = random_regular(8, 4, seed=2)
    assert any(u == w for u, w in multigraph.edges)
    assert any(c > 1 for (u, w), c in edge_multiset(multigraph).items() if u != w)
    for g in (LOOPED, multigraph):
        X = (np.arange(2**g.n)[:, None] >> np.arange(g.n)) & 1 == 1
        want = [monochromatic_edges(g, [1 if x else -1 for x in row]) for row in X]
        mono = mono_counts(g, X)
        assert mono.dtype == float and mono.tolist() == want


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), delta=st.integers(1, 4), seed=st.integers(0, 99),
       beta=st.sampled_from([0.0, 0.7, 3.0]), data=st.data())
def test_pinned_table_is_the_sum_over_pinned_fixed_k_states(n, delta, seed, beta,
                                                           data):
    """One pinned measure: the DP table pinned plus at U is, at every k, the
    log-sum-exp of beta * mono over ``fixed_k_states(g, k, U)``, on
    configuration-model multigraphs with 0-3 pinned vertices."""
    if n * delta % 2:
        n += 1
    g = random_regular(n, delta, seed=seed)
    pinned = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=3)))
    t = exact_partition_table(g, beta, pinned)
    assert t.pinned == pinned
    want = tuple(_logsumexp(beta * fixed_k_states(g, k, pinned)[1])
                 if k >= len(pinned) else NEG_INF for k in range(n + 1))
    assert_tables_match(t, PartitionTable(n=n, beta=beta, pinned=pinned,
                                          log_zhat_by_k=want), (n, delta, pinned))


def test_dp_fully_pinned_graph_is_one_entry():
    g = random_regular(8, 3, seed=4)
    pinned = frozenset(range(8))
    t = exact_partition_table(g, 0.9, pinned)
    assert_tables_match(t, gray_code_table(g, 0.9, pinned), "fully pinned")
    finite = [k for k, v in enumerate(t.log_zhat_by_k) if v != NEG_INF]
    assert finite == [8]
    mono = monochromatic_edges(g, [1] * 8)
    assert mono == len(g.edges)
    assert t.log_zhat_by_k[8] == pytest.approx(0.9 * mono, rel=1e-15)


def test_dp_matches_gray_code_on_cubic_20():
    g = random_regular(20, 3, seed=5, simple=True)
    assert_tables_match(exact_partition_table(g, 0.7), gray_code_table(g, 0.7),
                        "RR20")


def test_frontier_table_cap_refuses_before_allocating():
    # K22 holds every vertex in the frontier: 2^22 x 23 entries
    g = complete_graph(22)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(TooLargeError, match="entry cap"):
            exact_partition_table(g, beta=0.5)
        assert time.perf_counter() - t0 < 1.0
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # a large cubic graph is refused as soon as the greedy order's frontier
    # passes the cap, long before the whole order is built
    g = random_regular(2000, 3, seed=0)
    t0 = time.perf_counter()
    with pytest.raises(TooLargeError, match="entry cap"):
        exact_partition_table(g, beta=0.5)
    assert time.perf_counter() - t0 < 1.0


def _free_multigraph(g, pinned):
    """The free vertices and their free-free edge multiplicities, as
    ``exact_partition_table`` hands them to ``_frontier_steps``."""
    free = [v for v in range(g.n) if v not in pinned]
    mult = {v: {} for v in free}
    for u, w in g.edges:
        if u != w and u not in pinned and w not in pinned:
            mult[u][w] = mult[u].get(w, 0) + 1
            mult[w][u] = mult[w].get(u, 0) + 1
    return free, mult


@pytest.mark.parametrize("g,pinned", [
    *[(cycle_graph(n), ()) for n in (3, 64, 301)],
    *[(random_regular(n, d, seed=seed, simple=True), ())
      for n, d, seed in ((40, 3, 1), (36, 4, 2), (30, 5, 3))],
    (random_regular(30, 4, seed=4), (0, 3, 7)),
    (LOOPED, (1,)),
], ids=["C3", "C64", "C301", "RR40-3", "RR36-4", "RR30-5", "RR30-4-pinned-multi",
        "looped-pinned"])
def test_frontier_order_matches_the_full_rescan(g, pinned):
    """The heap-kept greedy order equals the one that rescans every unplaced
    vertex at each step, step for step (ties to the lowest id), on cycles,
    random regular graphs and pinned multigraphs."""
    free, mult = _free_multigraph(g, frozenset(pinned))
    assert _frontier_steps(free, mult) == frontier_steps_scan(free, mult)


def _log_convolution_power(log_by_k, m):
    """Per-k log weights of the sum of m independent copies of a count whose
    per-k log weights are ``log_by_k``, -inf where no split reaches k."""
    out = [0.0]
    for _ in range(m):
        out = [_logsumexp(out[j] + log_by_k[k - j]
                          for j in range(len(out)) if 0 <= k - j < len(log_by_k))
               for k in range(len(out) + len(log_by_k) - 1)]
    return tuple(out)


@pytest.mark.parametrize("base_n,m,seed", [(14, 2, 1), (10, 3, 2), (12, 4, 3)])
def test_union_table_is_the_convolution_power_of_its_base(base_n, m, seed):
    """Tables of 28 to 48 vertices: copies are independent, so the union's
    table is the m-fold log-convolution of the base's Gray-code table."""
    base = random_regular(base_n, 3, seed=seed)
    want = _log_convolution_power(gray_code_table(base, 0.7).log_zhat_by_k, m)
    union = disjoint_union(base, m)
    assert_tables_match(
        exact_partition_table(union, 0.7),
        PartitionTable(n=union.n, beta=0.7, pinned=EMPTY_PINNING,
                       log_zhat_by_k=want), (base_n, m, seed))


def test_spin_flip_symmetry_of_cubic_24_table():
    g = random_regular(24, 3, seed=3, simple=True)
    z = exact_partition_table(g, beta=0.7).log_zhat_by_k
    for k in range(g.n + 1):
        assert math.isclose(z[k], z[g.n - k], rel_tol=1e-12), k


@pytest.mark.parametrize("pinning", [EMPTY_PINNING, frozenset({0, 3})])
def test_log_weights_by_k(pinning):
    """log Zhat_k + k log lambda by k, -inf where the pinning leaves no state."""
    t = exact_partition_table(cycle_graph(6), 0.7, pinning)
    lam = 1.3
    w = t.log_weights_by_k(lam)
    assert w.shape == (7,)
    for k, (got, v) in enumerate(zip(w, t.log_zhat_by_k)):
        assert got == (NEG_INF if v == NEG_INF else v + k * math.log(lam))
    with pytest.raises(InvalidInputError):
        t.log_weights_by_k(0.0)


def test_size_distribution_k2_beta0():
    t = exact_partition_table(complete_graph(2), beta=0.0)
    assert np.allclose(size_distribution(t, 1.0), [0.25, 0.5, 0.25])


def test_size_distribution_k2_large_beta():
    t = exact_partition_table(complete_graph(2), beta=40.0)
    p = size_distribution(t, 1.0)
    assert np.allclose(p, [0.5, 0.0, 0.5], atol=1e-12)


def test_size_distribution_p3_beta0_binomial():
    # Independent spins at beta=0: X ~ Binomial(3, lam/(1+lam)).
    from scipy.stats import binom

    t = exact_partition_table(cycle_graph(3), beta=0.0)
    lam = 2.0
    p = size_distribution(t, lam)
    assert np.allclose(p, binom.pmf(range(4), 3, lam / (1 + lam)), atol=1e-13)


def test_spin_flip_symmetry_of_table():
    for name, g in exact_test_set().items():
        t = exact_partition_table(g, beta=0.7)
        z = t.log_zhat_by_k
        for k in range(g.n + 1):
            assert math.isclose(z[k], z[g.n - k], rel_tol=1e-12), name


def test_cumulants_binomial_closed_form():
    g = cycle_graph(5)
    lam = 1.7
    t = exact_partition_table(g, beta=0.0)
    res = cumulants_of_size(t, lam, 2)
    q = lam / (1 + lam)
    assert math.isclose(res.kappas[0], g.n * q, rel_tol=1e-12)
    assert math.isclose(res.kappas[1], g.n * q * (1 - q), rel_tol=1e-12)


def test_cumulants_point_mass_flagged():
    g = complete_graph(2)
    t = exact_partition_table(g, beta=0.4, pinned={0, 1})
    res = cumulants_of_size(t, 1.0, 3)
    assert res.degenerate
    assert res.kappas == (2.0, 0.0, 0.0)


def test_cumulants_odd_vanish_at_symmetric_field():
    t = exact_partition_table(cycle_graph(6), beta=0.5)
    res = cumulants_of_size(t, 1.0, 3)
    assert abs(res.kappas[2]) < 1e-10


def test_cumulants_match_t_derivative_route():
    g = cycle_graph(5)
    beta, lam = 0.6, 1.4
    t = exact_partition_table(g, beta)
    exact = cumulants_of_size(t, lam, 3).kappas
    fd = cumulants_by_t_derivative(g, beta, lam, j_max=3)
    for a, b in zip(exact, fd):
        assert math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-5)


def test_gibbs_prob_k2():
    g = complete_graph(2)
    p = gibbs_prob(g, IsingParams(0.0, 1.0), EMPTY_PINNING, cfg(g, [1, -1]))
    assert math.isclose(p, 0.25, rel_tol=1e-14)


def test_fixed_mag_prob_k2_equal_weights():
    g = complete_graph(2)
    for beta in (0.0, 0.7, 2.0):
        for spins in ([1, -1], [-1, 1]):
            assert math.isclose(
                fixed_mag_prob(g, beta, 1, EMPTY_PINNING, cfg(g, spins)), 0.5
            )


def test_fixed_mag_prob_k4_enumeration():
    g = complete_graph(4)
    for beta in (0.0, 0.9):
        for spins in set(
            tuple(s) for s in __import__("itertools").permutations([1, 1, -1, -1])
        ):
            p = fixed_mag_prob(g, beta, 2, EMPTY_PINNING, cfg(g, spins))
            assert math.isclose(p, 1 / 6, rel_tol=1e-12)


def test_fixed_mag_prob_wrong_k():
    g = complete_graph(2)
    with pytest.raises(InvalidInputError):
        fixed_mag_prob(g, 0.5, 2, EMPTY_PINNING, cfg(g, [1, -1]))


def test_pinning_consistency_checked():
    g = complete_graph(2)
    with pytest.raises(InvalidInputError):
        gibbs_prob(g, IsingParams(0.0, 1.0), frozenset({0}), cfg(g, [-1, 1]))


def test_conditioning_identity_all_enumerable():
    """mu-hat(sigma) = mu(sigma) / P(X=k) on every test graph, sigma, k."""
    from itertools import product

    for name, g in exact_test_set().items():
        for beta in (0.0, 0.5, 1.2):
            table = exact_partition_table(g, beta)
            for lam in (0.5, 1.0, 2.0):
                pmf = size_distribution(table, lam)
                params = IsingParams(beta, lam)
                for spins in product((-1, 1), repeat=g.n):
                    sigma = cfg(g, spins)
                    k = sigma.plus_count
                    lhs = fixed_mag_prob(g, beta, k, EMPTY_PINNING, sigma, table=table)
                    rhs = gibbs_prob(g, params, EMPTY_PINNING, sigma, table=table)
                    assert abs(lhs - rhs / pmf[k]) <= 1e-10, (name, beta, lam)
        # only the small graphs in the loop above; keep runtime modest
        if g.n > 8:
            continue


def test_lambda_invariance_of_fixed_mag():
    g = cycle_graph(5)
    beta, k = 0.8, 2
    t = exact_partition_table(g, beta)
    sigma = cfg(g, [1, 1, -1, -1, -1])
    # fixed_mag_prob never sees lambda; identity via conditioning at two lambdas
    for lam in (0.5, 3.0):
        pmf = size_distribution(t, lam)
        params = IsingParams(beta, lam)
        ratio = gibbs_prob(g, params, EMPTY_PINNING, sigma, table=t) / pmf[k]
        assert math.isclose(
            ratio, fixed_mag_prob(g, beta, k, EMPTY_PINNING, sigma, table=t),
            rel_tol=1e-12,
        )


def test_variance_positive_with_unpinned_vertex():
    for lam in (0.25, 1.0, 4.0):
        for name, g in list(exact_test_set().items())[:6]:
            t = exact_partition_table(g, beta=0.6)
            assert cumulants_of_size(t, lam, 2).kappas[1] > 0, (name, lam)


def test_mean_strictly_increasing_in_lambda():
    g = cycle_graph(6)
    t = exact_partition_table(g, beta=0.9)
    lams = [0.3, 0.7, 1.0, 1.5, 2.5]
    means = [cumulants_of_size(t, lam, 1).kappas[0] for lam in lams]
    assert all(a < b for a, b in zip(means, means[1:]))


@settings(max_examples=20, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=2.0),
    lam=st.floats(min_value=0.3, max_value=3.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_conditioning_identity_property(beta, lam, seed):
    g = random_regular(8, 3, seed=seed)
    table = exact_partition_table(g, beta)
    pmf = size_distribution(table, lam)
    rng = np.random.default_rng(seed)
    spins = rng.choice([-1, 1], size=8)
    sigma = cfg(g, spins)
    lhs = fixed_mag_prob(g, beta, sigma.plus_count, EMPTY_PINNING, sigma, table=table)
    rhs = gibbs_prob(g, IsingParams(beta, lam), EMPTY_PINNING, sigma, table=table)
    assert abs(lhs - rhs / pmf[sigma.plus_count]) <= 1e-10
