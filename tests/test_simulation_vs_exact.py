"""Cross-validation: seeded step functions and fast trace loops against the
exact kernels and stationary measures they are supposed to realize."""

import numpy as np
from scipy.stats import chi2

from isinglab.dynamics import (
    ChainKernel,
    build_transition_matrix,
    downup_step,
    glauber_step,
    kawasaki_step,
)
from isinglab.graphs import Graph
from isinglab.measures import (
    EMPTY_PINNING,
    IsingParams,
    SpinConfiguration,
    fixed_k_states,
)
from isinglab.metastability import trace_rows_glauber, trace_rows_kawasaki
from isinglab.rng import make_rng

from conftest import complete_graph, cycle_graph, num_edges, plus_sets


def chi_square_ok(counts, probs, n, alpha=0.01):
    stat = 0.0
    dof = -1
    for key, p in probs.items():
        if p <= 1e-12:
            continue
        exp = p * n
        stat += (counts.get(key, 0) - exp) ** 2 / exp
        dof += 1
    return stat <= chi2.ppf(1 - alpha, dof), stat, dof


def state_of(sigma):
    return frozenset(v for v, s in enumerate(sigma.spins) if s == 1)


def one_step_law_vs_matrix(step_fn, start, tm, n_samples, rng):
    counts = {}
    for _ in range(n_samples):
        out = step_fn(start, rng)
        counts[state_of(out)] = counts.get(state_of(out), 0) + 1
    states = plus_sets(tm.states)
    row = tm.P[states.index(state_of(start))]
    probs = {s: p for s, p in zip(states, row)}
    return chi_square_ok(counts, probs, n_samples)


def test_glauber_step_matches_matrix_row():
    g = cycle_graph(5)
    beta, lam = 0.8, 1.3
    tm = build_transition_matrix(ChainKernel("glauber", beta=beta, lam=lam), g)
    start = SpinConfiguration.from_spins(g, [1, -1, 1, -1, -1])

    ok, stat, dof = one_step_law_vs_matrix(
        lambda s, r: glauber_step(g, IsingParams(beta, lam), s, r),
        start, tm, 60_000, make_rng(21),
    )
    assert ok, (stat, dof)


def test_kawasaki_step_matches_matrix_row():
    g = cycle_graph(6)
    beta, k = 0.9, 3
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
    start = SpinConfiguration.from_spins(g, [1, 1, 1, -1, -1, -1])

    ok, stat, dof = one_step_law_vs_matrix(
        lambda s, r: kawasaki_step(g, beta, k, EMPTY_PINNING, s, r),
        start, tm, 60_000, make_rng(22),
    )
    assert ok, (stat, dof)


def test_downup_step_matches_matrix_row_pinned():
    g = cycle_graph(6)
    beta, k = 0.7, 3
    pin = frozenset({0})
    tm = build_transition_matrix(
        ChainKernel("downup", beta=beta, k=k, pinned=pin), g
    )
    start = SpinConfiguration.from_spins(g, [1, 1, -1, -1, 1, -1])

    ok, stat, dof = one_step_law_vs_matrix(
        lambda s, r: downup_step(g, beta, k, pin, s, r),
        start, tm, 60_000, make_rng(23),
    )
    assert ok, (stat, dof)


def test_kawasaki_step_pinned_matches_matrix_row():
    g = complete_graph(4)
    beta, k = 1.1, 2
    pin = frozenset({1})
    tm = build_transition_matrix(
        ChainKernel("kawasaki", beta=beta, k=k, pinned=pin), g
    )
    start = SpinConfiguration.from_spins(g, [1, 1, -1, -1])

    ok, stat, dof = one_step_law_vs_matrix(
        lambda s, r: kawasaki_step(g, beta, k, pin, s, r),
        start, tm, 40_000, make_rng(24),
    )
    assert ok, (stat, dof)


def test_glauber_trace_loop_occupancy_matches_pi():
    """The fast trace loop realizes the exact stationary size distribution."""
    g = cycle_graph(5)
    beta, lam = 0.6, 1.4
    tm = build_transition_matrix(ChainKernel("glauber", beta=beta, lam=lam), g)
    pi_by_k = {}
    for row, p in zip(tm.states, tm.pi):
        k = int(row.sum())
        pi_by_k[k] = pi_by_k.get(k, 0.0) + p
    rows = list(trace_rows_glauber(g, beta, lam, "all_minus", T=400_000, seed=31))
    counts = {}
    burn = len(rows) // 5
    for _, plus, _, _ in rows[burn:]:
        counts[plus] = counts.get(plus, 0) + 1
    total = sum(counts.values())
    for k, p in pi_by_k.items():
        # correlated samples: tolerance well above iid error but tight enough
        # to catch a wrong conditional
        assert abs(counts.get(k, 0) / total - p) < 0.01, (k, counts, pi_by_k)


def test_glauber_trace_loop_mono_matches_pi():
    g = complete_graph(4)
    beta, lam = 0.5, 0.8
    tm = build_transition_matrix(ChainKernel("glauber", beta=beta, lam=lam), g)
    mean_mono_exact = 0.0
    for row, p in zip(tm.states, tm.pi):
        spins = [1 if b else -1 for b in row]
        m = sum(1 for u, w in g.edges if spins[u] == spins[w])
        mean_mono_exact += p * m
    rows = list(trace_rows_glauber(g, beta, lam, "all_plus", T=400_000, seed=32))
    burn = len(rows) // 5
    mean_mono = np.mean([r[2] for r in rows[burn:]])
    assert abs(mean_mono - mean_mono_exact) < 0.03


def test_kawasaki_trace_loop_occupancy_matches_mu_hat():
    """Fast swap loop with incremental bookkeeping realizes mu-hat."""
    g = cycle_graph(6)
    beta, k = 1.0, 3
    states, mono = fixed_k_states(g, k)
    w = np.exp(beta * (mono - mono.max()))
    pi = w / w.sum()
    mean_mono_exact = float(pi @ mono)
    rows = list(trace_rows_kawasaki(g, beta, k, "band_sample", T=400_000, seed=33))
    burn = len(rows) // 5
    mean_mono = np.mean([r[2] for r in rows[burn:]])
    assert abs(mean_mono - mean_mono_exact) < 0.03


def test_trace_loops_handle_multigraph_defects():
    """Loops and parallel edges: trace bookkeeping stays consistent."""
    # vertex 0: self-loop; vertices 1-2: doubled edge; 3 hangs off 2
    g = Graph(n=4, edges=((0, 1), (0, 0), (1, 2), (1, 2), (2, 3)), delta_max=3)
    rows = list(trace_rows_glauber(g, 0.7, 1.2, "all_minus", T=5000, seed=34))
    rows2 = list(trace_rows_glauber(g, 0.7, 1.2, "all_minus", T=5000, seed=34))
    assert rows == rows2
    # energy bounds: mono between 0 and total edges, loop always mono
    n_edges = num_edges(g)
    for _, p, m, _ in rows:
        assert 1 <= m <= n_edges  # the self-loop forces m >= 1
        assert 0 <= p <= 4

    rows_k = trace_rows_kawasaki(g, 0.5, 2, "band_sample", T=5000, seed=35)
    for _, p, m, _ in rows_k:
        assert p == 2
        assert 1 <= m <= n_edges


def test_kawasaki_trace_exact_mono_on_multigraph():
    """Incremental mono bookkeeping equals a recount at every step, with
    and without a pinning; pinned vertices never move."""
    g = Graph(n=4, edges=((0, 1), (0, 0), (1, 2), (1, 2), (2, 3)), delta_max=3)
    from isinglab.measures import monochromatic_edges

    rng = make_rng(36)
    for pin, spins in ((EMPTY_PINNING, [1, 1, -1, -1]),
                       (frozenset({0}), [1, 1, -1, -1]),
                       (frozenset({1, 3}), [-1, 1, 1, 1])):
        sigma = SpinConfiguration.from_spins(g, spins)
        for _ in range(200):
            sigma = kawasaki_step(g, 0.8, spins.count(1), pin, sigma, rng)
            assert sigma.mono_edges == monochromatic_edges(g, sigma.spins)
            assert all(sigma.spins[v] == 1 for v in pin)
