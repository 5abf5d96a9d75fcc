import math
from itertools import combinations

import numpy as np
import pytest

from isinglab.dynamics import (
    ChainKernel,
    build_transition_matrix,
    pinned_downup_matrices,
)
from isinglab.errors import DegenerateError, InvalidInputError, NonReversibleError
from isinglab.graphs import disjoint_union, random_regular
from isinglab.measures import (
    EMPTY_PINNING,
    cumulants_of_size,
    exact_partition_table,
)
from isinglab.spectral import (
    TransitionMatrix,
    characteristic_bound_probe,
    dirichlet_quotient,
    edgeworth_pmf,
    fixed_mag_distribution,
    gap_factorization_check,
    grand_canonical_distribution,
    influence_matrix,
    lclt_error,
    local_expansion_zetas,
    local_to_global_gap_bound,
    local_walk,
    mixing_time_upper,
    spectral_gap,
    stability_probe,
)
from isinglab.rng import make_rng

from conftest import (
    LOOPED,
    complete_graph,
    cycle_graph,
    exact_mixing_time,
    exact_test_set,
    grand_canonical_loop,
    influence_loop,
    local_walk_loop,
    pinned_gap_inf_loop,
    plus_sets,
)


def swap_chain():
    return TransitionMatrix(
        states=(0, 1),
        K=np.array([[0.0, 1.0], [1.0, 0.0]]),
        pi=np.array([0.5, 0.5]),
    )


def test_gap_swap_chain_is_two():
    assert math.isclose(spectral_gap(swap_chain()), 2.0)


def test_gap_k3_kawasaki():
    # uniform swap on 3 states: eigenvalues {1, -1/2, -1/2}, gap 3/2
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.7, k=1), complete_graph(3))
    assert math.isclose(spectral_gap(tm), 1.5, abs_tol=1e-12)


def test_gap_below_all_dirichlet_quotients():
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.9, k=2), cycle_graph(5))
    gap = spectral_gap(tm)
    # 50 draws on a stream apart from the solver's start vector (stream 0 of 0)
    rng = make_rng(0, 1)
    for _ in range(50):
        q = dirichlet_quotient(tm, rng.normal(size=len(tm.pi)))
        assert q is None or gap <= q + 1e-8
    rng = make_rng(3)
    for _ in range(20):
        q = dirichlet_quotient(tm, rng.normal(size=len(tm.pi)))
        assert gap <= q + 1e-8


def test_gap_rejects_nonreversible():
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    pi = np.array([1 / 3] * 3)
    with pytest.raises(NonReversibleError):
        spectral_gap(TransitionMatrix(states=(0, 1, 2), K=P, pi=pi))
    # symmetric nonzero pattern, but pi is not the reversing measure
    P = np.array([[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]])
    with pytest.raises(NonReversibleError):
        TransitionMatrix(states=(0, 1, 2), K=P, pi=np.array([0.5, 0.25, 0.25]))
    with pytest.raises(NonReversibleError, match="rows sum"):
        TransitionMatrix(states=(0, 1, 2), K=0.9 * P, pi=pi)


def _dense_gap(tm):
    """1 - lambda_2 by dense eigvalsh of the symmetrized dense view."""
    sq = np.sqrt(tm.pi)
    A = (sq[:, None] / sq[None, :]) * tm.P
    return 1.0 - np.linalg.eigvalsh(0.5 * (A + A.T))[-2]


@pytest.mark.parametrize("kernel,g", [
    (ChainKernel("glauber", beta=0.9, lam=0.8), random_regular(10, 3, seed=7)),
    (ChainKernel("kawasaki", beta=0.5, k=6), random_regular(12, 3, seed=3)),
    (ChainKernel("kawasaki", beta=0.4, k=6), random_regular(13, 4, seed=1)),
    (ChainKernel("downup", beta=0.8, k=6, pinned={0, 3}),
     random_regular(14, 3, seed=2)),
    (ChainKernel("kl_downup", beta=0.5, k=5, ell=3), random_regular(11, 4, seed=3)),
    (ChainKernel("kawasaki", beta=0.9, k=1), complete_graph(2)),
    (ChainKernel("kawasaki", beta=1.0, k=6), disjoint_union(cycle_graph(6), 2)),
], ids=["glauber-1024", "kawasaki-924", "kawasaki-1716", "downup-pinned-495",
        "kl-462", "k2-two-states", "union-2xC6-924"])
def test_lanczos_gap_matches_dense_eigvalsh(kernel, g):
    tm = build_transition_matrix(kernel, g)
    gap, want = spectral_gap(tm), _dense_gap(tm)
    assert abs(gap - want) <= 1e-12 * want, (len(tm.states), gap, want)


def _dense_second_eigenvalue(K, sq):
    """lambda_2 of S = D^{1/2} K D^{-1/2} symmetrized, D^{1/2} = diag(sq), to
    about an eps: dense eigvalsh places it (off by up to 40 eps at a few
    thousand states), and the Rayleigh quotient of one inverse iteration
    step shifted there gives its value.  Holds at most two dense copies of K."""
    S = K.toarray()
    S *= sq[:, None]
    S /= sq
    S += S.T
    S *= 0.5
    diagonal = np.diagonal(S).copy()
    S.flat[::len(S) + 1] -= np.linalg.eigvalsh(S)[-2]
    x = np.linalg.solve(S, make_rng(0, 1).random(len(S)))
    S.flat[::len(S) + 1] = diagonal
    return x @ (S @ x) / (x @ x)


def _agree(got, want):
    """|got - want| within 1e-12 of the gap, or 8 eps where that is more:
    both values round S's entries and products, so they differ by a few eps
    (|S| = 1; up to 5 eps on the cases below), more than 1e-12 of gaps
    below about 1e-3."""
    return abs(got - want) <= max(1e-12 * (1.0 - want), 8 * np.finfo(float).eps)


@pytest.mark.parametrize("kernel,g", [
    (ChainKernel("glauber", beta=2.0, lam=1.0), random_regular(10, 3, seed=1)),
    (ChainKernel("glauber", beta=0.8, lam=1.05), random_regular(12, 3, seed=1)),
    *[(ChainKernel("kawasaki", beta=beta, k=6), random_regular(12, 3, seed=4))
      for beta in (0.3, 1.0, 2.0, 3.0)],
    *[(ChainKernel("kawasaki", beta=beta, k=6), random_regular(13, 4, seed=2))
      for beta in (1.0, 3.0)],
    (ChainKernel("kawasaki", beta=2.0, k=7), random_regular(14, 3, seed=3)),
    (ChainKernel("kl_downup", beta=0.7, k=6, ell=0), random_regular(12, 3, seed=5)),
    (ChainKernel("kl_downup", beta=2.0, k=5, ell=0), random_regular(11, 4, seed=1)),
], ids=["glauber-1024-b2", "glauber-4096", "kawasaki-924-b0.3", "kawasaki-924-b1",
        "kawasaki-924-b2", "kawasaki-924-b3", "kawasaki-1716-b1", "kawasaki-1716-b3",
        "kawasaki-3432-b2", "kl-ell0-924", "kl-ell0-462-b2"])
def test_lanczos_matches_dense_across_temperatures(kernel, g):
    """The Lanczos solve against the dense reference from high to low
    temperature, where gaps fall to 1e-6, and on the rank-1 l = 0 down-up
    kernels, which vanish on u's complement (lambda_2 = 0)."""
    from isinglab import spectral

    tm = build_transition_matrix(kernel, g)
    assert len(tm.states) > spectral.DENSE_EIGEN_STATES
    sq = np.sqrt(tm.pi)
    got = spectral._lanczos_second_eigenvalue(tm.K, sq)
    want = _dense_second_eigenvalue(tm.K, sq)
    assert _agree(got, want), (len(sq), got, want)


@pytest.mark.parametrize("k", [6, 8], ids=["on-links-330", "on-K-330"])
def test_lanczos_on_pinned_blocks_matches_dense(k):
    """The factorization check's pinned blocks over 200 states, at l = 1 on
    12 vertices: at k = 6 each block is solved on its 330 links (fewer than
    its 462 states), at k = 8 on its 330 states (fewer than its 462 links)."""
    from isinglab import spectral

    (_, tm), = pinned_downup_matrices(random_regular(12, 3, seed=5), 0.7, k, 1)
    block = len(tm.states) // 12
    got = spectral._second_eigenvalues(tm, block)
    for b, lo in enumerate(range(0, len(tm.states), block)):
        part = slice(lo, lo + block)
        assert _agree(got[b], _dense_second_eigenvalue(tm.K[part, part],
                                                       np.sqrt(tm.pi[part]))), b


def test_lanczos_solve_repeats_bit_for_bit():
    from isinglab import spectral

    tm = build_transition_matrix(ChainKernel("kawasaki", beta=2.0, k=6),
                                 random_regular(12, 3, seed=4))
    sq = np.sqrt(tm.pi)
    first = spectral._lanczos_second_eigenvalue(tm.K, sq)
    assert spectral._lanczos_second_eigenvalue(tm.K, sq) == first


def test_lanczos_solve_that_does_not_converge_is_degenerate():
    """The directed 300-cycle is not reversible, so the symmetric solve never
    meets its residual bound and stops after 10 products a state."""
    from scipy.sparse import csr_array

    from isinglab import spectral

    n = 300
    K = csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
    with pytest.raises(DegenerateError, match="did not converge"):
        spectral._lanczos_second_eigenvalue(K, np.ones(n))


@pytest.mark.parametrize("kernel,g,states", [
    (ChainKernel("kawasaki", beta=0.6, k=4), random_regular(9, 4, seed=1), 126),
    (ChainKernel("kawasaki", beta=0.6, k=1), random_regular(200, 3, seed=1), 200),
    (ChainKernel("kawasaki", beta=0.6, k=4), random_regular(10, 3, seed=2), 210),
    (ChainKernel("downup", beta=0.6, k=5), random_regular(10, 3, seed=2), 252),
])
def test_dense_and_lanczos_split(monkeypatch, kernel, g, states):
    """Up to 200 states the gap comes from one dense eigvalsh, above it from
    one Lanczos solve; both equal the dense view's.  The down-up walk is
    solved on its C(10, 4) = 210 links, fewer than its states."""
    from isinglab import spectral

    solves = []

    def lanczos(K, sq):
        solves.append(len(sq))
        return real(K, sq)

    real = spectral._lanczos_second_eigenvalue
    monkeypatch.setattr(spectral, "_lanczos_second_eigenvalue", lanczos)
    tm = build_transition_matrix(kernel, g)
    assert len(tm.states) == states
    gap = spectral_gap(tm)
    assert "P" not in vars(tm)  # the dense solve fills no cached dense view
    want = _dense_gap(tm)
    assert abs(gap - want) <= 1e-12 * want, (states, gap, want)
    side = 210 if kernel.kind == "downup" else states
    assert solves == ([] if side <= 200 else [side])


def _downup_cases():
    """(label, kernel, states and links per block) for the down-up kernels:
    the (k, l) walk at every l (0 included) and the +1 walk, plain and
    pinned, on the exact test set up to 10 vertices, with the pinned blocks
    at l = 1, 2; and on 12 vertices walks with 220 to 792 links a block."""
    graphs = {name: g for name, g in exact_test_set().items() if g.n <= 10}
    for name, g in graphs.items():
        n = g.n
        for k in range(1, n):
            for ell in range(k):
                yield ((name, "kl", k, ell), build_transition_matrix(
                    ChainKernel("kl_downup", beta=0.7, k=k, ell=ell), g),
                    math.comb(n, k), math.comb(n, ell))
            if k >= 3:
                kernel = ChainKernel("downup", beta=0.7, k=k,
                                     pinned={0, n - 1})
                yield ((name, "pinned", k), build_transition_matrix(kernel, g),
                       math.comb(n - 2, k - 2), math.comb(n - 2, k - 3))
            for ell in (1, 2):
                if ell < k:
                    for _, tm in pinned_downup_matrices(g, 0.7, k, ell):
                        yield ((name, "blocks", k, ell), tm, math.comb(n - ell, k - ell),
                               math.comb(n - ell, k - ell - 1))
    g = random_regular(12, 3, seed=5)
    for ell in (3, 5):
        yield (("RR12", "kl", 6, ell),
               build_transition_matrix(ChainKernel("kl_downup", beta=0.7, k=6, ell=ell), g),
               924, math.comb(12, ell))
    (_, tm), = pinned_downup_matrices(g, 0.7, 6, 1)
    yield ("RR12", "blocks", 6, 1), tm, 462, 330


def test_link_side_gap_matches_dense_gap():
    """A factored kernel with 2 <= links < states a block is solved on its
    links, dense up to 200 links and by Lanczos above, and forms no K; with
    one link (l = 0) or at least as many links as states it is solved on K.
    Each block's lambda_2 equals the dense gap of its formed K to 1e-12."""
    from isinglab import spectral

    sides = set()
    for label, tm, block, links in _downup_cases():
        assert tm.factors[0].shape[1] * block == links * len(tm.states), label
        got = 1.0 - spectral._second_eigenvalues(tm, block)
        on_links = 2 <= links < block
        assert ("K" in vars(tm)) != on_links, label
        sides.add((on_links, (links if on_links else block) > 200))
        for b, lo in enumerate(range(0, len(tm.states), block)):
            part = slice(lo, lo + block)
            want = _dense_gap(TransitionMatrix(states=tm.states[part],
                                               K=tm.K[part, part], pi=tm.pi[part]))
            assert abs(got[b] - want) <= 1e-12 * want, (label, b, got[b], want)
    assert sides == {(True, False), (True, True), (False, False), (False, True)}


def test_gap_only_paths_form_no_kernel(monkeypatch, tmp_path):
    """The kl gap report and the factorization check (the full, pinned and
    (k, l) walks, each with fewer links than states) solve on the links and
    never form a down-up K."""
    from isinglab.cli import main

    def formed(self):
        raise AssertionError("a down-up K was formed")

    monkeypatch.setattr(TransitionMatrix, "K", property(formed))
    assert main(["spectra", "--report", "gap", "--chain", "kl_downup", "--n", "11",
                 "--delta", "4", "--beta", "0.5", "--k", "5", "--ell", "3",
                 "--out", str(tmp_path)]) == 0
    rep = gap_factorization_check(random_regular(9, 4, seed=1), 0.5, 4, 1)
    assert rep.satisfied and rep.full_kernel.factors is not None


@pytest.mark.parametrize("k,n", [(3, 6), (4, 9)], ids=["2x20-dense", "2x126-lanczos"])
def test_reducible_kernel_has_gap_zero(k, n):
    """Two copies of a chain side by side: lambda_2 = 1, on either path."""
    from scipy.sparse import block_diag

    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.6, k=k),
                                 random_regular(n, 4, seed=0))
    size = len(tm.states)
    both = TransitionMatrix(states=tuple(range(2 * size)), K=block_diag([tm.K, tm.K]),
                            pi=np.concatenate([tm.pi, tm.pi]) / 2)
    assert abs(spectral_gap(both)) <= 1e-12


def test_two_state_gap_is_two_minus_trace():
    """The dense solve gives a two-state chain lambda_2 = trace K - 1."""
    K = np.array([[0.7, 0.3], [0.6, 0.4]])
    tm = TransitionMatrix(states=(0, 1), K=K, pi=np.array([2 / 3, 1 / 3]))
    assert abs(spectral_gap(tm) - (2.0 - np.trace(K))) <= 1e-15


def test_gap_of_one_state_chain_is_degenerate():
    tm = build_transition_matrix(ChainKernel("downup", beta=0.5, k=3), complete_graph(3))
    assert len(tm.states) == 1
    with pytest.raises(DegenerateError):
        spectral_gap(tm)


def test_swap_chain_periodic_vs_lazy():
    tm = swap_chain()
    with pytest.raises(DegenerateError):
        exact_mixing_time(tm, lazy=False, max_steps=500)
    assert exact_mixing_time(tm, lazy=True) == 1


def test_mixing_bound_uniform_chain():
    N = 7
    tm = TransitionMatrix(
        states=tuple(range(N)), K=np.full((N, N), 1 / N), pi=np.full(N, 1 / N)
    )
    assert exact_mixing_time(tm, lazy=False) == 1
    assert math.isclose(mixing_time_upper(tm), math.log(4 * N))
    assert math.isclose(mixing_time_upper(tm, gap=0.5), 2 * math.log(4 * N))


def test_exact_mixing_below_spectral_bound():
    g = complete_graph(4)
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.8, k=2), g)
    lazy = TransitionMatrix(
        states=tm.states, K=0.5 * (np.eye(len(tm.states)) + tm.P), pi=tm.pi,
    )
    assert exact_mixing_time(tm, lazy=True) <= mixing_time_upper(lazy)


def test_gap_comparison_from_measured_kernel_ratios():
    """alpha1 gap(P1) <= gap(P2) <= alpha2 gap(P1) with measured alphas."""
    g = cycle_graph(5)
    for beta in (0.0, 0.6, 1.1):
        for k in (2, 3):
            du = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
            kw = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
            du_states = plus_sets(du.states)
            order = [du_states.index(s) for s in plus_sets(kw.states)]
            Pd = du.P[np.ix_(order, order)]
            off = ~np.eye(len(kw.states), dtype=bool)
            mask = off & ((kw.P > 0) | (Pd > 0))
            ratios = kw.P[mask] / Pd[mask]
            a1, a2 = ratios.min(), ratios.max()
            gd = spectral_gap(du)
            gk = spectral_gap(kw)
            assert a1 * gd <= gk + 1e-12
            assert gk <= a2 * gd + 1e-12


def test_influence_beta0_independent():
    g = cycle_graph(4)
    lam = 1.7
    X, probs = grand_canonical_distribution(g, 0.0, lam)
    infl = influence_matrix(X, probs)
    off = infl.M - np.diag(np.diag(infl.M))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.diag(infl.M), 1 - lam / (1 + lam))


@pytest.mark.parametrize("beta", [0.0, 0.8, 40.0])
def test_grand_canonical_matches_per_state_loop(beta):
    """Listed size by size, the grand-canonical distribution has the per-state
    loop's labels in its order and bit-equal probabilities, on the exact test
    set and on multigraphs with self-loops and parallel edges."""
    graphs = {**exact_test_set(), "looped": LOOPED,
              "RR12 multigraph": random_regular(12, 4, seed=3)}
    for name, g in graphs.items():
        X, probs = grand_canonical_distribution(g, beta, 1.3)
        want_states, want_probs = grand_canonical_loop(g, beta, 1.3)
        assert plus_sets(X) == want_states, name
        assert np.array_equal(probs, want_probs), name


@pytest.mark.parametrize("beta", [0.0, 0.8, 40.0])
def test_influence_and_local_walks_match_state_loop(beta):
    """From the plus matrix, the grand-canonical and fixed-k influence
    matrices and every local walk are bit-equal to the frozenset loop's, on
    the exact test set and on a multigraph with self-loops and parallel
    edges."""
    for name, g in {**exact_test_set(), "looped": LOOPED}.items():
        X, probs = grand_canonical_distribution(g, beta, 1.3)
        assert np.array_equal(influence_matrix(X, probs).M,
                              influence_loop(plus_sets(X), probs, range(g.n))), name
        for k in sorted({2, g.n // 2}):
            X, probs = fixed_mag_distribution(g, beta, k)
            states = plus_sets(X)
            assert np.array_equal(influence_matrix(X, probs).M,
                                  influence_loop(states, probs, range(g.n))), (name, k)
            for m in range(k - 1):
                for u in combinations(range(g.n), m):
                    lw = local_walk(X, probs, u, k)
                    support, Q = local_walk_loop(states, probs, u, k)
                    assert lw.vertices == support, (name, k, u)
                    assert np.array_equal(lw.Q, Q), (name, k, u)


def test_influence_uniform_fixed_k():
    # uniform over C(4, 2): off-diagonal (k-1)/(n-1) - k/n = -1/6, diag 1/2
    g = complete_graph(4)
    X, probs = fixed_mag_distribution(g, 0.0, 2)
    infl = influence_matrix(X, probs)
    assert np.allclose(infl.M, np.full((4, 4), -1 / 6) + np.eye(4) * (0.5 + 1 / 6))
    eigs = sorted(np.linalg.eigvalsh(infl.M))
    assert np.allclose(eigs, [0.0, 2 / 3, 2 / 3, 2 / 3], atol=1e-12)
    assert math.isclose(infl.top_eigenvalue, 2 / 3, abs_tol=1e-12)


def test_influence_fkg_nonnegative():
    g = cycle_graph(5)
    for lam in (0.7, 1.0, 1.5):
        X, probs = grand_canonical_distribution(g, 0.8, lam)
        infl = influence_matrix(X, probs)
        assert infl.M.min() >= -1e-12
        assert not infl.has_complex_pair


def test_influence_linf_trend_bounded():
    """ell_inf norms of the canonical influence matrix stay bounded in n."""
    from isinglab.graphs import random_regular

    norms = []
    for n in (8, 12, 16, 20):
        g = random_regular(n, 3, seed=1, simple=True)
        X, probs = fixed_mag_distribution(g, 0.3, n // 4)
        infl = influence_matrix(X, probs)
        norms.append(infl.linf_norm)
    assert max(norms) <= norms[0] * 1.25 + 0.1


def test_local_walk_uniform_complete():
    g = complete_graph(4)
    X, probs = fixed_mag_distribution(g, 0.0, 2)
    lw = local_walk(X, probs, (), 2)
    assert np.allclose(lw.Q, (np.ones((4, 4)) - np.eye(4)) / 3)
    assert math.isclose(lw.second_eigenvalue, -1 / 3, abs_tol=1e-12)


def test_local_walk_refuses_pinned_outside_columns():
    """A pinned vertex that is not a column of X, such as -1, is refused
    rather than read as the last column."""
    X, probs = fixed_mag_distribution(complete_graph(5), 0.5, 3)
    for pinned in ((-1,), (5,)):
        with pytest.raises(InvalidInputError, match="columns of X"):
            local_walk(X, probs, pinned, 3)


def test_influence_bound_equality_at_uniform():
    g = complete_graph(4)
    X, probs = fixed_mag_distribution(g, 0.0, 2)
    infl = influence_matrix(X, probs)
    lw = local_walk(X, probs, (), 2)
    bound = (infl.top_eigenvalue - 1) / (2 - 0 - 1)
    assert math.isclose(lw.second_eigenvalue, bound, abs_tol=1e-12)  # both -1/3


def test_influence_bound_all_small_instances():
    for g, k in [(complete_graph(4), 2), (cycle_graph(5), 2), (cycle_graph(6), 3)]:
        for beta in (0.0, 0.5, 1.0):
            X, probs = fixed_mag_distribution(g, beta, k)
            for m in range(k - 1):
                for u in combinations(range(g.n), m):
                    lw = local_walk(X, probs, u, k)
                    keep = X[:, list(u)].all(axis=1)
                    sp = probs[keep] / probs[keep].sum()
                    infl = influence_matrix(X[keep], sp)
                    bound = (infl.top_eigenvalue - 1) / (k - m - 1)
                    assert lw.second_eigenvalue <= bound + 1e-10


def test_beta_to_zero_matches_uniform():
    g = complete_graph(4)
    X0, p0 = fixed_mag_distribution(g, 1e-12, 2)
    lw = local_walk(X0, p0, (), 2)
    assert abs(lw.second_eigenvalue + 1 / 3) < 1e-9


def test_local_to_global_trivial_cases():
    res = local_to_global_gap_bound([0.0, 0.0], ell=1)
    assert math.isclose(res.bound, 2 / 3)  # (k - ell)/k with k = 3
    assert local_to_global_gap_bound([0.3, 0.2], ell=0).bound == 1.0
    collapsed = local_to_global_gap_bound([1.0, 0.0], ell=1)
    assert collapsed.collapsed
    assert collapsed.bound == 0.0


def test_gamma_products_start_at_one_and_decrease_for_nonneg_zetas():
    res = local_to_global_gap_bound([0.3, 0.1, 0.0, 0.25], ell=2)
    assert res.gammas[0] == 1.0
    assert all(a >= b for a, b in zip(res.gammas, res.gammas[1:]))
    # negative zetas can make Gamma grow; bound still well-defined
    res2 = local_to_global_gap_bound([-0.4, 0.2], ell=1)
    assert res2.gammas[1] > 1.0


def test_local_to_global_bound_holds_exactly():
    for g, ks in [(complete_graph(4), (2,)), (cycle_graph(6), (3,))]:
        for beta in (0.0, 0.3, 1.0):
            for k in ks:
                zetas = local_expansion_zetas(g, beta, k)
                for ell in range(k):
                    tm = build_transition_matrix(
                        ChainKernel("kl_downup", beta=beta, k=k, ell=ell), g
                    )
                    gap = spectral_gap(tm)
                    res = local_to_global_gap_bound(zetas, ell)
                    assert gap >= res.bound - 1e-10, (g.n, beta, k, ell)


def test_gap_factorization_k4():
    rep = gap_factorization_check(complete_graph(4), beta=0.5, k=2, ell=1)
    assert rep.satisfied
    assert rep.gap_full >= rep.product - 1e-12


def test_gap_factorization_cycles():
    for n in (5, 6):
        g = cycle_graph(n)
        for k in (2, 3):
            for ell in {1, k - 1}:
                for beta in (0.0, 0.5, 1.0):
                    rep = gap_factorization_check(g, beta=beta, k=k, ell=ell)
                    assert rep.satisfied, (n, k, ell, beta)


def test_gap_pinned_inf_matches_per_pin_set_loop():
    """inf_U gap from the block-diagonal kernels equals the per-pin-set loop
    on the exact test set, with blocks solved dense (up to 200 states) and,
    for 2xC6 at k = 6 (462 and 210 states a block), by Lanczos."""
    for name, g in exact_test_set().items():
        for k in sorted({2, g.n // 2} & set(range(2, g.n))):
            for ell in sorted({1, 2} & set(range(1, k))):
                for beta in (0.0, 0.5, 1.0):
                    got = gap_factorization_check(g, beta, k, ell).gap_pinned_inf
                    want = pinned_gap_inf_loop(g, beta, k, ell)
                    assert abs(got - want) <= 1e-12 * want, (name, k, ell, beta)


def test_gap_factorization_in_batches(monkeypatch):
    """Under a cap that fits five of C6's six pinned blocks at k = 3, l = 1
    (80 nonzeros each), and the full and (k, l) kernels (240 and 400), the
    check runs in two batches, their 10-state blocks solved two at a time,
    and gives the loop's inf_U gap."""
    from isinglab import dynamics, spectral

    monkeypatch.setattr(dynamics, "KERNEL_NONZERO_CAP", 400)
    monkeypatch.setattr(spectral, "DENSE_STACK_BYTES", 2 * 8 * 10 * 10)
    g = cycle_graph(6)
    assert len(list(dynamics.pinned_downup_matrices(g, 0.5, 3, 1))) == 2
    rep = gap_factorization_check(g, 0.5, 3, 1)
    assert abs(rep.gap_pinned_inf - pinned_gap_inf_loop(g, 0.5, 3, 1)) <= 1e-12


def test_dense_solve_holds_at_most_dense_stack_bytes(monkeypatch):
    """The batched dense solve of 66 blocks of 120 links (115 200 bytes each)
    under a 1 MiB bound: four blocks a stack, with the stack's one temporary,
    stay within it, beside numpy's fixed-size ufunc buffers (64 KiB each),
    and each block's lambda_2 is the one solved in a single stack."""
    import tracemalloc

    from isinglab import spectral

    (_, tm), = pinned_downup_matrices(random_regular(12, 3, seed=1), 0.5, 6, 2)
    A, L = tm.factors
    M, sq = L @ A, np.sqrt(tm.pi @ A)
    want = spectral._block_second_eigenvalues(M, sq, 120)
    monkeypatch.setattr(spectral, "DENSE_STACK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        got = spectral._block_second_eigenvalues(M, sq, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= (1 << 20) + (1 << 18), peak


def test_gap_factorization_ell0_degenerate():
    rep = gap_factorization_check(cycle_graph(5), beta=0.5, k=2, ell=0)
    assert rep.satisfied
    assert math.isclose(rep.gap_kl, 1.0, abs_tol=1e-10)


def test_edgeworth_gaussian_term_binomial_n100():
    # exact C(100,50)/2^100 vs 1/(sqrt(2 pi) * 5)
    exact = math.comb(100, 50) / 2**100
    approx = edgeworth_pmf([50.0, 25.0], [0.0], d=0).values[0]
    assert math.isclose(approx, 1 / (math.sqrt(2 * math.pi) * 5))
    assert abs(exact - approx) < 2.5e-4


def test_edgeworth_symmetric_d1_correction_vanishes_at_center():
    t = exact_partition_table(cycle_graph(8), beta=0.5)
    kappas = cumulants_of_size(t, 1.0, 3).kappas
    assert abs(kappas[2]) < 1e-10
    d0 = edgeworth_pmf(kappas, [0.0], d=0).values[0]
    d1 = edgeworth_pmf(kappas, [0.0], d=1).values[0]
    assert math.isclose(d0, d1, rel_tol=1e-12)


def test_edgeworth_d2_beats_d0_asymmetric():
    for n in (12, 16):
        t = exact_partition_table(cycle_graph(n), beta=0.5)
        e0 = lclt_error(t, 1.2, d=0)
        e2 = lclt_error(t, 1.2, d=2)
        assert e2.sup_error < e0.sup_error


def test_edgeworth_error_decays_with_n():
    errs0, errs2 = [], []
    for n in (12, 16, 20):
        t = exact_partition_table(cycle_graph(n), beta=0.5)
        errs0.append(lclt_error(t, 1.2, d=0).scaled_sup_error)
        errs2.append(lclt_error(t, 1.2, d=2).scaled_sup_error)
    assert all(a > b for a, b in zip(errs0, errs0[1:]))
    assert all(a > b for a, b in zip(errs2, errs2[1:]))


def test_edgeworth_series_matches_fourier_quadrature():
    """Hermite/tuple closed form vs direct quadrature of its Fourier integral."""
    from scipy.integrate import trapezoid

    from isinglab.spectral import _edgeworth_tuples

    rng = make_rng(3)
    for _ in range(3):
        k2 = 12.0
        kappas = [30.0, k2, float(rng.normal()) * 2, float(rng.normal()) * 1.5,
                  float(rng.normal()) * 2.0]
        s = math.sqrt(k2)
        d = 2
        beta_j = {
            j: kappas[j - 1] / (math.factorial(j) * s**j) for j in (3, 4, 5)
        }
        t = np.linspace(-40, 40, 200001)
        series = np.ones_like(t, dtype=complex)
        for r in range(3, 6 * d + 1):
            c = 0.0
            for tup in _edgeworth_tuples(r, d):
                term = 1.0
                for j, kj in zip((3, 4, 5), tup):
                    term *= beta_j[j] ** kj / math.factorial(kj)
                c += term
            series += (1j * t) ** r * c
        for ell in (0.0, 2.0, -3.0):
            integrand = np.exp(-1j * t * ell / s) * np.exp(-(t**2) / 2) * series
            oracle = trapezoid(integrand, t).real / (2 * math.pi * s)
            mine = edgeworth_pmf(kappas, [ell], d=d).values[0]
            assert abs(oracle - mine) < 1e-12


def test_edgeworth_degenerate_variance():
    with pytest.raises(DegenerateError):
        edgeworth_pmf([3.0, 0.0], [0.0], d=0)


def test_stability_probe_independent_case():
    # beta=0: pinning v removes one Bernoulli: |kappa_1 shift| = 1 - lam/(1+lam)
    g = cycle_graph(6)
    lam = 1.4
    probe = stability_probe(g, 0.0, lam, EMPTY_PINNING, v=2)
    assert math.isclose(probe.kappa_deltas[0], 1 - lam / (1 + lam), abs_tol=1e-12)


def test_stability_probe_bounded_over_rings():
    deltas = []
    for n in (10, 14, 18):
        probe = stability_probe(cycle_graph(n), 0.4, 1.0, EMPTY_PINNING, v=0)
        deltas.append(probe.kappa_deltas)
    for j in range(3):
        vals = [d[j] for d in deltas]
        assert max(vals) <= vals[0] + 0.2  # bounded, not growing with n


def test_stability_probe_idempotent_on_pinned_vertex():
    g = cycle_graph(5)
    pin = frozenset({1})
    probe = stability_probe(g, 0.6, 1.1, pin, v=1)
    assert probe.pmf_delta == 0.0
    assert probe.kappa_deltas == (0.0, 0.0, 0.0)


def test_characteristic_bound_binomial():
    # |E e^{itX}| = |cos(t/2)|^n <= e^{-t^2 n / 8} near 0; fitted c > 0
    g = cycle_graph(8)
    probe = characteristic_bound_probe(g, 0.0, 1.0)
    assert not probe.degenerate
    assert probe.fitted_c > 0


def test_characteristic_bound_degenerate_when_pinned_all():
    g = complete_graph(2)
    pin = frozenset({0, 1})
    probe = characteristic_bound_probe(g, 0.5, 1.0, pin)
    assert probe.degenerate
    assert probe.fitted_c == 0.0


def test_characteristic_bound_c12():
    probe = characteristic_bound_probe(cycle_graph(12), 0.6, 0.8)
    assert probe.fitted_c > 0
