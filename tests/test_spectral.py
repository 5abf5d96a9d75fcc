import math
from itertools import combinations

import numpy as np
import pytest

from isinglab.dynamics import ChainKernel, build_transition_matrix
from isinglab.errors import DegenerateError, InvalidInputError, NonReversibleError
from isinglab.graphs import complete_graph, cycle_graph, disjoint_union, random_regular
from isinglab.measures import (
    EMPTY_PINNING,
    Pinning,
    cumulants_of_size,
    exact_partition_table,
    size_distribution,
)
from isinglab.spectral import (
    TransitionMatrix,
    characteristic_bound_probe,
    dirichlet_quotient,
    edgeworth_pmf,
    exact_mixing_time,
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


def swap_chain():
    return TransitionMatrix(
        states=(0, 1),
        K=np.array([[0.0, 1.0], [1.0, 0.0]]),
        pi=np.array([0.5, 0.5]),
        kind="swap",
    )


def test_gap_swap_chain_is_two():
    assert math.isclose(spectral_gap(swap_chain()), 2.0)


def test_gap_k3_kawasaki():
    # uniform swap on 3 states: eigenvalues {1, -1/2, -1/2}, gap 3/2
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.7, k=1), complete_graph(3))
    assert math.isclose(spectral_gap(tm), 1.5, abs_tol=1e-12)


def test_gap_below_all_dirichlet_quotients():
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.9, k=2), cycle_graph(5))
    gap = spectral_gap(tm, variational_samples=50)
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
    (ChainKernel("downup", beta=0.8, k=6, pinning=Pinning.plus([0, 3])),
     random_regular(14, 3, seed=2)),
    (ChainKernel("kl_downup", beta=0.5, k=5, ell=3), random_regular(11, 4, seed=3)),
    (ChainKernel("kawasaki", beta=0.9, k=1), complete_graph(2)),
    (ChainKernel("kawasaki", beta=1.0, k=6), disjoint_union(cycle_graph(6), 2).graph),
], ids=["glauber-1024", "kawasaki-924", "kawasaki-1716", "downup-pinned-495",
        "kl-462", "k2-two-states", "union-2xC6-924"])
def test_lanczos_gap_matches_dense_eigvalsh(kernel, g):
    tm = build_transition_matrix(kernel, g)
    gap, want = spectral_gap(tm), _dense_gap(tm)
    assert abs(gap - want) <= 1e-12 * want, (len(tm.states), gap, want)


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
        kind="lazy-kawasaki",
    )
    assert exact_mixing_time(tm, lazy=True) <= mixing_time_upper(lazy)


def test_gap_comparison_from_measured_kernel_ratios():
    """alpha1 gap(P1) <= gap(P2) <= alpha2 gap(P1) with measured alphas."""
    g = cycle_graph(5)
    for beta in (0.0, 0.6, 1.1):
        for k in (2, 3):
            du = build_transition_matrix(ChainKernel("downup", beta=beta, k=k), g)
            kw = build_transition_matrix(ChainKernel("kawasaki", beta=beta, k=k), g)
            order = [du.states.index(s) for s in kw.states]
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
    states, probs = grand_canonical_distribution(g, 0.0, lam)
    infl = influence_matrix(states, probs, range(g.n))
    off = infl.M - np.diag(np.diag(infl.M))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.diag(infl.M), 1 - lam / (1 + lam))


def test_influence_uniform_fixed_k():
    # uniform over C(4, 2): off-diagonal (k-1)/(n-1) - k/n = -1/6, diag 1/2
    g = complete_graph(4)
    states, probs = fixed_mag_distribution(g, 0.0, 2)
    infl = influence_matrix(states, probs, range(4))
    assert np.allclose(infl.M, np.full((4, 4), -1 / 6) + np.eye(4) * (0.5 + 1 / 6))
    eigs = sorted(np.linalg.eigvalsh(infl.M))
    assert np.allclose(eigs, [0.0, 2 / 3, 2 / 3, 2 / 3], atol=1e-12)
    assert math.isclose(infl.top_eigenvalue, 2 / 3, abs_tol=1e-12)


def test_influence_fkg_nonnegative():
    g = cycle_graph(5)
    for lam in (0.7, 1.0, 1.5):
        states, probs = grand_canonical_distribution(g, 0.8, lam)
        infl = influence_matrix(states, probs, range(g.n))
        assert infl.M.min() >= -1e-12
        assert not infl.has_complex_pair


def test_influence_linf_trend_bounded():
    """ell_inf norms of the canonical influence matrix stay bounded in n."""
    from isinglab.graphs import random_regular

    norms = []
    for n in (8, 12, 16, 20):
        g = random_regular(n, 3, seed=1, simple=True)
        states, probs = fixed_mag_distribution(g, 0.3, n // 4)
        infl = influence_matrix(states, probs, range(n))
        norms.append(infl.linf_norm)
    assert max(norms) <= norms[0] * 1.25 + 0.1


def test_local_walk_uniform_complete():
    g = complete_graph(4)
    states, probs = fixed_mag_distribution(g, 0.0, 2)
    lw = local_walk(states, probs, (), 2)
    assert np.allclose(lw.Q, (np.ones((4, 4)) - np.eye(4)) / 3)
    assert math.isclose(lw.second_eigenvalue, -1 / 3, abs_tol=1e-12)


def test_influence_bound_equality_at_uniform():
    g = complete_graph(4)
    states, probs = fixed_mag_distribution(g, 0.0, 2)
    infl = influence_matrix(states, probs, range(4))
    lw = local_walk(states, probs, (), 2)
    bound = (infl.top_eigenvalue - 1) / (2 - 0 - 1)
    assert math.isclose(lw.second_eigenvalue, bound, abs_tol=1e-12)  # both -1/3


def test_influence_bound_all_small_instances():
    for g, k in [(complete_graph(4), 2), (cycle_graph(5), 2), (cycle_graph(6), 3)]:
        for beta in (0.0, 0.5, 1.0):
            states, probs = fixed_mag_distribution(g, beta, k)
            for m in range(k - 1):
                for u in combinations(range(g.n), m):
                    lw = local_walk(states, probs, u, k)
                    keep = [i for i, s in enumerate(states) if frozenset(u) <= s]
                    sub = [states[i] for i in keep]
                    sp = probs[keep] / probs[keep].sum()
                    infl = influence_matrix(sub, sp, range(g.n))
                    bound = (infl.top_eigenvalue - 1) / (k - m - 1)
                    assert lw.second_eigenvalue <= bound + 1e-10


def test_beta_to_zero_matches_uniform():
    g = complete_graph(4)
    s0, p0 = fixed_mag_distribution(g, 1e-12, 2)
    lw = local_walk(s0, p0, (), 2)
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
    pin = Pinning({1: 1})
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
    pin = Pinning({0: 1, 1: 1})
    probe = characteristic_bound_probe(g, 0.5, 1.0, pin)
    assert probe.degenerate
    assert probe.fitted_c == 0.0


def test_characteristic_bound_c12():
    probe = characteristic_bound_probe(cycle_graph(12), 0.6, 0.8)
    assert probe.fitted_c > 0
