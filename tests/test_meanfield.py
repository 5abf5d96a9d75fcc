import math

import numpy as np
import pytest

from isinglab.errors import InvalidInputError
from isinglab.graphs import random_regular
from isinglab.measures import exact_partition_table
from isinglab.meanfield import (
    ETA_CLIP,
    _curve,
    _f_second_derivative,
    annealed_log_EZ_per_k,
    critical_points,
    f_eta,
    maximize_B,
)
from isinglab.thresholds import eta_of_fixed_point, tree_fixed_points

from conftest import _g_of_b0

LN2 = math.log(2)
REGIMES = [
    (4, LN2 + 0.1, 1.01),
    (4, LN2 + 0.1, 1.08),
    (3, 1.2, 1.01),
    (3, 1.2, 1.0),
    (4, 0.4, 1.3),
]


def test_maximizer_closed_form_symmetric_point():
    # eta=0, lambda=1: b+ = b- = e^b/(2(1+e^b)), b0 = 1/(2(1+e^b))
    for beta in (0.3, 1.0, 2.0):
        stats = maximize_B(0.0, 4, beta, 1.0)
        eb = math.exp(beta)
        assert math.isclose(stats.b_plus, eb / (2 * (1 + eb)), abs_tol=1e-11)
        assert math.isclose(stats.b_minus, eb / (2 * (1 + eb)), abs_tol=1e-11)
        assert math.isclose(stats.b_zero, 1 / (2 * (1 + eb)), abs_tol=1e-11)


def test_maximizer_beta0_independent_endpoints():
    for eta in (-0.5, 0.0, 0.4, 0.9):
        stats = maximize_B(eta, 3, 0.0, 1.0)
        assert math.isclose(stats.b_plus, ((1 + eta) / 2) ** 2, abs_tol=1e-11)
        assert math.isclose(stats.b_zero, (1 + eta) * (1 - eta) / 4, abs_tol=1e-11)


def test_maximizer_closed_form_quadratic_everywhere():
    # interior stationarity solves (e^{2b}-1) b0^2 + b0 - (1-eta^2)/4 = 0
    for eta in (-0.8, -0.2, 0.1, 0.6):
        for beta in (0.2, 0.9, 1.7):
            stats = maximize_B(eta, 4, beta, 1.3)
            a = math.exp(2 * beta) - 1
            b0 = (-1 + math.sqrt(1 + a * (1 - eta**2))) / (2 * a)
            assert math.isclose(stats.b_zero, b0, rel_tol=1e-10)
    # the returned statistics satisfy b+ b- = b0^2 e^{2 beta} to rounding,
    # also where b- is tiny next to |eta| = 1
    for beta in (0.0, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0):
        for eta in (0.0, 0.3, 0.9, 0.99, 0.9999, 1 - 1e-5, 1 - 1e-6):
            for s in (eta, -eta):
                st = maximize_B(s, 4, beta, 1.3)
                res = (math.log(st.b_plus) + math.log(st.b_minus)
                       - 2 * math.log(st.b_zero) - 2 * beta)
                assert abs(res) <= 1e-12, (beta, s, res)


def test_maximizer_constraint_residuals():
    for eta in np.linspace(-0.95, 0.95, 21):
        stats = maximize_B(float(eta), 4, 0.8, 1.1)
        r1 = stats.b_plus + stats.b_zero - (1 + stats.eta) / 2
        r2 = stats.b_minus + stats.b_zero - (1 - stats.eta) / 2
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_maximizer_boundary_limit():
    stats = maximize_B(1.0, 3, 0.5, 1.0)
    assert stats.boundary
    assert stats.b_zero == 0.0
    near = maximize_B(1 - 1e-7, 3, 0.5, 1.0)
    assert near.boundary  # inside the singular clip zone
    assert near.b_zero < 1e-6
    assert abs(near.b_plus - (1 + (1 - 1e-7)) / 2) < 1e-6
    interior = maximize_B(0.99, 3, 0.5, 1.0)
    assert not interior.boundary


def test_f_matches_dense_grid_max():
    eta, delta, beta, lam = 0.3, 4, 0.9, 1.2
    hi = min((1 + eta) / 2, (1 - eta) / 2)
    grid = np.linspace(hi * 1e-9, hi * (1 - 1e-9), 200001)
    dense = max(_g_of_b0(eta, b, delta, beta, lam) for b in grid)
    assert abs(f_eta(eta, delta, beta, lam) - dense) < 1e-9


def test_curve_equals_g_at_the_maximizer_bit_for_bit():
    """_curve(delta, beta, lam)(eta) is g(eta, b0) at maximize_B's b0, with
    ==: the landscape files stay byte-identical."""
    rng = np.random.default_rng(20)
    edges = [0.0, 1.0, -1.0, 1 - ETA_CLIP, -(1 - ETA_CLIP)]
    for i in range(400):
        delta = int(rng.choice([3, 4, 5, 10]))
        beta = 0.0 if i % 10 == 0 else float(rng.uniform(0, 5))
        lam = math.exp(rng.uniform(-2, 2))
        curve = _curve(delta, beta, lam)
        for eta in edges + [float(e) for e in rng.uniform(-1, 1, 10)]:
            b0 = maximize_B(eta, delta, beta, lam).b_zero
            want = _g_of_b0(eta, b0, delta, beta, lam)
            assert curve(eta) == want, (delta, beta, lam, eta)
            assert f_eta(eta, delta, beta, lam) == want
    for eta in (-1 - 1e-12, 1 + 1e-12, 2.0, math.nan):
        with pytest.raises(InvalidInputError):
            f_eta(eta, 3, 1.2, 1.01)


def test_f_symmetric_at_unit_field():
    for eta in (0.2, 0.55, 0.83):
        assert math.isclose(
            f_eta(eta, 4, 1.0, 1.0), f_eta(-eta, 4, 1.0, 1.0), rel_tol=1e-12
        )


def test_f_beta0_entropy_only():
    # f(eta) = H((1+eta)/2) at beta=0, lambda=1; max ln 2 at eta=0
    assert math.isclose(f_eta(0.0, 4, 0.0, 1.0), math.log(2), abs_tol=1e-10)
    pts = critical_points(4, 0.0, 1.0, grid_resolution=1e-3)
    assert len(pts) == 1
    assert abs(pts[0].eta) < 1e-8
    assert pts[0].classification == "local-max"


def test_critical_points_unique_regime():
    pts = critical_points(4, LN2 + 0.1, 1.08, grid_resolution=1e-3)
    assert len(pts) == 1
    assert pts[0].classification == "local-max"


def test_critical_points_metastable_regime():
    pts = critical_points(4, LN2 + 0.1, 1.01, grid_resolution=1e-3)
    assert [p.classification for p in pts] == ["local-max", "local-min", "local-max"]
    # global max is the positive one for lambda > 1
    assert pts[2].f_value > pts[0].f_value
    assert pts[2].eta > 0


def test_critical_points_symmetric_regime():
    pts = critical_points(4, LN2 + 0.1, 1.0, grid_resolution=1e-3)
    assert [p.classification for p in pts] == ["local-max", "local-min", "local-max"]
    assert abs(pts[1].eta) < 1e-7
    assert math.isclose(pts[0].eta, -pts[2].eta, abs_tol=1e-7)


def test_analytic_f2_matches_central_difference():
    """f'' at each critical point agrees with a central difference of f."""
    h = 1e-4
    for delta, beta, lam in REGIMES:
        for pt in critical_points(delta, beta, lam, grid_resolution=1e-3):
            e = pt.eta
            fd = (f_eta(e + h, delta, beta, lam) - 2 * f_eta(e, delta, beta, lam)
                  + f_eta(e - h, delta, beta, lam)) / h**2
            f2 = _f_second_derivative(e, delta, beta)
            assert math.isclose(f2, fd, rel_tol=1e-5), (delta, beta, lam, e)


def test_correspondence_with_tree_fixed_points():
    """Landscape critical points match tree fixed points in count, type, location."""
    for delta, beta, lam in REGIMES:
        fps = tree_fixed_points(delta, beta, lam)
        pts = critical_points(delta, beta, lam, grid_resolution=1e-3)
        assert len(fps) == len(pts), (delta, beta, lam)
        for fp, pt in zip(fps, pts):
            assert abs(eta_of_fixed_point(fp.R, beta) - pt.eta) < 1e-6
            if fp.stable:
                assert pt.classification == "local-max"
            elif not fp.marginal:
                assert pt.classification == "local-min"


def test_annealed_trivial_k0_and_kn():
    n, delta, beta, lam = 12, 3, 0.7, 1.4
    assert math.isclose(
        annealed_log_EZ_per_k(n, 0, delta, beta, lam), beta * delta * n / 2,
        rel_tol=1e-12,
    )
    assert math.isclose(
        annealed_log_EZ_per_k(n, n, delta, beta, lam),
        n * math.log(lam) + beta * delta * n / 2,
        rel_tol=1e-12,
    )


def test_annealed_matches_monte_carlo():
    """E[Z_{G,k}] against 200 sampled configuration-model matchings."""
    n, delta, beta, lam, k = 12, 3, 0.5, 1.0, 6
    target = annealed_log_EZ_per_k(n, k, delta, beta, lam)
    ratios = []
    for seed in range(200):
        g = random_regular(n, delta, seed=seed, simple=False)
        t = exact_partition_table(g, beta)
        log_zk = t.log_zhat_by_k[k] + k * math.log(lam)
        ratios.append(math.exp(log_zk - target))
    ratios = np.array(ratios)
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    assert abs(ratios.mean() - 1.0) <= 3 * se + 1e-9


def test_annealed_converges_to_f():
    delta, beta, lam, eta = 3, 0.8, 1.1, 0.25
    f = f_eta(eta, delta, beta, lam)
    errs = []
    for n in (24, 48, 96, 192):
        k = int(n * (1 + eta) / 2)
        errs.append(abs(annealed_log_EZ_per_k(n, k, delta, beta, lam) / n - f))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # O(log n / n) rate: scaled errors stay bounded
    scaled = [e * n / math.log(n) for e, n in zip(errs, (24, 48, 96, 192))]
    assert max(scaled) <= 2.0 * scaled[0] + 1.0


def test_annealed_parity_infeasible():
    with pytest.raises(InvalidInputError):
        annealed_log_EZ_per_k(9, 3, 3, 0.5, 1.0)  # n*delta odd


def test_resolution_guard():
    with pytest.raises(InvalidInputError):
        critical_points(4, 0.5, 1.0, grid_resolution=1e-5)
    with pytest.raises(InvalidInputError, match="no scan step"):
        critical_points(4, 0.5, 1.0, grid_resolution=3.0)
