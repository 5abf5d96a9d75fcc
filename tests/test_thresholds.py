import math
import random

import pytest

from isinglab import thresholds
from isinglab.errors import InvalidInputError, NoNonuniquenessError
from isinglab.thresholds import (
    ThresholdSet,
    beta_u,
    compute_thresholds,
    eta_minus,
    eta_of_fixed_point,
    eta_plus,
    lambda_a_bar,
    lambda_u,
    tree_fixed_points,
)

LN2 = math.log(2)


def test_beta_u_values():
    assert math.isclose(beta_u(3), math.log(3), rel_tol=1e-15)
    assert math.isclose(beta_u(4), LN2, rel_tol=1e-15)  # Fig. 2 anchor, 0.6931
    assert abs(beta_u(4) - 0.6931) < 1e-4


def test_beta_u_monotone_to_zero():
    vals = [beta_u(d) for d in range(3, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert beta_u(1000) < 0.01


def test_beta_u_requires_delta_3():
    with pytest.raises(InvalidInputError):
        beta_u(2)


def test_R_equals_one_at_unit_field():
    for delta, beta in [(3, 0.5), (4, 1.0), (5, 0.2)]:
        fps = tree_fixed_points(delta, beta, 1.0)
        assert any(math.isclose(fp.R, 1.0, abs_tol=1e-9) for fp in fps)


def test_fixed_point_residuals():
    for lam in (0.9, 1.0, 1.01, 1.08, 2.0):
        for fp in tree_fixed_points(4, LN2 + 0.1, lam):
            eb = math.exp(LN2 + 0.1)
            h = lam * ((fp.R * eb + 1) / (fp.R + eb)) ** 3
            assert abs(h - fp.R) <= 1e-10 * max(1.0, fp.R)


def test_three_fixed_points_at_1_01():
    fps = tree_fixed_points(4, LN2 + 0.1, 1.01)
    assert len(fps) == 3
    assert fps[0].stable and fps[2].stable and not fps[1].stable


def test_one_fixed_point_at_1_08():
    fps = tree_fixed_points(4, LN2 + 0.1, 1.08)
    assert len(fps) == 1
    assert fps[0].stable


def test_descartes_count():
    for delta in (3, 4, 5):
        for beta in (0.0, 0.4, LN2 + 0.1, 1.5):
            for lam in (0.5, 0.97, 1.0, 1.03, 2.0, 10.0):
                fps = tree_fixed_points(delta, beta, lam)
                if any(fp.double_root for fp in fps):
                    assert len(fps) == 2
                else:
                    assert len(fps) in (1, 3), (delta, beta, lam)


@pytest.mark.parametrize("delta", range(3, 13))
def test_tangency_detected_at_lambda_u(delta):
    """At lambda_u and 1/lambda_u, for 800 beta in (beta_u, 5 beta_u]: one
    double root, marginal and not stable, and one stable simple root."""
    bu = beta_u(delta)
    for i in range(1, 801):
        beta = bu * (1 + 4 * i / 800)
        lu = lambda_u(delta, beta)
        for lam in (lu, 1 / lu):
            fps = tree_fixed_points(delta, beta, lam)
            assert len(fps) == 2, (beta, lam)
            double, simple = sorted(fps, key=lambda fp: not fp.double_root)
            assert double.double_root and double.marginal and not double.stable, (beta, lam)
            assert not simple.double_root and simple.stable and not simple.marginal, (beta, lam)


def _mirror_cases():
    """Seeded (delta, beta, lambda) with beta off (beta_u, beta_u (1 + 1e-8)]:
    lambda_u (1 + s) for s in {0, +-1e-10, +-1e-13}, lambda = 1 and a
    log-uniform lambda; below beta_u, lambda = 1 and a log-uniform lambda."""
    rng = random.Random(29)
    for _ in range(500):
        delta = rng.randint(3, 12)
        bu = beta_u(delta)
        if rng.random() < 0.2:
            beta = bu * rng.random()
            lams = [1.0, math.exp(rng.uniform(-0.5, 0.5))]
        else:
            beta = bu * (1 + 10 ** rng.uniform(-7.9, 0.7))
            lu = lambda_u(delta, beta)
            lams = [lu * (1 + s) for s in (0, 1e-10, -1e-10, 1e-13, -1e-13)]
            lams += [1.0, lu ** rng.uniform(-2, 2)]
        for lam in lams:
            yield delta, beta, lam


def test_fixed_points_mirror_under_inverse_field():
    """R -> 1/R maps the fixed points at lambda to those at 1/lambda, so the
    root count and the double-root flags mirror."""
    mismatched = []
    for delta, beta, lam in _mirror_cases():
        a = [fp.double_root for fp in tree_fixed_points(delta, beta, lam)]
        b = [fp.double_root for fp in tree_fixed_points(delta, beta, 1 / lam)]
        if a != b[::-1]:
            mismatched.append((delta, beta, lam, a, b))
    assert mismatched == []


def test_unit_field_at_beta_u_is_one_marginal_root():
    """The near-triple root at R = 1 comes back as one root."""
    for delta in (3, 5):
        bu = beta_u(delta)
        for beta in (bu, bu * (1 + 1e-13)):
            fps = tree_fixed_points(delta, beta, 1.0)
            assert len(fps) == 1, (delta, beta, fps)
            assert fps[0].R == 1.0 and fps[0].marginal and not fps[0].stable


@pytest.mark.parametrize("delta, beta", [(3, 1.2), (4, LN2 + 0.1), (5, 0.8), (10, 0.5)])
def test_root_count_just_off_lambda_u(delta, beta):
    """A relative 1e-13 off the tangency: one root above lambda_u, three
    below, and the mirror image at 1/lambda."""
    lu = lambda_u(delta, beta)
    for lam, count in ((lu * (1 + 1e-13), 1), (lu * (1 - 1e-13), 3)):
        for field in (lam, 1 / lam):
            fps = tree_fixed_points(delta, beta, field)
            assert len(fps) == count, (field, fps)
            assert not any(fp.double_root for fp in fps)


def test_L_star_zero_below_beta_u_at_unit_field():
    assert abs(compute_thresholds(4, 0.5, lam=1.0).L_star) < 1e-12
    assert abs(eta_plus(4, 0.5, 1.0)) < 1e-12


def test_symmetric_magnetizations_above_beta_u():
    ep = eta_plus(4, LN2 + 0.1, 1.0)
    em = eta_minus(4, LN2 + 0.1, 1.0)
    assert ep > 0
    assert math.isclose(ep, -em, rel_tol=1e-10)


def test_eta_plus_matches_largest_fixed_point():
    for lam in (1.0, 1.01, 1.05, 1.2):
        fps = tree_fixed_points(4, LN2 + 0.1, lam)
        expected = eta_of_fixed_point(max(fp.R for fp in fps), LN2 + 0.1)
        assert math.isclose(eta_plus(4, LN2 + 0.1, lam), expected, abs_tol=1e-10)


def test_eta_plus_monotone_in_lambda():
    lams = [1.0, 1.02, 1.05, 1.2, 1.5, 3.0]
    vals = [eta_plus(4, LN2 + 0.1, lam) for lam in lams]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_eta_plus_inversion_symmetry():
    for lam in (1.3, 2.0):
        assert math.isclose(
            eta_plus(4, LN2 + 0.1, 1 / lam),
            -eta_minus(4, LN2 + 0.1, lam),
            abs_tol=1e-10,
        )


def test_lambda_u_anchor_interval():
    lu = lambda_u(4, LN2 + 0.1)
    assert 1.01 < lu < 1.08  # Fig. 3: two maxima at 1.01, one at 1.08


def test_lambda_u_to_one_at_beta_u():
    vals = [lambda_u(4, LN2 + eps) for eps in (0.1, 0.01, 0.001)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.001
    # at the next float above beta_u(8) the tangency discriminant rounds below 0
    assert math.isclose(lambda_u(8, math.nextafter(beta_u(8), math.inf)), 1.0,
                        abs_tol=1e-9)


@pytest.mark.parametrize("delta", range(3, 11))
def test_lambda_u_never_below_one(delta):
    """Above beta_u, lambda_u > 1; the closed form rounds a few ulps below 1
    on about half of the first 1 000 floats above beta_u, so it is clamped."""
    beta = beta_u(delta)
    for _ in range(1000):
        beta = math.nextafter(beta, math.inf)
        assert lambda_u(delta, beta) >= 1.0


def test_lambda_u_bisect_matches_tangency_refinement():
    # value frozen from two independent routes agreeing to 1e-12
    assert math.isclose(lambda_u(4, LN2 + 0.1), 1.067849843028, abs_tol=1e-9)
    assert math.isclose(lambda_u(3, 1.2), 1.031601420385, abs_tol=1e-9)


def _lambda_u_by_count(delta, beta):
    # independent oracle: bisect lambda on the fixed-point count dropping 3 -> 1
    lo, hi = 1.0, 2.0
    while len(tree_fixed_points(delta, beta, hi)) >= 3:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if len(tree_fixed_points(delta, beta, mid)) >= 3:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("delta", [3, 4, 5])
def test_lambda_u_matches_count_bisection(delta):
    bu = beta_u(delta)
    for beta in (bu + 0.05, bu + 0.3, 1.5, 2.5):
        assert math.isclose(lambda_u(delta, beta), _lambda_u_by_count(delta, beta),
                            rel_tol=1e-6), (delta, beta)


def test_lambda_u_requires_nonuniqueness():
    with pytest.raises(NoNonuniquenessError):
        lambda_u(4, 0.5)


def test_lambda_a_bar_delta4_beta08():
    # second branch e^{3.2} wins over (2 e^{1.6} - 4) e^{1.6}
    val = lambda_a_bar(4, 0.8)
    first = (2 * math.exp(1.6) - 4) * math.exp(1.6)
    second = math.exp(3.2)
    assert second < first
    assert math.isclose(val, second, rel_tol=1e-12)
    assert math.isclose(val, 24.53, rel_tol=1e-3)


def test_lambda_a_bar_small_beta_second_branch_only():
    # at beta <= beta_u the first branch is nonpositive
    assert math.isclose(lambda_a_bar(4, 0.1), math.exp(0.4), rel_tol=1e-12)


def test_threshold_orderings():
    ts = compute_thresholds(4, LN2 + 0.1)
    assert isinstance(ts, ThresholdSet)
    assert ts.lambda_u > 1
    assert 0 < ts.eta_c < ts.eta_u < ts.eta_a_bar


def test_thresholds_with_field():
    ts = compute_thresholds(4, LN2 + 0.1, lam=1.01)
    assert ts.eta_plus > 0 > ts.eta_minus
    assert math.isclose(ts.eta_plus, eta_plus(4, LN2 + 0.1, 1.01))


def test_eta_c_lt_eta_u():
    for delta, beta in [(3, 1.2), (4, LN2 + 0.1), (5, 0.8)]:
        ts = compute_thresholds(delta, beta)
        assert ts.eta_c < ts.eta_u


def test_one_tree_solve_per_reported_field(monkeypatch):
    """lambda = 1, lambda_u, lambda_a_bar and lam: four solves, not six."""
    calls = []

    def counting(delta, beta, lam):
        calls.append(lam)
        return tree_fixed_points(delta, beta, lam)

    monkeypatch.setattr(thresholds, "tree_fixed_points", counting)
    ts = compute_thresholds(3, 1.2, lam=1.01)
    assert sorted(calls) == sorted([1.0, ts.lambda_u, ts.lambda_a_bar, 1.01])
    assert ts.L_star == 0.5 * math.log(tree_fixed_points(3, 1.2, 1.01)[-1].R)
    assert ts.eta_plus == eta_plus(3, 1.2, 1.01)
    assert ts.eta_minus == eta_minus(3, 1.2, 1.01)


@pytest.mark.parametrize("delta, beta", [(3, 9.54), (4, 6.51), (5, 4.93),
                                         (6, 3.93), (6, 4.0), (8, 2.83),
                                         (10, 2.24), (10, 4.48)])
def test_ordering_holds_where_the_magnetizations_round_to_one(delta, beta):
    # eta_u and eta_a_bar are 1.0 in floats here; the fixed points are not
    ts = compute_thresholds(delta, beta)
    assert ts.eta_a_bar == 1.0
    assert 0 < ts.eta_c <= ts.eta_u <= ts.eta_a_bar
    assert ts.eta_u == eta_plus(delta, beta, ts.lambda_u)
