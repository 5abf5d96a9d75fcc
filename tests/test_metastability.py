import itertools
import math

import numpy as np
import pytest

from isinglab.errors import InvalidInputError
from isinglab.graphs import cycle_graph, complete_graph, disjoint_union, random_regular
from isinglab.measures import NEG_INF, exact_partition_table, size_distribution
from isinglab.meanfield import annealed_log_EZ_per_k, critical_points, f_eta
from isinglab.metastability import (
    ConductanceReport,
    GlauberBandSpec,
    UnionBandSpec,
    annealed_band_weights,
    conductance_lower_bound_report,
    default_band_epsilon,
    exact_band_weights,
    find_union_parameters,
    overlap,
    partition_ratio_bounds,
    run_glauber_trace,
    run_kawasaki_trace,
    trace_bands,
)
from isinglab.rng import make_rng
from isinglab.thresholds import eta_minus, eta_plus, lambda_u

LN2 = math.log(2)


# ---------------------------------------------------------------------------
# Specs and weights
# ---------------------------------------------------------------------------


def test_glauber_band_spec_sets_and_separation():
    spec = GlauberBandSpec(n=100, k1=80, k2=20, inner=5, outer=10)
    s1, s2, s3 = spec.sets()
    assert s1 == {80}
    assert s2 == set(range(15, 26))
    assert s3 == set(range(10, 15)) | set(range(26, 31))
    assert not (s1 & s2) and not (s1 & s3) and not (s2 & s3)
    # a +-1 walk from the S2 edge toward k1 enters S3 before it reaches S1
    assert spec.k2 + spec.inner + 1 in s3 and max(s3) < spec.k1


def test_glauber_band_spec_rejects_overlap():
    with pytest.raises(InvalidInputError):
        GlauberBandSpec(n=100, k1=28, k2=20, inner=5, outer=10)


def test_union_band_spec_arithmetic():
    spec = UnionBandSpec(base_n=6, m=2, ell=1, k_plus=6, k_minus=0, eps=1)
    assert spec.k_total == 6
    assert spec.k_balanced == 3
    assert spec.plus_band() == (5, 7)
    assert spec.plus_escape() == (4, 4)
    assert spec.minus_escape() == (2, 2)
    # each window is one step outside its band, and they shield the balanced S1
    assert spec.plus_escape()[1] == spec.plus_band()[0] - 1
    assert spec.minus_escape()[0] == spec.minus_band()[1] + 1
    assert spec.minus_escape()[1] < spec.k_balanced < spec.plus_escape()[0]


def test_union_band_spec_rejects_balanced_size_in_escape_window():
    # k_total / m = 15 / 3 = 5 falls in the minus escape window [5, 6]
    with pytest.raises(InvalidInputError, match="between the escape windows"):
        UnionBandSpec(base_n=12, m=3, ell=1, k_plus=11, k_minus=2, eps=2)
    UnionBandSpec(base_n=12, m=3, ell=1, k_plus=11, k_minus=2, eps=2,
                  balanced_s1=False)


def test_union_band_spec_rejects_window_overlap():
    with pytest.raises(InvalidInputError):
        UnionBandSpec(base_n=6, m=2, ell=1, k_plus=5, k_minus=1, eps=1)


def test_annealed_symmetric_bands_equal_weight():
    # lambda = 1, beta > beta_u: bands at +-eta_c carry equal annealed weight
    n, delta, beta = 64, 4, LN2 + 0.1
    eta_c = eta_plus(delta, beta, 1.0)
    k_hi = int(round(n * (1 + eta_c) / 2))
    k_lo = n - k_hi
    spec = GlauberBandSpec(n=n, k1=k_hi, k2=k_lo, inner=2, outer=4)
    w = annealed_band_weights(delta, beta, 1.0, spec)
    spec_mirror = GlauberBandSpec(n=n, k1=k_lo, k2=k_hi, inner=2, outer=4)
    w_m = annealed_band_weights(delta, beta, 1.0, spec_mirror)
    assert math.isclose(w["S2"], w_m["S2"], rel_tol=1e-10)
    assert math.isclose(w["S1"], w_m["S1"], rel_tol=1e-10)


def test_annealed_s2_below_s1_with_clear_field_gap():
    # minus-phase band exponentially below the plus band once n log-lam
    # beats the polynomial band-width factor
    n, delta, beta, lam = 192, 4, LN2 + 0.1, 1.05
    ep = eta_plus(delta, beta, lam)
    em = eta_minus(delta, beta, lam)
    k1 = int(round(n * (1 + ep) / 2))
    k2 = int(round(n * (1 + em) / 2))
    spec = GlauberBandSpec(n=n, k1=k1, k2=k2,
                           inner=round(0.05 * n), outer=round(0.10 * n))
    w = annealed_band_weights(delta, beta, lam, spec)
    assert w["S2"] < w["S1"]
    assert w["S3"] < w["S2"]
    assert f_eta(em, delta, beta, lam) < f_eta(ep, delta, beta, lam)


def test_annealed_s2_below_s1_beyond_lambda_u():
    # above lambda_u the landscape is single-peaked; a band at the former
    # minus phase is exponentially lighter than the band at eta_plus
    n, delta, beta, lam = 96, 4, LN2 + 0.1, 1.2
    assert lam > lambda_u(delta, beta)
    ep = eta_plus(delta, beta, lam)
    eta2 = -0.75
    k1 = int(round(n * (1 + ep) / 2))
    k2 = int(round(n * (1 + eta2) / 2))
    spec = GlauberBandSpec(n=n, k1=k1, k2=k2, inner=5, outer=10)
    w = annealed_band_weights(delta, beta, lam, spec)
    assert w["S2"] < w["S1"]
    assert f_eta(eta2, delta, beta, lam) < f_eta(ep, delta, beta, lam)


def test_annealed_s3_below_both_uses_landscape():
    # the spec's lam = 1.01 metastable-geometry case: the shifted annulus is
    # lighter than both the band it guards and the global-max singleton
    n, delta, beta, lam = 480, 4, LN2 + 0.1, 1.01
    em = eta_minus(delta, beta, lam)
    k2 = int(round(n * (1 + em) / 2))
    k1 = int(round(n * (1 + eta_plus(delta, beta, lam)) / 2))
    spec = GlauberBandSpec(n=n, k1=k1, k2=k2,
                           inner=round(0.05 * n), outer=round(0.10 * n))
    w = annealed_band_weights(delta, beta, lam, spec)
    assert w["S3"] < w["S1"] and w["S3"] < w["S2"]


def test_exact_union_masses_sum_below_one():
    base = cycle_graph(6)
    spec = UnionBandSpec(base_n=6, m=2, ell=1, k_plus=6, k_minus=0, eps=1)
    w = {name: math.exp(v) for name, v in exact_band_weights(base, 1.0, spec).items()}
    assert 0 <= w["S3"] and w["S1"] > 0 and w["S2"] > 0
    assert w["S1"] + w["S2"] + w["S3"] <= 1 + 1e-12


def test_exact_vs_annealed_sign_agreement_two_c6():
    # union of two 6-cycles at beta = 1: total-size classes k = 6 (balanced
    # (6,6)-split of spins) vs k = 3 (a (3,9)-split); the exact mass ordering
    # matches the sign of the annealed log-ratio
    u = disjoint_union(cycle_graph(6), 2).graph
    beta, lam = 1.0, 1.0
    table = exact_partition_table(u, beta)
    pmf = size_distribution(table, lam)
    exact_sign = math.copysign(1, math.log(pmf[6] / pmf[3]))
    ann = annealed_log_EZ_per_k(12, 6, 2, beta, lam) - annealed_log_EZ_per_k(
        12, 3, 2, beta, lam
    )
    assert exact_sign == math.copysign(1, ann)


def test_exact_vs_annealed_sign_agreement_union_bands():
    # per-component bands on a pair of C6 copies: high-low split vs balanced
    base = cycle_graph(6)
    beta = 1.0
    spec = UnionBandSpec(base_n=6, m=2, ell=1, k_plus=6, k_minus=0, eps=1)
    exact = exact_band_weights(base, beta, spec)
    ann = annealed_band_weights(2, beta, 1.0, spec)
    # S3 guards S2 in both: exact and annealed agree the annulus is lighter
    assert (exact["S3"] < exact["S2"]) == (ann["S3"] < ann["S2"])


def _brute_union_logweights(spec, values):
    """Log weights of S1, S2, S3 and of all tuples, summed over every tuple
    of per-copy sizes with the spec's total."""
    m, ell = spec.m, spec.ell

    def inside(k, window):
        return window[0] <= k <= window[1]

    def own(i, plus, minus):
        return plus if i < ell else minus

    terms = {"S1": [], "S2": [], "S3": [], "all": []}
    for ks in itertools.product(range(spec.base_n + 1), repeat=m):
        if sum(ks) != spec.k_total:
            continue
        w = sum(values[k] for k in ks)
        if w == NEG_INF:
            continue
        terms["all"].append(w)
        bands = [inside(k, own(i, spec.plus_band(), spec.minus_band()))
                 for i, k in enumerate(ks)]
        escapes = [inside(k, own(i, spec.plus_escape(), spec.minus_escape()))
                   for i, k in enumerate(ks)]
        if all(bands):
            terms["S2"].append(w)
        if all(b or e for b, e in zip(bands, escapes)) and any(escapes):
            terms["S3"].append(w)
        if spec.balanced_s1:
            s1 = all(k == spec.k_balanced for k in ks)
        else:  # the first m - ell copies near k_minus, the rest near k_plus
            s1 = all(inside(k, spec.minus_band() if i < m - ell else spec.plus_band())
                     for i, k in enumerate(ks))
        if s1:
            terms["S1"].append(w)

    def logsum(ws):
        if not ws:
            return NEG_INF
        top = max(ws)
        return top + math.log(math.fsum(math.exp(w - top) for w in ws))

    return {name: logsum(ws) for name, ws in terms.items()}


UNION_ORACLE_BASES = {
    "C6": lambda: cycle_graph(6),
    "RR8s1": lambda: random_regular(8, 3, seed=1),
    "RR8s2": lambda: random_regular(8, 3, seed=2),
    "C9": lambda: cycle_graph(9),
}
# (base, m, ell, k_plus, k_minus, eps, balanced_s1); a balanced S1 needs
# k_total / m strictly between the escape windows, which with m = 3 takes a
# base of at least 9 vertices
UNION_ORACLE_CASES = [
    ("C6", 2, 1, 6, 0, 1, True),
    ("C6", 2, 1, 6, 0, 1, False),
    ("C6", 3, 1, 6, 0, 1, False),
    ("C6", 4, 2, 6, 0, 1, True),
    ("RR8s1", 2, 1, 7, 1, 1, True),
    ("RR8s1", 3, 2, 8, 0, 1, False),
    ("RR8s2", 4, 2, 7, 1, 1, True),
    ("RR8s2", 4, 1, 7, 1, 1, False),
    ("C9", 3, 1, 9, 0, 1, True),
]


@pytest.mark.parametrize("base_name, m, ell, k_plus, k_minus, eps, balanced",
                         UNION_ORACLE_CASES)
def test_union_weights_match_brute_force(base_name, m, ell, k_plus, k_minus,
                                         eps, balanced):
    base = UNION_ORACLE_BASES[base_name]()
    spec = UnionBandSpec(base_n=base.n, m=m, ell=ell, k_plus=k_plus,
                         k_minus=k_minus, eps=eps, balanced_s1=balanced)
    beta, lam = 0.9, 1.1

    table = exact_partition_table(base, beta)
    brute = _brute_union_logweights(spec, table.log_zhat_by_k)
    exact = exact_band_weights(base, beta, spec)
    for name in ("S1", "S2", "S3"):
        want = math.exp(brute[name] - brute["all"])
        assert math.isclose(math.exp(exact[name]), want, rel_tol=1e-12), name
    assert math.isclose(spec.log_total(table.log_zhat_by_k), brute["all"],
                        rel_tol=1e-12)

    delta = base.delta_max
    values = [annealed_log_EZ_per_k(base.n, k, delta, beta, lam)
              for k in range(base.n + 1)]
    brute = _brute_union_logweights(spec, values)
    ann = annealed_band_weights(delta, beta, lam, spec)
    for name in ("S1", "S2", "S3"):
        assert math.isclose(ann[name], brute[name], rel_tol=1e-12), name


def test_exact_glauber_band_masses_match_pmf():
    g = complete_graph(4)
    beta, lam = 0.7, 1.2
    table = exact_partition_table(g, beta)
    pmf = size_distribution(table, lam)
    spec = GlauberBandSpec(n=4, k1=4, k2=1, inner=1, outer=2)
    w = exact_band_weights(g, beta, spec, lam=lam)
    assert math.isclose(math.exp(w["S1"]), pmf[4], rel_tol=1e-12)
    assert math.isclose(math.exp(w["S2"]), pmf[0] + pmf[1] + pmf[2], rel_tol=1e-12)
    assert math.isclose(math.exp(w["S3"]), pmf[3], rel_tol=1e-12)


def test_exact_glauber_band_weights_are_table_sums():
    """Each set's log weight is the log-sum of the table's log weights over
    its sizes, less log Z; the spec refuses a vector of the wrong length."""
    g = random_regular(10, 3, seed=2)
    beta, lam = 0.8, 0.9
    table = exact_partition_table(g, beta)
    spec = GlauberBandSpec(n=10, k1=9, k2=3, inner=1, outer=3)
    w = exact_band_weights(g, beta, spec, lam=lam)
    log_w = table.log_weights_by_k(lam)
    for name, band in zip(("S1", "S2", "S3"), spec.sets()):
        want = math.log(sum(math.exp(log_w[j]) for j in band)) - table.log_z(lam)
        assert math.isclose(w[name], want, rel_tol=1e-12), name
    assert spec.log_total(log_w) == table.log_z(lam)
    with pytest.raises(InvalidInputError, match="one value per size"):
        spec.log_weights(log_w[:-1])
    with pytest.raises(InvalidInputError, match="one value per size"):
        exact_band_weights(cycle_graph(6), 1.0, UnionBandSpec(
            base_n=8, m=2, ell=1, k_plus=7, k_minus=1, eps=1))


def test_conductance_report_disconnected():
    rep = conductance_lower_bound_report({"S2": math.log(0.3), "S3": NEG_INF})
    assert rep.disconnected
    assert rep.ratio_s3_s2 == 0.0
    assert rep.log_ratio == NEG_INF


def test_conductance_report_ratio():
    rep = conductance_lower_bound_report({"S2": math.log(0.5), "S3": math.log(0.0001)})
    assert math.isclose(rep.ratio_s3_s2, 2e-4)
    assert rep.bottleneck_flag
    rep2 = conductance_lower_bound_report({"S2": -3.0, "S3": -30.0})
    assert rep2.bottleneck_flag
    with pytest.raises(InvalidInputError):
        conductance_lower_bound_report({"S2": NEG_INF, "S3": math.log(0.1)})


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def test_glauber_trace_beta0_equilibrates_to_binomial():
    g = random_regular(200, 3, seed=0, simple=True)
    for start in ("all_plus", "all_minus"):
        tr = run_glauber_trace(g, 0.0, 1.0, start, T=20000, seed=5,
                               record_every=100)
        tail = tr.etas[len(tr.etas) // 2:]
        assert abs(np.mean(tail)) < 0.05  # Binomial(n, 1/2) band


def test_glauber_trace_dwell_and_hit():
    g = random_regular(300, 3, seed=2, simple=True)
    beta, lam = 1.2, 1.01
    bp, bm = trace_bands(3, beta, lam)
    tr = run_glauber_trace(g, beta, lam, "all_minus", T=100_000, seed=3,
                           record_every=100, band_plus=bp, band_minus=bm)
    assert tr.hit_minus >= 0  # finds its metastable band quickly
    # n = 300 still fluctuates out of the band; the acceptance suite holds
    # the 0.95 bar at n = 1000
    assert tr.dwell_minus > 0.75
    assert tr.censored_plus  # never crosses at this size/time


def test_glauber_trace_reproducible():
    g = random_regular(50, 3, seed=4, simple=True)
    a = run_glauber_trace(g, 0.5, 1.0, "all_plus", T=5000, seed=9)
    b = run_glauber_trace(g, 0.5, 1.0, "all_plus", T=5000, seed=9)
    assert np.array_equal(a.etas, b.etas)


def test_kawasaki_trace_preserves_counts():
    u = disjoint_union(cycle_graph(6), 2)
    res = run_kawasaki_trace(u.graph, 0.8, 6, "band_sample", T=2000, seed=7,
                             component_of=u.component_of, record_every=50)
    for counts in res["component_counts"]:
        assert sum(counts) == 6
    assert sum(1 for s in res["spins"] if s == 1) == 6


def test_dwell_fractions_sum_below_one_with_coinciding_bands():
    # in the uniqueness regime eta+ = eta-, so both bands coincide; the
    # exclusive dwell counting keeps the invariant sum <= 1
    g = random_regular(100, 3, seed=6, simple=True)
    lam = 1.6  # above lambda_u(3, 1.2) = 1.0316
    bp, bm = trace_bands(3, 1.2, lam)
    assert bp == bm
    tr = run_glauber_trace(g, 1.2, lam, "all_minus", T=50_000, seed=8,
                           record_every=1000, band_plus=bp, band_minus=bm)
    assert tr.dwell_plus + tr.dwell_minus <= 1.0
    assert tr.hit_plus >= 0 and tr.hit_minus >= 0


@pytest.mark.parametrize("delta, beta, lam", [
    (3, 1.2, 1.01), (4, LN2 + 0.1, 1.01), (3, 1.2, 1.0), (3, 1.2, 1.6),
])
def test_trace_bands_match_separate_solves(delta, beta, lam):
    """One tree solve gives the same floats as eta+, eta- and the default
    half-width solved one at a time."""
    eps = default_band_epsilon(delta, beta, lam)
    ep, em = eta_plus(delta, beta, lam), eta_minus(delta, beta, lam)
    assert trace_bands(delta, beta, lam) == ((ep - eps, ep + eps),
                                             (em - eps, em + eps))
    assert trace_bands(delta, beta, lam, eps=0.05) == ((ep - 0.05, ep + 0.05),
                                                       (em - 0.05, em + 0.05))


def test_default_band_epsilon_regimes():
    eps_meta = default_band_epsilon(4, LN2 + 0.1, 1.01)
    assert 0 < eps_meta < 0.5
    eps_unique = default_band_epsilon(4, LN2 + 0.1, 1.5)
    assert 0 < eps_unique <= 0.1


def test_default_band_epsilon_matches_landscape_scan():
    """The tree roots give the band half-width that a landscape scan gives."""
    for delta, beta, lam in [
        (4, LN2 + 0.1, 1.01),  # metastable
        (3, 1.2, 1.0),  # symmetric
        (4, LN2 + 0.1, 1.5),  # unique
    ]:
        etas = [p.eta for p in critical_points(delta, beta, lam, grid_resolution=1e-3)]
        if len(etas) >= 2:
            want = min(b - a for a, b in zip(etas, etas[1:])) / 2
        else:
            want = min(0.1, (1 - abs(etas[0])) / 2)
        got = default_band_epsilon(delta, beta, lam)
        assert abs(got - want) <= 1e-6, (delta, beta, lam, got, want)


def test_mc_band_occupancy_ratio_decreases_in_n():
    """Censored long-run pi-hat(S3)/pi-hat(S2) decays along the graph family."""
    from isinglab.measures import k_of_eta
    from isinglab.metastability import mc_band_occupancy_ratio

    delta, beta, lam = 4, LN2 + 0.3, 1.005
    em = eta_minus(delta, beta, lam)
    ep = eta_plus(delta, beta, lam)
    ratios = []
    for n in (200, 400, 800):
        inner = round(0.02 * n)
        spec = GlauberBandSpec(
            n=n, k1=k_of_eta(n, ep), k2=k_of_eta(n, em),
            inner=inner, outer=2 * inner,
        )
        g = random_regular(n, delta, seed=1, simple=True)
        res = mc_band_occupancy_ratio(g, beta, lam, spec, T=1000 * n, seed=5)
        assert res["occupancy_s2"] > 0
        ratios.append(res["ratio"])
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


# ---------------------------------------------------------------------------
# Overlap
# ---------------------------------------------------------------------------


def test_overlap_basic():
    s = [1, -1, 1, 1]
    assert overlap(s, s) == 1.0
    assert overlap(s, [-x for x in s]) == -1.0
    with pytest.raises(InvalidInputError):
        overlap([1, -1], [1, -1, 1])


def test_overlap_independent_uniform_concentrates():
    rng = make_rng(11)
    n = 10_000
    hits = 0
    for _ in range(50):
        a = rng.choice([-1, 1], size=n)
        b = rng.choice([-1, 1], size=n)
        if abs(overlap(a, b)) <= 0.05:
            hits += 1
    assert hits >= 49  # |nu| <= 5 sd's of 1/sqrt(n)


# ---------------------------------------------------------------------------
# Partition-ratio bounds
# ---------------------------------------------------------------------------


def test_partition_ratio_tight_at_beta0():
    g = complete_graph(4)
    rep = partition_ratio_bounds(g, 0.0, 1.3, k=0, t=4)
    assert rep.satisfied and rep.tight


def test_partition_ratio_k4():
    g = complete_graph(4)
    rep = partition_ratio_bounds(g, 1.0, 1.0, k=0, t=4)
    assert rep.satisfied


def test_partition_ratio_rings_all_k():
    g = cycle_graph(8)
    for beta in (0.2, 1.0):
        table = exact_partition_table(g, beta)
        for lam in (0.5, 2.0):
            rep = partition_ratio_bounds(g, beta, lam, k=0, t=8, table=table)
            assert rep.satisfied, (beta, lam)


# ---------------------------------------------------------------------------
# Union parameter search
# ---------------------------------------------------------------------------


def test_union_parameters_midpoint():
    # eta = 0 <= eta_c: exact rational combination at lam = 1 with m = 2
    params = find_union_parameters(4, LN2 + 0.1, 0.0)
    assert (params.m, params.ell) == (2, 1)
    assert params.lam_plus == 1.0
    assert params.residual() <= 1e-10


def test_union_parameters_above_eta_c():
    delta, beta = 3, 1.2
    eta_c = eta_plus(delta, beta, 1.0)
    eta_u = eta_plus(delta, beta, lambda_u(delta, beta))
    target = 0.5 * (eta_c + eta_u)
    params = find_union_parameters(delta, beta, target)
    assert 1.0 < params.lam_plus < lambda_u(delta, beta)
    assert params.residual() <= 1e-10
    assert params.eta_minus < target < params.eta_plus


def test_union_parameters_lam_plus_pinned():
    # one tree solve per lambda gives the bisection the same values as
    # separate eta+/eta- solves did, so lam_plus keeps its float
    params = find_union_parameters(3, 1.2, 0.3)
    assert (params.m, params.ell) == (3, 2)
    assert params.lam_plus == float.fromhex("0x1.06625ea5517e6p+0")
    assert params.eta_plus == eta_plus(3, 1.2, params.lam_plus)
    assert params.eta_minus == eta_minus(3, 1.2, params.lam_plus)


def test_union_parameters_requires_nonuniqueness():
    from isinglab.errors import NoNonuniquenessError

    with pytest.raises(NoNonuniquenessError):
        find_union_parameters(4, 0.3, 0.0)
