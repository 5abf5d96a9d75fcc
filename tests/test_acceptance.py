"""Acceptance suite: nine exact-oracle and qualitative-reproduction criteria.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line;
``python tests/test_acceptance.py`` runs them standalone, and pytest runs
them as ordinary tests.
"""

import math
import time
from itertools import combinations, product

import numpy as np
from scipy.stats import chi2

from isinglab.dynamics import (
    ChainKernel,
    CoupledKawasaki,
    build_transition_matrix,
)
from isinglab.graphs import random_regular
from isinglab.measures import (
    EMPTY_PINNING,
    IsingParams,
    SpinConfiguration,
    exact_partition_table,
    size_distribution,
)
from isinglab.meanfield import critical_points
from isinglab.metastability import run_glauber_trace, trace_bands
from isinglab.rng import make_rng
from isinglab.spectral import (
    edgeworth_pmf,
    fixed_mag_distribution,
    gap_factorization_check,
    influence_matrix,
    lclt_error,
    local_expansion_zetas,
    local_to_global_gap_bound,
    local_walk,
    spectral_gap,
)
from isinglab.thresholds import beta_u, eta_of_fixed_point, lambda_u, tree_fixed_points

from conftest import (
    complete_graph,
    csr,
    cycle_graph,
    exact_test_set,
    fixed_mag_prob,
    gibbs_prob,
    partition_ratio_bounds,
    plus_sets,
)

LN2 = math.log(2)


def report(number, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.1f}s) {detail}")
    return passed


# ---------------------------------------------------------------------------
# 1. Exact-measure oracle suite
# ---------------------------------------------------------------------------


def criterion_1():
    t0 = time.time()
    worst = 0.0
    for name, g in exact_test_set().items():
        for beta in (0.0, 0.5, 1.2):
            table = exact_partition_table(g, beta)
            for lam in (0.5, 1.0, 2.0):
                pmf = size_distribution(table, lam)
                params = IsingParams(beta, lam)
                for spins in product((-1, 1), repeat=g.n):
                    sigma = SpinConfiguration.from_spins(g, spins)
                    k = sigma.plus_count
                    lhs = fixed_mag_prob(g, beta, k, EMPTY_PINNING, sigma,
                                         table=table)
                    rhs = gibbs_prob(g, params, EMPTY_PINNING, sigma,
                                     table=table) / pmf[k]
                    worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    passed = worst <= 1e-10 and elapsed < 60
    return report(1, passed, elapsed, f"max |mu-hat - mu/P(X=k)| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Chain stationarity / reversibility / comparison
# ---------------------------------------------------------------------------


def _stationarity_errors(tm):
    """max |piK - pi| and max |F - F^T| for the flux F = diag(pi) K, both on
    the sparse kernel."""
    stat = float(np.max(np.abs(tm.pi @ tm.K - tm.pi)))
    F = csr(tm.K).multiply(tm.pi[:, None])
    db = float(abs(F - F.T).max())
    return stat, db


def criterion_2():
    t0 = time.time()
    worst_stat = worst_db = 0.0
    worst_ratio_excess = 0.0
    for name, g in exact_test_set().items():
        delta = g.delta_max
        for beta in (0.0, 0.5, 1.2):
            for lam in (0.5, 1.0, 2.0):
                tm = build_transition_matrix(
                    ChainKernel("glauber", beta=beta, lam=lam), g
                )
                s, d = _stationarity_errors(tm)
                worst_stat, worst_db = max(worst_stat, s), max(worst_db, d)
            bound = math.exp(2 * beta * delta) * (delta + 1) ** 2
            for k in range(1, g.n):
                kq = build_transition_matrix(
                    ChainKernel("kawasaki", beta=beta, k=k), g
                )
                dq = build_transition_matrix(
                    ChainKernel("downup", beta=beta, k=k), g
                )
                for tm in (kq, dq):
                    s, d = _stationarity_errors(tm)
                    worst_stat, worst_db = max(worst_stat, s), max(worst_db, d)
                dq_states = plus_sets(dq.states)
                order = [dq_states.index(s2) for s2 in plus_sets(kq.states)]
                Pk, Pd = kq.P, dq.P[np.ix_(order, order)]
                off = ~np.eye(len(kq.states), dtype=bool)
                mask = off & ((Pk > 0) | (Pd > 0))
                ratio = Pk[mask] / Pd[mask]
                worst_ratio_excess = max(
                    worst_ratio_excess, ratio.max() / bound, 1 / (ratio.min() * bound)
                )
            for k, ell in ((2, 1), (3, 1), (3, 2)):
                if k >= g.n:
                    continue
                tm = build_transition_matrix(
                    ChainKernel("kl_downup", beta=beta, k=k, ell=ell), g
                )
                s, d = _stationarity_errors(tm)
                worst_stat, worst_db = max(worst_stat, s), max(worst_db, d)
    elapsed = time.time() - t0
    passed = (
        worst_stat <= 1e-10 and worst_db <= 1e-10
        and worst_ratio_excess <= 1.0 and elapsed < 120
    )
    return report(
        2, passed, elapsed,
        f"max |piP - pi| = {worst_stat:.2e}, max DB residual = {worst_db:.2e}, "
        f"comparison excess = {worst_ratio_excess:.3f}",
    )


# ---------------------------------------------------------------------------
# 3. Gap factorization
# ---------------------------------------------------------------------------


FACTORIZATION_INSTANCES = [
    ("K4", 2, (1,)),
    ("C5", 2, (1,)),
    ("C5", 3, (1, 2)),
    ("C6", 2, (1,)),
    ("C6", 3, (1, 2)),
]


def criterion_3():
    t0 = time.time()
    graphs = exact_test_set()
    violations = 0
    min_slack = math.inf
    for gname, k, ells in FACTORIZATION_INSTANCES:
        g = graphs[gname]
        for ell in ells:
            for beta in (0.0, 0.5, 1.0):
                rep = gap_factorization_check(g, beta, k, ell)
                if not rep.satisfied:
                    violations += 1
                min_slack = min(min_slack, rep.gap_full - rep.product)
    elapsed = time.time() - t0
    passed = violations == 0
    return report(3, passed, elapsed,
                  f"violations = {violations}, min slack = {min_slack:.3e}")


# ---------------------------------------------------------------------------
# 4. Local-to-global bound and the influence-eigenvalue bound
# ---------------------------------------------------------------------------


def criterion_4():
    t0 = time.time()
    graphs = exact_test_set()
    ok = True
    details = []
    for gname, k, ells in FACTORIZATION_INSTANCES:
        g = graphs[gname]
        for beta in (0.0, 0.5, 1.0):
            X, probs = fixed_mag_distribution(g, beta, k)
            zetas = local_expansion_zetas(g, beta, k)
            for ell in ells:
                tm = build_transition_matrix(
                    ChainKernel("kl_downup", beta=beta, k=k, ell=ell), g
                )
                gap = spectral_gap(tm)
                bound = local_to_global_gap_bound(zetas, ell).bound
                if gap < bound - 1e-10:
                    ok = False
                    details.append(f"{gname} k={k} ell={ell} beta={beta}")
            # every local walk against its influence-eigenvalue bound
            for m in range(k - 1):
                for u in combinations(range(g.n), m):
                    lw = local_walk(X, probs, u, k)
                    keep = X[:, list(u)].all(axis=1)
                    sp = probs[keep] / probs[keep].sum()
                    infl = influence_matrix(X[keep], sp)
                    ib = (infl.top_eigenvalue - 1) / (k - m - 1)
                    if lw.second_eigenvalue > ib + 1e-10:
                        ok = False
                        details.append(f"infl@{gname} k={k} U={u} beta={beta}")
    # equality case: uniform C(4, 2), U = empty -> second eigenvalue -1/3
    g4 = graphs["K4"]
    X, probs = fixed_mag_distribution(g4, 0.0, 2)
    lw = local_walk(X, probs, (), 2)
    infl = influence_matrix(X, probs)
    eq = abs(lw.second_eigenvalue + 1 / 3) < 1e-12 and abs(
        (infl.top_eigenvalue - 1) / 1 + 1 / 3
    ) < 1e-12
    ok = ok and eq
    elapsed = time.time() - t0
    return report(4, ok, elapsed,
                  f"equality case -1/3 reproduced: {eq}; issues: {details or 'none'}")


# ---------------------------------------------------------------------------
# 5. Phase anchors
# ---------------------------------------------------------------------------


def criterion_5():
    t0 = time.time()
    checks = {}
    checks["beta_u(4) = ln 2"] = abs(beta_u(4) - LN2) <= 1e-12
    beta = LN2 + 0.1
    fps_meta = tree_fixed_points(4, beta, 1.01)
    checks["3 roots at lam = 1.01"] = len(fps_meta) == 3
    checks["outer two stable"] = (
        fps_meta[0].stable and not fps_meta[1].stable and fps_meta[2].stable
    )
    fps_uni = tree_fixed_points(4, beta, 1.08)
    checks["1 stable root at lam = 1.08"] = len(fps_uni) == 1 and fps_uni[0].stable
    lu = lambda_u(4, beta)
    checks["lambda_u in (1.01, 1.08)"] = 1.01 < lu < 1.08
    corr_ok = True
    for lam in (1.01, 1.08):
        fps = tree_fixed_points(4, beta, lam)
        pts = critical_points(4, beta, lam, grid_resolution=1e-3)
        if len(fps) != len(pts):
            corr_ok = False
            continue
        for fp, pt in zip(fps, pts):
            if abs(eta_of_fixed_point(fp.R, beta) - pt.eta) > 1e-6:
                corr_ok = False
            want = "local-max" if fp.stable else "local-min"
            if not fp.marginal and pt.classification != want:
                corr_ok = False
    checks["fixed-point/landscape correspondence to 1e-6"] = corr_ok
    elapsed = time.time() - t0
    passed = all(checks.values()) and elapsed < 10
    failing = [k for k, v in checks.items() if not v]
    return report(5, passed, elapsed,
                  f"lambda_u = {lu:.6f}; " + ("all anchors hold" if not failing
                                              else f"failing: {failing}"))


# ---------------------------------------------------------------------------
# 6. Edgeworth / LCLT
# ---------------------------------------------------------------------------


def criterion_6():
    t0 = time.time()
    exact_center = math.comb(100, 50) / 2**100  # independent binomial oracle
    gauss = edgeworth_pmf([50.0, 25.0], [0.0], d=0).values[0]
    binom_ok = abs(exact_center - gauss) <= 2.5e-4
    errs0, errs2 = [], []
    for n in (12, 16, 20):
        table = exact_partition_table(cycle_graph(n), 0.5)
        errs0.append(lclt_error(table, 1.2, d=0).scaled_sup_error)
        errs2.append(lclt_error(table, 1.2, d=2).scaled_sup_error)
    below = all(e2 < e0 for e2, e0 in zip(errs2, errs0))
    decreasing = all(a > b for a, b in zip(errs2, errs2[1:]))
    elapsed = time.time() - t0
    passed = binom_ok and below and decreasing and elapsed < 60
    return report(
        6, passed, elapsed,
        f"|binom - gauss| = {abs(exact_center - gauss):.2e}; "
        f"d2 errors {['%.2e' % e for e in errs2]} vs d0 {['%.2e' % e for e in errs0]}",
    )


# ---------------------------------------------------------------------------
# 7. Coupling contraction
# ---------------------------------------------------------------------------


def _collect_coupling_stats(g, beta, k, steps, seed):
    """(D_t, B_t, D_{t+1}, B_{t+1}) samples; restarts on coalescence."""
    driver = CoupledKawasaki(g, beta=beta, k=k, pinned=EMPTY_PINNING,
                             phi=1.0)
    rng = make_rng(seed)
    rows = []
    state = None
    for _ in range(steps):
        if state is None or not state.D:
            xs = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
            ys = tuple(int(v) for v in rng.choice(g.n, size=k, replace=False))
            state = driver.make_state(xs, ys)
            if not state.D:
                continue
        nxt = driver.step(state, rng)
        rows.append((len(state.D), len(state.B), len(nxt.D), len(nxt.B)))
        state = nxt
    return np.array(rows, dtype=float)


def _fit_phi(samples, k, n):
    """phi = a1 / (2 b2) from least-squares fits of the two drift relations."""
    D, B, D1, B1 = samples.T
    kp = float(k)
    # E[dB] = -(a1/k') B + (a2/(n-k)) D
    Xb = np.column_stack([-B / kp, D / (n - k)])
    a1, a2 = np.linalg.lstsq(Xb, B1 - B, rcond=None)[0]
    # E[dD] = -(b1/k') D + (b2/k') B
    Xd = np.column_stack([-D / kp, B / kp])
    b1, b2 = np.linalg.lstsq(Xd, D1 - D, rcond=None)[0]
    return a1, a2, b1, b2


def criterion_7():
    t0 = time.time()
    g = random_regular(60, 3, seed=5, simple=True)
    beta = 0.2

    # phi fit needs bad disagreements, so it runs at k = 12; the literal
    # k = floor(0.02 n) = 1 reading leaves B empty (see decisions ledger)
    k = 12
    pilot = np.vstack([
        _collect_coupling_stats(g, beta, k, steps=2000, seed=100 + s)
        for s in range(5)
    ])
    a1, a2, b1, b2 = _fit_phi(pilot, k, g.n)
    phi_ok = a1 > 0 and b2 > 0
    phi = a1 / (2 * b2) if phi_ok else 0.5

    drops = []
    rhos = []
    for s in range(20):
        samples = _collect_coupling_stats(g, beta, k, steps=10_000, seed=200 + s)
        D, B, D1, B1 = samples.T
        rho_t = phi * D + B
        rho_t1 = phi * D1 + B1
        keep = rho_t > 0
        drops.append(np.mean(rho_t1[keep] - rho_t[keep]))
        rhos.append(np.mean(rho_t[keep]))
    c_fit = -k * np.mean(drops) / np.mean(rhos)
    contraction_ok = c_fit > 0

    # literal k = 1 bound: rho = phi |D| contracts trivially fast
    k1_samples = np.vstack([
        _collect_coupling_stats(g, beta, 1, steps=2000, seed=300 + s)
        for s in range(5)
    ])
    D, B, D1, B1 = k1_samples.T
    keep = D > 0
    c1 = -1 * np.mean(D1[keep] - D[keep]) / np.mean(D[keep])
    k1_ok = c1 > 0

    # marginal correctness: per-state chi-square at 1% on exact K4
    g4 = complete_graph(4)
    driver = CoupledKawasaki(g4, beta=0.7, k=2, pinned=EMPTY_PINNING,
                             phi=phi)
    tm = build_transition_matrix(ChainKernel("kawasaki", beta=0.7, k=2), g4)
    rng = make_rng(11)
    start = driver.make_state((0, 1), (2, 3))
    N = 100_000
    counts = {}
    for _ in range(N):
        out = driver.step(start, rng)
        key = frozenset(out.X)
        counts[key] = counts.get(key, 0) + 1
    states = plus_sets(tm.states)
    row = tm.P[states.index(frozenset({0, 1}))]
    chi_stat = 0.0
    dof = -1
    for s, p in zip(states, row):
        if p <= 0:
            continue
        exp = p * N
        obs = counts.get(s, 0)
        chi_stat += (obs - exp) ** 2 / exp
        dof += 1
    chi_ok = chi_stat <= chi2.ppf(0.99, dof)

    elapsed = time.time() - t0
    passed = phi_ok and contraction_ok and k1_ok and chi_ok and elapsed < 300
    return report(
        7, passed, elapsed,
        f"phi = {phi:.3f} (a1 = {a1:.3f}, b2 = {b2:.3f}), fitted c = {c_fit:.3f}, "
        f"k=1 c = {c1:.3f}, chi2 = {chi_stat:.1f} (dof {dof})",
    )


# ---------------------------------------------------------------------------
# 8. Metastability shadow
# ---------------------------------------------------------------------------


def criterion_8():
    # Simple graphs here: multigraph defects (loops, parallel edges)
    # visibly widen the magnetization fluctuations at n = 1000.
    t0 = time.time()
    delta, beta, lam = 3, 1.2, 1.01
    lu = lambda_u(delta, beta)
    inside = 1.0 < lam < lu
    n = 1000
    T = int(100 * n * math.log(n))
    bp, bm = trace_bands(delta, beta, lam)
    dwell_hits = 0
    for seed in range(20):
        g = random_regular(n, delta, seed=seed, simple=True)
        tr = run_glauber_trace(g, beta, lam, "all_minus", T, seed=seed + 1000,
                               record_every=T, band_plus=bp, band_minus=bm)
        if tr.dwell_minus >= 0.95:
            dwell_hits += 1
    lam2 = 1.5 * lu
    bp2, bm2 = trace_bands(delta, beta, lam2)
    cross_hits = 0
    for seed in range(20):
        g = random_regular(n, delta, seed=seed, simple=True)
        tr = run_glauber_trace(g, beta, lam2, "all_minus", T, seed=seed + 2000,
                               record_every=T, band_plus=bp2, band_minus=bm2)
        if tr.hit_plus >= 0:
            cross_hits += 1
    elapsed = time.time() - t0
    passed = inside and dwell_hits >= 18 and cross_hits == 20 and elapsed < 900
    return report(
        8, passed, elapsed,
        f"simple graphs; lam = {lam} in (1, {lu:.4f}); dwell >= 0.95 in "
        f"{dwell_hits}/20 seeds; crossed at lam = 1.5 lambda_u in {cross_hits}/20",
    )


# ---------------------------------------------------------------------------
# 9. Partition-ratio bounds
# ---------------------------------------------------------------------------


def criterion_9():
    t0 = time.time()
    ok = True
    tight_ok = True
    for name, g in exact_test_set().items():
        for beta in (0.2, 1.0):
            table = exact_partition_table(g, beta)
            for lam in (0.5, 2.0):
                rep = partition_ratio_bounds(g, beta, lam, k=0, t=g.n,
                                             table=table)
                ok = ok and rep.satisfied
        table0 = exact_partition_table(g, 0.0)
        for lam in (0.5, 2.0):
            rep0 = partition_ratio_bounds(g, 0.0, lam, k=0, t=g.n, table=table0)
            tight_ok = tight_ok and rep0.satisfied and rep0.tight
    elapsed = time.time() - t0
    passed = ok and tight_ok
    return report(9, passed, elapsed,
                  f"all inequalities hold; beta = 0 tight: {tight_ok}")


# ---------------------------------------------------------------------------
# pytest wrappers and standalone runner
# ---------------------------------------------------------------------------


def test_criterion_1():
    assert criterion_1()


def test_criterion_2():
    assert criterion_2()


def test_criterion_3():
    assert criterion_3()


def test_criterion_4():
    assert criterion_4()


def test_criterion_5():
    assert criterion_5()


def test_criterion_6():
    assert criterion_6()


def test_criterion_7():
    assert criterion_7()


def test_criterion_8():
    assert criterion_8()


def test_criterion_9():
    assert criterion_9()


def main():
    results = [
        criterion_1(), criterion_2(), criterion_3(), criterion_4(),
        criterion_5(), criterion_6(), criterion_7(), criterion_8(),
        criterion_9(),
    ]
    print(f"{sum(results)}/9 acceptance criteria passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    sys.exit(main())
