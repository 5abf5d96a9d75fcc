"""Annealed first-moment landscape on random regular graphs.

For magnetization eta, the expected contribution of magnetization-eta
configurations to the partition function of the configuration model grows
like e^{n f(eta)} with

    f(eta) = max_B g(eta, B),
    g(eta, B) = -(delta-1) H((1+eta)/2) - (delta/2) sum_{ij} B(i,j) log B(i,j)
                + (beta delta/2) sum_i B(i,i) + (1+eta)/2 * log(lambda),

where B is the symmetric 2x2 edge-statistics matrix with row sums
(1+eta)/2 and (1-eta)/2 and H is the binary entropy.  The inner maximum is
one-dimensional in the bichromatic fraction b0 and strictly concave; its
stationarity condition is a quadratic in b0, so B*(eta) is in closed form.
``_curve`` builds f for one (delta, beta, lambda) with its constants computed
once; ``f_eta``, the landscape grid and the critical-point scan all evaluate
that one curve.  Critical points of f come from a sign-change scan of a
central difference of f and are classified by the analytic f'', got by
differentiating that quadratic along eta.

Also provides the finite-n annealed value log E[Z_{G,k}] computed exactly in
log space from binomials and double factorials.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, lgamma, log, sqrt

from .errors import InvalidInputError
from .thresholds import bisect_root

ETA_CLIP = 1e-6  # landscape grids stay inside [-1 + clip, 1 - clip]
MARGINAL_F2_BAND = 1e-8


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * log(x) - (1 - x) * log(1 - x)


@dataclass(frozen=True)
class EdgeStatistics:
    """Per-edge color statistics (b_plus, b_zero, b_minus) at magnetization eta."""

    eta: float
    b_plus: float
    b_zero: float
    b_minus: float
    boundary: bool = False


def _b0_root(a: float, c: float, four_e: float) -> tuple:
    """(b0, q, s) of ``maximize_B`` at row sums a, c, given four_e = 4(e^{2 beta}-1)."""
    q = four_e * a * c
    s = 1 + sqrt(1 + q)
    return 2 * a * c / s, q, s


def maximize_B(eta: float, delta: int, beta: float, lam: float) -> EdgeStatistics:
    """Unique maximizer of g(eta, .) on the constraint set, in closed form.

    g is strictly concave in b0; its stationarity condition b0^2 e^{2 beta} =
    b_plus b_minus is (e^{2 beta}-1) b0^2 + b0 - ac = 0, a, c = (1 +- eta)/2.
    With q = 4(e^{2 beta}-1)ac and s = 1 + sqrt(1 + q) the root is b0 = 2ac/s,
    b_plus = a(2a + q/s)/s and b_minus = c(2c + q/s)/s.  Nothing cancels, so
    b_minus keeps full relative precision as |eta| -> 1, and |eta| = 1 gives
    b0 = 0.  Points within ETA_CLIP of |eta| = 1 set ``boundary``.
    """
    if not (-1.0 <= eta <= 1.0):
        raise InvalidInputError("eta must lie in [-1, 1]")
    a, c = (1 + eta) / 2, (1 - eta) / 2
    b0, q, s = _b0_root(a, c, 4 * expm1(2 * beta))
    d = q / s  # sqrt(1 + q) - 1 without cancellation
    return EdgeStatistics(
        eta=eta, b_plus=a * (2 * a + d) / s, b_zero=b0,
        b_minus=c * (2 * c + d) / s, boundary=abs(eta) >= 1 - ETA_CLIP,
    )


def _curve(delta: int, beta: float, lam: float):
    """f(eta) = g(eta, B*(eta)) at fixed (delta, beta, lambda), for eta in [-1, 1].

    The constants of g and of the quadratic are computed once, here; each
    call finds b0 as ``maximize_B`` does and evaluates g at it with the same
    float operations in the same order, so the curve equals g(eta, b0 of
    ``maximize_B``) bit for bit.  An e^{2 beta} beyond float range raises
    OverflowError here rather than at the first call.
    """
    four_e = 4 * expm1(2 * beta)
    entropy_w = -(delta - 1)
    half_delta = delta / 2
    mono_w = beta * delta / 2
    log_lam = log(lam)

    def f(eta: float) -> float:
        a, c = (1 + eta) / 2, (1 - eta) / 2
        b0 = _b0_root(a, c, four_e)[0]
        bp = a - b0
        bm = c - b0
        ent = 0.0
        if bp > 0:
            ent += bp * log(bp)
        if bm > 0:
            ent += bm * log(bm)
        if b0 > 0:
            ent += 2 * b0 * log(b0)
        return (
            entropy_w * binary_entropy(a)
            - half_delta * ent
            + mono_w * (bp + bm)
            + a * log_lam
        )

    return f


def f_eta(eta: float, delta: int, beta: float, lam: float) -> float:
    """Annealed free-energy curve f(eta) = g(eta, B*(eta))."""
    if not (-1.0 <= eta <= 1.0):
        raise InvalidInputError("eta must lie in [-1, 1]")
    return _curve(delta, beta, lam)(eta)


@dataclass(frozen=True)
class LandscapePoint:
    eta: float
    f_value: float
    classification: str  # local-max | local-min | inflection


def _f_second_derivative(eta: float, delta: int, beta: float) -> float:
    """Analytic f''(eta), which does not depend on lambda.

    f'' = (delta-1)/(1-eta^2) - delta/4 (b_plus'/b_plus - b_minus'/b_minus)
    with b_plus' = 1/2 - b0', b_minus' = -1/2 - b0', and b0' from
    differentiating the stationarity condition along eta.
    """
    st = maximize_B(eta, delta, beta, 1.0)
    bp, b0, bm = st.b_plus, st.b_zero, st.b_minus
    db0 = -eta / (2 * (2 * bp * bm / b0 + bp + bm))
    return ((delta - 1) / (1 - eta**2)
            - delta / 4 * ((0.5 - db0) / bp + (0.5 + db0) / bm))


def critical_points(
    delta: int, beta: float, lam: float, grid_resolution: float = 1e-3
) -> list:
    """Interior critical points of f, located by a sign-change scan of the
    central difference of f with step grid_resolution/8, each sign change
    bisected to adjacent floats.  The scan, the bisection and the reported
    f values all read one ``_curve``.

    Classification is by the sign of f'' with a marginal band mapped to
    'inflection'.
    """
    if grid_resolution < 1e-4:
        raise InvalidInputError("grid resolution below 1e-4 is not supported")
    step = grid_resolution
    h = max(step / 8, 1e-6)
    lo, hi = -1 + ETA_CLIP + 2 * h, 1 - ETA_CLIP - 2 * h
    n_steps = int((hi - lo) / step)
    if n_steps < 1:
        raise InvalidInputError(f"grid resolution {grid_resolution} leaves "
                                "no scan step in (-1, 1)")

    f = _curve(delta, beta, lam)

    def fprime(eta):
        return (f(eta + h) - f(eta - h)) / (2 * h)

    etas = [lo + i * (hi - lo) / n_steps for i in range(n_steps + 1)]
    vals = [fprime(e) for e in etas]
    found = []
    for i in range(n_steps):
        if vals[i] == 0.0:
            found.append(etas[i])
        elif (vals[i] < 0) != (vals[i + 1] < 0):
            found.append(bisect_root(fprime, etas[i], etas[i + 1], vals[i]))
    out = []
    for eta in found:
        if out and abs(eta - out[-1].eta) < 10 * grid_resolution * 1e-3:
            continue
        f2 = _f_second_derivative(eta, delta, beta)
        cls = ("inflection" if abs(f2) < MARGINAL_F2_BAND
               else "local-max" if f2 < 0 else "local-min")
        out.append(LandscapePoint(eta, f(eta), cls))
    return out


def _log_double_factorial_even_args(two_m: int) -> float:
    """log((2m-1)!!) for an even argument 2m, via log-gamma."""
    if two_m < 0 or two_m % 2:
        raise InvalidInputError("double factorial needs an even nonnegative count")
    m = two_m // 2
    return lgamma(two_m + 1) - m * log(2.0) - lgamma(m + 1)


def _log_binom(n: int, k: int) -> float:
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def annealed_log_EZ_per_k(n: int, k: int, delta: int, beta: float, lam: float) -> float:
    """Exact finite-n value of log E[Z_{G,k}(beta, lambda)] over the configuration model.

    Sums over the feasible count e0 of bichromatic edges (parity e0 = k*delta
    mod 2); choosing which plus and minus half-edges cross, matching them, and
    matching the leftovers internally gives

        P[e0] = C(P, e0) C(M, e0) e0! (P-e0-1)!! (M-e0-1)!! / (Dn-1)!!

    with P = k*delta, M = (n-k)*delta plus/minus half-edge counts, and every
    configuration contributes e^{beta (Dn/2 - e0)} monochromatic weight.
    """
    if not (0 <= k <= n):
        raise InvalidInputError("need 0 <= k <= n")
    if (n * delta) % 2:
        raise InvalidInputError("n*delta must be even")
    P = k * delta
    M = (n - k) * delta
    total = n * delta
    log_total_matchings = _log_double_factorial_even_args(total)
    terms = []
    for e0 in range(P % 2, min(P, M) + 1, 2):
        lp = (
            _log_binom(P, e0)
            + _log_binom(M, e0)
            + lgamma(e0 + 1)
            + _log_double_factorial_even_args(P - e0)
            + _log_double_factorial_even_args(M - e0)
            - log_total_matchings
        )
        terms.append(lp + beta * (total / 2 - e0))
    if not terms:
        return float("-inf")
    hi = max(terms)
    log_sum = hi + log(sum(exp(t - hi) for t in terms))
    return _log_binom(n, k) + k * log(lam) + log_sum
