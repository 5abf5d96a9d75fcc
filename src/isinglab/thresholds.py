"""Infinite-tree quantities for the ferromagnetic Ising model.

Fixed points of the degree-(delta-1) tree recursion

    R = lambda * (R e^beta + 1)^(delta-1) / (R + e^beta)^(delta-1)

drive everything here: the uniqueness thresholds beta_u and lambda_u, the
plus/minus tree magnetizations eta+/eta-, the analytic-threshold upper bound
lambda_a_bar, and the derived magnetization thresholds eta_c, eta_u,
eta_a_bar.

``tree_fixed_points`` is the one solver.  It works on the equivalent
polynomial in r = R^(1/d), d = delta - 1, c = lambda^(1/d),

    hhat(r) = r^(d+1) - c e^beta r^d + e^beta r - c,

whose positive real roots number 1 or 3 (counted with multiplicity, by
Descartes' rule of signs).  No grid is needed, because every bracket is
exact:

* hhat''(r) = d r^(d-2) ((d+1) r - (d-1) c e^beta) has the one positive zero
  r_inf = (d-1) c e^beta / (d+1), so hhat' falls and then rises.  Since
  hhat'(0) = hhat'(d c e^beta / (d+1)) = e^beta > 0, hhat' has either no
  positive zero or two, in (0, r_inf) and (r_inf, d c e^beta / (d+1)].
* hhat(0) = -c < 0 < hhat(c e^beta + 1), so every root lies in
  (0, c e^beta + 1], and hhat is monotone between the zeros of hhat'.
* hhat(c) = c (e^beta - 1)(1 - lambda), so r = c splits the range too; at
  lambda = 1 it is the symmetric fixed point R = 1, found exactly.

Each bracket is bisected to adjacent floats and each root polished by
Newton.  One rule, read off the rounding error of hhat itself, settles a
tangency: with err(r) = ROUNDING_ULPS ulps of r^(d+1) + c e^beta r^d +
e^beta r + c, a critical point rc with |hhat(rc)| <= err(rc) is one double
root, and the two pieces beside it are not bisected.  If both critical
points pass, the three roots lie within rounding of one another and come
back as one marginal root at r = c.  eta+ and eta- are the root
magnetizations of the largest and smallest fixed points, and lambda_u is
the closed-form tangency of the recursion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict

from .errors import InvalidInputError, IsinglabError, NoNonuniquenessError

MARGINAL_BAND = 1e-8
ROUNDING_ULPS = 2


def beta_u(delta: int) -> float:
    """Uniqueness threshold in beta: ln(delta / (delta - 2))."""
    if delta < 3:
        raise InvalidInputError("beta_u needs delta >= 3")
    return math.log(delta / (delta - 2))


@dataclass(frozen=True)
class TreeFixedPoint:
    """A fixed point R, classified by h'(R).  A double root, and the
    near-triple root at r = c (not flagged double), is marginal and never
    stable; a simple root is marginal when |h'(R)| is within MARGINAL_BAND
    of 1, and stable when |h'(R)| < 1 and it is not marginal."""

    R: float
    stable: bool
    marginal: bool = False
    double_root: bool = False  # a tangency of hhat (multiplicity 2)


def _recursion_value(R: float, delta: int, beta: float, lam: float) -> float:
    eb = math.exp(beta)
    return lam * ((R * eb + 1) / (R + eb)) ** (delta - 1)


def _recursion_derivative(R: float, delta: int, beta: float, lam: float) -> float:
    # h'(x) = d (e^{2 beta} - 1) h(x) / ((e^beta x + 1)(x + e^beta))
    eb = math.exp(beta)
    h = _recursion_value(R, delta, beta, lam)
    return (delta - 1) * (math.exp(2 * beta) - 1) * h / ((eb * R + 1) * (R + eb))


def bisect_root(f, a: float, b: float, fa: float | None = None) -> float:
    """Root of ``f`` on [a, b], where f(a) and f(b) differ in sign.

    Halves the bracket until its midpoint no longer falls strictly inside,
    i.e. until a and b are adjacent floats, and returns that midpoint.
    """
    if fa is None:
        fa = f(a)
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        fm = f(mid)
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid


def tree_fixed_points(delta: int, beta: float, lam: float) -> list:
    """All positive fixed points of the tree recursion, in increasing R.

    Each root is found once: a critical point where |hhat| is within its
    rounding is one double root and the pieces beside it are not searched
    (two such points are one root at r = c); every other piece whose end
    values differ in sign, or an exact zero at a breakpoint, is one root.
    """
    if delta < 3:
        raise InvalidInputError("need delta >= 3")
    if beta < 0 or lam <= 0:
        raise InvalidInputError("need beta >= 0 and lambda > 0")
    d = delta - 1
    eb = math.exp(beta)
    c = lam ** (1.0 / d)

    def hhat(r):
        return r ** (d + 1) - c * eb * r**d + eb * r - c

    def hhat_prime(r):
        return (d + 1) * r**d - d * c * eb * r ** (d - 1) + eb

    def newton_polish(r0):
        r = r0
        for _ in range(60):
            fp = hhat_prime(r)
            if fp == 0:
                break
            step = hhat(r) / fp
            r_new = r - step
            if r_new <= 0:
                break
            r = r_new
            if abs(step) <= 1e-16 * max(1.0, r):
                break
        return r

    # Exact brackets (see the module docstring): hhat' has two positive
    # zeros, one on each side of r_inf, or none.  Between them hhat is
    # monotone, which finds every simple root even when two sit arbitrarily
    # close (just before a tangency).
    r_inf = (d - 1) * c * eb / (d + 1)
    crits = []
    if hhat_prime(r_inf) < 0:
        crits = [bisect_root(hhat_prime, 0.0, r_inf),
                 bisect_root(hhat_prime, r_inf, d * c * eb / (d + 1))]
    # A critical point where hhat vanishes within its rounding error (a few
    # ulps of the sum of its terms' magnitudes) is a double root.
    ulps = ROUNDING_ULPS * sys.float_info.epsilon
    tangent = [rc for rc in crits if abs(hhat(rc))
               <= ulps * (rc ** (d + 1) + c * eb * rc**d + eb * rc + c)]
    if len(tangent) == 2:
        # all three roots lie within rounding of one another
        roots = [(c, 3)]
    else:
        # Every root lies in (0, c e^beta + 1]; r = c is the root R = 1 at lambda = 1.
        breakpoints = sorted({0.0, c, c * eb + 1.0, *crits})
        roots = []  # (r, multiplicity)
        for a, b in zip(breakpoints, breakpoints[1:]):
            if a in tangent:
                roots.append((a, 2))
            if a in tangent or b in tangent:
                continue
            fa, fb = hhat(a), hhat(b)
            if fa == 0.0:
                roots.append((a, 1))
            if min(fa, fb) < 0 < max(fa, fb):
                roots.append((newton_polish(bisect_root(hhat, a, b, fa)), 1))

    out = []
    for r, mult in roots:
        R = r**d
        deriv = _recursion_derivative(R, delta, beta, lam)
        marginal = mult > 1 or abs(abs(deriv) - 1.0) < MARGINAL_BAND
        out.append(
            TreeFixedPoint(
                R=R,
                stable=abs(deriv) < 1 and not marginal,
                marginal=marginal,
                double_root=mult == 2,
            )
        )
    return out


def eta_of_fixed_point(R: float, beta: float) -> float:
    """Magnetization of the tree root whose incoming messages equal R.

    The root likelihood ratio is T = R (R e^beta + 1)/(R + e^beta); the same
    map sends each fixed point to the critical point of the annealed
    free-energy curve it corresponds to.
    """
    eb = math.exp(beta)
    T = R * (R * eb + 1) / (R + eb)
    return (T - 1) / (T + 1)


def eta_plus(delta: int, beta: float, lam: float) -> float:
    """Mean root magnetization of the plus measure on the delta-regular tree."""
    return eta_of_fixed_point(tree_fixed_points(delta, beta, lam)[-1].R, beta)


def eta_minus(delta: int, beta: float, lam: float) -> float:
    """Mean root magnetization of the minus measure (smallest fixed point)."""
    return eta_of_fixed_point(tree_fixed_points(delta, beta, lam)[0].R, beta)


def lambda_u(delta: int, beta: float) -> float:
    """Field uniqueness threshold: where the fixed-point count drops 3 -> 1.

    The tangency system h(x) = x, h'(x) = 1 reduces to
    e^b x^2 - (d(e^{2b}-1) - 1 - e^{2b}) x + e^b = 0 with
    lambda(x) = x ((x + e^b)/(x e^b + 1))^d.  Its discriminant is positive
    exactly when beta > beta_u; the two roots have product 1 and give
    lambda_u and 1/lambda_u, the smaller root the larger lambda.  Above
    beta_u, lambda_u > 1; just above it rounding can make the discriminant
    negative (it is then 0) and the closed form a few ulps below 1, so the
    result is clamped at 1.
    """
    if beta <= beta_u(delta):
        raise NoNonuniquenessError(
            f"beta={beta} <= beta_u({delta})={beta_u(delta):.6f}: unique for all lambda"
        )
    d = delta - 1
    eb, e2b = math.exp(beta), math.exp(2 * beta)
    B = -(d * (e2b - 1) - 1 - e2b)
    x = (-B - math.sqrt(max(B * B - 4 * eb * eb, 0.0))) / (2 * eb)
    return max(1.0, x * ((x + eb) / (x * eb + 1)) ** d)


def lambda_a_bar(delta: int, beta: float) -> float:
    """Best known upper bound on the analytic threshold lambda_a.

    min{ ((delta-2) e^{2 beta} - delta) / e^{beta (2 - delta)}, e^{beta delta} };
    the first branch is nonpositive for beta <= beta_u, in which case only the
    second applies.
    """
    if delta < 3:
        raise InvalidInputError("need delta >= 3")
    second = math.exp(beta * delta)
    first_num = (delta - 2) * math.exp(2 * beta) - delta
    if first_num <= 0:
        return second
    first = first_num / math.exp(beta * (2 - delta))
    return min(first, second)


@dataclass(frozen=True)
class ThresholdSet:
    delta: int
    beta: float
    beta_u: float
    lambda_u: float | None
    lambda_a_bar: float
    eta_c: float
    eta_u: float | None
    eta_a_bar: float
    lam: float | None = None
    L_star: float | None = None
    eta_plus: float | None = None
    eta_minus: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def compute_thresholds(delta: int, beta: float, lam: float | None = None) -> ThresholdSet:
    """The threshold report for one (delta, beta), one tree solve per field.

    eta_c, eta_u and eta_a_bar are the root magnetizations of the largest
    fixed point R at lambda = 1, lambda_u and lambda_a_bar.  Above beta_u they
    must increase.  eta increases with R and is 0 at R = 1, so the check is
    1 < R_c < R_u < R_a_bar: the same order on values that, unlike eta at
    large beta, do not round to 1.
    """
    bu = beta_u(delta)
    lab = lambda_a_bar(delta, beta)
    lu = lambda_u(delta, beta) if beta > bu else None
    Rc, Ru, Ra = (None if field is None else tree_fixed_points(delta, beta, field)[-1].R
                  for field in (1.0, lu, lab))
    if lu is not None and not 1 < Rc < Ru < Ra:
        raise IsinglabError(
            f"threshold ordering violated at delta={delta}, beta={beta}: largest "
            f"fixed points R_c={Rc} R_u={Ru} R_a_bar={Ra} are not increasing above 1"
        )
    extra = {}
    if lam is not None:
        # L* = (1/2) log R solves L = (1/2) log lam + (delta-1) artanh(tanh L tanh(beta/2))
        fps = tree_fixed_points(delta, beta, lam)
        extra = {
            "lam": lam,
            "L_star": 0.5 * math.log(fps[-1].R),
            "eta_plus": eta_of_fixed_point(fps[-1].R, beta),
            "eta_minus": eta_of_fixed_point(fps[0].R, beta),
        }
    return ThresholdSet(
        delta=delta,
        beta=beta,
        beta_u=bu,
        lambda_u=lu,
        lambda_a_bar=lab,
        eta_c=eta_of_fixed_point(Rc, beta),
        eta_u=None if Ru is None else eta_of_fixed_point(Ru, beta),
        eta_a_bar=eta_of_fixed_point(Ra, beta),
        **extra,
    )
