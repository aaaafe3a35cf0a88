"""Semi-analytic option and swaption pricing for coherent models.

Every payoff considered here reduces to n! * E[(p(Z))+] with Z standard
normal and p a polynomial of degree 2n - 2.  The expectation is evaluated
exactly: isolate the real roots of p, certify the sign of p between
consecutive roots, then integrate p against the normal density over the
intervals where p is positive.

The kernel is a sum of even chaoses, so every coherent payoff is even in z:
p(z) = P(z^2) with P of degree n - 1, and its exercise region is symmetric
about 0.  An even p is solved on the half-line z >= 0 only
(_half_line_region): the roots y >= 0 of P map to z = sqrt(y), and the sign
is tested on the intervals of [0, inf) alone; _exercise_region mirrors that
region onto the whole line.  Above degree 2, Descartes's rule of signs on
P's float coefficients settles most payoffs: no sign change means no
positive root, one means exactly one, found by Newton-bisection inside a
root bound.  Only P with two or more sign changes needs the companion
matrix, of degree n - 1, not 2n - 2.  Every Newton step is one pass over
the coefficients that returns p, p' and the rounding size together, and
the sign of an even p between its roots is read from P(z^2), in half the
steps.

Every payoff and delta is a sum of squares sum_{m<n} c_m (X^(m))^2 at
expiry, N = n - m, g = 1 - Q_t, h = Q_T - Q_t, h_i = Q_{T_i} - Q_t:

    call      c_m = (1 - K) (g^N - h^N) / N! - K h^N / N!,
    swaption  c_m = h_N^N / N! - K sum_i (g^N - h_i^N) / N!,
    delta     d_m = h^(N-1) / ((N-1)! n Q_T^(n-1)),

each c_m the difference of two product_weights terms of one sign, and the
payoff in z is squares_polynomial([c_m Q_t^m], 1.0).  One sign certificate
reads the c_m first: all negative, the payoff is negative everywhere; all
positive, it is at least c_0 > 0 everywhere, on [0, inf) too.  Only the
rest build P, straight from the squares (_in_y), and only for its roots.
The price and the delta are summed in the squared form itself over the
right half and doubled, 2 n! sum_m c_m Q_t^m K_m, K_m the normal integral
of (He_m / m!)^2 over the exercise intervals on z >= 0 by its own
recurrence (_squares_moment_sum): every K_m is nonnegative, so no monomial
moment cancels.  K_0 of [0, hi] is erf(hi / sqrt 2) / 2, and every
boundary term at z = 0 is exactly zero, so on [0, inf) K_m = 1 / (2 m!).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent_model import _FACTORIALS, MAX_ORDER, CoherentModel, _squared_terms, product_weights, squares_polynomial
from .special_functions import _SQRT_2, RealPolynomial, gaussian_partial_moments, left_sum, normal_cdf, normal_pdf
from .structure_functions import check_finite

MAX_DEGREE = 30

# Newton stops once |p(x)| is within this multiple of sum |c_k| |x|^k, the
# rounding floor of evaluating p at x: further steps only wander in noise
_ROUNDING_FLOOR = 4.0 * sys.float_info.epsilon

# the standard normal density underflows to zero beyond |z| ~ 38.6, so a
# term of p too small to move it anywhere on |z| <= 40 cannot move a price
_DENSITY_REACH = 40.0

# _DENSITY_REACH**k up to the degree 2n - 2 of a payoff of the highest order,
# and the even ones: the reach of y^k = z^(2k)
_REACH_POWERS = tuple(_DENSITY_REACH**k for k in range(2 * MAX_ORDER - 1))
_REACH_SQUARES = _REACH_POWERS[::2]

# the exercise region on z >= 0 of a payoff positive on the whole line
_RIGHT_HALF = ((0.0, math.inf),)


@dataclass(frozen=True)
class BondSpec:
    """A unit-notional discount bond identified by its maturity."""

    maturity: float

    def __post_init__(self) -> None:
        check_finite("bond maturity", (self.maturity,))
        if not self.maturity > 0:
            raise ValueError(f"bond maturity must be positive, got {self.maturity}")


@dataclass(frozen=True)
class OptionSpec:
    """European call on a discount bond: exercise at t, bond matures at T."""

    option_maturity: float
    bond_maturity: float
    strike: float

    def __post_init__(self) -> None:
        check_finite("option maturity, bond maturity and strike", (self.option_maturity, self.bond_maturity, self.strike))
        if not 0 < self.option_maturity <= self.bond_maturity:
            raise ValueError(
                f"need 0 < option maturity <= bond maturity, got "
                f"{self.option_maturity} and {self.bond_maturity}"
            )
        if self.strike < 0:
            raise ValueError(f"strike must be nonnegative, got {self.strike}")


@dataclass(frozen=True)
class SwaptionSpec:
    """Payer swaption: exercise at t into fixed-rate payments at T_1..T_N.

    strike is the fixed rate paid per period; zero is allowed, collapsing
    the payoff to a forward bond spread.
    """

    option_maturity: float
    payment_dates: tuple
    strike: float

    def __post_init__(self) -> None:
        dates = tuple(float(T) for T in self.payment_dates)
        if not dates:
            raise ValueError("swaption needs at least one payment date")
        check_finite("option maturity, payment dates and strike", (self.option_maturity, *dates, self.strike))
        if self.option_maturity < 0:
            raise ValueError(f"option maturity must be nonnegative, got {self.option_maturity}")
        if not self.option_maturity < dates[0] or any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("payment dates must be strictly increasing and follow the option maturity")
        if self.strike < 0:
            raise ValueError(f"strike must be nonnegative, got {self.strike}")
        object.__setattr__(self, "payment_dates", dates)


@dataclass(frozen=True)
class PositivePartResult:
    """E[(p(Z))+] together with the certified sign decomposition of p."""

    value: float
    payoff_polynomial: RealPolynomial
    positive_intervals: tuple
    roots: tuple


def _stable_quadratic_roots(c0: float, c1: float, c2: float) -> list:
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0:
        return []
    if disc == 0:
        return [-c1 / (2.0 * c2)]
    s = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(s, c1 if c1 != 0 else 1.0))
    return sorted([q / c2, c0 / q])


def _fused_terms(c) -> tuple:
    """The coefficients of p = sum c_k x^k laid out for _fused_pass, degree >= 1:
    (c_d, d c_d, |c_d|), then (c_k, k c_k, |c_k|) for k = d - 1 .. 1, then
    (c_0, |c_0|)."""
    d = len(c) - 1
    middle = tuple((c[k], k * c[k], abs(c[k])) for k in range(d - 1, 0, -1))
    return (c[d], d * c[d], abs(c[d])), middle, (c[0], abs(c[0]))


def _fused_pass(terms, x: float) -> tuple:
    """(p(x), p'(x), sum |c_k| |x|^k) in one Horner loop.

    Each value takes the same floating-point steps as Horner's rule on p,
    on its derivative's coefficients k c_k and on |c_k| at |x|; the last
    bounds the rounding error of p(x).
    """
    (cd, dcd, acd), middle, (c0, ac0) = terms
    ax = abs(x)
    f = x * 0 + cd
    df = x * 0 + dcd
    size = ax * 0 + acd
    for ck, dck, ack in middle:
        f = f * x + ck
        df = df * x + dck
        size = size * ax + ack
    return f * x + c0, df, size * ax + ac0


def _newton_polish(terms, x: float) -> float:
    """Newton on p from x, terms = _fused_terms(p.coeffs): one pass per step."""
    for _ in range(40):
        fx, dfx, size = _fused_pass(terms, x)
        if dfx == 0 or not math.isfinite(dfx):
            break
        nxt = x - fx / dfx
        if not math.isfinite(nxt):
            break
        # the step from a point at the floor is still taken: it costs no
        # evaluation, and it lands at the root when x was merely close
        if abs(nxt - x) <= 1e-15 * max(1.0, abs(nxt)) or abs(fx) <= _ROUNDING_FLOOR * size:
            return nxt
        x = nxt
    return x


def _polished_roots(p: RealPolynomial, candidates) -> list:
    """Newton-polish the real candidates, keep those p certifies, dedupe."""
    terms = _fused_terms(p.coeffs)
    roots = []
    for z in candidates:
        if abs(z.imag) > 1e-7 * max(1.0, abs(z)):
            continue
        x = _newton_polish(terms, float(z.real))
        # the sum of term magnitudes is p's condition-aware scale near x;
        # Horner overflows it to inf where ** would raise
        fx, _, size = _fused_pass(terms, x)
        if abs(fx) <= 1e-11 * (1.0 + size):
            roots.append(x)
    roots.sort()
    deduped = []
    for x in roots:
        if deduped and abs(x - deduped[-1]) <= 1e-9 * max(1.0, abs(x), abs(deduped[-1])):
            continue
        deduped.append(x)
    return deduped


def _companion_eigenvalues(c) -> np.ndarray:
    # the companion matrix np.polynomial.polynomial.polycompanion builds,
    # without its input conversion: c is a tuple of floats, c[-1] != 0
    d = len(c) - 1
    m = np.zeros((d, d))
    m.reshape(-1)[d :: d + 1] = 1.0
    m[:, -1] -= np.asarray(c[:-1]) / c[-1]
    return np.linalg.eigvals(m)


def _single_positive_root(P: RealPolynomial) -> float:
    """The positive root of P when its coefficients change sign exactly once.

    Every positive root lies below B = 2 max |c_k / c_d|^(1/(d - k)) over the
    c_k of sign opposite to c_d (Kioustelidis), and P has the sign of c_d
    above its root and the opposite sign below, so (0, B) brackets the root.
    Newton steps that leave the bracket or fail to halve the step before last
    become bisections.
    """
    c = P.coeffs
    d = len(c) - 1
    lead = c[-1]
    opposite = ((k, ck) for k, ck in enumerate(c) if ck != 0 and (ck > 0) != (lead > 0))
    lo, hi = 0.0, 2.0 * max(abs(ck / lead) ** (1.0 / (d - k)) for k, ck in opposite)
    terms = _fused_terms(c)
    x = hi
    step = before = hi
    for _ in range(200):
        fx, dfx, size = _fused_pass(terms, x)
        if (fx > 0) == (lead > 0):
            hi = x
        else:
            lo = x
        nxt = x - fx / dfx if dfx != 0 else math.nan
        # P can overflow near B when the root is far out; inf is no floor
        at_floor = math.isfinite(fx) and abs(fx) <= _ROUNDING_FLOOR * size
        if not lo <= nxt <= hi or 2.0 * abs(nxt - x) > before:
            if at_floor:
                return x
            nxt = 0.5 * (lo + hi)
        before, step = step, abs(nxt - x)
        if at_floor or step <= 1e-15 * max(1.0, nxt):
            return nxt
        x = nxt
    return x


def _nonnegative_roots(P: RealPolynomial) -> list:
    """The real roots of P, of degree >= 3, that can be y >= 0, sorted.

    Descartes's rule of signs on the float coefficients settles P with at
    most one sign change: none means no positive root, one means exactly one.
    Otherwise the candidates come from the companion matrix, and only those
    that can be y >= 0 are polished.
    """
    c = P.coeffs
    signs = [ck > 0 for ck in c if ck != 0]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes > 1:
        candidates = [z for z in _companion_eigenvalues(c).tolist() if z.real >= -1e-7 * max(1.0, abs(z))]
        return _polished_roots(P, candidates)
    roots = [0.0] if c[0] == 0 else []
    if changes == 1:
        roots.append(_single_positive_root(P))
    return roots


def _real_roots(p: RealPolynomial) -> list:
    deg = p.degree
    if deg <= 0:
        return []
    c = p.coeffs
    if deg == 1:
        return [-c[0] / c[1]]
    if deg == 2:
        return _stable_quadratic_roots(c[0], c[1], c[2])
    if not any(c[1::2]):
        # even: p(z) = P(z^2), the roots z >= 0 and their mirror images
        return list(_mirrored(_half_line_roots(RealPolynomial(c[::2])), ())[0])
    return _polished_roots(p, np.polynomial.polynomial.polyroots(np.asarray(c)))


def _half_line_roots(P: RealPolynomial) -> tuple:
    """The roots z >= 0 of p(z) = P(z^2), sorted: sqrt(y) for each root y >= 0
    of P, from the closed forms up to degree 2 and _nonnegative_roots above;
    a root at the origin is +0.0."""
    ys = _real_roots(P) if P.degree <= 2 else _nonnegative_roots(P)
    return tuple(0.0 if y == 0 else math.sqrt(y) for y in ys if y >= 0)


def _root_finding_part(p: RealPolynomial, reach: tuple = _REACH_POWERS) -> RealPolynomial:
    """p without the leading terms below the rounding floor of the rest on
    |z| <= _DENSITY_REACH; reach[k] is the size of p's k-th power there
    (_REACH_SQUARES for P in y = z^2, which drops what p would).

    Such a term (an expiry so close that Q_t ** (n - 1) underflows leaves a
    subnormal leading coefficient) moves p by less than its rounding error
    wherever the density is nonzero, so it only adds roots beyond that
    range; dividing by it fills the companion matrix with infinities.  Each
    term's share of the rest grows with |z|, so checking at the reach checks
    the whole range.  Only the roots are found from this part; signs and
    moments use every coefficient of p.
    """
    terms = [abs(c) * r if c != 0.0 else 0.0 for c, r in zip(p.coeffs, reach)]
    deg = len(terms) - 1
    while deg > 0 and terms[deg] < sys.float_info.epsilon * left_sum(terms[:deg]):
        deg -= 1
    return p if deg == p.degree else RealPolynomial(p.coeffs[: deg + 1])


def _interior_point(lo: float, hi: float) -> float:
    if lo == -math.inf and hi == math.inf:
        return 0.0
    if lo == -math.inf:
        return hi - max(1.0, abs(hi))
    if hi == math.inf:
        return lo + max(1.0, abs(lo))
    return 0.5 * (lo + hi)


def _exercise_region(p: RealPolynomial) -> tuple:
    """(roots, intervals): the real roots of p and the intervals they cut
    where p > 0, empty for the zero polynomial.  An even p is solved on
    z >= 0 by _half_line_region and mirrored."""
    if p.degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {p.degree} exceeds the supported maximum {MAX_DEGREE}")
    if p.is_zero:
        return (), ()
    c = p.coeffs
    if not any(c[1::2]):
        return _mirrored(*_half_line_region(RealPolynomial(c[::2])))
    roots = _real_roots(_root_finding_part(p))
    cuts = zip([-math.inf] + roots, roots + [math.inf])
    intervals = tuple((lo, hi) for lo, hi in cuts if p(_interior_point(lo, hi)) > 0)
    return tuple(roots), intervals


def _half_line_region(P: RealPolynomial) -> tuple:
    """(roots, intervals) of p(z) = P(z^2) on z >= 0: its roots z >= 0 and
    the intervals of [0, inf) they cut where p > 0, empty for P = 0.

    Each interval is signed at _interior_point of its mirrored cut, so the
    mirrored region is signed at the same points on both halves: the
    midpoint between two roots, beside the last root for the tail, and
    z = 0 for the cut (-hi, hi) around the origin when 0 is no root.
    P(z^2) takes half of p's Horner steps.
    """
    if P.is_zero:
        return (), ()
    roots = _half_line_roots(_root_finding_part(P, _REACH_SQUARES))
    straddles = 0.0 not in roots
    edges = ((0.0,) if straddles else ()) + roots
    c = P.coeffs
    lead, rest = c[-1], c[-2::-1]
    intervals = tuple(
        (lo, hi)
        for lo, hi in zip(edges, edges[1:] + (math.inf,))
        if _even_value(lead, rest, 0.0 if straddles and lo == 0.0 else _interior_point(lo, hi)) > 0
    )
    return roots, intervals


def _mirrored(roots: tuple, intervals: tuple) -> tuple:
    """The whole-line (roots, intervals) of an even p from its half-line ones:
    each root z > 0 gains -z and each interval its reflection, and an
    interval from the origin when 0 is no root joins its reflection."""
    full_roots = tuple(-z for z in reversed(roots) if z > 0) + roots
    # 0.0 - x, not -x: the end at a root at the origin stays +0.0
    left = [(0.0 - hi, 0.0 - lo) for lo, hi in reversed(intervals)]
    right = list(intervals)
    if right and right[0][0] == 0.0 and 0.0 not in roots:
        left[-1] = (left[-1][0], right.pop(0)[1])
    return full_roots, tuple(left + right)


def _even_value(lead: float, rest: tuple, z: float) -> float:
    """p(z) = P(z^2) by Horner's rule on P, for P with leading coefficient
    lead and the other coefficients from the top down in rest."""
    y = z * z
    acc = lead
    for ck in rest:
        acc = acc * y + ck
    return acc


def expected_positive_part(p: RealPolynomial) -> PositivePartResult:
    """E[(p(Z))+] for standard normal Z, by root isolation plus moments."""
    roots, intervals = _exercise_region(p)
    c = p.coeffs
    value = 0.0
    for lo, hi in intervals:
        value += left_sum(ck * m for ck, m in zip(c, gaussian_partial_moments(len(c) - 1, lo, hi)))
    return PositivePartResult(value=max(value, 0.0), payoff_polynomial=p, positive_intervals=intervals, roots=roots)


def _squares_moment_sum(a, intervals) -> float:
    """sum_m a[m] K_m summed over the intervals, K_m = int_lo^hi (X^(m)(z, 1))^2 rho(z) dz.

    X^(m)(z, 1) = He_m(z) / m!, so K_0 = Phi(hi) - Phi(lo) and

        K_m = (K_(m-1) - [X^(m) X^(m-1) rho]_lo^hi) / m,

    with X^(m) at each endpoint walked by (m + 1) X^(m+1) = z X^(m) - X^(m-1).
    A boundary term is zero where rho is, at an infinite endpoint too, so on
    the whole line K_m = 1 / m!; it is exactly zero at z = 0 too, where one
    of X^(m), X^(m-1) is an odd Hermite polynomial, so on [0, inf)
    K_m = 1 / (2 m!).  Every K_m is nonnegative: a sum of squares cancels
    only where its a[m] change sign.
    """
    total = 0.0
    for lo, hi in intervals:
        # lo = 0 is taken as rho = 0 there: its boundary terms are zero either way
        r_lo, r_hi = (normal_pdf(lo) if lo else 0.0), normal_pdf(hi)
        # where rho is zero the walk runs at z = 0: finite, its terms times rho = 0
        z_lo, z_hi = (lo if r_lo else 0.0), (hi if r_hi else 0.0)
        x_lo, x_hi = z_lo, z_hi  # X^(1)
        prev_lo = prev_hi = 1.0  # X^(0)
        # Phi(hi) - Phi(lo) as the difference of the smaller tails, where
        # 1 - Phi would cancel to its rounding error, and across the origin
        # as the sum of its two halves, where it would cancel near z = 0
        if lo > 0:
            k = normal_cdf(-lo) - normal_cdf(-hi)
        elif hi < 0:
            k = normal_cdf(hi) - normal_cdf(lo)
        else:
            k = 0.5 * (math.erf(hi / _SQRT_2) - math.erf(lo / _SQRT_2))
        total += a[0] * k
        for m in range(1, len(a)):
            k = (k - (r_hi * x_hi * prev_hi - r_lo * x_lo * prev_lo)) / m
            total += a[m] * k
            prev_lo, x_lo = x_lo, (z_lo * x_lo - prev_lo) / (m + 1)
            prev_hi, x_hi = x_hi, (z_hi * x_hi - prev_hi) / (m + 1)
    return total


def call_payoff_polynomial(model: CoherentModel, spec: OptionSpec) -> RealPolynomial:
    """p(z) with call price n! * E[(p(Z))+], Z the normalised driver at expiry.

    Built from pi_t * (P(t, T) - K) with the driver written as R_t = sqrt(Q_t) Z.
    Requires Q_t > 0; with no accrued variance the payoff is deterministic and
    priced directly by price_bond_call.
    """
    q_t = model.sf.q_at(spec.option_maturity)
    q_T = model.sf.q_at(spec.bond_maturity)
    if q_t == 0:
        raise ValueError("no variance accrues by option expiry; the payoff is deterministic")
    return _in_z(_call_squares(model.n, spec.strike, q_t, q_T), q_t)


def _call_squares(n: int, strike: float, q_t: float, q_T: float) -> list:
    """c_0 .. c_(n-1) of the call payoff pi_t (P(t, T) - K).

    The bond weights product_weights(n, 1 - q_t, 1 - q_T) and the drift
    weights product_weights(n, h, h) are walked together as they are used;
    with g_T = g the drift recurrence is d_N = h d_(N-1) from d_0 = 1.
    """
    g, g_T = 1.0 - q_t, 1.0 - q_T
    h_bond = g - g_T
    h = q_T - q_t
    keep = 1.0 - strike
    bond = 0.0
    drift = h_power = 1.0
    c = [0.0] * n
    for N in range(1, n + 1):
        bond = g * bond + h_power * g_T
        h_power *= h_bond
        drift *= h
        factorial = _FACTORIALS[N]
        c[n - N] = keep * (bond / factorial) - strike * (drift / factorial)
    return c


def _scaled(c: list, q_t: float) -> list:
    # [c_m q_t^m]: (X^(m)(sqrt(q_t) z, q_t))^2 = q_t^m (X^(m)(z, 1))^2
    return [cm * q_t**m for m, cm in enumerate(c)]


def _in_z(c: list, q_t: float) -> RealPolynomial:
    # sum_m c_m (X^(m)(sqrt(q_t) z, q_t))^2 as a polynomial in z
    return squares_polynomial(_scaled(c, q_t), 1.0)


def _in_y(a: list) -> RealPolynomial:
    """P with P(z^2) = sum_m a[m] (X^(m)(z, 1))^2: the even coefficients of
    squares_polynomial(a, 1.0), bit for bit, without its odd zeros."""
    out = [0.0] * len(a)
    for m, am in enumerate(a):
        if am != 0.0:
            for b, i, _ in _squared_terms(m):
                out[i // 2] += am * b
    return RealPolynomial(out)


def _sign_certificate(c: list):
    """The exercise intervals of sum_m c_m (X^(m))^2 if the signs of the c_m
    settle them, else None: every c_m < 0, none; every c_m > 0, the whole
    line, as the payoff is at least c_0 > 0.  The tests are strict, so a
    certified payoff has no root.  A payoff above the degree cap of
    _exercise_region is refused first, certified or not."""
    if 2 * len(c) - 2 > MAX_DEGREE:
        raise ValueError(f"polynomial degree {2 * len(c) - 2} exceeds the supported maximum {MAX_DEGREE}")
    if max(c) < 0.0:
        return ()
    if min(c) > 0.0:
        return ((-math.inf, math.inf),)
    return None


def _price(n: int, c: list, q_t: float) -> float:
    """n! E[(p(Z))+] of the payoff with squared-form coefficients c, summed
    as twice the moment sum over the exercise region on z >= 0."""
    certified = _sign_certificate(c)
    if certified == ():
        return 0.0
    a = _scaled(c, q_t)  # the payoff in y and the moment sum read the same list
    intervals = _RIGHT_HALF if certified else _half_line_region(_in_y(a))[1]
    return math.factorial(n) * max(2.0 * _squares_moment_sum(a, intervals), 0.0)


def price_bond_call(model: CoherentModel, spec: OptionSpec) -> float:
    """Time-0 price of a call on a discount bond, normalised by pi_0."""
    n = model.n
    q_t = model.sf.q_at(spec.option_maturity)
    q_T = model.sf.q_at(spec.bond_maturity)
    if q_t == 0:
        return max((1.0 - q_T**n) - spec.strike, 0.0)
    return _price(n, _call_squares(n, spec.strike, q_t, q_T), q_t)


def call_delta(model: CoherentModel, spec: OptionSpec) -> float:
    """Hedge position in the T-bond: the price sensitivity to P(0, T).

    Differentiates the moment representation directly; boundary terms vanish
    because the payoff is zero at every interval endpoint, so only the
    coefficient sensitivities d_m survive, summed over the payoff's exercise
    intervals in the same squared form as the price.
    """
    n = model.n
    q_t = model.sf.q_at(spec.option_maturity)
    q_T = model.sf.q_at(spec.bond_maturity)
    if q_t == 0:
        intrinsic = (1.0 - q_T**n) - spec.strike
        if intrinsic == 0:
            raise ValueError("degenerate hedge: deterministic payoff sits exactly at the strike")
        return 1.0 if intrinsic > 0 else 0.0
    c = _call_squares(n, spec.strike, q_t, q_T)
    certified = _sign_certificate(c)
    if certified is None:
        roots, intervals = _half_line_region(_in_y(_scaled(c, q_t)))
        if roots and roots[0] <= 1e-9:
            raise ValueError("degenerate hedge: payoff polynomial has a root at the origin")
    else:
        intervals = _RIGHT_HALF if certified else ()
    if not intervals:
        return 0.0
    denom = n * q_T ** (n - 1)
    h = q_T - q_t
    d = [1.0] + product_weights(n - 1, h, h)  # h^(N-1) / (N-1)!, N = 1..n
    scaled = _scaled([d[N - 1] / denom for N in range(n, 0, -1)], q_t)
    return math.factorial(n) * (2.0 * _squares_moment_sum(scaled, intervals))


def swaption_payoff_polynomial(model: CoherentModel, spec: SwaptionSpec) -> RealPolynomial:
    """p(z) with payer-swaption price n! * E[(p(Z))+]; requires Q_t > 0."""
    q_t = model.sf.q_at(spec.option_maturity)
    if q_t == 0:
        raise ValueError("no variance accrues by swaption expiry; the payoff is deterministic")
    q_pay = [model.sf.q_at(T) for T in spec.payment_dates]
    return _in_z(_swaption_squares(model.n, spec.strike, q_t, q_pay), q_t)


def _swaption_squares(n: int, strike: float, q_t: float, q_pay: list) -> list:
    """c_0 .. c_(n-1) of the swaption payoff pi_t (1 - P(t, T_N) - K sum_i P(t, T_i)).

    Each date's product_weights(n, 1 - q_t, 1 - q_i) is walked in place and
    folded, in date order, into one fixed-leg accumulator per N.
    """
    g = 1.0 - q_t
    fixed = [0.0] * n
    for q in q_pay:
        g_T = 1.0 - q
        h_date = g - g_T
        d = 0.0
        h_power = 1.0
        for N in range(1, n + 1):
            d = g * d + h_power * g_T
            h_power *= h_date
            fixed[N - 1] += d / _FACTORIALS[N]
    h = q_pay[-1] - q_t
    return [a - strike * b for a, b in zip(product_weights(n, h, h)[::-1], fixed[::-1])]


def price_swaption(model: CoherentModel, spec: SwaptionSpec) -> float:
    """Time-0 price of a payer swaption, normalised by pi_0."""
    n = model.n
    q_t = model.sf.q_at(spec.option_maturity)
    q_pay = [model.sf.q_at(T) for T in spec.payment_dates]
    if q_t == 0:
        fixed_leg = spec.strike * left_sum(1.0 - q**n for q in q_pay)
        return max((1.0 - q_t**n) - (1.0 - q_pay[-1] ** n) - fixed_leg, 0.0)
    return _price(n, _swaption_squares(n, spec.strike, q_t, q_pay), q_t)
