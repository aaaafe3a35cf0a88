"""Shared test helpers."""

import math
import sys
from fractions import Fraction

from chaosrates import StructureFunction, hermite


class LookupBracket(StructureFunction):
    """Structure function pinned to prescribed accumulated-variance values.

    Lets a test drive the pricers with exact bracket pairs (Q_t, Q_T, ...)
    without solving for a density that attains them.
    """

    family = "lookup"

    def __init__(self, table: dict):
        self.table = dict(table)

    def q_at(self, t: float) -> float:
        return self.table[t]

    def squared_density(self, t: float) -> float:
        return 0.0


def exact_chaos_coefficients(m, q):
    """X^(m)(R, q) = q^(m/2) He_m(R / sqrt(q)) / m! as exact monomial
    coefficients in R, from the integer Hermite coefficients; q a Fraction.
    He_m has only powers of R of the parity of m, so every power of q is whole."""
    out = [Fraction(0)] * (m + 1)
    for i, h in enumerate(hermite(m).coeffs):
        if h:
            out[i] = Fraction(h) * q ** ((m - i) // 2) / math.factorial(m)
    return out


def exact_squares(c, q):
    """(coefficients, magnitudes) of sum_m c[m] (X^(m)(R, q))^2 in R, in
    exact Fractions: each square expanded from exact_chaos_coefficients,
    and magnitudes[i] = sum_m |c[m]| |coefficient of R^i in (X^(m))^2|,
    the size of the terms before they cancel."""
    q = Fraction(q)
    coeffs = [Fraction(0)] * (2 * len(c) - 1)
    magnitudes = [Fraction(0)] * (2 * len(c) - 1)
    for m, cm in enumerate(c):
        x = exact_chaos_coefficients(m, q)
        square = [Fraction(0)] * (2 * m + 1)
        for i, a in enumerate(x):
            for j, b in enumerate(x):
                square[i + j] += a * b
        for i, b in enumerate(square):
            coeffs[i] += Fraction(cm) * b
            magnitudes[i] += abs(Fraction(cm) * b)
    return coeffs, magnitudes


def assert_within_rounding(got, want, magnitudes, ulps):
    """|got[i] - want[i]| <= ulps * (eps * magnitudes[i] + tiny) for every
    coefficient, got padded with the zeros RealPolynomial strips from its top.

    tiny = math.ulp(0.0) = 2^-1074 is the spacing of the subnormals: a rounding
    that underflows errs by up to half of it, however small the exact value,
    so a relative bound alone fails on a subnormal coefficient (a strike of
    2.2e-309 makes the call's c_0 = -K h one).  It adds nothing above 1e-300."""
    assert len(got) <= len(want)
    got = tuple(got) + (0.0,) * (len(want) - len(got))
    eps, tiny = Fraction(sys.float_info.epsilon), Fraction(math.ulp(0.0))
    for g, w, size in zip(got, want, magnitudes):
        assert abs(Fraction(g) - w) <= ulps * (eps * size + tiny), (g, float(w), float(size))


def banded_projection(h, a, b, xi, xj):
    """E_t[X_T^(a)(phi_i) X_T^(b)(phi_j)] = sum_{m=0..min(a,b)} h^m / m! X_t^(a-m) X_t^(b-m).

    xi and xj list X^(0..a) and X^(0..b) at time t and h = int_t^T phi_i phi_j:
    the projection of one chaos product back to t, term by term.
    """
    out = 0.0
    for m in range(min(a, b) + 1):
        out += h**m / math.factorial(m) * xi[a - m] * xj[b - m]
    return out


def scaled_hermite_chaos(m, r, q):
    """X^(m)(r, q) = q^(m/2) He_m(r / sqrt(q)) / m!, the reference for chaos_value.

    At q = 0 the limit r^m / m!.  Overflows for denormal q > 0.
    """
    if m < 0:
        return 0.0
    if m == 0:
        return 1.0
    if q == 0.0:
        return r**m / math.factorial(m)
    return q ** (m / 2) * hermite(m)(r / math.sqrt(q)) / math.factorial(m)


def residual_pw_pw_by_midpoints(a, b, t):
    """int_t^inf phi_a phi_b for two piecewise densities, the reference walk.

    Cuts at the union of the breaks; each segment reads both densities at
    its midpoint by bisection.  When a segment is one float wide its
    midpoint can round onto the upper cut, which then reads the next
    segment's values.
    """
    cuts = sorted(set(a.breaks) | set(b.breaks))
    acc = 0.0
    lo = 0.0
    for hi in cuts:
        seg_lo = max(lo, t)
        if hi > seg_lo:
            mid = 0.5 * (seg_lo + hi)
            acc += math.sqrt(a.squared_density(mid) * b.squared_density(mid)) * (hi - seg_lo)
        lo = hi
    return acc
