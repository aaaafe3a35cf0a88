"""Accuracy gate for call prices, call deltas and swaption prices, and for
the quadrature oracle's price of each call and swaption.

Every contract is checked against a 60-digit mpmath reference that shares
no arithmetic with the pricer.  The payoff is even in the driver, so with
y = z^2 and X^(2M)(sqrt(q) z, q) = q^M sum_j (-1)^j y^(M-j) / (j! (2M-2j)! 2^j)
it is a polynomial P(y) of degree n - 1, built from the exact
kernel_coefficient Fractions and the float brackets taken as exact:

    call      P = sum_k w_k ((1 - Q_T^k) - K (1 - Q_t^k)) X^(2n-2k),
    swaption  P = sum_k w_k ((Q_N^k - Q_t^k) - K sum_i (1 - Q_i^k)) X^(2n-2k),
    delta     the call's moment sum of sum_k w_k k Q_T^(k-1) / (n Q_T^(n-1)) X^(2n-2k)
              over its exercise intervals.

mp.polyroots finds the roots of P with extra precision; each y > 0 gives
the pair +-sqrt(y), the sign of p is read at a point inside each interval
between them, and the truncated Gaussian moments of the intervals where
p > 0 are summed in mpmath.  The price is n! times that sum.

The bounds hold, per order, the p90 and the maximum of the relative error
|got - want| / |want| (the absolute error where the reference is zero).
The pricer builds each payoff from its sum-of-squares weights and sums the
squared form itself, taking each interval's normal mass from its smaller
tails, so prices sit within a few ulps of the reference.  The larger delta
maxima record where the float roots lie: a price is stationary in its
exercise boundary, a delta is not, so its worst values follow the error of
the roots (ROADMAP D4).  quadrature_price integrates the same contracts'
payoff polynomials by its fixed Gauss-Legendre rule.  Those float monomial
coefficients cancel more as the degree 2n - 2 grows, and its bounds grow
with them: the same rule on the exact payoff lands within 2.4e-15 at n = 16.
"""

import math

import mpmath
import numpy as np
import pytest

from chaosrates import (
    CoherentModel,
    DiscreteAtoms,
    ExponentialDensity,
    OptionSpec,
    PiecewiseConstantDensity,
    SwaptionSpec,
    call_delta,
    call_payoff_polynomial,
    initial_bond_price,
    kernel_coefficient,
    price_bond_call,
    price_swaption,
    quadrature_price,
    swaption_payoff_polynomial,
)
from chaosrates import polynomial_pricer as pp
from chaosrates.special_functions import left_sum

ORDERS = (5, 8, 12, 16)
FAMILIES = {
    "exponential": ExponentialDensity(0.23),
    "piecewise": PiecewiseConstantDensity((1.0, 2.5, 6.0, 14.0, 22.0), (0.4, 1.3, 0.7, 0.2, 0.1)),
    "atoms": DiscreteAtoms(
        (0.5, 1.25, 2.0, 3.5, 5.0, 7.25, 9.0, 12.5, 16.0, 21.0),
        (0.05, 0.08, 0.12, 0.1, 0.15, 0.1, 0.12, 0.1, 0.1, 0.08),
    ),
}
CALLS = 5  # per order and family, each priced with its delta
SWAPTIONS = 5
LAST_DATE = 21.5

mp = mpmath.mp.clone()
mp.dps = 60

# per order: (p90, max) of the relative error, twice the measured value
# rounded up to two digits, or the earlier bound where that is smaller
BOUNDS = {
    "call": {5: (2.4e-15, 1.1e-14), 8: (1.6e-15, 2.6e-15), 12: (1.8e-15, 3.1e-15), 16: (2.1e-15, 7.3e-15)},
    "delta": {5: (2.2e-15, 3.2e-15), 8: (2.4e-15, 1.1e-14), 12: (1.9e-15, 2.9e-12), 16: (1.2e-13, 3.5e-10)},
    "swaption": {5: (2.8e-15, 3.4e-15), 8: (1.3e-14, 1.6e-14), 12: (1.8e-14, 4.7e-14), 16: (1.2e-14, 4.8e-14)},
    # calls and swaptions together; the n = 16 maximum is a swaption, and the
    # gate's tail swaption (worth 2.0e-16, exercised only beyond |z| = 11.85)
    # sits at 6.1e-15
    "quadrature": {5: (5.8e-15, 1.5e-14), 8: (3.8e-14, 5.4e-14), 12: (1.1e-13, 2.7e-12), 16: (3.7e-11, 2.3e-10)},
}


def weight(n, k):
    w = kernel_coefficient(n, k)
    return mp.mpf(w.numerator) / w.denominator


def even_payoff(n, brackets, q):
    """Coefficients of P(y) = sum_k brackets[k-1] w_k X^(2n-2k)(sqrt(q) z, q), y = z^2."""
    out = [mp.mpf(0)] * n
    for k in range(1, n + 1):
        a, big_m = weight(n, k) * brackets[k - 1], n - k
        for j in range(big_m + 1):
            denom = math.factorial(j) * math.factorial(2 * big_m - 2 * j) * 2**j
            out[big_m - j] += a * q**big_m * (-1) ** j / denom
    return out


def horner(c, y):
    acc = mp.mpf(0)
    for ck in reversed(c):
        acc = acc * y + ck
    return acc


def exercise_intervals(P):
    """The intervals of z where P(z^2) > 0, from the roots of P in mpmath."""
    while P and P[-1] == 0:
        P = P[:-1]
    if len(P) <= 1:
        return [(-mp.inf, mp.inf)] if P and P[0] > 0 else []
    # numpy's roots of the rounded coefficients only start the
    # Durand-Kerner iteration, which converges to every root of P in 60
    # digits or raises NoConvergence; unseeded it is six times slower
    start = [mp.mpc(complex(z)) for z in np.roots([float(ck) for ck in P[::-1]])]
    roots = mp.polyroots(P[::-1], maxsteps=100, extraprec=60, roots_init=start)
    real = [mp.re(y) for y in roots if abs(mp.im(y)) <= mp.mpf(10) ** -40 * max(1, abs(y))]
    ys = sorted(y for y in real if y > 0)
    zs = sorted([-mp.sqrt(y) for y in ys] + [mp.sqrt(y) for y in ys])
    cuts = [-mp.inf] + zs + [mp.inf]
    intervals = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == -mp.inf:
            mid = 0 if hi == mp.inf else hi - 1
        else:
            mid = lo + 1 if hi == mp.inf else (lo + hi) / 2
        if horner(P, mid * mid) > 0:
            intervals.append((lo, hi))
    return intervals


def moment_sum(P, intervals):
    """sum over the intervals of int P(z^2) rho(z) dz, by the moment recurrence."""
    total = mp.mpf(0)
    for a, b in intervals:
        ra = 0 if a == -mp.inf else mp.npdf(a)
        rb = 0 if b == mp.inf else mp.npdf(b)
        m = mp.ncdf(b) - mp.ncdf(a)
        total += P[0] * m
        for j in range(1, len(P)):
            lo = 0 if ra == 0 else a ** (2 * j - 1) * ra
            hi = 0 if rb == 0 else b ** (2 * j - 1) * rb
            m = (2 * j - 1) * m + lo - hi
            total += P[j] * m
    return total


def call_reference(n, q_t, q_T, strike):
    """(price, delta) of the call in 60 digits."""
    q_t, q_T, strike = mp.mpf(q_t), mp.mpf(q_T), mp.mpf(strike)
    price_brackets = [(1 - q_T**k) - strike * (1 - q_t**k) for k in range(1, n + 1)]
    P = even_payoff(n, price_brackets, q_t)
    intervals = exercise_intervals(P)
    denom = n * q_T ** (n - 1)
    sens = even_payoff(n, [k * q_T ** (k - 1) / denom for k in range(1, n + 1)], q_t)
    scale = math.factorial(n)
    return scale * moment_sum(P, intervals), scale * moment_sum(sens, intervals)


def swaption_reference(n, q_t, q_pay, strike):
    q_t, strike = mp.mpf(q_t), mp.mpf(strike)
    q_pay = [mp.mpf(q) for q in q_pay]
    brackets = [(q_pay[-1] ** k - q_t**k) - strike * mp.fsum(1 - q**k for q in q_pay) for k in range(1, n + 1)]
    P = even_payoff(n, brackets, q_t)
    return math.factorial(n) * moment_sum(P, exercise_intervals(P))


def rel_error(got, want):
    return float(abs(mp.mpf(got) - want) / abs(want)) if want != 0 else abs(got)


def contracts():
    """(kind, n, family, model, spec): near-the-money calls and swaptions, seeded."""
    rng = np.random.default_rng(20261019)
    out = []
    for n in ORDERS:
        for family, sf in FAMILIES.items():
            model = CoherentModel(n, sf)
            for _ in range(CALLS):
                t = float(rng.uniform(0.75, 9.0))
                T = float(rng.uniform(t + 0.25, LAST_DATE))
                forward = initial_bond_price(model, T) / initial_bond_price(model, t)
                strike = float(rng.uniform(0.5, 1.1)) * forward
                out.append(("call", n, family, model, OptionSpec(t, T, strike)))
            for _ in range(SWAPTIONS):
                t = float(rng.uniform(0.75, 9.0))
                count = int(rng.integers(1, 6))
                dates = tuple(sorted(float(T) for T in rng.uniform(t + 0.25, LAST_DATE, count)))
                p0 = [initial_bond_price(model, T) for T in dates]
                forward = (initial_bond_price(model, t) - p0[-1]) / left_sum(p0)
                strike = float(rng.uniform(0.5, 1.5)) * forward
                out.append(("swaption", n, family, model, SwaptionSpec(t, dates, strike)))
    return out


def certified(kind, model, spec):
    q_t = model.sf.q_at(spec.option_maturity)
    if kind == "call":
        q_T = model.sf.q_at(spec.bond_maturity)
        return pp._sign_certificate(pp._call_squares(model.n, spec.strike, q_t, q_T)) is not None
    q_pay = [model.sf.q_at(T) for T in spec.payment_dates]
    return pp._sign_certificate(pp._swaption_squares(model.n, spec.strike, q_t, q_pay)) is not None


def errors(n):
    """{quantity: [relative error]} over the order's contracts."""
    out = {"call": [], "delta": [], "swaption": [], "quadrature": []}
    for kind, order, _, model, spec in CONTRACTS:
        if order != n:
            continue
        q_t = model.sf.q_at(spec.option_maturity)
        if kind == "call":
            price, delta = call_reference(n, q_t, model.sf.q_at(spec.bond_maturity), spec.strike)
            out["call"].append(rel_error(price_bond_call(model, spec), price))
            out["delta"].append(rel_error(call_delta(model, spec), delta))
            out["quadrature"].append(rel_error(quadrature_price(call_payoff_polynomial(model, spec), n), price))
        else:
            q_pay = [model.sf.q_at(T) for T in spec.payment_dates]
            want = swaption_reference(n, q_t, q_pay, spec.strike)
            out["swaption"].append(rel_error(price_swaption(model, spec), want))
            out["quadrature"].append(rel_error(quadrature_price(swaption_payoff_polynomial(model, spec), n), want))
    return out


CONTRACTS = contracts()


def test_the_gate_covers_open_and_certified_contracts_of_every_family():
    assert len(CONTRACTS) >= 120
    for n in ORDERS:
        for family in FAMILIES:
            for kind in ("call", "swaption"):
                assert any(c[:3] == (kind, n, family) for c in CONTRACTS)
        kinds = {certified(kind, model, spec) for kind, order, _, model, spec in CONTRACTS if order == n}
        assert kinds == {True, False}, n


@pytest.mark.parametrize("n", ORDERS)
def test_option_values_match_the_reference(n):
    for quantity, errs in errors(n).items():
        p90, worst = BOUNDS[quantity][n]
        assert float(np.quantile(errs, 0.9)) <= p90, (quantity, sorted(errs))
        assert max(errs) <= worst, (quantity, sorted(errs))
