import collections
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chaosrates import (
    BondSpec,
    CoherentModel,
    DiscreteAtoms,
    ExponentialDensity,
    OptionSpec,
    PiecewiseConstantDensity,
    RealPolynomial,
    SwaptionSpec,
    call_delta,
    call_payoff_polynomial,
    expected_positive_part,
    initial_bond_price,
    kernel_polynomial,
    price_bond_call,
    price_swaption,
    quadrature_price,
    swaption_payoff_polynomial,
)
from chaosrates import polynomial_pricer as pp
from chaosrates.coherent_model import _squared_terms, product_weights, squares_polynomial
from chaosrates.polynomial_pricer import (
    _ROUNDING_FLOOR,
    _real_roots,
    _root_finding_part,
)
from chaosrates.special_functions import gaussian_partial_moments, hermite, left_sum
from closed_form_cases import (
    biquadratic_positive_part,
    call_biquadratic_coefficients,
    call_quadratic_coefficients,
    quadratic_positive_part,
    swaption_quadratic_coefficients,
)
from support import LookupBracket, assert_within_rounding, exact_squares


def call_model(n, q_t, q_T):
    return CoherentModel(n, LookupBracket({1.0: q_t, 2.0: q_T}))


CALL_SPEC = OptionSpec(1.0, 2.0, 0.5)
ROOT_17 = math.sqrt(0.25 * (math.sqrt(17.0) - 1.0))  # z^2 = y with y^2 + y/2 - 1 = 0


def term_magnitude(p, x):
    """1 + sum |c_k| |x|^k: the scale of p's rounding error near x."""
    return 1.0 + RealPolynomial([abs(c) for c in p.coeffs])(abs(x))


class TestSpecValidation:
    def test_option_maturity_ordering(self):
        with pytest.raises(ValueError):
            OptionSpec(0.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            OptionSpec(3.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            OptionSpec(1.0, 2.0, -0.1)
        OptionSpec(1.0, 2.0, 0.0)  # zero strike allowed: forward purchase

    def test_swaption_dates_strictly_increasing(self):
        with pytest.raises(ValueError):
            SwaptionSpec(1.0, (2.0, 2.0), 0.1)
        with pytest.raises(ValueError):
            SwaptionSpec(2.5, (2.0, 3.0), 0.1)
        with pytest.raises(ValueError):
            SwaptionSpec(1.0, (), 0.1)
        with pytest.raises(ValueError):
            SwaptionSpec(1.0, (2.0, 3.0), -0.2)

    def test_bond_spec(self):
        with pytest.raises(ValueError):
            BondSpec(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields(self, bad):
        # no ordering check catches NaN, and an infinite date or strike
        # would price to nan or 0
        with pytest.raises(ValueError, match="finite"):
            BondSpec(bad)
        for args in [(1.0, 2.0, bad), (1.0, bad, 0.5), (bad, 2.0, 0.5)]:
            with pytest.raises(ValueError, match="finite"):
                OptionSpec(*args)
        for args in [(1.0, (2.0, 3.0), bad), (1.0, (2.0, bad), 0.1), (bad, (2.0, 3.0), 0.1)]:
            with pytest.raises(ValueError, match="finite"):
                SwaptionSpec(*args)


class TestExpectedPositivePart:
    def test_positive_constant_is_its_own_expectation(self):
        res = expected_positive_part(RealPolynomial((0.7,)))
        assert res.value == 0.7
        assert res.positive_intervals == ((-math.inf, math.inf),)
        assert res.roots == ()

    def test_positive_definite_quadratic(self):
        res = expected_positive_part(RealPolynomial((0.25, 0.0, 1.5)))
        assert res.value == pytest.approx(1.75, rel=1e-14)

    def test_symmetric_cap(self):
        # E[(1 - Z^2)+] over (-1, 1) is exactly 2 rho(1)
        res = expected_positive_part(RealPolynomial((1.0, 0.0, -1.0)))
        assert res.value == pytest.approx(0.48394144903828673, abs=1e-13)
        assert res.roots == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_zero_polynomial(self):
        res = expected_positive_part(RealPolynomial((0.0,)))
        assert res.value == 0.0
        assert res.positive_intervals == ()

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            expected_positive_part(RealPolynomial((0.0,) * 31 + (1.0,)))

    def test_far_root_at_the_degree_cap_is_finite(self):
        # roots near 0.41 and 2e11: |x|**30 overflows a float power there,
        # so the certificate must not raise OverflowError
        res = expected_positive_part(RealPolynomial([1.0] + [0.0] * 28 + [-2e11, 1.0]))
        assert math.isfinite(res.value) and res.value > 0.0
        assert res.roots[-1] == pytest.approx(2e11, rel=1e-12)

    # coefficients either zero or well scaled; near-denormal leading terms
    # put roots past 1e200 where float evaluation is meaningless
    coefficient = st.one_of(
        st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3)
    )

    @given(st.lists(coefficient, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_certified_intervals(self, coeffs):
        p = RealPolynomial(tuple(coeffs))
        res = expected_positive_part(p)
        assert res.value >= 0.0
        # intervals sorted, disjoint, and strictly positive at midpoints
        prev_hi = -math.inf
        for lo, hi in res.positive_intervals:
            assert lo < hi
            assert lo >= prev_hi
            prev_hi = hi
            mid = _interior(lo, hi)
            assert p(mid) > 0.0
        for r in res.roots:
            scale = 1.0 + sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
            assert abs(p(r)) <= 1e-9 * scale

    @given(
        st.integers(2, 4),
        st.floats(0.02, 0.95),
        st.floats(0.01, 0.9),
        st.floats(0.0, 1.4),
    )
    @example(4, 0.369053275149336, 0.369053275149336, 0.0)
    @settings(max_examples=60, deadline=None)
    def test_against_quadrature_oracle(self, n, q_t, gap, strike):
        q_T = q_t + gap * (0.999 - q_t)
        model = call_model(n, q_t, q_T)
        spec = OptionSpec(1.0, 2.0, strike)
        analytic = price_bond_call(model, spec)
        oracle = quadrature_price(call_payoff_polynomial(model, spec), n)
        assert analytic == pytest.approx(oracle, abs=1e-8)


def _interior(lo, hi):
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


class TestCallPayoffPolynomial:
    def test_worked_boundary_example(self):
        # bracket pair (0.4, 0.7) at strike 0.5: leading coefficient cancels
        a, b = call_quadratic_coefficients(0.4, 0.7, 0.5)
        assert a == pytest.approx(0.0, abs=1e-16)
        assert b == pytest.approx(0.045, rel=1e-13)
        model = call_model(2, 0.4, 0.7)
        price = price_bond_call(model, OptionSpec(1.0, 2.0, 0.5))
        assert price == pytest.approx(0.09, rel=1e-12)
        # same number from the boundary closed form (1-Q_T)(Q_T-Q_t)
        assert price == pytest.approx((1 - 0.7) * (0.7 - 0.4), rel=1e-12)

    def test_order_three_leading_coefficient(self):
        a, _, _ = call_biquadratic_coefficients(0.5, 0.75, 0.6)
        assert a == pytest.approx(-0.003125, rel=1e-13)
        poly = call_payoff_polynomial(call_model(3, 0.5, 0.75), OptionSpec(1.0, 2.0, 0.6))
        assert poly.coeffs[4] == pytest.approx(-0.003125, rel=1e-13)

    def test_polynomial_degree(self):
        for n in (1, 2, 3, 4):
            poly = call_payoff_polynomial(call_model(n, 0.3, 0.6), CALL_SPEC)
            assert poly.degree <= 2 * n - 2

    def test_zero_strike_prices_the_bond(self):
        for n in (2, 3):
            model = call_model(n, 0.3, 0.6)
            price = price_bond_call(model, OptionSpec(1.0, 2.0, 0.0))
            assert price == pytest.approx(initial_bond_price(model, 2.0), rel=1e-12)

    def test_degenerate_bracket_rejected(self):
        model = call_model(2, 0.0, 0.6)
        with pytest.raises(ValueError):
            call_payoff_polynomial(model, CALL_SPEC)

    def test_degenerate_bracket_price_is_intrinsic(self):
        model = call_model(2, 0.0, 0.6)
        assert price_bond_call(model, CALL_SPEC) == pytest.approx(
            (1 - 0.36) - 0.5, rel=1e-14
        )
        deep = call_model(2, 0.0, 0.9)
        assert price_bond_call(deep, OptionSpec(1.0, 2.0, 0.5)) == 0.0


# frozen per-branch parameter sets; each satisfies the branch's sign
# conditions exactly (checked inside the test)
ORDER_TWO_CASES = [
    ("constant_sign", 0.4, 0.7, 0.5),
    ("always_exercised", 0.3, 0.5, 0.2),
    ("worthless", 0.3, 0.5, 1.4),
    ("central_exercise", 0.3, 0.5, 0.8),
]


@pytest.mark.parametrize("tag,q_t,q_T,strike", ORDER_TWO_CASES)
def test_order_two_published_branches(tag, q_t, q_T, strike):
    a, b = call_quadratic_coefficients(q_t, q_T, strike)
    if tag == "constant_sign":
        # boundary configuration: the exact coefficient is zero, the float
        # one carries one ulp of cancellation noise
        assert abs(a) < 1e-16
        a = 0.0
    want, got_tag = quadratic_positive_part(a, b)
    assert got_tag == tag
    price = price_bond_call(call_model(2, q_t, q_T), OptionSpec(1.0, 2.0, strike))
    assert price == pytest.approx(2.0 * want, abs=1e-10)


def test_order_two_always_exercised_is_forward_value():
    price = price_bond_call(call_model(2, 0.3, 0.5), OptionSpec(1.0, 2.0, 0.2))
    want = (1 - 0.25) - 0.2 * (1 - 0.09)
    assert price == pytest.approx(want, rel=1e-12)


ORDER_THREE_CASES = [
    ("degenerate_always_exercised", 0.5, 0.75, 0.5),
    ("always_exercised", 0.2333520436349911, 0.5536462079660024, 0.11766171971439512),
    ("worthless", 0.06879579609521719, 0.5402726044585405, 1.3028927337779819),
    ("central_exercise", 0.25892635803026326, 0.8161412744620318, 0.2965449892583027),
    ("annular_exercise", 0.8957032675709621, 0.947864302997232, 0.6789554385440894),
]


@pytest.mark.parametrize("tag,q_t,q_T,strike", ORDER_THREE_CASES)
def test_order_three_published_branches(tag, q_t, q_T, strike):
    a, b, c = call_biquadratic_coefficients(q_t, q_T, strike)
    if tag == "degenerate_always_exercised":
        assert abs(a) < 1e-16
        a = 0.0
    want, got_tag = biquadratic_positive_part(a, b, c)
    assert got_tag == tag
    price = price_bond_call(call_model(3, q_t, q_T), OptionSpec(1.0, 2.0, strike))
    assert price == pytest.approx(6.0 * want, abs=1e-10)


def test_order_three_boundary_closed_form():
    # leading coefficient exactly zero with dyadic inputs
    price = price_bond_call(call_model(3, 0.5, 0.75), OptionSpec(1.0, 2.0, 0.5))
    want = (1 - 0.75) * (0.75 - 0.5) * (1 + 0.5 + 0.75)
    assert price == pytest.approx(want, abs=1e-14)


# branches whose sign conditions no admissible bracket pair can reach
# (constant term provably positive whenever the leading one is); the engine
# is driven on raw coefficient sets satisfying the conditions instead
SYNTHETIC_BIQUADRATICS = [
    (1.0, -1.25, 0.25, "four_root_exercise"),
    (0.5, -1.3, 0.4, "four_root_exercise"),
    (1.0, 0.0, -1.0, "outer_exercise"),
    (0.5, -0.2, -0.3, "outer_exercise"),
    (2.0, 1.0, -0.5, "outer_exercise"),
]


@pytest.mark.parametrize("a,b,c,tag", SYNTHETIC_BIQUADRATICS)
def test_unreachable_branches_on_raw_coefficients(a, b, c, tag):
    want, got_tag = biquadratic_positive_part(a, b, c)
    assert got_tag == tag
    res = expected_positive_part(RealPolynomial((c, 0.0, b, 0.0, a)))
    assert res.value == pytest.approx(want, abs=1e-12)


def test_four_root_branch_value_frozen():
    # roots at +-0.5 and +-1.0; quadrature-confirmed reference value
    res = expected_positive_part(RealPolynomial((0.25, 0.0, -1.25, 0.0, 1.0)))
    assert 6.0 * res.value == pytest.approx(12.163075152891421, rel=1e-12)


class TestNoArbitrageBounds:
    @given(
        st.integers(2, 4),
        st.floats(0.01, 0.95),
        st.floats(0.01, 0.95),
        st.floats(0.0, 1.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_price_between_intrinsic_and_bond(self, n, q_t, frac, strike):
        q_T = q_t + frac * (0.999 - q_t)
        model = call_model(n, q_t, q_T)
        price = price_bond_call(model, OptionSpec(1.0, 2.0, strike))
        p0t = 1 - q_t**n
        p0T = 1 - q_T**n
        assert price >= max(p0T - strike * p0t, 0.0) - 1e-10
        assert price <= p0T + 1e-10

    def test_monotone_convex_in_strike(self):
        model = call_model(2, 0.26, 0.63)
        grid = np.linspace(0.0, 1.2, 50)
        prices = [price_bond_call(model, OptionSpec(1.0, 2.0, float(k))) for k in grid]
        diffs = np.diff(prices)
        assert (diffs <= 1e-12).all()
        assert (np.diff(diffs) >= -1e-12).all()


class TestCallDelta:
    def test_finite_difference_agreement(self):
        model = call_model(2, 0.3, 0.5)
        spec = OptionSpec(1.0, 2.0, 0.8)
        delta = call_delta(model, spec)
        p0T = initial_bond_price(model, 2.0)
        h = 1e-4 * p0T
        up = price_bond_call(call_model(2, 0.3, math.sqrt(1 - (p0T + h))), spec)
        dn = price_bond_call(call_model(2, 0.3, math.sqrt(1 - (p0T - h))), spec)
        assert delta == pytest.approx((up - dn) / (2 * h), abs=1e-3)

    def test_worthless_option_has_zero_delta(self):
        assert call_delta(call_model(2, 0.3, 0.5), OptionSpec(1.0, 2.0, 1.4)) == 0.0

    def test_deep_in_the_money_delta_is_one(self):
        assert call_delta(call_model(2, 0.3, 0.5), OptionSpec(1.0, 2.0, 0.01)) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_hedge_reported(self):
        # dyadic inputs put a payoff root exactly at the origin
        model = call_model(2, 0.5, 0.75)
        with pytest.raises(ValueError, match="degenerate"):
            call_delta(model, OptionSpec(1.0, 2.0, 0.75))

    def test_higher_order_delta_against_finite_difference(self):
        model = call_model(3, 0.25, 0.64)
        spec = OptionSpec(1.0, 2.0, 0.55)
        delta = call_delta(model, spec)
        p0T = initial_bond_price(model, 2.0)
        h = 1e-4 * p0T
        up = price_bond_call(call_model(3, 0.25, (1 - (p0T + h)) ** (1 / 3)), spec)
        dn = price_bond_call(call_model(3, 0.25, (1 - (p0T - h)) ** (1 / 3)), spec)
        assert delta == pytest.approx((up - dn) / (2 * h), abs=1e-3)


class TestPayoffBuildersMatchExactSquares:
    """Each payoff is sum_m c_m Q_t^m (X^(m)(z, 1))^2.  The builders agree
    with that sum formed in exact Fractions from the float brackets, within
    a few roundings of the size of its terms, so no coefficient carries the
    cancellation of a linearised sum."""

    @staticmethod
    def _in_z(c, q_t):
        # exact (coefficients, magnitudes) of the payoff in z
        return exact_squares([cm * Fraction(q_t) ** m for m, cm in enumerate(c)], 1)

    @given(st.integers(1, 16), st.floats(0.01, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.2))
    @example(n=1, q_t=0.75, frac=1.0, strike=2.225073858507203e-309)  # c_0 = -K h underflows
    @settings(max_examples=100, deadline=None)
    def test_call_payoff_and_delta(self, n, q_t, frac, strike):
        q_T = q_t + frac * (1.0 - q_t)
        model, spec = call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike)
        g, h, K = 1 - Fraction(q_t), Fraction(q_T) - Fraction(q_t), Fraction(strike)
        # c_m = ((1 - K) g^N - h^N) / N!, its size that of (1 - K)(g^N - h^N) and K h^N
        c = [((1 - K) * g ** (n - m) - h ** (n - m)) / math.factorial(n - m) for m in range(n)]
        size = [(abs(1 - K) * (g ** (n - m) - h ** (n - m)) + K * h ** (n - m)) / math.factorial(n - m) for m in range(n)]
        want, _ = self._in_z(c, q_t)
        _, magnitudes = self._in_z(size, q_t)
        payoff = call_payoff_polynomial(model, spec).coeffs
        assert_within_rounding(payoff, want, magnitudes, 8 * n)
        try:
            delta = call_delta(model, spec)
        except ValueError as e:  # a payoff root at the origin
            assert "degenerate" in str(e)
            return
        # d_m = h^(N-1) / ((N-1)! n Q_T^(n-1)) over the pricer's exercise intervals
        d = [h ** (n - m - 1) / math.factorial(n - m - 1) / (n * Fraction(q_T) ** (n - 1)) for m in range(n)]
        sens, magnitudes = self._in_z(d, q_t)
        intervals = pp._sign_certificate(pp._squares(model, spec)[2])
        if intervals is None:
            intervals = expected_positive_part(call_payoff_polynomial(model, spec)).positive_intervals
        want = scale = 0.0
        for lo, hi in intervals:
            moments = gaussian_partial_moments(2 * n - 2, lo, hi)
            want += math.fsum(float(s) * mk for s, mk in zip(sens, moments))
            scale += math.fsum(float(s) * abs(mk) for s, mk in zip(magnitudes, moments))
        assert abs(delta - math.factorial(n) * want) <= 16 * n * sys.float_info.epsilon * math.factorial(n) * scale

    @given(
        st.integers(1, 16),
        st.floats(0.01, 0.9),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
        st.floats(0.0, 0.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_swaption_payoff(self, n, q_t, steps, strike):
        q_pay, q = [], q_t
        for step in steps:
            q = q + step * (1.0 - q) / 2.0
            q_pay.append(q)
        dates = tuple(2.0 + i for i in range(len(q_pay)))
        model = CoherentModel(n, LookupBracket({1.0: q_t, **dict(zip(dates, q_pay))}))
        spec = SwaptionSpec(1.0, dates, strike)
        g, K = 1 - Fraction(q_t), Fraction(strike)
        hs = [Fraction(x) - Fraction(q_t) for x in q_pay]
        # c_m = (h_last^N - K sum_i (g^N - h_i^N)) / N!, both parts nonnegative
        floating = [hs[-1] ** (n - m) / math.factorial(n - m) for m in range(n)]
        fixed = [K * sum(g ** (n - m) - h ** (n - m) for h in hs) / math.factorial(n - m) for m in range(n)]
        want, _ = self._in_z([a - b for a, b in zip(floating, fixed)], q_t)
        _, magnitudes = self._in_z([a + b for a, b in zip(floating, fixed)], q_t)
        payoff = swaption_payoff_polynomial(model, spec).coeffs
        assert_within_rounding(payoff, want, magnitudes, 8 * n + 8)


def call_squares_by_lists(n, strike, q_t, q_T):
    """A call's c_m as they read before the walk: over two product_weights lists."""
    h = q_T - q_t
    bond, drift = product_weights(n, 1.0 - q_t, 1.0 - q_T), product_weights(n, h, h)
    return [(1.0 - strike) * a - strike * b for a, b in zip(bond[::-1], drift[::-1])]


def swaption_squares_by_lists(n, strike, q_t, q_pay):
    """A swaption's c_m as they read before the walk: one product_weights list per date."""
    h = q_pay[-1] - q_t
    fixed = [left_sum(w) for w in zip(*[product_weights(n, 1.0 - q_t, 1.0 - q) for q in q_pay])]
    return [a - strike * b for a, b in zip(product_weights(n, h, h)[::-1], fixed[::-1])]


@pytest.mark.parametrize("n", range(1, 21))
def test_payoff_squares_walk_the_product_weights_bit_for_bit(n):
    """The call and swaption c_m of _squares, their weights walked in place,
    are the list forms' bit for bit: for random brackets and strikes, for
    brackets at 0, at 1 and equal, for strike 1 (a call's a = 0) and for the
    exact brackets of Fraction atoms."""
    rng = np.random.default_rng([n, 2])
    cases = [
        (0.0, 0.4, 0.9),
        (0.3, 0.3, 0.7),
        (0.3, 1.0, 0.0),
        (0.3, 0.6, 1.0),
        (Fraction(1, 3), Fraction(3, 4), 0.8),
    ]
    for _ in range(25):
        q_t = float(rng.uniform())
        cases.append((q_t, q_t + float(rng.uniform()) * (1.0 - q_t), float(rng.uniform(0.0, 1.5))))
    for q_t, q_T, strike in cases:
        _, _, got = pp._squares(call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike))
        want = call_squares_by_lists(n, strike, q_t, q_T)
        assert [repr(x) for x in got] == [repr(x) for x in want]
        # dates whose brackets climb from q_t to q_T, repeats allowed
        q_pay = [q_t + (q_T - q_t) * f for f in sorted(rng.uniform(size=int(rng.integers(1, 21))))] + [q_T]
        strike /= 5.0
        _, _, got = pp._squares(*swaption_model(q_t, q_pay, n, strike))
        want = swaption_squares_by_lists(n, strike, q_t, q_pay)
        assert [repr(x) for x in got] == [repr(x) for x in want]


def swaption_model(q_t, q_pay, n=2, strike=0.0):
    table = {1.0: q_t}
    dates = []
    for i, q in enumerate(q_pay):
        table[2.0 + i] = q
        dates.append(2.0 + i)
    return CoherentModel(n, LookupBracket(table)), SwaptionSpec(1.0, tuple(dates), strike)


SWAPTION_CASES = [
    (
        "always_exercised",
        0.12280179207208071,
        (0.330294733570086, 0.6328911247953485, 0.8248770425443276),
        0.05647718534423951,
    ),
    (
        "worthless",
        0.38254396192131274,
        (0.6480072052715048, 0.7010915676161359, 0.7442794844203025),
        0.4427026723752961,
    ),
    (
        "tail_exercise",
        0.05126657098251075,
        (0.33407138529530683, 0.3488416013540051, 0.9738474151991904),
        0.5350266422670943,
    ),
]


class TestSwaption:
    @pytest.mark.parametrize("tag,q_t,q_pay,strike", SWAPTION_CASES)
    def test_published_branches(self, tag, q_t, q_pay, strike):
        a, b = swaption_quadratic_coefficients(q_t, q_pay, strike)
        want, got_tag = quadratic_positive_part(a, b)
        assert got_tag == tag
        model, spec0 = swaption_model(q_t, q_pay)
        spec = SwaptionSpec(spec0.option_maturity, spec0.payment_dates, strike)
        assert price_swaption(model, spec) == pytest.approx(2.0 * want, abs=1e-10)

    def test_central_branch_on_raw_coefficients(self):
        # sign pattern unreachable from bracket sequences; raw quadratic
        for a, b in [(-0.7, 0.9), (-0.02, 0.003)]:
            want, tag = quadratic_positive_part(a, b)
            assert tag == "central_exercise"
            res = expected_positive_part(RealPolynomial((b, 0.0, a)))
            assert res.value == pytest.approx(want, abs=1e-13)

    def test_always_exercised_is_the_forward_swap(self):
        tag, q_t, q_pay, strike = SWAPTION_CASES[0]
        model, spec0 = swaption_model(q_t, q_pay)
        spec = SwaptionSpec(spec0.option_maturity, spec0.payment_dates, strike)
        want = (
            (1 - q_t**2)
            - (1 - q_pay[-1] ** 2)
            - strike * sum(1 - q * q for q in q_pay)
        )
        assert price_swaption(model, spec) == pytest.approx(want, rel=1e-12)

    def test_zero_strike_is_a_forward_bond_spread(self):
        model, spec = swaption_model(0.2, (0.3, 0.5, 0.8))
        want = (1 - 0.2**2) - (1 - 0.8**2)
        assert price_swaption(model, spec) == pytest.approx(want, abs=1e-12)

    def test_quadrature_agreement(self):
        model, _ = swaption_model(0.15, (0.4, 0.6, 0.9))
        for strike in (0.02, 0.1, 0.3):
            spec = SwaptionSpec(1.0, (2.0, 3.0, 4.0), strike)
            analytic = price_swaption(model, spec)
            oracle = quadrature_price(swaption_payoff_polynomial(model, spec), 2)
            assert analytic == pytest.approx(oracle, abs=1e-9)

    def test_higher_order_swaption_prices(self):
        table = {1.0: 0.15, 2.0: 0.4, 3.0: 0.6, 4.0: 0.9}
        for n in (3, 4):
            model = CoherentModel(n, LookupBracket(table))
            spec = SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.04)
            analytic = price_swaption(model, spec)
            oracle = quadrature_price(swaption_payoff_polynomial(model, spec), n)
            assert analytic == pytest.approx(oracle, abs=1e-9)
            assert analytic >= 0.0

    def test_payoff_near_a_double_root_has_no_root(self):
        # every c_m = h^N / N! > 0 with h = 2.5e-10: a positive sum of
        # squares whose linearised coefficients cancelled to rounding and
        # gave roots near +-1; built from the squares it has none
        model = CoherentModel(3, LookupBracket({1.0: 0.5, 2.0: 0.5 + 2.5e-10}))
        res = expected_positive_part(swaption_payoff_polynomial(model, SwaptionSpec(1.0, (2.0,), 0.0)))
        assert res.roots == ()
        assert res.positive_intervals == ((-math.inf, math.inf),)


FAMILIES = [
    ExponentialDensity(0.23),
    PiecewiseConstantDensity((1.0, 2.5, 6.0, 14.0), (0.4, 1.3, 0.7, 0.2)),
    DiscreteAtoms((0.5, 1.0, 2.0, 3.5, 6.0, 11.0), (0.1, 0.2, 0.15, 0.25, 0.2, 0.1)),
]


class TestEvenPayoffs:
    """Every coherent payoff is p(z) = P(z^2): the fast root path rests on
    the odd coefficients being exactly zero, not merely small."""

    @pytest.mark.parametrize("sf", FAMILIES, ids=lambda sf: sf.family)
    def test_every_payoff_polynomial_is_even(self, sf):
        rng = np.random.default_rng(5)
        for n in range(1, 21):
            model = CoherentModel(n, sf)
            for t, T in ((1.0, 2.0), (2.0, 6.5), (3.5, 11.0)):
                q_t, q_T = sf.q_at(t), sf.q_at(T)
                assert not any(kernel_polynomial(n, q_t, q_T).coeffs[1::2])
                strike = float(rng.uniform(0.2, 1.5))
                assert not any(call_payoff_polynomial(model, OptionSpec(t, T, strike)).coeffs[1::2])
                dates = (T, T + 0.5, T + 2.0)
                payoff = swaption_payoff_polynomial(model, SwaptionSpec(t, dates, strike / 10.0))
                assert not any(payoff.coeffs[1::2])
                # the call_delta sensitivity: any weights through the same primitive
                weights = rng.uniform(-2.0, 2.0, n).tolist()
                assert not any(squares_polynomial(weights, q_t).coeffs[1::2])

    @staticmethod
    def _even(P):
        """p(z) = P(z^2) for the coefficients P of P(y)."""
        coeffs = [0.0] * (2 * len(P) - 1)
        coeffs[::2] = P
        return RealPolynomial(coeffs)

    @classmethod
    def _from_roots(cls, lead, real_pairs, complex_pairs):
        # lead * prod (z^2 - r^2) * prod (z^2 + s), expanded in y = z^2
        P = RealPolynomial((lead,))
        for r in real_pairs:
            P = P * RealPolynomial((-r * r, 1.0))
        for s in complex_pairs:
            P = P * RealPolynomial((s, 1.0))
        return cls._even(P.coeffs)

    @given(
        st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
        st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4),
        st.lists(st.floats(0.01, 30.0), min_size=0, max_size=14),
    )
    # a double root at z = +-1, where p' is small and Newton's last step
    # long: certified at the point before that step, a root would be kept
    # where |p| = 0.0165
    @example(lead=0.109375, real_pairs=[1.0, 1.0, 4.0], complex_pairs=[])
    @settings(max_examples=300, deadline=None)
    def test_even_roots_from_construction(self, lead, real_pairs, complex_pairs):
        total = len(real_pairs) + len(complex_pairs)
        assume(2 <= total <= 15)
        p = self._from_roots(lead, real_pairs, complex_pairs)
        roots = list(pp._exercise_region(p)[0])
        assert roots == sorted(-x for x in roots)
        for x in roots:
            assert abs(p(x)) <= 1e-11 * term_magnitude(p, x)
        zs = sorted([-r for r in real_pairs] + real_pairs)
        if min(b - a for a, b in zip(zs, zs[1:])) > 1e-6:
            assert len(roots) == len(zs)

    @staticmethod
    def _record_companions(monkeypatch):
        """The size of every matrix passed to np.linalg.eigvals, as a list."""
        seen = []
        eigvals = np.linalg.eigvals

        def recording(m):
            seen.append(len(m))
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        return seen

    def test_even_payoff_solves_half_the_degree(self, monkeypatch):
        seen = self._record_companions(monkeypatch)
        even = call_payoff_polynomial(CoherentModel(16, FAMILIES[0]), OptionSpec(2.0, 6.5, 0.9))
        assert even.degree == 30
        pp._exercise_region(even)
        assert seen == [15]
        # a non-even polynomial keeps the full-degree general path
        seen.clear()
        odd = RealPolynomial((1.0,))
        for r in (-3.0, -2.0, 0.5, 1.0):
            odd = odd * RealPolynomial((-r, 1.0))
        assert _real_roots(odd) == pytest.approx([-3.0, -2.0, 0.5, 1.0], abs=1e-14)
        assert seen == [4]

    @pytest.mark.parametrize(
        "P, want",
        [
            ((1.0, 2.0, 0.5, 3.0), []),
            ((-1.0, -2.0, 0.0, -4.0, -0.5), []),
            ((0.0, 1.0, 2.0, 3.0), [0.0]),
            ((-3.0, 1.0, 1.0, 1.0), [-1.0, 1.0]),
            ((3.0, 0.0, 0.0, -1.0, -2.0), [-1.0, 1.0]),
            # a root at y = 0 beside the positive one: y^2 + y/2 - 1 = 0
            ((0.0, -1.0, 0.5, 1.0), [-ROOT_17, 0.0, ROOT_17]),
            # one root far out under a tiny leading coefficient: y^3 = 1e12, y^5 = 1e20
            ((-1.0, 0.0, 0.0, 1e-12), [-100.0, 100.0]),
            ((-1.0, 0.0, 0.0, 0.0, 0.0, 1e-20), [-100.0, 100.0]),
            # y = 1e18, and P overflows at the root bound 2e18 (degree 38)
            ((-1.0,) + (0.0,) * 17 + (-1.0, 1e-18), [-1e9, 1e9]),
        ],
    )
    def test_at_most_one_sign_change_needs_no_companion_matrix(self, monkeypatch, P, want):
        seen = self._record_companions(monkeypatch)
        p = self._even(P)
        assert _root_finding_part(p) == p
        # _exercise_region's path for an even p without its degree cap, which
        # the degree 38 case exceeds
        roots = pp._mirrored(*pp._half_line_region(RealPolynomial(P)))[0]
        assert list(roots) == pytest.approx(want, rel=4e-16, abs=0.0)
        assert seen == []

    @pytest.mark.parametrize("sf", FAMILIES, ids=lambda sf: sf.family)
    def test_payoffs_settled_by_descartes_build_no_companion_matrix(self, monkeypatch, sf):
        seen = self._record_companions(monkeypatch)
        changes_seen = set()
        for n in (4, 6, 8, 12, 16):
            model = CoherentModel(n, sf)
            for t, T in ((1.0, 2.0), (2.0, 6.5)):
                for strike in (0.3, 0.6, 0.8, 0.9, 0.95, 1.0):
                    p = call_payoff_polynomial(model, OptionSpec(t, T, strike))
                    signs = [c > 0 for c in _root_finding_part(p).coeffs[::2] if c != 0]
                    changes = sum(a != b for a, b in zip(signs, signs[1:]))
                    changes_seen.add(min(changes, 2))
                    seen.clear()
                    # on the polynomial itself: price_bond_call may settle
                    # the sign from the brackets before any Descartes count
                    expected_positive_part(p)
                    assert (seen == []) == (changes <= 1)
        assert changes_seen == {0, 1, 2}


def swaption_case(n, q_t, steps, strike_share):
    """A swaption on brackets climbing from q_t by the given fractions of
    the remaining variance, struck at strike_share times the forward rate."""
    q_pay, q = [], q_t
    for step in steps:
        q = q + step * (1.0 - q)
        q_pay.append(q)
    dates = tuple(2.0 + i for i in range(len(q_pay)))
    model = CoherentModel(n, LookupBracket({1.0: q_t, **dict(zip(dates, q_pay))}))
    forward = (q_pay[-1] ** n - q_t**n) / sum(1.0 - x**n for x in q_pay)
    return model, SwaptionSpec(1.0, dates, strike_share * forward)


class TestSignCertificate:
    """Calls and swaptions whose squared-form coefficients share one sign
    are settled from the brackets: no root is sought."""

    @pytest.fixture
    def isolated(self, monkeypatch):
        """The names of the root-isolation functions called, in order: the
        pricer isolates the roots of an even payoff on z >= 0."""
        seen = []
        for name in ("_half_line_region", "_companion_eigenvalues"):
            real = getattr(pp, name)

            def spy(*args, _real=real, _name=name):
                seen.append(_name)
                return _real(*args)

            monkeypatch.setattr(pp, name, spy)
        return seen

    @pytest.mark.parametrize(
        "n, q_t, q_T, strike",
        [
            (4, 0.3, 0.5, 1.2),  # K >= 1
            (4, 0.3, 0.5, 1.0),
            (2, 0.3, 0.9, 0.5),  # K < 1: 0.5 * 0.7^2 < 0.6^2
        ],
    )
    def test_worthless_call(self, isolated, n, q_t, q_T, strike):
        model, spec = call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike)
        assert pp._sign_certificate(pp._squares(model, spec)[2]) == ()
        assert price_bond_call(model, spec) == 0.0
        assert call_delta(model, spec) == 0.0
        assert isolated == []
        # root isolation on the payoff agrees: nowhere positive
        assert expected_positive_part(call_payoff_polynomial(model, spec)).positive_intervals == ()

    def test_always_exercised_call(self, isolated):
        n, q_t, q_T, strike = 3, 0.3, 0.5, 0.2  # 0.8 * 0.7 > 0.2
        model, spec = call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike)
        price, delta = price_bond_call(model, spec), call_delta(model, spec)
        assert isolated == []
        res = expected_positive_part(call_payoff_polynomial(model, spec))
        assert res.roots == () and res.positive_intervals == ((-math.inf, math.inf),)
        # always exercised, the call is the forward P(0, T) - K P(0, t)
        assert price == pytest.approx((1 - q_T**n) - strike * (1 - q_t**n), rel=4 * sys.float_info.epsilon)
        assert delta == pytest.approx(1.0, rel=4 * sys.float_info.epsilon)

    @pytest.mark.parametrize("strike_share, want", [(10.0, ()), (0.1, ((-math.inf, math.inf),))])
    def test_settled_swaptions(self, isolated, strike_share, want):
        model, spec = swaption_case(5, 0.2, (0.3, 0.2, 0.4), strike_share)
        price = price_swaption(model, spec)
        assert isolated == []
        res = expected_positive_part(swaption_payoff_polynomial(model, spec))
        assert res.positive_intervals == want
        if want:
            # always exercised, the swaption is the forward swap
            q_t, q_pay = 0.2, [model.sf.q_at(T) for T in spec.payment_dates]
            forward = (q_pay[-1] ** 5 - q_t**5) - spec.strike * sum(1 - q**5 for q in q_pay)
            assert price == pytest.approx(forward, rel=4 * sys.float_info.epsilon)
        else:
            assert price == res.value == 0.0

    def test_open_contracts_still_isolate_roots(self, isolated):
        # near the money the coefficients change sign; at n = 16 the payoff
        # needs the companion matrix
        model, spec = CoherentModel(16, FAMILIES[0]), OptionSpec(2.0, 6.5, 0.9)
        assert pp._sign_certificate(pp._squares(model, spec)[2]) is None
        price_bond_call(model, spec)
        assert isolated == ["_half_line_region", "_companion_eigenvalues"]
        isolated.clear()
        call_delta(model, spec)
        assert isolated == ["_half_line_region", "_companion_eigenvalues"]
        isolated.clear()
        model, spec = swaption_case(3, 0.15, (0.3, 0.3, 0.3), 1.0)
        price_swaption(model, spec)
        assert isolated == ["_half_line_region"]

    def test_dyadic_origin_root_sits_on_the_boundary(self):
        # (1 - K) g^2 == h^2 exactly: the strict test leaves the payoff to
        # root isolation, which finds the root at the origin
        n, q_t, q_T, strike = 2, 0.5, 0.75, 0.75
        g, h = 1.0 - q_t, q_T - q_t
        assert (1.0 - strike) * g**n == h**n
        model, spec = call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike)
        c = pp._squares(model, spec)[2]
        assert c[0] == 0.0
        assert pp._sign_certificate(c) is None
        with pytest.raises(ValueError, match="degenerate"):
            call_delta(model, spec)

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_degree_cap_before_the_certificate(self, monkeypatch, n):
        whole = ((-math.inf, math.inf),)
        calls = [(1.5, ()), (0.0, whole)]
        q_pay = [0.44, 0.552]
        swaptions = [(0.5, ()), (0.0, whole)]
        call_on = call_model(n, 0.3, 0.5)
        swaption_on = CoherentModel(n, LookupBracket({1.0: 0.2, 2.0: q_pay[0], 3.0: q_pay[1]}))
        with monkeypatch.context() as raised:
            # with the cap lifted, every contract here is certified
            raised.setattr(pp, "MAX_DEGREE", 2 * n - 2)
            for strike, want in calls:
                assert pp._sign_certificate(pp._squares(call_on, OptionSpec(1.0, 2.0, strike))[2]) == want
            for strike, want in swaptions:
                assert pp._sign_certificate(pp._squares(swaption_on, SwaptionSpec(1.0, (2.0, 3.0), strike))[2]) == want
        for strike, _ in calls:
            for price in (price_bond_call, call_delta):
                with pytest.raises(ValueError, match="exceeds the supported maximum"):
                    price(call_on, OptionSpec(1.0, 2.0, strike))
        for strike, _ in swaptions:
            with pytest.raises(ValueError, match="exceeds the supported maximum"):
                price_swaption(swaption_on, SwaptionSpec(1.0, (2.0, 3.0), strike))

    @staticmethod
    def _construction_scale(n, magnitudes, q_t):
        """n! E[sum_m |c_m| q_t^m sum_terms |b| |Z|^i] over the terms b z^i
        of each (X^(m)(z, 1))^2, |c_m| bounded by magnitudes[m]: the size of
        the payoff before its coefficients cancel, and so the scale of the
        payoff's rounding error."""
        total = 0.0
        for m, size in enumerate(magnitudes):
            for b, i, _ in _squared_terms(m):  # i even: E|Z|^i = (i - 1)!!
                total += size * q_t**m * abs(b) * math.prod(range(i - 1, 0, -2))
        return math.factorial(n) * total

    @staticmethod
    def _agrees_with_root_isolation(price, n, payoff, scale):
        """The price is the positive part of the payoff within the payoff's
        rounding error: the price sums the squared form, the positive part
        the payoff's monomial moments.  Where the sign certificate settles
        intervals that root isolation on the payoff's float coefficients
        does not find, those coefficients have cancelled to their rounding
        error and root isolation cuts roots the exact payoff does not have;
        the two still differ only within that error."""
        res = expected_positive_part(payoff)
        assert abs(price - math.factorial(n) * res.value) <= 4.0 * sys.float_info.epsilon * scale

    @given(st.integers(1, 16), st.floats(0.01, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.2))
    @example(2, 0.01, 2.220446049250313e-16, 1.0)  # roots cut from rounding noise
    @settings(max_examples=150, deadline=None)
    def test_call_price_is_the_positive_part_of_its_payoff(self, n, q_t, frac, strike):
        q_T = q_t + frac * (1.0 - q_t)
        model, spec = call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike)
        g, h = 1.0 - q_t, q_T - q_t
        magnitudes = [(abs(1.0 - strike) * g**N + strike * h**N) / math.factorial(N) for N in range(n, 0, -1)]
        scale = self._construction_scale(n, magnitudes, q_t)
        payoff = call_payoff_polynomial(model, spec)
        self._agrees_with_root_isolation(price_bond_call(model, spec), n, payoff, scale)

    @given(
        st.integers(1, 16),
        st.floats(0.01, 0.95),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        st.floats(0.0, 1.5),
    )
    @example(3, 0.5, [1e-9], 0.0)  # a payoff near a double root
    @settings(max_examples=150, deadline=None)
    def test_swaption_price_is_the_positive_part_of_its_payoff(self, n, q_t, steps, strike_share):
        model, spec = swaption_case(n, q_t, [0.5 * step for step in steps], strike_share)
        q_pay = [model.sf.q_at(T) for T in spec.payment_dates]
        g = 1.0 - q_t
        magnitudes = [((q_pay[-1] - q_t) ** N + spec.strike * len(q_pay) * g**N) / math.factorial(N) for N in range(n, 0, -1)]
        scale = self._construction_scale(n, magnitudes, q_t)
        payoff = swaption_payoff_polynomial(model, spec)
        self._agrees_with_root_isolation(price_swaption(model, spec), n, payoff, scale)


class TestSquaresMomentSum:
    """_squares_moment_sum against the expanded squares in 50 digits:
    He_m^2 from the integer Hermite coefficients, times the truncated
    moments M_k by their own recurrence in mpmath."""

    mp = mpmath.mp.clone()
    mp.dps = 50

    @classmethod
    def reference(cls, a, lo, hi):
        mp = cls.mp
        a_, b_ = (mp.mpf(lo) if math.isfinite(lo) else lo), (mp.mpf(hi) if math.isfinite(hi) else hi)
        ra, rb = (mp.npdf(a_) if math.isfinite(lo) else 0), (mp.npdf(b_) if math.isfinite(hi) else 0)
        moments = [mp.ncdf(b_) - mp.ncdf(a_), ra - rb]
        for k in range(2, 2 * len(a) - 1):
            moments.append((k - 1) * moments[k - 2] + (a_ ** (k - 1) * ra if ra else 0) - (b_ ** (k - 1) * rb if rb else 0))
        total = mp.mpf(0)
        for m, am in enumerate(a):
            h = hermite(m).coeffs
            square = sum(x * y * moments[i + j] for i, x in enumerate(h) for j, y in enumerate(h))
            total += mp.mpf(am) * square / math.factorial(m) ** 2
        return total

    @classmethod
    def rounding_scale(cls, a, lo, hi):
        """sum_m |a_m| S_m, S_m the recurrence run on magnitudes: the normal
        tail it differences plus the argument's condition |z| rho(z), then
        S_m = (S_(m-1) + |X^(m) X^(m-1) rho| at both ends) / m."""
        mp = cls.mp
        ends = []
        for z in (lo, hi):
            if math.isfinite(z):
                xs = [mp.mpf(1), mp.mpf(z)]
                for m in range(1, len(a)):
                    xs.append((z * xs[m] - xs[m - 1]) / (m + 1))
                ends.append((xs, mp.npdf(z)))
        size = mp.ncdf(-lo) if lo > 0 else mp.ncdf(hi)
        size += sum(abs(xs[1]) * r for xs, r in ends)
        total = abs(a[0]) * size
        for m in range(1, len(a)):
            size = (size + sum(abs(xs[m] * xs[m - 1]) * r for xs, r in ends)) / m
            total += abs(a[m]) * size
        return total

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
        st.floats(-9.0, 9.0) | st.just(-math.inf),
        st.floats(-9.0, 9.0) | st.just(math.inf),
    )
    @example([1.0, -2.0, 0.5], -math.inf, math.inf)
    @example([0.3] * 12, 5.910373646080854, math.inf)  # a right tail: 1 - Phi would cancel
    @settings(max_examples=100, deadline=None)
    def test_matches_the_expanded_squares(self, a, x, y):
        lo, hi = min(x, y), max(x, y)
        got = pp._squares_moment_sum(a, [(lo, hi)])
        err = abs(self.mp.mpf(got) - self.reference(a, lo, hi))
        # plus the underflow of a subnormal term, an absolute ulp(0.0) each
        assert err <= 64 * sys.float_info.epsilon * self.rounding_scale(a, lo, hi) + 2 * len(a) * math.ulp(0.0)

    def test_sums_over_every_interval(self):
        a, intervals = [0.5, -1.0, 2.0, 0.25], [(-math.inf, -2.0), (-0.5, 0.75), (3.0, math.inf)]
        want = sum(self.reference(a, lo, hi) for lo, hi in intervals)
        assert float(want) == pytest.approx(pp._squares_moment_sum(a, intervals), rel=8 * sys.float_info.epsilon)
        assert pp._squares_moment_sum(a, ()) == 0.0

    def test_whole_line_moments_are_inverse_factorials(self):
        # K_m = E[(He_m(Z) / m!)^2] = 1 / m!
        for m in range(20):
            a = [0.0] * m + [1.0]
            got = pp._squares_moment_sum(a, [(-math.inf, math.inf)])
            assert abs(got * math.factorial(m) - 1.0) <= (m + 1) * sys.float_info.epsilon

    @pytest.mark.parametrize("h", [1e-8, 1e-5, 0.3])
    def test_tiny_region_across_the_origin(self, h):
        # K_0 of [-h, h] as Phi(h) - Phi(-h) cancels to the rounding of 1/2:
        # 4.5e-9 relative at h = 1e-8.  The two erf halves do not cancel.
        a = [1.0, 0.5, 0.25, 2.0]
        want = self.reference(a, -h, h)
        for got in (pp._squares_moment_sum(a, [(-h, h)]), 2.0 * pp._squares_moment_sum(a, [(0.0, h)])):
            assert abs(self.mp.mpf(got) - want) <= 4 * sys.float_info.epsilon * want

    @staticmethod
    def _mirror(half, origin_root):
        """The symmetric region whose right half is the intervals half: with
        a root at the origin the interval from 0 is cut there."""
        left = [(-hi, -lo) for lo, hi in reversed(half)]
        if half and half[0][0] == 0.0 and not origin_root:
            return left[:-1] + [(left[-1][0], half[0][1])] + half[1:]
        return left + half

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
        st.lists(st.floats(0.01, 9.0), max_size=6, unique=True),
        st.booleans(),
        st.booleans(),
    )
    @example([1.0, -2.0, 0.5], [], False, True)  # the whole line
    @example([0.3, 1.0, -0.2, 0.7], [1.5], True, True)  # a root at 0
    @example([0.3, 1.0, -0.2, 0.7], [1.5], False, True)  # an interval across 0
    @example([0.3] * 12, [8.5, 30.0], False, False)  # far tails
    @settings(max_examples=100, deadline=None)
    def test_half_line_sum_is_half_the_symmetric_region(self, a, cuts, origin_root, exercised_first):
        edges = [0.0] + sorted(cuts) + [math.inf]
        half = [(lo, hi) for i, (lo, hi) in enumerate(zip(edges, edges[1:])) if (i % 2 == 0) == exercised_first]
        whole = self._mirror(half, origin_root)
        got = 2.0 * pp._squares_moment_sum(a, half)
        err = abs(self.mp.mpf(got) - sum(self.reference(a, lo, hi) for lo, hi in whole))
        scale = sum(self.rounding_scale(a, lo, hi) for lo, hi in whole)
        assert err <= 64 * sys.float_info.epsilon * scale + 2 * len(a) * len(whole) * math.ulp(0.0)

    @given(st.integers(1, 16), st.floats(0.001, 0.99), st.floats(0.0, 1.0), st.floats(0.0, 1.2))
    @settings(max_examples=200, deadline=None)
    def test_whole_line_call_is_the_forward(self, n, q_t, frac, strike):
        # always exercised, n! sum_m c_m q_t^m / m! telescopes to
        # P(0, T) - K P(0, t); against that forward in exact arithmetic on
        # the float inputs, within a few ulps of its two parts
        q_T = q_t + frac * (1.0 - q_t)
        model, spec = call_model(n, q_t, q_T), OptionSpec(1.0, 2.0, strike)
        assume(pp._sign_certificate(pp._squares(model, spec)[2]) == ((-math.inf, math.inf),))
        price = price_bond_call(model, spec)
        qt, qT, k = Fraction(q_t), Fraction(q_T), Fraction(strike)
        forward = (1 - qT**n) - k * (1 - qt**n)
        scale = abs(1 - k) * (1 - qT**n) + k * (qT**n - qt**n)
        assert abs(Fraction(price) - forward) <= (n + 4) * Fraction(sys.float_info.epsilon) * scale


def full_line_region(p):
    """(roots, intervals) of an even p by the whole-line sweep: the roots
    y >= 0 of P, p(z) = P(z^2), each y > 0 mapped to -sqrt(y), sqrt(y), and
    the sign of every cut of the whole line read from P(z^2); a root-finding
    part of degree at most 2 by the closed forms in z."""
    part = _root_finding_part(p)
    if part.degree <= 2:
        roots = _real_roots(part)
    else:
        P_part = RealPolynomial(part.coeffs[::2])
        roots = []
        for y in _real_roots(P_part) if P_part.degree <= 2 else pp._nonnegative_roots(P_part):
            if y > 0:
                z = math.sqrt(y)
                roots.extend([-z, z])
            elif y == 0:
                roots.append(0.0)
        roots.sort()
    P = RealPolynomial(p.coeffs[::2])
    intervals = []
    for lo, hi in zip([-math.inf] + roots, roots + [math.inf]):
        z = pp._interior_point(lo, hi)
        if P(z * z) > 0:
            intervals.append((lo, hi))
    return tuple(roots), tuple(intervals)


class TestHalfLineRegion:
    """_exercise_region solves an even payoff on z >= 0 and mirrors it: its
    roots and intervals are those of the whole-line sweep bit for bit, a
    root at the origin +0.0 on both sides."""

    @staticmethod
    def _same_region(got, want):
        """(roots, intervals) equal float for float, signed zeros apart."""
        flat = [(roots, [x for cut in intervals for x in cut]) for roots, intervals in (got, want)]
        for xs, ys in zip(*flat):
            assert len(xs) == len(ys)
            for x, y in zip(xs, ys):
                assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), (got, want)

    def _check(self, c, q_t):
        a = pp._scaled(c, q_t)
        p = squares_polynomial(a, 1.0)
        self._same_region(pp._exercise_region(p), full_line_region(p))

    @given(st.integers(3, 16), st.floats(0.01, 0.999), st.floats(0.01, 0.999), st.floats(0.0, 1.2))
    @example(2, 0.5, 0.75, 0.75)  # the dyadic root at the origin
    @example(16, 0.9765282605635307, 0.9986941723829467, 0.09077588699168371)  # TestTailContractWork
    @settings(max_examples=200, deadline=None)
    def test_calls(self, n, x, y, strike):
        q_t, _, c = pp._squares(call_model(n, min(x, y), max(x, y)), OptionSpec(1.0, 2.0, strike))
        self._check(c, q_t)

    @pytest.mark.parametrize(
        "P, want_roots, want_intervals",
        [
            # the dyadic call: p = c z^2, c < 0
            (call_payoff_polynomial(call_model(2, 0.5, 0.75), OptionSpec(1.0, 2.0, 0.75)).coeffs[::2], (0.0,), ()),
            # y (1 - y^2): exercised on both sides of the root at the origin
            ((0.0, 1.0, 0.0, -1.0), (-1.0, 0.0, 1.0), ((-1.0, 0.0), (0.0, 1.0))),
            # -y (1 - y^2): exercised outside +-1
            ((0.0, -1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), ((-math.inf, -1.0), (1.0, math.inf))),
        ],
    )
    def test_root_at_the_origin_is_positive_zero(self, P, want_roots, want_intervals):
        self._same_region(pp._exercise_region(TestEvenPayoffs._even(P)), (want_roots, want_intervals))

    @given(st.floats(0.01, 0.999), st.floats(0.01, 0.999), st.floats(0.0, 1.2))
    @settings(max_examples=200, deadline=None)
    def test_linear_P_gives_symmetric_roots(self, x, y, strike):
        # n = 2: p = c_0 + c_2 z^2 and P is linear.  Its roots +-sqrt(-c_0 / c_2)
        # are exactly symmetric, within 2 ulps of the quadratic formula on p,
        # whose two roots round apart
        q_t, q_T = min(x, y), max(x, y)
        p = call_payoff_polynomial(call_model(2, q_t, q_T), OptionSpec(1.0, 2.0, strike))
        roots = pp._exercise_region(p)[0]
        assert roots == tuple(-z for z in reversed(roots))
        quadratic = _real_roots(p)
        assert len(roots) == len(quadratic)
        for z, w in zip(roots, quadratic):
            assert abs(z - w) <= 2 * math.ulp(w)

    @given(
        st.integers(3, 16),
        st.floats(0.01, 0.95),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.floats(0.0, 1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_swaptions(self, n, q_t, steps, strike_share):
        q_t, _, c = pp._squares(*swaption_case(n, q_t, [0.5 * step for step in steps], strike_share))
        self._check(c, q_t)


def count_calls(monkeypatch, *names):
    """Count the calls of each pp.<name> under its name."""
    counts = collections.Counter()
    for name in names:
        real = getattr(pp, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pp, name, counted)
    return counts


# the n = 16 call payoff at Q_t = 0.895099408233954, Q_T = 0.9997013358474597,
# K = 0.007638828534798706 as the linearised weights built it: its monomial
# coefficients cancel to rounding near the roots +-5.04, the coefficients of
# P(y), p(z) = P(z^2)
ILL_CONDITIONED_PAYOFF = (
    -2.7432166957542942e-18, -1.5090185466699283e-16, 7.20364415586688e-16, -1.31459901817092e-15,
    1.185364665774726e-15, -6.102041398528949e-16, 1.9485098243134302e-16, -4.064615637348558e-17,
    5.719913761950827e-18, -5.5285411132496295e-19, 3.6913545007615724e-20, -1.6908331452410771e-21,
    5.19054050417611e-23, -1.0159082163478063e-24, 1.1410423998614438e-26, -5.576202316691235e-29,
)


def test_newton_stops_at_the_rounding_floor(monkeypatch):
    # roots so ill-conditioned that Newton steps from a point at the
    # rounding floor only wander in noise
    p = TestEvenPayoffs._even(ILL_CONDITIONED_PAYOFF)
    size = RealPolynomial([abs(c) for c in p.coeffs])
    x = 5.042924790072165
    assert 0.0 < abs(p(x)) <= _ROUNDING_FLOOR * size(abs(x))
    counts = count_calls(monkeypatch, "_fused_pass")
    (root,) = pp._polished_roots(p, [x])
    # at most 2 Newton passes, and the certificate's pass at the root
    assert counts["_fused_pass"] <= 3
    assert abs(p(root)) <= 1e-11 * term_magnitude(p, root)


# (1e6 z - 1)(z^2 + 1): one simple root at z = 1e-6, where p' is about 1e6
STEEP_SMALL_ROOT_PAYOFF = (-1.0, 1e6, -1.0, 1e6)


@pytest.mark.parametrize("offset", [-9e-16, -2e-16, 5e-17, 2e-16, 5e-16, 9e-16])
def test_a_steep_root_is_certified_where_newton_stops(offset):
    # a start this close to the root is one Newton step below 1e-15 away,
    # yet |p| there is 1e6 |offset|, above the bound 1e-11 (1 + size) ~ 3e-11:
    # only the pass at the point Newton returns certifies the root
    p = RealPolynomial(STEEP_SMALL_ROOT_PAYOFF)
    assert pp._polished_roots(p, [1e-6 + offset]) == [pytest.approx(1e-6, rel=1e-15, abs=0.0)]


def test_steep_small_root_price():
    # E[(p(Z))+] over (a, inf), a = 1e-6, by the partial moments of Z^k there
    res = expected_positive_part(RealPolynomial(STEEP_SMALL_ROOT_PAYOFF))
    assert res.roots == pytest.approx((1e-6,), rel=1e-15, abs=0.0)
    a = 1e-6
    pdf, tail = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi), 0.5 * math.erfc(a / math.sqrt(2.0))
    want = 1e6 * (a * a + 2.0) * pdf - (a * pdf + tail) + 1e6 * pdf - tail
    assert res.value == pytest.approx(want, rel=1e-14, abs=0.0)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=31), st.floats(-50.0, 50.0))
@settings(max_examples=200)
def test_fused_pass_is_three_horner_passes_bit_for_bit(c, x):
    assume(c[-1] != 0.0)
    p = RealPolynomial(c)
    size = RealPolynomial([abs(ck) for ck in c])
    assert pp._fused_pass(pp._fused_terms(p.coeffs), x) == (p(x), p.derivative()(x), size(abs(x)))


class TestTailContractWork:
    """The n = 16 call that sets analytic_book's tail: every c_m but the top
    one is positive, so P has 15 positive roots near the zeros of He_15 and the
    call is exercised on 15 short intervals, 8 of them on z >= 0 (the one
    across the origin counted once)."""

    MODEL = call_model(16, 0.9765282605635307, 0.9986941723829467)
    SPEC = OptionSpec(1.0, 2.0, 0.09077588699168371)

    @pytest.mark.parametrize("api", [price_bond_call, call_delta])
    def test_one_pass_per_newton_step_and_one_sign_per_interval(self, monkeypatch, api):
        roots, intervals = pp._exercise_region(call_payoff_polynomial(self.MODEL, self.SPEC))
        assert (len(roots), len(intervals)) == (30, 15)
        counts = count_calls(monkeypatch, "_fused_pass")
        real_call = RealPolynomial.__call__

        def counted_call(p, x):
            counts["RealPolynomial"] += 1
            return real_call(p, x)

        monkeypatch.setattr(RealPolynomial, "__call__", counted_call)
        api(self.MODEL, self.SPEC)
        # each Newton step and each root certificate evaluate p, p' and the
        # rounding size in one fused pass: 36 passes for the 15 roots of P here
        assert counts["_fused_pass"] <= 2.5 * 15
        # one evaluation of P(z * z) per interval of [0, inf) between the 15
        # roots z > 0: the pricer signs only the right half
        assert counts["RealPolynomial"] == 16


class TestNearZeroExpiry:
    """Q_t so small that the payoff's leading coefficient underflows: the
    price is the q_t -> 0 intrinsic value max(P(0, T) - K P(0, t), 0)."""

    @staticmethod
    def _intrinsic(model, spec):
        P0t = initial_bond_price(model, spec.option_maturity)
        P0T = initial_bond_price(model, spec.bond_maturity)
        return max(P0T - spec.strike * P0t, 0.0)

    def test_analytic_price(self):
        model = CoherentModel(5, ExponentialDensity(0.1))
        spec = OptionSpec(1e-79, 5.0, 0.35)
        assert 0.0 < abs(call_payoff_polynomial(model, spec).coeffs[-1]) < 1e-300
        price = price_bond_call(model, spec)
        assert math.isfinite(price)
        assert price == pytest.approx(self._intrinsic(model, spec), abs=1e-12)
        assert call_delta(model, spec) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_oracle(self):
        model = CoherentModel(3, ExponentialDensity(0.1))
        spec = OptionSpec(1e-160, 5.0, 0.35)
        poly = call_payoff_polynomial(model, spec)
        assert 0.0 < abs(poly.coeffs[-1]) < 1e-300
        want = self._intrinsic(model, spec)
        for price in (quadrature_price(poly, 3), price_bond_call(model, spec)):
            assert math.isfinite(price)
            assert price == pytest.approx(want, abs=1e-12)
