import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosrates import (
    CoherentModel,
    DiscreteAtoms,
    ExponentialDensity,
    GaussianState,
    bond_price,
    chaos_polynomial,
    chaos_value,
    chaos_values,
    initial_bond_price,
    kernel_coefficient,
    kernel_polynomial,
    pricing_kernel,
    risk_premium,
    short_rate,
    state_at,
)
from chaosrates.coherent_model import (
    _chaos_terms,
    from_descriptor,
    iter_chaos_values,
    pair_sum,
    product_weights,
    squares_polynomial,
    to_descriptor,
)
from support import assert_within_rounding, banded_projection, exact_squares, scaled_hermite_chaos

SF = ExponentialDensity(0.1)


@given(
    st.integers(-2, 10),
    st.floats(-3, 3),
    st.floats(1e-8, 1.0),
)
@settings(max_examples=300)
def test_chaos_value_equals_scaled_hermite(m, r, q):
    # q bounded away from 0: the scaled-Hermite reference itself overflows
    # for denormal q, the q -> 0 limit is covered below
    got = chaos_value(m, r, q)
    want = scaled_hermite_chaos(m, r, q)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@given(st.integers(0, 10), st.floats(-3, 3), st.floats(0, 1e-30))
@settings(max_examples=100)
def test_chaos_value_degenerates_to_monomial_at_tiny_bracket(m, r, q):
    want = r**m / math.factorial(m)
    assert chaos_value(m, r, q) == pytest.approx(want, rel=1e-10, abs=1e-15)


def test_chaos_value_low_orders():
    assert chaos_value(0, 0.7, 0.2) == 1.0
    assert chaos_value(-1, 0.7, 0.2) == 0.0
    assert chaos_value(1, 0.7, 0.2) == 0.7
    assert chaos_value(2, 0.7, 0.2) == pytest.approx((0.7**2 - 0.2) / 2, rel=1e-15)


def _term_scale(m, r, q):
    # sum of |monomial terms| of X^(m): the size a float evaluation rounds at
    return sum(float(abs(c)) * np.abs(r) ** i * q**j for c, i, j in _chaos_terms(m))


def test_chaos_values_agree_with_hermite_and_polynomial_forms():
    rng = np.random.default_rng(40)
    rs = np.concatenate([rng.uniform(-6.0, 6.0, 12), [0.0]])
    for q in (1e-6, 0.2, 0.7, 1.0):
        arrays = chaos_values(40, rs, q)
        for idx, r in enumerate(rs):
            scalars = chaos_values(40, float(r), q)
            for m in range(41):
                hermite_form = scaled_hermite_chaos(m, float(r), q)
                polynomial_form = chaos_polynomial(m, q)(float(r))
                tol = 1e-13 * _term_scale(m, r, q)
                assert abs(scalars[m] - hermite_form) <= tol
                assert abs(scalars[m] - polynomial_form) <= tol
                assert chaos_value(m, float(r), q) == scalars[m] == arrays[m][idx]
        for m in range(41):
            assert np.array_equal(chaos_value(m, rs, q), arrays[m])


def test_chaos_values_broadcast_over_brackets():
    rs = np.array([[-1.5], [0.3], [2.0]])
    qs = np.array([0.0, 0.25, 0.9])
    grid = chaos_values(12, rs, qs)
    assert len(grid) == 13 and chaos_values(-1, 0.3, 0.2) == []
    for m, x in enumerate(grid):
        assert x.shape == (3, 3)
        for i, j in np.ndindex(3, 3):
            assert x[i, j] == chaos_values(m, float(rs[i, 0]), float(qs[j]))[m]


def test_chaos_polynomial_agrees_with_direct_value():
    for m in range(7):
        poly = chaos_polynomial(m, 0.35)
        for r in (-1.2, 0.0, 0.8):
            assert poly(r) == pytest.approx(chaos_value(m, r, 0.35), rel=1e-13, abs=1e-15)
        assert poly.degree == m


class TestKernelCoefficients:
    def test_exact_weight_tables(self):
        assert [kernel_coefficient(2, k) for k in (1, 2)] == [Fraction(2), Fraction(1, 2)]
        assert [kernel_coefficient(3, k) for k in (1, 2, 3)] == [
            Fraction(6),
            Fraction(1),
            Fraction(1, 6),
        ]

    def test_general_formula(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                want = Fraction(
                    math.factorial(2 * (n - k)),
                    math.factorial(k) * math.factorial(n - k) ** 2,
                )
                assert kernel_coefficient(n, k) == want


@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200)
def test_pair_sum_is_the_banded_double_sum(a, b, ri, rj, g, frac):
    # sum_k g_T^k / k! E_t[X_T^(a-k) X_T^(b-k)], each projection the banded
    # sum over h = g - g_T: the numerator before regrouping by N = k + m
    g_T = g * frac
    xi, xj = chaos_values(a, ri, 0.3), chaos_values(b, rj, 0.6)
    want = sum(
        g_T**k / math.factorial(k) * banded_projection(g - g_T, a - k, b - k, xi, xj)
        for k in range(1, min(a, b) + 1)
    )
    scale = sum(abs(x * y) for x in xi for y in xj)
    assert abs(pair_sum(a, b, xi, xj, g, g_T) - want) <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_at_origin_is_reciprocal_factorial(n):
    model = CoherentModel(n, SF)
    pi0 = pricing_kernel(model, GaussianState(0.0, 0.0, 0.0))
    assert pi0 == 1.0 / math.factorial(n)


def test_order_two_kernel_closed_form():
    # (1-Q) R^2 + (1-Q)^2 / 2, checked against the generic weight sum
    q, r = 0.3, 0.4
    model = CoherentModel(2, SF)
    pi = pricing_kernel(model, GaussianState(3.0, r, q))
    assert pi == pytest.approx((1 - q) * r * r + 0.5 * (1 - q) ** 2, rel=1e-14)


def test_kernel_polynomial_degree_and_value():
    for n in (1, 2, 3, 4):
        poly = kernel_polynomial(n, 0.4, 0.4)
        assert poly.degree == 2 * n - 2
        model = CoherentModel(n, SF)
        state = GaussianState(1.0, -0.9, 0.4)
        assert poly(-0.9) == pytest.approx(pricing_kernel(model, state), rel=1e-12)


@pytest.mark.parametrize(
    "n",
    # past MAX_ORDER the weights stopped at order 20's and landed on the wrong
    # squares; order 0 gave the zero polynomial; a float order raised TypeError
    [25, 21, 0, -1, 2.5, True],
)
def test_kernel_polynomial_rejects_a_bad_order(n):
    with pytest.raises(ValueError, match="chaos order must be an integer"):
        kernel_polynomial(n, 0.3, 0.3)


@given(st.integers(1, 20), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_product_weights_match_exact_fractions(n, g, frac):
    # every term of the recurrence is nonnegative, so each weight carries a
    # relative error of a few roundings per order, however close h is to g;
    # a subnormal weight adds up to one unit of 5e-324 per rounding
    g_T = g * frac
    h = Fraction(g - g_T)  # the difference product_weights forms, exact here
    G, G_T = Fraction(g), Fraction(g_T)
    for N, got in enumerate(product_weights(n, g, g_T), 1):
        want = G_T * sum(G**k * h ** (N - 1 - k) for k in range(N)) / math.factorial(N)
        assert abs(Fraction(got) - want) <= 4 * N * (Fraction(sys.float_info.epsilon) * want + Fraction(5e-324))


@given(
    st.integers(1, 20),
    st.lists(st.integers(-(2**20), 2**20), min_size=20, max_size=20),
    st.integers(0, 2**10),
)
@settings(max_examples=100, deadline=None)
def test_squares_polynomial_matches_exact_squares_on_dyadic_inputs(n, numerators, q_numerator):
    # dyadic weights and bracket are exact floats, so the Fraction
    # construction from the integer Hermite coefficients is the exact sum
    c = [k / 2**10 for k in numerators[:n]]
    q = q_numerator / 2**10
    want, magnitudes = exact_squares(c, q)
    got = squares_polynomial(c, q).coeffs
    assert_within_rounding(got, want, magnitudes, n + 4)


@given(st.integers(1, 20), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_kernel_polynomial_matches_exact_squares(n, q_state, gap):
    # E_t[pi_T] = sum_N (g^N - h^N) / N! (X^(n-N))^2 from the float brackets
    # taken as exact; the weights add a few roundings per order
    q_maturity = q_state + gap * (1.0 - q_state)
    g, h = 1 - Fraction(q_state), Fraction(q_maturity) - Fraction(q_state)
    weights = [(g ** (n - m) - h ** (n - m)) / math.factorial(n - m) for m in range(n)]
    want, magnitudes = exact_squares(weights, q_state)
    got = kernel_polynomial(n, q_state, q_maturity).coeffs
    assert_within_rounding(got, want, magnitudes, 8 * n)


@given(st.integers(1, 5), st.floats(-2.5, 2.5), st.floats(0.0, 0.99))
@settings(max_examples=300)
def test_kernel_is_strictly_positive_before_exhaustion(n, r, q):
    # q capped at 0.99: at n=5 the smallest variance contribution is
    # (1-q)^5/5! ~ 8e-13, still far above summation roundoff
    pi = kernel_polynomial(n, q, q)(r)
    assert pi > 0.0


@given(st.integers(1, 12), st.floats(-4.0, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_pair_sum_broadcasts_cell_by_cell(n, r, q, q_T):
    """pair_sum on a (2, 3) array of R with one g per column, as simulate_paths
    calls it, bit for bit the scalar pair_sum of each cell."""
    rs = np.array([[r, -r, 0.5 * r], [0.0, 2.0 * r, -1.5]])
    qs = np.array([q, 0.5 * q, q * q])
    g = 1.0 - qs
    xs = chaos_values(n - 1, rs, qs)
    kernels = pair_sum(n, n, xs, xs, g, g)
    numers = pair_sum(n, n, xs, xs, g, 1.0 - q_T)
    assert kernels.shape == numers.shape == rs.shape
    for (i, j), r_cell in np.ndenumerate(rs):
        cell = chaos_values(n - 1, float(r_cell), float(qs[j]))
        g_cell = float(g[j])
        assert kernels[i, j] == pair_sum(n, n, cell, cell, g_cell, g_cell)
        assert numers[i, j] == pair_sum(n, n, cell, cell, g_cell, 1.0 - q_T)


@pytest.mark.parametrize("m", range(-1, 21))
def test_chaos_values_is_the_generator_list_bit_for_bit(m):
    # the one-loop list takes the recurrence's operations in the same order
    rng = np.random.default_rng([m + 1, 3])
    for r, q in [(float(rng.normal()), float(rng.uniform())), (rng.normal(size=4), rng.uniform(size=4))]:
        got, want = chaos_values(m, r, q), list(iter_chaos_values(m, r, q))
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
        assert [type(x) for x in got] == [type(x) for x in want]


def pair_sum_by_list(a, b, xi, xj, g, g_T):
    """pair_sum as it read before its walk: over the product_weights list."""
    acc = 0.0
    for N, w in enumerate(product_weights(min(a, b), g, g_T), 1):
        acc += w * xi[a - N] * xj[b - N]
    return acc


@pytest.mark.parametrize("n", range(1, 21))
def test_pair_sum_walks_the_product_weights_bit_for_bit(n):
    """The in-place walk of the weights sums exactly as the list did: on
    scalars, and cell by cell on arrays of R, Q, g and g_T that broadcast."""
    rng = np.random.default_rng([n, 1])
    for trial in range(20):
        a, b = ((n, n), (n, n - 1), tuple(rng.integers(0, n + 1, 2)))[trial % 3]
        q_i, q_j, g = rng.uniform(0.0, 1.0, 3)
        # the kernel (g_T = g), a last maturity (g_T = 0) and any maturity between
        g_T = (g, 0.0, g * rng.uniform())[trial % 3]
        xi = chaos_values(a - 1, float(rng.normal()), q_i)
        xj = chaos_values(b - 1, float(rng.normal()), q_j)
        got, want = pair_sum(a, b, xi, xj, g, g_T), pair_sum_by_list(a, b, xi, xj, g, g_T)
        assert type(got) is type(want) and repr(got) == repr(want)
        rs, qs = rng.normal(size=(2, 5)), rng.uniform(0.0, 1.0, 5)
        gs = rng.uniform(0.0, 1.0, 5)
        xi, xj = chaos_values(a - 1, rs, qs), chaos_values(b - 1, rs[::-1], qs)
        for g_Ts in (gs, gs * rng.uniform(size=5), 0.0):
            got = np.asarray(pair_sum(a, b, xi, xj, gs, g_Ts))
            assert got.tobytes() == np.asarray(pair_sum_by_list(a, b, xi, xj, gs, g_Ts)).tobytes()


def test_overflowing_kernel_raises_instead_of_nan():
    # at n = 3, X^(4) ~ R^4 / 24 overflows for R = 1e100: the kernel is inf
    model = CoherentModel(3, SF)
    state = state_at(SF, 1.0, 1e100)
    with pytest.raises(OverflowError):
        pricing_kernel(model, state)
    with pytest.raises(ValueError, match="not finite"):
        bond_price(model, state, 2.0)
    with pytest.raises(ValueError, match="not finite"):
        short_rate(model, state)
    with pytest.raises(ValueError, match="not finite"):
        risk_premium(model, state)


class TestBondPrices:
    def test_initial_curve_value(self):
        model = CoherentModel(2, SF)
        q10 = SF.q_at(10.0)
        assert initial_bond_price(model, 10.0) == pytest.approx(1 - q10 * q10, rel=1e-15)

    def test_spec_exponential_example(self):
        # n=2, rate 0.1, t=10: price 1 - (1 - e^-1)^2, approximately 0.6004
        model = CoherentModel(2, SF)
        assert initial_bond_price(model, 10.0) == pytest.approx(0.6004, abs=5e-5)

    def test_bond_equals_initial_price_at_origin(self):
        model = CoherentModel(3, SF)
        s0 = GaussianState(0.0, 0.0, 0.0)
        for T in (0.5, 2.0, 17.0):
            assert bond_price(model, s0, T) == pytest.approx(initial_bond_price(model, T), rel=1e-14)

    def test_bond_at_own_maturity_is_par(self):
        model = CoherentModel(2, SF)
        s = state_at(SF, 4.0, 0.7)
        assert bond_price(model, s, 4.0) == pytest.approx(1.0, rel=1e-14)

    def test_bond_rejects_maturity_before_state(self):
        model = CoherentModel(2, SF)
        with pytest.raises(ValueError):
            bond_price(model, state_at(SF, 4.0, 0.0), 3.0)

    @given(st.integers(1, 4), st.floats(-2, 2), st.floats(0.1, 6.0), st.floats(0.1, 8.0))
    @settings(max_examples=200)
    def test_bond_decreasing_in_maturity(self, n, r, t, gap):
        model = CoherentModel(n, SF)
        s = state_at(SF, t, r)
        near = bond_price(model, s, t + 0.25)
        far = bond_price(model, s, t + 0.25 + gap)
        assert far <= near + 1e-12
        assert 0.0 < far <= 1.0 + 1e-12


def test_short_rate_is_forward_yield_at_zero_tenor():
    # r_t = -d/dT log P_tT at T=t; independent finite-difference check
    model = CoherentModel(3, SF)
    for t, r in [(1.0, 0.2), (6.0, -1.1), (12.0, 0.0)]:
        s = state_at(SF, t, r)
        rate = short_rate(model, s)
        h = 1e-6
        fd = -(math.log(bond_price(model, s, t + h))) / h
        assert rate == pytest.approx(fd, rel=5e-5, abs=5e-7)


def test_short_rate_vanishes_for_atom_families_between_atoms():
    atoms = DiscreteAtoms((1.0, 4.0), (0.5, 0.5))
    model = CoherentModel(2, atoms)
    s = GaussianState(2.0, 0.3, 0.5)
    assert short_rate(model, s) == 0.0
    assert risk_premium(model, s) == 0.0


def test_risk_premium_is_kernel_log_derivative():
    # lambda_t = -phi(t) (d pi / dR) / pi, via the kernel polynomial derivative
    model = CoherentModel(3, SF)
    for t, r in [(2.0, 0.5), (9.0, -0.8)]:
        q = SF.q_at(t)
        s = GaussianState(t, r, q)
        poly = kernel_polynomial(3, q, q)
        phi = math.sqrt(SF.squared_density(t))
        want = -phi * poly.derivative()(r) / poly(r)
        assert risk_premium(model, s) == pytest.approx(want, rel=1e-11)


def test_short_rate_nonnegative_on_lattice():
    # positive-rate property of the family
    model = CoherentModel(2, SF)
    for t in (0.5, 1.0, 3.0, 8.0, 20.0):
        for r in (-2.0, -0.5, 0.0, 0.5, 2.0):
            s = state_at(SF, t, r)
            assert short_rate(model, s) >= 0.0


@pytest.mark.parametrize("n", [5, 8, 12, 16, 20])
def test_short_rate_nonnegative_at_the_roots_of_the_rate_chaos(n):
    # r_t = phi_t^2 (X^(n-1))^2 / pi_t vanishes where X^(n-1) does, at
    # R = sqrt(Q) z for each root z of He_(n-1); a rounded sum of signed
    # terms can land below zero there
    sf = ExponentialDensity(0.23)
    model = CoherentModel(n, sf)
    q = sf.q_at(2.0)
    roots = np.polynomial.hermite_e.hermeroots([0.0] * (n - 1) + [1.0])
    for z in roots:
        for shift in (-1e-9, 0.0, 1e-9):
            assert short_rate(model, GaussianState(2.0, math.sqrt(q) * (z + shift), q)) >= 0.0


class TestModelConstruction:
    def test_rejects_bad_order(self):
        for bad in (0, -1, 21, 2.5, True):
            with pytest.raises((ValueError, TypeError)):
                CoherentModel(bad, SF)

    def test_descriptor_round_trip(self):
        model = CoherentModel(3, ExponentialDensity(0.25))
        back = from_descriptor(to_descriptor(model))
        assert back.n == 3
        assert back.sf.rate == 0.25

    def test_descriptor_requires_fields(self):
        with pytest.raises(ValueError):
            from_descriptor({"n": 2})
