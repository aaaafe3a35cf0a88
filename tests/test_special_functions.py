import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from chaosrates import (
    RealPolynomial,
    gaussian_partial_moments,
    hermite,
    hermite_product_expansion,
    normal_cdf,
    normal_pdf,
)
from chaosrates.special_functions import _even_partial_moments

# first few probabilists' polynomials, coefficients in increasing degree
KNOWN_HERMITE = {
    0: (1,),
    1: (0, 1),
    2: (-1, 0, 1),
    3: (0, -3, 0, 1),
    4: (3, 0, -6, 0, 1),
    5: (0, 15, 0, -10, 0, 1),
    6: (-15, 0, 45, 0, -15, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_HERMITE.items()))
def test_hermite_coefficient_table(n, coeffs):
    assert hermite(n).coeffs == coeffs


def test_hermite_coefficients_are_exact_integers():
    for n in range(21):
        assert all(isinstance(c, int) for c in hermite(n).coeffs)


def test_even_hermite_recurrence_in_the_square():
    # He_2j(z) = P_j(z^2) with P_j+1 = (y - 4j - 1) P_j - 2j (2j - 1) P_j-1
    # and P_0 = 1, the walk of the coherent MC oracle; integers throughout
    prev, cur = [0], [1]
    for j in range(21):
        even = hermite(2 * j).coeffs
        assert all(isinstance(c, int) for c in cur)
        assert list(even[::2]) == cur
        assert not any(even[1::2])
        nxt = [0] + cur
        for k, c in enumerate(cur):
            nxt[k] -= (4 * j + 1) * c
        for k, c in enumerate(prev):
            nxt[k] -= 2 * j * (2 * j - 1) * c
        prev, cur = cur, nxt


@given(st.integers(min_value=1, max_value=12), st.floats(-8, 8))
def test_hermite_three_term_recurrence(n, x):
    lhs = hermite(n + 1)(x)
    term = x * hermite(n)(x)
    rhs = term - n * hermite(n - 1)(x)
    # scale-aware: near roots the difference cancels two large terms
    scale = 1.0 + abs(term) + n * abs(hermite(n - 1)(x))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_hermite_orthonormality_under_gaussian_weight():
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / weights.sum()
    for a in range(7):
        for b in range(7):
            val = float(np.dot(weights, hermite(a)(nodes) * hermite(b)(nodes)))
            expect = float(math.factorial(a)) if a == b else 0.0
            assert abs(val - expect) < 1e-9


def test_hermite_product_expansion_small_case():
    # H2 * H3 = H5 + 6 H3 + 6 H1
    assert hermite_product_expansion(2, 3) == [(5, 1), (3, 6), (1, 6)]


@given(st.integers(0, 8), st.integers(0, 8), st.floats(-5, 5))
@settings(max_examples=200)
def test_hermite_product_expansion_identity(n, m, x):
    # exact: the integer coefficients evaluated at the rational value of x;
    # in floats the expansion cancels terms far larger than its result
    x = Fraction(x)
    direct = hermite(n)(x) * hermite(m)(x)
    expanded = sum(c * hermite(k)(x) for k, c in hermite_product_expansion(n, m))
    assert direct == expanded


def test_product_expansion_expected_value_is_orthogonality():
    # the constant term of Hn*Hm is E[Hn Hm] = n! delta_nm
    for n in range(7):
        for m in range(7):
            const = dict(hermite_product_expansion(n, m)).get(0, 0)
            assert const == (math.factorial(n) if n == m else 0)


class TestRealPolynomial:
    def test_evaluation_matches_numpy(self):
        p = RealPolynomial((2.0, -1.0, 0.0, 3.0))
        xs = np.linspace(-4, 4, 17)
        assert np.allclose(p(xs), np.polynomial.polynomial.polyval(xs, p.coeffs))

    def test_derivative(self):
        p = RealPolynomial((5.0, 1.0, -2.0, 4.0))
        assert p.derivative().coeffs == (1.0, -4.0, 12.0)

    def test_scale_argument(self):
        p = RealPolynomial((1.0, 2.0, 3.0))
        q = p.scale_argument(0.5)
        for x in (-2.0, 0.0, 1.3):
            assert q(x) == pytest.approx(p(0.5 * x), rel=1e-15)

    def test_zero_polynomial_flag(self):
        assert RealPolynomial((0.0,)).is_zero
        assert not RealPolynomial((0.0, 1e-300)).is_zero

    def test_degree_ignores_trailing_zeros(self):
        assert RealPolynomial((1.0, 2.0, 0.0, 0.0)).degree == 1


def test_normal_cdf_and_pdf_match_scipy():
    xs = np.linspace(-9, 9, 37)
    assert np.allclose([normal_cdf(x) for x in xs], stats.norm.cdf(xs), rtol=0, atol=1e-14)
    assert np.allclose([normal_pdf(x) for x in xs], stats.norm.pdf(xs), rtol=1e-14, atol=0)


@given(
    st.floats(-6, 6),
    st.floats(-6, 6),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=150)
def test_partial_moment_recurrence(a, b, k):
    lo, hi = min(a, b), max(a, b)
    moments = gaussian_partial_moments(k + 2, lo, hi)
    lhs = moments[k + 2]
    rhs = (k + 1) * moments[k] + lo ** (k + 1) * normal_pdf(lo) - hi ** (k + 1) * normal_pdf(hi)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (-math.inf, 0.3), (0.7, math.inf), (-math.inf, math.inf)])
def test_partial_moments_against_quadrature(lo, hi):
    moments = gaussian_partial_moments(6, lo, hi)
    for k in range(7):
        got = moments[k]
        want, err = integrate.quad(
            lambda z: z**k * stats.norm.pdf(z),
            max(lo, -40.0),
            min(hi, 40.0),
        )
        assert got == pytest.approx(want, abs=max(1e-11, 10 * err))


@given(
    st.integers(0, 15),
    st.floats(-12, 12) | st.just(-math.inf),
    st.floats(-12, 12) | st.just(math.inf),
)
@settings(max_examples=200)
def test_even_partial_moments_are_the_even_entries_bit_for_bit(j, a, b):
    lo, hi = min(a, b), max(a, b)
    assert _even_partial_moments(j, lo, hi) == gaussian_partial_moments(2 * j, lo, hi)[::2]


def test_full_line_moments_are_gaussian_moments():
    m = gaussian_partial_moments(8, -math.inf, math.inf)
    assert m[0] == pytest.approx(1.0, abs=1e-15)
    assert m[2] == pytest.approx(1.0, abs=1e-14)
    assert m[4] == pytest.approx(3.0, abs=1e-13)
    assert m[6] == pytest.approx(15.0, abs=1e-12)
    assert m[1] == pytest.approx(0.0, abs=1e-15)
