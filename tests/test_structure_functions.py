import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from chaosrates import (
    CoherentModel,
    DiscreteAtoms,
    ExponentialDensity,
    GaussianState,
    PiecewiseConstantDensity,
    StructureFunction,
    initial_bond_price,
    residual_inner_product,
    state_at,
)
from chaosrates.coherent_model import pair_sum
from chaosrates.special_functions import left_sum
from chaosrates.structure_functions import from_descriptor, to_descriptor
from support import LookupBracket, residual_pw_pw_by_midpoints


class TestExponentialDensity:
    def test_accumulated_variance(self):
        sf = ExponentialDensity(0.1)
        assert sf.q_at(0.0) == 0.0
        assert sf.q_at(10.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        assert sf.q_at(1e6) == pytest.approx(1.0, abs=1e-12)

    def test_density_integrates_to_accumulated_variance(self):
        sf = ExponentialDensity(0.7)
        val, _ = integrate.quad(sf.squared_density, 0.0, 3.0)
        assert val == pytest.approx(sf.q_at(3.0), rel=1e-10)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ExponentialDensity(0.0)


class TestPiecewiseConstantDensity:
    def test_renormalises_to_unit_mass(self):
        sf = PiecewiseConstantDensity((1.0, 3.0), (2.0, 2.0))
        assert sf.q_at(3.0) == pytest.approx(1.0, abs=1e-15)
        assert sf.normalisation_scale == pytest.approx(1.0 / 6.0)

    def test_subnormal_mass_renormalises(self):
        # 1 / 5e-324 overflows to inf; the values are divided by the mass
        sf = PiecewiseConstantDensity((1.0, 2.0), (0.0, 5e-324))
        assert sf.values == (0.0, 1.0)
        assert sf.q_at(0.5) == 0.0
        assert sf.q_at(1.5) == 0.5

    def test_overflowing_mass_is_rejected(self):
        # a mass of inf would divide every value down to 0 and leave Q at 0
        with pytest.raises(ValueError, match="overflow"):
            PiecewiseConstantDensity((1e200, 2e200), (1e200, 1e200))

    def test_unit_at_and_beyond_support(self):
        sf = PiecewiseConstantDensity((2.0, 5.0), (1.0, 1.0))
        # exactly 1.0, not merely close: the tails must carry zero variance
        assert sf.q_at(5.0) == 1.0
        assert sf.q_at(50.0) == 1.0

    def test_q_is_piecewise_linear(self):
        sf = PiecewiseConstantDensity((1.0, 2.0), (3.0, 1.0))
        # after rescaling, mass split 3/4 on [0,1) and 1/4 on [1,2)
        assert sf.q_at(0.5) == pytest.approx(0.375)
        assert sf.q_at(1.0) == pytest.approx(0.75)
        assert sf.q_at(1.5) == pytest.approx(0.875)

    def test_rejects_unsorted_breaks(self):
        with pytest.raises(ValueError):
            PiecewiseConstantDensity((2.0, 1.0), (1.0, 1.0))


class TestDiscreteAtoms:
    def test_weights_must_sum_to_one(self):
        sf = DiscreteAtoms((1.0, 4.0, 9.0), (0.5, 0.25, 0.25))
        assert sf.q_at(0.999) == 0.0
        assert sf.q_at(1.0) == 0.5
        assert sf.q_at(4.0) == 0.75
        assert sf.q_at(9.0) == 1.0

    def test_fraction_weights_survive(self):
        sf = DiscreteAtoms((1.0, 4.0, 9.0), (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
        assert sf.q_at(4.0) == Fraction(2, 3)
        assert isinstance(sf.q_at(4.0), Fraction)

    def test_q_is_an_exact_right_continuous_step(self):
        sf = DiscreteAtoms((1.0, 2.0, 5.0), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        steps = [(0.5, 0), (1.0, Fraction(1, 4)), (1.7, Fraction(1, 4)), (2.0, Fraction(1, 2)), (2.5, Fraction(1, 2))]
        for t, q in steps:
            assert sf.q_at(t) == q
        assert isinstance(sf.q_at(2.5), Fraction)
        assert sf.q_at(5.0) == 1

    def test_validation(self):
        for times, weights in [
            ((), ()),
            ((0.0, 1.0, 2.0), (0.3, 0.3, 0.4)),  # a time at 0
            ((1.0, 1.0, 2.0), (0.3, 0.3, 0.4)),  # a repeated time
            ((1.0, 2.0, 2.0), (0.3, 0.3, 0.4)),  # a horizon on the last maturity
            ((1.0, 2.0, 3.0), (0.5, 0.5)),  # one weight short
            ((1.0, 2.0, 3.0), (0.5, 0.7, -0.2)),  # a negative weight
            ((1.0, 2.0), (0.0, 0.0)),  # no mass
        ]:
            with pytest.raises(ValueError):
                DiscreteAtoms(times, weights)

    def test_overflowing_weight_sum_is_rejected(self):
        # a sum of inf would scale both weights to 0 and leave Q at 0, so
        # P(0, T) would read 1 past every atom
        with pytest.raises(ValueError, match="overflow"):
            DiscreteAtoms((1.0, 2.0), (1e308, 1e308))

    @given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12), st.integers(1, 20))
    @example([0.6229016948897019, 0.7417869892607294, 0.7951935655656966, 0.9424502837770503, 0.7398985747399307], 2)
    @settings(max_examples=200)
    def test_rescaled_weights_never_carry_q_past_one(self, weights, n):
        # the rescaled weights can sum to 1 + ulp; Q and so P(0, T) stay in range
        times = tuple(float(i) for i in range(1, len(weights) + 1))
        model = CoherentModel(n, DiscreteAtoms(times, tuple(weights)))
        for t in times + (times[-1] + 1.0,):
            assert 0.0 <= model.sf.q_at(t) <= 1.0
            assert initial_bond_price(model, t) >= 0.0

    def test_not_a_density(self):
        sf = DiscreteAtoms((1.0,), (1.0,))
        assert not sf.is_density
        assert sf.squared_density(0.5) == 0.0


class TestScalarDensity:
    """A float time takes a scalar path; it must read exactly as the array path."""

    SFS = [
        ExponentialDensity(0.37),
        PiecewiseConstantDensity((0.5, 1.25, 4.0, 9.5), (0.3, 2.0, 0.0, 1.1)),
        DiscreteAtoms((1.0, 4.0, 9.0), (0.5, 0.25, 0.25)),
    ]

    @pytest.mark.parametrize("sf", SFS, ids=lambda sf: sf.family)
    def test_scalar_equals_array(self, sf):
        breaks = list(getattr(sf, "breaks", ())) + list(getattr(sf, "times", ()))
        times = [-3.0, -1e-300, -0.0, 0.0, 1e-300, 0.1, 0.7, 3.3, 12.0, 1e6, math.inf, *breaks]
        times += [math.nextafter(b, -math.inf) for b in breaks] + [math.nextafter(b, math.inf) for b in breaks]
        as_array = sf.squared_density(np.array(times))
        for t, want in zip(times, as_array):
            for scalar in (t, np.float64(t)):
                got = sf.squared_density(scalar)
                assert type(got) is float
                assert got == want == sf.squared_density(np.asarray(t)), t


class TestGaussianState:
    def test_rejects_bracket_outside_unit_interval(self):
        with pytest.raises(ValueError):
            GaussianState(1.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            GaussianState(1.0, 0.0, -0.1)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time_or_driver_value(self, r):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(1.0, r, 0.3)
        with pytest.raises(ValueError, match="finite"):
            state_at(ExponentialDensity(0.2), 1.0, r)
        with pytest.raises(ValueError, match="finite"):
            GaussianState(abs(r), 0.0, 0.3)

    def test_time_zero_is_the_origin(self):
        with pytest.raises(ValueError):
            GaussianState(0.0, 0.3, 0.0)
        st0 = GaussianState(0.0, 0.0, 0.0)
        assert (st0.R, st0.Q) == (0.0, 0.0)

    def test_state_at_reads_the_structure_function(self):
        sf = ExponentialDensity(0.2)
        s = state_at(sf, 3.0, -0.4)
        assert s.Q == pytest.approx(sf.q_at(3.0), rel=1e-15)
        assert s.R == -0.4


# residual products: closed forms vs direct numerical integration
RESIDUAL_PAIRS = [
    (ExponentialDensity(0.3), ExponentialDensity(0.3)),
    (ExponentialDensity(0.3), ExponentialDensity(1.1)),
    (ExponentialDensity(0.5), PiecewiseConstantDensity((2.0, 6.0), (1.0, 0.5))),
    (PiecewiseConstantDensity((1.0, 4.0), (1.0, 2.0)), PiecewiseConstantDensity((2.0, 3.0), (1.0, 1.0))),
]


@pytest.mark.parametrize("sf_i,sf_j", RESIDUAL_PAIRS)
@pytest.mark.parametrize("t", [0.0, 0.7, 2.5])
def test_residual_inner_product_matches_quadrature(sf_i, sf_j, t):
    got = residual_inner_product(sf_i, sf_j, t)
    want, err = integrate.quad(
        lambda s: math.sqrt(sf_i.squared_density(s) * sf_j.squared_density(s)),
        t,
        200.0,
        limit=800,
    )
    assert got == pytest.approx(want, abs=max(1e-8, 10 * err))


@pytest.mark.parametrize("sf_i,sf_j", RESIDUAL_PAIRS)
def test_window_between_two_residuals_matches_quadrature(sf_i, sf_j):
    # h = g(t) - g(T) = int_t^T phi_i phi_j, the projection window of a bond
    got = residual_inner_product(sf_i, sf_j, 1.0) - residual_inner_product(sf_i, sf_j, 5.0)
    want, err = integrate.quad(
        lambda s: math.sqrt(sf_i.squared_density(s) * sf_j.squared_density(s)), 1.0, 5.0, limit=800
    )
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))


def test_pair_sum_at_the_origin_is_the_simplex_integral():
    # with X^(0) = 1 the only nonzero chaos value, the order-k pair sum is
    # the k-fold iterated simplex integral of phi_i phi_j over (t, inf), g^k / k!
    sf_i, sf_j = ExponentialDensity(0.4), ExponentialDensity(0.9)
    g = residual_inner_product(sf_i, sf_j, 2.0)
    for k in (1, 2, 3):
        origin = [1.0] + [0.0] * (k - 1)
        want = g**k / math.factorial(k)
        assert pair_sum(k, k, origin, origin, g, g) == pytest.approx(want, rel=1e-15)


def test_density_pair_without_a_closed_form_is_refused():
    with pytest.raises(ValueError, match="'lookup', 'exponential'"):
        residual_inner_product(LookupBracket({}), ExponentialDensity(0.4), 1.0)


_BREAKS = st.lists(st.floats(0.01, 40.0), min_size=1, max_size=6, unique=True).map(sorted)


@st.composite
def piecewise_pair_and_time(draw):
    """Two piecewise densities that share some breaks, and a t before, on or
    after one of their breaks, or anywhere."""
    a_breaks = draw(_BREAKS)
    shared = draw(st.lists(st.sampled_from(a_breaks), max_size=len(a_breaks), unique=True))
    b_breaks = sorted(set(draw(_BREAKS)) | set(shared))
    values = st.floats(0.0, 3.0)
    a_values = draw(st.lists(values, min_size=len(a_breaks), max_size=len(a_breaks)))
    b_values = draw(st.lists(values, min_size=len(b_breaks), max_size=len(b_breaks)))
    assume(sum(a_values) > 0.1 and sum(b_values) > 0.1)
    a = PiecewiseConstantDensity(tuple(a_breaks), tuple(a_values))
    b = PiecewiseConstantDensity(tuple(b_breaks), tuple(b_values))
    brk = draw(st.sampled_from(a_breaks + b_breaks))
    t = draw(st.sampled_from([0.0, brk, brk - 0.5 * min(brk, 1.0), brk + 0.5]) | st.floats(0.0, 45.0))
    return a, b, t


@given(piecewise_pair_and_time())
@example((PiecewiseConstantDensity((1.0, 2.0), (1.0, 2.0)), PiecewiseConstantDensity((2.0, 3.0), (0.5, 1.5)), 2.0))
@settings(max_examples=300)
def test_merged_break_walk_is_the_midpoint_walk_bit_for_bit(pair):
    a, b, t = pair
    cuts = sorted({0.0, t, *a.breaks, *b.breaks})
    # where a segment is one float wide the reference's midpoint can land
    # on the upper cut: see test_one_float_segment_reads_its_own_values
    assume(all(lo < 0.5 * (lo + hi) < hi for lo, hi in zip(cuts, cuts[1:])))
    for x, y in ((a, b), (b, a)):
        assert residual_inner_product(x, y, t) == residual_pw_pw_by_midpoints(x, y, t)


def test_one_float_segment_reads_its_own_values():
    # t one float below the break at 1: the segment (t, 1] has density 1,
    # but the midpoint 0.5 * (t + 1) rounds to 1, where the reference reads 0
    a = PiecewiseConstantDensity((1.0, 2.0), (1.0, 0.0))
    t = math.nextafter(1.0, 0.0)
    assert 0.5 * (t + 1.0) == 1.0
    assert residual_inner_product(a, a, t) == 1.0 - t
    assert residual_pw_pw_by_midpoints(a, a, t) == 0.0


def test_atom_products_pair_only_coincident_times():
    a = DiscreteAtoms((1.0, 4.0), (0.5, 0.5))
    b = DiscreteAtoms((1.0, 9.0), (0.25, 0.75))
    # only the shared atom at t=1 contributes sqrt(0.5 * 0.25)
    assert residual_inner_product(a, b, 0.0) == pytest.approx(math.sqrt(0.125))
    assert residual_inner_product(a, b, 1.0) == 0.0  # strictly-after convention


def test_atom_with_density_rejected():
    a = DiscreteAtoms((1.0,), (1.0,))
    d = ExponentialDensity(0.5)
    with pytest.raises(ValueError):
        residual_inner_product(a, d, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_non_finite_inputs(bad):
    with pytest.raises(ValueError, match="finite"):
        ExponentialDensity(bad)
    with pytest.raises(ValueError, match="finite"):
        PiecewiseConstantDensity((1.0, bad), (0.5, 0.5))
    with pytest.raises(ValueError, match="finite"):
        PiecewiseConstantDensity((1.0, 2.0), (0.5, bad))
    with pytest.raises(ValueError, match="finite"):
        DiscreteAtoms((bad, 2.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="finite"):
        DiscreteAtoms((1.0, 2.0), (0.5, bad))


class TestDescriptors:
    def test_exponential_round_trip(self):
        sf = ExponentialDensity(0.25)
        back = from_descriptor(to_descriptor(sf))
        assert isinstance(back, ExponentialDensity)
        assert back.rate == sf.rate

    def test_atoms_round_trip(self):
        sf = DiscreteAtoms((1.0, 2.0), (0.5, 0.5))
        back = from_descriptor(to_descriptor(sf))
        assert back.times == sf.times

    def test_atoms_descriptor_validates_total_mass(self):
        with pytest.raises(ValueError):
            from_descriptor({"family": "atoms", "times": [1.0, 2.0], "weights": [0.5, 0.4]})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            from_descriptor({"family": "sinusoidal"})


@given(st.floats(0.05, 3.0), st.floats(0.0, 20.0))
@settings(max_examples=100)
def test_accumulated_variance_monotone_and_bounded(rate, t):
    sf = ExponentialDensity(rate)
    q = sf.q_at(t)
    assert 0.0 <= q <= 1.0
    assert sf.q_at(t + 1.0) >= q


def test_structure_function_is_abstract():
    with pytest.raises(TypeError):
        StructureFunction()


@pytest.mark.parametrize(
    "sf",
    [ExponentialDensity(0.3), PiecewiseConstantDensity((1.0, 2.0), (0.5, 0.5)), DiscreteAtoms((1.0, 2.0), (0.5, 0.5))],
    ids=lambda sf: sf.family,
)
def test_nan_time_is_rejected(sf):
    # no ordering check fails on NaN: the atoms read Q = 0 there, the
    # densities nan, and a table lookup would index past its last entry
    with pytest.raises(ValueError, match="nonnegative"):
        sf.q_at(math.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        state_at(sf, math.nan, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        residual_inner_product(sf, sf, math.nan)


def piecewise_q_by_fold(sf, t):
    """PiecewiseConstantDensity.q_at as it read before its table: the segments up to t folded left from 0.0."""
    if t >= sf.breaks[-1]:
        return 1.0
    acc = 0.0
    lo = 0.0
    for b, v in zip(sf.breaks, sf.values):
        if t <= lo:
            break
        acc += v * (min(t, b) - lo)
        lo = b
    return min(acc, 1.0)


def atoms_q_by_fold(sf, t):
    """DiscreteAtoms.q_at as it read before its table: the weights up to t folded left from 0."""
    return min(left_sum(w for T, w in zip(sf.times, sf.weights) if T <= t), 1.0)


def same_number(got, want):
    # repr tells -0.0 from 0.0 and a Fraction or an int from a float
    return type(got) is type(want) and repr(got) == repr(want)


@st.composite
def knots_and_time(draw, exact):
    """(knots, masses, t): increasing positive knots from drawn gaps, nonnegative
    masses with a positive sum, and t at 0, exactly at a knot, inside a gap or
    past the last knot; Fractions throughout when exact."""
    number = (lambda lo, hi: st.fractions(lo, hi)) if exact else (lambda lo, hi: st.floats(float(lo), hi))
    gaps = draw(st.lists(number(Fraction(1, 1000), 10), min_size=1, max_size=12))
    knots, at = [], 0
    for gap in gaps:
        at += gap
        knots.append(at)
    masses = draw(st.lists(number(0, 10), min_size=len(knots), max_size=len(knots)))
    assume(sum(masses) > 0)
    where = draw(st.sampled_from(["zero", "knot", "inside", "past"]))
    i = draw(st.integers(0, len(knots) - 1))
    if where == "zero":
        t = knots[0] * 0
    elif where == "knot":
        t = knots[i]
    elif where == "inside":
        lo = knots[i - 1] if i else knots[0] * 0
        t = lo + (knots[i] - lo) * draw(number(0, 1))
    else:
        t = knots[-1] + draw(number(0, 100))
    return knots, masses, t


@given(st.booleans().flatmap(knots_and_time))
@settings(max_examples=300)
def test_piecewise_q_table_is_the_fold_bit_for_bit(case):
    breaks, values, t = case
    sf = PiecewiseConstantDensity(tuple(breaks), tuple(values))
    for u in (t, float(t)):
        assert same_number(sf.q_at(u), piecewise_q_by_fold(sf, u))


@given(st.booleans().flatmap(knots_and_time))
@example(([1.0, 2.0, 3.0, 4.0, 5.0], [0.6229016948897019, 0.7417869892607294, 0.7951935655656966, 0.9424502837770503, 0.7398985747399307], 5.0))
@settings(max_examples=300)
def test_atoms_q_table_is_the_fold_bit_for_bit(case):
    times, weights, t = case
    sf = DiscreteAtoms(tuple(times), tuple(weights))
    for u in (t, float(t)):
        assert same_number(sf.q_at(u), atoms_q_by_fold(sf, u))
