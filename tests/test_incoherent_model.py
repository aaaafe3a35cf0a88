import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosrates import (
    BondSpec,
    CoherentModel,
    ExponentialDensity,
    GaussianState,
    IncoherentModel,
    IncoherentTerm,
    MultiGaussianState,
    bond_price,
    incoherent_bond_price,
    incoherent_kernel,
    mc_conditional_variance,
    mc_price,
    mixed_order_kernel,
    multi_state_at,
    pricing_kernel,
)
from chaosrates.coherent_model import chaos_value, chaos_values
from chaosrates.incoherent_model import (
    _banded_projection,
    accumulated_gram_matrix,
    from_descriptor,
    residual_gram_matrix,
    to_descriptor,
)

SF = ExponentialDensity(0.7)

EQUAL_ORDER = IncoherentModel(
    (
        IncoherentTerm(0.8, 2, ExponentialDensity(0.5)),
        IncoherentTerm(0.6, 2, ExponentialDensity(1.2)),
    )
)

MIXED = IncoherentModel(
    (
        IncoherentTerm(0.7, 1, ExponentialDensity(0.8)),
        IncoherentTerm(0.5, 3, ExponentialDensity(0.4)),
    )
)


class TestConstruction:
    def test_term_order_validation(self):
        for bad in (0, -1, 21, 2.5, True):
            with pytest.raises(ValueError):
                IncoherentTerm(1.0, bad, SF)

    def test_term_weight_must_be_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                IncoherentTerm(bad, 2, SF)

    def test_model_needs_terms(self):
        with pytest.raises(ValueError):
            IncoherentModel(())

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            IncoherentModel((IncoherentTerm(0.0, 2, SF), IncoherentTerm(0.0, 3, SF)))

    def test_orders_property(self):
        assert MIXED.orders == (1, 3)

    def test_descriptor_round_trip(self):
        d = to_descriptor(EQUAL_ORDER)
        back = from_descriptor(d)
        assert back.orders == EQUAL_ORDER.orders
        for a, b in zip(back.terms, EQUAL_ORDER.terms):
            assert a.weight == b.weight
            assert a.sf.q_at(1.3) == b.sf.q_at(1.3)

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            from_descriptor({"nope": []})
        with pytest.raises(ValueError):
            from_descriptor({"terms": [{"c": 1.0, "n": True, "sf": {"family": "exponential", "rate": 1.0}}]})
        with pytest.raises(ValueError):
            from_descriptor({"terms": [{"c": 1.0, "n": 1.5, "sf": {"family": "exponential", "rate": 1.0}}]})
        for terms in (5, [5], "abc"):
            with pytest.raises(ValueError, match="list of objects"):
                from_descriptor({"terms": terms})


class TestStateValidation:
    def good_gram(self, q1, q2, g12):
        return ((1 - q1, g12), (g12, 1 - q2))

    def test_accepts_consistent_state(self):
        MultiGaussianState(1.0, (0.1, -0.2), (0.3, 0.4), self.good_gram(0.3, 0.4, 0.1))

    def test_negative_time(self):
        with pytest.raises(ValueError):
            MultiGaussianState(-0.5, (0.0,), (0.2,), ((0.8,),))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            MultiGaussianState(1.0, (0.1,), (0.3, 0.4), self.good_gram(0.3, 0.4, 0.1))

    def test_bracket_range(self):
        with pytest.raises(ValueError):
            MultiGaussianState(1.0, (0.1,), (1.2,), ((-0.2,),))

    def test_zero_time_forces_zero_values(self):
        with pytest.raises(ValueError):
            MultiGaussianState(0.0, (0.3,), (0.0,), ((1.0,),))

    @pytest.mark.parametrize(
        "g01, g10",
        [
            (0.2, 0.1),
            (math.nan, 0.1),
            (0.1, math.nan),
            (math.nan, math.nan),
            (math.inf, 0.1),
            (math.inf, math.inf),
            (-math.inf, -math.inf),
        ],
    )
    def test_asymmetric_gram(self, g01, g10):
        with pytest.raises(ValueError, match="symmetric"):
            MultiGaussianState(1.0, (0.0, 0.0), (0.3, 0.4), ((0.7, g01), (g10, 0.6)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time_or_driver_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MultiGaussianState(1.0, (0.1, bad), (0.3, 0.4), self.good_gram(0.3, 0.4, 0.1))
        with pytest.raises(ValueError, match="finite"):
            multi_state_at(EQUAL_ORDER, 1.0, (bad, 0.0))
        with pytest.raises(ValueError, match="finite"):
            MultiGaussianState(abs(bad), (0.1, 0.0), (0.3, 0.4), self.good_gram(0.3, 0.4, 0.1))

    def test_diagonal_must_match_brackets(self):
        with pytest.raises(ValueError):
            MultiGaussianState(1.0, (0.0,), (0.3,), ((0.5,),))

    def test_gram_must_be_psd(self):
        with pytest.raises(ValueError):
            MultiGaussianState(1.0, (0.0, 0.0), (0.3, 0.4), self.good_gram(0.3, 0.4, 0.9))

    def test_multi_state_at_wrong_count(self):
        with pytest.raises(ValueError):
            multi_state_at(EQUAL_ORDER, 1.0, (0.1,))


class TestGramMatrices:
    def test_residual_diagonal_matches_brackets(self):
        g = residual_gram_matrix(EQUAL_ORDER, 1.0)
        for i, term in enumerate(EQUAL_ORDER.terms):
            assert g[i, i] == pytest.approx(1.0 - term.sf.q_at(1.0), abs=1e-12)

    def test_accumulated_plus_residual_is_total(self):
        total = residual_gram_matrix(EQUAL_ORDER, 0.0)
        for t in (0.5, 2.0):
            s = accumulated_gram_matrix(EQUAL_ORDER, t) + residual_gram_matrix(EQUAL_ORDER, t)
            assert np.allclose(s, total, atol=1e-12)

    def test_accumulated_at_zero_vanishes(self):
        assert np.allclose(accumulated_gram_matrix(EQUAL_ORDER, 0.0), 0.0, atol=1e-15)


class TestSingleTermCollapse:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t,r", [(0.5, 0.4), (2.0, -1.1)])
    def test_kernel_matches_coherent(self, n, t, r):
        inc = IncoherentModel((IncoherentTerm(1.0, n, SF),))
        coh = CoherentModel(n, SF)
        ki = incoherent_kernel(inc, multi_state_at(inc, t, (r,)))
        kc = pricing_kernel(coh, GaussianState(t, r, SF.q_at(t)))
        assert ki == pytest.approx(kc, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t,r", [(0.5, 0.4), (2.0, -1.1)])
    def test_bond_matches_coherent(self, n, t, r):
        inc = IncoherentModel((IncoherentTerm(1.0, n, SF),))
        coh = CoherentModel(n, SF)
        pi = incoherent_bond_price(inc, multi_state_at(inc, t, (r,)), t + 1.5)
        pc = bond_price(coh, GaussianState(t, r, SF.q_at(t)), t + 1.5)
        assert pi == pytest.approx(pc, rel=1e-13)

    def test_weight_scales_kernel_quadratically(self):
        unit = IncoherentModel((IncoherentTerm(1.0, 2, SF),))
        half = IncoherentModel((IncoherentTerm(0.5, 2, SF),))
        k1 = incoherent_kernel(unit, multi_state_at(unit, 1.0, (0.3,)))
        k2 = incoherent_kernel(half, multi_state_at(half, 1.0, (0.3,)))
        assert k2 == 0.25 * k1

    def test_weight_cancels_in_bond_price(self):
        unit = IncoherentModel((IncoherentTerm(1.0, 2, SF),))
        half = IncoherentModel((IncoherentTerm(0.5, 2, SF),))
        p1 = incoherent_bond_price(unit, multi_state_at(unit, 1.0, (0.3,)), 2.5)
        p2 = incoherent_bond_price(half, multi_state_at(half, 1.0, (0.3,)), 2.5)
        assert p2 == pytest.approx(p1, rel=1e-14)


class TestKernels:
    def test_mixed_initial_kernel_value_is_exact(self):
        # unit weights: variance of X^(1) + X^(n) is 1 + 1/n!
        for n in (2, 3, 4):
            model = IncoherentModel(
                (
                    IncoherentTerm(1.0, 1, ExponentialDensity(0.8)),
                    IncoherentTerm(1.0, n, ExponentialDensity(0.4)),
                )
            )
            pi0 = mixed_order_kernel(model, multi_state_at(model, 0.0, (0.0, 0.0)))
            assert pi0 == 1.0 + 1.0 / math.factorial(n)

    def test_mixed_term_order_is_irrelevant(self):
        flipped = IncoherentModel((MIXED.terms[1], MIXED.terms[0]))
        st_a = multi_state_at(MIXED, 0.8, (0.2, -0.1))
        st_b = multi_state_at(flipped, 0.8, (-0.1, 0.2))
        assert mixed_order_kernel(MIXED, st_a) == pytest.approx(
            mixed_order_kernel(flipped, st_b), rel=1e-15
        )

    @given(st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_equal_order_kernel_positive(self, t, r1, r2):
        state = multi_state_at(EQUAL_ORDER, t, (r1, r2))
        assert incoherent_kernel(EQUAL_ORDER, state) > 0.0

    @given(st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_mixed_kernel_positive(self, t, r1, r2):
        state = multi_state_at(MIXED, t, (r1, r2))
        assert mixed_order_kernel(MIXED, state) > 0.0


class TestMonteCarloAgreement:
    def test_equal_order_kernel(self):
        state = multi_state_at(EQUAL_ORDER, 1.0, (0.3, -0.4))
        closed = incoherent_kernel(EQUAL_ORDER, state)
        est, se = mc_conditional_variance(EQUAL_ORDER, state, 400_000, 20260815)
        assert abs(est - closed) <= 4.0 * se

    def test_mixed_kernel(self):
        state = multi_state_at(MIXED, 0.8, (0.2, -0.1))
        closed = mixed_order_kernel(MIXED, state)
        est, se = mc_conditional_variance(MIXED, state, 400_000, 97)
        assert abs(est - closed) <= 4.0 * se

    @staticmethod
    def _orders_2_3(weight):
        return IncoherentModel((IncoherentTerm(weight, 2, SF), IncoherentTerm(weight, 3, ExponentialDensity(0.3))))

    def test_conditional_variance_of_huge_weights(self):
        # the squares of 1e150-weighted sums overflow unless the weights are
        # scaled by a power of two first; pi_t itself is 3.1e299
        model = self._orders_2_3(1e150)
        state = multi_state_at(model, 0.5, (0.3, -0.2))
        closed = incoherent_kernel(model, state)
        est, se = mc_conditional_variance(model, state, 100_000, 5)
        assert math.isfinite(se) and se > 0.0
        assert abs(est - closed) <= 4.0 * se

    def test_conditional_variance_beyond_the_float_range_overflows(self):
        model = self._orders_2_3(1e200)
        state = multi_state_at(model, 0.5, (0.3, -0.2))
        with pytest.raises(OverflowError):
            incoherent_kernel(model, state)
        with pytest.raises(OverflowError):
            mc_conditional_variance(model, state, 1_000, 5)

    def test_overflowing_driver_value_raises(self):
        # unit weights, but X^(2) ~ R^2 / 2 squared overflows at R = 1e100:
        # the scaled sum itself is inf, which ldexp would pass through
        state = multi_state_at(MIXED, 0.8, (0.0, 1e100))
        with pytest.raises(OverflowError):
            incoherent_kernel(MIXED, state)

    def test_mixed_diagonal_normalisation_is_identified(self):
        # the conditional variance fixes the per-order diagonal weights
        # 1/k!; the 1/(k!)^2 alternative predicts a variance the sampler
        # rejects by more than ten standard errors
        model = IncoherentModel(
            (
                IncoherentTerm(1.0, 1, ExponentialDensity(0.8)),
                IncoherentTerm(1.0, 3, ExponentialDensity(0.4)),
            )
        )
        state = multi_state_at(model, 0.0, (0.0, 0.0))
        est, se = mc_conditional_variance(model, state, 200_000, 11)
        adopted = 1.0 + 1.0 / 6.0
        rejected = 1.0 + 1.0 / 36.0
        assert abs(est - adopted) <= 4.0 * se
        assert abs(est - rejected) >= 10.0 * se

    @pytest.mark.parametrize("maturity,seed", [(2.0, 5), (5.0, 5)])
    def test_equal_order_bond(self, maturity, seed):
        zero = multi_state_at(EQUAL_ORDER, 0.0, (0.0, 0.0))
        closed = incoherent_bond_price(EQUAL_ORDER, zero, maturity)
        est, se = mc_price(EQUAL_ORDER, BondSpec(maturity), 400_000, seed)
        assert abs(est - closed) <= 4.0 * se

    @pytest.mark.parametrize("maturity,seed", [(2.0, 6), (5.0, 6)])
    def test_mixed_bond(self, maturity, seed):
        zero = multi_state_at(MIXED, 0.0, (0.0, 0.0))
        closed = incoherent_bond_price(MIXED, zero, maturity)
        est, se = mc_price(MIXED, BondSpec(maturity), 400_000, seed)
        assert abs(est - closed) <= 4.0 * se

    def test_banded_projection_against_sampling(self):
        q_t, q_T, r_t = 0.36, 0.8, 0.45
        h = q_T - q_t
        rng = np.random.default_rng(314)
        r_T = r_t + math.sqrt(h) * rng.standard_normal(500_000)
        for a, b in [(2, 2), (3, 1), (4, 2), (3, 3)]:
            samples = chaos_value(a, r_T, q_T) * chaos_value(b, r_T, q_T)
            mc = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
            x_t = chaos_values(max(a, b), r_t, q_t)
            closed = _banded_projection(h, a, b, x_t, x_t)
            assert abs(mc - closed) <= 4.0 * se


ORDERS_2_3 = IncoherentModel(
    (
        IncoherentTerm(0.8, 2, ExponentialDensity(0.5)),
        IncoherentTerm(0.5, 3, ExponentialDensity(1.2)),
    )
)

ORDERS_1_2_4 = IncoherentModel(
    (
        IncoherentTerm(0.6, 1, ExponentialDensity(0.9)),
        IncoherentTerm(-0.4, 2, ExponentialDensity(0.3)),
        IncoherentTerm(0.7, 4, ExponentialDensity(1.5)),
    )
)


class TestGeneralOrders:
    """Orders outside the equal and 1-plus-n shapes price in closed form."""

    @pytest.mark.parametrize(
        "model, t, seed", [(ORDERS_2_3, 0.9, 41), (ORDERS_1_2_4, 0.7, 42)], ids=["orders-2-3", "orders-1-2-4"]
    )
    def test_kernel_against_conditional_variance(self, model, t, seed):
        vals, vecs = np.linalg.eigh(accumulated_gram_matrix(model, t))
        values = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ np.random.default_rng(seed).standard_normal(len(vals))
        state = multi_state_at(model, t, values)
        closed = incoherent_kernel(model, state)
        est, se = mc_conditional_variance(model, state, 400_000, seed)
        assert abs(est - closed) <= 4.0 * se

    @pytest.mark.parametrize("model", [ORDERS_2_3, ORDERS_1_2_4], ids=["orders-2-3", "orders-1-2-4"])
    @pytest.mark.parametrize("maturity", [1.5, 4.0])
    def test_initial_bond_against_mc(self, model, maturity):
        zero = multi_state_at(model, 0.0, (0.0,) * len(model.terms))
        closed = incoherent_bond_price(model, zero, maturity)
        est, se = mc_price(model, BondSpec(maturity), 400_000, 43)
        assert abs(est - closed) <= 4.0 * se

    def test_old_name_gives_the_same_kernel(self):
        state = multi_state_at(ORDERS_2_3, 0.9, (0.2, -0.3))
        assert mixed_order_kernel(ORDERS_2_3, state) == incoherent_kernel(ORDERS_2_3, state)


class TestBondPrices:
    def test_par_at_state_time(self):
        st_eq = multi_state_at(EQUAL_ORDER, 1.0, (0.3, -0.4))
        assert incoherent_bond_price(EQUAL_ORDER, st_eq, 1.0) == pytest.approx(1.0, rel=1e-14)
        st_mx = multi_state_at(MIXED, 0.8, (0.2, -0.1))
        assert incoherent_bond_price(MIXED, st_mx, 0.8) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_past_maturity(self):
        st_eq = multi_state_at(EQUAL_ORDER, 1.0, (0.3, -0.4))
        with pytest.raises(ValueError):
            incoherent_bond_price(EQUAL_ORDER, st_eq, 0.5)

    def test_overflowing_kernel_raises_instead_of_nan(self):
        # the order-3 term's X^(2) ~ R^2 / 2 squares past the float range
        state = multi_state_at(MIXED, 1.0, (0.0, 1e100))
        with pytest.raises(ValueError, match="not finite"):
            incoherent_bond_price(MIXED, state, 2.0)

    def test_mixed_initial_curve_identity(self):
        # at time zero the curve reduces to a weight-squared blend of the
        # per-term coherent curves
        c1, c2 = (term.weight for term in MIXED.terms)
        n = MIXED.terms[1].order
        zero = multi_state_at(MIXED, 0.0, (0.0, 0.0))
        pi0 = mixed_order_kernel(MIXED, zero)
        for T in (1.0, 3.0):
            q1 = MIXED.terms[0].sf.q_at(T)
            q2 = MIXED.terms[1].sf.q_at(T)
            want = (c1**2 * (1 - q1) + c2**2 * (1 - q2**n) / math.factorial(n)) / pi0
            assert incoherent_bond_price(MIXED, zero, T) == pytest.approx(want, rel=1e-13)

    @given(st.floats(0.1, 2.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_price_positive_and_below_one_plus_slack(self, t, r1, r2, gap):
        state = multi_state_at(EQUAL_ORDER, t, (r1, r2))
        p = incoherent_bond_price(EQUAL_ORDER, state, t + gap)
        assert p > 0.0

    @given(st.floats(0.1, 2.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_price_decreasing_in_maturity(self, t, r1, r2):
        state = multi_state_at(EQUAL_ORDER, t, (r1, r2))
        grid = [t + 0.2 * k for k in range(1, 12)]
        prices = [incoherent_bond_price(EQUAL_ORDER, state, T) for T in grid]
        assert all(a >= b - 1e-12 for a, b in zip(prices, prices[1:]))
