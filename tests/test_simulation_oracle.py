import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from chaosrates import (
    BondSpec,
    CoherentModel,
    DiscreteAtoms,
    ExponentialDensity,
    GaussianState,
    IncoherentModel,
    IncoherentTerm,
    OptionSpec,
    PiecewiseConstantDensity,
    RealPolynomial,
    SwaptionSpec,
    expected_positive_part,
    gauss_hermite_variance,
    incoherent_bond_price,
    incoherent_kernel,
    initial_bond_price,
    mc_price,
    price_bond_call,
    price_swaption,
    pricing_kernel,
    quadrature_price,
    simulate_chaos_sde,
)
from chaosrates.coherent_model import chaos_values, kernel_coefficient
from chaosrates.special_functions import left_sum
from chaosrates.incoherent_model import (
    accumulated_gram_matrix,
    multi_state_at,
    residual_gram_matrix,
)
from chaosrates.simulation_oracle import MC_CHUNK, _incoherent_form, _payoff_legs
from support import banded_projection

SF = ExponentialDensity(0.7)
ORDER_TWO = CoherentModel(2, SF)
# atoms from 1.2 on: an expiry at 1.0 sees no variance in either term
ZERO_BRACKET_PAIR = IncoherentModel(
    (
        IncoherentTerm(0.8, 2, DiscreteAtoms((1.5, 2.0), (0.6, 0.4))),
        IncoherentTerm(0.5, 3, DiscreteAtoms((1.2, 3.0), (0.5, 0.5))),
    )
)

# every atom lies before 2.5: both residual variances vanish from there on
ZERO_RESIDUAL_PAIR = IncoherentModel(
    (
        IncoherentTerm(0.8, 2, DiscreteAtoms((1.5, 2.0), (0.6, 0.4))),
        IncoherentTerm(0.5, 3, DiscreteAtoms((1.2, 2.2), (0.5, 0.5))),
    )
)


def model_of_orders(*orders):
    """Terms of the given orders on SF and two other exponential rates."""
    weights, sfs = (0.8, 0.5, 0.35), (SF, ExponentialDensity(0.2), ExponentialDensity(1.3))
    return IncoherentModel(tuple(IncoherentTerm(c, n, sf) for c, n, sf in zip(weights, orders, sfs)))


class DrawCounter:
    """A Generator stand-in that records the shape of each standard_normal draw."""

    def __init__(self, seed):
        self.rng, self.shapes = np.random.default_rng(seed), []

    def standard_normal(self, *args, **kwargs):
        draw = self.rng.standard_normal(*args, **kwargs)
        self.shapes.append(draw.shape)
        return draw


class TestQuadraturePrice:
    def test_positive_constant(self):
        assert quadrature_price(RealPolynomial((0.4,)), 3) == pytest.approx(
            6 * 0.4, rel=1e-10
        )

    def test_negative_constant(self):
        assert quadrature_price(RealPolynomial((-0.4,)), 3) == 0.0

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            quadrature_price(RealPolynomial((0.0,) * 31 + (1.0,)), 2)

    @pytest.mark.parametrize("k", range(16))
    def test_even_moment(self, k):
        # z^(2k) up to MAX_DEGREE = 30: the domain's end grows with the
        # degree, so the tail of each moment stays inside it
        want = math.factorial(3) * math.prod(range(2 * k - 1, 0, -2))
        got = quadrature_price(RealPolynomial((0.0,) * (2 * k) + (1.0,)), 3)
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("strike", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_linear_call(self, strike):
        # (z - K)+ has its kink at the root z = K, a panel edge
        density = math.exp(-0.5 * strike**2) / math.sqrt(2 * math.pi)
        want = 24 * (density - strike * 0.5 * math.erfc(strike / math.sqrt(2)))
        got = quadrature_price(RealPolynomial((-strike, 1.0)), 4)
        assert got == pytest.approx(want, rel=4e-15, abs=0)

    def test_agrees_with_moment_engine(self):
        for coeffs in [(1.0, 0.0, -1.0), (0.25, 0.0, -1.25, 0.0, 1.0), (0.1, -0.3, 0.2, 0.05)]:
            p = RealPolynomial(coeffs)
            want = 2 * expected_positive_part(p).value
            assert quadrature_price(p, 2) == pytest.approx(want, abs=1e-9)

    def test_narrow_exercise_annulus(self):
        # sign bumps far narrower than any fixed probe grid; the root-split
        # keeps the integrator honest here
        p = RealPolynomial(
            (
                -0.005016743937174474,
                0.0,
                0.014667871093749996,
                0.0,
                -0.007773437500000003,
            )
        )
        want = 6 * expected_positive_part(p).value
        assert want > 1e-3  # the bumps carry real mass
        assert quadrature_price(p, 3) == pytest.approx(want, abs=1e-8)

    def test_tail_only_payoff(self):
        # even and positive only beyond |z| = 5.3, so its whole price of
        # 4.4e-8 lies in the tails; the reference integrates it in 50
        # digits from its largest root out, and doubles that for z < 0
        coeffs = (-0.024202857750348004, 0.0, -0.0266206923565113, 0.0, 0.0009802293230247343)
        mp = mpmath.mp.clone()
        mp.dps = 50
        poly = [mp.mpf(c) for c in reversed(coeffs)]
        edge = max(mp.re(y) for y in mp.polyroots(poly, extraprec=50) if abs(mp.im(y)) < 1e-30)
        want = 6 * 2 * mp.quad(lambda z: mp.polyval(poly, z) * mp.npdf(z), [edge, edge + 1, mp.inf])
        assert quadrature_price(RealPolynomial(coeffs), 3) == pytest.approx(float(want), rel=1e-12, abs=0)


class TestChaosSde:
    def test_argument_validation(self):
        atoms = CoherentModel(2, DiscreteAtoms((1.0, 2.0), (0.5, 0.5)))
        with pytest.raises(ValueError):
            simulate_chaos_sde(atoms, 2, 1.0, 1e-2, 1)
        with pytest.raises(ValueError):
            simulate_chaos_sde(ORDER_TWO, 2, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            simulate_chaos_sde(ORDER_TWO, 2, 1e-3, 1e-2, 1)
        with pytest.raises(ValueError):
            simulate_chaos_sde(ORDER_TWO, 0, 1.0, 1e-2, 1)
        with pytest.raises(ValueError):
            simulate_chaos_sde(ORDER_TWO, 2, 1.0, 1e-2, 1, count=0)

    def test_shapes_and_base_level(self):
        paths = simulate_chaos_sde(ORDER_TWO, 3, 1.0, 1e-2, 7, count=4)
        assert paths.values.shape == (4, 4, 101)
        assert paths.realized_brackets.shape == (4, 101)
        assert paths.times.shape == (101,)
        assert np.all(paths.values[:, 0, :] == 1.0)
        assert np.all(paths.values[:, 1:, 0] == 0.0)
        assert np.all(paths.realized_brackets[:, 0] == 0.0)

    def test_reproducible(self):
        a = simulate_chaos_sde(ORDER_TWO, 2, 1.0, 1e-2, 99, count=2)
        b = simulate_chaos_sde(ORDER_TWO, 2, 1.0, 1e-2, 99, count=2)
        assert np.array_equal(a.values, b.values)

    def test_second_order_bracket_identity(self):
        # X^(2) = (R^2 - [R]) / 2 holds pathwise for the Euler scheme, with
        # the bracket read off the same increments
        paths = simulate_chaos_sde(ORDER_TWO, 2, 2.0, 1e-3, 404, count=50)
        r = paths.values[:, 1, :]
        x2 = paths.values[:, 2, :]
        ident = (r * r - paths.realized_brackets) / 2.0
        scale = 1.0 + np.abs(x2)
        assert float(np.max(np.abs(x2 - ident) / scale)) < 1e-12

    def test_components_are_martingales(self):
        paths = simulate_chaos_sde(ORDER_TWO, 3, 2.0, 1e-3, 404, count=300)
        for m in (1, 2, 3):
            xs = paths.values[:, m, -1]
            se = float(xs.std(ddof=1)) / math.sqrt(xs.size)
            assert abs(float(xs.mean())) <= 4.0 * se

    def test_driver_variance_tracks_the_bracket(self):
        paths = simulate_chaos_sde(ORDER_TWO, 1, 2.0, 1e-3, 404, count=300)
        q = SF.q_at(2.0)
        var = float(paths.values[:, 1, -1].var(ddof=1))
        band = 4.0 * q * math.sqrt(2.0 / (paths.values.shape[0] - 1))
        assert abs(var - q) <= band


class TestMonteCarloPricing:
    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            mc_price(ORDER_TWO, BondSpec(2.0), 1, 1)

    def test_unsupported_types(self):
        with pytest.raises(ValueError):
            mc_price(ORDER_TWO, "zebra", 100, 1)
        with pytest.raises(ValueError):
            mc_price("zebra", BondSpec(2.0), 100, 1)
        with pytest.raises(ValueError):
            gauss_hermite_variance(ORDER_TWO, "zebra")

    def test_bond(self):
        closed = initial_bond_price(ORDER_TWO, 2.0)
        est, se = mc_price(ORDER_TWO, BondSpec(2.0), 400_000, 15)
        assert abs(est - closed) <= 4.0 * se

    def test_call(self):
        spec = OptionSpec(1.0, 2.0, 0.6)
        closed = price_bond_call(ORDER_TWO, spec)
        est, se = mc_price(ORDER_TWO, spec, 400_000, 16)
        assert abs(est - closed) <= 4.0 * se

    def test_swaption(self):
        spec = SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.05)
        closed = price_swaption(ORDER_TWO, spec)
        est, se = mc_price(ORDER_TWO, spec, 400_000, 17)
        assert abs(est - closed) <= 4.0 * se

    def test_degenerate_option_bracket_is_deterministic(self):
        # option expiring before any variance accrues pays its intrinsic
        table_model = CoherentModel(2, DiscreteAtoms((1.5, 2.0), (0.6, 0.4)))
        spec = OptionSpec(1.0, 1.5, 0.5)
        est, se = mc_price(table_model, spec, 100, 1)
        assert se == 0.0
        assert est == pytest.approx(max((1 - 0.36) - 0.5, 0.0), abs=1e-15)

    def test_single_term_incoherent_matches_coherent_closed_form(self):
        inc = IncoherentModel((IncoherentTerm(1.0, 2, SF),))
        spec = OptionSpec(1.0, 2.0, 0.6)
        closed = price_bond_call(ORDER_TWO, spec)
        est, se = mc_price(inc, spec, 300_000, 18)
        assert abs(est - closed) <= 4.0 * se

    def test_cancelling_incoherent_terms_are_rejected(self):
        # X = X^(2)(phi) - X^(2)(phi) vanishes, and so does pi_0
        model = IncoherentModel((IncoherentTerm(1.0, 2, SF), IncoherentTerm(-1.0, 2, SF)))
        with pytest.raises(ValueError, match="not positive"):
            mc_price(model, OptionSpec(1.0, 2.0, 0.5), 100, 1)

    def test_conditional_variance_matches_kernel(self):
        state = GaussianState(1.0, 0.4, SF.q_at(1.0))
        closed = pricing_kernel(ORDER_TWO, state)
        assert gauss_hermite_variance(ORDER_TWO, state) == pytest.approx(closed, rel=1e-13, abs=0.0)


class TestChunkedMonteCarlo:
    # three chunks, the last one partial
    SAMPLES = 2 * MC_CHUNK + 17

    @staticmethod
    def _mean_and_error(vals):
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))

    def _assert_close(self, got, want):
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)

    def _coherent_one_shot(self, n, spec, coefficient, seed):
        """n! sum_k w_k coefficient(k) X_t^(2n-2k) summed term by term over one
        full-size chaos_values draw: its mean and standard error, and a bound
        on how far mc_price's may lie from each.

        coefficient(k) is exact, in Fractions of the float brackets, and each
        term's factor n! w_k coefficient(k) is rounded once.  The bound is a
        running bound on the rounding of both sums, sample by sample, first
        order in the unit roundoff u:

        * here, the forward Hermite recurrence: r = sqrt(q_t) z moves by 2u |r|,
          times dS/dr = sum_i c_i X^(i-1); step i rounds by 3u (|r X^(i-1)| +
          q_t |X^(i-2)|) / i, times the step's adjoint lambda_i = c_i +
          r lambda_(i+1) / (i + 1) - q_t lambda_(i+2) / (i + 2), the exact
          sensitivity of the sum to X^(i); each term rounds twice and each
          partial sum once;
        * in mc_price, the Clenshaw recurrence in y = Z^2: each a_j from the
          payoff's l levels (q, b), total - sum b q^k within u ((l - 1) L +
          (l + 2) sum |b| q^k + |D|), L = sum |b|, then 7u of a_j; step j rounds
          by u (y |b_(j+1)| + 4 |alpha_j b_(j+1)| + 3 beta_j |b_(j+2)| + 2 |a_j|);
          both times |He_2j(Z)|, the exact sensitivity of the sum to b_j.

        The positive part moves by no more than its argument.  The mean's
        bound is the mean of the sample bound plus 96u mean|value| for the two
        pairwise means and the chunk merges; by Cauchy-Schwarz the standard
        error moves by at most rms(bound) / sqrt(N - 1), plus 96u of itself.
        """
        u = sys.float_info.epsilon / 2
        t, weight, legs, clipped = _payoff_legs(spec)
        levels = [(SF.q_at(t), weight)] + [(SF.q_at(T), b) for T, b in legs]
        q_t, top = levels[0][0], 2 * n - 2
        z = np.random.default_rng(seed).standard_normal(self.SAMPLES)
        r = math.sqrt(q_t) * z
        xs = chaos_values(top, r, q_t)
        # c[i] multiplies X^(i): only the even orders i = 2n - 2k carry a term
        c = [0.0] * (top + 1)
        for k in range(1, n + 1):
            c[top + 2 - 2 * k] = float(math.factorial(n) * kernel_coefficient(n, k) * coefficient(k))
        terms = [c[i] * xs[i] for i in range(top, -1, -2)]
        total = sum(terms)
        values = np.maximum(total, 0.0) if clipped else total

        bound = 2 * u * np.abs(r * sum(c[i] * xs[i - 1] for i in range(1, top + 1)))
        later = after = 0.0  # lambda_(i+1), lambda_(i+2)
        for i in range(top, 1, -1):
            lam = c[i] + r * later / (i + 1) - q_t * after / (i + 2)
            bound += 3 * u * (np.abs(r * xs[i - 1]) + q_t * np.abs(xs[i - 2])) / i * np.abs(lam)
            later, after = lam, later
        partial = 0.0
        for term in terms:
            partial = partial + term
            bound += 2 * u * np.abs(term) + u * np.abs(partial)

        y = z * z
        weight_sum = left_sum(abs(b) for _, b in levels)
        b_next = b_after = 0.0  # b_(j+1), b_(j+2)
        for j in range(n - 1, -1, -1):
            k = n - j
            scale = float(math.factorial(n) * kernel_coefficient(n, k)) * q_t**j / math.factorial(2 * j)
            a_j = c[2 * j] * q_t**j / math.factorial(2 * j)
            drift = left_sum(abs(b) * q**k for q, b in levels)
            coefficient_error = u * (
                abs(scale) * ((len(levels) - 1) * weight_sum + (len(levels) + 2) * drift + abs(float(coefficient(k))))
                + 7 * abs(a_j)
            )
            alpha, beta = y - (4 * j + 1), 2 * (j + 1) * (2 * j + 1)
            step_error = u * (y * np.abs(b_next) + 4 * np.abs(alpha * b_next) + 3 * beta * np.abs(b_after) + 2 * abs(a_j))
            hermite = np.abs(xs[2 * j]) * (math.factorial(2 * j) / q_t**j)  # |He_2j(Z)|
            bound += (coefficient_error + step_error) * hermite
            b_next, b_after = a_j + alpha * b_next - beta * b_after, b_next

        mean, error = self._mean_and_error(values)
        tols = (
            float(np.mean(bound)) + 96 * u * float(np.mean(np.abs(values))),
            math.sqrt(float(np.mean(bound * bound)) / (self.SAMPLES - 1)) + 96 * u * error,
        )
        return (mean, error), tols

    @staticmethod
    def _assert_within(got, want, tols):
        assert got[0] == pytest.approx(want[0], rel=0.0, abs=tols[0])
        assert got[1] == pytest.approx(want[1], rel=0.0, abs=tols[1])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 20])
    def test_coherent_call_matches_one_shot_draw(self, n):
        # n! (N_T - K N_t) in the bond-numerator coefficients N
        spec, seed = OptionSpec(1.0, 2.0, 0.55), 21
        q_t, q_T, strike = Fraction(SF.q_at(1.0)), Fraction(SF.q_at(2.0)), Fraction(spec.strike)
        want, tols = self._coherent_one_shot(n, spec, lambda k: (1 - q_T**k) - strike * (1 - q_t**k), seed)
        assert want[0] > 0.0
        self._assert_within(mc_price(CoherentModel(n, SF), spec, self.SAMPLES, seed), want, tols)

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_coherent_swaption_matches_one_shot_draw(self, n):
        # n! (N_t - N_TN - K sum_i N_Ti), three payment legs
        spec, seed = SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.05), 22
        q_t, q_N, strike = Fraction(SF.q_at(1.0)), Fraction(SF.q_at(4.0)), Fraction(spec.strike)
        qs = [Fraction(SF.q_at(T)) for T in spec.payment_dates]

        def coefficient(k):
            return (1 - q_t**k) - (1 - q_N**k) - strike * sum(1 - q**k for q in qs)

        want, tols = self._coherent_one_shot(n, spec, coefficient, seed)
        assert want[0] > 0.0
        self._assert_within(mc_price(CoherentModel(n, SF), spec, self.SAMPLES, seed), want, tols)

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_coherent_bond_matches_one_shot_draw(self, n):
        # the one payoff left unclipped: n! pi_T at the T-bracket
        spec, seed = BondSpec(2.0), 25
        q_T = Fraction(SF.q_at(spec.maturity))
        want, tols = self._coherent_one_shot(n, spec, lambda k: 1 - q_T**k, seed)
        self._assert_within(mc_price(CoherentModel(n, SF), spec, self.SAMPLES, seed), want, tols)

    @pytest.mark.parametrize(
        "model, payoff",
        [
            (CoherentModel(1, SF), OptionSpec(1.0, 2.0, 0.55)),
            (CoherentModel(1, SF), SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.05)),
            (CoherentModel(1, SF), BondSpec(2.0)),
            # no variance accrues before the first atom: q_t = 0
            (CoherentModel(3, DiscreteAtoms((1.5, 2.0), (0.6, 0.4))), OptionSpec(1.0, 1.5, 0.5)),
            # every term's q_t = 0, so every driver vanishes
            (ZERO_BRACKET_PAIR, OptionSpec(1.0, 2.5, 0.4)),
            (ZERO_BRACKET_PAIR, SwaptionSpec(1.0, (2.0, 3.0), 0.05)),
            # the order-2 term's driver vanishes, and the order-1 term's is never read
            (
                IncoherentModel(
                    (
                        IncoherentTerm(0.8, 1, DiscreteAtoms((0.5, 2.0), (0.5, 0.5))),
                        IncoherentTerm(0.5, 2, DiscreteAtoms((1.5, 2.0), (0.6, 0.4))),
                    )
                ),
                OptionSpec(1.0, 2.5, 0.4),
            ),
            # order-1 terms leave no product: pi_t is deterministic
            (IncoherentModel((IncoherentTerm(0.8, 1, SF), IncoherentTerm(-0.3, 1, ExponentialDensity(0.2)))), OptionSpec(1.0, 2.0, 0.55)),
        ],
        ids=["n1-call", "n1-swaption", "n1-bond", "zero-bracket-call", "incoherent-zero-bracket-call", "incoherent-zero-bracket-swaption", "incoherent-unread-driver-call", "incoherent-order-one-call"],
    )
    def test_payoff_without_random_term_draws_nothing(self, monkeypatch, model, payoff):
        # the folded form is its X^(0) coefficient: the payoff at time-0
        # bond prices (n! pi_0 = 1)
        if isinstance(model, IncoherentModel):
            origin = multi_state_at(model, 0.0, [0.0] * len(model.terms))
            bond = lambda T: incoherent_bond_price(model, origin, T)
        else:
            bond = lambda T: initial_bond_price(model, T)
        t, weight, legs, clipped = _payoff_legs(payoff)
        value = weight * bond(t) + sum(b * bond(T) for T, b in legs)
        counter = DrawCounter(1)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: counter)
        est, se = mc_price(model, payoff, self.SAMPLES, 1)
        assert counter.shapes == []
        assert se == 0.0
        assert est == pytest.approx(max(value, 0.0) if clipped else value, rel=1e-14)

    @pytest.mark.parametrize(
        "model, state, kernel",
        [
            (ORDER_TWO, GaussianState(5.0, 0.1, 1.0), pricing_kernel),
            (ZERO_RESIDUAL_PAIR, multi_state_at(ZERO_RESIDUAL_PAIR, 2.5, (0.3, -0.7)), incoherent_kernel),
        ],
        ids=["coherent-order-two", "incoherent-past-last-atom"],
    )
    def test_conditional_variance_without_residual_builds_no_rule(self, monkeypatch, model, state, kernel):
        def no_rule(degree):
            raise AssertionError("built a Gauss-Hermite rule where the variance is exactly zero")

        monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", no_rule)
        assert kernel(model, state) == 0.0
        assert gauss_hermite_variance(model, state) == 0.0

    @pytest.mark.parametrize(
        "model, payoff, drivers",
        [
            (ORDER_TWO, OptionSpec(1.0, 2.0, 0.55), ()),
            # an order-1 term enters a payoff only through X^(0) = 1
            (model_of_orders(1, 3), OptionSpec(1.0, 3.0, 0.3), (1,)),
            (model_of_orders(2, 2), OptionSpec(1.0, 3.0, 0.3), (2,)),
        ],
        ids=["coherent-call", "incoherent-call-one-plus-n", "incoherent-call-equal-order"],
    )
    def test_draws_one_normal_per_read_driver_per_sample(self, monkeypatch, model, payoff, drivers):
        counter = DrawCounter(1)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: counter)
        mc_price(model, payoff, self.SAMPLES, 1)
        assert counter.shapes == [(MC_CHUNK, *drivers), (MC_CHUNK, *drivers), (17, *drivers)]

    def _incoherent_one_shot(self, model, payoff, seed):
        """The payoff per unit of pi_0 from one full-size draw, each bond
        numerator as the unexpanded double sum over banded projections,

            E_t[pi_T] = sum_ij c_i c_j sum_k g_T^k / k! E_t[X_T^(n_i-k) X_T^(n_j-k)],

        and pi_t the same at T = t, where the projection window h vanishes.
        An order-1 term enters only at k = 1, through X^(0) = 1, so the draw
        holds the drivers of the terms of order >= 2 alone."""
        terms = model.terms
        t = payoff.option_maturity
        read = [i for i, term in enumerate(terms) if term.order > 1]
        vals, vecs = np.linalg.eigh(accumulated_gram_matrix(model, t)[np.ix_(read, read)])
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
        r = np.random.default_rng(seed).standard_normal((self.SAMPLES, len(read))) @ factor.T
        g_t = residual_gram_matrix(model, t)

        def numerator(xs, g_now, T):
            g_T = residual_gram_matrix(model, T)
            return sum(
                ti.weight * tj.weight * g_T[i, j] ** k / math.factorial(k)
                * banded_projection(g_now[i, j] - g_T[i, j], ti.order - k, tj.order - k, xs[i], xs[j])
                for i, ti in enumerate(terms)
                for j, tj in enumerate(terms)
                for k in range(1, min(ti.order, tj.order) + 1)
            )

        xs = [[1.0] for _ in terms]
        for k, i in enumerate(read):
            xs[i] = chaos_values(terms[i].order, r[:, k], terms[i].sf.q_at(t))
        zero = [chaos_values(term.order, 0.0, 0.0) for term in terms]
        pi_0 = numerator(zero, residual_gram_matrix(model, 0.0), 0.0)
        pi_t = numerator(xs, g_t, t)
        if isinstance(payoff, OptionSpec):
            value = numerator(xs, g_t, payoff.bond_maturity) - payoff.strike * pi_t
        else:
            numers = [numerator(xs, g_t, T) for T in payoff.payment_dates]
            value = pi_t - numers[-1] - payoff.strike * sum(numers)
        return self._mean_and_error(np.maximum(value, 0.0) / pi_0)

    @pytest.mark.parametrize(
        "orders, payoff",
        [
            ((3, 3), OptionSpec(1.0, 3.0, 0.3)),
            ((1, 3), OptionSpec(1.0, 3.0, 0.3)),
            ((2, 2), SwaptionSpec(1.0, (2.0, 3.0, 4.5), 0.05)),
            ((2, 3), OptionSpec(0.8, 2.5, 0.4)),
            # three drivers, each a sum over all three columns of the draw
            ((1, 2, 3), OptionSpec(1.0, 3.0, 0.3)),
        ],
        ids=["call-equal-order", "call-one-plus-n", "swaption-equal-order", "call-orders-2-3", "call-orders-1-2-3"],
    )
    def test_incoherent_payoff_matches_one_shot_draw(self, orders, payoff):
        model = model_of_orders(*orders)
        want = self._incoherent_one_shot(model, payoff, 26)
        assert want[0] > 0.0
        self._assert_close(mc_price(model, payoff, self.SAMPLES, 26), want)

    def test_incoherent_bond_matches_one_shot_draw(self):
        # order two: pi_t = sum_ij c_i c_j (g_ij R_i R_j + g_ij^2 / 2)
        other = ExponentialDensity(0.2)
        model = IncoherentModel((IncoherentTerm(0.8, 2, SF), IncoherentTerm(-0.3, 2, other)))
        T, seed = 1.5, 23
        vals, vecs = np.linalg.eigh(accumulated_gram_matrix(model, T))
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
        r = np.random.default_rng(seed).standard_normal((self.SAMPLES, 2)) @ factor.T
        c = np.array([0.8, -0.3])

        def kernel(g, r):
            return sum(c[i] * c[j] * (g[i, j] * r[:, i] * r[:, j] + 0.5 * g[i, j] ** 2) for i in range(2) for j in range(2))

        pi_0 = kernel(residual_gram_matrix(model, 0.0), np.zeros((1, 2)))[0]
        want = self._mean_and_error(kernel(residual_gram_matrix(model, T), r) / pi_0)
        self._assert_close(mc_price(model, BondSpec(T), self.SAMPLES, seed), want)

    @staticmethod
    def _assert_flat_peak(price):
        # tracemalloc peak of price(samples) at 2e5 and 2e6 samples
        peaks = []
        for samples in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                price(samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * 2**20, peaks

    def test_memory_does_not_grow_with_the_sample_count(self):
        spec = SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.05)
        self._assert_flat_peak(lambda samples: mc_price(CoherentModel(3, SF), spec, samples, 24))

    def test_incoherent_memory_does_not_grow_with_the_sample_count(self):
        model = IncoherentModel((IncoherentTerm(0.8, 2, SF), IncoherentTerm(0.5, 3, ExponentialDensity(0.2))))
        self._assert_flat_peak(lambda samples: mc_price(model, OptionSpec(0.8, 2.5, 0.4), samples, 30))


def test_general_order_kernel_form_is_the_conditional_variance():
    # orders (2, 3): neither equal nor {1, n}; the oracle's kernel form at a
    # state, times pi_0, against sampled X_inf at that state.  Chaos of
    # different orders are orthogonal, so pi_0 = Var X = c1^2 / 2! + c2^2 / 3!
    # with unit-mass structure functions.
    model = IncoherentModel((IncoherentTerm(0.8, 2, SF), IncoherentTerm(0.5, 3, ExponentialDensity(0.2))))
    state = multi_state_at(model, 0.8, [0.3, -0.2])
    constant, products = _incoherent_form(model, state.t, 1.0, [])
    xs = [chaos_values(term.order, r, q) for term, r, q in zip(model.terms, state.values, state.brackets)]
    form = constant + sum(c * xs[i][a] * xs[j][b] for c, i, a, j, b in products)
    pi_0 = 0.8**2 / 2.0 + 0.5**2 / 6.0
    assert form * pi_0 == pytest.approx(gauss_hermite_variance(model, state), rel=1e-13, abs=0.0)


# the three structure-function families; the atoms put states before the
# first atom (Q = 0) and past the last (Q = 1, a zero variance)
FAMILIES = {
    "exponential": ExponentialDensity(0.23),
    "piecewise": PiecewiseConstantDensity((1.0, 2.5, 6.0, 14.0), (0.4, 1.3, 0.7, 0.2)),
    "atoms": DiscreteAtoms((0.5, 1.0, 2.0, 3.5, 6.0), (0.15, 0.3, 0.25, 0.2, 0.1)),
}


class TestGaussHermiteVariance:
    """The kernels against the exact conditional variance, up to n = 20."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", range(1, 21))
    def test_coherent_kernel_is_the_conditional_variance(self, family, n):
        sf = FAMILIES[family]
        model = CoherentModel(n, sf)
        rng = np.random.default_rng(1000 * n + len(family))
        for t in (0.25, 0.75, 1.5, 3.0, 7.0):
            q = sf.q_at(t)
            state = GaussianState(t, math.sqrt(q) * float(rng.standard_normal()), q)
            assert gauss_hermite_variance(model, state) == pytest.approx(pricing_kernel(model, state), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("orders", [(2, 3), (1, 2, 4), (5, 8, 12), (10, 15, 20)], ids=str)
    def test_incoherent_kernel_is_the_conditional_variance(self, orders):
        model = model_of_orders(*orders)
        rng = np.random.default_rng(sum(orders))
        for t in (0.3, 0.9, 2.0):
            vals, vecs = np.linalg.eigh(accumulated_gram_matrix(model, t))
            values = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ rng.standard_normal(len(vals))
            state = multi_state_at(model, t, values)
            closed = incoherent_kernel(model, state)
            assert gauss_hermite_variance(model, state) == pytest.approx(closed, rel=1e-13, abs=0.0)

    def test_rule_past_the_node_bound_is_refused(self):
        # 21^3 nodes is the largest rule: orders (20, 20, 20, 1) need 21^4
        # and (10, 10, 10, 10) need 11^4
        for orders in [(20, 20, 20, 1), (10, 10, 10, 10)]:
            terms = (IncoherentTerm(0.5, n, ExponentialDensity(0.3 + 0.2 * k)) for k, n in enumerate(orders))
            model = IncoherentModel(tuple(terms))
            state = multi_state_at(model, 0.5, (0.1,) * len(orders))
            with pytest.raises(ValueError, match="nodes exceeds"):
                gauss_hermite_variance(model, state)
