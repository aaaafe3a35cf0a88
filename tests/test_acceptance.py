"""Acceptance gate: one numbered check per shipped guarantee.

Each test computes a verdict plus a one-line detail, records it through
the acceptance_log fixture (echoed in the terminal summary), and then
asserts.  Tolerances and runtime budgets are part of the verdict.
"""

import math
import time
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from chaosrates import (
    CoherentModel,
    DiscountCurve,
    DiscreteAtoms,
    ExponentialDensity,
    GaussianState,
    IncoherentModel,
    IncoherentTerm,
    OptionSpec,
    RealPolynomial,
    SwaptionSpec,
    calibrate_weights,
    call_payoff_polynomial,
    expected_positive_part,
    hermite,
    hermite_product_expansion,
    incoherent_kernel,
    initial_bond_price,
    initial_curve,
    gauss_hermite_variance,
    mc_price,
    mixed_order_kernel,
    multi_state_at,
    price_bond_call,
    price_swaption,
    pricing_kernel,
    quadrature_price,
    simulate_chaos_sde,
    simulate_paths,
)
from chaosrates.coherent_model import chaos_value
from closed_form_cases import (
    biquadratic_positive_part,
    call_biquadratic_coefficients,
    call_quadratic_coefficients,
    quadratic_positive_part,
    swaption_quadratic_coefficients,
)
from support import LookupBracket


def test_criterion_01_hermite_suite(acceptance_log):
    t0 = time.perf_counter()
    nodes, weights = hermegauss(40)
    weights = weights / weights.sum()
    ortho_err = 0.0
    for n in range(7):
        hn = hermite(n)(nodes)
        for m in range(7):
            want = math.factorial(n) if n == m else 0.0
            got = float(np.sum(weights * hn * hermite(m)(nodes)))
            ortho_err = max(ortho_err, abs(got - want))
    # recurrence and product identity hold coefficient-by-coefficient in
    # exact integer arithmetic, which is stronger than any float residual
    def poly_add(acc, coeffs, factor):
        for k, c in enumerate(coeffs):
            acc[k] = acc.get(k, 0) + factor * c
        return acc

    rec_err = 0
    for n in range(1, 9):
        lhs = dict(enumerate(hermite(n + 1).coeffs))
        rhs = {k + 1: c for k, c in enumerate(hermite(n).coeffs)}
        poly_add(rhs, hermite(n - 1).coeffs, -n)
        rec_err = max(
            rec_err,
            max(abs(lhs.get(k, 0) - rhs.get(k, 0)) for k in set(lhs) | set(rhs)),
        )
    prod_err = 0
    for a in range(9):
        for b in range(9):
            ha, hb = hermite(a).coeffs, hermite(b).coeffs
            direct = {}
            for i, ca in enumerate(ha):
                for j, cb in enumerate(hb):
                    direct[i + j] = direct.get(i + j, 0) + ca * cb
            recon = {}
            for order, coeff in hermite_product_expansion(a, b):
                poly_add(recon, hermite(order).coeffs, coeff)
            keys = set(direct) | set(recon)
            prod_err = max(
                prod_err, max(abs(direct.get(k, 0) - recon.get(k, 0)) for k in keys)
            )
    elapsed = time.perf_counter() - t0
    ok = ortho_err <= 1e-9 and rec_err <= 1e-10 and prod_err <= 1e-10 and elapsed < 1.0
    detail = (
        f"orthogonality err {ortho_err:.1e} (tol 1e-9); recurrence and product "
        f"identity checked on exact integer coefficients: errs {rec_err} and "
        f"{prod_err} (tol 1e-10, orders <= 8); runtime {elapsed:.2f}s (< 1s)"
    )
    acceptance_log(1, ok, detail)
    assert ok, detail


def test_criterion_02_pathwise_sde_identity(acceptance_log):
    t0 = time.perf_counter()
    model = CoherentModel(2, ExponentialDensity(0.5))
    fractions = {}
    worst = {}
    for m in (2, 3):
        paths = simulate_chaos_sde(model, m, 5.0, 1e-4, 2026, count=100)
        sim = paths.values[:, m, :]
        closed = chaos_value(m, paths.values[:, 1, :], paths.realized_brackets)
        num = np.max(np.abs(sim - closed), axis=1)
        den = 1e-12 + np.max(np.abs(closed), axis=1)
        rel = num / den
        fractions[m] = float(np.mean(rel < 0.01))
        worst[m] = float(rel.max())
        del paths, sim, closed
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.95 for f in fractions.values()) and elapsed < 60.0
    detail = (
        f"order 2: {fractions[2]:.0%} of paths < 1% (worst {worst[2]:.1e}); "
        f"order 3: {fractions[3]:.0%} (worst {worst[3]:.1e}); "
        f"closed form paired with the realized bracket; runtime {elapsed:.1f}s (< 60s)"
    )
    acceptance_log(2, ok, detail)
    assert ok, detail


def test_criterion_03_kernel_values(acceptance_log):
    t0 = time.perf_counter()
    sf = ExponentialDensity(0.5)
    zero = GaussianState(0.0, 0.0, 0.0)
    exact_half = pricing_kernel(CoherentModel(2, sf), zero) == 0.5
    init_err = max(
        abs(pricing_kernel(CoherentModel(n, sf), zero) - 1.0 / math.factorial(n))
        for n in range(1, 6)
    )
    worst_rel = 0.0
    for n in range(1, 21):
        model = CoherentModel(n, sf)
        state = GaussianState(1.0, 0.35, sf.q_at(1.0))
        closed = pricing_kernel(model, state)
        worst_rel = max(worst_rel, abs(gauss_hermite_variance(model, state) - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = exact_half and init_err <= 1e-14 and worst_rel <= 1e-13 and elapsed < 60.0
    detail = (
        f"order-2 initial kernel == 1/2 exactly: {exact_half}; initial-kernel err "
        f"{init_err:.1e} (tol 1e-14, orders 1-5); Gauss-Hermite conditional variance worst "
        f"rel err {worst_rel:.1e} (tol 1e-13, orders 1-20); runtime {elapsed:.1f}s (< 60s)"
    )
    acceptance_log(3, ok, detail)
    assert ok, detail


ORDER_TWO_MODEL_CASES = [
    ("constant_sign", 0.4, 0.7, 0.5),
    ("always_exercised", 0.3, 0.5, 0.2),
    ("worthless", 0.3, 0.5, 1.4),
    ("central_exercise", 0.3, 0.5, 0.8),
]
# leading coefficient > 0 with constant term < 0 is provably empty on
# admissible bracket pairs; the sign pattern is exercised on raw
# coefficients instead
ORDER_TWO_SYNTHETIC = [(1.0, -1.0), (0.5, -0.2)]

ORDER_THREE_MODEL_CASES = [
    ("degenerate_always_exercised", 0.5, 0.75, 0.5),
    ("always_exercised", 0.2333520436349911, 0.5536462079660024, 0.11766171971439512),
    ("worthless", 0.06879579609521719, 0.5402726044585405, 1.3028927337779819),
    ("central_exercise", 0.25892635803026326, 0.8161412744620318, 0.2965449892583027),
    ("annular_exercise", 0.8957032675709621, 0.947864302997232, 0.6789554385440894),
]
ORDER_THREE_SYNTHETIC = [
    ("four_root_exercise", 1.0, -1.25, 0.25),
    ("outer_exercise", 1.0, 0.0, -1.0),
    ("outer_exercise", 0.5, -0.2, -0.3),
]


def test_criterion_04_option_engine(acceptance_log):
    t0 = time.perf_counter()
    case_err = 0.0
    cases = 0
    for tag, q_t, q_T, strike in ORDER_TWO_MODEL_CASES:
        a, b = call_quadratic_coefficients(q_t, q_T, strike)
        if tag == "constant_sign":
            a = 0.0
        want, got_tag = quadratic_positive_part(a, b)
        assert got_tag == tag
        model = CoherentModel(2, LookupBracket({1.0: q_t, 2.0: q_T}))
        price = price_bond_call(model, OptionSpec(1.0, 2.0, strike))
        case_err = max(case_err, abs(price - 2.0 * want))
        cases += 1
    for a, b in ORDER_TWO_SYNTHETIC:
        want, got_tag = quadratic_positive_part(a, b)
        assert got_tag == "tail_exercise"
        price = 2.0 * expected_positive_part(RealPolynomial((b, 0.0, a))).value
        case_err = max(case_err, abs(price - 2.0 * want))
        cases += 1
    for tag, q_t, q_T, strike in ORDER_THREE_MODEL_CASES:
        a, b, c = call_biquadratic_coefficients(q_t, q_T, strike)
        if tag.startswith("degenerate"):
            a = 0.0
        want, got_tag = biquadratic_positive_part(a, b, c)
        assert got_tag == tag
        model = CoherentModel(3, LookupBracket({1.0: q_t, 2.0: q_T}))
        price = price_bond_call(model, OptionSpec(1.0, 2.0, strike))
        case_err = max(case_err, abs(price - 6.0 * want))
        cases += 1
    for tag, a, b, c in ORDER_THREE_SYNTHETIC:
        want, got_tag = biquadratic_positive_part(a, b, c)
        assert got_tag == tag
        price = 6.0 * expected_positive_part(RealPolynomial((c, 0.0, b, 0.0, a))).value
        case_err = max(case_err, abs(price - 6.0 * want))
        cases += 1

    rng = np.random.default_rng(424242)
    worst_quad = 0.0
    worst_z = 0.0
    zero_se_bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        q_t = float(rng.uniform(0.02, 0.9))
        q_T = float(q_t + rng.uniform(0.02, 0.98) * (0.995 - q_t))
        strike = float(rng.uniform(0.0, 1.3))
        model = CoherentModel(n, LookupBracket({1.0: q_t, 2.0: q_T}))
        spec = OptionSpec(1.0, 2.0, strike)
        price = price_bond_call(model, spec)
        quad = quadrature_price(call_payoff_polynomial(model, spec), n)
        worst_quad = max(worst_quad, abs(price - quad))
        est, se = mc_price(model, spec, 1_000_000, int(rng.integers(0, 2**32)))
        if se == 0.0:
            if abs(price - est) > 1e-6:
                zero_se_bad += 1
        else:
            worst_z = max(worst_z, abs(price - est) / se)
    elapsed = time.perf_counter() - t0
    ok = (
        case_err <= 1e-10
        and worst_quad <= 1e-8
        and worst_z <= 3.0
        and zero_se_bad == 0
        and elapsed < 120.0
    )
    detail = (
        f"{cases} sign-pattern formulas err {case_err:.1e} (tol 1e-10, unreachable "
        f"patterns driven on raw coefficients); 200 random configs: quadrature err "
        f"{worst_quad:.1e} (tol 1e-8), MC worst |z| {worst_z:.2f} (< 3, zero-variance "
        f"cases agree to 1e-6); runtime {elapsed:.0f}s (< 120s)"
    )
    acceptance_log(4, ok, detail)
    assert ok, detail


SWAPTION_MODEL_CASES = [
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
SWAPTION_SYNTHETIC = [(-0.7, 0.9), (-0.02, 0.003)]


def test_criterion_05_swaption_engine(acceptance_log):
    case_err = 0.0
    for tag, q_t, q_pay, strike in SWAPTION_MODEL_CASES:
        a, b = swaption_quadratic_coefficients(q_t, q_pay, strike)
        want, got_tag = quadratic_positive_part(a, b)
        assert got_tag == tag
        table = {1.0: q_t}
        dates = []
        for i, q in enumerate(q_pay):
            table[2.0 + i] = q
            dates.append(2.0 + i)
        model = CoherentModel(2, LookupBracket(table))
        price = price_swaption(model, SwaptionSpec(1.0, tuple(dates), strike))
        case_err = max(case_err, abs(price - 2.0 * want))
    for a, b in SWAPTION_SYNTHETIC:
        want, got_tag = quadratic_positive_part(a, b)
        assert got_tag == "central_exercise"
        price = 2.0 * expected_positive_part(RealPolynomial((b, 0.0, a))).value
        case_err = max(case_err, abs(price - 2.0 * want))

    zero_strike_err = 0.0
    sf = ExponentialDensity(0.6)
    for n in (2, 3):
        model = CoherentModel(n, sf)
        price = price_swaption(model, SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.0))
        want = initial_bond_price(model, 1.0) - initial_bond_price(model, 4.0)
        zero_strike_err = max(zero_strike_err, abs(price - want))
    ok = case_err <= 1e-10 and zero_strike_err <= 1e-12
    detail = (
        f"4 sign-pattern formulas err {case_err:.1e} (tol 1e-10, central pattern on raw "
        f"coefficients); zero strike vs bond spread err {zero_strike_err:.1e} (tol 1e-12)"
    )
    acceptance_log(5, ok, detail)
    assert ok, detail


def test_criterion_06_call_strike_shape(acceptance_log):
    model = CoherentModel(2, ExponentialDensity(0.1))
    strikes = np.linspace(0.0, 1.2, 50)
    prices = np.array(
        [price_bond_call(model, OptionSpec(3.0, 10.0, float(k))) for k in strikes]
    )
    diffs = np.diff(prices)
    second = np.diff(diffs)
    nonincreasing = bool(np.all(diffs <= 1e-12))
    convex = bool(np.all(second >= -1e-12))
    at_zero = abs(prices[0] - initial_bond_price(model, 10.0))
    ok = nonincreasing and convex and at_zero <= 1e-12
    detail = (
        f"50 strikes on [0, 1.2]: nonincreasing {nonincreasing}, convex {convex}, "
        f"zero-strike price equals the bond (err {at_zero:.1e})"
    )
    acceptance_log(6, ok, detail)
    assert ok, detail


def test_criterion_07_step_curve_exact(acceptance_log):
    weights = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    model = CoherentModel(2, DiscreteAtoms(times=(1.0, 4.0, 9.0), weights=weights))
    curve = initial_curve(model)
    segments = (curve.price_at(0.5), curve.price_at(1.0), curve.price_at(4.0), curve.price_at(9.0))
    want = (1, Fraction(35, 36), Fraction(5, 9), Fraction(0, 1))
    exact = segments == want and all(
        isinstance(p, Fraction) for p in curve.prices
    )
    ok = bool(exact)
    detail = f"segment values {tuple(str(s) for s in segments)} == (1, 35/36, 5/9, 0), bit-exact rational: {ok}"
    acceptance_log(7, ok, detail)
    assert ok, detail


def test_criterion_08_calibration_round_trip(acceptance_log):
    rng = np.random.default_rng(88)
    worst = 0.0
    for i in range(100):
        count = int(rng.integers(1, 9))
        mats = tuple(np.cumsum(rng.uniform(0.25, 2.0, size=count)))
        prices = []
        p = 1.0
        for _ in range(count):
            p *= 1.0 - float(rng.uniform(0.02, 0.25))
            prices.append(p)
        market = DiscountCurve(mats, tuple(prices))
        n = int(rng.integers(1, 4))
        curve = initial_curve(calibrate_weights(market, n))
        for T, P in zip(mats, prices):
            worst = max(worst, abs(curve.price_at(T) - P))
    ok = worst <= 1e-12
    detail = f"100 random curves, orders 1-3: worst reproduction err {worst:.1e} (tol 1e-12)"
    acceptance_log(8, ok, detail)
    assert ok, detail


def test_criterion_09_martingale_products(acceptance_log):
    t0 = time.perf_counter()
    model = CoherentModel(2, DiscreteAtoms(tuple(float(i) for i in range(1, 12)), (0.08,) * 10 + (0.2,)))
    paths = simulate_paths(model, 7.0, 100_000, 314159)
    target = 0.5 * float(initial_curve(model).price_at(7.0))
    prods = paths.kernels * paths.bond_prices
    starts = paths.segment_starts
    det_err = abs(float(prods[:, 0].mean()) - target)  # time-0 column is deterministic
    worst_z = 0.0
    for idx, t in enumerate(starts):
        if idx == 0 or t > 7.0:
            continue
        col = prods[:, idx]
        se = float(col.std(ddof=1)) / math.sqrt(col.shape[0])
        worst_z = max(worst_z, abs(float(col.mean()) - target) / se)
    del prods, paths

    near = simulate_paths(model, 7.0, 100, 9)
    far_model = CoherentModel(2, DiscreteAtoms(model.sf.times[:-1] + (25.0,), model.sf.weights))
    far = simulate_paths(far_model, 7.0, 100, 9)
    horizon_exact = (
        np.array_equal(near.values, far.values)
        and np.array_equal(near.brackets, far.brackets)
        and np.array_equal(near.kernels, far.kernels)
        and np.array_equal(near.bond_prices, far.bond_prices)
        and np.array_equal(near.segment_starts[:-1], far.segment_starts[:-1])
    )
    elapsed = time.perf_counter() - t0
    ok = det_err <= 1e-12 and worst_z <= 3.0 and horizon_exact and elapsed < 60.0
    detail = (
        f"1e5 paths: time-0 product err {det_err:.1e} (deterministic, tol 1e-12), "
        f"worst |z| over jump times <= 7 is {worst_z:.2f} (< 3); horizon placement "
        f"bit-exact: {horizon_exact}; runtime {elapsed:.1f}s (< 60s)"
    )
    acceptance_log(9, ok, detail)
    assert ok, detail


def test_criterion_10_incoherent_kernels(acceptance_log):
    sf = ExponentialDensity(0.5)
    rng = np.random.default_rng(7)
    collapse_err = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        t = float(rng.uniform(0.05, 4.0))
        r = float(rng.normal(0.0, 1.0))
        inc = IncoherentModel((IncoherentTerm(1.0, n, sf),))
        coh = CoherentModel(n, sf)
        ki = incoherent_kernel(inc, multi_state_at(inc, t, (r,)))
        kc = pricing_kernel(coh, GaussianState(t, r, sf.q_at(t)))
        collapse_err = max(collapse_err, abs(ki - kc) / max(1.0, abs(kc)))

    two = IncoherentModel(
        (
            IncoherentTerm(0.8, 2, ExponentialDensity(0.5)),
            IncoherentTerm(0.6, 2, ExponentialDensity(1.2)),
        )
    )
    expansion_err = 0.0
    for t, r1, r2 in [(0.6, 0.3, -0.4), (1.5, -0.9, 0.2), (2.5, 1.1, 1.3)]:
        state = multi_state_at(two, t, (r1, r2))
        n = 2
        c = [term.weight for term in two.terms]
        xs = [
            [chaos_value(n - k, state.values[i], state.brackets[i]) for k in range(1, n + 1)]
            for i in range(2)
        ]
        g = state.residual_gram
        explicit = sum(
            c[i] * c[j] * sum(
                g[i][j] ** k / math.factorial(k) * xs[i][k - 1] * xs[j][k - 1]
                for k in range(1, n + 1)
            )
            for i in range(2)
            for j in range(2)
        )
        expansion_err = max(expansion_err, abs(explicit - incoherent_kernel(two, state)))

    mixed = IncoherentModel(
        (
            IncoherentTerm(1.0, 1, ExponentialDensity(0.8)),
            IncoherentTerm(1.0, 3, ExponentialDensity(0.4)),
        )
    )
    zero = multi_state_at(mixed, 0.0, (0.0, 0.0))
    exact = gauss_hermite_variance(mixed, zero)
    adopted = mixed_order_kernel(mixed, zero)  # 1 + 1/3!
    rejected = 1.0 + 1.0 / 36.0  # squared-factorial diagonal alternative
    rel_adopted = abs(exact - adopted) / exact
    rel_rejected = abs(exact - rejected) / exact
    state_late = multi_state_at(mixed, 0.8, (0.2, -0.1))
    exact_late = gauss_hermite_variance(mixed, state_late)
    rel_late = abs(exact_late - mixed_order_kernel(mixed, state_late)) / exact_late

    ok = (
        collapse_err <= 1e-12
        and expansion_err <= 1e-10
        and rel_adopted <= 1e-13
        and rel_late <= 1e-13
        and rel_rejected > 0.1
    )
    detail = (
        f"single-term collapse err {collapse_err:.1e} (tol 1e-12, 100 states); two-term "
        f"expansion vs generic err {expansion_err:.1e} (tol 1e-10); mixed-order Gauss-Hermite "
        f"variance: 1/k! diagonal weights supported (rel err {rel_adopted:.1e} at t=0, "
        f"{rel_late:.1e} at t=0.8, tol 1e-13), 1/(k!)^2 alternative rejected (rel err {rel_rejected:.2f} > 0.1)"
    )
    acceptance_log(10, ok, detail)
    assert ok, detail
