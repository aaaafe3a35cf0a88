"""Prices do not depend on the interpreter's sum().

From Python 3.12 on, the built-in sum() compensates float sums, so the
same code gives other bits on other interpreters wherever it adds floats
with sum().  The library adds floats by an explicit left fold instead.
These tests replace sum() with a Neumaier compensated sum and check that
no price moves, on inputs where the two sums differ.
"""

import builtins
import math

from chaosrates import (
    CoherentModel,
    DiscreteAtoms,
    ExponentialDensity,
    IncoherentModel,
    IncoherentTerm,
    OptionSpec,
    PiecewiseConstantDensity,
    RealPolynomial,
    SwaptionSpec,
    call_delta,
    call_payoff_polynomial,
    expected_positive_part,
    gauss_hermite_variance,
    incoherent_bond_price,
    initial_bond_price,
    mc_price,
    multi_state_at,
    price_bond_call,
    price_swaption,
    quadrature_price,
)

plain_sum = builtins.sum

TIMES = tuple(0.5 * k for k in range(1, 11))
WEIGHTS = (0.1,) * 10  # adds up to 0.9999999999999999 left to right


def neumaier_sum(values, start=0):
    """sum() with Neumaier compensation on floats, as Python 3.12 adds them."""
    values = list(values)
    if type(start) is not int or not all(type(v) is float for v in values):
        return plain_sum(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_the_compensated_sum_differs_on_these_inputs():
    assert neumaier_sum(WEIGHTS) == 1.0
    assert plain_sum(WEIGHTS) == 0.9999999999999999
    # the piecewise mass sum_i v_i (b_i - b_(i-1)) over half-unit pieces
    lengths = [0.5] * 10
    assert neumaier_sum([v * w for v, w in zip(WEIGHTS, lengths)]) != plain_sum(v * w for v, w in zip(WEIGHTS, lengths))


def prices():
    """Prices of every kind on the atoms and piecewise families built from WEIGHTS."""
    atoms = DiscreteAtoms(TIMES, WEIGHTS)
    piecewise = PiecewiseConstantDensity(TIMES, WEIGHTS)
    out = [atoms.normalisation_scale, piecewise.normalisation_scale]
    for sf in (atoms, piecewise):
        out += [sf.q_at(t) for t in (0.25, 1.7, 3.0, 4.9, 6.0)]
        for n in (2, 3, 5, 8, 12, 16):
            model = CoherentModel(n, sf)
            forward = initial_bond_price(model, 4.2) / initial_bond_price(model, 1.2)
            for share in (0.7, 0.97, 1.0):
                spec = OptionSpec(1.2, 4.2, share * forward)
                out += [price_bond_call(model, spec), call_delta(model, spec)]
            dates = (1.6, 2.6, 3.6, 4.6)
            for strike in (0.0, 0.05, 0.2):
                out.append(price_swaption(model, SwaptionSpec(1.1, dates, strike)))
            out.append(price_swaption(model, SwaptionSpec(0.0, dates, 0.05)))
        model = CoherentModel(3, sf)
        spec = OptionSpec(1.2, 4.2, 0.8)
        out.append(quadrature_price(call_payoff_polynomial(model, spec), 3))
        out.append(mc_price(model, spec, 4000, 5))
    # atoms at shared times give the incoherent cross terms
    pair = IncoherentModel((IncoherentTerm(0.8, 2, atoms), IncoherentTerm(0.5, 3, DiscreteAtoms(TIMES, WEIGHTS[::-1]))))
    state = multi_state_at(pair, 1.2, [0.1, -0.2])
    out += [incoherent_bond_price(pair, state, T) for T in (2.0, 3.7)]
    out.append(mc_price(pair, OptionSpec(1.2, 3.7, 0.8), 4000, 5))
    # E_t[X_inf] = 1 + 1e-16 + 1e-16 sums to 1.0 left to right, above 1.0 compensated
    rates = ((1.0, 0.7), (1e-16, 0.2), (1e-16, 1.3))
    tiny = IncoherentModel(tuple(IncoherentTerm(c, 1, ExponentialDensity(lam)) for c, lam in rates))
    out.append(gauss_hermite_variance(tiny, multi_state_at(tiny, 1.0, (1.0, 1.0, 1.0))))
    # a payoff with odd terms takes the general moment sum
    odd = RealPolynomial((0.1, -0.3, -0.2, 0.1, 0.3, 0.1))
    out.append(expected_positive_part(odd).value)
    return out


def test_prices_do_not_move_under_a_compensated_sum(monkeypatch):
    plain = prices()
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "sum", neumaier_sum)
        compensated = prices()
    assert plain[0] != 1.0  # the atom weights were rescaled by their left-to-right sum
    assert all(math.isfinite(x) for x in plain if isinstance(x, float))
    assert compensated == plain
