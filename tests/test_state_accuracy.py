"""Accuracy gate for the state values against a 60-digit reference.

The reference is the linear form of the kernel, built from the exact
kernel_coefficient Fractions,

    pi_t   = sum_{k=1..n} w_k (1 - Q_t^k) X^(2n-2k),
    E_t[pi_T] = the same sum with Q_T^k,
    r_t    = phi_t^2 sum_{k=1..n} k w_k Q_t^(k-1) X^(2n-2k) / pi_t,
    lambda_t = -phi_t sum_{k=1..n-1} w_k (1 - Q_t^k) X^(2n-2k-1) / pi_t,

with every X^(m) the explicit monomial sum evaluated by mpmath, so the
reference shares no arithmetic with the library.  The float inputs (R, Q_t,
Q_T, phi_t^2, the Gram entries) are taken as exact.  The incoherent bond
price is checked against the banded double sum of the product formula,

    E_t[pi_T] = sum_{i,j} c_i c_j sum_k g_T^k / k!
                    sum_m h^m / m! X_i^(n_i-k-m) X_j^(n_j-k-m),   h = g - g_T,

also in mpmath.  Every value must lie within MAX_REL_ERROR of its reference.
"""

import math

import mpmath
import numpy as np
import pytest

from chaosrates import (
    CoherentModel,
    ExponentialDensity,
    IncoherentModel,
    IncoherentTerm,
    PiecewiseConstantDensity,
    bond_price,
    incoherent_bond_price,
    kernel_coefficient,
    multi_state_at,
    pricing_kernel,
    risk_premium,
    short_rate,
    state_at,
)
from chaosrates.structure_functions import residual_inner_product

MAX_REL_ERROR = 1e-13
ORDERS = (2, 5, 8, 12, 16, 20)
FAMILIES = {
    "exponential": ExponentialDensity(0.23),
    "piecewise": PiecewiseConstantDensity((1.0, 2.5, 6.0, 14.0), (0.4, 1.3, 0.7, 0.2)),
}
SCALES = (0.5, 1.0, 2.0, 3.0)
STATES_PER_SCALE = 5  # 6 orders x 2 families x 4 scales x 5 = 240 coherent states
LAST_MATURITY = 14.0

mp = mpmath.mp.clone()
mp.dps = 60


def ref_chaos(m, r, q):
    """X^(m)(r, q) = sum_k (-1)^k r^(m-2k) q^k / (k! (m-2k)! 2^k), in mpmath."""
    if m < 0:
        return mp.mpf(0)
    return mp.fsum(
        (-1) ** k * r ** (m - 2 * k) * q**k / (math.factorial(k) * math.factorial(m - 2 * k) * 2**k)
        for k in range(m // 2 + 1)
    )


def weight(n, k):
    w = kernel_coefficient(n, k)
    return mp.mpf(w.numerator) / w.denominator


def coherent_reference(n, r, q, q_T, dens):
    """(pi_t, P(t, T), r_t, lambda_t) from the linear form in 60 digits."""
    r, q, q_T, dens = mp.mpf(r), mp.mpf(q), mp.mpf(q_T), mp.mpf(dens)
    xs = [ref_chaos(m, r, q) for m in range(2 * n - 1)]
    ks = range(1, n + 1)
    pi = mp.fsum(weight(n, k) * (1 - q**k) * xs[2 * n - 2 * k] for k in ks)
    numer = mp.fsum(weight(n, k) * (1 - q_T**k) * xs[2 * n - 2 * k] for k in ks)
    drift = mp.fsum(k * weight(n, k) * q ** (k - 1) * xs[2 * n - 2 * k] for k in ks)
    slope = mp.fsum(weight(n, k) * (1 - q**k) * xs[2 * n - 2 * k - 1] for k in range(1, n))
    return pi, numer / pi, dens * drift / pi, -mp.sqrt(dens) * slope / pi


def coherent_states():
    """(family, n, t, R, T): R = sqrt(Q_t) Z s over the scales s, T in [t, 14]."""
    rng = np.random.default_rng(20261019)
    out = []
    for family, sf in FAMILIES.items():
        for n in ORDERS:
            for scale in SCALES:
                for _ in range(STATES_PER_SCALE):
                    t = float(rng.uniform(0.25, 10.0))
                    r = math.sqrt(sf.q_at(t)) * float(rng.standard_normal()) * scale
                    T = float(rng.uniform(t, LAST_MATURITY))
                    out.append((family, n, t, r, T))
    return out


def rel_error(got, want):
    return float(abs(mp.mpf(got) - want) / abs(want)) if want != 0 else abs(got)


STATES = coherent_states()


def test_the_gate_covers_at_least_200_states():
    assert len(STATES) >= 200


@pytest.mark.parametrize("n", ORDERS)
def test_coherent_state_values_match_the_reference(n):
    worst = {"kernel": 0.0, "bond": 0.0, "rate": 0.0, "premium": 0.0}
    for family, order, t, r, T in STATES:
        if order != n:
            continue
        sf = FAMILIES[family]
        model = CoherentModel(n, sf)
        state = state_at(sf, t, r)
        want = coherent_reference(n, r, state.Q, sf.q_at(T), sf.squared_density(t))
        got = (
            pricing_kernel(model, state),
            bond_price(model, state, T),
            short_rate(model, state),
            risk_premium(model, state),
        )
        for key, g, w in zip(worst, got, want):
            worst[key] = max(worst[key], rel_error(g, w))
    assert max(worst.values()) <= MAX_REL_ERROR, worst


def incoherent_reference(model, state, maturity):
    """P(t, T) by the banded double sum of the product formula, in mpmath."""
    terms = model.terms
    xs = [
        [ref_chaos(m, mp.mpf(r), mp.mpf(q)) for m in range(term.order)]
        for term, r, q in zip(terms, state.values, state.brackets)
    ]
    pi = numer = mp.mpf(0)
    for i, ti in enumerate(terms):
        for j, tj in enumerate(terms):
            g = mp.mpf(state.residual_gram[i][j])
            g_T = mp.mpf(residual_inner_product(ti.sf, tj.sf, maturity))
            h = g - g_T
            cc = mp.mpf(ti.weight) * mp.mpf(tj.weight)
            for k in range(1, min(ti.order, tj.order) + 1):
                a, b = ti.order - k, tj.order - k
                pi += cc * g**k / math.factorial(k) * xs[i][a] * xs[j][b]
                banded = mp.fsum(
                    h**m / math.factorial(m) * xs[i][a - m] * xs[j][b - m] for m in range(min(a, b) + 1)
                )
                numer += cc * g_T**k / math.factorial(k) * banded
    return numer / pi


INCOHERENT_ORDERS = [(n, n) for n in ORDERS] + [(1, n) for n in ORDERS] + [(5, 20), (12, 8)]


@pytest.mark.parametrize("orders", INCOHERENT_ORDERS)
def test_incoherent_bond_price_matches_the_reference(orders):
    sfs = (FAMILIES["exponential"], FAMILIES["piecewise"])
    model = IncoherentModel(tuple(IncoherentTerm(c, n, sf) for c, n, sf in zip((0.7, 0.45), orders, sfs)))
    rng = np.random.default_rng(sum(orders) * 97 + orders[0])
    worst = 0.0
    for scale in SCALES:
        t = float(rng.uniform(0.25, 10.0))
        values = [math.sqrt(sf.q_at(t)) * float(rng.standard_normal()) * scale for sf in sfs]
        state = multi_state_at(model, t, values)
        T = float(rng.uniform(t, LAST_MATURITY))
        worst = max(worst, rel_error(incoherent_bond_price(model, state, T), incoherent_reference(model, state, T)))
    assert worst <= MAX_REL_ERROR
