"""Shared test helpers."""

import math

from chaosrates import RealPolynomial, StructureFunction, chaos_polynomial, hermite


class LookupBracket(StructureFunction):
    """Structure function pinned to prescribed accumulated-variance values.

    Lets a test drive the pricers with exact bracket pairs (Q_t, Q_T, ...)
    without solving for a density that attains them.
    """

    family = "lookup"

    def __init__(self, table: dict):
        self.table = dict(table)

    def q_at(self, t: float) -> float:
        return self.table[t]

    def squared_density(self, t: float) -> float:
        return 0.0


def per_k_chaos_sum(n, coeffs, q):
    """sum_k coeffs[k-1] X^(2n-2k) added up one chaos_polynomial at a time."""
    acc = RealPolynomial((0.0,))
    for k, c in enumerate(coeffs, 1):
        if c != 0.0:
            acc = acc + c * chaos_polynomial(2 * n - 2 * k, q)
    return acc


def scaled_hermite_chaos(m, r, q):
    """X^(m)(r, q) = q^(m/2) He_m(r / sqrt(q)) / m!, the reference for chaos_value.

    At q = 0 the limit r^m / m!.  Overflows for denormal q > 0.
    """
    if m < 0:
        return 0.0
    if m == 0:
        return 1.0
    if q == 0.0:
        return r**m / math.factorial(m)
    return q ** (m / 2) * hermite(m)(r / math.sqrt(q)) / math.factorial(m)
