"""Coherent single-factor rate model of a given chaos order.

The model is driven by one Gaussian martingale R_t with bracket Q_t taken
from a structure function.  Closed forms implemented here:

* squared-martingale components

      X_t^(m) = sum_{k=0..m//2} (-1)^k R^(m-2k) Q^k / (k! (m-2k)! 2^k)
              = Q^(m/2) He_m(R / sqrt(Q)) / m! ,

  with X^(0) = 1 and X^(m) = 0 for m < 0, evaluated by the Hermite
  recurrence (m + 1) X^(m+1) = R X^(m) - Q X^(m-1);

* the pricing kernel of order n, the conditional variance of X_inf^(n),
  by the product formula as a sum of squares (g = 1 - Q_t),

      pi_t = sum_{N=1..n} g^N / N! (X_t^(n-N))^2,

  a polynomial of degree 2n - 2 in R_t with pi_0 = 1/n!;

* discount bonds P(t, T) = E_t[pi_T] / pi_t, with h = Q_T - Q_t,

      E_t[pi_T] = sum_{N=1..n} (g^N - h^N) / N! (X_t^(n-N))^2,

  so P(0, T) = 1 - Q_T^n;

* the short rate and market price of risk implied by the kernel dynamics:
  the drift telescopes to a single square and the volatility is the
  derivative in R_t,

      r_t      = phi_t^2 (X_t^(n-1))^2 / pi_t,
      lambda_t = -2 phi_t sum_{N=1..n-1} g^N / N! X_t^(n-N) X_t^(n-N-1) / pi_t.

pair_sum evaluates every one of these sums from X^(0..n-1), at one state
or broadcast over arrays of simulated states.  As polynomials in R_t,
product_weights gives their weights and squares_polynomial expands them
from the exact squares of the chaos polynomials: the kernel polynomial and
every option payoff and delta are built from these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .special_functions import RealPolynomial
from .structure_functions import GaussianState, StructureFunction

MAX_ORDER = 20

# N! for N = 0..MAX_ORDER, each exact in a float
_FACTORIALS = tuple(float(math.factorial(N)) for N in range(MAX_ORDER + 1))


def check_order(n) -> None:
    """Raise ValueError unless n is an int in [1, MAX_ORDER]; a bool is not an order."""
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_ORDER:
        raise ValueError(f"chaos order must be an integer in [1, {MAX_ORDER}], got {n!r}")


@dataclass(frozen=True)
class CoherentModel:
    """Chaos order n plus the structure function supplying Q_t and phi."""

    n: int
    sf: StructureFunction

    def __post_init__(self) -> None:
        check_order(self.n)


@lru_cache(maxsize=None)
def _chaos_terms(m: int) -> tuple:
    # (exact Fraction coefficient, power of R, power of Q) triples for X^(m)
    return tuple(
        (Fraction((-1) ** k, math.factorial(k) * math.factorial(m - 2 * k) * 2**k), m - 2 * k, k)
        for k in range(m // 2 + 1)
    )


@lru_cache(maxsize=None)
def _squared_terms(m: int) -> tuple:
    # the same triples for (X^(m))^2, each coefficient exact, then rounded once
    exact = {}
    for a, i, j in _chaos_terms(m):
        for b, i2, j2 in _chaos_terms(m):
            exact[i + i2, j + j2] = exact.get((i + i2, j + j2), 0) + a * b
    return tuple((float(c), i, j) for (i, j), c in exact.items())


def iter_chaos_values(m: int, r, q):
    """Yield X^(0), X^(1), ..., X^(m) at driver value r with bracket q.

    Walks the Hermite three-term recurrence

        (k + 1) X^(k+1) = r X^(k) - q X^(k-1),

    holding only the last two orders, so chaos_value reads X^(m) in memory
    independent of m.  Broadcasts over arrays.
    """
    if m < 0:
        return
    prev = r * 0.0 + q * 0.0 + 1.0
    yield prev
    if m == 0:
        return
    cur = prev * r
    yield cur
    for k in range(1, m):
        nxt = r * cur  # a fresh array: the yielded orders are never written
        nxt -= q * prev
        nxt /= k + 1
        prev, cur = cur, nxt
        yield cur


def chaos_values(m: int, r, q) -> list:
    """[X^(0), ..., X^(m)] at driver value r with bracket q (empty for m < 0).

    The chaos evaluator: O(m) multiplies by the Hermite recurrence, with
    exactly the operations of iter_chaos_values in one loop, broadcasting
    over arrays of r and q.
    """
    if m < 0:
        return []
    prev = r * 0.0 + q * 0.0 + 1.0
    if m == 0:
        return [prev]
    cur = prev * r
    out = [prev, cur]
    for k in range(1, m):
        nxt = r * cur  # a fresh array: the listed orders are never written
        nxt -= q * prev
        nxt /= k + 1
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def chaos_value(m: int, r, q):
    """Evaluate X^(m) at driver value r with bracket q; broadcasts over arrays."""
    if m < 0:
        return r * 0.0 + q * 0.0
    for x in iter_chaos_values(m, r, q):
        pass
    return x


def chaos_polynomial(m: int, q: float) -> RealPolynomial:
    """X^(m) as a polynomial in the driver value, with bracket q frozen."""
    if m < 0:
        return RealPolynomial((0.0,))
    coeffs = [0.0] * (m + 1)
    for coef, i, j in _chaos_terms(m):
        coeffs[i] = float(coef) * q**j
    return RealPolynomial(tuple(coeffs))


@lru_cache(maxsize=None)
def kernel_coefficient(n: int, k: int) -> Fraction:
    """Exact weight w_k = (2(n-k))! / (k! ((n-k)!)^2) of the order-n kernel."""
    if not 0 <= k <= n:
        raise ValueError(f"kernel coefficient index must satisfy 0 <= k <= n, got k={k}, n={n}")
    return Fraction(
        math.factorial(2 * (n - k)),
        math.factorial(k) * math.factorial(n - k) ** 2,
    )


def product_weights(n: int, g, g_T) -> list:
    """[(g^N - h^N) / N! for N = 1..n <= MAX_ORDER], h = g - g_T: the product-formula weights.

    g^N - h^N is built as d <- g d + h^(N-1) g_T, a sum of nonnegative
    terms that cancels nothing; g_T = g gives g^N / N!.  The reference for
    the sums that walk this recurrence in place (pair_sum and the option
    payoffs of polynomial_pricer), pinned to it bit for bit by the tests.
    """
    h = g - g_T
    d = 0.0
    h_power = 1.0
    out = []
    for factorial in _FACTORIALS[1 : n + 1]:
        d = g * d + h_power * g_T
        h_power *= h
        out.append(d / factorial)
    return out


def squares_polynomial(c, q: float) -> RealPolynomial:
    """sum_m c[m] (X^(m))^2 as one polynomial in R, bracket q frozen.

    Each square is expanded from its exact coefficients, rounded once; its
    powers of R are even, so every odd coefficient is exactly zero.  As
    (X^(m)(sqrt(q) z, q))^2 = q^m (X^(m)(z, 1))^2, a payoff in z is
    squares_polynomial([c_m q^m], 1.0).
    """
    out = [0.0] * (2 * len(c) - 1)
    q_powers = [q**p for p in range(len(c))]
    for m, cm in enumerate(c):
        if cm != 0.0:
            for b, i, j in _squared_terms(m):
                out[i] += cm * (b * q_powers[j])
    return RealPolynomial(out)


def kernel_polynomial(n: int, q_state: float, q_maturity: float) -> RealPolynomial:
    """E_t[pi at the later bracket level] as a polynomial in R_t.

    With q_maturity = q_state this is the kernel itself; with q_maturity read
    at a bond maturity it is the bond-price numerator.  Degree is 2n - 2.
    """
    check_order(n)
    return squares_polynomial(product_weights(n, 1.0 - q_state, 1.0 - q_maturity)[::-1], q_state)


def pair_sum(a: int, b: int, xi, xj, g, g_T):
    """sum_{N=1..min(a,b)} (g^N - h^N) / N! X_i^(a-N) X_j^(b-N), h = g - g_T.

    One pair's term of the product formula, from the chaos lists
    xi = X^(0..a-1)(phi_i) and xj = X^(0..b-1)(phi_j) at the state, with
    g = int_t^inf phi_i phi_j and g_T = int_T^inf phi_i phi_j.  g_T = g gives
    the kernel term, weights g^N / N!; g_T read at a bond maturity gives the
    term of E_t[pi_T], so a far maturity cancels nothing.  Each weight is
    made by the product_weights recurrence as it is used, with the same
    roundings and no list.  Chaos values and g, g_T may be arrays that
    broadcast together; each cell then takes the rounding of the scalar sum.
    """
    h = g - g_T
    d = 0.0
    h_power = 1.0
    acc = 0.0
    for N in range(1, min(a, b) + 1):
        d = g * d + h_power * g_T
        h_power *= h
        acc += d / _FACTORIALS[N] * xi[a - N] * xj[b - N]
    return acc


def _positive_kernel(n: int, xs, g: float, what: str) -> float:
    pi = pair_sum(n, n, xs, xs, g, g)
    if not math.isfinite(pi):
        raise ValueError(f"pricing kernel is not finite at this state; {what} undefined")
    if pi <= 0:
        raise ValueError(f"pricing kernel is not positive at this state; {what} undefined")
    return pi


def pricing_kernel(model: CoherentModel, state: GaussianState) -> float:
    """Kernel level pi_t at the state; kernel_polynomial gives it as a polynomial in R_t.

    Raises OverflowError when pi_t lies beyond the float range.
    """
    n = model.n
    g = 1.0 - state.Q
    xs = chaos_values(n - 1, state.R, state.Q)
    pi = pair_sum(n, n, xs, xs, g, g)
    if not math.isfinite(pi):
        raise OverflowError("pricing kernel lies beyond the float range at this state")
    return pi


def bond_price(model: CoherentModel, state: GaussianState, maturity: float) -> float:
    """Discount bond P(t, T) seen from the state; requires T >= t."""
    if maturity < state.t:
        raise ValueError(f"maturity {maturity} precedes state time {state.t}")
    n = model.n
    g = 1.0 - state.Q
    xs = chaos_values(n - 1, state.R, state.Q)
    numer = pair_sum(n, n, xs, xs, g, 1.0 - model.sf.q_at(maturity))
    return numer / _positive_kernel(n, xs, g, "bond price")


def initial_bond_price(model: CoherentModel, maturity: float) -> float:
    """P(0, T) = 1 - Q_T^n."""
    return 1.0 - model.sf.q_at(maturity) ** model.n


def short_rate(model: CoherentModel, state: GaussianState) -> float:
    """r_t = phi_t^2 (X_t^(n-1))^2 / pi_t, nonnegative by construction; needs Q_t < 1."""
    if state.Q >= 1:
        raise ValueError("short rate undefined once the bracket Q_t reaches 1")
    dens = model.sf.squared_density(state.t)
    if dens == 0.0:
        return 0.0
    n = model.n
    xs = chaos_values(n - 1, state.R, state.Q)
    pi = _positive_kernel(n, xs, 1.0 - state.Q, "short rate")
    return dens * xs[n - 1] * xs[n - 1] / pi


def risk_premium(model: CoherentModel, state: GaussianState) -> float:
    """lambda_t = -2 phi_t sum_N g^N / N! X_t^(n-N) X_t^(n-N-1) / pi_t; needs Q_t < 1."""
    if state.Q >= 1:
        raise ValueError("risk premium undefined once the bracket Q_t reaches 1")
    dens = model.sf.squared_density(state.t)
    if dens == 0.0:
        return 0.0
    n = model.n
    g = 1.0 - state.Q
    xs = chaos_values(n - 1, state.R, state.Q)
    pi = _positive_kernel(n, xs, g, "risk premium")
    return -2.0 * math.sqrt(dens) * pair_sum(n, n - 1, xs, xs, g, g) / pi


def from_descriptor(d: dict) -> CoherentModel:
    """Build a coherent model from {"n": ..., "sf": {...}}."""
    from . import structure_functions

    if not isinstance(d, dict) or "n" not in d or "sf" not in d:
        raise ValueError("coherent model descriptor must be an object with 'n' and 'sf' keys")
    return CoherentModel(n=d["n"], sf=structure_functions.from_descriptor(d["sf"]))


def to_descriptor(model: CoherentModel) -> dict:
    from . import structure_functions

    return {"n": model.n, "sf": structure_functions.to_descriptor(model.sf)}
