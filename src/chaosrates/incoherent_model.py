"""Superpositions of coherent chaos terms sharing one Brownian driver.

The terminal random variable is X = sum_i c_i X^(n_i) built from per-term
structure functions phi_i.  The pricing kernel is the conditional variance
of X, which the banded product identity

    E_t[X_T^(a)(phi_i) X_T^(b)(phi_j)]
        = sum_{m=0..min(a,b)} (h_ij^m / m!) X_t^(a-m)(phi_i) X_t^(b-m)(phi_j),
    h_ij = int_t^T phi_i phi_j,

turns into finite double sums over terms.  Bond prices follow by applying
the identity twice: once on (T, inf) to expand pi_T, once on (t, T) to
project the time-T chaos products back to time t.

The equal-order kernel uses the corrected per-term coefficients
(residual products g_ij^k / k!, no extra diagonal factor), and the mixed
first-plus-nth kernel uses (1 - Q)^k / k! weights; both choices are the
unique ones consistent with the conditional isometry and are validated
against the Monte Carlo conditional-variance oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_model import MAX_ORDER, chaos_values
from .structure_functions import StructureFunction, check_finite, residual_inner_product
from . import structure_functions


@dataclass(frozen=True)
class IncoherentTerm:
    """One coherent component: weight, chaos order, structure function."""

    weight: float
    order: int
    sf: StructureFunction

    def __post_init__(self) -> None:
        check_finite("term weight", (self.weight,))
        if (
            isinstance(self.order, bool)
            or not isinstance(self.order, int)
            or not 1 <= self.order <= MAX_ORDER
        ):
            raise ValueError(f"chaos order must be an integer in [1, {MAX_ORDER}], got {self.order}")


@dataclass(frozen=True)
class IncoherentModel:
    """Finite list of coherent terms; weights must not all vanish."""

    terms: tuple

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("incoherent model needs at least one term")
        if all(term.weight == 0 for term in terms):
            raise ValueError("incoherent model weights must not all be zero")
        object.__setattr__(self, "terms", terms)

    @property
    def orders(self) -> tuple:
        return tuple(term.order for term in self.terms)


@dataclass(frozen=True)
class MultiGaussianState:
    """Per-term driver values R_i and brackets Q_i at a common time t.

    residual_gram[i][j] holds int_t^inf phi_i phi_j; its diagonal must agree
    with 1 - Q_i and the matrix must be positive semidefinite.
    """

    t: float
    values: tuple
    brackets: tuple
    residual_gram: tuple

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")
        values = tuple(float(v) for v in self.values)
        brackets = tuple(float(q) for q in self.brackets)
        gram = tuple(tuple(float(g) for g in row) for row in self.residual_gram)
        m = len(values)
        if len(brackets) != m or len(gram) != m or any(len(row) != m for row in gram):
            raise ValueError("values, brackets and residual_gram must have matching sizes")
        if any(not 0 <= q <= 1 for q in brackets):
            raise ValueError("brackets must lie in [0, 1]")
        if self.t == 0 and any(v != 0 for v in values):
            raise ValueError("at t = 0 all driver values must be zero")
        g = np.asarray(gram)
        if not np.allclose(g, g.T, atol=1e-12):
            raise ValueError("residual Gram matrix must be symmetric")
        if any(abs(g[i, i] - (1.0 - brackets[i])) > 1e-8 for i in range(m)):
            raise ValueError("residual Gram diagonal must equal 1 - Q_i")
        if m and np.linalg.eigvalsh(g).min() < -1e-10 * max(1.0, float(np.trace(g))):
            raise ValueError("residual Gram matrix must be positive semidefinite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "brackets", brackets)
        object.__setattr__(self, "residual_gram", gram)


def residual_gram_matrix(model: IncoherentModel, t: float) -> np.ndarray:
    """Matrix of int_t^inf phi_i phi_j over the model's terms."""
    sfs = [term.sf for term in model.terms]
    m = len(sfs)
    g = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            g[i, j] = g[j, i] = residual_inner_product(sfs[i], sfs[j], t)
    return g


def accumulated_gram_matrix(model: IncoherentModel, t: float) -> np.ndarray:
    """Joint covariance int_0^t phi_i phi_j of the driver values at t."""
    return residual_gram_matrix(model, 0.0) - residual_gram_matrix(model, t)


def multi_state_at(model: IncoherentModel, t: float, values) -> MultiGaussianState:
    """Assemble the state at time t from per-term driver values."""
    values = tuple(float(v) for v in values)
    if len(values) != len(model.terms):
        raise ValueError(f"expected {len(model.terms)} driver values, got {len(values)}")
    brackets = tuple(term.sf.q_at(t) for term in model.terms)
    gram = tuple(tuple(row) for row in residual_gram_matrix(model, t))
    return MultiGaussianState(t=t, values=values, brackets=brackets, residual_gram=gram)


def _term_chaos(state: MultiGaussianState, top: int) -> list:
    # one chaos_values pass per term: X^(0..top) at each term's state
    return [chaos_values(top, r, q) for r, q in zip(state.values, state.brackets)]


def _equal_order_kernel(model: IncoherentModel, n: int, gram, xs) -> float:
    total = 0.0
    for i, ti in enumerate(model.terms):
        for j, tj in enumerate(model.terms):
            g = gram[i][j]
            inner = sum(
                g**k / math.factorial(k) * xs[i][n - k] * xs[j][n - k]
                for k in range(1, n + 1)
            )
            total += ti.weight * tj.weight * inner
    return total


def incoherent_kernel(model: IncoherentModel, state: MultiGaussianState) -> float:
    """Conditional variance of X when all terms share one chaos order n:

        pi_t = sum_{i,j} c_i c_j sum_{k=1..n} (g_ij^k / k!)
                   X_t^(n-k)(phi_i) X_t^(n-k)(phi_j).
    """
    orders = set(model.orders)
    if len(orders) != 1:
        raise ValueError("terms have mixed chaos orders; use mixed_order_kernel for the 1-plus-n shape")
    n = orders.pop()
    return _equal_order_kernel(model, n, state.residual_gram, _term_chaos(state, n - 1))


def _split_mixed(model: IncoherentModel):
    if len(model.terms) != 2 or 1 not in model.orders:
        raise ValueError(
            "mixed-order kernels support exactly two terms with orders {1, n}; "
            f"got orders {model.orders}"
        )
    first = 0 if model.terms[0].order == 1 else 1
    return model.terms[first], model.terms[1 - first], first


def _mixed_kernel(model: IncoherentModel, state: MultiGaussianState, x2) -> float:
    # x2 = X^(0..n-1) of the order-n term at its state
    lin, high, i1 = _split_mixed(model)
    i2 = 1 - i1
    n = high.order
    q1, q2 = state.brackets[i1], state.brackets[i2]
    g12 = state.residual_gram[i1][i2]
    diag = sum((1.0 - q2) ** k / math.factorial(k) * x2[n - k] ** 2 for k in range(1, n + 1))
    cross = 2.0 * lin.weight * high.weight * g12 * x2[n - 1]
    return lin.weight**2 * (1.0 - q1) + high.weight**2 * diag + cross


def mixed_order_kernel(model: IncoherentModel, state: MultiGaussianState) -> float:
    """Conditional variance for X = c1 X^(1)(phi_1) + c2 X^(n)(phi_2)."""
    lin, high, i1 = _split_mixed(model)
    i2 = 1 - i1
    x2 = chaos_values(high.order - 1, state.values[i2], state.brackets[i2])
    return _mixed_kernel(model, state, x2)


def _banded_projection(h: float, a: int, b: int, xi, xj) -> float:
    # E_t of the product of window-a and window-b chaos components at T,
    # from the time-t chaos lists xi = X^(0..a)(phi_i), xj = X^(0..b)(phi_j)
    out = 0.0
    for m in range(min(a, b) + 1):
        out += h**m / math.factorial(m) * xi[a - m] * xj[b - m]
    return out


def incoherent_bond_price(model: IncoherentModel, state: MultiGaussianState, maturity: float) -> float:
    """P(t, T) = E_t[pi_T] / pi_t for equal-order or 1-plus-n models."""
    if maturity < state.t:
        raise ValueError(f"maturity {maturity} precedes state time {state.t}")
    orders = set(model.orders)
    terms = model.terms
    if len(orders) == 1:
        n = orders.pop()
        xs = _term_chaos(state, n - 1)
        pi_t = _equal_order_kernel(model, n, state.residual_gram, xs)
        numer = 0.0
        for i, ti in enumerate(terms):
            for j, tj in enumerate(terms):
                g_T = residual_inner_product(ti.sf, tj.sf, maturity)
                h = state.residual_gram[i][j] - g_T
                inner = 0.0
                for k in range(1, n + 1):
                    inner += g_T**k / math.factorial(k) * _banded_projection(h, n - k, n - k, xs[i], xs[j])
                numer += ti.weight * tj.weight * inner
    else:
        lin, high, i1 = _split_mixed(model)
        i2 = 1 - i1
        n = high.order
        x2 = chaos_values(n - 1, state.values[i2], state.brackets[i2])
        pi_t = _mixed_kernel(model, state, x2)
        q1_T = lin.sf.q_at(maturity)
        q2_T = high.sf.q_at(maturity)
        h22 = state.residual_gram[i2][i2] - residual_inner_product(high.sf, high.sf, maturity)
        diag = sum(
            (1.0 - q2_T) ** k / math.factorial(k) * _banded_projection(h22, n - k, n - k, x2, x2)
            for k in range(1, n + 1)
        )
        g12_T = residual_inner_product(lin.sf, high.sf, maturity)
        cross = 2.0 * lin.weight * high.weight * g12_T * x2[n - 1]
        numer = lin.weight**2 * (1.0 - q1_T) + high.weight**2 * diag + cross
    if pi_t <= 0:
        raise ValueError("pricing kernel is not positive at this state; bond price undefined")
    return numer / pi_t


def from_descriptor(d: dict) -> IncoherentModel:
    """Build an incoherent model from {"terms": [{"c":..., "n":..., "sf":...}]}."""
    if not isinstance(d, dict) or "terms" not in d:
        raise ValueError("incoherent model descriptor must be an object with a 'terms' key")
    if not isinstance(d["terms"], list) or not all(isinstance(entry, dict) for entry in d["terms"]):
        raise ValueError("incoherent model 'terms' must be a list of objects")
    terms = []
    for entry in d["terms"]:
        n = entry.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"chaos order must be an integer, got {n!r}")
        try:
            weight = float(entry["c"])
            sf = structure_functions.from_descriptor(entry["sf"])
        except KeyError as e:
            raise ValueError(f"incoherent term is missing the {e.args[0]!r} field") from None
        terms.append(IncoherentTerm(weight=weight, order=n, sf=sf))
    return IncoherentModel(terms=tuple(terms))


def to_descriptor(model: IncoherentModel) -> dict:
    return {
        "terms": [
            {"c": term.weight, "n": term.order, "sf": structure_functions.to_descriptor(term.sf)}
            for term in model.terms
        ]
    }
