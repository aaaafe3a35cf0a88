"""Superpositions of coherent chaos terms sharing one Brownian driver.

The terminal random variable is X = sum_i c_i X^(n_i) built from per-term
structure functions phi_i.  The pricing kernel is the conditional variance
of X, given for any chaos orders by the product formula for multiple
Wiener integrals,

    pi_t = sum_{i,j} c_i c_j sum_{k=1..min(n_i,n_j)} (g_ij^k / k!)
               X_t^(n_i-k)(phi_i) X_t^(n_j-k)(phi_j),
    g_ij = int_t^inf phi_i phi_j.

Bond prices P(t, T) = E_t[pi_T] / pi_t take the same double sum with
g_ij(T) = int_T^inf phi_i phi_j in place of g_ij, and each chaos product
projected back from T to t by the banded identity

    E_t[X_T^(a)(phi_i) X_T^(b)(phi_j)]
        = sum_{m=0..min(a,b)} (h_ij^m / m!) X_t^(a-m)(phi_i) X_t^(b-m)(phi_j),
    h_ij = g_ij - g_ij(T) = int_t^T phi_i phi_j.

Grouping the two sums by N = k + m gives one sum per pair,

    E_t[pi_T] = sum_{i,j} c_i c_j sum_{N=1..min(n_i,n_j)}
                    ((g_ij^N - h_ij^N) / N!) X_t^(n_i-N)(phi_i) X_t^(n_j-N)(phi_j),

which coherent_model.pair_sum evaluates for the kernel (g_ij(T) = g_ij,
h_ij = 0) and the numerator alike, reading only X^(0..n_i-1).

The tests check it at every order against the exact Gauss-Hermite
conditional variance of simulation_oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_model import chaos_values, check_order, pair_sum
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
        check_order(self.order)


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
        check_finite("time and driver values", (self.t, *values))
        brackets = tuple(float(q) for q in self.brackets)
        gram = tuple(tuple(float(g) for g in row) for row in self.residual_gram)
        m = len(values)
        if len(brackets) != m or len(gram) != m or any(len(row) != m for row in gram):
            raise ValueError("values, brackets and residual_gram must have matching sizes")
        if any(not 0 <= q <= 1 for q in brackets):
            raise ValueError("brackets must lie in [0, 1]")
        if self.t == 0 and any(v != 0 for v in values):
            raise ValueError("at t = 0 all driver values must be zero")
        # |g_ij - g_ji| <= 1e-12 + 1e-5 |g_ji| over every ordered (i, j), in
        # floats: a NaN entry fails every comparison it enters, and an
        # infinite one fails (j, i) against a finite g_ij, or gives inf - inf
        if not all(
            abs(gram[i][j] - gram[j][i]) <= 1e-12 + 1e-5 * abs(gram[j][i]) for i in range(m) for j in range(m)
        ):
            raise ValueError("residual Gram matrix must be symmetric")
        if any(abs(gram[i][i] - (1.0 - brackets[i])) > 1e-8 for i in range(m)):
            raise ValueError("residual Gram diagonal must equal 1 - Q_i")
        g = np.asarray(gram)
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


def scaled_weights(model: IncoherentModel) -> tuple:
    """(e, [c_i 2^-e]) with 2^(e-1) <= max |c_i| < 2^e: a power-of-two scale,
    so sums of products c_i c_j are scaled by 4^-e exactly, and the largest
    neither overflows nor underflows, however large or small the weights."""
    e = math.frexp(max(abs(term.weight) for term in model.terms))[1]
    return e, [math.ldexp(term.weight, -e) for term in model.terms]


def check_state_size(model: IncoherentModel, state: MultiGaussianState) -> None:
    """Raise ValueError unless the state holds one driver per model term."""
    if len(state.values) != len(model.terms):
        raise ValueError(f"state has {len(state.values)} driver values but the model has {len(model.terms)} terms")


def _kernel_and_numerator(model: IncoherentModel, state: MultiGaussianState, maturity=None) -> tuple:
    """(e, pi_t, E_t[pi_T]) by the product formula, for any chaos orders.

    Both sums use scaled_weights, so they are pi_t and E_t[pi_T] times
    4^-e.  Pairs i < j are counted twice.  The numerator is computed only
    when a maturity is given (else it is 0).
    """
    check_state_size(model, state)
    terms = model.terms
    e, c = scaled_weights(model)
    xs = [chaos_values(term.order - 1, r, q) for term, r, q in zip(terms, state.values, state.brackets)]
    pi_t = numer = 0.0
    for i, ti in enumerate(terms):
        for j in range(i, len(terms)):
            tj = terms[j]
            g = state.residual_gram[i][j]
            scale = (1.0 if i == j else 2.0) * c[i] * c[j]
            pi_t += scale * pair_sum(ti.order, tj.order, xs[i], xs[j], g, g)
            if maturity is not None:
                g_T = residual_inner_product(ti.sf, tj.sf, maturity)
                numer += scale * pair_sum(ti.order, tj.order, xs[i], xs[j], g, g_T)
    return e, pi_t, numer


def incoherent_kernel(model: IncoherentModel, state: MultiGaussianState) -> float:
    """Conditional variance pi_t of X, for any chaos orders:

        pi_t = sum_{i,j} c_i c_j sum_{k=1..min(n_i,n_j)} (g_ij^k / k!)
                   X_t^(n_i-k)(phi_i) X_t^(n_j-k)(phi_j).

    Raises OverflowError when pi_t lies beyond the float range.
    """
    e, pi_t, _ = _kernel_and_numerator(model, state)
    if not math.isfinite(pi_t):  # ldexp raises only on a finite overflow
        raise OverflowError("pricing kernel lies beyond the float range at this state")
    return math.ldexp(pi_t, 2 * e)


def mixed_order_kernel(model: IncoherentModel, state: MultiGaussianState) -> float:
    """The same kernel as incoherent_kernel, under its older name."""
    return incoherent_kernel(model, state)


def incoherent_bond_price(model: IncoherentModel, state: MultiGaussianState, maturity: float) -> float:
    """P(t, T) = E_t[pi_T] / pi_t, for any chaos orders."""
    if maturity < state.t:
        raise ValueError(f"maturity {maturity} precedes state time {state.t}")
    _, pi_t, numer = _kernel_and_numerator(model, state, maturity)
    if not math.isfinite(pi_t):
        raise ValueError("pricing kernel is not finite at this state; bond price undefined")
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
        try:
            weight = float(entry["c"])
            sf = structure_functions.from_descriptor(entry["sf"])
        except KeyError as e:
            raise ValueError(f"incoherent term is missing the {e.args[0]!r} field") from None
        terms.append(IncoherentTerm(weight=weight, order=entry.get("n"), sf=sf))
    return IncoherentModel(terms=tuple(terms))


def to_descriptor(model: IncoherentModel) -> dict:
    return {
        "terms": [
            {"c": term.weight, "n": term.order, "sf": structure_functions.to_descriptor(term.sf)}
            for term in model.terms
        ]
    }
