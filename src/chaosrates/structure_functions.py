"""Deterministic chaos coefficients phi(s) and their integrals.

A structure function is a deterministic square-integrable phi >= 0 with

    Q_t = int_0^t phi(s)**2 ds,

unit-normalised so that Q_inf = 1.  Three families are supported:

* ``exponential`` : phi**2(s) = rate * exp(-rate * s), normalised for free;
* ``piecewise``   : phi**2 piecewise constant on [0, last break), then zero;
* ``atoms``       : phi**2 a weighted sum of Dirac deltas at increasing times,
                    making Q a right-continuous step function.

Density-family constructors accept unnormalised inputs and rescale to unit
mass, recording the applied factor in ``normalisation_scale``.  The JSON
descriptor path for atoms is stricter: weights must sum to 1 within 1e-9.

The piecewise and atoms families also build, from their own inputs, the
table ``cumulative`` of Q at each break or atom, the same left fold that a
scan of the breaks or atoms would make, so q_at is one bisection and at most
one multiply-add.  A table of floats is an array of doubles, 8 bytes an
entry: a model holds one per structure function.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass, field

import numpy as np

from .special_functions import left_sum


class StructureFunction(ABC):
    """Common interface: Q_t and the density phi**2."""

    family: str

    @abstractmethod
    def q_at(self, t):
        """Cumulative Q_t = int_0^t phi**2; requires t >= 0, and a NaN t is refused."""

    @abstractmethod
    def squared_density(self, t):
        """phi**2(t); zero outside the support, zero everywhere for atoms."""

    @property
    def is_density(self) -> bool:
        return True


def _check_time(t) -> None:
    # written to fail on NaN too, which a bisect would place past every break
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")


def check_finite(what: str, values) -> None:
    """Reject NaN and infinite inputs, which no ordering check catches."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite, got {tuple(values)!r}")


@dataclass(frozen=True)
class ExponentialDensity(StructureFunction):
    """phi**2(s) = rate * exp(-rate * s); any positive rate has unit mass."""

    rate: float
    family = "exponential"
    normalisation_scale = 1.0

    def __post_init__(self) -> None:
        check_finite("rate", (self.rate,))
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def q_at(self, t):
        _check_time(t)
        return -math.expm1(-self.rate * t)

    def squared_density(self, t):
        if isinstance(t, float):
            # numpy's exp, not math.exp, so a scalar reads as the array path
            return self.rate * float(np.exp(-self.rate * t)) if t >= 0 else 0.0
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PiecewiseConstantDensity(StructureFunction):
    """phi**2 = values[k] on [breaks[k-1], breaks[k]) with break 0 implied.

    The supplied values are rescaled so the total mass is 1; the factor is
    recorded in ``normalisation_scale``.  Support ends at the last break.
    ``cumulative[k]`` is Q at the start of segment k, the masses of the
    segments before it folded left from 0.0, held unboxed in an array.
    """

    breaks: tuple
    values: tuple
    normalisation_scale: float = field(init=False, default=1.0)
    cumulative: array = field(init=False, default=(), repr=False, compare=False)
    family = "piecewise"

    def __post_init__(self) -> None:
        breaks = tuple(float(b) for b in self.breaks)
        values = tuple(float(v) for v in self.values)
        if len(breaks) != len(values) or not breaks:
            raise ValueError("breaks and values must be nonempty and equal length")
        check_finite("breaks and values", breaks + values)
        if breaks[0] <= 0 or any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breaks must be strictly increasing and positive")
        if any(v < 0 for v in values):
            raise ValueError("density values must be nonnegative")
        lengths = [b2 - b1 for b1, b2 in zip((0.0,) + breaks, breaks)]
        mass = left_sum(v * w for v, w in zip(values, lengths))
        if not mass > 0:
            raise ValueError("density must have positive total mass")
        if mass == math.inf:  # finite nonnegative terms overflow only to +inf
            raise ValueError("density total mass overflows the float range")
        # divide by the mass: its reciprocal overflows for a subnormal mass
        values = tuple(v / mass for v in values)
        cumulative = [0.0]
        for v, w in zip(values, lengths):
            cumulative.append(cumulative[-1] + v * w)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "normalisation_scale", 1.0 / mass)
        object.__setattr__(self, "cumulative", array("d", cumulative))

    def q_at(self, t):
        """Q at the start of t's segment plus its value times the time since.

        The partial term is +0.0 at a break, where the sum is the table's.
        """
        _check_time(t)
        breaks = self.breaks
        if t >= breaks[-1]:
            return 1.0
        k = bisect.bisect_right(breaks, t)
        return min(self.cumulative[k] + self.values[k] * (t - (breaks[k - 1] if k else 0.0)), 1.0)

    def squared_density(self, t):
        if isinstance(t, float):
            idx = bisect.bisect_right(self.breaks, t)
            return self.values[idx] if t >= 0 and idx < len(self.breaks) else 0.0
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.breaks), t, side="right")
        vals = np.asarray(self.values + (0.0,))
        out = np.where((t >= 0) & (idx < len(self.breaks)), vals[np.minimum(idx, len(self.breaks))], 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DiscreteAtoms(StructureFunction):
    """phi**2 = sum_i weights[i] * delta(s - times[i]) with unit total weight.

    Q is the right-continuous step function sum_{times[i] <= t} weights[i].
    Weights are rescaled to unit sum (factor in ``normalisation_scale``);
    exact number types such as Fraction survive the rescaling.
    ``cumulative[k]`` is Q after the first k + 1 atoms: their weights
    folded left from 0, then clamped to 1, which the rescaled weights can
    sum past by rounding.
    """

    times: tuple
    weights: tuple
    normalisation_scale: float = field(init=False, default=1.0)
    cumulative: array | tuple = field(init=False, default=(), repr=False, compare=False)
    family = "atoms"

    def __post_init__(self) -> None:
        times = tuple(self.times)
        weights = tuple(self.weights)
        if len(times) != len(weights) or not times:
            raise ValueError("times and weights must be nonempty and equal length")
        check_finite("atom times and weights", times + weights)
        if times[0] <= 0 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing and positive")
        if any(w < 0 for w in weights):
            raise ValueError("atom weights must be nonnegative")
        total = left_sum(weights)
        if not total > 0:
            raise ValueError("atom weights must have positive sum")
        if total == math.inf:  # finite nonnegative weights overflow only to +inf
            raise ValueError("the sum of the atom weights overflows the float range")
        if total != 1:
            weights = tuple(w / total for w in weights)
        partial = 0
        cumulative = []
        for w in weights:
            partial += w
            cumulative.append(min(partial, 1.0))
        # exact types such as Fraction stay exact in a tuple
        exact = any(type(q) is not float for q in cumulative)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "normalisation_scale", 1 / total)
        object.__setattr__(self, "cumulative", tuple(cumulative) if exact else array("d", cumulative))

    @property
    def is_density(self) -> bool:
        return False

    def q_at(self, t):
        """The table's Q after the atoms at times <= t, and 0 before the first."""
        _check_time(t)
        k = bisect.bisect_right(self.times, t)
        return self.cumulative[k - 1] if k else 0

    def squared_density(self, t):
        # distributional density; between atoms (and, by convention, at them)
        # the pointwise value used by short-rate formulas is zero
        if isinstance(t, float):
            return 0.0
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        return out if out.ndim else 0.0


@dataclass(frozen=True)
class GaussianState:
    """A point (t, R_t, Q_t) of the driving Gaussian process."""

    t: float
    R: float
    Q: float

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")
        check_finite("time and driver value R", (self.t, self.R))
        if not 0 <= self.Q <= 1:
            raise ValueError(f"Q must lie in [0, 1], got {self.Q}")
        if self.t == 0 and (self.R != 0 or self.Q != 0):
            raise ValueError("at t = 0 the state must have R = 0 and Q = 0")


def state_at(sf: StructureFunction, t: float, r: float) -> GaussianState:
    """GaussianState at time t with driver value r and Q read off sf."""
    return GaussianState(t=t, R=r, Q=sf.q_at(t))


def _residual_exp_exp(a: ExponentialDensity, b: ExponentialDensity, t: float) -> float:
    lam = a.rate + b.rate
    return math.sqrt(a.rate * b.rate) * (2.0 / lam) * math.exp(-0.5 * lam * t)

def _residual_exp_pw(a: ExponentialDensity, b: PiecewiseConstantDensity, t: float) -> float:
    lam = a.rate
    acc = 0.0
    lo = 0.0
    for brk, v in zip(b.breaks, b.values):
        seg_lo = max(lo, t)
        if v > 0 and brk > seg_lo:
            acc += math.sqrt(lam * v) * (2.0 / lam) * (
                math.exp(-0.5 * lam * seg_lo) - math.exp(-0.5 * lam * brk)
            )
        lo = brk
    return acc

def _residual_pw_pw(a: PiecewiseConstantDensity, b: PiecewiseConstantDensity, t: float) -> float:
    # walk the two break lists once: each segment between consecutive breaks
    # of either has the values a.values[i] and b.values[j]; past the last
    # break of either the product is zero and adds nothing
    ab, bb = a.breaks, b.breaks
    i = j = 0
    acc = 0.0
    lo = 0.0
    while i < len(ab) and j < len(bb):
        hi = min(ab[i], bb[j])
        seg_lo = max(lo, t)
        if hi > seg_lo:
            acc += math.sqrt(a.values[i] * b.values[j]) * (hi - seg_lo)
        i += ab[i] == hi
        j += bb[j] == hi
        lo = hi
    return acc

def _residual_atoms_atoms(a: DiscreteAtoms, b: DiscreteAtoms, t: float) -> float:
    # products of atom square-roots contribute only at coincident times;
    # atoms at distinct times multiply to zero by convention
    wb = dict(zip(b.times, b.weights))
    return left_sum(math.sqrt(wa * wb[T]) for T, wa in zip(a.times, a.weights) if T > t and T in wb)


def residual_inner_product(sf_i: StructureFunction, sf_j: StructureFunction, t: float) -> float:
    """int_t^inf phi_i(s) phi_j(s) ds, in closed form per family pair."""
    _check_time(t)
    if sf_i.is_density != sf_j.is_density:
        raise ValueError(
            "cross products of an atom family with a density family are not "
            "defined (the atom square root has no pointwise product with a density)"
        )
    pair = (sf_i, sf_j)
    for x, y in (pair, pair[::-1]):
        if isinstance(x, ExponentialDensity) and isinstance(y, ExponentialDensity):
            return _residual_exp_exp(x, y, t)
        if isinstance(x, ExponentialDensity) and isinstance(y, PiecewiseConstantDensity):
            return _residual_exp_pw(x, y, t)
        if isinstance(x, PiecewiseConstantDensity) and isinstance(y, PiecewiseConstantDensity):
            return _residual_pw_pw(x, y, t)
        if isinstance(x, DiscreteAtoms) and isinstance(y, DiscreteAtoms):
            return _residual_atoms_atoms(x, y, t)
    raise ValueError(
        f"no closed-form inner product for the family pair ({sf_i.family!r}, {sf_j.family!r})"
    )


def from_descriptor(d: dict) -> StructureFunction:
    """Build a structure function from its JSON descriptor.

    Descriptors: {"family": "exponential", "lambda": 0.1}
               | {"family": "atoms", "times": [...], "weights": [...]}
               | {"family": "piecewise", "breaks": [...], "values": [...]}

    Atom weights must sum to 1 within 1e-9 or construction fails.
    """
    if not isinstance(d, dict) or "family" not in d:
        raise ValueError("structure-function descriptor must be an object with a 'family' key")
    fam = d["family"]
    try:
        return _from_descriptor_fields(d, fam)
    except KeyError as e:
        raise ValueError(f"descriptor for family {fam!r} is missing the {e.args[0]!r} field") from None


def _from_descriptor_fields(d: dict, fam):
    if fam == "exponential":
        return ExponentialDensity(rate=float(d["lambda"]))
    if fam == "atoms":
        weights = [float(w) for w in d["weights"]]
        if abs(left_sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"atom weights must sum to 1 within 1e-9, got sum {left_sum(weights)!r}")
        return DiscreteAtoms(times=tuple(float(t) for t in d["times"]), weights=tuple(weights))
    if fam == "piecewise":
        return PiecewiseConstantDensity(
            breaks=tuple(float(b) for b in d["breaks"]),
            values=tuple(float(v) for v in d["values"]),
        )
    raise ValueError(f"unknown structure-function family {fam!r}")


def to_descriptor(sf: StructureFunction) -> dict:
    if isinstance(sf, ExponentialDensity):
        return {"family": "exponential", "lambda": sf.rate}
    if isinstance(sf, DiscreteAtoms):
        return {
            "family": "atoms",
            "times": [float(t) for t in sf.times],
            "weights": [float(w) for w in sf.weights],
        }
    if isinstance(sf, PiecewiseConstantDensity):
        return {"family": "piecewise", "breaks": list(sf.breaks), "values": list(sf.values)}
    raise ValueError(f"no descriptor for {type(sf).__name__}")
