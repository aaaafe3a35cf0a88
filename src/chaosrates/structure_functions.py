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
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np


class StructureFunction(ABC):
    """Common interface: Q_t and the density phi**2."""

    family: str

    @abstractmethod
    def q_at(self, t):
        """Cumulative Q_t = int_0^t phi**2; requires t >= 0."""

    @abstractmethod
    def squared_density(self, t):
        """phi**2(t); zero outside the support, zero everywhere for atoms."""

    @property
    def is_density(self) -> bool:
        return True


def _check_time(t) -> None:
    if t < 0:
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
    """

    breaks: tuple
    values: tuple
    normalisation_scale: float = field(init=False, default=1.0)
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
        mass = sum(v * w for v, w in zip(values, lengths))
        if not mass > 0:
            raise ValueError("density must have positive total mass")
        # divide by the mass: its reciprocal overflows for a subnormal mass
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", tuple(v / mass for v in values))
        object.__setattr__(self, "normalisation_scale", 1.0 / mass)

    def q_at(self, t):
        _check_time(t)
        if t >= self.breaks[-1]:
            return 1.0
        acc = 0.0
        lo = 0.0
        for b, v in zip(self.breaks, self.values):
            if t <= lo:
                break
            acc += v * (min(t, b) - lo)
            lo = b
        return min(acc, 1.0)

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
    """

    times: tuple
    weights: tuple
    normalisation_scale: float = field(init=False, default=1.0)
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
        total = sum(weights)
        if not total > 0:
            raise ValueError("atom weights must have positive sum")
        if total != 1:
            weights = tuple(w / total for w in weights)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "normalisation_scale", 1 / total)

    @property
    def is_density(self) -> bool:
        return False

    def q_at(self, t):
        _check_time(t)
        return sum(w for T, w in zip(self.times, self.weights) if T <= t)

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
    cuts = sorted(set(a.breaks) | set(b.breaks))
    acc = 0.0
    lo = 0.0
    for hi in cuts:
        seg_lo = max(lo, t)
        if hi > seg_lo:
            mid = 0.5 * (seg_lo + hi)
            acc += math.sqrt(a.squared_density(mid) * b.squared_density(mid)) * (hi - seg_lo)
        lo = hi
    return acc

def _residual_atoms_atoms(a: DiscreteAtoms, b: DiscreteAtoms, t: float) -> float:
    # products of atom square-roots contribute only at coincident times;
    # atoms at distinct times multiply to zero by convention
    wb = dict(zip(b.times, b.weights))
    return sum(
        math.sqrt(wa * wb[T]) for T, wa in zip(a.times, a.weights) if T > t and T in wb
    )


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
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"atom weights must sum to 1 within 1e-9, got sum {sum(weights)!r}")
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
