"""Finite-dimensional models: coherent models on Dirac-atom structure functions.

A CoherentModel whose sf is a DiscreteAtoms with times T_1 < ... < T_N <
T_{N+1} places the squared coefficient density on atoms.  T_1..T_N are
the tradable maturities; the last atom is a bookkeeping horizon that
carries the residual weight, and values of contracts maturing at or before
T_N never depend on where it sits.  Q_t is then a step function and every
path of (R, Q, pi, P) piecewise constant.  Initial curves come out in
closed form, calibration to market bonds is an exact inversion, and
simulation reduces to drawing one Gaussian increment per atom.

Exact-arithmetic note: initial_curve works in whatever number type the
atom weights carry.  Fraction weights yield Fraction prices with no
rounding anywhere on the path from weights to curve.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coherent_model import CoherentModel, chaos_values, check_order, pair_sum
from .structure_functions import DiscreteAtoms, check_finite


def check_atoms_model(model) -> float:
    """Raise ValueError unless model is a finite-dimensional model; return its last maturity T_N.

    A finite-dimensional model is a CoherentModel on DiscreteAtoms with at
    least one maturity before the horizon atom.
    """
    if not isinstance(model, CoherentModel) or not isinstance(model.sf, DiscreteAtoms):
        raise ValueError(
            "a finite-dimensional model must be a coherent model with an atom-family structure function"
        )
    if len(model.sf.times) < 2:
        raise ValueError("a finite-dimensional model needs at least one maturity before the horizon atom")
    return model.sf.times[-2]


@dataclass(frozen=True)
class DiscountCurve:
    """Right-continuous step curve of time-0 bond prices."""

    maturities: tuple
    prices: tuple

    def __post_init__(self) -> None:
        mats = tuple(self.maturities)
        prices = tuple(self.prices)
        if not mats or len(mats) != len(prices):
            raise ValueError("maturities and prices must be nonempty and equal length")
        check_finite("maturities and prices", mats + prices)
        if mats[0] <= 0 or any(b <= a for a, b in zip(mats, mats[1:])):
            raise ValueError("maturities must be strictly increasing and positive")
        if any(p < 0 or p > 1 for p in prices):
            raise ValueError("bond prices must lie in [0, 1]")
        object.__setattr__(self, "maturities", mats)
        object.__setattr__(self, "prices", prices)

    def price_at(self, t):
        """P(0, t); equals 1 before the first maturity."""
        idx = bisect_right(self.maturities, t)
        return 1 if idx == 0 else self.prices[idx - 1]


def initial_curve(model: CoherentModel) -> DiscountCurve:
    """Time-0 curve P(0, t) = 1 - Q_t^n on each segment, one step per atom.

    Q at each atom is read from the atoms' cumulative table, the running sum
    of the weights kept in their own arithmetic, so exact weight types give
    exact prices; a float sum that rounds past 1 is read as 1, as q_at reads it.
    """
    check_atoms_model(model)
    prices = tuple(1 - q**model.n for q in model.sf.cumulative)
    return DiscountCurve(maturities=model.sf.times, prices=prices)


def calibrate_weights(market: DiscountCurve, n: int, horizon=None) -> CoherentModel:
    """Invert the initial curve: the order-n atoms model reproducing the market bond prices.

    Cumulative weights are s_i = (1 - P_i)^(1/n); the horizon atom receives
    the remaining 1 - s_N.  Market prices must be strictly decreasing in (0, 1).
    """
    check_order(n)
    weights = []
    s_prev = 0.0
    p_prev = 1.0
    for T, P in zip(market.maturities, market.prices):
        if not 0 < P < 1:
            raise ValueError(f"market price at maturity {T} must lie strictly in (0, 1), got {P}")
        if P >= p_prev:
            raise ValueError(f"market prices must be strictly decreasing; violated at maturity {T}")
        s = (1.0 - P) ** (1.0 / n)
        if s >= 1:
            raise ValueError(f"market price at maturity {T} is infeasible for a unit-mass grid")
        weights.append(s - s_prev)
        s_prev, p_prev = s, P
    weights.append(1.0 - s_prev)
    last = market.maturities[-1]
    if horizon is None:
        horizon = last + 1.0
    if not horizon > last:
        raise ValueError(f"horizon {horizon} must exceed the last maturity {last}")
    return CoherentModel(n, DiscreteAtoms(times=market.maturities + (horizon,), weights=tuple(weights)))


@dataclass(frozen=True, eq=False)
class SimplePaths:
    """A batch of simulated piecewise-constant paths of (R, Q, pi, P).

    Row j of values, kernels and bond_prices is path j; column k holds on
    [segment_starts[k], segment_starts[k+1]), and the last segment starts at
    the horizon, where Q = 1 and the kernel vanishes.  segment_starts and
    brackets are shared by every path.  All arrays are read-only; len() is
    the path count.
    """

    bond_maturity: float
    segment_starts: np.ndarray
    brackets: np.ndarray
    values: np.ndarray
    kernels: np.ndarray
    bond_prices: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.segment_starts, self.brackets, self.values, self.kernels, self.bond_prices):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.values.shape[0]


def simulate_paths(model: CoherentModel, bond_maturity: float, count: int, seed: int) -> SimplePaths:
    """Exact path simulation: one N(0, p_i) increment of R per atom.

    Path j draws from its own counter-based stream keyed by (seed, j), so a
    given path is reproducible regardless of count, threading, or where the
    horizon atom sits.  pi and the bond numerator E_t[pi_T] come from
    pair_sum on X^(0..n-1), the product formula of the state values, with
    one g = 1 - Q per segment broadcast over the paths.
    """
    last = check_atoms_model(model)
    if count < 1:
        raise ValueError(f"path count must be a positive integer, got {count}")
    if not isinstance(seed, int) or seed < 0 or seed > 2**64 - 1:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if not 0 < bond_maturity <= last:
        raise ValueError(f"bond maturity must lie in (0, T_N] = (0, {last}], got {bond_maturity}")
    n, sf = model.n, model.sf
    n_atoms = len(sf.weights)
    sds = np.sqrt(np.asarray([float(w) for w in sf.weights]))
    r = np.zeros((count, n_atoms + 1))
    # one generator re-keyed per path: the same draws as a fresh
    # Generator(Philox(key=[seed, j])), without building one per path
    key = np.array([seed, 0], dtype=np.uint64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(key=key)
    rng = np.random.Generator(bits)
    for j in range(count):
        key[1] = j
        bits.state = fresh
        r[j, 1:] = rng.standard_normal(n_atoms)
    r[:, 1:] *= sds
    np.cumsum(r[:, 1:], axis=1, out=r[:, 1:])
    q = np.concatenate([[0.0], np.cumsum(sds**2)])
    q[-1] = 1.0
    q_T = float(sf.q_at(bond_maturity))

    xs = chaos_values(n - 1, r, q)
    g = 1.0 - q
    pi = pair_sum(n, n, xs, xs, g, g)
    numer = pair_sum(n, n, xs, xs, g, 1.0 - q_T)
    starts = np.concatenate([[0.0], np.asarray([float(t) for t in sf.times])])
    alive = starts < bond_maturity
    bond = np.ones_like(r)
    np.divide(numer, pi, out=bond, where=alive & (pi > 0))
    return SimplePaths(bond_maturity, starts, q, r, pi, bond)


def write_paths_csv(paths: SimplePaths, out_dir) -> list:
    """Write one CSV per path (columns time,R,Q,pi,P); returns the file paths.

    Each file is formatted in memory from its array rows and written in one
    call: repr floats, comma separated, CRLF line ends (the csv module's
    default dialect).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width = max(5, len(str(len(paths) - 1)))
    # .tolist() gives Python floats, whose repr is the shortest round trip;
    # the time and Q columns are shared by every file, so they are formatted
    # once, and rows convert one path at a time to keep memory flat
    heads = [f"{t!r}," for t in paths.segment_starts.tolist()]
    mids = [f",{q!r}," for q in paths.brackets.tolist()]
    written = []
    for j, (values, kernels, bonds) in enumerate(zip(paths.values, paths.kernels, paths.bond_prices)):
        target = out / f"path_{j:0{width}d}.csv"
        rows = zip(heads, map(repr, values.tolist()), mids, map(repr, kernels.tolist()), map(repr, bonds.tolist()))
        text = "time,R,Q,pi,P\r\n" + "".join(f"{h}{r}{m}{k},{p}\r\n" for h, r, m, k, p in rows)
        with open(target, "w", newline="") as fh:
            fh.write(text)
        written.append(target)
    return written


def read_market_curve(path) -> DiscountCurve:
    """Read a maturity,price CSV (header required) into a DiscountCurve."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"market file {path} is empty") from None
        if [h.strip().lower() for h in header[:2]] != ["maturity", "price"]:
            raise ValueError(f"market file {path} must start with a 'maturity,price' header")
        maturities, prices = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                maturities.append(float(row[0]))
                prices.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(f"market file {path} line {lineno}: expected 'maturity,price' numbers") from None
    if not maturities:
        raise ValueError(f"market file {path} contains no data rows")
    return DiscountCurve(maturities=tuple(maturities), prices=tuple(prices))
