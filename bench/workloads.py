"""The benchmark workloads: inputs from a seed, ops, checks, warm-up.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  Ops are grouped into units; ``run.py``
cycles whole units until the time budget is spent and times
each op at the 90th percentile of its runs.

* ``analytic_book`` calls the closed-form library API directly.  A unit is
  a book of 2,000 contracts and states with the same composition (kind x
  order) in every unit, so only the continuous inputs depend on the seed.
  Two such units are generated up front and cycled, so that every op runs
  many times in a run.  Calls and swaptions at n = 20 raise the degree cap
  (ROADMAP D4); they are kept out of the timed book, in ``defect_ops``, which
  the traced run prices once to count the failures.
* ``mc_oracle`` sends ``price ... --method mc|quadrature`` through
  ``cli.main`` in process, plus one calibrate -> curve -> simulate chain per
  round.  A unit is one round of fixed slots (kind, order, sample or path
  count, payment dates) in a fixed interleaved order; the seed draws models,
  contracts, market curves and seeds for each of two rounds, which are
  cycled.  Contracts that an oracle cannot price, because part of their
  price lies beyond its reach, are drawn again; some go to ``defect_ops``.

Checks run outside the timed region and raise ``CheckFailure`` naming the op.
A check that needs the QUADPACK reference raises ``NeedsReference``;
``run.py`` runs it after the measurement, so scipy never loads into the measured
process before its peak memory is read.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

import chaosrates as cr
from chaosrates import cli, coherent_model, incoherent_model
from chaosrates.incoherent_model import accumulated_gram_matrix

DEGREE_CAP_MESSAGE = "exceeds the supported maximum"
QUADRATURE_TOL = 1e-8  # absolute, as in acceptance criterion 4
BOUND_REL_TOL = 1e-6
BOUND_ABS_TOL = 1e-15
MC_SIGMAS = 5.0
MC_ZERO_SE_TOL = 1e-6
MC_ROUNDING = 1e-12  # constant payoffs (n = 1) give a standard error of pure rounding
CURVE_TOL = 1e-12
PATH_TOL = 1e-12


class CheckFailure(Exception):
    """An output that breaks a correctness check."""


class KnownDefect(Exception):
    """An op output that is wrong because of a defect listed in bench/README.md."""


class NeedsReference(Exception):
    """A check that `resolve()` finishes later: it raises CheckFailure,
    KnownDefect, or returns when the output passes."""

    def __init__(self, resolve):
        super().__init__("check deferred to the QUADPACK reference")
        self.resolve = resolve


@dataclass
class Op:
    kind: str
    n: int
    label: str
    payload: dict = field(repr=False)


def _fail(op: Op, what: str) -> None:
    raise CheckFailure(f"{op.label}: {what}")


def _finite(op: Op, *values) -> None:
    for v in values:
        if not (isinstance(v, float) and math.isfinite(v)):
            _fail(op, f"non-finite output {v!r}")


def _check_bounds(op: Op, value: float, lower: float, upper: float, stats: dict) -> None:
    """lower <= value <= upper within 1e-6 of the bound plus 1e-15."""
    over = value - upper
    under = lower - value
    if over > BOUND_REL_TOL * abs(upper) + BOUND_ABS_TOL:
        _fail(op, f"price {value!r} above the no-arbitrage bound {upper!r}")
    if under > BOUND_REL_TOL * abs(lower) + BOUND_ABS_TOL:
        _fail(op, f"price {value!r} below the no-arbitrage bound {lower!r}")
    # relative to the bound, but not below the size where the absolute
    # tolerance takes over: a breach of a bound near 0 is no relative breach
    floor = BOUND_ABS_TOL / BOUND_REL_TOL
    rel = max(over / max(abs(upper), floor), under / max(abs(lower), floor), 0.0)
    stats["bound_violation_max"] = max(stats.get("bound_violation_max", 0.0), rel)


QUADRATURE_TAIL = 4.0  # |z| beyond which quadrature_price can miss exercise mass
QUADRATURE_REL_ACCURACY = 1e-3  # relative error quadrature_price reaches (ROADMAP D4)
MC_TAIL_SAMPLES = 10  # an MC run expects fewer samples than this beyond its tail


def mc_tail(samples: int) -> float:
    """|z| beyond which `samples` standard normal draws expect MC_TAIL_SAMPLES."""
    return NormalDist().inv_cdf(1.0 - 0.5 * MC_TAIL_SAMPLES / samples)


Z_GRID = np.linspace(-12.0, 12.0, 24_001)
PHI_DZ = np.exp(-0.5 * Z_GRID**2) * (Z_GRID[1] - Z_GRID[0]) / math.sqrt(2.0 * math.pi)


def beyond_reach(poly, tail_z: float, samples: int | None) -> float:
    """How far an oracle's price of E[(p(Z))+] misses, in its standard errors.

    MC with `samples` draws almost never samples |z| > tail_z, so it prices
    E[(p(Z))+ | |Z| <= tail_z]; the result is that miss over the standard
    error of the draws it does see (see `_oracle_miss`).  Quadrature
    (`samples` None) returns almost nothing for a payoff positive only
    beyond |z| = tail_z: inf for such a payoff, else 0.  Sums on a fine grid
    with numpy, so that scipy stays out of the measured process.
    """
    f = np.maximum(np.polynomial.polynomial.polyval(Z_GRID, poly.coeffs), 0.0)
    inside = np.abs(Z_GRID) <= tail_z
    if samples is None:
        return math.inf if f.any() and not f[inside].any() else 0.0
    p_in = PHI_DZ[inside].sum()
    mean_in = (f * PHI_DZ)[inside].sum() / p_in
    var_in = max((f * f * PHI_DZ)[inside].sum() / p_in - mean_in**2, 0.0)
    miss = (f * PHI_DZ).sum() - mean_in
    return float(abs(miss) / (math.sqrt(var_in / samples) + MC_ROUNDING))


def reference_price(poly, n: int, tail_z: float = QUADRATURE_TAIL) -> tuple:
    """n! E[(p(Z))+] by QUADPACK on each sign interval of p, to rel. 1e-11.

    Returns (price, part of the price from |z| > tail_z).  Decides between
    the closed form and an oracle when the two disagree.
    """
    from scipy.integrate import quad

    roots = np.roots(poly.coeffs[::-1]) if poly.degree > 0 else []
    cuts = {float(r.real) for r in roots if abs(r.imag) < 1e-9} | {-tail_z, tail_z}
    edges = [-math.inf, *sorted(cuts), math.inf]
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(z):
        return max(poly(z), 0.0) * norm * math.exp(-0.5 * z * z)

    total = tail = 0.0
    for a, b in zip(edges, edges[1:]):
        part = quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        total += part
        if b <= -tail_z or a >= tail_z:
            tail += part
    scale = math.factorial(n)
    return scale * total, scale * tail


def _oracle_miss(op: Op, oracle: str, value: float, closed: float, slack: float, poly, n: int, stats: dict,
                 tail_z: float = QUADRATURE_TAIL, known_rel: float = 0.0, fails_op: bool = True):
    """Classify an oracle price that misses the closed form.

    The QUADPACK reference decides which of the two is wrong: a closed form
    off the reference is a breach.  Otherwise the oracle is wrong, and the
    miss is recorded in stats.  Where the oracle price is only the check's
    value (`fails_op` false) the op passes.  Where it is the op's output, the
    miss must be a known defect, which fails the op (KnownDefect); any other
    miss is a breach.  Known defects: exercise mass far in the Gaussian tails
    is invisible to both oracles -- quadrature_price's absolute tolerance
    accepts a near-zero estimate beyond |z| = 4, and MC samples almost never
    reach beyond mc_tail(samples), so the standard error claims a precision
    it does not have; such a value reads low by at most the mass beyond
    tail_z.  And quadrature_price is accurate only to a relative `known_rel`
    (ROADMAP D4).  The reference is computed only when the raised
    NeedsReference is resolved.
    """

    def resolve():
        ref, tail = reference_price(poly, n, tail_z)
        if abs(closed - ref) > QUADRATURE_TOL:
            _fail(op, f"closed form {closed!r} differs from the reference {ref!r} ({oracle} {value!r})")
        missed = closed - value
        known = 0.0 < missed <= tail * (1.0 + 1e-6) + slack or abs(missed) <= known_rel * abs(closed)
        if fails_op and not known:
            _fail(op, f"{oracle} price {value!r} differs from the closed form {closed!r} (reference {ref!r})")
        miss = f"{op.label}: {oracle} {value!r}, closed form {closed!r}, of which beyond |z| = {tail_z:.2f}: {tail!r}"
        stats.setdefault(f"{oracle}_misses", []).append(miss)
        if fails_op:
            raise KnownDefect(miss)

    raise NeedsReference(resolve)


def _check_quadrature(op: Op, price: float, quad: float, poly, n: int, stats: dict, fails_op: bool) -> None:
    """The closed form `price` and the quadrature price `quad` agree within 1e-8."""
    if abs(price - quad) > QUADRATURE_TOL:
        _oracle_miss(op, "quadrature", quad, price, 1e-15, poly, n, stats,
                     known_rel=QUADRATURE_REL_ACCURACY, fails_op=fails_op)


def run_cli(argv: list) -> str:
    """Run cli.main in process; return its stdout, raise on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"chaos-rates {argv[0]} exited with {rc}")
    return buf.getvalue()


# ---------------------------------------------------------------- inputs


def structure_function(rng, family: str):
    """A seeded structure function and the horizon before which Q_t < 1."""
    if family == "exponential":
        return cr.ExponentialDensity(float(rng.uniform(0.08, 0.5))), 30.0
    if family == "piecewise":
        k = int(rng.integers(3, 7))
        breaks = np.cumsum(rng.uniform(1.0, 5.0, k))
        breaks = breaks * (25.0 / breaks[-1])
        values = rng.uniform(0.2, 2.0, k)
        return cr.PiecewiseConstantDensity(tuple(map(float, breaks)), tuple(map(float, values))), 25.0
    k = int(rng.integers(6, 13))
    times = np.sort(rng.choice(np.arange(1, 101), k, replace=False)) * 0.25
    weights = rng.dirichlet(np.ones(k))
    sf = cr.DiscreteAtoms(tuple(map(float, times)), tuple(map(float, weights)))
    return sf, float(times[-1])


def _first_time(sf) -> float:
    return float(sf.times[0]) if isinstance(sf, cr.DiscreteAtoms) else 0.25


def _expiry_and_tail(rng, sf, horizon: float):
    """Option expiry t with Q_t > 0, and the room (t, horizon) after it."""
    lo = _first_time(sf)
    t = float(rng.uniform(lo, lo + 0.4 * (horizon - lo)))
    return t, horizon - 0.01


def _call_payload(rng, n: int, family: str) -> dict:
    sf, horizon = structure_function(rng, family)
    model = cr.CoherentModel(n, sf)
    t, hi = _expiry_and_tail(rng, sf, horizon)
    T = float(rng.uniform(t + 0.1, hi))
    forward = cr.initial_bond_price(model, T) / cr.initial_bond_price(model, t)
    spec = cr.OptionSpec(t, T, float(rng.uniform(0.5, 1.5) * forward))
    return {"model": model, "spec": spec}


def _swaption_payload(rng, n: int, family: str, dates: int) -> dict:
    sf, horizon = structure_function(rng, family)
    model = cr.CoherentModel(n, sf)
    t, hi = _expiry_and_tail(rng, sf, horizon)
    pay = np.unique(t + (hi - t) * rng.uniform(0.02, 1.0, dates))
    P0 = [cr.initial_bond_price(model, float(T)) for T in pay]
    forward = (cr.initial_bond_price(model, t) - P0[-1]) / sum(P0)
    spec = cr.SwaptionSpec(t, tuple(map(float, pay)), float(rng.uniform(0.5, 1.5) * forward))
    return {"model": model, "spec": spec}


def _incoherent_model(rng, n: int, shape: str):
    orders = (n, n) if shape == "equal" else (1, n)
    terms = []
    for order in orders:
        sf, _ = structure_function(rng, str(rng.choice(["exponential", "piecewise"])))
        terms.append(cr.IncoherentTerm(float(rng.uniform(0.3, 1.0)), order, sf))
    return cr.IncoherentModel(tuple(terms))


def _joint_values(rng, model, t: float) -> tuple:
    vals, vecs = np.linalg.eigh(accumulated_gram_matrix(model, t))
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return tuple(map(float, factor @ rng.standard_normal(len(vals))))


def _check_call(op: Op, out, stats: dict) -> None:
    model, spec = op.payload["model"], op.payload["spec"]
    price, delta = out
    _finite(op, price, delta)
    P0t = cr.initial_bond_price(model, spec.option_maturity)
    P0T = cr.initial_bond_price(model, spec.bond_maturity)
    _check_bounds(op, price, max(P0T - spec.strike * P0t, 0.0), P0T, stats)
    if model.n <= 4:
        poly = cr.call_payoff_polynomial(model, spec)
        _check_quadrature(op, price, cr.quadrature_price(poly, model.n), poly, model.n, stats, fails_op=False)


def _check_swaption(op: Op, price, stats: dict) -> None:
    model, spec = op.payload["model"], op.payload["spec"]
    _finite(op, price)
    P0t = cr.initial_bond_price(model, spec.option_maturity)
    P0 = [cr.initial_bond_price(model, T) for T in spec.payment_dates]
    upper = P0t - P0[-1]
    _check_bounds(op, price, max(upper - spec.strike * sum(P0), 0.0), upper, stats)
    if model.n <= 4:
        poly = cr.swaption_payoff_polynomial(model, spec)
        _check_quadrature(op, price, cr.quadrature_price(poly, model.n), poly, model.n, stats, fails_op=False)


def _check_bond(op: Op, value, stats: dict) -> None:
    """0 < P <= 1, the upper bound with the tolerance of _check_bounds."""
    _finite(op, value)
    if not value > 0.0:
        _fail(op, f"bond price {value!r} is not positive")
    _check_bounds(op, value, 0.0, 1.0, stats)


# --------------------------------------------------------- analytic_book


class AnalyticBook:
    """Closed-form library API: calls with delta, swaptions, state valuations."""

    name = "analytic_book"
    ORDERS = (1, 2, 3, 5, 8, 12, 16, 20)
    # calls and swaptions of degree 2n - 2 > 30 raise the degree cap: a
    # timed op that fails makes the failure count depend on the run length
    PRICED_ORDERS = (1, 2, 3, 5, 8, 12, 16)
    CAPPED_ORDER = 20
    CAPPED = 40  # n = 20 calls and swaptions, half each
    FAMILIES = ("exponential", "piecewise", "atoms")
    MIX = (("call", 35), ("swaption", 25), ("state", 30), ("incoherent", 10))  # percent of a unit
    UNIT_OPS = 2000
    UNITS = 6

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        size = 160 if tiny else self.UNIT_OPS
        rng = np.random.default_rng([seed, 1])
        self.units = [self._unit(rng, size, u) for u in range(self.UNITS)]
        families = np.resize(self.FAMILIES, self.CAPPED)
        self.defect_ops = [
            self._make(rng, ("call", "swaption")[i % 2], self.CAPPED_ORDER, str(family), i, f"capped.{i}")
            for i, family in enumerate(families)
        ]

    def _unit(self, rng, size: int, u: int) -> list:
        """A shuffled book with the mix above and orders cycled within each kind."""
        ops = []
        for kind, percent in self.MIX:
            count = size * percent // 100
            orders = np.resize(self.PRICED_ORDERS if kind in ("call", "swaption") else self.ORDERS, count)
            families = rng.permutation(np.resize(self.FAMILIES, count))
            for i, (n, family) in enumerate(zip(orders, families)):
                ops.append(self._make(rng, kind, int(n), str(family), i, f"{u}.{i}"))
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _make(rng, kind: str, n: int, family: str, i: int, tag: str) -> Op:
        label = f"{kind}#{tag} n={n} {family}"
        if kind == "call":
            return Op(kind, n, label, _call_payload(rng, n, family))
        if kind == "swaption":
            return Op(kind, n, label, _swaption_payload(rng, n, family, int(rng.integers(1, 21))))
        if kind == "state":
            sf, horizon = structure_function(rng, family)
            t, hi = _expiry_and_tail(rng, sf, horizon)
            r = float(math.sqrt(sf.q_at(t)) * rng.standard_normal())
            payload = {"model": cr.CoherentModel(n, sf), "t": t, "r": r, "T": float(rng.uniform(t + 0.1, hi))}
            return Op(kind, n, label, payload)
        shape = "equal" if (i // len(AnalyticBook.ORDERS)) % 2 == 0 or n == 1 else "one_plus_n"
        label = f"{kind}#{tag} n={n} {shape}"
        model = _incoherent_model(rng, n, shape)
        t = float(rng.uniform(0.25, 10.0))
        payload = {"model": model, "t": t, "values": _joint_values(rng, model, t), "T": float(rng.uniform(t + 0.1, 24.0))}
        return Op(kind, n, label, payload)

    def unit(self, index: int) -> list:
        return self.units[index % len(self.units)]

    @staticmethod
    def run(op: Op):
        p = op.payload
        if op.kind == "call":
            return cr.price_bond_call(p["model"], p["spec"]), cr.call_delta(p["model"], p["spec"])
        if op.kind == "swaption":
            return cr.price_swaption(p["model"], p["spec"])
        if op.kind == "state":
            model = p["model"]
            state = cr.state_at(model.sf, p["t"], p["r"])
            return (
                cr.bond_price(model, state, p["T"]),
                cr.short_rate(model, state),
                cr.risk_premium(model, state),
            )
        state = cr.multi_state_at(p["model"], p["t"], p["values"])
        return cr.incoherent_bond_price(p["model"], state, p["T"])

    def run_defect_op(self, op: Op, stats: dict) -> None:
        """Price an n = 20 contract; the degree cap (ROADMAP D4) is counted."""
        try:
            out = self.run(op)
        except ValueError as e:
            if DEGREE_CAP_MESSAGE not in str(e):
                raise
            stats["degree_cap_failures"] = stats.get("degree_cap_failures", 0) + 1
            return
        self.check(op, out, stats)

    @staticmethod
    def check(op: Op, out, stats: dict) -> None:
        if op.kind == "call":
            _check_call(op, out, stats)
        elif op.kind == "swaption":
            _check_swaption(op, out, stats)
        elif op.kind == "state":
            bond, rate, premium = out
            _check_bond(op, bond, stats)
            _finite(op, rate, premium)
        else:
            _check_bond(op, out, stats)

    @classmethod
    def warm_up_ops(cls, workdir: Path) -> list:
        """One op of each kind, the same for every seed."""
        rng = np.random.default_rng(0)
        return [cls._make(rng, kind, 3, "exponential", 1, "warm-up") for kind in ("call", "swaption", "state", "incoherent")]


# ------------------------------------------------------- path chain (CLI)


def _path_op(rng, workdir: Path, n: int, atoms: int, paths: int, label: str) -> Op:
    """Seeded market CSV (written now, untimed) for calibrate -> curve -> simulate."""
    step = float(rng.choice([0.25, 0.5, 1.0]))
    maturities = step * np.arange(1, atoms + 1)
    prices = np.exp(-np.cumsum(rng.uniform(0.005, 0.05, atoms) * step))
    market = workdir / f"market_{label.split()[0]}.csv"
    market.write_text("maturity,price\n" + "".join(f"{float(T)!r},{float(P)!r}\n" for T, P in zip(maturities, prices)))
    payload = {
        "market": str(market),
        "prices": tuple(map(float, prices)),
        "out": str(workdir / f"paths_{label.split()[0]}"),
        "paths": paths,
        "seed": int(rng.integers(0, 2**32)),
        "probe": int(rng.integers(0, paths)),
    }
    return Op("path", n, label, payload)


def clear_outputs(workdir: Path) -> None:
    """Remove the path files that ops wrote under workdir."""
    for old in Path(workdir).glob("paths_*"):
        shutil.rmtree(old)


def _run_path(op: Op):
    p = op.payload
    model = run_cli(["calibrate", "--market", p["market"], "--order", str(op.n)]).strip()
    curve = run_cli(["curve", "--model", model])
    sim = run_cli(["simulate", "--model", model, "--paths", str(p["paths"]), "--seed", str(p["seed"]), "--out", p["out"]])
    return model, curve, json.loads(sim)


def _check_path(op: Op, out, stats: dict) -> None:
    """Curve reproduces the market; one file per path with the implied rows;
    Q column and first-row P on three files; one path from its Philox key."""
    p = op.payload
    model_json, curve, sim = out
    model = coherent_model.from_descriptor(json.loads(model_json))
    weights = np.asarray(model.sf.weights, dtype=float)
    atoms = len(p["prices"])
    rows = [line.split(",") for line in curve.strip().splitlines()[1:]]
    curve_at = {float(t): float(v) for t, v in rows}
    for T, P in zip(model.sf.times[:-1], p["prices"]):
        got = curve_at.get(float(T))
        if got is None or abs(got - P) > CURVE_TOL:
            _fail(op, f"calibrated curve at {T} is {got!r}, market {P!r}")
    out_dir = Path(p["out"])
    names = sorted(f.name for f in out_dir.iterdir())
    if sim.get("paths") != p["paths"] or names != sorted(sim.get("files", [])) or len(names) != p["paths"]:
        _fail(op, f"expected {p['paths']} path files, found {len(names)}")
    lines = atoms + 3  # header, t = 0, one row per atom, the horizon
    for name in names:
        data = (out_dir / name).read_bytes()
        stats["bytes_written"] = stats.get("bytes_written", 0) + len(data)
        found = data.count(b"\n")
        if found != lines:
            _fail(op, f"{name} has {found} lines, expected {lines}")
    q_expected = np.concatenate([[0.0], np.cumsum(weights)])
    q_expected[-1] = 1.0
    q_T = float(sum(weights[:atoms]))
    sds = np.sqrt(weights)
    for j in sorted({0, p["probe"], p["paths"] - 1}):
        table = np.loadtxt(out_dir / names[j], delimiter=",", skiprows=1, ndmin=2)
        if np.max(np.abs(table[:, 2] - q_expected)) > PATH_TOL:
            _fail(op, f"{names[j]}: Q column differs from the cumulative weights")
        if abs(table[0, 4] - (1.0 - q_T**op.n)) > PATH_TOL:
            _fail(op, f"{names[j]}: first-row P {table[0, 4]!r} differs from 1 - Q_T^n = {1.0 - q_T**op.n!r}")
    j = p["probe"]
    rng = np.random.Generator(np.random.Philox(key=np.array([p["seed"], j], dtype=np.uint64)))
    r = np.concatenate([[0.0], np.cumsum(rng.standard_normal(len(weights)) * sds)])
    table = np.loadtxt(out_dir / names[j], delimiter=",", skiprows=1, ndmin=2)
    if np.max(np.abs(table[:, 1] - r)) > PATH_TOL:
        _fail(op, f"{names[j]}: R column is not reproduced by Philox key ({p['seed']}, {j}) alone")


# -------------------------------------------------------------- mc_oracle


class McOracle:
    """Monte Carlo and quadrature prices, and one path chain, through ``cli.main``."""

    name = "mc_oracle"
    # (kind, order, MC samples, payment dates | incoherent shape | (atoms,
    # paths)); heavy and light slots alternate.  The five 2e5-sample n = 3
    # calls are the middle of the latency distribution, so the median latency
    # falls inside one cluster of equal-cost ops (whose arrays fit in L2)
    # instead of in a gap between two.  The path slot runs calibrate ->
    # curve -> simulate.
    SLOTS = (
        ("mc_call", 8, 200_000, None),
        ("quad_call", 1, None, None),
        ("mc_call", 1, 200_000, None),
        ("inc_call", 2, 200_000, "equal"),
        ("mc_swaption", 5, 200_000, 3),
        ("quad_swaption", 2, None, 3),
        ("mc_call", 2, 1_000_000, None),
        ("mc_call", 3, 200_000, None),
        ("mc_call", 3, 200_000, None),
        ("inc_call", 3, 200_000, "one_plus_n"),
        ("mc_swaption", 1, 200_000, 6),
        ("quad_call", 3, None, None),
        ("mc_call", 5, 200_000, None),
        ("path", 5, None, (30, 500)),
        ("mc_swaption", 2, 200_000, 5),
        ("inc_call", 3, 200_000, "equal"),
        ("mc_call", 1, 1_000_000, None),
        ("quad_swaption", 4, None, 2),
        ("mc_swaption", 3, 200_000, 4),
        ("mc_swaption", 8, 200_000, 2),
        ("mc_call", 3, 200_000, None),
        ("inc_call", 2, 200_000, "one_plus_n"),
        ("mc_call", 3, 1_000_000, None),
        ("quad_call", 4, None, None),
        ("mc_call", 3, 200_000, None),
        ("quad_call", 2, None, None),
        ("mc_call", 3, 200_000, None),
    )
    FAMILIES = ("exponential", "piecewise", "atoms")
    ROUNDS = 2
    DEFECT_OPS = 6

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scale = 0.1 if tiny else 1.0  # of MC samples and simulated paths
        self.defect_ops: list = []
        self.rounds = []
        for r in range(self.ROUNDS):
            rng = np.random.default_rng([seed, 2, r])
            self.rounds.append([self._make(rng, slot, r * len(self.SLOTS) + i) for i, slot in enumerate(self.SLOTS)])

    def _make(self, rng, slot, i: int) -> Op:
        """Draw the slot's op.  A contract whose price its oracle misses by
        more than one standard error (`beyond_reach`) is drawn again: the
        oracle would miss the closed form by a known defect.  The first
        DEFECT_OPS MC contracts expected to miss by more than the check's
        MC_SIGMAS are kept for the traced run to price."""
        while True:
            op = self._draw(rng, slot, i)
            sigmas = op.payload.pop("beyond_reach", 0.0)
            if sigmas <= 1.0:
                return op
            if sigmas > MC_SIGMAS and op.kind.startswith("mc") and len(self.defect_ops) < self.DEFECT_OPS:
                self.defect_ops.append(Op(op.kind, op.n, f"left_out.{len(self.defect_ops)}.{op.label}", {**op.payload, "left_out": True}))

    def _draw(self, rng, slot, i: int) -> Op:
        kind, n, samples, extra = slot
        if kind == "path":
            atoms, paths = extra
            return _path_op(rng, self.workdir, n, atoms, max(2, round(paths * self.scale)), f"path#{i} n={n} atoms={atoms}")
        family = str(rng.choice(self.FAMILIES))
        if kind == "inc_call":
            model = _incoherent_model(rng, n, extra)
            t = float(rng.uniform(0.25, 5.0))
            T = float(rng.uniform(t + 0.5, 20.0))
            zero = cr.multi_state_at(model, 0.0, [0.0] * len(model.terms))
            forward = cr.incoherent_bond_price(model, zero, T) / cr.incoherent_bond_price(model, zero, t)
            spec = {"option_maturity": t, "bond_maturity": T, "strike": float(rng.uniform(0.7, 1.2) * forward)}
            descriptor = incoherent_model.to_descriptor(model)
            contract = "call"
        else:
            contract = "call" if kind.endswith("call") else "swaption"
            if contract == "call":
                payload = _call_payload(rng, n, family)
                s = payload["spec"]
                spec = {"option_maturity": s.option_maturity, "bond_maturity": s.bond_maturity, "strike": s.strike}
                poly = cr.call_payoff_polynomial(payload["model"], s)
            else:
                payload = _swaption_payload(rng, n, family, extra)
                s = payload["spec"]
                spec = {"option_maturity": s.option_maturity, "payment_dates": list(s.payment_dates), "strike": s.strike}
                poly = cr.swaption_payoff_polynomial(payload["model"], s)
            descriptor = coherent_model.to_descriptor(payload["model"])
        model_json, spec_json = json.dumps(descriptor), json.dumps(spec)
        argv = ["price", contract, "--model", model_json, "--spec", spec_json]
        if kind.startswith("quad"):
            argv += ["--method", "quadrature"]
            sigmas = beyond_reach(poly, QUADRATURE_TAIL, None)
        else:
            samples = max(2_000, int(samples * self.scale))
            argv += ["--method", "mc", "--samples", str(samples), "--seed", str(int(rng.integers(0, 2**32)))]
            sigmas = 0.0 if kind == "inc_call" else beyond_reach(poly, mc_tail(samples), samples)
        label = f"{kind}#{i} n={n} {extra if kind == 'inc_call' else family} samples={samples}"
        payload = {"argv": argv, "model": model_json, "spec": spec_json, "contract": contract, "beyond_reach": sigmas}
        return Op(kind, n, label, payload)

    def unit(self, index: int) -> list:
        """The next round; the previous round's path files, checked by now, go."""
        clear_outputs(self.workdir)
        return self.rounds[index % self.ROUNDS]

    @staticmethod
    def run(op: Op):
        if op.kind == "path":
            return _run_path(op)
        return json.loads(run_cli(op.payload["argv"]))

    def run_defect_op(self, op: Op, stats: dict) -> None:
        """Price a contract beyond MC's reach; a miss is recorded, not failed."""
        self.check(op, self.run(op), stats)

    @staticmethod
    def check(op: Op, out, stats: dict) -> None:
        if op.kind == "path":
            _check_path(op, out, stats)
            return
        p = op.payload
        price = out.get("price")
        _finite(op, price)
        if op.kind == "inc_call":
            model = incoherent_model.from_descriptor(json.loads(p["model"]))
            spec = json.loads(p["spec"])
            zero = cr.multi_state_at(model, 0.0, [0.0] * len(model.terms))
            P0t = cr.incoherent_bond_price(model, zero, spec["option_maturity"])
            P0T = cr.incoherent_bond_price(model, zero, spec["bond_maturity"])
            widen = MC_SIGMAS * out["stderr"] + CURVE_TOL
            lower = max(P0T - spec["strike"] * P0t, 0.0) - widen
            if not lower <= price <= P0T + widen:
                _fail(op, f"MC price {price!r} outside [{lower!r}, {P0T + widen!r}]")
            return
        model = coherent_model.from_descriptor(json.loads(p["model"]))
        spec_d = json.loads(p["spec"])
        if p["contract"] == "call":
            spec = cr.OptionSpec(**spec_d)
            closed, payoff = cr.price_bond_call(model, spec), cr.call_payoff_polynomial
        else:
            spec = cr.SwaptionSpec(**spec_d)
            closed, payoff = cr.price_swaption(model, spec), cr.swaption_payoff_polynomial
        if op.kind.startswith("quad"):
            _check_quadrature(op, closed, price, payoff(model, spec), model.n, stats, fails_op=True)
            return
        se = out["stderr"]
        _finite(op, se)
        tail_z = mc_tail(int(p["argv"][p["argv"].index("--samples") + 1]))
        fails_op = not p.get("left_out", False)
        if se == 0.0:
            if abs(price - closed) > MC_ZERO_SE_TOL:
                _oracle_miss(op, "mc", price, closed, 0.0, payoff(model, spec), model.n, stats, tail_z, fails_op=fails_op)
        elif abs(price - closed) > MC_SIGMAS * se + MC_ROUNDING:
            _oracle_miss(op, "mc", price, closed, MC_SIGMAS * se, payoff(model, spec), model.n, stats, tail_z,
                         fails_op=fails_op)

    @classmethod
    def warm_up_ops(cls, workdir: Path) -> list:
        """One op of each kind, the same for every seed (writes the market CSV)."""
        rng = np.random.default_rng(0)
        warm = cls(0, workdir)
        warm.workdir.mkdir(parents=True, exist_ok=True)
        slots = (("mc_call", 2, 2_000, None), ("mc_swaption", 2, 2_000, 2), ("quad_call", 2, None, None),
                 ("inc_call", 2, 2_000, "one_plus_n"), ("path", 2, None, (10, 4)))
        return [warm._make(rng, slot, 0) for slot in slots]


WORKLOADS = {w.name: w for w in (AnalyticBook, McOracle)}
