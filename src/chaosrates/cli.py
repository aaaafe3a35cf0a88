"""Command-line front end: curves, prices, path simulation, calibration.

Commands read model descriptors as inline JSON or as a path to a JSON
file.  Structured results go to stdout as JSON tagged with
"schema": "chaos-rates/1"; tabular results go to stdout as CSV.  Exit
codes: 0 success, 2 bad input, 1 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import coherent_model, incoherent_model
from .coherent_model import CoherentModel, initial_bond_price
from .finite_dim import calibrate_weights, check_atoms_model, read_market_curve, simulate_paths, write_paths_csv
from .incoherent_model import IncoherentModel, incoherent_bond_price, multi_state_at
from .polynomial_pricer import (
    OptionSpec,
    SwaptionSpec,
    call_payoff_polynomial,
    price_bond_call,
    price_swaption,
    swaption_payoff_polynomial,
)
from .simulation_oracle import mc_price, quadrature_price
from .structure_functions import DiscreteAtoms

SCHEMA = "chaos-rates/1"
DEFAULT_GRID = "0:30:121"


def _load_json(text: str, what: str) -> dict:
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            with open(raw) as fh:
                raw = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read {what} file {text!r}: {e}") from None
    try:
        d = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed {what} JSON: {e}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(d).__name__}")
    return d


def _load_model(text: str):
    d = _load_json(text, "model")
    try:
        if "terms" in d:
            return incoherent_model.from_descriptor(d)
        return coherent_model.from_descriptor(d)
    except (TypeError, OverflowError) as e:  # a field of the wrong JSON type or range
        raise ValueError(f"malformed model descriptor: {e}") from None


def _parse_grid(arg: str):
    parts = arg.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like t0:t1:steps, got {arg!r}")
    try:
        t0, t1, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must look like t0:t1:steps with numeric parts, got {arg!r}") from None
    if not (math.isfinite(t0) and math.isfinite(t1)) or steps < 1 or t1 < t0 or t0 < 0:
        raise ValueError(f"grid needs finite 0 <= t0 <= t1 and steps >= 1, got {arg!r}")
    if steps == 1:
        return [t0]
    times = [t0 + (t1 - t0) * i / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, times)):
        raise ValueError(f"grid {arg!r} has points too large to represent")
    return times


def _curve_times(model, grid_arg):
    if grid_arg is not None:
        return _parse_grid(grid_arg)
    if isinstance(model, CoherentModel):
        sfs = [model.sf]
    else:
        sfs = [term.sf for term in model.terms]
    if all(isinstance(sf, DiscreteAtoms) for sf in sfs):
        times = sorted({float(t) for sf in sfs for t in sf.times})
        return [0.0] + times
    return _parse_grid(DEFAULT_GRID)


def _bond_price_at_zero(model, t: float) -> float:
    if isinstance(model, CoherentModel):
        return initial_bond_price(model, t)
    state = multi_state_at(model, 0.0, [0.0] * len(model.terms))
    return incoherent_bond_price(model, state, t)


def cmd_curve(args) -> int:
    model = _load_model(args.model)
    rows = [f"{t!r},{_bond_price_at_zero(model, float(t))!r}" for t in _curve_times(model, args.grid)]
    print("\n".join(["maturity,price"] + rows))
    return 0


def _spec_field(kind: str, d: dict, key: str):
    try:
        return d[key]
    except KeyError:
        raise ValueError(f"{kind} spec is missing the {key!r} field") from None


def _spec_number(kind: str, key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} spec field {key!r} must hold numbers, got {value!r}") from None


def _parse_contract_spec(kind: str, d: dict):
    def number(key):
        return _spec_number(kind, key, _spec_field(kind, d, key))

    if kind == "call":
        return OptionSpec(number("option_maturity"), number("bond_maturity"), number("strike"))
    dates = _spec_field(kind, d, "payment_dates")
    if not isinstance(dates, list):
        raise ValueError(f"{kind} spec field 'payment_dates' must be a list of numbers, got {dates!r}")
    return SwaptionSpec(
        number("option_maturity"),
        tuple(_spec_number(kind, "payment_dates", T) for T in dates),
        number("strike"),
    )


def cmd_price(args) -> int:
    model = _load_model(args.model)
    spec = _parse_contract_spec(args.contract, _load_json(args.spec, "spec"))
    out = {"schema": SCHEMA, "contract": args.contract, "method": args.method}
    if args.method == "mc":
        price, stderr = mc_price(model, spec, samples=args.samples, seed=args.seed)
        out["price"] = price
        out["stderr"] = stderr
    else:
        if not isinstance(model, CoherentModel):
            raise ValueError(f"--method {args.method} supports coherent models only; use --method mc")
        if args.method == "analytic" or model.sf.q_at(spec.option_maturity) == 0:
            out["price"] = (
                price_bond_call(model, spec) if args.contract == "call" else price_swaption(model, spec)
            )
        else:
            poly = (
                call_payoff_polynomial(model, spec)
                if args.contract == "call"
                else swaption_payoff_polynomial(model, spec)
            )
            out["price"] = quadrature_price(poly, model.n)
    print(json.dumps(out, allow_nan=False))
    return 0


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    maturity = args.maturity if args.maturity is not None else check_atoms_model(model)
    paths = simulate_paths(model, maturity, count=args.paths, seed=args.seed)
    files = write_paths_csv(paths, args.out)
    print(
        json.dumps(
            {
                "schema": SCHEMA,
                "paths": len(files),
                "out": str(args.out),
                "files": [f.name for f in files],
            },
            allow_nan=False,
        )
    )
    return 0


def cmd_calibrate(args) -> int:
    market = read_market_curve(args.market)
    model = calibrate_weights(market, args.order, horizon=args.horizon)
    print(json.dumps({"schema": SCHEMA, **coherent_model.to_descriptor(model)}, allow_nan=False))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaos-rates",
        description="Interest-rate models with polynomial pricing kernels: curves, option prices, path simulation, calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="print the time-0 discount curve as CSV")
    p_curve.add_argument("--model", required=True, help="model JSON (inline or file path)")
    p_curve.add_argument("--grid", help="evaluation grid t0:t1:steps (default: atom times, else 0:30:121)")
    p_curve.set_defaults(handler=cmd_curve)

    p_price = sub.add_parser("price", help="price a bond call or a payer swaption")
    p_price.add_argument("contract", choices=["call", "swaption"])
    p_price.add_argument("--model", required=True, help="model JSON (inline or file path)")
    p_price.add_argument("--spec", required=True, help="contract JSON (inline or file path)")
    p_price.add_argument("--method", choices=["analytic", "mc", "quadrature"], default="analytic")
    p_price.add_argument("--samples", type=int, default=100_000, help="MC sample count")
    p_price.add_argument("--seed", type=int, default=0, help="MC seed")
    p_price.set_defaults(handler=cmd_price)

    p_sim = sub.add_parser("simulate", help="simulate piecewise-constant paths for an atom-family model")
    p_sim.add_argument("--model", required=True, help="coherent atoms model JSON (inline or file path)")
    p_sim.add_argument("--paths", type=int, required=True, help="number of paths")
    p_sim.add_argument("--seed", type=int, required=True, help="base RNG seed")
    p_sim.add_argument("--out", required=True, help="output directory for path CSV files")
    p_sim.add_argument("--maturity", type=float, help="bond maturity tracked along paths (default: last maturity)")
    p_sim.set_defaults(handler=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="calibrate atom weights to a market discount curve")
    p_cal.add_argument("--market", required=True, help="CSV file with a maturity,price header")
    p_cal.add_argument("--order", type=int, required=True, help="chaos order n")
    p_cal.add_argument("--horizon", type=float, help="bookkeeping horizon (default: last maturity + 1)")
    p_cal.set_defaults(handler=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
