import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import chaosrates
from chaosrates import (
    CoherentModel,
    ExponentialDensity,
    OptionSpec,
    SwaptionSpec,
    initial_bond_price,
    price_bond_call,
    price_swaption,
)
from chaosrates.cli import main

EXP_MODEL = '{"n": 2, "sf": {"family": "exponential", "lambda": 0.7}}'
SLOW_MODEL = '{"n": 2, "sf": {"family": "exponential", "lambda": 0.1}}'
STEP_MODEL = json.dumps(
    {
        "n": 2,
        "sf": {
            "family": "atoms",
            "times": [1.0, 4.0, 9.0],
            "weights": [1 / 6, 1 / 2, 1 / 3],
        },
    }
)
TEN_YEAR_MODEL = json.dumps(
    {
        "n": 2,
        "sf": {
            "family": "atoms",
            "times": [float(i) for i in range(1, 12)],
            "weights": [0.08] * 10 + [0.2],
        },
    }
)
CALL_SPEC = '{"option_maturity": 1.0, "bond_maturity": 2.0, "strike": 0.6}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == "maturity,price"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


class TestCurve:
    def test_atoms_whose_rescaled_weights_sum_past_one_end_at_zero(self, capsys):
        # the six weights rescaled by their float sum add up to 1 + 2^-52
        weights = [0.083, 0.193, 0.221, 0.288, 0.135, 0.08]
        model = json.dumps({"n": 2, "sf": {"family": "atoms", "times": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "weights": weights}})
        code, out, _ = run(capsys, "curve", "--model", model)
        assert code == 0
        rows = csv_rows(out)
        assert rows[-1] == (6.0, 0.0)
        assert all(0.0 <= price <= 1.0 for _, price in rows)

    def test_atoms_default_grid_is_the_step_curve(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", STEP_MODEL)
        assert code == 0
        rows = csv_rows(out)
        assert [t for t, _ in rows] == [0.0, 1.0, 4.0, 9.0]
        want = [1.0, 1 - (1 / 6) ** 2, 1 - (2 / 3) ** 2, 0.0]
        for (_, got), expect in zip(rows, want):
            assert got == pytest.approx(expect, abs=1e-12)

    def test_starts_at_par(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", SLOW_MODEL, "--grid", "0:10:3")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == (0.0, 1.0)

    def test_exponential_long_end(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", SLOW_MODEL, "--grid", "10:10:1")
        assert code == 0
        ((t, price),) = csv_rows(out)
        assert t == 10.0
        assert price == pytest.approx(1 - (1 - math.exp(-1.0)) ** 2, rel=1e-12)
        assert price == pytest.approx(0.6004, abs=5e-5)

    def test_matches_library_values(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", EXP_MODEL, "--grid", "0:4:5")
        assert code == 0
        model = CoherentModel(2, ExponentialDensity(0.7))
        for t, price in csv_rows(out):
            assert price == pytest.approx(initial_bond_price(model, t), rel=1e-14)

    def test_incoherent_model(self, capsys):
        model = json.dumps(
            {
                "terms": [
                    {"c": 0.8, "n": 2, "sf": {"family": "exponential", "lambda": 0.5}},
                    {"c": 0.6, "n": 2, "sf": {"family": "exponential", "lambda": 1.2}},
                ]
            }
        )
        code, out, _ = run(capsys, "curve", "--model", model, "--grid", "0:2:3")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0][1] == pytest.approx(1.0, rel=1e-14)
        assert rows[1][1] < rows[0][1]

    def test_incoherent_orders_two_and_three(self, capsys):
        model = json.dumps(
            {
                "terms": [
                    {"c": 0.8, "n": 2, "sf": {"family": "exponential", "lambda": 0.5}},
                    {"c": 0.5, "n": 3, "sf": {"family": "exponential", "lambda": 1.2}},
                ]
            }
        )
        code, out, _ = run(capsys, "curve", "--model", model, "--grid", "0:10:21")
        assert code == 0
        prices = [p for _, p in csv_rows(out)]
        assert prices[0] == 1.0
        assert all(a >= b for a, b in zip(prices, prices[1:]))

    def test_malformed_model(self, capsys):
        code, _, err = run(capsys, "curve", "--model", "{not json")
        assert code == 2
        assert "malformed" in err

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "curve", "--model", "/nonexistent/model.json")
        assert code == 2
        assert "cannot read" in err

    def test_bad_grid(self, capsys):
        for grid in ("1:2", "a:b:c", "2:1:5", "0:1:0"):
            code, _, err = run(capsys, "curve", "--model", EXP_MODEL, "--grid", grid)
            assert code == 2, grid
            assert "grid" in err


class TestPrice:
    def test_call_analytic(self, capsys):
        code, out, _ = run(capsys, "price", "call", "--model", EXP_MODEL, "--spec", CALL_SPEC)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "chaos-rates/1"
        assert payload["contract"] == "call"
        assert payload["method"] == "analytic"
        model = CoherentModel(2, ExponentialDensity(0.7))
        assert payload["price"] == price_bond_call(model, OptionSpec(1.0, 2.0, 0.6))

    def test_call_quadrature_agrees(self, capsys):
        _, out_a, _ = run(capsys, "price", "call", "--model", EXP_MODEL, "--spec", CALL_SPEC)
        _, out_q, _ = run(
            capsys, "price", "call", "--model", EXP_MODEL, "--spec", CALL_SPEC,
            "--method", "quadrature",
        )
        assert json.loads(out_q)["price"] == pytest.approx(
            json.loads(out_a)["price"], abs=1e-8
        )

    def test_call_mc_within_reported_error(self, capsys):
        code, out, _ = run(
            capsys, "price", "call", "--model", EXP_MODEL, "--spec", CALL_SPEC,
            "--method", "mc", "--samples", "200000", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        model = CoherentModel(2, ExponentialDensity(0.7))
        closed = price_bond_call(model, OptionSpec(1.0, 2.0, 0.6))
        assert payload["stderr"] > 0.0
        assert abs(payload["price"] - closed) <= 4.0 * payload["stderr"]

    def test_importing_the_cli_leaves_numpy_polynomial_out(self):
        # quadrature_price builds its Gauss-Legendre rule on first use: a
        # module-level numpy.polynomial import costs every command ~3 ms
        src = str(Path(chaosrates.__file__).parents[1])
        code = "import sys, chaosrates.cli; assert 'numpy.polynomial' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("method,tol", [("analytic", 1e-12), ("quadrature", 1e-8)])
    def test_call_at_a_near_zero_expiry(self, capsys, method, tol):
        # the payoff's leading coefficient underflows to a subnormal
        model = '{"n": 5, "sf": {"family": "exponential", "lambda": 0.1}}'
        spec = '{"option_maturity": 1e-79, "bond_maturity": 5.0, "strike": 0.35}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "price", "call", "--model", model, "--spec", spec, "--method", method)
        assert (code, err) == (0, "")
        intrinsic = (1.0 - ExponentialDensity(0.1).q_at(5.0) ** 5) - 0.35
        assert json.loads(out)["price"] == pytest.approx(intrinsic, abs=tol)

    def test_swaption_analytic(self, capsys):
        spec = '{"option_maturity": 1.0, "payment_dates": [2.0, 3.0, 4.0], "strike": 0.05}'
        code, out, _ = run(capsys, "price", "swaption", "--model", EXP_MODEL, "--spec", spec)
        assert code == 0
        model = CoherentModel(2, ExponentialDensity(0.7))
        want = price_swaption(model, SwaptionSpec(1.0, (2.0, 3.0, 4.0), 0.05))
        assert json.loads(out)["price"] == want

    def test_spec_from_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(CALL_SPEC)
        code, out, _ = run(capsys, "price", "call", "--model", EXP_MODEL, "--spec", str(spec_file))
        assert code == 0
        assert json.loads(out)["price"] > 0.0

    def test_missing_spec_field(self, capsys):
        code, _, err = run(
            capsys, "price", "call", "--model", EXP_MODEL,
            "--spec", '{"option_maturity": 1.0, "strike": 0.6}',
        )
        assert code == 2
        assert "bond_maturity" in err

    def test_infeasible_spec(self, capsys):
        code, _, err = run(
            capsys, "price", "call", "--model", EXP_MODEL,
            "--spec", '{"option_maturity": 3.0, "bond_maturity": 2.0, "strike": 0.6}',
        )
        assert code == 2
        assert "error" in err

    def test_incoherent_needs_mc(self, capsys):
        model = json.dumps(
            {"terms": [{"c": 1.0, "n": 2, "sf": {"family": "exponential", "lambda": 0.7}}]}
        )
        code, _, err = run(capsys, "price", "call", "--model", model, "--spec", CALL_SPEC)
        assert code == 2
        assert "mc" in err
        code, out, _ = run(
            capsys, "price", "call", "--model", model, "--spec", CALL_SPEC,
            "--method", "mc", "--samples", "200000", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(out)
        closed = price_bond_call(CoherentModel(2, ExponentialDensity(0.7)), OptionSpec(1.0, 2.0, 0.6))
        assert abs(payload["price"] - closed) <= 4.0 * payload["stderr"]


class TestBadInput:
    # each input once printed a value and exited 0, or exited 1 with an
    # internal error; all must exit 2 with nothing on stdout
    NAN_STRIKE = '{"option_maturity": 1.0, "bond_maturity": 2.0, "strike": NaN}'
    INFINITE_RATE = '{"n": 2, "sf": {"family": "exponential", "lambda": Infinity}}'

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_nan_strike(self, capsys, method):
        code, out, err = run(capsys, "price", "call", "--model", EXP_MODEL, "--spec", self.NAN_STRIKE, "--method", method)
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [("curve",), ("price", "call", "--spec", CALL_SPEC)],
    )
    def test_infinite_rate(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--model", self.INFINITE_RATE)
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_nan_atom_time(self, capsys):
        model = '{"n": 2, "sf": {"family": "atoms", "times": [NaN, 2.0], "weights": [0.5, 0.5]}}'
        code, out, _ = run(capsys, "curve", "--model", model)
        assert (code, out) == (2, "")

    def test_model_file_holding_a_number(self, capsys, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text("5")
        code, out, err = run(capsys, "curve", "--model", str(model_file))
        assert (code, out) == (2, "")
        assert "object" in err

    @pytest.mark.parametrize("dates", ["5", '"2.0"', "[2.0, null]"])
    def test_payment_dates_not_a_list_of_numbers(self, capsys, dates):
        spec = '{"option_maturity": 1.0, "payment_dates": %s, "strike": 0.05}' % dates
        code, out, err = run(capsys, "price", "swaption", "--model", EXP_MODEL, "--spec", spec)
        assert (code, out) == (2, "")
        assert "payment_dates" in err

    def test_curve_failing_past_the_header_prints_nothing(self, capsys):
        # cancelling terms leave no positive kernel; the error used to follow
        # a printed maturity,price header
        sf = {"family": "exponential", "lambda": 0.7}
        model = json.dumps({"terms": [{"c": 1.0, "n": 2, "sf": sf}, {"c": -1.0, "n": 2, "sf": sf}]})
        code, out, _ = run(capsys, "curve", "--model", model)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:3", "0:nan:3", "0:1e308:3", "-inf:1:3"])
    def test_non_finite_grid(self, capsys, grid):
        code, out, err = run(capsys, "curve", "--model", EXP_MODEL, "--grid", grid)
        assert (code, out) == (2, "")
        assert "grid" in err

    @pytest.mark.parametrize("weight", [2.0**600, 2.0**-600])
    def test_extreme_weights_price_like_unit_weights(self, capsys, weight):
        # every price is invariant under a common scale of the weights, and
        # a power-of-two scale leaves every digit unchanged, though c_i c_j
        # overflows or underflows
        def model(c):
            sf = {"family": "exponential", "lambda": 0.7}
            return json.dumps({"terms": [{"c": c, "n": 2, "sf": sf}, {"c": 0.5 * c, "n": 3, "sf": sf}]})

        curves = [run(capsys, "curve", "--model", model(c), "--grid", "0:5:6") for c in (weight, 1.0)]
        assert curves[0] == curves[1]
        assert curves[0][0] == 0
        argv = ("price", "call", "--spec", CALL_SPEC, "--method", "mc", "--samples", "2000")
        prices = [run(capsys, *argv, "--model", model(c)) for c in (weight, 1.0)]
        assert prices[0] == prices[1]
        assert prices[0][0] == 0

    @pytest.mark.parametrize("weight", [1e200, 1e-200])
    def test_extreme_weights_print_finite_values(self, capsys, weight):
        sf = {"family": "exponential", "lambda": 0.7}
        model = json.dumps({"terms": [{"c": weight, "n": 2, "sf": sf}, {"c": weight, "n": 3, "sf": sf}]})
        code, out, _ = run(capsys, "curve", "--model", model, "--grid", "0:5:6")
        assert code == 0
        assert all(math.isfinite(p) and 0.0 < p <= 1.0 for _, p in csv_rows(out))
        argv = ("price", "call", "--spec", CALL_SPEC, "--method", "mc", "--samples", "2000")
        code, out, _ = run(capsys, *argv, "--model", model)
        assert code == 0
        assert math.isfinite(json.loads(out)["price"])

    def test_null_strike(self, capsys):
        spec = '{"option_maturity": 1.0, "bond_maturity": 2.0, "strike": null}'
        code, out, err = run(capsys, "price", "call", "--model", EXP_MODEL, "--spec", spec)
        assert (code, out) == (2, "")
        assert "strike" in err


class TestSimulate:
    def test_writes_paths(self, capsys, tmp_path):
        out_dir = tmp_path / "paths"
        code, out, _ = run(
            capsys, "simulate", "--model", TEN_YEAR_MODEL,
            "--paths", "2", "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "chaos-rates/1"
        assert payload["paths"] == 2
        assert payload["files"] == ["path_00000.csv", "path_00001.csv"]
        header = (out_dir / "path_00000.csv").read_text().splitlines()[0]
        assert header == "time,R,Q,pi,P"

    def test_seed_repetition_reproduces_files(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--model", TEN_YEAR_MODEL,
                "--paths", "3", "--seed", "11", "--out", str(out_dir),
            )
            assert code == 0
        for name in ("path_00000.csv", "path_00001.csv", "path_00002.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_explicit_maturity(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "simulate", "--model", TEN_YEAR_MODEL,
            "--paths", "1", "--seed", "7", "--out", str(tmp_path / "m"),
            "--maturity", "7.0",
        )
        assert code == 0
        rows = (tmp_path / "m" / "path_00000.csv").read_text().strip().splitlines()[1:]
        settled = [row for row in rows if float(row.split(",")[0]) >= 7.0]
        assert settled and all(float(row.split(",")[-1]) == 1.0 for row in settled)

    def test_zero_paths(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--model", TEN_YEAR_MODEL,
            "--paths", "0", "--seed", "5", "--out", str(tmp_path / "z"),
        )
        assert code == 2
        assert "path count" in err

    def test_requires_atom_model(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--model", EXP_MODEL,
            "--paths", "1", "--seed", "5", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "atom" in err

    def test_requires_a_tradable_maturity(self, capsys, tmp_path):
        lonely = '{"n": 2, "sf": {"family": "atoms", "times": [1.0], "weights": [1.0]}}'
        code, _, err = run(
            capsys, "simulate", "--model", lonely,
            "--paths", "1", "--seed", "5", "--out", str(tmp_path / "y"),
        )
        assert code == 2
        assert "maturity" in err


class TestCalibrate:
    def write_market(self, tmp_path, rows):
        target = tmp_path / "market.csv"
        target.write_text("maturity,price\n" + "".join(f"{t},{p}\n" for t, p in rows))
        return str(target)

    def test_round_trip(self, capsys, tmp_path):
        market = self.write_market(tmp_path, [(1.0, 0.94), (2.0, 0.85), (3.0, 0.71)])
        code, out, _ = run(capsys, "calibrate", "--market", market, "--order", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "chaos-rates/1"
        assert payload["n"] == 2
        sf = payload["sf"]
        assert sf["family"] == "atoms"
        assert sf["times"] == [1.0, 2.0, 3.0, 4.0]
        cum = 0.0
        for w, price in zip(sf["weights"], (0.94, 0.85, 0.71)):
            cum += w
            assert 1 - cum**2 == pytest.approx(price, abs=1e-12)
        assert sum(sf["weights"]) == pytest.approx(1.0, abs=1e-12)

    def test_order_one_weights_are_price_decrements(self, capsys, tmp_path):
        market = self.write_market(tmp_path, [(1.0, 0.94), (2.0, 0.85), (3.0, 0.71)])
        code, out, _ = run(capsys, "calibrate", "--market", market, "--order", "1")
        assert code == 0
        weights = json.loads(out)["sf"]["weights"]
        assert weights == pytest.approx([0.06, 0.09, 0.14, 0.71], abs=1e-12)

    def test_horizon_flag(self, capsys, tmp_path):
        market = self.write_market(tmp_path, [(1.0, 0.94), (2.0, 0.85)])
        code, out, _ = run(
            capsys, "calibrate", "--market", market, "--order", "2", "--horizon", "10.0"
        )
        assert code == 0
        assert json.loads(out)["sf"]["times"][-1] == 10.0

    def test_monotone_violation(self, capsys, tmp_path):
        market = self.write_market(tmp_path, [(1.0, 0.9), (2.0, 0.95)])
        code, _, err = run(capsys, "calibrate", "--market", market, "--order", "2")
        assert code == 2
        assert "2.0" in err

    @pytest.mark.parametrize("rows", [[(1.0, 0.9), ("nan", 0.8)], [("nan", 0.9), (2.0, 0.8)]], ids=["last", "first"])
    def test_nan_maturity_is_a_market_data_error(self, capsys, tmp_path, rows):
        # not a horizon error, though no --horizon was given
        market = self.write_market(tmp_path, rows)
        code, out, err = run(capsys, "calibrate", "--market", market, "--order", "2")
        assert code == 2
        assert out == ""
        assert "maturities and prices must be finite" in err

    def test_missing_market_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "calibrate", "--market", str(tmp_path / "nope.csv"), "--order", "2"
        )
        assert code == 2


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_repeated_calls_share_no_state(capsys):
    # the parser is built once per process; each call still parses afresh
    mc = ("price", "call", "--model", EXP_MODEL, "--spec", CALL_SPEC, "--method", "mc", "--samples", "500", "--seed", "3")
    code, out, _ = run(capsys, *mc)
    assert code == 0 and json.loads(out)["method"] == "mc"
    code, out, _ = run(capsys, "price", "call", "--model", EXP_MODEL, "--spec", CALL_SPEC)
    assert code == 0 and json.loads(out)["method"] == "analytic"
    code, out, _ = run(capsys, "curve", "--model", EXP_MODEL, "--grid", "0:1:3")
    assert code == 0 and len(csv_rows(out)) == 3
    code, out, _ = run(capsys, "curve", "--model", EXP_MODEL)
    assert code == 0 and len(csv_rows(out)) == 121
    assert run(capsys, *mc) == run(capsys, *mc)
