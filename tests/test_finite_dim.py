import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chaosrates import (
    CoherentModel,
    DiscountCurve,
    DiscreteAtoms,
    ExponentialDensity,
    IncoherentModel,
    IncoherentTerm,
    calibrate_weights,
    initial_bond_price,
    initial_curve,
    read_market_curve,
    simulate_paths,
    write_paths_csv,
)
from chaosrates.cli import main
from chaosrates.finite_dim import check_atoms_model

QUARTER = (Fraction(1, 4),) * 4
TEN_YEARS = CoherentModel(2, DiscreteAtoms(tuple(float(i) for i in range(1, 12)), (0.08,) * 10 + (0.2,)))
# thirty half-year maturities and a horizon at 16; the weights' float sum is
# 1 + 2^-51, so they are rescaled
THIRTY_ATOMS_DESCRIPTOR = {
    "n": 5,
    "sf": {"family": "atoms", "times": [0.5 * i for i in range(1, 31)] + [16.0], "weights": [0.025] * 30 + [0.25]},
}
THIRTY_ATOMS = CoherentModel(
    5, DiscreteAtoms(tuple(THIRTY_ATOMS_DESCRIPTOR["sf"]["times"]), tuple(THIRTY_ATOMS_DESCRIPTOR["sf"]["weights"]))
)


class TestFiniteDimensionalModel:
    def test_the_last_atom_is_the_horizon(self):
        assert check_atoms_model(TEN_YEARS) == 10.0
        assert check_atoms_model(CoherentModel(3, DiscreteAtoms((1.0, 2.0, 5.0), (0.2, 0.3, 0.5)))) == 2.0

    def test_rejects_other_models(self):
        exponential = CoherentModel(2, ExponentialDensity(0.1))
        lonely = CoherentModel(2, DiscreteAtoms((1.0,), (1.0,)))
        incoherent = IncoherentModel((IncoherentTerm(1.0, 2, TEN_YEARS.sf),))
        for model, why in ((exponential, "atom"), (lonely, "maturity"), (incoherent, "atom")):
            with pytest.raises(ValueError, match=why):
                check_atoms_model(model)
            with pytest.raises(ValueError, match=why):
                initial_curve(model)
            with pytest.raises(ValueError, match=why):
                simulate_paths(model, 0.5, 1, 1)

    def test_rejects_a_nan_atom_weight(self):
        # no ordering or range check sees a NaN; the finiteness check does
        with pytest.raises(ValueError, match="finite"):
            CoherentModel(2, DiscreteAtoms((1.0, 2.0, 3.0), (math.nan, 0.5, 0.5)))


class TestDiscountCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscountCurve((), ())
        with pytest.raises(ValueError):
            DiscountCurve((1.0, 2.0), (0.9,))
        with pytest.raises(ValueError):
            DiscountCurve((2.0, 1.0), (0.9, 0.8))
        with pytest.raises(ValueError):
            DiscountCurve((1.0,), (1.2,))

    @pytest.mark.parametrize(
        "maturities, prices",
        [((1.0, math.nan), (0.9, 0.8)), ((math.nan, 2.0), (0.9, 0.8)), ((1.0, math.inf), (0.9, 0.8)), ((1.0, 2.0), (0.9, math.nan))],
        ids=["nan-last-maturity", "nan-first-maturity", "inf-maturity", "nan-price"],
    )
    def test_rejects_non_finite_entries(self, maturities, prices):
        # every ordering and range check is false for NaN
        with pytest.raises(ValueError, match="maturities and prices must be finite"):
            DiscountCurve(maturities, prices)

    def test_price_at_steps(self):
        curve = DiscountCurve((1.0, 3.0), (0.9, 0.7))
        assert curve.price_at(0.5) == 1
        assert curve.price_at(1.0) == 0.9
        assert curve.price_at(2.0) == 0.9
        assert curve.price_at(3.0) == 0.7
        assert curve.price_at(10.0) == 0.7


class TestInitialCurve:
    def test_exact_rational_curve(self):
        curve = initial_curve(CoherentModel(2, DiscreteAtoms((1.0, 2.0, 3.0, 4.0), QUARTER)))
        assert curve.prices == (
            Fraction(15, 16),
            Fraction(3, 4),
            Fraction(7, 16),
            Fraction(0, 1),
        )
        assert all(isinstance(p, Fraction) for p in curve.prices)

    def test_curve_maturities_include_horizon(self):
        model = CoherentModel(3, DiscreteAtoms((1.0, 2.0, 3.0, 4.0), QUARTER))
        assert initial_curve(model).maturities == (1.0, 2.0, 3.0, 4.0)

    def test_order_one_is_one_minus_cumulative(self):
        curve = initial_curve(CoherentModel(1, DiscreteAtoms((1.0, 2.0, 5.0), (0.2, 0.3, 0.5))))
        assert curve.prices == pytest.approx((0.8, 0.5, 0.0), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_each_step_is_the_initial_bond_price(self, n):
        # these six weights rescale to a float sum of 1 + 2^-52; the curve
        # reads it as Q = 1, as q_at does, and ends at a price of 0
        past_one = DiscreteAtoms((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (0.083, 0.193, 0.221, 0.288, 0.135, 0.08))
        assert sum(past_one.weights) > 1.0
        for sf in (TEN_YEARS.sf, THIRTY_ATOMS.sf, past_one):
            model = CoherentModel(n, sf)
            curve = initial_curve(model)
            assert curve.prices == tuple(initial_bond_price(model, T) for T in sf.times)
        assert curve.prices[-1] == 0.0

    def test_rejects_bad_order(self):
        # True is an int equal to 1, but no model accepts it as a chaos order
        curve = DiscountCurve((1.0, 2.0), (0.9, 0.8))
        for bad in (0, 21, 1.5, True):
            with pytest.raises(ValueError, match="chaos order"):
                CoherentModel(bad, TEN_YEARS.sf)
            with pytest.raises(ValueError, match="chaos order"):
                calibrate_weights(curve, bad)


class TestCalibration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        model = CoherentModel(n, DiscreteAtoms((1.0, 2.0, 4.0, 6.0), (0.3, 0.25, 0.25, 0.2)))
        full = initial_curve(model)
        market = DiscountCurve(full.maturities[:-1], tuple(float(p) for p in full.prices[:-1]))
        back = calibrate_weights(market, n, horizon=6.0)
        assert back.n == n
        assert back.sf.times == model.sf.times
        assert back.sf.weights == pytest.approx(model.sf.weights, abs=1e-13)

    def test_reproduces_market(self):
        market = DiscountCurve((1.0, 2.0, 3.0), (0.94, 0.85, 0.71))
        for n in (1, 2, 4):
            curve = initial_curve(calibrate_weights(market, n))
            for T, P in zip(market.maturities, market.prices):
                assert curve.price_at(T) == pytest.approx(P, abs=1e-14)

    def test_default_horizon(self):
        market = DiscountCurve((1.0, 3.0), (0.9, 0.7))
        assert calibrate_weights(market, 2).sf.times == (1.0, 3.0, 4.0)

    def test_horizon_must_exceed_the_last_maturity(self):
        market = DiscountCurve((1.0, 3.0), (0.9, 0.7))
        for bad in (3.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                calibrate_weights(market, 2, horizon=bad)

    def test_single_bond(self):
        model = calibrate_weights(DiscountCurve((5.0,), (0.64,)), 2)
        assert model.sf.weights == pytest.approx((0.6, 0.4), abs=1e-15)

    def test_monotone_violation_names_the_maturity(self):
        market = DiscountCurve((1.0, 2.0, 3.0), (0.9, 0.92, 0.7))
        with pytest.raises(ValueError, match="2.0"):
            calibrate_weights(market, 2)

    def test_degenerate_price_rejected(self):
        with pytest.raises(ValueError):
            calibrate_weights(DiscountCurve((1.0, 2.0), (1.0, 0.5)), 2)
        with pytest.raises(ValueError):
            calibrate_weights(DiscountCurve((1.0, 2.0), (0.5, 0.0)), 2)

    @given(
        st.integers(1, 5),
        st.lists(st.floats(0.01, 0.2), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, n, drops):
        prices = []
        p = 1.0
        for d in drops:
            p -= d * p
            prices.append(p)
        mats = tuple(float(i) for i in range(1, len(prices) + 1))
        market = DiscountCurve(mats, tuple(prices))
        curve = initial_curve(calibrate_weights(market, n))
        for T, P in zip(mats, prices):
            assert curve.price_at(T) == pytest.approx(P, abs=1e-12)


class TestSimulation:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 7.0, 0, 1)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 0.0, 1, 1)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 10.5, 1, 1)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 7.0, 1, -3)

    def test_seed_reproducibility(self):
        a = simulate_paths(TEN_YEARS, 7.0, 3, 42)
        b = simulate_paths(TEN_YEARS, 7.0, 3, 42)
        for field in ("segment_starts", "brackets", "values", "kernels", "bond_prices"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_path_stream_is_independent_of_count(self):
        many = simulate_paths(TEN_YEARS, 7.0, 3, 77)
        few = simulate_paths(TEN_YEARS, 7.0, 2, 77)
        assert np.array_equal(many.values[:2], few.values)
        assert np.array_equal(many.kernels[:2], few.kernels)

    def test_horizon_placement_is_invisible(self):
        far = CoherentModel(2, DiscreteAtoms(TEN_YEARS.sf.times[:-1] + (25.0,), TEN_YEARS.sf.weights))
        a = simulate_paths(TEN_YEARS, 7.0, 2, 9)
        b = simulate_paths(far, 7.0, 2, 9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.brackets, b.brackets)
        assert np.array_equal(a.kernels, b.kernels)
        assert np.array_equal(a.bond_prices, b.bond_prices)
        assert np.array_equal(a.segment_starts[:-1], b.segment_starts[:-1])
        assert (a.segment_starts[-1], b.segment_starts[-1]) == (11.0, 25.0)

    def test_path_shape(self):
        paths = simulate_paths(TEN_YEARS, 7.0, 3, 5)
        m = len(TEN_YEARS.sf.weights) + 1
        assert len(paths) == 3
        assert paths.bond_maturity == 7.0
        assert paths.segment_starts.shape == paths.brackets.shape == (m,)
        for a in (paths.values, paths.kernels, paths.bond_prices):
            assert a.shape == (3, m)
        assert paths.segment_starts[0] == 0.0
        assert np.all(paths.values[:, 0] == 0.0)
        assert tuple(paths.segment_starts[1:].tolist()) == TEN_YEARS.sf.times

    def test_batch_is_read_only(self):
        paths = simulate_paths(TEN_YEARS, 7.0, 2, 5)
        for a in (paths.segment_starts, paths.brackets, paths.values, paths.kernels, paths.bond_prices):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_batch_holds_only_its_arrays(self):
        # the returned batch is its five arrays and nothing else: no per-path
        # Python objects
        simulate_paths(TEN_YEARS, 7.0, 2, 1)  # warm module-level caches
        tracemalloc.start()
        try:
            paths = simulate_paths(TEN_YEARS, 7.0, 20_000, 314159)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (paths.segment_starts, paths.brackets, paths.values, paths.kernels, paths.bond_prices)
        nbytes = sum(a.nbytes for a in arrays)
        assert abs(held - nbytes) <= 2**20, (held, nbytes)

    def test_brackets_follow_the_grid(self):
        paths = simulate_paths(TEN_YEARS, 7.0, 1, 5)
        assert paths.brackets[0] == 0.0
        assert paths.brackets[5] == pytest.approx(0.4, abs=1e-15)
        assert paths.brackets[-1] == 1.0

    def test_kernel_boundary_values(self):
        for n in (1, 2, 3):
            paths = simulate_paths(CoherentModel(n, TEN_YEARS.sf), 7.0, 1, 5)
            assert paths.kernels[0, 0] == 1.0 / math.factorial(n)
            assert paths.kernels[0, -1] == 0.0

    def test_kernels_stay_positive_before_horizon(self):
        paths = simulate_paths(CoherentModel(3, TEN_YEARS.sf), 7.0, 50, 8)
        assert np.all(paths.kernels[:, :-1] > 0.0)

    def test_bond_settles_at_par(self):
        paths = simulate_paths(TEN_YEARS, 7.0, 20, 3)
        settled = paths.segment_starts >= 7.0
        assert np.all(paths.bond_prices[:, settled] == 1.0)
        assert np.all(paths.bond_prices[:, ~settled] > 0.0)

    def test_initial_bond_price_matches_curve(self):
        curve = initial_curve(TEN_YEARS)
        paths = simulate_paths(TEN_YEARS, 7.0, 1, 5)
        want = float(curve.price_at(7.0)) / 1.0  # P(0,7) read off the curve
        # first segment: pi_0 P(0,T) with pi_0 = 1/2
        assert paths.bond_prices[0, 0] * paths.kernels[0, 0] == pytest.approx(0.5 * want, rel=1e-13)

    def test_increment_distribution(self):
        paths = simulate_paths(TEN_YEARS, 7.0, 4000, 123)
        r = paths.values
        # terminal driver is standard normal, value at T_N has variance 0.8
        assert stats.kstest(r[:, -1], "norm").pvalue > 1e-3
        assert stats.kstest(r[:, 10] / math.sqrt(0.8), "norm").pvalue > 1e-3
        inc = np.diff(r, axis=1)
        var = inc.var(axis=0, ddof=1)
        band = 4.0 * math.sqrt(2.0 / (len(paths) - 1))
        assert np.all(np.abs(var[:10] - 0.08) <= 0.08 * band)
        assert abs(float(np.corrcoef(inc[:, 0], inc[:, 1])[0, 1])) <= 0.07


def _digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class TestCsvRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        paths = simulate_paths(TEN_YEARS, 7.0, 3, 11)
        files = write_paths_csv(paths, tmp_path / "out")
        assert [f.name for f in files] == [
            "path_00000.csv",
            "path_00001.csv",
            "path_00002.csv",
        ]
        import csv as csvmod

        with open(files[1], newline="") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["time", "R", "Q", "pi", "P"]
        got = np.array([[float(x) for x in row] for row in rows[1:]])
        want = np.column_stack(
            [paths.segment_starts, paths.values[1], paths.brackets, paths.kernels[1], paths.bond_prices[1]]
        )
        assert np.array_equal(got, want)  # repr round-trip is exact

    def test_written_bytes_match_the_csv_module(self, tmp_path):
        # the one-call writer must keep the csv.writer bytes: repr floats,
        # CRLF line ends, the path_NNNNN.csv names
        import csv as csvmod
        import io

        paths = simulate_paths(CoherentModel(3, TEN_YEARS.sf), 7.0, 4, 12)
        files = write_paths_csv(paths, tmp_path / "out")
        for j, target in enumerate(files):
            buf = io.StringIO(newline="")
            writer = csvmod.writer(buf)
            writer.writerow(["time", "R", "Q", "pi", "P"])
            columns = (paths.segment_starts, paths.values[j], paths.brackets, paths.kernels[j], paths.bond_prices[j])
            for row in zip(*columns):
                writer.writerow([repr(float(v)) for v in row])
            assert target.name == f"path_{j:05d}.csv"
            assert target.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize(
        "sf, n, maturity, seed, count, digest",
        [
            (TEN_YEARS.sf, 2, 7.0, 11, 3, "79ec6ee425f564cea0a955ecfb6e943afed7af3500e9a7d7f18552c54abaa245"),
            (THIRTY_ATOMS.sf, 5, 12.25, 2026, 40, "57a6a2584703ba8fdc20a3404e2e087d2f07a879dc5d26d078fcc90c643466ee"),
            (
                DiscreteAtoms((1.0, 2.0, 3.0, 4.0), QUARTER),
                3,
                2.5,
                2**64 - 1,
                7,
                "6afd4d3fc59daeb3175cca66b37647189f92ee359b0c08994d51d5c6dae05946",
            ),
        ],
    )
    def test_golden_bytes(self, tmp_path, sf, n, maturity, seed, count, digest):
        # SHA-256 over every file name and its bytes: the (seed, j) streams and
        # the CSV format must not move.  Re-pinned when pi and P moved from the
        # linearised even-order kernel sum to the product formula's sum of
        # squares (pair_sum): the time, R and Q bytes stayed identical, only
        # pi and P cells moved, and each file set's worst error against a
        # 60-digit reference fell.  The thirty-atom digest was re-pinned once
        # more when the library took the rescaled weights that chaos-rates
        # simulate already used; it is the digest the command wrote before
        files = write_paths_csv(simulate_paths(CoherentModel(n, sf), maturity, count, seed), tmp_path / "out")
        assert len(files) == count
        assert _digest(files) == digest

    def test_library_writes_the_cli_bytes(self, tmp_path, capsys):
        # the command reads the same atoms from JSON into the same types, so
        # the weights are rescaled once and the files agree byte for byte
        files = write_paths_csv(simulate_paths(THIRTY_ATOMS, 12.25, 40, 2026), tmp_path / "library")
        argv = ["simulate", "--model", json.dumps(THIRTY_ATOMS_DESCRIPTOR), "--paths", "40", "--seed", "2026"]
        assert main(argv + ["--maturity", "12.25", "--out", str(tmp_path / "cli")]) == 0
        written = sorted((tmp_path / "cli").iterdir())
        assert [f.name for f in written] == [f.name for f in files]
        for ours, theirs in zip(files, written):
            assert ours.read_bytes() == theirs.read_bytes(), ours.name

    def test_market_curve_round_trip(self, tmp_path):
        target = tmp_path / "market.csv"
        target.write_text("maturity,price\n1.0,0.94\n2.0,0.85\n\n3.0,0.71\n")
        curve = read_market_curve(target)
        assert curve.maturities == (1.0, 2.0, 3.0)
        assert curve.prices == (0.94, 0.85, 0.71)

    def test_market_curve_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_market_curve(empty)
        bad_header = tmp_path / "bad_header.csv"
        bad_header.write_text("tenor,df\n1.0,0.9\n")
        with pytest.raises(ValueError, match="header"):
            read_market_curve(bad_header)
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text("maturity,price\n1.0,zebra\n")
        with pytest.raises(ValueError, match="line 2"):
            read_market_curve(bad_row)
        no_rows = tmp_path / "no_rows.csv"
        no_rows.write_text("maturity,price\n")
        with pytest.raises(ValueError, match="no data"):
            read_market_curve(no_rows)
