import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chaosrates import (
    AtomGrid,
    DiscountCurve,
    calibrate_weights,
    initial_curve,
    read_market_curve,
    simulate_paths,
    write_paths_csv,
)

QUARTER = (Fraction(1, 4),) * 4
TEN_YEARS = AtomGrid(tuple(float(i) for i in range(1, 11)), 11.0, (0.08,) * 10 + (0.2,))


class TestAtomGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            AtomGrid((), 1.0, (1.0,))
        with pytest.raises(ValueError):
            AtomGrid((0.0, 1.0), 2.0, (0.3, 0.3, 0.4))
        with pytest.raises(ValueError):
            AtomGrid((1.0, 1.0), 2.0, (0.3, 0.3, 0.4))
        with pytest.raises(ValueError):
            AtomGrid((1.0, 2.0), 2.0, (0.3, 0.3, 0.4))
        with pytest.raises(ValueError):
            AtomGrid((1.0, 2.0), 3.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            AtomGrid((1.0, 2.0), 3.0, (0.5, 0.7, -0.2))
        with pytest.raises(ValueError):
            AtomGrid((1.0, 2.0), 3.0, (0.5, 0.3, 0.3))

    def test_atom_times_appends_horizon(self):
        grid = AtomGrid((1.0, 2.0), 5.0, (0.2, 0.3, 0.5))
        assert grid.atom_times == (1.0, 2.0, 5.0)

    def test_cumulative_weight_is_a_right_continuous_step(self):
        grid = AtomGrid((1.0, 2.0), 5.0, QUARTER[:2] + (Fraction(1, 2),))
        assert grid.cumulative_weight(0.5) == 0
        assert grid.cumulative_weight(1.0) == Fraction(1, 4)
        assert grid.cumulative_weight(1.7) == Fraction(1, 4)
        assert grid.cumulative_weight(2.0) == Fraction(1, 2)
        assert grid.cumulative_weight(5.0) == 1

    def test_fraction_weights_stay_exact(self):
        grid = AtomGrid((1.0, 2.0, 3.0), 4.0, QUARTER)
        q = grid.cumulative_weight(2.5)
        assert isinstance(q, Fraction) and q == Fraction(1, 2)

    def test_structure_function_agrees(self):
        grid = AtomGrid((1.0, 2.0, 3.0), 4.0, QUARTER)
        sf = grid.structure_function()
        for t in (0.5, 1.0, 2.2, 4.0, 9.0):
            assert sf.q_at(t) == grid.cumulative_weight(t)


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

    def test_price_at_steps(self):
        curve = DiscountCurve((1.0, 3.0), (0.9, 0.7))
        assert curve.price_at(0.5) == 1
        assert curve.price_at(1.0) == 0.9
        assert curve.price_at(2.0) == 0.9
        assert curve.price_at(3.0) == 0.7
        assert curve.price_at(10.0) == 0.7


class TestInitialCurve:
    def test_exact_rational_curve(self):
        grid = AtomGrid((1.0, 2.0, 3.0), 4.0, QUARTER)
        curve = initial_curve(grid, 2)
        assert curve.prices == (
            Fraction(15, 16),
            Fraction(3, 4),
            Fraction(7, 16),
            Fraction(0, 1),
        )
        assert all(isinstance(p, Fraction) for p in curve.prices)

    def test_curve_maturities_include_horizon(self):
        grid = AtomGrid((1.0, 2.0, 3.0), 4.0, QUARTER)
        assert initial_curve(grid, 3).maturities == (1.0, 2.0, 3.0, 4.0)

    def test_order_one_is_one_minus_cumulative(self):
        grid = AtomGrid((1.0, 2.0), 5.0, (0.2, 0.3, 0.5))
        curve = initial_curve(grid, 1)
        assert curve.prices == pytest.approx((0.8, 0.5, 0.0), abs=1e-15)

    def test_rejects_bad_order(self):
        # True is an int equal to 1, but no model accepts it as a chaos order
        curve = DiscountCurve((1.0, 2.0), (0.9, 0.8))
        for bad in (0, 21, 1.5, True):
            with pytest.raises(ValueError, match="chaos order"):
                initial_curve(TEN_YEARS, bad)
            with pytest.raises(ValueError, match="chaos order"):
                calibrate_weights(curve, bad)
            with pytest.raises(ValueError, match="chaos order"):
                simulate_paths(TEN_YEARS, bad, 7.0, 2, 1)


class TestCalibration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        grid = AtomGrid((1.0, 2.0, 4.0), 6.0, (0.3, 0.25, 0.25, 0.2))
        full = initial_curve(grid, n)
        market = DiscountCurve(full.maturities[:-1], tuple(float(p) for p in full.prices[:-1]))
        back = calibrate_weights(market, n, horizon=6.0)
        assert back.maturities == grid.maturities
        assert back.horizon == 6.0
        assert back.weights == pytest.approx(grid.weights, abs=1e-13)

    def test_reproduces_market(self):
        market = DiscountCurve((1.0, 2.0, 3.0), (0.94, 0.85, 0.71))
        for n in (1, 2, 4):
            grid = calibrate_weights(market, n)
            curve = initial_curve(grid, n)
            for T, P in zip(market.maturities, market.prices):
                assert curve.price_at(T) == pytest.approx(P, abs=1e-14)

    def test_default_horizon(self):
        market = DiscountCurve((1.0, 3.0), (0.9, 0.7))
        assert calibrate_weights(market, 2).horizon == 4.0

    def test_single_bond(self):
        grid = calibrate_weights(DiscountCurve((5.0,), (0.64,)), 2)
        assert grid.weights == pytest.approx((0.6, 0.4), abs=1e-15)

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
        grid = calibrate_weights(market, n)
        curve = initial_curve(grid, n)
        for T, P in zip(mats, prices):
            assert curve.price_at(T) == pytest.approx(P, abs=1e-12)


class TestSimulation:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 2, 7.0, 0, 1)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 2, 0.0, 1, 1)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 2, 10.5, 1, 1)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 2, 7.0, 1, -3)
        with pytest.raises(ValueError):
            simulate_paths(TEN_YEARS, 0, 7.0, 1, 1)

    def test_seed_reproducibility(self):
        a = simulate_paths(TEN_YEARS, 2, 7.0, 3, 42)
        b = simulate_paths(TEN_YEARS, 2, 7.0, 3, 42)
        for field in ("segment_starts", "brackets", "values", "kernels", "bond_prices"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_path_stream_is_independent_of_count(self):
        many = simulate_paths(TEN_YEARS, 2, 7.0, 3, 77)
        few = simulate_paths(TEN_YEARS, 2, 7.0, 2, 77)
        assert np.array_equal(many.values[:2], few.values)
        assert np.array_equal(many.kernels[:2], few.kernels)

    def test_horizon_placement_is_invisible(self):
        far = AtomGrid(TEN_YEARS.maturities, 25.0, TEN_YEARS.weights)
        a = simulate_paths(TEN_YEARS, 2, 7.0, 2, 9)
        b = simulate_paths(far, 2, 7.0, 2, 9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.brackets, b.brackets)
        assert np.array_equal(a.kernels, b.kernels)
        assert np.array_equal(a.bond_prices, b.bond_prices)
        assert np.array_equal(a.segment_starts[:-1], b.segment_starts[:-1])
        assert (a.segment_starts[-1], b.segment_starts[-1]) == (11.0, 25.0)

    def test_path_shape(self):
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 3, 5)
        m = len(TEN_YEARS.weights) + 1
        assert len(paths) == 3
        assert paths.bond_maturity == 7.0
        assert paths.segment_starts.shape == paths.brackets.shape == (m,)
        for a in (paths.values, paths.kernels, paths.bond_prices):
            assert a.shape == (3, m)
        assert paths.segment_starts[0] == 0.0
        assert np.all(paths.values[:, 0] == 0.0)
        assert tuple(paths.segment_starts[1:].tolist()) == TEN_YEARS.atom_times

    def test_batch_is_read_only(self):
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 2, 5)
        for a in (paths.segment_starts, paths.brackets, paths.values, paths.kernels, paths.bond_prices):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_batch_holds_only_its_arrays(self):
        # the returned batch is its five arrays and nothing else: no per-path
        # Python objects
        simulate_paths(TEN_YEARS, 2, 7.0, 2, 1)  # warm module-level caches
        tracemalloc.start()
        try:
            paths = simulate_paths(TEN_YEARS, 2, 7.0, 20_000, 314159)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (paths.segment_starts, paths.brackets, paths.values, paths.kernels, paths.bond_prices)
        nbytes = sum(a.nbytes for a in arrays)
        assert abs(held - nbytes) <= 2**20, (held, nbytes)

    def test_brackets_follow_the_grid(self):
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 1, 5)
        assert paths.brackets[0] == 0.0
        assert paths.brackets[5] == pytest.approx(0.4, abs=1e-15)
        assert paths.brackets[-1] == 1.0

    def test_kernel_boundary_values(self):
        for n in (1, 2, 3):
            paths = simulate_paths(TEN_YEARS, n, 7.0, 1, 5)
            assert paths.kernels[0, 0] == 1.0 / math.factorial(n)
            assert paths.kernels[0, -1] == 0.0

    def test_kernels_stay_positive_before_horizon(self):
        paths = simulate_paths(TEN_YEARS, 3, 7.0, 50, 8)
        assert np.all(paths.kernels[:, :-1] > 0.0)

    def test_bond_settles_at_par(self):
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 20, 3)
        settled = paths.segment_starts >= 7.0
        assert np.all(paths.bond_prices[:, settled] == 1.0)
        assert np.all(paths.bond_prices[:, ~settled] > 0.0)

    def test_initial_bond_price_matches_curve(self):
        curve = initial_curve(TEN_YEARS, 2)
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 1, 5)
        want = float(curve.price_at(7.0)) / 1.0  # P(0,7) read off the curve
        # first segment: pi_0 P(0,T) with pi_0 = 1/2
        assert paths.bond_prices[0, 0] * paths.kernels[0, 0] == pytest.approx(0.5 * want, rel=1e-13)

    def test_increment_distribution(self):
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 4000, 123)
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


THIRTY_ATOMS = AtomGrid(tuple(0.5 * i for i in range(1, 31)), 16.0, (0.025,) * 30 + (0.25,))


class TestCsvRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        paths = simulate_paths(TEN_YEARS, 2, 7.0, 3, 11)
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

        paths = simulate_paths(TEN_YEARS, 3, 7.0, 4, 12)
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
        "grid, n, maturity, seed, count, digest",
        [
            (TEN_YEARS, 2, 7.0, 11, 3, "79ec6ee425f564cea0a955ecfb6e943afed7af3500e9a7d7f18552c54abaa245"),
            (THIRTY_ATOMS, 5, 12.25, 2026, 40, "7b6eb3570be9e15ec8f81254285eb3f4a376a069b1e632a5f14ba9fdcd0150b4"),
            (
                AtomGrid((1.0, 2.0, 3.0), 4.0, QUARTER),
                3,
                2.5,
                2**64 - 1,
                7,
                "6afd4d3fc59daeb3175cca66b37647189f92ee359b0c08994d51d5c6dae05946",
            ),
        ],
    )
    def test_golden_bytes(self, tmp_path, grid, n, maturity, seed, count, digest):
        # SHA-256 over every file name and its bytes: the (seed, j) streams and
        # the CSV format must not move.  Re-pinned when pi and P moved from the
        # linearised even-order kernel sum to the product formula's sum of
        # squares (pair_sum): the time, R and Q bytes stayed identical, only
        # pi and P cells moved, and each file set's worst error against a
        # 60-digit reference fell
        files = write_paths_csv(simulate_paths(grid, n, maturity, count, seed), tmp_path / "out")
        assert len(files) == count
        assert _digest(files) == digest

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
