"""Tests of the benchmark itself: tiny runs emit every metric, and every
correctness check rejects a deliberately corrupted output.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    result, report = run.run(workload, seed=7, seconds=0.05, trace=trace, tiny=True, probes=1)
    assert result["correct"], report["breaches"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    env = report["environment"]
    for key in ("cpu_model", "nproc", "caches", "python", "numpy", "scipy", "seed", "output_file_system"):
        assert key in env
    assert env["reference_ms_before"] > 0 and env["reference_ms_after"] > 0


def test_traced_run_finds_the_dominant_layer():
    expected = {"analytic_book": "polynomial_pricer", "mc_oracle": "coherent_model"}
    for workload, layer in expected.items():
        result, _ = run.run(workload, seed=3, seconds=0.05, trace=True, tiny=True, probes=1)
        self_ms = {name[: -len(".self_ms")]: e["value"] for name, e in result["metrics"].items() if name.endswith(".self_ms")}
        assert max(self_ms, key=self_ms.get) == layer, self_ms


def test_no_book_op_fails_and_every_capped_contract_hits_the_degree_cap(tmp_path):
    book = wl.AnalyticBook(5, tmp_path, tiny=True)
    m = run.measure(book, float("inf"), max_units=len(book.units))
    m.resolve()
    assert (m.failed, m.breaches) == (0, [])
    assert {op.n for unit in book.units for op in unit if op.kind in ("call", "swaption")} == set(book.PRICED_ORDERS)
    assert {(op.kind, op.n) for op in book.defect_ops} == {("call", 20), ("swaption", 20)}
    run.count_defects(book, m)
    assert m.stats["degree_cap_failures"] == book.CAPPED == len(book.defect_ops)
    assert not m.breaches


def test_each_op_counts_once_at_the_90th_percentile_of_its_runs():
    m = run.Measurement()
    for latencies, cpu_times in (((0.004, 0.001), (0.003, 0.001)), ((0.002, 0.003), (0.002, 0.002))):
        unit = run.Unit(wall=sum(latencies), ok=2, op_labels=["a", "b"])
        unit.latencies.extend(latencies)
        unit.cpu_times.extend(cpu_times)
        m.units.append(unit)
    m.attempted = 4
    metrics, details = run.end_to_end(m, [{"ready_s": 1.0}], 100.0)
    # a: runs of 4 and 2 ms -> 3.8 ms; b: 1 and 3 ms -> 2.8 ms
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.0066)
    assert metrics["op_p50_ms"] == pytest.approx(3.3)
    assert metrics["cpu_ms_per_op"] == pytest.approx((2.9 + 1.9) / 2)
    assert (details["op_tail_samples"], details["runs_per_op"]) == (2, 2.0)
    assert run.repeat_quantile([5.0]) == 5.0


# ------------------------------------------------------------ corruptions


def _verdict(check, op, out, stats=None):
    """Run a check to the end, the deferred reference part included."""
    try:
        check(op, out, {} if stats is None else stats)
    except wl.NeedsReference as deferred:
        deferred.resolve()


def _analytic(kind, n, family="exponential", seed=11):
    op = wl.AnalyticBook._make(np.random.default_rng(seed), kind, n, family, 0, "0")
    out = wl.AnalyticBook.run(op)
    _verdict(wl.AnalyticBook.check, op, out)
    return op, out


def _rejects(check, op, out):
    with pytest.raises(wl.CheckFailure, match=op.label.split()[0]):
        _verdict(check, op, out)


@pytest.mark.parametrize("n", [2, 3])
def test_call_price_moved_by_1e3_fails_the_quadrature_check(n):
    op, (price, delta) = _analytic("call", n)
    _rejects(wl.AnalyticBook.check, op, (price + 1e-3, delta))
    _rejects(wl.AnalyticBook.check, op, (price, math.nan))


def test_call_above_its_bond_fails_the_bound_check():
    op, (price, delta) = _analytic("call", 8)
    bond = wl.cr.initial_bond_price(op.payload["model"], op.payload["spec"].bond_maturity)
    _rejects(wl.AnalyticBook.check, op, (bond * (1 + 1e-3), delta))


def test_swaption_corruptions_fail():
    op, price = _analytic("swaption", 2)
    _rejects(wl.AnalyticBook.check, op, price + 1e-3)
    op, price = _analytic("swaption", 8)
    spec, model = op.payload["spec"], op.payload["model"]
    cap = wl.cr.initial_bond_price(model, spec.option_maturity) - wl.cr.initial_bond_price(model, spec.payment_dates[-1])
    _rejects(wl.AnalyticBook.check, op, cap * (1 + 1e-3))


def test_bound_violation_is_relative_to_the_bound_but_not_to_a_near_zero_one():
    op = wl.Op("call", 3, "call#0", {})
    stats = {}
    wl._check_bounds(op, 1.0 + 5e-7, 0.0, 1.0, stats)
    assert stats["bound_violation_max"] == pytest.approx(5e-7)
    wl._check_bounds(op, 1e-300, 1e-300 + 1e-16, 1.0, stats)  # within the 1e-15 absolute tolerance
    assert stats["bound_violation_max"] == pytest.approx(5e-7)


def test_bond_prices_outside_the_unit_interval_fail():
    op, (bond, rate, premium) = _analytic("state", 5)
    _rejects(wl.AnalyticBook.check, op, (1.0 + 1e-3, rate, premium))
    _rejects(wl.AnalyticBook.check, op, (0.0, rate, premium))
    op, bond = _analytic("incoherent", 3)
    _rejects(wl.AnalyticBook.check, op, 1.0 + 1e-3)


def _mc_op(tmp_path, slot, seed=5):
    oracle = wl.McOracle(seed, tmp_path, tiny=True)
    op = oracle._make(np.random.default_rng(seed), slot, 0)
    out = wl.McOracle.run(op)
    _verdict(wl.McOracle.check, op, out)
    return op, out


def test_mc_price_moved_by_1e3_fails(tmp_path):
    op, out = _mc_op(tmp_path, ("mc_call", 3, 200_000, None))
    shift = max(1e-3, 10 * out["stderr"])
    _rejects(wl.McOracle.check, op, {**out, "price": out["price"] + shift})
    op, out = _mc_op(tmp_path, ("inc_call", 2, 200_000, "one_plus_n"))
    _rejects(wl.McOracle.check, op, {**out, "price": out["price"] + 1.0})


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_quadrature_moved_by_1e3_fails(tmp_path, shift):
    op, out = _mc_op(tmp_path, ("quad_call", 2, None, None))
    _rejects(wl.McOracle.check, op, {**out, "price": out["price"] + shift})


# a payoff positive only beyond |z| = 5.3: quadrature_price reads ~0
TAIL_ONLY = wl.cr.RealPolynomial((-0.024202857750348004, 0.0, -0.0266206923565113, 0.0, 0.0009802293230247343))


def test_contracts_beyond_an_oracles_reach_are_drawn_again(tmp_path):
    assert wl.beyond_reach(TAIL_ONLY, wl.QUADRATURE_TAIL, None) == math.inf
    assert wl.beyond_reach(TAIL_ONLY, wl.mc_tail(200_000), 200_000) > wl.MC_SIGMAS
    constant = wl.cr.RealPolynomial((0.3,))  # MC prices it exactly
    assert wl.beyond_reach(constant, wl.QUADRATURE_TAIL, None) == 0.0
    assert wl.beyond_reach(constant, wl.mc_tail(200_000), 200_000) <= 1.0
    oracle = wl.McOracle(2, tmp_path)
    assert 0 < len(oracle.defect_ops) <= oracle.DEFECT_OPS
    assert all(op.kind.startswith("mc") and op.payload["left_out"] for op in oracle.defect_ops)
    assert not any("left_out" in op.payload for unit in oracle.rounds for op in unit)


def test_tail_miss_is_a_known_defect_and_other_misses_are_breaches():
    poly = TAIL_ONLY
    ref, tail = wl.reference_price(poly, 3)
    assert ref == pytest.approx(4.4491181216783429e-08, rel=1e-9)  # 50-digit mpmath value
    assert tail == pytest.approx(ref)
    quad = wl.cr.quadrature_price(poly, 3)
    assert quad < ref - 1e-8
    op = wl.Op("quad_call", 3, "quad_call#0", {})

    def classify(value, closed, stats=None, **kw):
        with pytest.raises(wl.NeedsReference) as deferred:
            wl._oracle_miss(op, "quadrature", value, closed, 1e-15, poly, 3, {} if stats is None else stats, **kw)
        deferred.value.resolve()

    stats = {}
    with pytest.raises(wl.KnownDefect):
        classify(quad, ref, stats)
    assert len(stats["quadrature_misses"]) == 1
    for value, closed in ((ref + 1e-3, ref), (quad, ref + 1e-3)):
        with pytest.raises(wl.CheckFailure):
            classify(value, closed, known_rel=1e-3)
    # within the oracle's documented relative accuracy, on either side
    with pytest.raises(wl.KnownDefect):
        classify(ref * (1 + 5e-4), ref, known_rel=1e-3)
    # where the oracle is only the check's value (analytic_book), a miss is
    # recorded and the op passes when the closed form matches the reference
    stats = {}
    for value in (quad, ref * (1 + 0.05)):
        classify(value, ref, stats, known_rel=1e-3, fails_op=False)
    assert len(stats["quadrature_misses"]) == 2
    with pytest.raises(wl.CheckFailure):
        classify(ref, ref + 1e-3, fails_op=False)


def test_known_defect_found_after_the_run_fails_every_run_of_its_op():
    op = wl.Op("mc_call", 2, "mc_call#0", {})

    def known():
        raise wl.KnownDefect(op.label)

    class Deferred:
        def unit(self, index):
            return [op]

        def run(self, op):
            return 1.0

        def check(self, op, out, stats):
            raise wl.NeedsReference(known)

    m = run.measure(Deferred(), float("inf"), max_units=3)
    assert (m.failed, len(m.pending)) == (0, 1)
    m.resolve()
    assert (m.failed, [u.ok for u in m.units], m.known_defects) == (3, [0, 0, 0], [op.label])
    assert not m.breaches


def _path_op(tmp_path):
    op = wl._path_op(np.random.default_rng(9), tmp_path, 2, 20, 10, "path#0 n=2 atoms=20")
    out = wl.McOracle.run(op)
    _verdict(wl.McOracle.check, op, out)
    return op, out


def _edit_csv(path, row, col, delta):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_path_chain_curve_moved_by_1e3_fails(tmp_path):
    op, (model, curve, sim) = _path_op(tmp_path)
    lines = curve.splitlines()
    t, price = lines[2].split(",")
    lines[2] = f"{t},{float(price) + 1e-3!r}"
    _rejects(wl.McOracle.check, op, (model, "\n".join(lines), sim))


def test_path_chain_missing_or_short_file_fails(tmp_path):
    op, out = _path_op(tmp_path)
    files = sorted(Path(op.payload["out"]).iterdir())
    files[-1].write_text(files[-1].read_text() + "1.0,0.0,1.0,0.0,1.0\n")
    _rejects(wl.McOracle.check, op, out)
    files[-1].unlink()
    _rejects(wl.McOracle.check, op, out)


@pytest.mark.parametrize("row, col", [(3, 2), (1, 4), (2, 1)], ids=["Q", "first_P", "R"])
def test_path_chain_column_moved_by_1e3_fails(tmp_path, row, col):
    op, out = _path_op(tmp_path)
    probe = sorted(Path(op.payload["out"]).iterdir())[op.payload["probe"]]
    _edit_csv(probe, row, col, 1e-3)
    _rejects(wl.McOracle.check, op, out)


def test_repeated_op_with_a_different_output_is_a_breach(tmp_path):
    book = wl.AnalyticBook(2, tmp_path, tiny=True)
    op = next(op for op in book.unit(0) if op.kind == "swaption" and op.n == 3)

    class Drifting:
        calls = 0

        def unit(self, index):
            return [op]

        def run(self, op):
            self.calls += 1
            return wl.AnalyticBook.run(op) + 1e-12 * self.calls

        check = staticmethod(wl.AnalyticBook.check)

    m = run.measure(Drifting(), float("inf"), max_units=2)
    assert m.breaches == [f"{op.label}: output changed between passes"]


def test_rounds_are_checked_and_counted_apart_and_repeat_identically(tmp_path):
    oracle = wl.McOracle(4, tmp_path, tiny=True)
    m = run.measure(oracle, float("inf"), max_units=oracle.ROUNDS + 1)
    m.resolve()
    assert not m.breaches  # a repeated op reproduces its first output
    metrics, details = run.end_to_end(m, [{"ready_s": 1.0}], 100.0)
    assert details["op_tail_samples"] == oracle.ROUNDS * len(wl.McOracle.SLOTS)
    assert m.attempted == (oracle.ROUNDS + 1) * len(wl.McOracle.SLOTS)
