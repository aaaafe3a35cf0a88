"""Benchmark for chaosrates: one seeded workload per invocation.

    python3 bench/run.py --workload analytic_book --seed 1 --seconds 30 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
The package is imported from ``src/``; nothing needs installing.

With ``--trace 0`` the run measures the end-to-end metrics: it warms up,
then cycles whole units of the workload until ``--seconds`` of op time
have passed, one op at a time, and between units times a fresh interpreter
to ready several times (``setup_s``); each op is timed at the 90th
percentile of its runs.  With ``--trace 1`` it runs a fixed number of units
once untimed, once running each op plain and traced back to back
(``trace.overhead_ratio``), and once with spans around every traced
function, prices the workload's defect ops once, and reports the per-layer
metrics.  Every
output is checked outside the timed region; a breach names the op and
makes the run exit 1.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full report, with the
environment record, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

# one client and no worker threads: numerical libraries run single-threaded
# (set before numpy loads; the set-up probes inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracing import LAYERS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
TRACE_UNITS = {"analytic_book": 2, "mc_oracle": 1}
MIN_TAIL_BEYOND = 10
REPEAT_QUANTILE = 0.9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in (("busy_ms", "ms"), ("self_ms", "ms"), ("calls", "count"))},
    "structure_functions.q_at.calls": "count",
    "structure_functions.q_at.busy_ms": "ms",
    "structure_functions.residual_inner_product.busy_ms": "ms",
    "special_functions.gaussian_partial_moments.calls": "count",
    "special_functions.gaussian_partial_moments.busy_ms": "ms",
    "coherent_model.state_valuation.busy_ms": "ms",
    "coherent_model.chaos_value.array_ns_per_elem": "ns",
    "polynomial_pricer.payoff_build.busy_ms": "ms",
    "polynomial_pricer.positive_part.calls": "count",
    "polynomial_pricer.positive_part.busy_ms": "ms",
    "polynomial_pricer.call_delta.busy_ms": "ms",
    "polynomial_pricer.companion_share": "ratio",
    "polynomial_pricer.roots_per_payoff": "count",
    "polynomial_pricer.degree_cap_failures": "count",
    "polynomial_pricer.bound_violation_max": "ratio",
    "incoherent_model.multi_state_at.busy_ms": "ms",
    "incoherent_model.incoherent_bond_price.busy_ms": "ms",
    "simulation_oracle.mc_price.busy_ms": "ms",
    "simulation_oracle.mc_price.samples": "count",
    "simulation_oracle.mc_price.ns_per_sample": "ns",
    "simulation_oracle.quadrature_price.calls": "count",
    "simulation_oracle.quadrature_price.busy_ms": "ms",
    "simulation_oracle.quadrature_price.misses": "count",
    "simulation_oracle.mc_price.misses": "count",
    "finite_dim.read_market_curve.busy_ms": "ms",
    "finite_dim.calibrate_weights.busy_ms": "ms",
    "finite_dim.initial_curve.busy_ms": "ms",
    "finite_dim.simulate_paths.busy_ms": "ms",
    "finite_dim.simulate_paths.paths": "count",
    "finite_dim.write_paths_csv.busy_ms": "ms",
    "finite_dim.write_paths_csv.files": "count",
    "finite_dim.write_paths_csv.bytes": "bytes",
    "cli.main.calls": "count",
    "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def import_package() -> None:
    """Put ``src/`` first on the path; exit 2 when the sources are missing."""
    if not (SRC / "chaosrates" / "__init__.py").is_file():
        print(f"error: no chaosrates sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ------------------------------------------------------------- environment


def reference_loop_ms() -> float:
    """A fixed pure-Python plus numpy loop; its time tracks host speed."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return (time.perf_counter() - t0) * 1e3


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _file_system(path: Path) -> dict:
    """Mount point and type of the file system holding path (from mountinfo)."""
    best = ("", "unknown")
    for line in _read("/proc/self/mountinfo").splitlines():
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best[0]):
            best = (mount, right.split()[0])
    return {"mount": best[0], "type": best[1]}


def environment(seed: int) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "chaosrates").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "output_file_system": _file_system(OUT),
        "loadavg": os.getloadavg(),
    }


# ------------------------------------------------------------------ set-up


class SetupProbe:
    """Times fresh interpreters from spawn to ready (imports plus warm-up).

    The warm-up inputs are generated once, here, and handed to each probe
    as a pickle; the probe's time to load them is not part of ``ready_s``.
    """

    def __init__(self, workload: str, workdir: Path):
        from workloads import WORKLOADS

        self.workload = workload
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = workdir / "warm_up.pickle"
        self.inputs.write_bytes(pickle.dumps(WORKLOADS[workload].warm_up_ops(workdir)))
        self.results: list = []

    def __call__(self) -> None:
        from workloads import clear_outputs

        clear_outputs(self.workdir)  # each probe writes fresh files, as the ops do
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), self.workload, str(self.inputs)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or not line:
            raise RuntimeError(f"set-up probe for {self.workload} exited with {rc}")
        times = json.loads(line)
        self.results.append({"ready_s": ready - times["harness_s"], **times})


# ----------------------------------------------------------------- measure


@dataclass
class Unit:
    """Totals and per-op latencies of one unit of ops."""

    wall: float = 0.0  # op time, s
    ok: int = 0
    latencies: array = field(default_factory=lambda: array("d"))  # of every op
    cpu_times: array = field(default_factory=lambda: array("d"))  # of every op
    op_labels: list = field(default_factory=list)


class Measurement:
    """Per-unit results of one pass over whole units."""

    def __init__(self):
        self.units: list[Unit] = []
        self.attempted = 0
        self.failed = 0
        self.breaches: list[str] = []
        self.known_defects: list[str] = []
        self.stats: dict = {}
        self.pending: list = []  # (op label, NeedsReference.resolve)
        self.failed_labels: set = set()

    @property
    def op_seconds(self) -> float:
        return sum(u.wall for u in self.units)

    def resolve(self) -> None:
        """Finish the deferred checks; a known defect fails every run of its op."""
        from workloads import CheckFailure, KnownDefect

        for label, resolve in self.pending:
            try:
                resolve()
            except CheckFailure as e:
                self.breaches.append(str(e))
            except KnownDefect as e:
                self.known_defects.append(str(e))
                self.failed_labels.add(label)
                for u in self.units:
                    runs = u.op_labels.count(label)
                    u.ok -= runs
                    self.failed += runs
        self.pending.clear()


def measure(work, seconds: float, max_units: int | None = None, tracer=None, between_units=None) -> Measurement:
    """Run whole units until `seconds` of op time or `max_units` units.

    `between_units(m)`, when given, is called after each unit but the last.

    Each op's output is checked once, after the op and outside its timing
    (and outside any span); a repeat of an op already checked must reproduce
    the first output.  Checks that need the reference integrator wait in
    ``m.pending`` for ``m.resolve()``.
    """
    m = Measurement()
    first_output = {}
    index = 0
    while True:
        unit = Unit()
        ops = work.unit(index)
        for op in ops:
            err = out = None
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                out = tracer.run_op(m.attempted, op.kind, work.run, op) if tracer else work.run(op)
            except Exception as e:  # an op that raises is counted, not fatal
                err = e
            c1 = time.process_time()
            t1 = time.perf_counter()
            unit.wall += t1 - t0
            unit.latencies.append(t1 - t0)
            unit.cpu_times.append(c1 - c0)
            unit.op_labels.append(op.label)
            m.attempted += 1
            if err is None:
                _check(work, op, out, first_output, m, tracer)
                unit.ok += 1
                continue
            m.failed += 1
            m.failed_labels.add(op.label)
            m.breaches.append(f"{op.label}: raised {type(err).__name__}: {err}")
        m.units.append(unit)
        index += 1
        if (max_units is not None and index >= max_units) or m.op_seconds >= seconds:
            return m
        if between_units is not None:
            between_units(m)


def _check(work, op, out, first_output: dict, m: Measurement, tracer) -> None:
    """Check one output: record a breach, or defer the check to m.pending."""
    from workloads import CheckFailure, NeedsReference

    if op.label in first_output:
        if first_output[op.label] != out:
            m.breaches.append(f"{op.label}: output changed between passes")
        return
    first_output[op.label] = out
    try:
        with tracer.paused() if tracer else contextlib.nullcontext():
            work.check(op, out, m.stats)
    except CheckFailure as e:
        m.breaches.append(str(e))
    except NeedsReference as e:
        m.pending.append((op.label, e.resolve))


def tracing_overhead(work, units: int, workdir: Path) -> float:
    """Traced op time over plain op time for `units` units.

    Each op runs plain and traced back to back, alternating which goes
    first, so that drift in host speed between passes cancels out.
    """
    from workloads import clear_outputs

    tracer = Tracer()
    op_seconds = {False: 0.0, True: 0.0}
    for index in range(units):
        for i, op in enumerate(work.unit(index)):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                clear_outputs(workdir)  # both runs write fresh files
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    tracer.run_op(i, op.kind, work.run, op) if traced else work.run(op)
                except Exception:  # failed ops take their time in both runs
                    pass
                op_seconds[traced] += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
    return op_seconds[True] / op_seconds[False]


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns (latency, percentile, sample count).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - MIN_TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def rss_mb() -> float:
    """Current resident memory of this process."""
    pages = int(_read("/proc/self/statm").split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def repeat_quantile(xs) -> float:
    """The REPEAT_QUANTILE point of one op's run times (linear interpolation)."""
    xs = sorted(xs)
    k = (len(xs) - 1) * REPEAT_QUANTILE
    i = int(k)
    return xs[i] + (xs[min(i + 1, len(xs) - 1)] - xs[i]) * (k - i)


def end_to_end(m: Measurement, probes: list, peak_rss_mb: float) -> tuple:
    """The end-to-end metrics of one measured pass.

    The workloads cycle their units, so every op runs many times in a run.
    Each op that passed counts once, at the 90th percentile of its run times
    (wall and CPU time apart).  The host switches, for tens of seconds at a
    time, between a fast state and one about 1.8 times slower; every run
    recorded spent at least 15% of its time in the slow state, while its
    share of fast time ranged from none to 69%.  The 90th percentile reads
    the slow state in nearly every run; the fastest run or the median reads
    the mix, which differs from run to run.
    """
    runs: dict = {}
    for u in m.units:
        for label, wall, cpu in zip(u.op_labels, u.latencies, u.cpu_times):
            if label not in m.failed_labels:
                runs.setdefault(label, ([], []))
                runs[label][0].append(wall)
                runs[label][1].append(cpu)
    walls = [repeat_quantile(w) for w, _ in runs.values()]
    cpus = [repeat_quantile(c) for _, c in runs.values()]
    value, percentile, samples = tail(walls)
    metrics = {
        "setup_s": statistics.median(p["ready_s"] for p in probes),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": value * 1e3,
        "ok_ratio": (m.attempted - m.failed) / m.attempted,
        "cpu_ms_per_op": 1e3 * sum(cpus) / len(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "op_tail_percentile": percentile,
        "op_tail_samples": samples,
        "fail_ratio": m.failed / m.attempted,
        "units": len(m.units),
        "runs_per_op": m.attempted / (len(runs) + len(m.failed_labels)),
        "op_seconds": m.op_seconds,
        "unit_ops_per_s": [u.ok / u.wall for u in m.units],
    }
    return metrics, details


def count_defects(work, m: Measurement) -> None:
    """Run the workload's defect ops once, untimed and untraced.

    They are the contracts the timed ops leave out because a known defect
    makes them fail (ROADMAP D4) or lie beyond an oracle's reach; they count
    those defects into ``m.stats``.
    """
    from workloads import CheckFailure, NeedsReference

    for op in work.defect_ops:
        try:
            work.run_defect_op(op, m.stats)
        except CheckFailure as e:
            m.breaches.append(str(e))
        except NeedsReference as e:
            m.pending.append((op.label, e.resolve))
        except Exception as e:
            m.breaches.append(f"{op.label}: raised {type(e).__name__}: {e}")


def per_layer(summary: dict, counters, stats: dict, probes: list, overhead: float) -> dict:
    names = summary["names"]

    def busy(name):
        return names.get(name, {}).get("busy_s", 0.0) * 1e3

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer, d in summary["layers"].items():
        m[f"{layer}.busy_ms"] = d["busy_s"] * 1e3
        m[f"{layer}.self_ms"] = d["self_s"] * 1e3
        m[f"{layer}.calls"] = d["calls"]
    payoffs = counters["polynomial_pricer.payoffs"]
    samples = counters["simulation_oracle.mc_price.samples"]
    m.update(
        {
            "structure_functions.q_at.calls": calls("structure_functions.q_at"),
            "structure_functions.q_at.busy_ms": busy("structure_functions.q_at"),
            "structure_functions.residual_inner_product.busy_ms": busy("structure_functions.residual_inner_product"),
            "special_functions.gaussian_partial_moments.calls": calls("special_functions.gaussian_partial_moments"),
            "special_functions.gaussian_partial_moments.busy_ms": busy("special_functions.gaussian_partial_moments"),
            "coherent_model.state_valuation.busy_ms": summary["layer_busy_by_op_kind"].get("state", {}).get("coherent_model", 0.0) * 1e3,
            "coherent_model.chaos_value.array_ns_per_elem": ratio(
                1e9 * counters["coherent_model.chaos_value.array_s"], counters["coherent_model.chaos_value.array_elems"]
            ),
            "polynomial_pricer.payoff_build.busy_ms": busy("polynomial_pricer.payoff_build"),
            "polynomial_pricer.positive_part.calls": calls("polynomial_pricer.positive_part"),
            "polynomial_pricer.positive_part.busy_ms": busy("polynomial_pricer.positive_part"),
            "polynomial_pricer.call_delta.busy_ms": busy("polynomial_pricer.call_delta"),
            "polynomial_pricer.companion_share": ratio(counters["polynomial_pricer.companion_payoffs"], payoffs),
            "polynomial_pricer.roots_per_payoff": ratio(counters["polynomial_pricer.roots"], payoffs),
            "polynomial_pricer.degree_cap_failures": stats.get("degree_cap_failures", 0),
            "polynomial_pricer.bound_violation_max": stats.get("bound_violation_max", 0.0),
            "incoherent_model.multi_state_at.busy_ms": busy("incoherent_model.multi_state_at"),
            "incoherent_model.incoherent_bond_price.busy_ms": busy("incoherent_model.incoherent_bond_price"),
            "simulation_oracle.mc_price.busy_ms": busy("simulation_oracle.mc_price"),
            "simulation_oracle.mc_price.samples": samples,
            "simulation_oracle.mc_price.ns_per_sample": ratio(1e6 * busy("simulation_oracle.mc_price"), samples),
            "simulation_oracle.quadrature_price.calls": calls("simulation_oracle.quadrature_price"),
            "simulation_oracle.quadrature_price.busy_ms": busy("simulation_oracle.quadrature_price"),
            "simulation_oracle.quadrature_price.misses": len(stats.get("quadrature_misses", [])),
            "simulation_oracle.mc_price.misses": len(stats.get("mc_misses", [])),
            "finite_dim.read_market_curve.busy_ms": busy("finite_dim.read_market_curve"),
            "finite_dim.calibrate_weights.busy_ms": busy("finite_dim.calibrate_weights"),
            "finite_dim.initial_curve.busy_ms": busy("finite_dim.initial_curve"),
            "finite_dim.simulate_paths.busy_ms": busy("finite_dim.simulate_paths"),
            "finite_dim.simulate_paths.paths": counters["finite_dim.simulate_paths.paths"],
            "finite_dim.write_paths_csv.busy_ms": busy("finite_dim.write_paths_csv"),
            "finite_dim.write_paths_csv.files": counters["finite_dim.write_paths_csv.files"],
            "finite_dim.write_paths_csv.bytes": stats.get("bytes_written", 0),
            "cli.main.calls": calls("cli.main"),
            "cli.import_ms": statistics.median(p["import_s"] for p in probes) * 1e3,
            "trace.overhead_ratio": overhead,
        }
    )
    return m


# --------------------------------------------------------------------- run


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, probes: int = SETUP_PROBES):
    """Run one workload; return (result line, full report)."""
    import_package()
    from workloads import WORKLOADS

    env = environment(seed)
    workdir = OUT / f"work_{os.getpid()}"
    try:
        probe = SetupProbe(workload, workdir / "probe")
        for op in WORKLOADS[workload].warm_up_ops(workdir):
            WORKLOADS[workload].run(op)
        work = WORKLOADS[workload](seed, workdir, tiny=tiny)
        env["reference_ms_before"] = reference_loop_ms()
        env["rss_before_ops_mb"] = rss_mb()  # the harness and its inputs
        if trace:
            for _ in range(probes):
                probe()
            for index in range(TRACE_UNITS[workload]):  # fill caches and pages
                for op in work.unit(index):
                    with contextlib.suppress(Exception):
                        work.run(op)
            overhead = tracing_overhead(work, TRACE_UNITS[workload], workdir)
            tracer = Tracer()
            tracer.install()
            try:
                m = measure(work, float("inf"), max_units=TRACE_UNITS[workload], tracer=tracer)
            finally:
                tracer.uninstall()
            count_defects(work, m)
            m.resolve()
            summary = tracer.summary()
            metrics = per_layer(summary, tracer.counters, m.stats, probe.results, overhead)
            tracer.write(OUT / f"trace_{workload}.npz")
            details = {"spans": summary["spans"], "counters": dict(tracer.counters), "layers": summary["layers"]}
            units = PER_LAYER
        else:
            # the probes run between units, evenly spread over the op time, so
            # that they sample the host as the ops do, not just before them
            def between_units(m):
                if len(probe.results) * seconds <= m.op_seconds * probes:
                    probe()

            m = measure(work, seconds, between_units=between_units)
            # read before the deferred checks load scipy into this process
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            env["scipy_loaded_during_ops"] = "scipy" in sys.modules
            m.resolve()
            while len(probe.results) < probes:  # a run too short to fit them all
                probe()
            metrics, details = end_to_end(m, probe.results, peak)
            details["rss_before_ops_mb"] = env["rss_before_ops_mb"]
            units = END_TO_END
        env["reference_ms_after"] = reference_loop_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not m.breaches,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload,
        "trace": trace,
        "environment": env,
        "setup_probes": probe.results,
        "details": details,
        "breaches": m.breaches,
        "known_defects": m.known_defects,
        "check_stats": m.stats,
        "result": result,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chaosrates benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    d, env = report["details"], report["environment"]
    for name, entry in result["metrics"].items():
        print(f"{args.workload:14s} {name:52s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        print(
            f"{args.workload:14s} op_tail_ms is p{d['op_tail_percentile']:.3f} of {d['op_tail_samples']} ops; "
            f"fail_ratio {d['fail_ratio']:.4f} ({result['failed']}/{result['attempted']}); "
            f"RSS before the ops {d['rss_before_ops_mb']:.1f} MB"
        )
    print(
        f"{args.workload:14s} reference loop {env['reference_ms_before']:.1f} ms before, "
        f"{env['reference_ms_after']:.1f} ms after; output on {env['output_file_system']['type']}; report {path.relative_to(ROOT)}"
    )
    for breach in report["breaches"]:
        print(f"CHECK FAILED: {breach}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
