"""Set-up probe: a fresh interpreter imports chaosrates and its CLI, runs the
warm-up ops of a workload once, prints one JSON line and exits.

    python3 bench/probe.py mc_oracle .bench_out/work_1/probe/warm_up.pickle

``run.py`` generates the warm-up ops (the pickle) and times each probe from
spawn to the printed line; it subtracts ``harness_s``, the probe's own
loading of the benchmark module and the pickle, to get ``setup_s``.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import chaosrates  # noqa: E402,F401
import chaosrates.cli  # noqa: E402,F401

_T1 = time.perf_counter()

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

work = WORKLOADS[sys.argv[1]]
ops = pickle.loads(Path(sys.argv[2]).read_bytes())
_T2 = time.perf_counter()
for op in ops:
    work.run(op)
_T3 = time.perf_counter()
print(json.dumps({"import_s": _T1 - _T0, "harness_s": _T2 - _T1, "warmup_s": _T3 - _T2}), flush=True)
