"""In-memory spans around the public functions of each chaosrates module.

The traced run installs a wrapper on every trace point below, replacing the
function (or method) in every ``chaosrates`` namespace that holds it, so
calls between modules are seen as well as the benchmark's own calls.  A
span is (name, start, end, parent, op id); spans live in flat arrays and
are written out once, after the run.  Per-layer figures are derived from
the spans afterwards:

* busy time: wall time during which at least one span of the layer (or of
  the function) is open, i.e. the summed duration of its outermost spans;
* self time: span durations minus the time covered by their direct
  children, so time spent in a callee that is itself traced moves to the
  callee's layer;
* calls: number of spans.

A layer is the module name, the first component of the span name.
"""

from __future__ import annotations

import array
import contextlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "structure_functions",
    "special_functions",
    "coherent_model",
    "polynomial_pricer",
    "incoherent_model",
    "simulation_oracle",
    "finite_dim",
    "cli",
)

OP_SPAN = "bench.op"
_OUTER_NAME = 1
_OUTER_LAYER = 2
_RAISED = 4


def _array_call(args) -> bool:
    return len(args) > 1 and isinstance(args[1], np.ndarray)


def _observe_chaos_value(counters, args, kwargs, result, exc, dur):
    counters["coherent_model.chaos_value.array_elems"] += args[1].size
    counters["coherent_model.chaos_value.array_s"] += dur


def _observe_positive_part(counters, args, kwargs, result, exc, dur):
    if exc is not None:
        return
    counters["polynomial_pricer.payoffs"] += 1
    counters["polynomial_pricer.roots"] += len(result.roots)
    c = result.payoff_polynomial.coeffs
    deg = result.payoff_polynomial.degree
    biquadratic = deg == 4 and c[1] == 0.0 and c[3] == 0.0
    if deg >= 3 and not biquadratic:
        counters["polynomial_pricer.companion_payoffs"] += 1


def _observe_mc_price(counters, args, kwargs, result, exc, dur):
    counters["simulation_oracle.mc_price.samples"] += kwargs.get("samples", args[2] if len(args) > 2 else 0)


def _observe_simulate_paths(counters, args, kwargs, result, exc, dur):
    if result is not None:
        counters["finite_dim.simulate_paths.paths"] += len(result)


def _observe_write_paths(counters, args, kwargs, result, exc, dur):
    if result is not None:
        counters["finite_dim.write_paths_csv.files"] += len(result)


def trace_points():
    """(owner, attribute, span name, observer) for every traced callable.

    ``chaos_value`` records a span only when the values of R are an array:
    on scalars it runs thousands of times per op at about a microsecond each,
    where a span would cost as much as the call.  Its scalar time stays in
    the caller's self time.
    """
    from chaosrates import (
        cli,
        coherent_model as cm,
        finite_dim as fd,
        incoherent_model as im,
        polynomial_pricer as pp,
        simulation_oracle as so,
        special_functions as spf,
        structure_functions as sf,
    )

    q_at = "structure_functions.q_at"
    return [
        (sf.ExponentialDensity, "q_at", q_at, None),
        (sf.PiecewiseConstantDensity, "q_at", q_at, None),
        (sf.DiscreteAtoms, "q_at", q_at, None),
        (sf, "residual_inner_product", "structure_functions.residual_inner_product", None),
        (sf, "state_at", "structure_functions.state_at", None),
        (sf, "from_descriptor", "structure_functions.from_descriptor", None),
        (sf, "to_descriptor", "structure_functions.to_descriptor", None),
        (spf, "gaussian_partial_moments", "special_functions.gaussian_partial_moments", None),
        (cm, "chaos_value", "coherent_model.chaos_value", _observe_chaos_value),
        (cm, "pricing_kernel", "coherent_model.pricing_kernel", None),
        (cm, "kernel_polynomial", "coherent_model.kernel_polynomial", None),
        (cm, "bond_price", "coherent_model.bond_price", None),
        (cm, "short_rate", "coherent_model.short_rate", None),
        (cm, "risk_premium", "coherent_model.risk_premium", None),
        (cm, "initial_bond_price", "coherent_model.initial_bond_price", None),
        (cm, "from_descriptor", "coherent_model.from_descriptor", None),
        (pp, "call_payoff_polynomial", "polynomial_pricer.payoff_build", None),
        (pp, "swaption_payoff_polynomial", "polynomial_pricer.payoff_build", None),
        (pp, "expected_positive_part", "polynomial_pricer.positive_part", _observe_positive_part),
        (pp, "price_bond_call", "polynomial_pricer.price_bond_call", None),
        (pp, "price_swaption", "polynomial_pricer.price_swaption", None),
        (pp, "call_delta", "polynomial_pricer.call_delta", None),
        (im, "multi_state_at", "incoherent_model.multi_state_at", None),
        (im, "incoherent_bond_price", "incoherent_model.incoherent_bond_price", None),
        (im, "incoherent_kernel", "incoherent_model.incoherent_kernel", None),
        (im, "mixed_order_kernel", "incoherent_model.mixed_order_kernel", None),
        (im, "from_descriptor", "incoherent_model.from_descriptor", None),
        (so, "mc_price", "simulation_oracle.mc_price", _observe_mc_price),
        (so, "quadrature_price", "simulation_oracle.quadrature_price", None),
        (fd, "read_market_curve", "finite_dim.read_market_curve", None),
        (fd, "calibrate_weights", "finite_dim.calibrate_weights", None),
        (fd, "initial_curve", "finite_dim.initial_curve", None),
        (fd, "simulate_paths", "finite_dim.simulate_paths", _observe_simulate_paths),
        (fd, "write_paths_csv", "finite_dim.write_paths_csv", _observe_write_paths),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans in flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[int] = []
        self.name_id = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.flags = array.array("q")
        self.counters: Counter = Counter()
        self.op_kinds: dict[int, str] = {}
        self._stack: list[int] = []
        self._active_names: Counter = Counter()
        self._active_layers: Counter = Counter()
        self._op_id = -1
        self._paused = False
        self._installed: list = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            layer = name.split(".")[0]
            self._layer_of.append(LAYERS.index(layer) if layer in LAYERS else -1)
        return nid

    def _open(self, nid: int) -> int:
        lid = self._layer_of[nid]
        flags = (_OUTER_NAME if self._active_names[nid] == 0 else 0) | (
            _OUTER_LAYER if self._active_layers[lid] == 0 else 0
        )
        self._active_names[nid] += 1
        self._active_layers[lid] += 1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.flags.append(flags)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        nid = self.name_id[idx]
        self._active_names[nid] -= 1
        self._active_layers[self._layer_of[nid]] -= 1
        if raised:
            self.flags[idx] |= _RAISED
        return t - self.start[idx]

    def run_op(self, op_id: int, kind: str, fn, *args):
        """Call fn(*args) inside the root span of one benchmark op."""
        self._op_id = op_id
        self.op_kinds[op_id] = kind
        idx = self._open(self._intern(OP_SPAN))
        raised = True
        try:
            out = fn(*args)
            raised = False
            return out
        finally:
            self._close(idx, raised)
            self._op_id = -1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans (output checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, fn, name: str, observe=None, when=None):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            if self._paused or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            idx = self._open(nid)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = self._close(idx, exc is not None)
                if observe is not None:
                    observe(self.counters, args, kwargs, result, exc, dur)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every trace point in every loaded chaosrates namespace."""
        import sys

        modules = [m for k, m in sys.modules.items() if k == "chaosrates" or k.startswith("chaosrates.")]
        for owner, attr, name, observe in trace_points():
            original = owner.__dict__[attr]
            when = _array_call if name == "coherent_model.chaos_value" else None
            wrapper = self.wrap(original, name, observe, when)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _columns(self):
        return tuple(np.array(a) for a in (self.name_id, self.start, self.end, self.parent, self.op, self.flags))

    def write(self, path: Path) -> None:
        """Write the spans as a compressed .npz with the span-name table."""
        nid, start, end, parent, op, flags = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        kinds = json.dumps({str(k): v for k, v in self.op_kinds.items()})
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
            op=op,
            flags=flags,
            op_kinds=np.array(kinds),
        )

    def summary(self) -> dict:
        """Busy, self and call figures per layer and per span name."""
        nid, start, end, parent, op, flags = self._columns()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer = np.array(self._layer_of, dtype=np.int64)[nid]
        out = {"layers": {}, "names": {}}
        for lid, lname in enumerate(LAYERS):
            mask = layer == lid
            out["layers"][lname] = {
                "busy_s": float(dur[mask & ((flags & _OUTER_LAYER) != 0)].sum()),
                "self_s": float(self_time[mask].sum()),
                "calls": int(mask.sum()),
            }
        for i, name in enumerate(self.names):
            mask = nid == i
            out["names"][name] = {
                "busy_s": float(dur[mask & ((flags & _OUTER_NAME) != 0)].sum()),
                "calls": int(mask.sum()),
            }
        out["spans"] = int(len(dur))
        out["layer_busy_by_op_kind"] = {}
        outer_layer = (flags & _OUTER_LAYER) != 0
        for kind in sorted(set(self.op_kinds.values())):
            ops = np.array([k for k, v in self.op_kinds.items() if v == kind], dtype=np.int64)
            in_kind = np.isin(op, ops)
            out["layer_busy_by_op_kind"][kind] = {
                lname: float(dur[in_kind & outer_layer & (layer == lid)].sum())
                for lid, lname in enumerate(LAYERS)
            }
        return out
