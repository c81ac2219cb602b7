"""In-memory span tracing of the screwclock layers, installed from outside.

The tracer wraps every public function of the traced modules at each
module where it is looked up (``screwclock.estimator.run_protocol`` as
well as ``screwclock.register.run_protocol``), plus the register state
methods, so a call is recorded whichever namespace it goes through. Each
span keeps its name, start, end and parent; the layer of a span is the
module that defines the wrapped function. Self time is a span's duration
minus the time of its child spans.

A few wrapped calls also feed health counters (schedule steps, rows and
bytes written, Monte Carlo scatter, register norm and rank). That work runs
inside ``trace.health`` spans, so it is attributed to the tracer itself and
the layer self times still add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("config", "pipeline", "lattice", "rates", "register",
          "trajectories", "estimator", "output", "cli")
COMMANDS = ("feasibility", "schedule", "simulate", "scan", "optimize", "sweep")
GATE_KINDS = ("clock_rotation", "head_rotation", "phase_gate", "free_evolution")
STATE_METHODS = tuple(f"apply_{kind}" for kind in GATE_KINDS) + (
    "head_readout", "copy", "norm", "overlap_with", "to_vector",
)

# (metric name, unit) of a traced run, in report order. run.py takes the median
# over the traced samples and adds the two untraced-wall comparisons.
METRICS = (
    [
        ("config.parse_s", "s"),
        ("config.override_calls", "count"),
        ("pipeline.resolve_physics_self_s", "s"),
        ("pipeline.resolve_physics_calls", "count"),
        ("lattice.min_required_intensity_s", "s"),
        ("lattice.trap_frequencies_s", "s"),
        ("lattice.calls", "count"),
        ("rates.build_schedule_s", "s"),
        ("rates.build_schedule_calls", "count"),
        ("rates.schedule_steps", "count"),
        ("rates.survival_s", "s"),
        ("register.run_protocol_s", "s"),
        ("register.run_protocol_calls", "count"),
    ]
    + [(f"register.gate_calls.{kind}", "count") for kind in GATE_KINDS]
    + [(f"register.gate_s.{kind}", "s") for kind in GATE_KINDS]
    + [
        ("register.readout_s", "s"),
        ("register.copy_s", "s"),
        ("register.fidelity_s", "s"),
        ("register.max_rank", "count"),
        ("register.norm_err_max", "1"),
        ("register.branch_exponent", "1"),
        ("trajectories.sample_s", "s"),
        ("trajectories.drawn", "count"),
        ("trajectories.scatter_z", "sigma"),
        ("estimator.fringe_scan_self_s", "s"),
        ("estimator.analyze_fringe_s", "s"),
        ("estimator.optimize_atom_number_self_s", "s"),
        ("estimator.scan_points", "count"),
        ("output.write_table_s", "s"),
        ("output.rows", "count"),
        ("output.bytes", "B"),
    ]
    + [(f"cli.{command}_s", "s") for command in COMMANDS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
)


class Tracer:
    """Records spans for the screwclock package between install and uninstall."""

    def __init__(self, package: types.ModuleType):
        self._package = package
        self._modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        self._names: list[str] = []
        self._layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")   # 1 when no enclosing span has the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._branch_protocol: dict[int, list[float]] = defaultdict(list)
        self._scatter = [0.0, 0.0, 0.0]   # observed, expected, variance
        self._norm_err_max = 0.0
        self._max_rank = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[tuple[type, str], object] = {}
        self._health_id = self._intern("trace.health", "trace")

    # -- span recording -------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self._names)
            self._name_ids[name] = name_id
            self._names.append(name)
            self._layer_of.append(layer)
            self._depth.append(0)
        return name_id

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(self._depth[name_id] == 0)
        self._depth[name_id] += 1
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int, name_id: int):
        self.span_end[index] = time.perf_counter()
        self._stack.pop()
        self._depth[name_id] -= 1

    def _traced(self, fn, name: str, layer: str, hook=None):
        name_id = self._intern(name, layer)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name_id)
            if hook is not None:
                health = self._open(self._health_id)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result,
                         self.span_end[index] - self.span_start[index])
                finally:
                    self._close(health, self._health_id)
            return result

        return traced

    def _traced_run_command(self, fn):
        ids = {command: self._intern(f"cli.{command}", "cli") for command in COMMANDS}

        @functools.wraps(fn)
        def traced(command, *args, **kwargs):
            name_id = ids.get(command)
            if name_id is None:
                return fn(command, *args, **kwargs)
            index = self._open(name_id)
            try:
                return fn(command, *args, **kwargs)
            finally:
                self._close(index, name_id)

        return traced

    # -- health hooks ---------------------------------------------------

    def _on_build_schedule(self, arguments, result, duration):
        self.counters["rates.schedule_steps"] += len(result.steps)

    def _on_write_table(self, arguments, result, duration):
        self.counters["output.rows"] += len(arguments["rows"])
        path = Path(result)
        written = path.stat().st_size
        if arguments["metadata"] is not None:
            written += path.with_name(path.stem + ".meta.json").stat().st_size
        self.counters["output.bytes"] += written

    def _on_sample_batch(self, arguments, result, duration):
        _, scattered = result
        n = int(arguments["n_trajectories"])
        rate = arguments["params"].total_rate(arguments["n_atoms"])
        p = -math.expm1(-arguments["schedule"].total_duration * rate)
        self.counters["trajectories.drawn"] += n
        self._scatter[0] += float(np.count_nonzero(scattered))
        self._scatter[1] += n * p
        self._scatter[2] += n * p * (1.0 - p)

    def _on_run_protocol(self, arguments, result, duration):
        states = [result.final, *result.checkpoints.values()]
        for state in states:
            # The unwrapped norm, so the check does not count as register work.
            norm = self._originals[(type(state), "norm")](state)
            self._norm_err_max = max(self._norm_err_max, abs(norm - 1.0))
            if state.backend == "branch":
                self._max_rank = max(self._max_rank, state.rank)
        if arguments["backend"] == "branch":
            self._branch_protocol[int(arguments["n_atoms"])].append(duration)

    def _on_fringe_scan(self, arguments, result, duration):
        self.counters["estimator.scan_points"] += len(result.detunings)

    # -- install / uninstall -------------------------------------------

    def install(self):
        hooks = {
            "rates.build_schedule": self._on_build_schedule,
            "output.write_table": self._on_write_table,
            "trajectories.sample_trajectory_batch": self._on_sample_batch,
            "register.run_protocol": self._on_run_protocol,
            "estimator.fringe_scan": self._on_fringe_scan,
        }
        module_layer = {module.__name__: layer for layer, module in self._modules.items()}
        wrappers: dict[int, object] = {}
        for namespace in (self._package, *self._modules.values()):
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = module_layer.get(value.__module__)
                if layer is None:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    if layer == "cli" and value.__name__ == "run_command":
                        wrapper = self._traced_run_command(value)
                    else:
                        name = f"{layer}.{value.__name__}"
                        wrapper = self._traced(value, name, layer, hooks.get(name))
                    wrappers[id(value)] = wrapper
                self._patch(namespace, attr, wrapper)

        register = self._modules["register"]
        for cls in (register.DenseState, register.BranchState):
            for method in STATE_METHODS:
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                self._originals[(cls, method)] = original
                self._patch(cls, method, self._traced(original, f"register.state.{method}", "register"))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded; ``wall_s`` is the traced wall time."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child_time = np.zeros(durations.size)
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        self_time = durations - child_time

        n_names = len(self._names)
        calls = np.bincount(names, minlength=n_names)
        inclusive = np.bincount(names, weights=np.where(outer, durations, 0.0), minlength=n_names)
        self_by_name = np.bincount(names, weights=self_time, minlength=n_names)

        def lookup(array_, name):
            name_id = self._name_ids.get(name)
            return 0.0 if name_id is None else float(array_[name_id])

        def layer_self(layer):
            return float(sum(self_by_name[i] for i, l in enumerate(self._layer_of) if l == layer))

        def layer_calls(layer):
            return int(sum(calls[i] for i, l in enumerate(self._layer_of) if l == layer))

        observed, expected, variance = self._scatter
        out = {
            "config.parse_s": lookup(inclusive, "config.parse_config"),
            "config.override_calls": lookup(calls, "config.apply_override"),
            "pipeline.resolve_physics_self_s": lookup(self_by_name, "pipeline.resolve_physics"),
            "pipeline.resolve_physics_calls": lookup(calls, "pipeline.resolve_physics"),
            "lattice.min_required_intensity_s": lookup(inclusive, "lattice.min_required_intensity"),
            "lattice.trap_frequencies_s": lookup(inclusive, "lattice.trap_frequencies"),
            "lattice.calls": layer_calls("lattice"),
            "rates.build_schedule_s": lookup(inclusive, "rates.build_schedule"),
            "rates.build_schedule_calls": lookup(calls, "rates.build_schedule"),
            "rates.schedule_steps": self.counters["rates.schedule_steps"],
            "rates.survival_s": lookup(inclusive, "rates.survival_probability"),
            "register.run_protocol_s": lookup(inclusive, "register.run_protocol"),
            "register.run_protocol_calls": lookup(calls, "register.run_protocol"),
            "register.readout_s": lookup(inclusive, "register.state.head_readout"),
            "register.copy_s": lookup(inclusive, "register.state.copy"),
            "register.fidelity_s": lookup(inclusive, "register.state_fidelity"),
            "register.max_rank": self._max_rank,
            "register.norm_err_max": self._norm_err_max,
            "register.branch_exponent": self._branch_exponent(),
            "trajectories.sample_s": lookup(inclusive, "trajectories.sample_trajectory_batch"),
            "trajectories.drawn": self.counters["trajectories.drawn"],
            "trajectories.scatter_z": (
                (observed - expected) / math.sqrt(variance) if variance > 0.0 else 0.0
            ),
            "estimator.fringe_scan_self_s": lookup(self_by_name, "estimator.fringe_scan"),
            "estimator.analyze_fringe_s": lookup(inclusive, "estimator.analyze_fringe"),
            "estimator.optimize_atom_number_self_s": lookup(
                self_by_name, "estimator.optimize_atom_number"
            ),
            "estimator.scan_points": self.counters["estimator.scan_points"],
            "output.write_table_s": lookup(inclusive, "output.write_table"),
            "output.rows": self.counters["output.rows"],
            "output.bytes": self.counters["output.bytes"],
        }
        for kind in GATE_KINDS:
            out[f"register.gate_calls.{kind}"] = lookup(calls, f"register.state.apply_{kind}")
            out[f"register.gate_s.{kind}"] = lookup(inclusive, f"register.state.apply_{kind}")
        for command in COMMANDS:
            out[f"cli.{command}_s"] = lookup(inclusive, f"cli.{command}")
        for layer in LAYERS + ("trace",):
            out[f"{layer}.self_s"] = layer_self(layer)
        out["trace.spans"] = int(names.size)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - float(self_time.sum())
        return {name: float(value) for name, value in out.items()}

    def _branch_exponent(self) -> float:
        """Log-log slope of branch run_protocol time per call between the extreme N."""
        if len(self._branch_protocol) < 2:
            return 0.0
        n_lo, n_hi = min(self._branch_protocol), max(self._branch_protocol)
        t_lo = float(np.median(self._branch_protocol[n_lo]))
        t_hi = float(np.median(self._branch_protocol[n_hi]))
        return math.log(t_hi / t_lo) / math.log(n_hi / n_lo)

