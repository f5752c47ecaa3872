"""Spans and counters recorded on the benchmark's side of each gqbp call.

The benchmark reaches gqbp only through an API namespace (see
``workloads.load_api``).  ``traced`` wraps every function of that namespace so
that each call the benchmark makes becomes one span: name, start, end, the
span that caused it and the op it belongs to.  Spans stay in memory and are
written out when the run ends.  Nothing inside gqbp is instrumented: a span's
time covers the whole call, including whatever gqbp calls internally, and a
layer's self time is its spans' time minus the time of their child spans.

Counters are computed at the same boundaries from the arguments and results
(array shapes, report fields, document lengths); they are labelled
"computed" because no hardware counter or cache-miss data is read.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

# The layers are gqbp's modules; each lists the public functions the
# benchmark calls in it.  ``backends`` has no entry point a caller uses: its
# work is inside the ``simulate`` spans and counted by simulate.flops_computed.
LAYERS = {
    "core": ("generalize", "validate_program"),
    "simulate": ("acceptance_probabilities", "acceptance_probability", "decide"),
    "transform": ("split_layers",),
    "circuit": ("circuit_acceptances", "validate_circuit"),
    "convert": ("rgqbp_to_circuit", "circuit_to_rgqbp"),
    "programs": ("random_rgqbp", "grover_promise_or", "parity_program"),
    "experiments": ("hybrid_deviation", "hybrid_run", "distinguishability_check",
                    "promise_or_expectation", "hamming_expectation"),
    "formats": ("serialize_program", "parse_program", "serialize_circuit", "parse_circuit"),
    "cli": ("main",),
}
LAYER_OF = {fn: layer for layer, fns in LAYERS.items() for fn in fns}

# Per-layer metrics printed by a traced run: (name, unit, better).  Times and
# counts are per op of the traced phase, except the ``programs`` layer, which
# is called only in set-up and is reported per set-up.
_FUNCTION_TIMES = [
    "simulate.acceptance_probabilities", "simulate.acceptance_probability", "simulate.decide",
    "transform.split_layers", "core.generalize", "core.validate_program",
    "experiments.hybrid_deviation", "experiments.hybrid_run",
    "experiments.distinguishability_check", "experiments.promise_or_expectation",
    "experiments.hamming_expectation", "convert.rgqbp_to_circuit", "convert.circuit_to_rgqbp",
    "circuit.circuit_acceptances", "circuit.validate_circuit",
    "formats.serialize_circuit", "formats.parse_circuit",
    "formats.serialize_program", "formats.parse_program", "cli.main",
]
COUNTS = [
    ("simulate.level_steps", "count/op"),
    ("simulate.flops_computed", "flop/op"),
    ("core.assignments_checked", "count/op"),
    ("experiments.pairs_checked", "count/op"),
    ("convert.gate_bytes_computed", "B/op"),
    ("circuit.gate_applications", "count/op"),
    ("formats.bytes_written", "B/op"),
    ("formats.bytes_read", "B/op"),
]
PER_LAYER = (
    [("trace_overhead", "ratio", "lower"), ("bench.glue_ms", "ms/op", "lower")]
    + [(f"{layer}.self_ms", "ms/op", "lower") for layer in LAYERS if layer != "programs"]
    + [(f"{name}.self_ms", "ms/op", "lower") for name in _FUNCTION_TIMES]
    + [(name, unit, "lower") for name, unit in COUNTS]
    + [("simulate.gflops_computed", "GFLOP/s", "higher"),
       ("programs.self_ms", "ms", "lower"),
       ("programs.random_rgqbp.self_ms", "ms", "lower"),
       ("programs.grover_promise_or.self_ms", "ms", "lower"),
       ("programs.parity_program.self_ms", "ms", "lower")]
)


def gate_bytes(circuit) -> int:
    """Sum of ``nbytes`` over every ndarray attribute of every gate."""
    total = 0
    for gate in circuit.gates:
        values = ([getattr(gate, f.name) for f in dataclasses.fields(gate)]
                  if dataclasses.is_dataclass(gate) else list(vars(gate).values()))
        total += sum(v.nbytes for v in values if isinstance(v, np.ndarray))
    return total


def _kernel(program, rows: int) -> dict:
    steps = rows * program.length
    return {"simulate.level_steps": steps,
            "simulate.flops_computed": 8 * steps * program.width ** 2}


# Counters per function, from (args, result).  simulate.flops_computed is
# 8*B*L*s^2: one dense complex s x s matrix-vector product per level and input.
COUNTERS = {
    "acceptance_probabilities": lambda a, r: _kernel(a[0], len(a[1])),
    "acceptance_probability": lambda a, r: _kernel(a[0], 1),
    "decide": lambda a, r: _kernel(a[0], 1),
    "circuit_acceptances": lambda a, r: {
        "circuit.gate_applications": len(a[1]) * len(a[0].gates)},
    "rgqbp_to_circuit": lambda a, r: {"convert.gate_bytes_computed": gate_bytes(r)},
    "circuit_to_rgqbp": lambda a, r: {"convert.gate_bytes_computed": gate_bytes(a[0])},
    "serialize_program": lambda a, r: {"formats.bytes_written": len(r)},
    "serialize_circuit": lambda a, r: {"formats.bytes_written": len(r)},
    "parse_program": lambda a, r: {"formats.bytes_read": len(a[0])},
    "parse_circuit": lambda a, r: {"formats.bytes_read": len(a[0])},
    "validate_program": lambda a, r: {"core.assignments_checked": r.assignments_checked},
    "distinguishability_check": lambda a, r: {"experiments.pairs_checked": r.pairs_checked},
}


class Recorder:
    """In-memory span list plus counters; one per traced process.

    Spans and calls made under op id ``SETUP`` belong to the set-up; counters
    skip them, so every counter covers the traced phase only.
    """

    SETUP = "setup"

    def __init__(self):
        # (span_id, parent_id, op_id, name, start_ns, end_ns, error)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._parent = None
        self._op = None

    @contextmanager
    def span(self, name: str, op_id):
        """A benchmark-side span (set-up or one op) that parents the calls in it."""
        span_id = len(self.spans)
        self.spans.append(None)
        outer = (self._parent, self._op)
        self._parent, self._op = span_id, op_id
        start = time.perf_counter_ns()
        error = True
        try:
            yield
            error = False
        finally:
            self.spans[span_id] = (span_id, outer[0], op_id, name, start,
                                   time.perf_counter_ns(), error)
            self._parent, self._op = outer

    def wrap(self, api_name: str, fn):
        name = f"{LAYER_OF[api_name]}.{api_name}"
        count = COUNTERS.get(api_name)

        def call(*args, **kwargs):
            start = time.perf_counter_ns()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter_ns()
                self.spans.append((len(self.spans), self._parent, self._op, name,
                                   start, end, error))
            if count is not None and self._op != self.SETUP:
                self.counters.update(count(args, result))
            return result

        return call

    def write(self, path) -> None:
        keys = ("span", "parent", "op", "name", "start_ns", "end_ns", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[str, list]:
    """Per span name: [self time in ns, calls, errors].

    A span's self time is its duration minus the durations of its children.
    """
    child_ns = defaultdict(int)
    for _span, parent, _op, _name, start, end, _error in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = defaultdict(lambda: [0, 0, 0])
    for span, _parent, _op, name, start, end, error in spans:
        entry = out[name]
        entry[0] += end - start - child_ns[span]
        entry[1] += 1
        entry[2] += int(error)
    return dict(out)


def traced(api: SimpleNamespace, recorder: Recorder) -> SimpleNamespace:
    """A copy of ``api`` whose functions record a span per call."""
    return SimpleNamespace(**{name: recorder.wrap(name, fn) for name, fn in vars(api).items()})


def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


def layer_metrics(recorder: Recorder, ops: int, slowdown: float) -> tuple[dict, dict]:
    """Per-layer metric values (see PER_LAYER), and calls and errors per layer.

    ``ops`` is the number of ops in the traced phase, the base of every
    per-op value.  Only the ``programs`` layer is reported from the set-up.
    Times are divided by ``slowdown``, the machine slowdown the speed probe
    saw over the run (see probe.py).
    """
    setup = self_times([s for s in recorder.spans if s[2] == Recorder.SETUP])
    phase = self_times([s for s in recorder.spans if s[2] != Recorder.SETUP])
    values = {}
    programs = {name: v[0] for name, v in setup.items() if layer_of(name) == "programs"}
    ms = 1e6 * slowdown
    values["programs.self_ms"] = sum(programs.values()) / ms
    for fn in LAYERS["programs"]:
        values[f"programs.{fn}.self_ms"] = programs.get(f"programs.{fn}", 0) / ms
    layer_ns = Counter()
    for name, (ns, _calls, _errors) in phase.items():
        layer_ns[layer_of(name)] += ns
    values["bench.glue_ms"] = layer_ns["bench"] / ms / ops
    for layer in LAYERS:
        if layer != "programs":
            values[f"{layer}.self_ms"] = layer_ns[layer] / ms / ops
    for name in _FUNCTION_TIMES:
        values[f"{name}.self_ms"] = phase.get(name, [0])[0] / ms / ops
    for name, _unit in COUNTS:
        values[name] = recorder.counters[name] / ops
    sim_ns = layer_ns["simulate"]
    values["simulate.gflops_computed"] = (
        recorder.counters["simulate.flops_computed"] * slowdown / sim_ns if sim_ns else 0.0)
    calls, errors = Counter(), Counter()
    for table in (setup, phase):
        for name, (_ns, n, errs) in table.items():
            calls[layer_of(name)] += n
            errors[layer_of(name)] += errs
    return values, {"calls": dict(calls), "errors": dict(errors)}
