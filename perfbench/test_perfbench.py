"""Tests of the benchmark itself: its reference, its checks, its op lists and
its metric lists.  Run with ``python3 -m pytest perfbench``."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gqbp
import reference as ref
import run
import tracing
import workloads
from child import run_ops
from probe import REFERENCE_MS, SpeedProbe

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def api():
    return workloads.load_api()


def build(api, name, seed, workdir):
    workload = workloads.WORKLOADS[name](api, seed, workdir)
    workload.compute_reference()
    return workload


@pytest.mark.parametrize("program", [
    gqbp.random_rgqbp(3, 5, 4, seed=1),
    gqbp.generalize(gqbp.random_rgqbp(4, 3, 5, seed=2)),
    gqbp.parity_program(4),
])
def test_reference_matches_gqbp(program):
    inputs = ref.all_bits(program.n)
    np.testing.assert_allclose(ref.final_states(program, inputs),
                               gqbp.final_states(program, inputs), rtol=0, atol=1e-12)
    np.testing.assert_allclose(ref.acceptance(program, ref.final_states(program, inputs)),
                               gqbp.acceptance_probabilities(program, inputs), rtol=0, atol=1e-12)


def test_reference_hybrid_matches_gqbp():
    program = gqbp.random_rgqbp(4, 6, 5, seed=3)
    x, y = np.array([0, 1, 1, 0, 1], np.uint8), np.array([1, 1, 0, 0, 1], np.uint8)
    for k in range(program.length + 1):
        np.testing.assert_allclose(ref.hybrid_state(program, x, y, k),
                                   gqbp.hybrid_run(program, x, y, k), rtol=0, atol=1e-12)
    trace = gqbp.hybrid_deviation(program, x, y)
    assert ref.telescoped(program, x, y) == pytest.approx((trace.final_distance, trace.bound),
                                                          abs=1e-12)


def test_row_index_inverts_all_bits():
    rows = ref.all_bits(6)
    assert [ref.row_index(r) for r in rows] == list(range(64))


def corrupted(api, name, change):
    fns = dict(vars(api))
    fn = fns[name]
    fns[name] = lambda *a, **k: change(fn(*a, **k))
    return SimpleNamespace(**fns)


@pytest.mark.parametrize("workload,function,change,message", [
    ("sweep", "acceptance_probabilities", lambda r: r + 2e-12, "plain acceptance"),
    ("translate", "parse_circuit",
     lambda c: gqbp.QueryCircuit(q=c.q, n=c.n, gates=c.gates[:-1], accept=c.accept),
     "circuit re-serialisation"),
    ("drift", "main", lambda r: 1, "exited 1"),
])
def test_corrupted_result_is_a_failed_op(api, tmp_path, workload, function, change, message):
    w = build(api, workload, 1, tmp_path)
    bad = corrupted(api, function, change)
    ops = {"drift": 17}.get(workload, 1)     # drift op 16 is the first CLI call
    latencies, notes, failed = run_ops(bad, w, 0, ops)
    assert len(latencies) == ops
    assert failed == 1
    assert message in notes[0] and "CheckFailed" in notes[0]
    # the same ops with the real library pass
    assert run_ops(api, w, 0, ops)[2] == 0


def fingerprint(value):
    if isinstance(value, gqbp.Program):
        return gqbp.serialize_program(value)
    if isinstance(value, gqbp.QueryCircuit):
        return gqbp.serialize_circuit(value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple((k, fingerprint(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, np.random.Generator):
        return None
    return value


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_is_fixed_by_the_seed(api, tmp_path, name):
    first = workloads.WORKLOADS[name](api, 5, tmp_path)
    again = workloads.WORKLOADS[name](api, 5, tmp_path)
    other = workloads.WORKLOADS[name](api, 6, tmp_path)
    assert first.ops == again.ops
    assert fingerprint(vars(first)) == fingerprint(vars(again))
    assert fingerprint(vars(first)) != fingerprint(vars(other))
    assert len(first.ops) % first.block == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [11, 12])
def test_two_seeds_pass_every_check(api, tmp_path, name, seed):
    w = build(api, name, seed, tmp_path)
    latencies, notes, failed = run_ops(api, w, 0, w.block)
    assert failed == 0, notes


def test_traced_counts_and_self_times(api, tmp_path):
    recorder = tracing.Recorder()
    lib = tracing.traced(api, recorder)
    w = build(api, "sweep", 1, tmp_path)
    assert run_ops(lib, w, 0, 1, recorder)[2] == 0          # one narrow op: s=16, L=32
    steps = 1024 * (32 + 64 + 32)                            # plain, split, general
    assert recorder.counters["simulate.level_steps"] == steps
    assert recorder.counters["simulate.flops_computed"] == 8 * steps * 16 ** 2
    spans = recorder.spans
    roots = [s for s in spans if s[1] is None]
    assert [s[3] for s in roots] == ["bench.op"]
    total_self = sum(v[0] for v in tracing.self_times(spans).values())
    assert total_self == sum(s[5] - s[4] for s in roots)
    values, layers = tracing.layer_metrics(recorder, 1, slowdown=1.0)
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER} - {"trace_overhead"}
    assert values["simulate.self_ms"] > values["transform.self_ms"]
    assert layers["calls"]["simulate"] == 3 and not any(layers["errors"].values())


def test_probe_slowdown_is_the_mean_of_the_probes_around_each_op():
    probe = SpeedProbe()
    assert probe() > 0
    # probes before op 0, after op 1 and after op 4 (the last)
    slow = probe.slowdowns([(0, 1.0), (2, 3.0), (5, 2.0)], 5)
    np.testing.assert_allclose(slow, probe.slowdown([2.0, 2.0, 2.5, 2.5, 2.5]))
    assert probe.slowdown(REFERENCE_MS) == 1.0


def test_gate_bytes_counts_every_array(api):
    circuit = api.rgqbp_to_circuit(api.random_rgqbp(2, 1, 2, 0))
    dense = sum(g.matrix.nbytes for g in circuit.gates if isinstance(g, gqbp.Unitary))
    assert tracing.gate_bytes(circuit) == dense > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


def test_only_public_gqbp_names_are_used():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gqbp"):
                assert node.module in ("gqbp", "gqbp.cli"), path
                assert not any(a.name.startswith("_") for a in node.names), path
            if isinstance(node, ast.Import):
                assert all(a.name == "gqbp" or not a.name.startswith("gqbp") for a in node.names)
    assert all(not name.startswith("_") and hasattr(gqbp, name)
               for name in tracing.LAYER_OF if name != "main")


def test_run_fails_without_gqbp_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
