import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gqbp
from gqbp import (GeneralLevel, Program, RestrictedLevel, acceptance_probabilities,
                  circuit_to_rgqbp, core, grover_promise_or, parity_program,
                  random_rgqbp, rgqbp_to_circuit)
from gqbp.circuit import index_register_width
from gqbp.cli import main
from gqbp.formats import parse_program, serialize_circuit, serialize_program
from gqbp.simulate import all_inputs


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity4.json"
    path.write_text(serialize_program(parity_program(4)))
    return str(path)


def test_gen_validate_simulate_pipeline(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["gen", "parity", "--n", "4"]) == 0
    out.write_text(capsys.readouterr().out)
    assert main(["validate", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["simulate", str(out), "--input", "1000"]) == 0
    assert "acceptance_probability=1" in capsys.readouterr().out


def test_simulate_trace_prints_states(parity_file, capsys):
    assert main(["simulate", parity_file, "--input", "0101", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "state[0]" in out and "state[2]" in out


def test_simulate_trace_prints_the_same_probability(tmp_path, capsys):
    path = tmp_path / "random.json"
    path.write_text(serialize_program(random_rgqbp(5, 6, 4, seed=3)))
    assert main(["simulate", str(path), "--input", "0110"]) == 0
    plain = capsys.readouterr().out
    assert main(["simulate", str(path), "--input", "0110", "--trace"]) == 0
    traced = capsys.readouterr().out.splitlines()
    assert [line for line in traced if not line.startswith("state[")] == plain.splitlines()


def test_simulate_circuit_file(tmp_path, capsys):
    path = tmp_path / "grover4.json"
    assert main(["gen", "grover-or", "--n", "4"]) == 0
    path.write_text(capsys.readouterr().out)
    assert main(["simulate", str(path), "--input", "0100"]) == 0
    out = capsys.readouterr().out
    # one Grover round: sin^2(3 asin(1/2)) = 1, then the readout query
    prob, queries = re.fullmatch(r"acceptance_probability=(\S+) queries=(\d+)\n", out).groups()
    assert float(prob) == pytest.approx(np.sin(3 * np.arcsin(0.5)) ** 2, abs=1e-12)
    assert queries == "2"


def test_simulate_trace_refuses_a_circuit_file(tmp_path, capsys):
    path = tmp_path / "grover4.json"
    assert main(["gen", "grover-or", "--n", "4"]) == 0
    path.write_text(capsys.readouterr().out)
    assert main(["simulate", str(path), "--input", "0100", "--trace"]) == 2
    assert "--trace needs a program document" in capsys.readouterr().err


def test_convert_both_directions(tmp_path, capsys):
    prog_path = tmp_path / "p.json"
    prog_path.write_text(serialize_program(parity_program(2)))
    assert main(["convert", "--to", "circuit", str(prog_path)]) == 0
    circuit_text = capsys.readouterr().out
    assert json.loads(circuit_text)["format"] == "qqc-v2"
    circ_path = tmp_path / "c.json"
    circ_path.write_text(circuit_text)
    assert main(["convert", "--to", "bp", str(circ_path)]) == 0
    assert json.loads(capsys.readouterr().out)["format"] == "gqbp-v1"


def test_convert_to_bp_gives_back_the_compiled_program(tmp_path, capsys):
    # the source padded to 2^a nodes, not a program as wide as the circuit
    path = tmp_path / "doc.json"
    for source in (parity_program(8), random_rgqbp(3, 4, 6, seed=5)):
        path.write_text(serialize_program(source))
        assert main(["convert", "--to", "circuit", str(path)]) == 0
        path.write_text(capsys.readouterr().out)
        assert main(["convert", "--to", "bp", str(path)]) == 0
        path.write_text(capsys.readouterr().out)
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        back, xs = parse_program(path.read_text()), all_inputs(source.n)
        assert back.width == 1 << index_register_width(source.width)
        gap = acceptance_probabilities(back, xs) - acceptance_probabilities(source, xs)
        assert np.abs(gap).max() <= 1e-12


def test_split_outputs_alternating_doc(parity_file, capsys):
    assert main(["split", parity_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "alternating" not in doc
    assert len(doc["levels"]) == 4
    assert all(theta == 0 for level in doc["levels"][1::2] for theta in level["thetas"])


def test_gen_random_and_grover(capsys):
    assert main(["gen", "random", "--n", "5", "--s", "3", "--len", "2", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["width"] == 3
    assert main(["gen", "grover-or", "--n", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["qubits"] == 4


def test_hybrid_command(parity_file, capsys):
    assert main(["hybrid", parity_file, "--base", "0000", "--alt", "1100"]) == 0
    out = capsys.readouterr().out
    assert "final_distance=" in out and "level[1]" in out


def test_expect_or_pass(parity_file, capsys):
    assert main(["expect", "or", parity_file]) == 0
    assert "pass" in capsys.readouterr().out


def test_expect_hamming_requires_args(parity_file, capsys):
    assert main(["expect", "hamming", parity_file]) == 2
    assert main(["expect", "hamming", parity_file,
                 "--k", "2", "--delta", "1", "--fixed", "1100"]) == 0


def test_expect_hamming_exits_2_when_its_states_pass_the_alloc_limit(parity_file, monkeypatch,
                                                                     capsys):
    # the anchor and its C(2, 1) members at s=2 through two reading levels run
    # in blocks of rows down to one row: 2 * (16 * (2 + 1 + 2) + 2) bytes of
    # states, scratch, factors and bits
    argv = ["expect", "hamming", parity_file, "--k", "2", "--delta", "1", "--fixed", "1100"]
    monkeypatch.setattr(core, "ALLOC_LIMIT", 491)
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(core, "ALLOC_LIMIT", 164)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    monkeypatch.setattr(core, "ALLOC_LIMIT", 163)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: refusing to allocate 164 bytes for one row's states and what is "
                       "kept of all 3 rows (limit 163 bytes)\n")


def test_expect_csv_format(parity_file, capsys):
    assert main(["expect", "or", parity_file, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("field,value")


def test_scan_text_and_csv(capsys):
    assert main(["scan", "parity", "--sizes", "2,4"]) == 0
    text = capsys.readouterr().out
    assert "min_success" in text
    assert main(["scan", "grover-or", "--sizes", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("4,8,2,")
    assert main(["scan", "parity", "--sizes", ","]) == 2
    assert capsys.readouterr().err == "error: --sizes must list at least one size\n"


def test_validate_fail_exit_code(tmp_path, capsys):
    level = RestrictedLevel(labels=np.array([0]), base=np.array([[2.0 + 0j]]),
                            thetas=np.zeros(1))
    bad = Program(n=1, initial=np.array([1.0 + 0j]), levels=(level,))
    path = tmp_path / "bad.json"
    path.write_text(serialize_program(bad))
    assert main(["validate", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_general_program_with_25_labels(tmp_path, capsys):
    s = 25
    level = GeneralLevel(labels=np.arange(s), a0=np.eye(s), a1=np.eye(s))
    program = Program(n=s, initial=np.eye(s)[0], levels=(level,))
    path = tmp_path / "wide.json"
    path.write_text(serialize_program(program))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"PASS max_deviation=0 checked={2**25} convention=all-assignments\n")


def _huge_n_program(n: int) -> str:
    level = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.array([np.pi]))
    return serialize_program(Program(n=n, initial=np.ones(1), levels=(level,)))


def _one_oracle_circuit(qubits: int) -> str:
    return json.dumps({"format": "qqc-v1", "qubits": qubits, "n": 4,
                       "gates": [{"type": "phase_oracle"}], "accept": [0]})


@pytest.mark.parametrize("argv, doc", [
    (["gen", "random", "--n", "4", "--s", "30000", "--len", "1"], None),
    (["gen", "grover-or", "--n", "1048576"], None),
    (["gen", "random", "--n", "1", "--s", "1", "--len", "30000000"], None),
    (["gen", "parity", "--n", "1000000000"], None),
    (["scan", "parity", "--sizes", "1000000000"], None),
    (["convert", "--to", "circuit"], _huge_n_program(2**40)),
    (["convert", "--to", "circuit"], _huge_n_program(2**70)),
    (["convert", "--to", "bp"], _one_oracle_circuit(20)),
    (["convert", "--to", "bp"], _one_oracle_circuit(40)),
    (["simulate", "--input", "0101"], _one_oracle_circuit(40)),
    (["expect", "or"], _huge_n_program(2**40)),
    (["expect", "or"], _huge_n_program(2**70)),
    (["expect", "or"], _huge_n_program(150_000)),
    (["expect", "hamming", "--k", "1", "--delta", "1", "--fixed", "1" + "0" * 149_999],
     _huge_n_program(150_000)),
], ids=["gen random s=30000", "gen grover-or n=2^20", "gen random s=1 len=3e7",
        "gen parity n=1e9", "scan parity n=1e9", "convert n=2^40", "convert n=2^70",
        "convert q=20 to bp", "convert q=40 to bp", "simulate q=40", "expect or n=2^40",
        "expect or n=2^70", "expect or n=150000", "expect hamming n=150000"])
def test_oversized_request_is_refused_before_allocating(argv, doc, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "huge.json"
        path.write_text(doc)
        argv = argv + [str(path)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"error: refusing to allocate \d+ bytes for .+\n", out.err)


def test_convert_to_bp_reads_a_compiled_circuit_whose_n_exceeds_int64(tmp_path, capsys):
    # every oracle position is below 2^q, so n = 2^70 compiles as n = 4 does
    compiled = serialize_circuit(rgqbp_to_circuit(random_rgqbp(3, 2, 4, seed=8)))
    path = tmp_path / "c.json"
    path.write_text(compiled.replace('"n": 4', f'"n": {2**70}'))
    assert main(["convert", "--to", "bp", str(path)]) == 0
    huge = parse_program(capsys.readouterr().out)
    path.write_text(compiled)
    assert main(["convert", "--to", "bp", str(path)]) == 0
    small = parse_program(capsys.readouterr().out)
    assert huge.n == 2**70
    assert all(np.array_equal(a.labels, b.labels) and np.array_equal(a.thetas, b.thetas)
               for a, b in zip(huge.levels, small.levels))


_MUTATIONS = (-1, 2**70, 1e308, "x", None, [], "delete")
# JSON text of a list nested deeper than the decoder's recursion limit; the
# fuzz test writes it unquoted in place of its quoted form
_DEEP = "[" * 5000 + "]" * 5000
_COMMANDS = (["validate"], ["simulate", "--input", "0101"], ["convert", "--to", "circuit"],
             ["convert", "--to", "bp"], ["hybrid", "--base", "0000", "--alt", "1011"],
             ["expect", "or"], ["expect", "hamming", "--k", "1", "--delta", "1", "--fixed", "1000"])


def _fuzz_cases():
    """(document, field path, value, command) for every mutation of every
    top-level field and of each first level or first gate of a type, with
    two seeded commands each, the compiled circuit at n = 2^70, and a
    too-deep list in place of a program's initial vector and a circuit's
    gates under every command."""
    grover = grover_promise_or(4)
    docs = {"parity": serialize_program(parity_program(4)),
            "random": serialize_program(random_rgqbp(3, 2, 4, seed=8)),
            "grover": serialize_circuit(grover),
            "compiled grover": serialize_circuit(rgqbp_to_circuit(circuit_to_rgqbp(grover)))}
    rng = np.random.default_rng(2024)
    cases = [("compiled grover", ("n",), 2**70, ["convert", "--to", "bp"])]
    for name, text in docs.items():
        doc = json.loads(text)
        firsts = {}
        for key in ("levels", "gates"):
            for i, item in enumerate(doc.get(key, ())):
                firsts.setdefault(item.get("type"), [(key, i, field) for field in item])
        for path in [(key,) for key in doc] + sum(firsts.values(), []):
            for value in _MUTATIONS:
                cases += [(name, path, value, _COMMANDS[c])
                          for c in rng.choice(len(_COMMANDS), size=2, replace=False)]
    cases += [(name, (key,), _DEEP, command)
              for name, key in (("parity", "initial"), ("compiled grover", "gates"))
              for command in _COMMANDS]
    return docs, cases


def test_every_mutated_document_exits_0_1_or_2(tmp_path, capsys):
    # the exit-code contract of cli.py: no traceback, whatever the document holds
    docs, cases = _fuzz_cases()
    assert len(cases) > 600
    path = tmp_path / "doc.json"
    for name, field_path, value, command in cases:
        doc = json.loads(docs[name])
        *parents, last = field_path
        target = doc
        for key in parents:
            target = target[key]
        if value == "delete":
            del target[last]
        else:
            target[last] = value
        path.write_text(json.dumps(doc).replace(json.dumps(_DEEP), _DEEP))
        assert main([*command, str(path)]) in (0, 1, 2), (name, field_path, value, command)
        capsys.readouterr()


def test_too_deeply_nested_document_exits_2(tmp_path, capsys):
    doc = json.loads(serialize_program(parity_program(4)))
    doc["initial"] = _DEEP
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace(json.dumps(_DEEP), _DEEP))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: document: nested too deeply to decode\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/nonexistent/nope.json"]) == 2


def test_console_entry_point(tmp_path):
    # The child imports the same gqbp as this process, installed or not.
    path = os.pathsep.join(filter(None, [str(Path(gqbp.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "gqbp.cli", "gen", "parity", "--n", "2"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert json.loads(out.stdout)["format"] == "gqbp-v1"


def test_hybrid_exit_code_follows_bound_holds(parity_file, monkeypatch, capsys):
    from gqbp import experiments

    real = experiments.hybrid_deviation

    def violated(program, x, y):
        trace = real(program, x, y)
        return experiments.HybridTrace(alpha=trace.alpha, deviations=trace.deviations,
                                       final_distance=trace.bound + 1.0)

    monkeypatch.setattr(experiments, "hybrid_deviation", violated)
    assert main(["hybrid", parity_file, "--base", "0000", "--alt", "1100"]) == 1


def test_one_process_runs_each_command_as_a_fresh_one(tmp_path, capsys):
    # the parser is built once per process: no value of one call may reach
    # the next, so --seed 5 must not stay set for the call without --seed
    # (a family of C(60, 4) members is sampled, so the seed shows)
    program = random_rgqbp(4, 5, 64, seed=2)
    path = tmp_path / "p.json"
    path.write_text(serialize_program(program))
    base, alt = "01" * 32, "11" + "01" * 31
    expect = ["expect", "hamming", str(path), "--k", "4", "--delta", "4",
              "--fixed", "1" * 4 + "0" * 60]
    calls = [["hybrid", str(path), "--base", base, "--alt", alt], expect + ["--seed", "5"], expect]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(gqbp.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    outs = []
    for argv in calls:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
        fresh = subprocess.run([sys.executable, "-m", "gqbp.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert fresh.returncode == 0 and fresh.stdout == outs[-1]
    assert outs[1] != outs[2]
    trace = gqbp.hybrid_deviation(program, base, alt)
    printed = re.findall(r"l1=(\S+)", outs[0])
    assert printed == [f"{l1:.12g}" for l1 in trace.level_l1] and len(printed) == 5
