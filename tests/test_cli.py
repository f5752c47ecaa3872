import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gqbp
from gqbp import GeneralLevel, Program, RestrictedLevel, parity_program, random_rgqbp
from gqbp.cli import main
from gqbp.formats import serialize_program


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


def test_expect_csv_format(parity_file, capsys):
    assert main(["expect", "or", parity_file, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("field,value")


def test_scan_text_and_csv(capsys):
    assert main(["scan", "parity", "--sizes", "2,4"]) == 0
    text = capsys.readouterr().out
    assert "min_success" in text
    assert main(["scan", "grover-or", "--sizes", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("4,8,2,")


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
], ids=["gen random s=30000", "gen grover-or n=2^20", "convert n=2^40", "convert n=2^70",
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
