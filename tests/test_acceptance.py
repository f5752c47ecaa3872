"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``)."""

import math
import time

import numpy as np

from gqbp import (
    acceptance_probabilities,
    circuit_to_rgqbp,
    distinguishability_check,
    grover_promise_or,
    hamming_expectation,
    hamming_family,
    hybrid_deviation,
    parity_program,
    promise_or_expectation,
    random_rgqbp,
    rgqbp_to_circuit,
    split_layers,
    tradeoff_scan,
    zeros_input,
)
from gqbp.simulate import all_inputs

from helpers import ACCEPT_TOL, deutsch_circuit, seeded_program
from test_rewrites import check_row

TOL = 1e-9


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} - {name} ({detail})")
    return ok


def test_split_equivalence_200_random_programs():
    t0 = time.monotonic()
    worst = max(check_row("split", seeded_program(seed)) for seed in range(200))
    elapsed = time.monotonic() - t0
    ok = worst <= ACCEPT_TOL and elapsed < 30.0
    assert _report("split equivalence (200 programs, all inputs)", ok,
                   f"worst state or acceptance deviation {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_circuit_to_program_exactness():
    rng = np.random.default_rng(0)
    promise = np.vstack([zeros_input(64), np.eye(64, dtype=np.uint8)])
    cases = {"deutsch q=1": (deutsch_circuit(), None),
             "grover n=4 exhaustive": (grover_promise_or(4), None),
             "grover n=16 exhaustive": (grover_promise_or(16), all_inputs(16)),
             "grover n=64 sampled(265)": (grover_promise_or(64), np.vstack(
                 [promise, rng.integers(0, 2, size=(200, 64)).astype(np.uint8)]))}
    worst = max(check_row("circuit_to_rgqbp", c, xs) for c, xs in cases.values())
    ok = worst <= ACCEPT_TOL
    assert _report("circuit -> program exactness", ok,
                   f"{', '.join(cases)}; worst deviation {worst:.2e}")
    assert ok


def test_program_to_circuit_exactness():
    programs = [parity_program(n) for n in (2, 4, 8)]
    programs += [seeded_program(1000 + seed) for seed in range(100)]
    # check_row asserts 2L queries on ceil(log2 s) + ceil(log2 n) + 1 wires
    worst = max(check_row("rgqbp_to_circuit", prog) for prog in programs)
    ok = worst <= ACCEPT_TOL
    assert _report("program -> circuit exactness", ok,
                   f"parity 2/4/8 + 100 random; worst deviation {worst:.2e}, "
                   f"2L queries and wire formula held")
    assert ok


def test_parity_correctness_up_to_n12():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 13, 2):
        prog = parity_program(n)
        xs = all_inputs(n)
        probs = acceptance_probabilities(prog, xs)
        worst = max(worst, float(np.abs(probs - xs.sum(axis=1) % 2).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= TOL and elapsed < 10.0
    assert _report("parity program exact on all inputs, n <= 12", ok,
                   f"worst deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= TOL
    assert elapsed < 10.0


def test_promise_or_hybrid_bound_200_random_programs():
    worst_slack = np.inf
    cauchy_ok = True
    for seed in range(200):
        prog = seeded_program(3000 + seed)
        report = promise_or_expectation(prog)
        worst_slack = min(worst_slack, report.slack)
        cap = math.sqrt(prog.width) + TOL
        trace = hybrid_deviation(prog, zeros_input(prog.n), np.eye(prog.n, dtype=np.uint8)[0])
        if any(l1 > cap for l1 in trace.level_l1):
            cauchy_ok = False
    ok = worst_slack >= -TOL and cauchy_ok
    assert _report("one-hot family expectation bound (200 programs)", ok,
                   f"worst slack {worst_slack:.3e}, per-level l1 caps "
                   f"{'held' if cauchy_ok else 'VIOLATED'}")
    assert worst_slack >= -TOL
    assert cauchy_ok


def test_hamming_bounds_both_cases():
    n = 8
    worst_slack = np.inf
    cardinalities_ok = True
    for (k, delta) in ((2, 1), (3, 2), (6, 1)):
        fixed_yes = "1" * k + "0" * (n - k)
        fixed_no = "1" * (k + delta) + "0" * (n - k - delta)
        if hamming_family(n, k, delta, fixed_yes).size != math.comb(n - k, delta):
            cardinalities_ok = False
        if hamming_family(n, k, delta, fixed_no).size != math.comb(k + delta, delta):
            cardinalities_ok = False
        for seed in range(50):
            rng = np.random.default_rng(seed)
            prog = random_rgqbp(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                                n, seed=7000 + 100 * k + seed)
            for fixed in (fixed_yes, fixed_no):
                report = hamming_expectation(prog, k, delta, fixed)
                worst_slack = min(worst_slack, report.slack)
    ok = worst_slack >= -TOL and cardinalities_ok
    assert _report("weight-decision expectation bounds (cases 1 and 2)", ok,
                   f"3 parameter sets x 50 programs x 2 cases; worst slack "
                   f"{worst_slack:.3e}, cardinalities "
                   f"{'exact' if cardinalities_ok else 'WRONG'}")
    assert worst_slack >= -TOL
    assert cardinalities_ok


def test_tradeoff_tightness_at_desk_scale():
    t0 = time.monotonic()
    grover_rows = tradeoff_scan("grover-or", [4, 16, 64])
    grover_ok = all(r.min_success >= 2 / 3 and r.ratio <= 2.0 for r in grover_rows)
    parity_rows = tradeoff_scan("parity", list(range(2, 13, 2)))
    parity_ok = all(abs(r.ratio - 1 / math.sqrt(2)) <= 1e-12 for r in parity_rows)
    elapsed = time.monotonic() - t0
    ok = grover_ok and parity_ok and elapsed < 60.0
    grover_summary = ", ".join(
        f"n={r.n}: success {r.min_success:.3f}, ratio {r.ratio:.3f}" for r in grover_rows)
    assert _report("query-space tradeoff at desk scale", ok,
                   f"{grover_summary}; parity ratio 1/sqrt(2) "
                   f"{'exact' if parity_ok else 'WRONG'}, {elapsed:.1f}s")
    assert grover_ok
    assert parity_ok
    assert elapsed < 60.0


def test_distinguishability_floor_on_builtins():
    min_distance = np.inf
    all_pass = True
    for n in (2, 4, 6, 8):
        prog = parity_program(n)
        xs = all_inputs(n)
        yes = [x for x in xs if x.sum() % 2 == 1]
        no = [x for x in xs if x.sum() % 2 == 0]
        report = distinguishability_check(prog, yes, no)
        all_pass &= report.passed
        min_distance = min(min_distance, report.min_distance)
    for n in (4, 16, 64):
        prog = circuit_to_rgqbp(grover_promise_or(n))
        yes = np.eye(n, dtype=np.uint8)
        report = distinguishability_check(prog, yes, [zeros_input(n)])
        all_pass &= report.passed
        min_distance = min(min_distance, report.min_distance)
    ok = all_pass and min_distance >= 1 / 6
    assert _report("distinguishability floor on builtin deciders", ok,
                   f"min cross-class distance {min_distance:.3f} >= 1/6")
    assert all_pass
    assert min_distance >= 1 / 6


def test_serialization_roundtrip_on_builtin_artifacts():
    program_artifacts = [parity_program(n) for n in range(2, 13, 2)]
    program_artifacts += [split_layers(parity_program(4))]
    program_artifacts += [random_rgqbp(4, 3, 5, seed=s) for s in range(5)]
    program_artifacts += [circuit_to_rgqbp(grover_promise_or(4))]
    circuit_artifacts = [grover_promise_or(n) for n in (4, 16, 64)]
    circuit_artifacts += [rgqbp_to_circuit(parity_program(4)), deutsch_circuit()]
    # check_row asserts that re-serializing gives identical bytes
    worst = max([check_row("gqbp-v1", prog) for prog in program_artifacts]
                + [check_row("qqc", circuit) for circuit in circuit_artifacts])
    count = len(program_artifacts) + len(circuit_artifacts)
    ok = worst <= ACCEPT_TOL
    assert _report("serialization byte-level roundtrip", ok,
                   f"{count} builtin artifacts, worst deviation {worst:.2e}")
    assert ok
