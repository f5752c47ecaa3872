import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqbp
from gqbp import (
    GeneralLevel,
    Program,
    RestrictedLevel,
    acceptance_probabilities,
    acceptance_probability,
    as_bits,
    circuit_acceptance,
    circuit_acceptances,
    decide,
    evolve,
    final_state,
    final_states,
    generalize,
    grover_promise_or,
    hamming_family,
    hybrid_deviation,
    hybrid_run,
    parity_program,
    random_rgqbp,
    restrict,
    run_circuit,
    sample_measurement,
    validate_general,
    validate_program,
    validate_restricted,
)
from gqbp.circuit import run_circuit_batch
from gqbp.core import unitarity_deviation
from gqbp.simulate import transition_matrix

from helpers import seeded_program


def test_as_bits_from_string():
    assert as_bits("0101").tolist() == [0, 1, 0, 1]


def test_as_bits_rejects_bad_chars():
    with pytest.raises(ValueError):
        as_bits("01x1")


def test_as_bits_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        as_bits("01", 3)


# Every entry point that takes one input, called on 4-bit inputs.
PARITY4 = parity_program(4)
GROVER4 = grover_promise_or(4)
SINGLE_INPUT_CALLS = {
    "as_bits": lambda x: as_bits(x, 4),
    "transition_matrix": lambda x: transition_matrix(PARITY4.levels[0], x),
    "final_state": lambda x: final_state(PARITY4, x),
    "acceptance_probability": lambda x: acceptance_probability(PARITY4, x),
    "decide": lambda x: decide(PARITY4, x),
    "sample_measurement": lambda x: sample_measurement(PARITY4, x, seed=0),
    "run_circuit": lambda x: run_circuit(GROVER4, x),
    "circuit_acceptance": lambda x: circuit_acceptance(GROVER4, x),
    "hybrid_run": lambda x: hybrid_run(PARITY4, x, "0000", 1),
    "hybrid_deviation": lambda x: hybrid_deviation(PARITY4, x, "0000"),
    "hamming_family": lambda x: hamming_family(4, 1, 1, x),
}
# Each would read as a weight-1 or weight-2 string if cast to uint8 first.
NON_BIT_INPUTS = {
    "fraction": [0.5, 1, 0, 0],
    "digit strings": ["1", "0", "1", "0"],
    "wraps to 0": np.array([256, 1, 0, 0]),
}


@pytest.mark.parametrize("bad", NON_BIT_INPUTS.values(), ids=NON_BIT_INPUTS.keys())
@pytest.mark.parametrize("call", SINGLE_INPUT_CALLS.values(), ids=SINGLE_INPUT_CALLS.keys())
def test_single_input_entry_points_refuse_non_bits(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call", SINGLE_INPUT_CALLS.values(), ids=SINGLE_INPUT_CALLS.keys())
def test_single_input_entry_points_refuse_several_rows(call):
    with pytest.raises(ValueError):
        call(["0000", "1000"])
    with pytest.raises(ValueError):
        call(np.zeros((2, 4), dtype=np.uint8))


@pytest.mark.parametrize("bad", NON_BIT_INPUTS.values(), ids=NON_BIT_INPUTS.keys())
def test_evolve_record_refuses_non_bits(bad):
    with pytest.raises(ValueError):
        evolve(PARITY4, bad, record=True)


def test_one_bit_program_refuses_digit_list():
    program = Program(n=1, initial=np.array([1.0 + 0j]),
                      levels=(RestrictedLevel(labels=np.array([0]), base=np.eye(1),
                                              thetas=np.array([np.pi])),))
    for call in (final_state, acceptance_probability):
        with pytest.raises(ValueError, match="single input"):
            call(program, ["1", "0"])
    assert final_states(program, ["1", "0"]).shape == (2, 1)
    assert evolve(program, ["1", "0"], record=True).shape == (2, 2, 1)


def test_input_forms_agree_on_single_and_batch_paths():
    rng = np.random.default_rng(5)
    program = random_rgqbp(5, 6, 8, seed=5)
    circuit = grover_promise_or(8)
    rows = rng.integers(0, 2, size=(6, 8)).astype(np.uint8)
    batch_forms = [rows, rows.astype(np.int64), rows.astype(bool), rows.astype(float),
                   rows.tolist(), ["".join(map(str, r)) for r in rows], list(rows)]
    states = final_states(program, rows)
    probs = acceptance_probabilities(program, rows)
    circuit_probs = circuit_acceptances(circuit, rows)
    for form in batch_forms:
        assert np.array_equal(final_states(program, form), states)
        assert np.array_equal(acceptance_probabilities(program, form), probs)
        assert np.array_equal(circuit_acceptances(circuit, form), circuit_probs)
    for bits in rows:
        one = bits[np.newaxis]
        state = final_states(program, one)[0]
        prob = acceptance_probabilities(program, one)[0]
        circuit_state = run_circuit_batch(circuit, one)[0]
        for form in ("".join(map(str, bits)), bits.tolist(), bits, bits.astype(np.int64),
                     bits.astype(bool), bits.astype(float)):
            assert np.array_equal(as_bits(form, 8), bits)
            assert np.array_equal(final_state(program, form), state)
            assert acceptance_probability(program, form) == prob
            assert np.array_equal(run_circuit(circuit, form), circuit_state)
            assert circuit_acceptance(circuit, form) == circuit_acceptances(circuit, one)[0]


def test_validate_restricted_identity_passes():
    level = RestrictedLevel(labels=np.array([0, 1]), base=np.eye(2), thetas=np.zeros(2))
    report = validate_restricted(level, tol=1e-9)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_validate_restricted_parity_final_level():
    # the balanced +-1/sqrt(2) mixing level of the parity program
    final = parity_program(2).levels[-1]
    assert validate_restricted(final, tol=1e-9).passed


def test_validate_restricted_unnormalized_column_fails():
    base = np.array([[1, 0], [1, 1]], dtype=complex)  # column 0 is (1,1)
    level = RestrictedLevel(labels=np.array([0, 1]), base=base, thetas=np.zeros(2))
    report = validate_restricted(level, tol=1e-9)
    assert not report.passed
    assert report.max_deviation == pytest.approx(1.0)


def test_restricted_level_shape_mismatch():
    with pytest.raises(ValueError):
        RestrictedLevel(labels=np.array([0]), base=np.eye(2), thetas=np.zeros(2))
    with pytest.raises(ValueError):
        RestrictedLevel(labels=np.array([0, 1]), base=np.eye(2), thetas=np.zeros(3))


def test_validate_general_identity_both():
    level = GeneralLevel(labels=np.array([0, 1]), a0=np.eye(2), a1=np.eye(2))
    report = validate_general(level)
    assert report.passed
    assert report.assignments_checked == 4


def test_validate_general_phase_diagonal():
    level = GeneralLevel(labels=np.array([0, 0]), a0=np.eye(2), a1=-np.eye(2))
    report = validate_general(level)
    assert report.passed
    assert report.assignments_checked == 2  # one distinct label


def test_validate_general_all_ones_fails():
    level = GeneralLevel(labels=np.array([0, 1]), a0=np.eye(2), a1=np.ones((2, 2)))
    report = validate_general(level)
    assert not report.passed
    # the all-ones assembly (both bits 1) is maximally non-unitary
    ones = np.ones((2, 2))
    expected = np.abs(ones.T @ ones - np.eye(2)).max()
    assert report.max_deviation == pytest.approx(expected)


def test_validate_general_covers_25_distinct_labels():
    s = 25
    identity = GeneralLevel(labels=np.arange(s), a0=np.eye(s), a1=np.eye(s))
    report = validate_general(identity)
    assert report.passed
    assert report.max_deviation == 0.0
    assert report.assignments_checked == 2**25
    # a1 swaps columns 3 and 7: unitary on its own, but x_3=0, x_7=1 puts
    # e_3 in both columns
    swap = np.eye(s)
    swap[:, [3, 7]] = swap[:, [7, 3]]
    report = validate_general(GeneralLevel(labels=np.arange(s), a0=np.eye(s), a1=swap))
    assert not report.passed
    assert report.max_deviation == 1.0
    assert report.assignments_checked == 2**25
    assert report.errors == ("a0/a1 columns of nodes 3, 7 (labels 3, 7) overlap by 1.000e+00",)


def _enumerated(level: GeneralLevel, tol: float = 1e-9):
    """Reference: assemble the transition matrix for every assignment of bits
    to the level's distinct labels and take the worst unitarity deviation."""
    distinct = np.unique(level.labels)
    bits = np.zeros(int(level.labels.max()) + 1, dtype=bool)
    worst = 0.0
    for assignment in itertools.product((False, True), repeat=distinct.size):
        bits[distinct] = assignment
        m = np.where(bits[level.labels][np.newaxis, :], level.a1, level.a0)
        worst = max(worst, unitarity_deviation(m))
    return worst <= tol, worst, 2**distinct.size


def _haar(rng, s):
    z = (rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[np.newaxis, :]


def _random_level(kind: str, seed: int) -> GeneralLevel:
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 7))
    labels = rng.integers(0, int(rng.integers(1, 7)), size=s)
    u = _haar(rng, s)
    if kind == "phase":  # what generalize produces: passes
        a1 = u * np.exp(1j * rng.uniform(0, 2 * np.pi, s))[np.newaxis, :]
    elif kind == "label-block":  # a1 = a0 V, V mixing only within a label: passes
        v = np.zeros((s, s), dtype=complex)
        for lab in np.unique(labels):
            nodes = np.flatnonzero(labels == lab)
            v[np.ix_(nodes, nodes)] = _haar(rng, nodes.size)
        a1 = u @ v
    elif kind == "two-haar":  # each unitary, failing on cross-label pairs
        a1 = _haar(rng, s)
    elif kind == "same-label":  # two independent unitaries under one label: passes
        labels = np.full(s, labels[0])
        a1 = _haar(rng, s)
    elif kind == "near-tol":  # perturbed around the tolerance
        a1 = u * np.exp(1j * rng.uniform(0, 2 * np.pi, s))[np.newaxis, :]
        a1 = a1 + rng.uniform(0.1, 10) * 1e-9 * rng.standard_normal((s, s))
    else:  # non-unitary
        u = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        a1 = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    return GeneralLevel(labels=labels, a0=u, a1=a1)


@pytest.mark.parametrize("kind", ["phase", "label-block", "two-haar", "same-label",
                                  "near-tol", "non-unitary"])
def test_validate_general_matches_enumeration(kind):
    outcomes = set()
    for seed in range(40):
        level = _random_level(kind, seed)
        passed, worst, assignments = _enumerated(level)
        report = validate_general(level)
        assert report.passed == passed, (kind, seed)
        assert abs(report.max_deviation - worst) <= 1e-12, (kind, seed)
        assert report.assignments_checked == assignments
        assert len(report.errors) <= 3 and bool(report.errors) != passed
        outcomes.add(passed)
    if kind in ("phase", "label-block", "same-label"):
        assert outcomes == {True}
    elif kind == "near-tol":
        assert outcomes == {True, False}
    else:
        assert False in outcomes


def test_validate_general_one_error_per_failing_block():
    level = GeneralLevel(labels=np.array([0, 1]), a0=np.eye(2), a1=np.ones((2, 2)))
    assert validate_general(level).errors == (
        "a1 columns of nodes 0, 1 (labels 0, 1) deviate from orthonormal by 2.000e+00",
        "a0/a1 columns of nodes 0, 1 (labels 0, 1) overlap by 1.000e+00",
    )


def test_validate_program_reports_initial_norm():
    level = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.zeros(1))
    bad = Program(n=1, initial=np.array([2.0 + 0j]), levels=(level,), accept=frozenset())
    report = validate_program(bad)
    assert not report.passed
    assert any("norm" in e for e in report.errors)


def test_restrict_negated_columns_give_pi():
    a0 = np.eye(2, dtype=complex)
    level = GeneralLevel(labels=np.array([0, 1]), a0=a0, a1=-a0)
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,))
    out = restrict(prog)
    assert np.allclose(out.levels[0].thetas, np.pi)


def test_restrict_parity_levels_recover_pi():
    general = generalize(parity_program(4))
    out = restrict(general)
    for level in out.levels:
        assert np.allclose(np.mod(level.thetas, 2 * np.pi), np.pi)


def test_restrict_rejects_unrelated_columns():
    a0 = np.array([[1, 0], [0, 1]], dtype=complex)
    a1 = np.array([[0, 0], [1, 1]], dtype=complex)  # node 0: (1,0) vs (0,1)
    level = GeneralLevel(labels=np.array([0, 1]), a0=a0, a1=a1)
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,))
    with pytest.raises(ValueError, match="level 0 node 0"):
        restrict(prog)


@pytest.mark.parametrize("a0_diag,message", [
    ((1, 0, 1), "zero 0-transition but nonzero 1-transition"),  # then node 2 unrelated
    ((1, 1, 0), "transitions are not phase-related"),  # then node 2 one-sided zero
])
def test_restrict_names_the_first_failing_node(a0_diag, message):
    a1 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    level = GeneralLevel(labels=np.zeros(3, dtype=np.int64), a0=np.diag(a0_diag), a1=a1)
    prog = Program(n=1, initial=np.array([1, 0, 0], dtype=complex), levels=(level,) * 2)
    with pytest.raises(ValueError, match=f"^level 0 node 1: {message}"):
        restrict(prog)


def test_generalize_zero_thetas():
    level = RestrictedLevel(labels=np.array([0, 1]), base=np.eye(2), thetas=np.zeros(2))
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,))
    out = generalize(prog)
    assert np.array_equal(out.levels[0].a0, out.levels[0].a1)


def test_generalize_pi_thetas():
    level = RestrictedLevel(labels=np.array([0, 1]), base=np.eye(2),
                            thetas=np.full(2, np.pi))
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,))
    out = generalize(prog)
    assert np.allclose(out.levels[0].a1, -out.levels[0].a0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_restricted_transition_matrices_stay_unitary(seed):
    prog = seeded_program(seed, smax=6, lmax=4, nmax=6)
    x = np.random.default_rng(seed).integers(0, 2, prog.n).astype(np.uint8)
    for level in prog.levels:
        m = transition_matrix(level, x)
        dev = np.abs(m.conj().T @ m - np.eye(prog.width)).max()
        assert dev <= 10 * 1e-9


def test_validate_general_passes_on_generalized():
    prog = generalize(seeded_program(11, smax=5, lmax=3, nmax=5))
    for level in prog.levels:
        assert validate_general(level).passed


def test_program_rejects_mixed_level_kinds():
    r = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.zeros(1))
    g = GeneralLevel(labels=np.array([0]), a0=np.eye(1), a1=np.eye(1))
    with pytest.raises(ValueError, match="mixed"):
        Program(n=1, initial=np.array([1.0 + 0j]), levels=(r, g))


def test_program_rejects_out_of_range_labels():
    level = RestrictedLevel(labels=np.array([3]), base=np.eye(1), thetas=np.zeros(1))
    with pytest.raises(ValueError, match="labels must be"):
        Program(n=2, initial=np.array([1.0 + 0j]), levels=(level,))


def test_program_rejects_bad_accept():
    with pytest.raises(ValueError, match="accept node"):
        Program(n=1, initial=np.array([1.0 + 0j]), levels=(), accept=frozenset({5}))


def test_as_bits_rejects_non_binary_sequence():
    with pytest.raises(ValueError, match="0/1"):
        as_bits([0, 1, 2])


def test_level_constructor_guards():
    with pytest.raises(ValueError, match="square"):
        GeneralLevel(labels=np.array([0, 1]), a0=np.ones((2, 3)), a1=np.ones((2, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        GeneralLevel(labels=np.array([0, 1]), a0=np.eye(2), a1=np.eye(3))
    with pytest.raises(ValueError, match="one entry per node"):
        GeneralLevel(labels=np.array([0]), a0=np.eye(2), a1=np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        RestrictedLevel(labels=np.array([0]), base=np.array([[np.nan]]),
                        thetas=np.zeros(1))
    with pytest.raises(ValueError, match="finite"):
        RestrictedLevel(labels=np.array([0]), base=np.eye(1),
                        thetas=np.array([np.inf]))


def test_program_constructor_guards():
    level = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.zeros(1))
    with pytest.raises(ValueError, match="input length"):
        Program(n=0, initial=np.array([1.0 + 0j]), levels=())
    with pytest.raises(ValueError, match="amplitude vector"):
        Program(n=1, initial=np.zeros((2, 2), dtype=complex), levels=())
    with pytest.raises(ValueError, match="finite"):
        Program(n=1, initial=np.array([np.nan + 0j]), levels=())
    with pytest.raises(ValueError, match="width"):
        Program(n=1, initial=np.array([1, 0], dtype=complex), levels=(level,))


def test_validate_tol_must_be_positive():
    level = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.zeros(1))
    with pytest.raises(ValueError, match="tol"):
        validate_restricted(level, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        validate_general(GeneralLevel(labels=np.array([0]), a0=np.eye(1), a1=np.eye(1)),
                         tol=-1.0)


def test_restrict_zero_column_pair():
    # a shared dead direction is fine (theta 0); a one-sided one is not
    a0 = np.array([[1, 0], [0, 0]], dtype=complex)
    both_zero = GeneralLevel(labels=np.array([0, 1]), a0=a0, a1=a0)
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(both_zero,))
    assert restrict(prog).levels[0].thetas[1] == 0.0

    a1 = np.array([[1, 0], [0, 1]], dtype=complex)
    one_sided = GeneralLevel(labels=np.array([0, 1]), a0=a0, a1=a1)
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(one_sided,))
    with pytest.raises(ValueError, match="zero 0-transition"):
        restrict(prog)


def test_package_has_no_assert_statements():
    # Runtime checks must hold under ``python -O``, which strips asserts.
    package = Path(gqbp.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"
