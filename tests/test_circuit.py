import numpy as np
import pytest

from gqbp import (
    BitOracle,
    PhaseOracle,
    QueryCircuit,
    Unitary,
    circuit_acceptance,
    complete_unitary,
    count_queries,
    run_circuit,
    validate_circuit,
)
from gqbp.circuit import circuit_acceptances, run_circuit_batch
from gqbp.simulate import all_inputs

from helpers import HADAMARD, deutsch_circuit


def test_empty_circuit_stays_at_zero_state():
    c = QueryCircuit(q=2, n=2, gates=())
    state = run_circuit(c, "00")
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.array_equal(state, expected)


def test_deutsch_constant_input():
    c = deutsch_circuit()
    state = run_circuit(c, "00")
    assert np.allclose(state, [1, 0], atol=1e-12)


def test_deutsch_balanced_input():
    # H . diag(1,-1) . H |0> = |1>
    c = deutsch_circuit()
    state = run_circuit(c, "01")
    assert np.allclose(state, [0, 1], atol=1e-12)


def test_deutsch_acceptance():
    c = deutsch_circuit()
    assert circuit_acceptance(c, "01") == pytest.approx(1.0)
    assert circuit_acceptance(c, "00") == pytest.approx(0.0)


def test_acceptance_all_states_is_one():
    c = QueryCircuit(q=2, n=4, gates=(PhaseOracle(),), accept=frozenset(range(4)))
    for x in ("0000", "1010", "1111"):
        assert circuit_acceptance(c, x) == pytest.approx(1.0)


def test_count_queries():
    assert count_queries(QueryCircuit(q=1, n=2, gates=())) == 0
    assert count_queries(deutsch_circuit()) == 1
    both = QueryCircuit(q=2, n=2, gates=(
        PhaseOracle(), BitOracle(index_wires=(0,), target_wire=1), PhaseOracle()))
    assert count_queries(both) == 3


def test_phase_oracle_is_an_involution():
    c = QueryCircuit(q=2, n=4, gates=(Unitary(np.kron(HADAMARD, HADAMARD)),
                                      PhaseOracle(), PhaseOracle()))
    ref = QueryCircuit(q=2, n=4, gates=(Unitary(np.kron(HADAMARD, HADAMARD)),))
    for x in all_inputs(4):
        assert np.abs(run_circuit(c, x) - run_circuit(ref, x)).max() <= 1e-12


def test_bit_oracle_is_an_involution():
    oracle = BitOracle(index_wires=(0,), target_wire=1)
    c = QueryCircuit(q=2, n=2, gates=(Unitary(np.kron(HADAMARD, HADAMARD)),
                                      oracle, oracle))
    ref = QueryCircuit(q=2, n=2, gates=(Unitary(np.kron(HADAMARD, HADAMARD)),))
    for x in all_inputs(2):
        assert np.abs(run_circuit(c, x) - run_circuit(ref, x)).max() <= 1e-12


def test_bit_oracle_writes_indexed_bit():
    # |k>|0> -> |k>|x_k> from a uniform index superposition
    prep = Unitary(np.kron(HADAMARD, np.eye(2)))
    c = QueryCircuit(q=2, n=2, gates=(prep, BitOracle(index_wires=(0,), target_wire=1)))
    state = run_circuit(c, "01")
    # basis order: |00>, |01>, |10>, |11>; x_0=0 keeps |00>, x_1=1 flips to |11>
    assert np.allclose(state, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_oracle_padding_reads_zero_beyond_n():
    # q=2 wires address 4 positions but n=3: index 3 must act as bit 0
    c = QueryCircuit(q=2, n=3, gates=(Unitary(np.kron(HADAMARD, HADAMARD)), PhaseOracle()))
    state = run_circuit(c, "111")
    assert state[3] == pytest.approx(0.5)  # unflipped sign on the padded index


def test_run_circuit_batch_matches_single():
    c = deutsch_circuit()
    xs = all_inputs(2)
    batch = run_circuit_batch(c, xs)
    for i, x in enumerate(xs):
        assert np.abs(batch[i] - run_circuit(c, x)).max() <= 1e-12


def test_norm_preserved():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = np.linalg.qr(z)[0]
    c = QueryCircuit(q=2, n=4, gates=(Unitary(u), PhaseOracle(),
                                      BitOracle(index_wires=(0,), target_wire=1),
                                      Unitary(u)))
    norms = np.linalg.norm(run_circuit_batch(c, all_inputs(4)), axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_validate_circuit_flags_non_unitary():
    good = QueryCircuit(q=1, n=2, gates=(Unitary(HADAMARD),))
    assert validate_circuit(good).passed
    bad = QueryCircuit(q=1, n=2, gates=(Unitary(np.ones((2, 2))),))
    report = validate_circuit(bad)
    assert not report.passed


def test_structural_validation():
    with pytest.raises(ValueError, match="dimensional"):
        QueryCircuit(q=2, n=2, gates=(Unitary(HADAMARD),))
    with pytest.raises(ValueError, match="out of range"):
        QueryCircuit(q=1, n=2, gates=(BitOracle(index_wires=(0,), target_wire=3),))
    with pytest.raises(ValueError, match="accept state"):
        QueryCircuit(q=1, n=2, gates=(), accept=frozenset({4}))
    with pytest.raises(ValueError, match="index wire"):
        BitOracle(index_wires=(0, 1), target_wire=1)
    with pytest.raises(ValueError, match="distinct"):
        BitOracle(index_wires=(0, 0), target_wire=1)
    with pytest.raises(ValueError, match="index wires"):
        QueryCircuit(q=2, n=8, gates=(PhaseOracle(),))  # needs 3 index wires
    with pytest.raises(ValueError, match="power of two"):
        Unitary(np.eye(3))
    with pytest.raises(ValueError, match="tol"):
        validate_circuit(QueryCircuit(q=1, n=2, gates=()), tol=0.0)


def test_complete_unitary_identity_case():
    u = complete_unitary(np.array([1, 0, 0, 0], dtype=complex))
    assert np.array_equal(u, np.eye(4))


def test_complete_unitary_uniform_column():
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    u = complete_unitary(v)
    assert np.abs(u[:, 0] - v).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12


def test_complete_unitary_basis_flip():
    v = np.array([0, 1], dtype=complex)
    u = complete_unitary(v)
    assert np.abs(u[:, 0] - v).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12


def test_complete_unitary_random_vectors():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 5, 8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        u = complete_unitary(v)
        assert np.abs(u[:, 0] - v).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12


def test_complete_unitary_rejects_unnormalized():
    with pytest.raises(ValueError, match="unit vector"):
        complete_unitary(np.array([1.0, 1.0]))


def test_circuit_simulation_rejects_non_binary_inputs():
    from gqbp import grover_promise_or

    circuit = grover_promise_or(4)
    for call in (circuit_acceptances, run_circuit_batch):
        for bad in ([[0, 2, 0, 0]], [[0, 0.5, 0, 0]], np.full((2, 4), 1.9)):
            with pytest.raises(ValueError, match="inputs must be 0/1 bits"):
                call(circuit, bad)
    assert circuit_acceptances(circuit, [[0, 1, 0, 0]])[0] == pytest.approx(1.0)
