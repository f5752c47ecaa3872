import numpy as np
import pytest

from gqbp import (
    BitOracle,
    Diagonal,
    Permutation,
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
from gqbp.core import unitarity_deviation
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


def test_bit_oracle_with_fewer_index_wires_than_n_needs():
    # one index wire addresses positions 0 and 1 of an 8-bit input
    c = QueryCircuit(q=2, n=8, gates=(BitOracle(index_wires=(0,), target_wire=1),),
                     accept=frozenset({1}))
    assert np.array_equal(circuit_acceptances(c, ["01111111", "10000000"]), [0.0, 1.0])


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


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def _dense(gate, q):
    """The 2^q x 2^q matrix of an input-free gate, entry by entry."""
    dim = 1 << q
    if isinstance(gate, Permutation):
        m = np.zeros((dim, dim), dtype=complex)
        for j, target in enumerate(gate.perm):
            m[target, j] += 1.0
        return m
    if isinstance(gate, Diagonal):
        return np.diag(gate.phases)
    if gate.wires is None:
        return gate.matrix

    def bit(j, w):
        return (j >> (q - 1 - w)) & 1

    def local(j):  # the gate's own index of basis state j, first wire most significant
        return sum(bit(j, w) << (len(gate.wires) - 1 - i) for i, w in enumerate(gate.wires))

    rest = [w for w in range(q) if w not in gate.wires]
    m = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            if all(bit(r, w) == bit(c, w) for w in rest):
                m[r, c] = gate.matrix[local(r), local(c)]
    return m


def _gate_table():
    rng = np.random.default_rng(41)
    q = 3
    return [
        ("permutation", q, Permutation(rng.permutation(8))),
        ("diagonal", q, Diagonal(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))),
        ("full-width unitary", q, Unitary(_random_unitary(rng, 8))),
        ("local on wire 0", q, Unitary(_random_unitary(rng, 2), wires=(0,))),
        ("local on wire 2", q, Unitary(_random_unitary(rng, 2), wires=(2,))),
        ("local on wires (2, 0)", q, Unitary(_random_unitary(rng, 4), wires=(2, 0))),
        ("local on wires (1, 2)", q, Unitary(_random_unitary(rng, 4), wires=(1, 2))),
        ("local on wires (1, 2, 0)", q, Unitary(_random_unitary(rng, 8), wires=(1, 2, 0))),
        ("local on no wires", 2, Unitary(np.array([[np.exp(0.3j)]]), wires=())),
    ]


GATES = _gate_table()


@pytest.mark.parametrize("name,q,gate", GATES, ids=[g[0] for g in GATES])
def test_structured_gate_matches_its_dense_matrix(name, q, gate):
    rng = np.random.default_rng(7)
    n = 1 << q
    prefix = (Unitary(_random_unitary(rng, 1 << q)), PhaseOracle())
    inputs = rng.integers(0, 2, size=(16, n))
    before = run_circuit_batch(QueryCircuit(q=q, n=n, gates=prefix), inputs)
    after = run_circuit_batch(QueryCircuit(q=q, n=n, gates=prefix + (gate,)), inputs)
    assert np.abs(after - before @ _dense(gate, q).T).max() <= 1e-13


@pytest.mark.parametrize("name,q,gate", GATES, ids=[g[0] for g in GATES])
def test_validate_circuit_reports_the_dense_deviation(name, q, gate):
    report = validate_circuit(QueryCircuit(q=q, n=2, gates=(gate,)))
    assert report.passed and report.errors == ()
    assert report.max_deviation == pytest.approx(unitarity_deviation(_dense(gate, q)), abs=1e-15)


def test_validate_circuit_names_each_broken_structured_gate():
    perm = np.arange(8)
    perm[5] = 2  # basis states 2 and 5 both go to 2
    phases = np.ones(8, dtype=complex)
    phases[6] = 1.5
    broken = [Permutation(perm), Diagonal(phases), Unitary(np.ones((2, 2)), wires=(1,))]
    gates = (Unitary(np.eye(8)), broken[0], PhaseOracle(), broken[1], broken[2])
    report = validate_circuit(QueryCircuit(q=3, n=4, gates=gates))
    assert not report.passed
    assert [e.split(":")[0] for e in report.errors] == ["gate 1", "gate 3", "gate 4"]
    assert "states 2 and 5 to 2" in report.errors[0]
    assert "entry 6" in report.errors[1]
    devs = [unitarity_deviation(_dense(g, 3)) for g in broken]
    assert devs[0] == 1.0
    assert report.max_deviation == pytest.approx(max(devs), abs=1e-15)
    for g in broken:
        single = validate_circuit(QueryCircuit(q=3, n=4, gates=(g,)))
        assert single.max_deviation == pytest.approx(unitarity_deviation(_dense(g, 3)),
                                                     abs=1e-15)
    # a broken permutation still simulates as its dense matrix
    x = [0, 1, 1, 0]
    state = run_circuit(QueryCircuit(q=3, n=4, gates=gates[:2]), x)
    assert np.abs(state - _dense(broken[0], 3) @ run_circuit(
        QueryCircuit(q=3, n=4, gates=gates[:1]), x)).max() <= 1e-13


def test_structured_gate_construction_checks():
    with pytest.raises(ValueError, match="distinct"):
        Unitary(np.eye(4), wires=(1, 1))
    with pytest.raises(ValueError, match="2 wires need 4"):
        Unitary(np.eye(2), wires=(0, 1))
    with pytest.raises(ValueError, match="out of range"):
        QueryCircuit(q=2, n=2, gates=(Unitary(np.eye(2), wires=(2,)),))
    with pytest.raises(ValueError, match=r"targets must be in \[0, 4\)"):
        Permutation([0, 1, 2, 4])
    with pytest.raises(ValueError, match="integer"):
        Permutation([0.0, 1.0])
    with pytest.raises(ValueError, match="power of two"):
        Diagonal(np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        Diagonal([1.0, np.nan])
    with pytest.raises(ValueError, match="perm is 4-dimensional, circuit needs 8"):
        QueryCircuit(q=3, n=2, gates=(Permutation(np.arange(4)),))
    with pytest.raises(ValueError, match="phases is 2-dimensional"):
        QueryCircuit(q=3, n=2, gates=(Diagonal(np.ones(2)),))
