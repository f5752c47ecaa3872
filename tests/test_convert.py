import numpy as np
import pytest

from gqbp import (
    BitOracle,
    QueryCircuit,
    Unitary,
    circuit_to_rgqbp,
    count_queries,
    generalize,
    grover_promise_or,
    parity_program,
    random_rgqbp,
    rgqbp_to_circuit,
    roundtrip_check,
    validate_restricted,
)
from gqbp.circuit import circuit_acceptances, index_register_width
from gqbp.simulate import all_inputs

from helpers import ACCEPT_TOL, HADAMARD, rewrite_gap, seeded_program, width1_flip_program
from test_rewrites import CIRCUITS, check_row


def test_deutsch_to_program():
    assert check_row("circuit_to_rgqbp", CIRCUITS["deutsch"]) <= ACCEPT_TOL


def test_queryless_circuit_to_program():
    u = np.kron(HADAMARD, HADAMARD)
    c = QueryCircuit(q=2, n=2, gates=(Unitary(u),), accept=frozenset({0}))
    prog = circuit_to_rgqbp(c)
    assert prog.length == 0
    assert np.abs(prog.initial - u[:, 0]).max() <= 1e-12


def test_grover4_to_program_decides_promise_inputs():
    prog = circuit_to_rgqbp(grover_promise_or(4))
    from gqbp import acceptance_probability, one_hot_input, zeros_input
    assert acceptance_probability(prog, zeros_input(4)) == pytest.approx(0.0, abs=1e-12)
    for p in range(4):
        assert acceptance_probability(prog, one_hot_input(4, p)) == pytest.approx(1.0, abs=1e-12)


def test_grover_conversion_exhaustive():
    assert max(check_row("circuit_to_rgqbp", grover_promise_or(n)) for n in (4, 8)) <= ACCEPT_TOL


def test_phase_circuit_conversion_random_unitaries():
    assert check_row("circuit_to_rgqbp", CIRCUITS["dense random unitaries"]) <= ACCEPT_TOL


def test_mid_sequence_bit_oracle_conversion():
    assert check_row("circuit_to_rgqbp", CIRCUITS["bit oracle mid-sequence"]) <= ACCEPT_TOL


def test_converted_program_passes_restricted_validation():
    for n in (4, 16):
        prog = circuit_to_rgqbp(grover_promise_or(n))
        for level in prog.levels:
            assert validate_restricted(level).passed


def test_adjacent_oracles_fuse_to_identity_segments():
    assert check_row("circuit_to_rgqbp", CIRCUITS["adjacent oracles"]) <= ACCEPT_TOL


def test_width1_program_to_circuit():
    prog = width1_flip_program(n=4)
    c = rgqbp_to_circuit(prog)
    assert c.q == 0 + index_register_width(4) + 1
    xs = all_inputs(4)
    assert np.allclose(circuit_acceptances(c, xs), 1.0, atol=1e-12)


def test_parity2_program_to_circuit():
    # 3 wires and 2 queries, by the row's wire and query formulas
    assert check_row("rgqbp_to_circuit", parity_program(2)) <= ACCEPT_TOL


def test_circuit_cost_formulas():
    # the row asserts 2L queries on ceil(log2 s) + ceil(log2 n) + 1 wires
    for seed in (0, 5, 9):
        assert check_row("rgqbp_to_circuit", seeded_program(seed)) <= ACCEPT_TOL


def test_non_power_of_two_width_and_n():
    prog = random_rgqbp(3, 2, 5, seed=2)
    rep = roundtrip_check(prog)
    assert rep.exhaustive
    assert rep.max_deviation <= ACCEPT_TOL
    c = rgqbp_to_circuit(prog)
    assert c.q == 2 + 3 + 1


def test_width16_roundtrip_at_desk_scale():
    prog = random_rgqbp(16, 6, 8, seed=4)
    rep = roundtrip_check(prog)
    assert rep.exhaustive
    assert rep.max_deviation <= ACCEPT_TOL


def test_length16_roundtrip_at_desk_scale():
    prog = random_rgqbp(4, 16, 4, seed=6)
    rep = roundtrip_check(prog)
    assert rep.exhaustive
    assert rep.max_deviation <= ACCEPT_TOL
    assert count_queries(rgqbp_to_circuit(prog)) == 32


def test_shuffled_bit_oracle_index_wires():
    # conversion decodes the queried position from arbitrary wire order the
    # same way the circuit simulator does
    assert check_row("circuit_to_rgqbp", CIRCUITS["shuffled bit-oracle wires"]) <= ACCEPT_TOL


def test_label_writer_gates_are_involutions():
    from gqbp import Permutation
    prog = seeded_program(14)
    circuit = rgqbp_to_circuit(prog)
    # per level: writer, oracle, phase, oracle, writer, mix
    for i in range(1, len(circuit.gates), 6):
        writer = circuit.gates[i]
        assert isinstance(writer, Permutation)
        assert writer is circuit.gates[i + 4]
        assert np.array_equal(writer.perm[writer.perm], np.arange(circuit.dim))


def test_compiled_circuit_is_structured_and_exact():
    from gqbp import Diagonal, Permutation
    for seed in range(6):
        prog = random_rgqbp(3 + seed % 4, 2 + seed % 3, 3 + seed, seed=seed)
        circuit = rgqbp_to_circuit(prog)
        node_wires = tuple(range(index_register_width(prog.width)))
        kinds = [type(g) for g in circuit.gates[1:7]]
        assert kinds == [Permutation, BitOracle, Diagonal, BitOracle, Permutation, Unitary]
        assert all(g.wires == node_wires for g in circuit.gates[::6])
        assert rewrite_gap(prog, circuit) <= ACCEPT_TOL
        # segment fusion applies the structured gates too
        assert rewrite_gap(circuit, circuit_to_rgqbp(circuit)) <= ACCEPT_TOL


def test_rgqbp_to_circuit_rejects_general():
    with pytest.raises(ValueError, match="restricted"):
        rgqbp_to_circuit(generalize(seeded_program(1)))


def test_roundtrip_parity4():
    rep = roundtrip_check(parity_program(4))
    assert rep.inputs_checked == 16
    assert rep.max_deviation <= ACCEPT_TOL


def test_roundtrip_random():
    rep = roundtrip_check(random_rgqbp(4, 3, 4, seed=11))
    assert rep.passed
    assert rep.max_deviation <= ACCEPT_TOL


def test_roundtrip_sampled_above_exhaustive_limit():
    prog = random_rgqbp(4, 3, 20, seed=1)
    rep = roundtrip_check(prog)
    assert not rep.exhaustive
    assert rep.inputs_checked == 256
    assert rep.passed
    assert roundtrip_check(prog) == rep


def test_roundtrip_zero_length():
    from gqbp import Program
    prog = Program(n=2, initial=np.array([0, 1], dtype=complex), levels=(),
                   accept=frozenset({1}))
    rep = roundtrip_check(prog)
    assert rep.max_deviation == 0.0
