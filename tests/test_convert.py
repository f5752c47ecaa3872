from dataclasses import replace

import numpy as np
import pytest

from gqbp import (
    BitOracle,
    Diagonal,
    Permutation,
    Program,
    QueryCircuit,
    RestrictedLevel,
    Unitary,
    acceptance_probabilities,
    circuit_acceptances,
    circuit_to_rgqbp,
    complete_unitary,
    count_queries,
    generalize,
    grover_promise_or,
    pad_width,
    parity_program,
    random_rgqbp,
    rgqbp_to_circuit,
    roundtrip_check,
)
from gqbp.circuit import index_register_width
from gqbp.convert import read_compiled
from gqbp.core import DEFAULT_TOL
from gqbp.simulate import all_inputs

from helpers import ACCEPT_TOL, HADAMARD, rewrite_gap, seeded_program


def test_grover4_to_program_decides_promise_inputs():
    prog = circuit_to_rgqbp(grover_promise_or(4))
    from gqbp import acceptance_probability, zeros_input
    assert acceptance_probability(prog, zeros_input(4)) == pytest.approx(0.0, abs=1e-12)
    for p in range(4):
        assert acceptance_probability(prog, np.eye(4, dtype=np.uint8)[p]) == pytest.approx(1.0, abs=1e-12)


def test_non_power_of_two_width_and_n():
    prog = random_rgqbp(3, 2, 5, seed=2)
    c = rgqbp_to_circuit(prog)
    rep = roundtrip_check(prog, c)
    assert rep.max_deviation <= ACCEPT_TOL
    assert c.q == 2 + 3 + 1


def test_width16_roundtrip_at_desk_scale():
    prog = random_rgqbp(16, 6, 8, seed=4)
    rep = roundtrip_check(prog, rgqbp_to_circuit(prog))
    assert rep.max_deviation <= ACCEPT_TOL


def test_length16_roundtrip_at_desk_scale():
    prog = random_rgqbp(4, 16, 4, seed=6)
    rep = roundtrip_check(prog, rgqbp_to_circuit(prog))
    assert rep.max_deviation <= ACCEPT_TOL
    assert count_queries(rgqbp_to_circuit(prog)) == 32


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
        # one more gate leaves the compiler's layout, so segment fusion
        # applies the structured gates too
        rng = np.random.default_rng(seed)
        extra = replace(circuit, gates=circuit.gates + (
            Diagonal(np.exp(1j * rng.uniform(0, 2 * np.pi, circuit.dim))),))
        fused = circuit_to_rgqbp(extra)
        assert fused.width == circuit.dim and fused.length == count_queries(circuit)
        assert rewrite_gap(extra, fused) <= ACCEPT_TOL


def test_rgqbp_to_circuit_rejects_general():
    with pytest.raises(ValueError, match="restricted"):
        rgqbp_to_circuit(generalize(seeded_program(1)))


def test_roundtrip_parity4():
    rep = roundtrip_check(parity_program(4), rgqbp_to_circuit(parity_program(4)))
    assert rep.max_deviation <= ACCEPT_TOL


def test_roundtrip_random():
    prog = random_rgqbp(4, 3, 4, seed=11)
    rep = roundtrip_check(prog, rgqbp_to_circuit(prog))
    assert rep.passed
    assert rep.max_deviation <= ACCEPT_TOL


def test_roundtrip_certified_at_large_n():
    # the certificate's cost does not depend on n: no input is enumerated
    for s, length, n in ((16, 8, 16), (32, 4, 32)):
        prog = random_rgqbp(s, length, n, seed=1)
        rep = roundtrip_check(prog, rgqbp_to_circuit(prog))
        assert rep.passed, rep.errors
        assert rep.convention == "compiled-blocks"
        assert rep.assignments_checked == 1 + 6 * length
        assert rep.max_deviation <= ACCEPT_TOL


def test_roundtrip_zero_length():
    from gqbp import Program
    prog = Program(n=2, initial=np.array([0, 1], dtype=complex), levels=(),
                   accept=frozenset({1}))
    rep = roundtrip_check(prog, rgqbp_to_circuit(prog))
    assert rep.max_deviation == 0.0


def _certified_program() -> Program:
    """Three levels on 4 nodes, n=5.  Level 1 has labels 0 on nodes 0 and 1,
    angles only on nodes 2 and 3, and a base symmetric only on nodes 0 and 1,
    so each break of level 1 below first shows at node 2."""
    rng = np.random.default_rng(3)
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    base = np.kron(np.diag([1, 0]), HADAMARD) + np.kron(np.diag([0, 1]), rot)
    middle = RestrictedLevel(labels=np.array([0, 0, 3, 1]), base=base,
                             thetas=np.array([0.0, 0.0, 1.0, 2.0]))
    outer = random_rgqbp(4, 2, 5, seed=3).levels
    initial = rng.normal(size=4) + 1j * rng.normal(size=4)
    return Program(n=5, initial=initial / np.linalg.norm(initial),
                   levels=(outer[0], middle, outer[1]), accept=frozenset({1, 2}))


def _broken(circuit: QueryCircuit, gates: dict) -> QueryCircuit:
    """``circuit`` with gate ``g`` replaced by ``gates[g]``."""
    return replace(circuit, gates=tuple(gates.get(g, gate) for g, gate in enumerate(circuit.gates)))


def _breaks() -> dict:
    """Hand-broken copies of the compiled ``_certified_program`` and the start
    of the one error line each must get.  The compiled circuit has q=6: node
    wires 0-1, position wires 2-4 and query wire 5.  Level 1 is gates 7 (label
    write), 8 (oracle), 9 (diagonal), 10 (oracle), 11 (uncompute), 12 (mix)."""
    prog = _certified_program()
    c = rgqbp_to_circuit(prog)
    j = np.arange(c.dim)
    node, query_bit = j >> 4, j & 1
    middle = prog.levels[1]
    write = middle.labels[node] << 1
    wrong = Permutation(j ^ (np.array([0, 0, 4, 1])[node] << 1))
    past_n = Permutation(j ^ (np.array([0, 0, 7, 1])[node] << 1))
    query_set, node_moved = Permutation(j ^ write ^ 1), Permutation(j ^ write ^ 16)
    wrong_bit = Diagonal(np.exp(1j * middle.thetas[node] * (1 - query_bit)))
    wrong_angle = Diagonal(np.exp(1j * (middle.thetas[node] + 0.5) * query_bit))
    other_initial = complete_unitary(np.roll(prog.initial, 1))
    return {
        "wrong label": (_broken(c, {7: wrong, 11: wrong}),
                        "level 1 node 2: gates 8, 10 read 4, not label 3"),
        "label past n": (_broken(c, {7: past_n, 11: past_n}),
                         "level 1 node 2: gates 8, 10 read [5 5 5 5] into wires 5, 5"),
        "second oracle reads another position": (
            _broken(c, {10: BitOracle(index_wires=(3, 2, 4), target_wire=5)}),
            "level 1 node 2: gates 8, 10 read [3 3 5 5]"),
        "write sets the query bit": (_broken(c, {7: query_set, 11: query_set}),
                                     "level 1 node 0: gate 7 sends home state 0 to 1"),
        "write leaves the node": (_broken(c, {7: node_moved, 11: node_moved}),
                                  "level 1 node 0: gate 7 sends home state 0 to 16"),
        "dropped uncompute": (_broken(c, {11: Permutation(j)}), "level 1 node 2: gate 11 sends"),
        "phase on the wrong query bit": (_broken(c, {9: wrong_bit}),
                                         "level 1 node 2: gate 9 is off"),
        "angle off by 0.5": (_broken(c, {9: wrong_angle}), "level 1 node 0: gate 9 is off"),
        "transposed base": (_broken(c, {12: Unitary(middle.base.T, wires=(0, 1))}),
                            "level 1 node 2: column 2 of gate 12"),
        "oracle targets a position wire": (
            _broken(c, {8: BitOracle(index_wires=(3, 4), target_wire=2)}),
            "level 1 node 0: gates 8, 10 read [0 0 0 0] into wires 2, 5"),
        "second oracle targets a position wire": (
            _broken(c, {10: BitOracle(index_wires=(3, 4), target_wire=2)}),
            "level 1 node 0: gates 8, 10 read [0 0 0 0] into wires 5, 2"),
        "unshifted accept set": (replace(c, accept=prog.accept),
                                 "accept set: [1, 2] holds a state that is not a home state"),
        "accept set on another node": (replace(c, accept=frozenset({16, 48})),
                                       "accept set: [16, 48], not [16, 32]"),
        "wrong initial column": (_broken(c, {0: Unitary(other_initial, wires=(0, 1))}),
                                 "initial vector: gate 0 is off by"),
    }


@pytest.mark.parametrize("name", list(_breaks()))
def test_roundtrip_rejects_broken_circuit(name):
    prog = _certified_program()
    assert roundtrip_check(prog, rgqbp_to_circuit(prog)).passed
    broken, error = _breaks()[name]
    rep = roundtrip_check(prog, broken)
    assert not rep.passed
    assert len(rep.errors) == 1 and rep.errors[0].startswith(error), rep.errors
    # the numeric comparison rejects it too
    assert rewrite_gap(prog, broken) > ACCEPT_TOL


def test_roundtrip_refuses_general_program_and_wrong_layout():
    prog = _certified_program()
    with pytest.raises(ValueError, match="restricted"):
        roundtrip_check(generalize(prog), rgqbp_to_circuit(prog))
    c = rgqbp_to_circuit(prog)
    swapped_mix = Unitary(c.gates[6].matrix, wires=(1, 0))
    swapped_initial = Unitary(c.gates[0].matrix, wires=(1, 0))
    for broken in (replace(c, gates=c.gates[:-1]), replace(c, n=c.n + 8),
                   _broken(c, {6: swapped_mix}), _broken(c, {0: swapped_initial})):
        rep = roundtrip_check(prog, broken)
        assert not rep.passed and rep.errors[0].startswith("layout: "), rep.errors
        assert broken.n != prog.n or rewrite_gap(prog, broken) > ACCEPT_TOL
        # read back when only n differs, fused otherwise
        assert rewrite_gap(broken, circuit_to_rgqbp(broken)) <= ACCEPT_TOL


@pytest.mark.parametrize("name", list(_breaks()))
def test_decompiling_a_broken_circuit_keeps_its_acceptance(name):
    # the reader takes only blocks the lemma covers; any other circuit is fused
    broken, _ = _breaks()[name]
    back = circuit_to_rgqbp(broken)
    assert rewrite_gap(broken, back) <= ACCEPT_TOL
    if name == "wrong label":  # still the compiler's blocks, reading position 4
        assert back.width == 4 and back.levels[1].labels.tolist() == [0, 0, 4, 1]


def test_decompiling_a_diagonal_that_is_not_a_phase():
    prog = _certified_program()
    c = rgqbp_to_circuit(prog)

    def scaled(states: list[int], factor: float) -> QueryCircuit:
        phases = c.gates[9].phases.copy()
        phases[states] *= factor
        return _broken(c, {9: Diagonal(phases)})

    # node 3 at position 7, which no label writes: the blocks still hold the program
    off_blocks = scaled([c.dim - 2], 2)
    back = circuit_to_rgqbp(off_blocks)
    assert back.width == 4 and rewrite_gap(off_blocks, back) <= ACCEPT_TOL
    # node 3 fetching its label 1 as a 1 at modulus 2, or as a 0 and a 1 at 0:
    # no per-node phase, so the segments are fused
    at = (3 << 4) | (1 << 1)
    xs = all_inputs(prog.n)
    for broken in (scaled([at | 1], 2), scaled([at, at | 1], 0)):
        with pytest.raises(ValueError, match="level 1 node 3: gate 9 holds .* not a phase"):
            read_compiled(broken)
        back = circuit_to_rgqbp(broken)
        assert back.width == c.dim and back.length == count_queries(c)
        gap = np.abs(circuit_acceptances(broken, xs) - acceptance_probabilities(back, xs))
        assert gap.max() <= ACCEPT_TOL


def test_compiled_circuit_reads_back_as_its_padded_program():
    for seed in range(60):
        prog = seeded_program(seed)
        padded = pad_width(prog, 1 << index_register_width(prog.width))
        back = circuit_to_rgqbp(rgqbp_to_circuit(prog))
        assert (back.width, back.length, back.accept) == (padded.width, prog.length, prog.accept)
        assert np.abs(back.initial - padded.initial).max() <= DEFAULT_TOL
        for got, lv in zip(back.levels, padded.levels):
            assert np.array_equal(got.labels, lv.labels) and np.array_equal(got.base, lv.base)
            assert np.abs(np.exp(1j * got.thetas) - np.exp(1j * lv.thetas)).max() <= DEFAULT_TOL
        assert rewrite_gap(prog, back) <= ACCEPT_TOL


def test_wide_compiled_circuit_reads_back_at_its_own_width():
    # fusing this q=14 circuit would need 2^14 x 2^14 segments (42.9 GB)
    prog = random_rgqbp(32, 4, 256, seed=1)
    back = circuit_to_rgqbp(rgqbp_to_circuit(prog))
    assert (back.width, back.length) == (32, 4)
    assert rewrite_gap(prog, back) <= ACCEPT_TOL
