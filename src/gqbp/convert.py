"""Compilers between query circuits and restricted branching programs.

Circuit -> program: every oracle gate contributes one transition level.
The gate list is normalised into alternating form by fusing the unitaries
between consecutive oracles; a phase oracle then becomes a level whose
per-node phases are pi on nodes addressing a live input position, and a
bit oracle is first rewritten as H(target) . input-phase-diagonal .
H(target) (the diagonal applies (-1)**(x_k * target_bit), which is exactly
a per-node query phase), with the Hadamards folded into the neighbouring
fused unitaries.  Width is 2^q and length equals the query count.

The fused segments are dense 2^q x 2^q matrices, since they become the
program's transition matrices; every gate, and the Hadamard before a bit
oracle (a 1-wire ``Unitary``), is applied to them with the simulator's
gate step, ``circuit._step``.

Program -> circuit: three registers, namely node index (ceil(log2 w) wires),
queried position (ceil(log2 n) wires), query value (1 wire).  Each level
costs two bit-oracle calls: write the node's label into the position
register, fetch the bit, apply the per-node phase conditioned on the
fetched bit, fetch again to uncompute, clear the position register, then
apply the level's base unitary on the node register.  The gates are
emitted in structured form, so no 2^q x 2^q matrix is built: the label
writer is a ``Permutation`` (its own inverse, used for both writes), the
phase a ``Diagonal``, and the initial and mixing gates are ``Unitary``
gates on the node wires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    BitOracle,
    Diagonal,
    Permutation,
    PhaseOracle,
    QueryCircuit,
    Unitary,
    _HADAMARD,
    _gate_step,
    _step,
    _wire_bits,
    circuit_acceptances,
    complete_unitary,
    count_queries,
    index_register_width,
)
from .core import DEFAULT_TOL, Program, RestrictedLevel, check_alloc
from .simulate import acceptance_probabilities, all_inputs
from .transform import pad_width

# roundtrip_check: every input up to this n, else ROUNDTRIP_SAMPLE seeded ones.
EXHAUSTIVE_LIMIT = 16
ROUNDTRIP_SAMPLE = 256
ROUNDTRIP_SEED = 0


def _oracle_level(circuit: QueryCircuit, gate: PhaseOracle | BitOracle, reads: np.ndarray):
    """(thetas, labels) of the level an oracle becomes: phase pi where the
    oracle flips the sign (a bit oracle only where its target bit is 1,
    between the Hadamards), on nodes that read a live input position."""
    live = reads < circuit.n
    flip = 1 if isinstance(gate, PhaseOracle) else _wire_bits(circuit, gate.target_wire)
    return np.where(live, np.pi * flip, 0.0), np.where(live, reads, 0)


def circuit_to_rgqbp(circuit: QueryCircuit) -> Program:
    """Compile a query circuit into an equivalent restricted program of
    width 2^q and length equal to the circuit's query count."""
    # one dense 2^q x 2^q segment before each query and one after the last,
    # and a spare buffer for the gate steps
    check_alloc(16 * (count_queries(circuit) + 2) << 2 * circuit.q,
                f"the {circuit.dim}x{circuit.dim} segments of a {circuit.q}-wire circuit")
    segment = np.eye(circuit.dim, dtype=np.complex128)
    spare = np.empty_like(segment)
    segments, queries = [], []
    for gate, step in zip(circuit.gates, circuit.plan):
        if isinstance(gate, PhaseOracle):
            start = np.eye(circuit.dim, dtype=np.complex128)
        elif isinstance(gate, BitOracle):
            wire = gate.target_wire
            hadamard = _gate_step(circuit, Unitary(_HADAMARD, wires=(wire,)))
            segment, spare = _step(hadamard, segment, spare)
            # The next segment starts as the Hadamard's dense matrix.  A
            # Kronecker product forms each entry as one product, with no
            # sum, so zero entries keep their signs and the level's base
            # keeps its exact bits.
            start = np.kron(np.kron(np.eye(1 << wire), _HADAMARD),
                            np.eye(1 << (circuit.q - 1 - wire)))
        else:
            segment, spare = _step(step, segment, spare)
            continue
        queries.append(_oracle_level(circuit, gate, step[1]))  # its read table
        segments.append(segment)
        segment = start
    segments.append(segment)
    levels = tuple(
        RestrictedLevel(labels=labels, base=segments[i + 1], thetas=thetas)
        for i, (thetas, labels) in enumerate(queries)
    )
    return Program(n=circuit.n, initial=segments[0][:, 0], levels=levels, accept=circuit.accept)


def rgqbp_to_circuit(program: Program) -> QueryCircuit:
    """Compile a restricted program into a bit-oracle query circuit on
    ceil(log2 w) + ceil(log2 n) + 1 wires making exactly 2L queries."""
    if program.kind != "restricted":
        raise ValueError("only restricted programs can be compiled to circuits")
    a = index_register_width(program.width)
    padded = pad_width(program, 1 << a)
    m = index_register_width(program.n)
    q = a + m + 1
    # three int64 index tables, and one int64 and one complex table per level
    check_alloc(24 * (program.length + 1) << q, f"the gate tables of a {q}-wire circuit")
    j = np.arange(1 << q, dtype=np.int64)
    node = j >> (m + 1)
    query_bit = j & 1
    node_wires = tuple(range(a))

    gates: list = [Unitary(complete_unitary(padded.initial), wires=node_wires)]
    oracle = BitOracle(index_wires=tuple(range(a, a + m)), target_wire=a + m)
    for lv in padded.levels:
        write = Permutation(j ^ (lv.labels[node] << 1))
        phase = Diagonal(np.exp(1j * lv.thetas[node] * query_bit))
        mix = Unitary(lv.base, wires=node_wires)
        gates += [write, oracle, phase, oracle, write, mix]
    accept = frozenset(v << (m + 1) for v in program.accept)
    return QueryCircuit(q=q, n=program.n, gates=tuple(gates), accept=accept)


@dataclass(frozen=True)
class RoundtripReport:
    max_deviation: float
    inputs_checked: int
    exhaustive: bool
    passed: bool


def roundtrip_check(program: Program) -> RoundtripReport:
    """Compare program acceptance with its compiled circuit's acceptance,
    exhaustively for n <= 16 and on seeded random inputs otherwise; the check
    passes when they agree within ``DEFAULT_TOL``."""
    circuit = rgqbp_to_circuit(program)
    if program.n <= EXHAUSTIVE_LIMIT:
        inputs = all_inputs(program.n)
        exhaustive = True
    else:
        rng = np.random.default_rng(ROUNDTRIP_SEED)
        inputs = rng.integers(0, 2, size=(ROUNDTRIP_SAMPLE, program.n)).astype(np.uint8)
        exhaustive = False
    dev = np.abs(acceptance_probabilities(program, inputs)
                 - circuit_acceptances(circuit, inputs))
    worst = float(dev.max())
    return RoundtripReport(max_deviation=worst, inputs_checked=inputs.shape[0],
                           exhaustive=exhaustive, passed=worst <= DEFAULT_TOL)
