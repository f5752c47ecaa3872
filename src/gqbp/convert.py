"""Compilers between query circuits and restricted branching programs.

Circuit -> program: a circuit in the block layout that the program ->
circuit compiler emits (below) is read back as the program it holds, of
width 2^a and one level per block (``read_compiled``).  Any other circuit
is fused: every oracle gate contributes one transition level.  The gate
list is normalised into alternating form by fusing the unitaries between
consecutive oracles; a phase oracle then becomes a level whose per-node
phases are pi on nodes addressing a live input position, and a bit oracle
is first rewritten as H(target) . input-phase-diagonal . H(target) (the
diagonal applies (-1)**(x_k * target_bit), which is exactly a per-node
query phase), with the Hadamards folded into the neighbouring fused
unitaries.  A fused program has width 2^q and length equal to the query
count.

The fused segments are dense 2^q x 2^q matrices, since they become the
program's transition matrices; every gate, and the Hadamard before a bit
oracle (a 1-wire ``Unitary``), is applied to them with the simulator's
gate step, ``circuit._step``.

Program -> circuit: three registers, namely node index (a = ceil(log2 w)
wires), queried position (m = ceil(log2 n) wires), query value (1 wire).
Each level costs two bit-oracle calls: write the node's label into the
position register, fetch the bit, apply the per-node phase conditioned on
the fetched bit, fetch again to uncompute, clear the position register,
then apply the level's base unitary on the node register.  The gates are
emitted in structured form, so no 2^q x 2^q matrix is built: the label
writer is a ``Permutation`` (its own inverse, used for both writes), the
phase a ``Diagonal``, and the initial and mixing gates are ``Unitary``
gates on the node wires.

``read_compiled`` reads these blocks back with no input enumerated, and
``roundtrip_check`` proves a circuit equal to a program by comparing what
it reads with the padded program.  Call home_v the basis state
``v << (m+1)``: node v, position 0, query bit 0.  The block lemma: if the
first write sends home_v to a state at_v of node v with query bit 0, both
oracles target the query wire and read one position label_v < n at at_v
and at_v | 1, the diagonal is p0_v != 0 at at_v and p0_v*exp(1j*theta_v)
at at_v | 1, and the second write sends at_v back to home_v, then on every
input x the five gates send home_v to p0_v*exp(1j*theta_v*x[label_v])
home_v; a unitary M on the node wires then sends home_v to
sum_u M[u, v] home_u.  So the block applies the level with those labels
and angles whose base is M with column v times p0_v.  The gates are
linear, so a state held on the home states stays there and each block
applies exactly its level.  The first gate's column 0 puts ``initial`` on
the home states, and an accept set of home states {v << (m+1)} accepts
nodes {v}, so circuit and program accept every input with the same
probability.  The compiler writes p0 = 1 and the levels of ``pad_width``,
so its output reads back as the padded program.
"""

from __future__ import annotations

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
    complete_unitary,
    count_queries,
    index_register_width,
)
from .core import DEFAULT_TOL, Program, RestrictedLevel, ValidationReport, _freeze, check_alloc
from .transform import pad_width


def _oracle_level(circuit: QueryCircuit, gate: PhaseOracle | BitOracle, reads: np.ndarray):
    """(thetas, labels) of the level an oracle becomes: phase pi where the
    oracle flips the sign (a bit oracle only where its target bit is 1,
    between the Hadamards), on nodes that read a live input position."""
    live = reads < circuit.n
    flip = 1 if isinstance(gate, PhaseOracle) else _wire_bits(circuit, gate.target_wire)
    return np.where(live, np.pi * flip, 0.0), np.where(live, reads, 0)


def circuit_to_rgqbp(circuit: QueryCircuit) -> Program:
    """Decompile a query circuit into an equivalent restricted program: a
    circuit in the compiler's block layout is ``read_compiled``, at width
    2^a and one level per block; any other is fused into a program of width
    2^q and length equal to the circuit's query count."""
    try:
        return read_compiled(circuit)
    except ValueError:
        pass  # not the compiler's blocks: fuse the segments
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
        RestrictedLevel(labels=labels, base=_freeze(segments[i + 1]), thetas=thetas)
        for i, (thetas, labels) in enumerate(queries)
    )
    return Program(n=circuit.n, initial=segments[0][:, 0], levels=levels, accept=circuit.accept)


def _registers(program: Program) -> tuple[int, int]:
    """Wires (a, m) of the compiled circuit's node and position registers."""
    if program.kind != "restricted":
        raise ValueError("only restricted programs can be compiled to circuits")
    return index_register_width(program.width), index_register_width(program.n)


def rgqbp_to_circuit(program: Program) -> QueryCircuit:
    """Compile a restricted program into a bit-oracle query circuit on
    ceil(log2 w) + ceil(log2 n) + 1 wires making exactly 2L queries."""
    a, m = _registers(program)
    padded, q = pad_width(program, 1 << a), a + m + 1
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


def read_compiled(circuit: QueryCircuit) -> Program:
    """The program a circuit in the compiler's block layout holds, read from
    its gates alone by the lemma above, with gate 0's wires as the node
    register and accept set {u >> (m+1)}.  Raises ``ValueError`` naming the
    layout, the accept set, or a level and its first failing node."""
    gates, q = circuit.gates, circuit.q
    wires = getattr(gates[0], "wires", None) if gates else None
    a = q if wires is None else len(wires)  # a dense gate 0 leaves no position register
    m, node_wires, length = q - a - 1, tuple(range(a)), (len(gates) - 1) // 6
    block = [Permutation, BitOracle, Diagonal, BitOracle, Permutation, Unitary]
    if m < 0 or [type(g) for g in gates] != [Unitary] + block * length or any(
            g.wires != node_wires for g in gates[::6]):
        raise ValueError(f"layout: not 1 + 6L gates in the compiler's order, each unitary "
                         f"on the wires (0, ..., a-1) of gate 0, with a < q={q}")
    if any(u & ((2 << m) - 1) for u in circuit.accept):
        raise ValueError(f"accept set: {sorted(circuit.accept)} holds a state that is not "
                         f"a home state v << {m + 1}")
    v = np.arange(1 << a)
    home, levels = v << (m + 1), []
    for t in range(length):
        g = 1 + 6 * t
        at = gates[g].perm[home]
        (_, reads1, target1), (_, reads2, target2) = circuit.plan[g + 1], circuit.plan[g + 3]
        reads = np.array([reads1[at], reads1[at | 1], reads2[at], reads2[at | 1]])
        p0, p1 = gates[g + 2].phases[at], gates[g + 2].phases[at | 1]
        back = gates[g + 4].perm[at]
        # reads are capped at min(n, 2^q): one below that cap is below n
        bad = [(at >> (m + 1) != v) | (at & 1 == 1),
               (target1 != q - 1) | (target2 != q - 1) | (reads != reads[0]).any(axis=0)
               | (reads[0] >= min(circuit.n, circuit.dim)),
               (p0 == 0) | (np.abs(np.abs(p1) - np.abs(p0)) > DEFAULT_TOL), back != home]
        for i in np.flatnonzero(np.any(bad, axis=0))[:1]:  # the first failing node
            says = (f"gate {g} sends home state {home[i]} to {at[i]}",
                    f"gates {g + 1}, {g + 3} read {reads[:, i]} into wires {target1}, {target2}",
                    f"gate {g + 2} holds {p0[i]:.3e} and {p1[i]:.3e} at {at[i]} and "
                    f"{at[i] | 1}, not a phase",
                    f"gate {g + 4} sends {at[i]} to {back[i]}, not {home[i]}")
            raise ValueError(f"level {t} node {i}: {next(s for b, s in zip(bad, says) if b[i])}")
        mix = gates[g + 5].matrix
        # a column whose p0 is exactly 1 keeps the mix gate's bits
        levels.append(RestrictedLevel(labels=reads[0], base=np.where(p0 == 1, mix, mix * p0),
                                      thetas=np.angle(p1 / p0)))
    return Program(n=circuit.n, initial=gates[0].matrix[:, 0], levels=tuple(levels),
                   accept=frozenset(u >> (m + 1) for u in circuit.accept))


def roundtrip_check(program: Program, circuit: QueryCircuit) -> ValidationReport:
    """Certify that ``circuit`` accepts every input with ``program``'s
    probability: ``read_compiled`` followed by a comparison with
    ``pad_width(program, 2^a)`` (the lemma above), at O(L 2^q) cost whatever
    n is.  Labels and accept set must match exactly, amplitudes and
    exp(1j*theta) within ``DEFAULT_TOL``; ``max_deviation`` is the worst
    amplitude gap.  Each error line names the layout, the initial vector,
    the accept set, or a level and its first failing node."""
    a, m = _registers(program)
    # derived from the program alone, so that a compiler bug is not copied into the check
    want = (a + m + 1, program.n, program.length, 1 << a)
    padded, worst = pad_width(program, 1 << a), 0.0
    try:
        read = read_compiled(circuit)
        got = (circuit.q, circuit.n, read.length, read.width)
        if got != want:
            raise ValueError(f"layout: (q, n, L, width) = {got}, not {want}")
    except ValueError as e:
        errors = [str(e)]
    else:
        worst = float(np.abs(read.initial - padded.initial).max())
        errors = [] if worst <= DEFAULT_TOL else [f"initial vector: gate 0 is off by {worst:.3e}"]
        if read.accept != program.accept:
            errors.append(f"accept set: {sorted(circuit.accept)}, not "
                          f"{sorted(u << (m + 1) for u in program.accept)}")
        for t, (lv, got) in enumerate(zip(padded.levels, read.levels)):
            g = 1 + 6 * t
            phase = np.abs(np.exp(1j * got.thetas) - np.exp(1j * lv.thetas))
            mix = np.abs(got.base - lv.base).max(axis=0)
            worst = max(worst, phase.max(), mix.max())
            bad = [got.labels != lv.labels, phase > DEFAULT_TOL, mix > DEFAULT_TOL]
            for i in np.flatnonzero(np.any(bad, axis=0))[:1]:  # the first failing node
                says = (f"gates {g + 1}, {g + 3} read {got.labels[i]}, not label {lv.labels[i]}",
                        f"gate {g + 2} is off exp(1j*theta) by {phase[i]:.3e}",
                        f"column {i} of gate {g + 5} is off base by {mix[i]:.3e}")
                errors.append(f"level {t} node {i}: {next(s for b, s in zip(bad, says) if b[i])}")
    layout = bool(errors) and errors[0].startswith("layout:")
    return ValidationReport(passed=not errors, max_deviation=float(worst),
                            assignments_checked=0 if layout else len(circuit.gates),
                            convention="compiled-blocks", errors=tuple(errors))
