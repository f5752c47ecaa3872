"""Shared test helpers."""

import json
import re

import numpy as np

from gqbp import (Diagonal, Permutation, PhaseOracle, Program, QueryCircuit, RestrictedLevel,
                  Unitary, random_rgqbp)
from gqbp.circuit import run_circuit_batch, validate_circuit
from gqbp.core import accept_mass, as_bits, validate_program
from gqbp.simulate import all_inputs, final_states

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# The one bound on what a rewrite may change: acceptance probabilities, and
# final states where both sides have the same dimension.
ACCEPT_TOL = 1e-12
# rewrite_gap compares every input up to this n, else SAMPLE seeded ones.
EXHAUSTIVE_N = 10
SAMPLE = 1024


def rewrite_gap(before, after, inputs=None) -> float:
    """Assert that ``after`` (a program or circuit) passes its validator, then
    return its worst deviation from ``before`` over ``inputs`` (by default all
    2**n, or SAMPLE seeded inputs above EXHAUSTIVE_N): in acceptance
    probability, and in final state when both have the same dimension."""
    report = (validate_circuit if isinstance(after, QueryCircuit) else validate_program)(after)
    assert report.passed, report.errors
    n = before.n
    xs = inputs if inputs is not None else all_inputs(n) if n <= EXHAUSTIVE_N else (
        np.random.default_rng(0).integers(0, 2, size=(SAMPLE, n)))
    states = [run_circuit_batch(m, xs) if isinstance(m, QueryCircuit) else final_states(m, xs)
              for m in (before, after)]
    gap = np.abs(accept_mass(before, states[0]) - accept_mass(after, states[1])).max()
    if states[0].shape == states[1].shape:
        gap = max(gap, np.abs(states[0] - states[1]).max())
    return float(gap)


def transition_matrix(level, x) -> np.ndarray:
    """The dense transition matrix that input ``x`` realises at one level, the
    per-level reference ``evolve`` is checked against: column ``j`` is node
    ``j``'s outgoing amplitude vector for the value of its queried bit."""
    bits = as_bits(x, len(x) if isinstance(x, str) else np.shape(x)[-1])
    if bits.size <= level.labels.max(initial=-1):
        raise ValueError(f"input length mismatch: level reads bit {level.labels.max()} of {x!r}")
    node_bits = bits[level.labels]
    if isinstance(level, RestrictedLevel):
        return level.base * np.exp(1j * level.thetas * node_bits)[np.newaxis, :]
    return np.where(node_bits.astype(bool)[np.newaxis, :], level.a1, level.a0)


def deutsch_circuit() -> QueryCircuit:
    """One-qubit two-bit circuit accepting exactly when the bits differ."""
    return QueryCircuit(q=1, n=2,
                        gates=(Unitary(HADAMARD), PhaseOracle(), Unitary(HADAMARD)),
                        accept=frozenset({1}))


def seeded_program(seed: int, smax: int = 8, lmax: int = 8, nmax: int = 8) -> Program:
    """``random_rgqbp`` of a deterministic (s, L, n) within the given caps."""
    rng = np.random.default_rng(seed)
    s, length, n = (int(rng.integers(1, cap + 1)) for cap in (smax, lmax, nmax))
    return random_rgqbp(s, length, n, seed=seed)


def width1_flip_program(n: int = 4) -> Program:
    """Single node, single level: phase pi on x_0, accept node 0."""
    level = RestrictedLevel(labels=np.array([0]), base=np.array([[1.0 + 0j]]),
                            thetas=np.array([np.pi]))
    return Program(n=n, initial=np.array([1.0 + 0j]), levels=(level,),
                   accept=frozenset({0}))


def input_independent_program(n: int = 4, s: int = 2) -> Program:
    """All labels 0 and all phases 0: the input never matters."""
    base = np.eye(s, dtype=complex)
    base[:2, :2] = HADAMARD
    level = RestrictedLevel(labels=np.zeros(s, dtype=np.int64), base=base,
                            thetas=np.zeros(s))
    initial = np.zeros(s, dtype=complex)
    initial[0] = 1.0
    return Program(n=n, initial=initial, levels=(level, level), accept=frozenset({0}))


# --- byte reference for the document writers ---------------------------------
# The writers of gqbp.formats emit their text directly.  These are the
# json.dumps-based writers they replaced, kept here only to pin the bytes:
# each amplitude vector and matrix row is dumped on its own, parked in the
# indented document as a NUL-led placeholder string, and spliced back in.

_SLOT = re.compile(r'"\\u0000(\d+)"')


def _pairs(a: np.ndarray) -> list:
    block = np.ascontiguousarray(a, dtype=np.complex128)
    return block.view(np.float64).reshape(*block.shape, 2).tolist()


def _inline(table: list[str], value: list) -> str:
    table.append(json.dumps(value))
    return f"\0{len(table) - 1}"


def _inline_rows(table: list[str], m: np.ndarray) -> list[str]:
    return [_inline(table, row) for row in _pairs(m)]


def _dump(doc: dict, table: list[str]) -> str:
    text = json.dumps(doc, sort_keys=True, indent=2)
    return _SLOT.sub(lambda m: table[int(m.group(1))], text) + "\n"


def reference_serialize_program(program: Program) -> str:
    table: list[str] = []
    levels = []
    for lv in program.levels:
        entry = {"labels": lv.labels.tolist()}
        if isinstance(lv, RestrictedLevel):
            entry["base"] = _inline_rows(table, lv.base)
            entry["thetas"] = lv.thetas.tolist()
        else:
            entry["a0"] = _inline_rows(table, lv.a0)
            entry["a1"] = _inline_rows(table, lv.a1)
        levels.append(entry)
    doc = {"format": "gqbp-v1", "n": program.n, "kind": program.kind, "width": program.width,
           "initial": _inline(table, _pairs(program.initial)), "levels": levels,
           "accept": sorted(program.accept)}
    return _dump(doc, table)


def reference_serialize_circuit(circuit: QueryCircuit) -> str:
    table: list[str] = []
    gates = []
    structured = False
    for gate in circuit.gates:
        if isinstance(gate, Unitary):
            entry = {"type": "unitary", "matrix": _inline_rows(table, gate.matrix)}
            if gate.wires is not None:
                entry["wires"] = list(gate.wires)
                structured = True
        elif isinstance(gate, Permutation):
            entry = {"type": "permutation", "perm": _inline(table, gate.perm.tolist())}
            structured = True
        elif isinstance(gate, Diagonal):
            entry = {"type": "diagonal", "phases": _inline(table, _pairs(gate.phases))}
            structured = True
        elif isinstance(gate, PhaseOracle):
            entry = {"type": "phase_oracle"}
        else:
            entry = {"type": "bit_oracle", "index_wires": list(gate.index_wires),
                     "target_wire": gate.target_wire}
        gates.append(entry)
    doc = {"format": "qqc-v2" if structured else "qqc-v1", "qubits": circuit.q, "n": circuit.n,
           "gates": gates, "accept": sorted(circuit.accept)}
    return _dump(doc, table)
