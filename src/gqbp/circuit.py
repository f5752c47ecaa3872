"""Quantum query circuit IR and exact simulator.

A circuit is a gate list over ``q`` wires applied left to right to |0...0>.
Wire 0 is the most significant bit of a basis index: the bit of wire ``w``
in basis state ``j`` is ``(j >> (q-1-w)) & 1``.

Input access comes in two oracle flavours:

* ``PhaseOracle`` flips the sign of |i> by (-1)**x_i, where ``i`` is read
  from the first ceil(log2 n) wires; indices at or beyond ``n`` read a 0.
* ``BitOracle`` XORs ``x_k`` into a target wire, with ``k`` read from an
  explicit list of index wires (most significant first); again k >= n
  reads a 0.

Unitary gates are stored as dense 2^q x 2^q matrices; circuits here stay at
desk scale, so no gate factorisation is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_TOL, ValidationReport, _freeze, _one_row, accept_mass, as_bit_rows,
                   unitarity_deviation)


@dataclass(frozen=True, eq=False)
class Unitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"unitary gate matrix must be square, got shape {m.shape}")
        if m.shape[0] & (m.shape[0] - 1):
            raise ValueError(f"gate dimension must be a power of two, got {m.shape[0]}")
        if not np.isfinite(m).all():
            raise ValueError("gate matrix entries must be finite")
        object.__setattr__(self, "matrix", _freeze(m))


@dataclass(frozen=True)
class PhaseOracle:
    pass


@dataclass(frozen=True)
class BitOracle:
    index_wires: tuple[int, ...]
    target_wire: int

    def __post_init__(self):
        wires = tuple(int(w) for w in self.index_wires)
        if len(set(wires)) != len(wires):
            raise ValueError("bit oracle index wires must be distinct")
        if self.target_wire in wires:
            raise ValueError("bit oracle target wire must not be an index wire")
        object.__setattr__(self, "index_wires", wires)
        object.__setattr__(self, "target_wire", int(self.target_wire))


Gate = Unitary | PhaseOracle | BitOracle


def index_register_width(n: int) -> int:
    """Wires needed to address n oracle positions: ceil(log2 n)."""
    return (n - 1).bit_length()


@dataclass(frozen=True, eq=False)
class QueryCircuit:
    """Gate list over ``q`` wires plus the accepting basis states."""

    q: int
    n: int
    gates: tuple[Gate, ...]
    accept: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("circuit needs at least one wire")
        if self.n < 1:
            raise ValueError("oracle input length must be >= 1")
        dim = 1 << self.q
        gates = tuple(self.gates)
        for g, gate in enumerate(gates):
            if isinstance(gate, Unitary):
                if gate.matrix.shape[0] != dim:
                    raise ValueError(
                        f"gate {g}: matrix is {gate.matrix.shape[0]}-dimensional, "
                        f"circuit needs {dim}")
            elif isinstance(gate, PhaseOracle):
                if index_register_width(self.n) > self.q:
                    raise ValueError(
                        f"gate {g}: phase oracle needs {index_register_width(self.n)} "
                        f"index wires but circuit has {self.q}")
            elif isinstance(gate, BitOracle):
                for w in gate.index_wires + (gate.target_wire,):
                    if not 0 <= w < self.q:
                        raise ValueError(f"gate {g}: wire {w} out of range [0, {self.q})")
            else:
                raise ValueError(f"gate {g}: unknown gate type {type(gate).__name__}")
        accept = frozenset(int(v) for v in self.accept)
        for v in accept:
            if not 0 <= v < dim:
                raise ValueError(f"accept state {v} out of range [0, {dim})")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "accept", accept)

    @property
    def dim(self) -> int:
        return 1 << self.q


def count_queries(circuit: QueryCircuit) -> int:
    """Number of oracle gates of either kind."""
    return sum(isinstance(g, (PhaseOracle, BitOracle)) for g in circuit.gates)


def _wire_bits(circuit: QueryCircuit, wire: int) -> np.ndarray:
    """The bit of ``wire`` in every basis index."""
    return (np.arange(circuit.dim, dtype=np.int64) >> (circuit.q - 1 - wire)) & 1


def _phase_oracle_indices(circuit: QueryCircuit) -> np.ndarray:
    m = index_register_width(circuit.n)
    return np.arange(circuit.dim, dtype=np.int64) >> (circuit.q - m)


def _bit_oracle_tables(circuit: QueryCircuit, gate: BitOracle):
    k = np.zeros(circuit.dim, dtype=np.int64)
    for w in gate.index_wires:
        k = (k << 1) | _wire_bits(circuit, w)
    flipped = np.arange(circuit.dim, dtype=np.int64) ^ (1 << (circuit.q - 1 - gate.target_wire))
    return k, flipped


def run_circuit(circuit: QueryCircuit, x) -> np.ndarray:
    """Apply the gate list to |0...0> under oracle input ``x``."""
    return _one_row(run_circuit_batch(circuit, x))


def run_circuit_batch(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    """Vectorised simulation over a batch of inputs (anything ``as_bit_rows``
    accepts) -> (B, 2^q) states."""
    inputs = as_bit_rows(inputs, circuit.n)
    nb = inputs.shape[0]
    dim = circuit.dim
    pad = np.zeros((nb, dim), dtype=np.uint8)
    pad[:, : circuit.n] = inputs
    states = np.zeros((nb, dim), dtype=np.complex128)
    states[:, 0] = 1.0
    for gate in circuit.gates:
        if isinstance(gate, Unitary):
            states = states @ gate.matrix.T
        elif isinstance(gate, PhaseOracle):
            idx = _phase_oracle_indices(circuit)
            states = states * (1.0 - 2.0 * pad[:, idx])
        else:
            k, flipped = _bit_oracle_tables(circuit, gate)
            hit = pad[:, k].astype(bool)
            states = np.where(hit, states[:, flipped], states)
    return states


def circuit_acceptance(circuit: QueryCircuit, x) -> float:
    """Probability of measuring an accepting basis state on input ``x``."""
    return float(_one_row(circuit_acceptances(circuit, x)))


def circuit_acceptances(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    return accept_mass(circuit, run_circuit_batch(circuit, inputs))


def validate_circuit(circuit: QueryCircuit, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Numeric check: every Unitary gate is unitary within ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    worst = 0.0
    errors = []
    checked = 0
    for g, gate in enumerate(circuit.gates):
        if not isinstance(gate, Unitary):
            continue
        dev = unitarity_deviation(gate.matrix)
        worst = max(worst, dev)
        checked += 1
        if dev > tol:
            errors.append(f"gate {g}: matrix deviates from unitary by {dev:.3e}")
    return ValidationReport(passed=not errors, max_deviation=worst,
                            assignments_checked=checked, convention="gate-unitarity",
                            errors=tuple(errors))


def complete_unitary(first_column: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Deterministically extend a unit vector to a unitary with it as column 0.

    Uses a Householder reflection composed with a phase so that the identity
    comes back exactly for e_0.
    """
    v = np.asarray(first_column, dtype=np.complex128).ravel()
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"first column must be a unit vector (norm {norm:.6f})")
    d = v.size
    # sign choice makes w[0] = v[0] + exp(i*angle(v[0])): no cancellation
    alpha = -np.exp(1j * np.angle(v[0]))
    w = v.copy()
    w[0] -= alpha
    wsq = float(np.real(w.conj() @ w))
    reflector = np.eye(d, dtype=np.complex128) - (2.0 / wsq) * np.outer(w, w.conj())
    u = reflector.copy()
    u[:, 0] *= alpha
    return u
