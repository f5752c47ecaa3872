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

The other gates act on the amplitude vector without reading the input:

* ``Unitary`` holds a matrix.  Without ``wires`` it is a dense 2^q x 2^q
  gate on all wires.  With ``wires`` it is a 2^k x 2^k matrix on those k
  wires and the identity on the rest; the first listed wire is the most
  significant bit of the matrix index, whatever its position in the
  circuit, so ``wires=(2, 0)`` reads row/column index ``2*b2 + b0``.
* ``Permutation`` sends basis state |j> to |perm[j]>: its dense matrix has
  a 1 at (perm[j], j).
* ``Diagonal`` multiplies basis state |j> by ``phases[j]``.

Construction checks shapes and index ranges; unitarity (bijectivity of a
permutation, unit modulus of a diagonal) is left to ``validate_circuit`` so
that broken circuits can still be loaded and inspected.  The simulator
applies every gate kind through one function: a permutation is an index
gather, a diagonal an elementwise multiply and a local unitary a matmul on
its wires, so no gate is expanded to its dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_TOL, ValidationReport, _freeze, _one_row, accept_mass, as_bit_rows,
                   check_alloc, unitarity_deviation)


_HADAMARD = _freeze(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2))


def _check_size(size: int) -> None:
    if size < 1 or size & (size - 1):
        raise ValueError(f"gate dimension must be a power of two, got {size}")


def _distinct_wires(wires, what: str) -> tuple[int, ...]:
    wires = tuple(int(w) for w in wires)
    if len(set(wires)) != len(wires):
        raise ValueError(f"{what} must be distinct")
    return wires


@dataclass(frozen=True, eq=False)
class Unitary:
    """A matrix on all wires (``wires=None``) or on the listed wires, the
    first of them the most significant bit of the matrix index."""

    matrix: np.ndarray
    wires: tuple[int, ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"unitary gate matrix must be square, got shape {m.shape}")
        _check_size(m.shape[0])
        if not np.isfinite(m).all():
            raise ValueError("gate matrix entries must be finite")
        if self.wires is not None:
            wires = _distinct_wires(self.wires, "unitary wires")
            if m.shape[0] != 1 << len(wires):
                raise ValueError(f"matrix is {m.shape[0]}-dimensional, "
                                 f"{len(wires)} wires need {1 << len(wires)}")
            object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "matrix", _freeze(m))


@dataclass(frozen=True, eq=False)
class Permutation:
    """Basis permutation |j> -> |perm[j]> on all wires."""

    perm: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.perm)
        if p.ndim != 1 or p.dtype.kind not in "iu":
            raise ValueError(f"permutation must be a flat integer table, got {p.dtype} "
                             f"of shape {p.shape}")
        _check_size(p.size)
        if p.min() < 0 or p.max() >= p.size:
            raise ValueError(f"permutation targets must be in [0, {p.size})")
        object.__setattr__(self, "perm", _freeze(p.astype(np.int64)))


@dataclass(frozen=True, eq=False)
class Diagonal:
    """Per-basis-state phase factors on all wires."""

    phases: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.phases, dtype=np.complex128)
        if d.ndim != 1:
            raise ValueError(f"diagonal must be a flat vector, got shape {d.shape}")
        _check_size(d.size)
        if not np.isfinite(d).all():
            raise ValueError("diagonal entries must be finite")
        object.__setattr__(self, "phases", _freeze(d))


@dataclass(frozen=True)
class PhaseOracle:
    pass


@dataclass(frozen=True)
class BitOracle:
    index_wires: tuple[int, ...]
    target_wire: int

    def __post_init__(self):
        wires = _distinct_wires(self.index_wires, "bit oracle index wires")
        if self.target_wire in wires:
            raise ValueError("bit oracle target wire must not be an index wire")
        object.__setattr__(self, "index_wires", wires)
        object.__setattr__(self, "target_wire", int(self.target_wire))


Gate = Unitary | Permutation | Diagonal | PhaseOracle | BitOracle
# The array each input-free gate holds.
_TABLE = {Unitary: "matrix", Permutation: "perm", Diagonal: "phases"}


def _check_wires(g: int, wires: tuple[int, ...], q: int) -> None:
    for w in wires:
        if not 0 <= w < q:
            raise ValueError(f"gate {g}: wire {w} out of range [0, {q})")


def index_register_width(n: int) -> int:
    """Wires needed to address n oracle positions: ceil(log2 n)."""
    return (n - 1).bit_length()


@dataclass(frozen=True, eq=False)
class QueryCircuit:
    """Gate list over ``q`` wires plus the accepting basis states (sorted: ``accept_index``)."""

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
            if isinstance(gate, Unitary) and gate.wires is not None:
                _check_wires(g, gate.wires, self.q)
            elif isinstance(gate, (Unitary, Permutation, Diagonal)):
                name = _TABLE[type(gate)]
                size = len(getattr(gate, name))
                if size != dim:
                    raise ValueError(
                        f"gate {g}: {name} is {size}-dimensional, circuit needs {dim}")
            elif isinstance(gate, PhaseOracle):
                if index_register_width(self.n) > self.q:
                    raise ValueError(
                        f"gate {g}: phase oracle needs {index_register_width(self.n)} "
                        f"index wires but circuit has {self.q}")
            elif isinstance(gate, BitOracle):
                _check_wires(g, gate.index_wires + (gate.target_wire,), self.q)
            else:
                raise ValueError(f"gate {g}: unknown gate type {type(gate).__name__}")
        accept = frozenset(int(v) for v in self.accept)
        for v in accept:
            if not 0 <= v < dim:
                raise ValueError(f"accept state {v} out of range [0, {dim})")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "accept", accept)
        object.__setattr__(self, "accept_index", _freeze(np.array(sorted(accept), dtype=np.intp)))

    @property
    def dim(self) -> int:
        return 1 << self.q


def count_queries(circuit: QueryCircuit) -> int:
    """Number of oracle gates of either kind."""
    return sum(isinstance(g, (PhaseOracle, BitOracle)) for g in circuit.gates)


def _wire_bits(circuit: QueryCircuit, wire: int) -> np.ndarray:
    """The bit of ``wire`` in every basis index."""
    return (np.arange(circuit.dim, dtype=np.int64) >> (circuit.q - 1 - wire)) & 1


def _oracle_reads(circuit: QueryCircuit, gate: PhaseOracle | BitOracle) -> np.ndarray:
    """The one oracle rule: the input position each basis state reads, taken
    from the first ceil(log2 n) wires (phase oracle) or the index wires (bit
    oracle), with every position >= n mapped to n, whose bit is 0."""
    if isinstance(gate, PhaseOracle):
        k = np.arange(circuit.dim, dtype=np.int64) >> (circuit.q - index_register_width(circuit.n))
    else:
        k = np.zeros(circuit.dim, dtype=np.int64)
        for w in gate.index_wires:
            k = (k << 1) | _wire_bits(circuit, w)
    return np.minimum(k, circuit.n)


def _apply_local(matrix: np.ndarray, wires: tuple[int, ...], states: np.ndarray,
                 q: int) -> np.ndarray:
    """``matrix`` on ``wires`` (first wire most significant) of each column
    of ``states``: the wires' axes move to the front, one matmul, and back."""
    k = len(wires)
    front = tuple(range(k))
    t = np.moveaxis(states.reshape((2,) * q + states.shape[1:]), wires, front)
    out = (matrix @ t.reshape(1 << k, -1)).reshape(t.shape)
    return np.moveaxis(out, front, wires).reshape(states.shape)


def _permute(perm: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Row j of ``states`` moved to row perm[j]: a gather by the inverse table.
    A table with repeated targets (a broken circuit) sums the rows that
    collide, as its dense matrix does."""
    rows = np.arange(perm.size)
    inverse = np.zeros_like(perm)
    inverse[perm] = rows
    if np.array_equal(perm[inverse], rows):
        return states[inverse]
    out = np.zeros_like(states)
    np.add.at(out, perm, states)
    return out


def _apply(circuit: QueryCircuit, gate: Gate, states: np.ndarray,
           bits: np.ndarray | None = None) -> np.ndarray:
    """``gate`` applied to each column of ``states`` (2^q rows).  Oracles read
    column b of ``bits``: the n input bits of column b and then one 0."""
    if isinstance(gate, Unitary):
        if gate.wires is None:
            # Each state is multiplied as a row, so dense circuits keep the
            # exact bits of their results; matrix @ states can differ in the
            # last bit.
            return (states.T @ gate.matrix.T).T
        return _apply_local(gate.matrix, gate.wires, states, circuit.q)
    if isinstance(gate, Permutation):
        return _permute(gate.perm, states)
    if isinstance(gate, Diagonal):
        return states * gate.phases[:, np.newaxis]
    read = bits[_oracle_reads(circuit, gate)]
    if isinstance(gate, PhaseOracle):
        return states * (1.0 - 2.0 * read)
    flipped = np.arange(circuit.dim, dtype=np.int64) ^ (1 << (circuit.q - 1 - gate.target_wire))
    return np.where(read.view(bool), states[flipped], states)


def _run(circuit: QueryCircuit, inputs) -> np.ndarray:
    """(2^q, B) final states, one column per input."""
    inputs = as_bit_rows(inputs, circuit.n)
    nb, dim = inputs.shape[0], circuit.dim
    # A gate step holds at most, per entry, the state, a gathered copy, the result and
    # a uint8 read mask; four int64 index tables; the bits; two complex ufunc buffers.
    check_alloc(49 * nb * dim + 32 * dim + (circuit.n + 1) * nb + 32 * np.getbufsize(),
                f"the {dim}x{nb} states of a {circuit.q}-wire circuit and their temporaries")
    bits = np.zeros((circuit.n + 1, nb), dtype=np.uint8)
    bits[: circuit.n] = inputs.T
    states = np.zeros((dim, nb), dtype=np.complex128)
    states[0] = 1.0
    for gate in circuit.gates:
        states = _apply(circuit, gate, states, bits)
    return states


def run_circuit(circuit: QueryCircuit, x) -> np.ndarray:
    """Apply the gate list to |0...0> under oracle input ``x``."""
    return _one_row(run_circuit_batch(circuit, x))


def run_circuit_batch(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    """Vectorised simulation over a batch of inputs (anything ``as_bit_rows``
    accepts) -> (B, 2^q) states."""
    return np.ascontiguousarray(_run(circuit, inputs).T)


def circuit_acceptance(circuit: QueryCircuit, x) -> float:
    """Probability of measuring an accepting basis state on input ``x``."""
    return float(_one_row(circuit_acceptances(circuit, x)))


def circuit_acceptances(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    return accept_mass(circuit, _run(circuit, inputs).T)


def _deviation(gate: Unitary | Permutation | Diagonal) -> tuple[float, str]:
    """``unitarity_deviation`` of the gate's dense matrix, computed at the
    gate's own size, and what is wrong when it is not 0."""
    if isinstance(gate, Unitary):
        dev = unitarity_deviation(gate.matrix)
        return dev, f"matrix deviates from unitary by {dev:.3e}"
    if isinstance(gate, Diagonal):
        d = gate.phases
        gaps = np.abs(d.real ** 2 + d.imag ** 2 - 1.0)
        i = int(np.argmax(gaps))
        return float(gaps[i]), f"diagonal entry {i} has |d|^2 - 1 = {gaps[i]:.3e}"
    # Two columns of a permutation's matrix overlap (deviation 1) exactly
    # when their basis states share a target.
    counts = np.bincount(gate.perm, minlength=gate.perm.size)
    target = int(np.argmax(counts))
    if counts[target] == 1:
        return 0.0, ""
    a, b = np.flatnonzero(gate.perm == target)[:2]
    return 1.0, f"permutation sends basis states {a} and {b} to {target}"


def validate_circuit(circuit: QueryCircuit, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Numeric check: every Unitary, Permutation and Diagonal gate is unitary
    within ``tol``, one error line per gate that is not."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    worst = 0.0
    errors = []
    checked = 0
    for g, gate in enumerate(circuit.gates):
        if isinstance(gate, (PhaseOracle, BitOracle)):
            continue
        dev, problem = _deviation(gate)
        worst = max(worst, dev)
        checked += 1
        if dev > tol:
            errors.append(f"gate {g}: {problem}")
    return ValidationReport(passed=not errors, max_deviation=worst,
                            assignments_checked=checked, convention="gate-unitarity",
                            errors=tuple(errors))


def complete_unitary(first_column: np.ndarray) -> np.ndarray:
    """Deterministically extend a unit vector (norm 1 within ``DEFAULT_TOL``)
    to a unitary with it as column 0.

    Uses a Householder reflection composed with a phase so that the identity
    comes back exactly for e_0.
    """
    v = np.asarray(first_column, dtype=np.complex128).ravel()
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ValueError(f"first column must be a unit vector (norm {norm:.6f})")
    d = v.size
    # sign choice makes w[0] = v[0] + exp(i*angle(v[0])): no cancellation
    alpha = -np.exp(1j * np.angle(v[0]))
    w = v.copy()
    w[0] -= alpha
    wsq = float(np.real(w.conj() @ w))
    reflector = np.eye(d, dtype=np.complex128) - (2.0 / wsq) * np.outer(w, w.conj())
    reflector[:, 0] *= alpha
    return reflector
