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
that broken circuits can still be loaded and inspected.

The simulator applies every gate kind through one function, ``_step``: a
permutation is an index gather, a diagonal an elementwise multiply, an
oracle a masked copy or multiply and a unitary a matmul on its wires (a
full-width unitary is the local step on every wire), so no gate is
expanded to its dense matrix.  The tables a step needs (a permutation's
inverse, an oracle's read positions, a unitary's axis order) are built
once per circuit, in ``QueryCircuit.plan``.  A run writes each step with
``out=`` into two C-ordered (2^q, B) state buffers in turn, so it
allocates no array per gate.  The batch calls run it in the row blocks of
``core.run_in_blocks``, the rule the program calls use too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core
from .core import (DEFAULT_TOL, ValidationReport, _freeze, _one_row, _own, accept_mass,
                   as_bit_rows, check_alloc, run_in_blocks, unitarity_deviation)


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
        m = _own(self, "matrix", np.complex128)
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
        d = _own(self, "phases", np.complex128)
        if d.ndim != 1:
            raise ValueError(f"diagonal must be a flat vector, got shape {d.shape}")
        _check_size(d.size)
        if not np.isfinite(d).all():
            raise ValueError("diagonal entries must be finite")


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

    @cached_property
    def plan(self) -> tuple[tuple, ...]:
        """Each gate as ``_step`` applies it, built once per circuit; equal
        oracles share one read table."""
        reads = {}
        for gate in self.gates:
            if isinstance(gate, (PhaseOracle, BitOracle)) and gate not in reads:
                reads[gate] = _oracle_reads(self, gate)
        return tuple(_gate_step(self, gate, reads.get(gate)) for gate in self.gates)


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
    return np.minimum(k, min(circuit.n, circuit.dim))  # every k < dim; n may exceed int64


def _gate_step(circuit: QueryCircuit, gate: Gate, reads: np.ndarray | None = None) -> tuple:
    """``gate`` as ``_step`` applies it: a kind and the tables it needs.
    ``reads`` is an oracle's ``_oracle_reads`` table."""
    if isinstance(gate, Unitary):
        wires = tuple(range(circuit.q)) if gate.wires is None else gate.wires
        rest = tuple(w for w in range(circuit.q) if w not in wires)
        axes = wires + rest + (circuit.q,)  # the batch axis stays last
        if axes == tuple(range(circuit.q + 1)):
            return "local", gate.matrix, None, None
        return "local", gate.matrix, axes, tuple(np.argsort(axes))
    if isinstance(gate, Permutation):
        # Row j moves to row perm[j]: a gather by the inverse table.  A table
        # with repeated targets (a broken circuit) sums the rows that collide,
        # as its dense matrix does.
        perm, rows = gate.perm, np.arange(circuit.dim)
        inverse = np.zeros_like(perm)
        inverse[perm] = rows
        return ("gather", inverse) if np.array_equal(perm[inverse], rows) else ("scatter", perm)
    if isinstance(gate, Diagonal):
        return "diagonal", gate.phases[:, np.newaxis]
    if isinstance(gate, PhaseOracle):
        return "phase", reads
    return "flip", reads, gate.target_wire


def _step(step: tuple, states: np.ndarray, out: np.ndarray, bits: np.ndarray | None = None,
          mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One gate applied to each column of the C-ordered ``states`` (2^q rows),
    written with ``out=`` into ``out``, with ``states`` as scratch; returns
    (the result, the spare buffer), that is (out, states).  Oracles read
    column b of the bool ``bits``: the n input bits of column b and then one
    0, gathered into ``mask``, an array of the states' shape."""
    kind, table, *extra = step
    if kind == "local" and extra[0] is None:  # the leading wires in order: no move
        np.matmul(table, states.reshape(len(table), -1), out=out.reshape(len(table), -1))
    elif kind == "local":
        # matrix on the wires (first wire most significant) of each column:
        # their axes move to the front, one matmul, and back
        axes, back = extra
        cube = (2,) * (len(axes) - 1) + states.shape[1:]
        np.copyto(out.reshape(cube), states.reshape(cube).transpose(axes))
        np.matmul(table, out.reshape(len(table), -1), out=states.reshape(len(table), -1))
        np.copyto(out.reshape(cube), states.reshape(cube).transpose(back))
    elif kind == "gather":
        np.take(states, table, axis=0, out=out, mode="clip")  # "raise" would buffer out
    elif kind == "scatter":
        out.fill(0)
        np.add.at(out, table, states)
    elif kind == "diagonal":
        np.multiply(states, table, out=out)
    else:
        np.take(bits, table, axis=0, out=mask, mode="clip")
        if kind == "phase":
            # the products with 1 and -1 that a real sign vector would give,
            # signed zeros included
            np.multiply(states, 1 + 0j, out=out)
            np.multiply(states, -1 + 0j, out=out, where=mask)
        else:
            # x_k XORed into the target wire: rows whose read bit is 1 take
            # the row with the target bit flipped
            np.copyto(out, states)
            pairs = (1 << extra[0], 2, -1)  # (wires above, target bit, the rest)
            np.copyto(out.reshape(pairs), states.reshape(pairs)[:, ::-1], where=mask.reshape(pairs))
    return out, states


def _run_bytes(circuit: QueryCircuit, nb: int) -> int:
    # Per state entry: two complex buffers and the bool oracle mask.  At most
    # one int64 table per gate in the plan, four more while it is built; the
    # bits; two complex ufunc buffers (a diagonal's broadcast product is
    # buffered).
    dim = circuit.dim
    return 33 * nb * dim + 8 * dim * (len(circuit.gates) + 4) + (circuit.n + 1) * nb \
        + 32 * np.getbufsize()


def _run(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    """(2^q, B) final states, one column per row of ``inputs``, bits that
    ``as_bit_rows`` has already checked."""
    nb, dim = inputs.shape[0], circuit.dim
    check_alloc(_run_bytes(circuit, nb),
                f"the {dim}x{nb} states of a {circuit.q}-wire circuit and their temporaries")
    bits = np.zeros((circuit.n + 1, nb), dtype=bool)
    bits[: circuit.n] = inputs.T
    states, spare = np.zeros((dim, nb), dtype=np.complex128), np.empty((dim, nb), np.complex128)
    states[0] = 1.0
    mask = np.empty((dim, nb), dtype=bool)
    for step in circuit.plan:
        states, spare = _step(step, states, spare, bits, mask)
    return states


def _block_results(circuit: QueryCircuit, inputs, reduce, keep: int) -> np.ndarray:
    """``reduce`` of the final states of ``inputs`` in ``core.run_in_blocks``' row blocks,
    at ``_run``'s bytes a row, with its tables and ``keep`` bytes a row of results, for
    every row, as fixed bytes."""
    inputs, fixed = as_bit_rows(inputs, circuit.n), _run_bytes(circuit, 0)
    return run_in_blocks(inputs, circuit.dim, lambda rows: _run(circuit, rows).T, reduce,
                         _run_bytes(circuit, 1) - fixed, fixed + keep * len(inputs))


def run_circuit(circuit: QueryCircuit, x) -> np.ndarray:
    """Apply the gate list to |0...0> under oracle input ``x``."""
    return _one_row(run_circuit_batch(circuit, x))


def run_circuit_batch(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    """Vectorised simulation over a batch of inputs (anything ``as_bit_rows``
    accepts) -> (B, 2^q) states: 32*2^q bytes a row for the blocks and their join."""
    return _block_results(circuit, inputs, lambda states: states, 32 * circuit.dim)


def circuit_acceptance(circuit: QueryCircuit, x) -> float:
    """Probability of measuring an accepting basis state on input ``x``."""
    return float(_one_row(circuit_acceptances(circuit, x)))


def circuit_acceptances(circuit: QueryCircuit, inputs: np.ndarray) -> np.ndarray:
    """Each input's acceptance probability."""
    return _block_results(circuit, inputs, lambda states: accept_mass(circuit, states), 16)


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
    core._check_tol(tol)
    found = [(g, *_deviation(gate)) for g, gate in enumerate(circuit.gates)
             if not isinstance(gate, (PhaseOracle, BitOracle))]
    errors = tuple(f"gate {g}: {problem}" for g, dev, problem in found if dev > tol)
    worst = max([0.0] + [dev for _, dev, _ in found])
    return ValidationReport(passed=not errors, max_deviation=worst, assignments_checked=len(found),
                            convention="gate-unitarity", errors=errors)


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
