"""Builtin program and circuit families.

These are the concrete objects the experiment harness runs on: the width-2
parity program, Grover-style promise-OR circuits, seeded random restricted
programs, and the fixed-weight input families used by the Hamming-decision
expectation bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .circuit import _HADAMARD, BitOracle, PhaseOracle, QueryCircuit, Unitary
from .core import LEVEL_OBJECT_BYTES, Program, RestrictedLevel, _freeze, as_bits, check_alloc

MATERIALIZE_LIMIT = 100_000


def zeros_input(n: int) -> np.ndarray:
    """The all-zero string; ``check_alloc`` refuses it before it is built."""
    check_alloc(n, f"the all-zero input of {n} bits")
    return np.zeros(n, dtype=np.uint8)


def parity_program(n: int) -> Program:
    """Width-2 length-n/2 restricted program deciding the parity of n bits.

    The two nodes query consecutive even/odd positions level by level; every
    1-bit contributes a sign flip, and a final balanced mixing level routes
    even parity to node 0 and odd parity to node 1.  Acceptance probability
    is exactly 0 or 1 on every input.
    """
    if n < 2 or n % 2:
        raise ValueError(f"parity program needs a positive even input length, got {n}")
    # a level owns its two int64 labels; base and angles are read-only, so levels share them
    check_alloc(n // 2 * (16 + LEVEL_OBJECT_BYTES), f"the {n // 2} levels of parity n={n}")
    eye = _freeze(np.eye(2, dtype=np.complex128))
    flips = _freeze(np.array([np.pi, np.pi]))
    levels = []
    for i in range(n // 2):
        base = _HADAMARD if i == n // 2 - 1 else eye
        levels.append(RestrictedLevel(labels=np.array([2 * i, 2 * i + 1]),
                                      base=base, thetas=flips))
    initial = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
    return Program(n=n, initial=initial, levels=tuple(levels), accept=frozenset({1}))


def grover_iterations(n: int) -> int:
    return int(np.floor(np.pi / 4 * np.sqrt(n)))


def grover_promise_or(n: int) -> QueryCircuit:
    """Grover circuit deciding whether an n-bit string (with at most one 1)
    is all zeros.

    Layout: log2(n) index wires plus one marking ancilla.  After the usual
    floor(pi/4 * sqrt(n)) amplify rounds, one extra bit-oracle call writes
    the bit at the measured-out index into the ancilla; acceptance is
    "ancilla reads 1".  The all-zero input is rejected with certainty and a
    one-hot input is accepted with probability sin^2((2T+1) asin(1/sqrt n)).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    check_alloc(2 * 16 * (2 * n) ** 2, f"the two {2 * n}x{2 * n} gates of grover-or n={n}")
    m = n.bit_length() - 1
    q = m + 1
    walsh = np.eye(1, dtype=np.complex128)
    for _ in range(m):
        walsh = np.kron(walsh, _HADAMARD)
    prep = Unitary(np.kron(walsh, np.eye(2)))
    uniform = np.full((n, n), 1.0 / n, dtype=np.complex128)
    diffusion = Unitary(np.kron(2.0 * uniform - np.eye(n), np.eye(2)))
    gates: list = [prep]
    for _ in range(grover_iterations(n)):
        gates += [PhaseOracle(), diffusion]
    gates.append(BitOracle(index_wires=tuple(range(m)), target_wire=m))
    accept = frozenset(2 * k + 1 for k in range(n))
    return QueryCircuit(q=q, n=n, gates=tuple(gates), accept=accept)


def _haar_unitary(rng: np.random.Generator, s: int) -> np.ndarray:
    z = (rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))) / np.sqrt(2)
    qm, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return qm * (d / np.abs(d))[np.newaxis, :]


def random_rgqbp(s: int, length: int, n: int, seed: int) -> Program:
    """Seeded random restricted program: Haar-random bases, uniform phase
    angles in [0, 2pi) and uniform labels; accept set is the first half of
    the nodes (rounded up)."""
    if min(s, length, n) < 1:
        raise ValueError("s, length and n must all be >= 1")
    check_alloc(16 * s * (length * (s + 1) + 1) + length * LEVEL_OBJECT_BYTES,
                f"a random program of width {s} and length {length}")
    rng = np.random.default_rng(seed)
    levels = []
    for _ in range(length):
        levels.append(RestrictedLevel(
            labels=rng.integers(0, n, size=s),
            base=_haar_unitary(rng, s),
            thetas=rng.uniform(0.0, 2.0 * np.pi, size=s),
        ))
    initial = rng.normal(size=s) + 1j * rng.normal(size=s)
    initial /= np.linalg.norm(initial)
    accept = frozenset(range((s + 1) // 2))
    return Program(n=n, initial=initial, levels=tuple(levels), accept=accept)


def _member_bytes(rows: int, n: int, delta: int) -> int:
    """What ``_member_rows`` holds per call: n bits and delta int64 positions a member."""
    return rows * (n + 8 * delta)


def _member_rows(fixed: np.ndarray, side: str, delta: int, rows: int, picks) -> np.ndarray:
    """The one row builder of both family modes: ``fixed``, then ``rows``
    copies of it with the member bit written at the ``delta`` positions per
    row that ``picks(flippable positions)`` yields, after ``check_alloc``."""
    n = fixed.size
    check_alloc(_member_bytes(rows, n, delta), f"{rows} family members of {n} bits")
    fill = int(side == "fix_yes")
    index = np.fromiter(picks((fixed != fill).nonzero()[0]), np.intp, rows * delta)
    out = np.full((rows + 1, n), fixed)
    out[np.arange(1, rows + 1)[:, np.newaxis], index.reshape(rows, delta)] = fill
    return out


@dataclass(frozen=True, eq=False)
class HammingFamily:
    """A fixed reference string plus the set of strings it is compared to.

    ``fix_yes``: the reference has weight k; members keep its 1s and add
    delta more, so there are C(n-k, delta) of them, all of weight k+delta.
    ``fix_no``: the reference has weight k+delta; members zero out delta of
    its 1s, so there are C(k+delta, delta) of them, all of weight k.
    A family of at most ``MATERIALIZE_LIMIT`` members whose rows fit ``core.ALLOC_LIMIT``
    is materialised, and a drift report compares it whole (in row blocks), else samples
    it.  ``rows`` is ``fixed`` and then every member, the table a report evolves.
    """

    n: int
    k: int
    delta: int
    side: str
    fixed: np.ndarray
    size: int
    rows: np.ndarray | None

    @property
    def materialized(self) -> bool:
        return self.rows is not None

    def anchored_sample(self, count: int, seed: int) -> np.ndarray:
        """``fixed``, then ``count`` seeded uniform members (with replacement)."""
        rng = np.random.default_rng(seed)
        return _member_rows(self.fixed, self.side, self.delta, count, lambda positions: (
            i for _ in range(count) for i in rng.choice(positions, self.delta, replace=False)))


def hamming_family(n: int, k: int, delta: int, fixed) -> HammingFamily:
    """Enumerate the comparison set for one side of a (k, k+delta) weight
    decision, anchored at ``fixed``.

    ``fixed`` of weight k selects the fix_yes side, weight k+delta the
    fix_no side; any other weight is rejected.
    """
    fixed = as_bits(fixed, n)
    if delta < 0 or k < 0:
        raise ValueError(f"k and delta must be non-negative, got k={k}, delta={delta}")
    weight = int(fixed.sum())
    if weight == k:
        side = "fix_yes"
        if k + delta > n:
            raise ValueError(f"k + delta = {k + delta} exceeds n = {n}")
        size = math.comb(n - k, delta)
    elif weight == k + delta:
        side = "fix_no"
        size = math.comb(k + delta, delta)
    else:
        raise ValueError(
            f"fixed string has weight {weight}; expected {k} (fix_yes) or {k + delta} (fix_no)")
    rows = None
    if size <= MATERIALIZE_LIMIT and _member_bytes(size, n, delta) <= core.ALLOC_LIMIT:
        rows = _member_rows(fixed, side, delta, size, lambda positions: (
            itertools.chain.from_iterable(itertools.combinations(positions.tolist(), delta))))
        rows.setflags(write=False)
    return HammingFamily(n=n, k=k, delta=delta, side=side, fixed=fixed, size=size, rows=rows)
