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
# Members a drift report compares when a weight family is not compared whole.
FAMILY_SAMPLE = 10_000


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


@dataclass(frozen=True, eq=False)
class HammingFamily:
    """A fixed reference string plus the set of strings it is compared to.

    ``fix_yes``: the reference has weight k; members keep its 1s and add
    delta more, so there are C(n-k, delta) of them, all of weight k+delta.
    ``fix_no``: the reference has weight k+delta; members zero out delta of
    its 1s, so there are C(k+delta, delta) of them, all of weight k.
    ``mode`` is "exhaustive" for a family of at most ``MATERIALIZE_LIMIT`` members
    whose rows fit ``core.ALLOC_LIMIT``, else "sampled"; ``rows`` builds the one
    table a drift report evolves.
    """

    n: int
    k: int
    delta: int
    side: str
    fixed: np.ndarray
    size: int

    def _table_bytes(self, count: int) -> int:  # n bits and delta int64 positions a member
        return count * (self.n + 8 * self.delta)

    @property
    def mode(self) -> str:
        whole = self._table_bytes(self.size) <= core.ALLOC_LIMIT
        return "exhaustive" if self.size <= MATERIALIZE_LIMIT and whole else "sampled"

    def rows(self, seed: int = 0) -> np.ndarray:
        """``fixed`` in row 0, then every member in combination order or, when sampled,
        ``FAMILY_SAMPLE`` members drawn with replacement with ``seed``: a Floyd draw of
        delta of the m flippable positions (Bentley and Floyd, CACM 30(9), 1987) for all
        members at once, whose pass i draws a column in [0, top], top = m - delta + i,
        and takes ``top`` where a draw repeats an earlier pick of its member."""
        exhaustive = self.mode == "exhaustive"
        count = self.size if exhaustive else FAMILY_SAMPLE
        # a sample adds a draw column and its gather (16 bytes) and the repeat test
        # (delta bytes) a member, and fixed's row
        draw = 0 if exhaustive else count * (16 + self.delta) + self.n
        check_alloc(self._table_bytes(count) + draw,
                    f"{count} family members of {self.n} bits")
        fill = int(self.side == "fix_yes")
        positions = (self.fixed != fill).nonzero()[0]
        if exhaustive:
            combos = itertools.combinations(positions.tolist(), self.delta)
            picks = np.fromiter(itertools.chain.from_iterable(combos), np.intp, count * self.delta)
            picks = picks.reshape(count, self.delta).T
        else:
            rng = np.random.default_rng(seed)
            picks = np.empty((self.delta, count), dtype=np.intp)
            for i, top in enumerate(range(positions.size - self.delta, positions.size)):
                picks[i] = positions[rng.integers(0, top + 1, count)]
                np.copyto(picks[i], positions[top], where=(picks[:i] == picks[i]).any(axis=0))
        out = np.full((count + 1, self.n), self.fixed)
        out[np.arange(1, count + 1), picks] = fill  # picks[i, j]: member j's i-th position
        return out


def hamming_family(n: int, k: int, delta: int, fixed) -> HammingFamily:
    """The comparison set for one side of a (k, k+delta) weight decision,
    anchored at ``fixed``.

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
    return HammingFamily(n=n, k=k, delta=delta, side=side, fixed=fixed, size=size)
