"""Independent reference evolver for the benchmark's output checks.

Plain numpy, level by level, one input at a time in the einsum: a restricted
level maps the state v to ``base @ diag(exp(1j * thetas * x[labels])) @ v``
and a general level picks column ``j`` of ``a1`` or ``a0`` by the bit node
``j`` queries.  It reads only the public fields of a program (``initial``,
``levels``, ``accept``) and shares no code with gqbp, so a rewrite of gqbp's
kernels is checked against a fixed reference.
"""

from __future__ import annotations

import numpy as np


def all_bits(n: int) -> np.ndarray:
    """All 2**n inputs as (2**n, n) uint8 rows; row i is i in big-endian bits."""
    rows = np.arange(1 << n, dtype=np.int64)
    return ((rows[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def row_index(bits: np.ndarray) -> int:
    """Row of ``bits`` in ``all_bits(len(bits))``."""
    return int(np.dot(np.asarray(bits, dtype=np.int64), 1 << np.arange(len(bits) - 1, -1, -1)))


def _step(level, states: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    bits = inputs[:, level.labels]
    if hasattr(level, "base"):
        phased = states * np.exp(1j * level.thetas * bits)
        return np.einsum("ij,bj->bi", level.base, phased)
    return (np.einsum("ij,bj->bi", level.a0, states * (1 - bits))
            + np.einsum("ij,bj->bi", level.a1, states * bits))


def states_by_level(program, inputs: np.ndarray) -> list[np.ndarray]:
    """States of a (B, n) input batch before each level, then the final one."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.uint8))
    states = np.tile(np.asarray(program.initial, dtype=np.complex128), (len(inputs), 1))
    out = [states]
    for level in program.levels:
        states = _step(level, states, inputs)
        out.append(states)
    return out


def final_states(program, inputs: np.ndarray) -> np.ndarray:
    return states_by_level(program, inputs)[-1]


def acceptance(program, finals: np.ndarray) -> np.ndarray:
    idx = sorted(program.accept)
    return np.sum(np.abs(finals[:, idx]) ** 2, axis=1)


def hybrid_state(program, x, y, k: int) -> np.ndarray:
    """Final state when the first L-k levels read ``x`` and the last k read ``y``."""
    x = np.asarray(x, dtype=np.uint8)[None, :]
    y = np.asarray(y, dtype=np.uint8)[None, :]
    cut = program.length - k
    state = np.asarray(program.initial, dtype=np.complex128)[None, :]
    for t, level in enumerate(program.levels):
        state = _step(level, state, x if t < cut else y)
    return state[0]


def telescoped(program, x, y) -> tuple[float, float]:
    """(||final(x) - final(y)||, 2 * sum_t sum_{j in D(x,y,t)} |alpha_t[j]|)."""
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    xs = states_by_level(program, x)
    fy = final_states(program, y)[0]
    bound = 0.0
    for level, alpha in zip(program.levels, xs):
        differs = x[level.labels] != y[level.labels]
        bound += 2.0 * float(np.abs(alpha[0][differs]).sum())
    return float(np.linalg.norm(xs[-1][0] - fy)), bound
