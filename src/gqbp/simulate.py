"""Exact state-vector evolution of branching programs.

Evolution starts at the program's initial amplitude vector and applies one
input-conditioned transition matrix per level; the acceptance probability
is the squared mass of the final state on the accept set.  Oracle access is
a direct bit lookup ``x[label]`` per node.

Every result is read off ``evolve``, the one batch kernel.  A restricted
level multiplies node ``j`` by ``exp(1j * thetas[j])`` where its queried bit
is 1 and then applies ``base``; the phase step is skipped when all angles
are zero and the mix when ``base`` is exactly the identity, so the split
form costs what the plain form costs.  A general level whose 1-transition
columns are its 0-transition columns times a phase (within
``core.PHASE_TOL``, as ``generalize`` makes them) takes the same restricted
step with ``a0`` as its base, so the general form costs what its source
costs too.  Any other general level applies ``a0`` to the nodes reading 0
and ``a1`` to those reading 1.  The steps are built once per program
(``Program.kernel_steps``); each gathers its bits contiguously and writes
into buffers allocated once per call, and every result is the caller's.
"""

from __future__ import annotations

import numpy as np

from .core import (Level, Program, RestrictedLevel, _one_row, accept_mass, as_bit_rows, as_bits,
                   check_alloc)

ACCEPT = "accept"
REJECT = "reject"
INCONCLUSIVE = "inconclusive"


def transition_matrix(level: Level, x) -> np.ndarray:
    """Assemble the transition matrix realised by input ``x`` at one level.

    Column ``j`` is node ``j``'s outgoing amplitude vector for the value of
    its queried bit.
    """
    bits = as_bits(x)
    if bits.size <= level.labels.max(initial=-1):
        raise ValueError(f"input length mismatch: level reads bit {level.labels.max()} of {x!r}")
    node_bits = bits[level.labels]
    if isinstance(level, RestrictedLevel):
        return level.base * np.exp(1j * level.thetas * node_bits)[np.newaxis, :]
    return np.where(node_bits.astype(bool)[np.newaxis, :], level.a1, level.a0)


def evolve(program: Program, inputs, start=None, levels: slice = slice(None),
           record: bool = False) -> np.ndarray:
    """Evolve a batch of inputs (see ``as_bit_rows``) through ``program.levels[levels]``.

    Each row starts at ``start`` ((s,) or (B, s); the program's initial
    vector by default) and the (B, s) states after the last selected level
    are returned.  With ``record`` the result is the (k+1, B, s) stack of
    the states before and after each of the k selected levels.

    A level's bits are one contiguous gather, ``inputs.take(labels, axis=1)``.
    The steps write with ``out=`` into two (B, s) arrays in turn, or into
    the recorded stack; only the phase product of a phase-and-mix step
    allocates.  The result is the caller's: it shares no memory with
    ``start`` or with any other call's result.
    """
    inputs = as_bit_rows(inputs, program.n)
    nb, s = inputs.shape[0], program.width
    start = program.initial if start is None else np.asarray(start, dtype=np.complex128)
    if start.shape not in ((s,), (nb, s)):
        raise ValueError(f"start must have shape ({s},) or ({nb}, {s}), got {start.shape}")
    steps = program.kernel_steps[levels]
    # without record, two separate arrays: the result keeps no second buffer alive
    states = (np.empty((len(steps) + 1, nb, s), dtype=np.complex128) if record
              else [np.empty((nb, s), dtype=np.complex128) for _ in range(2)])
    v = states[0]
    v[...] = start
    for i, (labels, phases, mix, mix1) in enumerate(steps, 1):
        out = states[i if record else i % 2]
        if mix1 is not None:
            bits = inputs.take(labels, axis=1)
            np.matmul((1 - bits) * v, mix, out=out)
            out += (bits * v) @ mix1
        elif phases is not None:
            factors = np.where(inputs.take(labels, axis=1).view(bool), phases, 1)
            if mix is None:
                np.multiply(v, factors, out=out)
            else:
                np.matmul(v * factors, mix, out=out)
        elif mix is not None:
            np.matmul(v, mix, out=out)
        else:
            out[...] = v
        v = out
    return states if record else v


def final_state(program: Program, x) -> np.ndarray:
    return _one_row(evolve(program, x))


def acceptance_probability(program: Program, x) -> float:
    return float(accept_mass(program, final_state(program, x)))


def decide(program: Program, x, threshold: float = 2 / 3) -> str:
    """Bounded-error decision: accept above ``threshold``, reject below
    ``1 - threshold``, inconclusive in between."""
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (1/2, 1], got {threshold}")
    p = acceptance_probability(program, x)
    if p >= threshold:
        return ACCEPT
    if p <= 1.0 - threshold:
        return REJECT
    return INCONCLUSIVE


def sample_measurement(program: Program, x, seed: int, shots: int | None = None):
    """Sample standard-basis measurement outcomes of the final state.

    Uses numpy's default PCG64 generator seeded with ``seed``; sequences
    are reproducible for a fixed seed within this implementation (other
    implementations are expected to match in distribution only).  Returns a
    single node index, or an array of ``shots`` indices when given.
    """
    v = final_state(program, x)
    probs = np.abs(v) ** 2
    total = probs.sum()
    if total <= 0:
        raise ValueError("final state has zero norm; nothing to sample")
    probs = probs / total
    rng = np.random.default_rng(seed)
    if shots is None:
        return int(rng.choice(probs.size, p=probs))
    return rng.choice(probs.size, p=probs, size=shots)


def final_states(program: Program, inputs: np.ndarray) -> np.ndarray:
    """Batch-evolve a (B, n) array of inputs to their (B, s) final states."""
    return evolve(program, inputs)


def acceptance_probabilities(program: Program, inputs: np.ndarray) -> np.ndarray:
    """Batch acceptance probabilities for a (B, n) array of inputs."""
    return accept_mass(program, evolve(program, inputs))


def all_inputs(n: int) -> np.ndarray:
    """All 2**n inputs as a (2**n, n) uint8 array; row i is the n-bit
    big-endian expansion of i (so row index equals int(bitstring, 2)),
    written in place a column at a time after ``check_alloc`` of its bytes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_alloc(n << n, f"all 2^{n} inputs of {n} bits")
    table = np.zeros((1 << n, n), dtype=np.uint8)
    for j in range(n):
        # bit n-1-j of the row index: the second half of each block of 2^(n-j) rows
        table.reshape(1 << j, 2, -1, n)[:, 1, :, j] = 1
    return table
