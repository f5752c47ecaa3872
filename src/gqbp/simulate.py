"""Exact state-vector evolution of branching programs.

Evolution starts at the program's initial amplitude vector and applies one
input-conditioned transition matrix per level; the acceptance probability
is the squared mass of the final state on the accept set.  Oracle access is
a direct bit lookup ``x[label]`` per node.

Every result is read off ``evolve``, the one batch kernel, which applies
the steps of ``Program.plan`` (``core.Plan``).  The batch calls run it in the
row blocks of ``core.run_in_blocks``, the rule the circuit calls use too.
"""

from __future__ import annotations

import numpy as np

from .core import (Program, _one_row, accept_mass, as_bit_rows, cache_rows, check_alloc,
                   run_in_blocks)

ACCEPT = "accept"
REJECT = "reject"
INCONCLUSIVE = "inconclusive"


def _blocks(nb: int, s: int, steps: int, reads: int, record: bool) -> tuple[int, int]:
    """``evolve``'s reading levels per factor block, and every byte it holds
    at once for ``steps`` levels of which ``reads`` read bits: the
    (steps+1, s, nb) record stack or two (s, nb) state buffers, one (s, nb)
    scratch product, and one block of complex factors and of bool bits."""
    per = cache_rows(nb * s)
    block = min(per, reads)
    held = steps + 1 if record else 2
    return per, nb * s * (16 * (held + 1 + block) + block)


def evolve(program: Program, inputs, start=None, levels: slice = slice(None),
           record: bool = False) -> np.ndarray:
    """Evolve a batch of inputs (see ``as_bit_rows``) through ``program.levels[levels]``.

    Each row starts at ``start`` ((s,) or (B, s); the program's initial
    vector by default) and the (B, s) states after the last selected level
    are returned.  With ``record`` the result is the (k+1, B, s) stack of
    the states before and after each of the k selected levels.  Either way,
    ``check_alloc`` refuses its ``_blocks`` bytes before anything is allocated.

    The states are (s, B) columns, one per input, and a level with a mix
    is ``mix @ V``.  Each C-ordered (s, B) buffer is the transpose of a
    Fortran-ordered (B, s) array, which is returned as it is: it owns its
    memory and no transposed copy is made (with ``record``, the (k+1, B, s)
    view of the C-ordered (k+1, s, B) stack).

    The levels ``lo:hi`` (step 1) own the rows ``before[lo]:before[hi]`` of
    the ``Program.plan`` tables.  A block of reading levels, as many as
    ``core.LEVEL_BLOCK_BYTES`` of their (s, B) factors allow, reads its (levels,
    s, B) bits as rows of the (n, B) view ``inputs.T``, with no copy of the
    inputs; at its first phase step it writes their factors along the
    contiguous B-rows of one factor block.  A level's slice of a block is
    contiguous, so its arithmetic is that of a level-by-level gather.  The
    steps write with ``out=`` into two state buffers in turn, or the
    recorded stack, through one scratch product, so no step allocates; the
    result shares no memory with ``start`` or with another call's result.
    """
    inputs = as_bit_rows(inputs, program.n)
    nb, s = inputs.shape[0], program.width
    start = program.initial if start is None else np.asarray(start, dtype=np.complex128)
    if start.shape not in ((s,), (nb, s)):
        raise ValueError(f"start must have shape ({s},) or ({nb}, {s}), got {start.shape}")
    plan = program.plan
    lo, hi, stride = levels.indices(program.length)
    if stride != 1:
        raise ValueError(f"levels must be a contiguous slice, got {levels}")
    steps, reads = plan.steps[lo:hi], plan.reads[lo:hi]
    rows = slice(plan.before[lo], plan.before[hi])
    labels, table = plan.labels[rows], plan.factors[rows]
    per, need = _blocks(nb, s, len(steps), len(labels), record)
    check_alloc(need, "recorded states (or two state buffers), a scratch product "
                      "and one block of factors and bits")
    # without record, two separate arrays: the result keeps no second buffer alive
    if record:
        states = np.empty((len(steps) + 1, s, nb), dtype=np.complex128)
    else:
        results = [np.empty((nb, s), dtype=np.complex128, order="F") for _ in range(2)]
        states = [r.T for r in results]
    scratch = np.empty((s, nb), dtype=np.complex128)
    factors = np.empty((min(per, len(labels)), s, nb), dtype=np.complex128)
    columns = inputs.T.view(bool)  # (n, B): one row of bits per input position
    v = states[0]
    v.T[...] = start
    done = 0  # reading steps applied so far
    for i, ((mix, mix1), read) in enumerate(zip(steps, reads), 1):
        out = states[i if record else i % 2]
        if read:
            if done % per == 0:
                block = slice(done, done + per)
                bits = None  # the last block's bits go before this block's are read
                bits, built = columns[labels[block]], False
            at, done = done % per, done + 1
        if mix1 is not None:
            # a1 @ (V*bits) goes to this level's own factor slot, which its
            # step never reads, then a0 @ (V*~bits) + that into out
            scratch.fill(0)
            np.copyto(scratch, v, where=bits[at])
            np.matmul(mix1, scratch, out=factors[at])
            np.subtract(v, scratch, out=scratch)
            np.matmul(mix, scratch, out=out)
            out += factors[at]
        elif read:
            if not built:  # at the block's first phase step: two-matmul steps read bits
                f = factors[:len(bits)]
                f.fill(1)
                np.copyto(f, table[block, :, np.newaxis], where=bits)
                built = True
            if mix is None:
                np.multiply(v, factors[at], out=out)
            else:
                np.multiply(v, factors[at], out=scratch)
                np.matmul(mix, scratch, out=out)
        elif mix is not None:
            np.matmul(mix, v, out=out)
        else:
            out[...] = v
        v = out
    return states.transpose(0, 2, 1) if record else results[len(steps) % 2]


def final_state(program: Program, x) -> np.ndarray:
    return _one_row(evolve(program, x))


def acceptance_probability(program: Program, x) -> float:
    return float(accept_mass(program, final_state(program, x)))


def decide(program: Program, x) -> str:
    """Bounded-error decision: accept at probability ``2 / 3`` or more, reject
    at ``1.0 - 2 / 3`` (one ulp above the float 1/3) or less, inconclusive in
    between."""
    p = acceptance_probability(program, x)
    if p >= 2 / 3:
        return ACCEPT
    if p <= 1.0 - 2 / 3:
        return REJECT
    return INCONCLUSIVE


def _block_results(program: Program, inputs, reduce, keep: int = 0) -> np.ndarray:
    """``reduce`` of the final states of ``inputs`` in ``core.run_in_blocks``' row blocks,
    at ``evolve``'s one-row ``_blocks`` bytes (the most a row takes) with ``keep`` bytes a
    row of results, for every row, as fixed bytes."""
    inputs = as_bit_rows(inputs, program.n)
    per_row = _blocks(1, program.width, program.length, len(program.plan.labels), False)[1]
    return run_in_blocks(inputs, program.width, lambda rows: evolve(program, rows), reduce,
                         per_row, keep * len(inputs))


def final_states(program: Program, inputs) -> np.ndarray:
    """Batch final states, (B, s): 32*s bytes a row for the blocks and their join."""
    return _block_results(program, inputs, lambda states: states, 32 * program.width)


def acceptance_probabilities(program: Program, inputs) -> np.ndarray:
    """Batch acceptance probabilities for a (B, n) array of inputs."""
    return _block_results(program, inputs, lambda states: accept_mass(program, states), 16)


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
