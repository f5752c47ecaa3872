"""Semantics-preserving structural rewrites of branching programs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import GeneralLevel, Program, RestrictedLevel, _freeze


def split_layers(program: Program) -> Program:
    """Split every level into a query-dependent phase level followed by a
    query-independent mixing level.

    Level (base, thetas, labels) becomes (I, thetas, labels) then
    (base, 0, 0): the identity-based level applies exactly the per-node
    input phases and the second level the fixed unitary, so their product
    reproduces the original transition on every input.  The result has
    twice the length, same width, same accept set; its query levels are the
    even ones whose angles are not all zero.
    """
    if program.kind != "restricted":
        raise ValueError("split_layers requires a restricted program")
    s = program.width
    eye = _freeze(np.eye(s, dtype=np.complex128))
    zeros = _freeze(np.zeros(s))
    zero_labels = _freeze(np.zeros(s, dtype=np.int64))
    new_levels: list[RestrictedLevel] = []
    for lv in program.levels:
        new_levels.append(RestrictedLevel(labels=lv.labels, base=eye, thetas=lv.thetas))
        new_levels.append(RestrictedLevel(labels=zero_labels, base=lv.base, thetas=zeros))
    return replace(program, levels=tuple(new_levels))


def pad_width(program: Program, target: int) -> Program:
    """Grow the program to ``target`` nodes per level with inert padding.

    Padding nodes self-transition with amplitude 1, query variable 0 with a
    zero phase, and start with zero amplitude, so acceptance probabilities
    are unchanged on every input.
    """
    s = program.width
    if target < s:
        raise ValueError(f"target width {target} is below current width {s}")
    if target == s:
        return program
    extra = target - s
    initial = _freeze(np.concatenate([program.initial, np.zeros(extra, dtype=np.complex128)]))

    def extend_matrix(m: np.ndarray) -> np.ndarray:
        out = np.eye(target, dtype=np.complex128)
        out[:s, :s] = m
        return _freeze(out)

    new_levels = []
    for lv in program.levels:
        labels = _freeze(np.concatenate([lv.labels, np.zeros(extra, dtype=np.int64)]))
        if isinstance(lv, RestrictedLevel):
            thetas = _freeze(np.concatenate([lv.thetas, np.zeros(extra)]))
            new_levels.append(RestrictedLevel(labels=labels, base=extend_matrix(lv.base),
                                              thetas=thetas))
        else:
            new_levels.append(GeneralLevel(labels=labels, a0=extend_matrix(lv.a0),
                                           a1=extend_matrix(lv.a1)))
    return replace(program, initial=initial, levels=tuple(new_levels))
