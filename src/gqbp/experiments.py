"""Empirical deviation bounds and tradeoff scans for restricted programs.

The central quantity is how far the final states of two runs can drift
when only some queried bits differ.  Working on the alternating (split)
form, the drift between inputs x and y telescopes over the query levels:

    ||final(x) - final(y)||  <=  2 * sum_t sum_{j in D(x,y,t)} |alpha[t][j]|

where D(x,y,t) collects the nodes at query level t whose queried bit
differs between x and y, and alpha[t] is the state right before that level
in the x-run.  Averaging the left side over structured input families and
bounding the right side per level by sqrt(width) (Cauchy-Schwarz on a unit
vector) yields closed-form caps that every valid program must respect;
the reports here pair the measured expectation with its cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .convert import circuit_to_rgqbp
from .core import Program, as_bits, bits_to_str
from .programs import (
    grover_promise_or,
    hamming_family,
    one_hot_input,
    parity_program,
    zeros_input,
)
from .simulate import (
    acceptance_probabilities,
    all_inputs,
    final_state,
    final_states,
    run,
    transition_matrix,
)
from .transform import split_layers

SLACK_TOL = 1e-9

# |P(x)-P(y)| <= 2*||final(x)-final(y)||, so a 1/3 probability gap forces a
# final-state distance of at least 1/6.  The constant is ours, not a given.
PROBABILITY_GAP = 1.0 / 3.0
DISTANCE_FLOOR = PROBABILITY_GAP / 2.0
FLOOR_NOTE = "distance floor 1/6 derived from gap/2 with gap 1/3 (choice of this implementation)"


@dataclass(frozen=True)
class HybridTrace:
    """Per-query-level snapshots of one drift computation.

    ``alpha[t]`` is the state entering query level t in the base-input run,
    ``deviations[t]`` that level's contribution 2*sum_{j in D}|alpha[t][j]|,
    and ``final_distance`` the measured ||final(x) - final(y)||.
    """

    alpha: tuple[np.ndarray, ...]
    deviations: tuple[float, ...]
    final_distance: float

    @property
    def bound(self) -> float:
        return float(sum(self.deviations))

    @property
    def bound_holds(self) -> bool:
        """Whether the measured distance stays within the telescoped bound,
        up to ``SLACK_TOL`` of rounding."""
        return self.final_distance <= self.bound + SLACK_TOL

    @property
    def level_l1(self) -> tuple[float, ...]:
        return tuple(float(np.abs(a).sum()) for a in self.alpha)


@dataclass(frozen=True)
class ExperimentReport:
    empirical: float
    bound: float
    slack: float
    passed: bool
    metadata: dict

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _as_alternating(program: Program) -> Program:
    return program if program.alternating else split_layers(program)


def hybrid_run(program: Program, x_base, x_alt, k: int) -> np.ndarray:
    """Final state when the first L-k query levels read ``x_base`` and the
    last k read ``x_alt`` (L = number of query levels).

    The program is brought to alternating form first; k=0 reproduces the
    plain run on x_base and k=L the plain run on x_alt.
    """
    split = _as_alternating(program)
    depth = split.query_depth
    if not 0 <= k <= depth:
        raise ValueError(f"k must be in [0, {depth}], got {k}")
    xb = as_bits(x_base, program.n)
    xa = as_bits(x_alt, program.n)
    v = split.initial
    queries_done = 0
    for i, level in enumerate(split.levels):
        if i % 2 == 0:
            x = xb if queries_done < depth - k else xa
            queries_done += 1
        else:
            x = xb  # query-independent level; any input gives the same matrix
        v = transition_matrix(level, x) @ v
    return v


def hybrid_deviation(program: Program, x, y) -> HybridTrace:
    """Measure ||final(x) - final(y)|| and its telescoped per-level cap.

    The returned trace's ``bound_holds`` reports whether the cap held.
    """
    xb = as_bits(x, program.n)
    yb = as_bits(y, program.n)
    split = _as_alternating(program)
    trace_x = run(split, xb)
    final_y = final_state(split, yb)
    alpha = []
    deviations = []
    for t in range(split.query_depth):
        level = split.levels[2 * t]
        state = trace_x.states[2 * t]
        differs = xb[level.labels] != yb[level.labels]
        alpha.append(state)
        deviations.append(2.0 * float(np.abs(state[differs]).sum()))
    distance = float(np.linalg.norm(trace_x.final - final_y))
    return HybridTrace(alpha=tuple(alpha), deviations=tuple(deviations),
                       final_distance=distance)


def promise_or_expectation(program: Program) -> ExperimentReport:
    """Mean final-state drift between the all-zero input and the n one-hot
    inputs, against the cap 2*(L+1)*sqrt(s)/n."""
    n, s = program.n, program.width
    depth = program.query_depth
    split = _as_alternating(program)
    inputs = np.vstack([zeros_input(n)] + [one_hot_input(n, p) for p in range(n)])
    finals = final_states(split, inputs)
    distances = np.linalg.norm(finals[1:] - finals[0], axis=1)
    empirical = float(distances.mean())
    bound = 2.0 * (depth + 1) * np.sqrt(s) / n
    trace0 = run(split, zeros_input(n))
    level_l1 = tuple(float(np.abs(trace0.states[2 * t]).sum())
                     for t in range(split.query_depth))
    slack = bound - empirical
    return ExperimentReport(
        empirical=empirical, bound=bound, slack=slack, passed=slack >= -SLACK_TOL,
        metadata={"family": "promise-or", "n": n, "s": s, "L": depth,
                  "level_l1": level_l1})


def hamming_expectation(program: Program, k: int, delta: int, fixed,
                        sample_size: int = 10_000, seed: int = 0) -> ExperimentReport:
    """Mean final-state drift between ``fixed`` and its weight-family
    members, against the case cap 2*(L+1)*delta*sqrt(s) / (n-k) or / k."""
    n, s = program.n, program.width
    depth = program.query_depth
    fixed = as_bits(fixed, n)
    family = hamming_family(n, k, delta, fixed)
    if family.size == 0:
        raise ValueError("weight family is empty")
    if family.materialized:
        members = family.members
        mode = "exhaustive"
    else:
        members = family.sample(sample_size, seed)
        mode = "sampled"
    split = _as_alternating(program)
    finals = final_states(split, np.vstack([fixed[np.newaxis, :], members]))
    empirical = float(np.linalg.norm(finals[1:] - finals[0], axis=1).mean())
    denom = (n - k) if family.side == "fix_yes" else k
    if denom <= 0:
        raise ValueError(f"degenerate case denominator for side {family.side}: {denom}")
    bound = 2.0 * (depth + 1) * delta * np.sqrt(s) / denom
    slack = bound - empirical
    return ExperimentReport(
        empirical=empirical, bound=bound, slack=slack, passed=slack >= -SLACK_TOL,
        metadata={"family": "hamming", "n": n, "s": s, "L": depth, "k": k,
                  "delta": delta, "side": family.side, "family_size": family.size,
                  "mode": mode, "compared": int(members.shape[0])})


@dataclass(frozen=True)
class DistinguishabilityReport:
    pairs_checked: int
    qualifying_pairs: int
    min_distance: float
    floor: float
    floor_violations: tuple[tuple[str, str], ...]
    decision_failures: tuple[tuple[str, str], ...]
    passed: bool
    note: str = FLOOR_NOTE


def distinguishability_check(program: Program, yes_inputs: Iterable,
                             no_inputs: Iterable) -> DistinguishabilityReport:
    """Check that opposite-answer inputs with a >= 1/3 acceptance gap sit at
    final-state distance >= 1/6; pairs without the gap are decision failures."""
    yes = [as_bits(x, program.n) for x in yes_inputs]
    no = [as_bits(x, program.n) for x in no_inputs]
    every = np.vstack(yes + no) if yes or no else np.zeros((0, program.n), np.uint8)
    finals = final_states(program, every)
    probs = acceptance_probabilities(program, every)
    floor_violations = []
    decision_failures = []
    min_distance = np.inf
    qualifying = 0
    for i in range(len(yes)):
        for jj in range(len(no)):
            j = len(yes) + jj
            pair = (bits_to_str(every[i]), bits_to_str(every[j]))
            if abs(probs[i] - probs[j]) < PROBABILITY_GAP:
                decision_failures.append(pair)
                continue
            qualifying += 1
            distance = float(np.linalg.norm(finals[i] - finals[j]))
            min_distance = min(min_distance, distance)
            if distance < DISTANCE_FLOOR:
                floor_violations.append(pair)
    return DistinguishabilityReport(
        pairs_checked=len(yes) * len(no), qualifying_pairs=qualifying,
        min_distance=float(min_distance) if qualifying else 0.0,
        floor=DISTANCE_FLOOR, floor_violations=tuple(floor_violations),
        decision_failures=tuple(decision_failures),
        passed=not floor_violations and not decision_failures)


@dataclass(frozen=True)
class ScanRow:
    n: int
    width: int
    length: int
    min_success: float
    query_space: float
    ratio: float


def _promise_or_instance(n: int):
    program = circuit_to_rgqbp(grover_promise_or(n))
    inputs = np.vstack([zeros_input(n)] + [one_hot_input(n, p) for p in range(n)])
    expected = np.array([0] + [1] * n, dtype=np.uint8)
    return program, inputs, expected


def _parity_instance(n: int):
    program = parity_program(n)
    inputs = all_inputs(n)
    expected = (inputs.sum(axis=1) % 2).astype(np.uint8)
    return program, inputs, expected


FAMILIES: dict[str, Callable[[int], tuple]] = {
    "parity": _parity_instance,
    "grover-or": _promise_or_instance,
}


def tradeoff_scan(family, sizes: Sequence[int]) -> list[ScanRow]:
    """Tabulate width, length, worst-case success, and the query-space
    product L*sqrt(s) (plus its ratio to n) over a family of sizes.

    ``family`` is a registered name ('parity', 'grover-or') or a callable
    n -> (program, inputs, expected_bits).
    """
    build = FAMILIES.get(family, family)
    if not callable(build):
        raise ValueError(f"unknown family {family!r}")
    rows = []
    for n in sizes:
        program, inputs, expected = build(n)
        probs = acceptance_probabilities(program, inputs)
        success = np.where(expected == 1, probs, 1.0 - probs)
        qs = program.length * np.sqrt(program.width)
        rows.append(ScanRow(n=program.n, width=program.width, length=program.length,
                            min_success=float(success.min()),
                            query_space=float(qs), ratio=float(qs / program.n)))
    return rows
