"""Empirical deviation bounds and tradeoff scans for branching programs.

The central quantity is how far the final states of two runs can drift
when only some queried bits differ.  The drift between inputs x and y
telescopes over the query levels (``Program.query_levels``, the levels
that read their bit; a level that reads none preserves distances):

    ||final(x) - final(y)||  <=  2 * sum_t sum_{j in D(x,y,t)} |alpha[t][j]|

where D(x,y,t) collects the nodes at query level t whose queried bit
differs between x and y, and alpha[t] is the state right before that level
in the x-run.  Averaging the left side over structured input families and
bounding the right side per level by sqrt(width) (Cauchy-Schwarz on a unit
vector) yields closed-form caps that every valid program must respect;
the reports here pair the measured expectation with its cap.

The one drift report is ``hamming_expectation``; promise-OR is its k=0,
delta=1 instance anchored at 0^n, whose members are the n one-hot inputs.
A family ``hamming_family`` materialises is compared whole, in row blocks, any other on
``FAMILY_SAMPLE`` seeded members; only rows or one row's states past the limit are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .convert import circuit_to_rgqbp
from .core import Program, _one_row, accept_mass, as_bit_rows, bits_to_str, cache_rows
from .programs import grover_promise_or, hamming_family, parity_program, zeros_input
from .simulate import _block_results, acceptance_probabilities, all_inputs, evolve, final_states

SLACK_TOL = 1e-9
# Members compared when a weight family is too large to materialise.
FAMILY_SAMPLE = 10_000

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


def hybrid_run(program: Program, x_base, x_alt, k: int) -> np.ndarray:
    """Final state when the first L-k query levels read ``x_base`` and the
    last k read ``x_alt`` (L = number of query levels).

    k=0 reproduces the plain run on x_base and k=L the plain run on x_alt.
    """
    depth = program.query_depth
    if not 0 <= k <= depth:
        raise ValueError(f"k must be in [0, {depth}], got {k}")
    cut = program.query_levels[depth - k] if k else program.length
    prefix = _one_row(evolve(program, x_base, levels=slice(0, cut)))
    return _one_row(evolve(program, x_alt, start=prefix, levels=slice(cut, None)))


def hybrid_deviation(program: Program, x, y) -> HybridTrace:
    """Measure ||final(x) - final(y)|| and its telescoped per-level cap.

    The returned trace's ``bound_holds`` reports whether the cap held.
    """
    pair = as_bit_rows([x, y], program.n)
    states = evolve(program, pair, record=True)
    alpha = states[program.query_levels, 0]
    xq, yq = pair.take(program.plan.labels[program.plan.before[program.query_levels]], axis=1)
    deviations = 2.0 * np.where(xq != yq, np.abs(alpha), 0.0).sum(axis=1)
    distance = float(np.linalg.norm(states[-1, 0] - states[-1, 1]))
    return HybridTrace(alpha=tuple(alpha), deviations=tuple(deviations.tolist()),
                       final_distance=distance)


def promise_or_expectation(program: Program) -> ExperimentReport:
    """Mean final-state drift from 0^n to the n one-hot inputs against the cap
    2*(L+1)*sqrt(s)/n: ``hamming_expectation`` at k=0, delta=1, fixed 0^n."""
    return hamming_expectation(program, 0, 1, zeros_input(program.n))


def hamming_expectation(program: Program, k: int, delta: int, fixed,
                        seed: int = 0) -> ExperimentReport:
    """Mean final-state drift between ``fixed`` and its weight-family
    members, against the case cap 2*(L+1)*delta*sqrt(s) / (n-k) or / k; a
    family not materialised is sampled with ``seed``.  The anchor is row 0 of the first block."""
    family = hamming_family(program.n, k, delta, fixed)
    rows = family.rows if family.materialized else family.anchored_sample(FAMILY_SAMPLE, seed)
    mode = "exhaustive" if family.materialized else "sampled"
    denom = (program.n - k) if family.side == "fix_yes" else k
    if denom <= 0:
        raise ValueError(f"degenerate case denominator for side {family.side}: {denom}")
    anchor = None

    def drift(states: np.ndarray) -> np.ndarray:  # a block's sum, so no block outlives it
        nonlocal anchor
        if anchor is None:
            anchor, states = states[0].copy(), states[1:]
        return np.linalg.norm(states - anchor, axis=1).sum(keepdims=True)

    depth = program.query_depth
    empirical = float(_block_results(program, rows, drift).sum() / (len(rows) - 1))
    bound = 2.0 * (depth + 1) * delta * np.sqrt(program.width) / denom
    slack = bound - empirical
    return ExperimentReport(
        empirical=empirical, bound=bound, slack=slack, passed=slack >= -SLACK_TOL,
        metadata={"family": "hamming", "n": program.n, "s": program.width, "L": depth,
                  "k": k, "delta": delta, "side": family.side, "family_size": family.size,
                  "mode": mode, "compared": rows.shape[0] - 1})


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
    final-state distance >= 1/6; pairs without the gap are decision failures.

    Each side is read by ``as_bit_rows`` (strings, bit sequences or a (B, n)
    array), so a value that is not a 0/1 bit raises ValueError, whatever
    its container.  Failing pairs are listed in row-major (yes, no) order.
    """
    yes = as_bit_rows(yes_inputs, program.n)
    no = as_bit_rows(no_inputs, program.n)
    finals = final_states(program, np.vstack([yes, no]))
    probs = accept_mass(program, finals)
    final_yes, final_no = finals[:len(yes)], finals[len(yes):]
    prob_yes, prob_no = probs[:len(yes)], probs[len(yes):]
    rows = cache_rows(final_no.size)  # yes-rows a tile, each against every no-row
    none = np.zeros((0, 2), dtype=np.intp)
    failures, violations = [none], [none]
    min_distance = np.inf
    qualifying = 0
    for lo in range(0, len(yes), rows):
        block = slice(lo, lo + rows)
        gap = np.abs(prob_yes[block, np.newaxis] - prob_no) >= PROBABILITY_GAP
        distance = np.linalg.norm(final_yes[block, np.newaxis] - final_no, axis=2)
        failures.append(np.argwhere(~gap) + (lo, 0))
        violations.append(np.argwhere(gap & (distance < DISTANCE_FLOOR)) + (lo, 0))
        qualifying += int(gap.sum())
        if gap.any():
            min_distance = min(min_distance, float(distance[gap].min()))

    def pairs(found) -> tuple[tuple[str, str], ...]:
        return tuple((bits_to_str(yes[i]), bits_to_str(no[j])) for i, j in np.concatenate(found))

    floor_violations, decision_failures = pairs(violations), pairs(failures)
    return DistinguishabilityReport(
        pairs_checked=len(yes) * len(no), qualifying_pairs=qualifying,
        min_distance=min_distance if qualifying else 0.0,
        floor=DISTANCE_FLOOR, floor_violations=floor_violations,
        decision_failures=decision_failures,
        passed=not floor_violations and not decision_failures)


@dataclass(frozen=True)
class ScanRow:
    """One size of a family: ``length`` is the query depth L (levels that
    read nothing are not counted) and ``query_space`` is L*sqrt(s)."""

    n: int
    width: int
    length: int
    min_success: float
    query_space: float
    ratio: float


def _promise_or_instance(n: int):
    """Grover on the promise-OR family: 0^n (answer 0), then its one-hot members."""
    program = circuit_to_rgqbp(grover_promise_or(n))
    family = hamming_family(n, 0, 1, zeros_input(n))
    expected = np.array([0] + [1] * n, dtype=np.uint8)
    return program, family.rows, expected


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
    """Tabulate width, query depth L, worst-case success, and the
    query-space product L*sqrt(s) (plus its ratio to n) over a family of
    sizes.

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
        qs = program.query_depth * np.sqrt(program.width)
        rows.append(ScanRow(n=program.n, width=program.width, length=program.query_depth,
                            min_success=float(success.min()),
                            query_space=float(qs), ratio=float(qs / program.n)))
    return rows
