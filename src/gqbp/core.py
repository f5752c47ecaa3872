"""Domain types for levelled quantum branching programs.

A program evolves an amplitude vector over a fixed set of ``s`` nodes per
level.  Each level stores one transition per source node, conditioned on a
single queried input bit:

* ``GeneralLevel`` keeps two independent transition matrices ``a0``/``a1``
  (column ``j`` is the outgoing amplitude vector of node ``j`` when its
  queried bit is 0 resp. 1).
* ``RestrictedLevel`` is the phase-only special case: the 1-transition of
  node ``j`` equals its 0-transition times ``exp(1j * thetas[j])``, so a
  single ``base`` matrix plus per-node phase angles suffice.

All containers are immutable after construction; construction validates
shapes and index ranges, while numeric properties (normalisation,
unitarity) are checked by the ``validate_*`` functions so that files with
broken numerics can still be loaded and inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9

# Generators and compilers refuse to build more than this many bytes of
# arrays; the CLI reports the refusal as a usage error (exit 2).
ALLOC_LIMIT = 1 << 30
# What a generator's level holds besides its arrays' data, counted against ALLOC_LIMIT:
# the level object and its array headers (tracemalloc peak, at any width).
LEVEL_OBJECT_BYTES = 464
# The one tile budget, through ``cache_rows``: row blocks, factor blocks and pair tiles.
LEVEL_BLOCK_BYTES = 1 << 18


def cache_rows(entries: int) -> int:
    """Rows of ``entries`` complex entries each that fit in ``LEVEL_BLOCK_BYTES``, at least 1."""
    return max(1, LEVEL_BLOCK_BYTES // (16 * max(1, entries)))


def check_alloc(nbytes: int, what: str) -> None:
    """Raise ValueError, before anything is allocated, when ``what`` would
    take more than ``ALLOC_LIMIT`` bytes."""
    if nbytes > ALLOC_LIMIT:
        raise ValueError(f"refusing to allocate {nbytes} bytes for {what} "
                         f"(limit {ALLOC_LIMIT} bytes)")


def run_in_blocks(inputs: np.ndarray, width: int, run, reduce, per_row: int,
                  fixed: int) -> np.ndarray:
    """``reduce`` of ``run``'s (rows, width) final states for the rows of ``inputs``, in row
    blocks of at most ``LEVEL_BLOCK_BYTES`` of state (so a wide batch stays in cache) and
    ``(ALLOC_LIMIT - fixed) // per_row`` rows, at least 1.  A batch of at most that many
    rows is one block, its result as it is, with no check here: ``run`` refuses a row that
    does not fit.  A larger one checks ``fixed + per_row`` and joins its blocks in order."""
    count = len(inputs)
    rows = max(1, min(cache_rows(width), (ALLOC_LIMIT - fixed) // per_row))
    if count <= rows:
        return reduce(run(inputs))
    check_alloc(fixed + per_row, f"one row's states and what is kept of all {count} rows")
    return np.concatenate([reduce(run(inputs[lo:lo + rows])) for lo in range(0, count, rows)])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _own(obj, name: str, dtype) -> np.ndarray:
    """Set field ``name`` of ``obj`` to its value as a read-only ``dtype`` array and return
    it; a writeable ndarray is copied, so the caller's stays writeable, a read-only one shared."""
    value = getattr(obj, name)
    a = np.asarray(value, dtype=dtype)
    object.__setattr__(obj, name, _freeze(a.copy() if a is value and a.flags.writeable else a))
    return getattr(obj, name)


def as_bit_rows(inputs, n: int) -> np.ndarray:
    """The one input rule: turn inputs into a (B, n) uint8 array of bits,
    ``n`` being the program's or circuit's input length.

    A ``'0101'`` string or a flat sequence of bits is one row; a (B, n)
    array, or an iterable of such inputs (strings allowed), is one row per
    item.  Values are checked before the cast, so 0.5 or 256 is refused
    rather than read as 0, and so is a non-numeric dtype.  Raises ValueError
    with "0/1" for a value that is not a bit and "length mismatch" for rows
    of unequal length or of a length other than ``n``.
    """
    if isinstance(inputs, str):
        inputs = [inputs]
    if not isinstance(inputs, np.ndarray) and np.iterable(inputs):
        inputs = [np.fromiter(map(ord, x), np.int64, len(x)) - ord("0")
                  if isinstance(x, str) else x for x in inputs]
    try:
        rows = np.asarray(inputs)
    except ValueError:
        raise ValueError("input length mismatch: inputs differ in length") from None
    if rows.ndim == 1:
        rows = rows[np.newaxis] if rows.size else rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"input length mismatch: got shape {rows.shape}, "
                         f"expected rows of {n} bits")
    if rows.dtype.kind not in "biufc":
        raise ValueError(f"inputs must be 0/1 bits, got dtype {rows.dtype}")
    if rows.dtype == np.uint8:
        binary = rows.max(initial=0) <= 1
    else:
        binary = ((rows == 0) | (rows == 1)).all()
    if not binary:
        raise ValueError("inputs must be 0/1 bits")
    return rows.astype(np.uint8, copy=False)


def _one_row(batch: np.ndarray) -> np.ndarray:
    """The only row of a result computed for one input; an input that reads
    as several rows (``['1', '0']`` when n=1) is refused."""
    if batch.shape[0] != 1:
        raise ValueError(f"expected a single input, got {batch.shape[0]} rows")
    return batch[0]


def as_bits(x, n: int) -> np.ndarray:
    """One input as a flat uint8 array: the one-row case of ``as_bit_rows``,
    with the same checks and errors."""
    return _one_row(as_bit_rows(x, n))


def accept_mass(machine, states: np.ndarray) -> np.ndarray:
    """Squared mass of each row of ``states`` on a program's or circuit's accept set."""
    return (np.abs(states[..., machine.accept_index]) ** 2).sum(axis=-1)


def bits_to_str(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def _check_labels(labels: np.ndarray, width: int) -> None:
    if labels.shape != (width,):
        raise ValueError(f"labels must have one entry per node ({width}), got shape {labels.shape}")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative variable indices")


@dataclass(frozen=True, eq=False)
class GeneralLevel:
    """One transition layer with independent 0- and 1-transition matrices."""

    labels: np.ndarray
    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        labels = _own(self, "labels", np.int64)
        a0 = _own(self, "a0", np.complex128)
        a1 = _own(self, "a1", np.complex128)
        if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError(f"a0 must be square, got shape {a0.shape}")
        if a1.shape != a0.shape:
            raise ValueError(f"a0/a1 shape mismatch: {a0.shape} vs {a1.shape}")
        _check_labels(labels, a0.shape[0])
        if not (np.isfinite(a0).all() and np.isfinite(a1).all()):
            raise ValueError("transition amplitudes must be finite")

    @property
    def width(self) -> int:
        return self.a0.shape[0]


@dataclass(frozen=True, eq=False)
class RestrictedLevel:
    """One transition layer whose 1-transitions are per-node phase multiples
    of the 0-transitions."""

    labels: np.ndarray
    base: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        labels = _own(self, "labels", np.int64)
        base = _own(self, "base", np.complex128)
        thetas = _own(self, "thetas", np.float64)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError(f"base must be square, got shape {base.shape}")
        s = base.shape[0]
        _check_labels(labels, s)
        if thetas.shape != (s,):
            raise ValueError(f"thetas must have one angle per node ({s}), got shape {thetas.shape}")
        if not (np.isfinite(base).all() and np.isfinite(thetas).all()):
            raise ValueError("base entries and phase angles must be finite")

    @property
    def width(self) -> int:
        return self.base.shape[0]


Level = GeneralLevel | RestrictedLevel


# The kernel takes the restricted step for a general level whose columns are
# phase-related within this max-entry residual.  It is a few ulps of a
# unit-size entry, within the rounding of the general step's own products,
# so the two steps agree to rounding and no other level is treated as one.
PHASE_TOL = 4 * np.finfo(float).eps


def _phase_relation(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node angles ``thetas`` for ``a1 ~ a0 @ diag(exp(1j*thetas))``, the
    factors ``exp(1j*thetas)``, and each column's max-entry residual from
    that relation.

    Each angle is read at the largest-magnitude entry of the node's
    0-transition column, avoiding near-zero denominators.  A node whose
    ``a0`` column is zero, or whose two pivot entries are equal, gets angle
    exactly 0, so a zero angle survives ``generalize`` for ``restrict`` and
    for the kernel's zero-angle skip.
    """
    nodes = np.arange(a0.shape[1])
    pivots = np.argmax(np.abs(a0), axis=0)
    p0, p1 = a0[pivots, nodes], a1[pivots, nodes]
    dead = p0 == 0.0
    thetas = np.where(dead | (p1 == p0), 0.0, np.angle(p1 / np.where(dead, 1.0, p0)))
    factors = np.exp(1j * thetas)
    residual = np.abs(a1 - factors * a0).max(axis=0)
    return thetas, factors, residual


class Plan(NamedTuple):
    """A program's levels as ``simulate.evolve`` applies them, built in one pass.

    ``steps[t]`` is level t's ``(mix, mix1)``, the level matrices themselves,
    which the kernel applies as ``mix @ V`` to (s, B) state columns: ``(base,
    None)`` for a restricted level or a general one phase-related within
    ``PHASE_TOL`` (base ``a0``), ``mix`` None for the exact identity, else
    ``(a0, a1)``.  ``labels`` and bit-1 ``factors`` (1 for two matmuls) are
    (R, s) tables of the R levels the kernel reads; ``reads[t]`` says whether
    level t is one and ``before[t]`` counts those before it, so levels lo:hi
    own rows ``before[lo]:before[hi]``.

    * The kernel reads all but a restricted step with every angle exactly 0,
      the one skip that keeps its arithmetic exact.
    * A query level (one of the drift caps' ``L``) has a node whose column
      gap, ``||a1[:, j] - a0[:, j]||`` or ``|exp(1j*theta_j) - 1| *
      ||base[:, j]||``, exceeds ``DEFAULT_TOL``: a program and its
      ``generalize`` agree, and the ulps a rewrite leaves read nothing.

    Every query level is read: a skipped level's gap is 0, or at most
    4*eps*sqrt(s) if general (over 1e-9 only past s ~ 1e12).
    """

    steps: tuple[tuple[np.ndarray | None, np.ndarray | None], ...]
    labels: np.ndarray
    factors: np.ndarray
    before: np.ndarray
    reads: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class Program:
    """A levelled branching program over ``n`` input bits.

    ``initial`` is the starting amplitude vector (one entry per node),
    ``levels`` the transitions applied in order, and ``accept`` the node
    indices at the final level whose measurement outcome means "accept".
    Which levels are queries is read off the levels themselves
    (``query_levels``), not declared.  ``accept_index`` is ``accept`` sorted.
    """

    n: int
    initial: np.ndarray
    levels: tuple[Level, ...]
    accept: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"input length must be >= 1, got {self.n}")
        initial = _own(self, "initial", np.complex128)
        if initial.ndim != 1 or initial.size < 1:
            raise ValueError("initial must be a non-empty amplitude vector")
        if not np.isfinite(initial).all():
            raise ValueError("initial amplitudes must be finite")
        levels = tuple(self.levels)
        kinds = {type(lv) for lv in levels}
        if len(kinds) > 1:
            raise ValueError("levels must be all restricted or all general, not mixed")
        s = initial.size
        for i, lv in enumerate(levels):
            if lv.width != s:
                raise ValueError(f"level {i} has width {lv.width}, expected {s}")
            if lv.labels.size and lv.labels.max() >= self.n:
                raise ValueError(f"level {i} labels must be < n={self.n}")
        accept = frozenset(int(v) for v in self.accept)
        for v in accept:
            if not 0 <= v < s:
                raise ValueError(f"accept node {v} out of range [0, {s})")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "accept", accept)
        object.__setattr__(self, "accept_index", _freeze(np.array(sorted(accept), dtype=np.intp)))

    @property
    def width(self) -> int:
        return self.initial.size

    @property
    def length(self) -> int:
        return len(self.levels)

    @property
    def kind(self) -> str:
        if self.levels and isinstance(self.levels[0], GeneralLevel):
            return "general"
        return "restricted"

    @cached_property
    def plan(self) -> Plan:
        """The levels as the evolution kernel applies them, built once per program."""
        steps, labels, factors, before = [], [], [], [0]
        for level in self.levels:
            if isinstance(level, RestrictedLevel):
                base, thetas, phases, related = level.base, level.thetas, None, True
            else:
                thetas, phases, residual = _phase_relation(level.a0, level.a1)
                base, related = level.a0, residual.max() <= PHASE_TOL
            if related:
                # s nonzero entries, all of them a diagonal 1: exactly the identity
                identity = np.count_nonzero(base) == self.width and (base.diagonal() == 1).all()
                steps.append((None if identity else base, None))
            else:
                steps.append((level.a0, level.a1))
                phases = np.ones(self.width)
            if not related or thetas.any():
                labels.append(level.labels)
                factors.append(np.exp(1j * thetas) if phases is None else phases)
            before.append(len(labels))
        return Plan(tuple(steps), _freeze(np.array(labels, dtype=np.intp).reshape(-1, self.width)),
                    _freeze(np.array(factors, dtype=np.complex128).reshape(-1, self.width)),
                    _freeze(np.array(before, dtype=np.intp)),
                    tuple(b > a for a, b in zip(before, before[1:])))

    @cached_property
    def query_levels(self) -> np.ndarray:
        """The query levels in order: ``Plan``'s drift rule on the levels the kernel reads."""
        def gaps(lv) -> np.ndarray:  # each node's column gap
            if isinstance(lv, RestrictedLevel):
                return np.abs(np.exp(1j * lv.thetas) - 1.0) * np.linalg.norm(lv.base, axis=0)
            return np.linalg.norm(lv.a1 - lv.a0, axis=0)

        reads = [t for t, read in enumerate(self.plan.reads)
                 if read and gaps(self.levels[t]).max() > DEFAULT_TOL]
        return _freeze(np.array(reads, dtype=np.intp))

    @property
    def query_depth(self) -> int:
        """Number of query levels, the ``L`` of the drift caps."""
        return self.query_levels.size


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a numeric well-formedness check.

    ``max_deviation`` is the worst max-entry deviation from the identity of any
    checked operator.  ``assignments_checked`` (``checked=`` in the CLI) and
    ``convention`` say what was covered: 1 for a restricted level ("base-unitarity":
    a unitary base settles every input), the 2**d bit assignments to a general
    level's d distinct labels ("all-assignments"), their sum over a program's
    levels ("all-assignments" if any is general), a circuit's input-free
    gates ("gate-unitarity"; oracles are unitary by construction), or the
    1 + 6L gates of a compiled circuit, read back by ``convert.read_compiled``
    and compared with its program ("compiled-blocks", from
    ``convert.roundtrip_check``; its ``max_deviation`` is the worst
    amplitude gap, and 0 checked means the layout was refused).
    """

    passed: bool
    max_deviation: float
    assignments_checked: int
    convention: str = "all-assignments"
    errors: tuple[str, ...] = ()


def _check_tol(tol: float) -> None:
    if not tol > 0:  # refuses NaN, which fails every comparison
        raise ValueError("tol must be positive")


def unitarity_deviation(m: np.ndarray) -> float:
    """Max-entry norm of m†m - I."""
    eye = np.eye(m.shape[0])
    return float(np.abs(m.conj().T @ m - eye).max())


def validate_restricted(level: RestrictedLevel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check a restricted level: base unitarity within ``tol``.

    The input-conditioned operator is ``base @ diag(exp(1j*thetas*bits))``;
    the diagonal factor is unitary for any bits, so base unitarity is
    sufficient for every input.
    """
    _check_tol(tol)
    dev = unitarity_deviation(level.base)
    errors = () if dev <= tol else (f"base deviates from unitary by {dev:.3e} (tol {tol:.1e})",)
    return ValidationReport(passed=dev <= tol, max_deviation=dev, assignments_checked=1,
                            convention="base-unitarity", errors=errors)


def validate_general(level: GeneralLevel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check a general level: the assembled transition matrix must be unitary
    for every assignment of bits to the level's distinct labels.

    Every entry of an assembled matrix's Gram matrix is an entry of
    ``a0^H a0``, ``a1^H a1``, or ``a0^H a1`` (or its conjugate transpose) at
    nodes with different labels, and each occurs under some assignment; so
    these three blocks cover all 2**d assignments of the ``d`` distinct
    labels exactly, with the same ``max_deviation``.
    """
    _check_tol(tol)
    labels, a0, a1 = level.labels, level.a0, level.a1
    eye = np.eye(level.width)
    cross = labels[:, np.newaxis] != labels[np.newaxis, :]
    blocks = (("a0", "deviate from orthonormal", np.abs(a0.conj().T @ a0 - eye)),
              ("a1", "deviate from orthonormal", np.abs(a1.conj().T @ a1 - eye)),
              ("a0/a1", "overlap", np.where(cross, np.abs(a0.conj().T @ a1), 0.0)))
    worst = 0.0
    errors = []
    for name, verb, dev in blocks:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        worst = max(worst, float(dev[i, j]))
        if dev[i, j] > tol:
            errors.append(f"{name} columns of nodes {i}, {j} (labels {labels[i]}, "
                          f"{labels[j]}) {verb} by {dev[i, j]:.3e}")
    return ValidationReport(passed=not errors, max_deviation=worst, errors=tuple(errors),
                            assignments_checked=2 ** np.unique(labels).size)


def validate_program(program: Program, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Aggregate numeric validation: initial norm and every level's report."""
    _check_tol(tol)
    norm_dev = abs(float(np.linalg.norm(program.initial)) - 1.0)
    errors = [f"initial vector norm deviates from 1 by {norm_dev:.3e}"] if norm_dev > tol else []
    check = validate_general if program.kind == "general" else validate_restricted
    reports = [check(lv, tol) for lv in program.levels]
    errors += [f"level {i}: {e}" for i, rep in enumerate(reports) for e in rep.errors]
    return ValidationReport(passed=not errors,
                            max_deviation=max([norm_dev] + [r.max_deviation for r in reports]),
                            assignments_checked=sum(r.assignments_checked for r in reports),
                            convention="all-assignments" if program.kind == "general"
                            else "base-unitarity", errors=tuple(errors))


def restrict(program: Program) -> Program:
    """Convert a general program to restricted form.

    Each node's angle and residual come from ``_phase_relation``, the rule
    the evolution kernel also uses.  Nodes whose columns are not
    phase-related within ``DEFAULT_TOL`` raise, identifying level and node.
    """
    if program.kind == "restricted":
        return program
    new_levels = []
    for i, lv in enumerate(program.levels):
        thetas, _, residual = _phase_relation(lv.a0, lv.a1)
        bad = np.flatnonzero(residual > DEFAULT_TOL)
        if bad.size:
            j = int(bad[0])
            if not lv.a0[:, j].any():
                raise ValueError(
                    f"level {i} node {j}: zero 0-transition but nonzero 1-transition")
            raise ValueError(
                f"level {i} node {j}: transitions are not phase-related within {DEFAULT_TOL:.1e}")
        new_levels.append(RestrictedLevel(labels=lv.labels, base=lv.a0, thetas=thetas))
    return replace(program, levels=tuple(new_levels))


def generalize(program: Program) -> Program:
    """Expand a restricted program into explicit 0/1 transition matrices."""
    if program.kind == "general":
        return program
    new_levels = []
    for lv in program.levels:
        a1 = _freeze(lv.base * np.exp(1j * lv.thetas)[np.newaxis, :])
        new_levels.append(GeneralLevel(labels=lv.labels, a0=lv.base, a1=a1))
    return replace(program, levels=tuple(new_levels))
