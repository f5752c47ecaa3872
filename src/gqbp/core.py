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

import numpy as np

DEFAULT_TOL = 1e-9

# Generators and compilers refuse to build more than this many bytes of
# arrays; the CLI reports the refusal as a usage error (exit 2).
ALLOC_LIMIT = 1 << 30


def check_alloc(nbytes: int, what: str) -> None:
    """Raise ValueError, before anything is allocated, when ``what`` would
    take more than ``ALLOC_LIMIT`` bytes."""
    if nbytes > ALLOC_LIMIT:
        raise ValueError(f"refusing to allocate {nbytes} bytes for {what} "
                         f"(limit {ALLOC_LIMIT} bytes)")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_bit_rows(inputs, n: int | None = None) -> np.ndarray:
    """The one input rule: turn inputs into a (B, n) uint8 array of bits.

    A ``'0101'`` string or a flat sequence of bits is one row; a (B, n)
    array, or an iterable of such inputs (strings allowed), is one row per
    item.  Values are checked before the cast, so 0.5 or 256 is refused
    rather than read as 0, and so is a non-numeric dtype.  Raises ValueError
    with "0/1" for a value that is not a bit and "length mismatch" for rows
    of unequal length or, when ``n`` is given, of a length other than ``n``.
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
        rows = rows[np.newaxis] if rows.size else rows.reshape(0, n or 0)
    if rows.ndim != 2 or (n is not None and rows.shape[1] != n):
        raise ValueError(f"input length mismatch: got shape {rows.shape}"
                         + (f", expected rows of {n} bits" if n else ""))
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


def as_bits(x, n: int | None = None) -> np.ndarray:
    """One input as a flat uint8 array: the one-row case of ``as_bit_rows``,
    with the same checks and errors."""
    return _one_row(as_bit_rows(x, n))


def accept_mass(machine, states: np.ndarray) -> np.ndarray:
    """Squared mass of each row of ``states`` on a program's or circuit's accept set."""
    return np.sum(np.abs(states[..., machine.accept_index]) ** 2, axis=-1)


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
        labels = np.asarray(self.labels, dtype=np.int64)
        a0 = np.asarray(self.a0, dtype=np.complex128)
        a1 = np.asarray(self.a1, dtype=np.complex128)
        if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError(f"a0 must be square, got shape {a0.shape}")
        if a1.shape != a0.shape:
            raise ValueError(f"a0/a1 shape mismatch: {a0.shape} vs {a1.shape}")
        _check_labels(labels, a0.shape[0])
        if not (np.isfinite(a0).all() and np.isfinite(a1).all()):
            raise ValueError("transition amplitudes must be finite")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "a0", _freeze(a0))
        object.__setattr__(self, "a1", _freeze(a1))

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
        labels = np.asarray(self.labels, dtype=np.int64)
        base = np.asarray(self.base, dtype=np.complex128)
        thetas = np.asarray(self.thetas, dtype=np.float64)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError(f"base must be square, got shape {base.shape}")
        s = base.shape[0]
        _check_labels(labels, s)
        if thetas.shape != (s,):
            raise ValueError(f"thetas must have one angle per node ({s}), got shape {thetas.shape}")
        if not (np.isfinite(base).all() and np.isfinite(thetas).all()):
            raise ValueError("base entries and phase angles must be finite")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "base", _freeze(base))
        object.__setattr__(self, "thetas", _freeze(thetas))

    @property
    def width(self) -> int:
        return self.base.shape[0]


Level = GeneralLevel | RestrictedLevel


def reads_input(level: Level) -> bool:
    """Whether ``level`` reads its input bit: whether some node's
    1-transition column differs from its 0-transition column by more than
    ``DEFAULT_TOL`` in norm.  That norm is ``||a1[:, j] - a0[:, j]||`` for a
    general level and ``|exp(1j*theta_j) - 1| * ||base[:, j]||`` for a
    restricted one, so a program and its ``generalize`` agree up to rounding.
    The tolerance absorbs gaps of a few ulps, which rounding in a rewrite or
    in another tool's document can leave on a level that reads nothing."""
    if isinstance(level, RestrictedLevel):
        gap = np.abs(np.exp(1j * level.thetas) - 1.0) * np.linalg.norm(level.base, axis=0)
    else:
        gap = np.linalg.norm(level.a1 - level.a0, axis=0)
    return bool(gap.max(initial=0.0) > DEFAULT_TOL)


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


def _step(level: Level) -> tuple:
    """One level as ``simulate.evolve`` applies it to row states:
    ``(labels, phases, mix, mix1)``.

    A restricted level, and a general level whose columns are phase-related
    within ``PHASE_TOL``, give the restricted step: ``phases`` (the factors
    for bit 1) is None when every angle is zero, ``mix`` is None when the
    base is exactly the identity, and ``mix1`` is None.  Any other general
    level gives ``(labels, None, a0.T, a1.T)``: ``a0`` for the nodes reading
    0 and ``a1`` for those reading 1.  The matrices are transposed views,
    not copies.
    """
    if isinstance(level, RestrictedLevel):
        base, thetas = level.base, level.thetas
        factors = np.exp(1j * thetas)
    else:
        thetas, factors, residual = _phase_relation(level.a0, level.a1)
        if residual.max() > PHASE_TOL:
            return level.labels, None, level.a0.T, level.a1.T
        base = level.a0
    # s nonzero entries, all of them a diagonal 1: exactly the identity
    identity = np.count_nonzero(base) == level.width and (base.diagonal() == 1).all()
    return level.labels, factors if thetas.any() else None, None if identity else base.T, None


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
        initial = np.asarray(self.initial, dtype=np.complex128)
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
        object.__setattr__(self, "initial", _freeze(initial))
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
    def query_levels(self) -> np.ndarray:
        """Indices of the levels that read their input bit (``reads_input``),
        in order; computed once per program."""
        reads = [i for i, lv in enumerate(self.levels) if reads_input(lv)]
        return _freeze(np.array(reads, dtype=np.intp))

    @cached_property
    def kernel_steps(self) -> tuple:
        """The levels as the evolution kernel applies them (``_step``), built
        once per program."""
        return tuple(map(_step, self.levels))

    @cached_property
    def kernel_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (R, s) labels and bit-1 factors (1 without phases) of the R kernel
        steps that read bits, and each step's row in them (-1: reads none)."""
        reads = np.array([p is not None or m1 is not None for _, p, _, m1 in self.kernel_steps],
                         dtype=bool)
        steps = [step for step, read in zip(self.kernel_steps, reads) if read]
        labels = np.array([step[0] for step in steps], dtype=np.intp).reshape(-1, self.width)
        factors = np.array([np.ones(self.width) if p is None else p for _, p, _, _ in steps],
                           dtype=np.complex128).reshape(labels.shape)
        return _freeze(labels), _freeze(factors), _freeze(np.where(reads, reads.cumsum() - 1, -1))

    @cached_property
    def query_labels(self) -> np.ndarray:
        """The query levels' labels as one (L, s) table."""
        return _freeze(np.array([self.levels[t].labels for t in self.query_levels],
                                dtype=np.intp).reshape(-1, self.width))

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
    levels ("all-assignments" if any is general), or a circuit's input-free
    gates ("gate-unitarity"; oracles are unitary by construction).
    """

    passed: bool
    max_deviation: float
    assignments_checked: int
    convention: str = "all-assignments"
    errors: tuple[str, ...] = ()


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
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    errors = []
    norm_dev = abs(float(np.linalg.norm(program.initial)) - 1.0)
    if norm_dev > tol:
        errors.append(f"initial vector norm deviates from 1 by {norm_dev:.3e}")
    worst = norm_dev
    checked = 0
    convention = "base-unitarity"
    for i, lv in enumerate(program.levels):
        if isinstance(lv, RestrictedLevel):
            rep = validate_restricted(lv, tol)
        else:
            rep = validate_general(lv, tol)
            convention = rep.convention
        worst = max(worst, rep.max_deviation)
        checked += rep.assignments_checked
        errors.extend(f"level {i}: {e}" for e in rep.errors)
    return ValidationReport(passed=not errors, max_deviation=worst,
                            assignments_checked=checked, convention=convention,
                            errors=tuple(errors))


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
        a1 = lv.base * np.exp(1j * lv.thetas)[np.newaxis, :]
        new_levels.append(GeneralLevel(labels=lv.labels, a0=lv.base, a1=a1))
    return replace(program, levels=tuple(new_levels))
