"""Every semantics-preserving rewrite against one invariant table: a row
names a rewrite, what it takes and the structural facts it must keep, and
``check_row`` also asserts the result's validity and returns the deviation
``rewrite_gap`` measures, and on program rewrites the drift gap, which must
stay within ``ACCEPT_TOL``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqbp import (
    BitOracle,
    GeneralLevel,
    PhaseOracle,
    Program,
    QueryCircuit,
    RestrictedLevel,
    Unitary,
    circuit_to_rgqbp,
    count_queries,
    generalize,
    grover_promise_or,
    hybrid_deviation,
    hybrid_run,
    pad_width,
    parity_program,
    promise_or_expectation,
    restrict,
    rgqbp_to_circuit,
    roundtrip_check,
    split_layers,
)
from gqbp.circuit import index_register_width
from gqbp.core import DEFAULT_TOL, Plan
from gqbp.formats import parse_circuit, parse_program, serialize_circuit, serialize_program

from helpers import (
    ACCEPT_TOL,
    HADAMARD,
    deutsch_circuit,
    input_independent_program,
    reference_serialize_circuit,
    reference_serialize_program,
    rewrite_gap,
    seeded_program,
    width1_flip_program,
)


def _wires(p: Program) -> int:
    """Wires of ``rgqbp_to_circuit(p)``: node, position and value registers."""
    return index_register_width(p.width) + index_register_width(p.n) + 1


def _kept(p: Program, r: Program, kind=object) -> bool:
    """``r`` keeps ``p``'s length and query levels and has only ``kind`` levels."""
    return r.length == p.length and np.array_equal(r.query_levels, p.query_levels) and all(
        isinstance(lv, kind) for lv in r.levels)


def _read_back(p: Program, r: Program) -> bool:
    """``r`` has the width 2^a (``a`` node wires) and length of ``p``'s
    compiled circuit read back, and ``pad_width(p, 2^a)``'s labels and
    accept set."""
    padded = pad_width(p, 2 ** index_register_width(p.width))
    return (r.width, r.length, r.accept) == (padded.width, p.length, p.accept) and all(
        np.array_equal(got.labels, lv.labels) for got, lv in zip(r.levels, padded.levels))


def _two_matmuls(p: Program) -> list[bool]:
    """Which of ``p``'s kernel steps are the general step's two matmuls."""
    return [mix1 is not None for _, mix1 in p.plan.steps]


def _on_two_matmuls(p: Program) -> Program:
    """A copy of ``p`` whose kernel applies every level with the general
    step's two matmuls, phase-related or not: a two-matmul ``Plan`` in place
    of the one ``Program.plan`` builds."""
    slow = replace(p)
    slow.__dict__["plan"] = Plan(
        steps=tuple((lv.a0, lv.a1) for lv in p.levels),
        labels=np.array([lv.labels for lv in p.levels], dtype=np.intp).reshape(-1, p.width),
        factors=np.ones((p.length, p.width), dtype=complex), before=np.arange(p.length + 1),
        reads=(True,) * p.length)
    return slow


# row: (what it takes, rewrite, structural facts of (before, after))
ROWS = {
    "split": ("restricted", split_layers,
              lambda p, r: r.length == 2 * p.length
              and np.array_equal(r.query_levels, 2 * p.query_levels)),
    "pad": ("program", lambda p: pad_width(p, p.width + 3),
            lambda p, r: r.width == p.width + 3 and _kept(p, r)),
    "generalize": ("restricted", generalize, lambda p, r: _kept(p, r, GeneralLevel)),
    "restrict(generalize)": ("program", lambda p: restrict(generalize(p)),
                             lambda p, r: _kept(p, r, RestrictedLevel)),
    # the certificate reads the compiled blocks back; rewrite_gap cross-checks it
    "rgqbp_to_circuit": ("restricted", rgqbp_to_circuit,
                         lambda p, c: count_queries(c) == 2 * p.length and c.q == _wires(p)
                         and roundtrip_check(p, c).passed),
    # a compiled circuit is read back block by block, any other fused
    "circuit_to_rgqbp(rgqbp_to_circuit)": (
        "restricted", lambda p: circuit_to_rgqbp(rgqbp_to_circuit(p)), _read_back),
    "circuit_to_rgqbp": ("circuit", circuit_to_rgqbp,
                         lambda c, r: _read_back(COMPILED[c], r) if c in COMPILED
                         else r.width == c.dim and r.length == count_queries(c)),
    # not a rewrite of the program: the restricted step a generalized level
    # takes, against the two-matmul step it replaces
    "two-matmul step": ("general", _on_two_matmuls,
                        lambda p, r: not any(_two_matmuls(p)) and all(_two_matmuls(r))),
    # the writers' bytes are also those of the reference writer
    "gqbp-v1": ("program", lambda p: parse_program(serialize_program(p)),
                lambda p, r: serialize_program(r) == serialize_program(p)
                == reference_serialize_program(p)),
    "qqc": ("circuit", lambda c: parse_circuit(serialize_circuit(c)),
            lambda c, r: serialize_circuit(r) == serialize_circuit(c)
            == reference_serialize_circuit(c)),
}


# program rows whose drift accounting must match the source's, and whether
# hybrid_run states can be compared (pad changes the width)
DRIFT_ROWS = {"split": True, "pad": False, "generalize": True,
              "restrict(generalize)": True, "gqbp-v1": True}


def _drift_gap(p: Program, r: Program, states: bool) -> float:
    """Worst gap between ``p`` and ``r`` in ``hybrid_deviation`` (final
    distance, per-level deviations, bound) on two input pairs, in
    ``promise_or_expectation().empirical`` and, with ``states``, in every
    ``hybrid_run``."""
    assert r.query_depth == p.query_depth
    x, y = np.random.default_rng(0).integers(0, 2, size=(2, p.n))
    gaps = [abs(promise_or_expectation(r).empirical - promise_or_expectation(p).empirical)]
    for a, b in ((np.zeros(p.n, dtype=int), np.ones(p.n, dtype=int)), (x, y)):
        before, after = hybrid_deviation(p, a, b), hybrid_deviation(r, a, b)
        gaps += [abs(after.final_distance - before.final_distance),
                 abs(after.bound - before.bound),
                 np.abs(np.subtract(after.deviations, before.deviations)).max(initial=0.0)]
        if states:
            gaps += [np.abs(hybrid_run(r, a, b, k) - hybrid_run(p, a, b, k)).max()
                     for k in range(p.query_depth + 1)]
    return float(max(gaps))


def check_row(row: str, artifact, inputs=None) -> float:
    """Apply ``row`` to ``artifact``, assert its facts and the result's
    validity, and return the deviation ``rewrite_gap`` measures, with the
    drift gap on the ``DRIFT_ROWS``."""
    _, rewrite, facts = ROWS[row]
    after = rewrite(artifact)
    assert facts(artifact, after), row
    gap = rewrite_gap(artifact, after, inputs)
    if row in DRIFT_ROWS:
        gap = max(gap, _drift_gap(artifact, after, DRIFT_ROWS[row]))
    return gap


def _unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _circuit(seed: int, n: int, *oracles) -> QueryCircuit:
    """Fresh random unitaries on 3 wires around each of ``oracles``."""
    rng = np.random.default_rng(seed)
    gates = [Unitary(_unitary(rng, 8))]
    for oracle in oracles:
        gates += [oracle, Unitary(_unitary(rng, 8))]
    return QueryCircuit(q=3, n=n, gates=tuple(gates), accept=frozenset({1, 6}))


def _random_circuit(seed: int) -> QueryCircuit:
    """Three oracles, each a phase oracle or a bit oracle on shuffled wires."""
    rng = np.random.default_rng(seed)
    wires = [[int(w) for w in rng.permutation(3)] for _ in range(3)]
    return _circuit(seed, int(rng.integers(2, 7)), *(
        BitOracle(index_wires=(a, b), target_wire=t) if rng.integers(2) else PhaseOracle()
        for a, b, t in wires))


def _near_tol_program(theta: float, base: np.ndarray) -> Program:
    """Two levels of ``base`` on 4 nodes with angle ``theta`` on node 0 only."""
    level = RestrictedLevel(labels=np.array([0, 1, 0, 1]), base=base,
                            thetas=np.array([theta, 0.0, 0.0, 0.0]))
    return Program(n=2, initial=np.eye(4)[0], levels=(level, level), accept=frozenset({0}))


# programs whose angles sit near the query threshold DEFAULT_TOL, with their
# query depth: every form must read the same levels, and a gap equal to the
# tolerance does not read
HH = np.kron(HADAMARD, HADAMARD)
NEAR_TOL = {
    "H(x)H angle 1.5e-9": (_near_tol_program(1.5e-9, HH), 2),
    "angle just above tol": (_near_tol_program((1 + 1e-3) * DEFAULT_TOL, HH), 2),
    "angle just below tol": (_near_tol_program((1 - 1e-3) * DEFAULT_TOL, HH), 0),
    # |exp(1j*tol) - 1| rounds to tol, and the identity's columns have norm 1
    "gap equal to tol": (_near_tol_program(DEFAULT_TOL, np.eye(4)), 0),
}


PROGRAMS = {
    **{f"parity n={n}": parity_program(n) for n in (2, 4, 6, 8)},
    "width-1": width1_flip_program(),
    "zero-length": Program(n=2, initial=np.array([0, 1], dtype=complex), levels=(),
                           accept=frozenset({1})),
    "input-independent": input_independent_program(),
    "compiled promise-OR n=4": circuit_to_rgqbp(grover_promise_or(4)),
    **{f"near tol: {name}": prog for name, (prog, _) in NEAR_TOL.items()},
}
FORMS = {
    "plain": lambda p: p,
    "split": split_layers,
    "general": generalize,
    "general split": lambda p: generalize(split_layers(p)),
}
SOURCES = {"parity n=4": parity_program(4), "split random": split_layers(seeded_program(8))}
CIRCUITS = {
    "deutsch": deutsch_circuit(),
    **{f"grover n={n}": grover_promise_or(n) for n in (4, 8, 16)},
    "dense random unitaries": _circuit(17, 6, PhaseOracle(), PhaseOracle(), PhaseOracle()),
    **{f"dense random oracles seed={seed}": _random_circuit(seed) for seed in range(3)},
    "bit oracle mid-sequence": _circuit(23, 4, BitOracle(index_wires=(0, 1), target_wire=2),
                                        PhaseOracle()),
    "shuffled bit-oracle wires": _circuit(31, 4, BitOracle(index_wires=(2, 0), target_wire=1)),
    "adjacent oracles": QueryCircuit(q=1, n=2, gates=(PhaseOracle(), PhaseOracle()),
                                     accept=frozenset({0})),
    "queryless": QueryCircuit(q=2, n=2, gates=(Unitary(np.kron(HADAMARD, HADAMARD)),),
                              accept=frozenset({0})),
    **{f"qqc-v2 compiled {name}": rgqbp_to_circuit(p) for name, p in SOURCES.items()},
}
# each compiled circuit and the program it was compiled from
COMPILED = {CIRCUITS[f"qqc-v2 compiled {name}"]: p for name, p in SOURCES.items()}
# the program forms each row takes
TAKES = {"restricted": ("plain", "split"), "general": ("general", "general split"),
         "program": tuple(FORMS), "circuit": ()}
FIXED = [pytest.param(row, FORMS[form](prog), id=f"{row}-{form} {name}")
         for row, (kind, _, _) in ROWS.items()
         for name, prog in PROGRAMS.items() for form in TAKES[kind]]
FIXED += [pytest.param(row, c, id=f"{row}-{name}") for row, (kind, _, _) in ROWS.items()
          if kind == "circuit" for name, c in CIRCUITS.items()]


@pytest.mark.parametrize("row,artifact", FIXED)
def test_row_holds_on_fixed_case(row, artifact):
    assert check_row(row, artifact) <= ACCEPT_TOL


@pytest.mark.parametrize("row", [row for row, (kind, _, _) in ROWS.items() if TAKES[kind]])
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_row_holds_on_seeded_programs(row, seed, data):
    # seeded random_rgqbp shapes, s, L, n <= 8, in each form the row takes
    form = data.draw(st.sampled_from(TAKES[ROWS[row][0]]), label="form")
    assert check_row(row, FORMS[form](seeded_program(seed))) <= ACCEPT_TOL


def _drift_rule(p: Program) -> np.ndarray:
    """The levels with a node whose two transition columns differ by more
    than ``DEFAULT_TOL`` in norm, tested on every level."""
    gaps = [np.abs(np.exp(1j * lv.thetas) - 1) * np.linalg.norm(lv.base, axis=0)
            if isinstance(lv, RestrictedLevel) else np.linalg.norm(lv.a1 - lv.a0, axis=0)
            for lv in p.levels]
    return np.flatnonzero([gap.max() > DEFAULT_TOL for gap in gaps])


def test_every_query_level_is_a_level_the_kernel_reads():
    # query_levels tests the drift rule only on the levels the kernel reads
    sources = [*PROGRAMS.values(), *(seeded_program(seed) for seed in range(40))]
    for p in (FORMS[form](source) for source in sources for form in FORMS):
        reads = np.flatnonzero(np.diff(p.plan.before))
        assert np.array_equal(p.query_levels, _drift_rule(p))
        assert np.isin(p.query_levels, reads).all()
    # an angle of 1e-12 changes the kernel's arithmetic but is no query
    tiny = _near_tol_program(1e-12, HH)
    assert np.diff(tiny.plan.before).tolist() == [1, 1] and tiny.query_depth == 0


@pytest.mark.parametrize("name", NEAR_TOL)
def test_near_tolerance_query_depth(name):
    # the rows above check that every form keeps these query levels
    program, depth = NEAR_TOL[name]
    assert program.query_depth == depth
