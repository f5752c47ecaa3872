"""Every semantics-preserving rewrite against one invariant table: a row
names a rewrite, what it takes and the structural facts it must keep, and
``check_row`` also asserts the result's validity and returns the deviation
``rewrite_gap`` measures, and on program rewrites the drift gap, which must
stay within ``ACCEPT_TOL``."""

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
    split_layers,
)
from gqbp.circuit import index_register_width
from gqbp.formats import parse_circuit, parse_program, serialize_circuit, serialize_program

from helpers import (
    ACCEPT_TOL,
    HADAMARD,
    deutsch_circuit,
    input_independent_program,
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
    "rgqbp_to_circuit": ("restricted", rgqbp_to_circuit,
                         lambda p, c: count_queries(c) == 2 * p.length and c.q == _wires(p)),
    "circuit_to_rgqbp(rgqbp_to_circuit)": (
        "restricted", lambda p: circuit_to_rgqbp(rgqbp_to_circuit(p)),
        lambda p, r: r.width == 2 ** _wires(p) and r.length == 2 * p.length),
    "circuit_to_rgqbp": ("circuit", circuit_to_rgqbp,
                         lambda c, r: r.width == c.dim and r.length == count_queries(c)),
    "gqbp-v1": ("program", lambda p: parse_program(serialize_program(p)),
                lambda p, r: serialize_program(r) == serialize_program(p)),
    "qqc": ("circuit", lambda c: parse_circuit(serialize_circuit(c)),
            lambda c, r: serialize_circuit(r) == serialize_circuit(c)),
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


PROGRAMS = {
    **{f"parity n={n}": parity_program(n) for n in (2, 4, 6, 8)},
    "width-1": width1_flip_program(),
    "zero-length": Program(n=2, initial=np.array([0, 1], dtype=complex), levels=(),
                           accept=frozenset({1})),
    "input-independent": input_independent_program(),
    "compiled promise-OR n=4": circuit_to_rgqbp(grover_promise_or(4)),
}
FORMS = {
    "plain": lambda p: p,
    "split": split_layers,
    "general": generalize,
    "general split": lambda p: generalize(split_layers(p)),
}
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
    "qqc-v2 compiled parity n=4": rgqbp_to_circuit(parity_program(4)),
    "qqc-v2 compiled split random": rgqbp_to_circuit(split_layers(seeded_program(8))),
}
# the program forms each row takes
TAKES = {"restricted": ("plain", "split"), "program": tuple(FORMS), "circuit": ()}
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
