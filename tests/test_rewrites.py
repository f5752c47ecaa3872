"""Every semantics-preserving rewrite against one invariant table: a row
names a rewrite, what it takes and the structural facts it must keep, and
``check_row`` also asserts the result's validity and returns the deviation
``rewrite_gap`` measures, which must stay within ``ACCEPT_TOL``."""

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
    pad_width,
    parity_program,
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
    """``r`` keeps ``p``'s length and alternating claim and has only ``kind`` levels."""
    return (r.length, r.alternating) == (p.length, p.alternating) and all(
        isinstance(lv, kind) for lv in r.levels)


# row: (what it takes, rewrite, structural facts of (before, after))
ROWS = {
    "split": ("restricted", split_layers,
              lambda p, r: r.length == 2 * p.length and r.alternating),
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


def check_row(row: str, artifact, inputs=None) -> float:
    """Apply ``row`` to ``artifact``, assert its facts and the result's
    validity, and return the deviation ``rewrite_gap`` measures."""
    _, rewrite, facts = ROWS[row]
    after = rewrite(artifact)
    assert facts(artifact, after), row
    return rewrite_gap(artifact, after, inputs)


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
