import numpy as np
import pytest

from gqbp import (
    Program,
    RestrictedLevel,
    final_state,
    generalize,
    pad_width,
    parity_program,
    split_layers,
)
from gqbp.simulate import all_inputs

from helpers import seeded_program


def test_split_width1_phase_program():
    phi = 0.813
    level = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.array([phi]))
    prog = Program(n=1, initial=np.array([1.0 + 0j]), levels=(level,))
    split = split_layers(prog)
    assert split.length == 2
    assert np.array_equal(split.levels[0].base, np.eye(1))
    assert split.levels[0].thetas[0] == pytest.approx(phi)
    assert split.levels[1].thetas[0] == 0.0
    assert final_state(split, "1")[0] == pytest.approx(np.exp(1j * phi))


def test_split_zero_thetas_gives_identity_query_levels():
    level = RestrictedLevel(labels=np.array([0, 1]),
                            base=np.array([[0, 1], [1, 0]], dtype=complex),
                            thetas=np.zeros(2))
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,))
    split = split_layers(prog)
    for x in all_inputs(2):
        from gqbp.simulate import transition_matrix
        assert np.array_equal(transition_matrix(split.levels[0], x), np.eye(2))


def test_split_structure_and_marker():
    prog = seeded_program(5)
    split = split_layers(prog)
    assert split.length == 2 * prog.length
    assert split.query_levels.tolist() == list(range(0, split.length, 2))
    for i, level in enumerate(split.levels):
        if i % 2 == 0:
            assert np.array_equal(level.base, np.eye(split.width))
        else:
            assert np.all(level.thetas == 0.0)


def test_split_requires_restricted():
    with pytest.raises(ValueError, match="restricted"):
        split_layers(generalize(seeded_program(2)))


def test_pad_width_identity_at_target_s():
    prog = seeded_program(7)
    assert pad_width(prog, prog.width) is prog


def test_pad_width_keeps_initial_norm():
    prog = parity_program(2)
    assert np.linalg.norm(pad_width(prog, 5).initial) == pytest.approx(1.0)


def test_pad_width_rejects_shrinking():
    with pytest.raises(ValueError, match="below current width"):
        pad_width(parity_program(2), 1)

