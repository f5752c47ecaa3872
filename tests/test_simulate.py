from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqbp import (
    Program,
    RestrictedLevel,
    acceptance_probabilities,
    acceptance_probability,
    decide,
    evolve,
    final_state,
    final_states,
    generalize,
    pad_width,
    parity_program,
    random_rgqbp,
    sample_measurement,
    split_layers,
)
from gqbp.simulate import all_inputs, transition_matrix

from helpers import seeded_program


def test_transition_matrix_zero_thetas_returns_base():
    level = parity_program(2).levels[-1]
    flat = RestrictedLevel(labels=level.labels, base=level.base, thetas=np.zeros(2))
    for x in ("00", "01", "10", "11"):
        assert np.array_equal(transition_matrix(flat, x), flat.base)


def test_transition_matrix_scalar_pi():
    level = RestrictedLevel(labels=np.array([0]), base=np.eye(1), thetas=np.array([np.pi]))
    m = transition_matrix(level, "1")
    assert m[0, 0] == pytest.approx(-1.0)


def test_transition_matrix_parity_level_negates_queried_column():
    level = parity_program(2).levels[-1]
    m0 = transition_matrix(level, "00")
    m1 = transition_matrix(level, "10")
    assert np.allclose(m1[:, 0], -m0[:, 0])
    assert np.allclose(m1[:, 1], m0[:, 1])


def test_transition_matrix_refuses_short_input():
    for level in (parity_program(4).levels[1], generalize(parity_program(4)).levels[1]):
        with pytest.raises(ValueError, match="length mismatch"):
            transition_matrix(level, "01")
        with pytest.raises(ValueError, match="length mismatch"):
            transition_matrix(level, "011")
        assert transition_matrix(level, "0111").shape == (2, 2)


def test_run_zero_length_program():
    prog = Program(n=1, initial=np.array([1.0 + 0j]), levels=())
    states = evolve(prog, "0", record=True)
    assert states.shape == (1, 1, 1)
    assert np.array_equal(states[-1, 0], prog.initial)
    assert np.array_equal(final_state(prog, "0"), prog.initial)


def test_run_parity2_hand_values():
    prog = parity_program(2)
    # (-1)^{x0} (1,1)/2 + (-1)^{x1} (1,-1)/2
    assert np.allclose(final_state(prog, "10"), [0, -1], atol=1e-12)
    assert np.allclose(final_state(prog, "11"), [-1, 0], atol=1e-12)


def test_acceptance_all_nodes_is_one():
    prog = replace(seeded_program(3), accept=frozenset(range(seeded_program(3).width)))
    for x in all_inputs(prog.n)[:4]:
        assert acceptance_probability(prog, x) == pytest.approx(1.0)


def test_acceptance_empty_set_is_zero():
    prog = replace(seeded_program(4), accept=frozenset())
    assert acceptance_probability(prog, np.zeros(prog.n, dtype=np.uint8)) == 0.0


def test_acceptance_parity4_specific_and_exhaustive():
    prog = parity_program(4)
    assert acceptance_probability(prog, "0101") == pytest.approx(0.0, abs=1e-12)
    xs = all_inputs(4)
    probs = acceptance_probabilities(prog, xs)
    assert np.abs(probs - xs.sum(axis=1) % 2).max() < 1e-12


def test_run_rejects_wrong_length():
    with pytest.raises(ValueError, match="length mismatch"):
        evolve(parity_program(4), "01", record=True)


def test_decide_thresholds():
    prog = parity_program(2)
    assert decide(prog, "10") == "accept"   # probability 1
    assert decide(prog, "11") == "reject"   # probability 0
    with pytest.raises(ValueError):
        decide(prog, "10", threshold=0.5)


def test_decide_inconclusive_band():
    # single balanced mixing level: acceptance 1/2 on the all-zero input
    level = RestrictedLevel(labels=np.array([0, 1]),
                            base=np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
                            thetas=np.zeros(2))
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,),
                   accept=frozenset({0}))
    assert acceptance_probability(prog, "00") == pytest.approx(0.5)
    assert decide(prog, "00") == "inconclusive"


def test_sample_measurement_deterministic_state():
    prog = Program(n=1, initial=np.array([0, 1], dtype=complex), levels=(),
                   accept=frozenset({1}))
    for seed in (0, 1, 123):
        assert sample_measurement(prog, "0", seed=seed) == 1


def test_sample_measurement_frequencies():
    prog = Program(n=1, initial=np.array([1, 1], dtype=complex) / np.sqrt(2), levels=())
    shots = sample_measurement(prog, "0", seed=42, shots=100_000)
    freq = np.mean(shots == 0)
    assert freq == pytest.approx(0.5, abs=0.01)


def test_sample_measurement_reproducible():
    prog = replace(parity_program(2),
                   initial=np.array([1, 1], dtype=complex) / np.sqrt(2))
    a = sample_measurement(prog, "01", seed=7, shots=32)
    b = sample_measurement(prog, "01", seed=7, shots=32)
    assert np.array_equal(a, b)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_along_trace(seed):
    prog = seeded_program(seed, smax=6, lmax=6, nmax=6)
    x = np.random.default_rng(seed).integers(0, 2, prog.n).astype(np.uint8)
    states = evolve(prog, x, record=True)
    assert states.shape == (prog.length + 1, 1, prog.width)
    for state in states[:, 0]:
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-6


@given(seed=st.integers(0, 2**31 - 1), phi=st.floats(0, 2 * np.pi))
@settings(max_examples=20, deadline=None)
def test_global_phase_invariance(seed, phi):
    prog = seeded_program(seed, smax=5, lmax=4, nmax=5)
    shifted = replace(prog, initial=prog.initial * np.exp(1j * phi))
    x = np.random.default_rng(seed).integers(0, 2, prog.n).astype(np.uint8)
    assert acceptance_probability(prog, x) == pytest.approx(
        acceptance_probability(shifted, x), abs=1e-12)


def test_batch_matches_single_runs():
    prog = seeded_program(21, smax=6, lmax=5, nmax=6)
    xs = all_inputs(prog.n)
    batch = final_states(prog, xs)
    for i in (0, 1, len(xs) // 2, len(xs) - 1):
        assert np.abs(batch[i] - final_state(prog, xs[i])).max() <= 1e-12


def test_all_inputs_enumeration():
    xs = all_inputs(3)
    assert xs.shape == (8, 3)
    assert xs[5].tolist() == [1, 0, 1]  # row index is the bitstring value


def test_all_inputs_bounds():
    with pytest.raises(ValueError):
        all_inputs(0)
    with pytest.raises(ValueError, match="refusing"):
        all_inputs(30)


def test_final_states_rejects_wrong_row_width():
    with pytest.raises(ValueError, match="bits"):
        final_states(parity_program(4), np.zeros((3, 2), dtype=np.uint8))


def test_sample_measurement_zero_norm_state():
    prog = Program(n=1, initial=np.zeros(2, dtype=complex), levels=())
    with pytest.raises(ValueError, match="zero norm"):
        sample_measurement(prog, "0", seed=0)


def _reference_states(prog, x):
    """States before and after each level, by explicit transition matrices."""
    states = [prog.initial]
    for level in prog.levels:
        states.append(transition_matrix(level, x) @ states[-1])
    return np.array(states)


def _forms(prog):
    return {"plain": prog, "split": split_layers(prog),
            "padded": pad_width(prog, prog.width + 2), "general": generalize(prog)}


@pytest.mark.parametrize("seed", [3, 17, 40])
@pytest.mark.parametrize("form", ["plain", "split", "padded", "general"])
def test_evolve_matches_transition_matrix_product(seed, form):
    prog = _forms(seeded_program(seed, smax=6, lmax=6, nmax=6))[form]
    xs = all_inputs(prog.n)
    want = np.array([_reference_states(prog, x)[-1] for x in xs])
    assert np.abs(evolve(prog, xs) - want).max() <= 1e-12
    for i in (0, len(xs) - 1):
        assert np.abs(evolve(prog, xs[i:i + 1])[0] - want[i]).max() <= 1e-12


@pytest.mark.parametrize("form", ["plain", "split", "general"])
def test_evolve_prefix_then_suffix_equals_full(form):
    prog = _forms(seeded_program(23, smax=6, lmax=8, nmax=6))[form]
    xs = all_inputs(prog.n)
    full = evolve(prog, xs)
    for cut in range(prog.length + 1):
        prefix = evolve(prog, xs, levels=slice(0, cut))
        suffix = evolve(prog, xs, start=prefix, levels=slice(cut, None))
        assert np.abs(suffix - full).max() <= 1e-12


def test_evolve_record_returns_every_state():
    prog = random_rgqbp(4, 7, 5, seed=29)
    xs = all_inputs(prog.n)
    states = evolve(prog, xs, record=True)
    assert states.shape == (prog.length + 1, len(xs), prog.width)
    assert np.array_equal(states[0], np.broadcast_to(prog.initial, states[0].shape))
    assert np.abs(states[-1] - evolve(prog, xs)).max() <= 1e-12
    x = xs[len(xs) // 2]
    assert np.abs(states[:, len(xs) // 2] - _reference_states(prog, x)).max() <= 1e-12
    assert evolve(prog, xs, levels=slice(2, 5), record=True).shape[0] == 4


def test_evolve_start_vector_and_empty_slice():
    prog = seeded_program(31, smax=5, lmax=4, nmax=4)
    xs = all_inputs(prog.n)
    start = np.zeros(prog.width, dtype=complex)
    start[-1] = 1.0
    shifted = replace(prog, initial=start)
    assert np.abs(evolve(prog, xs, start=start) - evolve(shifted, xs)).max() <= 1e-12
    untouched = evolve(prog, xs, levels=slice(0, 0))
    assert np.array_equal(untouched, np.broadcast_to(prog.initial, untouched.shape))
    untouched[0, 0] = 5.0  # the result is a fresh array
    assert prog.initial[0] != 5.0


def test_evolve_rejects_bad_shapes_and_values():
    prog = parity_program(4)
    with pytest.raises(ValueError, match="bits"):
        evolve(prog, np.zeros((2, 3), dtype=np.uint8))
    for bad in (np.full((1, 4), 2, dtype=np.uint8), [[0, 0.5, 1, 0]], [[0, -1, 0, 0]]):
        with pytest.raises(ValueError, match="0/1"):
            evolve(prog, bad)
    with pytest.raises(ValueError, match="start"):
        evolve(prog, np.zeros((2, 4), dtype=np.uint8), start=np.zeros(3))


def test_evolve_reads_bits_of_any_dtype_alike():
    prog = parity_program(4)
    ref = evolve(prog, np.array([[0, 1, 1, 0]], dtype=np.uint8))
    for same in ([[0, 1, 1, 0]], [[0.0, 1.0, 1.0, 0.0]], np.array([[0, 1, 1, 0]]) == 1):
        assert np.array_equal(evolve(prog, same), ref)


def _skippable_program():
    """Levels with identity bases, zero phases, both, and neither."""
    rng = np.random.default_rng(5)
    s, n = 4, 5

    def unitary():
        return np.linalg.qr(rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)))[0]

    bases = [np.eye(s), unitary(), np.eye(s), unitary()]
    thetas = [rng.uniform(0, 2 * np.pi, s), np.zeros(s), np.zeros(s),
              rng.uniform(0, 2 * np.pi, s)]
    levels = tuple(RestrictedLevel(labels=rng.integers(0, n, s), base=b, thetas=t)
                   for b, t in zip(bases, thetas))
    initial = rng.normal(size=s) + 1j * rng.normal(size=s)
    return Program(n=n, initial=initial / np.linalg.norm(initial), levels=levels,
                   accept=frozenset({0, 1}))


def test_identity_and_zero_phase_levels_match_general_form():
    prog = _skippable_program()
    xs = all_inputs(prog.n)
    want = evolve(generalize(prog), xs, record=True)
    assert np.abs(evolve(prog, xs, record=True) - want).max() <= 1e-12
    assert np.abs(acceptance_probabilities(prog, xs)
                  - acceptance_probabilities(generalize(prog), xs)).max() <= 1e-12


def test_kernel_steps_skip_and_share_matrices():
    from gqbp.simulate import _steps

    prog = _skippable_program()
    steps = _steps(prog)
    assert steps is _steps(prog)  # built once per program
    assert [phases is None for _, phases, _ in steps] == [False, True, True, False]
    assert [mix is None for _, _, mix in steps] == [True, False, True, False]
    for level, (_, _, mix) in zip(prog.levels, steps):
        if mix is not None:
            assert np.shares_memory(mix, level.base)
    general = generalize(prog)
    for level, (_, a0, a1) in zip(general.levels, _steps(general)):
        assert np.shares_memory(a0, level.a0) and np.shares_memory(a1, level.a1)
