import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqbp import (
    GeneralLevel,
    Program,
    RestrictedLevel,
    acceptance_probabilities,
    acceptance_probability,
    circuit_acceptances,
    decide,
    evolve,
    final_state,
    final_states,
    generalize,
    grover_promise_or,
    hybrid_run,
    pad_width,
    parity_program,
    random_rgqbp,
    rgqbp_to_circuit,
    split_layers,
)
from gqbp import circuit, core, simulate
from gqbp.core import accept_mass
from gqbp.simulate import all_inputs

from helpers import seeded_program, transition_matrix


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


@pytest.mark.parametrize("p, verdict", [
    (2 / 3, "accept"), (np.nextafter(2 / 3, 0), "inconclusive"),
    (1 - 2 / 3, "reject"), (np.nextafter(1 - 2 / 3, 1), "inconclusive")])
def test_decide_boundaries(monkeypatch, p, verdict):
    # bounded error is a fixed convention: accept at 2/3 and reject at 1 - 2/3,
    # both inclusive, to the last bit
    monkeypatch.setattr(simulate, "acceptance_probability", lambda program, x: float(p))
    assert decide(parity_program(2), "10") == verdict


def test_decide_inconclusive_band():
    # single balanced mixing level: acceptance 1/2 on the all-zero input
    level = RestrictedLevel(labels=np.array([0, 1]),
                            base=np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
                            thetas=np.zeros(2))
    prog = Program(n=2, initial=np.array([1, 0], dtype=complex), levels=(level,),
                   accept=frozenset({0}))
    assert acceptance_probability(prog, "00") == pytest.approx(0.5)
    assert decide(prog, "00") == "inconclusive"


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


@pytest.mark.parametrize("n", range(1, 13))
def test_all_inputs_rows_are_big_endian_expansions(n):
    rows = [[int(b) for b in format(i, f"0{n}b")] for i in range(1 << n)]
    table = all_inputs(n)
    assert table.dtype == np.uint8
    assert np.array_equal(table, rows)


def test_all_inputs_peak_is_at_most_twice_the_table():
    tracemalloc.start()
    try:
        table = all_inputs(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes


def test_final_states_rejects_wrong_row_width():
    with pytest.raises(ValueError, match="bits"):
        final_states(parity_program(4), np.zeros((3, 2), dtype=np.uint8))


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
    for stepped in (slice(None, None, 2), slice(None, None, -1)):
        with pytest.raises(ValueError, match="contiguous slice"):
            evolve(prog, np.zeros((2, 4), dtype=np.uint8), levels=stepped)


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


def _reference_batch(prog, xs):
    """The (L+1, B, s) stack of ``_reference_states`` over the rows of ``xs``."""
    return np.array([_reference_states(prog, x) for x in xs]).swapaxes(0, 1)


def test_identity_and_zero_phase_levels_match_general_form():
    # both forms against one transition-matrix reference: the general form
    # takes the same restricted step, so it is no reference for the plain one
    prog = _skippable_program()
    xs = all_inputs(prog.n)
    want = _reference_batch(prog, xs)
    for form in (prog, generalize(prog)):
        assert np.abs(evolve(form, xs, record=True) - want).max() <= 1e-12
        assert np.abs(acceptance_probabilities(form, xs)
                      - accept_mass(prog, want[-1])).max() <= 1e-12


def test_plan_steps_skip_and_share_matrices():
    prog = _skippable_program()
    assert prog.plan is prog.plan  # built once per program
    general = generalize(prog)
    # a generalized level is phase-related, so it takes the restricted step
    # with a0 as its base and the same skips
    for form, bases in ((prog, [lv.base for lv in prog.levels]),
                        (general, [lv.a0 for lv in general.levels])):
        plan = form.plan
        assert np.diff(plan.before).tolist() == [1, 0, 0, 1]  # zero angles read nothing
        assert [mix is None for mix, _ in plan.steps] == [True, False, True, False]
        assert all(mix1 is None for _, mix1 in plan.steps)
        for base, (mix, _) in zip(bases, plan.steps):
            if mix is not None:
                assert np.shares_memory(mix, base)


def test_only_the_exact_identity_skips_the_mix():
    eye = np.eye(3, dtype=complex)
    off, ulp, flip = eye.copy(), eye.copy(), eye.copy()
    off[0, 2] = 1e-300
    ulp[1, 1] = 1 + 2**-52
    flip[2, 2] = -1
    signed_zeros = np.where(eye == 0, -0.0, eye)  # still the identity
    for base in (eye[[1, 0, 2]], off, ulp, flip, signed_zeros):
        level = RestrictedLevel(labels=np.zeros(3, dtype=int), base=base, thetas=np.zeros(3))
        (mix, _), = Program(n=1, initial=eye[0], levels=(level,)).plan.steps
        assert (mix is None) == (base is signed_zeros) == np.array_equal(base, eye)


def _off_phase_program(case: str) -> Program:
    """``generalize`` of a seeded program whose middle level is replaced by a
    general level that is not phase-related within ``PHASE_TOL``."""
    prog = generalize(random_rgqbp(4, 3, 5, seed=41))
    mid = prog.levels[1]
    a0, a1 = mid.a0.copy(), mid.a1.copy()
    if case == "unrelated":
        rng = np.random.default_rng(7)  # not random_rgqbp's seed, so not its bases
        a1 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    elif case == "perturbed by 1e-13":
        a1[0, 2] += 1e-13
    else:  # a zero 0-transition column beside a nonzero 1-transition column
        a0[:, 1] = 0.0
    levels = (prog.levels[0], GeneralLevel(labels=mid.labels, a0=a0, a1=a1), prog.levels[2])
    return replace(prog, levels=levels)


@pytest.mark.parametrize("case", ["unrelated", "perturbed by 1e-13", "zero a0 column"])
def test_general_levels_off_the_phase_relation_take_two_matmuls(case):
    prog = _off_phase_program(case)
    plan = prog.plan
    assert [mix1 is not None for _, mix1 in plan.steps] == [False, True, False]
    mix, mix1 = plan.steps[1]
    assert plan.before[2] - plan.before[1] == 1  # it reads its bits, with factor 1
    assert np.array_equal(plan.factors[plan.before[1]], np.ones(4))
    assert np.shares_memory(mix, prog.levels[1].a0) and np.shares_memory(mix1, prog.levels[1].a1)
    xs = all_inputs(prog.n)
    assert np.abs(evolve(prog, xs, record=True) - _reference_batch(prog, xs)).max() <= 1e-12


@pytest.mark.parametrize("form", ["plain", "split", "general", "two-matmul"])
def test_evolve_buffers_are_the_callers_own(form):
    # hybrid_run hands its prefix states to evolve as ``start``
    prog = random_rgqbp(4, 3, 5, seed=41)
    prog = {"plain": prog, "split": split_layers(prog), "general": generalize(prog),
            "two-matmul": _off_phase_program("unrelated")}[form]
    xs = all_inputs(prog.n)
    start = evolve(prog, xs, levels=slice(0, 1))
    before = start.copy()
    finals = [evolve(prog, xs, start=start, levels=slice(1, None)) for _ in range(2)]
    stack = evolve(prog, xs, start=start, levels=slice(1, None), record=True)
    assert start.tobytes() == before.tobytes()
    assert finals[0].base is None  # owns its memory: no second buffer kept alive
    assert not np.shares_memory(finals[0], finals[1])
    assert not any(np.shares_memory(a, start) for a in (*finals, stack))
    assert stack[-1].tobytes() == finals[0].tobytes() == finals[1].tobytes()
    assert np.abs(stack - _reference_batch(prog, xs)[1:]).max() <= 1e-12


@pytest.mark.parametrize("form", ["split", "general"])
def test_evolve_matches_reference_on_a_wide_batch(form):
    # from B*s = 16384 on, the kernel's last bits depend on where its buffers sit
    prog = _forms(random_rgqbp(16, 3, 10, seed=13))[form]
    xs = all_inputs(prog.n)
    assert xs.shape[0] * prog.width >= 16384
    want = _reference_batch(prog, xs)
    assert np.abs(evolve(prog, xs, record=True) - want).max() <= 1e-12
    assert np.abs(evolve(prog, xs) - want[-1]).max() <= 1e-12


def _every_step_kind_program() -> Program:
    """A general program whose steps cycle through every kind the kernel
    has: phase and mix, phase only, mix only, identity, and the two-matmul
    general step."""
    rng = np.random.default_rng(11)
    s, n = 4, 6

    def unitary():
        return np.linalg.qr(rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)))[0]

    def phased(base, thetas):
        return GeneralLevel(labels=rng.integers(0, n, s), a0=base,
                            a1=base * np.exp(1j * thetas)[np.newaxis, :])

    angles, zeros = (lambda: rng.uniform(0, 2 * np.pi, s)), np.zeros(s)
    kinds = [lambda: phased(unitary(), angles()), lambda: phased(np.eye(s), angles()),
             lambda: phased(unitary(), zeros), lambda: phased(np.eye(s), zeros),
             lambda: GeneralLevel(labels=rng.integers(0, n, s), a0=unitary(), a1=unitary())]
    levels = tuple(kinds[i]() for i in (0, 1, 4, 2, 0, 3, 4, 1, 2, 0, 3, 4))
    initial = rng.normal(size=s) + 1j * rng.normal(size=s)
    return Program(n=n, initial=initial / np.linalg.norm(initial), levels=levels,
                   accept=frozenset({0, 3}))


def _level_by_level(prog, xs, start=None, levels=slice(None)):
    """The kernel's arithmetic one level at a time, each level gathering its
    own bits and phase factors: the states as (s, B) columns, written with
    ``out=`` as the kernel writes them, returned as the (k+1, B, s) stack."""
    plan = prog.plan
    picked = range(prog.length)[levels]
    states = np.empty((len(picked) + 1, prog.width, len(xs)), dtype=complex)
    states[0].T[...] = prog.initial if start is None else start
    for t, v, out in zip(picked, states, states[1:]):
        (mix, mix1), row = plan.steps[t], plan.before[t]
        bits = xs.T[plan.labels[row]] if plan.reads[t] else None  # (s, B)
        if mix1 is not None:
            ones = v * bits
            np.matmul(mix, v - ones, out=out)
            out += mix1 @ ones
        elif plan.reads[t]:
            factors = np.where(bits.view(bool), plan.factors[row, :, np.newaxis], 1)
            if mix is None:
                np.multiply(v, factors, out=out)
            else:
                np.matmul(mix, v * factors, out=out)
        elif mix is not None:
            np.matmul(mix, v, out=out)
        else:
            out[...] = v
    return states.transpose(0, 2, 1)


def _kernel_forms():
    prog = _every_step_kind_program()
    restricted = random_rgqbp(4, 7, 6, seed=19)
    return {"every step kind": prog, "plain": restricted, "split": split_layers(restricted),
            "general split": generalize(split_layers(restricted))}


def test_plan_tables_hold_only_the_levels_that_read_bits():
    prog = _every_step_kind_program()
    plan = prog.plan
    reads = [True, True, True, False, True, False, True, True, False, True, False, True]
    assert plan.reads == tuple(reads)
    assert plan.before.tolist() == [0, *np.cumsum(reads)]
    assert plan.labels.shape == plan.factors.shape == (sum(reads), 4)
    for t, (level, (_, mix1)) in enumerate(zip(prog.levels, plan.steps)):
        if reads[t]:
            row = plan.before[t]
            phases = np.ones(4) if mix1 is not None else core._phase_relation(level.a0, level.a1)[1]
            assert np.array_equal(plan.labels[row], level.labels)
            assert np.array_equal(plan.factors[row], phases)
    assert split_layers(random_rgqbp(4, 7, 6, seed=19)).plan.labels.shape == (7, 4)


# one level's factors fill the budget at s=4 from this many rows on
_FULL = core.LEVEL_BLOCK_BYTES // (16 * 4)


@pytest.mark.parametrize("form", list(_kernel_forms()))
@pytest.mark.parametrize("batch", [1, 2, _FULL // 2, _FULL // 2 + 1, _FULL - 1, _FULL, _FULL + 1])
def test_evolve_blocks_match_level_by_level_exactly(form, batch):
    prog = _kernel_forms()[form]
    xs = np.random.default_rng(batch).integers(0, 2, size=(batch, prog.n), dtype=np.uint8)
    want = _level_by_level(prog, xs)
    assert np.array_equal(evolve(prog, xs, record=True), want)
    assert np.array_equal(evolve(prog, xs), want[-1])


@pytest.mark.parametrize("form", list(_kernel_forms()))
def test_evolve_slices_across_blocks_match_level_by_level_exactly(form, monkeypatch):
    # blocks of three levels at B=2, so slices start and end inside a block
    monkeypatch.setattr(core, "LEVEL_BLOCK_BYTES", 3 * 16 * 2 * 4)
    prog = _kernel_forms()[form]
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 2, size=(2, prog.n), dtype=np.uint8)
    start = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    for lo in range(prog.length + 1):
        for hi in range(lo, prog.length + 1):
            part = slice(lo, hi)
            want = _level_by_level(prog, xs, start, part)
            assert np.array_equal(evolve(prog, xs, start=start, levels=part, record=True), want)
            assert np.array_equal(evolve(prog, xs, start=start, levels=part), want[-1])


@pytest.mark.parametrize("form", list(_kernel_forms()))
def test_every_hybrid_run_cut_matches_level_by_level_exactly(form):
    prog = _kernel_forms()[form]
    x, y = np.random.default_rng(8).integers(0, 2, size=(2, 1, prog.n), dtype=np.uint8)
    for k in range(prog.query_depth + 1):
        cut = prog.query_levels[prog.query_depth - k] if k else prog.length
        prefix = _level_by_level(prog, x, levels=slice(0, cut))[-1]
        want = _level_by_level(prog, y, prefix, slice(cut, None))[-1, 0]
        assert np.array_equal(hybrid_run(prog, x[0], y[0], k), want)


def test_evolve_record_is_refused_before_allocating(monkeypatch):
    # B=3 rows at s=2 through two reading levels: the (k+1, s, B) stack, one
    # (s, B) scratch, and one block of two levels' complex factors and bool
    # bits, 3 * 2 * (16 * (3 + 1 + 2) + 2) bytes
    prog, xs = parity_program(4), np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]], np.uint8)
    whole = final_states(prog, xs), acceptance_probabilities(prog, xs)
    monkeypatch.setattr(core, "ALLOC_LIMIT", 588)
    assert evolve(prog, xs, record=True).shape == (3, 3, 2)
    monkeypatch.setattr(core, "ALLOC_LIMIT", 587)
    with pytest.raises(ValueError, match="refusing to allocate 588 bytes for recorded states"):
        evolve(prog, xs, record=True)
    # two (s, B) buffers in place of the stack: 3 * 2 * (16 * (2 + 1 + 2) + 2) bytes
    assert evolve(prog, xs).shape == (3, 2)
    monkeypatch.setattr(core, "ALLOC_LIMIT", 492)
    assert evolve(prog, xs).shape == (3, 2)
    monkeypatch.setattr(core, "ALLOC_LIMIT", 491)
    with pytest.raises(ValueError, match="refusing to allocate 492 bytes for recorded "
                                         "states \\(or two state buffers\\)"):
        evolve(prog, xs)
    # the batch calls run in row blocks of 164 bytes a row, on top of what
    # they keep for every row: 32*s bytes of states or 16 of probabilities
    rows = []
    monkeypatch.setattr(simulate, "evolve", lambda p, x: rows.append(len(x)) or evolve(p, x))
    for limit, blocks in ((491, [1, 1, 1, 2, 1]), (3 * 64 + 164, [1, 1, 1, 1, 1, 1])):
        monkeypatch.setattr(core, "ALLOC_LIMIT", limit)
        rows.clear()
        blocked = final_states(prog, xs), acceptance_probabilities(prog, xs)
        assert rows == blocks
        for got, want in zip(blocked, whole):
            assert np.abs(got - want).max() <= 1e-15
    monkeypatch.setattr(core, "ALLOC_LIMIT", 3 * 64 + 163)
    with pytest.raises(ValueError, match="refusing to allocate 356 bytes for one row's states"):
        final_states(prog, xs)


def test_acceptance_of_a_batch_evolve_refuses_runs_in_row_blocks(monkeypatch):
    # every input of an s=16 L=8 program, against 8 slices each run whole; at
    # a limit a quarter of evolve's whole-batch bytes the blocks hold about
    # a tenth of the rows, with the 16 bytes kept per row counted
    prog, xs = random_rgqbp(16, 8, 12, seed=1), all_inputs(12)
    whole = acceptance_probabilities(prog, xs)
    sliced = np.concatenate([acceptance_probabilities(prog, part) for part in np.split(xs, 8)])
    shape = prog.width, prog.length, len(prog.plan.labels), False
    monkeypatch.setattr(core, "ALLOC_LIMIT", simulate._blocks(len(xs), *shape)[1] // 4)
    with pytest.raises(ValueError, match="refusing to allocate"):
        evolve(prog, xs)
    rows = []
    monkeypatch.setattr(simulate, "evolve", lambda p, x: rows.append(len(x)) or evolve(p, x))
    blocked = acceptance_probabilities(prog, xs)
    assert len(rows) > 8 and sum(rows) == len(xs)
    assert np.abs(blocked - sliced).max() <= 1e-12 and np.abs(blocked - whole).max() <= 1e-12


@pytest.mark.parametrize("form", ["plain", "split", "general"])
@pytest.mark.parametrize("s", [16, 64])
@pytest.mark.parametrize("batch", ["most-1", "most", "most+1", "4*most+3"])
def test_batch_calls_run_in_cache_sized_row_blocks(s, form, batch, monkeypatch):
    # a block holds at most LEVEL_BLOCK_BYTES of (s, rows) complex state
    most = core.LEVEL_BLOCK_BYTES // (16 * s)
    count = {"most-1": most - 1, "most": most, "most+1": most + 1, "4*most+3": 4 * most + 3}[batch]
    prog = random_rgqbp(s, 4, 10, seed=s)
    prog = {"plain": prog, "split": split_layers(prog), "general": generalize(prog)}[form]
    xs = np.random.default_rng(count).integers(0, 2, size=(count, prog.n), dtype=np.uint8)
    whole = evolve(prog, xs)
    blocks = []
    monkeypatch.setattr(simulate, "evolve", lambda p, x: blocks.append(x) or evolve(p, x))
    states, probs = final_states(prog, xs), acceptance_probabilities(prog, xs)
    per_call = len(blocks) // 2
    assert per_call == -(-count // most)
    assert all(len(rows) <= most for rows in blocks)
    for call in (blocks[:per_call], blocks[per_call:]):
        assert np.array_equal(np.concatenate(call), xs)  # every row once, in order
    assert np.abs(states - whole).max() <= 1e-15
    assert np.abs(probs - accept_mass(prog, whole)).max() <= 1e-15
    if count <= most:  # one block: the whole evolve itself
        assert np.array_equal(states, whole) and np.array_equal(probs, accept_mass(prog, whole))


def test_batch_acceptance_peak_is_one_block_beyond_what_it_keeps():
    # 2^14 inputs at s=16: blocks of 1024 rows; at one block for the whole
    # batch the peak would be about 17 MB.  Its compiled circuit has q=9, so
    # 2^12 inputs run in blocks of 32 rows, against about 69 MB whole.
    prog, xs = random_rgqbp(16, 8, 14, seed=1), all_inputs(14)
    most = core.LEVEL_BLOCK_BYTES // (16 * prog.width)
    block = simulate._blocks(most, prog.width, prog.length, len(prog.plan.labels), False)[1]
    c, cxs = rgqbp_to_circuit(random_rgqbp(16, 8, 12, seed=1)), all_inputs(12)
    cblock = circuit._run_bytes(c, core.LEVEL_BLOCK_BYTES // (16 * c.dim))
    for run, count, held in ((lambda: acceptance_probabilities(prog, xs), len(xs), block),
                             (lambda: circuit_acceptances(c, cxs), len(cxs), cblock)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * count + held + 8192


def test_factor_blocks_hold_as_many_levels_as_fit_the_budget(monkeypatch):
    # the record guard counts the stack, the scratch and one block: two levels
    # of factors up to half the budget, one level beyond it
    checked = []
    monkeypatch.setattr(simulate, "check_alloc", lambda nbytes, what: checked.append(nbytes))
    prog = random_rgqbp(4, 7, 6, seed=19)
    batches = (1, _FULL // 2, _FULL // 2 + 1, _FULL, _FULL + 1)
    for batch in batches:
        evolve(prog, np.zeros((batch, prog.n), dtype=np.uint8), record=True)
    blocks = (7, 2, 1, 1, 1)
    assert checked == [4 * b * (16 * (8 + 1 + k) + k) for b, k in zip(batches, blocks)]


def _peak_and_checked_bytes(prog, xs, monkeypatch, **kwargs) -> tuple[int, int]:
    """``evolve``'s tracemalloc peak, result included, and the bytes it checked.
    Beyond those the tests allow 8 KiB whatever the batch: about 3.4 KiB of
    it is numpy's own index handling in the bit gather."""
    checked = []

    def check(nbytes, what):
        checked.append(nbytes)
        core.check_alloc(nbytes, what)

    monkeypatch.setattr(simulate, "check_alloc", check)
    prog.plan  # built once per program, before the call
    tracemalloc.start()
    try:
        evolve(prog, xs, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, checked[0]


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("form", ["plain", "split", "general", "two-matmul"])
def test_evolve_peak_is_within_its_checked_bytes(form, record, monkeypatch):
    prog = random_rgqbp(8, 6, 5, seed=41)
    prog = {"plain": prog, "split": split_layers(prog), "general": generalize(prog),
            "two-matmul": _off_phase_program("unrelated")}[form]
    xs = np.random.default_rng(2).integers(0, 2, size=(1024, prog.n), dtype=np.uint8)
    peak, checked = _peak_and_checked_bytes(prog, xs, monkeypatch, record=record)
    assert peak <= checked + 8192


def test_evolve_reads_wide_inputs_without_a_copy(monkeypatch):
    # the (B, n) bits are 4 MB; a transposed copy of them would be as large
    # as the whole 0.66 MB evolve checks, six times over
    prog = random_rgqbp(4, 4, 2000, seed=1)
    xs = np.random.default_rng(5).integers(0, 2, size=(2001, prog.n), dtype=np.uint8)
    peak, checked = _peak_and_checked_bytes(prog, xs, monkeypatch)
    assert checked < xs.nbytes / 6
    assert peak <= checked + 8192


def test_accept_index_is_sorted_once_per_machine():
    prog = random_rgqbp(5, 2, 3, seed=4)
    circuit = grover_promise_or(4)
    for machine in (prog, circuit):
        assert machine.accept_index is machine.accept_index
        assert machine.accept_index.tolist() == sorted(machine.accept)
    assert accept_mass(replace(prog, accept=frozenset()), np.ones((2, 5))).tolist() == [0, 0]
