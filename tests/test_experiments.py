import tracemalloc
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
    circuit_to_rgqbp,
    distinguishability_check,
    evolve,
    final_state,
    final_states,
    generalize,
    grover_promise_or,
    hamming_expectation,
    hamming_family,
    hybrid_deviation,
    hybrid_run,
    parity_program,
    promise_or_expectation,
    random_rgqbp,
    split_layers,
    tradeoff_scan,
    zeros_input,
)
from gqbp import core, experiments, programs, simulate
from gqbp.core import bits_to_str
from gqbp.experiments import (
    DISTANCE_FLOOR,
    FAMILIES,
    PROBABILITY_GAP,
    SLACK_TOL,
)
from gqbp.programs import FAMILY_SAMPLE
from gqbp.simulate import all_inputs

from helpers import (HADAMARD, input_independent_program, seeded_program, transition_matrix,
                     width1_flip_program)


def _random_pair(seed, n):
    rng = np.random.default_rng(seed + 424242)
    return (rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, 2, n).astype(np.uint8))


def test_hybrid_run_boundaries():
    prog = seeded_program(8)
    x, y = _random_pair(8, prog.n)
    split = split_layers(prog)
    assert np.abs(hybrid_run(prog, x, y, 0) - final_state(split, x)).max() <= 1e-12
    assert np.abs(hybrid_run(prog, x, y, prog.length)
                  - final_state(split, y)).max() <= 1e-12


def test_hybrid_run_accepts_presplit_program():
    prog = seeded_program(8)
    split = split_layers(prog)
    x, y = _random_pair(8, prog.n)
    for k in range(prog.length + 1):
        assert np.abs(hybrid_run(split, x, y, k)
                      - hybrid_run(prog, x, y, k)).max() <= 1e-12


def test_hybrid_run_input_independent_program():
    prog = input_independent_program()
    assert prog.query_depth == 0
    with pytest.raises(ValueError, match="k must be"):
        hybrid_run(prog, "0000", "1111", 1)
    assert np.abs(hybrid_run(prog, "0000", "1111", 0) - final_state(prog, "1111")).max() <= 1e-12


def test_query_levels_skip_a_level_that_reads_nothing():
    base = random_rgqbp(4, 5, 4, seed=3)
    quiet = RestrictedLevel(labels=base.levels[2].labels, base=base.levels[2].base,
                            thetas=np.zeros(4))
    prog = replace(base, levels=base.levels[:2] + (quiet,) + base.levels[3:])
    assert prog.query_levels.tolist() == [0, 1, 3, 4] and prog.query_depth == 4
    x, y = "0110", "1011"
    for k in range(prog.query_depth + 1):
        # the first L-k query levels read x and every later level reads y
        reads_x = set(prog.query_levels[:prog.query_depth - k].tolist())
        state = prog.initial
        for t, level in enumerate(prog.levels):
            state = transition_matrix(level, x if t in reads_x else y) @ state
        assert np.abs(hybrid_run(prog, x, y, k) - state).max() <= 1e-12
    assert len(hybrid_deviation(prog, x, y).deviations) == 4
    assert promise_or_expectation(prog).metadata["L"] == 4


def test_hybrid_run_rejects_bad_k():
    prog = seeded_program(2)
    with pytest.raises(ValueError, match="k must be"):
        hybrid_run(prog, "0" * prog.n, "1" * prog.n, prog.length + 1)


def test_hybrid_deviation_equal_inputs():
    prog = seeded_program(12)
    x = np.zeros(prog.n, dtype=np.uint8)
    trace = hybrid_deviation(prog, x, x)
    assert trace.final_distance == 0.0
    assert trace.bound == 0.0


def test_hybrid_deviation_width1_is_tight():
    prog = width1_flip_program(n=4)
    trace = hybrid_deviation(prog, "0000", "1000")
    assert trace.final_distance == pytest.approx(2.0)
    assert trace.bound == pytest.approx(2.0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_hybrid_deviation_bound_holds(seed):
    prog = seeded_program(seed)
    x, y = _random_pair(seed, prog.n)
    trace = hybrid_deviation(prog, x, y)
    assert trace.final_distance <= trace.bound + SLACK_TOL


def test_promise_or_input_independent():
    report = promise_or_expectation(input_independent_program())
    assert report.empirical == 0.0
    assert report.passed


def test_promise_or_width1_example():
    report = promise_or_expectation(width1_flip_program(n=4))
    assert report.empirical == pytest.approx(0.5)
    assert report.bound == pytest.approx(1.0)
    assert report.passed


def test_promise_or_grover16():
    prog = circuit_to_rgqbp(grover_promise_or(16))
    report = promise_or_expectation(prog)
    assert report.passed
    assert report.empirical >= 1 / 6


def test_promise_or_cauchy_schwarz_levels():
    prog = seeded_program(31)
    trace = hybrid_deviation(prog, zeros_input(prog.n), np.eye(prog.n, dtype=np.uint8)[0])
    cap = np.sqrt(prog.width) + SLACK_TOL
    assert all(l1 <= cap for l1 in trace.level_l1)


@pytest.mark.parametrize("name, prog", [
    *((f"seeded {seed}", seeded_program(seed)) for seed in range(6)),
    ("general", generalize(seeded_program(40))),
    ("compiled grover n=16", circuit_to_rgqbp(grover_promise_or(16))),
    ("parity n=8", parity_program(8)),
])
def test_promise_or_is_the_hamming_k0_delta1_instance(name, prog):
    got = promise_or_expectation(prog)
    want = hamming_expectation(prog, 0, 1, zeros_input(prog.n))
    assert got.empirical == want.empirical
    assert got.bound == want.bound
    assert got.slack == want.slack
    assert got.passed == want.passed
    assert got.metadata == want.metadata
    assert got.metadata["family_size"] == got.metadata["compared"] == prog.n
    assert (got.metadata["family"], got.metadata["side"], got.metadata["mode"]) == (
        "hamming", "fix_yes", "exhaustive")


def test_family_mode_follows_the_alloc_limit(monkeypatch):
    # C(6, 1) = 6 members of 8 bits, each with one int64 position, the index
    # write's copy of it and an int64 row index, and the anchor's row:
    # 6 * (8 + 8 + 8 + 8) + 8 = 200 bytes.
    # evolve then holds two (s, rows) state buffers, one scratch and one block
    # of the 3 reading levels' complex factors and bool bits: 7 * 4 * (16 *
    # (2 + 1 + 3) + 3) bytes for the anchor and every member in one block,
    # 4 * (16 * (2 + 1 + 3) + 3) = 396 for each row of a smaller block.  A sample
    # of 4 adds a draw column and its gather (16 bytes) and a repeat test byte a
    # member: 4 * (8 + 8 + 8 + 8 + 16 + 1) + 8 = 204 bytes.
    prog, fixed = random_rgqbp(4, 3, 8, seed=9), "11000000"
    monkeypatch.setattr(programs, "FAMILY_SAMPLE", 4)
    for limit, mode in ((200, "exhaustive"), (199, "sampled")):
        monkeypatch.setattr(core, "ALLOC_LIMIT", limit)
        assert hamming_family(prog.n, 2, 1, fixed).mode == mode
    reports = []
    for limit in (2772, 2771, 396):
        monkeypatch.setattr(core, "ALLOC_LIMIT", limit)
        reports.append(hamming_expectation(prog, 2, 1, fixed))
    assert [(r.metadata["mode"], r.metadata["compared"]) for r in reports] == [
        ("exhaustive", 6)] * 3
    # blocks of 6 rows and then 1 at 2771, of 1 row at 396: the same family
    assert all(abs(r.empirical - reports[0].empirical) <= 1e-12 for r in reports)
    monkeypatch.setattr(core, "ALLOC_LIMIT", 395)
    with pytest.raises(ValueError, match="refusing to allocate 396 bytes for one row's states"):
        hamming_expectation(prog, 2, 1, fixed)
    monkeypatch.setattr(core, "ALLOC_LIMIT", 199)
    with pytest.raises(ValueError, match="refusing to allocate 204 bytes for 4 family members"):
        hamming_expectation(prog, 2, 1, fixed)


def test_drift_report_evolves_the_family_rows_without_a_copy():
    # the anchor is row 0 of the family's one table, so no second copy of
    # the members is stacked; the rest is evolve's two (s, B) state buffers,
    # its scratch and one block of factors and bits
    prog = random_rgqbp(4, 4, 2000, seed=1)
    family = hamming_family(prog.n, 0, 1, zeros_input(prog.n))
    rows = family.rows()
    assert np.array_equal(rows[0], family.fixed)
    states = 2 * rows.shape[0] * prog.width * 16
    tracemalloc.start()
    try:
        promise_or_expectation(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * rows.nbytes + states


def test_sampled_family_rows_start_at_the_anchor():
    fixed = "1" * 4 + "0" * 60
    family = hamming_family(64, 4, 4, fixed)
    rows = family.rows(seed=2)
    assert rows.shape == (FAMILY_SAMPLE + 1, 64) and bits_to_str(rows[0]) == fixed
    assert np.array_equal(rows, family.rows(seed=2))  # seeded


def test_hamming_delta_zero_degenerate():
    prog = replace(seeded_program(6, nmax=4), accept=frozenset({0}))
    n = prog.n
    k = min(2, n)
    fixed = "1" * k + "0" * (n - k)
    report = hamming_expectation(prog, k, 0, fixed)
    assert report.empirical == 0.0


def test_hamming_input_independent():
    prog = input_independent_program(n=4)
    report = hamming_expectation(prog, 1, 1, "1000")
    assert report.empirical == pytest.approx(0.0, abs=1e-12)
    # no level reads its bit, so L = 0 and the cap is 2*(0+1)*sqrt(2)/(4-1)
    assert report.metadata["L"] == prog.query_depth == 0
    assert report.bound == pytest.approx(2 * np.sqrt(2) / 3)
    assert report.passed


def test_hamming_random_program_both_cases():
    from gqbp import random_rgqbp
    prog = random_rgqbp(4, 4, 8, seed=5)
    for fixed in ("11000000", "11100000"):
        report = hamming_expectation(prog, 2, 1, fixed)
        assert report.passed
        assert report.metadata["mode"] == "exhaustive"


def test_hamming_sampled_above_family_limit():
    # C(20, 8) = 125,970 members: too many to list, so a seeded sample is compared
    from gqbp import random_rgqbp
    prog = random_rgqbp(3, 2, 24, seed=0)
    fixed = "1" * 4 + "0" * 20
    report = hamming_expectation(prog, 4, 8, fixed)
    assert report.metadata["family_size"] == 125_970
    assert report.metadata["mode"] == "sampled"
    assert report.metadata["compared"] == FAMILY_SAMPLE == 10_000
    assert report.passed
    assert hamming_expectation(prog, 4, 8, fixed, seed=0) == report
    assert hamming_expectation(prog, 4, 8, fixed, seed=1).empirical != report.empirical


def test_hamming_weight_mismatch_error():
    with pytest.raises(ValueError, match="weight"):
        hamming_expectation(parity_program(4), 2, 1, "1111")


def test_hamming_degenerate_denominator():
    # weight(fixed) = delta with k = 0 selects the zero-out side, whose cap
    # divides by k
    with pytest.raises(ValueError, match="degenerate"):
        hamming_expectation(parity_program(4), 0, 1, "1000")


def test_distinguishability_parity():
    prog = parity_program(4)
    xs = all_inputs(4)
    yes = [x for x in xs if x.sum() % 2 == 1]
    no = [x for x in xs if x.sum() % 2 == 0]
    report = distinguishability_check(prog, yes, no)
    assert report.passed
    assert report.qualifying_pairs == 64
    # probability gap 1 forces distance >= 1/2
    assert report.min_distance >= 0.5
    assert report.min_distance >= DISTANCE_FLOOR


def test_distinguishability_reports_decision_failure():
    prog = replace(parity_program(4), accept=frozenset())
    xs = all_inputs(4)
    yes = [x for x in xs if x.sum() % 2 == 1][:2]
    no = [x for x in xs if x.sum() % 2 == 0][:2]
    report = distinguishability_check(prog, yes, no)
    assert not report.passed
    assert len(report.decision_failures) == 4


def test_distinguishability_lists_a_gap_below_one_third():
    # P('0') - P('1') = sin(2*phi) = 0.3: at least 1/4 but under the 1/3 gap
    phi = np.arcsin(0.3) / 2
    level = RestrictedLevel(labels=np.zeros(2, dtype=np.int64), base=HADAMARD,
                            thetas=np.array([0.0, np.pi]))
    prog = Program(n=1, initial=np.array([np.cos(phi), np.sin(phi)]), levels=(level,),
                   accept=frozenset({0}))
    gap = acceptance_probability(prog, "0") - acceptance_probability(prog, "1")
    assert gap == pytest.approx(0.3, abs=1e-12)
    report = distinguishability_check(prog, ["0"], ["1"])
    assert report.decision_failures == (("0", "1"),)
    assert report.qualifying_pairs == 0 and not report.passed


def test_distinguishability_grover_program():
    prog = circuit_to_rgqbp(grover_promise_or(4))
    yes = np.eye(4, dtype=np.uint8)
    report = distinguishability_check(prog, yes, [zeros_input(4)])
    assert report.passed


def test_tradeoff_scan_parity_rows():
    rows = tradeoff_scan("parity", [2, 4, 8])
    for row in rows:
        assert row.width == 2
        assert row.length == row.n // 2
        assert row.min_success == pytest.approx(1.0, abs=1e-12)
        assert row.ratio == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_tradeoff_scan_grover_rows():
    rows = tradeoff_scan("grover-or", [4, 16])
    for row in rows:
        assert row.min_success >= 2 / 3
        assert row.ratio <= 2.0
        assert row.width == 2 * row.n


def test_tradeoff_scan_counts_query_levels():
    # the split form has twice the levels but the query depth of its source
    def split_parity(n):
        program, inputs, expected = FAMILIES["parity"](n)
        return split_layers(program), inputs, expected

    sizes = [2, 4, 8]
    for plain, split in zip(tradeoff_scan("parity", sizes), tradeoff_scan(split_parity, sizes)):
        assert replace(split, min_success=plain.min_success) == plain
        assert split.min_success == pytest.approx(plain.min_success, abs=1e-12)


def test_tradeoff_scan_custom_family():
    def fixed_size(_n):
        prog = width1_flip_program(n=4)
        inputs = all_inputs(4)
        expected = np.ones(len(inputs), dtype=np.uint8)
        return prog, inputs, expected

    rows = tradeoff_scan(fixed_size, [1, 2, 3])
    assert len(rows) == 3
    assert all(row.n == 4 for row in rows)


def test_tradeoff_scan_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        tradeoff_scan("nope", [2])


def test_hybrid_trace_reports_bound_holds():
    prog = seeded_program(5)
    trace = hybrid_deviation(prog, "0" * prog.n, "1" * prog.n)
    assert trace.bound_holds
    broken = experiments.HybridTrace(alpha=trace.alpha, deviations=trace.deviations,
                                     final_distance=trace.bound + 10 * SLACK_TOL)
    assert not broken.bound_holds


@pytest.mark.parametrize("seed", [4, 11, 19])
def test_drift_results_agree_on_plain_and_split_forms(seed):
    prog = seeded_program(seed, smax=6, lmax=6, nmax=6)
    split = split_layers(prog)
    x, y = _random_pair(seed, prog.n)
    a, b = hybrid_deviation(prog, x, y), hybrid_deviation(split, x, y)
    assert len(a.alpha) == len(b.alpha) == prog.length
    assert np.abs(np.array(a.alpha) - np.array(b.alpha)).max() <= 1e-12
    assert np.abs(np.array(a.deviations) - np.array(b.deviations)).max() <= 1e-12
    assert abs(a.final_distance - b.final_distance) <= 1e-12
    for k in range(prog.length + 1):
        assert np.abs(hybrid_run(prog, x, y, k) - hybrid_run(split, x, y, k)).max() <= 1e-12
    fixed = np.zeros(prog.n, dtype=np.uint8)
    fixed[:prog.n // 2] = 1
    reports = [(promise_or_expectation(prog), promise_or_expectation(split))]
    if 0 < prog.n // 2 < prog.n:
        reports.append((hamming_expectation(prog, prog.n // 2, 1, fixed),
                        hamming_expectation(split, prog.n // 2, 1, fixed)))
    for r, q in reports:
        assert abs(r.empirical - q.empirical) <= 1e-12
        assert r.bound == q.bound and r.passed == q.passed
        assert abs(r.slack - q.slack) <= 1e-12
        assert r.metadata.keys() == q.metadata.keys()
        for key, value in r.metadata.items():
            if isinstance(value, str):
                assert value == q.metadata[key]
            else:
                assert np.abs(np.subtract(value, q.metadata[key])).max(initial=0) <= 1e-12


def _pairwise_reference(prog, yes, no):
    """Per-pair loop: (qualifying, min distance, floor violations, decision failures)."""
    finals_yes, finals_no = final_states(prog, yes), final_states(prog, no)
    probs_yes, probs_no = acceptance_probabilities(prog, yes), acceptance_probabilities(prog, no)
    qualifying, min_distance, violations, failures = 0, np.inf, [], []
    for i in range(len(yes)):
        for j in range(len(no)):
            pair = (bits_to_str(yes[i]), bits_to_str(no[j]))
            if abs(probs_yes[i] - probs_no[j]) < PROBABILITY_GAP:
                failures.append(pair)
                continue
            qualifying += 1
            distance = float(np.linalg.norm(finals_yes[i] - finals_no[j]))
            min_distance = min(min_distance, distance)
            if distance < DISTANCE_FLOOR:
                violations.append(pair)
    return qualifying, min_distance, tuple(violations), tuple(failures)


@pytest.mark.parametrize("tile", [None, 1, 3])
def test_distinguishability_matches_pairwise_loop(monkeypatch, tile):
    # Small phases keep the final states close, and an initial vector of
    # norm 6 stretches their probability gaps, so some pairs with the gap
    # sit below the distance floor while others miss the gap.
    base = random_rgqbp(4, 3, 6, seed=8)
    levels = tuple(RestrictedLevel(labels=lv.labels, base=lv.base, thetas=0.05 * lv.thetas)
                   for lv in base.levels)
    prog = replace(base, initial=6 * base.initial, levels=levels)
    xs = all_inputs(6)
    odd = xs.sum(axis=1) % 2 == 1
    yes, no = xs[odd], xs[~odd]
    if tile is not None:
        # a tile of yes-rows, each against the 32 no-rows' (32, s) final states
        monkeypatch.setattr(core, "LEVEL_BLOCK_BYTES", tile * 16 * len(no) * prog.width)
        assert core.cache_rows(len(no) * prog.width) == tile
    qualifying, min_distance, violations, failures = _pairwise_reference(prog, yes, no)
    assert qualifying and violations and failures
    report = distinguishability_check(prog, yes, no)
    assert report.pairs_checked == len(yes) * len(no)
    assert report.qualifying_pairs == qualifying
    assert abs(report.min_distance - min_distance) <= 1e-12
    assert report.floor_violations == violations
    assert report.decision_failures == failures
    assert not report.passed
    listed = distinguishability_check(prog, [bits_to_str(x) for x in yes], list(no))
    assert listed == report


def test_distinguishability_holds_one_tile_at_a_time():
    # parity n=10: 512 yes-rows against 512 no-rows at s=2, in tiles of 16
    # yes-rows.  The call keeps the stacked rows, their final states and
    # their probabilities.  A tile is its (16, 512, 2) difference, which
    # fills LEVEL_BLOCK_BYTES; numpy forms it, and squares it in norm, through
    # a second array of that size, and the (16, 512) distances and flags take
    # less than a third.  With one tile for all 512 yes-rows the peak was 11.7 MB.
    prog, xs = parity_program(10), all_inputs(10)
    odd = xs.sum(axis=1) % 2 == 1
    yes, no = xs[odd], xs[~odd]
    kept = xs.nbytes + len(xs) * (16 * prog.width + 8)
    tracemalloc.start()
    try:
        distinguishability_check(prog, yes, no)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kept + 3 * core.LEVEL_BLOCK_BYTES + 8192


def test_distinguishability_runs_its_final_states_in_row_blocks(monkeypatch):
    prog, xs = random_rgqbp(4, 3, 6, seed=8), all_inputs(6)
    odd = xs.sum(axis=1) % 2 == 1
    whole = distinguishability_check(prog, xs[odd], xs[~odd])
    # 32*s bytes kept for each of the 64 rows, then 4 * (16 * (2 + 1 + 3) + 3)
    # bytes for each of 10 rows a block: evolve would refuse the 64 in one
    monkeypatch.setattr(core, "ALLOC_LIMIT", 64 * 128 + 10 * 396)
    blocked = distinguishability_check(prog, xs[odd], xs[~odd])
    assert abs(blocked.min_distance - whole.min_distance) <= 1e-12
    assert replace(blocked, min_distance=whole.min_distance) == whole
    monkeypatch.setattr(core, "ALLOC_LIMIT", 64 * 128 + 395)
    with pytest.raises(ValueError, match="refusing to allocate 8588 bytes for one row's states"):
        distinguishability_check(prog, xs[odd], xs[~odd])


def test_hamming_family_across_two_row_blocks_keeps_its_first_anchor(monkeypatch):
    # 0^12 and its 495 weight-4 members at s=64: blocks of 256 and 240 rows at
    # the default ALLOC_LIMIT; the second block's row 0 is a member, not an anchor
    prog = random_rgqbp(64, 4, 12, seed=3)
    rows = hamming_family(12, 0, 4, zeros_input(12)).rows()
    finals = evolve(prog, rows)
    want = np.linalg.norm(finals[1:] - finals[0], axis=1).mean()
    blocks = []
    monkeypatch.setattr(simulate, "evolve", lambda p, x: blocks.append(len(x)) or evolve(p, x))
    report = hamming_expectation(prog, 0, 4, zeros_input(12))
    assert blocks == [256, 240]
    assert report.metadata["compared"] == 495
    assert abs(report.empirical - want) <= 1e-15


@pytest.mark.parametrize("row", [[0.5, 1.0], [256, 1]], ids=["fraction", "wraps to 0"])
def test_distinguishability_refuses_non_bit_rows(row):
    prog = parity_program(2)
    with pytest.raises(ValueError, match="0/1"):
        distinguishability_check(prog, np.array([row]), np.array([[0, 0]]))
    with pytest.raises(ValueError, match="0/1"):
        distinguishability_check(prog, np.array([[0, 1]]), np.array([row[::-1]]))


def test_distinguishability_empty_sides():
    prog = parity_program(4)
    report = distinguishability_check(prog, [], all_inputs(4))
    assert report.pairs_checked == 0 and report.qualifying_pairs == 0
    assert report.min_distance == 0.0 and report.passed
    with pytest.raises(ValueError, match="length mismatch"):
        distinguishability_check(prog, ["010"], ["0000"])
