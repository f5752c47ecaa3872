import math
import tracemalloc

import numpy as np
import pytest

from gqbp import (
    acceptance_probabilities,
    acceptance_probability,
    circuit_acceptance,
    grover_promise_or,
    hamming_family,
    parity_program,
    random_rgqbp,
    validate_program,
    zeros_input,
)
from gqbp import core
from gqbp.formats import serialize_program
from gqbp.programs import FAMILY_SAMPLE, grover_iterations
from gqbp.simulate import all_inputs


def test_parity_hand_values():
    prog = parity_program(2)
    assert acceptance_probability(prog, "00") == pytest.approx(0.0, abs=1e-12)
    assert acceptance_probability(prog, "10") == pytest.approx(1.0, abs=1e-12)


def test_parity_shape():
    prog = parity_program(8)
    assert prog.width == 2
    assert prog.length == 4
    assert prog.accept == frozenset({1})


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_parity_exhaustive(n):
    prog = parity_program(n)
    xs = all_inputs(n)
    probs = acceptance_probabilities(prog, xs)
    assert np.abs(probs - xs.sum(axis=1) % 2).max() <= 1e-12


def test_parity_rejects_odd_or_small():
    for n in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            parity_program(n)


def test_grover_accepts_each_one_hot_at_n4():
    c = grover_promise_or(4)
    for p in range(4):
        assert circuit_acceptance(c, np.eye(4, dtype=np.uint8)[p]) == pytest.approx(1.0, abs=1e-12)


def test_grover_rejects_all_zero():
    for n in (2, 4, 16):
        assert circuit_acceptance(grover_promise_or(n), zeros_input(n)) == 0.0


def test_grover_n16_matches_rotation_formula():
    # independent check: success after T rounds is sin^2((2T+1) asin(1/sqrt n))
    n = 16
    c = grover_promise_or(n)
    t = grover_iterations(n)
    expected = math.sin((2 * t + 1) * math.asin(1 / math.sqrt(n))) ** 2
    assert expected >= 0.9
    for p in (0, 7, 15):
        assert circuit_acceptance(c, np.eye(n, dtype=np.uint8)[p]) == pytest.approx(expected, abs=1e-12)


def test_grover_rejects_non_power_of_two():
    for n in (0, 1, 3, 6):
        with pytest.raises(ValueError):
            grover_promise_or(n)


def test_random_rgqbp_validates():
    for seed in range(5):
        prog = random_rgqbp(5, 4, 6, seed=seed)
        assert validate_program(prog, tol=1e-9).passed


def test_random_rgqbp_width1_scalar_base():
    prog = random_rgqbp(1, 3, 2, seed=0)
    for level in prog.levels:
        assert abs(abs(level.base[0, 0]) - 1.0) <= 1e-12


def test_random_rgqbp_deterministic():
    a = random_rgqbp(4, 3, 5, seed=99)
    b = random_rgqbp(4, 3, 5, seed=99)
    assert serialize_program(a) == serialize_program(b)
    c = random_rgqbp(4, 3, 5, seed=100)
    assert serialize_program(a) != serialize_program(c)


def test_random_rgqbp_accept_set():
    assert random_rgqbp(5, 1, 2, seed=0).accept == frozenset({0, 1, 2})


def test_hamming_family_fix_yes_example():
    fam = hamming_family(4, 1, 1, "1000")
    assert fam.side == "fix_yes"
    assert fam.size == math.comb(3, 1) == 3
    members = {"".join(map(str, m)) for m in fam.rows()[1:]}
    assert members == {"1100", "1010", "1001"}


def test_hamming_family_fix_no_example():
    fam = hamming_family(3, 2, 1, "111")
    assert fam.side == "fix_no"
    assert fam.size == math.comb(3, 2) == 3
    members = {"".join(map(str, m)) for m in fam.rows()[1:]}
    assert members == {"011", "101", "110"}


def test_hamming_family_delta_zero():
    fam = hamming_family(4, 2, 0, "1100")
    assert fam.size == 1
    assert np.array_equal(fam.rows()[1:][0], fam.fixed)


def test_hamming_family_weight_mismatch():
    with pytest.raises(ValueError, match="weight"):
        hamming_family(4, 1, 1, "1110")  # weight 3 is neither k nor k+delta


def test_hamming_family_parameter_guards():
    with pytest.raises(ValueError, match="non-negative"):
        hamming_family(4, -1, 1, "0000")
    with pytest.raises(ValueError, match="non-negative"):
        hamming_family(4, 2, -1, "1100")
    with pytest.raises(ValueError, match="exceeds"):
        hamming_family(4, 3, 2, "1110")  # k + delta = 5 > n


def test_random_rgqbp_parameter_guard():
    with pytest.raises(ValueError):
        random_rgqbp(0, 1, 1, seed=0)


def test_generators_refuse_more_than_the_alloc_limit(monkeypatch):
    # the checked count is the bytes of the arrays each generator returns, plus
    # core.LEVEL_OBJECT_BYTES a level for the level and its array headers
    prog = random_rgqbp(4, 2, 3, seed=0)
    program_bytes = prog.initial.nbytes + sum(
        lv.base.nbytes + lv.labels.nbytes + lv.thetas.nbytes for lv in prog.levels)
    program_bytes += len(prog.levels) * core.LEVEL_OBJECT_BYTES
    parity = parity_program(6)
    # parity's levels share one frozen identity base and one phase vector
    assert all(lv.base is parity.levels[0].base for lv in parity.levels[:-1])
    assert all(lv.thetas is parity.levels[0].thetas for lv in parity.levels)
    parity_bytes = sum(lv.labels.nbytes + core.LEVEL_OBJECT_BYTES for lv in parity.levels)
    gate_bytes = sum(g.matrix.nbytes for g in grover_promise_or(4).gates if hasattr(g, "matrix"))
    for build, nbytes in ((lambda: random_rgqbp(4, 2, 3, seed=0), program_bytes),
                          (lambda: parity_program(6), parity_bytes),
                          (lambda: grover_promise_or(4), gate_bytes),
                          (lambda: zeros_input(4), 4)):
        monkeypatch.setattr(core, "ALLOC_LIMIT", nbytes)
        build()
        monkeypatch.setattr(core, "ALLOC_LIMIT", nbytes - 1)
        with pytest.raises(ValueError, match=f"refusing to allocate {nbytes} bytes"):
            build()


def test_hamming_family_cardinalities():
    for n, k, d in [(8, 2, 1), (8, 3, 2), (8, 6, 1)]:
        fixed_yes = "1" * k + "0" * (n - k)
        assert hamming_family(n, k, d, fixed_yes).size == math.comb(n - k, d)
        fixed_no = "1" * (k + d) + "0" * (n - k - d)
        assert hamming_family(n, k, d, fixed_no).size == math.comb(k + d, d)


def test_hamming_family_large_is_sampled():
    n, k, d = 64, 4, 4
    fam = hamming_family(n, k, d, "1" * k + "0" * (n - k))
    assert fam.size == math.comb(60, 4)
    assert fam.mode == "sampled"
    sample = fam.rows(seed=3)[1:]
    assert sample.shape == (FAMILY_SAMPLE, n)
    assert np.all(sample.sum(axis=1) == k + d)
    assert np.all(sample[:, :k] == 1)  # the fixed 1s are kept


@pytest.mark.parametrize("k,delta,fixed", [
    (4, 8, "1" * 4 + "0" * 20),  # fix_yes: 8 of 20 zeros set, C(20, 8) = 125,970 members
    (2, 3, "11" + "0" * 198),    # fix_yes: 3 of 198 zeros set
    (30, 10, "1" * 40),          # fix_no: 10 of 40 ones cleared
])
def test_sampled_rows_flip_delta_distinct_flippable_positions(k, delta, fixed):
    fam = hamming_family(len(fixed), k, delta, fixed)
    assert fam.mode == "sampled"
    rows = fam.rows(seed=0)
    fill = int(fam.side == "fix_yes")
    flippable = fam.fixed != fill
    members = rows[1:]
    assert np.array_equal(rows[0], fam.fixed)
    # outside the flippable positions every member is fixed; inside, exactly delta flip
    assert np.all(members[:, ~flippable] == fam.fixed[~flippable])
    assert np.all((members[:, flippable] == fill).sum(axis=1) == delta)
    assert np.array_equal(rows, fam.rows(seed=0))
    assert not np.array_equal(rows, fam.rows(seed=1))
    # each flippable position is in a uniform delta-subset with probability delta/m
    m = int(flippable.sum())
    p = delta / m
    counts = (members[:, flippable] == fill).sum(axis=0)
    sigma = np.sqrt(FAMILY_SAMPLE * p * (1 - p))
    assert np.all(np.abs(counts - FAMILY_SAMPLE * p) <= 6 * sigma)


def test_sampled_rows_stay_within_their_checked_bytes(monkeypatch):
    # 10,000 members of 64 bits with 4 positions, a draw column, its gather and
    # a repeat byte each, and the anchor: 10,000 * (64 + 32 + 16 + 4) + 64 bytes
    fam = hamming_family(64, 4, 4, "1" * 4 + "0" * 60)
    nbytes = FAMILY_SAMPLE * (64 + 32 + 16 + 4) + 64
    monkeypatch.setattr(core, "ALLOC_LIMIT", nbytes - 1)
    with pytest.raises(ValueError, match=f"refusing to allocate {nbytes} bytes"):
        fam.rows()
    monkeypatch.setattr(core, "ALLOC_LIMIT", nbytes)
    fam.rows(seed=1)  # numpy's one-time allocations happen outside the traced call
    tracemalloc.start()
    try:
        fam.rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nbytes
