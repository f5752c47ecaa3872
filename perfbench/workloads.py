"""The benchmark's three closed-loop workloads and their output checks.

Each workload is built from a seed: set-up generates its programs, circuits,
files and inputs, and every op of the fixed, cyclic op list then calls gqbp on
those objects and checks the outputs.  The checks compare against this
benchmark's own references (``reference.py`` and closed forms), computed once
after set-up, so an op pays only for the comparison.  An op fails by raising;
``CheckFailed`` marks a wrong output.

* ``sweep``: batched exact evolution (the kernel behind
  ``acceptance_probabilities``), in plain, split and general form, plus the
  two expectation reports.  Two shapes at B=1024: narrow-deep s=16 L=32,
  where per-level overhead dominates, and wide-shallow s=64 L=8, where matmul
  FLOPs dominate.
* ``drift``: the per-input drift accounting (batch size 1), with in-process
  CLI calls and a parity distinguishability check interleaved.
* ``translate``: the program/circuit file pipeline with dense 2^q x 2^q gates,
  where ``formats`` and ``convert`` dominate.

The two sweep shapes and the two translate shapes run in a 2:1 interleave
rather than strictly alternating: with two op populations of equal size the
median latency falls between them and becomes the mean of two extreme order
statistics, which jumps from run to run.  With 2:1 it sits inside the larger
population.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref
from tracing import LAYER_OF

# A batched or rewritten result that moves an acceptance probability by more
# than this is a bug.
TOL = 1e-12
# gqbp's slack for the telescoped drift bound.
SLACK_TOL = 1e-9
# The CLI prints numbers with 12 significant digits.
TEXT_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_close(got, want, what: str, tol: float = TOL) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    check(err <= tol, f"{what}: deviation {err:.3e} > {tol:.0e}")


def load_api() -> SimpleNamespace:
    """The gqbp functions the benchmark calls: names exported by
    ``gqbp/__init__.py`` plus ``gqbp.cli.main``."""
    import gqbp
    from gqbp.cli import main

    api = {name: getattr(gqbp, name) for name in LAYER_OF if name != "main"}
    return SimpleNamespace(**api, main=main)


def _weighted(rng, n: int, weight: int) -> np.ndarray:
    x = np.zeros(n, dtype=np.uint8)
    x[rng.choice(n, size=weight, replace=False)] = 1
    return x


def _bitstr(x) -> str:
    return "".join(str(int(b)) for b in x)


def _family(fixed: np.ndarray, k: int, delta: int) -> np.ndarray:
    """The Hamming comparison set of ``fixed`` (see gqbp.hamming_family)."""
    fix_yes = int(fixed.sum()) == k
    positions = np.flatnonzero(fixed == (0 if fix_yes else 1))
    rows = []
    for combo in itertools.combinations(positions.tolist(), delta):
        row = fixed.copy()
        row[list(combo)] = 1 if fix_yes else 0
        rows.append(row)
    return np.array(rows)


def _mean_drift(finals: np.ndarray, fixed: np.ndarray, members: np.ndarray) -> float:
    base = finals[ref.row_index(fixed)]
    rows = [ref.row_index(m) for m in members]
    return float(np.linalg.norm(finals[rows] - base, axis=1).mean())


class Workload:
    """Op list, set-up and checks of one workload.

    ``ops`` is one period of the op list; op ``i`` is ``ops[i % len(ops)]``.
    A timed phase stops only at a multiple of ``block`` ops, so every phase
    runs the same mix of op kinds.
    """

    name = ""
    block = 1

    def __init__(self, lib, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.ops: list[tuple] = []
        self.shapes: dict = {}

    def compute_reference(self) -> None:
        raise NotImplementedError

    def op(self, lib, i: int) -> None:
        kind, *key = self.ops[i % len(self.ops)]
        getattr(self, f"op_{kind}")(lib, *key)


class Sweep(Workload):
    name = "sweep"
    block = 3
    N = 10
    SHAPES = {"narrow": (16, 32, 8), "wide": (64, 8, 4)}   # s, L, pool size

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.inputs = ref.all_bits(self.N)
        self.programs = {}
        self.hamming = {}
        for kind, (s, length, pool) in self.SHAPES.items():
            for j in range(pool):
                key = (kind, j)
                self.programs[key] = lib.random_rgqbp(s, length, self.N,
                                                      int(self.rng.integers(2**31)))
                k = int(self.rng.integers(1, 4))
                delta = int(self.rng.integers(1, 3))
                weight = k + delta * int(self.rng.integers(2))
                self.hamming[key] = (k, delta, _weighted(self.rng, self.N, weight))
        for c in range(self.SHAPES["wide"][2]):
            self.ops += [("sweep", "narrow", 2 * c), ("sweep", "wide", c),
                         ("sweep", "narrow", 2 * c + 1)]
        self.shapes = {"B": len(self.inputs), "n": self.N, "interleave": "narrow,wide,narrow",
                       "narrow": {"s": 16, "L": 32}, "wide": {"s": 64, "L": 8}}

    def compute_reference(self):
        self.ref = {}
        n = self.N
        zero = np.zeros(n, dtype=np.uint8)
        one_hots = np.eye(n, dtype=np.uint8)
        for key, program in self.programs.items():
            finals = ref.final_states(program, self.inputs)
            k, delta, fixed = self.hamming[key]
            self.ref[key] = (ref.acceptance(program, finals),
                             _mean_drift(finals, zero, one_hots),
                             _mean_drift(finals, fixed, _family(fixed, k, delta)))

    def op_sweep(self, lib, kind, j):
        program = self.programs[(kind, j)]
        want, want_or, want_hamming = self.ref[(kind, j)]
        plain = lib.acceptance_probabilities(program, self.inputs)
        check_close(plain, want, "plain acceptance vs reference")
        split = lib.acceptance_probabilities(lib.split_layers(program), self.inputs)
        check_close(split, plain, "split-form acceptance vs plain")
        general = lib.acceptance_probabilities(lib.generalize(program), self.inputs)
        check_close(general, plain, "general-form acceptance vs plain")
        report = lib.promise_or_expectation(program)
        check(report.passed, "promise-OR expectation report did not pass")
        check_close(report.empirical, want_or, "promise-OR mean drift vs reference")
        k, delta, fixed = self.hamming[(kind, j)]
        report = lib.hamming_expectation(program, k, delta, fixed)
        check(report.passed, "Hamming expectation report did not pass")
        check_close(report.empirical, want_hamming, "Hamming mean drift vs reference")


class Drift(Workload):
    name = "drift"
    # One block: 48 pair ops, one CLI `hybrid`, one CLI `expect hamming` and
    # one distinguishability check; a period rotates the CLI calls over the
    # four program files.
    block = 51
    S, L, N, PROGRAMS, PAIRS = 8, 16, 12, 4, 48
    PARITY_N = 8

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = self.rng
        n = self.N
        self.programs = [lib.random_rgqbp(self.S, self.L, n, int(rng.integers(2**31)))
                         for _ in range(self.PROGRAMS)]
        self.files = []
        for c, program in enumerate(self.programs):
            path = workdir / f"drift-{c}.json"
            path.write_text(lib.serialize_program(program), encoding="utf-8")
            self.files.append(str(path))
        self.pairs = []
        self.cli_pairs = []
        self.cli_hamming = []
        for c in range(self.PROGRAMS):
            for _ in range(self.PAIRS):
                self.pairs.append(self._pair(rng, len(self.pairs) % self.PROGRAMS))
            self.cli_pairs.append(self._pair(rng, c))
            k, delta = 2, 1
            self.cli_hamming.append((k, delta, _weighted(rng, n, k + delta * int(rng.integers(2)))))
        self.parity = lib.parity_program(self.PARITY_N)
        every = ref.all_bits(self.PARITY_N)
        odd = every.sum(axis=1) % 2 == 1
        self.yes, self.no = every[odd], every[~odd]
        third = self.PAIRS // 3
        for c in range(self.PROGRAMS):
            pairs = [("pair", c * self.PAIRS + t) for t in range(self.PAIRS)]
            self.ops += (pairs[:third] + [("cli_hybrid", c)] + pairs[third:2 * third]
                         + [("cli_hamming", c)] + pairs[2 * third:] + [("distinguish",)])
        self.shapes = {"B": 1, "s": self.S, "L": self.L, "n": n,
                       "block": "48 pair ops, cli hybrid, cli expect hamming, "
                                f"distinguishability parity n={self.PARITY_N}"}

    def _pair(self, rng, program_index):
        x = rng.integers(0, 2, size=self.N).astype(np.uint8)
        y = x.copy()
        y[rng.choice(self.N, size=int(rng.integers(1, 3)), replace=False)] ^= 1
        return program_index, x, y, int(rng.integers(0, self.L + 1))

    def compute_reference(self):
        self.ref_pairs = []
        for p, x, y, k in self.pairs:
            program = self.programs[p]
            final_x = ref.final_states(program, x)
            self.ref_pairs.append((ref.telescoped(program, x, y),
                                   ref.hybrid_state(program, x, y, k),
                                   float(ref.acceptance(program, final_x)[0])))
        self.ref_cli = [ref.telescoped(self.programs[p], x, y) for p, x, y, _k in self.cli_pairs]
        self.ref_hamming = []
        for program, (k, delta, fixed) in zip(self.programs, self.cli_hamming):
            members = _family(fixed, k, delta)
            finals = ref.final_states(program, np.vstack([fixed, members]))
            self.ref_hamming.append(float(np.linalg.norm(finals[1:] - finals[0], axis=1).mean()))
        finals = ref.final_states(self.parity, np.vstack([self.yes, self.no]))
        yes, no = finals[:len(self.yes)], finals[len(self.yes):]
        self.ref_min_distance = float(np.linalg.norm(yes[:, None] - no[None], axis=2).min())

    def op_pair(self, lib, t):
        p, x, y, k = self.pairs[t]
        (distance, bound), hybrid, accept = self.ref_pairs[t]
        program = self.programs[p]
        trace = lib.hybrid_deviation(program, x, y)
        check_close(trace.final_distance, distance, "final distance vs reference")
        check_close(trace.bound, bound, "telescoped bound vs reference")
        check(trace.final_distance <= trace.bound + SLACK_TOL, "final distance above its bound")
        check_close(lib.hybrid_run(program, x, y, k), hybrid, "hybrid state vs reference")
        prob = lib.acceptance_probability(program, x)
        check_close(prob, accept, "acceptance probability vs reference")
        verdict = lib.decide(program, x)
        allowed = {("accept" if accept >= 2 / 3 else
                    "reject" if accept <= 1 / 3 else "inconclusive")}
        if min(abs(accept - 2 / 3), abs(accept - 1 / 3)) <= TOL:
            allowed = {"accept", "reject", "inconclusive"}
        check(verdict in allowed, f"decide gave {verdict!r} at p={accept!r}")

    def _cli(self, lib, argv) -> str:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = lib.main(argv)
        check(code == 0, f"gqbp {' '.join(argv)} exited {code}")
        return out.getvalue()

    def op_cli_hybrid(self, lib, c):
        _p, x, y, _k = self.cli_pairs[c]
        text = self._cli(lib, ["hybrid", self.files[c], "--base", _bitstr(x),
                               "--alt", _bitstr(y)])
        got = re.search(r"final_distance=(\S+)", text)
        check(got is not None, "gqbp hybrid printed no final_distance")
        check_close(float(got.group(1)), self.ref_cli[c][0], "CLI final distance", TEXT_TOL)

    def op_cli_hamming(self, lib, c):
        k, delta, fixed = self.cli_hamming[c]
        text = self._cli(lib, ["expect", "hamming", self.files[c], "--k", str(k),
                               "--delta", str(delta), "--fixed", _bitstr(fixed),
                               "--format", "csv"])
        got = re.search(r"^empirical,(\S+)$", text, re.MULTILINE)
        check(got is not None, "gqbp expect hamming printed no empirical row")
        check_close(float(got.group(1)), self.ref_hamming[c], "CLI Hamming drift", TEXT_TOL)

    def op_distinguish(self, lib):
        report = lib.distinguishability_check(self.parity, self.yes, self.no)
        check(report.passed, "parity distinguishability report did not pass")
        check(report.pairs_checked == len(self.yes) * len(self.no), "pairs checked miscounted")
        check_close(report.min_distance, self.ref_min_distance, "minimum distance vs reference")


class Translate(Workload):
    name = "translate"
    block = 3
    N = 8
    SHAPES = {"q5": (2, 8, 4), "q6": (4, 4, 2)}   # s, L, pool size
    GROVER_N = 16
    GENERAL = (8, 4, 12, 3)                      # s, L, n, pool size

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = self.rng
        self.inputs = ref.all_bits(self.N)
        self.programs = {(kind, j): lib.random_rgqbp(s, length, self.N, int(rng.integers(2**31)))
                         for kind, (s, length, pool) in self.SHAPES.items()
                         for j in range(pool)}
        s, length, n, pool = self.GENERAL
        self.general = [lib.random_rgqbp(s, length, n, int(rng.integers(2**31)))
                        for _ in range(pool)]
        self.grover = lib.grover_promise_or(self.GROVER_N)
        g = self.GROVER_N
        self.grover_inputs = np.vstack([np.zeros((1, g), np.uint8), np.eye(g, dtype=np.uint8)])
        for c in range(self.SHAPES["q6"][2]):
            self.ops += [("translate", "q5", 2 * c), ("translate", "q6", c),
                         ("translate", "q5", 2 * c + 1)]
        self.shapes = {"B": len(self.inputs), "n": self.N, "interleave": "q5,q6,q5",
                       "q5": {"s": 2, "L": 8, "q": 5}, "q6": {"s": 4, "L": 4, "q": 6},
                       "grover_or_n": g, "general": {"s": s, "L": length, "n": n}}

    def compute_reference(self):
        self.ref = {key: ref.acceptance(p, ref.final_states(p, self.inputs))
                    for key, p in self.programs.items()}
        # Grover promise-OR: the all-zero input is rejected with certainty and
        # each one-hot input accepted with probability sin^2((2T+1) asin(1/sqrt n)).
        g = self.GROVER_N
        rounds = math.floor(math.pi / 4 * math.sqrt(g))
        hit = math.sin((2 * rounds + 1) * math.asin(1 / math.sqrt(g))) ** 2
        self.ref_grover = np.array([0.0] + [hit] * g)

    def op_translate(self, lib, kind, j):
        program = self.programs[(kind, j)]
        text = lib.serialize_program(program)
        parsed = lib.parse_program(text)
        check(lib.serialize_program(parsed) == text, "program re-serialisation differs")
        check(lib.validate_program(parsed).passed, "program validation failed")
        circuit = lib.rgqbp_to_circuit(parsed)
        ctext = lib.serialize_circuit(circuit)
        cparsed = lib.parse_circuit(ctext)
        check(lib.serialize_circuit(cparsed) == ctext, "circuit re-serialisation differs")
        check(lib.validate_circuit(cparsed).passed, "circuit validation failed")
        want = self.ref[(kind, j)]
        prog_acc = lib.acceptance_probabilities(parsed, self.inputs)
        check_close(prog_acc, want, "program acceptance vs reference")
        check_close(lib.circuit_acceptances(cparsed, self.inputs), prog_acc,
                    "circuit acceptance vs program acceptance")

        compiled = lib.circuit_to_rgqbp(self.grover)
        gtext = lib.serialize_program(compiled)
        gparsed = lib.parse_program(gtext)
        check(lib.serialize_program(gparsed) == gtext, "compiled program re-serialisation differs")
        check_close(lib.acceptance_probabilities(gparsed, self.grover_inputs), self.ref_grover,
                    "compiled promise-OR acceptance vs closed form")
        general = lib.generalize(self.general[j % len(self.general)])
        check(lib.validate_program(general).passed, "general program validation failed")


WORKLOADS = {w.name: w for w in (Sweep, Drift, Translate)}
