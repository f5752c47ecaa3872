"""A fixed slice of work that measures how fast the machine runs right now.

On a shared machine (a cloud VM, a CI sandbox) other tenants' load slows
every instruction stream, by up to about 2x on a 2-vCPU Xeon VM, in stretches
of a few seconds to minutes.  An op's wall time is therefore divided by the
slowdown the probe saw next to it, which rescales it to the machine speed at
which the probe takes ``REFERENCE_MS``.  The probe mixes the three kinds of
work the workloads do (a batched BLAS evolution, per-input small-array numpy,
and JSON text of complex matrices), runs only this benchmark's own code, and
never calls gqbp, so no change to gqbp can change what it measures.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np

import reference as ref

# The probe's time on an idle 2-vCPU Intel Xeon (AVX-512) VM with one BLAS
# thread: the minimum over some 3000 probes.
REFERENCE_MS = 1.2
# Op times grow more slowly than the probe's under contention: the probe is
# small and cache-resident, while ops also spend time in memory-bound work
# that a busy neighbour slows less.  Over 30 runs (10 seeds of each workload)
# the raw median op time grew as the probe's slowdown to the power 0.58-0.61
# on all three workloads; 0.7 gave the smallest run-to-run spread of the
# scaled metrics over those runs.
SENSITIVITY = 0.7


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)

        def unitary(s):
            return np.linalg.qr(rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)))[0]

        self.states = rng.normal(size=(256, 32)) + 0j
        self.levels = [(unitary(32), np.exp(1j * rng.uniform(0, 6, size=32))) for _ in range(4)]
        levels = [SimpleNamespace(labels=rng.integers(0, 12, size=8), base=unitary(8),
                                  thetas=rng.uniform(0, 6, size=8)) for _ in range(16)]
        self.program = SimpleNamespace(initial=unitary(8)[:, 0], levels=levels, length=16)
        self.x = rng.integers(0, 2, size=12).astype(np.uint8)
        self.y = self.x ^ (np.arange(12) == 3)
        self.matrix = unitary(16)

    def work(self) -> None:
        states = self.states
        for base, phases in self.levels:
            states = (states * phases) @ base.T
        ref.telescoped(self.program, self.x, self.y)
        text = json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in self.matrix])
        np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])

    def __call__(self) -> float:
        """The probe's time in ms: the fastest of three back-to-back runs."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter_ns()
            self.work()
            best = min(best, time.perf_counter_ns() - start)
        return best / 1e6

    @staticmethod
    def slowdown(probe_ms):
        """How much slower ops run than at the reference speed, from probe times."""
        return (np.asarray(probe_ms) / REFERENCE_MS) ** SENSITIVITY

    def slowdowns(self, probes: list[tuple[int, float]], ops: int) -> np.ndarray:
        """Per op, the slowdown from the mean of the probes just before and
        just after it.

        ``probes`` holds (ops done before the probe, probe ms), with a probe
        before the first op and after the last.
        """
        at = np.array([count for count, _ in probes])
        ms = np.array([value for _, value in probes])
        i = np.arange(ops)
        before = ms[np.searchsorted(at, i, side="right") - 1]
        after = ms[np.searchsorted(at, i + 1, side="left")]
        return self.slowdown((before + after) / 2)
