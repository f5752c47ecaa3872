"""One workload run in a fresh process; started by run.py.

Prints one JSON object on stdout.  The set-up clock starts before numpy and
gqbp are imported and stops after one untimed warm-up op; the time spent
computing the benchmark's own references is not part of it.  Each time is
kept as measured ("raw") and divided by the machine slowdown the speed probe
saw next to it (see probe.py); the metrics are computed from the latter.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

# Ops whose failure messages are kept for the report.
MAX_FAILURE_NOTES = 5
# The tail latency is the one that exactly this many ops exceed.
TAIL_OPS_BEYOND = 10
# The speed probe runs between ops once this much time has passed since the
# last probe; its few ms are not part of any op's time.
PROBE_EVERY_S = 0.1


def run_ops(lib, workload, first, count, recorder=None):
    """Closed loop over ops first..first+count-1: the next op starts when the
    previous one returns.  Returns (latencies in ns, failure notes, failed)."""
    latencies, notes, failed = [], [], 0
    for i in range(first, first + count):
        t = time.perf_counter_ns()
        try:
            if recorder is None:
                workload.op(lib, i)
            else:
                with recorder.span("bench.op", i):
                    workload.op(lib, i)
        except Exception as e:  # an op that raises is a failed op; the loop goes on
            failed += 1
            notes.append(f"op {i}: {type(e).__name__}: {e}")
        latencies.append(time.perf_counter_ns() - t)
    return latencies, notes[:MAX_FAILURE_NOTES], failed


def latency_metrics(latencies_ms) -> dict:
    ms = np.sort(np.asarray(latencies_ms, dtype=float))
    count = len(ms)
    beyond = min(TAIL_OPS_BEYOND, count // 2)  # short runs: never below the median
    return {"ops_per_s": 1e3 * count / ms.sum(), "op_p50_ms": float(np.median(ms)),
            "op_tail_ms": float(ms[count - 1 - beyond]),
            "tail_percentile": 100.0 * (count - beyond) / count, "tail_ops_beyond": beyond}


def provenance():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["provenance"] = provenance()
    print(json.dumps(result))


def measure(args, workdir):
    api = workloads.load_api()
    recorder = tracing.Recorder() if args.trace else None
    lib = tracing.traced(api, recorder) if recorder else api
    notes = []
    with recorder.span("bench.setup", recorder.SETUP) if recorder else nullcontext():
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
        t = time.perf_counter()
        workload.compute_reference()
        reference_s = time.perf_counter() - t
        try:
            workload.op(lib, 0)
        except Exception as e:  # the warm-up op is checked like any other
            notes.append(f"warm-up op: {type(e).__name__}: {e}")
    setup_raw = time.perf_counter() - T0 - reference_s
    probe = SpeedProbe()
    setup_slowdown = float(probe.slowdown(probe()))
    result = {"setup_s": setup_raw / setup_slowdown, "setup_s_raw": setup_raw,
              "setup_slowdown": setup_slowdown, "shapes": workload.shapes, "attempted": 1}
    failed = len(notes)
    if not args.setup_only:
        if args.trace:
            ops, loop_failed, loop_notes = trace_run(args, workload, api, lib, recorder,
                                                     probe, result)
        else:
            ops, loop_failed, loop_notes = timed_run(args, workload, api, probe, result)
        result["attempted"] += ops
        failed += loop_failed
        notes += loop_notes
    result["failed"] = failed
    result["failures"] = notes[:MAX_FAILURE_NOTES]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def timed_run(args, workload, api, probe, result):
    """Whole blocks until the time is up, so every run has the same op mix."""
    lat, notes, failed = [], [], 0
    probes = [(0, probe())]
    start = last = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for _ in range(workload.block):
            op_lat, op_notes, op_failed = run_ops(api, workload, len(lat), 1)
            lat += op_lat
            notes += op_notes
            failed += op_failed
            if time.perf_counter() - last >= PROBE_EVERY_S:
                probes.append((len(lat), probe()))
                last = time.perf_counter()
    if probes[-1][0] != len(lat):
        probes.append((len(lat), probe()))
    raw = np.array(lat) / 1e6
    slowdown = probe.slowdowns(probes, len(lat))
    result.update(latency_metrics(raw / slowdown), raw=latency_metrics(raw),
                  wall_s=time.perf_counter() - start,
                  slowdown={"median": float(np.median(slowdown)), "min": float(slowdown.min()),
                            "max": float(slowdown.max()), "probes": len(probes)},
                  latencies_ms=[round(t, 4) for t in raw.tolist()],
                  slowdowns=[round(s, 4) for s in slowdown.tolist()])
    return len(lat), failed, notes


def trace_run(args, workload, api, lib, recorder, probe, result):
    """Each block runs untraced and traced, in alternating order, so the ratio
    of their summed wall times is the tracing overhead on the same ops."""
    notes, failed, walls = [], 0, [0.0, 0.0]
    probes = [probe()]
    start = last = time.perf_counter()
    first = 0
    phases = [(0, api, None), (1, lib, recorder)]
    while time.perf_counter() - start < args.seconds:
        for traced, phase_lib, rec in phases if first // workload.block % 2 else phases[::-1]:
            t = time.perf_counter()
            _lat, op_notes, op_failed = run_ops(phase_lib, workload, first, workload.block, rec)
            walls[traced] += time.perf_counter() - t
            notes += op_notes
            failed += op_failed
        first += workload.block
        if time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append(probe())
            last = time.perf_counter()
    slowdown = float(probe.slowdown(np.mean(probes)))
    values, layers = tracing.layer_metrics(recorder, first, slowdown)
    values["trace_overhead"] = walls[1] / walls[0] - 1.0
    spans = args.out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(spans)
    result.update(per_layer=values, layers=layers, traced_ops=first, wall_s=walls[0],
                  traced_wall_s=walls[1], spans_file=str(spans),
                  slowdown={"mean": slowdown, "probes": len(probes)})
    return 2 * first, failed, notes


if __name__ == "__main__":
    main()
