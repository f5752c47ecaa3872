"""Run a gqbp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a fresh Python process with BLAS pinned to one thread
and gqbp imported from this checkout's ``src``.  With ``--trace 0`` the run
reports the end-to-end metrics; ``setup_s`` is the median over several fresh
processes that each only set up.  With ``--trace 1`` the run reports the
per-layer metrics of a traced pass and writes its spans under
``perfbench/out``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the run could not
be made (no ``src/gqbp`` beside ``perfbench``, or a child process died).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "drift", "translate")
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 5
# Each workload process uses one BLAS thread, at most nproc on any machine.
BLAS_THREADS = "1"
# The whole run must end within this many seconds.
DEADLINE_S = 170
END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class RunError(Exception):
    """The benchmark could not run."""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child(args, workload: str, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: workload process passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{workload}: workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    main = child(args, workload, deadline)
    result = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "commit": git_commit(), "nproc": os.cpu_count(),
              "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              **main}
    if args.trace:
        result["metrics"] = dict(main["per_layer"])
        return result
    setups = [main]
    for _ in range(SETUP_SAMPLES - 1):
        extra = child(args, workload, deadline, setup_only=True)
        setups.append(extra)
        result["failed"] += extra["failed"]
        result["attempted"] += extra["attempted"]
        result["failures"] += extra["failures"]
    result["setup_samples"] = [{k: s[k] for k in ("setup_s", "setup_s_raw", "setup_slowdown")}
                               for s in setups]
    result["raw"]["setup_s"] = statistics.median(s["setup_s_raw"] for s in setups)
    result["metrics"] = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                         **{k: main[k] for k, _ in END_TO_END if k != "setup_s"}}
    return result


def report(result: dict, per_layer_units: dict) -> None:
    p = result["provenance"]
    print(f"== workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['timestamp']}")
    print(f"   commit {result['commit']}  python {p['python']}  numpy {p['numpy']}  "
          f"blas {p['blas']} ({p['blas_threads']} thread)  nproc {result['nproc']}")
    print(f"   shapes {json.dumps(result['shapes'])}")
    m = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if result["trace"]:
        ops = result["traced_ops"]
        print(f"   traced phase: {ops} ops, {result['traced_wall_s']:.3f} s "
              f"(untraced: same ops, {result['wall_s']:.3f} s); per-op values use "
              f"{ops} ops as base; times at the probe's reference speed (machine slowdown "
              f"{result['slowdown']['mean']:.2f}); time waited is zero by construction "
              "(one caller, no queues or threads); counts are computed from array shapes, "
              "no hardware counter or cache-miss data is read")
        for name, unit in per_layer_units.items():
            print(f"   {name:44s} {m[name]:14.6g} {unit}")
        layers = result["layers"]
        for layer in sorted(layers["calls"]):
            print(f"   {layer + '.calls':44s} {layers['calls'][layer]:14d} count")
            print(f"   {layer + '.errors':44s} {layers['errors'].get(layer, 0):14d} count")
        print(f"   spans written to {result['spans_file']}")
    else:
        ops = attempted - SETUP_SAMPLES
        raw = result["raw"]
        slow = result["slowdown"]
        print(f"   times at the probe's reference speed; raw = as measured, machine slowdown "
              f"{slow['min']:.2f}..{slow['max']:.2f} (median {slow['median']:.2f}, "
              f"{slow['probes']} probes)")
        print(f"   {'setup_s':12s} {m['setup_s']:12.6g} s     raw {raw['setup_s']:.6g}; median "
              f"of {SETUP_SAMPLES} set-ups in fresh processes")
        print(f"   {'ops_per_s':12s} {m['ops_per_s']:12.6g} op/s  raw {raw['ops_per_s']:.6g}; "
              f"{ops} ops in {result['wall_s']:.3f} s, closed loop, one caller")
        print(f"   {'op_p50_ms':12s} {m['op_p50_ms']:12.6g} ms    raw {raw['op_p50_ms']:.6g}; "
              f"median of {ops} ops")
        print(f"   {'op_tail_ms':12s} {m['op_tail_ms']:12.6g} ms    raw {raw['op_tail_ms']:.6g}; "
              f"p{result['tail_percentile']:.2f} of {ops} ops "
              f"({result['tail_ops_beyond']} ops beyond it)")
        print(f"   {'peak_rss_mb':12s} {m['peak_rss_mb']:12.6g} MB    ru_maxrss of the "
              "workload process")
    print(f"   {'fail_rate':12s} {failed / attempted:12.6g} ratio {failed} failed of "
          f"{attempted} attempted (ops, warm-up ops and set-up-only warm-ups)")
    for note in result["failures"]:
        print(f"   FAILED {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gqbp benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gqbp" / "__init__.py").is_file():
        print(f"error: no gqbp sources at {ROOT / 'src' / 'gqbp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from tracing import PER_LAYER  # noqa: E402 (needs numpy, so only after the check)

    units = {name: unit for name, unit, _ in PER_LAYER}
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(args, name, deadline)
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            report(result, units)
            results.append(result)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    unit_of = units if args.trace else dict(END_TO_END)
    prefix = len(results) > 1   # with --workload all, metric names carry the workload
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
               "failed": failed,
               "metrics": {(f"{r['workload']}." if prefix else "") + k:
                           {"value": v, "unit": unit_of[k]}
                           for r in results for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
