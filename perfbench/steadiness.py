"""Run each workload on several seeds and report how far each end-to-end
metric spreads between runs.

    python3 perfbench/steadiness.py --seeds 10 --workloads sweep drift translate

For every workload and metric, and for the raw (unscaled) times, it prints
the median, the quartiles (from ``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  The figures are written to ``perfbench/out/steadiness.json``.
Runs are sequential, one workload process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            saved = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json")
                               .read_text())
            runs[-1].update({f"{k}_raw": v for k, v in saved["raw"].items() if k in bounds})
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + "  ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        table[workload] = {}
        for name, bound in [*bounds.items(), *((f"{k}_raw", b) for k, b in bounds.items()
                                                if k != "peak_rss_mb")]:
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            table[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": bound, "values": values}
    print(f"\n{'workload':10s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, metrics in table.items():
        for name, m in metrics.items():
            flag = ("" if m["spread"] < m["bound"] / 3 or name.startswith("setup_s")
                    or name.endswith("_raw") else "  > bound/3")
            print(f"{workload:10s} {name:16s} {m['median']:12.6g} {m['q1']:12.6g} "
                  f"{m['q3']:12.6g} {m['spread']:8.4f} {m['bound']:6.2f}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
