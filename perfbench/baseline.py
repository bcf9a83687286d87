"""Run every workload over seeds 1 to 10 and summarize into BASELINE.json.

    python3 perfbench/baseline.py

For each workload: one ``run.py --trace 0`` per seed, one after another, then
one ``run.py --trace 1`` on the first seed.  Prints each end-to-end metric's
median, quartiles and spread (interquartile range over median) and writes
them, the per-layer metrics and every run's provenance to
``perfbench/BASELINE.json``.  Any run that fails a verdict or a trace check
fails the whole command.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
OUT = HERE / "BASELINE.json"


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            prov, result = run_once(workload, seed, seconds, 0)
            runs.append({"provenance": prov, "result": result})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {vals}", flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            s = summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            end_to_end[m["name"]] = s
            print(
                f"  {m['name']:15s} median {s['median']:.4g} {m['unit']}  "
                f"spread {s['spread']:.3f} (bound {m['bound']})",
                flush=True,
            )
        prov, traced = run_once(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "provenance": [r["provenance"] for r in runs] + [prov],
        }
        print(
            f"  traced: overhead {traced['metrics']['trace.overhead_s']['value']:.3f} s "
            f"of a {traced['metrics']['trace.run_s']['value']:.3f} s traced round",
            flush=True,
        )
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
