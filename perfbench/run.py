"""krspectra benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` with no install step.  Workloads and metrics are declared in
``BENCHMARK.json``; the cases are in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with tracing off: three
set-up-only processes before the measuring process, three after it, and the
measuring process itself give the median ``setup_s``;
the measuring process runs seeded rounds for about ``--seconds`` and gives the
median round time ``run_s``, the median over rounds of the slowest case
``slowest_case_s``, and its peak resident memory ``peak_rss_mb``.

``--trace 1`` runs round 0 of the seed in two traced processes, one after
the other.  It reports the per-layer metrics of the first, including its
round time and its tracing overhead (see ``tracer.py``), and fails if the
exact counts differ between the two processes or a span this workload must
reach recorded no call.

Every process pins BLAS to one thread and uses a fixed hash seed.  Each
verdict is checked, including its digest against ``digests.json``; a wrong,
missing or raised verdict counts in ``failed``.  The second-to-last line of
output is the run's provenance; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 3  # on each side of the measuring process
DEADLINE_S = 170

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Spans that must record calls on each workload in the traced run; the
# layers a workload bypasses are left out (see BENCHMARK.json `workloads`).
COVERAGE = {
    "compare": [
        "scalars.mat_mul", "scalars.ratfun_new", "scalars.ratfun_eval",
        "scalars.residue", "glrep.build", "bethe.ev_t_grid",
        "bethe.tau_ratfun", "bethe.family", "bethe.verify", "spectra.diag",
        "spectra.strings", "pipeline.compare", "promotion.build_kr",
        "tableaux.build_crystal", "tensorcrystal.tensor",
        "tensorcrystal.string_statistics", "cli.main",
    ],
    "spectra-scan": [
        "scalars.mat_mul", "scalars.ratfun_new", "scalars.ratfun_eval",
        "scalars.residue", "glrep.build", "bethe.ev_t_grid",
        "bethe.tau_ratfun", "bethe.family", "bethe.verify", "spectra.diag",
        "cli.main",
    ],
    "gaudin": [
        "scalars.mat_mul", "scalars.ratfun_new", "scalars.ratfun_eval",
        "scalars.residue", "scalars.cdet", "scalars.span_rank", "glrep.build",
        "gaudin.cdet", "gaudin.residues", "gaudin.verify", "gaudin.invariance",
        "cli.main",
    ],
    "crystal": [
        "tableaux.build_crystal", "promotion.build_kr",
        "promotion.verify_uniqueness", "tensorcrystal.tensor",
        "tensorcrystal.string_statistics", "alcoves.classify", "cli.main",
    ],
}


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update(WORKER_ENV)
    return env


def spawn(args, deadline):
    """Run one worker to completion; return (ready_s, final record)."""
    cmd = [sys.executable, str(WORKER)] + [str(a) for a in args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise BenchError("worker printed no ready line")
    if "--setup-only" not in args and len(lines) < 2:
        raise BenchError("worker printed no result")
    return lines[0]["ready"] - t0, lines[-1]


def verdict_counts(records):
    attempted = sum(r["verdicts"] for rec in records for r in rec["rounds"])
    failures = [f for rec in records for r in rec["rounds"] for f in r["failures"]]
    return attempted, failures


def run_untraced(workload, seed, seconds, deadline):
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds]
    # set-up probes before and after the measuring process, so that the
    # median spans the whole run
    setups = [spawn(args + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    ready, rec = spawn(args, deadline)
    setups.append(ready)
    setups += [spawn(args + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    rounds = rec["rounds"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["seconds"] for r in rounds),
        "slowest_case_s": statistics.median(r["slowest_case_s"] for r in rounds),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024,
    }
    info = {
        "numpy": rec["numpy"],
        "round_s": [r["seconds"] for r in rounds],
        "setup_samples": setups,
    }
    return metrics, [rec], [], info


def run_traced(workload, seed, seconds, deadline):
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--max-rounds", 1, "--trace"]
    _, first = spawn(args, deadline)
    _, second = spawn(args, deadline)
    a, b = first["trace"], second["trace"]
    problems = []
    for name, value in a.items():
        # every metric not ending in _s is an exact count or a ratio of counts
        if not name.endswith("_s") and b.get(name) != value:
            problems.append(f"count {name} differs between traced runs: {value} vs {b.get(name)}")
    for span in COVERAGE[workload]:
        if not a.get(f"{span}.calls"):
            problems.append(f"span {span} recorded no call on workload {workload}")
    metrics = dict(a)
    metrics["trace.run_s"] = first["rounds"][0]["seconds"]
    info = {"numpy": first["numpy"]}
    return metrics, [first, second], problems, info


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:20]


def git_sha():
    """HEAD of the checkout's own repository, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "krspectra" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a krspectra checkout (src/krspectra and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "worker_env": WORKER_ENV,
    }
    run = run_traced if args.trace else run_untraced
    try:
        values, records, problems, info = run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    provenance.update(info)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted, failures = verdict_counts(records)
    for f in failures:
        print(f"failed: {f['case']}: {f['why']}", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
