"""One workload process: set up, run seeded rounds of cases, check verdicts.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--max-rounds K] [--trace] [--setup-only]

Started by ``run.py``, never directly by users.  Prints a ``ready`` line with
its CLOCK_MONOTONIC time once the first case is ready (the parent turns it
into ``setup_s``), then one JSON line with the rounds it ran.  A round runs
the cases back to back through ``krspectra.cli.main``; rounds continue while
the next one is predicted to finish within ``--seconds`` of the first case.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import krspectra.cli  # noqa: F401 - also imports numpy through spectra

    where = Path(sys.modules["krspectra"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"krspectra imported from {where}, not from {src}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    rounds = workloads.rounds(args.workload, args.seed)[: args.max_rounds]
    recorded = json.loads((HERE / "digests.json").read_text())
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    done = []
    first = time.perf_counter()
    for cases in rounds:
        t_round = time.perf_counter()
        slowest = 0.0
        verdicts = 0
        failures = []
        for case in cases:
            t_case = time.perf_counter()
            for v in workloads.run_case(case):
                verdicts += 1
                why = v.why
                if v.ok:
                    want = recorded.get(v.key)
                    got = workloads.digest(v.fields)
                    if want is None:
                        v.ok, why = False, "no recorded digest"
                    elif want != got:
                        v.ok, why = False, f"digest {got} differs from recorded {want}"
                if not v.ok:
                    failures.append({"case": v.key, "why": why})
            slowest = max(slowest, time.perf_counter() - t_case)
        now = time.perf_counter()
        took = now - t_round
        done.append(
            {"seconds": took, "slowest_case_s": slowest, "verdicts": verdicts, "failures": failures}
        )
        if now - first + took > args.seconds:
            break

    import numpy

    out = {
        "rounds": done,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "trace": tracer.metrics() if tracer else None,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
