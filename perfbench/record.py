"""Record the verdict digests of every case any seed can draw.

    python3 perfbench/record.py

Runs each case of every workload once, checks its verdict,
and writes the digest of its verdict-carrying fields to ``digests.json``.
Nothing is written if any verdict fails: a pool entry whose verdict is wrong
must be replaced, not recorded.  Re-record only when the benchmark's pools
change, never to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

import worker
from run import WORKER_ENV

PATH = worker.HERE / "digests.json"


def main():
    if any(os.environ.get(k) != v for k, v in WORKER_ENV.items()):
        # record under the same BLAS and hash-seed settings as the workers
        env = dict(os.environ, **WORKER_ENV)
        os.execve(sys.executable, [sys.executable, __file__], env)
    worker._import_program()
    import workloads

    recorded = {}
    bad = 0
    for name in workloads.WORKLOADS:
        for case in workloads.all_cases(name):
            t0 = time.perf_counter()
            verdicts = workloads.run_case(case)
            took = time.perf_counter() - t0
            for v in verdicts:
                if not v.ok:
                    bad += 1
                    print(f"FAIL {v.key}: {v.why}", flush=True)
                    continue
                recorded[v.key] = workloads.digest(v.fields)
            print(f"{took:8.3f}s {case.key}", flush=True)
    if bad:
        print(f"{bad} verdicts failed; digests.json left unchanged", file=sys.stderr)
        return 1
    tmp = PATH.with_suffix(".tmp")
    tmp.write_text(json.dumps(dict(sorted(recorded.items())), indent=1) + "\n")
    os.replace(tmp, PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
