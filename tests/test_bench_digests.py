"""The cheapest recorded benchmark case of each Bethe, Gaudin and crystal kind,
and two of the exact kernel's heaviest, still reach their recorded verdicts.

perfbench/workloads.py runs a case and digests the fields that carry its
verdict; perfbench/digests.json holds the digest recorded for every case.
Both are loaded by path; nothing under perfbench/ is written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (test id, workload, case kind, text the case key must contain); each pick
# is the first such case of the workload's pools, negative controls included.
# The n=3 compare and the dim-27 gaudin commute cases guard the exact
# kernel's hottest paths, and the n=3 scan the route of a family that is not
# B(C) whole; the verify-rectangle digests cover the affine
# crystal fields views_pass_axioms, view1_normal and view0_isomorphic, and
# with verify-non-rectangular they pin promotion_order.
PICKS = [
    ("compare", "compare", "compare", "--n 2 --factors 1,1;1,1 --s-grid 3/2 "),
    ("compare-n3", "compare", "compare", "--n 3 --factors 1,1;1,2 --s-grid 1 "),
    ("scan", "spectra-scan", "scan", "--n 2 --factors 1,1;1,1 "),
    ("scan-n3", "spectra-scan", "scan", "--n 3 --factors 1,1;1,2 "),
    ("scan-refused", "spectra-scan", "scan-refused", "--n 2 --factors 1,1;1,1 "),
    ("gaudin-commute-dim27", "gaudin", "gaudin-commute", "--factors 2,1;2,1;2,1 "),
    ("gaudin-wall", "gaudin", "gaudin-wall", ""),
    ("gaudin-perturbed", "gaudin", "gaudin-perturbed", ""),
    ("tensor", "crystal", "tensor", "--n 4 --factors 1,1;1,1;2,1;2,3"),
    ("verify-rectangle", "crystal", "verify-rectangle", "--n 2 --lambda 1 --affine"),
    ("verify-rectangle-n5", "crystal", "verify-rectangle", "--n 5 --lambda 3,3 --affine"),
    (
        "verify-non-rectangular",
        "crystal",
        "verify-non-rectangular",
        "--n 5 --lambda 3,1,1 --affine",
    ),
]


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


@pytest.fixture(scope="module")
def recorded():
    return json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize(
    "workload,kind,text", [p[1:] for p in PICKS], ids=[p[0] for p in PICKS]
)
def test_verdict_and_digest_match_the_record(workloads, recorded, workload, kind, text):
    case = next(
        c for c in workloads.all_cases(workload) if c.kind == kind and text in c.key
    )
    verdicts = workloads.run_case(case)
    assert verdicts
    for v in verdicts:
        assert v.ok, (v.key, v.why)
        assert recorded[v.key] == workloads.digest(v.fields), v.key
