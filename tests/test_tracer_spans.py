"""The benchmark tracer patches named attributes of this package from outside.

perfbench/tracer.py replaces each SPANS target in its owner's own namespace,
so a refactor that moves or renames one would break `run.py --trace 1`, and
one that leaves a span a workload must reach with no call would fail it too.
The tracer and run.py are loaded by path; nothing is installed, and nothing
is patched in this process (the traced rounds run in worker processes).
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_is_in_its_owners_namespace():
    missing = []
    for name, mod_name, path in load_perfbench("tracer").SPANS:
        owner = importlib.import_module(f"krspectra.{mod_name}")
        attr = path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = vars(owner).get(cls_name)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append((name, mod_name, path))
    assert not missing


def test_diagonalization_attempt_is_a_module_function():
    spectra = importlib.import_module("krspectra.spectra")
    assert callable(vars(spectra).get("_joint_diagonalize_once"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_round_calls_every_covered_span(workload):
    # run.py --trace 1 in one call: two traced processes on round 0 of seed 1
    run = load_perfbench("run")
    _, records, problems, _ = run.run_traced(workload, 1, 34, time.monotonic() + run.DEADLINE_S)
    assert problems == []
    assert run.verdict_counts(records)[1] == []
