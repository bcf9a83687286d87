"""The benchmark tracer patches named attributes of this package from outside.

perfbench/tracer.py replaces each SPANS target in its owner's own namespace,
so a refactor that moves or renames one would break `run.py --trace 1`.
The tracer is loaded by path; nothing is installed and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_is_in_its_owners_namespace():
    missing = []
    for name, mod_name, path in load_tracer().SPANS:
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
