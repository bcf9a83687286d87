"""The stored format of `Mat` and `QQi` is known to one module: `krspectra.scalars`.

Every other module reads matrices through `Mat`'s operations and
`m[i, j]`, and scalars through `QQi`'s operations and its `re` and `im`;
none names the numerator fields or a helper of the integer view that the
stored format replaced.  No module names a second body of the
Taylor kernel (`_value_weights`, `_divmod_linear`) or a caller-side block
check (`require_blocks`, `.leak(`): the layout pass of `scalars` alone
checks that a matrix maps each block to itself.  No module, `scalars`
included, names a cancellation pass outside `RatFun.cancel`: a
`normalize=` or `binomial=` switch, `_vanishes_at` or `poly_divide_linear`.
No module names a per-tableau crystal operator (`e_op`, `f_op`,
`_signature_positions`): `tableaux.signature_rule` reads them all off arrays
of reading words, and the per-tableau rule is the tests' oracle.

The crystal layer (`tableaux`, `promotion`, `tensorcrystal`, `alcoves`,
`export`) imports nothing of the exact layer (`scalars`, `glrep`, `gaudin`,
`bethe`, `spectra`, `pipeline`), and `cli` imports the exact layer only in
the handlers that run it, so `crystal`, `tensor` and `alcove` never load it.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "krspectra"

CRYSTAL_LAYER = ("tableaux", "promotion", "tensorcrystal", "alcoves", "export")
EXACT_LAYER = ("scalars", "glrep", "gaudin", "bethe", "spectra", "pipeline")

FIELDS = re.compile(r"[.\"'](den|nums|_r|_s|_d)\b")
REMOVED = re.compile(
    r"\b(int_view|views_commute|_int_product|_value_weights|_divmod_linear|require_blocks)\b"
    r"|\.leak\("
)
PER_TABLEAU = re.compile(r"\b(e_op|f_op|_signature_positions)\b")
CANCELLATION = re.compile(r"\b(normalize|binomial)=(?!=)|\b(_vanishes_at|poly_divide_linear)\b")


def offending_lines(path):
    return [
        f"{path.name}:{k}: {line.strip()}"
        for k, line in enumerate(path.read_text().splitlines(), start=1)
        if FIELDS.search(line) or REMOVED.search(line)
    ]


def test_only_scalars_knows_the_stored_format():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    bad = [hit for path in modules if path.name != "scalars.py" for hit in offending_lines(path)]
    assert bad == []


def test_the_guard_sees_the_fields_where_they_live():
    # the patterns are not vacuous: scalars itself names every field
    text = (SRC / "scalars.py").read_text()
    assert {m.group(1) for m in FIELDS.finditer(text)} == {"den", "nums", "_r", "_s", "_d"}
    assert not REMOVED.search(text)


def test_the_guard_sees_a_second_taylor_body_or_a_caller_side_block_check():
    for line in (
        "_, terms = _value_weights(a, p)",
        "quot, rem = _divmod_linear(a, p)",
        "self.require_blocks(adjoints)",
        "leak = rep.weight_blocks.leak(m)",
    ):
        assert REMOVED.search(line), line
    # catching the layout pass's refusal is how callers name it
    assert not REMOVED.search("except BlockLeak as leak: raise Error(leak.entry)")


def test_no_module_cancels_poles_outside_cancel():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "scalars.py" for path in modules)
    lines = [
        (path.name, k, line.strip())
        for path in modules
        for k, line in enumerate(path.read_text().splitlines(), start=1)
    ]
    assert [hit for hit in lines if CANCELLATION.search(hit[2])] == []
    # the one call of `cancel`: where the factor minors are born
    calls = [hit for hit in lines if ".cancel(" in hit[2]]
    assert [(name, text) for name, _, text in calls] == [
        ("bethe.py", "table[I, J] = RatFun(det.num, poles).cancel()")
    ]


def test_the_guard_sees_a_cancellation_switch():
    for line in (
        "def __init__(self, num, poles=None, normalize=True):",
        "return RatFun(num, poles, normalize=False)",
        "while poles[p] > 0 and _vanishes_at(num, p):",
        "num = poly_divide_linear(num, p)",
        "for den, terms in _taylor_terms(a, p, ks, binomial=False)",
    ):
        assert CANCELLATION.search(line), line
    # the one cancellation, a binomial coefficient and a comparison are not
    for line in ("table[I, J] = RatFun(det.num, poles).cancel()", "w *= comb(j, k)",
                 "binomial = comb(n, k)", "if normalize==other:"):
        assert not CANCELLATION.search(line), line


def test_no_module_applies_an_operator_to_one_tableau():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "tableaux.py" for path in modules)
    bad = [
        f"{path.name}:{k}: {line.strip()}"
        for path in modules
        for k, line in enumerate(path.read_text().splitlines(), start=1)
        if PER_TABLEAU.search(line)
    ]
    assert bad == []


def test_the_guard_sees_a_per_tableau_operator():
    for line in ("u = f_op(i, t)", "closes, _ = _signature_positions(t, i)", "return e_op(i, t)"):
        assert PER_TABLEAU.search(line), line
    assert not PER_TABLEAU.search("E, F = signature_rule(words, n)")


def imported_modules(source):
    """(line, module) of each `krspectra` module a source imports, at any
    depth of the code, by its last dotted part."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [
                (node.lineno, a.name.split(".")[-1])
                for a in node.names
                if a.name.startswith("krspectra.")
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("krspectra"):
                continue
            if node.module in (None, "krspectra"):  # from . import x
                out += [(node.lineno, a.name) for a in node.names]
            else:
                out.append((node.lineno, node.module.split(".")[-1]))
    return out


def exact_imports(source):
    return [(line, name) for line, name in imported_modules(source) if name in EXACT_LAYER]


def test_no_crystal_module_imports_the_exact_layer():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert set(CRYSTAL_LAYER) | set(EXACT_LAYER) <= modules
    bad = [
        f"{name}.py:{line}: {target}"
        for name in CRYSTAL_LAYER
        for line, target in exact_imports((SRC / f"{name}.py").read_text())
    ]
    assert bad == []


def test_the_import_guard_sees_every_form_of_import():
    for source in (
        "from .scalars import QQi",
        "from . import pipeline",
        "from krspectra.bethe import bethe_family",
        "from krspectra import glrep",
        "import krspectra.spectra",
        "def f():\n    from .gaudin import GaudinConfig",
    ):
        assert exact_imports(source), source
    for source in (
        "from .tableaux import CrystalError",
        "from . import export",
        "import numpy as np",
        "from fractions import Fraction",
    ):
        assert not exact_imports(source), source


# Runs in a fresh interpreter: which modules a command loads depends on what
# the process imported before it.
LOADED_BY_COMMANDS = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from krspectra.cli import main

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("krspectra."))

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(list(argv))

    dot, graph = sys.argv[1:3]
    codes = [
        run("crystal", "build", "--n", "3", "--kr", "2,1"),
        run("crystal", "verify", "--n", "3", "--kr", "1,2", "--affine"),
        run("crystal", "export", "--n", "2", "--kr", "1,1", "--dot", dot, "--json-graph", graph),
        run("tensor", "--n", "2", "--factors", "1,1;1,1;2,1"),
        run("alcove", "classify", "--x", "1/2,1/5,0"),
    ]
    crystal_side = loaded()
    codes.append(run("compare", "--n", "2", "--factors", "1,1;1,1", "--s-grid", "1"))
    print(json.dumps({"codes": codes, "crystal_side": crystal_side, "after_compare": loaded()}))
    """
)


def test_crystal_commands_load_no_exact_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY_COMMANDS, str(tmp_path / "g.dot"), str(tmp_path / "g.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * 6
    exact = {f"krspectra.{name}" for name in EXACT_LAYER}
    assert exact.isdisjoint(got["crystal_side"])
    assert {f"krspectra.{name}" for name in CRYSTAL_LAYER} <= set(got["crystal_side"])
    # compare loads every exact module, so the first assertion can fail
    assert exact <= set(got["after_compare"])
