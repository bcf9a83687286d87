"""Every definition of the package is named somewhere outside its own
definition, and somewhere outside the tests.

A top-level function, class or constant of `src/krspectra`, or a method that
is not a dunder, is dead when no module of the package, the tests or the
benchmark harness names it.  A name counts when it is loaded, read as an
attribute, imported, or written in a string other than a docstring: the
benchmark tracer names the spans it times by strings such as
"BetheFamily.verify_commuting".  A definition that only the tests name is an
oracle, and oracles live in `tests/oracles.py`, not in the package.  The scan
goes by name, so a definition that shares its name with one the package
reads (a method `apply` or `trace`, say) escapes it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "krspectra").glob("*.py"))
PRODUCTION = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
READERS = PRODUCTION + sorted((ROOT / "tests").glob("*.py"))

def definitions(tree):
    """(line, name) of each top-level function, class and constant, and of
    each method that is not a dunder."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign):
            out += [(node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return [(line, name) for line, name in out if not name.startswith("__")]


def named(tree):
    """Every name a module mentions outside the definitions themselves."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                docstrings.add(id(body[0].value))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def dead_definitions(defining, readers):
    """(module, line, name) of each definition in `defining`, a map from module
    names to source texts, that no source text in `readers` names."""
    seen = set()
    for source in readers:
        seen |= named(ast.parse(source))
    return sorted(
        (module, line, name)
        for module, source in defining.items()
        for line, name in definitions(ast.parse(source))
        if name not in seen
    )


def test_no_dead_definition():
    assert len(PACKAGE) > 10
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert dead_definitions(defining, [p.read_text() for p in READERS]) == []


def test_the_guard_sees_a_dead_definition():
    source = (
        '"""LIMIT in a docstring does not count."""\n'
        "LIMIT = 3\n"
        "USED = 4\n"
        "def helper():\n"
        "    return USED\n"
        "def spanned():\n"
        "    pass\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def read(self):\n"
        "        return self.unread\n"
        "    def unread(self):\n"
        "        return helper()\n"
        "    def stale(self):\n"
        '        """Box.stale names itself only here."""\n'
    )
    tracer = 'SPANS = [("mod.spanned", "spanned")]\nBox\n'
    assert dead_definitions({"mod": source}, [source, tracer]) == [
        ("mod", 2, "LIMIT"),
        ("mod", 11, "read"),
        ("mod", 15, "stale"),
    ]


def test_no_definition_only_tests_reach():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    found = dead_definitions(defining, [p.read_text() for p in PRODUCTION])
    assert found == []


def test_the_guard_sees_a_definition_only_tests_reach():
    package = (
        "def production():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def oracle():\n"
        "    return 2\n"
    )
    tracer = 'SPANS = [("mod.production", "mod", "production")]\n'
    test = "from mod import oracle\nassert oracle() == 2\n"
    assert dead_definitions({"mod": package}, [package, tracer]) == [("mod", 5, "oracle")]
    assert dead_definitions({"mod": package}, [package, tracer, test]) == []
