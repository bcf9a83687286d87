"""No module of the package or of its tests imports a name it never reads.

No linter runs on this repository, so this guard parses each module and
compares the names its imports bind with the names it loads anywhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "krspectra").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source):
    """(line, name) of each name an import binds and the module never loads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for line, name in bound if name not in loaded)


def test_no_unused_import():
    assert len(MODULES) > 20
    bad = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert bad == []


def test_the_guard_sees_an_unused_import():
    source = (
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    return gcd(1, 2)\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "js"), (3, "lcm"), (5, "Fraction")]
    assert unused_imports("import os\nos.sep\n") == []
