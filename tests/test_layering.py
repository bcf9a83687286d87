"""The stored format of `Mat` is known to one module: `krspectra.scalars`.

Every other module reads matrices through `Mat`'s operations, `m[i, j]`
and `rows`; none names the numerator fields or a helper of the integer view
that the stored format replaced.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "krspectra"

FIELDS = re.compile(r"[.\"'](den|nums)\b")
REMOVED = re.compile(r"\b(int_view|views_commute|_int_product)\b")


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
    # the patterns are not vacuous: scalars itself names both fields
    text = (SRC / "scalars.py").read_text()
    assert {m.group(1) for m in FIELDS.finditer(text)} == {"den", "nums"}
    assert not REMOVED.search(text)
