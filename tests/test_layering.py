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
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "krspectra"

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
