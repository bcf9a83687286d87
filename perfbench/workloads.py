"""Workload definitions: case pools, seeded rounds, verdict checks and digests.

Every case is one ``krspectra`` invocation through ``krspectra.cli.main(argv)``
or, for negative controls the CLI cannot express, one call into the public
library functions the CLI itself uses.  Each workload is a list of groups;
a group owns a fixed pool of cases and contributes ``per_round`` of them to
every round.  The seed only permutes the pools, so every case any seed can
draw has a digest recorded in ``digests.json``, and no case repeats within a
run.  ``ROUNDS`` bounds how many rounds one run can take.

The pools are written out explicitly (no random generator) so that they do
not depend on the Python version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

ROUNDS = 8

WORKLOADS = ("compare", "spectra-scan", "gaudin", "crystal")


class Case:
    """One verdict-producing unit of work.

    ``kind`` selects the runner and checker; ``argv`` is the CLI argument
    list; ``extra`` holds what a library-level negative control needs.
    """

    __slots__ = ("kind", "argv", "extra", "key")

    def __init__(self, kind, argv, extra=None):
        self.kind = kind
        self.argv = tuple(argv)
        self.extra = extra
        self.key = kind + ": " + " ".join(self.argv)
        if extra is not None:
            self.key += " | " + json.dumps(extra, sort_keys=True)


class Group:
    """A pool of cases, of which every round takes the next ``per_round``."""

    __slots__ = ("pool", "per_round")

    def __init__(self, pool, per_round=1):
        self.pool = pool
        self.per_round = per_round


# ---------------------------------------------------------------------------
# compare: the acceptance cases, each at a distinct scale s per round


COMPARE_S = ["1", "3/2", "2", "5/2", "3", "7/2", "4", "9/2"]

# (n, factors, factors of a different KR tensor crystal of the same dimension)
COMPARE_SHAPES = [
    (2, "1,1;1,1", "3,1"),
    (2, "1,1;1,1;1,1", "1,1;3,1"),
    (3, "1,1;1,2", "1,1;1,1"),
]


def _compare_groups():
    out = []
    for n, factors, wrong in COMPARE_SHAPES:
        pool = [
            Case(
                "compare",
                ["compare", "--n", str(n), "--factors", factors, "--s-grid", s],
                {"wrong_factors": wrong},
            )
            for s in COMPARE_S
        ]
        out.append(Group(pool))
    return out


# ---------------------------------------------------------------------------
# spectra-scan: three fresh scales per scan (the CLI's default grid size),
# disjoint across the pool


# the 24 rationals p/q in (0, 6] with q <= 3; tuple t takes every 8th from
# the t-th, so each tuple spans the range
SCAN_SCALES = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(1, 6 * q + 1)})

SCAN_SHAPES = [(3, "1,1;1,2"), (2, "1,1;1,1")]

# equal factors at s = 0 put two evaluation points on top of each other,
# which the program must refuse at every s of the grid
SCAN_DEGENERATE = [
    (2, "1,1;1,1"),
    (2, "2,1;2,1"),
    (2, "3,1;3,1"),
    (2, "1,1;1,1;1,1"),
    (3, "1,1;1,1"),
    (3, "1,2;1,2"),
    (3, "2,1;2,1"),
    (4, "1,1;1,1"),
]


def _spectra_groups():
    tuples = [SCAN_SCALES[t::ROUNDS] for t in range(ROUNDS)]
    out = []
    for n, factors in SCAN_SHAPES:
        pool = [
            Case(
                "scan",
                [
                    "spectra", "scan", "--n", str(n), "--factors", factors,
                    "--s-grid", ",".join(str(s) for s in tup),
                ],
            )
            for tup in tuples
        ]
        out.append(Group(pool))
    out.append(
        Group(
            [
                Case(
                    "scan-refused",
                    ["spectra", "scan", "--n", str(n), "--factors", f, "--s-grid", "0"],
                )
                for n, f in SCAN_DEGENERATE
            ],
        )
    )
    return out


# ---------------------------------------------------------------------------
# gaudin: rep dimensions 9 to 27, distinct small rational points and chi


def _variants(z, chi, count=ROUNDS):
    """`count` distinct (points, chi) pairs from one base pair.

    Reordering the points and the chi entries and negating both (u -> -u)
    keeps the rationals, so every variant costs about the same exact
    arithmetic and the seed does not change how much work a run does.
    """
    combos = [
        (tuple(sign * Fraction(x) for x in zp), tuple(sign * Fraction(c) for c in cp))
        for zp in sorted(set(permutations(z)))
        for cp in sorted(set(permutations(chi)))
        for sign in (1, -1)
    ]
    step = len(combos) / count
    picked = [combos[int(i * step)] for i in range(count)]
    return [(",".join(map(str, zp)), ",".join(map(str, cp))) for zp, cp in picked]


# (n, factors, base points, base chi); dims 9, 9, 9, 18, 27
GAUDIN_COMMUTE = [
    (2, "2,1;2,1", ("0", "1"), ("1/3", "-1/4")),
    (3, "1,1;1,1", ("0", "1"), ("1/3", "-1/4", "1/5")),
    (3, "1,1;1,2", ("0", "1"), ("1/3", "-1/4", "1/5")),
    (2, "1,1;2,1;2,1", ("0", "1", "3"), ("1/3", "-1/4")),
    (2, "2,1;2,1;2,1", ("0", "1", "3"), ("1/3", "-1/4")),
]


def _gaudin_argv(action, n, factors, z, chi):
    return ["gaudin", action, "--n", str(n), "--factors", factors, f"--z={z}", f"--chi={chi}"]


def _gaudin_groups():
    out = []
    for n, factors, z0, chi0 in GAUDIN_COMMUTE:
        pool = [
            Case("gaudin-commute", _gaudin_argv("commute", n, factors, z, chi))
            for z, chi in _variants(z0, chi0)
        ]
        out.append(Group(pool))
    # one coincident pair in chi: the subregular wall
    out.append(
        Group(
            [
                Case("gaudin-wall", _gaudin_argv("wall", 3, "1,1;1,1", z, chi))
                for z, chi in _variants(("0", "1"), ("1/3", "1/3", "1/5"))
            ],
        )
    )
    # distinct chi entries: `gaudin wall` must refuse them
    out.append(
        Group(
            [
                Case("gaudin-wall-refused", _gaudin_argv("wall", 3, "1,1;1,1", z, chi))
                for z, chi in _variants(("0", "2"), ("1/2", "1/7", "-2/3"))
            ],
        )
    )
    # one member of an exact residue family gets one exact extra entry
    out.append(
        Group(
            [
                Case(
                    "gaudin-perturbed",
                    [],
                    {
                        "n": 2, "factors": "1,1;1,1", "z": z, "chi": chi,
                        "member": m % 3, "entry": [m % 4, (m + 1) % 4],
                        "delta": "1/7",
                    },
                )
                for m, (z, chi) in enumerate(_variants(("0", "1"), ("1/3", "-1/4")))
            ],
        )
    )
    return out


# ---------------------------------------------------------------------------
# crystal: tensor products of 1,600 elements and up, the uniqueness grid,
# non-rectangular shapes, alcove classification


# (n, factor multiset): 1,600, 1,800, 1,944, 3,200, 4,800 and 6,400 elements;
# every round takes one ordering of each, so all rounds build the same sizes
TENSOR_MULTISETS = [
    (4, ["2,3", "2,1", "1,1", "1,1"]),
    (3, ["3,1", "3,2", "2,1", "1,1"]),
    (3, ["2,1", "2,1", "2,1", "1,1", "1,1"]),
    (4, ["2,2", "2,1", "1,1", "1,1"]),
    (4, ["1,2", "2,2", "1,1", "2,1"]),
    (4, ["2,1", "2,1", "1,1", "1,1", "1,1"]),
]

NON_RECTANGULAR = [
    (3, "2,1"), (3, "3,1"), (3, "3,2"), (4, "2,1"),
    (4, "2,1,1"), (4, "3,2,1"), (5, "2,2,1"), (5, "3,1,1"),
]


def _orderings(multiset, count=ROUNDS):
    """`count` distinct orderings of a factor multiset, spread over all of them."""
    orders = sorted(set(permutations(multiset)))
    step = len(orders) / count
    return [";".join(orders[int(i * step)]) for i in range(count)]


def _alcove_points(count):
    """Rational points in n = 2..4; every fifth lies on a wall."""
    out = []
    for i in range(count):
        n = 2 + i % 3
        coords = [
            Fraction((7 * i + 3 * m * m + 5 * m) % 23 - 11, 1 + (i + m) % 5)
            for m in range(n)
        ]
        if i % 5 == 4:
            coords[1] = coords[0] - 1
        out.append(",".join(str(c) for c in coords))
    return out


def _crystal_groups():
    tensors = [
        Group([Case("tensor", ["tensor", "--n", str(n), "--factors", f]) for f in _orderings(ms)])
        for n, ms in TENSOR_MULTISETS
    ]
    rectangles = [
        Case(
            "verify-rectangle",
            ["crystal", "verify", "--n", str(n), "--lambda", ",".join([str(l)] * r), "--affine"],
        )
        for n in range(2, 6)
        for r in range(1, n + 1)
        for l in range(1, 4)
    ]
    shapes = [
        Case("verify-non-rectangular", ["crystal", "verify", "--n", str(n), "--lambda", lam, "--affine"])
        for n, lam in NON_RECTANGULAR
    ]
    points = [Case("alcove", ["alcove", "classify", f"--x={x}"]) for x in _alcove_points(5 * ROUNDS)]
    return tensors + [
        Group(rectangles, 5),
        Group(shapes, 1),
        Group(points, 5),
    ]


GROUPS = {
    "compare": _compare_groups,
    "spectra-scan": _spectra_groups,
    "gaudin": _gaudin_groups,
    "crystal": _crystal_groups,
}


def groups(workload):
    out = GROUPS[workload]()
    keys = [c.key for g in out for c in g.pool]
    if len(set(keys)) != len(keys):
        raise ValueError(f"workload {workload} repeats a case")
    return out


def all_cases(workload):
    return [c for g in groups(workload) for c in g.pool]


def rounds(workload, seed):
    """The seeded rounds of one run; round r takes the r-th slice of each pool."""
    rng = random.Random(f"{workload}/{seed}")
    gs = groups(workload)
    perms = []
    for g in gs:
        order = list(range(len(g.pool)))
        rng.shuffle(order)
        perms.append(order)
    count = min(len(g.pool) // g.per_round for g in gs)
    out = []
    for r in range(count):
        cases = []
        for g, order in zip(gs, perms):
            for idx in order[r * g.per_round:(r + 1) * g.per_round]:
                cases.append(g.pool[idx])
        out.append(cases)
    return out


# ---------------------------------------------------------------------------
# running and checking


def digest(fields):
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _cli(argv):
    from krspectra import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as stop:  # argparse rejects bad usage this way
            rc = stop.code
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    return rc, report, err.getvalue()


class Verdict:
    """One checked outcome: its digest key, whether the check held, and why not."""

    __slots__ = ("key", "ok", "fields", "why")

    def __init__(self, key, ok, fields, why=""):
        self.key = key
        self.ok = ok
        self.fields = fields
        self.why = why


def _expect(case, rc, report, want_rc, fields_of, extra_ok=True, why=""):
    if rc != want_rc:
        return Verdict(case.key, False, None, f"exit code {rc}, expected {want_rc}")
    if report is None:
        return Verdict(case.key, False, None, "no report")
    return Verdict(case.key, bool(extra_ok), fields_of(report), "" if extra_ok else why)


def _string_stats(pairs):
    return Counter({(ln, tuple(w)): c for (ln, w), c in pairs})


def _run_compare(case):
    from krspectra import promotion, spectra, tensorcrystal
    from krspectra.cli import parse_factors

    rc, report, _ = _cli(case.argv)
    main = _expect(
        case, rc, report, 0,
        lambda r: {
            "all_match": r["all_match"],
            "weights_match": r["weights_match"],
            "simple": r["simple"],
            "per_wall": r["per_wall"],
        },
        extra_ok=report and report.get("passed") and report.get("all_match"),
        why="compare did not pass",
    )
    # negative control: the same spectral statistics must not match the KR
    # tensor crystal of a different factor list of the same dimension
    key = case.key + " #wrong-crystal"
    if not main.ok:
        return [main, Verdict(key, False, None, "no spectral statistics")]
    n = int(case.argv[case.argv.index("--n") + 1])
    stats = {int(j): _string_stats(w["spectral"]) for j, w in report["per_wall"].items()}
    wrong = tensorcrystal.tensor_many(
        [promotion.build_kr(n, l, r) for l, r in parse_factors(case.extra["wrong_factors"])]
    )
    got = spectra.compare_with_crystal(stats, wrong)
    control = Verdict(
        key,
        not got["all_match"],
        {"all_match": got["all_match"], "match": {j: v["match"] for j, v in got["per_wall"].items()}},
        "statistics matched the wrong crystal",
    )
    return [main, control]


def _scan_fields(r):
    return {
        "rows": [[row["s"], row["simple"], "error" in row] for row in r["rows"]],
        "first_simple_s": r["first_simple_s"],
    }


def _run_scan(case):
    rc, report, _ = _cli(case.argv)
    return [_expect(case, rc, report, 0, _scan_fields, extra_ok=report and report.get("passed"))]


def _run_scan_refused(case):
    rc, report, _ = _cli(case.argv)
    ok = report is not None and report.get("first_simple_s") is None
    return [_expect(case, rc, report, 1, _scan_fields, extra_ok=ok, why="degenerate scan accepted")]


def _family_fields(r):
    return {
        "generator_count": r["generator_count"],
        "span_rank": r["span_rank"],
        "max_pole_multiplicity": r["max_pole_multiplicity"],
        "tags": r["tags"],
        "invariance": r.get("invariance", {}).get("passed"),
    }


def _run_gaudin(case):
    rc, report, _ = _cli(case.argv)
    return [_expect(case, rc, report, 0, _family_fields, extra_ok=report and report.get("passed"))]


def _run_gaudin_refused(case):
    rc, _, err = _cli(case.argv)
    ok = rc == 1 and "GaudinError" in err
    return [Verdict(case.key, ok, {"rc": rc, "error": "GaudinError"}, "regular chi accepted as a wall")]


def _run_gaudin_perturbed(case):
    from krspectra import cli, gaudin
    from krspectra.scalars import Mat, QQi

    x = case.extra
    cfg = cli.build_config_from_opts({k: x[k] for k in ("n", "factors", "z", "chi")})
    members = gaudin.residue_generators(cfg).members()
    tag, g = members[x["member"]]
    i, j = x["entry"]
    members[x["member"]] = (tag, g + Mat.unit(g.nr, g.nc, i, j, QQi(Fraction(x["delta"]))))
    try:
        gaudin.CommutingFamily(members, cfg, "gaudin-perturbed")
    except gaudin.GaudinError:
        return [Verdict(case.key, True, {"raised": "GaudinError"})]
    return [Verdict(case.key, False, None, "perturbed family accepted as commuting")]


def _run_tensor(case):
    rc, report, _ = _cli(case.argv)
    return [
        _expect(
            case, rc, report, 0,
            lambda r: {"size": r["size"], "string_statistics": r["string_statistics"]},
            extra_ok=report and report.get("size", 0) >= 1600,
            why="product smaller than 1,600 elements",
        )
    ]


def _verify_fields(r):
    # the verdict, not the wording of `reason` and `note`
    return {k: v for k, v in r.items() if k not in ("config", "reason", "note")}


def _run_verify_rectangle(case):
    rc, report, _ = _cli(case.argv)
    ok = report is not None and report.get("passed") and report.get("extendable")
    return [_expect(case, rc, report, 0, _verify_fields, extra_ok=ok, why="rectangle not certified")]


def _run_verify_non_rectangular(case):
    rc, report, _ = _cli(case.argv)
    ok = report is not None and report.get("extendable") is False
    return [_expect(case, rc, report, 0, _verify_fields, extra_ok=ok, why="reported extendable")]


def _run_alcove(case):
    rc, report, _ = _cli(case.argv)
    return [
        _expect(
            case, rc, report, 0,
            lambda r: {k: v for k, v in r.items() if k != "config"},
            extra_ok=report and report.get("passed"),
        )
    ]


RUNNERS = {
    "compare": _run_compare,
    "scan": _run_scan,
    "scan-refused": _run_scan_refused,
    "gaudin-commute": _run_gaudin,
    "gaudin-wall": _run_gaudin,
    "gaudin-wall-refused": _run_gaudin_refused,
    "gaudin-perturbed": _run_gaudin_perturbed,
    "tensor": _run_tensor,
    "verify-rectangle": _run_verify_rectangle,
    "verify-non-rectangular": _run_verify_non_rectangular,
    "alcove": _run_alcove,
}


def run_case(case):
    """Run one case; every exception counts as a failed verdict."""
    try:
        return RUNNERS[case.kind](case)
    except Exception as err:  # noqa: BLE001 - a raised case is a failed case
        return [Verdict(case.key, False, None, f"raised {type(err).__name__}: {err}")]
