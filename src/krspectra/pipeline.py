"""End-to-end comparison: KR tensor crystals against wall-family spectra.

At wall 1 of the base alcove, the evaluated Bethe family of the lowest tau
orders whose strings are clean, at that wall's torus element
(`bethe.standard_torus(n, 1)`), is diagonalized, and its h-strings, read on
the coset chains of the wall pair with h taken from the lines' weights, are
those of B(C).  The affine Dynkin rotation P maps wall 1 to wall j by
P^(j-1), and conjugation by Delta(P) maps B(C) to B(P C P^-1) member by
member, so wall j's string statistics are wall 1's with every source weight
rotated (`bethe.rotate_weight`).  Each wall's statistics are compared with
the combinatorial string statistics of the matching residue class.  At the
regular element (`bethe.standard_torus(n)`), `compare` and `spectra scan`
diagonalize the family of the lowest tau orders whose spectrum is simple,
B(C) only when no lower family is (`regular_spectrum`); every search runs
through `lowest_orders`.  The families hold only the tau members:
every member keeps each weight space, so weights, h and coset chains come
exactly from the weight blocks, and `compare`'s weight verdict reads the
rep's weight basis, with no spectrum.  Evaluation points are
d_j + i s y_j with the real shifts d_j = (l_j - r_j - n)/2 the normality
condition demands.  Every configuration, of `compare`, of the
simplicity scan and of the CLI's other commands, is built by
`located_config` on the reps of `kr_rep`, which are built once per process:
every slot and configuration on one factor shares one read-only rep, and so
one quantum-minor table of each order (`bethe.quantum_minors`), built when
a family first asks for that order.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from .bethe import bethe_family, rotate_weight, standard_torus, wall_pair
from .gaudin import GaudinConfig
from .glrep import RepError, build_defining, build_irrep, build_tensor
from .promotion import kr_tensor_crystal
from .scalars import QQi
from .spectra import (
    SpectraError,
    compare_with_crystal,
    joint_diagonalize,
    wall_strings,
    weight_multiset_matches,
)


@cache
def kr_rep(n, l, r):
    """V_{l w_r}, built once per process; callers must not change it."""
    if l == 1 and r == 1:
        return build_defining(n)
    return build_irrep(n, l, r)


def default_shift(n, l, r):
    """Re(z) = (l - r - n)/2, the normality shift for the factor V_{l w_r}.

    In this package's evaluation normalization (T(u) = 1 + E/(u - z)) the
    spectral parameter runs at half the scale of the usual KR-module
    convention, so the real shifts are halved; only differences of shifts
    matter because the whole family is translation invariant.  Verified by
    the exact normality checks in the test suite.
    """
    return Fraction(l - r - n, 2)


def spectral_points(n, factors, s):
    """(point, shift) per factor (l, r) of k: the point d_j + i s 4^(k-1-j) at the shift d_j."""
    k, s = len(factors), Fraction(s)
    return [
        (QQi(d, s * 4 ** (k - 1 - j)), QQi(d))
        for j, d in enumerate(default_shift(n, l, r) for l, r in factors)
    ]


def located_config(n, factors, located, chi):
    """The tensor rep of KR factors (l, r) at their (point, shift) pairs
    `located`, with the diagonal chi."""
    parts = [(kr_rep(n, l, r), z, d) for (l, r), (z, d) in zip(factors, located)]
    return GaudinConfig(build_tensor(parts), chi)


def build_spectral_config(n, factors, s):
    """KR factors (l, r) at the points of `spectral_points` at scale s, chi = 0."""
    return located_config(n, factors, spectral_points(n, factors, s), (0,) * n)


def lowest_orders(C, cfg, read):
    """The family of the lowest tau orders at C that `read` takes, each
    family verified exactly first.

    The tries are the orders (1,), (1, 2), ..., (1, ..., n); each adds the
    next order's members to the last family's.  `read(family)` returns
    (value, reason): a reason of None takes the try, a text gives it up,
    and so does a `SpectraError`, by its text.  The last try is B(C)
    itself, taken whatever it reads.  Returns (value, orders, given_up,
    error): the orders of the try taken, each order given up (by its text)
    with its reason, and the `SpectraError` of B(C) when the last try
    raised one, with value None.
    """
    n = cfg.n
    fam, given_up = None, {}
    for a in range(1, n + 1):
        fam = bethe_family(C, cfg, (a,), fam)
        try:
            value, reason = read(fam)
        except SpectraError as err:
            if a == n:
                return None, list(range(1, n + 1)), given_up, err
            reason = str(err)
        if reason is None or a == n:
            return value, list(range(1, a + 1)), given_up, None
        given_up[str(a)] = reason


def spectral_wall_statistics(cfg, j):
    """h-strings at wall j, from the family of the lowest tau orders whose
    strings are clean (`lowest_orders` at `standard_torus(n, j)`).

    A try gives up on a `SpectraError` or on broken strings.  A clean try's
    lines are B(C)'s, by Schur: B(C) commutes with it and it is simple on
    every weight space, and the wall's sl_2 keeps B(C)'s values constant
    along a string.  So its strings are those of B(C).  B(C)'s strings are
    returned clean or not, and its `SpectraError` is raised.  The strings'
    diagnostics name the orders taken ("orders") and each order given up,
    by its text, with its reason ("given_up").
    """
    pair = wall_pair(cfg.n, j)

    def read(fam):
        strings = wall_strings(fam.gens, cfg.rep, pair)
        failures = strings.diagnostics["failures"]
        return strings, None if strings.ok() else f"broken strings: {failures}"

    strings, orders, given_up, err = lowest_orders(standard_torus(cfg.n, j), cfg, read)
    if err is not None:
        raise err
    strings.diagnostics.update(orders=orders, given_up=given_up)
    return strings


# the scales `compare` tries when none are given, in this order
S_GRID = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))
# the scales `spectra scan` tries when none are given
SCAN_S_GRID = (1, 2, 3)


def regular_spectrum(cfg):
    """The joint spectrum of the family of the lowest tau orders whose
    spectrum is simple at the regular element (`lowest_orders` at
    `standard_torus(n)`).

    A subfamily of B(C) that is simple has B(C)'s lines, and B(C), a
    superset of its members, separates them too, so a simple try is simple
    for B(C) as well.  A try that is not simple is given up as "not simple
    (gap ...)"; the last try is B(C) itself, taken simple or not.  Returns
    what `lowest_orders` returns: (spectrum, orders, given_up, error).
    """

    def read(fam):
        spec = joint_diagonalize(fam.gens, cfg.rep)
        return spec, None if spec.is_simple() else f"not simple (gap {spec.min_separation:.3e})"

    return lowest_orders(standard_torus(cfg.n), cfg, read)


def scan_simple_spectrum(n, factors, s_grid):
    """Simplicity verdict at the regular element over the scales of s_grid.

    At each s the family diagonalized is that of `regular_spectrum`, the
    lowest tau orders whose spectrum is simple; a row that is simple is
    simple for B(C) as well.  Each row names the orders of the family taken
    ("orders") and each lower order given up with its reason ("given_up":
    "not simple (gap ...)" or a `SpectraError` text); "min_gap" is the
    least gap of that family between two lines of one weight block, and
    None when no block holds two lines.  A `SpectraError` of B(C), or a
    configuration that `glrep.RepError` refuses (no family is built then,
    and "orders" is empty), is a row that is not simple, with the error;
    any other error ends the scan.  The report gives the first s of the
    grid whose spectrum is simple and keeps that s's JointSpectrum under
    "spectrum" (None if no s is simple; it is not JSON).  A finer scan is a
    second call with a finer grid.
    """
    rows = []
    threshold = first_spec = None
    for s in s_grid:
        row = {"s": str(s)}
        try:
            cfg = build_spectral_config(n, factors, s)
        except RepError as err:
            row.update(simple=False, error=str(err), orders=[], given_up={})
        else:
            spec, orders, given_up, err = regular_spectrum(cfg)
            if err is None:
                gap = spec.min_separation if math.isfinite(spec.min_separation) else None
                row.update(simple=bool(spec.is_simple()), min_gap=gap)
            else:
                row.update(simple=False, error=str(err))
            row.update(orders=orders, given_up=given_up)
        rows.append(row)
        if threshold is None and row["simple"]:
            threshold, first_spec = str(s), spec
    return {"rows": rows, "first_simple_s": threshold, "spectrum": first_spec}


def compare_pipeline(n, factors, s_grid=S_GRID):
    """Full crystal-vs-spectra comparison for KR factors (l, r).

    Scans s_grid for a scale where the wall-1 family has clean strings, reads
    every wall's statistics off it by the rotation, then compares them with
    the combinatorial tensor crystal.  "wall_family" reports the wall built,
    the tau orders its family took, each lower order given up with its
    reason, and the walls read by rotation.  "simple" is the verdict of
    `regular_spectrum` at that s, and "regular_family" reports the tau
    orders it took and each lower order given up with its reason.
    "weights_match" compares the weight multiset of the rep's weight basis,
    which is that of every family's lines, with the crystal's.
    Only the given factor order is built: the string statistics of a KR
    tensor product do not depend on the order of its factors.  Each s given
    up is reported under "rejected_s" with its error text: a `SpectraError`,
    that of B(C) when the last try at wall 1 or at the regular element
    raised one, or a `glrep.RepError` refusing the configuration.

    "passed" rests on the exact commutativity certificate of each family
    that is diagonalized, the float simplicity and string checks, the
    character, and the paper's theorem that B(C) commutes at every C, which
    carries a simple subfamily's lines to B(C).  `bethe commute` checks that
    commutativity on every order; this comparison does not.
    """
    comb = kr_tensor_crystal(n, factors)

    rejected = {}
    for s in s_grid:
        try:
            cfg = build_spectral_config(n, factors, s)
            strings = spectral_wall_statistics(cfg, 1)
            if not strings.ok():
                raise SpectraError(f"wall 1: {strings.diagnostics['failures']}")
            wall1 = strings.statistics()
            # wall j's strings are wall 1's moved by P^(j-1) (`bethe.rotate_weight`)
            stats = {
                j % n: Counter({(ln, rotate_weight(w, j - 1)): c for (ln, w), c in wall1.items()})
                for j in range(1, n + 1)
            }
            regular_spec, orders, given_up, refused = regular_spectrum(cfg)
            if refused is not None:
                raise refused
            report = compare_with_crystal(stats, comb)
            report["s"] = str(s)
            report["weights_match"] = weight_multiset_matches(cfg.rep.weight_basis, comb)
            report["simple"] = bool(regular_spec.is_simple())
            report["passed"] = bool(
                report["all_match"] and report["weights_match"] and report["simple"]
            )
            report["rejected_s"] = rejected
            report["wall_family"] = {
                "wall": 1,
                "orders": strings.diagnostics["orders"],
                "given_up": strings.diagnostics["given_up"],
                "rotated": list(range(2, n + 1)),
            }
            report["regular_family"] = {"orders": orders, "given_up": given_up}
            return report
        except (SpectraError, RepError) as err:
            rejected[str(s)] = str(err)
    last_error = next(reversed(rejected.values()), None)
    return {
        "passed": False,
        "all_match": False,
        "error": f"no s in the grid gave clean spectra: {last_error}",
        "rejected_s": rejected,
    }
