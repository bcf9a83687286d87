"""End-to-end comparison: KR tensor crystals against wall-family spectra.

For each of the n walls of the base alcove, the evaluated Bethe family B(C)
at that wall's torus element (`bethe.standard_torus(n, j)`) is diagonalized,
and its h-strings, read on the coset chains of the wall pair with h taken
from the lines' weights, are compared with the combinatorial string
statistics of the matching residue class.  The families hold only the tau
members: every member keeps each weight space, so weights, h and coset
chains come exactly from the weight blocks.  Evaluation points are
d_j + i s y_j with the real shifts d_j = (l_j - r_j - n)/2 the normality
condition demands.  Every configuration, of `compare`, of the
simplicity scan and of the CLI's other commands, is built by
`located_config` on the reps of `kr_rep`, which are built once per process:
every slot and configuration on one factor shares one read-only rep, and so
one quantum-minor table (`bethe.quantum_minors`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .bethe import bethe_family, standard_torus, wall_pair
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


def spectral_wall_statistics(cfg, j):
    """h-strings at wall j, with the family verified exactly first."""
    fam = bethe_family(standard_torus(cfg.n, j), cfg)
    return wall_strings(fam.gens, cfg.rep, wall_pair(cfg.n, j))


# the scales `compare` tries when none are given, in this order
S_GRID = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))
# the scales `spectra scan` tries when none are given
SCAN_S_GRID = (1, 2, 3)


def regular_family(cfg):
    """The members of the Bethe family at the regular torus element."""
    return bethe_family(standard_torus(cfg.n), cfg).gens


def scan_simple_spectrum(n, factors, s_grid):
    """Simplicity verdict of the regular family over the scales of s_grid.

    Reports the per-s verdicts and the first s of the grid whose spectrum is
    simple, and keeps that s's JointSpectrum under "spectrum" (None if no s
    is simple; it is not JSON).  "min_gap" is the least gap between two
    lines of one weight block, and None when no block holds two lines.  A
    configuration that `SpectraError` or `glrep.RepError` refuses is a row
    that is not simple, with the error; any other error ends the scan.  A
    finer scan is a second call with a finer grid.
    """
    rows = []
    threshold = first_spec = None
    for s in s_grid:
        try:
            cfg = build_spectral_config(n, factors, s)
            spec = joint_diagonalize(regular_family(cfg), cfg.rep)
            gap = spec.min_separation if math.isfinite(spec.min_separation) else None
            rows.append({"s": str(s), "simple": bool(spec.is_simple()), "min_gap": gap})
        except (SpectraError, RepError) as err:
            rows.append({"s": str(s), "simple": False, "error": str(err)})
        if threshold is None and rows[-1]["simple"]:
            threshold, first_spec = str(s), spec
    return {"rows": rows, "first_simple_s": threshold, "spectrum": first_spec}


def compare_pipeline(n, factors, s_grid=S_GRID):
    """Full crystal-vs-spectra comparison for KR factors (l, r).

    Scans s_grid for a scale where every wall family has clean strings, then
    compares the per-wall statistics with the combinatorial tensor crystal.
    Only the given factor order is built: the string statistics of a KR
    tensor product do not depend on the order of its factors.  Each s given
    up is reported under "rejected_s" with its error text: a `SpectraError`,
    or a `glrep.RepError` refusing the configuration.
    """
    comb = kr_tensor_crystal(n, factors)

    rejected = {}
    for s in s_grid:
        try:
            cfg = build_spectral_config(n, factors, s)
            stats = {}
            for j in range(1, n + 1):
                strings = spectral_wall_statistics(cfg, j)
                if not strings.ok():
                    raise SpectraError(
                        f"wall {j}: {strings.diagnostics['failures']}"
                    )
                stats[j % n] = strings.statistics()
            # global weight multiset via the regular-C family
            regular_spec = joint_diagonalize(regular_family(cfg), cfg.rep)
            report = compare_with_crystal(stats, comb)
            report["s"] = str(s)
            report["weights_match"] = weight_multiset_matches(regular_spec, comb)
            report["simple"] = bool(regular_spec.is_simple())
            report["passed"] = bool(
                report["all_match"] and report["weights_match"] and report["simple"]
            )
            report["rejected_s"] = rejected
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
