"""End-to-end comparison: KR tensor crystals against wall-family spectra.

For each of the n walls of the base alcove a wall torus element is sampled
(one cyclically adjacent coincidence), the evaluated Bethe family at that
element is extended by the wall coroot, and the h-strings inside its
eigenspaces are compared with the combinatorial string statistics of the
matching residue class.  Evaluation points are d_j + i s y_j with the real
shifts d_j = (l_j - r_j - n)/2 the normality condition demands.
"""

from __future__ import annotations

from fractions import Fraction

from .bethe import bethe_family, standard_torus, wall_bethe_family
from .gaudin import GaudinConfig
from .glrep import build_defining, build_irrep, build_tensor
from .promotion import kr_tensor_crystal
from .scalars import QQi
from .spectra import (
    SpectraError,
    compare_with_crystal,
    joint_diagonalize,
    wall_strings,
    weight_multiset_matches,
)


def kr_rep(n, l, r):
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


def kr_reps(n, factors):
    """{(l, r): V_{l w_r}}, one rep per distinct factor.

    Equal slots share the rep, and so do the configurations of one run built
    from the map, so each distinct factor's quantum-minor table is built
    once (`bethe.quantum_minors`) and freed with the map.
    """
    return {f: kr_rep(n, *f) for f in set(factors)}


def build_spectral_config(n, factors, s, reps=None):
    """Tensor rep of KR factors (l, r) at the points of `spectral_points`.

    `reps` is the `kr_reps` map of the run; without it the reps are built.
    """
    reps = reps or kr_reps(n, factors)
    parts = [(reps[f], z, d) for f, (z, d) in zip(factors, spectral_points(n, factors, s))]
    return GaudinConfig(build_tensor(parts), (0,) * n)


def wall_pair(n, j):
    """The ordered index pair of wall j of the base alcove."""
    if not (1 <= j <= n):
        raise ValueError(f"wall index {j} out of range")
    return (j, j + 1) if j < n else (n, 1)


def spectral_wall_statistics(cfg, j):
    """h-string statistics at wall j, with the family verified exactly first."""
    n = cfg.n
    C0 = standard_torus(n, wall=j)
    fam = wall_bethe_family(C0, wall_pair(n, j), cfg)  # verifies exact commutativity
    *base_members, h = fam.gens
    return wall_strings(base_members, h, cfg.rep)


# the scales `compare` tries when none are given, in this order
S_GRID = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))
# the scales `spectra scan` tries when none are given
SCAN_S_GRID = (1, 2, 3)


def regular_family(cfg):
    """The Bethe family at the regular torus element with the n torus deltas."""
    n = cfg.n
    fam = bethe_family(standard_torus(n), cfg)
    return fam.gens + [cfg.rep.delta(a, a) for a in range(1, n + 1)]


def compare_pipeline(n, factors, s_grid=S_GRID):
    """Full crystal-vs-spectra comparison for KR factors (l, r).

    Scans s_grid for a scale where every wall family has clean strings, then
    compares the per-wall statistics with the combinatorial tensor crystal.
    Only the given factor order is built: the string statistics of a KR
    tensor product do not depend on the order of its factors.  Every s of
    the scan shares one rep per distinct factor; each s given up is reported
    under "rejected_s" with its `SpectraError` text.
    """
    comb = kr_tensor_crystal(n, factors)
    reps = kr_reps(n, factors)

    rejected = {}
    for s in s_grid:
        try:
            cfg = build_spectral_config(n, factors, s, reps)
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
        except SpectraError as err:
            rejected[str(s)] = str(err)
    last_error = next(reversed(rejected.values()), None)
    return {
        "passed": False,
        "all_match": False,
        "error": f"no s in the grid gave clean spectra: {last_error}",
        "rejected_s": rejected,
    }
