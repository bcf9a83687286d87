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
from .promotion import build_kr
from .scalars import QQi
from .spectra import (
    SpectraError,
    compare_with_crystal,
    joint_diagonalize,
    wall_strings,
    weight_multiset_matches,
)
from .tensorcrystal import tensor_many


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


def build_spectral_config(n, factors, s, y=None):
    """Tensor rep with points d_j + i s y_j; factors are (l, r) pairs."""
    k = len(factors)
    if y is None:
        y = [Fraction(4 ** (k - 1 - j)) for j in range(k)]
    s = Fraction(s)
    parts = []
    for (l, r), yj in zip(factors, y):
        d = default_shift(n, l, r)
        parts.append((kr_rep(n, l, r), QQi(d, s * yj), QQi(d)))
    rep = build_tensor(parts)
    return GaudinConfig(rep, (0,) * n)


def wall_pair(n, j):
    """The ordered index pair of wall j of the base alcove."""
    if not (1 <= j <= n):
        raise ValueError(f"wall index {j} out of range")
    return (j, j + 1) if j < n else (n, 1)


def spectral_wall_statistics(cfg, j, tol=1e-8, seed=0):
    """h-string statistics at wall j, with the family verified exactly first."""
    n = cfg.n
    pair = wall_pair(n, j)
    C0 = standard_torus(n, wall=j)
    fam = wall_bethe_family(C0, pair, cfg)  # verifies exact commutativity
    h = cfg.rep.delta(pair[0], pair[0]) - cfg.rep.delta(pair[1], pair[1])
    base_members = [
        g for t, g in fam.members() if t[0] != "h"
    ]
    strings = wall_strings(base_members, h, cfg.rep, tol=tol, seed=seed)
    return strings


# the scales `compare` tries when none are given, in this order
S_GRID = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))


def compare_pipeline(n, factors, s_grid=S_GRID, tol=1e-8, seed=0):
    """Full crystal-vs-spectra comparison for KR factors (l, r).

    Scans s_grid for a scale where every wall family has clean strings, then
    compares the per-wall statistics with the combinatorial tensor crystal.
    Only the given factor order is built: the string statistics of a KR
    tensor product do not depend on the order of its factors.
    """
    comb = tensor_many([build_kr(n, l, r) for (l, r) in factors])

    last_error = None
    for s in s_grid:
        try:
            cfg = build_spectral_config(n, factors, s)
            stats = {}
            for j in range(1, n + 1):
                strings = spectral_wall_statistics(cfg, j, tol=tol, seed=seed)
                if not strings.ok():
                    raise SpectraError(
                        f"wall {j}: {strings.diagnostics['failures']}"
                    )
                stats[j % n] = strings.statistics()
            # global weight multiset via the regular-C family
            C = standard_torus(n)
            fam = bethe_family(C, cfg)
            torus = [cfg.rep.delta(a, a) for a in range(1, n + 1)]
            regular_spec = joint_diagonalize(
                fam.gens + torus, cfg.rep, tol=tol, seed=seed
            )
            report = compare_with_crystal(stats, comb)
            report["s"] = str(s)
            report["weights_match"] = weight_multiset_matches(regular_spec, comb)
            report["simple"] = bool(regular_spec.is_simple())
            report["passed"] = bool(
                report["all_match"] and report["weights_match"] and report["simple"]
            )
            return report
        except SpectraError as err:
            last_error = str(err)
            continue
    return {
        "passed": False,
        "all_match": False,
        "error": f"no s in the grid gave clean spectra: {last_error}",
    }
