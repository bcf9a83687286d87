"""Numerical joint diagonalization of the exact commuting families.

Floating point lives only in this module: commutativity of every family is
established exactly upstream, so numerics do nothing but locate eigenlines.
Operators are orthonormalized through a Cholesky factor of the exact Gram
matrix, making each member a normal matrix in standard coordinates; the
Hermitian and anti-Hermitian parts are then diagonalized simultaneously by
recursive refinement.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .scalars import Mat
from .tableaux import canonical_weight, row_counts


# the separation, relative to the family's scale, below which eigenvalues
# are taken as equal
TOL = 1e-8


class SpectraError(ValueError):
    pass


def mat_to_numpy(m: Mat) -> np.ndarray:
    return np.array(m.complex_rows(), dtype=np.complex128)


def _orthonormalizer(rep):
    """T, T^{-1} with M -> T M T^{-1} turning the Gram form into the standard
    one, or None when the Gram matrix is the identity already."""
    if rep.gram == Mat.identity(rep.dim):
        return None
    g = mat_to_numpy(rep.gram)
    chol = np.linalg.cholesky(g)  # g = L L^H
    T = chol.conj().T
    return T, np.linalg.inv(T)


def _standard_coordinates(mats, change):
    """The matrices as numpy arrays in standard coordinates; `change` is what
    `_orthonormalizer` returned."""
    arrays = [mat_to_numpy(m) for m in mats]
    if change is None:
        return arrays
    T, Tinv = change
    return [T @ a @ Tinv for a in arrays]


def _hermitian_parts(mats):
    parts = []
    for m in mats:
        h = (m + m.conj().T) / 2
        k = (m - m.conj().T) / (2j)
        for p in (h, k):
            if np.max(np.abs(p)) > TOL:
                parts.append(p)
    return parts


def _refine(vecs, ops, tol):
    """Recursively split a degenerate block by the remaining Hermitian ops."""
    if not ops or vecs.shape[1] == 1:
        return vecs
    sub = vecs.conj().T @ ops[0] @ vecs
    sub = (sub + sub.conj().T) / 2
    vals, rot = np.linalg.eigh(sub)
    new = vecs @ rot
    out = []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) < tol:
            j += 1
        block = new[:, i : j + 1]
        if j > i:
            block = _refine(block, ops[1:], tol)
        out.append(block)
        i = j + 1
    return np.concatenate(out, axis=1)


def _line_values(mats, vecs):
    """(members, lines) array of v^H M v over the columns v of vecs."""
    return np.array([np.einsum("ij,ij->j", vecs.conj(), m @ vecs) for m in mats])


def _pairwise_distance(values):
    """(lines, lines) array of max over members of |values[:, i] - values[:, j]|."""
    dim = values.shape[1]
    dist = np.zeros((dim, dim))
    for row in values:
        np.maximum(dist, np.abs(row[:, None] - row[None, :]), out=dist)
    return dist


class JointSpectrum:
    """Eigenlines of a commuting family with eigenvalue tuples and weights."""

    def __init__(self, vectors, values, weights, min_separation, scale):
        self.vectors = vectors  # columns, orthonormal in transformed coords
        self.values = values  # shape (members, dim)
        self.weights = weights  # list of integer tuples (rounded)
        self.min_separation = min_separation
        self.scale = scale

    @property
    def dim(self):
        return self.vectors.shape[0]

    def is_simple(self):
        return self.min_separation > TOL * max(self.scale, 1.0)

    def report(self):
        return {
            "dim": int(self.dim),
            "members": int(self.values.shape[0]),
            "min_separation": float(self.min_separation),
            "scale": float(self.scale),
            "tol": TOL,
            "simple": bool(self.is_simple()),
        }


def joint_diagonalize(members, rep) -> JointSpectrum:
    """Diagonalize exact commuting matrices; torus members supply weights.

    members: list of Mat (verified commuting upstream).  rep provides the
    Gram matrix and the diagonal torus generators for the weight readout.
    The members go to standard coordinates, where each must be normal, and
    one deterministic refinement pass finds the eigenlines.
    """
    if not members:
        raise SpectraError("empty family")
    change = _orthonormalizer(rep)
    mats = _standard_coordinates(members, change)
    scale = max(np.max(np.abs(m)) for m in mats)
    norm_tol = 1e3 * TOL * max(scale, 1.0)
    for m in mats:
        if np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) > norm_tol:
            raise SpectraError(
                "family member is not normal within tolerance; "
                "check the reality conditions of the configuration"
            )
    torus = _standard_coordinates([rep.delta(a, a) for a in range(1, rep.n + 1)], change)
    return _joint_diagonalize_once(mats, torus, float(scale))


def _joint_diagonalize_once(mats, torus, scale) -> JointSpectrum:
    """Eigenlines of normal matrices in standard coordinates, by refinement
    from the standard basis; torus: the diagonal generators, for weights."""
    dim = mats[0].shape[0]
    start = np.eye(dim, dtype=np.complex128)
    vecs = _refine(start, _hermitian_parts(mats), 10 * TOL * max(scale, 1.0))
    values = _line_values(mats, vecs)
    # np.rint rounds half to even, as round() does
    rounded = np.rint(_line_values(torus, vecs).real).astype(int)
    weights = [tuple(w) for w in rounded.T.tolist()]
    if dim == 1:
        min_sep = np.inf
    else:
        min_sep = _pairwise_distance(values)[np.triu_indices(dim, 1)].min()
    return JointSpectrum(vecs, values, weights, float(min_sep), scale)


def reconstruction_residual(members, rep, spec: JointSpectrum) -> float:
    """max over members of |M - P diag P^H| / |M| in max-entry norm."""
    worst = 0.0
    P = spec.vectors
    for mi, m_np in enumerate(_standard_coordinates(members, _orthonormalizer(rep))):
        rebuilt = P @ np.diag(spec.values[mi]) @ P.conj().T
        denom = max(np.max(np.abs(m_np)), 1.0)
        worst = max(worst, np.max(np.abs(m_np - rebuilt)) / denom)
    return worst


class SpectralStrings:
    """h-strings inside the eigenspaces of a wall family."""

    def __init__(self, strings, diagnostics):
        self.strings = strings  # list of dicts: length, h_values, source_weight
        self.diagnostics = diagnostics

    def statistics(self) -> Counter:
        return Counter(
            (s["length"], s["source_weight"]) for s in self.strings
        )

    def ok(self):
        return self.diagnostics["passed"]

    def report(self):
        return {
            "strings": [
                {
                    "length": s["length"],
                    "h_values": s["h_values"],
                    "source_weight": list(s["source_weight"]),
                }
                for s in self.strings
            ],
            **self.diagnostics,
        }


def wall_strings(family_members, h_member, rep):
    """Decompose eigenspaces of the family and read off h-strings.

    family_members must not contain h; h refines each family eigenspace into
    a string of one-dimensional h-eigenlines with eigenvalues m, m-2, ..., -m.
    """
    spec = joint_diagonalize(list(family_members) + [h_member], rep)
    if not spec.is_simple():
        raise SpectraError(
            f"wall family plus h is not simple (gap {spec.min_separation:.3e})"
        )
    nfam = len(family_members)
    cluster_tol = max(spec.scale, 1.0) * 1e-6
    # group eigenlines by the family eigenvalue tuple (excluding h): each
    # unassigned line takes every unassigned line within cluster_tol of it
    near = _pairwise_distance(spec.values[:nfam]) < cluster_tol
    groups = []
    free = np.ones(spec.dim, dtype=bool)
    for i in range(spec.dim):
        if free[i]:
            block = np.flatnonzero(near[i] & free)
            free[block] = False
            groups.append(block.tolist())
    strings = []
    failures = []
    tops = []
    for block in groups:
        hvals = [spec.values[nfam, j].real for j in block]
        order = np.argsort(hvals)[::-1]
        block = [block[k] for k in order]
        hvals = [hvals[k] for k in order]
        ints = [int(round(v)) for v in hvals]
        if any(abs(v - i) > 1e-5 * max(spec.scale, 1.0) for v, i in zip(hvals, ints)):
            failures.append({"kind": "non-integer h", "values": hvals})
        m = len(block) - 1
        expected = list(range(m, -m - 1, -2))
        if ints != expected:
            failures.append(
                {"kind": "broken string", "values": ints, "expected": expected}
            )
        tops.append(spec.weights[block[0]])
        strings.append({"length": len(block), "h_values": ints})
    # the source of a string is its top line
    for string, w in zip(strings, canonical_weight(tops).tolist()):
        string["source_weight"] = tuple(w)
    diagnostics = {
        "passed": not failures,
        "failures": failures,
        "min_separation": spec.min_separation,
    }
    return SpectralStrings(strings, diagnostics)


def compare_with_crystal(spectral_stats_by_j, crystal) -> dict:
    """Statistics-level comparison against an affine tensor crystal.

    spectral_stats_by_j: dict j -> Counter of (length, source weight).
    Matching is per residue class plus a global weight-multiset equality.
    """
    from .tensorcrystal import string_statistics

    per_wall = {}
    for j, stats in spectral_stats_by_j.items():
        comb = string_statistics(crystal, j)
        per_wall[j] = {
            "match": comb == stats,
            "combinatorial": sorted(
                ((ln, list(w)), c) for (ln, w), c in comb.items()
            ),
            "spectral": sorted(((ln, list(w)), c) for (ln, w), c in stats.items()),
        }
    return {
        "per_wall": per_wall,
        "all_match": all(v["match"] for v in per_wall.values()),
    }


def weight_multiset_matches(spec: JointSpectrum, crystal) -> bool:
    from .tensorcrystal import weight_multiset

    return row_counts(canonical_weight(spec.weights)) == weight_multiset(crystal)


def eigenvalues_csv(spec: JointSpectrum) -> str:
    """CSV dump of the eigenvalue tuples, one eigenline per row."""
    lines = [
        ",".join(
            ["line", "weight"]
            + [f"re_{m}" for m in range(spec.values.shape[0])]
            + [f"im_{m}" for m in range(spec.values.shape[0])]
        )
    ]
    for j in range(spec.dim):
        col = spec.values[:, j]
        lines.append(
            ",".join(
                [str(j), "(" + " ".join(str(x) for x in spec.weights[j]) + ")"]
                + [f"{v.real:.12g}" for v in col]
                + [f"{v.imag:.12g}" for v in col]
            )
        )
    return "\n".join(lines) + "\n"


def scan_simple_spectrum(build_members, s_grid):
    """Simplicity verdict over a parameter grid.

    build_members(s) -> (members, rep); reports the per-s verdicts and the
    first s of the grid whose spectrum is simple, and keeps that s's
    JointSpectrum under "spectrum" (None if no s is simple; it is not JSON).
    A finer scan is a second call with a finer grid.
    """
    rows = []
    threshold = first_spec = None
    for s in s_grid:
        try:
            members, rep = build_members(s)
            spec = joint_diagonalize(members, rep)
            rows.append(
                {
                    "s": str(s),
                    "simple": bool(spec.is_simple()),
                    "min_gap": float(spec.min_separation),
                }
            )
        except (SpectraError, ValueError) as err:
            rows.append({"s": str(s), "simple": False, "error": str(err)})
        if threshold is None and rows[-1]["simple"]:
            threshold, first_spec = str(s), spec
    return {"rows": rows, "first_simple_s": threshold, "spectrum": first_spec}
