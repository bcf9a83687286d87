"""Numerical joint diagonalization of the exact commuting families.

Floating point lives only in this module: commutativity of every family is
established exactly upstream, so numerics do nothing but locate eigenlines.
Operators are orthonormalized through a Cholesky factor of the exact Gram
matrix, making each member a normal matrix in standard coordinates; the
Hermitian and anti-Hermitian parts are then diagonalized simultaneously by
seeded recursive refinement.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .scalars import Mat
from .tableaux import canonical_weight


class SpectraError(ValueError):
    pass


def mat_to_numpy(m: Mat) -> np.ndarray:
    return np.array(
        [[complex(x) for x in row] for row in m.rows], dtype=np.complex128
    )


def _orthonormalizer(rep):
    """T with M -> T M T^{-1} turning the Gram form into the standard one."""
    g = mat_to_numpy(rep.gram)
    if np.allclose(g, np.eye(g.shape[0])):
        ident = np.eye(g.shape[0])
        return ident, ident
    chol = np.linalg.cholesky(g)  # g = L L^H
    T = chol.conj().T
    Tinv = np.linalg.inv(T)
    return T, Tinv


def _hermitian_parts(mats, tol):
    parts = []
    for m in mats:
        h = (m + m.conj().T) / 2
        k = (m - m.conj().T) / (2j)
        for p in (h, k):
            if np.max(np.abs(p)) > tol:
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


class JointSpectrum:
    """Eigenlines of a commuting family with eigenvalue tuples and weights."""

    def __init__(self, vectors, values, weights, min_separation, tol, scale):
        self.vectors = vectors  # columns, orthonormal in transformed coords
        self.values = values  # shape (members, dim)
        self.weights = weights  # list of integer tuples (rounded)
        self.min_separation = min_separation
        self.tol = tol
        self.scale = scale

    @property
    def dim(self):
        return self.vectors.shape[0]

    def is_simple(self):
        return self.min_separation > self.tol * max(self.scale, 1.0)

    def report(self):
        return {
            "dim": int(self.dim),
            "members": int(self.values.shape[0]),
            "min_separation": float(self.min_separation),
            "scale": float(self.scale),
            "tol": float(self.tol),
            "simple": bool(self.is_simple()),
        }


def joint_diagonalize(members, rep, tol=1e-8, seed=0, retries=2) -> JointSpectrum:
    """Diagonalize exact commuting matrices; torus members supply weights.

    members: list of Mat (verified commuting upstream).  rep provides the
    Gram matrix and the diagonal torus generators for the weight readout.
    Near-threshold separations trigger an adaptive re-run with a fresh
    random combination (at most `retries` times); the best-resolved run wins.
    """
    best = None
    for attempt in range(retries + 1):
        spec = _joint_diagonalize_once(
            members, rep, tol=tol, seed=seed + attempt
        )
        if best is None or spec.min_separation > best.min_separation:
            best = spec
        if best.min_separation > 10 * tol * max(best.scale, 1.0):
            break
    return best


def _joint_diagonalize_once(members, rep, tol=1e-8, seed=0) -> JointSpectrum:
    if not members:
        raise SpectraError("empty family")
    T, Tinv = _orthonormalizer(rep)
    mats = [T @ mat_to_numpy(m) @ Tinv for m in members]
    dim = mats[0].shape[0]
    scale = max(np.max(np.abs(m)) for m in mats)
    norm_tol = 1e3 * tol * max(scale, 1.0)
    for m in mats:
        if np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) > norm_tol:
            raise SpectraError(
                "family member is not normal within tolerance; "
                "check the reality conditions of the configuration"
            )
    parts = _hermitian_parts(mats, tol)
    rng = np.random.default_rng(seed)
    combo = sum(rng.standard_normal() * p for p in parts)
    combo = (combo + combo.conj().T) / 2
    _, vecs = np.linalg.eigh(combo)
    vecs = _refine(vecs, parts, tol * max(scale, 1.0) * 10)
    values = np.zeros((len(mats), dim), dtype=np.complex128)
    for mi, m in enumerate(mats):
        for j in range(dim):
            v = vecs[:, j]
            values[mi, j] = v.conj() @ m @ v
    # weights from the diagonal torus generators
    weights = []
    torus = [rep.delta(a, a) for a in range(1, rep.n + 1)]
    torus_np = [T @ mat_to_numpy(t) @ Tinv for t in torus]
    for j in range(dim):
        v = vecs[:, j]
        w = []
        for t in torus_np:
            val = (v.conj() @ t @ v).real
            w.append(int(round(val)))
        weights.append(tuple(w))
    min_sep = np.inf
    for i in range(dim):
        for j in range(i + 1, dim):
            d = np.max(np.abs(values[:, i] - values[:, j]))
            min_sep = min(min_sep, d)
    if dim == 1:
        min_sep = np.inf
    return JointSpectrum(vecs, values, weights, float(min_sep), tol, float(scale))


def reconstruction_residual(members, rep, spec: JointSpectrum) -> float:
    """max over members of |M - P diag P^H| / |M| in max-entry norm."""
    T, Tinv = _orthonormalizer(rep)
    worst = 0.0
    P = spec.vectors
    for mi, m in enumerate(members):
        m_np = T @ mat_to_numpy(m) @ Tinv
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


def wall_strings(family_members, h_member, rep, tol=1e-8, seed=0):
    """Decompose eigenspaces of the family and read off h-strings.

    family_members must not contain h; h refines each family eigenspace into
    a string of one-dimensional h-eigenlines with eigenvalues m, m-2, ..., -m.
    """
    spec = joint_diagonalize(
        list(family_members) + [h_member], rep, tol=tol, seed=seed
    )
    if not spec.is_simple():
        raise SpectraError(
            f"wall family plus h is not simple (gap {spec.min_separation:.3e})"
        )
    nfam = len(family_members)
    dim = spec.dim
    cluster_tol = max(spec.scale, 1.0) * 1e-6
    # group eigenlines by the family eigenvalue tuple (excluding h)
    groups = []
    assigned = [False] * dim
    for i in range(dim):
        if assigned[i]:
            continue
        block = [i]
        assigned[i] = True
        for j in range(i + 1, dim):
            if assigned[j]:
                continue
            d = np.max(np.abs(spec.values[:nfam, i] - spec.values[:nfam, j]))
            if d < cluster_tol:
                block.append(j)
                assigned[j] = True
        groups.append(block)
    strings = []
    failures = []
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
        strings.append(
            {
                "length": len(block),
                "h_values": ints,
                "source_weight": canonical_weight(spec.weights[block[0]]),
            }
        )
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

    got = Counter(canonical_weight(w) for w in spec.weights)
    return got == weight_multiset(crystal)


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


def scan_simple_spectrum(build_members, s_grid, tol=1e-8, seed=0):
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
            spec = joint_diagonalize(members, rep, tol=tol, seed=seed)
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
