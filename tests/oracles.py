"""Dense oracles that only tests read.

They rebuild on whole dim x dim arrays what the package computes block by
block, so a test can check the block route against an independent one.
"""

import numpy as np

from krspectra.scalars import Mat
from krspectra.spectra import TOL, _refine


def mat_to_numpy(m: Mat) -> np.ndarray:
    return np.array(m.complex_rows(), dtype=np.complex128)


def standard_coordinates(mats, rep):
    """The mats as dense arrays in standard coordinates: T M T^{-1} with
    T = L^H for the Cholesky factor G = L L^H of the whole Gram matrix."""
    arrays = [mat_to_numpy(m) for m in mats]
    if rep.gram == Mat.identity(rep.dim):
        return arrays
    T = np.linalg.cholesky(mat_to_numpy(rep.gram)).conj().T
    Tinv = np.linalg.inv(T)
    return [T @ a @ Tinv for a in arrays]


def eigenvector_matrix(spec) -> np.ndarray:
    """The dense matrix whose column l is eigenline l of the spectrum, built
    from the per-block vectors: block k's lines follow those of block k - 1."""
    P = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    line = 0
    for part, vecs in zip(spec.blocks, spec.vectors):
        P[np.ix_(part, range(line, line + len(part)))] = vecs
        line += len(part)
    return P


def reconstruction_residual(members, rep, spec) -> float:
    """max over members of |M - P diag P^H| / |M| in max-entry norm."""
    worst = 0.0
    P = eigenvector_matrix(spec)
    for mi, m_np in enumerate(standard_coordinates(members, rep)):
        rebuilt = P @ np.diag(spec.values[mi]) @ P.conj().T
        denom = max(np.max(np.abs(m_np)), 1.0)
        worst = max(worst, np.max(np.abs(m_np - rebuilt)) / denom)
    return worst


def dense_spectrum(members, rep):
    """(values, weights) by refinement on the whole space, from the standard
    basis, with weights rounded from the torus readout: the dense route
    that the block route replaced, as a cross-check of its lines."""
    mats = standard_coordinates(members, rep)
    torus = standard_coordinates([rep.delta(a, a) for a in range(1, rep.n + 1)], rep)
    scale = max(np.max(np.abs(m)) for m in mats)
    parts = [
        p
        for m in mats
        for p in ((m + m.conj().T) / 2, (m - m.conj().T) / (2j))
        if np.max(np.abs(p)) > TOL
    ]
    vecs = _refine(np.eye(rep.dim, dtype=np.complex128), parts, 10 * TOL * max(scale, 1.0))

    def readout(ops):
        return np.array([np.einsum("ij,ij->j", vecs.conj(), m @ vecs) for m in ops])

    weights = np.rint(readout(torus).real).astype(int)
    return readout(mats), [tuple(w) for w in weights.T.tolist()]
