"""Dense linear-algebra substrate: determinants, spectra, kernels, clustering.

Thin, validated wrappers around LAPACK (via numpy) plus the small amount of
polynomial and clustering machinery the rest of the package shares.  All
operations take complex square matrices; canonical orderings are fixed here
so downstream output is deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "RANK_TOL",
    "CLUSTER_RADIUS",
    "TRIM_TOL",
    "SvdResult",
    "as_square",
    "det",
    "eigenvalues",
    "svd",
    "rank",
    "kernel_vectors",
    "spectral_norm",
    "poly_roots",
    "poly_roots_batch",
    "cluster_points",
]

RANK_TOL = 1e-10       # relative threshold on singular values
CLUSTER_RADIUS = 1e-8  # default merging radius for eigenvalue clusters
TRIM_TOL = 1e-10       # relative threshold for trailing polynomial noise


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition ``M = U @ diag(s) @ Vh``."""

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray


def as_square(M, name="matrix"):
    """Validate and return ``M`` as a finite complex square 2-D array."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square 2-D, got shape {M.shape}")
    if M.shape[0] == 0:
        raise DimensionError(f"{name} must be nonempty")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} contains non-finite entries")
    return M


def det(M):
    """Determinant.  Exact (a diagonal product) for triangular inputs."""
    return complex(np.linalg.det(as_square(M)))


def eigenvalues(M):
    """All eigenvalues, sorted by (real, imag) for reproducibility."""
    vals = np.linalg.eigvals(as_square(M))
    return vals[np.lexsort((vals.imag, vals.real))]


def svd(M):
    """Full SVD with singular values in descending order."""
    U, s, Vh = np.linalg.svd(as_square(M))
    return SvdResult(U=U, s=s, Vh=Vh)


def rank(M, rank_tol=RANK_TOL):
    """Numerical rank: singular values above ``rank_tol`` times the largest."""
    s = np.linalg.svd(as_square(M), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def kernel_vectors(M, rank_tol=RANK_TOL):
    """Orthonormal bases of the left and right kernels.

    Returns ``(U1, V1)`` with shape (d, d-rank): the singular vectors of the
    (numerically) zero singular values, so ``U1* M`` and ``M V1`` vanish to
    working precision.  For a full-rank matrix both factors have zero columns.
    """
    res = svd(M)
    r = rank(M, rank_tol)
    U1 = res.U[:, r:]
    V1 = res.Vh[r:, :].conj().T
    return U1, V1


def spectral_norm(M):
    """Largest singular value."""
    return float(np.linalg.svd(as_square(M), compute_uv=False)[0])


def _companion_eigvals(stack):
    """Eigenvalues of monic-companion matrices for coeff rows (K, g+1)."""
    K, g = stack.shape[0], stack.shape[1] - 1
    C = np.zeros((K, g, g), np.complex128)
    C[:, np.arange(1, g), np.arange(g - 1)] = 1.0
    C[:, :, -1] = -stack[:, :g] / stack[:, g, None]
    return np.linalg.eigvals(C)


def poly_roots(coeffs):
    """Roots of ``sum_j coeffs[j] Y**j`` with noise-aware degree trimming.

    Leading coefficients below ``TRIM_TOL`` times the largest magnitude are
    treated as zero (they are interpolation noise in this package); the
    remaining polynomial's roots come from its companion matrix.  Returns the
    roots sorted by (real, imag); an (effectively) constant polynomial has
    none.  Raises ``DimensionError`` for an identically zero input.
    """
    roots, neff = poly_roots_batch(np.asarray(coeffs, np.complex128)[None, :])
    if neff[0] < 0:
        raise DimensionError("polynomial is identically zero")
    return roots[0, :neff[0]]


def poly_roots_batch(coeffs, max_degree=None):
    """Vectorized ``poly_roots`` over rows.

    Returns ``(roots, neff)`` where ``roots`` is (N, max_degree) padded with
    nan beyond each row's count and ``neff[i]`` is the number of finite roots
    of row i (-1 flags an identically zero row).  Rows are processed grouped
    by effective degree so the companion eigensolves stay batched.
    """
    coeffs = np.asarray(coeffs, np.complex128)
    if coeffs.ndim != 2:
        raise DimensionError("coefficient batch must be 2-D")
    N, width = coeffs.shape
    if max_degree is None:
        max_degree = width - 1
    work = coeffs[:, :max_degree + 1].copy()

    mags = np.abs(work)
    biggest = mags.max(axis=1)
    keep = mags > TRIM_TOL * np.maximum(biggest, 1e-300)[:, None]
    # effective degree: highest index still above the noise floor
    degs = np.where(keep.any(axis=1),
                    (max_degree - np.argmax(keep[:, ::-1], axis=1)), -1)
    degs = np.where(biggest == 0.0, -1, degs)

    roots = np.full((N, max_degree), np.nan + 0j, np.complex128)
    neff = degs.astype(np.int64)
    for g in range(1, max_degree + 1):
        sel = np.nonzero(degs == g)[0]
        if sel.size == 0:
            continue
        vals = _companion_eigvals(work[sel, :g + 1])
        order = np.lexsort((vals.imag, vals.real))
        rows = np.arange(sel.size)[:, None]
        roots[sel, :g] = vals[rows, order]
    return roots, neff


def cluster_points(points, radius=CLUSTER_RADIUS):
    """Group complex points whose single-linkage distance is <= radius.

    Returns ``(centers, counts, labels)``: cluster centroids sorted by
    (real, imag), member counts, and for each input point the index of its
    cluster in that order.  The sweep only compares points whose real parts
    are within radius, so well-separated inputs cluster in near-linear time.
    """
    points = np.atleast_1d(np.asarray(points, np.complex128))
    N = points.shape[0]
    if N == 0:
        return (np.empty(0, np.complex128), np.empty(0, np.int64),
                np.empty(0, np.int64))
    order = np.lexsort((points.imag, points.real))
    pts = points[order]

    parent = np.arange(N)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(N):
        j = i + 1
        while j < N and pts[j].real - pts[i].real <= radius:
            if abs(pts[j] - pts[i]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
            j += 1

    comp = np.array([find(i) for i in range(N)])
    reps, member, counts = np.unique(comp, return_inverse=True,
                                     return_counts=True)
    # each root of the union-find is a member: singletons are their point
    centers = pts[reps]
    for k in np.flatnonzero(counts > 1):
        centers[k] = pts[member == k].mean()
    final = np.lexsort((centers.imag, centers.real))
    centers, counts = centers[final], counts[final]

    rank = np.empty(reps.size, np.int64)
    rank[final] = np.arange(reps.size)
    labels = np.empty(N, np.int64)
    labels[order] = rank[member]
    return centers, counts, labels
