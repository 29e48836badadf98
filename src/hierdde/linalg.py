"""Dense linear-algebra substrate: spectra, kernels, polynomials, clustering.

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
    "eigenvalues",
    "svd",
    "numerical_rank",
    "rank",
    "kernel_vectors",
    "spectral_norm",
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

    def kernel(self, r):
        """``(U1, V1)``: the left and right singular vectors past the
        first ``r``, shape (d, d-r)."""
        return self.U[:, r:], self.Vh[r:, :].conj().T


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


def eigenvalues(M):
    """All eigenvalues, sorted by (real, imag) for reproducibility."""
    vals = np.linalg.eigvals(as_square(M))
    return vals[np.lexsort((vals.imag, vals.real))]


def svd(M):
    """Full SVD with singular values in descending order."""
    U, s, Vh = np.linalg.svd(as_square(M))
    return SvdResult(U=U, s=s, Vh=Vh)


def numerical_rank(s, rank_tol=RANK_TOL):
    """Rank from descending singular values ``s``: the count above
    ``rank_tol`` times the largest.  Every rank decision takes this rule."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def rank(M):
    """Numerical rank of ``M`` from its singular values alone."""
    return numerical_rank(np.linalg.svd(as_square(M), compute_uv=False))


def kernel_vectors(M):
    """Orthonormal bases of the left and right kernels.

    Returns ``(U1, V1)`` with shape (d, d-rank): the singular vectors of the
    (numerically) zero singular values, so ``U1* M`` and ``M V1`` vanish to
    working precision.  For a full-rank matrix both factors have zero columns.
    The rank and the bases come from one SVD.
    """
    res = svd(M)
    return res.kernel(numerical_rank(res.s))


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


def poly_roots_batch(coeffs, max_degree=None):
    """Roots of ``sum_j coeffs[i, j] Y**j`` for each row i of a 2-D batch
    (else ``DimensionError``): the package's one polynomial root solver.

    Leading coefficients below ``TRIM_TOL`` times the row's largest
    magnitude are noise and are trimmed; the roots of the
    rest come from its companion matrix, sorted by (real, imag).  Returns
    ``(roots, neff)``: ``roots`` is (N, max_degree), nan past each row's
    count ``neff[i]`` (0 for a constant row, -1 for an identically zero
    one).  Rows are processed grouped by effective degree so the companion
    eigensolves stay batched; a row of effective degree 1 takes its root as
    ``-c0 / c1``, the entry of its 1x1 companion matrix.  LAPACK returns
    that entry unchanged (bit for bit) whenever its modulus lies between
    about 1e-138 and 1e138; outside that band it rescales the matrix first,
    so the two differ in the last bits.  A batch of ``max_degree`` 1 (a
    d = 1 level) takes the same trimming test and the same ``-c0 / c1`` in
    a few whole-array operations, without grouping rows by degree; when
    every row keeps its degree (nan does not), it also skips the nan
    padding and the masked divide, which would change nothing.
    """
    coeffs = np.asarray(coeffs, np.complex128)
    if coeffs.ndim != 2:
        raise DimensionError("coefficient batch must be 2-D")
    N, width = coeffs.shape
    if max_degree is None:
        max_degree = width - 1
    work = coeffs[:, :max_degree + 1]
    if max_degree == 1:  # whole-array: the degree test and -c0 / c1
        c0, c1 = work[:, 0], work[:, 1]
        m0, m1 = np.abs(c0), np.abs(c1)
        floor = TRIM_TOL * np.maximum(np.maximum(m0, m1), 1e-300)
        one = m1 > floor
        if one.all():  # no row trims (nan does): no padding, no masks
            return (-c0 / c1)[:, None], one.astype(np.int64)
        roots = np.full((N, 1), np.nan + 0j, np.complex128)
        np.divide(-c0, c1, out=roots[:, 0], where=one)
        return roots, np.where(one, 1, np.where(m0 > floor, 0, -1))

    mags = [np.abs(work[:, j]) for j in range(max_degree + 1)]
    top = mags[0]
    for m in mags[1:]:
        top = np.maximum(top, m)
    floor = TRIM_TOL * np.maximum(top, 1e-300)
    # effective degree: highest index still above the noise floor; an
    # all-zero row keeps nothing (the floor is positive).  Rows are short,
    # so the reductions run as loops over columns.
    degs = np.full(N, -1)
    for j, m in enumerate(mags):
        degs[m > floor] = j

    roots = np.full((N, max_degree), np.nan + 0j, np.complex128)
    for g in range(1, max_degree + 1):
        sel = np.flatnonzero(degs == g)
        if sel.size == 0:
            continue
        if sel.size == N:  # every row: slices, not fancy indexing
            sel = slice(None)
        if g == 1:
            roots[sel, 0] = -work[sel, 0] / work[sel, 1]
            continue
        vals = _companion_eigvals(work[sel, :g + 1])
        order = np.lexsort((vals.imag, vals.real))
        rows = np.arange(vals.shape[0])[:, None]
        roots[sel, :g] = vals[rows, order]
    return roots, degs


def _components(n, a, b):
    """The smallest member of each node's connected component, for the
    graph on nodes 0..n-1 with edges (a[i], b[i]).

    Each round hooks every root met by an edge between two trees onto the
    smaller root, then shortcuts every node to its root.  A node only ever
    points at a smaller one of its component, so the root that remains is
    the component's smallest member.
    """
    lab = np.arange(n)
    while True:
        la, lb = lab[a], lab[b]
        cross = la != lb
        if not cross.any():
            return lab
        la, lb = la[cross], lb[cross]
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def cluster_points(points, radius=CLUSTER_RADIUS):
    """Group complex points whose single-linkage distance is <= radius.

    Returns ``(centers, counts, labels)``: cluster centroids sorted by
    (real, imag), member counts, and for each input point the index of its
    cluster in that order.  The sweep runs along the wider of the two axes:
    one whole-array step per shift of that sorted coordinate, for as long as
    some pair that far apart is within radius on it, and ``|dz| <= radius``
    is tested on those pairs alone.  Its cost grows with the pairs within
    radius along that axis: near-linear for points spread along a line,
    either axis, and quadratic for points crowded within radius on both.
    """
    points = np.atleast_1d(np.asarray(points, np.complex128))
    N = points.shape[0]
    if N == 0:
        return (np.empty(0, np.complex128), np.empty(0, np.int64),
                np.empty(0, np.int64))
    order = np.lexsort((points.imag, points.real))
    pts = points[order]

    key = pts.real if np.ptp(pts.real) >= np.ptp(pts.imag) else pts.imag
    by = np.argsort(key, kind="stable")
    skey = key[by]
    src, dst = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    live, shift = np.arange(N - 1), 1
    while live.size:
        live = live[skey[live + shift] - skey[live] <= radius]
        i, j = by[live], by[live + shift]
        close = np.abs(pts[j] - pts[i]) <= radius
        src.append(i[close])
        dst.append(j[close])
        shift += 1
        live = live[live < N - shift]
    # each component is labelled by its smallest index in (real, imag)
    # order, and so is its cluster's representative
    comp = _components(N, np.concatenate(src), np.concatenate(dst))
    is_rep = comp == np.arange(N)
    reps = np.flatnonzero(is_rep)
    member = (np.cumsum(is_rep) - 1)[comp]
    counts = np.bincount(member, minlength=reps.size)
    # singletons are their point; a larger cluster is the mean of its
    # members in (real, imag) order, as numpy takes it of that 1-D array
    # (a row of a 2-D mean reduces alike), one batch per member count
    centers = pts[reps]
    multi = np.flatnonzero(counts > 1)
    if multi.size:
        grouped = np.argsort(member, kind="stable")
        starts = np.cumsum(counts) - counts
        for size in np.unique(counts[multi]).tolist():
            ks = multi[counts[multi] == size]
            centers[ks] = pts[grouped[starts[ks, None]
                                      + np.arange(size)]].mean(axis=1)
    final = np.lexsort((centers.imag, centers.real))
    centers, counts = centers[final], counts[final]

    rank = np.empty(reps.size, np.int64)
    rank[final] = np.arange(reps.size)
    labels = np.empty(N, np.int64)
    labels[order] = rank[member]
    return centers, counts, labels
