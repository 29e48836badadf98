"""Dense linear-algebra substrate: spectra, kernels, polynomials, clustering.

Thin, validated wrappers around LAPACK (via numpy) plus the small amount of
polynomial and clustering machinery the rest of the package shares.  All
operations take complex square matrices; canonical orderings are fixed here
so downstream output is deterministic.
"""

from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import DimensionError

__all__ = [
    "RANK_TOL",
    "CLUSTER_RADIUS",
    "TRIM_TOL",
    "PENCIL_SHIFT",
    "SvdResult",
    "as_square",
    "eigenvalues",
    "svd",
    "numerical_rank",
    "rank",
    "kernel_vectors",
    "spectral_norm",
    "poly_roots_batch",
    "pencil_roots",
    "cluster_points",
]

RANK_TOL = 1e-10       # relative threshold on singular values
CLUSTER_RADIUS = 1e-8  # default merging radius for eigenvalue clusters
TRIM_TOL = 1e-10       # relative noise floor of a degree and a pencil row
PENCIL_SHIFT = 2.0 * np.exp(1j)  # shift of a rank-deficient pencil, in radii


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


def poly_roots_batch(rows, pencil=None, radii=None):
    """Roots of a batch of level polynomials, the package's one root
    solver.  Returns ``(roots, neff)``: ``roots`` is (N, degree), sorted
    by (real, imag), nan last and past each row's root count ``neff[i]``
    (0 for a constant row, -1 for an identically zero one).

    Without ``pencil``, ``rows`` holds linear rows ``c0 + c1 Y``, shape
    (N, 2) (a d = 1 level's ``(B, a_k)``).  A ``|c1|`` up to ``TRIM_TOL``
    times the row's larger magnitude is noise and trimmed; the root is
    ``-c0 / c1``, in a few whole-array operations.  When every row keeps
    its degree (nan does not), the nan padding and the masked divide,
    which would change nothing, are skipped.

    With ``pencil``, the ``svd`` of a (d, d) matrix A, ``rows`` is a
    stack B (N, d, d): the roots of ``det(B[i] + Y A)`` come from
    ``pencil_roots``, which reads ``radii`` (N,) when A is rank-deficient.
    Any other shape raises ``DimensionError``.  Every level's roots pass
    through here, as the benchmark's tracer measures them by this name.
    """
    rows = np.asarray(rows, np.complex128)
    if pencil is not None:
        d = pencil.s.size
        if rows.ndim != 3 or rows.shape[1:] != (d, d):
            raise DimensionError(f"pencil rows must be (N, {d}, {d}), got "
                                 f"shape {rows.shape}")
        return pencil_roots(rows, pencil, radii)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise DimensionError(f"linear rows must be (N, 2), got shape "
                             f"{rows.shape}")
    N, c0, c1 = rows.shape[0], rows[:, 0], rows[:, 1]
    m0, m1 = np.abs(c0), np.abs(c1)
    floor = TRIM_TOL * np.maximum(np.maximum(m0, m1), 1e-300)
    one = m1 > floor
    if one.all():  # no row trims (nan does): no padding, no masks
        return (-c0 / c1)[:, None], one.astype(np.int64)
    roots = np.full((N, 1), np.nan + 0j, np.complex128)
    np.divide(-c0, c1, out=roots[:, 0], where=one)
    return roots, np.where(one, 1, np.where(m0 > floor, 0, -1))


def pencil_roots(B, A, radii=None):
    """Roots Y of ``det(B[i] + Y A)`` over a stack B (N, d, d), A given
    by its ``svd``, as ``poly_roots_batch`` returns them: the eigenvalues
    of the pencil ``(B, -A)``, taken in A's singular bases, where ``C =
    U* B V`` and A is ``diag(s, 0)`` of rank r = ``numerical_rank(s)``.

    - *Full rank:* the roots are the eigenvalues of ``-C / s[:, None]``.
    - *Rank r < d:* with the shift ``sigma = PENCIL_SHIFT * radii`` and
      ``M = C + sigma diag(s, 0)``, ``det(M + t diag(s, 0)) = det(M)
      prod(1 + t nu)`` over the eigenvalues ``nu`` of ``M^-1[:r, :r]
      diag(s)``, so the roots are ``sigma - 1/nu``.  A root with ``nu = 0``
      or ``|Y| > radii / TRIM_TOL`` is a lost degree (nan).  A row whose
      ``|det(M)|`` is at most ``TRIM_TOL (|C| + |sigma| |A|)**d``, with
      ``|C|`` its Frobenius norm and ``|A| = s[0]``, vanishes identically
      (``neff = -1``): rounding leaves such a determinant where A's
      singular bases are not exact.

    A row with a non-finite entry gets nan roots and ``neff = -1``.  Each
    row's bits come from its own matrices and radius alone, so they do not
    depend on the batch it is in.
    """
    N, d = B.shape[:2]
    r = numerical_rank(A.s)
    s = A.s[:r]
    with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite row
        C = A.U.conj().T @ B @ A.Vh.conj().T
    ok = np.flatnonzero(np.isfinite(C).all(axis=(1, 2)))
    roots = np.full((N, r), np.nan + 0j, np.complex128)
    neff = np.full(N, -1, np.int64)
    if r == d:
        roots[ok] = np.linalg.eigvals(-C[ok] / s[:, None])
        neff[ok] = d
    else:
        sigma = PENCIL_SHIFT * radii[ok]
        M = C[ok]
        floor = TRIM_TOL * (np.linalg.norm(M, axis=(1, 2))
                            + np.abs(sigma) * A.s[0]) ** d
        M[:, np.arange(r), np.arange(r)] += sigma[:, None] * s
        det = _backend._det(M)
        live = np.abs(det) > floor
        ok, sigma, M = ok[live], sigma[live], M[live]
        if d == 2:  # the adjugate's (0, 0) entry over det(M)
            inv = (M[:, 1, 1] / det[live])[:, None, None]
        else:  # det(M) != 0: LU has no zero pivot, so inv does not raise
            inv = np.linalg.inv(M)
        nu = np.linalg.eigvals(inv[:, :r, :r] * s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Y = sigma[:, None] - 1.0 / nu
        lost = (nu == 0.0) | ~(np.abs(Y) <= radii[ok, None] / TRIM_TOL)
        Y[lost] = np.nan
        roots[ok] = Y
        neff[ok] = r - lost.sum(axis=1)
    order = np.lexsort((roots.imag, roots.real))
    return np.take_along_axis(roots, order, axis=1), neff


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
