"""Kernel-projection ladder for systems whose top delay matrix is singular.

When the highest-scale matrix loses rank, the leading delay term cannot
balance the rest of the characteristic matrix on part of the space; the
limit behaviour is governed by the system projected onto the kernel
directions.  One loop builds the ladder: from the identity and the
system's matrices at k = n, while the scale-k matrix stays singular, it
sandwiches the identity replacement and the matrices of scales 0..k-1
with that matrix's kernel bases and steps to k - 1.  The lowest level
determines the nondegeneracy condition and the truncated spectra that the
stability theory needs.

Level ``k`` stores the projected identity-replacement matrix ``J1`` and
the projected coefficient matrices for scales ``0..k-1``.  A ladder is
read through these objects; the module defines no file format.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _backend, model
from .errors import ConfigError, DegenerateSystemError
from .linalg import (CLUSTER_RADIUS, PENCIL_SHIFT, RANK_TOL, cluster_points,
                     kernel_vectors, numerical_rank, poly_roots_batch, rank,
                     spectral_norm, svd)

__all__ = [
    "LadderLevel",
    "DegeneracyLadder",
    "build_ladder",
    "truncated_char",
    "strong_stable_spectrum",
]


@dataclass(frozen=True)
class LadderLevel:
    """One projection level: reduced system of ``dim`` dimensions.

    ``A_proj[j]`` is the projected coefficient matrix of scale j for
    j = 0..k-1, sandwiched with the kernel bases of the parent's top delay
    matrix.  ``heuristic`` marks levels of a ladder whose singularity chain
    broke before reaching the bottom: their truncated spectra are exposed
    but carry no convergence guarantee.
    """

    k: int
    dim: int
    J1: np.ndarray
    A_proj: tuple
    heuristic: bool


@dataclass(frozen=True)
class DegeneracyLadder:
    """Full projection ladder plus the derived nondegeneracy verdict.

    ``nd_satisfied`` is False exactly when the ladder reaches level 1, the
    projected identity replacement there is singular, and the coefficient
    matrix sandwiched with its kernel bases is singular as well.  It is
    vacuously true for a full-rank top matrix.
    """

    an_singular: bool
    levels: tuple
    k_under: object  # int or None
    nd_satisfied: bool
    sigma: tuple

    def level(self, k):
        for lev in self.levels:
            if lev.k == k:
                return lev
        raise ConfigError(f"ladder has no level {k} "
                          f"(levels: {[l.k for l in self.levels]})")

    def has_tilde(self, k):
        """Whether scale k has tilde manifolds: ladder level k+1 exists
        and is not heuristic."""
        return any(lev.k == k + 1 and not lev.heuristic
                   for lev in self.levels)


def _sandwich(U, M, V):
    return U.conj().T @ M @ V


def _levels(sys):
    """Levels (k, J1, A_proj), top first, and whether a 10x looser
    rank tolerance changes a rank decision: one SVD per level gives both
    ranks and the kernel bases, so equal ranks mean equal levels."""
    J, mats, out, near = np.eye(sys.d), sys.matrices, [], False
    for k in range(sys.n, 0, -1):
        res = svd(mats[k])
        r = numerical_rank(res.s)
        near |= numerical_rank(res.s, 10.0 * RANK_TOL) != r
        if r == res.s.size:
            break
        U1, V1 = res.kernel(r)
        J = _sandwich(U1, J, V1)
        mats = tuple(_sandwich(U1, M, V1) for M in mats[:k])
        out.append((k, J, mats))
    return out, near


def build_ladder(sys):
    """Construct the projection ladder of a system in one loop
    (``_levels``) and derive its flags from the list of levels.

    A full-rank top matrix yields an empty ladder.  ``k_under`` is the
    lowest level when the chain got below the top scale (by convention also
    for a one-delay system, whose first projection already is level 1) and
    None when it stopped immediately, which makes the levels heuristic.
    Nondegeneracy is read off level 1.  A warning is emitted if a rank
    decision changes at 10x looser rank tolerance: the decisions then sit
    near the threshold and downstream results deserve suspicion.
    """
    levels, near = _levels(sys)
    if near:
        warnings.warn("ladder rank decisions change at 10x looser tolerance; "
                      "the system sits near a rank threshold", stacklevel=2)

    k_under = None
    if levels and (sys.n == 1 or levels[-1][0] < sys.n):
        k_under = levels[-1][0]
    nd = True
    if k_under == 1:
        _, J1, A_proj = levels[-1]
        Ue, Ve = kernel_vectors(J1)
        if Ue.shape[1]:
            nd = rank(_sandwich(Ue, A_proj[0], Ve)) == Ue.shape[1]
    heuristic = bool(levels) and k_under is None
    return DegeneracyLadder(
        an_singular=bool(levels), k_under=k_under, nd_satisfied=nd,
        levels=tuple(LadderLevel(k=k, dim=J1.shape[0], J1=J1, A_proj=A_proj,
                                 heuristic=heuristic)
                     for k, J1, A_proj in levels),
        sigma=sys.sigma)


def truncated_char(ladder, k, eps, lam):
    """Projected characteristic function of level k+1 at one point.

    For k >= 1 this is det(-lam J1 + A0p + sum_{j=1..k} Ajp
    exp(-lam sigma_j eps**-j)) with all matrices from ladder level k+1;
    for k = 0 it is the eps-independent pencil det(-lam J1 + A0p) of
    level 1.  Its guard is one-sided, as the handles' is: ``Re lam > 0``
    only underflows ``exp(-lam tau_j)``, so only ``-Re lam`` is limited.
    """
    lev = ladder.level(k + 1)
    lam = complex(lam)
    M = -lam * lev.J1 + lev.A_proj[0]
    if k >= 1:
        taus = model._delays(ladder.sigma[:k], eps)
        model._guard(taus, -lam.real, eps)
        for j in range(1, k + 1):
            M = M + lev.A_proj[j] * np.exp(-lam * taus[j - 1])
    return complex(_backend._det(M))


def strong_stable_spectrum(ladder):
    """Stable roots of the level-1 pencil det(-lam J1 + A0p), multiplicity.

    Empty unless the ladder reaches level 1.  The roots are those of
    ``det(A0p + lam (-J1))`` by ``poly_roots_batch``, with the root radius
    ``1 + |A0p| / smin`` of ``manifolds._Level.radii`` (``smin`` the
    smallest kept singular value of J1); infinite pencil eigenvalues drop
    out as lost degrees.  An identically zero pencil would make the whole
    truncation meaningless and raises: so does one whose determinant at
    the shift ``sigma`` is at most ``1e-12 ((1 + |sigma|) max(1, |A0p| +
    radius |J1|))**m``, which bounds it wherever every coefficient is at
    most ``1e-12 max(1, |A0p| + radius |J1|)**m``.
    """
    if ladder.k_under != 1:
        return []
    lev = ladder.level(1)
    J, A, m = lev.J1, lev.A_proj[0], lev.dim
    pencil = svd(-J)
    normA, normJ = spectral_norm(A), pencil.s[0]
    r = numerical_rank(pencil.s)
    radius = 1.0 + normA / pencil.s[r - 1] if r else 1.0
    sigma = PENCIL_SHIFT * radius
    scale = (1.0 + abs(sigma)) * max(1.0, normA + radius * normJ)
    roots, neff = poly_roots_batch(A[None], pencil, np.array([radius]))
    if neff[0] < 0 or abs(_backend._det(A - sigma * J)) <= 1e-12 * scale ** m:
        raise DegenerateSystemError(
            "level-1 pencil determinant vanishes identically")
    roots = roots[0]  # nan past the degree: not < 0
    stable = roots[roots.real < 0.0]
    if stable.size == 0:
        return []
    centers, counts, _ = cluster_points(stable, radius=CLUSTER_RADIUS)
    out = []
    for c, m_ in zip(centers, counts):
        out.extend([complex(c)] * int(m_))
    return out
