"""Kernel-projection ladder for systems whose top delay matrix is singular.

When the highest-scale matrix loses rank, the leading delay term cannot
balance the rest of the characteristic matrix on part of the space; the
limit behaviour is governed by the system projected onto the kernel
directions.  Repeating the projection while the top remaining delay matrix
stays singular yields a ladder of shrinking systems; its lowest level
determines the nondegeneracy condition and the truncated spectra that the
stability theory needs.

Level record ``k`` stores the projected identity-replacement matrix ``J1``
and the projected coefficient matrices for scales ``0..k-1``, together with
the kernel bases that produced the level.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import _backend, model
from .errors import ConfigError, DegenerateSystemError, EvaluationRangeError
from .linalg import (CLUSTER_RADIUS, RANK_TOL, cluster_points, kernel_vectors,
                     poly_roots, rank, spectral_norm)

__all__ = [
    "LadderLevel",
    "DegeneracyLadder",
    "build_ladder",
    "check_nd",
    "truncated_char",
    "strong_stable_spectrum",
    "dump_ladder",
]


@dataclass(frozen=True)
class LadderLevel:
    """One projection level: reduced system of ``dim`` dimensions.

    ``A_proj[j]`` is the projected coefficient matrix of scale j for
    j = 0..k-1; ``U1``/``V1`` are the kernel bases (of the parent's top
    delay matrix) whose sandwich produced this level.  ``heuristic`` marks
    levels of a ladder whose singularity chain broke before reaching the
    bottom: their truncated spectra are exposed but carry no convergence
    guarantee.
    """

    k: int
    dim: int
    J1: np.ndarray
    A_proj: tuple
    U1: np.ndarray
    V1: np.ndarray
    heuristic: bool


@dataclass(frozen=True)
class DegeneracyLadder:
    """Full projection ladder plus the derived nondegeneracy verdict."""

    an_singular: bool
    levels: tuple
    k_under: object  # int or None
    nd_satisfied: bool
    sigma: tuple
    d: int
    n: int
    rank_tol: float

    def level(self, k):
        for lev in self.levels:
            if lev.k == k:
                return lev
        raise ConfigError(f"ladder has no level {k} "
                          f"(levels: {[l.k for l in self.levels]})")

    def has_level(self, k):
        return any(lev.k == k for lev in self.levels)


def _sandwich(U, M, V):
    return U.conj().T @ M @ V


def _build(sys, rank_tol):
    """Raw ladder construction at one rank tolerance."""
    An = sys.matrices[sys.n]
    if rank(An, rank_tol) == sys.d:
        return False, [], None

    # level n: project everything onto the kernel directions of An
    U1, V1 = kernel_vectors(An, rank_tol)
    records = [dict(k=sys.n, J1=_sandwich(U1, np.eye(sys.d), V1),
                    A_proj=[_sandwich(U1, sys.matrices[j], V1)
                            for j in range(sys.n)],
                    U1=U1, V1=V1, dim=U1.shape[1])]

    # descend while the top projected delay matrix stays singular
    while True:
        cur = records[-1]
        lev = cur["k"]
        if lev < 2:
            break
        top = cur["A_proj"][lev - 1]
        if rank(top, rank_tol) == cur["dim"]:
            break
        Ut, Vt = kernel_vectors(top, rank_tol)
        records.append(dict(k=lev - 1, J1=_sandwich(Ut, cur["J1"], Vt),
                            A_proj=[_sandwich(Ut, cur["A_proj"][j], Vt)
                                    for j in range(lev - 1)],
                            U1=Ut, V1=Vt, dim=Ut.shape[1]))

    lowest = records[-1]["k"]
    if sys.n == 1 or lowest <= sys.n - 1:
        k_under = lowest
    else:
        k_under = None
    return True, records, k_under


def _nd_from(an_singular, records, k_under):
    if not an_singular or k_under != 1:
        return True
    bottom = records[-1]
    J1 = bottom["J1"]
    if rank(J1) == bottom["dim"]:
        return True
    Ue, Ve = kernel_vectors(J1)
    P = _sandwich(Ue, bottom["A_proj"][0], Ve)
    return rank(P) == P.shape[0]


def build_ladder(sys):
    """Construct the projection ladder of a system.

    A full-rank top matrix yields an empty ladder.  Otherwise levels are
    built downward while singularity persists; ``k_under`` is the lowest
    level when the chain got below the top scale (by convention also for a
    one-delay system, whose first projection already is level 1) and None
    when it stopped immediately.  The construction is repeated at 10x looser
    rank tolerance and a warning is emitted if the level structure differs:
    rank decisions then sit near the threshold and downstream results
    deserve suspicion.
    """
    an_singular, records, k_under = _build(sys, RANK_TOL)
    nd = _nd_from(an_singular, records, k_under)

    loose_sing, loose_records, loose_ku = _build(sys, RANK_TOL * 10.0)
    if (loose_sing != an_singular or loose_ku != k_under
            or [r["dim"] for r in loose_records] != [r["dim"] for r in records]):
        warnings.warn("ladder rank decisions change at 10x looser tolerance; "
                      "the system sits near a rank threshold", stacklevel=2)

    heuristic = an_singular and k_under is None
    levels = tuple(LadderLevel(k=r["k"], dim=r["dim"], J1=r["J1"],
                               A_proj=tuple(r["A_proj"]), U1=r["U1"],
                               V1=r["V1"], heuristic=heuristic)
                   for r in records)
    return DegeneracyLadder(an_singular=an_singular, levels=levels,
                            k_under=k_under, nd_satisfied=nd,
                            sigma=sys.sigma, d=sys.d, n=sys.n,
                            rank_tol=RANK_TOL)


def check_nd(ladder):
    """Nondegeneracy flag.

    False exactly when the ladder reaches level 1, the projected identity
    replacement there is singular, and the coefficient matrix sandwiched
    with its kernel bases is singular as well.  Vacuously true for a
    full-rank top matrix.
    """
    return bool(ladder.nd_satisfied)


def truncated_char(ladder, k, eps, lam):
    """Projected characteristic function of level k+1 at one point.

    For k >= 1 this is det(-lam J1 + A0p + sum_{j=1..k} Ajp
    exp(-lam sigma_j eps**-j)) with all matrices from ladder level k+1;
    for k = 0 it is the eps-independent pencil det(-lam J1 + A0p) of
    level 1.
    """
    lev = ladder.level(k + 1)
    lam = complex(lam)
    M = -lam * lev.J1 + lev.A_proj[0]
    if k >= 1:
        eps = model.check_eps(eps)
        for j in range(1, k + 1):
            tau = ladder.sigma[j - 1] * eps ** (-j)
            if abs(lam.real) * tau > model.EXP_ARG_LIMIT:
                raise EvaluationRangeError(
                    f"truncated evaluation refused at scale j={j}: "
                    f"|Re lam|*tau = {abs(lam.real) * tau:g}", scale=j)
            M = M + lev.A_proj[j] * np.exp(-lam * tau)
    return complex(np.linalg.det(M))


def strong_stable_spectrum(ladder):
    """Stable roots of the level-1 pencil det(-lam J1 + A0p), multiplicity.

    Empty unless the ladder reaches level 1.  Roots come from
    determinant interpolation on a circle (radius 1 + |A|/|J|, or 1 + |A|
    for singular J) followed by companion eigenvalues; infinite pencil
    eigenvalues drop out as trimmed leading coefficients.  An identically
    zero pencil would make the whole truncation meaningless and raises.
    """
    if ladder.k_under != 1:
        return []
    lev = ladder.level(1)
    J, A, m = lev.J1, lev.A_proj[0], lev.dim
    normA, normJ = spectral_norm(A), spectral_norm(J)
    if rank(J, ladder.rank_tol) < m:
        radius = 1.0 + normA
    else:
        radius = 1.0 + normA / normJ
    coeffs = _backend.det_poly_coeffs(A[None, :, :], -J,
                                      np.array([radius]))[0]
    floor = 1e-12 * max(1.0, normA + radius * normJ) ** m
    if np.max(np.abs(coeffs)) <= floor:
        raise DegenerateSystemError(
            "level-1 pencil determinant vanishes identically")
    roots = poly_roots(coeffs)
    stable = roots[roots.real < 0.0]
    if stable.size == 0:
        return []
    centers, counts, _ = cluster_points(stable, radius=CLUSTER_RADIUS)
    out = []
    for c, m_ in zip(centers, counts):
        out.extend([complex(c)] * int(m_))
    return out


def dump_ladder(ladder):
    """JSON dump of the ladder for debugging.

    Schema: {an_singular, k_under, nd_satisfied, rank_tol, levels: [{k, dim,
    heuristic, J1, A0p..A(k-1)p}]} with every matrix as a d x d array of
    [re, im] pairs.
    """
    _matrix_to_pairs = model._matrix_to_pairs
    out = {
        "an_singular": ladder.an_singular,
        "k_under": ladder.k_under,
        "nd_satisfied": ladder.nd_satisfied,
        "rank_tol": ladder.rank_tol,
        "levels": [{
            "k": lev.k,
            "dim": lev.dim,
            "heuristic": lev.heuristic,
            "J1": _matrix_to_pairs(lev.J1),
            **{f"A{j}p": _matrix_to_pairs(lev.A_proj[j])
               for j in range(lev.k)},
        } for lev in ladder.levels],
    }
    return json.dumps(out, indent=1)
