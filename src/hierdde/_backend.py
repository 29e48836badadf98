"""Vectorised numpy kernels for the hot array work.

The root finder reduces to one batched kernel: the characteristic
determinant, with its derivative, over many points.  The manifold grids
take the roots of ``det(B + Y Ak)`` from ``linalg.poly_roots_batch``.

Kernel contracts:

``char_det(lams, mats, taus)``
    ``lams`` complex (N,), ``mats`` complex (n+1, d, d) holding the
    instantaneous matrix first and one matrix per delay after it, ``taus``
    real (n,) absolute delays.  Returns ``det(-lam I + mats[0] +
    sum_k mats[k+1] exp(-lam taus[k]))`` for each entry: the entry itself
    for d = 1, ``m00 m11 - m01 m10`` for d = 2, LU beyond.

``char_and_deriv(lams, mats, taus)``
    Same model and the same values; additionally returns the derivative
    ``chi' = tr(adj(M) M')`` with ``M' = -I - sum_k taus[k] mats[k+1]
    exp(-lam taus[k])``.  That is Jacobi's formula: the sum over j of the
    determinant of M with its column j replaced by column j of M'.  For
    d <= 2 it is written out (``M'`` itself for d = 1); for d >= 3 the d
    determinants are taken in one stacked call.  No inverse of M enters,
    so the derivative stays exact where M is singular.

``_det(M)`` is the package's only determinant (the kernels, the singularity
flags, the pencil roots' shift and the ladder's ``truncated_char``); a 0x0
matrix has determinant 1.
"""

import numpy as np

__all__ = [
    "backend_name",
    "char_det",
    "char_and_deriv",
]

def backend_name():
    """Name of the kernel implementation; the benchmark records it as the
    ``lane`` of every results file."""
    return "numpy"


def _det(M):
    """Determinant over the last two axes: closed forms for d <= 2."""
    d = M.shape[-1]
    if d == 1:
        return M[..., 0, 0]
    if d == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.linalg.det(M)


def _adj_trace(M, P):
    """``tr(adj(M) P)`` over the last two axes of 2x2 stacks, written out:
    the derivative of ``det(M + t P)`` at t = 0."""
    return (P[..., 0, 0] * M[..., 1, 1] + M[..., 0, 0] * P[..., 1, 1]
            - P[..., 0, 1] * M[..., 1, 0] - M[..., 0, 1] * P[..., 1, 0])


def _table(lams, mats, taus):
    """``M`` as an (N, d*d) table of row-major entries, and the delay
    factors ``exp(-lam taus)`` it was built from."""
    d = mats.shape[1]
    expo = np.exp(-np.outer(lams, taus))  # (N, n)
    M = expo @ mats[1:].reshape(-1, d * d) + mats[0].ravel()
    M[:, :: d + 1] -= lams[:, None]
    return M, expo


def char_det(lams, mats, taus):
    d = mats.shape[1]
    return _det(_table(lams, mats, taus)[0].reshape(-1, d, d))


def char_and_deriv(lams, mats, taus):
    d = mats.shape[1]
    M, expo = _table(lams, mats, taus)
    Mp = (expo * -taus) @ mats[1:].reshape(-1, d * d)
    Mp[:, :: d + 1] -= 1.0
    M, Mp = M.reshape(-1, d, d), Mp.reshape(-1, d, d)
    chi = _det(M)
    if d == 1:
        return chi, Mp[:, 0, 0]
    if d == 2:
        return chi, _adj_trace(M, Mp)
    swapped = np.repeat(M[:, None], d, axis=1)  # (N, j, d, d)
    for j in range(d):
        swapped[:, j, :, j] = Mp[:, :, j]
    return chi, _det(swapped).sum(axis=1)
