"""Vectorised numpy kernels for the hot array work.

The root finder and the manifold grids reduce to two batched kernels: the
characteristic determinant (with its derivative) over many points, and the
coefficients of ``det(B + Y Ak)`` over many matrices ``B``.

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

``det_poly_coeffs(B, Ak, radii)``
    ``B`` complex (N, m, m), ``Ak`` complex (m, m), ``radii`` real (N,).
    Returns complex (N, m+1): coefficients ``c[i, j]`` of ``Y**j`` in the
    polynomial ``det(B[i] + Y * Ak)``.  For m <= 2 they are written out:
    ``(det B, det Ak)`` for m = 1 (the entries themselves) and
    ``(det B, tr(adj(B) Ak), det Ak)`` for m = 2, so a row's bits do not
    depend on its batch and ``radii`` is not read (``_Level.coeffs``
    passes None there and builds no radii).  For m >= 3 they are
    recovered exactly (up to rounding) by evaluation at the m+1 scaled
    roots of unity ``radii[i] * zeta**l`` followed by an inverse discrete
    Fourier transform.  All N rows are taken at once;
    ``manifolds._Level.coeffs`` is the one loop that splits a lattice into
    batches of bounded memory.

``_det(M)`` is the package's only determinant (the kernels, the singularity
flags and the ladder's ``truncated_char``); a 0x0 matrix has determinant 1.
"""

import numpy as np

__all__ = [
    "backend_name",
    "char_det",
    "char_and_deriv",
    "det_poly_coeffs",
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


_INTERP = {}


def _interp(m):
    """Nodes ``zeta**l``, inverse DFT matrix and radius exponents of the
    size-m interpolation (m >= 3), built once per m; the arrays are
    read-only."""
    if m not in _INTERP:
        nodes = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))
        idft = np.exp(-2j * np.pi * np.outer(np.arange(m + 1),
                                             np.arange(m + 1))
                      / (m + 1)) / (m + 1)
        powers = np.arange(m + 1)[None, :]
        for a in (nodes, idft, powers):
            a.flags.writeable = False
        _INTERP[m] = nodes, idft, powers
    return _INTERP[m]


def det_poly_coeffs(B, Ak, radii):
    m = B.shape[1]
    if m <= 2:  # det B, tr(adj(B) Ak) when m = 2, det Ak: no nodes
        coeffs = np.empty((B.shape[0], m + 1), np.complex128)
        coeffs[:, 0] = _det(B)
        if m == 2:
            coeffs[:, 1] = _adj_trace(B, Ak)
        coeffs[:, m] = _det(Ak)
        return coeffs
    nodes, idft, powers = _interp(m)
    Y = radii[:, None] * nodes[None, :]  # (N, m+1)
    dets = _det(B[:, None, :, :] + Y[:, :, None, None] * Ak)  # (N, m+1)
    raw = dets @ idft.T  # (N, m+1): sum_l det_l conj(zeta)^{jl} / (m+1)
    return raw / radii[:, None] ** powers  # the radius rescale
