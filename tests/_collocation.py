"""Test-only spectrum oracle: pseudospectral collocation of the generator.

Breda, Maset & Vermiglio (SIAM J. Sci. Comput. 27, 2005) discretise the
infinitesimal generator of ``x' = A0 x(t) + sum_k Ak x(t - tau_k)`` on the
state space of functions on ``[-tau_n, 0]``.  At the N + 1 Chebyshev nodes
``theta_j`` of that interval the state is ``u_j ~ x(theta_j)``; the first
block row of the matrix is the equation at ``theta = 0``, with each delayed
value ``x(-tau_k)`` taken by barycentric interpolation of the nodes, and
the other rows are the Chebyshev differentiation matrix.  Its eigenvalues
converge spectrally to the roots of the characteristic function near the
origin, and spurious ones lie far from it.  Only ``np.linalg.eigvals`` is
needed, and nothing of the library: the oracle shares no code with
``char_function`` or the argument principle.
"""

import numpy as np


def _chebyshev(N):
    """Nodes cos(pi j / N), j = 0..N, and their differentiation matrix
    (Trefethen, Spectral Methods in MATLAB, program cheb)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[[0, N]] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    return x, D - np.diag(D.sum(axis=1))


def _barycentric_row(x, s):
    """Weights of the node values in the interpolant's value at ``s``."""
    hit = np.flatnonzero(x == s)
    if hit.size:
        row = np.zeros(x.size)
        row[hit[0]] = 1.0
        return row
    w = (-1.0) ** np.arange(x.size)
    w[[0, -1]] *= 0.5
    terms = w / (s - x)
    return terms / terms.sum()


def generator_eigenvalues(mats, taus, N):
    """Eigenvalues of the collocated generator with N + 1 nodes.

    ``mats`` holds A0 and then one (d, d) matrix per delay of ``taus``
    (increasing); the nodes span ``[-taus[-1], 0]``.
    """
    mats = [np.asarray(M, np.complex128) for M in mats]
    d, tau = mats[0].shape[0], taus[-1]
    x, D = _chebyshev(N)  # x = 1 is theta = 0, x = -1 is theta = -tau
    G = np.kron(D * (2.0 / tau), np.eye(d)).astype(np.complex128)
    G[:d] = 0.0
    G[:d, :d] = mats[0]
    for M, t in zip(mats[1:], taus):
        row = _barycentric_row(x, 1.0 - 2.0 * t / tau)
        G[:d] += np.kron(row[None, :], M)
    return np.linalg.eigvals(G)


def in_rect(eigs, re_min, re_max, im_min, im_max):
    """The eigenvalues inside the closed rectangle."""
    return eigs[(re_min <= eigs.real) & (eigs.real <= re_max)
                & (im_min <= eigs.imag) & (eigs.imag <= im_max)]
