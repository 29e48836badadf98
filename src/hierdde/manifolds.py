"""Asymptotic spectra and spectral manifolds.

In the small-eps limit the spectrum splits by delay scale.  Away from the
imaginary axis it follows the instantaneous matrix (strong spectrum); near
the axis the scale-k eigenvalues have real parts of order eps**k, and after
the rescaling ``rescale(eps, k, .)`` they fill curves and surfaces: for each
frequency omega and each choice of faster phases phi_1..phi_{k-1}, the roots
Y of a truncated characteristic polynomial give manifold heights
``gamma = -ln|Y| / sigma_k``.  A root Y = 0 sends a branch to +infinity, a
drop in polynomial degree sends one to -infinity; both matter and both are
flagged rather than folded into float arithmetic.

The sampled asymptotic set for scale k joins the unstable part of these
manifolds with the stable part of the projected (tilde) manifolds from the
degeneracy ladder, when one exists.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import ConfigError, TrivialityError
from .linalg import (RANK_TOL, eigenvalues, kernel_vectors, poly_roots_batch,
                     rank, spectral_norm)
from .degeneracy import strong_stable_spectrum
from .model import check_eps

__all__ = [
    "PhasePoint",
    "ManifoldSample",
    "ManifoldTable",
    "StrongSpectrum",
    "GridSpec",
    "SingularityFlags",
    "canonical_phase",
    "strong_spectrum",
    "truncated_char_poly",
    "gamma_branches",
    "singularity_test",
    "rescale",
    "manifold_grid",
    "assemble_A_k",
    "manifold_csv",
]

ZERO_ROOT_TOL = 1e-14   # |Y| below this times the node radius is a zero root
DET_ZERO_TOL = 1e-10    # relative threshold for singularity flags
PLUS_MARGIN = 1e-12     # strictness margin for Re > 0 filtering
_CHUNK_POINTS = 4096    # lattice points decoded (and CSV lines joined) at once
_CHUNK_ROWS = 1 << 16   # grid points per assembled B stack: bounds memory


def canonical_phase(phi, sigma_j):
    """Reduce a phase to the canonical interval [0, 2 pi / sigma_j)."""
    period = 2.0 * math.pi / sigma_j
    return float(phi) % period


@dataclass(frozen=True)
class PhasePoint:
    """Argument of the scale-k truncated polynomial: (omega, phi_1..phi_{k-1}).

    Phases are stored canonically; use ``make`` to canonicalize raw input.
    """

    omega: float
    phi: tuple = ()

    @classmethod
    def make(cls, omega, phi, sigma):
        phi = tuple(canonical_phase(p, sigma[j]) for j, p in enumerate(phi))
        return cls(omega=float(omega), phi=phi)


@dataclass(frozen=True)
class ManifoldSample:
    """One manifold branch value at one phase point.

    ``gamma`` may be +-inf; ``Y`` is None on degree-deficiency branches
    (the -inf slots) and ``projected`` (gamma + i omega) is only set for
    finite gamma.
    """

    k: int
    point: PhasePoint
    branch: int
    Y: object
    gamma: float
    projected: object

    @property
    def is_plus_infinity(self):
        return self.gamma == math.inf

    @property
    def is_minus_infinity(self):
        return self.gamma == -math.inf


@dataclass(frozen=True)
class StrongSpectrum:
    """Instantaneous-matrix spectrum with the matching radius r.

    ``r`` is a third of the smaller of the minimal eigenvalue gap and the
    distance to the imaginary axis; strong eigenvalues of the full system
    stay within r of their limits for small eps.
    """

    S0: np.ndarray
    S0_plus: np.ndarray
    r0: float
    r: float


@dataclass(frozen=True)
class SingularityFlags:
    plus_infinity_condition: bool
    minus_infinity_condition: bool


@dataclass(frozen=True)
class GridSpec:
    """Sampling resolution for manifold grids.

    ``omega_range=None`` means the default window [-Omega, Omega] with
    Omega = |A0| + sum_k |Ak| + 1 in the induced 2-norm: on Re lam >= 0 the
    characteristic matrix forces |lam| below that sum, so no unstable
    structure lives outside it.
    """

    omega_count: int = 401
    phase_count: int = 64
    omega_range: object = None

    def omega_values(self, sys):
        if self.omega_range is not None:
            lo, hi = float(self.omega_range[0]), float(self.omega_range[1])
        else:
            om = default_omega_bound(sys)
            lo, hi = -om, om
        if not (lo < hi) or self.omega_count < 2:
            raise ConfigError("need omega range lo < hi and >= 2 samples")
        return np.linspace(lo, hi, self.omega_count)

    def phase_values(self, sys, j):
        if self.phase_count < 1:
            raise ConfigError("need at least one phase sample")
        period = 2.0 * math.pi / sys.sigma[j - 1]
        return np.arange(self.phase_count) * (period / self.phase_count)


def default_omega_bound(sys):
    return (spectral_norm(sys.matrices[0])
            + sum(spectral_norm(M) for M in sys.matrices[1:]) + 1.0)


def strong_spectrum(sys):
    """Eigenvalues of the instantaneous matrix, their unstable part, and r."""
    S0 = eigenvalues(sys.matrices[0])
    S0_plus = S0[S0.real > PLUS_MARGIN]
    if S0.size < 2:
        r0 = math.inf
    else:
        diffs = np.abs(S0[:, None] - S0[None, :])
        off = diffs[~np.eye(S0.size, dtype=bool)]
        distinct = off[off > RANK_TOL]
        r0 = float(distinct.min()) if distinct.size else math.inf
    axis_dist = float(np.min(np.abs(S0.real)))
    r = min(r0, axis_dist) / 3.0
    return StrongSpectrum(S0=S0, S0_plus=S0_plus, r0=r0, r=r)


# ---------------------------------------------------------------------------
# truncated polynomials, generic over the identity replacement J
# (J = I for the plain spectra, J = ladder projection for the tilde spectra)
# ---------------------------------------------------------------------------

def _restricted_smin(Ak):
    """Smallest nonzero singular value of Ak, and its rank."""
    s = np.linalg.svd(Ak, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0, 0
    r = int(np.sum(s > RANK_TOL * s[0]))
    return float(s[r - 1]) if r else 0.0, r


def _assemble_B(J, A_list, sigma, omegas, phis):
    """Stacked B = -i omega J + A0 + sum_j Aj exp(-i sigma_j phi_j)."""
    B = (-1j * omegas)[:, None, None] * J + A_list[0]
    for j in range(1, len(A_list)):
        fac = np.exp(-1j * sigma[j - 1] * phis[:, j - 1])
        B = B + fac[:, None, None] * A_list[j]
    return B


def _poly_grid(J, A_list, sigma, Ak, omegas, phis, radii):
    """Coefficient rows of det(B + Y Ak) over all grid points."""
    N = omegas.shape[0]
    m = Ak.shape[0]
    coeffs = np.empty((N, m + 1), np.complex128)
    for lo in range(0, N, _CHUNK_ROWS):
        hi = min(N, lo + _CHUNK_ROWS)
        B = _assemble_B(J, A_list, sigma, omegas[lo:hi], phis[lo:hi])
        coeffs[lo:hi] = _backend.det_poly_coeffs(B, Ak, radii[lo:hi])
    return coeffs


def _radii(J_norm, A_norms, smin, omegas):
    """Interpolation node radii: 1 + |B| bound over the smallest kept
    singular value of the top matrix."""
    bound = np.abs(omegas) * J_norm + sum(A_norms)
    if smin == 0.0:
        return np.ones_like(bound)
    return 1.0 + bound / smin


def _level_data(sys, k):
    """Matrices, norms and top-matrix data for the plain scale-k polynomial."""
    if not 1 <= k <= sys.n:
        raise ConfigError(f"scale k must be in 1..{sys.n}, got {k}")
    J = np.eye(sys.d, dtype=np.complex128)
    A_list = [sys.matrices[j] for j in range(k)]
    Ak = sys.matrices[k]
    smin, dk = _restricted_smin(Ak)
    norms = [spectral_norm(M) for M in A_list]
    return J, A_list, Ak, smin, dk, 1.0, norms


def _tilde_level_data(ladder, k):
    """Same data read from ladder level k+1 for the tilde polynomial."""
    lev = ladder.level(k + 1)
    J = lev.J1
    A_list = [lev.A_proj[j] for j in range(k)]
    Ak = lev.A_proj[k]
    smin, dk = _restricted_smin(Ak)
    norms = [spectral_norm(M) for M in A_list]
    return J, A_list, Ak, smin, dk, spectral_norm(J), norms


def _coeffs_at_points(data, sigma, omegas, phis):
    J, A_list, Ak, smin, dk, J_norm, norms = data
    radii = _radii(J_norm, norms, smin, omegas)
    coeffs = _poly_grid(J, A_list, sigma, Ak, omegas, phis, radii)
    return coeffs, radii, dk


def _point_arrays(point, k):
    if len(point.phi) != k - 1:
        raise ConfigError(f"scale-{k} point needs {k - 1} phases, "
                          f"got {len(point.phi)}")
    omegas = np.array([point.omega], np.float64)
    phis = np.array([point.phi], np.float64).reshape(1, k - 1)
    return omegas, phis


def truncated_char_poly(sys, k, point):
    """Coefficients (ascending in Y, trimmed) of the scale-k polynomial.

    chi_k(omega, phi; Y) = det(-i omega I + A0 + sum_{j<k} Aj
    exp(-i sigma_j phi_j) + Ak Y) has degree rank(Ak); coefficients are
    recovered by node interpolation and leading noise is trimmed at
    1e-10 of the largest magnitude.  An identically zero polynomial (joint
    kernel through every node) raises ``TrivialityError``.
    """
    data = _level_data(sys, k)
    omegas, phis = _point_arrays(point, k)
    coeffs, _, dk = _coeffs_at_points(data, sys.sigma, omegas, phis)
    row = coeffs[0, :dk + 1]
    mags = np.abs(row)
    if mags.max() == 0.0 or not np.isfinite(mags.max()):
        raise TrivialityError(f"scale-{k} polynomial vanishes at {point}")
    keep = np.nonzero(mags > 1e-10 * mags.max())[0]
    if keep.size == 0:
        raise TrivialityError(f"scale-{k} polynomial vanishes at {point}")
    return row[:keep[-1] + 1]


def gamma_branches(sys, k, point):
    """All d_k manifold branches at one phase point, as ManifoldSamples.

    Finite branches carry gamma = -ln|Y|/sigma_k and the projected value
    gamma + i omega; zero roots carry +inf, degree deficiencies -inf.
    Branches are ordered by root (real, imag), deficiency slots last.
    """
    data = _level_data(sys, k)
    omegas, phis = _point_arrays(point, k)
    table = _table(data, sys.sigma, k, [omegas, *phis.T])
    if table.dk and not table.rows.size:
        raise TrivialityError(f"scale-{k} polynomial vanishes at {point}")
    return list(table)


def singularity_test(sys, k, point):
    """Flags for the two manifold escape mechanisms at one point.

    The +inf condition holds when det B_k vanishes (relative threshold
    1e-10) while the kernel-projected determinant does not; the -inf
    condition is the mirrored pair.  For a full-rank top matrix the kernel
    projection is empty, its determinant is the empty product 1, and the
    -inf condition is False by construction.
    """
    J, A_list, Ak, smin, dk, J_norm, norms = _level_data(sys, k)
    omegas, phis = _point_arrays(point, k)
    B = _assemble_B(J, A_list, sys.sigma, omegas, phis)[0]
    bound = max(1.0, abs(point.omega) + sum(norms))
    detB = complex(np.linalg.det(B))
    scaleB = bound ** sys.d
    U1, V1 = kernel_vectors(Ak)
    sub = U1.conj().T @ B @ V1
    detP = complex(np.linalg.det(sub)) if sub.shape[0] else 1.0 + 0.0j
    scaleP = bound ** max(1, sub.shape[0])
    b_zero = abs(detB) <= DET_ZERO_TOL * scaleB
    p_zero = abs(detP) <= DET_ZERO_TOL * scaleP
    return SingularityFlags(plus_infinity_condition=bool(b_zero and not p_zero),
                            minus_infinity_condition=bool(p_zero and not b_zero))


def rescale(eps, k, lam):
    """Scale-k magnifier: real part divided by eps**k, imaginary part kept."""
    eps = check_eps(eps)
    lam = complex(lam)
    return complex(lam.real * eps ** (-int(k)), lam.imag)


# ---------------------------------------------------------------------------
# grid evaluation and assembled asymptotic sets
# ---------------------------------------------------------------------------

def _grid_axes(sys, k, grid):
    """Lattice axes: the omega values, then phi_1..phi_{k-1}."""
    return [grid.omega_values(sys)] + [grid.phase_values(sys, j)
                                       for j in range(1, k)]


def _lattice(axes):
    """Flattened (omega, phi) lattice, omega-major then phase-major."""
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [ax.reshape(-1) for ax in mesh]
    omegas = flat[0]
    if len(flat) > 1:
        phis = np.stack(flat[1:], axis=1)
    else:
        phis = np.empty((omegas.shape[0], 0))
    return omegas, phis


def _grid_points(sys, k, grid):
    """Flattened (omega, phi) lattice, omega-major then phase-major."""
    return _lattice(_grid_axes(sys, k, grid))


def _grid_gammas(data, sigma, sigma_k, omegas, phis):
    """Roots and gammas over a flattened lattice.

    Returns (roots, gammas, neff, dk, radii); gammas hold +-inf at zero
    roots, nan beyond each row's count; rows with neff=-1 are identically
    zero points (skipped by callers unless all rows are).
    """
    coeffs, radii, dk = _coeffs_at_points(data, sigma, omegas, phis)
    if dk == 0:
        N = omegas.shape[0]
        return (np.empty((N, 0), np.complex128), np.empty((N, 0)),
                np.zeros(N, np.int64), 0, radii)
    roots, neff = poly_roots_batch(coeffs, max_degree=dk)
    absY = np.abs(roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = -np.log(absY) / sigma_k
    zero_mask = absY <= ZERO_ROOT_TOL * radii[:, None]
    gammas = np.where(zero_mask, math.inf, gammas)
    return roots, gammas, neff, dk, radii


@dataclass(frozen=True, eq=False)
class ManifoldTable(Sequence):
    """The ManifoldSamples of one lattice, ordered by (point, branch) and
    kept as arrays; a sample object is built only when one is read.

    Every kept point (identically-zero points are skipped) has ``dk``
    samples: its roots in order, then -inf slots for a degree deficiency.
    ``axes`` are the lattice axes (omega, phi_1..phi_{k-1}), ``rows`` the
    lattice index of each kept point, and ``roots``, ``neff`` and ``radii``
    the root row, root count and node radius of each kept point.
    """

    k: int
    sigma_k: float
    axes: tuple
    rows: np.ndarray
    roots: np.ndarray
    neff: np.ndarray
    dk: int
    radii: np.ndarray

    def __len__(self):
        return self.rows.size * self.dk

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("manifold sample index out of range")
        p, b = divmod(i % n, self.dk)
        return self._samples(p, p + 1)[b]

    def __iter__(self):
        for lo in range(0, self.rows.size, _CHUNK_POINTS):
            yield from self._samples(lo, lo + _CHUNK_POINTS)

    def _coords(self, lo, hi, axes):
        """Per-axis coordinates of kept points lo..hi-1, read from ``axes``:
        one list per lattice axis, indexed like it."""
        idx = np.unravel_index(self.rows[lo:hi],
                               tuple(ax.size for ax in self.axes))
        return [[ax[i] for i in ix.tolist()] for ax, ix in zip(axes, idx)]

    def _branches(self, lo, hi):
        """(point, branch, Y, gamma, zero) per sample of kept points
        lo..hi-1, with Y a Python complex (None on -inf slots) and ``zero``
        marking a zero root (+inf).

        gamma is -math.log(abs(Y)) / sigma_k per sample, not np.log over
        the array, whose last bits can differ."""
        out = []
        sigma_k, dk = self.sigma_k, self.dk
        thresholds = (ZERO_ROOT_TOL * self.radii[lo:hi]).tolist()
        for p, (row, m, tol) in enumerate(
                zip(self.roots[lo:hi].tolist(), self.neff[lo:hi].tolist(),
                    thresholds), lo):
            for b in range(m):
                Y = row[b]
                a = abs(Y)
                if a <= tol:
                    out.append((p, b, Y, math.inf, True))
                else:
                    out.append((p, b, Y, -math.log(a) / sigma_k, False))
            for b in range(m, dk):
                out.append((p, b, None, -math.inf, False))
        return out

    def _samples(self, lo, hi):
        omegas, *phis = self._coords(lo, hi,
                                     [ax.tolist() for ax in self.axes])
        points = [PhasePoint(omega=om, phi=tuple(ph))
                  for om, *ph in zip(omegas, *phis)]
        out = []
        for p, b, Y, gam, zero in self._branches(lo, hi):
            point = points[p - lo]
            proj = None if Y is None or zero else complex(gam, point.omega)
            out.append(ManifoldSample(k=self.k, point=point, branch=b, Y=Y,
                                      gamma=gam, projected=proj))
        return out


def _table(data, sigma, k, axes):
    """ManifoldTable of one level's scale-k polynomial over ``axes``."""
    omegas, phis = _lattice(axes)
    roots, _, neff, dk, radii = _grid_gammas(data, sigma, sigma[k - 1],
                                             omegas, phis)
    rows = np.flatnonzero(neff >= 0)
    return ManifoldTable(k, sigma[k - 1], tuple(axes), rows, roots[rows],
                         neff[rows], dk, radii[rows])


def manifold_grid(sys, k, grid=None, ladder=None, tilde=False):
    """ManifoldSamples over the full lattice, ordered by (point, branch),
    as a read-only ``ManifoldTable``.

    With ``tilde=True`` the polynomial comes from ladder level k+1 (the
    projected system); otherwise from the plain coefficient matrices.
    Identically-zero points are skipped; if every point is trivial the
    polynomial itself is trivial and that raises.
    """
    grid = grid or GridSpec()
    if tilde:
        if ladder is None:
            raise ConfigError("tilde grids need the degeneracy ladder")
        data = _tilde_level_data(ladder, k)
    else:
        data = _level_data(sys, k)
    table = _table(data, sys.sigma, k, _grid_axes(sys, k, grid))
    if table.dk and not table.rows.size:
        raise TrivialityError(f"scale-{k} polynomial vanishes on the "
                              f"entire grid")
    return table


def _projected_from_grid(omegas, gammas, neff, keep):
    """Finite projected values gamma + i omega filtered by ``keep`` sign."""
    if gammas.shape[1] == 0:
        return np.empty(0, np.complex128)
    cols = np.arange(gammas.shape[1])[None, :]
    valid = (cols < neff[:, None]) & np.isfinite(gammas)
    if keep == "positive":
        valid &= gammas > 0.0
    elif keep == "negative":
        valid &= gammas < 0.0
    om = np.broadcast_to(omegas[:, None], gammas.shape)
    return (gammas[valid] + 1j * om[valid]).astype(np.complex128)


def assemble_A_k(sys, ladder, k, grid=None):
    """Sampled asymptotic spectrum for scale k, as projected complex values.

    k=0: the unstable instantaneous eigenvalues plus the stable truncated
    pencil roots from the ladder.  0<k<n: unstable part of the scale-k
    manifolds plus, when ladder level k+1 exists and is not heuristic, the
    stable part of the tilde manifolds.  k=n: every finite manifold value.
    Order follows the grid (point-major), tilde samples appended after the
    plain ones.
    """
    grid = grid or GridSpec()
    if k == 0:
        parts = [strong_spectrum(sys).S0_plus]
        if ladder is not None and ladder.k_under == 1:
            parts.append(np.array(strong_stable_spectrum(ladder),
                                  np.complex128))
        return np.concatenate([p for p in parts if p.size]) \
            if any(p.size for p in parts) else np.empty(0, np.complex128)

    omegas, phis = _grid_points(sys, k, grid)
    data = _level_data(sys, k)
    _, gammas, neff, dk, _ = _grid_gammas(data, sys.sigma, sys.sigma[k - 1],
                                          omegas, phis)
    if dk and neff.size and np.all(neff < 0):
        raise TrivialityError(f"scale-{k} polynomial vanishes on the "
                              f"entire grid")
    if k == sys.n:
        return _projected_from_grid(omegas, gammas, neff, keep="all")

    parts = [_projected_from_grid(omegas, gammas, neff, keep="positive")]
    if (ladder is not None and ladder.has_level(k + 1)
            and not ladder.level(k + 1).heuristic):
        tdata = _tilde_level_data(ladder, k)
        _, tg, tneff, tdk, _ = _grid_gammas(tdata, sys.sigma,
                                            sys.sigma[k - 1], omegas, phis)
        if tdk:
            parts.append(_projected_from_grid(omegas, tg, tneff,
                                              keep="negative"))
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else np.empty(0, np.complex128)


def manifold_csv(tables, n):
    """CSV text of manifold tables, in chunks of whole lines.

    Columns: k, omega, phi_1..phi_{n-1} (blank beyond each sample's k-1),
    branch, gamma, Y_re, Y_im, flags; floats at 17 significant digits;
    flags is one of '', 'plus_inf', 'minus_inf'.  Each lattice coordinate
    is formatted once per table; only gamma and Y are formatted per sample.
    """
    yield ",".join(["k", "omega"] + [f"phi_{j}" for j in range(1, n)]
                   + ["branch", "gamma", "Y_re", "Y_im", "flags"]) + "\n"
    for t in tables:
        strs = [["%.17g" % v for v in ax.tolist()] for ax in t.axes]
        head, pad = "%d," % t.k, "," * (n - t.k)
        for lo in range(0, t.rows.size, _CHUNK_POINTS):
            hi = lo + _CHUNK_POINTS
            prefix = [head + ",".join(c) + pad
                      for c in zip(*t._coords(lo, hi, strs))]
            lines = []
            for p, b, Y, gam, _ in t._branches(lo, hi):
                if gam == -math.inf:
                    lines.append("%s,%d,-inf,,,minus_inf\n"
                                 % (prefix[p - lo], b))
                elif gam == math.inf:
                    lines.append("%s,%d,inf,%.17g,%.17g,plus_inf\n"
                                 % (prefix[p - lo], b, Y.real, Y.imag))
                else:
                    lines.append("%s,%d,%.17g,%.17g,%.17g,\n"
                                 % (prefix[p - lo], b, gam, Y.real, Y.imag))
            yield "".join(lines)
