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

``_Level`` is the one evaluator of these polynomials, plain or projected:
grids (``GridSpec.axes``) and single points (``PhasePoint.axes``) both give
it lattice axes, and ``_Level.lattice`` evaluates a lattice under the one
identically-zero rule into the one lattice object, a ``ManifoldTable``,
which the sup search, the validation sets and the manifold files all read.
``_Level.gammas`` is the only place a root becomes a height or a zero-root
flag; every height array marks a missing branch with nan.  The root
finder's seeds and window counts read the top scale at complex frequency
(``_Level.branches``) and take its rank ``_Level.dk``.
"""

import logging
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import ConfigError, TrivialityError
from .linalg import (PENCIL_SHIFT, RANK_TOL, eigenvalues, numerical_rank,
                     poly_roots_batch, spectral_norm, svd)
from .degeneracy import strong_stable_spectrum
from .model import (_checked, _count, _handles, _reals, char_function,
                    check_eps, delays, guard_real_extent)
from .rootfinder import BOUNDARY_TOL, _count_with_inflation, _phase_walk

__all__ = [
    "PhasePoint",
    "ManifoldSample",
    "ManifoldTable",
    "StrongSpectrum",
    "GridSpec",
    "SingularityFlags",
    "canonical_phase",
    "default_omega_bound",
    "strong_spectrum",
    "truncated_char_poly",
    "gamma_branches",
    "singularity_test",
    "rescale",
    "manifold_grid",
    "assemble_A_k",
    "axis_seeds",
    "window_count",
]

ZERO_ROOT_TOL = 1e-14   # |Y| below this times the root radius is a zero root
DET_ZERO_TOL = 1e-10    # relative threshold for singularity flags
PLUS_MARGIN = 1e-12     # strictness margin for Re > 0 filtering
_CHUNK_POINTS = 1024    # lattice points decoded into samples at once
_CHUNK_ROWS = 1 << 16   # grid points per B stack and root solve: bounds memory
SEED_STEPS = 3          # fixed-point steps of axis_seeds; Newton finishes
BRANCH_SEP = 1e-6       # relative |Y_b - Y_b'| up to which branches coincide
DOMINANCE = 2.0         # |Y| / |Y_b| bound of window_count's edge factors
_log = logging.getLogger("hierdde")


def canonical_phase(phi, sigma_j):
    """Reduce a phase to the canonical interval [0, 2 pi / sigma_j).

    A phase a rounding below 0 reduces to the period itself, which folds
    to 0.0."""
    period = 2.0 * math.pi / sigma_j
    phi = float(phi) % period
    return 0.0 if phi == period else phi


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

    def axes(self, k):
        """One-point scale-k lattice axes: [omega], [phi_1]..[phi_{k-1}],
        each finite (else ``ConfigError``)."""
        if len(self.phi) != k - 1:
            raise ConfigError(f"scale-{k} point needs {k - 1} phases, "
                              f"got {len(self.phi)}")
        axes = [np.array([v], np.float64) for v in (self.omega, *self.phi)]
        if not all(np.isfinite(ax[0]) for ax in axes):
            raise ConfigError(f"phase point coordinates must be finite, "
                              f"got {self}")
        return axes


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

    def axes(self, sys, k):
        """Scale-k lattice axes: the omega values, then phi_1..phi_{k-1},
        each phase over its canonical period."""
        if self.omega_range is not None:
            lo, hi = _checked(lambda v: _reals(v, 2), self.omega_range,
                              "omega_range")
        else:
            om = default_omega_bound(sys)
            lo, hi = -om, om
        count = _checked(_count, self.omega_count, "omega_count")
        n = _checked(_count, self.phase_count, "phase_count")
        if not -math.inf < lo < hi < math.inf or count < 2:
            raise ConfigError("need omega range lo < hi and >= 2 samples")
        if k > 1 and n < 1:
            raise ConfigError("need at least one phase sample")
        return [np.linspace(lo, hi, count)] + [
            np.arange(n) * ((2.0 * math.pi / s) / n)
            for s in sys.sigma[:k - 1]]


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

class _Level:
    """The scale-k polynomial det(-i omega J + A0 + sum_{j<k} Aj
    exp(-i sigma_j phi_j) + Y Ak) of one system, and its one evaluator:
    ``lattice`` over grid or one-point axes, as a ``ManifoldTable``, and
    ``gammas`` at arbitrary points or over a lattice's axes.  Heights come
    only from ``gammas``; nan there marks a missing branch.

    ``plain`` reads it from the system (J = I), ``tilde`` from ladder level
    k+1 (the projected J1 and A_proj).  ``A`` is the ``svd`` of Ak, the
    one its roots are taken in; ``smin`` and ``dk`` are the smallest kept
    singular value and the rank of Ak; ``J_norm`` is the spectral norm of
    J and ``norm_sum`` the sum of those of A0..A(k-1).
    """

    def __init__(self, k, sigma, J, mats):
        if not 1 <= k <= len(sigma):
            raise ConfigError(f"scale k must be in 1..{len(sigma)}, got {k}")
        self.k, self.sigma, self.sigma_k, self.J = k, sigma, sigma[k - 1], J
        self.A_list = [mats[j] for j in range(k)]
        self.Ak = mats[k]
        self.A = svd(self.Ak)
        s = self.A.s
        self.dk = numerical_rank(s)
        self.smin = float(s[self.dk - 1]) if self.dk else 0.0
        self.J_norm = spectral_norm(J)
        self.norm_sum = sum(spectral_norm(M) for M in self.A_list)
        # what ``B`` multiplies its factors by, and how it broadcasts
        # them: the scalar entries for d = 1, the matrices beyond
        if J.shape[0] == 1:
            self._terms = J[0, 0], [M[0, 0] for M in self.A_list], np.s_[...]
        else:
            self._terms = J, self.A_list, np.s_[..., None, None]

    @classmethod
    def plain(cls, sys, k):
        return cls(k, sys.sigma, np.eye(sys.d, dtype=np.complex128),
                   sys.matrices)

    @classmethod
    def tilde(cls, ladder, k):
        lev = ladder.level(k + 1)
        return cls(k, ladder.sigma, lev.J1, lev.A_proj)

    def B(self, omegas, phis):
        """Stacked B = -i omega J + A0 + sum_j Aj exp(-i sigma_j phi_j),
        flattened over the broadcast shape of its terms.

        ``phis`` is an (N, k-1) array of the points' phases, or a list of
        the lattice's phase axes, each shaped to broadcast against
        ``omegas`` and the others (``_axis_rows``): then each delay factor
        is taken once per axis value and the sums broadcast, in the same
        order, so every row has the bits it has as a point.  For d = 1 the
        terms are arrays times the scalar entries, returned as an (N, 1, 1)
        view: those products round the same whatever the array's size,
        while an (N, 1, 1) broadcast rounds a lone row differently from the
        same row in a batch.  Which loop numpy picks decides this; it was
        checked with numpy 2.4.6 on x86-64 with AVX-512 only."""
        J, A, ax = self._terms
        if isinstance(phis, np.ndarray):
            phis = list(phis.T)
        # out of place: the shape grows with each phase axis, and an
        # in-place product rounds a lone d = 1 row differently
        B = (-1j * omegas)[ax] * J + A[0]
        for j in range(1, self.k):
            fac = np.exp(-1j * self.sigma[j - 1] * phis[j - 1])
            B = B + fac[ax] * A[j]
        return B.reshape(-1, *self.J.shape)

    def radii(self, omegas):
        """Root radii 1 + |B| bound over ``smin`` at the frequencies (an
        array or one value): the scale of the pencil shift of a
        rank-deficient Ak (d >= 2) and of ``gammas``' zero-root test.  Each
        step is monotone in |omega|, so the largest |omega| gives the
        largest radius."""
        bound = np.abs(omegas) * self.J_norm + self.norm_sum
        if self.smin == 0.0:
            return np.ones_like(bound)
        return 1.0 + bound / self.smin

    def roots(self, omegas, phis):
        """Roots of det(B + Y Ak) at the points, as ``poly_roots_batch``
        gives them: (roots, neff).  ``phis`` is the points' (N, k-1)
        phases, or, for a lattice, the list of its phase axes: ``omegas``
        is then its omega axis, the rows run omega-major, and each chunk's
        B is built from the axes (``_axis_rows``).  The one loop over row
        chunks, of ``_CHUNK_ROWS`` rows each; only a rank-deficient Ak
        builds the radii, which the pencil's shift reads for d >= 2."""
        row_omegas = _row_omegas(omegas, phis)
        N = row_omegas.shape[0]
        radii = self.radii(row_omegas) if self.dk < self.J.shape[0] else None
        parts = []
        for lo in range(0, max(N, 1), _CHUNK_ROWS):  # no points: one chunk
            hi = min(lo + _CHUNK_ROWS, N)
            if isinstance(phis, np.ndarray):
                B = self.B(omegas[lo:hi], phis[lo:hi])
            else:
                om, ph, off = _axis_rows(omegas, phis, lo, hi)
                B = self.B(om, ph)[off:off + hi - lo]
            parts.append(self._solve(B, None if radii is None
                                     else radii[lo:hi]))
        if len(parts) == 1:  # one chunk is the result: no concatenation
            return parts[0]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _solve(self, B, radii):
        """``poly_roots_batch`` on one chunk's stack B: the linear rows
        (B, a_k) for d = 1, the stack and the pencil of Ak beyond."""
        if self.J.shape[0] > 1:
            return poly_roots_batch(B, self.A, radii)
        rows = np.empty((B.shape[0], 2), np.complex128)
        rows[:, 0], rows[:, 1] = B[:, 0, 0], self.Ak[0, 0]
        return poly_roots_batch(rows)

    def gammas(self, omegas, phis):
        """Roots and heights at the points: (roots, gammas, neff).

        The one place a root becomes a height gamma = -ln|Y| / sigma_k:
        +inf at a zero root (|Y| up to ``ZERO_ROOT_TOL`` times the row's
        ``radii``), nan past each row's root count (a missing branch).
        Rows with neff=-1 are identically zero points (skipped by callers
        unless all rows are).  One bound guards the zero-root mask: when
        the batch's smallest |Y| exceeds ``ZERO_ROOT_TOL`` times its
        largest radius (that of its largest |omega|), no row has a zero
        root and none a nan or log(0), so the heights are
        ``ln|Y| / -sigma_k``, the same bits as ``-ln|Y| / sigma_k``,
        without ``np.errstate``, the radius array or the mask.  Otherwise
        (nan fails the bound) every row takes the masked test unchanged.
        ``phis`` may be a lattice's phase axes, as ``roots`` takes them.
        """
        if self.dk == 0:
            N = _row_omegas(omegas, phis).shape[0]
            return (np.empty((N, 0), np.complex128), np.empty((N, 0)),
                    np.zeros(N, np.int64))
        roots, neff = self.roots(omegas, phis)
        absY = np.abs(roots)
        if absY.size and absY.min() > ZERO_ROOT_TOL * self.radii(
                np.abs(omegas).max()):
            return roots, np.log(absY) / -self.sigma_k, neff
        with np.errstate(divide="ignore", invalid="ignore"):
            gammas = -np.log(absY) / self.sigma_k
        return roots, np.where(absY <= ZERO_ROOT_TOL * self.radii(
            _row_omegas(omegas, phis))[:, None], math.inf, gammas), neff

    def branches(self, eps, lam):
        """The roots in Y at ``omega = -i lam``, ``phi_j = omega eps**-j``;
        as ``exp(-i sigma_j phi_j) = exp(-lam tau_j)``, at the top scale
        these are the roots ``Y_b(lam)`` of ``det(B(lam) + Y A_n)`` (see
        ``axis_seeds``), nan past a lost degree."""
        omegas = -1j * lam
        return self.gammas(omegas, omegas[:, None]
                           * eps ** -np.arange(1.0, self.k))[0]

    def lattice(self, axes):
        """The ``ManifoldTable`` of ``gammas`` over the lattice of
        ``axes``, whose B is built from the axes, each delay factor once
        per phase-axis value.

        Raises TrivialityError when the polynomial has positive degree and
        vanishes identically at every lattice point (each ``neff < 0``).
        """
        roots, gammas, neff = self.gammas(axes[0], list(axes[1:]))
        if self.dk and neff.size and np.all(neff < 0):
            raise TrivialityError(f"scale-{self.k} polynomial vanishes "
                                  f"identically")
        return ManifoldTable(self, tuple(axes), roots, gammas,
                             np.flatnonzero(neff >= 0))


def _row_omegas(omegas, phis):
    """The omega of each row: the points' own, or, for a lattice (``phis``
    its phase axes), each value of its omega axis ``omegas`` repeated over
    its line of phase points, as exact copies."""
    if isinstance(phis, np.ndarray):
        return omegas
    return np.repeat(omegas, math.prod(a.size for a in phis))


def _axis_rows(omega_axis, phase_axes, lo, hi):
    """Rows lo..hi-1 of the lattice of ``omega_axis`` and ``phase_axes``,
    flattened omega-major, as ``_Level.B`` takes them: the omegas of the
    omega lines that hold the rows, shaped (m, 1, ..., 1), each phase axis
    along its own dimension, and the offset of row lo in their flattened
    broadcast.  B is then built for at most two partial lines more than
    the rows, none when a line's size divides lo and hi."""
    K = len(phase_axes)
    line = math.prod(a.size for a in phase_axes)
    i0, i1 = lo // line, -(-hi // line)
    return (omega_axis[i0:i1].reshape((-1,) + (1,) * K),
            [a.reshape((1,) * (j + 1) + (-1,) + (1,) * (K - 1 - j))
             for j, a in enumerate(phase_axes)], lo - i0 * line)


def truncated_char_poly(sys, k, point):
    """Coefficients (ascending in Y) of the scale-k polynomial.

    chi_k(omega, phi; Y) = det(-i omega I + A0 + sum_{j<k} Aj
    exp(-i sigma_j phi_j) + Ak Y) has degree rank(Ak), less its lost
    degrees.  With the roots Y_b of ``_Level.roots`` it is ``lead
    prod_b (Y - Y_b)``, and ``lead = chi_k(sigma) / prod_b (sigma - Y_b)``
    at ``sigma = PENCIL_SHIFT`` times the point's root radius.  An
    identically zero polynomial raises ``TrivialityError``.
    """
    level = _Level.plain(sys, k)
    omega, *phis = point.axes(k)
    roots, neff = level.roots(omega, phis)
    if neff[0] < 0:
        raise TrivialityError(f"scale-{k} polynomial vanishes at {point}")
    Y = roots[0, :neff[0]]
    sigma = PENCIL_SHIFT * level.radii(omega[0])
    lead = _backend._det(level.B(omega, phis)[0] + sigma * level.Ak) \
        / np.prod(sigma - Y)
    return lead * np.polynomial.polynomial.polyfromroots(Y)


def gamma_branches(sys, k, point):
    """All d_k manifold branches at one phase point, as ManifoldSamples.

    Finite branches carry gamma = -ln|Y|/sigma_k and the projected value
    gamma + i omega; zero roots carry +inf, degree deficiencies -inf.
    Branches are ordered by root (real, imag), deficiency slots last.
    """
    return list(_Level.plain(sys, k).lattice(point.axes(k)))


def singularity_test(sys, k, point):
    """Flags for the two manifold escape mechanisms at one point.

    The +inf condition holds when det B_k vanishes (relative threshold
    1e-10) while the kernel-projected determinant does not; the -inf
    condition is the mirrored pair.  For a full-rank top matrix the kernel
    projection is empty, its determinant is the empty product 1, and the
    -inf condition is False by construction.
    """
    level = _Level.plain(sys, k)
    omega, *phis = point.axes(k)
    B = level.B(omega, phis)[0]
    bound = max(1.0, abs(point.omega) + level.norm_sum)
    detB = complex(_backend._det(B))
    scaleB = bound ** sys.d
    U1, V1 = level.A.kernel(level.dk)
    sub = U1.conj().T @ B @ V1
    detP = complex(_backend._det(sub))
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
# root finder seeds and window counts: the top-scale polynomial in
# Y = exp(-lam tau_n)
# ---------------------------------------------------------------------------

def axis_seeds(sys, eps, rect):
    """Candidate roots in ``rect`` from the exact top-scale fixed point.

    With ``Y = exp(-lam tau_n)`` the determinant vanishes exactly when Y is a
    root of the degree-d polynomial ``det(B(lam) + Y A_n)``, where ``B(lam) =
    -lam I + A0 + sum_{k<n} A_k exp(-lam tau_k)``, with roots ``Y_b(lam)``
    from ``_Level.branches``.  So every root solves ``lam = -(Log Y_b(lam)
    - 2 pi i m) / tau_n`` for a branch b and an integer m, and near the
    imaginary axis this map contracts by O(tau_{n-1} / tau_n).  Each branch
    starts at ``2 pi i m / tau_n`` for every m whose line crosses ``rect``
    (one more on each side), takes ``SEED_STEPS`` steps and follows the
    polynomial root nearest its previous Y.

    Branches within ``BRANCH_SEP`` (relative) of the followed one form a
    cluster: near the axis only coinciding branches give a multiple root.
    The map then iterates on the cluster mean, and on the first step each
    cluster keeps one candidate, that of its lowest branch index.

    Seeds are candidates, certified by ``find_roots``.  There are none when
    ``dk < d``.  Dropped are seeds ending outside ``rect``, and at any step
    those whose Y is zero or whose branches are not all finite (as at a
    lost degree).  Returns a complex array holding an m-fold cluster as m
    copies of its seed.
    """
    level, d = _Level.plain(sys, sys.n), sys.d
    if level.dk < d:
        return np.empty(0, np.complex128)
    tau = delays(sys, eps)[-1]
    lo = math.floor(rect.im_min * tau / (2.0 * math.pi)) - 1
    hi = math.ceil(rect.im_max * tau / (2.0 * math.pi)) + 1
    m = np.repeat(np.arange(lo, hi + 1), d)  # one candidate per (m, branch)
    pick = np.tile(np.arange(d), hi - lo + 1)
    lam, Y = 2j * np.pi * m / tau, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(SEED_STEPS):
            Ys = level.branches(eps, lam)
            first = Y is None
            if not first:
                pick = np.argmin(np.abs(Ys - Y[:, None]), axis=1)
            Yb = Ys[np.arange(m.size), pick]
            near = np.abs(Ys - Yb[:, None]) <= BRANCH_SEP * np.abs(Yb)[:, None]
            mult = near.sum(axis=1)
            Y = np.where(near, Ys, 0.0).sum(axis=1) / mult
            ok = np.isfinite(Ys).all(axis=1) & (Y != 0.0)
            if first:
                ok &= np.argmax(near, axis=1) == pick
            m, Y, mult = m[ok], Y[ok], mult[ok]
            lam = (2j * np.pi * m - np.log(Y)) / tau
    inside = ((rect.re_min <= lam.real) & (lam.real <= rect.re_max)
              & (rect.im_min <= lam.imag) & (lam.imag <= rect.im_max))
    return np.repeat(lam[inside], mult[inside])


def _edges(rect, sides):
    """Point map and lengths of the ``sides`` of ``rect``, each walked
    counter-clockwise (0 bottom, 1 right, 2 top, 3 left) with both ends
    exact (see ``rootfinder._phase_walk``)."""
    c = np.array([complex(rect.re_min, rect.im_min),
                  complex(rect.re_max, rect.im_min),
                  complex(rect.re_max, rect.im_max),
                  complex(rect.re_min, rect.im_max)])
    a, b = c[list(sides)], c[[(s + 1) % 4 for s in sides]]
    return (lambda cid, t: a[cid] * (1.0 - t) + b[cid] * t), np.abs(b - a)


def window_count(sys, eps, rect):
    """Zeros of the characteristic function in ``rect``, counted with
    multiplicity: ``(count, counted_rect)``, as
    ``rootfinder._count_with_inflation`` returns them.

    With ``Y = exp(-lam tau_n)``, ``chi(lam) = det(B(lam)) prod_b
    (1 - Y / Y_b(lam)) = det(A_n) Y**d prod_b (1 - Y_b(lam) / Y)`` over the
    d roots ``Y_b`` of ``det(B(lam) + Y A_n)`` (``_Level.branches``).  Only
    ``Y`` turns at the fast scale ``tau_n``, and on a vertical edge ``|Y|``
    is constant.  So the phase change of ``chi`` along each long
    (vertical) edge comes from the factor that dominates it, at every
    sample of the edge's adaptive sampling of ``det(B)``:

    - *slow factor*, where ``|Y| <= min_b |Y_b| / DOMINANCE``: the phase
      change of ``det(B)``, which varies on the scale ``tau_{n-1}``, plus
      the end-point difference of ``sum_b Arg(1 - Y / Y_b)``;
    - ``Y**d``, where ``|Y| >= DOMINANCE * max_b |Y_b|``: its exact turns,
      ``-d tau_n`` times the rise of the edge over ``2 pi``, plus the
      end-point difference of ``sum_b Arg(1 - Y_b / Y)``.

    Each product then stays within ``1 / DOMINANCE`` of 1 and adds no
    turn.  The short (horizontal) edges are walked on ``chi`` itself.
    Both walks take the refinement rules of ``_winding_count``.  The whole
    window falls back to ``_count_with_inflation`` when ``dk < d``, when
    neither factor dominates a long edge, when a walk flags a zero near its
    edge, or when the turns do not sum to an integer (as a nan value makes
    them); inflation and errors then behave as there.

    Logs one DEBUG record on logger ``hierdde`` that names the route of
    each long edge: "slow factor", "Y**d", or "fallback" and why.  The
    window reaches ``-rect.re_min`` left of the axis, which is guarded
    first.
    """
    guard_real_extent(sys, eps, max(0.0, -rect.re_min))
    f, fp = char_function(sys, eps)
    ztol = np.full(2, BOUNDARY_TOL * rect.diag)
    routes, total = _long_edges(sys, eps, rect, ztol)
    if total is not None:
        short, _ = _phase_walk(f, fp, *_edges(rect, (0, 2)), ztol,
                               ("bottom edge", "top edge"), closed=False)
        if None in short:
            why = "a zero near a short edge"
        else:
            total += sum(short)
            why = None if abs(total - np.rint(total)) <= 0.25 else \
                f"non-integer turns {total:.3f}"
        if why is not None:
            routes, total = [f"fallback ({why})"] * 2, None
    _log.debug("window_count on %s: right edge %s, left edge %s", rect,
               *routes)
    if total is None:
        return _count_with_inflation(f, fp, rect)
    return int(np.rint(total)), rect


def _long_edges(sys, eps, rect, ztol):
    """Routes of the right and left edges of ``rect`` (see
    ``window_count``), and the turns of ``chi`` along both, upward on the
    right and downward on the left; None in place of the turns when an
    edge falls back."""
    level, d = _Level.plain(sys, sys.n), sys.d
    if level.dk < d:
        return [f"fallback (A_n of rank {level.dk} < {d})"] * 2, None
    mats, taus = sys.stacked(), delays(sys, eps)
    turns, points = _phase_walk(
        *_handles(mats[:-1], taus[:-1], eps), *_edges(rect, (1, 3)), ztol,
        ("right edge", "left edge"), closed=False)
    routes, parts, tau = [], [], taus[-1]
    for turn, z in zip(turns, points):
        route, part = "fallback (a zero of det(B) near the edge)", None
        if turn is not None:
            Yb = level.branches(eps, z)
            absY, absYb = math.exp(-z[0].real * tau), np.abs(Yb)
            Y_ends, Yb_ends = np.exp(-z[[0, -1]] * tau)[:, None], Yb[[0, -1]]
            with np.errstate(divide="ignore", invalid="ignore"):
                if not np.isfinite(absYb).all():
                    route = "fallback (Y_b lost a root or is not finite)"
                elif DOMINANCE * absY <= absYb.min():
                    arg = np.angle(1.0 - Y_ends / Yb_ends).sum(axis=1)
                    route, part = "slow factor", turn + (arg[1] - arg[0]) \
                        / (2.0 * math.pi)
                elif absY >= DOMINANCE * absYb.max():
                    arg = np.angle(1.0 - Yb_ends / Y_ends).sum(axis=1)
                    route, part = "Y**d", (-d * tau * (z[-1].imag - z[0].imag)
                                           + arg[1] - arg[0]) / (2.0 * math.pi)
                else:
                    route = "fallback (neither factor dominates)"
        routes.append(route)
        parts.append(part)
    return routes, None if None in parts else sum(parts)


# ---------------------------------------------------------------------------
# grid evaluation and assembled asymptotic sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ManifoldTable(Sequence):
    """One evaluated lattice, as ``_Level.lattice`` returns it: what the
    sup search, the validation sets and the manifold files all read.
    ``level`` is the ``_Level`` evaluated and ``axes`` the lattice axes
    (omega, phi_1..phi_{k-1}).  ``roots`` and ``gammas`` are its
    ``_Level.gammas`` at every lattice point, flattened omega-major; nan
    marks a missing branch.  ``rows`` is the lattice index of each kept
    point, one not identically zero.

    As a sequence it holds the ManifoldSamples of the kept points, ordered
    by (point, branch); a sample object is built only when one is read.
    Every kept point has ``dk`` samples: its roots in order, then -inf
    slots (a nan height) for a degree deficiency.  ``_coords`` decodes
    lattice indices into axis coordinates and ``_branches`` the samples of
    a run of kept points, for the sample objects here, the sup search's
    seeds and witnesses, and the manifold files that ``harness`` formats.
    """

    level: object
    axes: tuple
    roots: np.ndarray
    gammas: np.ndarray
    rows: np.ndarray

    k = property(lambda self: self.level.k)
    dk = property(lambda self: self.level.dk)

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

    def _coords(self, index, axes):
        """Per-axis coordinates of the lattice points ``index`` (lattice
        indices), read from ``axes``: one list per lattice axis, indexed
        like it."""
        idx = np.unravel_index(index, tuple(ax.size for ax in self.axes))
        return [[ax[i] for i in ix.tolist()] for ax, ix in zip(axes, idx)]

    def _branches(self, lo, hi):
        """(kind, gamma, Y) of the samples of kept points lo..hi-1, in
        (point, branch) order: kind 0 for a finite gamma, 1 for a zero root
        (+inf), 2 for a missing branch (nan height, gamma -inf, Y nan);
        gamma as a list, Y as an array."""
        rows = self.rows[lo:hi]
        g = self.gammas[rows].reshape(-1)
        kind = np.where(np.isnan(g), 2, g == math.inf)
        gamma = np.where(kind == 2, -math.inf, g)
        return kind, gamma.tolist(), self.roots[rows].reshape(-1)

    def _samples(self, lo, hi):
        omegas, *phis = self._coords(self.rows[lo:hi],
                                     [ax.tolist() for ax in self.axes])
        points = [PhasePoint(omega=om, phi=tuple(ph))
                  for om, *ph in zip(omegas, *phis)]
        kind, gamma, Y = self._branches(lo, hi)
        out = []
        for i, (kd, gam, y) in enumerate(zip(kind.tolist(), gamma,
                                             Y.tolist())):
            p, b = divmod(i, self.dk)
            point = points[p]
            out.append(ManifoldSample(
                k=self.k, point=point, branch=b, Y=None if kd == 2 else y,
                gamma=gam, projected=complex(gam, point.omega)
                if kd == 0 else None))
        return out


def manifold_grid(sys, k, grid=GridSpec(), ladder=None):
    """The scale-k lattice of ``grid``, as the ``ManifoldTable`` of
    ``_Level.lattice``: read-only ManifoldSamples ordered by (point,
    branch), over the full lattice arrays.

    Given a ladder, these are the tilde manifolds: the polynomial comes
    from ladder level k+1 (the projected system); otherwise from the plain
    coefficient matrices.  Identically-zero points are skipped; if every
    point is trivial the polynomial itself is trivial and that raises.
    """
    level = _Level.plain(sys, k) if ladder is None else _Level.tilde(ladder, k)
    return level.lattice(grid.axes(sys, k))


def assemble_A_k(sys, ladder, k, grid=GridSpec()):
    """Sampled asymptotic spectrum for scale k, as projected complex values.

    k=0: the unstable instantaneous eigenvalues plus the stable truncated
    pencil roots from the ladder.  0<k<n: unstable part of the scale-k
    manifolds plus, when ladder level k+1 exists and is not heuristic, the
    stable part of the tilde manifolds.  k=n: every finite manifold value.
    A scale k >= 1 reads the heights of its ``manifold_grid`` table, the
    tilde heights taken over its axes (``lattice_points``).  Order follows
    the grid (point-major), tilde samples appended after the plain ones.
    """
    if not 0 <= k <= sys.n:
        raise ConfigError(f"scale k must be in 0..{sys.n}, got {k}")
    if k:
        return lattice_points(sys, ladder, manifold_grid(sys, k, grid))
    parts = [strong_spectrum(sys).S0_plus]
    if ladder is not None and ladder.k_under == 1:
        parts.append(np.array(strong_stable_spectrum(ladder), np.complex128))
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else np.empty(0, np.complex128)


def lattice_points(sys, ladder, table):
    """``assemble_A_k`` at a scale 1 <= k <= n from the plain scale-k
    ``table`` (``manifold_grid(sys, k, grid)``); the tilde heights are
    taken over the same axes."""
    k, (omega, *phases) = table.k, table.axes
    # (gammas, kept signs): every finite value at the top scale; below it
    # the unstable plain and the stable tilde values
    sets = [(table.gammas, table.gammas > 0.0 if k < sys.n else True)]
    if k < sys.n and ladder is not None and ladder.has_tilde(k):
        _, tg, _ = _Level.tilde(ladder, k).gammas(omega, phases)
        sets.append((tg, tg < 0.0))
    parts = []
    for g, keep in sets:
        # one row per omega line: its heights, point-major
        valid = (np.isfinite(g) & keep).reshape(omega.size, -1)
        om = np.broadcast_to(omega[:, None], valid.shape)
        parts.append(g.reshape(valid.shape)[valid] + 1j * om[valid])
    return np.concatenate(parts)
