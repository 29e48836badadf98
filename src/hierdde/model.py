"""System definition and characteristic-function evaluation.

A system couples an instantaneous coefficient matrix with one matrix per
delay, where the k-th delay is ``sigma_k * eps**(-k)`` for a scale separation
parameter ``0 < eps <= 1``.  Roots of the characteristic determinant

    chi(lam) = det(-lam I + A0 + sum_k Ak exp(-lam sigma_k eps**-k))

are the system's spectrum; everything downstream (root finding, limit
manifolds, stability verdicts) consumes the evaluation handles built here.
The module is pure computation: system files are read and written by
``harness``, which alone knows how a file looks.

Evaluation is refused, rather than silently overflowed, at a point whose
``-Re lam * sigma_k * eps**-k`` exceeds ``EXP_ARG_LIMIT`` for some k: beyond
that the delay exponentials leave double range and no downstream quantity
is trustworthy.  Points with ``Re lam > 0`` are evaluated, since there the
exponentials only underflow; ``guard_real_extent`` checks how far a window
reaches left of the imaginary axis, and the handles check each point the
same one-sided way.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _backend
from .errors import ConfigError, DimensionError, EvaluationRangeError
from .linalg import as_square, spectral_norm, svd

__all__ = [
    "EXP_ARG_LIMIT",
    "DelaySystem",
    "check_eps",
    "delays",
    "guard_real_extent",
    "char_function",
]

EXP_ARG_LIMIT = 700.0  # |Re lam| * delay beyond this would overflow exp


class _OnRead(Sequence):
    """A sequence of ``n`` items, item i ``make(i)``, made on its first
    read and then kept."""

    def __init__(self, make, n):
        self._make, self._items = make, [None] * n

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        i = operator.index(i)
        if self._items[i] is None:
            self._items[i] = self._make(i)
        return self._items[i]


def _read_only(res):
    """An ``svd`` result whose arrays are read-only."""
    for a in (res.U, res.s, res.Vh):
        a.flags.writeable = False
    return res


@dataclass(frozen=True, eq=False)
class DelaySystem:
    """Immutable system data: coefficient matrices and base delays.

    ``matrices`` holds the instantaneous matrix first, then one matrix per
    delay scale; ``sigma`` holds the base delay of each scale.  ``d`` and
    ``n`` are derived and kept as fields for convenience.  ``norms``, the
    spectral norm of each matrix, are taken on first use, and ``svds``,
    the ``svd`` of each, one matrix at a time on its first read; both are
    then kept: every level, omega bound and ladder of the system reads
    them.
    """

    matrices: tuple
    sigma: tuple
    d: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        mats = tuple(np.asarray(M, np.complex128) for M in self.matrices)
        if len(mats) < 2:
            raise DimensionError("need the instantaneous matrix plus at "
                                 "least one delay matrix")
        d = None
        frozen = []
        for i, M in enumerate(mats):
            M = as_square(M, name=f"matrix {i}").copy()
            if d is None:
                d = M.shape[0]
            elif M.shape[0] != d:
                raise DimensionError("all matrices must share one dimension")
            M.flags.writeable = False
            frozen.append(M)
        sig = tuple(_checked(_real, s, "sigma entry") for s in self.sigma)
        if len(sig) != len(frozen) - 1:
            raise DimensionError("need exactly one base delay per delay "
                                 "matrix")
        if any(not np.isfinite(s) or s <= 0.0 for s in sig):
            raise ConfigError("base delays must be finite and positive")
        object.__setattr__(self, "matrices", tuple(frozen))
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", len(sig))

    @classmethod
    def scalar(cls, a, coeffs, sigma=None):
        """One-dimensional system from plain complex coefficients."""
        coeffs = tuple(coeffs)
        if sigma is None:
            sigma = (1.0,) * len(coeffs)
        return cls(matrices=tuple([[[a]]] + [[[c]] for c in coeffs]),
                   sigma=tuple(sigma))

    @cached_property
    def norms(self):
        """``spectral_norm`` of each matrix: the singular values alone,
        which for d >= 2 need not equal the bits of the full SVD's."""
        return tuple(spectral_norm(M) for M in self.matrices)

    @cached_property
    def svds(self):
        """``svd`` of each matrix, its arrays read-only, each taken on its
        first read (no level reads A0's)."""
        mats = self.matrices  # not self: the system holds the sequence
        return _OnRead(lambda k: _read_only(svd(mats[k])), len(mats))

    def stacked(self):
        """(n+1, d, d) contiguous copy for the batch kernels."""
        return np.ascontiguousarray(np.stack(self.matrices))


def check_eps(eps):
    """Validate the scale separation parameter, returning it as float."""
    eps = _checked(_real, eps, "eps")
    if not np.isfinite(eps) or not (0.0 < eps <= 1.0):
        raise ConfigError(f"eps must lie in (0, 1], got {eps}")
    return eps


def delays(sys, eps):
    """Absolute delays ``sigma_k * eps**-k``, k = 1..n."""
    return _delays(sys.sigma, eps)


def _delays(sigma, eps):
    """``sigma[k-1] * eps**-k`` for k = 1..len(sigma); a delay that
    overflows raises EvaluationRangeError naming its scale."""
    eps = check_eps(eps)
    ks = np.arange(1, len(sigma) + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        taus = np.asarray(sigma) * eps ** (-ks)
    if not np.all(np.isfinite(taus)):
        k = int(np.argmax(~np.isfinite(taus))) + 1
        raise EvaluationRangeError(
            f"delay at scale k={k} overflows for eps={eps}", scale=k)
    return taus


def _guard(taus, max_abs_re, eps):
    for k in range(taus.shape[0]):
        if max_abs_re * taus[k] > EXP_ARG_LIMIT:
            raise EvaluationRangeError(
                f"evaluation refused: |Re lam|={max_abs_re:g} times the "
                f"scale-{k + 1} delay {taus[k]:g} exceeds {EXP_ARG_LIMIT:g} "
                f"(eps={eps:g})", scale=k + 1)


def _guarded(taus, eps, lams):
    """``lams`` as a 1-D complex array, once the overflow guard passed for
    its most negative real part (``exp(-lam tau)`` overflows only there)."""
    lams = np.atleast_1d(np.asarray(lams, np.complex128))
    if lams.size:
        _guard(taus, float(-np.min(lams.real)), eps)
    return lams


def guard_real_extent(sys, eps, max_abs_re):
    """Raise if a window reaching ``max_abs_re`` left of the imaginary
    axis (``Re lam >= -max_abs_re``) is not safely evaluable; right of the
    axis the exponentials only underflow."""
    _guard(delays(sys, eps), float(max_abs_re), check_eps(eps))


def char_function(sys, eps):
    """Vectorized evaluation handles ``(f, fprime)`` for the root finder.

    Both accept a complex ndarray and return a matching ndarray; each call
    re-checks the overflow guard for the points it receives, which refuses
    only a real part too far left of the axis.
    """
    return _handles(sys.stacked(), delays(sys, eps), check_eps(eps))


def _handles(mats, taus, eps):
    """``char_function``'s handles for stacked matrices and delays; a
    system's leading ones give ``det(B)`` of ``manifolds.window_count``."""

    def f(lams):
        return _backend.char_det(_guarded(taus, eps, lams), mats, taus)

    def fprime(lams):
        return _backend.char_and_deriv(_guarded(taus, eps, lams), mats,
                                       taus)[1]

    return f, fprime


# ---------------------------------------------------------------------------
# value readers: the constructors of every module and harness's file
# readers read real values and counts through these
# ---------------------------------------------------------------------------

def _real(v):
    """A real number: a number, or a string that reads as one (flags give
    strings); a boolean is refused, not read as 0 or 1."""
    if isinstance(v, bool):
        raise TypeError("need a number, not a boolean")
    return float(v)


def _reals(vals, size=None):
    """A list of ``_real`` values, of ``size`` entries when given; a string
    or any other non-list is refused, not read item by item."""
    if not isinstance(vals, (list, tuple)):
        raise TypeError("need a list of numbers")
    if size is not None and len(vals) != size:
        raise ValueError(f"need {size} numbers, got {len(vals)}")
    return [_real(v) for v in vals]


def _count(v):
    """A whole number; booleans and fractions are refused, not truncated."""
    if isinstance(v, bool):
        raise TypeError("need a whole number, not a boolean")
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return operator.index(v)


def _checked(parse, v, name):
    """``parse(v)``; its TypeError or ValueError becomes a ConfigError
    naming ``name`` and the value."""
    try:
        return parse(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {name}={v!r}: {exc}") from exc
