"""System definition and characteristic-function evaluation.

A system couples an instantaneous coefficient matrix with one matrix per
delay, where the k-th delay is ``sigma_k * eps**(-k)`` for a scale separation
parameter ``0 < eps <= 1``.  Roots of the characteristic determinant

    chi(lam) = det(-lam I + A0 + sum_k Ak exp(-lam sigma_k eps**-k))

are the system's spectrum; everything downstream (root finding, limit
manifolds, stability verdicts) consumes the evaluation handles built here.

Evaluation is refused, rather than silently overflowed, once any
``|Re lam| * sigma_k * eps**-k`` exceeds ``EXP_ARG_LIMIT``: beyond that the
delay exponentials leave double range and no downstream quantity is
trustworthy.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _backend
from .errors import ConfigError, DimensionError, EvaluationRangeError
from .linalg import as_square, poly_roots_batch

__all__ = [
    "EXP_ARG_LIMIT",
    "DelaySystem",
    "check_eps",
    "delays",
    "guard_real_extent",
    "char_function",
    "axis_seeds",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
]

EXP_ARG_LIMIT = 700.0  # |Re lam| * delay beyond this would overflow exp
SEED_STEPS = 3         # fixed-point steps of axis_seeds; Newton finishes
BRANCH_SEP = 1e-6      # relative |Y_b - Y_b'| up to which branches coincide


@dataclass(frozen=True, eq=False)
class DelaySystem:
    """Immutable system data: coefficient matrices and base delays.

    ``matrices`` holds the instantaneous matrix first, then one matrix per
    delay scale; ``sigma`` holds the base delay of each scale.  ``d`` and
    ``n`` are derived and kept as fields for convenience.
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
        sig = tuple(float(s) for s in self.sigma)
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

    def stacked(self):
        """(n+1, d, d) contiguous copy for the batch kernels."""
        return np.ascontiguousarray(np.stack(self.matrices))


def check_eps(eps):
    """Validate the scale separation parameter, returning it as float."""
    eps = float(eps)
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
    """``lams`` as a 1-D complex array, once the overflow guard passed."""
    lams = np.atleast_1d(np.asarray(lams, np.complex128))
    if lams.size:
        _guard(taus, float(np.max(np.abs(lams.real))), eps)
    return lams


def guard_real_extent(sys, eps, max_abs_re):
    """Raise if ``|Re lam| <= max_abs_re`` is not safely evaluable."""
    _guard(delays(sys, eps), float(max_abs_re), check_eps(eps))


def char_function(sys, eps):
    """Vectorized evaluation handles ``(f, fprime)`` for the root finder.

    Both accept a complex ndarray and return a matching ndarray; each call
    re-checks the overflow guard for the points it receives.
    """
    taus = delays(sys, eps)
    mats = sys.stacked()
    eps = check_eps(eps)

    def f(lams):
        return _backend.char_det(_guarded(taus, eps, lams), mats, taus)

    def fprime(lams):
        return _backend.char_and_deriv(_guarded(taus, eps, lams), mats,
                                       taus)[1]

    return f, fprime


def axis_seeds(sys, eps, rect):
    """Candidate roots in ``rect`` from the exact top-scale fixed point.

    With ``Y = exp(-lam tau_n)`` the determinant vanishes exactly when Y is a
    root of the degree-d polynomial ``det(B(lam) + Y A_n)``, where ``B(lam) =
    -lam I + A0 + sum_{k<n} A_k exp(-lam tau_k)``.  So every root solves
    ``lam = -(Log Y_b(lam) - 2 pi i m) / tau_n`` for a branch b and an
    integer m, and near the imaginary axis this map contracts by
    O(tau_{n-1} / tau_n).  Each branch starts at ``2 pi i m / tau_n`` for
    every m whose line crosses ``rect`` (one more on each side), takes
    ``SEED_STEPS`` steps and follows the polynomial root nearest its
    previous Y.

    Branches within ``BRANCH_SEP`` (relative) of the followed one form a
    cluster: near the axis only coinciding branches give a multiple root.
    The map then iterates on the cluster mean, and on the first step each
    cluster keeps one candidate, that of its lowest branch index.

    Seeds are candidates, certified by ``find_roots``.  Dropped are seeds
    ending outside ``rect``, and at any step those whose Y is zero or not
    finite or whose polynomial loses degree (A_n singular).  Returns a
    complex array holding an m-fold cluster as m copies of its seed.
    """
    taus = delays(sys, eps)
    mats, d, tau = sys.stacked(), sys.d, taus[-1]
    scale = np.linalg.norm(mats[-1])
    if scale == 0.0:
        return np.empty(0, np.complex128)
    lo = math.floor(rect.im_min * tau / (2.0 * math.pi)) - 1
    hi = math.ceil(rect.im_max * tau / (2.0 * math.pi)) + 1
    m = np.repeat(np.arange(lo, hi + 1), d)  # one candidate per (m, branch)
    pick = np.tile(np.arange(d), hi - lo + 1)
    lam, Y = 2j * np.pi * m / tau, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(SEED_STEPS):
            B = mats[0] - lam[:, None, None] * np.eye(d)
            for k in range(sys.n - 1):
                B = B + np.exp(-lam * taus[k])[:, None, None] * mats[k + 1]
            radii = 1.0 + np.linalg.norm(B, axis=(1, 2)) / scale
            Ys, neff = poly_roots_batch(
                _backend.det_poly_coeffs(B, mats[-1], radii))
            first = Y is None
            if not first:
                pick = np.argmin(np.abs(Ys - Y[:, None]), axis=1)
            Yb = Ys[np.arange(m.size), pick]
            near = np.abs(Ys - Yb[:, None]) <= BRANCH_SEP * np.abs(Yb)[:, None]
            mult = near.sum(axis=1)
            Y = np.where(near, Ys, 0.0).sum(axis=1) / mult
            ok = (neff == d) & np.isfinite(Y) & (Y != 0.0)
            if first:
                ok &= np.argmax(near, axis=1) == pick
            m, Y, mult = m[ok], Y[ok], mult[ok]
            lam = (2j * np.pi * m - np.log(Y)) / tau
    inside = ((rect.re_min <= lam.real) & (lam.real <= rect.re_max)
              & (rect.im_min <= lam.imag) & (lam.imag <= rect.im_max))
    return np.repeat(lam[inside], mult[inside])


# ---------------------------------------------------------------------------
# serialization: floats as [re, im] pairs, bit-exact through json's repr
# ---------------------------------------------------------------------------

def _matrix_to_pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _matrix_from_pairs(rows, d, name):
    try:
        arr = np.array([[complex(p[0], p[1]) for p in row] for row in rows],
                       np.complex128)
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"{name}: entries must be [re, im] pairs") from exc
    if arr.shape != (d, d):
        raise ConfigError(f"{name}: expected shape ({d}, {d}), "
                          f"got {arr.shape}")
    return arr


def system_to_dict(sys):
    """JSON-ready dict with fields d, n, sigma and A0..An."""
    out = {"d": sys.d, "n": sys.n, "sigma": list(sys.sigma)}
    for i, M in enumerate(sys.matrices):
        out[f"A{i}"] = _matrix_to_pairs(M)
    return out


def system_from_dict(data):
    """Inverse of ``system_to_dict`` with schema validation."""
    if not isinstance(data, dict):
        raise ConfigError("system description must be a JSON object")
    try:
        d = int(data["d"])
        n = int(data["n"])
        sigma = [float(s) for s in data["sigma"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"system description missing or malformed "
                          f"field: {exc}") from exc
    if len(sigma) != n:
        raise ConfigError(f"sigma must have n={n} entries, got {len(sigma)}")
    mats = []
    for i in range(n + 1):
        key = f"A{i}"
        if key not in data:
            raise ConfigError(f"system description missing matrix {key}")
        mats.append(_matrix_from_pairs(data[key], d, key))
    return DelaySystem(matrices=tuple(mats), sigma=tuple(sigma))


def save_system(sys, path):
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=1)
        fh.write("\n")


def load_system(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read system file {path}: {exc}") from exc
    return system_from_dict(data)
