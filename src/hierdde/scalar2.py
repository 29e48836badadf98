"""Closed forms for the scalar system with hierarchical delays.

Elementary arithmetic on the coefficients (a0, ..., an) of
``-lam + a0 + sum_k a_k exp(-lam/eps**k) = 0``, written once for every
scale k: the height ``gamma_k``, its supremum ``sup_gamma_k`` and the
verdict ``classify_coefs``.  The exported names are the two-delay family
``ScalarParams(a, b, c)`` = (a0, a1, a2) and its scale-1 zero points and
singular phases.  The module deliberately never touches the general
machinery (only the verdict containers are shared), so that agreement
between this oracle and the grid/refinement route is a meaningful check of
both.
"""

import cmath
import math
from dataclasses import dataclass

from .classify import StabilityVerdict, SupEstimate
from .errors import ConfigError
from .manifolds import PhasePoint

__all__ = [
    "ScalarParams",
    "gamma1",
    "gamma1_zeros",
    "gamma2",
    "gamma2_peak_omega",
    "sup_gamma2",
    "phi_singular",
    "classify_scalar",
]

_TWO_PI = 2.0 * math.pi
_MARGIN = 1e-12  # half-width of the band of boundary equalities


@dataclass(frozen=True)
class ScalarParams:
    """Coefficients (a, b, c); nondegeneracy reduces to all three nonzero."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = complex(getattr(self, name))
            if v == 0 or not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ConfigError(f"parameter {name} must be finite nonzero")
            object.__setattr__(self, name, v)

    @property
    def coefs(self):
        """(a, b, c) as the coefficients (a0, a1, a2) of the forms below."""
        return (self.a, self.b, self.c)


def gamma_k(coefs, omega, *phis):
    """Scale-k height at (omega, phi_1..phi_{k-1}), k = len(phis) + 1.

    The scale-k root is Y = z / a_k, z = i omega - a0 - sum_{j<k} a_j
    exp(-i phi_j) = -t1 + i t2, and the height is -ln(|z| / |a_k|); +inf
    where z = 0 (only reachable when g_k <= 0, see ``sup_gamma_k``).
    """
    t1, t2 = coefs[0].real, float(omega) - coefs[0].imag
    for a, phi in zip(coefs[1:], phis):
        delta = phi - cmath.phase(a)
        t1 += abs(a) * math.cos(delta)
        t2 += abs(a) * math.sin(delta)
    s = t1 * t1 + t2 * t2
    if s == 0.0:
        return math.inf
    return -0.5 * math.log(s / abs(coefs[len(phis) + 1]) ** 2)


def _gap(coefs, k):
    """g_k = |Re a0| - sum_{j<k} |a_j|, the least |z| at scale k."""
    return abs(coefs[0].real) - sum(abs(a) for a in coefs[1:k])


def sup_gamma_k(coefs, k):
    """Supremum of gamma_k: -ln(g_k / |a_k|) at omega = Im a0, phi_j =
    Arg a_j when g_k > 0, else +inf (the singular points are reachable)."""
    gap = _gap(coefs, k)
    return -math.log(gap / abs(coefs[k])) if gap > 0.0 else math.inf


def classify_coefs(coefs):
    """Parameter-region classifier for the scalar family of any depth.

    Re a0 > 0 strongly unstable; else the first scale k with |a_k| > g_k
    is weakly unstable, and stable when there is none.  An equality
    (within ``_MARGIN``) before that is marginal.
    """
    a0 = coefs[0]
    if a0.real > _MARGIN:
        return _verdict("StronglyUnstable", None, a0, ())
    if abs(a0.real) <= _MARGIN:
        return _verdict("Marginal", None, None, ())
    sups = []
    for k in range(1, len(coefs)):
        phis = tuple(cmath.phase(a) % _TWO_PI for a in coefs[1:k])
        argmax = (PhasePoint(omega=a0.imag, phi=phis), 0)
        sups.append(SupEstimate(k=k, sup=sup_gamma_k(coefs, k),
                                argmax=argmax, uncertainty=0.0))
        excess = abs(coefs[k]) - _gap(coefs, k)
        if excess > _MARGIN:
            return _verdict("WeaklyUnstable", k, (k, *argmax, sups[-1].sup),
                            sups)
        if abs(excess) <= _MARGIN:
            return _verdict("Marginal", None, None, sups)
    return _verdict("Stable", None, None, sups)


def _verdict(status, scale, witness, sups):
    return StabilityVerdict(status=status, scale=scale, witness=witness,
                            sup_gammas=tuple(sups), margin=_MARGIN, notes=())


def gamma1(p, omega):
    """Scale-1 height -(1/2) ln(((omega - Im a)**2 + (Re a)**2) / |b|**2)."""
    return gamma_k(p.coefs, omega)


def gamma2(p, omega, phi1):
    """Scale-2 height at (omega, phi1)."""
    return gamma_k(p.coefs, omega, phi1)


def sup_gamma2(p):
    """Supremum of gamma2: -ln((|Re a| - |b|)/|c|), or +inf."""
    return sup_gamma_k(p.coefs, 2)


def classify_scalar(p):
    """Verdict of ``classify_coefs`` for the two-delay family."""
    return classify_coefs(p.coefs)


def gamma1_zeros(p):
    """Zero crossings of gamma1: Im a -+ sqrt(|b|**2 - (Re a)**2).

    None when |b| < |Re a| (the curve stays negative); an equal pair at
    Im a when |b| = |Re a|.
    """
    disc = abs(p.b) ** 2 - p.a.real ** 2
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    return (p.a.imag - s, p.a.imag + s)


def gamma2_peak_omega(p, phi1):
    """Frequency maximizing gamma2 at fixed phi1: Im a - |b| sin(phi1-Arg b)."""
    return p.a.imag - abs(p.b) * math.sin(phi1 - cmath.phase(p.b))


def phi_singular(p):
    """Phases (phi_plus, phi_minus) where gamma2 is singular at the gamma1
    zeros (omega1, omega2); None when those zeros do not exist.

    Solves -i omega + a + b exp(-i phi) = 0, i.e. phi = Arg b -
    Arg(i omega - a) mod 2 pi; the printed closed form's arctan branch is
    unreliable, so each phase is residual-checked before being returned.
    """
    zeros = gamma1_zeros(p)
    if zeros is None:
        return None
    out = []
    for om in zeros:
        phi = (cmath.phase(p.b) - cmath.phase(1j * om - p.a)) % _TWO_PI
        resid = abs(-1j * om + p.a + p.b * cmath.exp(-1j * phi))
        if resid > 1e-8:
            raise ArithmeticError(
                f"singular-phase ansatz residual {resid:g} at omega={om:g}")
        out.append(phi)
    return tuple(out)
