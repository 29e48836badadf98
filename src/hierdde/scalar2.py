"""Closed forms for the scalar system with two hierarchical delays.

Everything here is elementary arithmetic on the three coefficients of

    -lam + a + b exp(-lam/eps) + c exp(-lam/eps**2) = 0,

written out by hand: the two manifold heights, their zero points, the
singular phases and the supremum, plus the parameter-region classifier.
The module deliberately never touches the general machinery (only the
verdict containers are shared), so that agreement between this oracle and
the grid/refinement route is a meaningful check of both.
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


def gamma1(p, omega):
    """Scale-1 manifold height at frequency omega (+inf at a singularity).

    Equals -(1/2) ln(((omega - Im a)**2 + (Re a)**2) / |b|**2): the root of
    the scale-1 polynomial is Y = (i omega - a)/b and the height is -ln|Y|.
    """
    num = (float(omega) - p.a.imag) ** 2 + p.a.real ** 2
    if num == 0.0:
        return math.inf
    return -0.5 * math.log(num / abs(p.b) ** 2)


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


def gamma2(p, omega, phi1):
    """Scale-2 manifold height at (omega, phi1), +inf where both bracket
    terms vanish (only reachable when |b| >= |Re a|)."""
    delta = phi1 - cmath.phase(p.b)
    t1 = p.a.real + abs(p.b) * math.cos(delta)
    t2 = float(omega) - p.a.imag + abs(p.b) * math.sin(delta)
    s = t1 * t1 + t2 * t2
    if s == 0.0:
        return math.inf
    return -0.5 * math.log(s / abs(p.c) ** 2)


def gamma2_peak_omega(p, phi1):
    """Frequency maximizing gamma2 at fixed phi1: Im a - |b| sin(phi1-Arg b)."""
    return p.a.imag - abs(p.b) * math.sin(phi1 - cmath.phase(p.b))


def sup_gamma2(p):
    """Global supremum of gamma2: -ln((|Re a| - |b|)/|c|) when |Re a| > |b|,
    +inf otherwise (the singular points are reachable)."""
    gap = abs(p.a.real) - abs(p.b)
    if gap > 0.0:
        return -math.log(gap / abs(p.c))
    return math.inf


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


def _sup_entries(p):
    """Closed-form sup estimates for the verdict record (Re a < 0 region)."""
    ra, b_, c_ = abs(p.a.real), abs(p.b), abs(p.c)
    sup1 = math.inf if ra == 0.0 else math.log(b_ / ra)
    arg1 = (PhasePoint(omega=p.a.imag), 0)
    entries = [SupEstimate(k=1, sup=sup1, argmax=arg1, uncertainty=0.0)]
    phi_star = cmath.phase(p.b) % _TWO_PI
    arg2 = (PhasePoint(omega=p.a.imag, phi=(phi_star,)), 0)
    entries.append(SupEstimate(k=2, sup=sup_gamma2(p), argmax=arg2,
                               uncertainty=0.0))
    return entries


def classify_scalar(p):
    """Parameter-region classifier for the scalar two-delay family.

    Re a > 0 strongly unstable; |b| > |Re a| weakly unstable at scale 1;
    |c| > |Re a| - |b| weakly unstable at scale 2; otherwise stable.
    Boundary equalities (within ``_MARGIN``) are marginal.
    """
    ra = p.a.real
    if ra > _MARGIN:
        return StabilityVerdict(status="StronglyUnstable", scale=None,
                                witness=p.a, sup_gammas=(), margin=_MARGIN,
                                notes=())
    if abs(ra) <= _MARGIN:
        return StabilityVerdict(status="Marginal", scale=None, witness=None,
                                sup_gammas=(), margin=_MARGIN, notes=())
    sups = _sup_entries(p)
    t1 = abs(p.b) - abs(ra)
    if t1 > _MARGIN:
        point, branch = sups[0].argmax
        return StabilityVerdict(status="WeaklyUnstable", scale=1,
                                witness=(1, point, branch, sups[0].sup),
                                sup_gammas=tuple(sups[:1]), margin=_MARGIN,
                                notes=())
    if abs(t1) <= _MARGIN:
        return StabilityVerdict(status="Marginal", scale=None, witness=None,
                                sup_gammas=tuple(sups[:1]), margin=_MARGIN,
                                notes=())
    t2 = abs(p.c) - (abs(ra) - abs(p.b))
    if t2 > _MARGIN:
        point, branch = sups[1].argmax
        return StabilityVerdict(status="WeaklyUnstable", scale=2,
                                witness=(2, point, branch, sups[1].sup),
                                sup_gammas=tuple(sups), margin=_MARGIN,
                                notes=())
    if abs(t2) <= _MARGIN:
        return StabilityVerdict(status="Marginal", scale=None, witness=None,
                                sup_gammas=tuple(sups), margin=_MARGIN,
                                notes=())
    return StabilityVerdict(status="Stable", scale=None, witness=None,
                            sup_gammas=tuple(sups), margin=_MARGIN, notes=())
