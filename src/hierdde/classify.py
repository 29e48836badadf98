"""Stability verdicts from the asymptotic spectra.

For small eps the zero solution is exponentially stable exactly when the
instantaneous matrix has no unstable eigenvalue and every spectral manifold
stays below zero; a manifold peeking above zero at scale k produces
eigenvalues with real part ~ eps**k > 0.  The supremum of each scale's
manifolds is estimated by a coarse lattice plus Nelder-Mead refinement
from the best cells, with an uncertainty radius from the local sample
variation; verdicts use a margin band because numerics cannot certify an
exact zero crossing.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .degeneracy import check_nd
from .errors import DegenerateSystemError, TrivialityError
from .manifolds import (GridSpec, PhasePoint, _grid_gammas, _grid_points,
                        _level_data, canonical_phase, strong_spectrum)

__all__ = [
    "SupEstimate",
    "StabilityVerdict",
    "sup_gamma",
    "classify",
]

# refinement past this height is treated as an unbounded (singular) branch
UNBOUNDED_GAMMA = math.log(1e8)
_NM_OPTIONS = dict(xatol=1e-12, fatol=1e-11, maxiter=4000, maxfev=6000)
_SEED_COUNT = 5


@dataclass(frozen=True)
class SupEstimate:
    """Supremum of the scale-k manifolds with its search witnesses."""

    k: int
    sup: float
    argmax: object  # (PhasePoint, branch) or None
    uncertainty: float


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification outcome with witnesses.

    ``status`` is one of StronglyUnstable, WeaklyUnstable, Stable, Marginal;
    ``scale`` is the destabilizing k for WeaklyUnstable.  ``sup_gammas``
    holds the estimates computed on the way to the decision (scales past the
    first destabilizing one are not evaluated).
    """

    status: str
    scale: object
    witness: object
    sup_gammas: tuple
    margin: float
    notes: tuple

    def as_dict(self):
        sups = []
        for s in self.sup_gammas:
            entry = {"k": s.k, "sup": _ext(s.sup),
                     "uncertainty": _ext(s.uncertainty)}
            if s.argmax is not None:
                point, branch = s.argmax
                entry["argmax"] = {"omega": point.omega,
                                   "phi": list(point.phi), "branch": branch}
            sups.append(entry)
        wit = self.witness
        if isinstance(wit, complex):
            wit = {"eigenvalue": [wit.real, wit.imag]}
        elif wit is not None:
            k, point, branch, gamma = wit
            wit = {"k": k, "omega": point.omega, "phi": list(point.phi),
                   "branch": branch, "gamma": _ext(gamma)}
        return {"status": self.status, "scale": self.scale, "witness": wit,
                "sup_gammas": sups, "margin": self.margin,
                "notes": list(self.notes)}


def _ext(x):
    """inf-tolerant JSON encoding for extended reals."""
    x = float(x)
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return x


def _finite_row_max(gammas, neff):
    """Largest finite gamma per grid row, -inf where none exists."""
    if gammas.shape[1] == 0:
        return np.full(gammas.shape[0], -math.inf)
    cols = np.arange(gammas.shape[1])[None, :]
    valid = (cols < neff[:, None]) & np.isfinite(gammas)
    safe = np.where(valid, gammas, -math.inf)
    return safe.max(axis=1)


def _eval_max(data, sigma, sigma_k, x):
    """Best finite gamma at one search point x = [omega, phi...]."""
    omegas = np.array([x[0]])
    phis = np.asarray(x[1:], np.float64).reshape(1, -1)
    _, gammas, neff, dk, _ = _grid_gammas(data, sigma, sigma_k, omegas, phis)
    if dk == 0 or neff[0] <= 0:
        return -math.inf, -1
    row = gammas[0, :neff[0]]
    finite = np.isfinite(row)
    if np.any(row == math.inf):
        return math.inf, int(np.argmax(row == math.inf))
    if not finite.any():
        return -math.inf, -1
    idx = int(np.argmax(np.where(finite, row, -math.inf)))
    return float(row[idx]), idx


def sup_gamma(sys, ladder, k, search_cfg=None):
    """Supremum of the scale-k manifold branches over the canonical box.

    Coarse lattice (defaults as in the manifold grids), then Nelder-Mead
    from the best ``_SEED_COUNT`` cells; a refined value above
    ``UNBOUNDED_GAMMA / sigma_k`` (or an exact zero root on the lattice) is
    reported as +inf with the singular point as witness — the supremum is
    genuinely unbounded exactly when the branch polynomial has a zero root
    there.  The uncertainty is the largest change of
    gamma over steps of 1/100 lattice spacing around the argmax.  ``ladder``
    is accepted for signature symmetry and unused: projected branches live
    in the closed left half-plane and cannot raise the supremum.  If the
    top-scale matrix has rank zero the polynomial is constant, no branch
    exists, and the scale imposes no constraint: sup is -inf.
    """
    grid = search_cfg or GridSpec()
    data = _level_data(sys, k)
    sigma_k = sys.sigma[k - 1]
    omegas, phis = _grid_points(sys, k, grid)
    _, gammas, neff, dk, _ = _grid_gammas(data, sys.sigma, sigma_k,
                                          omegas, phis)
    if dk == 0:
        return SupEstimate(k=k, sup=-math.inf, argmax=None, uncertainty=0.0)
    if neff.size and np.all(neff < 0):
        raise TrivialityError(f"scale-{k} polynomial vanishes identically")

    # exact zero root already on the lattice: unbounded without refinement
    inf_rows = np.nonzero((gammas == math.inf).any(axis=1))[0]
    if inf_rows.size:
        i = int(inf_rows[0])
        b = int(np.argmax(gammas[i] == math.inf))
        point = PhasePoint(omega=float(omegas[i]),
                           phi=tuple(float(p) for p in phis[i]))
        return SupEstimate(k=k, sup=math.inf, argmax=(point, b),
                           uncertainty=0.0)

    row_max = _finite_row_max(gammas, neff)
    if not np.isfinite(row_max).any():
        return SupEstimate(k=k, sup=-math.inf, argmax=None, uncertainty=0.0)
    order = np.argsort(row_max)[::-1]
    seeds = order[:_SEED_COUNT]

    om_vals = grid.omega_values(sys)
    spacings = [float(om_vals[1] - om_vals[0])]
    for j in range(1, k):
        period = 2.0 * math.pi / sys.sigma[j - 1]
        spacings.append(period / grid.phase_count)
    spacings = np.asarray(spacings)

    def objective(x):
        val, _ = _eval_max(data, sys.sigma, sigma_k, x)
        if val == math.inf:
            return -10.0 * UNBOUNDED_GAMMA / sigma_k
        if val == -math.inf or not np.isfinite(val):
            return 1e6
        return -val

    best_val = -math.inf
    best_x = None
    for s in seeds:
        if not np.isfinite(row_max[s]):
            continue
        x0 = np.concatenate([[omegas[s]], phis[s]])
        simplex = np.vstack([x0] + [x0 + 0.5 * spacings[j] * np.eye(k)[j]
                                    for j in range(k)])
        res = minimize(objective, x0, method="Nelder-Mead",
                       options=dict(_NM_OPTIONS, initial_simplex=simplex))
        val = -float(res.fun)
        if val > best_val:
            best_val, best_x = val, np.asarray(res.x, np.float64)

    if best_x is None:
        i = int(order[0])
        best_x = np.concatenate([[omegas[i]], phis[i]])
        best_val = float(row_max[i])

    point = PhasePoint.make(best_x[0], best_x[1:], sys.sigma)
    val, branch = _eval_max(data, sys.sigma, sigma_k,
                            np.concatenate([[point.omega], point.phi]))
    if np.isfinite(val):
        best_val = max(best_val, val)

    if best_val > UNBOUNDED_GAMMA / sigma_k:
        return SupEstimate(k=k, sup=math.inf, argmax=(point, branch),
                           uncertainty=0.0)

    unc = 0.0
    for j in range(k):
        for sgn in (-1.0, 1.0):
            x = np.concatenate([[point.omega], point.phi])
            x[j] += sgn * spacings[j] / 100.0
            v, _ = _eval_max(data, sys.sigma, sigma_k, x)
            if np.isfinite(v):
                unc = max(unc, abs(v - best_val))

    _leak_check(sys, k, grid, data, sigma_k, point, best_val)
    return SupEstimate(k=k, sup=float(best_val), argmax=(point, branch),
                       uncertainty=float(unc))


def _leak_check(sys, k, grid, data, sigma_k, point, best_val):
    """Warn when the argmax hugs the omega window edge.

    Only fires for the default window; a doubled window is then sampled to
    say whether anything bigger lives outside.
    """
    if grid.omega_range is not None:
        return
    om = grid.omega_values(sys)
    lo, hi = float(om[0]), float(om[-1])
    edge = 0.05 * (hi - lo)
    if min(point.omega - lo, hi - point.omega) > edge:
        return
    wide = GridSpec(omega_count=grid.omega_count,
                    phase_count=grid.phase_count,
                    omega_range=(2.0 * lo, 2.0 * hi))
    omegas, phis = _grid_points(sys, k, wide)
    _, gammas, neff, _, _ = _grid_gammas(data, sys.sigma, sigma_k,
                                         omegas, phis)
    outside = _finite_row_max(gammas, neff).max()
    warnings.warn(
        f"scale-{k} sup argmax sits within 5% of the omega window edge; "
        f"doubled-window grid max is {outside:.6g} vs refined {best_val:.6g}",
        stacklevel=2)


def classify(sys, ladder, margin=1e-6, search_cfg=None):
    """Stability verdict for small eps.

    Refuses degenerate systems (the asymptotic description breaks down
    there).  StronglyUnstable on any unstable instantaneous eigenvalue;
    otherwise scales are examined in increasing order and the first sup
    beyond +(margin + uncertainty) gives WeaklyUnstable at that scale.
    Stable needs every sup below -(margin + uncertainty); anything else is
    Marginal.  Phases are searched over the canonical box only: each delay
    exponential covers the unit circle exactly once there, so no larger box
    can enlarge the range of any manifold.
    """
    if not check_nd(ladder, sys):
        raise DegenerateSystemError(
            "nondegeneracy fails: the level-1 pencil is singular in every "
            "direction, the hierarchy does not determine the spectrum")
    strong = strong_spectrum(sys)
    if strong.S0_plus.size:
        order = np.lexsort((strong.S0_plus.imag, strong.S0_plus.real))
        wit = complex(strong.S0_plus[order[-1]])
        return StabilityVerdict(status="StronglyUnstable", scale=None,
                                witness=wit, sup_gammas=(), margin=margin,
                                notes=())

    notes = []
    sups = []
    for k in range(1, sys.n + 1):
        try:
            est = sup_gamma(sys, ladder, k, search_cfg)
        except TrivialityError:
            if k == sys.n:
                raise
            notes.append(f"scale-{k} polynomial trivial, scale skipped")
            continue
        sups.append(est)
        band = margin + est.uncertainty
        if est.sup == math.inf or est.sup > band:
            if k < sys.n:
                notes.append("destabilization found below the top scale; "
                             "generically the top-scale manifold crosses "
                             "first")
            point, branch = est.argmax
            return StabilityVerdict(status="WeaklyUnstable", scale=k,
                                    witness=(k, point, branch, est.sup),
                                    sup_gammas=tuple(sups), margin=margin,
                                    notes=tuple(notes))
    if all(s.sup < -(margin + s.uncertainty) for s in sups):
        status = "Stable"
    else:
        status = "Marginal"
    return StabilityVerdict(status=status, scale=None, witness=None,
                            sup_gammas=tuple(sups), margin=margin,
                            notes=tuple(notes))
