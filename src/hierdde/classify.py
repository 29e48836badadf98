"""Stability verdicts from the asymptotic spectra.

For small eps the zero solution is exponentially stable exactly when the
instantaneous matrix has no unstable eigenvalue and every spectral manifold
stays below zero; a manifold peeking above zero at scale k produces
eigenvalues with real part ~ eps**k > 0.  The supremum of each scale's
manifolds is estimated by a coarse lattice plus Nelder-Mead refinement
from the best cells, with an uncertainty radius from the local sample
variation; verdicts use a margin band because numerics cannot certify an
exact zero crossing.  The Nelder-Mead searches of one supremum run in
lockstep: each step evaluates four speculative points per seed
(reflection, expansion, both contractions) in one grid call.
"""

import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateSystemError, TrivialityError
from .manifolds import GridSpec, PhasePoint, scale_lattice, strong_spectrum

__all__ = [
    "SupEstimate",
    "StabilityVerdict",
    "sup_gamma",
    "classify",
]

# refinement past this height is treated as an unbounded (singular) branch
UNBOUNDED_GAMMA = math.log(1e8)
MARGIN = 1e-6  # half-width of the band around zero that no verdict trusts
_NM_OPTIONS = dict(xatol=1e-12, fatol=1e-11, maxiter=4000, maxfev=6000)
_SEED_COUNT = 5
# scipy's non-adaptive Nelder-Mead constants, and each step's speculative
# points as c0 * xbar + c1 * worst: reflection, expansion, outside and
# inside contraction (c1 * worst is -(rho * worst) etc. exactly, so the
# points carry scipy's bits)
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_STEP_COEFS = np.array([[1 + _RHO, -_RHO], [1 + _RHO * _CHI, -_RHO * _CHI],
                        [1 + _PSI * _RHO, -_PSI * _RHO], [1 - _PSI, _PSI]],
                       np.float64)
_log = logging.getLogger("hierdde")


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


def _row_max(gammas):
    """Largest gamma per grid row and its branch.

    A zero root gives +inf at the first such branch; a row without a finite
    gamma gives -inf and branch -1.  Missing branches (nan) are skipped.
    ``gammas`` has a column: ``sup_gamma`` returns before it reaches here
    for a scale without branches.
    """
    M = gammas.shape[0]
    # +inf is the largest value, and argmax takes the first of equals
    safe = np.where(np.isnan(gammas), -math.inf, gammas)
    branch = np.argmax(safe, axis=1)
    val = safe[np.arange(M), branch]
    return val, np.where(val == -math.inf, -1, branch)


def _sort_simplices(sim, fsim):
    order = np.argsort(fsim, axis=1)
    rows = np.arange(fsim.shape[0])[:, None]
    return sim[rows, order], fsim[rows, order]


def minimize(fun, simplices):
    """Nelder-Mead from each of the stacked simplices (S, N+1, N), in lockstep.

    Every seed follows scipy's non-adaptive Nelder-Mead step for step: the
    same constants, the argsort re-ordering after every step, and its
    termination test with the ``_NM_OPTIONS`` tolerances and limits (a
    seed that reaches ``maxfev`` mid-step stops where scipy stops).  Only
    the evaluation order differs: ``fun`` maps an (M, N) array of points
    to M values, and one call per step evaluates the reflection,
    expansion, outside and inside contraction points of all live seeds;
    the seeds that shrink share one more call.  Returns ``x`` (S, N),
    ``fun`` (S,) and ``nfev``, the evaluations scipy would have counted,
    summed over seeds.
    """
    opts = _NM_OPTIONS
    sim = np.array(simplices, np.float64)
    S, N = sim.shape[0], sim.shape[2]
    fsim = np.full((S, N + 1), math.inf)
    n0 = min(N + 1, opts["maxfev"])
    fsim[:, :n0] = np.reshape(fun(sim[:, :n0].reshape(-1, N)), (S, n0))
    fcalls = np.full(S, n0)
    sim, fsim = _sort_simplices(sim, fsim)
    cols = np.arange(1, N + 1)
    # the live seeds' simplices and counters; a seed that stops leaves
    # them, and its result goes back to sim, fsim and fcalls
    live = np.nonzero(fcalls < opts["maxfev"])[0]
    s, f, calls = sim[live], fsim[live], fcalls[live]
    iters = np.ones(live.size, np.int64)

    while live.size:
        stop = ((calls >= opts["maxfev"]) | (iters >= opts["maxiter"])
                | ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2))
                    <= opts["xatol"])
                   & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1)
                      <= opts["fatol"])))
        if stop.any():
            out, go = live[stop], ~stop
            sim[out], fsim[out], fcalls[out] = s[stop], f[stop], calls[stop]
            live, s, f = live[go], s[go], f[go]
            calls, iters = calls[go], iters[go]
            if not live.size:
                break
        xbar = np.add.reduce(s[:, :-1], 1) / N
        points = (_STEP_COEFS[:, :1, None] * xbar
                  + _STEP_COEFS[:, 1:, None] * s[:, -1])
        vals = np.reshape(fun(points.reshape(-1, N)), (4, live.size))
        fr, fe, fc, fcc = vals

        # scipy's branches as the row of the accepted point, -1 for a
        # shrink; a failed comparison (nan) takes the else branch
        expand = fr < f[:, 0]
        second = expand | ~(fr < f[:, -2])
        pick = np.where(expand, np.where(fe < fr, 1, 0),
                        np.where(~second, 0,
                                 np.where(fr < f[:, -1],
                                          np.where(fc <= fr, 2, -1),
                                          np.where(fcc < f[:, -1], 3, -1))))
        # a seed whose second evaluation would pass maxfev stops unchanged
        budget = opts["maxfev"] - calls
        halted = second & (budget < 2)
        keep = np.nonzero(~halted & (pick >= 0))[0]
        s[keep, -1] = points[pick[keep], keep]
        f[keep, -1] = vals[pick[keep], keep]
        calls += 1 + (second & ~halted)
        iters += 1

        shr = np.nonzero(~halted & (pick < 0))[0]
        if shr.size:
            base = s[shr, :1]
            moved = base + _SIGMA * (s[shr, 1:] - base)
            fmoved = np.reshape(fun(moved.reshape(-1, N)), (shr.size, N))
            # only the vertices the remaining budget evaluates move
            left = budget[shr] - 2
            moves = cols <= left[:, None]
            s[shr, 1:] = np.where(moves[:, :, None], moved, s[shr, 1:])
            f[shr, 1:] = np.where(moves, fmoved, f[shr, 1:])
            calls[shr] += np.minimum(left, N)
        s, f = _sort_simplices(s, f)

    return SimpleNamespace(x=sim[:, 0], fun=fsim.min(axis=1),
                           nfev=int(fcalls.sum()))


def sup_gamma(sys, k, grid=GridSpec()):
    """Supremum of the scale-k manifold branches over the canonical box.

    Coarse lattice (defaults as in the manifold grids), then Nelder-Mead
    from the best ``_SEED_COUNT`` cells, all seeds in lockstep
    (``minimize``: four speculative points per seed and step, one grid call
    per step); a refined value above ``UNBOUNDED_GAMMA / sigma_k`` (or an
    exact zero root on the lattice) is reported as +inf with the singular
    point as witness — the supremum is genuinely unbounded exactly when the
    branch polynomial has a zero root there.  The uncertainty is the
    largest change of gamma over steps of 1/100 lattice spacing around the
    argmax; the argmax and these 2k probes are evaluated in one call.
    Projected (ladder) branches live in the closed left half-plane and
    cannot raise the supremum, so the ladder is not consulted.  If the
    top-scale matrix has rank zero the polynomial is constant, no branch
    exists, and the scale imposes no constraint: sup is -inf.
    """
    return lattice_sup(sys, grid, *scale_lattice(sys, k, grid))


def lattice_sup(sys, grid, level, axes, lattice):
    """``sup_gamma`` from the evaluated lattice of ``scale_lattice(sys, k,
    grid)``: its level, axes and lattice."""
    k, sigma_k = level.k, level.sigma_k
    omegas, phis, _, gammas, _ = lattice
    if level.dk == 0:
        return SupEstimate(k=k, sup=-math.inf, argmax=None, uncertainty=0.0)

    # exact zero root already on the lattice: unbounded without refinement
    inf_rows = np.nonzero((gammas == math.inf).any(axis=1))[0]
    if inf_rows.size:
        i = int(inf_rows[0])
        b = int(np.argmax(gammas[i] == math.inf))
        point = PhasePoint(omega=float(omegas[i]),
                           phi=tuple(float(p) for p in phis[i]))
        return SupEstimate(k=k, sup=math.inf, argmax=(point, b),
                           uncertainty=0.0)

    row_max, _ = _row_max(gammas)
    if not np.isfinite(row_max).any():
        return SupEstimate(k=k, sup=-math.inf, argmax=None, uncertainty=0.0)
    seeds = np.argsort(row_max)[::-1][:_SEED_COUNT]
    seeds = seeds[np.isfinite(row_max[seeds])]

    spacings = [float(axes[0][1] - axes[0][0])]
    for j in range(1, k):
        period = 2.0 * math.pi / sys.sigma[j - 1]
        spacings.append(period / grid.phase_count)
    spacings = np.asarray(spacings)

    def objective(X):
        val, _ = _row_max(level.gammas(X[:, 0], X[:, 1:])[1])
        return np.where(val == math.inf, -10.0 * UNBOUNDED_GAMMA / sigma_k,
                        np.where(np.isfinite(val), -val, 1e6))

    x0 = np.column_stack([omegas[seeds], phis[seeds]])
    steps = np.vstack([np.zeros(k), np.diag(0.5 * spacings)])
    res = minimize(objective, x0[:, None, :] + steps)
    found = -res.fun
    best = int(np.argmax(found))
    best_val, best_x = float(found[best]), res.x[best]

    # the canonical argmax, then steps of 1/100 spacing along each axis
    point = PhasePoint.make(best_x[0], best_x[1:], sys.sigma)
    probe = np.diag(spacings / 100.0)
    X = np.concatenate([[point.omega], point.phi]) + np.vstack(
        [np.zeros(k), -probe, probe])
    vals, branches = _row_max(level.gammas(X[:, 0], X[:, 1:])[1])
    branch = int(branches[0])
    if np.isfinite(vals[0]):
        best_val = max(best_val, float(vals[0]))

    if best_val > UNBOUNDED_GAMMA / sigma_k:
        return SupEstimate(k=k, sup=math.inf, argmax=(point, branch),
                           uncertainty=0.0)

    near = vals[1:][np.isfinite(vals[1:])]
    unc = np.abs(near - best_val).max(initial=0.0)

    _leak_check(sys, grid, level, axes[0], point, best_val)
    return SupEstimate(k=k, sup=float(best_val), argmax=(point, branch),
                       uncertainty=float(unc))


def _leak_check(sys, grid, level, om, point, best_val):
    """Log a warning when the argmax hugs the edge of the omega axis ``om``.

    Only fires for the default window; a doubled window is then sampled to
    say whether anything bigger lives outside.
    """
    if grid.omega_range is not None:
        return
    lo, hi = float(om[0]), float(om[-1])
    edge = 0.05 * (hi - lo)
    if min(point.omega - lo, hi - point.omega) > edge:
        return
    wide = GridSpec(omega_count=grid.omega_count,
                    phase_count=grid.phase_count,
                    omega_range=(2.0 * lo, 2.0 * hi))
    gammas = level.lattice(wide.axes(sys, level.k))[3]
    outside = _row_max(gammas)[0].max()
    _log.warning("scale-%d sup argmax sits within 5%% of the omega window "
                 "edge; doubled-window grid max is %.6g vs refined %.6g",
                 level.k, outside, best_val)


def classify(sys, ladder, grid=GridSpec()):
    """Stability verdict for small eps.

    Refuses degenerate systems (the asymptotic description breaks down
    there).  StronglyUnstable on any unstable instantaneous eigenvalue;
    otherwise scales are examined in increasing order and the first sup
    beyond +(MARGIN + uncertainty) gives WeaklyUnstable at that scale.
    Stable needs every sup below -(MARGIN + uncertainty); anything else is
    Marginal.  Phases are searched over the canonical box only: each delay
    exponential covers the unit circle exactly once there, so no larger box
    can enlarge the range of any manifold.
    """
    if not ladder.nd_satisfied:
        raise DegenerateSystemError(
            "nondegeneracy fails: the level-1 pencil is singular in every "
            "direction, the hierarchy does not determine the spectrum")
    strong = strong_spectrum(sys)
    if strong.S0_plus.size:
        order = np.lexsort((strong.S0_plus.imag, strong.S0_plus.real))
        wit = complex(strong.S0_plus[order[-1]])
        return StabilityVerdict(status="StronglyUnstable", scale=None,
                                witness=wit, sup_gammas=(), margin=MARGIN,
                                notes=())

    notes = []
    sups = []
    for k in range(1, sys.n + 1):
        try:
            est = sup_gamma(sys, k, grid)
        except TrivialityError:
            if k == sys.n:
                raise
            notes.append(f"scale-{k} polynomial trivial, scale skipped")
            continue
        sups.append(est)
        band = MARGIN + est.uncertainty
        if est.sup == math.inf or est.sup > band:
            if k < sys.n:
                notes.append("destabilization found below the top scale; "
                             "generically the top-scale manifold crosses "
                             "first")
            point, branch = est.argmax
            return StabilityVerdict(status="WeaklyUnstable", scale=k,
                                    witness=(k, point, branch, est.sup),
                                    sup_gammas=tuple(sups), margin=MARGIN,
                                    notes=tuple(notes))
    if all(s.sup < -(MARGIN + s.uncertainty) for s in sups):
        status = "Stable"
    else:
        status = "Marginal"
    return StabilityVerdict(status=status, scale=None, witness=None,
                            sup_gammas=tuple(sups), margin=MARGIN,
                            notes=tuple(notes))
