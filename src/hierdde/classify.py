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
(reflection, expansion, both contractions) in one batched grid call, and
keeps each seed's simplex and values as Python floats, so the bookkeeping
between calls costs its arithmetic rather than numpy calls on tiny arrays:
a step's re-ordering places the one replaced vertex by comparisons.  For a
scalar (d = 1) system a row's value does not depend on the points
evaluated with it, so the lockstep search is scipy's one-point
Nelder-Mead bit for bit.
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
    # +inf is the largest value; a later column must be strictly larger to
    # win, so the first of equals keeps the row, as argmax would.  Rows are
    # short, so the reduction loops over columns.
    safe = np.where(np.isnan(gammas), -math.inf, gammas)
    val = safe[:, 0]
    branch = np.zeros(val.shape, np.int64)
    for j in range(1, safe.shape[1]):
        wins = safe[:, j] > val
        val = np.where(wins, safe[:, j], val)
        branch[wins] = j
    branch[val == -math.inf] = -1
    return val, branch


def _sort(sim, f):
    """Reorder one simplex and its values in place, as ``np.argsort(f)``
    orders them.

    After a step only the last vertex has moved: when the others are
    strictly ascending and its value falls strictly between two of them
    (or beyond either end), comparisons place it.  Everything else (a
    first sort, a shrink, ties and nan) goes to ``np.argsort`` itself: its
    order among equal values depends on the machine's sort kernel (with
    AVX-512 it is not stable from four values up).
    """
    n = len(f) - 1
    v = f[n]
    p = n
    while p and v < f[p - 1]:
        p -= 1
    # v belongs at p if it lies strictly above f[p - 1] (a tie and nan do
    # not) and the others are strictly ascending
    placed = p == 0 or f[p - 1] < v
    i = 1
    while placed and i < n:
        placed = f[i - 1] < f[i]
        i += 1
    if placed:
        if p < n:
            sim.insert(p, sim.pop())
            f.insert(p, f.pop())
        return
    order = np.array(f).argsort().tolist()
    sim[:] = [sim[i] for i in order]
    f[:] = [f[i] for i in order]


def _converged(sim, f):
    """scipy's test: every vertex within xatol of the best in every
    coordinate and every value within fatol of its value (nan fails)."""
    xatol, fatol = _NM_OPTIONS["xatol"], _NM_OPTIONS["fatol"]
    best, fbest = sim[0], f[0]
    for fv in f[1:]:
        if not abs(fv - fbest) <= fatol:
            return False
    for v in sim[1:]:
        for x, b in zip(v, best):
            if not abs(x - b) <= xatol:
                return False
    return True


def minimize(fun, simplices):
    """Nelder-Mead from each of the stacked simplices (S, N+1, N), in lockstep.

    Every seed follows scipy's non-adaptive Nelder-Mead step for step: the
    same constants and arithmetic, the ``np.argsort`` re-ordering after
    every step, and its termination test with the ``_NM_OPTIONS``
    tolerances and limits (a seed that reaches ``maxfev`` mid-step stops
    where scipy stops).  Each seed's simplex, values and counters are
    Python floats and ints, so a step costs its arithmetic rather than a
    dozen numpy calls on tiny arrays.  Only the evaluation order differs:
    ``fun`` maps an (M, N) array of points to an array of M values, and
    one call per step evaluates the reflection, expansion, outside and
    inside contraction points of all live seeds; the seeds that shrink
    share one more call.  Returns ``x`` (S, N), ``fun`` (S,), ``nfev``,
    the evaluations scipy would have counted, summed over seeds, and
    ``capped``, the number of seeds stopped by ``maxiter`` or ``maxfev``
    rather than by the tolerances.
    """
    maxfev, maxiter = _NM_OPTIONS["maxfev"], _NM_OPTIONS["maxiter"]
    first = np.asarray(simplices, np.float64)
    S, N = first.shape[0], first.shape[2]
    n0 = min(N + 1, maxfev)
    f0 = np.reshape(fun(first[:, :n0].reshape(-1, N)), (S, n0)).tolist()
    sims, fs = first.tolist(), [f + [math.inf] * (N + 1 - n0) for f in f0]
    for sim, f in zip(sims, fs):
        _sort(sim, f)
    calls, iters = [n0] * S, [1] * S
    live, capped = list(range(S)), 0

    while live:
        go = []
        for i in live:
            if calls[i] >= maxfev or iters[i] >= maxiter:
                capped += 1
            elif not _converged(sims[i], fs[i]):
                go.append(i)
        live = go
        if not live:
            break
        # scipy's reflection, expansion, outside and inside contraction
        # from the centroid b of all vertices but the worst w, with its
        # rho, chi, psi = 1, 2, 0.5 multiplied out: (1 + rho) b - rho w
        # is 2 b - w bit for bit, and so on.  The centroid sum starts at
        # 0.0 as numpy's add.reduce does (it turns -0.0 sums into 0.0)
        refl, expa, outc, insc = [], [], [], []
        for i in live:
            sim = sims[i]
            worst = sim[-1]
            for j, w in enumerate(worst):
                acc = 0.0
                for v in sim[:-1]:
                    acc += v[j]
                b = acc / N
                refl.append(2 * b - w)
                expa.append(3 * b - 2 * w)
                outc.append(1.5 * b - 0.5 * w)
                insc.append(0.5 * b + 0.5 * w)
        L = len(live)
        flat = refl + expa + outc + insc  # row r is flat[r * N:r * N + N]
        vals = np.ravel(fun(np.array(flat).reshape(4 * L, N))).tolist()

        shrink = []
        for n, i in enumerate(live):
            sim, f = sims[i], fs[i]
            fr = vals[n]
            iters[i] += 1
            if not fr < f[0] and fr < f[-2]:
                calls[i] += 1
                sim[-1], f[-1] = flat[n * N:n * N + N], fr
            elif maxfev - calls[i] < 2:
                # the second evaluation would pass maxfev: stop unchanged
                calls[i] += 1
            else:
                calls[i] += 2
                if fr < f[0]:
                    row = L + n if vals[L + n] < fr else n
                elif fr < f[-1]:
                    row = 2 * L + n if vals[2 * L + n] <= fr else -1
                else:
                    row = 3 * L + n if vals[3 * L + n] < f[-1] else -1
                if row < 0:
                    shrink.append(i)
                else:
                    sim[-1], f[-1] = flat[row * N:row * N + N], vals[row]

        if shrink:  # towards the best vertex, scipy's sigma = 0.5
            moved = [[b + 0.5 * (x - b) for x, b in zip(v, sims[i][0])]
                     for i in shrink for v in sims[i][1:]]
            fmoved = np.ravel(fun(np.array(moved))).tolist()
            for n, i in enumerate(shrink):
                # only the vertices the remaining budget evaluates move
                m = min(maxfev - calls[i], N)
                sims[i][1:m + 1] = moved[n * N:n * N + m]
                fs[i][1:m + 1] = fmoved[n * N:n * N + m]
                calls[i] += m
        for i in live:
            _sort(sims[i], fs[i])

    return SimpleNamespace(x=np.array([sim[0] for sim in sims]),
                           fun=np.array(fs).min(axis=1), nfev=sum(calls),
                           capped=capped)


def sup_gamma(sys, k, grid=GridSpec()):
    """Supremum of the scale-k manifold branches over the canonical box.

    Coarse lattice (defaults as in the manifold grids), then Nelder-Mead
    from the best ``_SEED_COUNT`` cells, all seeds in lockstep
    (``minimize``: four speculative points per seed and step, one batched
    grid call per step, the simplices kept as Python floats between calls;
    seeds stopped by an iteration or evaluation cap are logged at DEBUG on
    logger ``hierdde``); a refined value above ``UNBOUNDED_GAMMA /
    sigma_k`` (or an exact zero root on the lattice) is reported as +inf
    with the singular point as witness — the supremum is genuinely
    unbounded exactly when the branch polynomial has a zero root there.
    The uncertainty is the largest change of gamma over steps of 1/100
    lattice spacing around the argmax; the argmax and these 2k probes are
    evaluated in one call.
    Projected (ladder) branches live in the closed left half-plane and
    cannot raise the supremum, so the ladder is not consulted.  If the
    top-scale matrix has rank zero the polynomial is constant, no branch
    exists, and the scale imposes no constraint: sup is -inf.
    """
    return lattice_sup(sys, grid, *scale_lattice(sys, k, grid))


def lattice_sup(sys, grid, level, axes, lattice):
    """``sup_gamma`` from the evaluated lattice of ``scale_lattice(sys, k,
    grid)``: its level, axes and lattice.

    The Nelder-Mead objective is minus each row's largest gamma, with a
    zero root (+inf) mapped to the plateau ``-10 UNBOUNDED_GAMMA /
    sigma_k`` and a row without a finite gamma to 1e6.  A one-column
    level's column is its own row maximum, so ``_row_max`` runs only for
    more branches; when every value is finite (one reduction, which nan
    fails) the plateau masks would change nothing and are skipped.
    """
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
        # minus each row's largest gamma: a one-column level's column is
        # its own row maximum, and its nan (a missing branch) is remapped
        # below as _row_max's -inf is
        g = level.gammas(X[:, 0], X[:, 1:])[1]
        val = -(g[:, 0] if g.shape[1] == 1 else _row_max(g)[0])
        if np.isfinite(val).all():
            return val
        return np.where(val == -math.inf, -10.0 * UNBOUNDED_GAMMA / sigma_k,
                        np.where(np.isfinite(val), val, 1e6))

    x0 = np.column_stack([omegas[seeds], phis[seeds]])
    steps = np.vstack([np.zeros(k), np.diag(0.5 * spacings)])
    res = minimize(objective, x0[:, None, :] + steps)
    if res.capped:
        _log.debug("scale-%d sup refinement: %d of %d Nelder-Mead seeds "
                   "stopped on maxiter or maxfev, not on tolerance",
                   k, res.capped, len(seeds))
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
