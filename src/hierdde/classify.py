"""Stability verdicts from the asymptotic spectra.

For small eps the zero solution is exponentially stable exactly when the
instantaneous matrix has no unstable eigenvalue and every spectral manifold
stays below zero; a manifold peeking above zero at scale k produces
eigenvalues with real part ~ eps**k > 0.  The supremum of each scale's
manifolds is estimated by a coarse lattice, polished from its peaks by
stencil Newton steps, with an uncertainty radius from the local sample
variation; verdicts use a margin band because numerics cannot certify an
exact zero crossing.  The polish minimises |Y|^2 = exp(-2 sigma_k gamma_k)
of the smallest root, which is smooth where gamma has a sharp peak.  Its
seeds run in lockstep: one batched grid call per round evaluates every
live seed's 3^k stencil, and each seed's centre, box and values are Python
floats, so the bookkeeping between calls costs its arithmetic rather than
numpy calls on tiny arrays.  For a scalar (d = 1) system, whose row
values do not depend on the rows evaluated with them, each seed's steps
depend only on its own values.  Seeds meet only where one's centre enters
a better one's box: the worse one then stops, so one ridge is polished
once.
"""

import itertools
import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateSystemError, TrivialityError
from .manifolds import GridSpec, PhasePoint, manifold_grid, strong_spectrum

__all__ = [
    "SupEstimate",
    "StabilityVerdict",
    "sup_gamma",
    "classify",
]

# refinement past this height is treated as an unbounded (singular) branch
UNBOUNDED_GAMMA = math.log(1e8)
MARGIN = 1e-6  # half-width of the band around zero that no verdict trusts
_ROUNDS = 60  # round cap of one polish
_STOP = 1e-9  # a seed stops below this many lattice spacings of half-width
_FLAT = 4  # ulps of the centre value within which a stencil is flat
_SEED_COUNT = 5  # most lattice peaks polished
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


def _newton_step(f, N):
    """The Newton step, in half-widths, of one stencil's values ``f``.

    ``f`` holds the 3^N values of ``itertools.product((-1, 0, 1),
    repeat=N)`` offsets in half-widths, so the centre is its middle entry.
    The gradient and Hessian are their central differences; the step is
    None unless the Hessian is positive definite: a Cholesky factor with
    positive finite pivots, which a value that is not finite fails.
    """
    mid = len(f) // 2
    stride = [3 ** (N - 1 - i) for i in range(N)]
    f0 = f[mid]
    g, H = [], [[0.0] * N for _ in range(N)]
    for i, a in enumerate(stride):
        g.append(0.5 * (f[mid + a] - f[mid - a]))
        H[i][i] = f[mid + a] - 2.0 * f0 + f[mid - a]
        for j, b in enumerate(stride[:i]):
            H[i][j] = 0.25 * (f[mid + a + b] - f[mid + a - b]
                              - f[mid - a + b] + f[mid - a - b])
    # H = L L^T, then L y = -g and L^T step = y
    L = [[0.0] * N for _ in range(N)]
    for i in range(N):
        for j in range(i + 1):
            acc = H[i][j]
            for m in range(j):
                acc -= L[i][m] * L[j][m]
            if i > j:
                L[i][j] = acc / L[j][j]
            elif 0.0 < acc < math.inf:
                L[i][i] = math.sqrt(acc)
            else:
                return None
    step = [-u for u in g]
    for i in range(N):
        for m in range(i):
            step[i] -= L[i][m] * step[m]
        step[i] /= L[i][i]
    for i in reversed(range(N)):
        for m in range(i + 1, N):
            step[i] -= L[m][i] * step[m]
        step[i] /= L[i][i]
    return step


def minimize(fun, x0, spacings):
    """Polish each seed of ``x0`` (S, N) towards a local minimum of ``fun``
    by stencil Newton steps, all seeds in lockstep.

    ``fun`` maps an (M, N) array of points to an array of M values.  Each
    round makes one call: every live seed sends the 3^N points of its
    stencil, its centre plus -1, 0 or +1 half-widths along each axis, whose
    central differences give a gradient and a Hessian (``_newton_step``).
    The half-widths start at half the ``spacings`` (N,) and scale alike on
    every axis:
    - a positive definite Hessian gives the Newton step, scaled back into
      the stencil's box when it leaves it.  The box then grows by 2, as
      the minimum lies beyond it; otherwise it shrinks by 8;
    - without one (a kink where branch moduli cross, a saddle, a value
      that is not finite), the seed moves to its stencil's smallest value,
      or, when the centre holds it, stays while the box shrinks by 8.
    A seed stops when its stencil is flat to rounding (every value within
    ``_FLAT`` ulps of the centre's, so no step is left to take), when its
    half-widths fall below ``_STOP`` spacings or its centre value is not
    finite, and the rest after ``_ROUNDS`` rounds.  After each round the
    live seeds merge: taken by smallest value (the first seed on a tie),
    a seed whose centre lies within a kept seed's half-widths on every
    axis stops, as the two now climb one ridge.  A merge only stops a
    seed, so a kept seed's path is the one it takes alone.
    Returns ``x`` (S, N) and ``fun`` (S,), each seed's smallest evaluated
    value (the first on a tie, inf if there is none) and its point;
    ``nfev``, the points evaluated; ``capped``, the number of seeds
    stopped by the round cap; and ``merged``, the number merged into a
    better seed.
    """
    x0 = np.asarray(x0, np.float64)
    S, N = x0.shape
    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=N)))
    P, mid = len(offsets), len(offsets) // 2
    centres, scale = x0.tolist(), [0.5] * S
    best_x, best_f = x0.tolist(), [math.inf] * S
    live, nfev, rounds, merged = list(range(S)), 0, 0, 0
    steps = np.asarray(spacings, np.float64).tolist()
    while live and rounds < _ROUNDS:
        rounds += 1
        widths = np.array([scale[i] for i in live])[:, None] * spacings
        X = (np.array([centres[i] for i in live])[:, None, :]
             + offsets * widths[:, None, :]).reshape(-1, N)
        vals = np.ravel(fun(X)).tolist()
        nfev += len(vals)
        go = []
        for n, i in enumerate(live):
            f = vals[n * P:n * P + P]
            if not math.isfinite(f[mid]):
                continue
            m = mid  # the first smallest value, the centre on a tie
            for r, v in enumerate(f):
                if v < f[m]:
                    m = r
            if f[m] < best_f[i]:
                best_x[i], best_f[i] = X[n * P + m].tolist(), f[m]
            flat = _FLAT * math.ulp(f[mid])
            if all(abs(v - f[mid]) <= flat for v in f):
                continue  # the stencil sees only rounding: done
            step = _newton_step(f, N)
            if step is None:  # no model: a pattern move, or shrink
                if m == mid:
                    scale[i] *= 0.125
                else:
                    centres[i] = X[n * P + m].tolist()
            else:  # the Newton step, scaled back into the box
                over = max(abs(u) for u in step)
                back = 1.0 / max(1.0, over)
                centres[i] = [c + u * back * w for c, u, w in
                              zip(centres[i], step, widths[n].tolist())]
                scale[i] *= 2.0 if over > 1.0 else 0.125
            if scale[i] >= _STOP:
                go.append(i)
        # one seed per ridge: best value first, a seed whose centre lies
        # in a kept seed's box on every axis is dropped
        kept = []
        for i in sorted(go, key=best_f.__getitem__):
            if not any(all(abs(c - o) <= scale[j] * h for c, o, h in
                           zip(centres[i], centres[j], steps))
                       for j in kept):
                kept.append(i)
        merged += len(go) - len(kept)
        live = sorted(kept)
    return SimpleNamespace(x=np.array(best_x), fun=np.array(best_f),
                           nfev=nfev, capped=len(live), merged=merged)


def sup_gamma(sys, k, grid=GridSpec()):
    """Supremum of the scale-k manifold branches over the canonical box.

    ``lattice_sup`` on the scale-k ``manifold_grid`` table: a coarse
    lattice (defaults as in the manifold grids, each delay factor taken
    once per phase-axis value), then the stencil Newton polish
    (``minimize``) from one cell per lattice peak, the best
    ``_SEED_COUNT`` peaks, all seeds in lockstep, one batched grid call
    per round, and peaks on one ridge merged into one seed (the seeds
    merged and those stopped by the round cap are counted in one DEBUG
    record on logger ``hierdde``, as its ``extra`` fields ``seeds``,
    ``merged`` and ``capped``); a polished
    value above ``UNBOUNDED_GAMMA / sigma_k`` (or an exact zero root on the
    lattice) is reported as +inf with the singular point as witness — the
    supremum is genuinely unbounded exactly when the branch polynomial has
    a zero root there.  Otherwise the supremum is gamma at the canonical
    argmax.
    The uncertainty is the largest change of gamma over steps of 1/100
    lattice spacing around the argmax; the argmax and these 2k probes are
    evaluated in one call.  The supremum takes no matrix decomposition of
    its own: its level and omega bound read the system's cached ``norms``
    and ``svds``.
    Projected (ladder) branches live in the closed left half-plane and
    cannot raise the supremum, so the ladder is not consulted.  If the
    top-scale matrix has rank zero the polynomial is constant, no branch
    exists, and the scale imposes no constraint: sup is -inf.
    """
    return lattice_sup(sys, grid, manifold_grid(sys, k, grid))


def _peaks(v):
    """Flat indices of the lattice's local maxima, best first (the first
    cell on a tie), at most ``_SEED_COUNT``.

    ``v`` holds each cell's row maximum in the lattice's shape, omega
    first.  A peak is a finite cell no lower than its two neighbours along
    each axis; the phase axes wrap around, the omega axis does not.
    """
    peak = np.isfinite(v)
    peak[1:] &= v[1:] >= v[:-1]
    peak[:-1] &= v[:-1] >= v[1:]
    for axis in range(1, v.ndim):
        peak &= (v >= np.roll(v, 1, axis)) & (v >= np.roll(v, -1, axis))
    cells = np.flatnonzero(peak)
    best = np.argsort(-v.reshape(-1)[cells], kind="stable")
    return cells[best[:_SEED_COUNT]]


def lattice_sup(sys, grid, table):
    """``sup_gamma`` from ``table``, the ``manifold_grid(sys, k, grid)``
    lattice: its level, axes and full-lattice heights.  A seed or witness
    is a lattice index, decoded from the axes by ``table._coords``.

    The polish starts from the lattice's peaks (``_peaks``), not its best
    cells, which crowd on one peak: each peak is polished once, and a
    peak that the lattice reads below another's flank is still polished.
    The polished objective is ``exp(2 sigma_k v)``, where v is minus each
    row's largest gamma: |Y|^2 of the row's smallest root, smooth where
    gamma has a sharp peak, on which a stencil stalls.  Before the
    exponential, a zero root (+inf) maps to the plateau ``-10
    UNBOUNDED_GAMMA / sigma_k`` and a row without a finite gamma to 1e6,
    which overflows to inf and stops a seed.  A one-column level's column
    is its own row maximum, so ``_row_max`` runs only for more branches;
    when every v is finite (one reduction, which nan fails) the plateau
    masks would change nothing and are skipped.
    """
    level, axes, gammas = table.level, table.axes, table.gammas
    k, sigma_k = level.k, level.sigma_k
    if level.dk == 0:
        return SupEstimate(k=k, sup=-math.inf, argmax=None, uncertainty=0.0)

    # exact zero root already on the lattice: unbounded without refinement
    inf_rows = np.nonzero((gammas == math.inf).any(axis=1))[0]
    if inf_rows.size:
        i = int(inf_rows[0])
        b = int(np.argmax(gammas[i] == math.inf))
        omega, *phi = (c[0] for c in table._coords(
            [i], [ax.tolist() for ax in axes]))
        point = PhasePoint(omega=omega, phi=tuple(phi))
        return SupEstimate(k=k, sup=math.inf, argmax=(point, b),
                           uncertainty=0.0)

    row_max, _ = _row_max(gammas)
    seeds = _peaks(row_max.reshape([ax.size for ax in axes]))
    if not seeds.size:
        return SupEstimate(k=k, sup=-math.inf, argmax=None, uncertainty=0.0)

    spacings = [float(axes[0][1] - axes[0][0])]
    for j in range(1, k):
        period = 2.0 * math.pi / sys.sigma[j - 1]
        spacings.append(period / grid.phase_count)
    spacings = np.asarray(spacings)

    def objective(X):
        # |Y|^2 of each row's smallest root, from minus the row's largest
        # gamma: a one-column level's column is its own row maximum, and
        # its nan (a missing branch) is remapped below as _row_max's -inf
        # is.  The 1e6 plateau overflows exp to inf
        g = level.gammas(X.T)[1]
        val = -(g[:, 0] if g.shape[1] == 1 else _row_max(g)[0])
        if not np.isfinite(val).all():
            val = np.where(val == -math.inf,
                           -10.0 * UNBOUNDED_GAMMA / sigma_k,
                           np.where(np.isfinite(val), val, 1e6))
        with np.errstate(over="ignore"):
            return np.exp(2.0 * sigma_k * val)

    x0 = np.array(table._coords(seeds, axes)).T
    res = minimize(objective, x0, spacings)
    news = [f"{n} of {len(seeds)} seeds {what}" for n, what in (
        (res.merged, "merged into a better seed"),
        (res.capped, f"stopped on the round cap of {_ROUNDS}")) if n]
    if news:
        _log.debug("scale-%d sup refinement: %s", k, ", ".join(news),
                   extra={"seeds": len(seeds), "merged": res.merged,
                          "capped": res.capped})
    best = int(np.argmin(res.fun))
    best_x = res.x[best]

    # the canonical argmax, then steps of 1/100 spacing along each axis
    point = PhasePoint.make(best_x[0], best_x[1:], sys.sigma)
    probe = np.diag(spacings / 100.0)
    X = np.concatenate([[point.omega], point.phi]) + np.vstack(
        [np.zeros(k), -probe, probe])
    vals, branches = _row_max(level.gammas(X.T)[1])
    branch = int(branches[0])
    # gamma at the point; where it is not finite (a zero root, or no
    # branch), the polished value, which on the zero-root plateau lies
    # above the unbounded threshold
    best_val = float(vals[0]) if np.isfinite(vals[0]) else float(
        np.log(res.fun[best]) / (-2.0 * sigma_k))

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
    gammas = level.lattice(wide.axes(sys, level.k)).gammas
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
    can enlarge the range of any manifold.  Each supremum (``sup_gamma``)
    costs one lattice, whose delay factors are taken once per phase-axis
    value, and one polish seed per ridge of lattice peaks, each stopped
    once its stencil is flat to rounding; the matrix norms and SVDs are
    taken once per system (``DelaySystem.norms`` and ``svds``), and a
    scalar level solves its rows without building them.
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
