"""Certified root location for analytic functions on rectangles.

The count of zeros inside a rectangle comes from the argument principle:
the winding number of f along the boundary, measured on an adaptively
refined sample of the perimeter.  Rectangles are then subdivided until each
piece holds one zero (polished by Newton) or is smaller than the requested
tolerance (reported as a multiple-root cluster).  A single-root piece whose
Newton polish fails is split in the same generation; clusters are polished
once, after the subdivision ends.  The sum of reported multiplicities
always equals the boundary count of the original rectangle; a violation
raises instead of returning silently wrong data.

Functions are evaluated in batches: ``f`` and its derivative ``fprime``
must accept a complex ndarray and return a matching ndarray, which is what
lets the backend kernels carry the load on dense spectra.

Candidate locations (``seeds``, a location given m times being an m-fold
candidate) stop the subdivision in any cell whose count equals the number
of its distinct converged seeds, each counted with its multiplicity; an
m-fold seed is converged when the small box around it counts m zeros.

Seeds, one-zero cells and clusters are all polished by ``_polish``, over
arrays of start points, leash half-sizes and counts.
"""

import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryZeroError, ConfigError, DimensionError,
                     ResolutionError)
from .linalg import cluster_points
from .model import _checked, _real

__all__ = ["Rectangle", "RootResult", "Records", "count_zeros", "find_roots"]

MAX_PHASE_STEP = math.pi / 4       # largest trusted phase change per interval
MAX_MAG_JUMP = np.log(4.0)         # largest trusted |log|f|| change
DERIV_EST_LIMIT = math.pi / 2      # largest trusted |dz| * |f'/f| estimate
LEN_OUTLIER_FACTOR = 8.0           # split intervals this far over the median
_JITTERS = (0.0, 0.033, -0.051, 0.017)
_INFLATE_FRACTION = 1e-6
_EPS_MACH = 2.0 ** -52
MAX_BATCH_CELLS = 256         # cells per batched count: bounds kernel memory
BOUNDARY_TOL = 1e-13          # root this close (times diag) to a contour: on it
MAX_DEPTH = 96                # refinement rounds of one boundary count
MAX_SAMPLES = 2_000_000       # boundary samples of one cell
_START_SAMPLES = 32           # boundary samples of a cell before refinement
NEWTON_MAXIT = 50             # Newton steps of one polish
INFLATE_TRIES = 3             # retries on an inflated window
_log = logging.getLogger("hierdde")


def _noise_radius(mult):
    """Resolution limit around an m-fold root at double precision.

    Within (machine eps)^(1/m) of such a root (times the local scale) the
    function value is smaller than its own evaluation noise, so no count,
    split or Newton step can be trusted there.
    """
    return _EPS_MACH ** (1.0 / max(1.0, float(mult)))


def _noise_scale(mult, size):
    """Eight m-fold noise radii at a point of modulus ``size``."""
    return 8.0 * _noise_radius(mult) * (1.0 + size)


_BOUNDS = ("re_min", "re_max", "im_min", "im_max")


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane; the bounds are
    read as real numbers (a boolean is refused) and kept as floats."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        vals = tuple(_checked(_real, getattr(self, name), name)
                     for name in _BOUNDS)
        if not all(map(math.isfinite, vals)):
            raise DimensionError("rectangle bounds must be finite")
        if not (vals[0] < vals[1] and vals[2] < vals[3]):
            raise DimensionError(f"degenerate rectangle {vals}")
        for name, v in zip(_BOUNDS, vals):
            object.__setattr__(self, name, v)

    @property
    def width(self):
        return self.re_max - self.re_min

    @property
    def height(self):
        return self.im_max - self.im_min

    @property
    def diag(self):
        return math.hypot(self.width, self.height)

    @property
    def center(self):
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    def contains(self, z, slack=0.0):
        return (self.re_min - slack <= z.real <= self.re_max + slack
                and self.im_min - slack <= z.imag <= self.im_max + slack)

    def inflate(self, delta):
        return Rectangle(self.re_min - delta, self.re_max + delta,
                         self.im_min - delta, self.im_max + delta)


@dataclass(frozen=True)
class RootResult:
    """One located root (or unresolved cluster) with its certificate data."""

    location: complex
    multiplicity: int
    residual: float
    newton_converged: bool


def _root(re, im, multiplicity, residual, newton_converged):
    """The RootResult of one record of ``_ROOT_COLUMNS``."""
    return RootResult(complex(re, im), multiplicity, residual,
                      newton_converged)


# the columns of find_roots' table; the spectrum files take the first four
_ROOT_COLUMNS = ("re", "im", "multiplicity", "residual", "newton_converged")


@dataclass(frozen=True, eq=False)
class Records(Sequence):
    """Records of one layout, kept as columns: ``values`` holds one numpy
    array per column of ``columns``, each with one value per record, and
    ``record(*values)`` builds a record only when one is read.  A column
    that can hold None is a masked array, None where it is masked.

    Integer indices (numpy integers and negative ones too) and iteration
    work as on a tuple, and a slice is a tuple of records; a record is
    built from Python scalars, as ``tolist`` gives them.  A table equals
    the list (or tuple, or table) of the same records.
    """

    columns: tuple
    values: tuple
    record: object

    def __len__(self):
        return len(self.values[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(itertools.starmap(
                self.record, zip(*[col[i].tolist() for col in self.values])))
        i = range(len(self))[i]  # IndexError out of range
        return self[i:i + 1][0]

    def __iter__(self):
        return itertools.starmap(
            self.record, zip(*[col.tolist() for col in self.values]))

    def __eq__(self, other):
        if isinstance(other, (list, tuple, Records)):
            return list(self) == list(other)
        return NotImplemented

    def column(self, name):
        """The values of the column ``name``, one per record."""
        return self.values[self.columns.index(name)]


def _boundary_points(box, t):
    """Map arc-length fractions t in [0, 1) to boundary points, ccw, on the
    rectangles whose (re_min, re_max, im_min, im_max) arrays are ``box``."""
    x0, x1, y0, y1 = box
    w, h = x1 - x0, y1 - y0
    s = t * (2.0 * (w + h))
    return np.where(s < w, x0 + s + 1j * y0,
                    np.where(s < w + h, x1 + 1j * (y0 + (s - w)),
                             np.where(s < 2 * w + h,
                                      x1 - (s - w - h) + 1j * y1,
                                      x0 + 1j * (y1 - (s - 2 * w - h)))))


def _winding_count(f, fprime, rects):
    """Winding numbers of f around each rectangle, by adaptive sampling
    (see ``_phase_walk``).

    Up to ``MAX_BATCH_CELLS`` rectangles share the kernel calls of each
    round, yet each sees exactly the samples it would see alone.  Returns
    one count per rectangle, None where a zero sits on its contour; a
    ``ResolutionError`` in any one raises.
    """
    if not 0 < len(rects) <= MAX_BATCH_CELLS:  # none, or several batches
        return [c for lo in range(0, len(rects), MAX_BATCH_CELLS) for c in
                _winding_count(f, fprime, rects[lo:lo + MAX_BATCH_CELLS])]
    box = np.array([(r.re_min, r.re_max, r.im_min, r.im_max)
                    for r in rects]).T
    turns, _ = _phase_walk(
        f, fprime, lambda cid, t: _boundary_points(box[:, cid], t),
        2.0 * ((box[1] - box[0]) + (box[3] - box[2])),
        np.array([BOUNDARY_TOL * r.diag for r in rects]), rects)
    for rect, turn in zip(rects, turns):
        # a nan f gives nan turns
        if turn is not None and not abs(turn - np.rint(turn)) <= 0.25:
            raise ResolutionError(f"non-integer winding {turn:.3f} "
                                  f"on {rect}")
    return [None if turn is None else int(np.rint(turn)) for turn in turns]


def _phase_walk(f, fprime, at, sizes, ztol, names, closed=True):
    """Phase change of f, in turns, along each path, by adaptive sampling.

    Path i has length ``sizes[i]``, and ``at(cid, t)`` gives the points at
    arc-length fractions ``t`` in [0, 1] of the paths ``cid``.  A closed
    path is sampled on [0, 1), its last interval running back to t = 0; an
    open one on [0, 1], both ends included.  Intervals are refined until
    the phase step, the log-magnitude step and the first-order phase
    estimate |dz| |f'/f| are all small; intervals much longer than the
    resolved median are split as well, which stops an interval whose
    endpoints happen to agree from hiding a full extra turn.

    All paths share the kernel calls of each round, in one sample set
    sorted by (path, t).  Returns the turns of each path, None where a
    zero is estimated within ``ztol[i]`` of it (as |f| / |f'|), and the
    final samples of each path in order of t (None alike); ``names[i]``
    names path i in a ``ResolutionError``.
    """
    per = _START_SAMPLES + (not closed)
    cid = np.repeat(np.arange(len(names)), per)
    t = np.tile(np.arange(per, dtype=np.float64) / _START_SAMPLES,
                len(names))
    z = at(cid, t)
    fz, dfz = f(z), fprime(z)
    turns, points = [None] * len(names), [None] * len(names)
    for _ in range(MAX_DEPTH + 1):
        cells, starts, seg, counts = np.unique(
            cid, return_index=True, return_inverse=True, return_counts=True)
        ends = starts + counts - 1
        nxt = np.arange(1, cid.size + 1)
        nxt[ends] = starts
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            absf = np.abs(fz)
            phase = np.angle(fz)
            dphi = np.mod(phase[nxt] - phase + np.pi, 2.0 * np.pi) - np.pi
            logf = np.log(absf)
            bad = ((np.abs(dphi) > MAX_PHASE_STEP)
                   | (np.abs(logf[nxt] - logf) > MAX_MAG_JUMP))
            # on-path zero test: |f| spans many orders of magnitude along
            # these paths (exponential growth off the imaginary axis), so
            # flag a root estimated first-order, as |f| / |f'|, within
            # ztol of the path
            dist = absf / np.abs(dfz)
            on_zero = ((np.minimum.reduceat(absf, starts) == 0.0)
                       | (np.minimum.reduceat(dist, starts) <= ztol[cells]))
            lens = t[nxt] - t
            lens[ends] = t[starts] + 1.0 - t[ends]
            P = sizes[cid]
            w_over_f = np.abs(dfz) / absf
            pair = np.maximum(w_over_f, w_over_f[nxt])
            bad |= (lens * P * pair) > DERIV_EST_LIMIT
        if not closed:  # an open path ends at t = 1: no interval back
            dphi[ends], bad[ends] = 0.0, False
        # per-path median of the good lengths, taken as np.median takes it
        srt = lens[np.lexsort((lens, bad, seg))]
        k = np.add.reduceat(~bad, starts, dtype=np.int64)
        lo = starts + (k - 1) // 2
        med = np.where(k > 0, (srt[lo] + srt[lo + 1 - k % 2]) / 2.0, np.inf)
        bad |= lens > (LEN_OUTLIER_FACTOR
                       * np.maximum(med, 1.0 / MAX_SAMPLES))[seg]
        # an interval still bad at the floating-point spacing of its own
        # endpoints cannot be refined: f is evaluation noise there, as when a
        # (possibly multiple) root sits on or next to the path
        stuck = bad & (lens * P <= 4.0 * _EPS_MACH * (1.0 + np.abs(z)))
        nbad = np.add.reduceat(bad, starts, dtype=np.int64)
        on_zero |= np.logical_or.reduceat(stuck, starts)
        walked = np.add.reduceat(dphi, starts) / (2.0 * np.pi)
        for j in np.flatnonzero(~on_zero & (nbad == 0)):
            turns[cells[j]] = float(walked[j])
            points[cells[j]] = z[starts[j]:ends[j] + 1]
        going = ~on_zero & (nbad > 0)
        if np.any(going & (counts + nbad > MAX_SAMPLES)):
            raise ResolutionError(
                f"boundary refinement exceeded {MAX_SAMPLES} samples")
        keep = going[seg]
        if not keep.any():
            return turns, points
        new = bad & keep
        tmid = np.mod(t[new] + 0.5 * lens[new], 1.0)
        znew = at(cid[new], tmid)
        # kept and new samples, one array at a time: one order for all
        t, cid = (np.concatenate([t[keep], tmid]),
                  np.concatenate([cid[keep], cid[new]]))
        order = np.lexsort((t, cid))
        t, cid = t[order], cid[order]
        z = np.concatenate([z[keep], znew])[order]
        fz = np.concatenate([fz[keep], f(znew)])[order]
        dfz = np.concatenate([dfz[keep], fprime(znew)])[order]
    raise ResolutionError(f"boundary refinement did not settle in "
                          f"{MAX_DEPTH} rounds on {names[cid[0]]}")


def _count_with_inflation(f, fprime, rect):
    base = _INFLATE_FRACTION * rect.diag
    for attempt in range(INFLATE_TRIES + 1):
        grown = rect if attempt == 0 else rect.inflate(attempt * base)
        count, = _winding_count(f, fprime, [grown])
        if count is not None:
            if attempt:
                _log.debug("count inflated %s to %s", rect, grown)
            return count, grown
    raise BoundaryZeroError(
        f"a zero sits on the boundary of {rect} and {INFLATE_TRIES} "
        f"inflation retries did not clear it")


def count_zeros(f, rect, fprime):
    """Number of zeros of f in rect, counted with multiplicity.

    ``f`` must be analytic on a neighbourhood of the closed rectangle and
    nonzero on its boundary; a root estimated (via |f|/|f'|) to lie within
    ``BOUNDARY_TOL`` times the diagonal of the contour triggers up to
    ``INFLATE_TRIES`` retries on a rectangle inflated by 1e-6 of the diagonal
    per attempt (the count then refers to the inflated rectangle), after
    which ``BoundaryZeroError`` is raised.  A nan value of f on the contour
    raises ``ResolutionError``.
    """
    return _count_with_inflation(f, fprime, rect)[0]


def _split(f, fprime, cells):
    """Split each (rect, count) cell into 2 or 4 children with counts.

    Near-square cells are quadrisected; cells with aspect ratio beyond 2 are
    bisected across the long axis (spectral windows are extreme strips and
    quadrisection would waste a dimension).  Split lines are jittered when a
    child count fails to add up, which moves the lines off any root they
    grazed.  Returns the (child, count, index of its parent) triples with
    zeros, the cells whose every jitter hit a (noise) zero on a split line
    -- their zeros cannot be separated in double precision -- and the cells
    failing each jitter.
    """
    split, failed, mismatched = {}, [0] * len(_JITTERS), set()
    todo = range(len(cells))
    for j, jit in enumerate(_JITTERS):
        kids = []
        for i in todo:
            r, w, h = cells[i][0], cells[i][0].width, cells[i][0].height
            xs, ys = [r.re_min, r.re_max], [r.im_min, r.im_max]
            if not h > 2.0 * w:
                xs.insert(1, r.re_min + (0.5 + jit) * w)
            if not w > 2.0 * h:
                ys.insert(1, r.im_min + (0.5 + jit) * h)
            kids.append([Rectangle(a, b, c, d) for a, b in zip(xs, xs[1:])
                         for c, d in zip(ys, ys[1:])])
        flat = [c for ks in kids for c in ks]
        counts = iter(_winding_count(f, fprime, flat))
        retry = []
        for i, ks in zip(todo, kids):
            got = [next(counts) for _ in ks]
            if None in got:
                retry.append(i)
            elif sum(got) == cells[i][1]:
                split[i] = [(c, n) for c, n in zip(ks, got) if n]
            else:
                mismatched.add(i)
                retry.append(i)
        failed[j], todo = len(retry), retry
        if not todo:
            break
    for i in mismatched.intersection(todo):
        raise ResolutionError(f"child counts never matched the parent count "
                              f"{cells[i][1]} on {cells[i][0]}")
    return ([(c, n, i) for i in sorted(split) for c, n in split[i]],
            [cells[i] for i in todo], failed)


def _newton_batch(f, fprime, z0, half_w, half_h, tol, within, mult):
    """Vectorized Newton (or secant) polish with per-point escape leashes.

    ``mult`` (per-point integer) scales the step to m*f/f', the
    variant that restores quadratic convergence on an m-fold root.  For
    m > 1 the convergence test uses a floor at the m-fold noise radius
    times the local scale: below that distance the value of f is
    evaluation noise and no smaller step can be certified.  A step leaving
    the rectangle ``within`` also escapes, so f is never evaluated outside.
    """
    z = z0.copy()
    active = np.ones(z.size, bool)
    converged = np.zeros(z.size, bool)
    mult = np.asarray(mult, np.float64)
    # the m-scaled step of a noisy m-fold root bottoms out near twice the
    # noise radius (the noise term eta/(A delta^(m-1)) grows again below
    # it), so certification needs headroom above that turning point; one
    # radius per distinct multiplicity
    ms, which = np.unique(mult, return_inverse=True)
    floors = np.array([4.0 * _noise_radius(m) for m in ms.tolist()])[which]
    step_tol = np.where(mult > 1.0,
                        np.maximum(tol, floors * (1.0 + np.abs(z0))),
                        tol)
    secant = fprime is None
    if secant:
        zprev = z0 + (half_w * 1e-3 + tol) + 1j * (half_h * 1e-3 + tol)
        fprev = f(zprev)
    for _ in range(NEWTON_MAXIT):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        zi = z[idx]
        fz = f(zi)
        with np.errstate(divide="ignore", invalid="ignore"):
            if secant:
                denom = fz - fprev[idx]
                step = np.where(denom != 0, fz * (zi - zprev[idx]) / denom,
                                np.inf)
            else:
                dfz = fprime(zi)
                step = np.where(dfz != 0, fz / dfz, np.inf)
            step = mult[idx] * step  # m * inf (a zero slope) is nan
        ok = np.isfinite(step)
        znew = zi - np.where(ok, step, 0.0)
        drift = znew - z0[idx]
        # the leash extends past the cell by the certification floor: a
        # cluster cell counted through near-noise boundary data may hold
        # its root just outside the exact cell
        escaped = (~ok
                   | (np.abs(drift.real) > 1.1 * half_w[idx] + step_tol[idx])
                   | (np.abs(drift.imag) > 1.1 * half_h[idx] + step_tol[idx]))
        escaped |= ~_inside(within, znew)
        done = ok & ~escaped & (np.abs(step) < step_tol[idx])
        if secant:
            zprev[idx] = zi
            fprev[idx] = fz
        z[idx] = np.where(escaped, zi, znew)
        converged[idx[done]] = True
        active[idx[done | escaped]] = False
    return z, converged


def _inside(rect, z, margin=0.0):
    """Mask of z at least ``margin`` inside rect, right and top edges
    excluded: split children share out their parent's points."""
    return ((rect.re_min + margin <= z.real) & (z.real < rect.re_max - margin)
            & (rect.im_min + margin <= z.imag) & (z.imag < rect.im_max - margin))


def _polish_seeds(f, fprime, seeds, rect, tol):
    """Converged lone seeds in rect (an m-fold one m times) and the margin
    each needs from a cell's edges.

    Every seed is polished in one ``_polish`` call from where it lies:
    simple ones by Newton on f with no leash, m-fold ones by the secant on
    f' within half the short side of rect.  A converged seed is lone when
    no other lies within the cluster resolution limit of a double root,
    taken at the largest |z|; only lone seeds are kept.  m-fold ones are
    kept when their box (a square a quarter of that limit wide on each
    side, so no two overlap) counts m zeros and when the cluster polish of
    that box converges inside it; their margin is twice the box half-width,
    at least ``tol``.
    """
    z = np.asarray([] if seeds is None else seeds, np.complex128).ravel()
    z = z[_inside(rect, z)]  # nan and inf compare False
    _, first, m = np.unique(z, return_index=True, return_counts=True)
    z, m = z[np.sort(first)], m[np.argsort(first)]  # in first-seen order
    size = np.where(m == 1, np.inf, 0.5 * min(rect.width, rect.height))
    z, ok = _polish(f, fprime, z, size, size, m, tol, within=rect)
    z, m = z[ok], m[ok]
    radius = _noise_scale(2, np.abs(z).max(initial=0.0))
    _, counts, labels = cluster_points(z, radius=radius)
    lone, hw = counts[labels] == 1, 0.25 * radius
    boxed = np.flatnonzero(lone & (m > 1) & _inside(rect, z, margin=hw))
    boxes = [(_square(c, hw), k) for c, k in zip(z[boxed], m[boxed])]
    got = _winding_count(f, fprime, [b for b, _ in boxes])
    zb, conv = _polish(f, fprime, *_cells(boxes), tol, within=rect)
    keep = lone & (m == 1)
    keep[boxed] = [n == k and done and b.contains(w)
                   for (b, k), n, done, w in zip(boxes, got, conv, zb)]
    z[boxed] = zb  # a box then lies within 2 hw of its seed
    rep, margin = m * keep, np.where(m > 1, max(tol, 2.0 * hw), tol)
    return np.repeat(z, rep), np.repeat(margin, rep)


def _square(c, hw):
    return Rectangle(c.real - hw, c.real + hw, c.imag - hw, c.imag + hw)


def _cells(cells):
    """Centres, half-widths, half-heights and counts of (rect, count)
    cells: the arrays ``_polish`` takes."""
    return (np.array([c.center for c, _ in cells], np.complex128),
            np.array([0.5 * c.width for c, _ in cells]),
            np.array([0.5 * c.height for c, _ in cells]),
            np.array([n for _, n in cells]))


def _polish(f, fprime, z0, hw, hh, mults, tol, within):
    """Polished location and convergence flag of each start point ``z0``,
    leashed to ``hw`` and ``hh`` around it, where ``mults`` zeros are
    expected; the only caller of ``_newton_batch``.

    A count of 1 takes Newton on f.  An m-fold zero of f is an (m-1)-fold
    zero of f', which is better conditioned by one noise-radius order (for
    m = 2 a simple zero, locatable to full precision), so larger counts take
    the secant on f' with the step scaled by m - 1.
    """
    roots, conv = z0.copy(), np.zeros(z0.size, bool)
    for i, g, gp in ((np.flatnonzero(mults == 1), f, fprime),
                     (np.flatnonzero(mults > 1), fprime, None)):
        if i.size:
            roots[i], conv[i] = _newton_batch(
                g, gp, z0[i], hw[i], hh[i], tol,
                mult=np.maximum(mults[i] - 1, 1), within=within)
    return roots, conv


def find_roots(f, rect, fprime, tol=1e-9, seeds=None, counted=None):
    """All zeros of f in rect, with multiplicities summing to the count.

    Returns ``Records`` of ``RootResult`` sorted by (real, imag), kept as
    the arrays re, im, multiplicity (int64), residual and newton_converged
    (bool); a RootResult is built only when one is read.  Roots closer
    than ``tol`` merge into one entry (multiplicities added, location taken
    from the member with the smallest residual).  If a zero sits on the
    requested boundary the rectangle is inflated as in ``count_zeros`` and
    results refer to the inflated window.

    ``seeds`` (complex array, optional) are candidate locations; one given
    m times is an m-fold candidate (see ``_polish_seeds``, which keeps the
    converged lone ones).  A cell whose count equals its number of kept
    seeds, m-fold ones counted m times and none within its margin of the
    edges (each seed belongs to one cell), holds exactly those roots and is
    not split further.  The merge joins the m copies of a seed into one
    m-fold root.  ``tol`` must be finite and positive.

    ``counted`` (optional) is the ``(count, counted_rect)`` pair of the
    window, as ``manifolds.window_count`` returns it: ``counted_rect`` is
    ``rect`` or ``rect`` inflated, and ``count`` the zeros in it.  It is
    taken in place of the boundary count of ``rect``, which is what
    ``find_roots`` computes without it.

    Each generation of cells polishes its single-root cells by Newton and
    splits those whose polish fails; clusters are polished once, at the end.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    total, base = (_count_with_inflation(f, fprime, rect)
                   if counted is None else counted)
    if total == 0:
        return Records(_ROOT_COLUMNS, tuple(
            np.empty(0, t) for t in (float, float, np.int64, float, bool)),
            _root)
    pts, margin = _polish_seeds(f, fprime, seeds, rect, tol)
    found, seeded = [], 0  # (locations, multiplicity, converged); roots
    clusters, failed = [], [0] * len(_JITTERS)
    generation = [(base, total, np.arange(pts.size))]  # seeds all in rect
    while generation:
        singles, to_split = [], []
        for cell, cnt, own in generation:
            # a cell holding a few zeros stops splitting near the cluster
            # resolution limit: the noise zone of an m-fold root has radius
            # ~ (machine eps)^(1/m), which jittered split lines cannot avoid
            # once the cell is a few times that size.  Only low-order
            # clusters stop early: for larger counts the radius would dwarf
            # genuine root spacings of dense spectra, and a true high-order
            # root is still caught as unsplittable below
            stop = (max(tol, _noise_scale(cnt, abs(cell.center)))
                    if 2 <= cnt <= 3 else tol)
            if (own.size == cnt
                    and _inside(cell, pts[own], margin=margin[own]).all()):
                found.append((pts[own], 1, True))
                seeded += cnt
            elif cell.diag < stop:
                clusters.append((cell, cnt))
            elif cnt == 1:
                singles.append((cell, own))
            else:
                to_split.append((cell, cnt, own))
        roots, conv = _polish(f, fprime, *_cells([(c, 1) for c, _ in singles]),
                              tol, within=base)
        for (cell, own), root, ok in zip(singles, roots, conv):
            if ok and cell.contains(root):
                found.append((complex(root), 1, True))
            elif cell.diag < max(tol, _noise_radius(2)
                                 * (1.0 + abs(cell.center))):
                # already at the evaluation-noise scale: accept the best
                # available point instead of splitting into noise
                loc = complex(root) if cell.contains(root, slack=tol) \
                    else cell.center
                found.append((loc, 1, False))
            else:
                to_split.append((cell, 1, own))
        generation = []
        if to_split:
            kids, stuck, fails = _split(f, fprime, [c[:2] for c in to_split])
            for c, n, i in kids:  # the seeds of a parent go to its children
                own = to_split[i][2]
                generation.append((c, n, own[_inside(c, pts[own])]
                                   if own.size else own))
            clusters += stuck
            failed = [a + b for a, b in zip(failed, fails)]

    for (cell, cnt), root, ok in zip(clusters,
                                     *_polish(f, fprime, *_cells(clusters),
                                              tol, within=base)):
        slack = max(tol, _noise_scale(cnt, abs(cell.center)))
        loc = complex(root) if ok and cell.contains(root, slack=slack) \
            else cell.center
        found.append((loc, cnt, bool(ok)))

    # the merge: a cluster adds its members' multiplicities, is converged
    # when one member is, and lies at its first member (in the order found)
    # of least residual below inf, else at its first member
    sizes = [np.size(z) for z, _, _ in found]
    locs = np.concatenate([np.empty(0, np.complex128)]
                          + [np.atleast_1d(z) for z, _, _ in found])
    residuals = np.abs(f(locs))
    residuals[~(residuals < math.inf)] = math.inf
    _, counts, labels = cluster_points(locs, radius=tol)
    best = np.lexsort((residuals, labels))[np.cumsum(counts) - counts]
    mults = np.bincount(labels, np.repeat([m for _, m, _ in found], sizes),
                        counts.size).astype(np.int64)
    conv = np.bincount(labels, np.repeat([c for _, _, c in found], sizes),
                       counts.size) > 0
    rank = np.lexsort((locs[best].imag, locs[best].real))
    best = best[rank]
    results = Records(_ROOT_COLUMNS, (
        locs.real[best], locs.imag[best], mults[rank], residuals[best],
        conv[rank]), _root)

    if int(mults.sum()) != total:
        raise ResolutionError(
            f"located multiplicities do not sum to the boundary count "
            f"{total} on {rect}")
    unconverged = int(conv.size - conv.sum())
    _log.debug("find_roots on %s: %d roots, %d not Newton-converged; "
               "certified with multiplicity: %d from seeds, %d by "
               "subdivision; window inflated: %s; cells failing each split "
               "jitter (the last are unsplittable): %s", rect, len(results),
               unconverged, seeded, total - seeded, base is not rect, failed)
    return results
