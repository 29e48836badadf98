"""Winding-number root counting and subdivision-based root location."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import hierdde as h
from hierdde import rootfinder as rf
from hierdde.errors import ConfigError, DimensionError


def _poly_pair(roots):
    """Vectorized polynomial with the given roots, plus its derivative."""
    coeffs = np.poly(np.asarray(roots, dtype=complex))
    dcoeffs = np.polyder(coeffs)
    return (lambda z: np.polyval(coeffs, z)), (lambda z: np.polyval(dcoeffs, z))


def test_rectangle_basics():
    r = h.Rectangle(-1.0, 2.0, -0.5, 0.5)
    assert r.width == 3.0 and r.height == 1.0
    assert r.center == 0.5 + 0.0j
    assert r.contains(0.0 + 0.0j)
    assert not r.contains(3.0 + 0.0j)


def test_rectangle_rejects_degenerate():
    with pytest.raises(DimensionError):
        h.Rectangle(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(DimensionError):
        h.Rectangle(0.0, 1.0, 2.0, 1.0)
    for bounds in ((-np.inf, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, np.inf),
                   (0.0, np.nan, 0.0, 1.0)):
        with pytest.raises(DimensionError, match="finite"):
            h.Rectangle(*bounds)


def test_rectangle_reads_bounds_as_floats():
    # bounds are read as config values are: a numeric string or a whole
    # number becomes a float, anything else names its bound
    r = h.Rectangle("0", 1, np.float64(-1.0), 1.0)
    assert r == h.Rectangle(0.0, 1.0, -1.0, 1.0)
    assert all(type(v) is float
               for v in (r.re_min, r.re_max, r.im_min, r.im_max))
    with pytest.raises(ConfigError, match="^malformed im_max='a': "):
        h.Rectangle(0.0, 1.0, 0.0, "a")
    with pytest.raises(ConfigError, match="^malformed re_max=None: "):
        h.Rectangle(0.0, None, 0.0, 1.0)


def test_count_zeros_polynomials():
    box = h.Rectangle(-2.0, 2.0, -2.0, 2.0)
    assert h.count_zeros(lambda z: z * z + 1.0, box, lambda z: 2.0 * z) == 2
    # multiplicity counts
    assert h.count_zeros(lambda z: z * z, box, lambda z: 2.0 * z) == 2
    assert h.count_zeros(lambda z: z - 5.0, box, np.ones_like) == 0


def test_count_zeros_transcendental():
    box = h.Rectangle(0.0, 1.0, -1.0, 1.0)
    assert h.count_zeros(lambda z: -z + np.exp(-z), box,
                         lambda z: -1.0 - np.exp(-z)) == 1


def test_count_of_an_aliasing_lambert_w_window():
    # the 32 starting samples are 0.78 apart, where exp(-8 i y) turns by
    # almost exactly 2 pi: the phase steps alone cannot see the 15 turns,
    # the derivative's |dz| |f'/f| test does
    f = lambda z: -z + np.exp(-8.0 * z)
    fp = lambda z: -1.0 - 8.0 * np.exp(-8.0 * z)
    box = h.Rectangle(-0.408, 0.401, -6.0, 6.0)
    assert h.count_zeros(f, box, fp) == 15
    want = np.array([lambertw(8.0, k) / 8.0 for k in range(-8, 9)])
    inside = want[np.abs(want.imag) < 6.0]
    assert inside.size == 15
    found = np.array([r.location for r in h.find_roots(f, box, fp)])
    assert _nearest(inside, found).max() <= 1e-10


def test_find_roots_quadratic():
    f, fp = _poly_pair([1j, -1j])
    roots = h.find_roots(f, h.Rectangle(-2.0, 2.0, -2.0, 2.0), fprime=fp, tol=1e-10)
    assert len(roots) == 2
    locs = [r.location for r in roots]
    assert locs == sorted(locs, key=lambda z: (z.real, z.imag))
    assert abs(locs[0] + 1j) <= 1e-9 and abs(locs[1] - 1j) <= 1e-9
    assert all(r.multiplicity == 1 for r in roots)
    assert all(r.newton_converged for r in roots)
    assert all(r.residual <= 1e-9 for r in roots)


def test_find_roots_transcendental_oracle():
    f = lambda z: -z + np.exp(-z)
    fp = lambda z: -1.0 - np.exp(-z)
    roots = h.find_roots(f, h.Rectangle(0.0, 1.0, -1.0, 1.0), fprime=fp)
    assert len(roots) == 1
    assert roots[0].location == pytest.approx(0.567143290409784, abs=1e-12)


def test_double_root_with_neighbor():
    f, fp = _poly_pair([1.0, 1.0, -1j])
    roots = h.find_roots(f, h.Rectangle(-2.0, 4.0, -3.0, 3.0), fprime=fp)
    bymult = {r.multiplicity: r for r in roots}
    assert set(bymult) == {1, 2}
    assert abs(bymult[2].location - 1.0) <= 1e-6
    assert abs(bymult[1].location + 1j) <= 1e-8


def test_double_root_off_axis():
    z0 = 0.3 + 0.7j
    f, fp = _poly_pair([z0, z0])
    roots = h.find_roots(f, h.Rectangle(-1.0, 1.0, -1.0, 1.5), fprime=fp)
    assert len(roots) == 1 and roots[0].multiplicity == 2
    assert abs(roots[0].location - z0) <= 1e-6


def test_triple_root_cluster():
    f, fp = _poly_pair([0.5, 0.5, 0.5])
    roots = h.find_roots(f, h.Rectangle(-1.0, 2.0, -1.0, 1.0), fprime=fp)
    assert len(roots) == 1
    assert roots[0].multiplicity == 3
    assert abs(roots[0].location - 0.5) <= 1e-4


def test_mixed_multiplicities():
    f, fp = _poly_pair([1.0, 1.0, -1j, 1.3])
    roots = h.find_roots(f, h.Rectangle(-2.0, 4.0, -3.0, 3.0), fprime=fp)
    assert sum(r.multiplicity for r in roots) == 4
    for z, m in [(-1j, 1), (1.0 + 0.0j, 2), (1.3 + 0.0j, 1)]:
        match = [r for r in roots if abs(r.location - z) <= 1e-6]
        assert len(match) == 1 and match[0].multiplicity == m


def test_roots_closer_than_tol_end_as_single_root_clusters():
    # two simple roots 6e-4 apart, under tol = 1e-3: each ends in a
    # count-1 cell below tol, and the two merge into one double entry
    r1 = 0.127 + 0.2j
    r2 = r1 + 6e-4
    roots = h.find_roots(
        lambda z: (z - r1) * (z - r2) * np.exp(z),
        h.Rectangle(0.0, 0.25, 0.1, 0.35),
        lambda z: (2.0 * z - r1 - r2 + (z - r1) * (z - r2)) * np.exp(z),
        tol=1e-3)
    assert len(roots) == 1 and roots[0].multiplicity == 2
    assert abs(roots[0].location - r1) <= 1e-3
    assert abs(roots[0].location - r2) <= 1e-3
    assert roots == [h.RootResult(
        location=0.12759476322884702 + 0.19996548903452557j, multiplicity=2,
        residual=2.3625884293926503e-08, newton_converged=True)]


def test_single_root_accepted_at_the_noise_scale():
    # a zero derivative stops every Newton step, so the cell is split down
    # to the evaluation-noise scale and its best point accepted unconverged
    r = 0.3 + 0.4j
    roots = h.find_roots(lambda z: (z - r) * np.exp(z),
                         h.Rectangle(0.0, 1.0, 0.0, 1.0), np.zeros_like)
    assert len(roots) == 1 and roots[0].multiplicity == 1
    assert not roots[0].newton_converged
    assert abs(roots[0].location - r) <= 1e-8


def test_root_on_window_corner_counted_once():
    f, fp = _poly_pair([0.0, 3.0])
    box = h.Rectangle(0.0, 1.0, 0.0, 1.0)
    assert h.count_zeros(f, box, fprime=fp) == 1
    roots = h.find_roots(f, box, fprime=fp)
    assert len(roots) == 1
    assert abs(roots[0].location) <= 1e-6


def test_root_on_window_edge():
    assert h.count_zeros(lambda z: z - 0.5, h.Rectangle(0.5, 1.0, -0.5, 0.5),
                         np.ones_like) == 1


def test_split_window_counts_add_up():
    roots_true = [0.4 + 0.3j, -0.6 - 0.2j, 0.1 - 0.7j]
    f, fp = _poly_pair(roots_true)
    whole = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    left = h.Rectangle(-1.0, 0.05, -1.0, 1.0)
    right = h.Rectangle(0.05, 1.0, -1.0, 1.0)
    assert h.count_zeros(f, whole, fp) == 3
    assert h.count_zeros(f, left, fp) + h.count_zeros(f, right, fp) == 3
    got = sorted([r.location for r in h.find_roots(f, left, fprime=fp)]
                 + [r.location for r in h.find_roots(f, right, fprime=fp)],
                 key=lambda z: z.real)
    want = sorted(roots_true, key=lambda z: z.real)
    assert np.allclose(got, want, atol=1e-8)


def test_winding_count_equals_root_count_random():
    rng = np.random.default_rng(808)
    box = h.Rectangle(-1.5, 1.5, -1.5, 1.5)
    done = 0
    while done < 60:
        deg = int(rng.integers(1, 7))
        roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        # keep roots away from the boundary so the truth is unambiguous
        near = np.minimum(np.abs(np.abs(roots.real) - 1.5),
                          np.abs(np.abs(roots.imag) - 1.5)) < 1e-3
        if near.any():
            continue
        inside = (np.abs(roots.real) < 1.5) & (np.abs(roots.imag) < 1.5)
        f, fp = _poly_pair(roots)
        assert h.count_zeros(f, box, fprime=fp) == int(inside.sum())
        done += 1


def test_find_roots_random_separated():
    rng = np.random.default_rng(909)
    box = h.Rectangle(-1.5, 1.5, -1.5, 1.5)
    done = 0
    while done < 20:
        deg = int(rng.integers(2, 6))
        roots = rng.uniform(-1.2, 1.2, deg) + 1j * rng.uniform(-1.2, 1.2, deg)
        gaps = np.abs(roots[:, None] - roots[None, :]) + 10 * np.eye(deg)
        if gaps.min() < 0.05:
            continue
        f, fp = _poly_pair(roots)
        found = h.find_roots(f, box, fprime=fp)
        assert sum(r.multiplicity for r in found) == deg
        got = np.sort_complex(np.array([r.location for r in found]))
        assert np.allclose(got, np.sort_complex(roots), atol=1e-7)
        done += 1


def test_resolution_error_when_depth_exhausted(monkeypatch):
    # a zero-free function whose boundary phase needs several refinement
    # rounds: a depth cap of 1 cannot settle, a modest cap can
    f = lambda z: np.exp(50j * z)
    fp = lambda z: 50j * np.exp(50j * z)
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    monkeypatch.setattr(rf, "MAX_DEPTH", 1)
    with pytest.raises(h.ResolutionError):
        h.count_zeros(f, box, fp)
    monkeypatch.setattr(rf, "MAX_DEPTH", 6)
    assert h.count_zeros(f, box, fp) == 0


def test_residuals_certified_small():
    f, fp = _poly_pair([0.25, -0.75j])
    roots = h.find_roots(f, h.Rectangle(-1.0, 1.0, -1.0, 1.0), fprime=fp, tol=1e-10)
    assert len(roots) == 2
    for r in roots:
        assert r.residual >= 0.0
        assert r.residual <= 1e-9


# ---------------------------------------------------------------------------
# batched boundary counts and their error paths
# ---------------------------------------------------------------------------

def _recording(fn, seen):
    def wrapped(z):
        seen.append(np.array(z))
        return fn(z)
    return wrapped


def _reference_count(f, fprime, rect, boundary_tol=1e-13, max_depth=96,
                     n0=32, max_samples=2_000_000):
    """Winding count of one rectangle, one cell at a time (None: a zero on
    the contour): the per-cell algorithm the batched count must reproduce,
    sample for sample."""
    P = 2.0 * (rect.width + rect.height)

    def points(t):
        w, h = rect.width, rect.height
        s = t * P
        z = np.empty(t.shape, np.complex128)
        m = s < w
        z[m] = rect.re_min + s[m] + 1j * rect.im_min
        m = (s >= w) & (s < w + h)
        z[m] = rect.re_max + 1j * (rect.im_min + (s[m] - w))
        m = (s >= w + h) & (s < 2 * w + h)
        z[m] = rect.re_max - (s[m] - w - h) + 1j * rect.im_max
        m = s >= 2 * w + h
        z[m] = rect.re_min + 1j * (rect.im_max - (s[m] - 2 * w - h))
        return z

    t = np.arange(n0, dtype=np.float64) / n0
    z = points(t)
    fz = f(z)
    dfz = fprime(z)
    for _ in range(max_depth + 1):
        absf = np.abs(fz)
        if float(absf.min()) == 0.0:
            return None
        phase = np.angle(fz)
        dphi = np.mod(np.diff(phase, append=phase[0]) + np.pi,
                      2.0 * np.pi) - np.pi
        magjump = np.abs(np.diff(np.log(absf), append=np.log(absf[0])))
        bad = (np.abs(dphi) > rf.MAX_PHASE_STEP) | (magjump > rf.MAX_MAG_JUMP)
        if float(np.min(absf / np.abs(dfz))) <= boundary_tol * rect.diag:
            return None
        lens = np.diff(t, append=t[0] + 1.0)
        w_over_f = np.abs(dfz) / absf
        pair = np.maximum(w_over_f, np.roll(w_over_f, -1))
        bad |= (lens * P * pair) > rf.DERIV_EST_LIMIT
        if (~bad).any():
            med = float(np.median(lens[~bad]))
            bad |= lens > rf.LEN_OUTLIER_FACTOR * max(med, 1.0 / max_samples)
        if not bad.any():
            return int(round(float(dphi.sum()) / (2.0 * np.pi)))
        if np.any(bad & (lens * P <= 4.0 * 2.0 ** -52 * (1.0 + np.abs(z)))):
            return None
        tmid = np.mod(t[bad] + 0.5 * lens[bad], 1.0)
        znew = points(tmid)
        t = np.concatenate([t, tmid])
        order = np.argsort(t, kind="stable")
        t = t[order]
        z = np.concatenate([z, znew])[order]
        fz = np.concatenate([fz, f(znew)])[order]
        dfz = np.concatenate([dfz, fprime(znew)])[order]
    raise AssertionError("reference count did not settle")


def test_batched_count_matches_cells_counted_alone():
    # exp(50j z) makes every contour take many refinement rounds; the
    # polynomial puts simple roots and a double root in some cells, and a
    # root on the left edge of the last cell
    c = np.poly([0.3 + 0.1j, -0.4 - 0.1j, 0.6 - 0.3j, 0.6 - 0.3j])
    dc = np.polyder(c)
    f = lambda z: np.exp(50j * z) * np.polyval(c, z)
    fp = lambda z: np.exp(50j * z) * (50j * np.polyval(c, z)
                                      + np.polyval(dc, z))
    rects = [h.Rectangle(x, x + 0.5, y, y + 0.5)
             for x in (-1.0, -0.5, 0.0, 0.5) for y in (-1.0, -0.5, 0.0, 0.5)]
    rects.append(h.Rectangle(0.3, 0.8, -0.15, 0.35))
    pts = {"batch": [], "alone": [], "reference": []}

    def handles(key):
        return _recording(f, pts[key]), _recording(fp, [])

    batch = rf._winding_count(*handles("batch"), rects)
    alone = [rf._winding_count(*handles("alone"), [r])[0]
             for r in rects]
    reference = [_reference_count(*handles("reference"), r) for r in rects]
    assert batch == alone == reference
    assert sorted(n for n in batch if n) == [1, 1, 2]
    assert batch[-1] is None
    # every cell saw exactly the samples it sees when counted alone
    want = np.sort_complex(np.concatenate(pts["reference"]))
    for key in ("batch", "alone"):
        assert np.array_equal(np.sort_complex(np.concatenate(pts[key])), want)
    assert len(pts["batch"]) < len(pts["alone"])


def _product(roots):
    """f(z) = prod(z - r) evaluated as a product, and its derivative.

    Each term of f' leaves out one factor by its index: a root listed twice
    can be one object (equal literals in a function are one constant)."""
    f = lambda z: np.prod([z - r for r in roots], axis=0)
    fp = lambda z: sum(np.prod([z - r for i, r in enumerate(roots) if i != j],
                               axis=0) for j in range(len(roots)))
    return f, fp


def test_product_helper_with_repeated_roots():
    a, b = -0.4 + 0.1j, 0.2 - 0.5j
    roots = [0.3 + 0.2j, a, a, b, b, -0.6 - 0.6j]
    f, fp = _product(roots)
    z = np.array([0.7 + 0.1j, -0.2 - 0.9j, 0.05 + 0.45j, -1.0 + 1.0j])
    dcoeffs = np.polyder(np.poly(roots))
    assert np.allclose(fp(z), np.polyval(dcoeffs, z), rtol=1e-12, atol=1e-12)
    got = h.find_roots(f, h.Rectangle(-1.0, 1.0, -1.0, 1.0), fprime=fp)
    assert sorted((r.multiplicity, round(r.location.real, 6),
                   round(r.location.imag, 6)) for r in got) == sorted(
        [(1, 0.3, 0.2), (2, -0.4, 0.1), (2, 0.2, -0.5), (1, -0.6, -0.6)])


@pytest.mark.parametrize("roots, width", [
    ([1.7746947951648662 + 1.0000085210358012j,
      -0.0005760612225544064 + 0.4377826707050343j], 5.2294131437551385),
    ([0.3767884769065644 - 3.1884725498927235e-06j,
      0.7971270034492709 - 4.204380617888204e-06j,
      0.8571898362166974 + 1.0041887521053399j], 1.2485658134217164),
])
def test_batched_samples_match_reference_near_edge_roots(roots, width):
    # roots just off the edges refine the contour at several scales, where
    # the long-interval rule depends on the exact median of the good lengths
    f, fp = _product(roots)
    rects = [h.Rectangle(0.0, width, 0.0, 1.0),
             h.Rectangle(-width, 0.0, 0.0, 1.0),
             h.Rectangle(0.0, width, -1.0, 0.0)]
    got, want = [], []
    batch = rf._winding_count(_recording(f, got), fp, rects)
    assert batch == [_reference_count(_recording(f, want), fp, r)
                     for r in rects]
    assert np.array_equal(np.sort_complex(np.concatenate(got)),
                          np.sort_complex(np.concatenate(want)))


def test_boundary_zero_error_after_every_inflation():
    box = h.Rectangle(0.0, 1.0, 0.0, 1.0)
    base = 1e-6 * box.diag  # the inflation step per retry
    # one root on the original right edge, then one on the top, left and
    # bottom edge of the rectangle inflated by 1, 2 and 3 steps
    on_edges = [1.0 + 0.5j, 0.5 + (1.0 + base) * 1j, -2 * base + 0.5j,
                0.5 - 3 * base * 1j]

    f, fp = _product(on_edges)
    with pytest.raises(h.BoundaryZeroError):
        h.count_zeros(f, box, fp)
    # without the last root the third inflation clears the other three
    f, fp = _product(on_edges[:3])
    assert h.count_zeros(f, box, fp) == 3


@pytest.mark.parametrize("count", [
    lambda f, box, fp: h.count_zeros(f, box, fprime=fp),
    lambda f, box, fp: h.find_roots(f, box, fprime=fp),
], ids=["count_zeros", "find_roots"])
def test_nan_on_the_contour_is_a_resolution_error(count):
    # f is nan on the right half of the window, its contour included
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    f = lambda z: np.where(z.real > 0.5, np.nan, z - 0.1)
    fp = lambda z: np.ones_like(z)
    with pytest.raises(h.ResolutionError,
                       match=r"^non-integer winding nan on Rectangle\("
                             r"re_min=-1\.0, re_max=1\.0"):
        count(f, box, fp)
    # an infinite value stops the refinement as a zero on the contour
    # does: inflation, then BoundaryZeroError
    f = lambda z: np.where(z.real > 0.5, np.inf, z - 0.1)
    with pytest.raises(h.BoundaryZeroError):
        count(f, box, fp)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_find_roots_refuses_tol_not_finite_and_positive(tol):
    f, fp = _poly_pair([0.1])
    with pytest.raises(h.ConfigError,
                       match=r"^tol must be finite and positive, got "):
        h.find_roots(f, h.Rectangle(-1.0, 1.0, -1.0, 1.0), fprime=fp,
                     tol=tol)


def test_root_cluster_off_the_edge_is_no_boundary_zero():
    # three simple roots just right of the right edge, none within
    # boundary_tol * diag of it
    box = h.Rectangle(0.0, 1.0, 0.0, 1.0)
    f, fp = _product([1 + 1.4e-6 + 0.5j, 1 + 2.8e-6 + 0.5j,
                      1 + 4.2e-6 + 0.5j])
    assert h.count_zeros(f, box, fprime=fp) == 0
    # counted on the rectangle itself, not an inflated one
    assert rf._winding_count(f, fp, [box]) == [0]


def test_sample_budget_raises_from_batched_count(monkeypatch):
    f = lambda z: np.exp(50j * z)
    fp = lambda z: 50j * np.exp(50j * z)
    cells = [h.Rectangle(-1.0, 0.0, -1.0, 1.0), h.Rectangle(0.0, 1.0, -1.0, 1.0)]
    monkeypatch.setattr(rf, "MAX_SAMPLES", 100)
    with pytest.raises(h.ResolutionError, match="exceeded 100 samples"):
        rf._winding_count(f, fp, cells)
    monkeypatch.undo()
    assert rf._winding_count(f, fp, cells) == [0, 0]


def test_split_raises_when_child_counts_never_match(monkeypatch):
    # every split of the two-root window reports one zero too many, so no
    # jitter of the split lines makes the children add up to the parent
    f, fp = _poly_pair([0.4 + 0.3j, -0.6 - 0.2j])
    count = rf._winding_count

    def overcount(f, fprime, rects):
        got = count(f, fprime, rects)
        return got if len(rects) < 2 else [got[0] + 1] + got[1:]

    monkeypatch.setattr(rf, "_winding_count", overcount)
    with pytest.raises(h.ResolutionError,
                       match=r"^child counts never matched the parent count "
                             r"2 on Rectangle\("):
        h.find_roots(f, h.Rectangle(-1.0, 1.0, -1.0, 1.0), fprime=fp)


def test_batch_cap_changes_no_result(monkeypatch):
    f, fp = _poly_pair([0.4 + 0.3j, -0.6 - 0.2j, 0.1 - 0.7j, 0.5, 0.5])
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    want = h.find_roots(f, box, fprime=fp)
    monkeypatch.setattr(rf, "MAX_BATCH_CELLS", 2)
    assert h.find_roots(f, box, fprime=fp) == want


def test_fallback_summary_logged_once_without_changing_results(caplog):
    f, fp = _poly_pair([1.0, 1.0, -1j])
    box = h.Rectangle(-2.0, 4.0, -3.0, 3.0)
    # (seeds, roots certified from seeds and by subdivision): a seed on
    # the double root cannot explain its count of 2
    for seeds, routes in ((None, (0, 3)), ([-1j, 1.0], (1, 2))):
        quiet = h.find_roots(f, box, fprime=fp, seeds=seeds)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hierdde"):
            loud = h.find_roots(f, box, fprime=fp, seeds=seeds)
        assert loud == quiet
        (record,) = [r for r in caplog.records if r.name == "hierdde"]
        assert record.levelno == logging.DEBUG
        msg = record.getMessage()
        assert "2 roots" in msg and "split jitter" in msg
        assert "%d from seeds, %d by subdivision" % routes in msg
        assert record.args[3:5] == routes
        # the double root's cell needed jittered split lines
        assert sum(record.args[-1]) > 0


def _routes(*args, **kwargs):
    """find_roots, and how many roots (with multiplicity) it certified from
    seeds and by subdivision, read from its DEBUG summary."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    log = logging.getLogger("hierdde")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        roots = h.find_roots(*args, **kwargs)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    (record,) = records
    return roots, record.args[3], record.args[4]


def test_junk_seeds_give_the_seedless_roots():
    roots = [0.4 + 0.3j, -0.6 - 0.2j, 0.1 - 0.7j, 0.75 + 0.75j, -0.3 + 0.6j]
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    f, fp = _poly_pair(roots + [1.05 + 1.05j])  # one root outside the window
    plain = h.find_roots(f, box, fp)
    junk = [roots[0], roots[0],         # a duplicate: its cell is split
            roots[1] + 1e-3,            # polished onto its root
            0.99 + 0.99j,               # Newton heads out of the window
            2.0 + 0.5j, 0.5 - 3.0j, np.nan, np.inf,  # outside, not finite
            roots[2], roots[3]]         # and roots[4] has no seed
    seen = []
    found, seeded, split = _routes(_recording(f, seen), box,
                                   _recording(fp, seen), seeds=junk)
    assert (seeded, split) == (3, 2)
    assert [r.multiplicity for r in found] == [r.multiplicity for r in plain]
    a = np.array([r.location for r in plain])
    b = np.array([r.location for r in found])
    assert _nearest(a, b).max() <= 1e-9 and _nearest(b, a).max() <= 1e-9
    # no seed is evaluated outside the window
    z = np.concatenate(seen)
    assert np.all((np.abs(z.real) <= 1.0) & (np.abs(z.imag) <= 1.0))


def test_subdivision_polish_stays_in_the_window():
    # a cell on the window's edge holds a simple root near its corner: the
    # Newton leash reaches past the window, which polish must not step to
    roots = [0.3 + 0.2j, -0.4 + 0.1j, -0.4 + 0.1j, 0.2 - 0.5j, 0.2 - 0.5j,
             -0.6 - 0.6j]
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    f, fp = _poly_pair(roots)
    seen = []
    found = h.find_roots(_recording(f, seen), box, _recording(fp, seen))
    assert [r.multiplicity for r in found] == [1, 2, 2, 1]
    want = np.array([-0.6 - 0.6j, -0.4 + 0.1j, 0.2 - 0.5j, 0.3 + 0.2j])
    assert np.abs(np.array([r.location for r in found]) - want).max() < 1e-7
    z = np.concatenate(seen)
    assert np.all((np.abs(z.real) <= 1.0) & (np.abs(z.imag) <= 1.0))


def test_seeded_route_matches_subdivision_on_fig3():
    # the scale-1 roots of fig3 have no seed of the top-scale fixed point:
    # their cells are split, the rest is certified from seeds
    cfg = h.preset_config("fig3", eps_list=(0.01,))
    (box,) = h.validation_window(cfg)
    f, fp = h.char_function(cfg.system, 0.01)
    plain = h.find_roots(f, box, fp)
    found, seeded, split = _routes(
        f, box, fp, seeds=h.axis_seeds(cfg.system, 0.01, box))
    assert seeded > 0 and split > 0
    assert [r.multiplicity for r in found] == [r.multiplicity for r in plain]
    assert seeded + split == sum(r.multiplicity for r in plain) == 9549
    a = np.array([r.location for r in plain])
    b = np.array([r.location for r in found])
    assert _nearest(a, b).max() <= 1e-9 and _nearest(b, a).max() <= 1e-9


def test_double_seeds_certify_every_double_root():
    # the spectrum-double system Q diag(s, s) Q^H: its branches coincide,
    # so its axis seeds are the scalar seeds, each given twice; every
    # double root is certified by the count of a small box around its seed
    s = h.preset_system("fig2-unstable")
    z = np.random.default_rng(21).standard_normal((2, 2, 2))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    double = h.DelaySystem(
        matrices=tuple(q @ (M[0, 0] * np.eye(2)) @ q.conj().T
                       for M in s.matrices), sigma=s.sigma)
    (box,) = h.validation_window(h.preset_config("fig2-unstable",
                                                 eps_list=(0.1,)))
    seeds = h.axis_seeds(double, 0.1, box)
    scalar = np.repeat(h.axis_seeds(s, 0.1, box), 2)
    assert seeds.size == scalar.size == 190
    assert np.abs(np.sort_complex(seeds) - np.sort_complex(scalar)).max() \
        <= 1e-12
    f, fp = h.char_function(double, 0.1)
    plain = h.find_roots(f, box, fp)
    found, seeded, split = _routes(f, box, fp, seeds=seeds)
    assert (seeded, split) == (190, 0)
    assert len(found) == len(plain) == 95
    assert all(r.multiplicity == 2 for r in found)
    a = np.array([r.location for r in plain])
    b = np.array([r.location for r in found])
    assert _nearest(a, b).max() <= 1e-9 and _nearest(b, a).max() <= 1e-9


_SIMPLE, _DOUBLE, _DOUBLE2 = 0.3 + 0.2j, -0.4 + 0.1j, 0.2 - 0.5j


@pytest.mark.parametrize("seeds, routes", [
    # a simple root seeded twice: its secant on f' leaves it, and no box
    # counts 2; the other double root is certified from its seeds
    ([_SIMPLE, _SIMPLE, _DOUBLE2, _DOUBLE2], (2, 3)),
    # a double root seeded three times: its box counts 2, not 3
    ([_DOUBLE] * 3 + [_DOUBLE2] * 2, (2, 3)),
    # two doubled seeds within the resolution limit: neither is lone
    ([_DOUBLE2] * 2 + [_DOUBLE2 + 1e-9] * 2 + [_SIMPLE], (1, 4)),
])
def test_wrong_multiple_seeds_give_the_seedless_roots(seeds, routes):
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    f, fp = _poly_pair([_SIMPLE, _DOUBLE, _DOUBLE, _DOUBLE2, _DOUBLE2])
    plain = h.find_roots(f, box, fp)
    seen = []
    found, seeded, split = _routes(_recording(f, seen), box,
                                   _recording(fp, seen), seeds=seeds)
    assert (seeded, split) == routes
    assert [r.multiplicity for r in found] == [r.multiplicity for r in plain]
    a = np.array([r.location for r in plain])
    b = np.array([r.location for r in found])
    assert _nearest(a, b).max() <= 1e-9 and _nearest(b, a).max() <= 1e-9
    z = np.concatenate(seen)
    assert np.all((np.abs(z.real) <= 1.0) & (np.abs(z.imag) <= 1.0))


# ---------------------------------------------------------------------------
# independent oracles: Lambert W roots of x' = a x + b x(t - tau)
# ---------------------------------------------------------------------------

def _lambert_window(a, b, tau, half_im):
    """Window |Im| <= half_im around the Lambert-W roots, and those roots."""
    kmax = int(half_im * tau / (2 * np.pi)) + 10
    arg = b * tau * np.exp(-a * tau)
    roots = np.array([a + lambertw(arg, k) / tau
                      for k in range(-kmax, kmax + 1)])
    # keep every root clear of the horizontal edges
    assume(np.all(np.abs(np.abs(roots.imag) - half_im) > 1e-3))
    inside = roots[np.abs(roots.imag) < half_im]
    box = h.Rectangle(inside.real.min() - 0.2, inside.real.max() + 0.2,
                      -half_im, half_im)
    return box, inside


def _nearest(want, got):
    return np.abs(want[:, None] - got[None, :]).min(axis=1)


_ORACLE = settings(max_examples=12, deadline=None, derandomize=True,
                   database=None,
                   suppress_health_check=[HealthCheck.filter_too_much])


@_ORACLE
@given(a=st.floats(-0.5, 0.5), b=st.floats(0.1, 1.0), negative=st.booleans(),
       tau=st.floats(8.0, 15.0), half_im=st.floats(6.0, 9.0))
def test_find_roots_matches_lambert_w(a, b, negative, tau, half_im):
    b = -b if negative else b
    box, want = _lambert_window(a, b, tau, half_im)
    assert want.size >= 15
    f = lambda z: -z + a + b * np.exp(-z * tau)
    fp = lambda z: -1.0 - b * tau * np.exp(-z * tau)
    found = h.find_roots(f, box, fprime=fp)
    assert all(r.multiplicity == 1 for r in found)
    assert len(found) == want.size
    assert _nearest(want, np.array([r.location for r in found])).max() <= 1e-10


@_ORACLE
@given(a=st.floats(-0.5, 0.5), b=st.floats(0.1, 1.0), negative=st.booleans(),
       tau=st.floats(8.0, 15.0), half_im=st.floats(6.0, 9.0),
       pick=st.integers(0, 1000), right=st.booleans(),
       offset=st.floats(-1e-10, 1e-10))
def test_count_with_an_edge_next_to_a_lambert_w_root(a, b, negative, tau,
                                                     half_im, pick, right,
                                                     offset):
    # a vertical edge within 1e-10 of a known root: below boundary_tol of
    # the diagonal the count inflates the window, and the count must be the
    # oracle count of the window actually counted
    b = -b if negative else b
    box, want = _lambert_window(a, b, tau, half_im)
    edge = want[pick % want.size].real + offset
    box = replace(box, re_max=edge) if right else replace(box, re_min=edge)
    f = lambda z: -z + a + b * np.exp(-z * tau)
    fp = lambda z: -1.0 - b * tau * np.exp(-z * tau)
    try:
        count, counted = rf._count_with_inflation(f, fp, box)
    except h.BoundaryZeroError:
        return
    assert count == np.sum((counted.re_min < want.real)
                           & (want.real < counted.re_max))


# b > 0 > a keeps Y = (lam - a) / b near the axis in the right half plane,
# away from the cut of Log (where two roots can share one m, and one of them
# goes to subdivision), and |W_k(b tau exp(-a tau))| >= W_0(60) = 3 makes
# the fixed-point map contract by a factor 3 at least
@_ORACLE
@given(a=st.floats(-0.5, -0.1), b=st.floats(0.1, 1.0), tau=st.floats(30.0, 60.0),
       half_im=st.floats(2.0, 4.0))
def test_seeded_roots_match_lambert_w(a, b, tau, half_im):
    box, want = _lambert_window(a, b, tau, half_im)
    sys_ = h.DelaySystem.scalar(a, (b,))
    f, fp = h.char_function(sys_, 1.0 / tau)
    found, seeded, split = _routes(
        f, box, fp, seeds=h.axis_seeds(sys_, 1.0 / tau, box))
    assert (seeded, split) == (want.size, 0)
    assert all(r.multiplicity == 1 and r.newton_converged for r in found)
    assert len(found) == want.size
    assert _nearest(want, np.array([r.location for r in found])).max() <= 1e-9


# the same region with a I and b I: both branches of every m coincide, so
# each Lambert W root is seeded twice and certified by its box count
@settings(_ORACLE, max_examples=6)
@given(a=st.floats(-0.5, -0.1), b=st.floats(0.1, 1.0), tau=st.floats(30.0, 60.0),
       half_im=st.floats(2.0, 4.0))
def test_seeded_double_roots_match_lambert_w(a, b, tau, half_im):
    box, want = _lambert_window(a, b, tau, half_im)
    sys_ = h.DelaySystem(matrices=(a * np.eye(2), b * np.eye(2)),
                         sigma=(1.0,))
    f, fp = h.char_function(sys_, 1.0 / tau)
    found, seeded, split = _routes(
        f, box, fp, seeds=h.axis_seeds(sys_, 1.0 / tau, box))
    assert (seeded, split) == (2 * want.size, 0)
    assert all(r.multiplicity == 2 and r.newton_converged for r in found)
    assert len(found) == want.size
    assert _nearest(want, np.array([r.location for r in found])).max() <= 1e-9


# blocks x' = a x + b_i x(t - tau) whose branches Y_i = (lam - a) / b_i stay
# a factor 2.3 apart, while one fixed-point step moves Y by under 20% (tau
# of a few hundred): each branch follows its own root
@settings(_ORACLE, max_examples=6)
@given(a=st.floats(-0.5, -0.1), b=st.floats(0.1, 0.3), b2=st.floats(0.7, 1.0),
       tau=st.floats(200.0, 400.0), half_im=st.floats(1.0, 2.0))
def test_seeded_block_diagonal_is_the_union_of_its_blocks(a, b, b2, tau,
                                                          half_im):
    box, want = _lambert_window(a, b, tau, half_im)
    box2, want2 = _lambert_window(a, b2, tau, half_im)
    want = np.concatenate([want, want2])
    box = replace(box, re_min=min(box.re_min, box2.re_min),
                  re_max=max(box.re_max, box2.re_max))
    sys_ = h.DelaySystem(matrices=(a * np.eye(2), np.diag([b, b2])),
                         sigma=(1.0,))
    f, fp = h.char_function(sys_, 1.0 / tau)
    found, seeded, split = _routes(
        f, box, fp, seeds=h.axis_seeds(sys_, 1.0 / tau, box))
    assert (seeded, split) == (want.size, 0)
    got = np.array([r.location for r in found])
    assert len(got) == want.size
    assert _nearest(want, got).max() <= 1e-9
    assert _nearest(got, want).max() <= 1e-9


@settings(_ORACLE, max_examples=6)
@given(a=st.floats(-0.5, 0.5), b=st.floats(0.1, 1.0), negative=st.booleans(),
       tau=st.floats(5.0, 10.0), half_im=st.floats(2.0, 4.0))
def test_block_diagonal_roots_are_exactly_double(a, b, negative, tau,
                                                 half_im):
    b = -b if negative else b
    box, want = _lambert_window(a, b, tau, half_im)
    scalar = h.DelaySystem.scalar(a, (b,))
    double = h.DelaySystem(matrices=(a * np.eye(2), b * np.eye(2)),
                           sigma=scalar.sigma)
    eps = 1.0 / tau
    f2, fp2 = h.char_function(double, eps)
    found = h.find_roots(f2, box, fprime=fp2)
    f, fp = h.char_function(scalar, eps)
    assert all(r.multiplicity == 2 for r in found)
    assert sum(r.multiplicity for r in found) == 2 * h.count_zeros(
        f, box, fprime=fp)
    assert _nearest(want, np.array([r.location for r in found])).max() <= 1e-6


def test_find_roots_invariant_under_unitary_similarity():
    # det(-lam I + sum_k Q A_k Q^H e_k) = det(-lam I + sum_k A_k e_k) for a
    # unitary Q, so the rotated system has the same roots to rounding
    rng = np.random.default_rng(4242)
    mats = tuple(0.4 * (rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2))) for _ in range(2))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed
    rotated = tuple(q @ m @ q.conj().T for m in mats)
    box, eps, tol = h.Rectangle(-0.4, 0.3, -3.0, 3.0), 0.05, 1e-9
    found = []
    for ms in (mats, rotated):
        f, fp = h.char_function(h.DelaySystem(matrices=ms, sigma=(1.0,)), eps)
        found.append(h.find_roots(f, box, fprime=fp, tol=tol))
    plain, turned = found
    assert len(plain) >= 30
    assert [r.multiplicity for r in plain] == [r.multiplicity for r in turned]
    a = np.array([r.location for r in plain])
    b = np.array([r.location for r in turned])
    assert _nearest(a, b).max() <= tol and _nearest(b, a).max() <= tol
