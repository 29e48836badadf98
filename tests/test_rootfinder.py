"""Winding-number root counting and subdivision-based root location."""

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import hierdde as h
from hierdde import rootfinder as rf
from hierdde.errors import DimensionError


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


def test_count_zeros_polynomials():
    box = h.Rectangle(-2.0, 2.0, -2.0, 2.0)
    assert h.count_zeros(lambda z: z * z + 1.0, box) == 2
    assert h.count_zeros(lambda z: z * z, box) == 2  # multiplicity counts
    assert h.count_zeros(lambda z: z - 5.0, box) == 0


def test_count_zeros_transcendental():
    box = h.Rectangle(0.0, 1.0, -1.0, 1.0)
    assert h.count_zeros(lambda z: -z + np.exp(-z), box) == 1


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
    box = h.Rectangle(-2.0, 4.0, -3.0, 3.0)
    for kwargs in ({"fprime": fp}, {}):
        roots = h.find_roots(f, box, **kwargs)
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


def test_root_on_window_corner_counted_once():
    f, fp = _poly_pair([0.0, 3.0])
    box = h.Rectangle(0.0, 1.0, 0.0, 1.0)
    assert h.count_zeros(f, box) == 1
    roots = h.find_roots(f, box, fprime=fp)
    assert len(roots) == 1
    assert abs(roots[0].location) <= 1e-6


def test_root_on_window_edge():
    assert h.count_zeros(lambda z: z - 0.5, h.Rectangle(0.5, 1.0, -0.5, 0.5)) == 1


def test_split_window_counts_add_up():
    roots_true = [0.4 + 0.3j, -0.6 - 0.2j, 0.1 - 0.7j]
    f, fp = _poly_pair(roots_true)
    whole = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    left = h.Rectangle(-1.0, 0.05, -1.0, 1.0)
    right = h.Rectangle(0.05, 1.0, -1.0, 1.0)
    assert h.count_zeros(f, whole) == 3
    assert h.count_zeros(f, left) + h.count_zeros(f, right) == 3
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


def test_resolution_error_when_depth_exhausted():
    # a zero-free function whose boundary phase needs several refinement
    # rounds: a depth cap of 1 cannot settle, a modest cap can
    f = lambda z: np.exp(50j * z)
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(h.ResolutionError):
        h.count_zeros(f, box, max_depth=1)
    assert h.count_zeros(f, box, max_depth=6) == 0


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
    dfz = None if fprime is None else fprime(z)
    for _ in range(max_depth + 1):
        absf = np.abs(fz)
        if float(absf.min()) == 0.0:
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            if dfz is not None:
                dist = absf / np.abs(dfz)
            else:
                dz = np.abs(np.diff(z, append=z[0]))
                df = np.abs(np.diff(fz, append=fz[0]))
                slope = np.where(dz > 0.0, df / np.where(dz > 0.0, dz, 1.0),
                                 0.0)
                slope = np.maximum(slope, np.roll(slope, 1))
                dist = np.where(slope > 0.0, absf / slope, np.inf)
        if float(np.min(dist)) <= boundary_tol * rect.diag:
            return None
        phase = np.angle(fz)
        dphi = np.mod(np.diff(phase, append=phase[0]) + np.pi,
                      2.0 * np.pi) - np.pi
        magjump = np.abs(np.diff(np.log(absf), append=np.log(absf[0])))
        bad = (np.abs(dphi) > rf.MAX_PHASE_STEP) | (magjump > rf.MAX_MAG_JUMP)
        lens = np.diff(t, append=t[0] + 1.0)
        if dfz is not None:
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
        if dfz is not None:
            dfz = np.concatenate([dfz, fprime(znew)])[order]
    raise AssertionError("reference count did not settle")


@pytest.mark.parametrize("with_derivative", [True, False])
def test_batched_count_matches_cells_counted_alone(with_derivative):
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
        return (_recording(f, pts[key]),
                _recording(fp, []) if with_derivative else None)

    batch = rf._winding_count(*handles("batch"), rects, 1e-13, 96)
    alone = [rf._winding_count(*handles("alone"), [r], 1e-13, 96)[0]
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
    """f(z) = prod(z - r) evaluated as a product, and its derivative."""
    f = lambda z: np.prod([z - r for r in roots], axis=0)
    fp = lambda z: sum(np.prod([z - r for r in roots if r is not s], axis=0)
                       for s in roots)
    return f, fp


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
    for fprime in (fp, None):
        got, want = [], []
        batch = rf._winding_count(_recording(f, got), fprime, rects, 1e-13, 96)
        assert batch == [_reference_count(_recording(f, want), fprime, r)
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
    for kwargs in ({"fprime": fp}, {}):
        with pytest.raises(h.BoundaryZeroError):
            h.count_zeros(f, box, **kwargs)
    # without the last root the third inflation clears the other three
    assert h.count_zeros(_product(on_edges[:3])[0], box) == 3


def test_sample_budget_raises_from_batched_count():
    f = lambda z: np.exp(50j * z)
    cells = [h.Rectangle(-1.0, 0.0, -1.0, 1.0), h.Rectangle(0.0, 1.0, -1.0, 1.0)]
    with pytest.raises(h.ResolutionError, match="exceeded 100 samples"):
        rf._winding_count(f, None, cells, 1e-13, 96, max_samples=100)
    assert rf._winding_count(f, None, cells, 1e-13, 96) == [0, 0]


def test_batch_cap_changes_no_result(monkeypatch):
    f, fp = _poly_pair([0.4 + 0.3j, -0.6 - 0.2j, 0.1 - 0.7j, 0.5, 0.5])
    box = h.Rectangle(-1.0, 1.0, -1.0, 1.0)
    want = h.find_roots(f, box, fprime=fp)
    monkeypatch.setattr(rf, "MAX_BATCH_CELLS", 2)
    assert h.find_roots(f, box, fprime=fp) == want


def test_fallback_summary_logged_once_without_changing_results(caplog):
    f, fp = _poly_pair([1.0, 1.0, -1j])
    box = h.Rectangle(-2.0, 4.0, -3.0, 3.0)
    quiet = h.find_roots(f, box, fprime=fp)
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        loud = h.find_roots(f, box, fprime=fp)
    assert loud == quiet
    (record,) = [r for r in caplog.records if r.name == "hierdde"]
    assert record.levelno == logging.DEBUG
    msg = record.getMessage()
    assert "2 roots" in msg and "split jitter" in msg
    # the double root's cell needed jittered split lines
    assert sum(record.args[-1]) > 0


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
