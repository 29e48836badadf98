"""The batched evaluation kernels against independent references."""

import numpy as np
import pytest

import hierdde as h
from hierdde import _backend


def _random_batch(rng):
    d = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    mats = (rng.standard_normal((n + 1, d, d))
            + 1j * rng.standard_normal((n + 1, d, d)))
    taus = np.sort(rng.uniform(0.5, 20.0, n))
    lams = (rng.uniform(-0.2, 0.2, 16) + 1j * rng.uniform(-3, 3, 16)).astype(complex)
    return lams, mats, taus


def test_backend_name_valid():
    assert _backend.backend_name() == "numpy"


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(2121)
    step = 1e-6
    for _ in range(20):
        lams, mats, taus = _random_batch(rng)
        chi, dchi = _backend.char_and_deriv(lams, mats, taus)
        assert np.array_equal(chi, _backend.char_values(lams, mats, taus))
        fd = (_backend.char_values(lams + step, mats, taus)
              - _backend.char_values(lams - step, mats, taus)) / (2 * step)
        scale = np.abs(dchi) + taus.max() * np.abs(chi) + 1.0
        assert np.all(np.abs(dchi - fd) <= 1e-7 * scale)


def test_derivative_of_exactly_singular_row():
    # M = -lam is exactly 0 at lam = 0: the stacked solve raises, the other
    # row is solved alone, and the singular one is finished by differences
    mats = np.zeros((2, 1, 1), complex)
    lams = np.array([0.0, 0.5], complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(-lams[:, None, None], -np.ones((2, 1, 1)))
    chi, dchi = _backend.char_and_deriv(lams, mats, np.array([1.0]))
    assert chi.tolist() == [0.0, -0.5]
    assert np.abs(dchi + 1.0).max() <= 1e-12  # det rounds via its logarithm


def test_dispatcher_value_example():
    lams = np.array([0.5 + 0.0j])
    mats = np.array([[[0.0]], [[1.0]]], dtype=complex)
    taus = np.array([1.0])
    v = _backend.char_values(lams, mats, taus)
    assert v[0] == pytest.approx(-0.5 + np.exp(-0.5), abs=1e-14)
    f, fp = _backend.char_and_deriv(lams, mats, taus)
    assert fp[0] == pytest.approx(-1.0 - np.exp(-0.5), abs=1e-12)


def test_derivative_fallback_where_matrix_is_singular():
    # at a root the characteristic matrix is singular, so the trace formula
    # is unusable and the difference fallback must take over seamlessly
    s = h.DelaySystem.scalar(0.0, (1.0,))
    lam = 0.567143290409784 + 0.0j
    assert abs(h.char_value(s, 1.0, lam)) <= 1e-14
    dv = h.char_derivative(s, 1.0, lam)
    want = -1.0 - np.exp(-lam)
    assert dv == pytest.approx(want, rel=1e-6)


def _det_poly_coeffs_formula(B, Ak, radii):
    """The interpolation of ``det_poly_coeffs``, every array built anew."""
    m = B.shape[1]
    nodes = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))
    idft = np.exp(-2j * np.pi * np.outer(np.arange(m + 1), np.arange(m + 1))
                  / (m + 1)) / (m + 1)
    Y = radii[:, None] * nodes[None, :]
    dets = np.linalg.det(B[:, None, :, :] + Y[:, :, None, None] * Ak)
    return dets @ idft.T / radii[:, None] ** np.arange(m + 1)[None, :]


def test_det_poly_coeffs_cached_interpolation_is_the_formula():
    rng = np.random.default_rng(505)
    for m in (1, 3, 2, 4, 1, 4, 2, 3):  # sizes alternate over one cache
        B = rng.standard_normal((7, m, m)) + 1j * rng.standard_normal((7, m, m))
        Ak = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        radii = 1.0 + rng.uniform(0.0, 3.0, 7)
        got = _backend.det_poly_coeffs(B, Ak, radii)
        assert np.array_equal(got, _det_poly_coeffs_formula(B, Ak, radii))
        # and the coefficients are those of det(B + Y Ak)
        Y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        want = np.linalg.det(B + Y[:, None, None] * Ak)
        poly = (got * Y[:, None] ** np.arange(m + 1)).sum(axis=1)
        assert np.allclose(poly, want, rtol=1e-10, atol=1e-10)
    for m in range(1, 5):
        assert _backend._interp(m) is _backend._interp(m)
        for arr in _backend._interp(m):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
