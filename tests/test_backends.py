"""The batched evaluation kernels against independent references."""

import numpy as np
import pytest

import hierdde as h
from hierdde import _backend
from hierdde.manifolds import _Level


def _random_batch(rng, d=None):
    d = int(rng.integers(1, 5)) if d is None else d
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
        assert np.array_equal(chi, _backend.char_det(lams, mats, taus))
        fd = (_backend.char_det(lams + step, mats, taus)
              - _backend.char_det(lams - step, mats, taus)) / (2 * step)
        scale = np.abs(dchi) + taus.max() * np.abs(chi) + 1.0
        assert np.all(np.abs(dchi - fd) <= 1e-7 * scale)


def test_derivative_of_exactly_singular_row():
    # M = -lam is exactly 0 at lam = 0, where a stacked solve would raise;
    # for d = 1 the derivative is M' itself, exact at the singular row too
    mats = np.zeros((2, 1, 1), complex)
    lams = np.array([0.0, 0.5], complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(-lams[:, None, None], -np.ones((2, 1, 1)))
    chi, dchi = _backend.char_and_deriv(lams, mats, np.array([1.0]))
    assert chi.tolist() == [0.0, -0.5]
    assert dchi.tolist() == [-1.0, -1.0]


def _stacked(lams, mats, taus):
    """``M`` and ``M'`` as (N, d, d) stacks, one matrix product at a time."""
    d = mats.shape[1]
    M = np.array([mats[0] - lam * np.eye(d) for lam in lams], complex)
    Mp = np.broadcast_to(-np.eye(d), M.shape).astype(complex)
    for k, tau in enumerate(taus):
        term = np.exp(-lams * tau)[:, None, None] * mats[k + 1]
        M, Mp = M + term, Mp - tau * term
    return M, Mp


def test_derivative_of_singular_rows_for_d3():
    # diag(m, B): the scalar block m = -lam + 1 - exp(-lam tau) is exactly 0
    # at lam = 0, so a solve with M raises there; Jacobi's formula needs no
    # solve and matches the product rule m'(0) det B(0) to rounding
    rng = np.random.default_rng(37)
    taus = np.array([0.7, 2.5])
    mats = np.zeros((3, 3, 3), complex)
    mats[:, 0, 0] = [1.0, -1.0, 0.0]
    mats[:, 1:, 1:] = (rng.standard_normal((3, 2, 2))
                       + 1j * rng.standard_normal((3, 2, 2)))
    lams = np.array([0.0, 0.3 + 1.1j, -0.2 - 0.4j])
    M, Mp = _stacked(lams, mats, taus)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, Mp)
    chi, dchi = _backend.char_and_deriv(lams, mats, taus)
    scalar = mats[:, :1, :1]
    m, dm = _backend.char_and_deriv(lams, scalar, taus)
    b, db = _backend.char_and_deriv(lams, mats[:, 1:, 1:], taus)
    assert m[0] == 0.0
    assert np.allclose(chi, m * b, rtol=1e-13, atol=0.0)
    want = dm * b + m * db
    assert abs(dchi[0] - want[0]) <= 1e-12 * abs(want[0])
    assert np.allclose(dchi[1:], want[1:], rtol=1e-12, atol=0.0)


def test_dispatcher_value_example():
    lams = np.array([0.5 + 0.0j])
    mats = np.array([[[0.0]], [[1.0]]], dtype=complex)
    taus = np.array([1.0])
    v = _backend.char_det(lams, mats, taus)
    assert v[0] == pytest.approx(-0.5 + np.exp(-0.5), abs=1e-14)
    f, fp = _backend.char_and_deriv(lams, mats, taus)
    assert fp[0] == pytest.approx(-1.0 - np.exp(-0.5), abs=1e-12)


def test_derivative_where_matrix_is_singular():
    # at a root the characteristic matrix is singular; the d = 1 derivative
    # is M' itself, so it needs no solve there
    s = h.DelaySystem.scalar(0.0, (1.0,))
    lam = 0.567143290409784 + 0.0j
    f, fp = h.char_function(s, 1.0)
    assert abs(f(lam)[0]) <= 1e-14
    dv = fp(lam)[0]
    want = -1.0 - np.exp(-lam)
    assert dv == pytest.approx(want, rel=1e-14)


def test_closed_forms_agree_with_lu():
    rng = np.random.default_rng(818)
    for d in (1, 2) * 8:
        lams, mats, taus = _random_batch(rng, d)
        chi, dchi = _backend.char_and_deriv(lams, mats, taus)
        assert np.array_equal(chi, _backend.char_det(lams, mats, taus))
        M, Mp = _stacked(lams, mats, taus)  # the LU reference
        want = np.linalg.det(M)
        dwant = want * np.trace(np.linalg.solve(M, Mp), axis1=1, axis2=2)
        assert np.allclose(chi, want, rtol=1e-12, atol=0.0)
        assert np.allclose(dchi, dwant, rtol=1e-12, atol=0.0)


def test_closed_form_of_block_diagonal_is_the_product():
    rng = np.random.default_rng(909)
    for _ in range(12):
        lams, mats, taus = _random_batch(rng, 2)
        mats[:, 0, 1] = mats[:, 1, 0] = 0.0
        chi, dchi = _backend.char_and_deriv(lams, mats, taus)
        a, da = _backend.char_and_deriv(lams, mats[:, :1, :1], taus)
        b, db = _backend.char_and_deriv(lams, mats[:, 1:, 1:], taus)
        assert np.allclose(chi, a * b, rtol=1e-14, atol=0.0)
        assert np.allclose(dchi, da * b + a * db, rtol=1e-13, atol=0.0)


def _in_chunks(evaluate, N, size):
    """``evaluate`` over rows ``0..N`` in chunks of ``size``, joined."""
    parts = [evaluate(slice(lo, lo + size)) for lo in range(0, N, size)]
    return [np.concatenate(col) for col in zip(*parts)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scalar_level_rows_do_not_depend_on_their_batch(k):
    # d = 1: B from the scalar entries, the degree-1 root batch and the
    # heights give a row the same bits alone, in chunks and in one batch,
    # at real lattice points and at the complex frequencies of branches.
    # Checked with numpy 2.4.6 on x86-64 with AVX-512; other SIMD loops may
    # round a lone row differently
    sys_ = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1 - 0.2j, 0.15, 0.4 + 0.1j),
                                sigma=(1.0, 1.3, 0.7))
    level = _Level.plain(sys_, k)
    rng = np.random.default_rng(300 + k)
    N = 263
    omegas = rng.uniform(-3.0, 3.0, N)
    phis = rng.uniform(0.0, 2.0 * np.pi, (N, k - 1))
    lams = rng.uniform(-0.02, 0.02, N) + 1j * rng.uniform(-3.0, 3.0, N)
    for evaluate in (lambda r: level.gammas([omegas[r], *phis[r].T]),
                     lambda r: [level.branches(0.1, lams[r])]):
        whole = evaluate(slice(None))
        assert np.isfinite(whole[0]).all()
        for size in (1, 2, 3, 8, 17, 64, 100):
            for got, want in zip(_in_chunks(evaluate, N, size), whole):
                assert np.array_equal(got, want), (
                    size, f"numpy {np.__version__}")
