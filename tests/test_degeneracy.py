"""Reduction ladder for rank-deficient top coefficients and its spectra."""

import numpy as np
import pytest

import hierdde as h
from hierdde.linalg import RANK_TOL, kernel_vectors
from hierdde.errors import (ConfigError, DegenerateSystemError,
                            EvaluationRangeError)


def _two_dim_system(a3, a1=-1.2, a2=0.7, a4=0.5):
    """2x2 system with nilpotent delayed coefficient; a3 is the pivot entry."""
    A0 = np.array([[a1, a2], [a3, a4]], dtype=complex)
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return h.DelaySystem(matrices=(A0, A1), sigma=(1.0,))


def _chain_break_system(seed=5):
    """d=3, n=2: top coefficient singular, but the reduction stops at level 2."""
    A2 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    A1 = np.zeros((3, 3), complex)
    A1[2, 2] = 0.7
    A0 = np.random.default_rng(seed).standard_normal((3, 3)).astype(complex)
    return h.DelaySystem(matrices=(A0, A1, A2), sigma=(1.0, 1.0)), A0


def test_full_rank_top_gives_empty_ladder():
    s = h.DelaySystem(matrices=(np.zeros((2, 2), complex), np.eye(2, dtype=complex)),
                      sigma=(1.0,))
    lad = h.build_ladder(s)
    assert not lad.an_singular
    assert lad.levels == ()
    assert lad.k_under is None
    assert lad.nd_satisfied
    assert h.strong_stable_spectrum(lad) == []


def test_two_dim_ladder_structure():
    lad = h.build_ladder(_two_dim_system(0.4))
    assert lad.an_singular
    assert [lv.k for lv in lad.levels] == [1]
    lv = lad.levels[0]
    assert lv.dim == 1
    assert not lv.heuristic
    # the reduced pencil blocks are defined up to phase: check magnitudes
    assert abs(lv.J1[0, 0]) <= 1e-12
    assert abs(lv.A_proj[0][0, 0]) == pytest.approx(0.4)
    assert lad.k_under == 1
    assert lad.nd_satisfied


def test_two_dim_degenerate_pivot():
    lad = h.build_ladder(_two_dim_system(0.0))
    assert lad.k_under == 1
    assert not lad.nd_satisfied
    with pytest.raises(DegenerateSystemError):
        h.strong_stable_spectrum(lad)


def test_truncated_char_level_zero_constant():
    # with a scale-independent reduced pencil the level-0 truncation is the
    # constant given by the pivot entry's magnitude
    lad = h.build_ladder(_two_dim_system(0.4))
    v1 = h.truncated_char(lad, 0, None, 0.3 + 0.0j)
    v2 = h.truncated_char(lad, 0, None, -2.0 + 0.0j)
    assert abs(v1) == pytest.approx(0.4)
    assert abs(v2) == pytest.approx(0.4)
    # level 2 was never built for this system
    with pytest.raises(ConfigError):
        h.truncated_char(lad, 1, 0.5, 0.3 + 0.0j)


def test_chain_break_stops_ladder():
    s, A0 = _chain_break_system()
    lad = h.build_ladder(s)
    assert lad.an_singular
    assert [(lv.k, lv.dim) for lv in lad.levels] == [(2, 1)]
    assert lad.levels[0].heuristic
    assert lad.k_under is None
    # no level qualifies as the lowest useful one, so the requirement is vacuous
    assert lad.nd_satisfied
    assert h.strong_stable_spectrum(lad) == []


def test_chain_break_truncation_magnitude():
    s, A0 = _chain_break_system()
    lad = h.build_ladder(s)
    lv = lad.levels[0]
    assert abs(lv.J1[0, 0]) == pytest.approx(1.0)
    assert len(lv.A_proj) == 2
    assert abs(lv.A_proj[1][0, 0]) == pytest.approx(0.7)
    lam, eps = 0.13 - 0.4j, 0.5
    got = h.truncated_char(lad, 1, eps, lam)
    want = -lam + A0[2, 2] + 0.7 * np.exp(-lam * 1.0 / eps)
    assert abs(got) == pytest.approx(abs(want), rel=1e-12)
    with pytest.raises(ConfigError):
        h.truncated_char(lad, 0, None, lam)


def test_truncated_char_guard_names_the_scale():
    # -Re lam * sigma_1 / eps = 400 * 2 passes the exp argument limit
    lad = h.build_ladder(_chain_break_system()[0])
    with pytest.raises(EvaluationRangeError) as exc:
        h.truncated_char(lad, 1, 0.5, -400 + 0j)
    assert exc.value.scale == 1


def test_truncated_char_guard_is_one_sided():
    # right of the axis exp(-lam tau) only underflows: the delay term is
    # gone and the value is that of -lam + A0[2, 2], up to the phase of
    # the kernel bases
    s, A0 = _chain_break_system()
    lad = h.build_ladder(s)
    got = h.truncated_char(lad, 1, 0.5, 400 + 0j)
    assert np.isfinite(got)
    assert abs(got) == pytest.approx(abs(-400.0 + A0[2, 2]), rel=1e-12)


def test_truncated_char_overflowing_delay_names_the_scale():
    # sigma_1 / eps overflows a float at eps = 1e-309: refused as in
    # model.delays, not a bare OverflowError
    lad = h.build_ladder(_chain_break_system()[0])
    with pytest.raises(EvaluationRangeError) as exc:
        h.truncated_char(lad, 1, 1e-309, 0.1j)
    assert exc.value.scale == 1


def _two_level_system():
    """d=3, n=2 with ladder levels 2 and 1: tilde manifolds at scale 1."""
    A0 = np.array([[-1 + 0.3j, 0.2, 0], [0.1, -0.5 + 1j, 0.1],
                   [0, 0.2, -0.7 - 0.4j]])
    A1 = np.array([[0.3, 0.1, 0], [0.05, 0.25, 0], [0, 0, 0]], complex)
    A2 = np.diag([0.2, 0, 0]).astype(complex)
    return h.DelaySystem(matrices=(A0, A1, A2), sigma=(1.0, 1.3))


def test_has_tilde():
    full = h.build_ladder(h.DelaySystem(
        matrices=(np.zeros((2, 2), complex), np.eye(2, dtype=complex)),
        sigma=(1.0,)))
    assert not any(full.has_tilde(k) for k in range(3))
    broken = h.build_ladder(_chain_break_system()[0])
    assert not any(broken.has_tilde(k) for k in range(3))
    lad = h.build_ladder(_two_level_system())
    assert [lv.k for lv in lad.levels] == [2, 1]
    assert lad.k_under == 1
    assert lad.has_tilde(1)
    assert not lad.has_tilde(2)


def test_strong_stable_pencil_root():
    A0 = np.array([[-2.0, 0.3], [0.7, 1.0]], dtype=complex)
    A1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    lad = h.build_ladder(h.DelaySystem(matrices=(A0, A1), sigma=(1.0,)))
    roots = h.strong_stable_spectrum(lad)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-2.0, abs=1e-9)


def test_strong_stable_drops_infinite_directions():
    # the reduced pencil has one finite eigenvalue (-3) and one infinite one;
    # only the finite stable eigenvalue is reported
    A1 = np.zeros((3, 3), complex)
    A1[1, 2] = 1.0
    A0 = np.array([[-3.0, 0, 0], [0, 7, 0], [0, 5, 0]], dtype=complex)
    lad = h.build_ladder(h.DelaySystem(matrices=(A0, A1), sigma=(1.0,)))
    assert lad.nd_satisfied
    roots = h.strong_stable_spectrum(lad)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-3.0, abs=1e-9)


def test_identically_zero_pencil_refused():
    A1 = np.zeros((3, 3), complex)
    A1[1, 2] = 1.0
    A0 = np.array([[-3.0, 0, 0], [0, 7, 0], [0, 0, 0]], dtype=complex)
    lad = h.build_ladder(h.DelaySystem(matrices=(A0, A1), sigma=(1.0,)))
    assert not lad.nd_satisfied
    with pytest.raises(DegenerateSystemError):
        h.strong_stable_spectrum(lad)


def test_near_vanishing_pencil_refused():
    # as above with A0[2, 1] = 1e-14: the level-1 pencil is det(diag(-3,
    # 1e-14) - lam diag(1, 0)) = (3 + lam) (-1e-14), far below
    # pencil_roots' relative floor (TRIM_TOL times the pencil's size); it
    # is refused although it has a root at -3
    A1 = np.zeros((3, 3), complex)
    A1[1, 2] = 1.0
    A0 = np.array([[-3.0, 0, 0], [0, 7, 0], [0, 1e-14, 0]], dtype=complex)
    lad = h.build_ladder(h.DelaySystem(matrices=(A0, A1), sigma=(1.0,)))
    assert lad.k_under == 1 and lad.nd_satisfied
    with pytest.raises(DegenerateSystemError, match="^level-1 pencil "
                       "determinant vanishes identically$"):
        h.strong_stable_spectrum(lad)


def test_small_pencil_is_not_refused():
    # two copies of a 2 x 2 block whose level-1 pencil has entries of
    # order e: J1's singular values are e and e, yet the pencil is far
    # from vanishing relative to its own size.  The Y coefficient of the
    # block's det(-lam I + B0 + Y B1) is -e (lam + 3.5), so the roots are
    # -3.5, once per block.  A floor on the determinant scaled by
    # max(1, |A0p| + radius |J1|) refused this pencil
    e = 5e-7
    B1 = np.array([[e, 1.0], [0.0, 0.0]], complex)
    B0 = np.array([[-1.0, 0.2], [3 * e, -0.5]], complex)
    Z = np.zeros((2, 2))
    sys_ = h.DelaySystem(matrices=(np.block([[B0, Z], [Z, B0]]),
                                   np.block([[B1, Z], [Z, B1]])),
                         sigma=(1.0,))
    lad = h.build_ladder(sys_)
    assert lad.k_under == 1 and lad.nd_satisfied
    assert np.allclose(np.linalg.svd(lad.level(1).J1, compute_uv=False),
                       [e, e], rtol=1e-9, atol=0)
    roots = h.strong_stable_spectrum(lad)
    assert len(roots) == 2
    assert np.allclose(roots, [-3.5, -3.5], rtol=0, atol=1e-6)


def test_projection_annihilates_top_coefficient():
    rng = np.random.default_rng(1212)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d))
        u = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        v = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        An = u @ v.conj().T
        A0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        s = h.DelaySystem(matrices=(A0, An), sigma=(1.0,))
        lad = h.build_ladder(s)
        assert lad.an_singular
        lv = lad.levels[0]
        assert lv.dim == d - r
        # the level is the sandwich with An's kernel bases, which annihilate An
        U1, V1 = kernel_vectors(An)
        smax = float(np.linalg.svd(An, compute_uv=False)[0])
        sandwich = U1.conj().T @ An @ V1
        assert np.linalg.norm(sandwich) <= 10 * RANK_TOL * smax
        assert np.allclose(lv.J1, U1.conj().T @ V1, rtol=0, atol=1e-14)
        assert np.allclose(lv.A_proj[0], U1.conj().T @ A0 @ V1, rtol=0,
                           atol=1e-14 * np.linalg.norm(A0))


def test_degenerate_spectrum_is_eps_independent():
    # with a zero pivot the determinant factors and the exact spectrum is
    # the pair of diagonal entries, for every scale parameter
    s = _two_dim_system(0.0)
    box = h.Rectangle(-2.0, 2.0, -2.0, 2.0)
    for eps in (0.2, 0.1):
        f, fp = h.char_function(s, eps)
        roots = h.find_roots(f, box, fprime=fp)
        locs = sorted(r.location.real for r in roots)
        assert len(roots) == 2
        assert np.allclose(locs, [-1.2, 0.5], atol=1e-8)
        assert max(abs(r.location.imag) for r in roots) <= 1e-8


def test_pencil_root_attracts_true_root():
    # the reduced-pencil eigenvalue -2 approximates a true root with an
    # error that collapses rapidly as the scale parameter shrinks
    A0 = np.array([[-2.0, 0.3], [0.7, 1.0]], dtype=complex)
    A1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, A1), sigma=(1.0,))
    box = h.Rectangle(-2.05, -1.95, -0.05, 0.05)
    dists = []
    for eps in (0.1, 0.05):
        f, fp = h.char_function(s, eps)
        roots = h.find_roots(f, box, fprime=fp)
        assert len(roots) == 1 and roots[0].multiplicity == 1
        dists.append(abs(roots[0].location + 2.0))
    assert dists[0] <= 1e-8
    assert dists[1] <= 1e-11
    assert dists[1] < dists[0]


def test_borderline_rank_warns():
    top = np.diag([1.0, 5e-10]).astype(complex)
    s = h.DelaySystem(matrices=(np.eye(2, dtype=complex), top), sigma=(1.0,))
    with pytest.warns(UserWarning):
        lad = h.build_ladder(s)
    # under the strict tolerance the top coefficient still counts as full rank
    assert not lad.an_singular
