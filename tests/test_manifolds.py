"""Per-scale frequency sweeps: growth-rate branches, flags, assembled sets."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hierdde as h
from hierdde import manifolds as mf
from hierdde.errors import ConfigError, TrivialityError
from hierdde.manifolds import GridSpec, ManifoldSample, PhasePoint


def _poly_eval(coeffs, y):
    return sum(c * y ** j for j, c in enumerate(coeffs))


def _points(axes):
    """The lattice of ``axes`` as points, flattened omega-major: the
    coordinate arrays (omega, phi_1, ..., phi_{k-1}), one entry per
    point."""
    return [a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")]


def test_strong_spectrum_examples():
    A0 = np.diag([-1.0, 2.0]).astype(complex)
    s = h.DelaySystem(matrices=(A0, np.eye(2, dtype=complex)), sigma=(1.0,))
    sp = h.strong_spectrum(s)
    assert np.allclose(sp.S0, [-1.0, 2.0])
    assert np.allclose(sp.S0_plus, [2.0])
    assert sp.r0 == pytest.approx(3.0)
    assert sp.r == pytest.approx(1.0 / 3.0)


def test_strong_spectrum_stable_scalar():
    s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1,))
    sp = h.strong_spectrum(s)
    assert len(sp.S0_plus) == 0
    assert sp.r0 == float("inf")
    assert sp.r == pytest.approx(0.4 / 3.0)


def test_strong_spectrum_repeated_eigenvalue():
    A0 = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, np.eye(2, dtype=complex)), sigma=(1.0,))
    sp = h.strong_spectrum(s)
    assert np.allclose(sp.S0, [2.0, 2.0])
    assert sp.r0 == float("inf")
    assert sp.r == pytest.approx(2.0 / 3.0)


def test_truncated_char_poly_scalar():
    a, b, c = -0.4 + 0.5j, 0.5, 0.2
    s = h.DelaySystem.scalar(a, (b, c))
    coeffs = h.truncated_char_poly(s, 1, PhasePoint(omega=0.3, phi=()))
    assert np.allclose(coeffs, [a - 0.3j, b], atol=1e-14)
    phi1 = 1.1
    coeffs2 = h.truncated_char_poly(s, 2, PhasePoint(omega=0.3, phi=(phi1,)))
    assert np.allclose(coeffs2, [a - 0.3j + b * np.exp(-1j * phi1), c], atol=1e-13)


def test_truncated_char_poly_nilpotent_block():
    a1, a2, a3, a4 = -1.2, 0.7, 0.4, 0.5
    A0 = np.array([[a1, a2], [a3, a4]], dtype=complex)
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, A1), sigma=(1.0,))
    om = 0.6
    coeffs = h.truncated_char_poly(s, 1, PhasePoint(omega=om, phi=()))
    want = [(a1 - 1j * om) * (a4 - 1j * om) - a3 * a2, -a3]
    assert np.allclose(coeffs, want, atol=1e-13)


def test_truncated_char_poly_identically_zero_is_refused():
    # det(-0.5i I + diag(0.5i, -1) + Y diag(0, 0.3)) = 0 * (-1 - 0.5i + 0.3 Y)
    s = h.DelaySystem(matrices=(np.diag([0.5j, -1.0]), np.diag([0.0, 0.3])),
                      sigma=(1.0,))
    with pytest.raises(TrivialityError, match="^scale-1 polynomial vanishes "
                       "at PhasePoint"):
        h.truncated_char_poly(s, 1, PhasePoint(omega=0.5, phi=()))


def test_rotated_identically_zero_polynomial_is_refused():
    # the system above in random unitary bases Q: the singular bases of A1
    # are no longer exact, so det(C + sigma diag(s, 0)) keeps rounding of
    # about 1e-18 relative to its scale, under the pencil's relative
    # floor; no branch comes from that rounding
    rng = np.random.default_rng(7)
    point = PhasePoint(omega=0.5, phi=())
    for _ in range(5):
        q, _ = np.linalg.qr(_cplx(rng, 2, 2))
        s = h.DelaySystem(matrices=(q @ np.diag([0.5j, -1.0]) @ q.conj().T,
                                    q @ np.diag([0.0, 0.3]) @ q.conj().T),
                          sigma=(1.0,))
        with pytest.raises(TrivialityError, match="^scale-1 polynomial "
                           "vanishes at PhasePoint"):
            h.truncated_char_poly(s, 1, point)
        with pytest.raises(TrivialityError, match="^scale-1 polynomial "
                           "vanishes identically$"):
            h.gamma_branches(s, 1, point)


def test_manifold_grid_refuses_a_scale_out_of_range():
    with pytest.raises(ConfigError, match="^scale k must be in 1..2, got 0$"):
        h.manifold_grid(h.preset_system("fig3"), 0)


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pencil_system(case):
    """(system, k) of a pencil case: random d = 1..4 systems, and d = 3
    systems whose top matrix has rank 1 or 2 (``d3-rank1``, ``d3-rank2``)."""
    rng = np.random.default_rng(2027)
    d = int(case[1])
    u = _cplx(rng, 3, d)
    top = {"d3-rank1": 0.4 * np.outer(u[0], u[1]),
           "d3-rank2": 0.4 * (np.outer(u[0], u[1])
                              + np.outer(u[2], u[1].conj()))
           }.get(case, 0.4 * _cplx(rng, d, d))
    return h.DelaySystem((_cplx(rng, d, d) - 2.0 * np.eye(d),
                          0.3 * _cplx(rng, d, d), top), (1.0, 1.3)), 2


def _qz_roots(B, Ak):
    """The finite eigenvalues of the pencil (B, -Ak) by scipy's QZ, the
    infinite ones (huge where Ak's rank deficiency is not exact) left out."""
    vals = scipy.linalg.eigvals(B, -Ak)
    return vals[np.isfinite(vals) & (np.abs(vals) < 1e8)]


@pytest.mark.parametrize("case", ["d2", "d3", "d4", "d3-rank1", "d3-rank2"])
def test_level_roots_are_the_qz_eigenvalues(case):
    # every root of det(B + Y Ak) on a scale-2 lattice of 400 points is a
    # QZ eigenvalue of the pencil (B, -Ak) within 1e-13 of (1 + |Y|), and
    # each finite eigenvalue has its root
    s, k = _pencil_system(case)
    level = mf._Level.plain(s, k)
    assert level.dk == {"d3-rank1": 1, "d3-rank2": 2}.get(case, s.d)
    coords = _points(GridSpec(20, 20, (-3.0, 3.0)).axes(s, k))
    roots, neff = level.roots(coords)
    assert (neff == level.dk).all()
    B = level.B(coords)
    for i in range(coords[0].size):
        want = _qz_roots(B[i], level.Ak)
        assert want.size == level.dk
        err = np.abs(roots[i][:, None] - want[None, :]).min(axis=1)
        assert (err <= 1e-13 * (1.0 + np.abs(roots[i]))).all(), (i, err)


def test_partial_degree_loss_keeps_its_finite_branch():
    # d = 3, A1 = diag(0.4, 0.3, 0), and at omega 0.5 the entry B[2, 2] =
    # -0.5i + 0.5i vanishes: the Y**2 term drops, one branch is lost
    # (-inf) and the other is the QZ pencil's one finite eigenvalue
    rng = np.random.default_rng(55)
    A0 = _cplx(rng, 3, 3)
    A0[2, 2] = 0.5j
    A1 = np.diag([0.4, 0.3, 0.0]).astype(complex)
    s = h.DelaySystem((A0, A1), (1.0,))
    point = PhasePoint(omega=0.5)
    finite, lost = h.gamma_branches(s, 1, point)
    assert lost.Y is None and lost.gamma == -math.inf
    (want,) = _qz_roots(-0.5j * np.eye(3) + A0, A1)
    assert abs(finite.Y - want) <= 1e-13 * (1.0 + abs(want))
    coeffs = h.truncated_char_poly(s, 1, point)
    assert coeffs.size == 2 and coeffs[1] * want + coeffs[0] \
        == pytest.approx(0.0, abs=1e-14 * abs(coeffs).max())


def test_jordan_block_pencil_splits_its_double_root_by_sqrt_eps():
    # A1 = I and A0 = Q [[lam, 1], [0, lam]] Q^H: det(B + Y I) = (Y - Y0)**2
    # with Y0 = i omega - lam, a double root of a defective pencil.  The
    # computed pair splits about Y0 by about sqrt(machine eps) (below 1e-7
    # here), as any backward-stable eigensolver splits a Jordan block, and
    # its mean is Y0 within 1e-14; the split stays within BRANCH_SEP, so
    # the root finder's seeds still see one double branch
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(_cplx(rng, 2, 2))[0]
    lam = -0.3 + 0.2j
    A0 = Q @ np.array([[lam, 1.0], [0.0, lam]]) @ Q.conj().T
    s = h.DelaySystem((A0, np.eye(2)), (1.0,))
    for om in (0.0, 0.5, 1.3):
        Y = np.array([b.Y for b in h.gamma_branches(s, 1, PhasePoint(om))])
        Y0 = 1j * om - lam
        assert np.abs(Y - Y0).max() <= 1e-7
        assert abs(Y.mean() - Y0) <= 1e-14
        assert abs(Y[0] - Y[1]) <= mf.BRANCH_SEP * abs(Y0)


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "d4", "d3-rank1",
                                  "d3-rank2", "partial"])
def test_truncated_char_poly_is_the_determinant(case):
    # det(B + Y Ak) = lead prod_b (Y - Y_b) at random Y: the coefficients
    # of truncated_char_poly are those of the determinant
    rng = np.random.default_rng(99)
    if case == "partial":
        A0 = _cplx(rng, 3, 3)
        A0[2, 2] = 0.5j
        s, k = h.DelaySystem((A0, np.diag([0.4, 0.3, 0.0])), (1.0,)), 1
        points = [PhasePoint(0.5)]
    else:
        s, k = _pencil_system(case)
        points = [PhasePoint(om, (ph,)) for om, ph in
                  zip(rng.uniform(-3.0, 3.0, 8), rng.uniform(0.0, 6.0, 8))]
    level = mf._Level.plain(s, k)
    for point in points:
        coeffs = h.truncated_char_poly(s, k, point)
        B = level.B(_points(point.axes(k)))[0]
        for Y in _cplx(rng, 5):
            want = np.linalg.det(B + Y * level.Ak)
            got = np.polynomial.polynomial.polyval(Y, coeffs)
            scale = np.abs(coeffs).max() * (1.0 + abs(Y)) ** (coeffs.size - 1)
            assert abs(got - want) <= 1e-13 * scale, (point, Y)


def test_block_diagonal_d3_heights_are_those_of_the_blocks():
    # d = 3 with three distinct scalar blocks: the sorted heights at each
    # scale-2 lattice point are the sorted heights of the scalar systems
    blocks = [(-0.4 + 0.5j, 0.1, 0.4), (-0.7 - 0.2j, 0.25 + 0.1j, 0.3),
              (-0.2 + 1.1j, 0.15j, 0.5 - 0.1j)]
    mats = tuple(np.diag([b[i] for b in blocks]).astype(complex)
                 for i in range(3))
    s = h.DelaySystem(mats, (1.0, 1.0))
    axes = GridSpec(omega_range=(-3.0, 3.0)).axes(s, 2)
    gammas = mf._Level.plain(s, 2).lattice(axes).gammas
    want = np.stack([
        mf._Level.plain(h.DelaySystem.scalar(a0, ak), 2).lattice(axes).gammas[:, 0]
        for a0, *ak in blocks], axis=1)
    _heights_within(np.sort(gammas, axis=1), np.sort(want, axis=1), 1e-14)


@pytest.mark.parametrize("rotated", [False, True], ids=["a_k I", "Q diag"])
@pytest.mark.parametrize("name", h.PRESET_NAMES)
def test_double_systems_take_the_closed_form_heights(name, rotated):
    # A_k = a_k I, and Q diag(a_k, a_k) Q^H: both branches at every default
    # lattice point of scales 1 and 2 are scalar2's gamma1 / gamma2 within
    # 1e-14 of (1 + |gamma|)
    p, sc = h.preset_params(name), h.preset_system(name)
    Q = np.linalg.qr(_cplx(np.random.default_rng(3), 2, 2))[0] if rotated \
        else np.eye(2)
    s = h.DelaySystem(tuple(Q @ (M[0, 0] * np.eye(2)) @ Q.conj().T
                            for M in sc.matrices), sc.sigma)
    for k in (1, 2):
        axes = GridSpec().axes(s, k)
        gammas = mf._Level.plain(s, k).lattice(axes).gammas
        closed = np.array([h.gamma1(p, om) if k == 1 else
                           h.gamma2(p, om, ph[0])
                           for om, *ph in zip(*(c.tolist()
                                                for c in _points(axes)))])
        for b in range(2):
            _heights_within(gammas[:, b], closed, 1e-14)


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "d4", "d3-rank1",
                                  "d3-rank2"])
def test_level_rows_do_not_depend_on_their_batch(case):
    # a lattice of 65,600 points takes two chunks of _CHUNK_ROWS rows; its
    # roots, heights and counts at the first and last rows, on both sides
    # of the chunk boundary and at random rows equal those of each row
    # alone and of the picked rows in one batch, bit for bit (ROADMAP item
    # 9's contract for the level polynomials)
    s, k = _pencil_system(case)
    level = mf._Level.plain(s, k)
    coords = _points(GridSpec(1025, 64, (-3.0, 3.0)).axes(s, k))
    N, C = coords[0].size, mf._CHUNK_ROWS
    assert C < N < 2 * C
    whole = level.gammas(coords)
    rng = np.random.default_rng(5)
    picks = np.unique(np.concatenate([[0, C - 2, C - 1, C, C + 1, N - 1],
                                      rng.integers(0, N, 60)]))
    batch = level.gammas([c[picks] for c in coords])
    for j, i in enumerate(picks.tolist()):
        alone = level.gammas([c[i:i + 1] for c in coords])
        for w, b, a in zip(whole, batch, alone):
            assert w[i].tobytes() == b[j].tobytes() == a[0].tobytes(), i


def _three_scale_system(d):
    """A random d x d system with three delay scales."""
    rng = np.random.default_rng(2031 + d)
    return h.DelaySystem((_cplx(rng, d, d) - 2.0 * np.eye(d),
                          0.3 * _cplx(rng, d, d), 0.2 * _cplx(rng, d, d),
                          0.4 * _cplx(rng, d, d)), (1.0, 1.3, 0.7))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("grid", [(23, 8), (9, 1), (6, 7)],
                         ids=["23x8", "9x1", "6x7"])
def test_lattice_is_its_points_bit_for_bit(d, k, grid):
    # the lattice builds B from its axes, each delay factor once per axis
    # value: its roots, heights and counts are those of its flattened
    # points, bit for bit, also where a phase axis has one value, and the
    # table holds them with the index of each point that is not
    # identically zero
    s = _three_scale_system(d)
    level = mf._Level.plain(s, k)
    axes = GridSpec(*grid, (-3.0, 3.0)).axes(s, k)
    got = level.gammas(np.ix_(*axes))
    want = level.gammas(_points(axes))
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    table = level.lattice(axes)
    for a, b in zip((table.roots, table.gammas, table.rows),
                    (want[0], want[1], np.flatnonzero(want[2] >= 0))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [None, 100], ids=["2**16", "100"])
def test_lattice_chunks_cut_omega_lines_bit_for_bit(chunk, monkeypatch):
    # 1,400 omega lines of 49 phase points: 68,600 rows take two chunks
    # of _CHUNK_ROWS, whose boundary, like those of 100-row chunks, falls
    # inside an omega line; the chunks' rows equal the points' rows
    if chunk is not None:
        monkeypatch.setattr(mf, "_CHUNK_ROWS", chunk)
    s = _three_scale_system(1)
    level = mf._Level.plain(s, 3)
    axes = GridSpec(1400 if chunk is None else 60, 7,
                    (-3.0, 3.0)).axes(s, 3)
    coords = _points(axes)
    assert coords[0].size % mf._CHUNK_ROWS and mf._CHUNK_ROWS % 49
    assert coords[0].size > mf._CHUNK_ROWS
    got = level.gammas(np.ix_(*axes))
    want = level.gammas(coords)
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()
    table = level.lattice(axes)
    assert table.roots.tobytes() == want[0].tobytes()
    assert table.gammas.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("case", ["d1", "d2", "d2-rank1"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_point_chunks_cut_real_and_complex_points_bit_for_bit(case, k,
                                                              monkeypatch):
    # points take the row cutter of a lattice: cut into 7-row chunks, 300
    # real points' heights and 300 complex frequencies' branches (the path
    # of axis_seeds' candidates) equal those of one uncut batch, bit for
    # bit; with a rank-1 top matrix the radii are cut with the rows
    s = _three_scale_system(int(case[1]))
    if case == "d2-rank1":
        rng = np.random.default_rng(17)
        s = h.DelaySystem(s.matrices[:1] + tuple(
            0.4 * np.outer(*_cplx(rng, 2, 2)) for _ in range(3)), s.sigma)
    level = mf._Level.plain(s, k)
    assert level.dk == (1 if case == "d2-rank1" else s.d)
    rng = np.random.default_rng(40 + k)
    N = 300
    assert N % 7 and N <= mf._CHUNK_ROWS
    coords = [rng.uniform(-3.0, 3.0, N)] + [rng.uniform(0.0, 7.0, N)
                                            for _ in range(k - 1)]
    lams = rng.uniform(-0.05, 0.05, N) + 1j * rng.uniform(-3.0, 3.0, N)
    want = (*level.gammas(coords), level.branches(0.1, lams))
    monkeypatch.setattr(mf, "_CHUNK_ROWS", 7)
    got = (*level.gammas(coords), level.branches(0.1, lams))
    assert np.isfinite(want[0]).all() and np.isfinite(want[3]).all()
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _heights_within(got, want, rel):
    """Equal infinities, and finite heights within ``rel * (1 + |want|)``."""
    inf = np.isinf(got) | np.isinf(want)
    assert np.array_equal(got[inf], want[inf])
    err = np.abs(got[~inf] - want[~inf]) / (1.0 + np.abs(want[~inf]))
    assert err.max(initial=0.0) <= rel, err.max()


@pytest.mark.parametrize("name", h.PRESET_NAMES)
@pytest.mark.parametrize("k", [1, 2])
def test_preset_lattice_heights_are_the_closed_forms(name, k):
    # the default lattice of each preset, against scalar2's gamma1/gamma2
    p, s = h.preset_params(name), h.preset_system(name)
    axes = GridSpec().axes(s, k)
    gammas = mf._Level.plain(s, k).lattice(axes).gammas
    closed = np.array([h.gamma1(p, om) if k == 1 else h.gamma2(p, om, ph[0])
                       for om, *ph in zip(*(c.tolist()
                                            for c in _points(axes)))])
    _heights_within(gammas[:, 0], closed, 2e-15)


@pytest.mark.parametrize("k", [1, 2])
def test_block_diagonal_heights_are_those_of_the_blocks(k):
    # d = 2 with distinct scalar blocks: the sorted heights at each lattice
    # point are the sorted heights of the two scalar systems
    blocks = [(-0.4 + 0.5j, 0.1, 0.4), (-0.7 - 0.2j, 0.25 + 0.1j, 0.3)]
    mats = tuple(np.diag([blocks[0][i], blocks[1][i]]).astype(complex)
                 for i in range(3))
    s = h.DelaySystem(matrices=mats, sigma=(1.0, 1.0))
    axes = GridSpec(omega_range=(-3.0, 3.0)).axes(s, k)
    gammas = mf._Level.plain(s, k).lattice(axes).gammas
    want = np.stack([
        mf._Level.plain(h.DelaySystem.scalar(a0, ak), k).lattice(axes).gammas[:, 0]
        for a0, *ak in blocks], axis=1)
    _heights_within(np.sort(gammas, axis=1), np.sort(want, axis=1), 1e-14)


def test_double_branch_on_unit_circle():
    # identity delayed coefficient at frequency 1: both branches sit at Y = i,
    # giving growth rate zero twice
    s = h.DelaySystem(matrices=(np.zeros((2, 2), complex), np.eye(2, dtype=complex)),
                      sigma=(1.0,))
    coeffs = h.truncated_char_poly(s, 1, PhasePoint(omega=1.0, phi=()))
    assert np.allclose(coeffs, [-1.0, -2.0j, 1.0], atol=1e-14)
    branches = h.gamma_branches(s, 1, PhasePoint(omega=1.0, phi=()))
    assert len(branches) == 2
    for b in branches:
        assert b.Y == pytest.approx(1j, abs=1e-7)
        assert abs(b.gamma) <= 1e-7


def test_branch_gammas_match_scalar_closed_forms():
    a, b, c = -0.4 + 0.5j, 0.5, 0.2
    s = h.DelaySystem.scalar(a, (b, c))
    p = h.ScalarParams(a=a, b=b, c=c)
    for om in np.linspace(-2.0, 2.0, 21):
        (b1,) = h.gamma_branches(s, 1, PhasePoint(omega=float(om), phi=()))
        assert b1.gamma == pytest.approx(h.gamma1(p, float(om)), abs=1e-10)
    for om in np.linspace(-1.5, 1.5, 7):
        for phi in np.linspace(0.0, 2 * np.pi, 5, endpoint=False):
            (b2,) = h.gamma_branches(s, 2, PhasePoint(omega=float(om), phi=(float(phi),)))
            assert b2.gamma == pytest.approx(h.gamma2(p, float(om), float(phi)),
                                             abs=1e-10)


def test_zero_root_gives_plus_infinity_branch():
    A0 = np.array([[1j, 0], [1, -1]], dtype=complex)
    A1 = np.array([[0, 1], [0, 0]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, A1), sigma=(1.0,))
    (b,) = h.gamma_branches(s, 1, PhasePoint(omega=1.0, phi=()))
    assert b.gamma == float("inf")
    assert abs(b.Y) <= 1e-12
    assert b.projected is None
    flags = h.singularity_test(s, 1, PhasePoint(omega=1.0, phi=()))
    assert flags.plus_infinity_condition


def test_degree_deficiency_gives_minus_infinity_branch():
    A1 = np.diag([1.0, 0.0]).astype(complex)
    A0 = np.array([[0.3 + 0.1j, 0.2], [0.4, 0.7j]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, A1), sigma=(1.0,))
    (b,) = h.gamma_branches(s, 1, PhasePoint(omega=0.7, phi=()))
    assert b.gamma == float("-inf")
    assert b.Y is None
    flags = h.singularity_test(s, 1, PhasePoint(omega=0.7, phi=()))
    assert not flags.plus_infinity_condition
    assert flags.minus_infinity_condition
    # away from the special frequency the single branch is finite
    (b2,) = h.gamma_branches(s, 1, PhasePoint(omega=0.3, phi=()))
    assert b2.Y == pytest.approx(-0.3, abs=1e-12)
    assert b2.gamma == pytest.approx(-np.log(0.3), abs=1e-12)
    flags2 = h.singularity_test(s, 1, PhasePoint(omega=0.3, phi=()))
    assert not flags2.plus_infinity_condition
    assert not flags2.minus_infinity_condition


def test_branch_count_equals_delayed_rank():
    rng = np.random.default_rng(1414)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(n + 1)]
        if rng.random() < 0.4 and d > 1:
            mats[n][:, 0] = 0.0  # make the active coefficient rank-deficient
        s = h.DelaySystem(matrices=tuple(mats), sigma=tuple([1.0] * n))
        k = n
        point = PhasePoint(omega=float(rng.uniform(-2, 2)),
                           phi=tuple(float(x) for x in rng.uniform(0, 6, n - 1)))
        branches = h.gamma_branches(s, k, point)
        assert len(branches) == np.linalg.matrix_rank(mats[k])


def test_scale_consistency_identity():
    # evaluating the scale-k polynomial at the unit-circle value of a new
    # phase equals the scale-(k+1) polynomial's constant term
    rng = np.random.default_rng(1515)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        mats = tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for _ in range(n + 1))
        sig = tuple(float(x) for x in rng.uniform(0.5, 1.5, n))
        s = h.DelaySystem(matrices=mats, sigma=sig)
        k = int(rng.integers(1, n))
        om = float(rng.uniform(-2, 2))
        phi = [float(x) for x in rng.uniform(0, 6, k - 1)]
        phik = float(rng.uniform(0, 6))
        low = h.truncated_char_poly(s, k, PhasePoint(omega=om, phi=tuple(phi)))
        high = h.truncated_char_poly(s, k + 1, PhasePoint(omega=om,
                                                          phi=tuple(phi + [phik])))
        val = _poly_eval(low, np.exp(-1j * sig[k - 1] * phik))
        assert abs(val - high[0]) <= 1e-9 * (1.0 + abs(val))


def test_singularity_flags_scalar_imaginary_axis():
    # purely imaginary drift: the frozen matrix is singular exactly at the
    # drift frequency
    s = h.DelaySystem.scalar(0.5j, (0.3,))
    flags = h.singularity_test(s, 1, PhasePoint(omega=0.5, phi=()))
    assert flags.plus_infinity_condition
    assert not flags.minus_infinity_condition
    flags2 = h.singularity_test(s, 1, PhasePoint(omega=0.1, phi=()))
    assert not flags2.plus_infinity_condition


def test_rescale_projection():
    assert h.rescale(0.1, 2, 0.01 + 2.0j) == pytest.approx(1.0 + 2.0j)
    assert h.rescale(0.01, 1, -0.005 + 0.3j) == pytest.approx(-0.5 + 0.3j)
    assert h.rescale(0.37, 0, 1.5 - 0.2j) == 1.5 - 0.2j


def test_canonical_phase_wraps_by_period():
    assert h.canonical_phase(2 * np.pi + 0.3, 1.0) == pytest.approx(0.3)
    assert h.canonical_phase(3.5, 2.0) == pytest.approx(3.5 - np.pi)
    assert h.canonical_phase(-0.1, 1.0) == pytest.approx(2 * np.pi - 0.1)


def test_canonical_phase_folds_the_period_to_zero():
    # -1e-17 % 2 pi rounds to 2 pi itself, outside [0, 2 pi)
    assert -1e-17 % (2 * np.pi) == 2 * np.pi
    assert h.canonical_phase(-1e-17, 1.0) == 0.0
    assert h.canonical_phase(2 * np.pi, 1.0) == 0.0
    assert h.canonical_phase(-1e-17, 2.0) == 0.0


def test_default_omega_bound():
    s = h.DelaySystem(matrices=(np.diag([-1.0, 2.0]).astype(complex),
                                np.eye(2, dtype=complex)), sigma=(1.0,))
    assert h.default_omega_bound(s) == pytest.approx(4.0)


def test_manifold_grid_and_csv_rows():
    a, b, c = -0.4 + 0.5j, 0.5, 0.2
    s = h.DelaySystem.scalar(a, (b, c))
    grid = GridSpec(omega_count=7, phase_count=4, omega_range=(-1.0, 1.0))
    samples1 = h.manifold_grid(s, 1, grid=grid)
    assert len(samples1) == 7  # one branch per frequency for a scalar system
    text = "".join(h.manifold_csv([samples1], s.n))
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[0] == ["k", "omega", "phi_1", "branch", "gamma", "Y_re", "Y_im",
                       "flags"]
    assert len(rows) == len(samples1) + 1
    assert all(len(r) == len(rows[0]) for r in rows)
    samples2 = h.manifold_grid(s, 2, grid=grid)
    assert len(samples2) == 7 * 4  # frequencies times phases


def test_assembled_sets():
    # stable second-scale example: nothing survives at scale 1
    s_stable = h.preset_system("fig2-stable")
    lad = h.build_ladder(s_stable)
    assert len(h.assemble_A_k(s_stable, lad, 1)) == 0
    # mixed example: scale-1 points have positive growth rate and live on a
    # bounded frequency interval
    s_mixed = h.preset_system("fig3")
    lad3 = h.build_ladder(s_mixed)
    pts1 = np.asarray(h.assemble_A_k(s_mixed, lad3, 1))
    assert pts1.size > 0
    assert pts1.real.min() > 0.0
    assert 0.19 < pts1.imag.min() and pts1.imag.max() < 0.81
    # top scale keeps every finite branch, of either sign
    pts2 = np.asarray(h.assemble_A_k(
        s_mixed, lad3, 2,
        grid=GridSpec(omega_count=31, phase_count=16, omega_range=(-3.2, 3.2))))
    assert pts2.size > 0
    assert np.isfinite(pts2).all()
    assert pts2.real.min() < 0.0 < pts2.real.max()


def test_manifold_heights_are_the_assembled_heights():
    # one height rule: on the preset grid the manifold table's finite
    # gammas are the top-scale assembled values, in order and bit for bit
    cfg = h.preset_config("fig2-unstable")
    sys_ = cfg.system
    gammas = np.array([s.gamma for s in h.manifold_grid(sys_, 2, cfg.grid)])
    finite = gammas[np.isfinite(gammas)]
    assembled = h.assemble_A_k(sys_, h.build_ladder(sys_), 2, cfg.grid)
    assert finite.size == assembled.size > 50_000
    assert np.array_equal(finite, assembled.real)


def test_assembled_sets_take_the_ladder():
    # a d = 3 system whose ladder has levels 2 and 1 (k_under = 1), so
    # scale 0 gains the level-1 pencil roots and scale 1 its tilde manifolds
    A0 = np.array([[-1.0 + 0.3j, 0.2, 0.0], [0.1, -0.5 + 1.0j, 0.1],
                   [0.0, 0.2, -0.7 - 0.4j]])
    A1 = np.array([[0.3, 0.1, 0.0], [0.05, 0.25, 0.0], [0.0, 0.0, 0.0]])
    A2 = np.zeros((3, 3))
    A2[0, 0] = 0.2
    sys_ = h.DelaySystem(matrices=(A0, A1, A2), sigma=(1.0, 1.3))
    ladder = h.build_ladder(sys_)
    assert ladder.k_under == 1 and ladder.has_tilde(1)
    pts0 = h.assemble_A_k(sys_, ladder, 0)
    assert np.array_equal(pts0, h.strong_stable_spectrum(ladder))
    assert np.allclose(pts0, [-0.7 - 0.4j], rtol=0.0, atol=1e-12)
    grid = GridSpec(omega_count=41, phase_count=8)
    pts1 = h.assemble_A_k(sys_, ladder, 1, grid)
    assert pts1.size == 41 and (pts1.real < 0.0).all()
    assert h.assemble_A_k(sys_, None, 1, grid).size == 0


def _trivial_system():
    # det(-i omega I + diag(-i, i, -1) + Y diag(0, 0, 1)) vanishes for
    # every Y at omega = -1 and at omega = 1
    return h.DelaySystem(matrices=(np.diag([-1j, 1j, -1.0]),
                                   np.diag([0.0, 0.0, 1.0])), sigma=(1.0,))


def test_vanishing_polynomial_raises_on_every_path(tmp_path):
    # the grid's two frequencies are both points where the polynomial
    # vanishes identically
    sys_ = _trivial_system()
    grid = GridSpec(omega_count=2, phase_count=1, omega_range=(-1.0, 1.0))
    ladder = h.build_ladder(sys_)
    for call in (lambda: h.manifold_grid(sys_, 1, grid),
                 lambda: h.gamma_branches(sys_, 1, PhasePoint(1.0)),
                 lambda: h.sup_gamma(sys_, 1, grid),
                 lambda: h.assemble_A_k(sys_, ladder, 1, grid),
                 lambda: h.classify(sys_, ladder, grid=grid)):
        with pytest.raises(TrivialityError):
            call()
    # run_manifolds maps the scale to () and writes no sample for it
    want = _reference_files(sys_, grid)
    assert want["manifolds.csv"] == "k,omega,branch,gamma,Y_re,Y_im,flags\n"
    for fmt in ("csv", "json"):
        cfg = h.RunConfig(system=sys_, eps_list=(0.1,), grid=grid,
                          out_dir=str(tmp_path), out_format=fmt)
        res = h.run_manifolds(cfg)
        assert res.plain == {1: ()} and res.tilde == {}
        (path,) = res.paths
        assert open(path).read() == want["manifolds." + fmt]


# ---------------------------------------------------------------------------
# sample tables against the per-object samples and per-sample formatters
# ---------------------------------------------------------------------------

def _reference_samples(sys_, k, grid, ladder=None):
    """One PhasePoint and one ManifoldSample per sample, built row by row:
    what manifold_grid returned as a list before it kept its samples as
    arrays.  Raises TrivialityError when every point is identically zero."""
    level = (mf._Level.plain(sys_, k) if ladder is None
             else mf._Level.tilde(ladder, k))
    omegas, *phis = coords = _points(grid.axes(sys_, k))
    roots, gammas, neff = level.gammas(coords)
    dk = level.dk
    if dk and np.all(neff < 0):
        raise TrivialityError("trivial grid")
    out = []
    for i in range(omegas.shape[0]):
        if neff[i] < 0:
            continue
        point = PhasePoint(omega=float(omegas[i]),
                           phi=tuple(float(p[i]) for p in phis))
        for branch in range(dk):
            Y, gam, proj = None, -math.inf, None
            if branch < neff[i]:
                Y = complex(roots[i, branch])
                gam = float(gammas[i, branch])
                if gam != math.inf:
                    proj = complex(gam, point.omega)
            out.append(ManifoldSample(k=k, point=point, branch=branch, Y=Y,
                                      gamma=gam, projected=proj))
    return out


def _reference_csv(samples, n):
    """The CSV text of a sample dump, formatted sample by sample."""
    rows = [["k", "omega"] + [f"phi_{j}" for j in range(1, n)]
            + ["branch", "gamma", "Y_re", "Y_im", "flags"]]
    for s in samples:
        phi_cols = ["%.17g" % p for p in s.point.phi]
        phi_cols += [""] * ((n - 1) - len(phi_cols))
        if s.is_minus_infinity:
            y_re = y_im = ""
            gamma, flags = "-inf", "minus_inf"
        elif s.is_plus_infinity:
            y_re, y_im = "%.17g" % s.Y.real, "%.17g" % s.Y.imag
            gamma, flags = "inf", "plus_inf"
        else:
            y_re, y_im = "%.17g" % s.Y.real, "%.17g" % s.Y.imag
            gamma, flags = "%.17g" % s.gamma, ""
        rows.append(["%d" % s.k, "%.17g" % s.point.omega] + phi_cols
                    + ["%d" % s.branch, gamma, y_re, y_im, flags])
    return "".join(",".join(r) + "\n" for r in rows)


def _reference_obj(by_scale):
    ext = {math.inf: "inf", -math.inf: "-inf"}
    return {str(k): [{"omega": s.point.omega, "phi": list(s.point.phi),
                      "branch": s.branch, "gamma": ext.get(s.gamma, s.gamma),
                      "Y": None if s.Y is None else [s.Y.real, s.Y.imag]}
                     for s in samples]
            for k, samples in sorted(by_scale.items())}


def _reference_files(sys_, grid):
    """File name -> text of run_manifolds' CSV and JSON output."""
    ladder = h.build_ladder(sys_)
    plain, tilde = {}, {}
    for k in range(1, sys_.n + 1):
        try:
            plain[k] = _reference_samples(sys_, k, grid)
        except TrivialityError:
            plain[k] = []
        if ladder.has_tilde(k):
            tilde[k] = _reference_samples(sys_, k, grid, ladder)
    files = {"manifolds.csv": _reference_csv(
        [s for k in sorted(plain) for s in plain[k]], sys_.n)}
    if tilde:
        files["manifolds_tilde.csv"] = _reference_csv(
            [s for k in sorted(tilde) for s in tilde[k]], sys_.n)
    files["manifolds.json"] = json.dumps(
        {"plain": _reference_obj(plain), "tilde": _reference_obj(tilde)},
        indent=1, sort_keys=True) + "\n"
    return files


def _tilde_system():
    # A2's kernel is two-dimensional and A1 is singular on it, so the ladder
    # reaches level 1 and its level 2 is not heuristic
    rng = np.random.default_rng(7)
    A0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return h.DelaySystem(matrices=(A0, np.diag([0.5, 1.0, 0.0]),
                                   np.diag([1.0, 0.0, 0.0])),
                         sigma=(1.0, 1.0))


# (system, grid, text every manifolds.csv line set must contain)
_TABLE_CASES = {
    # omega = 1 is a zero root: det B vanishes, the Y coefficient does not
    "plus-inf": (h.DelaySystem(matrices=(np.array([[1j, 0], [1, -1]]),
                                         np.array([[0, 1], [0, 0]])),
                               sigma=(1.0,)),
                 GridSpec(omega_count=5, omega_range=(0.0, 2.0)),
                 ",inf,", "plus_inf"),
    # omega = 0.7 drops the degree: the Y coefficient is 0.7j - i omega
    "minus-inf": (h.DelaySystem(matrices=(np.array([[0.3 + 0.1j, 0.2],
                                                    [0.4, 0.7j]]),
                                          np.diag([1.0, 0.0])),
                                sigma=(1.0,)),
                  GridSpec(omega_count=5, omega_range=(-0.7, 0.7)),
                  ",-inf,,,", "minus_inf"),
    # omega = 0 makes det(B + Y A1) vanish for every Y: the point is skipped
    "skipped-point": (h.DelaySystem(matrices=(np.diag([0.3, 0.0]),
                                              np.diag([1.0, 0.0])),
                                    sigma=(1.0,)),
                      GridSpec(omega_count=5, omega_range=(-1.0, 1.0)),
                      "1,-0.5,", "1,0.5,"),
    "tilde": (_tilde_system(),
              GridSpec(omega_count=5, phase_count=3, omega_range=(-1.0, 1.0)),
              "1,-1,,1,", "2,1,2.0943951023931953,0,"),
    # three delays: scale-1 rows leave phi_1 and phi_2 blank
    "n3": (h.DelaySystem.scalar(-0.4 + 0.5j, (0.5, 0.3, 0.2),
                                sigma=(1.0, 1.5, 0.5)),
           GridSpec(omega_count=4, phase_count=3, omega_range=(-1.0, 1.0)),
           "1,-1,,,0,", "2,1,4.1887902047863905,,0,"),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_manifold_files_match_per_sample_formatters(case, tmp_path):
    sys_, grid, *markers = _TABLE_CASES[case]
    want = _reference_files(sys_, grid)
    for fmt in ("csv", "json"):
        cfg = h.RunConfig(system=sys_, eps_list=(0.1,), grid=grid,
                          out_dir=str(tmp_path / fmt), out_format=fmt)
        res = h.run_manifolds(cfg)
        got = {p.rsplit("/", 1)[1]: open(p, "rb").read() for p in res.paths}
        assert got == {name: text.encode() for name, text in want.items()
                       if name.endswith(fmt)}
    for marker in markers:
        assert marker in want["manifolds.csv"] \
            + want.get("manifolds_tilde.csv", "")
    if case == "tilde":
        assert len(res.tilde[1]) == 5
    if case == "skipped-point":
        assert len(res.plain[1]) == 4


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_manifold_files_match_across_chunk_boundaries(case, tmp_path,
                                                      monkeypatch):
    # two points per chunk, decoded into samples and formatted:
    # finite, infinite and skipped rows fall on both sides of chunk
    # boundaries, and chunks with and without infinities mix
    monkeypatch.setattr(mf, "_CHUNK_POINTS", 2)
    monkeypatch.setattr(h.harness, "_CHUNK_RECORDS", 2)
    test_manifold_files_match_per_sample_formatters(case, tmp_path)


def _fields(sample):
    """Every field of a sample with its type, PhasePoint included."""
    vals = dataclasses.astuple(sample)
    return [(type(v), v) for v in vals[:1] + vals[1] + vals[2:]]


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_manifold_table_indexes_like_the_sample_list(case):
    sys_, grid, *_ = _TABLE_CASES[case]
    ladder = h.build_ladder(sys_)
    tables = [(h.manifold_grid(sys_, k, grid), _reference_samples(sys_, k,
                                                                  grid))
              for k in range(1, sys_.n + 1)]
    if case == "tilde":
        tables.append((h.manifold_grid(sys_, 1, grid, ladder=ladder),
                       _reference_samples(sys_, 1, grid, ladder)))
    for table, ref in tables:
        n = len(ref)
        assert len(table) == n > 0
        assert [_fields(s) for s in table] == [_fields(s) for s in ref]
        assert tuple(table) == tuple(ref)
        for i in (0, 1, n - 1, -1, -n, np.int64(n // 2), np.int32(-2)):
            assert _fields(table[i]) == _fields(ref[i])
        for sl in (slice(1, 5), slice(None, None, -3), slice(-4, None),
                   slice(n, n + 3)):
            assert table[sl] == ref[sl]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                table[bad]
        with pytest.raises(TypeError):
            table[1.0]
        moved = dataclasses.replace(table[-1], branch=7, gamma=0.5)
        assert moved == dataclasses.replace(ref[-1], branch=7, gamma=0.5)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(re_a=st.floats(-0.8, 0.8), im_a=st.floats(-0.5, 0.5),
       b=st.floats(0.05, 0.9), b_arg=st.floats(0.0, 2 * math.pi),
       c=st.floats(0.05, 0.9), c_arg=st.floats(0.0, 2 * math.pi))
def test_manifold_grids_match_scalar2_closed_forms(re_a, im_a, b, b_arg, c,
                                                   c_arg):
    assume(abs(re_a) >= 0.01)
    p = h.ScalarParams(a=complex(re_a, im_a), b=b * np.exp(1j * b_arg),
                       c=c * np.exp(1j * c_arg))
    s = h.DelaySystem.scalar(p.a, (p.b, p.c))
    grid = GridSpec(omega_count=41, phase_count=16, omega_range=(-3.2, 3.2))

    def check(closed, got):
        if math.isinf(closed) or math.isinf(got):
            assert closed == got
        else:
            assert abs(closed - got) <= 1e-9

    samples1 = h.manifold_grid(s, 1, grid)
    assert len(samples1) == 41
    for smp in samples1:
        check(h.gamma1(p, smp.point.omega), smp.gamma)
    samples2 = h.manifold_grid(s, 2, grid)
    assert len(samples2) == 41 * 16
    for smp in samples2:
        check(h.gamma2(p, smp.point.omega, smp.point.phi[0]), smp.gamma)


# ---------------------------------------------------------------------------
# refused arguments: each message names what the call needs
# ---------------------------------------------------------------------------

_OMEGA_MSG = "need omega range lo < hi and >= 2 samples"
_PHASE_MSG = "need at least one phase sample"
_GRID_CALLS = {
    "manifold_grid": lambda s, k, grid: h.manifold_grid(s, k, grid),
    "sup_gamma": lambda s, k, grid: h.sup_gamma(s, k, grid),
    "assemble_A_k": lambda s, k, grid: h.assemble_A_k(s, None, k, grid),
    "classify": lambda s, k, grid: h.classify(s, h.build_ladder(s), grid),
}


@pytest.mark.parametrize("call", sorted(_GRID_CALLS))
@pytest.mark.parametrize("grid, k, msg", [
    (GridSpec(omega_count=1, omega_range=(-1.0, 1.0)), 1, _OMEGA_MSG),
    (GridSpec(omega_count=5, omega_range=(1.0, 1.0)), 1, _OMEGA_MSG),
    (GridSpec(omega_count=5, phase_count=0, omega_range=(-1.0, 1.0)), 2,
     _PHASE_MSG),
    (GridSpec(omega_count=3.5, omega_range=(-1.0, 1.0)), 1,
     r"^malformed omega_count=3\.5: "),
    (GridSpec(omega_count=5, phase_count=2.5, omega_range=(-1.0, 1.0)), 2,
     r"^malformed phase_count=2\.5: "),
    (GridSpec(omega_count=5, phase_count=True, omega_range=(-1.0, 1.0)), 2,
     r"^malformed phase_count=True: "),
    (GridSpec(omega_count=5, omega_range=(True, 3.0)), 1,
     r"^malformed omega_range=\(True, 3\.0\): "),
    (GridSpec(omega_count=5, omega_range=("x", 3.0)), 1,
     r"^malformed omega_range=\('x', 3\.0\): "),
    (GridSpec(omega_count=5, omega_range=(0.0, math.inf)), 1, _OMEGA_MSG),
], ids=["one-omega", "empty-range", "no-phase", "omega-fraction",
        "phase-fraction", "phase-bool", "omega-range-bool",
        "omega-range-string", "omega-range-inf"])
def test_bad_grid_refused(call, grid, k, msg):
    s = h.preset_system("fig2-unstable")
    with pytest.raises(ConfigError, match=msg):
        _GRID_CALLS[call](s, k, grid)


def test_scale_one_takes_no_phase_sample():
    s = h.preset_system("fig2-unstable")
    grid = GridSpec(omega_count=5, phase_count=0, omega_range=(-1.0, 1.0))
    assert len(h.manifold_grid(s, 1, grid)) == 5
    assert math.isfinite(h.sup_gamma(s, 1, grid).sup)


@pytest.mark.parametrize("fn", [h.truncated_char_poly, h.gamma_branches,
                                h.singularity_test])
@pytest.mark.parametrize("k, phi", [(1, (0.5,)), (2, ()), (2, (0.1, 0.2))])
def test_point_with_wrong_phase_count_refused(fn, k, phi):
    s = h.preset_system("fig2-unstable")
    with pytest.raises(ConfigError, match=rf"scale-{k} point needs {k - 1} "
                                          rf"phases, got {len(phi)}"):
        fn(s, k, PhasePoint(0.3, phi))


@pytest.mark.parametrize("fn", [h.truncated_char_poly, h.gamma_branches,
                                h.singularity_test])
@pytest.mark.parametrize("k, omega, phi", [
    (2, math.nan, (0.1,)), (2, 0.3, (math.inf,)), (1, -math.inf, ()),
    (2, 0.3, (math.nan,))])
def test_point_with_non_finite_coordinate_refused(fn, k, omega, phi):
    # not a vanishing polynomial, nor flags read off nan: a ConfigError
    s = h.preset_system("fig2-unstable")
    with pytest.raises(ConfigError, match="^phase point coordinates must be "
                                          "finite, got PhasePoint"):
        fn(s, k, PhasePoint(omega, phi))


@pytest.mark.parametrize("k", [-1, 3])
def test_assemble_refuses_scale_outside_zero_to_n(k):
    s = h.preset_system("fig2-unstable")
    with pytest.raises(ConfigError, match=rf"scale k must be in 0\.\.2, "
                                          rf"got {k}"):
        h.assemble_A_k(s, h.build_ladder(s), k)


def test_scale_with_zero_matrix_has_no_branch(tmp_path):
    # A1 = 0: the scale-1 polynomial is constant and has no root in Y
    s = h.DelaySystem(([[-0.4 + 0.5j]], [[0.0]], [[0.2]]), (1.0, 1.0))
    grid = GridSpec(omega_count=11, phase_count=4)
    assert len(h.manifold_grid(s, 1, grid)) == 0
    assert len(h.manifold_grid(s, 2, grid)) == 11 * 4
    cfg = h.RunConfig(system=s, eps_list=(0.1,), grid=grid,
                      out_dir=str(tmp_path), out_format="json")
    (path,) = h.run_manifolds(cfg).paths
    text = open(path).read()
    assert json.loads(text)["plain"]["1"] == []
    assert text == json.dumps(json.loads(text), indent=1,
                              sort_keys=True) + "\n"
