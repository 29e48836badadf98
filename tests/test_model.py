"""System container, delay ladder, characteristic determinant, guards, I/O."""

import json

import numpy as np
import pytest
import scipy.optimize
from scipy.special import lambertw

import hierdde as h
from hierdde import linalg
from hierdde.errors import ConfigError, DimensionError, EvaluationRangeError
from hierdde.manifolds import _Level


def test_scalar_builder():
    s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.2))
    assert s.d == 1 and s.n == 2
    assert s.sigma == (1.0, 1.0)
    assert s.matrices[0][0, 0] == -0.4 + 0.5j
    assert s.matrices[2][0, 0] == 0.2
    s2 = h.DelaySystem.scalar(0.0, (1.0,), sigma=(2.5,))
    assert s2.sigma == (2.5,)


def test_system_validation():
    with pytest.raises(DimensionError):
        h.DelaySystem(matrices=(np.zeros((2, 2)), np.zeros((2, 3))), sigma=(1.0,))
    with pytest.raises(ConfigError):
        h.DelaySystem(matrices=(np.zeros((1, 1)), np.ones((1, 1))), sigma=(0.0,))
    with pytest.raises(DimensionError):
        h.DelaySystem(matrices=(np.zeros((1, 1)), np.ones((1, 1))), sigma=(1.0, 2.0))
    with pytest.raises(DimensionError):
        h.DelaySystem(matrices=(np.ones((1, 1)),), sigma=())
    with pytest.raises(DimensionError):
        h.DelaySystem(matrices=(np.array([[np.nan]]), np.ones((1, 1))), sigma=(1.0,))


@pytest.mark.parametrize("mats, sigma, error, message", [
    ((np.ones((1, 1)),), (), DimensionError,
     "need the instantaneous matrix plus at least one delay matrix"),
    ((np.eye(2), np.eye(3)), (1.0,), DimensionError,
     "all matrices must share one dimension"),
    ((np.eye(2), np.eye(2)), (1.0, 2.0), DimensionError,
     "need exactly one base delay per delay matrix"),
    ((np.eye(2), np.eye(2)), (float("inf"),), ConfigError,
     "base delays must be finite and positive"),
    ((np.zeros((0, 0)), np.zeros((0, 0))), (1.0,), DimensionError,
     "matrix 0 must be nonempty"),
], ids=["one-matrix", "dimension-mismatch", "delay-count", "delay-value",
        "empty"])
def test_delay_system_refuses(mats, sigma, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        h.DelaySystem(matrices=mats, sigma=sigma)


_SYS = {"d": 1, "n": 1, "sigma": [1.0], "A0": [[[0.0, 0.0]]],
        "A1": [[[1.0, 0.0]]]}


@pytest.mark.parametrize("data, message", [
    ([], r"system description must be a JSON object"),
    ({k: v for k, v in _SYS.items() if k != "d"},
     r"system description missing field d"),
    (_SYS | {"sigma": "x"},
     r"malformed system value sigma='x': need a list of numbers"),
    (_SYS | {"sigma": [1.0, 2.0]}, r"sigma must have n=1 entries, got 2"),
    ({k: v for k, v in _SYS.items() if k != "A1"},
     r"system description missing matrix A1"),
    (_SYS | {"A0": [[1.0]]}, r"A0: entries must be \[re, im\] pairs"),
    (_SYS | {"A1": [[[1.0, 0.0], [0.0, 0.0]]]},
     r"A1: expected shape \(1, 1\), got \(1, 2\)"),
    # a surplus matrix past n and a key of no system are not dropped
    (_SYS | {"A2": [[[5.0, 0.0]]], "bogus": 1},
     r"unknown system keys: \['A2', 'bogus'\]$"),
], ids=["not-object", "no-d", "bad-sigma", "sigma-count", "no-matrix",
        "not-pairs", "shape", "unknown-keys"])
def test_system_from_dict_refuses(data, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        h.system_from_dict(data)


def test_eps_validation():
    assert h.check_eps(1.0) == 1.0
    assert h.check_eps(0.25) == 0.25
    for bad in (0.0, -0.5, 1.5, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            h.check_eps(bad)


def test_delay_ladder_values():
    s = h.DelaySystem.scalar(0.0, (1.0, 1.0))
    assert np.allclose(h.delays(s, 0.01), [100.0, 10000.0], rtol=1e-12)
    s2 = h.DelaySystem(matrices=(np.zeros((1, 1)), np.ones((1, 1))), sigma=(2.0,))
    assert np.allclose(h.delays(s2, 0.5), [4.0])
    s3 = h.DelaySystem.scalar(0.0, (1.0, 1.0, 1.0))
    assert np.allclose(h.delays(s3, 0.1), [10.0, 100.0, 1000.0])
    # eps = 1 collapses the hierarchy to the bare coefficients
    assert np.allclose(h.delays(s3, 1.0), [1.0, 1.0, 1.0])


def test_delay_overflow_names_scale():
    s = h.DelaySystem.scalar(0.0, (1.0, 1.0))
    with pytest.raises(EvaluationRangeError) as exc:
        h.delays(s, 1e-200)
    assert exc.value.scale == 2


def test_char_at_zero_is_det_of_matrix_sum():
    rng = np.random.default_rng(404)
    mats = tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3))
    s = h.DelaySystem(matrices=mats, sigma=(1.0, 0.7))
    want = np.linalg.det(mats[0] + mats[1] + mats[2])
    for eps in (0.9, 0.3):
        f, _ = h.char_function(s, eps)
        assert f(0.0 + 0.0j)[0] == pytest.approx(want, rel=1e-12)


def test_char_root_oracle():
    # -lam + exp(-lam) vanishes at the positive solution of x = exp(-x)
    s = h.DelaySystem.scalar(0.0, (1.0,))
    f, _ = h.char_function(s, 1.0)
    x = scipy.optimize.brentq(
        lambda t: f(complex(t, 0.0))[0].real, 0.1, 1.0, xtol=1e-15)
    assert x == pytest.approx(0.567143290409784, abs=1e-12)
    assert abs(f(0.567143 + 0.0j)[0]) <= 1e-5


def test_absent_delay_term_is_allowed():
    s = h.DelaySystem.scalar(-1.0, (0.0,))
    f, _ = h.char_function(s, 0.5)
    assert f(2.0 + 0.0j)[0] == pytest.approx(-3.0)


def test_real_data_conjugate_symmetry():
    rng = np.random.default_rng(505)
    mats = tuple(rng.standard_normal((2, 2)) for _ in range(3))
    s = h.DelaySystem(matrices=mats, sigma=(1.0, 1.0))
    f, _ = h.char_function(s, 0.5)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
        v1 = f(lam)[0]
        v2 = f(lam.conjugate())[0]
        assert v2 == pytest.approx(v1.conjugate(), rel=1e-12, abs=1e-12)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(606)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        mats = tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for _ in range(n + 1))
        sig = tuple(float(x) for x in rng.uniform(0.5, 1.5, n))
        s = h.DelaySystem(matrices=mats, sigma=sig)
        eps = float(rng.uniform(0.3, 1.0))
        f, fp = h.char_function(s, eps)
        for _ in range(5):
            lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2))
            dv = fp(lam)[0]
            step = 1e-7 * (1 + abs(lam))
            cd = (f(lam + step)[0] - f(lam - step)[0]) / (2 * step)
            assert abs(dv - cd) <= 1e-6 * (1 + abs(dv))


def test_evaluation_guard_names_offending_scale():
    s = h.DelaySystem.scalar(0.0, (1.0, 1.0))
    f, _ = h.char_function(s, 0.01)
    with pytest.raises(EvaluationRangeError) as exc:
        f(complex(-0.08, 0.0))
    assert exc.value.scale == 2
    assert "scale-2" in str(exc.value)
    assert "700" in str(exc.value)
    # 0.06 * 1e4 = 600 stays inside the representable range
    assert np.isfinite(abs(f(complex(-0.06, 0.0))[0]))


def test_evaluation_guard_is_one_sided():
    # exp(-lam tau) only underflows right of the axis, so the handles
    # evaluate there and refuse the mirrored point
    f, _ = h.char_function(h.preset_system("fig2-unstable"), 0.01)
    assert np.isfinite(f(complex(0.5, 1.0))[0])
    with pytest.raises(EvaluationRangeError) as exc:
        f(complex(-0.5, 1.0))
    assert exc.value.scale == 2


@pytest.mark.parametrize("name, count", [
    ("fig2-stable", 0), ("fig2-neutral", 0), ("fig2-unstable", 13),
    ("fig3", 16)])
def test_right_half_plane_roots_counted(name, count):
    # a root with Re lam >= 0 has |lam| <= sum_k ||A_k||_2, so this box
    # holds every unstable root
    s = h.preset_system(name)
    R = sum(np.linalg.norm(M, 2) for M in s.matrices) + 0.1
    f, fp = h.char_function(s, 0.05)
    assert h.count_zeros(f, h.Rectangle(0.0, R, -R, R), fprime=fp) == count


def test_guard_real_extent():
    s = h.DelaySystem.scalar(0.0, (1.0, 1.0))
    h.guard_real_extent(s, 0.01, 0.06)
    with pytest.raises(EvaluationRangeError):
        h.guard_real_extent(s, 0.01, 0.08)


def test_char_function_closures_match_pointwise():
    s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.2))
    f, fp = h.char_function(s, 0.05)
    zs = np.array([0.1 + 0.2j, -0.01 + 1.5j, 0.02 - 0.3j])
    fv, dv = f(zs), fp(zs)
    for z, a, b in zip(zs, fv, dv):
        assert a == pytest.approx(f(complex(z))[0], rel=1e-12)
        assert b == pytest.approx(fp(complex(z))[0], rel=1e-12)
    with pytest.raises(EvaluationRangeError):
        f(np.array([complex(-2.0, 0.0)]))


def _nearest(want, got):
    return np.abs(want[:, None] - got[None, :]).min(axis=1)


def test_axis_seeds_match_lambert_w():
    # lam = a + b exp(-lam tau) has the roots a + W_k(b tau e^{-a tau}) / tau;
    # the fixed-point map contracts by 1 / |W_k| < 1/300 here, so three
    # steps from the axis leave an error below 1e-8
    a, b, eps = -0.3, 0.5, 1e-3
    rect = h.Rectangle(-0.01, 0.01, -1.0, 1.0)
    seeds = h.axis_seeds(h.DelaySystem.scalar(a, (b,)), eps, rect)
    arg = b / eps * np.exp(-a / eps)
    lam = np.array([a + eps * lambertw(arg, k) for k in range(-170, 171)])
    want = lam[np.abs(lam.imag) < 1.0]
    assert np.all(np.abs(want.real) < 0.01) and want.size == 319
    assert seeds.size == want.size
    assert _nearest(want, seeds).max() <= 1e-8


def test_axis_seeds_of_two_scales_are_the_roots():
    # the map is exact for n = 2 as well: Newton-free seeds of fig2-unstable
    # sit on the subdivision roots, one each
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05,))
    (rect,) = h.validation_window(cfg)
    f, fp = h.char_function(cfg.system, 0.05)
    want = np.array([r.location for r in h.find_roots(f, rect, fp)])
    seeds = h.axis_seeds(cfg.system, 0.05, rect)
    assert seeds.size == want.size == 383
    assert _nearest(want, seeds).max() <= 1e-6
    assert _nearest(seeds, want).max() <= 1e-6


def test_axis_seeds_of_a_block_diagonal_system_are_the_union():
    eps, rect = 1e-3, h.Rectangle(-0.01, 0.01, -1.0, 1.0)
    blocks = ((-0.3, 0.5), (-0.2 + 0.1j, 0.8))
    union = np.concatenate([h.axis_seeds(h.DelaySystem.scalar(a, (b,)), eps,
                                         rect) for a, b in blocks])
    both = h.DelaySystem(matrices=(np.diag([a for a, _ in blocks]),
                                   np.diag([b for _, b in blocks])),
                         sigma=(1.0,))
    seeds = h.axis_seeds(both, eps, rect)
    assert seeds.size == union.size > 600
    assert _nearest(union, seeds).max() <= 1e-12
    assert _nearest(seeds, union).max() <= 1e-12


def test_axis_seeds_double_coinciding_and_drop_singular_branches():
    rect = h.Rectangle(-0.05, 0.05, -3.0, 3.0)
    q = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.3))
    # the scalar system itself has seeds, all inside the window
    seeds = h.axis_seeds(s, 0.05, rect)
    assert seeds.size > 300
    assert np.all((np.abs(seeds.real) <= 0.05) & (np.abs(seeds.imag) <= 3.0))

    def seeds_with(top):
        mats = (q @ (s.matrices[0][0, 0] * np.eye(2)) @ q.conj().T,
                0.1 * np.eye(2), top)
        return h.axis_seeds(h.DelaySystem(matrices=mats, sigma=(1.0, 1.0)),
                            0.05, rect)

    # coinciding branches: one double cluster per scalar seed, given twice
    double = seeds_with(q @ (0.3 * np.eye(2)) @ q.conj().T)
    assert double.size == 2 * seeds.size
    assert np.abs(np.sort_complex(double)
                  - np.sort_complex(np.repeat(seeds, 2))).max() <= 1e-12
    for top in (np.array([[0.0, 1.0], [0.0, 0.0]]),  # degree 0 in Y
                np.diag([0.3, 0.0]),                 # degree drops to 1
                np.zeros((2, 2))):
        assert seeds_with(top).size == 0


def test_serialization_round_trip_exact():
    rng = np.random.default_rng(707)
    mats = tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(3))
    s = h.DelaySystem(matrices=mats, sigma=(1.25, 0.3))
    d = h.system_to_dict(s)
    s2 = h.system_from_dict(d)
    assert s2.sigma == s.sigma
    for m1, m2 in zip(s.matrices, s2.matrices):
        assert np.array_equal(m1, m2)
    # a second serialization pass reproduces the dict exactly
    assert json.dumps(h.system_to_dict(s2), sort_keys=True) == \
        json.dumps(d, sort_keys=True)


def test_save_load_file_round_trip(tmp_path):
    s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.2))
    p1, p2 = tmp_path / "sys.json", tmp_path / "sys2.json"
    h.save_system(s, p1)
    s2 = h.load_system(p1)
    h.save_system(s2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(s.matrices[0], s2.matrices[0])


def test_system_from_dict_validates():
    with pytest.raises(ConfigError):
        h.system_from_dict({"d": 1, "n": 1, "sigma": [1.0]})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cached_norms_and_svds_are_each_matrix_s_bit_for_bit(d):
    # the system takes each matrix's spectral norm and SVD once, on first
    # use: the bits of spectral_norm and svd, kept read-only; the plain
    # levels, the omega bound and the ladder read them, and the identity
    # a plain level replaces J with has the norm 1.0 exactly
    rng = np.random.default_rng(90 + d)
    s = h.DelaySystem(tuple(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d))
                            for _ in range(3)), (1.0, 1.7))
    assert "norms" not in vars(s) and "svds" not in vars(s)
    for M, norm, res in zip(s.matrices, s.norms, s.svds, strict=True):
        assert norm == linalg.spectral_norm(M)
        want = linalg.svd(M)
        for got, ref in ((res.U, want.U), (res.s, want.s), (res.Vh, want.Vh)):
            assert got.tobytes() == ref.tobytes() and not got.flags.writeable
    assert s.norms is s.norms and s.svds is s.svds
    assert linalg.spectral_norm(np.eye(d, dtype=complex)) == 1.0
    for k in (1, 2):
        level = _Level.plain(s, k)
        assert level.A is s.svds[k] and level.J_norm == 1.0
        assert level.norm_sum == sum(linalg.spectral_norm(M)
                                     for M in s.matrices[:k])
    assert h.default_omega_bound(s) == (
        linalg.spectral_norm(s.matrices[0])
        + sum(linalg.spectral_norm(M) for M in s.matrices[1:]) + 1.0)


def test_each_svd_is_taken_on_its_first_read_and_a0_s_never(monkeypatch):
    # the system takes a matrix's SVD when it is first read, once: a
    # classification, the manifolds and a validation of a scalar, a d = 2
    # and a d = 3 ladder system read those of the delay matrices alone, so
    # A0's is never taken
    from hierdde import model
    taken = []
    monkeypatch.setattr(model, "svd",
                        lambda M: taken.append(M) or linalg.svd(M))
    rng = np.random.default_rng(7)
    ladder_sys = h.DelaySystem(
        (np.diag([-1.0 + 0.3j, -0.5 + 1.0j, -0.7 - 0.4j]),
         np.array([[0.3, 0.1, 0.0], [0.05, 0.25, 0.0], [0.0, 0.0, 0.0]]),
         np.diag([0.2, 0.0, 0.0])), (1.0, 1.3))
    systems = [h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.4)),
               h.DelaySystem(tuple(0.3 * rng.standard_normal((2, 2))
                                   for _ in range(3)), (1.0, 1.7)),
               ladder_sys]
    grid = h.GridSpec(omega_count=41, phase_count=8)
    for s in systems:
        h.classify(s, h.build_ladder(s), grid)
        for k in range(1, s.n + 1):
            h.manifold_grid(s, k, grid)
        h.run_validate(h.RunConfig(s, (0.1,), h.Rectangle(-0.02, 0.02, -1, 1),
                                   grid=grid), write=False)
        mine = [M for M in taken if any(M is A for A in s.matrices)]
        assert mine and not any(M is s.matrices[0] for M in mine)
        assert len(mine) == len({id(M) for M in mine})
        assert s.svds[2] is s.svds[2] and len(s.svds) == 3
        with pytest.raises(IndexError):
            s.svds[3]
