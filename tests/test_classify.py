"""Per-scale growth-rate suprema and the overall stability verdict."""

import cmath
import importlib.util
import logging
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierdde as h
from hierdde import linalg
from hierdde.classify import (UNBOUNDED_GAMMA, _leak_check, _peaks, _row_max,
                              minimize)
from hierdde.errors import DegenerateSystemError
from hierdde.manifolds import ZERO_ROOT_TOL, PhasePoint, _Level
from hierdde.scalar2 import classify_coefs, sup_gamma_k

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"


def _scalar_two_delay(a, b, c):
    return h.DelaySystem.scalar(a, (b, c))


def test_sup_scale2_threshold_family():
    for c, want in ((0.2, -math.log(1.5)), (0.4, math.log(4.0 / 3.0))):
        s = _scalar_two_delay(-0.4 + 0.5j, 0.1, c)
        est = h.sup_gamma(s, 2)
        assert est.k == 2
        assert est.sup == pytest.approx(want, abs=1e-4)
        assert est.uncertainty >= 0.0


def test_sup_scale1_closed_form_with_nonunit_sigma():
    # the per-scale rate is divided by the scale's delay coefficient
    s = h.DelaySystem.scalar(-0.2 + 0.1j, (0.3, 0.05), sigma=(2.0, 1.0))
    est = h.sup_gamma(s, 1)
    assert est.sup == pytest.approx(math.log(0.3 / 0.2) / 2.0, abs=1e-8)


def test_sup_unbounded_when_first_scale_crosses():
    s = h.preset_system("fig3")
    est = h.sup_gamma(s, 2)
    assert math.isinf(est.sup) and est.sup > 0
    assert est.argmax is not None
    point, branch = est.argmax
    # the blow-up happens where the first-scale rate crosses zero
    assert min(abs(point.omega - 0.2), abs(point.omega - 0.8)) <= 0.1


def test_scale_with_zero_matrix_imposes_no_constraint():
    # A1 = 0 leaves scale 1 without a branch (sup -inf); scale 2 then has
    # the closed form ln(|a2| / (|Re a0| - |a1|)) = ln(0.2 / 0.4)
    s = h.DelaySystem(([[-0.4 + 0.5j]], [[0.0]], [[0.2]]), (1.0, 1.0))
    v = h.classify(s, h.build_ladder(s))
    assert v.status == "Stable" and v.scale is None
    one, two = v.sup_gammas
    assert (one.sup, one.argmax, one.uncertainty) == (-math.inf, None, 0.0)
    assert two.sup == pytest.approx(-math.log(2.0), abs=1e-6)


def test_trivial_scale_below_the_top_is_skipped():
    # A0 = diag(-i, i, -1), A1 = diag(0, 0, 1): at omega = -1 and 1, the
    # only lattice frequencies, the scale-1 polynomial vanishes for every Y
    s = h.DelaySystem((np.diag([-1j, 1j, -1.0]), np.diag([0.0, 0.0, 1.0]),
                       0.1 * np.eye(3)), (1.0, 1.0))
    grid = h.GridSpec(omega_count=2, phase_count=4, omega_range=(-1.0, 1.0))
    v = h.classify(s, h.build_ladder(s), grid)
    assert (v.status, v.scale) == ("WeaklyUnstable", 2)
    assert v.notes == ("scale-1 polynomial trivial, scale skipped",)
    assert [e.k for e in v.sup_gammas] == [2]


def test_sup_unbounded_at_exact_zero_root_on_the_lattice():
    # -i omega + 0.5i + 0.3 Y = 0 has the root Y = 0 at omega = 0.5, a
    # lattice point of five omegas over [-1, 1]
    s = h.DelaySystem.scalar(0.5j, (0.3, 0.1))
    est = h.sup_gamma(s, 1, h.GridSpec(5, 4, (-1.0, 1.0)))
    assert est.sup == math.inf and est.uncertainty == 0.0
    assert est.argmax == (PhasePoint(omega=0.5, phi=()), 0)


def test_coordinates_are_decoded_by_lattice_index(monkeypatch):
    # d = 2 with A_k = diag(1, 0): the polynomial is (B[0, 0] + Y) B[1, 1],
    # identically zero where B[1, 1] vanishes.  Scale 1 on five omegas
    # over [-1, 1]: omega 0 is skipped and the zero root at omega 0.5
    # comes after it, so its table row is one less than its lattice index
    s = h.DelaySystem(matrices=(np.diag([0.5j, 0]), np.diag([1, 0])),
                      sigma=(1,))
    grid = h.GridSpec(5, omega_range=(-1, 1))
    assert h.manifold_grid(s, 1, grid).rows.tolist() == [0, 1, 3, 4]
    est = h.sup_gamma(s, 1, grid)
    assert est.sup == math.inf
    assert est.argmax == (PhasePoint(omega=0.5, phi=()), 0)
    # scale 2: B[1, 1] = -i omega + 0.5 - 0.5 exp(-i phi) vanishes at
    # (0, 0) alone, and |B[0, 0]| = |-i omega - 0.4 + 0.5i + 0.1 exp(-i
    # phi)| has its one lattice peak at (0.5, 0), later in the lattice:
    # the polish starts there, and reaches ln(1 / 0.3)
    s = h.DelaySystem(matrices=(np.diag([-0.4 + 0.5j, 0.5]),
                                np.diag([0.1, -0.5]), np.diag([1, 0])),
                      sigma=(1, 1))
    grid = h.GridSpec(5, 4, (-1, 1))
    table = h.manifold_grid(s, 2, grid)
    assert 8 not in table.rows and table.rows.size == 19
    _, x0, _ = _captured_refinement(s, 2, monkeypatch, grid)
    assert x0.tolist() == [[0.5, 0.0]]
    est = h.sup_gamma(s, 2, grid)
    assert est.sup == pytest.approx(-math.log(0.3), abs=1e-12)
    assert est.argmax[0].omega == pytest.approx(0.5, abs=1e-9)


def test_classify_matches_scalar_shortcut_on_presets():
    for name in h.PRESET_NAMES:
        s = h.preset_system(name)
        general = h.classify(s, h.build_ladder(s))
        scalar = h.classify_scalar(h.preset_params(name))
        assert general.status == scalar.status, name
        assert general.scale == scalar.scale, name


def test_classify_strongly_unstable_fast_path():
    s = _scalar_two_delay(0.3, 0.1, 0.1)
    v = h.classify(s, h.build_ladder(s))
    assert v.status == "StronglyUnstable"
    assert v.witness == pytest.approx(0.3)
    assert v.scale is None
    assert len(v.sup_gammas) == 0


def test_classify_stops_at_first_unstable_scale():
    s = h.preset_system("fig3")
    v = h.classify(s, h.build_ladder(s))
    assert v.status == "WeaklyUnstable" and v.scale == 1
    assert [e.k for e in v.sup_gammas] == [1]
    assert v.sup_gammas[0].sup == pytest.approx(math.log(0.5 / 0.4), abs=1e-6)


def test_stable_verdict_reports_all_scales():
    s = h.preset_system("fig2-stable")
    v = h.classify(s, h.build_ladder(s))
    assert v.status == "Stable"
    assert [e.k for e in v.sup_gammas] == [1, 2]
    assert all(e.sup < 0 for e in v.sup_gammas)


def test_verdict_monotone_in_last_coefficient():
    for c in np.linspace(0.2, 0.4, 21):
        if abs(c - 0.3) < 0.02:
            continue  # skip the marginal band around the threshold
        s = _scalar_two_delay(-0.4 + 0.5j, 0.1, float(c))
        v = h.classify(s, h.build_ladder(s))
        if c < 0.3:
            assert v.status == "Stable", c
        else:
            assert v.status == "WeaklyUnstable" and v.scale == 2, c


def test_unitary_similarity_invariance():
    rng = np.random.default_rng(2323)
    A0 = np.array([[-0.5 + 0.4j, 0.2], [0.1, -0.7 - 0.2j]], dtype=complex)
    A1 = np.array([[0.15, 0.05], [0.0, 0.1]], dtype=complex)
    A2 = np.array([[0.1, 0.0], [0.02, 0.08]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, A1, A2), sigma=(1.0, 1.0))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    mats_t = tuple(q.conj().T @ m @ q for m in (A0, A1, A2))
    s_t = h.DelaySystem(matrices=mats_t, sigma=(1.0, 1.0))
    v1 = h.classify(s, h.build_ladder(s))
    v2 = h.classify(s_t, h.build_ladder(s_t))
    assert v1.status == v2.status
    assert v1.scale == v2.scale
    for e1, e2 in zip(v1.sup_gammas, v2.sup_gammas):
        assert e1.sup == pytest.approx(e2.sup, abs=1e-6)


def test_classify_refuses_degenerate_system():
    A0 = np.array([[-1.2, 0.7], [0.0, 0.5]], dtype=complex)
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    s = h.DelaySystem(matrices=(A0, A1), sigma=(1.0,))
    with pytest.raises(DegenerateSystemError):
        h.classify(s, h.build_ladder(s))


# --- the stencil-Newton polish ----------------------------------------------

def _captured_refinement(sys_, k, monkeypatch, grid=h.GridSpec()):
    """The objective, seeds and lattice spacings that ``sup_gamma`` hands
    to ``minimize``."""
    seen = []

    def record(fun, x0, spacings):
        seen.append((fun, np.array(x0), np.array(spacings)))
        return minimize(fun, x0, spacings)

    with monkeypatch.context() as m:
        m.setattr(sys.modules["hierdde.classify"], "minimize", record)
        h.sup_gamma(sys_, k, grid)
    (got,) = seen
    return got


@pytest.mark.parametrize("N", [1, 2, 3])
def test_polish_takes_the_newton_step_of_a_quadratic(N):
    # central differences are exact on a quadratic: the first round's
    # step lands on the minimum, inside the half-spacing box, and the
    # rest only shrink the stencil around it
    rng = np.random.default_rng(N)
    M = rng.normal(size=(N, N))
    A, xmin = M @ M.T + np.eye(N), rng.uniform(-0.3, 0.3, N)
    spacings = np.geomspace(1.0, 0.1, N)

    def quad(X):
        D = X - xmin
        return 2.0 + np.einsum("mi,ij,mj->m", D, A, D)

    x0 = xmin + rng.uniform(-0.1, 0.1, (4, N)) * spacings
    res = minimize(quad, x0, spacings)
    assert res.capped == 0 and res.x.shape == (4, N)
    assert np.abs(res.x - xmin).max() < 1e-12
    assert np.all(res.fun == quad(res.x))
    # eight shrinks by 8 take the half-widths from 1/2 to 3e-8 spacings,
    # one a round, where the stencil's rise w A w (|A| up to 14 here) lies
    # within _FLAT ulps of 2 and the seed stops; a stiffer A takes a round
    # more
    assert 9 <= res.nfev / (4 * 3 ** N) <= 10


def test_polish_falls_back_to_pattern_moves_at_a_kink():
    # a kink at the minimum, where no Hessian is positive definite, and a
    # minimum three spacings from the seed: pattern moves reach both
    def kink(X):
        return np.abs(X[:, 0] - 0.31) + 2.0 * np.abs(X[:, 1] + 0.17)

    res = minimize(kink, np.zeros((1, 2)), np.array([0.1, 0.05]))
    assert res.capped == 0
    assert np.abs(res.x[0] - [0.31, -0.17]).max() < 1e-9
    assert res.fun[0] == kink(res.x)[0] < 1e-9


def test_polish_stops_a_seed_on_a_value_that_is_not_finite():
    # the centre's value is inf or nan: the seed stops at once, keeping
    # its seed point; the finite seed beside it goes on
    def holes(X):
        return np.where(X[:, 0] > 5.0, np.where(X[:, 0] > 8.0, math.nan,
                                                 math.inf), X[:, 0] ** 2)

    res = minimize(holes, np.array([[6.0], [9.0], [0.3]]), np.array([0.1]))
    assert np.array_equal(res.x[:2], [[6.0], [9.0]])
    assert res.fun[0] == math.inf and res.fun[1] == math.inf
    assert abs(res.x[2, 0]) < 1e-12 and res.capped == 0


def test_capped_seeds_are_logged_at_debug(monkeypatch, caplog):
    sys_ = _classify_random_systems(1)[0]
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        h.sup_gamma(sys_, 2)
    assert not [r for r in caplog.records if "round cap" in r.getMessage()]
    monkeypatch.setattr(sys.modules["hierdde.classify"], "_ROUNDS", 2)
    fun, x0, spacings = _captured_refinement(sys_, 2, monkeypatch)
    assert minimize(fun, x0, spacings).capped == len(x0)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        h.sup_gamma(sys_, 2)
    (rec,) = [r for r in caplog.records if "round cap" in r.getMessage()]
    assert rec.name == "hierdde" and rec.levelno == logging.DEBUG
    # one seed per lattice peak, this lattice's five best of them
    assert len(x0) == 5
    assert (f"{len(x0)} of {len(x0)} seeds stopped on the round cap of 2"
            in rec.getMessage())


def test_a_constant_objective_stops_every_seed_in_round_1():
    # every stencil is flat: each seed stops after one round, at its seed
    x0 = np.array([[0.1, 0.2], [0.5, -0.3], [2.0, 0.0]])
    res = minimize(lambda X: np.full(len(X), 3.0), x0, np.array([0.1, 0.2]))
    assert res.nfev == 3 * 9 and res.capped == 0
    assert np.array_equal(res.x, x0) and np.all(res.fun == 3.0)


def test_two_peaks_are_both_polished_and_the_higher_wins(monkeypatch):
    # d = 2, two scalar blocks: a broad peak of gamma_1 at omega 0.5 and a
    # narrow, higher one at omega -1.005, midway between lattice cells,
    # where the lattice reads it far below the broad peak's best 48
    # cells.  Both peaks seed the polish, best lattice cell first, and the
    # supremum is the narrow peak's ln(0.0121 / 0.01)
    s = h.DelaySystem((np.diag([-0.5 + 0.5j, -0.01 - 1.005j]),
                       np.diag([0.6, 0.0121]).astype(complex)), (1.0,))
    grid = h.GridSpec(401, 64, (-2.0, 2.0))
    _, x0, _ = _captured_refinement(s, 1, monkeypatch, grid)
    assert x0[:, 0].tolist() == pytest.approx([0.5, -1.0], abs=1e-12)
    est = h.sup_gamma(s, 1, grid)
    assert est.sup == pytest.approx(math.log(0.0121 / 0.01), abs=1e-12)
    assert est.argmax[0].omega == pytest.approx(-1.005, abs=1e-9)


@pytest.mark.parametrize("ndim", [2, 3])
def test_peaks_on_the_omega_edge_and_across_the_phase_wrap_are_seeded(ndim):
    # v = f(omega) + g(phi_1) (+ g(phi_2)): f peaks at its first cell and,
    # higher, its last, which would hide the first if the omega axis
    # wrapped; g peaks only at its last cell, whose neighbour across the
    # wrap (the first cell) is lower, and the first cell, lower than its
    # neighbour across the wrap, is no peak
    f = np.array([-1.0, -2.0, -3.0, -4.0, -3.5, -0.5])
    g = np.array([-1.0, -2.0, -3.0, -2.0, 0.0])
    v = f.reshape(-1, *[1] * (ndim - 1))
    for j in range(1, ndim):
        v = v + g.reshape([1] * j + [-1] + [1] * (ndim - 1 - j))
    got = [np.unravel_index(i, v.shape) for i in _peaks(v)]
    assert got == [(5,) + (4,) * (ndim - 1), (0,) + (4,) * (ndim - 1)]
    # a lattice without a finite cell has no peak; at most _SEED_COUNT
    # peaks are taken, best first, the first cell on a tie
    assert _peaks(np.full((4, 3), -math.inf)).size == 0
    ties = np.zeros((7, 2))
    ties[1::2] = -1.0
    assert _peaks(ties).tolist() == [0, 1, 4, 5, 8]


def _argmax_row_max(gammas):
    """``_row_max`` as a reduction over the row axis: the reference."""
    safe = np.where(np.isnan(gammas), -math.inf, gammas)
    branch = np.argmax(safe, axis=1)
    val = safe[np.arange(gammas.shape[0]), branch]
    return val, np.where(val == -math.inf, -1, branch)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_row_max_column_loop_is_the_argmax_rule(width):
    rng = np.random.default_rng(width)
    gammas = rng.choice([0.5, -0.25, 0.0, -0.0, math.inf, -math.inf,
                         math.nan, 1.25], size=(2000, width))
    val, branch = _row_max(gammas)
    want_val, want_branch = _argmax_row_max(gammas)
    assert np.array_equal(branch, want_branch)
    assert np.array_equal(val, want_val)
    assert np.array_equal(np.signbit(val), np.signbit(want_val))


def test_row_max_takes_first_zero_root_else_first_largest_finite_gamma():
    rng = np.random.default_rng(606)
    gammas = rng.choice([0.5, -0.25, 0.0, -0.0, math.inf, -math.inf, math.nan],
                        size=(400, 3))
    neff = rng.integers(-1, 4, 400)
    # _Level.gammas marks the slots past each row's root count with nan
    gammas[np.arange(3) >= neff[:, None]] = math.nan
    val, branch = _row_max(gammas)
    for g, n, v, b in zip(gammas, neff, val, branch):
        row = list(g[:max(n, 0)])
        if math.inf in row:
            want = math.inf, row.index(math.inf)
        else:
            finite = [x for x in row if math.isfinite(x)]
            want = (max(finite), row.index(max(finite))) if finite \
                else (-math.inf, -1)
        assert (v, b) == want
        assert math.copysign(1.0, v) == math.copysign(1.0, want[0])


# --- classify-random systems, every root from a companion eigensolve --------

def _classify_random_systems(seed):
    """The benchmark's classify-random systems of one seed."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    params = workloads.draw_scalar_params(np.random.default_rng(seed), h)
    return [h.DelaySystem.scalar(p.a, (p.b, p.c)) for p in params]


def _companion_roots(rows, *pencil):
    """``poly_roots_batch`` with the roots of linear rows taken from their
    1x1 companion matrices by LAPACK."""
    roots, neff = linalg.poly_roots_batch(rows, *pencil)
    one = np.nonzero(neff == 1)[0]
    c = rows[one]
    roots[one, 0] = np.linalg.eigvals((-c[:, 0] / c[:, 1])[:, None, None])[:, 0]
    return roots, neff


def test_classify_random_verdicts_bit_equal_with_companion_roots(monkeypatch):
    # the closed-form degree-1 root moves no supremum, argmax or
    # uncertainty by one bit
    systems = _classify_random_systems(1)
    assert len(systems) == 100
    fast = [h.classify(s, h.build_ladder(s)) for s in systems]
    monkeypatch.setattr(sys.modules["hierdde.manifolds"], "poly_roots_batch",
                        _companion_roots)
    ref = [h.classify(s, h.build_ladder(s)) for s in systems]
    assert fast == ref


def _assert_closed_form(est, coefs, tol=1e-12):
    """A finite supremum is scalar2's -ln(g_k / |a_k|) to ``tol``, taken
    at omega = Im a0 and phi_j = Arg a_j (mod 2 pi) to 1e-6."""
    assert est.sup == pytest.approx(sup_gamma_k(coefs, est.k), abs=tol)
    point, branch = est.argmax
    assert branch == 0 and abs(point.omega - coefs[0].imag) <= 1e-6
    for phi, a in zip(point.phi, coefs[1:est.k], strict=True):
        assert 0.0 <= phi < 2 * math.pi
        off = (phi - cmath.phase(a)) % (2 * math.pi)
        assert min(off, 2 * math.pi - off) <= 1e-6, (phi, a)


@pytest.mark.parametrize("seed", [1, 21])
def test_classify_random_suprema_are_the_closed_forms(seed):
    checked = 0
    for s in _classify_random_systems(seed):
        coefs = tuple(complex(M[0, 0]) for M in s.matrices)
        for est in h.classify(s, h.build_ladder(s)).sup_gammas:
            if math.isfinite(est.sup):
                _assert_closed_form(est, coefs)
                checked += 1
    assert checked >= 50


def test_n3_scalar_suprema_are_the_closed_forms():
    # three delay scales: the scale-3 polish works on a 27-point stencil
    coefs = (-0.4 + 0.5j, 0.1 * cmath.exp(0.7j), 0.15 * cmath.exp(-2j),
             0.4 * cmath.exp(1.1j))
    s = h.DelaySystem.scalar(coefs[0], coefs[1:])
    got = h.classify(s, h.build_ladder(s), h.GridSpec(101, 16))
    want = classify_coefs(coefs)
    assert (got.status, got.scale) == (want.status, want.scale)
    assert got.scale == 3
    assert [e.k for e in got.sup_gammas] == [1, 2, 3]
    for est in got.sup_gammas:
        _assert_closed_form(est, coefs)


def test_double_root_system_gives_its_scalar_blocks_verdict():
    # A_k = a_k I: both branches of the d = 2 pencil are the scalar
    # branch bit for bit, so the verdict is the scalar block's, to every
    # supremum, argmax and uncertainty
    scalar = h.preset_system("fig2-unstable")
    double = h.DelaySystem(tuple(M[0, 0] * np.eye(2, dtype=complex)
                                 for M in scalar.matrices), scalar.sigma)
    want = h.classify(scalar, h.build_ladder(scalar))
    got = h.classify(double, h.build_ladder(double))
    assert (want.status, want.scale) == ("WeaklyUnstable", 2)
    assert repr(got) == repr(want)


# --- the guarded height chain against its masked expressions ---------------

def _radii(level, omegas):
    """The zero-root test's radii, 1 + |B| bound over smin, written out."""
    return 1.0 + (np.abs(omegas) * level.J_norm + level.norm_sum) / level.smin


def _masked_chain(level, omegas, roots):
    """Heights and polished values of ``roots`` as every row's masks give
    them, the expressions of ``_Level.gammas`` and the sup objective before
    their guards, the latter as ``exp(2 sigma_k objective)``: the
    reference."""
    absY = np.abs(roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = -np.log(absY) / level.sigma_k
    gammas = np.where(absY <= ZERO_ROOT_TOL * _radii(level, omegas)[:, None],
                      math.inf, gammas)
    val, _ = _row_max(gammas)
    obj = np.where(val == math.inf, -10.0 * UNBOUNDED_GAMMA / level.sigma_k,
                   np.where(np.isfinite(val), -val, 1e6))
    with np.errstate(over="ignore"):
        return gammas, np.exp(2.0 * level.sigma_k * obj)


_CHAIN_CASES = ("d1-k1", "d1-k2", "d1-k3", "d2-rank1", "d2-full", "d3")


def _chain_system(case):
    """(system, k) of a case: d = 1 at scales 1-3, d = 2 with a rank-1 and
    a full-rank top matrix, and d = 3."""
    if case.startswith("d1"):
        return h.DelaySystem.scalar(-0.4 + 0.5j, (0.1 - 0.2j, 0.15,
                                                  0.4 + 0.1j),
                                    sigma=(1.0, 1.3, 0.7)), int(case[-1])
    rng = np.random.default_rng(3030)
    u, v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    top = {"d2-rank1": 0.4 * np.outer(u, v),
           "d2-full": 0.4 * (np.outer(u, v) + np.eye(2)),
           "d3": 0.3 * np.eye(3) + 0.1j * np.ones((3, 3))}[case]
    d = top.shape[0]
    low = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    return h.DelaySystem((low[0] - 2.0 * np.eye(d), 0.3 * low[1], top),
                         (1.0, 1.3)), 2


def _crafted_rows(level, omega):
    """Named (omega, roots, neff) rows at ``omega``: finite heights (also
    at a lower omega, so a smaller radius), an exact zero root, the
    smallest |Y| on the zero-root bound and one ulp either side of it, a
    lost degree, an identically zero row, nan input and |Y| = inf."""
    dk = level.dk
    bound = ZERO_ROOT_TOL * _radii(level, np.array([omega]))[0]
    others = [0.8 - 0.3j, -1.2 + 0.5j, 2.0][:dk - 1]
    nan = complex(math.nan, math.nan)
    rows = {"finite": (omega, [0.6 + 0.2j] + others, dk),
            "low omega": (omega / 9.0, [0.6 + 0.2j] + others, dk),
            "zero root": (omega, [0j] + others, dk),
            "on the bound": (omega, [complex(bound)] + others, dk),
            "ulp above": (omega, [complex(np.nextafter(bound, 1.0))] + others,
                          dk),
            "ulp below": (omega, [complex(np.nextafter(bound, 0.0))] + others,
                          dk),
            "lost degree": (omega, ([0.6 + 0.2j] + others)[:dk - 1] + [nan],
                            dk - 1),
            "identically zero": (omega, [nan] * dk, -1),
            "nan input": (math.nan, [nan] * dk, -1),
            "infinite": (omega, [complex(math.inf)] + others, dk)}
    assert np.abs(complex(bound)) == bound
    return rows


@pytest.mark.parametrize("case", _CHAIN_CASES)
def test_guarded_heights_and_objective_are_the_masked_chain(case,
                                                            monkeypatch):
    # _Level.gammas and the sup objective skip the zero-root and plateau
    # masks when one bound shows they would change nothing; every row kind,
    # alone, with the rows that pass the bound and in one batch (empty
    # included), gives the masked chain's bits and dtypes
    sys_, k = _chain_system(case)
    level = _Level.plain(sys_, k)
    assert level.dk == {"d2-full": 2, "d3": 3}.get(case, 1)
    fun, _, _ = _captured_refinement(sys_, k, monkeypatch, h.GridSpec(21, 6))
    rng = np.random.default_rng(k)

    def check(omegas, phis, roots, neff):
        # the level's root solve hands back the given roots
        monkeypatch.setattr(_Level, "roots",
                            lambda self, coords: (roots.copy(), neff.copy()))
        got = level.gammas([omegas, *phis.T])
        obj = fun(np.column_stack([omegas, phis]))
        want, want_obj = _masked_chain(level, omegas, roots)
        for a, b in ((got[0], roots), (got[1], want), (got[2], neff),
                     (obj, want_obj)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    rows = _crafted_rows(level, 0.9)
    names = list(rows)
    omegas = np.array([rows[n][0] for n in names])
    roots = np.array([rows[n][1] for n in names], np.complex128)
    neff = np.array([rows[n][2] for n in names], np.int64)
    phis = rng.uniform(0.0, 2.0 * np.pi, (len(names), k - 1))
    for i in range(len(names)):
        check(omegas[i:i + 1], phis[i:i + 1], roots[i:i + 1], neff[i:i + 1])
    # the bound takes the batch's largest radius: the rows past it pass
    # together, the row on it does not pass beside a row of lower omega
    for batch in (("finite", "low omega", "ulp above", "infinite"),
                  ("low omega", "on the bound")):
        sel = [names.index(n) for n in batch]
        check(omegas[sel], phis[sel], roots[sel], neff[sel])
    check(omegas, phis, roots, neff)
    check(omegas[:0], phis[:0], roots[:0], neff[:0])

    # and the real solver at random points (its guard on linear rows has
    # its own test in test_linalg.py)
    monkeypatch.undo()
    omegas = rng.uniform(-3.0, 3.0, 40)
    phis = rng.uniform(0.0, 2.0 * np.pi, (40, k - 1))
    roots, neff = level.roots([omegas, *phis.T])
    got = level.gammas([omegas, *phis.T])
    want, want_obj = _masked_chain(level, omegas, roots)
    for a, b in zip(got + (fun(np.column_stack([omegas, phis])),),
                    (roots, want, neff, want_obj)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_zero_and_infinite_roots_emit_no_runtime_warning(monkeypatch):
    # the guards take log(0) and the plateau masks only on the masked
    # path, under its np.errstate: nothing warns on a lattice with an
    # exact zero root (-i omega + 0.5i + 0.3 Y = 0 at omega = 0.5) ...
    s = h.DelaySystem.scalar(0.5j, (0.3, 0.1))
    grid = h.GridSpec(5, 4, (-1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert h.sup_gamma(s, 1, grid).sup == math.inf
        assert any(b.gamma == math.inf for b in h.manifold_grid(s, 1, grid))
        assert h.classify(s, h.build_ladder(s), grid).scale == 1
    # ... nor with |Y| = inf.  The solver keeps the roots of finite rows
    # finite, so its module binding hands back an infinite root at every
    # third row that has one
    real = linalg.poly_roots_batch

    def infinite(*args):
        roots, neff = real(*args)
        roots[(neff > 0) & (np.arange(neff.size) % 3 == 0), 0] = math.inf
        return roots, neff

    monkeypatch.setattr(sys.modules["hierdde.manifolds"], "poly_roots_batch",
                        infinite)
    s = _classify_random_systems(1)[0]
    grid = h.GridSpec(41, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(h.sup_gamma(s, 2, grid).sup)
        table = h.manifold_grid(s, 2, grid)
        assert (table.gammas == -math.inf).sum() == (len(table) + 2) // 3
        h.classify(s, h.build_ladder(s), grid)


# --- suprema against the closed forms ----------------------------------------

def _polar(mag, arg):
    return mag * complex(math.cos(arg), math.sin(arg))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(re_a=st.floats(-0.8, -0.1), im_a=st.floats(-0.5, 0.5),
       b=st.floats(0.05, 0.9), b_arg=st.floats(0.0, 2 * math.pi),
       c=st.floats(0.05, 0.9), c_arg=st.floats(0.0, 2 * math.pi),
       sigma1=st.floats(0.5, 2.0), sigma2=st.floats(0.5, 2.0))
def test_sup_gamma_matches_closed_forms(re_a, im_a, b, b_arg, c, c_arg,
                                        sigma1, sigma2):
    p = h.ScalarParams(a=complex(re_a, im_a), b=_polar(b, b_arg),
                       c=_polar(c, c_arg))
    s = h.DelaySystem.scalar(p.a, (p.b, p.c), sigma=(sigma1, sigma2))
    est1 = h.sup_gamma(s, 1)
    assert est1.sup == pytest.approx(math.log(b / -re_a) / sigma1, abs=1e-8)
    if -re_a - b > 0.02:  # finite scale-2 supremum, away from the blow-up
        est2 = h.sup_gamma(s, 2)
        assert est2.sup == pytest.approx(h.sup_gamma2(p) / sigma2, abs=1e-4)


# --- omega-window leak check -------------------------------------------------

def _leak_case(omega_range=None):
    s = _scalar_two_delay(-0.4 + 0.5j, 0.1, 0.2)
    grid = h.GridSpec(omega_range=omega_range)
    om = grid.axes(s, 1)[0]
    return s, grid, float(om[0]), float(om[-1])


def _run_leak_check(s, grid, omega):
    _leak_check(s, grid, _Level.plain(s, 1), grid.axes(s, 1)[0],
                PhasePoint(omega=omega), -0.5)


def test_leak_check_logs_argmax_at_window_edge(caplog):
    s, grid, lo, hi = _leak_case()
    with caplog.at_level(logging.WARNING, logger="hierdde"):
        _run_leak_check(s, grid, hi - 0.04 * (hi - lo))
    (rec,) = caplog.records
    assert rec.name == "hierdde" and rec.levelno == logging.WARNING
    assert "omega window edge" in rec.getMessage()


def test_leak_check_silent_for_interior_argmax(caplog):
    s, grid, lo, hi = _leak_case()
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        _run_leak_check(s, grid, 0.5 * (lo + hi))
    assert caplog.records == []


def test_leak_check_silent_for_explicit_omega_range(caplog):
    s, grid, lo, hi = _leak_case(omega_range=(-2.0, 2.0))
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        _run_leak_check(s, grid, hi)
    assert caplog.records == []
