"""Per-scale growth-rate suprema and the overall stability verdict."""

import importlib.util
import itertools
import logging
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

import hierdde as h
from hierdde import linalg
from hierdde.classify import (_NM_OPTIONS, UNBOUNDED_GAMMA, _leak_check,
                              _row_max, _sort, minimize)
from hierdde.errors import DegenerateSystemError
from hierdde.manifolds import ZERO_ROOT_TOL, PhasePoint, _Level

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


# --- lockstep Nelder-Mead against scipy -------------------------------------

def _rows(X):
    """Objective built from elementwise arithmetic only, so a row's value
    does not depend on the rows evaluated with it; the kink and the steps
    make contractions fail and the simplex shrink."""
    x, y = X[:, 0], X[:, 1:]
    v = (1.0 - x) ** 2 + 3.0 * np.abs(x - 0.3) + 0.25 * np.floor(8.0 * x)
    for j in range(y.shape[1]):
        v = v + 100.0 * (y[:, j] - x ** 2) ** 2 + 0.25 * np.floor(4.0 * y[:, j])
    return v


def _scipy_nm(sim):
    """scipy's Nelder-Mead from one simplex, and whether it ever shrank
    (a shrink is the only step costing more than two evaluations)."""
    evals, per_step = [0], []

    def f(x):
        evals[0] += 1
        return _rows(x[None])[0]

    res = scipy_minimize(f, sim[0], method="Nelder-Mead",
                         callback=lambda xk: per_step.append(evals[0]),
                         options=dict(_NM_OPTIONS, initial_simplex=sim))
    steps = np.diff([sim.shape[0]] + per_step)
    return res, bool(np.any(steps > 2))


def _simplices(N, count=6):
    rng = np.random.default_rng(N)
    scale = np.geomspace(0.01, 2.0, count)[:, None, None]
    return rng.normal(size=(count, N + 1, N)) * scale


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("maxiter", [None, 7])
def test_lockstep_minimize_is_scipy_nelder_mead(N, maxiter, monkeypatch):
    if maxiter is not None:
        monkeypatch.setitem(_NM_OPTIONS, "maxiter", maxiter)
    sims = _simplices(N)
    res = minimize(_rows, sims)
    refs = [_scipy_nm(sim) for sim in sims]
    for i, (ref, _) in enumerate(refs):
        assert np.array_equal(res.x[i], ref.x)
        assert res.fun[i] == ref.fun
        assert minimize(_rows, sims[i:i + 1]).nfev == ref.nfev
    assert res.nfev == sum(ref.nfev for ref, _ in refs)
    if maxiter is None:
        # seeds leave the lockstep at different steps, and some shrink
        assert len({ref.nit for ref, _ in refs}) > 1
        assert any(shrunk for _, shrunk in refs)
    else:
        assert all(ref.nit == maxiter for ref, _ in refs)


def test_lockstep_minimize_stops_mid_step_at_maxfev_like_scipy(monkeypatch):
    # every position of the evaluation budget's end within a step: after
    # the reflection, inside a shrink, and on a step boundary
    sims = _simplices(3)
    for maxfev in range(2, 30):
        monkeypatch.setitem(_NM_OPTIONS, "maxfev", maxfev)
        res = minimize(_rows, sims)
        refs = [_scipy_nm(sim)[0] for sim in sims]
        assert res.nfev == sum(ref.nfev for ref in refs), maxfev
        for i, ref in enumerate(refs):
            assert np.array_equal(res.x[i], ref.x), maxfev
            assert res.fun[i] == ref.fun, maxfev


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_simplex_sort_orders_as_numpy_argsort(size):
    # random arrangements of values with ties, signed zeros, infinities
    # and nan: np.argsort puts nan last, and its order among equal values
    # is whatever the machine's sort kernel gives, which _sort reproduces
    values = [0.0, -0.0, 1.0, -2.0, 1e6, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(size)
    for f in rng.choice(values, size=(3000, size)).tolist():
        sim = [[float(i)] for i in range(size)]
        got = list(f)
        _sort(sim, got)
        order = np.argsort(f).tolist()
        assert [v[0] for v in sim] == order, f
        assert np.array_equal(got, np.asarray(f)[order], equal_nan=True)
    # after a step only the last value has moved: strictly ascending heads,
    # and a last value in every gap and beyond either end, tied with each
    # head value, nan, +-inf and +-0.0
    points = [-math.inf, -2.0, 0.0, 1.0, 1e6, math.inf]
    gaps = [-5.0, -1.0, 0.5, 2.0, 2e6]
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    for head in itertools.combinations(points, size - 1):
        for last in head + tuple(gaps + specials):
            f = [*head, last]
            sim = [[float(i)] for i in range(size)]
            got = list(f)
            _sort(sim, got)
            order = np.argsort(f).tolist()
            assert [v[0] for v in sim] == order, f
            assert np.array_equal(got, np.asarray(f)[order], equal_nan=True)


def _captured_refinement(sys_, k, monkeypatch, grid=h.GridSpec()):
    """The objective and the stacked simplices that ``sup_gamma`` hands to
    ``minimize``."""
    seen = []

    def record(fun, simplices):
        seen.append((fun, np.array(simplices)))
        return minimize(fun, simplices)

    with monkeypatch.context() as m:
        m.setattr(sys.modules["hierdde.classify"], "minimize", record)
        h.sup_gamma(sys_, k, grid)
    (got,) = seen
    return got


@pytest.mark.parametrize("k", [1, 2])
def test_minimize_is_scipy_on_the_sup_objective(k, monkeypatch):
    # the lattice_sup objective of a classify-random system, seeded from
    # its lattice, plus a simplex far out on the 1e6 plateau (every value
    # ties); then the same with nan at some points.  A d = 1 row's bits do
    # not depend on the rows evaluated with it, so the lockstep search on
    # the batched objective is scipy's one-point search bit for bit.  That
    # invariance was checked with numpy 2.4.6 on x86-64 with AVX-512; other
    # SIMD loops may round a lone row differently
    dispatch = f"numpy {np.__version__}"
    monkeypatch.setitem(_NM_OPTIONS, "maxfev", 800)
    sys_ = _classify_random_systems(1)[0]
    fun, sims = _captured_refinement(sys_, k, monkeypatch)
    assert sims.shape == (5, k + 1, k)
    sims = np.concatenate([sims, (1e12 + sims[0] - sims[0, 0])[None]])

    def holes(X):
        return np.where(np.floor(40.0 * X[:, 0]) % 3 == 0, math.nan, fun(X))

    for f in (fun, holes):
        res = minimize(f, sims)
        refs = [scipy_minimize(lambda x: f(x[None])[0], sim[0],
                               method="Nelder-Mead",
                               options=dict(_NM_OPTIONS, initial_simplex=sim))
                for sim in sims]
        for i, ref in enumerate(refs):
            assert np.array_equal(res.x[i], ref.x), (f.__name__, i, dispatch)
            assert np.array_equal(res.fun[i], ref.fun, equal_nan=True), (
                f.__name__, i, dispatch)
        assert res.nfev == sum(ref.nfev for ref in refs)
        assert res.capped == sum(ref.status != 0 for ref in refs)
        assert res.fun[-1] == 1e6
    # the nan case really leaves nan in a final simplex
    assert any(np.isnan(ref.final_simplex[1]).any() for ref in refs)


def test_capped_seeds_are_logged_at_debug(monkeypatch, caplog):
    sys_ = _classify_random_systems(1)[0]
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        h.sup_gamma(sys_, 2)
    assert not [r for r in caplog.records if "Nelder-Mead" in r.getMessage()]
    monkeypatch.setitem(_NM_OPTIONS, "maxiter", 7)
    fun, sims = _captured_refinement(sys_, 2, monkeypatch)
    assert minimize(fun, sims).capped == len(sims)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        h.sup_gamma(sys_, 2)
    (rec,) = [r for r in caplog.records if "Nelder-Mead" in r.getMessage()]
    assert rec.name == "hierdde" and rec.levelno == logging.DEBUG
    assert "5 of 5 Nelder-Mead seeds" in rec.getMessage()


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


def _companion_roots(coeffs, max_degree=None):
    """``poly_roots_batch`` with the degree-1 roots taken from their 1x1
    companion matrices by LAPACK, as every degree is."""
    roots, neff = linalg.poly_roots_batch(coeffs, max_degree)
    one = np.nonzero(neff == 1)[0]
    c = coeffs[one]
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


# --- the guarded height chain against its masked expressions ---------------

def _radii(level, omegas):
    """The zero-root test's radii, 1 + |B| bound over smin, written out."""
    return 1.0 + (np.abs(omegas) * level.J_norm + level.norm_sum) / level.smin


def _masked_chain(level, omegas, roots):
    """Heights and sup objective values of ``roots`` as every row's masks
    give them, the expressions of ``_Level.gammas`` and the objective before
    their guards: the reference."""
    absY = np.abs(roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = -np.log(absY) / level.sigma_k
    gammas = np.where(absY <= ZERO_ROOT_TOL * _radii(level, omegas)[:, None],
                      math.inf, gammas)
    val, _ = _row_max(gammas)
    return gammas, np.where(val == math.inf,
                            -10.0 * UNBOUNDED_GAMMA / level.sigma_k,
                            np.where(np.isfinite(val), -val, 1e6))


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
    trimmed leading coefficient, an identically zero row, nan input and
    |Y| = inf."""
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
            "trimmed": (omega, ([0.6 + 0.2j] + others)[:dk - 1] + [nan],
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
    fun, _ = _captured_refinement(sys_, k, monkeypatch, h.GridSpec(21, 6))
    manifolds = sys.modules["hierdde.manifolds"]
    rng = np.random.default_rng(k)

    def check(omegas, phis, roots, neff):
        # the module binding hands back the given roots
        monkeypatch.setattr(manifolds, "poly_roots_batch",
                            lambda c, max_degree: (roots.copy(), neff.copy()))
        with np.errstate(invalid="ignore"):  # nan input: d = 3 node dets
            got = level.gammas(omegas, phis)
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

    # and the real solver at random points (its degree-1 guard has its
    # own test in test_linalg.py)
    monkeypatch.undo()
    omegas = rng.uniform(-3.0, 3.0, 40)
    phis = rng.uniform(0.0, 2.0 * np.pi, (40, k - 1))
    roots, neff = linalg.poly_roots_batch(level.coeffs(omegas, phis),
                                          level.dk)
    got = level.gammas(omegas, phis)
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
    # ... nor with |Y| = inf.  Trimming keeps the roots of finite
    # coefficients finite, so the solver's module binding hands back an
    # infinite root at every third row that has one
    real = linalg.poly_roots_batch

    def infinite(coeffs, max_degree=None):
        roots, neff = real(coeffs, max_degree)
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
