"""Tests of the benchmark's own helpers, tracer and oracles.

Run with ``python3 -m pytest perfbench/tests``.
"""

import importlib
import signal
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

import hierdde as h
import speed
import stats
import tracing
import workloads as wl


# --- order statistics -------------------------------------------------------

def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.percentile([4, 1, 3, 2], 1) == 1


@pytest.mark.parametrize("values, p", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, p):
    with pytest.raises(ValueError):
        stats.percentile(values, p)


@pytest.mark.parametrize("n, p, beyond", [(100, 90, 10), (100, 99, 1),
                                          (1000, 99, 10), (19, 50, 9),
                                          (20, 50, 10), (1, 90, 0)])
def test_samples_beyond(n, p, beyond):
    assert stats.samples_beyond(n, p) == beyond


@pytest.mark.parametrize("n, level", [(1, None), (19, None), (20, 50.0),
                                      (99, 50.0), (100, 90.0), (999, 90.0),
                                      (1000, 99.0), (10000, 99.9)])
def test_highest_supported_percentile(n, level):
    assert stats.highest_supported_percentile(n) == level


def test_quartile_spread_matches_statistics():
    xs = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.01, 1.03]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert stats.quartile_spread(xs) == pytest.approx(
        (q3 - q1) / statistics.median(xs))


# --- spans and self time ----------------------------------------------------

def _span(sid, parent, name, start, end, **attrs):
    return [sid, parent, name, start, end, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [_span(0, None, "harness.run", 0.0, 10.0),
             _span(1, 0, "rootfinder.find_roots", 1.0, 7.0, roots=3),
             _span(2, 1, "model.f", 2.0, 3.0, points=40),
             _span(3, 1, "model.fp", 4.0, 6.5, points=20),
             _span(4, 0, "degeneracy.build_ladder", 8.0, 9.0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.5, 2: 1.0, 3: 2.5, 4: 1.0})
    agg = tracing.aggregate(spans)
    assert agg["rootfinder.find_roots"]["self_s"] == pytest.approx(2.5)
    assert agg["model.f"]["points"] == 40


def test_layer_metrics_split_root_finder_from_kernel():
    spans = [_span(0, None, "harness.run", 0.0, 10.0),
             _span(1, 0, "rootfinder.find_roots", 1.0, 9.0, roots=4,
                   clusters=1, unconverged=0),
             _span(2, 1, "model.f", 2.0, 3.0, points=30),
             _span(3, 1, "model.fp", 4.0, 5.0, points=10),
             _span(4, 0, "model.f", 9.5, 9.6, points=2)]
    m = tracing.layer_metrics(spans, passes=2, traced_wall_s=5.0,
                              bulk_s=0.0021, bulk_points=42)
    assert set(m) == set(tracing.LAYER_UNITS)
    assert m["rootfinder.s"] == pytest.approx(4.0)       # per pass
    assert m["rootfinder.self_s"] == pytest.approx(3.0)  # (8 - 2) / 2
    assert m["model.eval_s"] == pytest.approx(1.05)
    assert m["model.f_calls"] == 1.0
    assert m["rootfinder.points_per_root"] == pytest.approx(40 / 4)
    assert m["model.points_per_call"] == pytest.approx(42 / 3)
    assert m["model.us_per_point_bulk"] == pytest.approx(50.0)
    assert m["rootfinder.wall_share"] == pytest.approx(0.8)
    assert m["harness.self_s"] == pytest.approx((10.0 - 8.0 - 0.1) / 2)


def test_tracer_records_nesting_and_restores_library():
    tr = tracing.Tracer()
    inner = tr.wrap(lambda x: x + 1, "model.f",
                    lambda args, res: {"points": 1})
    outer = tr.wrap(lambda x: inner(x) * 2, "rootfinder.find_roots")
    assert outer(1) == 4
    (o, i) = sorted(tr.spans, key=lambda s: s[0])
    assert o[2] == "rootfinder.find_roots" and o[1] is None
    assert i[1] == o[0] and i[5] == {"points": 1}

    classify_mod = importlib.import_module("hierdde.classify")
    harness = importlib.import_module("hierdde.harness")
    before = (classify_mod.sup_gamma, classify_mod.minimize,
              harness.char_function)
    tr.install()
    try:
        assert classify_mod.sup_gamma is not before[0]
        f, fp = harness.char_function(h.preset_system("fig2-stable"), 0.1)
        f(np.array([0.01j, 0.02j, 0.03j]))
    finally:
        tr.remove()
    assert (classify_mod.sup_gamma, classify_mod.minimize,
            harness.char_function) == before
    names = [s[2] for s in tr.spans]
    assert names[-2:] == ["model.char_function", "model.f"]
    assert tr.spans[-1][5] == {"points": 3}
    seconds, points = tr.bulk_seconds()
    assert points == 3 and seconds > 0.0


# --- host-speed normalisation ----------------------------------------------

def _probe(starts, times):
    p = speed.SpeedProbe()
    p.starts, p.times = list(starts), list(times)
    return p


def test_normalise_removes_probe_time_and_host_slowness():
    nominal = speed.NOMINAL_S
    p = _probe([0.5, 1.5, 2.5, 10.0], [2 * nominal, 2 * nominal,
                                       2 * nominal, 9 * nominal])
    assert p.factor(0.0, 3.0) == pytest.approx(2.0)
    # 6 s of wall time, 0.3 s of it probing, on a host at half speed
    assert p.normalise(6.0, 0.3, 0.0, 3.0) == pytest.approx(2.85)


def test_short_span_widens_to_window_and_empty_span_uses_all():
    nominal = speed.NOMINAL_S
    p = _probe([0.0, 0.45, 0.9, 5.0], [nominal, 3 * nominal, nominal,
                                      11 * nominal])
    # 0.1 s span about 0.45 s: its 1 s window holds the first three samples
    assert p.factor(0.4, 0.5) == pytest.approx(5.0 / 3.0)
    assert p.factor(7.0, 8.0) == pytest.approx(4.0)


def test_probe_samples_and_restores_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.01) as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            speed.reference_work(1000)
        t1 = time.perf_counter()
    assert len(p.times) > 3 and p.busy == pytest.approx(sum(p.times))
    assert p.normalise(t1 - t0, 0.0, t0, t1) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.NoProbe() as q:
        assert q.normalise(1.5, q.busy, 0.0, 1.5) == 1.5


# --- oracles ----------------------------------------------------------------

def _assignment(lam, scale=2, mult=1):
    return h.Assignment(eigenvalue=lam, multiplicity=mult, scale=scale,
                        rescaled=lam, distance=0.01, runner_up_scale=None,
                        runner_up_distance=None, assigned=True)


def _report(counts):
    recs = []
    for eps, n in zip((0.05, 0.02), counts):
        assigns = tuple(_assignment(complex(0.0, i)) for i in range(n))
        recs.append(h.EpsRecord(eps=eps, count=n, assignments=assigns,
                                max_distance={2: 0.01}, strong_matches=0))
    return h.ValidationReport(records=tuple(recs), nonincreasing={2: True})


def test_validate_oracle_accepts_and_rejects():
    eps = (0.05, 0.02)
    good = _report((3, 5))
    assert wl.check_validate(good, eps, (3, 5), (3, 5)) == []
    # a dropped root
    rec = good.records[1]
    dropped = replace(rec, count=4, assignments=rec.assignments[:-1])
    bad = replace(good, records=(good.records[0], dropped))
    assert wl.check_validate(bad, eps, (3, 5), (3, 5))
    # a root explained by the wrong scale
    wrong = replace(rec, assignments=rec.assignments[:-1]
                    + (_assignment(0.5j, scale=1),))
    bad = replace(good, records=(good.records[0], wrong))
    assert wl.check_validate(bad, eps, (3, 5), (3, 5))
    # multiplicities off the argument-principle count
    assert wl.check_validate(good, eps, (3, 5), (3, 6))
    # eps list mismatch
    assert wl.check_validate(good, (0.05, 0.01), (3, 5), (3, 5))


def _spectrum(mults):
    roots = tuple(h.RootResult(location=complex(0.0, i), multiplicity=m,
                               residual=0.0, newton_converged=True)
                  for i, m in enumerate(mults))
    return h.SpectrumResult(runs=(h.SpectrumRun(eps=0.1, roots=roots),),
                            path=None)


def test_spectrum_double_oracle_accepts_and_rejects():
    assert wl.check_spectrum_double(_spectrum([2, 2, 2]), 3) == []
    assert wl.check_spectrum_double(_spectrum([2, 2]), 3)        # dropped
    assert wl.check_spectrum_double(_spectrum([2, 2, 1, 1]), 3)  # split
    assert wl.check_spectrum_double(_spectrum([2, 2, 2]), 4)


def test_classify_oracle_rejects_flipped_verdict():
    p = h.ScalarParams(a=-0.4 + 0.3j, b=0.1, c=0.2)
    want = h.classify_scalar(p)
    assert want.status == "Stable"
    assert wl.check_classify(want, want) == []
    flipped = replace(want, status="WeaklyUnstable", scale=2)
    assert wl.check_classify(flipped, want)
    assert wl.check_classify(replace(want, scale=1), want)


def _manifolds():
    p = h.preset_params("fig3")
    sys_ = h.preset_system("fig3")
    grid = h.GridSpec(omega_count=11, phase_count=4, omega_range=(-3.0, 3.0))
    plain = {k: tuple(h.manifold_grid(sys_, k, grid)) for k in (1, 2)}
    res = h.ManifoldsResult(plain=plain, tilde={}, paths=())
    return p, res, {1: 11, 2: 44}


def test_manifold_oracle_accepts_and_rejects():
    p, res, sizes = _manifolds()
    picks = {1: np.arange(11), 2: np.arange(44)}
    assert wl.check_manifolds(res, p, sizes, picks, h) == []
    s = res.plain[2][7]
    moved = res.plain[2][:7] + (replace(s, gamma=s.gamma + 1e-3),) \
        + res.plain[2][8:]
    bad = replace(res, plain={1: res.plain[1], 2: moved})
    assert wl.check_manifolds(bad, p, sizes, picks, h)
    dropped = replace(res, plain={1: res.plain[1][:-1], 2: res.plain[2]})
    assert wl.check_manifolds(dropped, p, sizes, picks, h)


# --- inputs -----------------------------------------------------------------

def test_classify_draw_is_seeded_and_keeps_shares():
    a = wl.draw_scalar_params(np.random.default_rng(7), h)
    b = wl.draw_scalar_params(np.random.default_rng(7), h)
    assert a == b and len(a) == wl.CLASSIFY_OPS
    regions = [wl._region(p) for p in a]
    assert None not in regions
    for status, scale, n in wl.CLASSIFY_SHARES:
        assert regions.count((status, scale)) == n
    for p, region in zip(a, regions):
        want = h.classify_scalar(p)
        assert (want.status, want.scale) == region


def test_random_unitary_is_unitary():
    q = wl.random_unitary(np.random.default_rng(3), 2)
    assert np.allclose(q @ q.conj().T, np.eye(2), atol=1e-14)


# --- parent-versus-change verdicts ------------------------------------------

def test_compare_verdicts():
    import compare
    parent = {s: 10.0 + 0.01 * s for s in range(10)}
    slower = {s: v * 1.3 for s, v in parent.items()}
    faster = {s: v * 0.8 for s, v in parent.items()}
    assert compare.verdict(parent, slower, "lower", 0.25) == ("worse", 0.0)
    assert compare.verdict(parent, faster, "lower", 0.25) == ("gain", 1.0)
    assert compare.verdict(parent, faster, "higher", 0.25)[0] == "same"
    assert compare.verdict(parent, parent, "lower", 0.25) == ("same", 0.0)
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, noisy, "lower", 0.25)[0] == "unresolved"
