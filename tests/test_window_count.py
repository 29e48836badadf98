"""The scale-aware window count against the full boundary count, and
against an independent oracle: the collocated generator's eigenvalues."""

import hashlib
import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import lambertw

import hierdde as h
from hierdde import rootfinder as rf
from hierdde.manifolds import _Level

from _collocation import generator_eigenvalues, in_rect


def _routed_count(sys_, eps, rect, caplog):
    """window_count, and the (right, left) routes of its one log record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        got = h.window_count(sys_, eps, rect)
    (record,) = [r for r in caplog.records
                 if r.getMessage().startswith("window_count on")]
    assert record.levelno == logging.DEBUG and record.args[0] == rect
    return got, record.args[1:]


def _full_count(sys_, eps, rect):
    f, fp = h.char_function(sys_, eps)
    return rf._count_with_inflation(f, fp, rect)


def _double(system, seed):
    """Q diag(s, s) Q^H for a seeded Haar unitary Q: every root double."""
    z = np.random.default_rng(seed).standard_normal((2, 2, 2))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return h.DelaySystem(matrices=tuple(q @ (M[0, 0] * np.eye(2))
                                        @ q.conj().T
                                        for M in system.matrices),
                         sigma=system.sigma)


_ROUCHE = ("slow factor", "Y**d")


@pytest.mark.parametrize("name", h.PRESET_NAMES)
def test_validation_windows_take_both_factors(name, caplog):
    # fig3 at 0.01 holds zeros of the slow factor det(B) inside the window
    cfg = h.preset_config(name, eps_list=(0.05, 0.02, 0.01))
    for eps, rect in zip(cfg.eps_list, h.validation_window(cfg)):
        got, routes = _routed_count(cfg.system, eps, rect, caplog)
        assert routes == _ROUCHE
        assert got == _full_count(cfg.system, eps, rect)


# the CI systems: A_k = a_k I (every root double), and d = 3 with A2 of
# rank 1, whose windows are counted in full
_CI_DOUBLE = h.DelaySystem(matrices=tuple(np.diag([a, a]) for a in (
    -0.4 + 0.5j, 0.1, 0.4)), sigma=(1.0, 1.0))
_LADDER = h.DelaySystem(matrices=(
    [[-1.0 + 0.3j, 0.2, 0.0], [0.1, -0.5 + 1.0j, 0.1], [0.0, 0.2, -0.7 - 0.4j]],
    [[0.3, 0.1, 0.0], [0.05, 0.25, 0.0], [0.0, 0.0, 0.0]],
    [[0.2, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), sigma=(1.0, 1.3))


# spectrum-double's window: fig2-unstable's validation window at eps 0.1
(_WINDOW_01,) = h.validation_window(h.preset_config("fig2-unstable",
                                                    eps_list=(0.1,)))


@pytest.mark.parametrize("sys_, eps, rect, routes", [
    *[(_double(h.preset_system("fig2-unstable"), seed), 0.1, _WINDOW_01,
       _ROUCHE) for seed in range(1, 6)],
    (_CI_DOUBLE, 0.1, h.Rectangle(-0.1, 0.1, -3.0, 3.0), _ROUCHE),
    (h.DelaySystem.scalar(-0.3 + 0.2j, (0.5,)), 0.02,
     h.Rectangle(-0.05, 0.05, -2.0, 2.0), _ROUCHE),
    # right of the axis: both edges follow the slow factor
    (h.preset_system("fig3"), 0.02, h.Rectangle(0.002, 0.02, -3.0, 3.0),
     ("slow factor",) * 2),
    # A2 of rank 1: both edges fall back
    (_LADDER, 0.1, h.Rectangle(-0.05, 0.05, -2.0, 2.0),
     ("fallback (A_n of rank 1 < 3)",) * 2),
], ids=[f"spectrum-double-{s}" for s in range(1, 6)]
    + ["ci-double", "n1", "right-of-axis", "ci-ladder"])
def test_window_count_is_the_full_count(sys_, eps, rect, routes, caplog):
    got, seen = _routed_count(sys_, eps, rect, caplog)
    assert seen == routes
    assert got == _full_count(sys_, eps, rect) and got[1] == rect


def test_thin_window_falls_back_where_neither_factor_dominates(caplog):
    # h tau_n = 0.004 * 400 = 1.6 < 2: on the left edge |Y| = e^1.6 is
    # within a factor 2 of the largest |Y_b|
    s, rect = h.preset_system("fig2-unstable"), h.Rectangle(-0.004, 0.004,
                                                            -3.0, 3.0)
    (count, counted), routes = _routed_count(s, 0.05, rect, caplog)
    assert routes == ("slow factor", "fallback (neither factor dominates)")
    f, fp = h.char_function(s, 0.05)
    assert counted == rect and count == h.count_zeros(f, rect, fprime=fp)


_A, _B, _EPS = -0.3 + 0.2j, 0.5, 0.05  # n = 1: chi = -lam + a + b Y
_ROOT = _A + lambertw(_B / _EPS * np.exp(-_A / _EPS), 1) * _EPS


@pytest.mark.parametrize("rect, routes, inflated", [
    # a zero of chi on the left edge: neither factor dominates there, and
    # the full count inflates the window and says so
    (h.Rectangle(_ROOT.real, _ROOT.real + 0.3, _ROOT.imag - 1.0,
                 _ROOT.imag + 1.0),
     ("slow factor", "fallback (neither factor dominates)"), True),
    # a zero of det(B) = a - lam on the left edge, where chi is not zero
    (h.Rectangle(_A.real, 0.1, -2.0, 2.0),
     ("slow factor", "fallback (a zero of det(B) near the edge)"), False),
], ids=["zero-of-chi", "zero-of-det-B"])
def test_zero_on_a_long_edge_falls_back(rect, routes, inflated, caplog):
    s = h.DelaySystem.scalar(_A, (_B,))
    got, seen = _routed_count(s, _EPS, rect, caplog)
    assert seen == routes
    assert got == _full_count(s, _EPS, rect)
    assert (got[1] != rect) == inflated
    grown = [r.args for r in caplog.records
             if r.getMessage().startswith("count inflated")]
    assert grown == ([(rect, got[1])] if inflated else [])


def test_zero_on_a_short_edge_falls_back(caplog):
    # the top edge passes through the root: the walk along it flags a zero,
    # both long edges give way to the full count, and that count inflates
    s = h.DelaySystem.scalar(_A, (_B,))
    rect = h.Rectangle(_ROOT.real - 0.1, _ROOT.real + 0.1, _ROOT.imag - 1.0,
                       _ROOT.imag)
    got, seen = _routed_count(s, _EPS, rect, caplog)
    assert seen == ("fallback (a zero near a short edge)",) * 2
    assert got == _full_count(s, _EPS, rect)
    assert got[0] == 4 and got[1] != rect


def test_route_logging_changes_no_written_file(tmp_path, caplog):
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05,))
    digests = []
    for level, out in ((logging.WARNING, "quiet"), (logging.DEBUG, "loud")):
        caplog.clear()
        with caplog.at_level(level, logger="hierdde"):
            h.run_validate(replace(cfg, out_dir=str(tmp_path / out)))
        digests.append(sorted(
            (p.name, hashlib.sha256(p.read_bytes()).hexdigest())
            for p in (tmp_path / out).iterdir()))
        counts = [r for r in caplog.records
                  if r.getMessage().startswith("window_count on")]
        assert len(counts) == (level == logging.DEBUG)
    assert digests[0] == digests[1] and len(digests[0]) == 2


def _generic_d2():
    rng = np.random.default_rng(5)

    def draw(scale):
        return scale * (rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2))) / 2
    return h.DelaySystem(matrices=(
        np.diag([-0.4 + 0.5j, -0.3 - 0.6j]) + draw(0.05), draw(0.1),
        draw(0.4)), sigma=(1.0, 1.0))


_ORACLE_SYSTEMS = {name: h.preset_system(name) for name in h.PRESET_NAMES}
_ORACLE_SYSTEMS["double"] = _double(h.preset_system("fig2-unstable"), 21)
_ORACLE_SYSTEMS["generic-d2"] = _generic_d2()


@pytest.mark.parametrize("name", sorted(_ORACLE_SYSTEMS))
def test_window_count_matches_the_collocated_generator(name, caplog):
    # the eigenvalues at two node counts agree in the window, and so does
    # the count: d tau_2 (3.8) / (2 pi) gives 61 or 122 roots at eps 0.1
    sys_, eps = _ORACLE_SYSTEMS[name], 0.1
    rect = h.Rectangle(-0.09, 0.09, -1.9, 1.9)
    taus = h.delays(sys_, eps)
    inside = [np.sort_complex(in_rect(
        generator_eigenvalues(sys_.matrices, taus, N), rect.re_min,
        rect.re_max, rect.im_min, rect.im_max)) for N in (150, 200)]
    (count, counted), routes = _routed_count(sys_, eps, rect, caplog)
    assert routes == _ROUCHE and counted == rect
    assert [z.size for z in inside] == [count, count] == [61 * sys_.d] * 2
    assert np.abs(inside[0] - inside[1]).max() <= 1e-8



_N3 = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.15, 0.4))

# (system, eps, node counts, roots in the window): the presets and d = 2
# systems hold d tau_2 (3.8) / (2 pi) roots at eps 0.1; the n = 3 system
# needs a larger eps for its tau_3, and CI's d = 3 ladder more nodes
_COLLOCATED = {name: (sys_, 0.1, (150, 200), 61 * sys_.d)
               for name, sys_ in _ORACLE_SYSTEMS.items()}
_COLLOCATED["n3"] = (_N3, 0.3, (300, 400), 23)
_COLLOCATED["ci-ladder"] = (_LADDER, 0.1, (200, 260), 81)


def _spectrum_roots(sys_, eps, rect):
    (run,) = h.run_spectrum(h.RunConfig(system=sys_, eps_list=(eps,),
                                        window=rect), write=False).runs
    return run.roots


def _unseeded_roots(sys_, eps, rect):
    # find_roots alone: its own boundary count, no seeds, only subdivision
    f, fp = h.char_function(sys_, eps)
    return h.find_roots(f, rect, fp)


# run_spectrum on every collocated system, and the unseeded find_roots on
# the six oracle systems
_ROUTES = {name: (_spectrum_roots, name) for name in _COLLOCATED}
_ROUTES.update({f"unseeded-{name}": (_unseeded_roots, name)
                for name in _ORACLE_SYSTEMS})


@pytest.mark.parametrize("name", sorted(_ROUTES))
def test_spectrum_roots_are_the_collocated_eigenvalues(name):
    # at two node counts, the collocation eigenvalues of the window are the
    # located roots with multiplicity: each eigenvalue lies within 1e-10 of
    # a root, and each root is the nearest root of as many eigenvalues as
    # its multiplicity
    locate, system = _ROUTES[name]
    sys_, eps, nodes, count = _COLLOCATED[system]
    rect = h.Rectangle(-0.09, 0.09, -1.9, 1.9)
    located = locate(sys_, eps, rect)
    roots = np.array([r.location for r in located])
    mults = [r.multiplicity for r in located]
    taus = h.delays(sys_, eps)
    inside = [np.sort_complex(in_rect(
        generator_eigenvalues(sys_.matrices, taus, N), rect.re_min,
        rect.re_max, rect.im_min, rect.im_max)) for N in nodes]
    assert inside[0].size == inside[1].size == sum(mults) == count
    assert np.abs(inside[0] - inside[1]).max() <= 1e-10
    for eigs in inside:
        nearest = np.abs(eigs[:, None] - roots[None, :]).argmin(axis=1)
        assert np.bincount(nearest, minlength=roots.size).tolist() == mults
        assert np.abs(eigs - roots[nearest]).max() <= 1e-10


# the complex-frequency evaluator of axis_seeds and window_count: the
# top-scale level polynomial at omega = -i lam, phi_j = omega eps**-j
_BRANCH_CASES = {"fig2-unstable": (_ORACLE_SYSTEMS["fig2-unstable"], 0.05),
                 "generic-d2": (_ORACLE_SYSTEMS["generic-d2"], 0.1),
                 "n3": (_N3, 0.1)}


@pytest.mark.parametrize("name", sorted(_BRANCH_CASES))
def test_level_branches_factor_the_characteristic_function(name):
    # chi(lam) = det(A_n) prod_b (Y - Y_b(lam)), Y = exp(-lam tau_n), at
    # random points of the validation window
    sys_, eps = _BRANCH_CASES[name]
    (rect,) = h.validation_window(h.RunConfig(system=sys_, eps_list=(eps,)))
    rng = np.random.default_rng(11)
    lam = (rng.uniform(rect.re_min, rect.re_max, 200)
           + 1j * rng.uniform(rect.im_min, rect.im_max, 200))
    Yb = _Level.plain(sys_, sys_.n).branches(eps, lam)
    assert Yb.shape == (200, sys_.d)
    Y = np.exp(-lam * h.delays(sys_, eps)[-1])
    got = np.linalg.det(sys_.matrices[-1]) * np.prod(Y[:, None] - Yb, axis=1)
    f, _ = h.char_function(sys_, eps)
    want = f(lam)
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


@pytest.mark.parametrize("name", sorted(_BRANCH_CASES))
def test_level_branches_on_the_axis_are_the_manifold_roots(name):
    # at lam = i omega the phases are phi_j = omega eps**-j, and the roots
    # are gamma_branches' at the canonical phase point
    sys_, eps = _BRANCH_CASES[name]
    omegas = np.random.default_rng(12).uniform(-3.0, 3.0, 40)
    Yb = _Level.plain(sys_, sys_.n).branches(eps, 1j * omegas)
    for om, got in zip(omegas, Yb):
        point = h.PhasePoint.make(om, [om * eps ** -j
                                       for j in range(1, sys_.n)],
                                  sys_.sigma)
        want = [b.Y for b in h.gamma_branches(sys_, sys_.n, point)]
        assert np.abs(np.sort_complex(got)
                      - np.sort_complex(want)).max() <= 1e-13
