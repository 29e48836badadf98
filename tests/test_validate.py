"""run_validate's asymptotic side: one scale-n lattice per call, the
windows it searches, and its nearest distances against brute force."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

import hierdde as h
from hierdde import harness, manifolds
from hierdde.errors import TrivialityError

# hierdde.classify is the function; the module holds minimize
_classify = importlib.import_module("hierdde.classify")


def _record(monkeypatch, owner, name, log, key):
    """Wrap ``owner.name`` so that each call appends ``key(*args)`` to
    ``log`` before it runs."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append(key(*args))
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("rule", ["window", "re_halfwidth_coef", "sup"])
def test_one_top_scale_lattice_per_validation(rule, monkeypatch):
    # every rule evaluates scales 1 and 2 once each and searches the
    # windows of validation_window; only the sup rule runs Nelder-Mead
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05, 0.02))
    if rule == "window":
        cfg = replace(cfg, window=h.Rectangle(-0.03, 0.03, -3.0, 3.0))
    elif rule == "re_halfwidth_coef":
        cfg = replace(cfg, re_halfwidth_coef=0.4)
    want = h.validation_window(cfg)
    scales, windows, searches = [], [], []
    _record(monkeypatch, manifolds._Level, "lattice", scales,
            lambda level, axes: level.k)
    _record(monkeypatch, harness, "_locate", windows,
            lambda sys_, eps, window, tol: window)
    _record(monkeypatch, _classify, "minimize", searches,
            lambda fun, simplices: None)
    h.run_validate(cfg, write=False)
    assert sorted(scales) == [1, 2]
    assert windows == want and len(want) == 2
    assert bool(searches) == (rule == "sup")


def test_vanishing_top_scale_is_left_out_or_refused():
    # both lattice points are zeros of the polynomial for every Y: with a
    # window the scale has no tree and the root stays unassigned, and the
    # sup rule refuses, as sup_gamma does
    sys_ = h.DelaySystem(matrices=(np.diag([-1j, 1j, -1.0]),
                                   np.diag([0.0, 0.0, 1.0])), sigma=(1.0,))
    grid = h.GridSpec(omega_count=2, phase_count=1, omega_range=(-1.0, 1.0))
    cfg = h.RunConfig(system=sys_, eps_list=(0.1,), grid=grid,
                      window=h.Rectangle(-0.05, 0.05, -0.5, 0.5))
    (rec,) = h.run_validate(cfg, write=False).records
    (a,) = rec.assignments
    assert a.eigenvalue == 0 and a.scale is None and not a.assigned
    with pytest.raises(TrivialityError, match="scale-1 polynomial"):
        h.run_validate(replace(cfg, window=None), write=False)


def test_trivial_scale_below_the_top_has_no_tree(monkeypatch):
    # the scale-1 polynomial vanishes at both lattice frequencies: that
    # scale gets no tree, and the one root is explained at scale 2 alone
    sys_ = h.DelaySystem(matrices=(np.diag([-1j, 1j, -1.0]),
                                   np.diag([0.0, 0.0, 1.0]),
                                   0.1 * np.eye(3)), sigma=(1.0, 1.0))
    grid = h.GridSpec(omega_count=2, phase_count=4, omega_range=(-1.0, 1.0))
    cfg = h.RunConfig(system=sys_, eps_list=(0.2,), grid=grid,
                      window=h.Rectangle(-0.05, 0.05, -0.5, 0.5))
    scales = []
    _record(monkeypatch, harness, "_assign_roots", scales,
            lambda roots, eps, trees, strong_r: sorted(trees))
    (rec,) = h.run_validate(cfg, write=False).records
    (a,) = rec.assignments
    assert scales == [[2]]
    assert rec.count == 1 and a.scale == 2 and a.runner_up_scale is None


def _brute_nearest(pts, z, chunk=64):
    """Distance from each of ``z`` to its nearest point of ``pts``, as the
    minimum of sqrt(dx*dx + dy*dy) over every point, ``chunk`` of ``z``
    at a time."""
    out = np.empty(z.size)
    for lo in range(0, z.size, chunk):
        dx = pts.real[None, :] - z.real[lo:lo + chunk, None]
        dy = pts.imag[None, :] - z.imag[lo:lo + chunk, None]
        out[lo:lo + chunk] = np.sqrt(dx * dx + dy * dy).min(axis=1)
    return out


# CI's d = 3 system: ladder levels 2 and 1, so scale 1 has tilde points
_LADDER = h.DelaySystem(matrices=(
    [[-1.0 + 0.3j, 0.2, 0.0], [0.1, -0.5 + 1.0j, 0.1], [0.0, 0.2, -0.7 - 0.4j]],
    [[0.3, 0.1, 0.0], [0.05, 0.25, 0.0], [0.0, 0.0, 0.0]],
    [[0.2, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), sigma=(1.0, 1.3))


@pytest.mark.parametrize("cfg", [
    h.preset_config("fig2-unstable", eps_list=(0.05,)),
    h.RunConfig(system=_LADDER, eps_list=(0.1,),
                window=h.Rectangle(-0.05, 0.05, -2.0, 2.0)),
], ids=["fig2-unstable", "ci-ladder"])
def test_distances_are_the_brute_force_nearest(cfg):
    # each distance is the exact minimum over assemble_A_k's points, bit
    # for bit, and the scale and runner-up rank them (strong candidates
    # only within the strong radius, ties to the lower scale)
    sys_, (eps,) = cfg.system, cfg.eps_list
    ladder = h.build_ladder(sys_)
    sets = {k: h.assemble_A_k(sys_, ladder, k, cfg.grid)
            for k in range(sys_.n + 1)}
    sets = {k: pts for k, pts in sets.items() if pts.size}
    strong_r = h.strong_spectrum(sys_).r
    (rec,) = h.run_validate(cfg, write=False).records
    locs = np.array([a.eigenvalue for a in rec.assignments])
    near = {k: _brute_nearest(pts, locs.real * eps ** (-k) + 1j * locs.imag)
            for k, pts in sets.items()}
    for i, a in enumerate(rec.assignments):
        ranked = sorted((float(d[i]), k) for k, d in near.items()
                        if k or d[i] <= strong_r)
        assert (a.distance, a.scale) == ranked[0]
        assert (a.runner_up_distance, a.runner_up_scale) == (
            ranked[1] if len(ranked) > 1 else (None, None))
    assert len(rec.assignments) > 0
    if sys_ is _LADDER:
        assert ladder.has_tilde(1) and 1 in near
