"""run_validate's asymptotic side: one scale-n lattice per call, the
windows it searches, and its nearest distances against brute force."""

import csv
import importlib
import json
import logging
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
    # windows of validation_window; only the sup rule polishes a supremum
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
            lambda fun, x0, spacings: None)
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


def test_paper_regime_at_eps_0_005():
    # the pseudo-continuous spectrum: about eps**-2 roots in a strip about
    # eps**2 wide, every one on the scale-2 family.  The largest distance
    # no longer falls here (0.0085 at 0.01, 0.0100 at 0.005): it is set by
    # the lattice's sampling, whose frequency step alone is 0.008
    cfg = h.preset_config("fig2-unstable", eps_list=(0.01, 0.005))
    rep = h.run_validate(cfg, write=False)
    coarse, fine = rep.records
    assert (coarse.count, fine.count) == (9549, 38197)
    table = fine.assignments
    assert sum(table.column("multiplicity")) == fine.count
    assert all(table.column("assigned"))
    assert set(table.column("scale")) == {2}
    assert list(fine.max_distance) == [2]
    assert rep.nonincreasing == {2: True}
    assert fine.max_distance[2] < 0.02


def _lambert_roots():
    """find_roots' table on a Lambert W window: x' = a x + b x(t - tau)."""
    a, b, tau = -0.2, 0.5, 10.0
    f = lambda z: -z + a + b * np.exp(-z * tau)
    fp = lambda z: -1.0 - b * tau * np.exp(-z * tau)
    return h.find_roots(f, h.Rectangle(-0.5, 0.5, -8.0, 8.0), fprime=fp)


def _fig2_assignments():
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05,))
    (rec,) = h.run_validate(cfg, write=False).records
    return rec


@pytest.mark.parametrize("kind", ["roots", "assignments"])
def test_records_read_like_a_tuple(kind):
    # a table keeps its records as numpy columns: len, iteration, indices
    # and slices build the same records of Python scalars, a slice is a
    # tuple, and a table equals the list (or tuple) of its records
    if kind == "roots":
        table, size, cls = _lambert_roots(), 25, h.RootResult
        types = {"location": complex, "multiplicity": int,
                 "residual": float, "newton_converged": bool}
    else:
        rec = _fig2_assignments()
        table, size, cls = rec.assignments, 383, h.Assignment
        types = {"eigenvalue": complex, "multiplicity": int, "scale": int,
                 "distance": float, "assigned": bool}
    assert isinstance(table, h.Records)
    objs = tuple(table)
    assert len(objs) == len(table) == size
    assert all(isinstance(col, np.ndarray) and len(col) == size
               for col in table.values)
    assert len(table.values) == len(table.columns)
    assert all(type(r) is cls for r in objs)
    assert all(type(getattr(r, name)) is t
               for r in objs for name, t in types.items())
    assert objs == tuple(table[i] for i in range(size))
    for i in (0, 3, -1, -size, np.int64(3), np.int64(-2)):
        assert table[i] == objs[i]
    for i in (size, -size - 1, np.int64(size)):
        with pytest.raises(IndexError):
            table[i]
    for part in (slice(5, 40, 7), slice(None, None, -1), slice(size, None),
                 slice(-3, None), slice(None)):
        assert type(table[part]) is tuple
        assert table[part] == objs[part]
    assert table == list(objs) and list(objs) == table and table == objs
    assert table == table[:] and not table != list(objs)
    assert table != list(objs[:-1]) and table != list(objs[::-1])
    assert table != objs[0] and table != set()
    assert table.column("multiplicity").tolist() == [r.multiplicity
                                                     for r in objs]
    if kind == "assignments":
        assert rec.count == sum(a.multiplicity for a in objs)
        want = {}
        for a in objs:
            if a.assigned:
                want[a.scale] = max(want.get(a.scale, 0.0), a.distance)
        assert rec.max_distance == want
        assert rec.strong_matches == sum(a.assigned and a.scale == 0
                                         for a in objs)


def _counting_init(monkeypatch, cls, calls):
    """Count the objects of ``cls`` built, through its ``__init__``."""
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(cls, "__init__", counted)


def test_written_runs_build_no_record_objects(tmp_path, monkeypatch):
    # roots and assignments go from find_roots to the files as columns: a
    # run with files builds no RootResult and no Assignment
    calls = {}
    for cls in (h.RootResult, h.Assignment):
        _counting_init(monkeypatch, cls, calls)
    for fmt in ("csv", "json"):
        cfg = h.preset_config("fig2-unstable", eps_list=(0.05,),
                              out_dir=str(tmp_path / fmt))
        h.run_validate(replace(cfg, out_format=fmt))
        h.run_spectrum(replace(cfg, out_format=fmt,
                               window=h.Rectangle(-0.03, 0.03, -3.0, 3.0)))
        assert len(list((tmp_path / fmt).iterdir())) == 1 + (fmt == "csv") + 1
    assert calls == {}
    h.run_validate(cfg, write=False).records[0].assignments[0]
    _lambert_roots()[-1]
    assert calls == {"Assignment": 1, "RootResult": 1}


_TWO_DELAY = h.DelaySystem.scalar(0.3, (0.1, 0.1))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_window_without_roots_writes_empty_records(tmp_path, fmt):
    cfg = h.RunConfig(system=_TWO_DELAY, eps_list=(0.1,), out_dir=str(tmp_path),
                      out_format=fmt, window=h.Rectangle(0.7, 1.0, -0.5, 0.5))
    (rec,) = h.run_validate(cfg).records
    assert rec.count == 0 and len(rec.assignments) == 0
    assert list(rec.assignments) == [] and rec.assignments[:] == ()
    assert rec.max_distance == {} and rec.strong_matches == 0
    data = json.loads((tmp_path / "validate.json").read_text())
    # the records go to validate.csv in the csv format, else to validate.json
    summary = {"eps": 0.1, "count": 0, "strong_matches": 0,
               "max_distance": {}}
    assert data["records"] == [summary if fmt == "csv"
                               else {**summary, "assignments": []}]
    if fmt == "csv":
        assert (tmp_path / "validate.csv").read_text() == (
            "eps,re,im,multiplicity,scale,rescaled_re,distance,"
            "runner_up_scale,runner_up_distance,assigned\n")


def test_root_without_any_tree_is_written_unassigned(tmp_path):
    # the vanishing top scale of the test above, and no other tree: the
    # root has no scale, no rescaled point and no runner-up
    sys_ = h.DelaySystem(matrices=(np.diag([-1j, 1j, -1.0]),
                                   np.diag([0.0, 0.0, 1.0])), sigma=(1.0,))
    grid = h.GridSpec(omega_count=2, phase_count=1, omega_range=(-1.0, 1.0))
    for fmt in ("csv", "json"):
        cfg = h.RunConfig(system=sys_, eps_list=(0.1,), grid=grid,
                          out_dir=str(tmp_path / fmt), out_format=fmt,
                          window=h.Rectangle(-0.05, 0.05, -0.5, 0.5))
        (rec,) = h.run_validate(cfg).records
        assert rec.max_distance == {} and rec.strong_matches == 0
    (a,) = rec.assignments
    assert a.scale is None and a.rescaled is None and a.eigenvalue == 0
    (obj,) = json.loads((tmp_path / "json" / "validate.json").read_text()
                        )["records"][0]["assignments"]
    assert obj == {"re": 0.0, "im": 0.0, "multiplicity": 1, "scale": None,
                   "rescaled_re": None, "distance": "inf",
                   "runner_up_scale": None, "runner_up_distance": None,
                   "assigned": False}
    (row,) = csv.DictReader(open(tmp_path / "csv" / "validate.csv"))
    assert [row[k] for k in ("scale", "rescaled_re", "distance",
                             "runner_up_scale", "runner_up_distance",
                             "assigned")] == ["", "", "inf", "", "", "0"]


def test_window_past_the_omega_axis_is_logged(caplog):
    # roots above the lattice's last frequency are matched to its edge;
    # the preset grid covers the |Im| <= 3 windows and logs nothing
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05,))
    with caplog.at_level(logging.WARNING, logger="hierdde"):
        h.run_validate(cfg, write=False)
    assert caplog.records == []
    narrow = replace(cfg, grid=h.GridSpec(omega_count=401, phase_count=64,
                                          omega_range=(-2.5, 2.5)))
    with caplog.at_level(logging.WARNING, logger="hierdde"):
        h.run_validate(narrow, write=False)
    (rec,) = caplog.records
    assert rec.name == "hierdde" and rec.levelno == logging.WARNING
    assert "past the omega axis -2.5..2.5 of the scale-2" in rec.getMessage()
