"""Run configs, deterministic artifacts, validation windows, CLI exit codes."""

import json
import logging
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import hierdde as h
from hierdde import cli, harness
from hierdde.errors import ConfigError


SCALAR_SYS = {"d": 1, "n": 1, "sigma": [1.0],
              "A0": [[[0.0, 0.0]]], "A1": [[[1.0, 0.0]]]}
TWO_DELAY_SYS = {"d": 1, "n": 2, "sigma": [1.0, 1.0],
                 "A0": [[[0.3, 0.0]]], "A1": [[[0.1, 0.0]]], "A2": [[[0.1, 0.0]]]}

# A0 = diag(-i, i, -1), A1 = diag(0, 0, 1): det(-i omega I + A0 + Y A1)
# vanishes identically in Y at omega = -1 and at omega = 1
TRIVIAL_SYS = {"d": 3, "n": 1, "sigma": [1.0],
               "A0": [[[0.0, -1.0], [0.0, 0.0], [0.0, 0.0]],
                      [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                      [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]],
               "A1": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                      [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                      [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}

# a d = 3 system whose ladder gives scale 1 tilde manifolds
_TILDE_SYS = {"d": 3, "n": 2, "sigma": [1.0, 1.3],
              "A0": [[[-1.0, 0.3], [0.2, 0.0], [0.0, 0.0]],
                     [[0.1, 0.0], [-0.5, 1.0], [0.1, 0.0]],
                     [[0.0, 0.0], [0.2, 0.0], [-0.7, -0.4]]],
              "A1": [[[0.3, 0.0], [0.1, 0.0], [0.0, 0.0]],
                     [[0.05, 0.0], [0.25, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
              "A2": [[[0.2, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}


def _base_cfg(out=None, **extra):
    data = {"system": SCALAR_SYS, "eps": [1.0], "window": [0.0, 1.0, -1.0, 1.0]}
    if out is not None:
        data["out"] = str(out)
    data.update(extra)
    return data


def test_config_fields():
    cfg = h.config_from_dict(_base_cfg())
    assert cfg.eps_list == (1.0,)
    assert cfg.window == h.Rectangle(0.0, 1.0, -1.0, 1.0)
    assert cfg.tol == 1e-9
    assert cfg.out_format == "csv"
    assert cfg.system.d == 1 and cfg.system.n == 1


def test_config_rejects_bad_input():
    for patch in ({"bogus": 1},
                  {"eps": [0.01, 0.05]},       # must decrease strictly
                  {"eps": [0.05, 0.05]},
                  {"window": [1.0, 0.0, -1.0, 1.0]},
                  {"validation": {"weird": 1}},
                  {"grid": {"weird": 1}}):
        with pytest.raises(ConfigError):
            h.config_from_dict(_base_cfg(**patch))


@pytest.mark.parametrize("match, patch", [
    ("malformed .* value omega_range=", {"grid": {"omega_range": [1]}}),
    ("malformed .* value omega=", {"grid": {"omega": "many"}}),
    ("malformed .* value omega=", {"grid": {"omega": 41.9}}),
    ("malformed .* value phase=", {"grid": {"phase": True}}),
    ("malformed .* value tol=", {"tol": "small"}),
    ("malformed .* value eps=", {"eps": ["a"]}),
    ("malformed .* value eps=", {"eps": "0.05"}),
    ("malformed .* value window=", {"window": "0123"}),
    # the validation strip is the constant IM_MAX, no settable value
    (r"^unknown validation keys: \['im_max'\]$",
     {"validation": {"im_max": None}}),
], ids=["omega_range", "omega", "omega-fraction", "phase-bool", "tol",
        "eps-list", "eps-string", "window-string", "im_max"])
def test_malformed_config_value_is_a_config_error(match, patch, tmp_path,
                                                  capsys):
    data = _base_cfg(**patch)
    with pytest.raises(ConfigError, match=match):
        h.config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["spectrum", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("match, patch", [
    ("config value eps=True", {"eps": True}),
    ("config value tol=True", {"tol": True}),
    ("config value window=[True,", {"window": [True, 2, -3, 3]}),
    ("unknown validation keys: ['im_max']", {"validation": {"im_max": True}}),
    ("validation value re_halfwidth_coef=True",
     {"validation": {"re_halfwidth_coef": True}}),
    ("grid value omega_range=[False,", {"grid": {"omega_range": [False, 1]}}),
    ("system value d=True", {"system": SCALAR_SYS | {"d": True}}),
    ("system value n=2.7", {"system": TWO_DELAY_SYS | {"n": 2.7}}),
    ("system value sigma=[True]", {"system": SCALAR_SYS | {"sigma": [True]}}),
    ("A1: entries must be [re, im] pairs",
     {"system": SCALAR_SYS | {"A1": [[[True, 0.0]]]}}),
], ids=["eps", "tol", "window", "im_max", "re_halfwidth_coef",
        "omega_range", "d", "n-fraction", "sigma", "matrix-entry"])
def test_boolean_or_fraction_is_refused_naming_its_key(match, patch):
    # a boolean is no real number and a fraction no count: each is refused,
    # not read as 0 or 1 or truncated
    with pytest.raises(ConfigError, match=re.escape(match)):
        h.config_from_dict(_base_cfg(**patch))


_SCALAR = h.DelaySystem.scalar(-1.0, (0.5,))


@pytest.mark.parametrize("match, build", [
    ("eps=True", lambda: h.RunConfig(system=_SCALAR, eps_list=(True,))),
    ("tol=True", lambda: h.RunConfig(system=_SCALAR, eps_list=(0.5,),
                                     tol=True)),
    ("re_halfwidth_coef=True",
     lambda: h.RunConfig(system=_SCALAR, eps_list=(0.5,),
                         re_halfwidth_coef=True)),
    ("sigma entry=True",
     lambda: h.DelaySystem.scalar(-1.0, (0.5,), sigma=(True,))),
    ("eps=True", lambda: h.check_eps(True)),
    ("eps=True", lambda: h.char_function(_SCALAR, True)),
    ("eps=True", lambda: h.rescale(True, 2, 0.1 + 1j)),
    ("re_min=False", lambda: h.Rectangle(False, True, 0, 1)),
], ids=["run-eps", "run-tol", "run-re_halfwidth_coef",
        "sigma", "check_eps", "char_function", "rescale", "rectangle"])
def test_python_constructors_refuse_booleans(match, build):
    # the constructors read real values as the file readers do
    with pytest.raises(ConfigError, match=f"^malformed {match}: need a "
                                          f"number, not a boolean$"):
        build()


def test_config_loads_system_from_relative_path(tmp_path):
    s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, 0.2))
    h.save_system(s, tmp_path / "sys.json")
    cfg = h.config_from_dict({"system": "sys.json", "eps": [0.5]},
                             base_dir=str(tmp_path))
    assert cfg.system.n == 2
    assert np.array_equal(cfg.system.matrices[0], s.matrices[0])


def _reencoded(path):
    """``json.dumps(indent=1, sort_keys=True)`` text of a JSON file's
    content, the layout of every written JSON file."""
    return json.dumps(json.loads(path.read_text()), indent=1,
                      sort_keys=True) + "\n"


def test_saved_system_file_is_sorted_json(tmp_path):
    rng = np.random.default_rng(11)
    mats = tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(3))
    s = h.DelaySystem(matrices=mats, sigma=(1.25, 0.3))
    p1, p2 = tmp_path / "sys.json", tmp_path / "sub" / "sys.json"
    h.save_system(s, p1)
    assert p1.read_text() == _reencoded(p1)
    assert list(json.loads(p1.read_text())) == ["A0", "A1", "A2", "d", "n",
                                                "sigma"]
    h.save_system(h.load_system(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unreadable_files_name_their_kind(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="^cannot read config .*bad.json: "):
        h.load_config(bad)
    with pytest.raises(ConfigError,
                       match="^cannot read system file .*bad.json: "):
        h.load_system(bad)
    with pytest.raises(ConfigError,
                       match="^cannot read system file .*missing.json: "):
        h.config_from_dict({"system": "missing.json", "eps": [0.5]},
                           base_dir=str(tmp_path))


def test_spectrum_right_of_the_axis_is_not_guarded():
    # exp(-lam tau) only underflows for Re lam > 0: a window reaching
    # Re 2 at the scale-2 delay 400 is searched, as the handles allow,
    # and its roots right of the axis are those counted there
    cfg = replace(h.preset_config("fig2-unstable", eps_list=(0.05,)),
                  window=h.Rectangle(-0.01, 2.0, -1.0, 1.0))
    (run,) = h.run_spectrum(cfg, write=False).runs
    f, fp = h.char_function(cfg.system, 0.05)
    right = sum(r.multiplicity for r in run.roots if r.location.real > 0)
    assert sum(r.multiplicity for r in run.roots) == len(run.roots) == 127
    assert right == 13 == h.count_zeros(f, h.Rectangle(0.0, 2.0, -1.0, 1.0),
                                        fprime=fp)


def test_spectrum_run_is_deterministic(tmp_path):
    res1 = h.run_spectrum(h.config_from_dict(_base_cfg(out=tmp_path / "a")))
    res2 = h.run_spectrum(h.config_from_dict(_base_cfg(out=tmp_path / "b")))
    b1 = open(res1.path, "rb").read()
    b2 = open(res2.path, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "eps,re,im,multiplicity,residual"
    assert len(lines) == 2
    eps_s, re_s, im_s, mult_s, resid_s = lines[1].split(",")
    assert float(eps_s) == 1.0
    assert float(re_s) == pytest.approx(0.567143290409784, abs=1e-12)
    assert float(im_s) == 0.0
    assert mult_s == "1"
    assert float(resid_s) <= 1e-12


def test_spectrum_empty_window_writes_header_only(tmp_path):
    stable = {"d": 1, "n": 1, "sigma": [1.0],
              "A0": [[[-1.0, 0.0]]], "A1": [[[0.5, 0.0]]]}
    cfg = h.config_from_dict({"system": stable, "eps": [0.5],
                              "window": [5.0, 6.0, 0.0, 1.0],
                              "out": str(tmp_path)})
    res = h.run_spectrum(cfg)
    assert len(res.runs[0].roots) == 0
    assert open(res.path).read().splitlines() == \
        ["eps,re,im,multiplicity,residual"]


def test_spectrum_json_format(tmp_path):
    cfg = h.config_from_dict(_base_cfg(out=tmp_path, format="json"))
    res = h.run_spectrum(cfg)
    assert res.path.endswith("spectrum.json")
    data = json.load(open(res.path))
    (run,) = data["runs"]
    assert run["eps"] == 1.0
    (root,) = run["roots"]
    assert root["re"] == pytest.approx(0.567143290409784, abs=1e-12)
    assert root["multiplicity"] == 1


def test_cli_flags_are_parsed_as_config_entries(tmp_path, monkeypatch,
                                                capsys):
    # the file lacks eps, which the flag supplies; grid.omega_range is
    # kept while the grid flags replace omega and phase
    data = _base_cfg(grid={"omega": 5, "omega_range": [-2.0, 2.0]})
    del data["eps"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    seen = []
    monkeypatch.setattr(harness, "run_spectrum", lambda cfg: seen.append(cfg)
                        or h.SpectrumResult(runs=(), path=None))
    # a list value starting with "-" may follow its flag, or a prefix of
    # its flag, as the next token
    for window in (["--window=-1,1,-2,2"], ["--window", "-1,1,-2,2"],
                   ["--win", "-1,1,-2,2"]):
        assert cli.main(["spectrum", "--config", str(path), "--eps",
                         "0.5,0.25", *window, "--out", "x", "--format",
                         "json", "--grid-omega", "21", "--grid-phase", "8",
                         "--tol", "1e-8"]) == 0
    assert len(seen) == 3
    for cfg in seen:
        assert cfg.eps_list == (0.5, 0.25)
        assert cfg.window == h.Rectangle(-1.0, 1.0, -2.0, 2.0)
        assert cfg.out_dir == "x" and cfg.out_format == "json"
        assert cfg.grid == h.GridSpec(omega_count=21, phase_count=8,
                                      omega_range=(-2.0, 2.0))
        assert cfg.tol == 1e-8
    # a malformed flag is refused like the config entry it replaces
    for flags in (["--eps", "0.5", "--window", "1,2,3"],
                  ["--eps", "0.5,0.5"], ["--eps", "0.5,x"]):
        assert cli.main(["spectrum", "--config", str(path)] + flags) == 2
        assert "configuration error" in capsys.readouterr().err
    assert len(seen) == 3


def _matches(cell, value):
    """Whether a CSV cell holds the JSON field value it was written from."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("1" if value else "0")
    return float(cell) == float(value)  # float("inf") reads "inf" too


def _check_csv_against_json(csv_path, groups):
    """Every CSV row equals, column by column, its JSON field object;
    ``groups`` gives (eps, objects) in file order."""
    header, *rows = [line.split(",") for line
                     in csv_path.read_text().splitlines()]
    want = [(eps, obj) for eps, objs in groups for obj in objs]
    assert len(rows) == len(want) > 0
    for row, (eps, obj) in zip(rows, want):
        assert sorted(header) == sorted(["eps", *obj])
        cells = dict(zip(header, row))
        assert float(cells.pop("eps")) == eps
        for col, cell in cells.items():
            assert _matches(cell, obj[col]), (col, cell, obj[col])


def test_csv_rows_equal_json_fields(tmp_path, monkeypatch):
    # validate.json is written in both formats; the low cap leaves some
    # roots unassigned, so both flag values occur
    monkeypatch.setattr(harness, "DISTANCE_CAP", 2e-3)
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05,),
                          out_dir=str(tmp_path))
    h.run_validate(cfg)
    data = json.loads((tmp_path / "validate.json").read_text())
    groups = [(rec["eps"], rec["assignments"]) for rec in data["records"]]
    assert {a["assigned"] for _, objs in groups for a in objs} == {True, False}
    _check_csv_against_json(tmp_path / "validate.csv", groups)

    (window,) = h.validation_window(cfg)
    for fmt in ("csv", "json"):
        h.run_spectrum(replace(cfg, window=window, out_format=fmt))
    data = json.loads((tmp_path / "spectrum.json").read_text())
    _check_csv_against_json(tmp_path / "spectrum.csv",
                            [(run["eps"], run["roots"]) for run in data["runs"]])


def _spell_infinities(v):
    """``v`` with each infinite float replaced by "inf" or "-inf", as the
    JSON writer spells it."""
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if isinstance(v, dict):
        return {k: _spell_infinities(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_spell_infinities(x) for x in v]
    return v


def test_json_emitter_equals_json_dumps():
    rows = [{"x": 1.5, "flag": True, "n": 3, "s": "inf", "none": None},
            {"x": float("nan"), "flag": False, "n": -2, "s": "-inf",
             "none": 5e-324}]
    obj = {"empty": {}, "list": [], "none": None, "yes": True, "no": False,
           "int": 7, "neg0": -0.0, "tiny": 5e-324, "huge": 1e300,
           "nan": float("nan"), "inf": float("inf"),
           "ninf": float("-inf"), "strs": ["inf", "-inf"],
           "rows": rows, "nested": [[rows], {"deep": rows[:1]}],
           "odd %s keys": [{"a%": 1.0, "é": "ü\n"}],
           "mixed": [{"a": 1}, {"b": 2}], "not_flat": [{"a": [1.0]}]}
    spelled = _spell_infinities(obj)
    want = json.dumps(spelled, indent=1, sort_keys=True)
    assert _joined(harness._json_chunks(obj, 0)) == want
    for part, spelled_part in zip(obj.values(), spelled.values()):
        assert _joined(harness._json_chunks(part, 0)) == json.dumps(
            spelled_part, indent=1, sort_keys=True)


def _joined(chunks):
    """The text of a producer's chunks, deferred ones formatted."""
    return "".join(harness._text(chunks))


def _columns(rows, width):
    """One list per column of ``width`` columns, from row tuples."""
    return tuple([r[i] for r in rows] for i in range(width))


def _table(columns, values):
    """Records of ``values`` whose records are the objects json writes for
    them: one dict per record, keyed by ``columns``."""
    return h.Records(columns, values, lambda *v: dict(zip(columns, v)))


@pytest.mark.parametrize("depth", [0, 3])
def test_rows_json_equals_json_dumps_of_their_objects(depth):
    # Records are written as json writes the same rows as objects, keys
    # sorted, at any depth
    columns = ("re", "im", "flag", "scale", "distance", "odd %s")
    rows = [(1.5, -0.0, True, 2, "inf", "%"),
            (float("nan"), 5e-324, False, None, "-inf", "é"),
            (-2.0, 1e300, True, 0, 0.25, None)]
    for part in (rows, rows[:1], []):
        table = _table(columns, _columns(part, len(columns)))
        objs = [dict(zip(columns, r)) for r in part]
        assert list(table) == objs
        obj, want = table, objs
        for _ in range(depth):
            obj, want = {"k": [obj]}, {"k": [want]}
        assert _joined(harness._json_chunks(obj, 0)) == json.dumps(
            want, indent=1, sort_keys=True)


_FLOATS = [0.1, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, float("nan"),
           float("inf"), float("-inf"), 1.0 / 3.0, -123456789.125]
# one column of each kind: the writers convert a float, int or flag column
# at once and a column that mixes kinds value by value
_KINDS = {"float": _FLOATS, "int": [0, -1, 7, 2 ** 70, -(2 ** 63)],
          "none": [None, None], "bool": [True, False, False],
          "float-none": [0.5, None, float("-inf")], "int-none": [2, None, 0],
          "int-float": [1, 1.0, -0.0], "bool-int": [True, 1, 0],
          "str": ["inf", "-inf", "x"]}


def _oracle_cell(v):
    """A CSV cell as the file format defines it, value by value."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_column_writers_equal_per_value_oracles(kind, size):
    # a column beside a float column of other values: JSON as json.dumps
    # writes the objects, CSV as "%.17g" (or the cell rule) writes each
    # value, with the group's leading eps first
    values = (_KINDS[kind] * size)[:size]
    other = np.random.default_rng(size).standard_normal(size).tolist()
    if kind == "float" and size == 1000:  # subnormal to near overflow
        rng = np.random.default_rng(1)
        values = np.ldexp(rng.standard_normal(size),
                          rng.integers(-1070, 1020, size)).tolist()
    objs = [{"a": v, "b": w} for v, w in zip(values, other)]
    got = _joined(harness._json_chunks(_table(("b", "a"), (other, values)),
                                       0))
    assert got == json.dumps(_spell_infinities(objs), indent=1,
                             sort_keys=True)
    got = _joined(harness._csv_text(("eps", "a", "b"),
                                    [((0.25,), (values, other))]))
    assert got == "eps,a,b\n" + "".join(
        f"0.25,{_oracle_cell(v)},{_oracle_cell(w)}\n"
        for v, w in zip(values, other))


_CHUNK = harness._CHUNK_RECORDS


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                  2 * _CHUNK + 3])
def test_record_writers_across_chunk_boundaries(size):
    # the writers format _CHUNK_RECORDS records per %: at every count
    # around a chunk boundary the text is json.dumps of the records (at
    # depth 0 and nested) and the per-cell CSV oracle, with a column of
    # each kind, a column whose kind changes between chunks, and two CSV
    # groups with their leading values
    columns = tuple(sorted(_KINDS)) + ("chunk-kinds", "odd %s")
    values = [(_KINDS[k] * size)[:size] for k in sorted(_KINDS)]
    values.append([float(i) if i < _CHUNK else (None, 3)[i % 2]
                   for i in range(size)])
    values.append(np.random.default_rng(size).standard_normal(size).tolist())
    table = _table(columns, tuple(values))
    objs = _spell_infinities(list(table))
    assert len(objs) == size
    # texts compared line by line: a failure reports the first line that
    # differs, not a diff of megabytes
    got = _joined(harness._json_chunks(table, 0))
    assert got.split("\n") == json.dumps(objs, indent=1,
                                         sort_keys=True).split("\n")
    got = _joined(harness._json_chunks({"runs": [{"rows": table}]}, 0))
    assert got.split("\n") == json.dumps({"runs": [{"rows": objs}]},
                                         indent=1, sort_keys=True).split("\n")
    tail = tuple(col[:3] for col in values)
    got = _joined(harness._csv_text(("eps", "n") + columns, [
        ((0.25, 7), table.values), ((1e-300, -1), tail)]))
    lines = [",".join(["eps", "n", *columns])]
    for lead, cols in (((0.25, 7), table.values), ((1e-300, -1), tail)):
        lines += [",".join(map(_oracle_cell, lead + row))
                  for row in zip(*cols)]
    assert got.split("\n") == lines + [""]


# --- the writer: one per run, half of each large file in a forked child -----

def _writer_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("wrote ")]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _both_ways(tmp_path, monkeypatch, caplog, run):
    """The files ``run(out_dir)`` writes, as {name: bytes}, its return
    value and the writer's DEBUG messages, one per file: in-process (one
    CPU) and with forked children (threshold 0)."""
    monkeypatch.setattr(harness, "_FORK_VALUES", 0)
    got = {}
    for way in ("in-process", "forked"):
        out = tmp_path / way
        with monkeypatch.context() as m, \
                caplog.at_level(logging.DEBUG, logger="hierdde"):
            if way == "in-process":
                m.setattr(harness, "_cpus", lambda: 1)
            caplog.clear()
            result = run(str(out))
        got[way] = ({p.name: p.read_bytes() for p in out.iterdir()}, result,
                    _writer_messages(caplog))
    _no_child_left()
    return got["in-process"], got["forked"]


def _shares(msg):
    """(values, formatted here, formatted by the child) of a forked
    file's DEBUG message."""
    assert msg.endswith("by a forked child"), msg
    values, here, child = map(int, re.findall(r"\d+", msg))
    assert here + child == values and here > 0 and child > 0
    return values, here, child


def _manifolds(system, fmt, omegas, phases):
    def run(out):
        res = h.run_manifolds(h.RunConfig(
            system=system, eps_list=(0.1,), out_dir=out, out_format=fmt,
            grid=h.GridSpec(omegas, phases, (-3.2, 3.2))))
        return [os.path.basename(p) for p in res.paths]
    return run


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("omegas, phases", [(1023, 1), (1024, 1), (1025, 1),
                                            (1024, 2), (1025, 2)])
def test_forked_manifold_files_equal_in_process_ones(
        fmt, omegas, phases, tmp_path, monkeypatch, caplog):
    # fig3's one manifold file, whose lattices hold about one, two or
    # three chunks of _CHUNK_RECORDS points (set to 1024 here), splits
    # near half its values: the child writes the tail to a .part file
    # that the parent appends.  The parent's share ends at the chunk
    # boundary nearest half, so the two shares differ by at most one
    # chunk's values (5 a point at scale 2)
    monkeypatch.setattr(harness, "_CHUNK_RECORDS", 1024)
    run = _manifolds(h.preset_system("fig3"), fmt, omegas, phases)
    (files, paths, log), (forked, fpaths, flog) = _both_ways(
        tmp_path, monkeypatch, caplog, run)
    assert list(files) == [f"manifolds.{fmt}"] == paths == fpaths
    assert forked == files
    (msg,) = log
    assert msg.endswith("values in-process: one CPU")
    (msg,) = flog
    _, here, child = _shares(msg)
    assert abs(here - child) <= 5 * 1024


def test_forked_tilde_manifold_files_equal_in_process_ones(
        tmp_path, monkeypatch, caplog):
    # two files of two chunks or more each: each splits near half of its
    # own values, with its own forked child and DEBUG record, the shares
    # at most one chunk's values apart (3 branches of 5 values a point)
    monkeypatch.setattr(harness, "_CHUNK_RECORDS", 1024)
    run = _manifolds(h.system_from_dict(_TILDE_SYS), "csv", 1025, 2)
    (files, _, log), (forked, _, flog) = _both_ways(tmp_path, monkeypatch,
                                                    caplog, run)
    assert sorted(files) == ["manifolds.csv", "manifolds_tilde.csv"]
    assert forked == files
    assert len(log) == len(flog) == 2
    for msg in flog:
        _, here, child = _shares(msg)
        assert abs(here - child) <= 15 * 1024


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("chunk", [191, 382, 383, 384])
def test_forked_validate_files_equal_in_process_ones(
        fmt, chunk, tmp_path, monkeypatch, caplog):
    # 383 roots at eps 0.05, written in chunks of about half of them, of
    # all but one, or of all: validate.json and validate.csv format 3,830
    # values each, and each file splits on its own at the chunk boundary
    # nearest half of them; a file of one chunk stays in-process
    monkeypatch.setattr(harness, "_CHUNK_RECORDS", chunk)

    def run(out):
        cfg = replace(h.preset_config("fig2-unstable", (0.05,), out),
                      out_format=fmt)
        return h.run_validate(cfg).records[0].count

    (files, count, _), (forked, fcount, flog) = _both_ways(
        tmp_path, monkeypatch, caplog, run)
    assert count == fcount == 383
    assert sorted(files) == (["validate.csv", "validate.json"]
                             if fmt == "csv" else ["validate.json"])
    assert forked == files
    shares = {191: (1910, 1920), 382: (3820, 10)}.get(chunk)
    want = ("wrote 3830 values: %d formatted here, %d by a forked child"
            % shares if shares else
            "wrote 3830 values in-process: below the threshold")
    assert flog == [want] * len(files)


def test_forked_example_files_equal_in_process_ones(
        tmp_path, monkeypatch, caplog):
    def run(out):
        return h.run_example("fig3", out_dir=out)

    (files, summary, _), (forked, fsummary, _) = _both_ways(
        tmp_path, monkeypatch, caplog, run)
    assert len(files) == 3 and forked == files
    assert json.dumps(fsummary) == json.dumps(summary)


def _chunk(text, values=10):
    """A deferred chunk of ``text`` that counts as ``values`` values."""
    return values, lambda: text


def _fail():
    raise ZeroDivisionError("a failing chunk")


@pytest.mark.parametrize("layout", ["parent", "child tail",
                                    "second file tail"])
def test_a_failing_chunk_raises_in_the_caller(layout, tmp_path, monkeypatch):
    # a chunk that raises in the parent's share, in the child's tail, or
    # in the tail of a second forked file: the caller sees its error, and
    # no .part file and no child is left
    monkeypatch.setattr(harness, "_FORK_VALUES", 0)
    one, two = str(tmp_path / "one.txt"), str(tmp_path / "two.txt")
    bad = (10, _fail)
    files = {"parent": [(one, ["[", bad, _chunk("a"), _chunk("b")])],
             "child tail": [(one, ["[", _chunk("a"), _chunk("b"), bad])],
             "second file tail": [(one, [_chunk("a"), _chunk("b")]),
                                  (two, [_chunk("c"), _chunk("d"), bad])],
             }[layout]
    with pytest.raises(ZeroDivisionError, match="a failing chunk"):
        harness._write_files(files)
    assert not list(tmp_path.glob("*.part"))
    _no_child_left()


def test_a_chunk_failing_only_in_the_child_is_written_by_the_parent(
        tmp_path, monkeypatch, caplog):
    # the parent writes each failed child's share itself: the same bytes,
    # and one record per file
    monkeypatch.setattr(harness, "_FORK_VALUES", 0)
    parent = os.getpid()

    def here_only():
        if os.getpid() != parent:
            _fail()
        return "c"

    one, two = str(tmp_path / "one.txt"), str(tmp_path / "two.txt")
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        harness._write_files([
            (one, ["[", _chunk("a"), _chunk("b"), (10, here_only), "]"]),
            (two, ["(", _chunk("d"), (5, here_only), ")"])])
    assert (tmp_path / "one.txt").read_text() == "[abc]"
    assert (tmp_path / "two.txt").read_text() == "(dc)"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.txt",
                                                          "two.txt"]
    assert _writer_messages(caplog) == [
        "wrote 30 values in-process: the forked child failed",
        "wrote 15 values in-process: the forked child failed"]
    _no_child_left()


def test_each_large_file_splits_near_half_of_its_own_values(
        tmp_path, monkeypatch, caplog):
    # each file splits after the deferred chunk whose running count lies
    # nearest half of its own values (the first of equals), with its own
    # child and record; a file of one deferred chunk stays in-process
    monkeypatch.setattr(harness, "_FORK_VALUES", 0)
    files = [(str(tmp_path / "one.txt"),
              ["["] + [_chunk(str(i)) for i in range(10)] + ["]"]),
             (str(tmp_path / "two.txt"),
              [_chunk("a", 30), ",", _chunk("b", 5), _chunk("c", 5),
               _chunk("d", 5), _chunk("e", 30)]),
             (str(tmp_path / "three.txt"), ["<", _chunk("f"), ">"])]
    with caplog.at_level(logging.DEBUG, logger="hierdde"):
        harness._write_files(files)
    assert (tmp_path / "one.txt").read_text() == "[0123456789]"
    assert (tmp_path / "two.txt").read_text() == "a,bcde"
    assert (tmp_path / "three.txt").read_text() == "<f>"
    assert _writer_messages(caplog) == [
        "wrote 100 values: 50 formatted here, 50 by a forked child",
        "wrote 75 values: 35 formatted here, 40 by a forked child",
        "wrote 10 values in-process: below the threshold"]
    assert not list(tmp_path.glob("*.part"))
    _no_child_left()


@pytest.mark.parametrize("reason", ["no fork on the platform", "one CPU",
                                    "other threads", "below the threshold"])
def test_writer_stays_in_process(reason, tmp_path, monkeypatch, caplog):
    # each reason keeps the write in this process (os.fork is never
    # called) and is named in the writer's one DEBUG record
    import threading

    def no_fork():
        raise AssertionError("forked")

    if reason == "no fork on the platform":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    if reason == "one CPU":
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
    if reason != "below the threshold":
        monkeypatch.setattr(harness, "_FORK_VALUES", 0)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if reason == "other threads":
        other.start()
    try:
        with caplog.at_level(logging.DEBUG, logger="hierdde"):
            harness._write_files([(str(tmp_path / "a" / "one.txt"),
                                   ["[", _chunk("a"), _chunk("b"), "]"])])
    finally:
        stop.set()
        if reason == "other threads":
            other.join(timeout=10.0)
    assert not other.is_alive()
    assert (tmp_path / "a" / "one.txt").read_text() == "[ab]"
    assert _writer_messages(caplog) == [f"wrote 20 values in-process: "
                                        f"{reason}"]


def test_example_json_writes_infinite_sup_as_a_string(tmp_path):
    # fig3's scale-2 supremum is unbounded both ways: "inf" in the file
    h.run_example("fig3", out_dir=str(tmp_path), out_format="json")
    text = (tmp_path / "example_fig3.json").read_text()
    data = json.loads(text)
    assert data["sup_gamma2_closed"] == data["sup_gamma2_general"] == "inf"
    assert data["sup_gamma2_discrepancy"] == 0.0
    assert text == json.dumps(data, indent=1, sort_keys=True) + "\n"
    assert not list(tmp_path.glob("*.csv"))


def test_validation_window_precedence():
    # an explicit window applies to every eps as-is
    cfgw = h.config_from_dict({"system": SCALAR_SYS, "eps": [0.5, 0.25],
                               "window": [-9.0, 9.0, -1.0, 1.0]})
    assert h.validation_window(cfgw) == [h.Rectangle(-9.0, 9.0, -1.0, 1.0)] * 2
    # a half-width rule scales with eps
    cfgc = h.config_from_dict({
        "system": {"d": 1, "n": 2, "sigma": [1.0, 1.0], "A0": [[[-0.4, 0.5]]],
                   "A1": [[[0.1, 0.0]]], "A2": [[[0.2, 0.0]]]},
        "eps": [0.5, 0.25],
        "validation": {"re_halfwidth_coef": 0.4}})
    wins = h.validation_window(cfgc)
    assert wins[0].re_max == pytest.approx(0.2)
    assert wins[1].re_max == pytest.approx(0.1)
    assert wins[0].im_max == 3.0


def test_validation_window_from_top_scale_sup():
    # default rule: half-width 10 * eps^n * (1 + |top-scale sup|)
    cfg = h.preset_config("fig2-stable", eps_list=(0.05,))
    (win,) = h.validation_window(cfg)
    want = 10.0 * 0.05 ** 2 * (1.0 + abs(np.log(1.5)))
    assert win.re_max == pytest.approx(want, rel=1e-6)
    assert win.re_min == pytest.approx(-want, rel=1e-6)


def test_validation_window_refuses_infinite_sup():
    cfg = h.config_from_dict({"system": h.system_to_dict(h.preset_system("fig3")),
                              "eps": [0.05]})
    with pytest.raises(ConfigError):
        h.validation_window(cfg)
    # the packaged preset carries its own half-width rule instead
    (win,) = h.validation_window(h.preset_config("fig3", eps_list=(0.05,)))
    assert win.re_max == pytest.approx(0.4 * 0.05)


def test_run_classify_writes_verdict(tmp_path):
    cfg = h.config_from_dict({"system": h.system_to_dict(h.preset_system("fig2-stable")),
                              "eps": [0.05], "out": str(tmp_path)})
    h.run_classify(cfg)
    data = json.load(open(tmp_path / "classify.json"))
    assert data["status"] == "Stable"
    assert data["scale"] is None
    assert len(data["sup_gammas"]) == 2


def test_classify_strongly_unstable_writes_its_eigenvalue(tmp_path, capsys):
    # Re a > 0: the eigenvalue a of the eps -> 0 limit is the witness, and
    # no supremum is computed; the system comes from a saved system file
    h.save_system(h.DelaySystem.scalar(0.1 + 0.5j, (0.1, 0.2)),
                  tmp_path / "sys.json")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"system": "sys.json", "eps": [0.5]}))
    h.run_classify(replace(h.load_config(cfg_path), out_dir=str(tmp_path)))
    path = tmp_path / "classify.json"
    data = json.loads(path.read_text())
    assert data["status"] == "StronglyUnstable"
    assert data["scale"] is None
    assert data["sup_gammas"] == []
    assert data["witness"] == {"eigenvalue": [0.1, 0.5]}
    assert path.read_text() == _reencoded(path)
    assert cli.main(["classify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "cli")]) == 0
    assert capsys.readouterr().out == "classify: StronglyUnstable\n"
    assert (tmp_path / "cli" / "classify.json").read_bytes() == \
        path.read_bytes()


def test_run_manifolds_writes_samples(tmp_path):
    cfg = h.config_from_dict({"system": SCALAR_SYS, "eps": [1.0],
                              "out": str(tmp_path), "grid": {"omega": 11}})
    res = h.run_manifolds(cfg)
    assert len(res.paths) >= 1
    lines = open(res.paths[0]).read().splitlines()
    assert lines[0].startswith("k,omega")
    total = sum(len(v) for v in res.plain.values()) \
        + sum(len(v) for v in res.tilde.values())
    assert len(lines) == 1 + total
    assert sorted(res.plain.keys()) == [1]
    assert len(res.plain[1]) == 11


def test_run_validate_report(tmp_path):
    cfg = h.config_from_dict({"system": TWO_DELAY_SYS, "eps": [0.1],
                              "window": [0.0, 0.6, -0.5, 0.5],
                              "out": str(tmp_path)})
    rep = h.run_validate(cfg)
    (rec,) = rep.records
    assert rec.eps == 0.1 and rec.count == 1
    assert rec.strong_matches == 1
    (a,) = rec.assignments
    assert a.assigned and a.scale == 0 and a.multiplicity == 1
    assert a.distance <= 0.01
    assert a.runner_up_distance > a.distance
    assert rec.max_distance == {0: pytest.approx(a.distance)}
    assert (tmp_path / "validate.json").exists()
    assert (tmp_path / "validate.csv").exists()


def test_run_validate_through_subdivision_alone(monkeypatch):
    # without seeds every root comes from subdivision: the same counts,
    # scales and eigenvalues (to tol) as the seeded route
    cfg = h.preset_config("fig2-unstable", eps_list=(0.05,))
    seeded = h.run_validate(cfg, write=False)
    monkeypatch.setattr(harness, "axis_seeds",
                        lambda sys_, eps, rect: np.empty(0, complex))
    alone = h.run_validate(cfg, write=False)
    (a,), (b,) = seeded.records, alone.records
    assert a.count == b.count == 383
    assert [x.scale for x in a.assignments] == [x.scale for x in b.assignments]
    za = np.array([x.eigenvalue for x in a.assignments])
    zb = np.array([x.eigenvalue for x in b.assignments])
    assert np.abs(za - zb).max() <= cfg.tol
    assert a.max_distance[2] == pytest.approx(b.max_distance[2], abs=1e-6)


def test_run_example_artifacts(tmp_path):
    summary = h.run_example("fig2-stable", out_dir=str(tmp_path))
    assert sorted(summary.keys()) == [
        "gamma1_zeros", "max_gamma1_discrepancy", "max_gamma2_discrepancy",
        "name", "params", "scale_closed", "scale_general", "singular_phases",
        "status_closed", "status_general", "sup_gamma2_closed",
        "sup_gamma2_discrepancy", "sup_gamma2_general"]
    assert summary["name"] == "fig2-stable"
    assert summary["max_gamma1_discrepancy"] <= 1e-6
    assert summary["max_gamma2_discrepancy"] <= 1e-6
    assert summary["sup_gamma2_discrepancy"] <= 1e-4
    assert summary["status_closed"] == summary["status_general"] == "Stable"
    assert summary["gamma1_zeros"] is None
    for name in ("example_fig2-stable.json", "example_fig2-stable_gamma1.csv",
                 "example_fig2-stable_gamma2.csv"):
        assert (tmp_path / name).exists(), name


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base_cfg(out=tmp_path / "out")))
    assert cli.main(["spectrum", "--config", str(good)]) == 0
    assert "spectrum" in capsys.readouterr().out
    assert (tmp_path / "out" / "spectrum.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_base_cfg(bogus=1)))
    assert cli.main(["spectrum", "--config", str(bad)]) == 2
    assert cli.main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2

    guard = tmp_path / "guard.json"
    guard.write_text(json.dumps({
        "system": {"d": 1, "n": 2, "sigma": [1.0, 1.0], "A0": [[[0.0, 0.0]]],
                   "A1": [[[1.0, 0.0]]], "A2": [[[1.0, 0.0]]]},
        "eps": [0.01], "window": [-0.08, 0.08, -1.0, 1.0],
        "out": str(tmp_path / "out3")}))
    assert cli.main(["spectrum", "--config", str(guard)]) == 3

    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps({
        "system": {"d": 2, "n": 1, "sigma": [1.0],
                   "A0": [[[-1.2, 0.0], [0.7, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                   "A1": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        "eps": [0.1], "out": str(tmp_path / "out4")}))
    assert cli.main(["classify", "--config", str(degen)]) == 4
    capsys.readouterr()

    # any other library error: the scale-1 polynomial vanishes at both
    # lattice points, so classify raises TrivialityError
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({
        "system": TRIVIAL_SYS, "eps": [0.1], "out": str(tmp_path / "out5"),
        "grid": {"omega": 2, "phase": 1, "omega_range": [-1.0, 1.0]}}))
    assert cli.main(["classify", "--config", str(trivial)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_overrides_and_example(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base_cfg(out=tmp_path / "o1")))
    assert cli.main(["spectrum", "--config", str(good),
                     "--format", "json", "--out", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o2" / "spectrum.json").exists()
    assert cli.main(["example", "fig2-stable", "--out", str(tmp_path / "ex")]) == 0
    assert (tmp_path / "ex" / "example_fig2-stable.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("change, message", [
    ({"eps_list": ()}, "eps list must be nonempty"),
    ({"eps_list": (0.05, 0.05)}, "eps list must be strictly decreasing"),
    ({"window": (0.0, 1.0, -1.0, 1.0)}, "window must be a Rectangle"),
    ({"out_format": "xml"}, "format must be csv or json, got 'xml'"),
    ({"tol": 0.0}, "tol must be finite and positive"),
    ({"tol": math.inf}, "tol must be finite and positive"),
    ({"tol": math.nan}, "tol must be finite and positive"),
    ({"re_halfwidth_coef": 0.0},
     "half-width coefficient must be finite and positive"),
    ({"re_halfwidth_coef": math.inf},
     "half-width coefficient must be finite and positive"),
    ({"re_halfwidth_coef": math.nan},
     "half-width coefficient must be finite and positive"),
], ids=["eps-empty", "eps-not-decreasing", "window", "format", "tol",
        "tol-inf", "tol-nan", "halfwidth-coef",
        "halfwidth-coef-inf", "halfwidth-coef-nan"])
def test_run_config_refuses(change, message):
    system = h.config_from_dict(_base_cfg()).system
    with pytest.raises(ConfigError, match=f"^{message}$"):
        h.RunConfig(**{"system": system, "eps_list": (0.5,), **change})


@pytest.mark.parametrize("data, message", [
    ([], "config must be a JSON object"),
    ({"eps": [0.5]}, "config needs a 'system' entry"),
    ({"system": SCALAR_SYS}, "config needs an 'eps' entry"),
    (_base_cfg(grid=5), "'grid' must be an object"),
    (_base_cfg(validation=5), "'validation' must be an object"),
], ids=["not-object", "no-system", "no-eps", "grid-not-object",
        "validation-not-object"])
def test_config_from_dict_refuses(data, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        h.config_from_dict(data)


def test_unknown_preset_is_refused():
    with pytest.raises(ConfigError, match="^unknown example 'nope'; choose "
                       "from fig2-neutral, fig2-stable, fig2-unstable, fig3$"):
        h.preset_config("nope")


def test_run_spectrum_refuses_missing_window():
    cfg = h.config_from_dict({"system": SCALAR_SYS, "eps": [0.5]})
    with pytest.raises(ConfigError, match="^spectrum needs an explicit window$"):
        h.run_spectrum(cfg, write=False)


# the fig2-unstable system at eps 0.05 on a coarse grid
CLI_CFG = {"system": TWO_DELAY_SYS | {"A0": [[[-0.4, 0.5]]],
                                      "A2": [[[0.4, 0.0]]]},
           "eps": [0.05], "window": [-0.03, 0.03, -3.0, 3.0],
           "grid": {"omega": 41, "phase": 8}}


@pytest.mark.parametrize("command, summary", [
    ("manifolds", r"manifolds: \d+ samples -> .*manifolds\.csv"),
    ("classify", r"classify: WeaklyUnstable at scale 2"),
    ("validate", r"validate eps=0\.05: \d+ eigenvalues, worst assigned "
                 r"distance \S+"),
])
def test_cli_subcommand_prints_summary(command, summary, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CLI_CFG | {"out": str(tmp_path / "out")}))
    assert cli.main([command, "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert re.fullmatch(summary, out.strip())
