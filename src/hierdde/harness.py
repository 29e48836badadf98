"""Run configuration, system files, workflow drivers, and file emission.

The command line wraps the ``run_*`` functions here; tests drive them
directly.  This module alone reads and writes files: config and system
files are parsed here, and results become file text here.  A CSV float
is ``"%.17g" % v``, and one vectorised kernel, ``_g17``, makes every such
text (record columns, manifold heights and roots, axis coordinates and
leading cells): exactly, for 1e-4 <= |v| < 1e17, by Dekker's
two-product, fixed texts for +-0, +-inf and nan, and ``%`` itself for
any other value.  A JSON float is json's repr with every infinity the
string "inf" or "-inf", and every collection is sorted
deterministically, so identical configs produce byte-identical files.
Every written JSON file, a saved system included, is laid out as
``json.dumps(obj, indent=1, sort_keys=True)`` plus a newline.

Each run writes its files through one writer, ``_write_files``, which
lists every chunk of a file's text before it formats any.  A file of at
least ``_FORK_VALUES`` values splits near half of them: this process
formats the head, and one ``os.fork`` child the tail, to a ``.part`` file
that this process appends.  It forks only when ``os.fork`` exists, the
process may run on at least 2 CPUs and no other Python thread is alive;
otherwise, and when the child fails, the file is this process's alone.
The bytes are the same either way.  Native threads, such as the BLAS
pool that numpy starts at import, may be alive at the fork: the child
only formats text by ``%`` from ``tolist``, element-wise numpy (the
kernel too: its arithmetic, table takes and ``bytes.translate``) and
``os.write``, writes its file and ends in ``os._exit``, so it never calls
into BLAS or waits on a lock that such a thread may hold.
"""

import contextlib
import functools
import json
import logging
import math
import os
import shutil
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .classify import classify, lattice_sup, sup_gamma
from .degeneracy import build_ladder
from .errors import ConfigError, TrivialityError
from .manifolds import (GridSpec, ManifoldTable, assemble_A_k, axis_seeds,
                        lattice_points, manifold_grid, strong_spectrum,
                        window_count)
from .model import (DelaySystem, _checked, _count, _real, _reals,
                    char_function, check_eps)
from .rootfinder import _ROOT_COLUMNS, Records, Rectangle, find_roots
from . import scalar2

__all__ = [
    "RunConfig", "Assignment", "EpsRecord", "ValidationReport",
    "SpectrumRun", "SpectrumResult", "ManifoldsResult",
    "system_to_dict", "system_from_dict", "save_system", "load_system",
    "config_from_dict", "load_config", "validation_window",
    "run_spectrum", "run_validate", "run_manifolds", "run_classify",
    "run_example", "preset_params", "preset_system", "preset_config",
    "PRESET_NAMES", "manifold_csv",
]

# a root farther than this from every sampled asymptotic set stays unassigned
DISTANCE_CAP = 1.0
# half-height of every derived validation window, |Im lam| <= IM_MAX
IM_MAX = 3.0
_log = logging.getLogger("hierdde")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One workflow invocation: the system plus search and output settings.

    ``window`` is used as-is when set; otherwise validation derives a
    per-eps window of half-width ``re_halfwidth_coef * eps`` when the
    coefficient is set, else ``10 * eps**n * (1 + |sup gamma top scale|)``
    (which needs that sup to be finite), and of half-height ``IM_MAX``.
    """

    system: DelaySystem
    eps_list: tuple
    window: object = None
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float = 1e-9
    out_dir: str = "."
    out_format: str = "csv"
    re_halfwidth_coef: object = None

    def __post_init__(self):
        eps = tuple(check_eps(e) for e in self.eps_list)
        if not eps:
            raise ConfigError("eps list must be nonempty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps list must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        if self.window is not None and not isinstance(self.window, Rectangle):
            raise ConfigError("window must be a Rectangle")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, "
                              f"got {self.out_format!r}")

        def positive(name, what):
            v = _checked(_real, getattr(self, name), name)
            if not 0.0 < v < math.inf:
                raise ConfigError(f"{what} must be finite and positive")
            object.__setattr__(self, name, v)

        positive("tol", "tol")
        if self.re_halfwidth_coef is not None:
            positive("re_halfwidth_coef", "half-width coefficient")


def _fields(data, fields, what):
    """Keyword arguments parsed from one config object.

    ``fields`` maps each key to its keyword argument and parser.  Unknown
    keys and malformed values (a parser's TypeError or ValueError) raise
    ConfigError naming the key.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"'{what}' must be an object")
    extra = set(data) - set(fields)
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    return {name: _checked(parse, data[key], f"{what} value {key}")
            for key, (name, parse) in fields.items() if key in data}


def _read_json(path, what):
    """The parsed JSON content of a file; ``what`` names the file in the
    ConfigError that an unreadable or malformed file raises."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


# system files: d, n, sigma and A0..An, each matrix entry an [re, im] pair,
# bit-exact through json's float repr

def _matrix_to_pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _matrix_from_pairs(rows, d, name):
    try:
        arr = np.array([[complex(*_reals(p, 2)) for p in row] for row in rows],
                       np.complex128)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: entries must be [re, im] pairs") from exc
    if arr.shape != (d, d):
        raise ConfigError(f"{name}: expected shape ({d}, {d}), "
                          f"got {arr.shape}")
    return arr


def system_to_dict(sys):
    """JSON-ready dict with fields d, n, sigma and A0..An."""
    out = {"d": sys.d, "n": sys.n, "sigma": list(sys.sigma)}
    for i, M in enumerate(sys.matrices):
        out[f"A{i}"] = _matrix_to_pairs(M)
    return out


_SYSTEM_FIELDS = {"d": ("d", _count), "n": ("n", _count),
                  "sigma": ("sigma", _reals)}


def system_from_dict(data):
    """Inverse of ``system_to_dict`` with schema validation: a key other
    than d, n, sigma and A0..An is refused, as in a config object."""
    if not isinstance(data, dict):
        raise ConfigError("system description must be a JSON object")
    missing = [key for key in _SYSTEM_FIELDS if key not in data]
    if missing:
        raise ConfigError(f"system description missing field {missing[0]}")
    kw = _fields({key: data[key] for key in _SYSTEM_FIELDS}, _SYSTEM_FIELDS,
                 "system")
    d, n, sigma = kw["d"], kw["n"], kw["sigma"]
    if len(sigma) != n:
        raise ConfigError(f"sigma must have n={n} entries, got {len(sigma)}")
    extra = set(data) - set(_SYSTEM_FIELDS) - {f"A{i}" for i in range(n + 1)}
    if extra:
        raise ConfigError(f"unknown system keys: {sorted(extra)}")
    mats = []
    for i in range(n + 1):
        key = f"A{i}"
        if key not in data:
            raise ConfigError(f"system description missing matrix {key}")
        mats.append(_matrix_from_pairs(data[key], d, key))
    return DelaySystem(matrices=tuple(mats), sigma=tuple(sigma))


def save_system(sys, path):
    """Write ``system_to_dict(sys)`` as a JSON file."""
    _write_files([(path, _json_file(system_to_dict(sys)))])


def load_system(path):
    return system_from_dict(_read_json(path, "system file"))


_GRID_FIELDS = {"omega": ("omega_count", _count),
                "phase": ("phase_count", _count),
                "omega_range": ("omega_range", lambda v: tuple(_reals(v, 2)))}
_VALIDATION_FIELDS = {"re_halfwidth_coef": ("re_halfwidth_coef", _real)}
# every top-level key but system and validation
_CONFIG_FIELDS = {
    "eps": ("eps_list", lambda v: tuple(
        _reals([v] if isinstance(v, (int, float)) else v))),
    "window": ("window",
               lambda v: None if v is None else Rectangle(*_reals(v, 4))),
    "grid": ("grid", lambda v: GridSpec(**_fields(v, _GRID_FIELDS, "grid"))),
    "tol": ("tol", _real),
    "out": ("out_dir", str),
    "format": ("out_format", str),
}


def config_from_dict(data, base_dir="."):
    """RunConfig from a parsed JSON object; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    kw = _fields({k: v for k, v in data.items()
                  if k not in ("system", "validation")},
                 _CONFIG_FIELDS, "config")
    kw.update(_fields(data.get("validation", {}), _VALIDATION_FIELDS,
                      "validation"))
    if "system" not in data:
        raise ConfigError("config needs a 'system' entry")
    if "eps" not in data:
        raise ConfigError("config needs an 'eps' entry")
    src = data["system"]
    if isinstance(src, str):
        path = src if os.path.isabs(src) else os.path.join(base_dir, src)
        kw["system"] = load_system(path)
    else:
        kw["system"] = system_from_dict(src)
    return RunConfig(**kw)


def read_config(path):
    """The parsed JSON object of a config file, and the directory that its
    relative system path is resolved against."""
    return _read_json(path, "config"), os.path.dirname(path) or "."


def load_config(path):
    data, base_dir = read_config(path)
    return config_from_dict(data, base_dir=base_dir)


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------

# A producer yields a file's text as chunks: its structural text as
# strings, and each ``%`` block deferred, as a pair (the number of values
# it formats, a callable that returns its text).  ``_write_files`` lists
# every chunk of a file before it formats any.

# the values a file must format for a forked child to take half of them.
# With the CSV float kernel a value costs 0.25-0.35 us in-process, and on
# a 2-core VM (11 alternating writes per size, one process per size) a
# forked write broke even at 86,000-119,000 values of a validation and
# 227,000-260,000 of a manifold grid: the fork, its waitpid, the
# copy-on-write faults and a child that starts on the parent's CPU cost
# as much as half the formatting saves.  At 100,000 the 130,000-value
# manifold file of a scalar two-scale system on the default grid wrote
# 27% slower forked than in-process (see CHANGES.md)
_FORK_VALUES = 250_000


def _text(chunks):
    """The strings of ``chunks``, each deferred chunk formatted in turn."""
    for chunk in chunks:
        yield chunk if isinstance(chunk, str) else chunk[1]()


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on the platform
        return os.cpu_count() or 1


def _in_process(counts):
    """Why a file is written in this process alone, or None when a forked
    child takes half of it; ``counts`` are the values of each of its
    chunks.  Only Python threads count; native ones are safe to fork past
    (see the module docstring)."""
    if not hasattr(os, "fork"):
        return "no fork on the platform"
    if _cpus() < 2:
        return "one CPU"
    if threading.active_count() > 1:
        return "other threads"
    deferred = [n for n in counts if n]
    if sum(deferred) < _FORK_VALUES or len(deferred) < 2:
        return "below the threshold"
    return None


def _split(counts):
    """The number of chunks in the parent's share of a file: it ends after
    the deferred chunk whose running count of values (``counts``, per
    chunk) lies nearest half of their total, the first of equals.  With
    two deferred chunks or more, that is not the last one, so the child
    has a share."""
    total, seen, ends = sum(counts), 0, []
    for j, n in enumerate(counts, 1):
        if n:
            seen += n
            ends.append((abs(2 * seen - total), j))
    return min(ends)[1]


def _forked(path, chunks, j):
    """Write ``chunks`` to ``path``: the first ``j`` here, and the rest in
    a forked child, to ``path + ".part"``, which is appended here after
    the child exits and then removed; if the child fails, the rest is
    formatted here.  The values the child's ``_g17`` sent to %, passed
    back through a pipe, or None when the child failed."""
    part = path + ".part"
    r, w = os.pipe()
    pid = os.fork()
    if not pid:
        status = 1
        try:
            start = _FALLBACK
            with open(part, "w", newline="") as fh:
                fh.writelines(_text(chunks[j:]))
            os.write(w, b"%d" % (_FALLBACK - start))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(path, "w", newline="") as fh:
            try:
                fh.writelines(_text(chunks[:j]))
            finally:  # reaped even when this share raises
                ok = os.waitpid(pid, 0)[1] == 0
            if ok:
                fh.flush()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
                return int(os.read(r, 32))
            fh.writelines(_text(chunks[j:]))
    finally:
        os.close(r)
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)


def _write_files(files):
    """Write each ``(path, chunks)`` of one run, with its directories.

    A file that ``_in_process`` gives no reason against is split near half
    its values (``_split``) and written by ``_forked``: this process
    formats the head and one forked child the tail.  Every other file is
    written by this process alone.  Either way the bytes are those of
    writing every chunk in order.  One DEBUG record per file on logger
    ``hierdde`` gives the values each side formatted, or why the file was
    written in-process, with the ``extra`` fields ``path``, ``values``,
    ``here`` and ``child`` (the values each side formatted), ``why`` (None
    when forked) and ``fallback`` (the values that ``_g17`` sent to %).
    """
    for path, chunks in files:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        start = _FALLBACK
        chunks = list(chunks)
        counts = [0 if isinstance(c, str) else c[0] for c in chunks]
        total, why = sum(counts), _in_process(counts)
        j, sent = len(chunks), 0
        if why is None:
            j = _split(counts)
            sent = _forked(path, chunks, j)
            if sent is None:
                why, j, sent = "the forked child failed", len(chunks), 0
        else:
            with open(path, "w", newline="") as fh:
                fh.writelines(_text(chunks))
        here = sum(counts[:j])
        fields = {"path": path, "values": total, "here": here,
                  "child": total - here, "why": why,
                  "fallback": _FALLBACK - start + sent}
        if why:
            _log.debug("wrote %d values in-process: %s", total, why,
                       extra=fields)
        else:
            _log.debug("wrote %d values: %d formatted here, %d by a forked "
                       "child", total, here, total - here, extra=fields)


_JSON_WORDS = {"nan": "NaN", "inf": '"inf"', "-inf": '"-inf"'}
# records (lattice points of a manifold file) formatted by one %
_CHUNK_RECORDS = 4096


def _json_file(obj):
    """Chunks of a JSON file: ``json.dumps(obj, indent=1,
    sort_keys=True)`` plus a newline."""
    yield from _json_chunks(obj, 0)
    yield "\n"


def _json_value(v):
    """json's text for one scalar or empty container: ``float.__repr__``
    (NaN), null, true/false, ``int.__repr__``, or ``json.dumps``.  An
    infinity is the string "inf" or "-inf", in every written JSON file."""
    if isinstance(v, float):
        s = float.__repr__(v)
        return _JSON_WORDS.get(s, s)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    return json.dumps(v)


def _json_floats(values):
    """``_json_value`` of each of ``values``, all floats."""
    text = list(map(float.__repr__, values))
    return list(map(_JSON_WORDS.get, text, text))


# the text of a column whose values are all of one kind, in one pass
_JSON_KINDS = {float: _json_floats,
               int: lambda col: list(map(int.__repr__, col)),
               bool: lambda col: list(map(("false", "true").__getitem__, col)),
               type(None): lambda col: ["null"] * len(col)}
_CSV_KINDS = {float: lambda col: _g17(np.array(col)),
              int: _JSON_KINDS[int],
              bool: lambda col: list(map(("0", "1").__getitem__, col)),
              type(None): lambda col: [""] * len(col)}


def _chunked(n, width, fill):
    """Deferred chunks of ``n`` records of ``width`` values each,
    ``_CHUNK_RECORDS`` records a chunk.  ``fill(lo, hi)`` gives the row
    template and the columns (one list per argument of a record) of
    records lo..hi-1; the chunk's text is the template filled by one ``%``
    with the columns interleaved record by record."""
    def text(lo, hi):
        template, cols = fill(lo, hi)
        args = [None] * (len(cols[0]) * len(cols))
        for j, col in enumerate(cols):
            args[j::len(cols)] = col
        return template % tuple(args)

    for lo in range(0, n, _CHUNK_RECORDS):
        hi = min(lo + _CHUNK_RECORDS, n)
        yield (hi - lo) * width, functools.partial(text, lo, hi)


def _formatted(values, kinds, each, row, floats=None):
    """The text of ``row`` once per record, filled with the record's values
    from one array per column of ``values``, as ``_chunked`` chunks.  Given
    ``floats``, a chunk's float arrays take their text from one call of it
    over all of them.  A chunk of any other column becomes Python values by
    ``tolist`` (None where a masked array is masked); its text comes in one
    pass from ``kinds[kind]`` when those values are all of one kind, else
    value by value from ``each``."""
    def fill(lo, hi):
        cols = [col[lo:hi] for col in values]
        at = [j for j, col in enumerate(cols)
              if floats and col.dtype.kind == "f"]
        text = dict(zip(at, floats([cols[j] for j in at]) if at else ()))
        for j, col in enumerate(cols):
            if j not in text:
                col = col.tolist()
                kind = set(map(type, col))
                one = kinds.get(kind.pop()) if len(kind) == 1 else None
                text[j] = one(col) if one else list(map(each, col))
        return row * (hi - lo), [text[j] for j in range(len(cols))]

    return _chunked(len(values[0]), len(values), fill)


def _sample_chunks(table, fmts, axes, order, floats):
    """A ManifoldTable's samples as ``_chunked`` chunks of its kept
    lattice points.  Sample i of kind c (see ``ManifoldTable._branches``)
    and branch b takes the format ``fmts[c * dk + b]``, filled with its
    columns in ``order``.  The columns are the point's coordinate on each
    lattice axis, read from ``axes`` (its text, once per table), then
    gamma, Y_re and Y_im, one list each from ``floats`` of their arrays."""
    dk = table.dk
    finite = "".join(fmts[:dk])

    def fill(lo, hi):
        kind, gamma, Y = table._branches(lo, hi)
        cols = [c if dk == 1 else [v for v in c for _ in range(dk)]
                for c in table._coords(table._index(lo, hi), axes)]
        cols += floats([gamma, Y.real, Y.imag])
        if kind.any():
            codes = kind * dk + np.arange(kind.size) % dk
            template = "".join([fmts[c] for c in codes.tolist()])
        else:
            template = finite * (hi - lo)
        return template, [cols[c] for c in order]

    return _chunked(table.kept if dk else 0, dk * len(order), fill)


def _json_list(chunks, close):
    """A JSON list from the chunks of its items, each item led by a comma:
    the first comma becomes the opening bracket, and ``close`` ends it."""
    count, first = next(chunks)
    yield count, lambda: "[" + first()[1:]
    yield from chunks
    yield close


def _json_chunks(obj, depth):
    """Text of ``json.dumps(obj, indent=1, sort_keys=True)`` for ``obj``
    nested ``depth`` containers deep, in chunks (strings and deferred
    chunks), where ``Records`` stand for their list of objects keyed by
    their columns, and an infinity for "inf" or "-inf".  ``Records`` are
    written by ``_formatted`` from a row template of their sorted columns,
    a ManifoldTable by ``_manifold_json``, dicts (string keys) and lists as
    json lays them out, and each leaf by ``_json_value``."""
    pad = "\n" + " " * depth
    if isinstance(obj, Records):
        if not len(obj):
            yield "[]"
            return
        keys = sorted(range(len(obj.columns)), key=obj.columns.__getitem__)
        row = f",{pad} {{" + ",".join(
            f"{pad}  {json.dumps(obj.columns[i]).replace('%', '%%')}: %s"
            for i in keys) + pad + " }"
        yield from _json_list(_formatted([obj.values[i] for i in keys],
                                         _JSON_KINDS, _json_value, row),
                              pad + "]")
    elif isinstance(obj, ManifoldTable):
        yield from _manifold_json(obj, depth)
    elif isinstance(obj, dict) and obj:
        for i, k in enumerate(sorted(obj)):
            yield ("," if i else "{") + pad + " " + json.dumps(k) + ": "
            yield from _json_chunks(obj[k], depth + 1)
        yield pad + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        for i, v in enumerate(obj):
            yield ("," if i else "[") + pad + " "
            yield from _json_chunks(v, depth + 1)
        yield pad + "]"
    else:
        yield _json_value(obj)


def _manifold_json(table, depth):
    """A ManifoldTable's samples in the layout of ``json.dumps(...,
    indent=1, sort_keys=True)`` for their list nested ``depth`` containers
    deep: objects with keys Y, branch, gamma, omega and phi, where gamma is
    "inf"/"-inf" and Y null at the infinities.  The text comes in chunks,
    deferred ones by ``_sample_chunks``, as ``manifold_csv``'s do.

    Values are written by ``%s``, which is json's ``float.__repr__`` for
    the finite floats here: a finite gamma has |Y| above the zero-root
    threshold, and roots of finite rows are finite or nan.
    """
    if not len(table):
        yield "[]"
        return
    k = table.k
    i1, i2, i3 = ("\n" + " " * (depth + j) for j in (1, 2, 3))
    Y = (f'{i2}"Y": [{i3}%s,{i3}%s{i2}],', f'{i2}"Y": null%.0s%.0s,')
    gamma = ("%s", '"inf"%.0s', '"-inf"%.0s')
    phi = ",".join([i3 + "%s"] * (k - 1))
    point = (f'{i2}"omega": %s,{i2}"phi": '
             + (f"[{phi}{i2}]" if phi else "[]") + f"{i1}}}")
    fmts = [f',{i1}{{{Y[c == 2]}{i2}"branch": {b},{i2}"gamma": {gamma[c]},'
            f'{point}' for c in range(3) for b in range(table.dk)]
    axes = [list(map(repr, ax.tolist())) for ax in table.axes]
    yield from _json_list(_sample_chunks(
        table, fmts, axes, (k + 1, k + 2, k, *range(k)),
        lambda cols: [c.tolist() for c in cols]), i1[:-1] + "]")


def manifold_csv(tables, n):
    """CSV text of manifold tables, in chunks of whole lines.

    Columns: k, omega, phi_1..phi_{n-1} (blank beyond each sample's k-1),
    branch, gamma, Y_re, Y_im, flags; floats as ``"%.17g"`` (``_g17``);
    flags is one of '', 'plus_inf', 'minus_inf'.  Each lattice coordinate
    is formatted once per table.  A chunk of ``_CHUNK_RECORDS`` points
    takes its gamma, Y_re and Y_im texts from one ``_g17`` call, and is
    one ``%`` over a row template: one line format per kind and branch,
    where ``%.0s`` takes the values a kind leaves blank.
    """
    return _text(_manifold_csv(tables, n))


def _manifold_csv(tables, n):
    """``manifold_csv``'s chunks, the ``%`` blocks deferred."""
    yield ",".join(["k", "omega"] + [f"phi_{j}" for j in range(1, n)]
                   + ["branch", "gamma", "Y_re", "Y_im", "flags"]) + "\n"
    for t in tables:
        lead = "%d," % t.k + ",".join(["%s"] * t.k) + "," * (n - t.k)
        tails = (",%s,%s,%s,\n", ",inf%.0s,%s,%s,plus_inf\n",
                 ",-inf%.0s,%.0s,%.0s,minus_inf\n")
        fmts = [f"{lead},{b}{tail}" for tail in tails for b in range(t.dk)]
        axes = [_g17(ax) for ax in t.axes]
        yield from _sample_chunks(t, fmts, axes, range(t.k + 3), _csv_floats)


# ``_g17``: for 1e-4 <= |v| < 1e17 the 17 digits are N =
# round-half-even(|v| * 10**(16 - E)), E the decimal exponent of the
# rounded value, by which %g lays it out.  10**p is an exact double for p
# <= 22, so Dekker's two-product splits |v| * 10**p exactly into hi + lo;
# hi is an even integer there (N >= 1e16 > 2**53), so N = hi + rint(lo),
# rounded half-even as CPython's correctly rounded dtoa rounds.  A value's
# source row of 32 bytes holds "000" and its 17 digits (4-digit table
# lookups), the bytes of _FIXED and its sign; its text fills a slot of
# _SLOT bytes, gathered from the row by the layout of its E and last
# nonzero digit, padded with NUL, which bytes.translate drops.  Values
# outside the fast range are set to 1.0 before any arithmetic, so none
# raises a floating-point warning.

# "%04d" % i for i in 0..9999, as the four ASCII bytes of one uint32
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                                indexing="ij"), -1).view(np.uint32).ravel()
_POW10 = 10.0 ** np.arange(21)
_FIXED = np.frombuffer(b".0infa\0,", np.uint32)  # source bytes 20..27
_SLOT = 24  # a sign, "0.000" and 17 digits, and the "," that ends it
_BLOCK = 1024  # values gathered at once, so the byte index stays small
_ROWS = 32 * np.arange(_BLOCK)[:, None]  # the offset of each source row


def _layouts(digits="ABCDEFGHIJKLMNOPQ"):
    """The source byte of each slot byte, one row per layout: (E + 4) * 17
    + L for an exponent E in -4..16 and last nonzero digit L, then 0, inf,
    nan and blank.  A layout is spelled in ``digits`` for the digits and
    "-" for the sign (NUL for a positive value)."""
    rows = ["-" + digits[:E + 1] + ("." + digits[E + 1:L + 1]) * (L > E)
            if E >= 0 else "-0." + "0" * (-E - 1) + digits[:L + 1]
            for E in range(-4, 17) for L in range(17)]
    text = "".join(r.ljust(_SLOT - 1, "\0") + ","
                   for r in rows + ["-0", "-inf", "nan", ""])
    at = {ord(c): i for i, c in enumerate("   " + digits + ".0infa\0,-")}
    return np.frombuffer(text.translate(at).encode("latin-1"),
                         np.uint8).reshape(-1, _SLOT).astype(np.intp)


_LAYOUTS = _layouts()
_ZERO, _INF, _NAN, _BLANK = range(21 * 17, 21 * 17 + 4)  # fixed layouts
_FALLBACK = 0  # the values ``_g17`` has sent to % in this process


def _halves(v):
    """Veltkamp's split of doubles v into halves of at most 26 bits."""
    c = v * 134217729.0  # 2**27 + 1
    h = c - (c - v)
    return h, v - h


def _scaled(a, E):
    """round-half-even(a * 10**(16 - E)) as int64, exactly where it is at
    least 2**53: Dekker's two-product gives the rounding error lo of hi."""
    p = _POW10[16 - E]
    hi = a * p
    (ah, al), (ph, pl) = _halves(a), _halves(p)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _g17(x, blank=False):
    """``"%.17g" % v`` for each value of the float array ``x``, as a list
    of str, with "" where the boolean array ``blank`` is set."""
    global _FALLBACK
    x = np.ravel(x).astype(np.float64, copy=False)
    slots, slow = _slots(x, blank)
    text = slots.translate(None, b"\0").decode().split(",")[:-1]
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text[i] = "%.17g" % v
    _FALLBACK += slow.size
    return text


def _slots(x, blank):
    """The slots of ``_g17``'s values as bytes, and the indices of the
    values it formats by % (its arrays are freed before the text is
    made)."""
    fast = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e17)
    a = np.where(fast, np.abs(x), 1.0)
    E = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    N = _scaled(a, E)
    # floor(log10) may miss by one, and N may round up to 10**17
    off = (N >= 10 ** 17).astype(np.int64) - (N < 10 ** 16)
    fix = np.flatnonzero(off)
    E[fix] += off[fix]
    N[fix] = _scaled(a[fix], E[fix])
    top, low = np.divmod(N, 10 ** 8)
    src = np.empty((x.size, 8), np.uint32)
    for j, g in enumerate((top // 10 ** 8, top // 10 ** 4 % 10 ** 4,
                           top % 10 ** 4, low // 10 ** 4, low % 10 ** 4)):
        src[:, j] = _DIGITS4.take(g)
    src[:, 5:7] = _FIXED
    src = src.view(np.uint8)
    src[:, 28] = np.where(np.signbit(x) & ~np.isnan(x), 45, 0)  # "-"
    code = (E + 4) * 17 + 16 - np.argmax(src[:, 19:2:-1] != 48, axis=1)
    code = np.select([blank, x == 0, np.isinf(x), np.isnan(x)],
                     [_BLANK, _ZERO, _INF, _NAN], code)
    slots = np.empty((x.size, _SLOT), np.uint8)
    for lo in range(0, x.size, _BLOCK):
        c = code[lo:lo + _BLOCK]
        slots[lo:lo + c.size] = src[lo:lo + c.size].ravel().take(
            _LAYOUTS.take(c, 0) + _ROWS[:c.size])
    return slots.tobytes(), np.flatnonzero(~fast & (code < _ZERO))


def _csv_floats(cols):
    """The CSV text of equal-length float columns (masked entries blank),
    one list per column, from one ``_g17`` call over them stacked."""
    m = len(cols[0])
    text = _g17(np.concatenate([np.ma.getdata(c) for c in cols]),
                np.concatenate([np.ma.getmaskarray(c) for c in cols]))
    return [text[i * m:(i + 1) * m] for i in range(len(cols))]


def _cell(v):
    """One CSV cell of a value: 17 digits for a float (an infinity is
    "inf" or "-inf"), blank for None, 1/0 for a flag, a whole number or a
    string as is."""
    if isinstance(v, float):
        return _g17(np.array([v]))[0]
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return "%d" % v
    return v


def _csv_text(columns, groups):
    """Chunks of the header ``columns``, then one line per record of each
    ``(lead, values)`` group: the group's leading values, then the
    record's values, from one array per remaining column, by
    ``_formatted``."""
    yield ",".join(columns) + "\n"
    for lead, values in groups:
        line = ",".join([_cell(v) for v in lead]
                        + ["%s"] * (len(columns) - len(lead))) + "\n"
        yield from _formatted(values, _CSV_KINDS, _cell, line, _csv_floats)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _locate(sys_, eps, window, tol):
    """Certified roots of the system at eps in window, counted by
    ``window_count`` and seeded by ``axis_seeds``; the count guards first
    how far the window reaches left of the imaginary axis (right of it the
    exponentials only underflow)."""
    counted = window_count(sys_, eps, window)
    f, fp = char_function(sys_, eps)
    return find_roots(f, window, fprime=fp, tol=tol,
                      seeds=axis_seeds(sys_, eps, window), counted=counted)


@dataclass(frozen=True)
class SpectrumRun:
    eps: float
    roots: Sequence  # find_roots' Records of RootResult from run_spectrum


@dataclass(frozen=True)
class SpectrumResult:
    runs: tuple
    path: object


def run_spectrum(cfg, write=True):
    """Locate all eigenvalues in the configured window for every eps.

    Roots come back as ``find_roots``' Records per eps, eps in config
    order; spectrum.csv or spectrum.json in the output directory takes
    their first four columns (``newton_converged`` is not written).
    """
    if cfg.window is None:
        raise ConfigError("spectrum needs an explicit window")
    sys_ = cfg.system
    runs = [SpectrumRun(eps=eps, roots=_locate(sys_, eps, cfg.window, cfg.tol))
            for eps in cfg.eps_list]
    path = None
    if write:
        path = os.path.join(cfg.out_dir, "spectrum." + cfg.out_format)
        columns = _ROOT_COLUMNS[:4]
        groups = [((run.eps,), run.roots.values[:4]) for run in runs]
        if cfg.out_format == "csv":
            text = _csv_text(("eps",) + columns, groups)
        else:  # each written record is the tuple of its values
            text = _json_file({"runs": [
                {"eps": eps, "roots": Records(columns, values, lambda *v: v)}
                for (eps,), values in groups]})
        _write_files([(path, text)])
    return SpectrumResult(runs=tuple(runs), path=path)


# ---------------------------------------------------------------------------
# validation against the asymptotic sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assignment:
    """One located eigenvalue matched to its best-explaining scale."""

    eigenvalue: complex
    multiplicity: int
    scale: object
    rescaled: object
    distance: float
    runner_up_scale: object
    runner_up_distance: object
    assigned: bool


# the rescaling acts on the real part alone: the rescaled point's
# imaginary part is the root's
_ASSIGNMENT_COLUMNS = ("re", "im", "multiplicity", "scale", "rescaled_re",
                       "distance", "runner_up_scale", "runner_up_distance",
                       "assigned")


def _assignment(re, im, multiplicity, scale, rescaled_re, distance,
                runner_up_scale, runner_up_distance, assigned):
    """The Assignment of one record's values, in the order of
    ``_ASSIGNMENT_COLUMNS``."""
    return Assignment(
        eigenvalue=complex(re, im), multiplicity=multiplicity, scale=scale,
        rescaled=None if scale is None else complex(rescaled_re, im),
        distance=distance, runner_up_scale=runner_up_scale,
        runner_up_distance=runner_up_distance, assigned=assigned)


@dataclass(frozen=True)
class EpsRecord:
    """One eps of a validation: the roots' multiplicities summed, their
    assignments, each assigned scale's largest distance (scales in the
    order of their first root) and the assigned strong (scale-0) roots."""

    eps: float
    count: int
    assignments: Sequence  # Records of Assignment from run_validate
    max_distance: dict
    strong_matches: int


@dataclass(frozen=True)
class ValidationReport:
    """Per-eps assignments plus the cross-eps convergence verdicts.

    ``nonincreasing[k]`` says whether the per-eps max distance at scale k
    never grew by more than a factor of 2 along the (decreasing) eps list.
    A max distance is floored by the lattice's own sampling, about its
    frequency step (0.008 on the presets' grids): on fig2-unstable it
    reads 0.0085-0.0107 from eps 0.02 down to 0.0025, so below eps 0.01
    the verdict passes on a flat series and no longer measures
    convergence.
    """

    records: tuple
    nonincreasing: dict


def validation_window(cfg):
    """Per-eps validation windows, one Rectangle per configured eps.

    An explicit config window wins; otherwise the half-width rule applies
    (see RunConfig).
    """
    return _windows(cfg, lambda: sup_gamma(cfg.system, cfg.system.n,
                                           cfg.grid))


def _windows(cfg, top_sup):
    """``validation_window``, where the sup rule alone calls ``top_sup()``
    for the top-scale SupEstimate."""
    if cfg.window is not None:
        return [cfg.window for _ in cfg.eps_list]
    if cfg.re_halfwidth_coef is not None:
        hws = [cfg.re_halfwidth_coef * eps for eps in cfg.eps_list]
    else:
        sup_top = top_sup().sup
        if not math.isfinite(sup_top):
            raise ConfigError(
                "top-scale supremum is not finite; give an explicit window "
                "or a half-width rule in the validation settings")
        n = cfg.system.n
        hws = [10.0 * eps ** n * (1.0 + abs(sup_top))
               for eps in cfg.eps_list]
    return [Rectangle(-hw, hw, -IM_MAX, IM_MAX) for hw in hws]


def _sample_trees(sys_, ladder, grid, top):
    """k-d trees over the sampled asymptotic point sets per scale (k=0
    strong, 1..n projected); scales without points are left out.

    Below the top scale the sets are ``assemble_A_k``'s; the scale-n set
    comes from ``top``, the ``manifold_grid`` table of that scale, or None
    when it vanishes identically.  The trees are built unbalanced and
    uncompacted, which builds and queries faster on these lattice points;
    a nearest distance does not depend on the layout.
    """
    # imported here, not with the package: scipy.spatial is most of the
    # package's import time, and no other workflow needs it
    from scipy.spatial import cKDTree

    sets = {}
    for k in range(sys_.n):
        try:
            sets[k] = assemble_A_k(sys_, ladder, k, grid)
        except TrivialityError:
            pass
    if top is not None:
        sets[sys_.n] = lattice_points(sys_, ladder, top)
    return {k: cKDTree(np.column_stack([pts.real, pts.imag]),
                       balanced_tree=False, compact_nodes=False)
            for k, pts in sets.items() if pts.size}


def _warn_past_omega_axis(windows, omega, k):
    """Log a WARNING when a window reaches past the omega axis of the
    scale-k lattice: roots there rescale to frequencies the lattice does
    not sample and are matched to its edge."""
    lo = min(w.im_min for w in windows)
    hi = max(w.im_max for w in windows)
    if lo < omega[0] or hi > omega[-1]:
        _log.warning("validation windows reach Im %g..%g, past the omega "
                     "axis %g..%g of the scale-%d lattice: roots beyond it "
                     "are matched to the lattice edge", lo, hi, omega[0],
                     omega[-1], k)


def _assign_roots(roots, eps, trees, strong_r):
    """The EpsRecord of ``find_roots``' Records at eps: for each root, the
    scale whose sampled set lies nearest the root rescaled by ``eps**-k``,
    and the next nearest as runner-up, as Records of Assignment.

    Strong (scale-0) candidates beyond ``strong_r`` do not count; ties go
    to the lower scale.  A root is assigned when a scale within
    ``DISTANCE_CAP`` explains it.  ``max_distance`` lists each assigned
    scale in the order of its first root.
    """
    scales, n = sorted(trees), len(roots)
    re, im, mult = (roots.column(c) for c in ("re", "im", "multiplicity"))
    resc = np.array([re * eps ** (-k) for k in scales]).reshape(len(scales), n)
    dist = np.array([trees[k].query(np.column_stack([x, im]))[0]
                     for k, x in zip(scales, resc)]).reshape(resc.shape)
    if scales[:1] == [0]:
        dist[0, dist[0] > strong_r] = math.inf
    # the nearest and the runner-up scale of each root, as rows of an inf
    # distance where fewer than two scales have a tree
    m, cols = min(2, len(scales)), np.arange(n)
    near = np.zeros((2, n), np.intp)
    near[:m] = np.argsort(dist, axis=0, kind="stable")[:2]
    d = np.full((2, n), math.inf)
    d[:m] = dist[near[:m], cols]
    has = d < math.inf
    d[~has] = math.inf
    x = resc[near[0], cols] if scales else np.zeros(n)
    scale = np.where(has, np.array([*scales, -1])[near], -1)
    assigned = has[0] & (d[0] <= DISTANCE_CAP)
    values = (re, im, mult, np.ma.array(scale[0], mask=~has[0]),
              np.ma.array(x, mask=~has[0]), d[0],
              np.ma.array(scale[1], mask=~has[1]),
              np.ma.array(d[1], mask=~has[1]), assigned)
    near, dist = scale[0][assigned], d[0][assigned]
    ks, first = np.unique(near, return_index=True)
    max_d = {k: dist[near == k].max(initial=0.0).item()
             for k in ks[np.argsort(first)].tolist()}
    return EpsRecord(
        eps=eps, count=int(mult.sum()),
        assignments=Records(_ASSIGNMENT_COLUMNS, values, _assignment),
        max_distance=max_d, strong_matches=int((near == 0).sum()))


def run_validate(cfg, write=True):
    """Locate eigenvalues per eps and explain each by an asymptotic scale.

    Each root is rescaled per scale and matched to the nearest sampled
    asymptotic-set point; strong-spectrum (scale-0) candidates only count
    within the strong matching radius.  The scale-n lattice is evaluated
    once, as one ``ManifoldTable`` (``manifold_grid``): its full-lattice
    heights give the scale-n sample set (``lattice_points``) and, under
    the sup rule, the lattice that ``validation_window``'s supremum
    refines (``lattice_sup``).

    Emits validate.json, with each eps's count, strong matches and largest
    distance per scale, and the ``nonincreasing`` verdicts.  The
    per-eigenvalue records go to validate.csv in the csv format, and to
    each eps's ``assignments`` in validate.json in the json format.
    """
    sys_ = cfg.system
    ladder = build_ladder(sys_)
    try:
        top = manifold_grid(sys_, sys_.n, cfg.grid)
    except TrivialityError:
        top = None  # no scale-n tree; the sup rule raises again
    trees = _sample_trees(sys_, ladder, cfg.grid, top)
    strong_r = strong_spectrum(sys_).r
    windows = _windows(cfg, lambda: sup_gamma(sys_, sys_.n, cfg.grid)
                       if top is None else lattice_sup(sys_, cfg.grid, top))
    if top is not None:
        _warn_past_omega_axis(windows, top.axes[0], sys_.n)
    records = [_assign_roots(_locate(sys_, eps, window, cfg.tol), eps,
                             trees, strong_r)
               for eps, window in zip(cfg.eps_list, windows)]
    noninc = {}
    for k in sorted(trees):
        seq = [rec.max_distance[k] for rec in records
               if k in rec.max_distance]
        if len(seq) >= 2:
            noninc[k] = all(b <= 2.0 * a for a, b in zip(seq, seq[1:]))
    if write:
        as_csv = cfg.out_format == "csv"
        files = [(os.path.join(cfg.out_dir, "validate.json"), _json_file({
            "records": [{"eps": rec.eps, "count": rec.count,
                         "strong_matches": rec.strong_matches,
                         "max_distance": {str(k): v for k, v
                                          in rec.max_distance.items()},
                         **({} if as_csv else
                            {"assignments": rec.assignments})}
                        for rec in records],
            "nonincreasing": {str(k): bool(v)
                              for k, v in sorted(noninc.items())}}))]
        if as_csv:
            groups = [((rec.eps,), rec.assignments.values) for rec in records]
            files.append((os.path.join(cfg.out_dir, "validate.csv"),
                          _csv_text(("eps",) + _ASSIGNMENT_COLUMNS, groups)))
        _write_files(files)
    return ValidationReport(records=tuple(records), nonincreasing=noninc)


# ---------------------------------------------------------------------------
# manifolds and classification drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldsResult:
    """Per-scale ManifoldTables (plain, and tilde where the ladder gives
    them); a scale whose polynomial vanishes identically maps to ()."""

    plain: dict
    tilde: dict
    paths: tuple


def run_manifolds(cfg, write=True):
    """Sample every scale's manifolds (and tilde manifolds where the
    degeneracy ladder provides them) on the configured grid."""
    sys_ = cfg.system
    ladder = build_ladder(sys_)
    plain, tilde = {}, {}
    for k in range(1, sys_.n + 1):
        try:
            plain[k] = manifold_grid(sys_, k, cfg.grid)
        except TrivialityError:
            plain[k] = ()
        if ladder.has_tilde(k):
            tilde[k] = manifold_grid(sys_, k, cfg.grid, ladder=ladder)
    files = []
    if write:
        if cfg.out_format == "csv":
            files.append((os.path.join(cfg.out_dir, "manifolds.csv"),
                          _manifold_csv([plain[k] for k in sorted(plain)
                                         if plain[k]], sys_.n)))
            if tilde:
                files.append((os.path.join(cfg.out_dir, "manifolds_tilde.csv"),
                              _manifold_csv([tilde[k] for k in sorted(tilde)],
                                            sys_.n)))
        else:
            obj = {name: {str(k): t for k, t in tables.items()}
                   for name, tables in (("plain", plain), ("tilde", tilde))}
            files.append((os.path.join(cfg.out_dir, "manifolds.json"),
                          _json_file(obj)))
        _write_files(files)
    return ManifoldsResult(plain=plain, tilde=tilde,
                           paths=tuple(path for path, _ in files))


def _at(point, branch):
    """classify.json's fields of one manifold point and branch."""
    return {"omega": point.omega, "phi": point.phi, "branch": branch}


def run_classify(cfg):
    """Stability verdict for the configured system; emits classify.json:
    status, scale, margin, notes, the witness (the unstable eigenvalue as
    [re, im], or k, gamma and the point) and each supremum computed, with
    its argmax where it has one."""
    verdict = classify(cfg.system, build_ladder(cfg.system), cfg.grid)
    wit = verdict.witness
    if isinstance(wit, complex):
        wit = {"eigenvalue": [wit.real, wit.imag]}
    elif wit is not None:
        k, point, branch, gamma = wit
        wit = {"k": k, "gamma": gamma, **_at(point, branch)}
    sups = [{"k": s.k, "sup": s.sup, "uncertainty": s.uncertainty,
             **({} if s.argmax is None else {"argmax": _at(*s.argmax)})}
            for s in verdict.sup_gammas]
    _write_files([(os.path.join(cfg.out_dir, "classify.json"), _json_file({
        "status": verdict.status, "scale": verdict.scale, "witness": wit,
        "sup_gammas": sups, "margin": verdict.margin,
        "notes": verdict.notes}))])
    return verdict


# ---------------------------------------------------------------------------
# figure presets and the example driver
# ---------------------------------------------------------------------------

# name: (a, b, c, phase samples of the grid, half-width coefficient of the
# validation windows).  Every preset grid has 801 frequencies over
# [-3.2, 3.2], covering the |Im| <= 3 validation strip with margin; the
# singular funnels of fig3 need the denser phase sampling
_PRESET_PARAMS = {
    "fig2-stable": (-0.4 + 0.5j, 0.1, 0.2, 64, None),
    "fig2-neutral": (-0.4 + 0.5j, 0.1, 0.3, 64, None),
    "fig2-unstable": (-0.4 + 0.5j, 0.1, 0.4, 64, None),
    "fig3": (-0.4 + 0.5j, 0.5, 0.3, 256, 0.4),
}
PRESET_NAMES = tuple(sorted(_PRESET_PARAMS))


def preset_params(name):
    """The scalar coefficients behind a named example preset."""
    try:
        a, b, c, _, _ = _PRESET_PARAMS[name]
    except KeyError:
        raise ConfigError(f"unknown example {name!r}; choose from "
                          f"{', '.join(PRESET_NAMES)}") from None
    return scalar2.ScalarParams(a=a, b=b, c=c)


def preset_system(name):
    p = preset_params(name)
    return DelaySystem.scalar(p.a, (p.b, p.c))


def preset_config(name, eps_list=(0.05, 0.02, 0.01), out_dir="."):
    """Validation-ready RunConfig for a named preset.

    The last preset has an unbounded top-scale supremum, so its windows come
    from an explicit half-width rule 0.4 * eps (wide enough for the whole
    scale-1 family, narrow enough for the evaluation guard); the others use
    the default sup-based rule.
    """
    system = preset_system(name)  # refuses an unknown name
    *_, phases, coef = _PRESET_PARAMS[name]
    grid = GridSpec(omega_count=801, phase_count=phases,
                    omega_range=(-3.2, 3.2))
    return RunConfig(system=system, eps_list=tuple(eps_list), grid=grid,
                     out_dir=out_dir, re_halfwidth_coef=coef)


def _diff_ext(closed, general):
    """|closed - general| with matching infinities counting as 0."""
    if math.isinf(closed) or math.isinf(general):
        return 0.0 if closed == general else math.inf
    return abs(closed - general)


def _gamma_comparison(p, sys_, grid, k):
    """CSV chunks comparing the closed-form scale-k gamma with the general
    one over the grid, and the largest discrepancy.  The two gammas are
    written by ``str``, the other columns at 17 digits."""
    columns = ("omega", *[f"phi_{j}" for j in range(1, k)],
               "gamma_closed", "gamma_general", "abs_diff")
    rows, worst = [], 0.0
    for s in manifold_grid(sys_, k, grid):
        closed = scalar2.gamma_k(p.coefs, s.point.omega, *s.point.phi)
        diff = _diff_ext(closed, s.gamma)
        worst = max(worst, diff)
        rows.append((s.point.omega, *s.point.phi, str(closed), str(s.gamma),
                     diff))
    values = tuple(map(np.array, zip(*rows)))
    return _csv_text(columns, [((), values)]), worst


def run_example(name, out_dir=".", out_format="csv"):
    """Closed-form vs general-machinery comparison for a named preset.

    Emits the scale-1 curve and scale-2 surface sampled both ways with
    pointwise discrepancies, plus a JSON summary holding the supremum and
    classification from both routes, the zero points, and (when they exist)
    the singular phases.
    """
    p = preset_params(name)
    sys_ = preset_system(name)
    texts, worst = {}, {}
    for k, omega_count in ((1, 201), (2, 101)):
        grid = GridSpec(omega_count=omega_count, phase_count=32,
                        omega_range=(-3.2, 3.2))
        texts[k], worst[k] = _gamma_comparison(p, sys_, grid, k)

    ladder = build_ladder(sys_)
    search = GridSpec(omega_count=401, phase_count=64,
                      omega_range=(-3.2, 3.2))
    sup_closed = scalar2.sup_gamma2(p)
    sup_general = sup_gamma(sys_, 2, search).sup
    verdict_closed = scalar2.classify_scalar(p)
    verdict_general = classify(sys_, ladder, search)

    zeros = scalar2.gamma1_zeros(p)
    phis = scalar2.phi_singular(p)
    summary = {
        "name": name,
        "params": {"a": [p.a.real, p.a.imag], "b": [p.b.real, p.b.imag],
                   "c": [p.c.real, p.c.imag]},
        **{f"max_gamma{k}_discrepancy": w for k, w in worst.items()},
        "sup_gamma2_closed": sup_closed,
        "sup_gamma2_general": sup_general,
        "sup_gamma2_discrepancy": _diff_ext(sup_closed, sup_general),
        "status_closed": verdict_closed.status,
        "scale_closed": verdict_closed.scale,
        "status_general": verdict_general.status,
        "scale_general": verdict_general.scale,
        "gamma1_zeros": None if zeros is None else list(zeros),
        "singular_phases": None if phis is None else list(phis),
    }
    files = [(os.path.join(out_dir, f"example_{name}.json"),
              _json_file(summary))]
    if out_format == "csv":
        files += [(os.path.join(out_dir, f"example_{name}_gamma{k}.csv"), text)
                  for k, text in texts.items()]
    _write_files(files)
    return summary
