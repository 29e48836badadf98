"""Run configuration, workflow drivers, and file emission.

The command line wraps the ``run_*`` functions here; tests drive them
directly.  Every emitted float uses 17 significant digits and every
collection is sorted deterministically, so identical configs produce
byte-identical files.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .classify import _ext, classify, sup_gamma
from .degeneracy import build_ladder
from .errors import ConfigError, TrivialityError
from .manifolds import (GridSpec, assemble_A_k, manifold_csv, manifold_grid,
                        strong_spectrum)
from .model import (DelaySystem, axis_seeds, char_function, check_eps,
                    guard_real_extent, load_system, system_from_dict)
from .rootfinder import Rectangle, find_roots
from . import scalar2

__all__ = [
    "RunConfig", "Assignment", "EpsRecord", "ValidationReport",
    "SpectrumRun", "SpectrumResult", "ManifoldsResult",
    "config_from_dict", "load_config", "validation_window",
    "run_spectrum", "run_validate", "run_manifolds", "run_classify",
    "run_example", "preset_params", "preset_system", "preset_config",
    "PRESET_NAMES",
]

_FMT = "%.17g"


def _fmt(x):
    return _FMT % float(x)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One workflow invocation: the system plus search and output settings.

    ``window`` is used as-is when set; otherwise validation derives a
    per-eps window of half-width ``re_halfwidth_coef * eps**re_halfwidth_power``
    when those are set, else ``10 * eps**n * (1 + |sup gamma top scale|)``
    (which needs that sup to be finite).  ``distance_cap`` flags
    eigenvalues that no asymptotic set explains.
    """

    system: DelaySystem
    eps_list: tuple
    window: object = None
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float = 1e-9
    out_dir: str = "."
    out_format: str = "csv"
    im_max: float = 3.0
    re_halfwidth_coef: object = None
    re_halfwidth_power: float = 1.0
    distance_cap: float = 1.0
    margin: float = 1e-6

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
        if not (float(self.tol) > 0.0):
            raise ConfigError("tol must be positive")
        if not (float(self.im_max) > 0.0):
            raise ConfigError("im_max must be positive")
        if not (float(self.distance_cap) > 0.0):
            raise ConfigError("distance cap must be positive")
        if self.re_halfwidth_coef is not None \
                and not (float(self.re_halfwidth_coef) > 0.0):
            raise ConfigError("half-width coefficient must be positive")


_CONFIG_KEYS = {"system", "eps", "window", "grid", "tol", "out", "format",
                "validation", "margin"}
_VALIDATION_KEYS = {"im_max", "re_halfwidth_coef", "re_halfwidth_power",
                    "cap"}
_GRID_KEYS = {"omega", "phase", "omega_range"}


def _window_from_list(vals):
    try:
        a, b, c, d = (float(v) for v in vals)
    except (TypeError, ValueError) as exc:
        raise ConfigError("window must be four numbers: re_min, re_max, "
                          "im_min, im_max") from exc
    return Rectangle(a, b, c, d)


def _grid_from_dict(data):
    extra = set(data) - _GRID_KEYS
    if extra:
        raise ConfigError(f"unknown grid keys: {sorted(extra)}")
    kw = {}
    if "omega" in data:
        kw["omega_count"] = int(data["omega"])
    if "phase" in data:
        kw["phase_count"] = int(data["phase"])
    if "omega_range" in data:
        lo, hi = data["omega_range"]
        kw["omega_range"] = (float(lo), float(hi))
    return GridSpec(**kw)


def config_from_dict(data, base_dir="."):
    """RunConfig from a parsed JSON object; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if "system" not in data:
        raise ConfigError("config needs a 'system' entry")
    src = data["system"]
    if isinstance(src, str):
        path = src if os.path.isabs(src) else os.path.join(base_dir, src)
        system = load_system(path)
    else:
        system = system_from_dict(src)
    if "eps" not in data:
        raise ConfigError("config needs an 'eps' entry")
    eps = data["eps"]
    if isinstance(eps, (int, float)):
        eps = [eps]
    kw = dict(system=system, eps_list=tuple(float(e) for e in eps))
    if data.get("window") is not None:
        kw["window"] = _window_from_list(data["window"])
    if "grid" in data:
        kw["grid"] = _grid_from_dict(data["grid"])
    if "tol" in data:
        kw["tol"] = float(data["tol"])
    if "out" in data:
        kw["out_dir"] = str(data["out"])
    if "format" in data:
        kw["out_format"] = str(data["format"])
    if "margin" in data:
        kw["margin"] = float(data["margin"])
    val = data.get("validation", {})
    if not isinstance(val, dict):
        raise ConfigError("'validation' must be an object")
    extra = set(val) - _VALIDATION_KEYS
    if extra:
        raise ConfigError(f"unknown validation keys: {sorted(extra)}")
    if "im_max" in val:
        kw["im_max"] = float(val["im_max"])
    if "re_halfwidth_coef" in val:
        kw["re_halfwidth_coef"] = float(val["re_halfwidth_coef"])
    if "re_halfwidth_power" in val:
        kw["re_halfwidth_power"] = float(val["re_halfwidth_power"])
    if "cap" in val:
        kw["distance_cap"] = float(val["cap"])
    return RunConfig(**kw)


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data, base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------

def _write_text(path, chunks):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _write_rows(path, rows):
    _write_text(path, (",".join(row) + "\n" for row in rows))


def _write_json(path, obj):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumRun:
    eps: float
    roots: tuple


@dataclass(frozen=True)
class SpectrumResult:
    runs: tuple
    path: object


def _spectrum_rows(runs):
    rows = [["eps", "re", "im", "multiplicity", "residual"]]
    for run in runs:
        for r in run.roots:
            rows.append([_fmt(run.eps), _fmt(r.location.real),
                         _fmt(r.location.imag), "%d" % r.multiplicity,
                         _fmt(r.residual)])
    return rows


def _spectrum_obj(runs):
    return {"runs": [
        {"eps": run.eps,
         "roots": [{"re": r.location.real, "im": r.location.imag,
                    "multiplicity": r.multiplicity, "residual": r.residual}
                   for r in run.roots]}
        for run in runs]}


def run_spectrum(cfg, write=True):
    """Locate all eigenvalues in the configured window for every eps.

    Roots come back sorted by (re, im) per eps, eps in config order; the
    emitted file is spectrum.csv or spectrum.json in the output directory.
    """
    if cfg.window is None:
        raise ConfigError("spectrum needs an explicit window")
    sys_ = cfg.system
    runs = []
    for eps in cfg.eps_list:
        guard_real_extent(sys_, eps, max(abs(cfg.window.re_min),
                                         abs(cfg.window.re_max)))
        f, fp = char_function(sys_, eps)
        roots = find_roots(f, cfg.window, fprime=fp, tol=cfg.tol,
                           seeds=axis_seeds(sys_, eps, cfg.window))
        runs.append(SpectrumRun(eps=eps, roots=tuple(roots)))
    path = None
    if write:
        if cfg.out_format == "csv":
            path = os.path.join(cfg.out_dir, "spectrum.csv")
            _write_rows(path, _spectrum_rows(runs))
        else:
            path = os.path.join(cfg.out_dir, "spectrum.json")
            _write_json(path, _spectrum_obj(runs))
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


@dataclass(frozen=True)
class EpsRecord:
    eps: float
    count: int
    assignments: tuple
    max_distance: dict
    strong_matches: int


@dataclass(frozen=True)
class ValidationReport:
    """Per-eps assignments plus the cross-eps convergence verdicts.

    ``nonincreasing[k]`` says whether the per-eps max distance at scale k
    never grew by more than a factor of 2 along the (decreasing) eps list.
    """

    records: tuple
    nonincreasing: dict

    def as_dict(self):
        recs = []
        for rec in self.records:
            assigns = []
            for a in rec.assignments:
                assigns.append({
                    "re": a.eigenvalue.real, "im": a.eigenvalue.imag,
                    "multiplicity": a.multiplicity,
                    "scale": a.scale,
                    "rescaled_re": None if a.rescaled is None
                    else a.rescaled.real,
                    "rescaled_im": None if a.rescaled is None
                    else a.rescaled.imag,
                    "distance": _ext(a.distance),
                    "runner_up_scale": a.runner_up_scale,
                    "runner_up_distance": None if a.runner_up_distance is None
                    else _ext(a.runner_up_distance),
                    "assigned": a.assigned,
                })
            recs.append({"eps": rec.eps, "count": rec.count,
                         "strong_matches": rec.strong_matches,
                         "max_distance": {str(k): _ext(v) for k, v
                                          in sorted(rec.max_distance.items())},
                         "assignments": assigns})
        return {"records": recs,
                "nonincreasing": {str(k): bool(v) for k, v
                                  in sorted(self.nonincreasing.items())}}


def validation_window(cfg):
    """Per-eps validation windows, one Rectangle per configured eps.

    An explicit config window wins; otherwise the half-width rule applies
    (see RunConfig).
    """
    if cfg.window is not None:
        return [cfg.window for _ in cfg.eps_list]
    if cfg.re_halfwidth_coef is not None:
        coef, power = float(cfg.re_halfwidth_coef), cfg.re_halfwidth_power
        hws = [coef * eps ** power for eps in cfg.eps_list]
    else:
        sup_top = sup_gamma(cfg.system, cfg.system.n, cfg.grid).sup
        if not math.isfinite(sup_top):
            raise ConfigError(
                "top-scale supremum is not finite; give an explicit window "
                "or a half-width rule in the validation settings")
        n = cfg.system.n
        hws = [10.0 * eps ** n * (1.0 + abs(sup_top))
               for eps in cfg.eps_list]
    return [Rectangle(-hw, hw, -cfg.im_max, cfg.im_max) for hw in hws]


def _sample_sets(sys_, ladder, grid):
    """Asymptotic point sets per scale (k=0 strong, 1..n projected)."""
    sets = {}
    for k in range(sys_.n + 1):
        try:
            pts = assemble_A_k(sys_, ladder, k, grid)
        except TrivialityError:
            continue
        if pts.size:
            sets[k] = pts
    return sets


def _assign_roots(roots, eps, sets, trees, strong_r):
    """Min-distance scale assignment for one eps worth of roots."""
    if not roots:
        return []
    locs = np.array([r.location for r in roots])
    per_scale = {}
    for k, tree in trees.items():
        resc = locs.real * eps ** (-k) + 1j * locs.imag
        d, _ = tree.query(np.column_stack([resc.real, resc.imag]))
        per_scale[k] = (d, resc)
    out = []
    for i, r in enumerate(roots):
        cands = []
        for k in sorted(per_scale):
            d, resc = per_scale[k]
            if k == 0 and d[i] > strong_r:
                continue
            cands.append((float(d[i]), k, complex(resc[i])))
        cands.sort(key=lambda t: (t[0], t[1]))
        if not cands:
            out.append((r, None, None, math.inf, None, None))
        elif len(cands) == 1:
            d0, k0, z0 = cands[0]
            out.append((r, k0, z0, d0, None, None))
        else:
            d0, k0, z0 = cands[0]
            d1, k1, _ = cands[1]
            out.append((r, k0, z0, d0, k1, d1))
    return out


def run_validate(cfg, write=True):
    """Locate eigenvalues per eps and explain each by an asymptotic scale.

    Each root is rescaled per scale and matched to the nearest sampled
    asymptotic-set point; strong-spectrum (scale-0) candidates only count
    within the strong matching radius.  Emits validate.json (always) and
    validate.csv with per-eigenvalue rows when the format is csv.
    """
    sys_ = cfg.system
    ladder = build_ladder(sys_)
    sets = _sample_sets(sys_, ladder, cfg.grid)
    trees = {k: cKDTree(np.column_stack([p.real, p.imag]))
             for k, p in sets.items()}
    strong_r = strong_spectrum(sys_).r
    windows = validation_window(cfg)
    records = []
    for eps, window in zip(cfg.eps_list, windows):
        guard_real_extent(sys_, eps, max(abs(window.re_min),
                                         abs(window.re_max)))
        f, fp = char_function(sys_, eps)
        roots = find_roots(f, window, fprime=fp, tol=cfg.tol,
                           seeds=axis_seeds(sys_, eps, window))
        assigns = []
        max_d = {}
        strong_matches = 0
        for r, k, z, d, rk, rd in _assign_roots(roots, eps, sets, trees,
                                                strong_r):
            assigned = k is not None and d <= cfg.distance_cap
            assigns.append(Assignment(
                eigenvalue=r.location, multiplicity=r.multiplicity,
                scale=k, rescaled=z, distance=d, runner_up_scale=rk,
                runner_up_distance=rd, assigned=assigned))
            if assigned:
                max_d[k] = max(max_d.get(k, 0.0), d)
                if k == 0:
                    strong_matches += 1
        records.append(EpsRecord(
            eps=eps, count=sum(r.multiplicity for r in roots),
            assignments=tuple(assigns), max_distance=max_d,
            strong_matches=strong_matches))
    noninc = {}
    for k in sorted(sets):
        seq = [rec.max_distance[k] for rec in records
               if k in rec.max_distance]
        if len(seq) >= 2:
            noninc[k] = all(b <= 2.0 * a for a, b in zip(seq, seq[1:]))
    report = ValidationReport(records=tuple(records), nonincreasing=noninc)
    if write:
        _write_json(os.path.join(cfg.out_dir, "validate.json"),
                    report.as_dict())
        if cfg.out_format == "csv":
            rows = [["eps", "re", "im", "multiplicity", "scale",
                     "rescaled_re", "rescaled_im", "distance",
                     "runner_up_scale", "runner_up_distance", "assigned"]]
            for rec in report.records:
                for a in rec.assignments:
                    rows.append([
                        _fmt(rec.eps), _fmt(a.eigenvalue.real),
                        _fmt(a.eigenvalue.imag), "%d" % a.multiplicity,
                        "" if a.scale is None else "%d" % a.scale,
                        "" if a.rescaled is None else _fmt(a.rescaled.real),
                        "" if a.rescaled is None else _fmt(a.rescaled.imag),
                        "inf" if a.distance == math.inf else _fmt(a.distance),
                        "" if a.runner_up_scale is None
                        else "%d" % a.runner_up_scale,
                        "" if a.runner_up_distance is None
                        else _fmt(a.runner_up_distance),
                        "1" if a.assigned else "0"])
            _write_rows(os.path.join(cfg.out_dir, "validate.csv"), rows)
    return report


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


def _samples_obj(by_scale):
    out = {}
    for k, samples in sorted(by_scale.items()):
        items = []
        for s in samples:
            items.append({"omega": s.point.omega, "phi": list(s.point.phi),
                          "branch": s.branch, "gamma": _ext(s.gamma),
                          "Y": None if s.Y is None
                          else [s.Y.real, s.Y.imag]})
        out[str(k)] = items
    return out


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
        if k < sys_.n and ladder.has_level(k + 1) \
                and not ladder.level(k + 1).heuristic:
            tilde[k] = manifold_grid(sys_, k, cfg.grid, ladder=ladder,
                                     tilde=True)
    paths = []
    if write:
        if cfg.out_format == "csv":
            path = os.path.join(cfg.out_dir, "manifolds.csv")
            _write_text(path, manifold_csv(
                [plain[k] for k in sorted(plain) if plain[k]], sys_.n))
            paths.append(path)
            if tilde:
                path = os.path.join(cfg.out_dir, "manifolds_tilde.csv")
                _write_text(path, manifold_csv(
                    [tilde[k] for k in sorted(tilde)], sys_.n))
                paths.append(path)
        else:
            path = os.path.join(cfg.out_dir, "manifolds.json")
            _write_json(path, {"plain": _samples_obj(plain),
                               "tilde": _samples_obj(tilde)})
            paths.append(path)
    return ManifoldsResult(plain=plain, tilde=tilde, paths=tuple(paths))


def run_classify(cfg):
    """Stability verdict for the configured system; emits classify.json."""
    ladder = build_ladder(cfg.system)
    verdict = classify(cfg.system, ladder, margin=cfg.margin,
                       search_cfg=cfg.grid)
    _write_json(os.path.join(cfg.out_dir, "classify.json"), verdict.as_dict())
    return verdict


# ---------------------------------------------------------------------------
# figure presets and the example driver
# ---------------------------------------------------------------------------

_PRESET_PARAMS = {
    "fig2-stable": (-0.4 + 0.5j, 0.1, 0.2),
    "fig2-neutral": (-0.4 + 0.5j, 0.1, 0.3),
    "fig2-unstable": (-0.4 + 0.5j, 0.1, 0.4),
    "fig3": (-0.4 + 0.5j, 0.5, 0.3),
}
PRESET_NAMES = tuple(sorted(_PRESET_PARAMS))

# grids cover the |Im| <= 3 validation strip with margin; the singular
# funnels of the last preset need the denser phase sampling
_PRESET_GRIDS = {
    "fig2-stable": GridSpec(omega_count=801, phase_count=64,
                            omega_range=(-3.2, 3.2)),
    "fig2-neutral": GridSpec(omega_count=801, phase_count=64,
                             omega_range=(-3.2, 3.2)),
    "fig2-unstable": GridSpec(omega_count=801, phase_count=64,
                              omega_range=(-3.2, 3.2)),
    "fig3": GridSpec(omega_count=801, phase_count=256,
                     omega_range=(-3.2, 3.2)),
}


def preset_params(name):
    """The scalar coefficients behind a named example preset."""
    try:
        a, b, c = _PRESET_PARAMS[name]
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
    kw = dict(system=preset_system(name), eps_list=tuple(eps_list),
              grid=_PRESET_GRIDS[name], out_dir=out_dir, im_max=3.0)
    if name == "fig3":
        kw["re_halfwidth_coef"] = 0.4
        kw["re_halfwidth_power"] = 1.0
    return RunConfig(**kw)


def _diff_ext(closed, general):
    """|closed - general| with matching infinities counting as 0."""
    if math.isinf(closed) or math.isinf(general):
        return 0.0 if closed == general else math.inf
    return abs(closed - general)


def _gamma_comparison(p, sys_, grid, k):
    """Rows comparing the closed-form scale-k (1 or 2) gamma with the
    general one over the grid, and the largest discrepancy."""
    closed_form = scalar2.gamma1 if k == 1 else scalar2.gamma2
    rows = [["omega"] + [f"phi_{j}" for j in range(1, k)]
            + ["gamma_closed", "gamma_general", "abs_diff"]]
    worst = 0.0
    for s in manifold_grid(sys_, k, grid):
        closed = closed_form(p, s.point.omega, *s.point.phi)
        diff = _diff_ext(closed, s.gamma)
        worst = max(worst, diff)
        rows.append([_fmt(s.point.omega)] + [_fmt(x) for x in s.point.phi]
                    + [str(_ext(closed)), str(_ext(s.gamma)),
                       "inf" if diff == math.inf else _fmt(diff)])
    return rows, worst


def run_example(name, out_dir=".", out_format="csv"):
    """Closed-form vs general-machinery comparison for a named preset.

    Emits the scale-1 curve and scale-2 surface sampled both ways with
    pointwise discrepancies, plus a JSON summary holding the supremum and
    classification from both routes, the zero points, and (when they exist)
    the singular phases.
    """
    p = preset_params(name)
    sys_ = preset_system(name)
    grid1 = GridSpec(omega_count=201, phase_count=32, omega_range=(-3.2, 3.2))
    grid2 = GridSpec(omega_count=101, phase_count=32, omega_range=(-3.2, 3.2))
    rows1, worst1 = _gamma_comparison(p, sys_, grid1, 1)
    rows2, worst2 = _gamma_comparison(p, sys_, grid2, 2)

    ladder = build_ladder(sys_)
    search = GridSpec(omega_count=401, phase_count=64,
                      omega_range=(-3.2, 3.2))
    sup_closed = scalar2.sup_gamma2(p)
    sup_general = sup_gamma(sys_, 2, search_cfg=search).sup
    verdict_closed = scalar2.classify_scalar(p)
    verdict_general = classify(sys_, ladder, search_cfg=search)

    zeros = scalar2.gamma1_zeros(p)
    phis = scalar2.phi_singular(p)
    summary = {
        "name": name,
        "params": {"a": [p.a.real, p.a.imag], "b": [p.b.real, p.b.imag],
                   "c": [p.c.real, p.c.imag]},
        "max_gamma1_discrepancy": _ext(worst1),
        "max_gamma2_discrepancy": _ext(worst2),
        "sup_gamma2_closed": _ext(sup_closed),
        "sup_gamma2_general": _ext(sup_general),
        "sup_gamma2_discrepancy": _ext(_diff_ext(sup_closed, sup_general)),
        "status_closed": verdict_closed.status,
        "scale_closed": verdict_closed.scale,
        "status_general": verdict_general.status,
        "scale_general": verdict_general.scale,
        "gamma1_zeros": None if zeros is None else list(zeros),
        "singular_phases": None if phis is None else list(phis),
    }
    _write_json(os.path.join(out_dir, f"example_{name}.json"), summary)
    if out_format == "csv":
        _write_rows(os.path.join(out_dir, f"example_{name}_gamma1.csv"), rows1)
        _write_rows(os.path.join(out_dir, f"example_{name}_gamma2.csv"), rows2)
    return summary


def apply_overrides(cfg, eps=None, window=None, out_dir=None, out_format=None,
                    grid_omega=None, grid_phase=None, tol=None):
    """Config with individual fields replaced (used by the command line)."""
    kw = {}
    if eps is not None:
        kw["eps_list"] = tuple(float(e) for e in eps)
    if window is not None:
        kw["window"] = _window_from_list(window)
    if out_dir is not None:
        kw["out_dir"] = out_dir
    if out_format is not None:
        kw["out_format"] = out_format
    if grid_omega is not None or grid_phase is not None:
        g = cfg.grid
        kw["grid"] = GridSpec(
            omega_count=g.omega_count if grid_omega is None else grid_omega,
            phase_count=g.phase_count if grid_phase is None else grid_phase,
            omega_range=g.omega_range)
    if tol is not None:
        kw["tol"] = float(tol)
    return replace(cfg, **kw) if kw else cfg
