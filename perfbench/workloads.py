"""The benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` (the timed set-up:
import, systems, configs, one warm-up kernel call), computes its oracle
references in ``prepare_oracle`` (untimed), hands out the operations of
one pass in ``ops``, and judges each operation's result in ``check``
(untimed).  ``check`` returns a list of problems; an empty list is a pass.
The library is imported inside ``setup`` so its import cost is part of the
set-up time.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

VALIDATE_EPS = (0.05, 0.02)
VALIDATE_COUNTS = (383, 2387)  # certified root counts of the two windows
SPECTRUM_EPS = 0.1
CLASSIFY_OPS = 100
# systems per classify_scalar region; the trivial strongly unstable verdict
# needs no supremum, the others one or two
CLASSIFY_SHARES = (("StronglyUnstable", None, 25), ("WeaklyUnstable", 1, 25),
                   ("WeaklyUnstable", 2, 25), ("Stable", None, 25))
CLASSIFY_MIN_GAP = 0.02   # no draw this close to a region boundary
MANIFOLD_CHECKS = (1, 200), (2, 2000)  # (scale, samples checked) per pass
GAMMA_TOL = 1e-6


def _api(h):
    return SimpleNamespace(run_validate=h.run_validate,
                           run_spectrum=h.run_spectrum,
                           run_manifolds=h.run_manifolds,
                           classify=h.classify, build_ladder=h.build_ladder)


class ValidateDense:
    """run_validate on fig2-unstable at two eps: the paper's main task."""

    name = "validate-dense"
    item = "certified roots"

    def setup(self, seed, out_dir):
        import hierdde as h
        self.h = h
        self.api = _api(h)
        self.cfg = h.preset_config("fig2-unstable", eps_list=VALIDATE_EPS,
                                   out_dir=out_dir)
        f, fp = h.char_function(self.cfg.system, VALIDATE_EPS[0])
        f([0.01j, 0.02j]), fp([0.01j, 0.02j])

    def prepare_oracle(self):
        h = self.h
        self.arg_counts = []
        for eps, win in zip(self.cfg.eps_list, h.validation_window(self.cfg)):
            f, fp = h.char_function(self.cfg.system, eps)
            self.arg_counts.append(h.count_zeros(f, win, fprime=fp))

    def ops(self, api):
        return [lambda: api.run_validate(self.cfg, write=True)]

    def items(self, report):
        return sum(rec.count for rec in report.records)

    def check(self, report):
        return check_validate(report, self.cfg.eps_list, VALIDATE_COUNTS,
                              self.arg_counts)


def check_validate(report, eps_list, want_counts, arg_counts):
    """Counts as certified, all roots on the scale-2 family, and the
    multiplicities summing to the argument-principle count."""
    problems = []
    recs = report.records
    if [rec.eps for rec in recs] != list(eps_list):
        return [f"eps records {[rec.eps for rec in recs]} != {eps_list}"]
    for rec, want, arg in zip(recs, want_counts, arg_counts):
        mult = sum(a.multiplicity for a in rec.assignments)
        if rec.count != want or mult != want:
            problems.append(f"eps={rec.eps}: count {rec.count}, "
                            f"multiplicities {mult}, expected {want}")
        if mult != arg:
            problems.append(f"eps={rec.eps}: multiplicities {mult} != "
                            f"argument-principle count {arg}")
        bad = sum(1 for a in rec.assignments
                  if not a.assigned or a.scale != 2)
        if bad:
            problems.append(f"eps={rec.eps}: {bad} roots not assigned "
                            f"to scale 2")
    return problems


def random_unitary(rng, d):
    """Haar-distributed unitary matrix (QR of a complex Gaussian with the
    phases of R's diagonal divided out)."""
    import numpy as np
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class SpectrumDouble:
    """run_spectrum on Q diag(s, s) Q^H: every root is double."""

    name = "spectrum-double"
    item = "certified roots"

    def setup(self, seed, out_dir):
        import numpy as np
        import hierdde as h
        self.h = h
        self.api = _api(h)
        self.scalar = h.preset_system("fig2-unstable")
        q = random_unitary(np.random.default_rng(seed), 2)
        mats = tuple(q @ (M[0, 0] * np.eye(2)) @ q.conj().T
                     for M in self.scalar.matrices)
        system = h.DelaySystem(matrices=mats, sigma=self.scalar.sigma)
        base = h.preset_config("fig2-unstable", eps_list=(SPECTRUM_EPS,))
        (window,) = h.validation_window(base)
        self.cfg = replace(base, system=system, window=window,
                           out_dir=out_dir)
        f, fp = h.char_function(system, SPECTRUM_EPS)
        f([0.01j, 0.02j]), fp([0.01j, 0.02j])

    def prepare_oracle(self):
        f, fp = self.h.char_function(self.scalar, SPECTRUM_EPS)
        self.scalar_count = self.h.count_zeros(f, self.cfg.window, fprime=fp)

    def ops(self, api):
        return [lambda: api.run_spectrum(self.cfg, write=True)]

    def items(self, result):
        return sum(r.multiplicity for run in result.runs for r in run.roots)

    def check(self, result):
        return check_spectrum_double(result, self.scalar_count)


def check_spectrum_double(result, scalar_count):
    """Every entry a double root, twice as many roots as the scalar system."""
    problems = []
    roots = [r for run in result.runs for r in run.roots]
    single = sum(1 for r in roots if r.multiplicity != 2)
    if single:
        problems.append(f"{single} entries without multiplicity 2")
    total = sum(r.multiplicity for r in roots)
    if total != 2 * scalar_count:
        problems.append(f"{total} roots, expected 2 x {scalar_count}")
    return problems


def _region(p):
    """(status, scale) of classify_scalar, or None within CLASSIFY_MIN_GAP
    of a region boundary."""
    ra = p.a.real
    if ra >= CLASSIFY_MIN_GAP:
        return ("StronglyUnstable", None)
    t1 = abs(p.b) - abs(ra)
    t2 = abs(p.c) - (abs(ra) - abs(p.b))
    if ra > -CLASSIFY_MIN_GAP or abs(t1) < CLASSIFY_MIN_GAP:
        return None
    if t1 > 0:
        return ("WeaklyUnstable", 1)
    if abs(t2) < CLASSIFY_MIN_GAP:
        return None
    return ("WeaklyUnstable", 2) if t2 > 0 else ("Stable", None)


def draw_scalar_params(rng, h):
    """CLASSIFY_OPS scalar two-delay systems, CLASSIFY_SHARES per region,
    in random order."""
    quota = {(status, scale): n for status, scale, n in CLASSIFY_SHARES}
    out = []
    while len(out) < CLASSIFY_OPS:
        re_a, im_a, bm, bp, cm, cp = rng.uniform(
            (-0.8, -0.5, 0.05, 0.0, 0.05, 0.0),
            (0.8, 0.5, 0.9, 2 * math.pi, 0.9, 2 * math.pi))
        p = h.ScalarParams(a=complex(re_a, im_a), b=bm * complex(
            math.cos(bp), math.sin(bp)), c=cm * complex(math.cos(cp),
                                                        math.sin(cp)))
        region = _region(p)
        if region is not None and quota[region] > 0:
            quota[region] -= 1
            out.append(p)
    return out


class ClassifyRandom:
    """classify(sys, build_ladder(sys)) on seed-drawn scalar systems."""

    name = "classify-random"
    item = "systems classified"

    def setup(self, seed, out_dir):
        import numpy as np
        import hierdde as h
        self.h = h
        self.api = _api(h)
        self.params = draw_scalar_params(np.random.default_rng(seed), h)
        self.systems = [h.DelaySystem.scalar(p.a, (p.b, p.c))
                        for p in self.params]
        h.manifold_grid(self.systems[0], 2, h.GridSpec(
            omega_count=3, phase_count=2))

    def prepare_oracle(self):
        self.want = [self.h.classify_scalar(p) for p in self.params]

    def ops(self, api):
        return [lambda i=i, s=s: (i, api.classify(s, api.build_ladder(s)))
                for i, s in enumerate(self.systems)]

    def items(self, result):
        return 1

    def check(self, result):
        i, verdict = result
        return check_classify(verdict, self.want[i])


def check_classify(got, want):
    if (got.status, got.scale) != (want.status, want.scale):
        return [f"verdict {got.status}/{got.scale}, closed form "
                f"{want.status}/{want.scale}"]
    return []


class ManifoldsFig3:
    """run_manifolds on the fig3 preset with CSV output."""

    name = "manifolds-fig3"
    item = "manifold samples"

    def setup(self, seed, out_dir):
        import hierdde as h
        self.h = h
        self.api = _api(h)
        self.seed = seed
        self.cfg = h.preset_config("fig3", out_dir=out_dir)
        h.manifold_grid(self.cfg.system, 2, h.GridSpec(
            omega_count=3, phase_count=2, omega_range=(-1.0, 1.0)))

    def prepare_oracle(self):
        import numpy as np
        self.p = self.h.preset_params("fig3")
        self.rng = np.random.default_rng(self.seed)
        grid = self.cfg.grid
        self.sizes = {1: grid.omega_count,
                      2: grid.omega_count * grid.phase_count}

    def ops(self, api):
        return [lambda: api.run_manifolds(self.cfg, write=True)]

    def items(self, result):
        return sum(len(v) for v in result.plain.values()) \
            + sum(len(v) for v in result.tilde.values())

    def check(self, result):
        picks = {k: self.rng.choice(self.sizes[k], n, replace=False)
                 for k, n in MANIFOLD_CHECKS}
        return check_manifolds(result, self.p, self.sizes, picks, self.h)


def _gamma_mismatch(closed, general):
    if math.isinf(closed) or math.isinf(general):
        return closed != general
    return not abs(closed - general) <= GAMMA_TOL


def check_manifolds(result, p, sizes, picks, h):
    """One sample per grid point at each scale, and the picked samples on
    the scalar2 closed forms gamma1(omega), gamma2(omega, phi1)."""
    problems = []
    for k, size in sizes.items():
        got = len(result.plain.get(k, ()))
        if got != size:
            problems.append(f"scale {k}: {got} samples, expected {size}")
            return problems
    closed = {1: lambda s: h.gamma1(p, s.point.omega),
              2: lambda s: h.gamma2(p, s.point.omega, s.point.phi[0])}
    for k, idx in picks.items():
        bad = [int(i) for i in idx
               if _gamma_mismatch(closed[k](result.plain[k][i]),
                                  result.plain[k][i].gamma)]
        if bad:
            problems.append(f"scale {k}: {len(bad)} samples off the closed "
                            f"form, first at index {bad[0]}")
    return problems


WORKLOADS = {w.name: w for w in (ValidateDense, SpectrumDouble,
                                 ClassifyRandom, ManifoldsFig3)}
