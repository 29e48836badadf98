"""End-to-end acceptance checks.

Each test exercises one observable promise of the package, against
independently known values, and records a one-line PASS/FAIL summary
(printed in the terminal summary section) together with its runtime budget.
"""

import math

import numpy as np
import pytest

import hierdde as h
from hierdde import linalg
from hierdde.manifolds import PhasePoint


def test_criterion_1_threshold_of_second_scale(criterion):
    """The second-scale supremum crosses zero exactly at |c| = 0.3."""
    with criterion(1, "scale-2 sup crosses zero at |c|=0.3", budget=30.0):
        expect = {0.2: -math.log(1.5), 0.3: 0.0, 0.4: math.log(4.0 / 3.0)}
        for c, want in expect.items():
            p = h.ScalarParams(a=-0.4 + 0.5j, b=0.1, c=c)
            closed = h.sup_gamma2(p)
            assert closed == pytest.approx(want, abs=1e-12)
            s = h.DelaySystem.scalar(-0.4 + 0.5j, (0.1, c))
            est = h.sup_gamma(s, 2)
            assert est.sup == pytest.approx(want, abs=1e-4)
        assert h.sup_gamma2(h.ScalarParams(a=-0.4 + 0.5j, b=0.1, c=0.2)) < 0
        assert h.sup_gamma2(h.ScalarParams(a=-0.4 + 0.5j, b=0.1, c=0.4)) > 0


def test_criterion_2_general_matches_scalar_table(criterion):
    """On a parameter lattice the general classifier reproduces the table."""
    with criterion(2, "classifier lattice agreement", budget=300.0):
        checked = 0
        for ra in np.linspace(-0.8, 0.8, 5):
            if abs(ra) <= 0.02:
                continue  # marginal band: drift on the imaginary axis
            for bmag in np.linspace(0.05, 0.9, 5):
                for cmag in np.linspace(0.05, 0.9, 5):
                    a = complex(ra, 0.3)
                    p = h.ScalarParams(a=a, b=bmag, c=cmag)
                    want = h.classify_scalar(p)
                    s = h.DelaySystem.scalar(a, (bmag, cmag))
                    got = h.classify(s, h.build_ladder(s))
                    assert got.status == want.status, (ra, bmag, cmag)
                    assert got.scale == want.scale, (ra, bmag, cmag)
                    checked += 1
        assert checked == 100


def test_criterion_3_strong_root_convergence(criterion):
    """An unstable frozen eigenvalue attracts a true root at rate eps."""
    with criterion(3, "strong-spectrum root convergence", budget=10.0):
        s = h.DelaySystem.scalar(0.3, (0.1, 0.1))
        sp = h.strong_spectrum(s)
        assert np.allclose(sp.S0_plus, [0.3])
        r = sp.r
        assert r == pytest.approx(0.1)
        box = h.Rectangle(0.3 - r, 0.3 + r, -r, r)
        dists = []
        for eps in (0.1, 0.05):
            f, fp = h.char_function(s, eps)
            roots = h.find_roots(f, box, fprime=fp)
            assert len(roots) == 1 and roots[0].multiplicity == 1
            dists.append(abs(roots[0].location - 0.3))
        assert dists[0] <= 0.01
        assert dists[1] <= dists[0] / 5.0


def test_criterion_4_unstable_family_tracked_across_eps(criterion):
    """Located roots follow the second-scale curve as eps shrinks."""
    with criterion(4, "eps-sweep validation of the unstable family",
                   budget=300.0):
        cfg = h.preset_config("fig2-unstable", eps_list=(0.05, 0.02, 0.01))
        rep = h.run_validate(cfg, write=False)
        assert [rec.eps for rec in rep.records] == [0.05, 0.02, 0.01]
        series = []
        for rec, eps in zip(rep.records, (0.05, 0.02, 0.01)):
            assert rec.count > 0
            for a in rec.assignments:
                assert a.assigned
                assert abs(a.eigenvalue.real) < 0.05
                assert a.scale == 2
            md = rec.max_distance[2]
            series.append(md)
            assert md <= 0.5
        # the fit tightens as the hierarchy separates; allow factor-2 noise
        for prev, nxt in zip(series, series[1:]):
            assert nxt <= 2.0 * prev + 1e-12
        assert series[-1] <= 0.1


def test_criterion_5_two_families_partition_spectrum(criterion):
    """With mixed scales every root lands on its own asymptotic curve."""
    with criterion(5, "two-family validation of the mixed example",
                   budget=300.0):
        cfg = h.preset_config("fig3", eps_list=(0.01,))
        rep = h.run_validate(cfg, write=False)
        (rec,) = rep.records
        assert rec.count > 0
        assert all(a.assigned for a in rec.assignments)
        fam1 = [a for a in rec.assignments if a.scale == 1]
        fam2 = [a for a in rec.assignments if a.scale == 2]
        assert len(fam1) > 0 and len(fam2) > 0
        assert len(fam1) + len(fam2) == rec.count
        for a in fam1:
            assert a.distance <= 0.1
            # first-scale roots live on the bounded frequency interval
            assert 0.15 < a.rescaled.imag < 0.85
        for a in fam2:
            assert a.distance <= 0.15


def test_criterion_6_degenerate_spectrum_is_exact(criterion):
    """A zero pivot collapses the spectrum to fixed points, at every eps."""
    with criterion(6, "degenerate system has eps-independent spectrum",
                   budget=10.0):
        A1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        degen = h.DelaySystem(
            matrices=(np.array([[-1.2, 0.7], [0.0, 0.5]], dtype=complex), A1),
            sigma=(1.0,))
        assert not h.build_ladder(degen).nd_satisfied
        box = h.Rectangle(-2.0, 2.0, -2.0, 2.0)
        spectra = []
        for eps in (0.2, 0.1):
            f, fp = h.char_function(degen, eps)
            roots = h.find_roots(f, box, fprime=fp)
            locs = np.sort_complex(np.array([r.location for r in roots]))
            assert len(locs) == 2
            assert np.allclose(locs, [-1.2, 0.5], atol=1e-8)
            spectra.append(locs)
        assert np.allclose(spectra[0], spectra[1], atol=1e-8)
        # restoring the pivot restores nondegeneracy
        sound = h.DelaySystem(
            matrices=(np.array([[-1.2, 0.7], [0.4, 0.5]], dtype=complex), A1),
            sigma=(1.0,))
        assert h.build_ladder(sound).nd_satisfied


def test_criterion_7_singular_points_of_second_scale(criterion):
    """Zero crossings of the first scale puncture the second-scale sheet."""
    with criterion(7, "singular points and blow-up flags", budget=5.0):
        p = h.preset_params("fig3")
        zeros = h.gamma1_zeros(p)
        assert zeros == pytest.approx((0.2, 0.8), abs=1e-12)
        phis = h.phi_singular(p)
        assert phis == pytest.approx(
            (0.6435011087932843, 5.639684198386302), abs=1e-9)
        s = h.preset_system("fig3")
        for om, phi in zip(zeros, phis):
            flags = h.singularity_test(s, 2, PhasePoint(omega=om, phi=(phi,)))
            assert flags.plus_infinity_condition
            assert h.gamma2(p, om, phi) > 20.0
        generic = h.singularity_test(s, 2, PhasePoint(omega=0.5, phi=(1.0,)))
        assert not generic.plus_infinity_condition
        assert not generic.minus_infinity_condition


def test_criterion_8_randomized_invariants(criterion):
    """Bulk randomized checks of the load-bearing numerical identities."""
    with criterion(8, "randomized invariant suites", budget=120.0):
        rng = np.random.default_rng(31337)

        # factorization invariants of the kernel extractor
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            r = linalg.svd(m)
            assert np.allclose(r.U @ np.diag(r.s) @ r.Vh, m, atol=1e-11)
            assert np.allclose(r.U.conj().T @ r.U, np.eye(d), atol=1e-12)
            assert np.allclose(r.Vh @ r.Vh.conj().T, np.eye(d), atol=1e-12)
            assert np.all(np.diff(r.s) <= 0) and np.all(r.s >= 0)

        # boundary winding counts match known root counts
        box = h.Rectangle(-1.5, 1.5, -1.5, 1.5)
        done = 0
        while done < 500:
            deg = int(rng.integers(1, 7))
            roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
            near = np.minimum(np.abs(np.abs(roots.real) - 1.5),
                              np.abs(np.abs(roots.imag) - 1.5)) < 1e-3
            if near.any():
                continue
            coeffs = np.poly(roots)
            dcoeffs = np.polyder(coeffs)
            count = h.count_zeros(lambda z: np.polyval(coeffs, z), box,
                                  fprime=lambda z: np.polyval(dcoeffs, z))
            inside = (np.abs(roots.real) < 1.5) & (np.abs(roots.imag) < 1.5)
            assert count == int(inside.sum())
            done += 1

        # analytic derivative of the determinant vs central differences
        checked = 0
        while checked < 100:
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            mats = tuple(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(n + 1))
            sig = tuple(float(x) for x in rng.uniform(0.5, 1.5, n))
            s = h.DelaySystem(matrices=mats, sigma=sig)
            eps = float(rng.uniform(0.3, 1.0))
            lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2))
            f, fp = h.char_function(s, eps)
            dv = fp(lam)[0]
            step = 1e-7 * (1 + abs(lam))
            cd = (f(lam + step)[0] - f(lam - step)[0]) / (2 * step)
            assert abs(dv - cd) <= 1e-6 * (1 + abs(dv))
            checked += 1

        # consecutive-scale consistency of the frozen-phase polynomials
        for _ in range(50):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 4))
            mats = tuple(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(n + 1))
            sig = tuple(float(x) for x in rng.uniform(0.5, 1.5, n))
            s = h.DelaySystem(matrices=mats, sigma=sig)
            k = int(rng.integers(1, n))
            om = float(rng.uniform(-2, 2))
            phi = [float(x) for x in rng.uniform(0, 6, k - 1)]
            phik = float(rng.uniform(0, 6))
            low = h.truncated_char_poly(s, k, PhasePoint(omega=om, phi=tuple(phi)))
            high = h.truncated_char_poly(
                s, k + 1, PhasePoint(omega=om, phi=tuple(phi + [phik])))
            y = np.exp(-1j * sig[k - 1] * phik)
            val = sum(c * y ** j for j, c in enumerate(low))
            assert abs(val - high[0]) <= 1e-9 * (1.0 + abs(val))
