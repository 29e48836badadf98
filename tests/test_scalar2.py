"""Closed forms for the scalar two-delay family and its stability table."""

import math

import numpy as np
import pytest

import hierdde as h
from hierdde.errors import ConfigError
from hierdde.scalar2 import classify_coefs, gamma_k, sup_gamma_k


FIG2 = {name: h.preset_params(name)
        for name in ("fig2-stable", "fig2-neutral", "fig2-unstable")}
FIG3 = h.preset_params("fig3")


def test_params_validation():
    for kw in (dict(a=0.0, b=1.0, c=1.0),
               dict(a=-1.0, b=0.0, c=1.0),
               dict(a=-1.0, b=1.0, c=0.0),
               dict(a=float("nan"), b=1.0, c=1.0)):
        with pytest.raises(ConfigError):
            h.ScalarParams(**kw)
    # a purely imaginary drift is legal (it classifies as Marginal)
    h.ScalarParams(a=0.5j, b=1.0, c=1.0)


def test_preset_values():
    p = FIG2["fig2-stable"]
    assert p.a == -0.4 + 0.5j and p.b == 0.1 and p.c == 0.2
    assert FIG2["fig2-neutral"].c == 0.3
    assert FIG2["fig2-unstable"].c == 0.4
    assert FIG3.b == 0.5 and FIG3.c == 0.3


def test_gamma1_example_value():
    # at the drift frequency the first-scale rate is ln(|b| / |Re a|)
    p = FIG2["fig2-stable"]
    assert h.gamma1(p, 0.5) == pytest.approx(-math.log(4.0), abs=1e-12)
    assert h.gamma1(p, 0.5) == pytest.approx(math.log(0.1 / 0.4), abs=1e-12)


def test_gamma1_max_at_drift_frequency():
    rng = np.random.default_rng(1717)
    for _ in range(100):
        a = complex(rng.uniform(-1.5, -0.05), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.05, 1.5) * np.exp(1j * rng.uniform(0, 6.3)))
        p = h.ScalarParams(a=a, b=b, c=1.0)
        peak = h.gamma1(p, a.imag)
        assert peak == pytest.approx(math.log(abs(b) / abs(a.real)), abs=1e-12)
        for om in np.linspace(a.imag - 2, a.imag + 2, 9):
            assert h.gamma1(p, float(om)) <= peak + 1e-12


def test_gamma1_blows_up_on_imaginary_drift():
    p = h.ScalarParams(a=0.5j, b=0.3, c=0.1)
    assert math.isinf(h.gamma1(p, 0.5))
    assert h.gamma1(p, 0.6) < h.gamma1(p, 0.55)


def test_gamma1_zeros():
    assert h.gamma1_zeros(FIG3) == pytest.approx((0.2, 0.8), abs=1e-12)
    assert h.gamma1_zeros(FIG2["fig2-stable"]) is None
    double = h.gamma1_zeros(h.ScalarParams(a=-0.4 + 0.5j, b=0.4, c=0.1))
    assert double == pytest.approx((0.5, 0.5), abs=1e-12)


def test_gamma2_example_value():
    # neutral family: at the aligned phase and peak frequency the rate is 0
    p = FIG2["fig2-neutral"]
    assert h.gamma2(p, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_gamma2_peak_frequency():
    p = FIG2["fig2-neutral"]
    rng = np.random.default_rng(1818)
    for _ in range(20):
        phi = float(rng.uniform(0, 2 * np.pi))
        om_star = h.gamma2_peak_omega(p, phi)
        assert om_star == pytest.approx(
            p.a.imag - abs(p.b) * math.sin(phi - np.angle(p.b)), abs=1e-12)
        # stationary and locally maximal
        step = 1e-6
        fd = (h.gamma2(p, om_star + step, phi)
              - h.gamma2(p, om_star - step, phi)) / (2 * step)
        assert abs(fd) <= 1e-5
        assert h.gamma2(p, om_star, phi) >= h.gamma2(p, om_star + 0.1, phi)
        assert h.gamma2(p, om_star, phi) >= h.gamma2(p, om_star - 0.1, phi)


def test_gamma2_shifts_with_log_of_last_coefficient():
    p = FIG2["fig2-stable"]
    rng = np.random.default_rng(1919)
    for _ in range(20):
        s = float(rng.uniform(-1.0, 1.0))
        p2 = h.ScalarParams(a=p.a, b=p.b, c=p.c * math.exp(s))
        om = float(rng.uniform(-1, 1))
        phi = float(rng.uniform(0, 2 * np.pi))
        assert h.gamma2(p2, om, phi) == pytest.approx(
            h.gamma2(p, om, phi) + s, abs=1e-10)


def test_sup_gamma2_threshold_family():
    assert h.sup_gamma2(FIG2["fig2-stable"]) == pytest.approx(
        -math.log(1.5), abs=1e-12)
    assert h.sup_gamma2(FIG2["fig2-neutral"]) == pytest.approx(0.0, abs=1e-12)
    assert h.sup_gamma2(FIG2["fig2-unstable"]) == pytest.approx(
        math.log(4.0 / 3.0), abs=1e-12)
    # once the first scale admits zero crossings the second-scale sup diverges
    assert math.isinf(h.sup_gamma2(FIG3))


def test_sup_gamma2_dominates_and_is_attained():
    p = FIG2["fig2-unstable"]
    sup = h.sup_gamma2(p)
    rng = np.random.default_rng(2020)
    for _ in range(200):
        om = float(rng.uniform(-3, 3))
        phi = float(rng.uniform(0, 2 * np.pi))
        assert h.gamma2(p, om, phi) <= sup + 1e-12
    phi_star = float(np.angle(p.b))
    om_star = h.gamma2_peak_omega(p, phi_star)
    assert h.gamma2(p, om_star, phi_star) == pytest.approx(sup, abs=1e-12)


def test_phi_singular_values():
    phis = h.phi_singular(FIG3)
    assert phis == pytest.approx((0.6435011087932843, 5.639684198386302), abs=1e-9)
    assert h.phi_singular(FIG2["fig2-stable"]) is None


def test_singular_coincidence_blows_up():
    zeros = h.gamma1_zeros(FIG3)
    phis = h.phi_singular(FIG3)
    for om, phi in zip(zeros, phis):
        assert h.gamma2(FIG3, om, phi) > 20.0


def test_classification_table():
    assert h.classify_scalar(FIG2["fig2-stable"]).status == "Stable"
    assert h.classify_scalar(FIG2["fig2-neutral"]).status == "Marginal"
    v_wu2 = h.classify_scalar(FIG2["fig2-unstable"])
    assert v_wu2.status == "WeaklyUnstable" and v_wu2.scale == 2
    assert len(v_wu2.sup_gammas) == 2
    k, point, branch, sup = v_wu2.witness
    assert k == 2 and sup == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)
    v_wu1 = h.classify_scalar(FIG3)
    assert v_wu1.status == "WeaklyUnstable" and v_wu1.scale == 1
    assert len(v_wu1.sup_gammas) == 1  # search stops at the first bad scale
    assert v_wu1.witness[3] == pytest.approx(math.log(0.5 / 0.4), abs=1e-9)


def test_classification_edge_cases():
    v = h.classify_scalar(h.ScalarParams(a=0.3, b=0.1, c=0.1))
    assert v.status == "StronglyUnstable"
    assert v.witness == pytest.approx(0.3)
    assert len(v.sup_gammas) == 0
    assert h.classify_scalar(h.ScalarParams(a=0.5j, b=0.3, c=0.1)).status == "Marginal"
    assert h.classify_scalar(
        h.ScalarParams(a=-0.4 + 0.5j, b=0.4, c=0.1)).status == "Marginal"


def test_stable_verdict_has_both_sups():
    v = h.classify_scalar(FIG2["fig2-stable"])
    assert [e.k for e in v.sup_gammas] == [1, 2]
    assert v.sup_gammas[0].sup == pytest.approx(math.log(0.1 / 0.4), abs=1e-12)
    assert v.sup_gammas[1].sup == pytest.approx(-math.log(1.5), abs=1e-12)


# a0 = -0.4+0.5i with (a1, a2, a3) = (0.1, 0.15, 0.4) loses stability at
# scale 3; the others take one verdict region each
_DEPTH3 = {
    "weak-3": (-0.4 + 0.5j, 0.1, 0.15, 0.4),
    "strong": (0.3 + 0.1j, 0.1, 0.1, 0.1),
    "weak-1": (-0.4 + 0.5j, 0.5, 0.1, 0.1),
    "weak-2": (-0.4 + 0.5j, 0.1, 0.35, 0.1),
    "stable": (-0.6 - 0.3j, 0.2j, -0.15, 0.1 * np.exp(2j)),
}


def _random_depth3(rng, count):
    """Seeded n = 3 coefficient tuples at least 0.02 from every boundary
    |a_k| = g_k, so the margin bands of both classifiers stay clear."""
    out = []
    while len(out) < count:
        a0 = complex(rng.uniform(-1.0, -0.2), rng.uniform(-1.0, 1.0))
        rest = rng.uniform(0.05, 0.5, 3) * np.exp(1j * rng.uniform(0, 6.3, 3))
        gaps = abs(a0.real) - np.concatenate([[0.0], np.cumsum(abs(rest))])
        if np.abs(abs(rest) - gaps[:3]).min() > 0.02:
            out.append((a0, *rest))
    return out


def test_classify_agrees_with_the_closed_form_at_depth_three():
    grid = h.GridSpec(omega_count=101, phase_count=16)
    systems = [*_DEPTH3.values(), *_random_depth3(
        np.random.default_rng(2424), 4)]
    for coefs in systems:
        want = classify_coefs(coefs)
        sys_ = h.DelaySystem.scalar(coefs[0], coefs[1:])
        got = h.classify(sys_, h.build_ladder(sys_), grid)
        assert (got.status, got.scale) == (want.status, want.scale)
        assert [e.k for e in got.sup_gammas] == [e.k for e in want.sup_gammas]
        for g, w in zip(got.sup_gammas, want.sup_gammas):
            assert g.sup == pytest.approx(w.sup, abs=1e-12)
    sups = [e.sup for e in classify_coefs(_DEPTH3["weak-3"]).sup_gammas]
    assert sups == pytest.approx([-1.38629, -0.69315, 0.98083], abs=1e-5)
    assert {classify_coefs(c).status for c in systems} == {
        "StronglyUnstable", "WeaklyUnstable", "Stable"}


def test_gamma_k_is_the_manifold_height_at_depth_three():
    # every scale's closed form is the general grid's height, and the
    # supremum is the height at omega = Im a0, phi_j = Arg a_j
    coefs = _DEPTH3["weak-3"]
    sys_ = h.DelaySystem.scalar(coefs[0], coefs[1:])
    grid = h.GridSpec(omega_count=11, phase_count=4)
    for k in (1, 2, 3):
        samples = h.manifold_grid(sys_, k, grid)
        assert len(samples) == 11 * 4 ** (k - 1)
        for s in samples:
            assert gamma_k(coefs, s.point.omega, *s.point.phi) == \
                pytest.approx(s.gamma, abs=1e-12)
        phis = [float(np.angle(a)) for a in coefs[1:k]]
        assert gamma_k(coefs, coefs[0].imag, *phis) == pytest.approx(
            sup_gamma_k(coefs, k), abs=1e-14)
