import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lvbif import bifurcation as bif
from lvbif.cases import (CANONICAL_BY_FAMILY, CANONICAL_NONDEGENERATE,
                         deltazero_case, nondegenerate_case)
from lvbif.equilibria import find_equilibria
from lvbif.errors import (CollisionMismatch, HypothesisViolation,
                          NotApplicable)
from lvbif.model import (DELTA_ZERO, THETA_ZERO, ParamArray, ParamPoint,
                         ReducedSystem, field_at, jacobian_at, mirror)
from lvbif.poly import linear_poly
from lvbif.verification import sotomayor_fixture

from conftest import rand_deltazero, rand_thetazero, scan_systems


def dz(theta=1.0, d1=1.0, d2=0.0, P=1.0, gamma=1.0, **kw):
    return ReducedSystem.from_coeffs(
        theta=theta, gamma=gamma, delta=linear_poly(0.0, d1, d2), P=P, **kw)


def tz(delta=1.0, t1=1.0, t2=1.5, N=1.0, gamma=1.0, **kw):
    return ReducedSystem.from_coeffs(
        delta=delta, gamma=gamma, theta=linear_poly(0.0, t1, t2), N=N, **kw)


# -- tracing -----------------------------------------------------------------

def test_discriminant_parabola_closed_form():
    sys_ = dz(d1=1.0, d2=0.0, P=1.0)
    # with delta(mu) = mu1 and constant P the discriminant curve is exact
    mu0 = bif.parabola_point(sys_, bif.D_NEG, -0.01)
    assert mu0.mu2 == pytest.approx(2.5e-5, rel=1e-10)
    curve = bif.trace_curve(sys_, bif.D_NEG, [1e-3, 1e-4])
    assert curve.leading == pytest.approx(0.25, rel=0.02)
    assert all(abs(res) < bif.CURVE_TOL * (1.0 + p.norm)
               for p, res in zip(curve.samples, curve.residuals))


def test_half_trace_curve_slope():
    sys_ = ReducedSystem.from_coeffs(theta=2.0, delta=-1.0, gamma=1.0)
    curve = bif.trace_curve(sys_, bif.H, [1e-3, 1e-4])
    assert not curve.empty
    expect = (2.0 * 1.0 - 1.0) * (-1.0) / (2.0 * 1.0 * (1.0 - (-1.0)))
    assert expect == pytest.approx(-0.25)
    assert curve.leading == pytest.approx(expect, rel=0.05)


def test_half_trace_needs_distinct_gamma_delta():
    sys_ = ReducedSystem.from_coeffs(theta=2.0, delta=1.0, gamma=1.0)
    with pytest.raises(NotApplicable):
        bif.trace_curve(sys_, bif.H, [1e-3])


def test_collision_line_respects_halfline():
    sys_ = ReducedSystem.from_coeffs(theta=0.5, delta=-0.5, gamma=1.0)
    curve = bif.trace_curve(sys_, bif.T1, [1e-3])
    assert len(curve.samples) == 1
    assert curve.samples[0].mu1 < 0.0  # theta > 0 forces mu1 < 0


def test_kind_admissibility():
    with pytest.raises(NotApplicable):
        bif.trace_curve(dz(), bif.T4, [1e-3])
    with pytest.raises(NotApplicable):
        bif.trace_curve(tz(), bif.T3, [1e-3])
    with pytest.raises(NotApplicable):
        bif.trace_curve(dz(), bif.H, [1e-3])


def test_leading_coefficient_convergence():
    # fitted leading coefficients approach the predicted values linearly
    sys_ = sotomayor_fixture(DELTA_ZERO, "a")
    for kind in (bif.D_NEG, bif.T3):
        pred = bif.predicted_leading(sys_, kind)
        errs = []
        for r in (1e-3, 1e-4):
            curve = bif.trace_curve(sys_, kind, [r])
            errs.append(abs(curve.leading - pred))
        assert errs[1] < 0.3 * errs[0]


def test_fold_points_keep_their_axis_pair():
    # a fold point a few ulps inside the discriminant's negative side has no
    # colliding axis pair at all
    fold = deltazero_case(1.0, 1.5)
    for family, extra, pair in ((DELTA_ZERO, fold, {"E21", "E22"}),
                                (THETA_ZERO, mirror(fold), {"E11", "E12"})):
        systems = [s for _, s in CANONICAL_BY_FAMILY[family]] + [extra]
        for sys_ in systems:
            for kind, sign in ((bif.D_NEG, -1.0), (bif.D_POS, 1.0)):
                for c in np.geomspace(1e-4, 5e-3, 40):
                    mu = bif.parabola_point(sys_, kind, sign * c)
                    labels = {e.label for e in find_equilibria(sys_, mu)}
                    assert pair <= labels, (family, kind, c)


def test_parabola_ordering_t3_below_d():
    # the interior-collision parabola lies under the discriminant parabola
    for d1 in (1.5, 3.0, -1.0):
        sys_ = dz(d1=d1, d2=0.1, P=1.0)
        for m1 in np.geomspace(1e-4, 8e-3, 20):
            t3 = bif.parabola_point(sys_, bif.T3, -m1)
            d = bif.parabola_point(sys_, bif.D_NEG, -m1)
            assert t3.mu2 < d.mu2


# -- saddle-node genericity ---------------------------------------------------

def test_saddle_node_worked_example_axis2():
    sys_ = dz(theta=1.0, d1=1.0, d2=1.0, P=1.0)
    mu0 = bif.parabola_point(sys_, bif.D_NEG, -0.001)
    rep = bif.sotomayor_saddle_node(sys_, mu0)
    assert rep.verdict == "SaddleNode"
    assert rep.C1 == pytest.approx(5e-4, rel=0.05)
    assert rep.C3 == pytest.approx(1e-3, rel=0.05)
    # kernel vectors follow the component convention of the proofs
    assert rep.v == pytest.approx((0.0, 1.0))
    assert rep.w[1] == 1.0
    assert rep.w[0] == pytest.approx(1.0 / (1.0 * (2.0 - 1.0)), rel=0.05)


def test_saddle_node_worked_example_axis1():
    sys_ = tz(delta=1.0, t1=1.0, t2=3.0, N=1.0)
    mu0 = bif.parabola_point(sys_, bif.D_POS, 0.001)
    rep = bif.sotomayor_saddle_node(sys_, mu0)
    assert rep.verdict == "SaddleNode"
    # -mu2 (2N gamma - theta2) / (2 N gamma^2) = -1e-3 * (-1) / 2
    assert rep.C1 == pytest.approx(5e-4, rel=0.05)
    assert rep.C3 == pytest.approx(1e-3, rel=0.05)
    assert rep.v == pytest.approx((1.0, 0.0))


def test_saddle_node_hypothesis_violation_is_inconclusive():
    sys_ = dz(theta=1.0, d1=2.0, d2=1.0, P=1.0)  # 2P - d1*gamma = 0
    mu0 = bif.parabola_point(sys_, bif.D_NEG, -0.001)
    rep = bif.sotomayor_saddle_node(sys_, mu0)
    assert rep.verdict == "Inconclusive"


def test_saddle_node_random_sweep(rng):
    for _ in range(10):
        sys_ = rand_deltazero(rng)
        for kind, c in ((bif.D_NEG, -1e-3), (bif.D_POS, 1e-3)):
            rep = bif.sotomayor_saddle_node(
                sys_, bif.parabola_point(sys_, kind, c))
            assert rep.verdict == "SaddleNode"
            assert rep.C1 == pytest.approx(rep.predicted["C1"], rel=0.05)
            assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)
        sys_ = rand_thetazero(rng)
        for kind, c in ((bif.D_POS, 1e-3), (bif.D_NEG, -1e-3)):
            rep = bif.sotomayor_saddle_node(
                sys_, bif.parabola_point(sys_, kind, c))
            assert rep.verdict == "SaddleNode"
            assert rep.C1 == pytest.approx(rep.predicted["C1"], rel=0.05)
            assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)


# -- transcritical genericity -------------------------------------------------

def test_transcritical_worked_example_t3():
    sys_ = ReducedSystem.from_coeffs(
        theta=1.0, gamma=linear_poly(1.0, 0.0, 1.0),
        delta=linear_poly(0.0, 1.0, 1.0), P=1.0)
    mu0 = bif.parabola_point(sys_, bif.T3, -0.001)
    rep = bif.sotomayor_transcritical(sys_, mu0)
    assert rep.verdict == "Transcritical"
    assert abs(rep.C1) < 1e-9
    assert rep.C2 == pytest.approx(-1e-6, rel=0.05)
    assert rep.C3 == pytest.approx(-2e-3, rel=0.05)
    assert rep.w == pytest.approx((1.0, 0.0))
    assert rep.v[1] == 1.0


def test_transcritical_worked_example_t4():
    sys_ = ReducedSystem.from_coeffs(
        delta=1.0, gamma=linear_poly(1.0, 1.0, 0.0),
        theta=linear_poly(0.0, 1.0, 1.5), N=1.0)
    mu0 = bif.parabola_point(sys_, bif.T4, -0.001)
    rep = bif.sotomayor_transcritical(sys_, mu0)
    assert rep.verdict == "Transcritical"
    assert rep.C2 == pytest.approx(-1e-3, rel=0.05)
    assert rep.C3 == pytest.approx(2.0 / ((2.0 - 1.5) * (-1e-3)), rel=0.05)
    assert rep.w == pytest.approx((0.0, 1.0))


def test_transcritical_requires_gamma_partial():
    sys_ = dz(theta=1.0, d1=1.0, d2=1.0, P=1.0)  # gamma constant
    mu0 = bif.parabola_point(sys_, bif.T3, -0.001)
    with pytest.raises(HypothesisViolation):
        bif.sotomayor_transcritical(sys_, mu0)


def test_transcritical_random_sweep(rng):
    for _ in range(10):
        sys_ = rand_deltazero(rng)
        rep = bif.sotomayor_transcritical(
            sys_, bif.parabola_point(sys_, bif.T3, -1e-3))
        assert rep.verdict == "Transcritical"
        assert abs(rep.C1) < 1e-9 * abs(rep.C2)
        assert rep.C2 == pytest.approx(rep.predicted["C2"], rel=0.05)
        assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)
        sys_ = rand_thetazero(rng)
        rep = bif.sotomayor_transcritical(
            sys_, bif.parabola_point(sys_, bif.T4, -1e-3))
        assert rep.verdict == "Transcritical"
        assert abs(rep.C1) < 1e-9 * abs(rep.C2)
        assert rep.C2 == pytest.approx(rep.predicted["C2"], rel=0.05)
        assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)


# -- collision bookkeeping -----------------------------------------------------

def suite_collision_points():
    """(system, mu0, xi0, param) at every Sotomayor check of the suite."""
    out = []
    for fam, param, t in ((DELTA_ZERO, 1, bif.T3), (THETA_ZERO, 0, bif.T4)):
        for branch in "ab":
            sys_ = sotomayor_fixture(fam, branch)
            for kind, coord, check in (
                    (bif.D_NEG, -1e-3, bif.sotomayor_saddle_node),
                    (bif.D_POS, 1e-3, bif.sotomayor_saddle_node),
                    (t, -1e-3, bif.sotomayor_transcritical)):
                rep = check(sys_, bif.parabola_point(sys_, kind, coord))
                out.append((sys_, rep.mu0, rep.xi0, param))
    for _, sys_ in CANONICAL_NONDEGENERATE[:2]:
        for kind, label, param in ((bif.T1, "E1", 1), (bif.T2, "E2", 0)):
            for mu0 in bif.trace_curve(sys_, kind, [1e-3]).samples:
                xi0 = find_equilibria(sys_, mu0).get(label).xi
                out.append((sys_, mu0, xi0, param))
    return out


def test_parameter_derivatives_match_a_central_difference():
    points = suite_collision_points()
    assert len(points) == 16
    for sys_, mu0, xi0, param in points:
        h = 1e-7 * (1.0 + mu0.norm)
        step = (h, 0.0) if param == 0 else (0.0, h)
        plus = ParamPoint(mu0.mu1 + step[0], mu0.mu2 + step[1])
        minus = ParamPoint(mu0.mu1 - step[0], mu0.mu2 - step[1])
        for evaluate in (field_at, jacobian_at):
            exact = bif._d_parameter(evaluate, sys_, mu0, xi0, param)
            central = (np.asarray(evaluate(sys_.at(plus), xi0))
                       - np.asarray(evaluate(sys_.at(minus), xi0))) / (2.0 * h)
            assert np.abs(exact - central).max() <= 1e-6 * np.abs(central).max()


def test_collision_pair_on_t3_both_branches():
    a = sotomayor_fixture(DELTA_ZERO, "a")   # gamma*d1 - 2P < 0
    curve_a = bif.trace_curve(a, bif.T3, [1e-3])
    rec = bif.collision_check(a, curve_a)[0]
    assert set(rec.pair) == {"E3", "E21"}
    assert abs(rec.vanishing_eig) < 1e-9 * rec.mu.norm
    assert rec.companion == "E22"
    assert rec.companion_kind.startswith("attractor")

    b = sotomayor_fixture(DELTA_ZERO, "b")   # gamma*d1 - 2P > 0
    curve_b = bif.trace_curve(b, bif.T3, [1e-3])
    rec = bif.collision_check(b, curve_b)[0]
    assert set(rec.pair) == {"E3", "E22"}
    assert rec.companion == "E21"
    assert rec.companion_kind.startswith("repeller")


def test_collision_pair_on_t4_both_branches():
    a = sotomayor_fixture(THETA_ZERO, "a")
    rec = bif.collision_check(a, bif.trace_curve(a, bif.T4, [1e-3]))[0]
    assert set(rec.pair) == {"E3", "E11"}
    assert rec.companion == "E12"
    assert rec.companion_kind.startswith("attractor")
    b = sotomayor_fixture(THETA_ZERO, "b")
    rec = bif.collision_check(b, bif.trace_curve(b, bif.T4, [1e-3]))[0]
    assert set(rec.pair) == {"E3", "E12"}
    assert rec.companion == "E11"
    assert rec.companion_kind.startswith("repeller")


def test_collision_on_t1_is_axis_point():
    sys_ = ReducedSystem.from_coeffs(theta=0.5, delta=0.5, gamma=1.0,
                                     M=0.1, N=0.1, L=0.1, S=0.1, P=0.1, R=0.1)
    curve = bif.trace_curve(sys_, bif.T1, [1e-3])
    rec = bif.collision_check(sys_, curve)[0]
    assert set(rec.pair) == {"E1", "E3"}
    assert rec.vanishing == "E1"
    mu = rec.mu
    eqs = find_equilibria(sys_, mu)
    e1 = eqs.get("E1")
    assert e1.xi[0] == pytest.approx(-mu.mu1 / 0.5, rel=1e-2)
    assert abs(rec.vanishing_eig) < 1e-9 * mu.norm


def test_collision_mismatch_detected():
    # asking for the T1 pair on a curve whose samples sit on T2 must fail
    sys_ = ReducedSystem.from_coeffs(theta=0.5, delta=0.5, gamma=1.0)
    t2 = bif.trace_curve(sys_, bif.T2, [1e-3])
    fake = bif.BifurcationCurve(kind=bif.T1, halfline="",
                                samples=t2.samples, residuals=t2.residuals)
    with pytest.raises(CollisionMismatch):
        bif.collision_check(sys_, fake)


# -- curve geometry invariants --------------------------------------------------

def test_all_curve_residuals_below_tolerance():
    systems = (sotomayor_fixture(DELTA_ZERO, "a"),
               sotomayor_fixture(THETA_ZERO, "b"),
               ReducedSystem.from_coeffs(theta=-2.0, delta=-1.0, gamma=1.0,
                                         M=0.1, N=0.1, L=0.1, S=0.1, P=0.1,
                                         R=0.1))
    for sys_ in systems:
        for kind in bif.admissible_kinds(sys_):
            try:
                curve = bif.trace_curve(sys_, kind, [1e-3, 1e-4])
            except NotApplicable:
                continue
            for p, res in zip(curve.samples, curve.residuals):
                assert abs(res) < bif.CURVE_TOL * (1.0 + p.norm)


def test_half_trace_direction_outside_interior_wedge():
    # for theta*delta > 1 the zero-trace line cannot enter the wedge where
    # the interior point is proper
    for th, de, g in ((2.0, 1.0, 0.8), (-2.0, -1.0, 0.8), (3.0, 0.5, 1.5),
                      (-3.0, -0.5, 1.5)):
        sys_ = ReducedSystem.from_coeffs(theta=th, delta=de, gamma=g)
        assert th * de - 1.0 > 0.0
        curve = bif.trace_curve(sys_, bif.H, [1e-3])
        for p in curve.samples:
            u = g * p.mu2 - de * p.mu1
            v = p.mu1 - th * g * p.mu2
            assert not (u > 0.0 and v > 0.0)


# -- batched circle scans -----------------------------------------------------

SCAN_PHIS = np.linspace(0.0, 2.0 * math.pi, bif.N_SCAN + 1)


def scalar_circle_roots(residual, r):
    """The circle scan one angle at a time, as the reference."""
    vals = [residual(ParamPoint.from_polar(r, p)) for p in SCAN_PHIS]
    roots = []
    for k in range(bif.N_SCAN):
        a, b = vals[k], vals[k + 1]
        if a == 0.0:
            roots.append(SCAN_PHIS[k])
        elif a * b < 0.0:
            f = lambda p: residual(ParamPoint.from_polar(r, p))
            roots.append(brentq(f, SCAN_PHIS[k], SCAN_PHIS[k + 1], xtol=1e-15,
                                rtol=4.0 * np.finfo(float).eps))
    return vals, sorted(p % (2.0 * math.pi) for p in roots)


# the axis kinds that share a zero set: circle_zeros places both of its
# points on the axis directions, and the scalar scan finds both as roots
AXIS_ZERO_SET = {bif.X_PLUS: [bif.X_PLUS, bif.X_MINUS],
                 bif.X_MINUS: [bif.X_PLUS, bif.X_MINUS],
                 bif.Y_PLUS: [bif.Y_PLUS, bif.Y_MINUS],
                 bif.Y_MINUS: [bif.Y_PLUS, bif.Y_MINUS]}


def test_batched_scan_matches_scalar_scan():
    r = 1e-3
    for sys_ in scan_systems(n_random=6):
        for kind in bif.admissible_kinds(sys_):
            try:
                residual = bif.curve_residual(sys_, kind)
            except NotApplicable:
                continue
            vals, roots = scalar_circle_roots(residual, r)
            batched = residual(bif.scan_circle(r))
            assert np.array_equal(np.sign(batched), np.sign(vals)), kind
            assert np.allclose(batched, vals, rtol=1e-12, atol=1e-18), kind
            # brentq and the Illinois solve stop at different last bits
            got = [p.angle for p, _ in
                   bif.circle_zeros(sys_, AXIS_ZERO_SET.get(kind, [kind]), r)]
            assert len(got) == len(roots), kind
            for g, want in zip(got, roots):
                gap = abs((g - want + math.pi) % (2.0 * math.pi) - math.pi)
                assert gap <= 1e-14, (kind, g, want)


def test_circle_zeros_solves_e3_once_on_both_half_lines(monkeypatch):
    solves = []
    real = bif.refine_e3

    def counted(sys_, mu, **kw):
        solves.append(isinstance(mu, ParamArray))
        return real(sys_, mu, **kw)
    monkeypatch.setattr(bif, "refine_e3", counted)
    sys_ = nondegenerate_case(2.0, 1.0)
    kinds = [k for k in bif.admissible_kinds(sys_) if k != bif.H]
    zeros = bif.circle_zeros(sys_, kinds, 1e-3)
    assert solves.count(True) == 1
    # the T2 line mu2 = mu1 meets the circle twice; one point is filtered
    t2 = {p for p, kind in zeros if kind == bif.T2}
    kept = set(bif.circle_intersections(sys_, bif.T2, 1e-3))
    assert len(t2) == 2 and len(kept) == 1 and kept < t2


def test_circle_zeros_labels_shared_residual_by_half_line():
    sys_ = deltazero_case(1.0, 1.5)
    kinds = bif.admissible_kinds(sys_)
    zeros = bif.circle_zeros(sys_, kinds, 1e-3)
    for kind in (bif.T3, bif.T3_PLUS, bif.D_NEG, bif.D_POS):
        got = [p for p, k in zeros if k == kind]
        assert got == bif.circle_intersections(sys_, kind, 1e-3), kind
