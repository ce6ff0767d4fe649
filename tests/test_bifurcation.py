import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from lvbif import bifurcation as bif
from lvbif.cases import (CANONICAL_BY_FAMILY, CANONICAL_NONDEGENERATE,
                         deltazero_case, nondegenerate_case)
from lvbif.equilibria import find_equilibria, stable_quadratic_roots
from lvbif.errors import (CollisionMismatch, DegenerateJacobian,
                          HypothesisViolation, LVError, NewtonDivergence,
                          NotApplicable, UnsupportedCase)
from lvbif.model import (DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ParamArray,
                         ParamPoint, ReducedSystem, field_at, jacobian_at,
                         mirror, system_from_dict)
from lvbif.poly import linear_poly
from lvbif.regions import decompose, select_case
from lvbif.verification import sotomayor_fixture, sotomayor_suite

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
    # the fitted slopes of the three lines are the paper's leading ones
    sys_ = ReducedSystem.from_coeffs(theta=2.0, delta=-1.0, gamma=1.0)
    assert [bif.predicted_leading(sys_, k) for k in (bif.T1, bif.T2, bif.H)
            ] == [0.5, -1.0, -0.25]
    for kind in (bif.T1, bif.T2, bif.H):
        for r in (1e-3, 1e-4):
            curve = bif.trace_curve(sys_, kind, [r])
            assert not curve.empty, (kind, r)
            assert curve.leading == pytest.approx(
                bif.predicted_leading(sys_, kind), rel=1e-4), (kind, r)


def test_half_trace_needs_distinct_gamma_delta():
    sys_ = ReducedSystem.from_coeffs(theta=2.0, delta=1.0, gamma=1.0)
    with pytest.raises(NotApplicable):
        bif.trace_curve(sys_, bif.H, [1e-3])


def test_collision_line_respects_halfline():
    sys_ = ReducedSystem.from_coeffs(theta=0.5, delta=-0.5, gamma=1.0)
    curve = bif.trace_curve(sys_, bif.T1, [1e-3])
    assert len(curve.samples) == 1
    assert curve.samples[0].mu1 < 0.0  # theta > 0 forces mu1 < 0


@pytest.mark.parametrize("radii, match", [
    ([0.0], "outside"), ([-1e-3], "outside"), ([1e-2], "outside"),
    ([0.5], "outside"), ([math.nan], "outside"), ([1e-3, 1e-4, 1e-3], "twice"),
])
def test_trace_rejects_a_radius_outside_the_disk_or_repeated(radii, match):
    # each radius must lie in (0, EPSILON_DISK) and appear once, whatever
    # the kind would find on that circle
    with pytest.raises(ValueError, match=match):
        bif.trace_curve(nondegenerate_case(-2.0, -1.0), bif.T1, radii)


@pytest.mark.parametrize("radius", ["1e-3", True, None])
def test_trace_refuses_a_radius_that_is_no_real_number(radius):
    # a string is not parsed and a bool is not read as 1.0 or 0.0
    with pytest.raises(TypeError, match="is not a real number"):
        bif.trace_curve(nondegenerate_case(-2.0, -1.0), bif.T1,
                        [1e-4, radius])


def test_trace_reads_any_iterable_of_radii_as_floats():
    # numpy radii used to leak np.float64 into the samples, and a generator
    # was refused as not subscriptable
    sys_ = nondegenerate_case(-2.0, -1.0)
    want = bif.trace_curve(sys_, bif.T1, [1e-3, 1e-4])
    assert len(want.samples) == 2
    for radii in (np.array([1e-3, 1e-4]), (1e-3, 1e-4),
                  (r for r in (1e-3, 1e-4))):
        bif._circle_memo.cache_clear()   # equal radii would hit the memo
        got = bif.trace_curve(sys_, bif.T1, radii)
        assert got.samples == want.samples
        assert all(type(v) is float for p in got.samples
                   for v in (p.mu1, p.mu2))


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


def test_transcritical_branch_needs_a_fold_axis():
    with pytest.raises(NotApplicable, match="has no fold axis"):
        bif.transcritical_branch(CANONICAL_NONDEGENERATE[0][1])


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


def zero_set_on_circle(sys_, kind, r):
    """circle_zeros' points of the kind's whole zero set, both half-lines."""
    zeros, failure = bif.circle_zeros(sys_, r)
    assert failure is None
    res = bif.CURVES[kind].residual
    same = AXIS_ZERO_SET.get(kind) or [
        k for k, curve in bif.CURVES.items() if curve.residual == res]
    return [p for p, k in zeros if k in same]


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
            got = [p.angle for p in zero_set_on_circle(sys_, kind, r)]
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
    zeros, _ = bif.circle_zeros(sys_, 1e-3)
    # the T2 line mu2 = mu1 meets the circle twice; the trace filters one
    t2 = {p for p, kind in zeros if kind == bif.T2}
    _, pred = bif.halfline_constraint(sys_, bif.T2)
    kept = bif.trace_curve(sys_, bif.T2, [1e-3]).samples
    assert len(t2) == 2 and len(kept) == 1 and set(kept) < t2
    assert pred(kept[0])
    assert solves.count(True) == 1


def test_circle_zeros_labels_shared_residual_by_half_line():
    sys_ = deltazero_case(1.0, 1.5)
    zeros, _ = bif.circle_zeros(sys_, 1e-3)
    for pair in ((bif.T3, bif.T3_PLUS), (bif.D_NEG, bif.D_POS)):
        preds = [bif.halfline_constraint(sys_, k)[1] for k in pair]
        got = [(p, k) for p, k in zeros if k in pair]
        assert {k for _, k in got} == set(pair)
        # exactly one half-line holds each zero, and it names the zero
        for p, k in got:
            assert [pred(p) for pred in preds] == [k == kind for kind in pair]


# -- the scan-circle memo -----------------------------------------------------

MEMO_RADII = [1e-3, 1e-4]


def trace_every_kind(sys_, radii=MEMO_RADII):
    """trace_curve of every admissible kind that is defined for sys_."""
    for kind in bif.admissible_kinds(sys_):
        try:
            yield kind, bif.trace_curve(sys_, kind, radii)
        except NotApplicable:
            continue


def counting(monkeypatch, name):
    """Record each call of bif.<name> by the type of its second argument."""
    calls = []
    real = getattr(bif, name)

    def counted(*args, **kw):
        calls.append(type(args[1]))
        return real(*args, **kw)
    monkeypatch.setattr(bif, name, counted)
    return calls


def bits(points):
    return [(p.mu1.hex(), p.mu2.hex()) for p in points]


def test_trace_is_the_same_from_a_cold_or_a_warm_memo():
    for sys_ in scan_systems(0):
        warm = dict(trace_every_kind(sys_))
        for kind, curve in warm.items():
            bif._circle_memo.cache_clear()
            cold = bif.trace_curve(sys_, kind, MEMO_RADII)
            assert bits(cold.samples) == bits(curve.samples), kind
            assert cold.residuals == curve.residuals, kind
            assert cold.leading == curve.leading, kind


def test_decompose_and_a_kind_by_kind_trace_solve_e3_once_per_radius(
        monkeypatch):
    # one batched E3 solve per circle and one Illinois solve per sign-change
    # bracket on it, however many radii and kinds are traced
    solves = counting(monkeypatch, "refine_e3")
    illinois = counting(monkeypatch, "_roots")
    sys_ = deltazero_case(1.0, 1.5)
    decompose(sys_, None, 1e-3)
    real = bif.circle_zeros

    def brackets(r):
        # each bracket gives one zero besides the four semi-axes; the
        # circle is kept, so asking again solves nothing
        return len(real(sys_, r)[0]) - len(bif.AXES)
    assert len(illinois) == brackets(1e-3) > 0
    per_radius = {}

    def circle_zeros(sys_, r):
        before = len(illinois)
        out = real(sys_, r)
        per_radius[r] = per_radius.get(r, 0) + len(illinois) - before
        return out
    monkeypatch.setattr(bif, "circle_zeros", circle_zeros)
    traced = dict(trace_every_kind(sys_, [1e-3, 5e-4, 1e-4]))
    assert {bif.T1, bif.T3, bif.T3_PLUS, bif.D_NEG, bif.D_POS} <= set(traced)
    assert solves.count(ParamArray) == 3
    assert per_radius[1e-3] == 0
    for r in (5e-4, 1e-4):
        assert per_radius[r] == brackets(r) > 0, r


def test_axis_and_fold_traces_survive_a_failed_circle(monkeypatch):
    real = bif.refine_e3

    def no_arrays(sys_, mu, **kw):
        if isinstance(mu, ParamArray):
            raise NewtonDivergence("the interior solve failed")
        return real(sys_, mu, **kw)
    monkeypatch.setattr(bif, "refine_e3", no_arrays)
    sys_ = deltazero_case(1.0, 1.5)
    for kind in (bif.X_PLUS, bif.D_NEG):
        assert len(bif.trace_curve(sys_, kind, MEMO_RADII).samples) == 2, kind
    with pytest.raises(NewtonDivergence):
        bif.trace_curve(sys_, bif.T1, MEMO_RADII)


def test_scan_memo_results_are_read_only():
    zeros, failure = bif.circle_zeros(nondegenerate_case(2.0, 1.0), 1e-3)
    assert isinstance(zeros, tuple) and zeros and failure is None
    with pytest.raises(TypeError):
        zeros[0] = zeros[1]
    with pytest.raises(AttributeError):
        zeros[0][0].mu1 = 0.0


def test_a_failed_circle_solve_is_kept(monkeypatch):
    calls = []

    def diverging(sys_, mu, **kw):
        calls.append(mu)
        raise NewtonDivergence("the interior solve failed")
    monkeypatch.setattr(bif, "refine_e3", diverging)
    sys_ = nondegenerate_case(2.0, 1.0)
    for _ in range(2):
        with pytest.raises(NewtonDivergence):
            bif.trace_curve(sys_, bif.T1, [1e-3])
    # the first trace solves the circle once, the second reads the failure
    assert len(calls) == 1


# a NonDegenerate system with constant coefficients whose interior
# equilibrium does not exist at 29 of the 257 scan points of |mu| = 1e-3
E3_LESS = dict(theta=1.1068905932717232, gamma=0.795828152517494,
               delta=0.9992850316337755, M=0.8636908465283903,
               N=-0.5122070133539303, L=-0.7058713851335308,
               S=-0.4402116913635734, P=-0.3205512453029373,
               R=-0.5497680146812769)


def test_a_circle_without_e3_is_solved_once_for_every_kind(monkeypatch):
    solves = counting(monkeypatch, "refine_e3")
    sys_ = ReducedSystem.from_coeffs(**E3_LESS)
    for kind in bif.admissible_kinds(sys_):
        if kind in bif.AXES:
            assert len(bif.trace_curve(sys_, kind, MEMO_RADII).samples) == 2
            continue
        with pytest.raises(NewtonDivergence, match=(
                r"^the interior solve failed at 29 of 257 points$")):
            bif.trace_curve(sys_, kind, MEMO_RADII)
    # decompose re-raises the kept failure without solving again
    with pytest.raises(NewtonDivergence, match="at 29 of 257 points"):
        decompose(sys_, None, 1e-3)
    # one solve per radius: 1e-4 is reached by the axis traces only
    assert solves.count(ParamArray) == 2


def test_interior_curves_are_undefined_where_e3_is_skipped(monkeypatch):
    # theta*delta = 1: find_equilibria skips E3, and so does the curve scan
    solves = counting(monkeypatch, "refine_e3")
    sys_ = nondegenerate_case(2.0, 0.5)
    for kind in bif.admissible_kinds(sys_):
        if kind in bif.AXES:
            assert len(bif.trace_curve(sys_, kind, MEMO_RADII).samples) == 2
            continue
        with pytest.raises(UnsupportedCase,
                           match=r"^theta\*delta - 1 vanishes$"):
            bif.trace_curve(sys_, kind, MEMO_RADII)
    for case in (None, select_case(nondegenerate_case(2.0, 1.0))):
        with pytest.raises(UnsupportedCase):
            decompose(sys_, case, 1e-3)
    assert solves == []


def test_scan_memo_drops_its_oldest_circle(monkeypatch):
    # MEMO_CIRCLES radii are kept; one more drops the first, which is then
    # solved again, and the kept ones are not
    solves = counting(monkeypatch, "refine_e3")
    sys_ = nondegenerate_case(2.0, 1.0)
    radii = [1e-3 * 0.9 ** k for k in range(bif.MEMO_CIRCLES + 1)]
    for r in radii:
        bif.circle_zeros(sys_, r)
    assert list(bif._circle_memo(sys_)) == radii[1:]
    bif.circle_zeros(sys_, radii[-1])
    assert solves.count(ParamArray) == len(radii)
    bif.circle_zeros(sys_, radii[0])
    assert solves.count(ParamArray) == len(radii) + 1
    assert list(bif._circle_memo(sys_)) == radii[2:] + radii[:1]


def test_scan_memo_is_reused_only_within_one_system(monkeypatch):
    # two sweeps over the canonical fixtures solve alike: no circle solved
    # in the first sweep serves the second
    solves = counting(monkeypatch, "refine_e3")
    counts = []
    for _ in range(2):
        before = len(solves), bif._circle_memo.cache_info()
        for sys_ in scan_systems(0):
            decompose(sys_, None, 1e-3)
            dict(trace_every_kind(sys_))
        after = bif._circle_memo.cache_info()
        counts.append((solves[before[0]:].count(ParamArray),
                       after.misses - before[1].misses))
    assert counts[0] == counts[1] == (2 * len(scan_systems(0)),
                                      len(scan_systems(0)))


def test_an_equal_system_reads_the_memo_of_a_distinct_object(monkeypatch):
    # systems hash and compare by value: an equal copy built apart finds
    # the circle kept for the original, and the memo still holds only the
    # last system, so another one in between empties it
    solves = counting(monkeypatch, "refine_e3")
    sys_ = deltazero_case(1.0, 1.5)
    first = bif.circle_zeros(sys_, 1e-3)
    assert solves.count(ParamArray) == 1
    for copy in (replace(sys_), system_from_dict(sys_.to_json_dict())):
        assert copy is not sys_
        assert bif.circle_zeros(copy, 1e-3) is first
    assert solves.count(ParamArray) == 1
    bif.circle_zeros(nondegenerate_case(2.0, 1.0), 1e-3)
    bif.circle_zeros(replace(sys_), 1e-3)
    assert solves.count(ParamArray) == 3


# -- the table of curve kinds -------------------------------------------------

# the pairs of kinds that are the two half-lines of one zero set, with the
# index of the mu coordinate whose sign picks the half-line (None: the
# pinned coordinate of the fold axis)
SHARED_PAIRS = {(bif.X_PLUS, bif.X_MINUS): 0, (bif.Y_PLUS, bif.Y_MINUS): 1,
                (bif.T3, bif.T3_PLUS): 0, (bif.T4, bif.T4_PLUS): 1,
                (bif.D_NEG, bif.D_POS): None}


def test_every_admissible_kind_has_a_curve_entry():
    for family, kinds in bif.ADMISSIBLE.items():
        assert set(kinds) <= set(bif.CURVES), family
    assert set(bif.CURVES) == {k for ks in bif.ADMISSIBLE.values() for k in ks}


def test_kinds_share_a_residual_exactly_in_the_half_line_pairs():
    for family, kinds in bif.ADMISSIBLE.items():
        shared = {frozenset((a, b)) for i, a in enumerate(kinds)
                  for b in kinds[i + 1:]
                  if bif.CURVES[a].residual == bif.CURVES[b].residual}
        assert shared == {frozenset(p) for p in SHARED_PAIRS
                          if set(p) <= set(kinds)}, family


def test_shared_half_lines_are_complementary_on_the_scan_circle():
    circle = bif.scan_circle(1e-3)
    points = [ParamPoint(float(a), float(b))
              for a, b in zip(circle.mu1, circle.mu2)]
    assert len(points) == 257
    systems = [s for cases in CANONICAL_BY_FAMILY.values() for _, s in cases]
    assert len(systems) == 22
    checked = 0
    for sys_ in systems:
        kinds = bif.admissible_kinds(sys_)
        for pair, coord in SHARED_PAIRS.items():
            if not set(pair) <= set(kinds):
                continue
            if coord is None:
                coord = 1 - bif.FOLD_AXIS[sys_.degeneracy]
            (_, first), (_, second) = (bif.halfline_constraint(sys_, k)
                                       for k in pair)
            for p in points:
                if (p.mu1, p.mu2)[coord] != 0.0:
                    assert first(p) != second(p), (pair, p)
                    checked += 1
    assert checked > 22 * 3 * 250


# -- the fold axis against the per-family rules it replaced ---------------------
#
# Each degenerate class used to state its own fold rules.  The copies below
# keep those statements (the two discriminants, the D half-lines, and the
# xi0, parameter and kind of both Sotomayor functions, with ThetaZero's own
# "D_POS if mu2 > 0") so that FOLD_AXIS can be checked against them.

def ref_discriminant(sys_, mu):
    c = sys_.at(mu)
    if sys_.degeneracy == DELTA_ZERO:
        return c.delta * c.delta - 4.0 * c.mu2 * c.P
    return c.theta * c.theta - 4.0 * c.mu1 * c.N


def ref_d_halfline(sys_, kind):
    name = "mu1" if sys_.degeneracy == DELTA_ZERO else "mu2"
    if kind == bif.D_NEG:
        return f"{name}<0", lambda mu: getattr(mu, name) < 0.0
    return f"{name}>0", lambda mu: getattr(mu, name) > 0.0


def ref_saddle_node(sys_, mu0):
    mu0 = ParamPoint.coerce(mu0)
    g = sys_.gamma0
    c = sys_.at(mu0)
    if sys_.degeneracy == DELTA_ZERO:
        d1, d2, P0 = sys_.delta1, sys_.delta2, sys_.P0
        hyp = sys_.theta0 * d1 * d2 * P0 * (2.0 * P0 - d1 * g)
        xi0, param = (0.0, -c.delta / (2.0 * c.P)), 1
        predicted = {"C1": -d1 * mu0.mu1 / (2.0 * P0), "C3": -d1 * mu0.mu1}
        kind = bif.D_NEG if mu0.mu1 < 0.0 else bif.D_POS
    else:
        t1, t2, N0 = sys_.theta1, sys_.theta2, sys_.N0
        hyp = t1 * t2 * sys_.delta0 * N0 * (2.0 * N0 * g - t2)
        xi0, param = (-c.theta / (2.0 * c.N), 0.0), 0
        predicted = {"C1": -mu0.mu2 * (2.0 * N0 * g - t2) / (2.0 * N0 * g * g),
                     "C3": -mu0.mu2 * (2.0 * N0 * g - t2) / (g * g)}
        kind = bif.D_POS if mu0.mu2 > 0.0 else bif.D_NEG
    notes = []
    res = ref_discriminant(sys_, mu0)
    if abs(res) > bif.CURVE_TOL * (1.0 + mu0.norm) * 1e3:
        notes.append(f"mu0 off the discriminant curve (residual {res:.3e})")
    v, w, c1, c2, c3 = bif.sotomayor_quantities(sys_, mu0, xi0, param)
    if abs(hyp) < 1e-12:
        verdict = "Inconclusive"
        notes.append("genericity hypothesis product vanishes")
    else:
        ok = (abs(c1) > bif._nonzero_tol(predicted["C1"])
              and abs(c3) > bif._nonzero_tol(predicted["C3"]))
        verdict = "SaddleNode" if ok else "Inconclusive"
    return bif.SotomayorReport(kind, mu0, xi0, (float(v[0]), float(v[1])),
                               (float(w[0]), float(w[1])), c1, c2, c3,
                               predicted, verdict, notes)


def ref_transcritical(sys_, mu0):
    mu0 = ParamPoint.coerce(mu0)
    g = sys_.gamma0
    c = sys_.at(mu0)
    branch = bif.transcritical_branch(sys_)
    if sys_.degeneracy == DELTA_ZERO:
        d1, P0, g2 = sys_.delta1, sys_.P0, sys_.gamma2
        if d1 * g2 * (d1 * g - 2.0 * P0) == 0.0:
            raise HypothesisViolation("delta1*gamma2*(delta1*gamma-2P) = 0")
        kind, param = bif.T3, 1
        rp, rm = stable_quadratic_roots(c.P, c.delta, mu0.mu2)
        xi2 = rp if branch == "E21" else rm
        if xi2 is None:
            raise DegenerateJacobian("axis pair absent at mu0")
        xi0 = (0.0, xi2)
        predicted = {"C2": mu0.mu1 * mu0.mu1 * (g * d1 - 2.0 * P0) * g2 / g,
                     "C3": 2.0 * g * mu0.mu1 * (2.0 * P0 - g * d1)}
    else:
        t2, N0, g1 = sys_.theta2, sys_.N0, sys_.gamma1
        if g1 * t2 * sys_.delta0 * (t2 - N0 * g) == 0.0 \
                or t2 - 2.0 * N0 * g == 0.0:
            raise HypothesisViolation("gamma1*theta2*delta*(theta2-N*gamma) = 0")
        kind, param = bif.T4, 0
        rp, rm = stable_quadratic_roots(c.N, c.theta, mu0.mu1)
        xi1 = rp if branch == "E11" else rm
        if xi1 is None:
            raise DegenerateJacobian("axis pair absent at mu0")
        xi0 = (xi1, 0.0)
        predicted = {"C2": g1 * mu0.mu2 / g,
                     "C3": 2.0 / ((2.0 * N0 * g - t2) * mu0.mu2)}
    notes = []
    res = bif.curve_residual(sys_, kind)(mu0)
    if abs(res) > bif.CURVE_TOL * (1.0 + mu0.norm) * 1e3:
        notes.append(f"mu0 off the curve (residual {res:.3e})")
    v, w, c1, c2, c3 = bif.sotomayor_quantities(sys_, mu0, xi0, param)
    tol_c1 = 1e-9 * max(abs(c2), bif._nonzero_tol(predicted["C2"]))
    ok = (abs(c1) < max(tol_c1, 1e-300)
          and abs(c2) > bif._nonzero_tol(predicted["C2"])
          and abs(c3) > bif._nonzero_tol(predicted["C3"]))
    return bif.SotomayorReport(kind, mu0, xi0, (float(v[0]), float(v[1])),
                               (float(w[0]), float(w[1])), c1, c2, c3,
                               predicted,
                               "Transcritical" if ok else "Inconclusive", notes)


def degenerate_canonical():
    return [sys_ for fam in (DELTA_ZERO, THETA_ZERO)
            for _, sys_ in CANONICAL_BY_FAMILY[fam]]


def assert_same_reports(sys_, mu0):
    """Both Sotomayor functions agree with their per-family copies at mu0,
    or both versions raise the same error class."""
    for got_fn, want_fn in ((bif.sotomayor_saddle_node, ref_saddle_node),
                            (bif.sotomayor_transcritical, ref_transcritical)):
        try:
            want = want_fn(sys_, mu0)
        except LVError as exc:
            with pytest.raises(type(exc)):
                got_fn(sys_, mu0)
            continue
        assert got_fn(sys_, mu0) == want, (got_fn.__name__, mu0)


def test_fold_discriminant_is_the_per_family_discriminant():
    systems = degenerate_canonical()
    assert len(systems) == 16
    for sys_ in systems:
        for r in (1e-3, 1e-4):
            circle = bif.scan_circle(r)
            got = bif.fold_discriminant(sys_, circle)
            assert np.array_equal(got, ref_discriminant(sys_, circle))
            points = [ParamPoint(float(a), float(b))
                      for a, b in zip(circle.mu1, circle.mu2)]
            for p in points[::16]:
                assert bif.fold_discriminant(sys_, p) == ref_discriminant(sys_, p)
            for kind in (bif.D_NEG, bif.D_POS):
                desc, pred = bif.halfline_constraint(sys_, kind)
                ref_desc, ref_pred = ref_d_halfline(sys_, kind)
                assert desc == ref_desc
                assert [pred(p) for p in points] == [ref_pred(p) for p in points]


def test_sotomayor_reports_match_the_per_family_rules_on_the_suite(monkeypatch):
    visited = []
    real = bif.parabola_point

    def record(sys_, kind, coord):
        mu0 = real(sys_, kind, coord)
        visited.append((sys_, mu0))
        return mu0
    monkeypatch.setattr(bif, "parabola_point", record)
    for family in (DELTA_ZERO, THETA_ZERO):
        assert sotomayor_suite(family).success
    # three points per fixture branch, two branches per family
    assert len(visited) == 12
    for sys_, mu0 in visited:
        assert_same_reports(sys_, mu0)


def test_nondegenerate_suite_fails_on_a_missing_collision_line(monkeypatch):
    def diverging(sys_, kind, radii):
        raise NewtonDivergence("the interior solve failed")
    monkeypatch.setattr(bif, "trace_curve", diverging)
    suite = sotomayor_suite(NONDEGENERATE)
    assert not suite.success
    assert "  [FAIL] T1: trace failed (the interior solve failed)" \
        in suite.lines
    monkeypatch.setattr(bif, "trace_curve",
                        lambda sys_, kind, radii: bif.BifurcationCurve(kind, ""))
    suite = sotomayor_suite(NONDEGENERATE)
    assert not suite.success
    assert "  [FAIL] T2: no curve point on |mu| = 1e-3" in suite.lines


def test_sotomayor_reports_match_the_per_family_rules_on_canonical_systems():
    compared = 0
    for sys_ in degenerate_canonical():
        t = bif.T3 if sys_.degeneracy == DELTA_ZERO else bif.T4
        for kind in (bif.D_NEG, bif.D_POS, t):
            for coord in (-1e-3, 1e-3):
                try:
                    mu0 = bif.parabola_point(sys_, kind, coord)
                except HypothesisViolation:   # off the kind's half-line
                    continue
                assert_same_reports(sys_, mu0)
                compared += 1
    assert compared == 48
