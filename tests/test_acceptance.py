"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

import lvbif
from lvbif import bifurcation as bif
from lvbif.cases import (CANONICAL_BY_FAMILY, CANONICAL_NONDEGENERATE,
                         nondegenerate_case)
from lvbif.cli import main as cli_main
from lvbif.equilibria import (Tolerances, char_poly_identities,
                              find_equilibria, refine_e3)
from lvbif.model import (DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ParamPoint,
                         ReducedSystem, jacobian_at)
from lvbif.oracle import cross_check
from lvbif.poly import linear_poly
from lvbif.regions import decompose, verify_tables

from conftest import (rand_deltazero, rand_nondegenerate, rand_thetazero,
                      wedge_direction)


def ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def run_family_verify(capsys, family, budget):
    t0 = time.time()
    code = cli_main(["verify", "--family", family, "--r", "1e-3"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verification PASSED" in out
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"
    return elapsed


def test_criterion_01_nondegenerate_tables(capsys):
    elapsed = run_family_verify(capsys, "nondegenerate", 30.0)
    report = verify_tables(NONDEGENERATE, r=1e-3)
    assert report.success and report.total_regions == 30
    with capsys.disabled():
        ok(1, f"30 regions match the nondegenerate type tables "
              f"({elapsed:.1f}s)")


def test_criterion_02_deltazero_table(capsys):
    elapsed = run_family_verify(capsys, "deltazero", 60.0)
    report = verify_tables(DELTA_ZERO, r=1e-3)
    assert report.success and report.total_regions == 20
    with capsys.disabled():
        ok(2, f"20 regions match the delta-degenerate type table "
              f"({elapsed:.1f}s)")


def test_criterion_03_thetazero_table(capsys):
    elapsed = run_family_verify(capsys, "thetazero", 60.0)
    report = verify_tables(THETA_ZERO, r=1e-3)
    assert report.success and report.total_regions == 20
    with capsys.disabled():
        ok(3, f"20 regions match the theta-degenerate type table "
              f"({elapsed:.1f}s)")


def test_criterion_04_interior_trichotomy(rng):
    checked = 0
    while checked < 500:
        sys_ = rand_nondegenerate(rng)
        phi = wedge_direction(rng, sys_)
        if phi is None:
            continue
        eqs = find_equilibria(sys_, ParamPoint.from_polar(1e-3, phi))
        e3 = eqs.get("E3")
        assert e3 is not None and e3.proper and not e3.trivial
        hyp = sys_.theta0 * sys_.delta0 - 1.0
        if hyp < 0.0:
            assert e3.kind == "saddle", (sys_.theta0, sys_.delta0, e3.kind)
        elif sys_.theta0 < 0.0:
            assert e3.kind.startswith("attractor")
        else:
            assert e3.kind.startswith("repeller")
        checked += 1
    ok(4, "interior classification matches the trichotomy on 500 systems")


def test_criterion_05_axis_eigenvalue_asymptotics():
    # remainder of the lowest-terms eigenvalue formulas shrinks
    # cubically; system chosen with N(0) = P(0) = 0 so the remainder of the
    # lowest-terms expressions is genuinely third order
    sys_ = ReducedSystem.from_coeffs(
        theta=0.7, delta=-1.3, gamma=1.2,
        N=linear_poly(0.0, 0.3, 0.2), P=linear_poly(0.0, -0.25, 0.15),
        R=linear_poly(0.4, 0.3, -0.2), L=linear_poly(-0.3, 0.15, 0.25),
        M=0.2, S=-0.3)
    th, de, g = 0.7, -1.3, 1.2
    R0, L0 = 0.4, -0.3
    phi = math.radians(135)
    radii = (1e-2, 1e-3, 1e-4)
    errs = [[] for _ in range(4)]
    for r in radii:
        mu = ParamPoint.from_polar(r, phi)
        eqs = find_equilibria(sys_, mu, Tolerances(epsilon_disk=2e-2))
        m1, m2 = mu.mu1, mu.mu2
        c = sys_.at(mu)
        J1 = jacobian_at(c, eqs.get("E1").xi)
        errs[0].append(abs(J1[0][0] - (-m1)))
        errs[1].append(abs(J1[1][1] - (m2 - m1 / (th * g)
                                       + R0 * m1 * m1 / th**2)))
        J2 = jacobian_at(c, eqs.get("E2").xi)
        errs[2].append(abs(J2[1][1] - (-m2)))
        errs[3].append(abs(J2[0][0] - (m1 - g * m2 / de
                                       + L0 * m2 * m2 / de**2)))
    for e in errs:
        slope = np.polyfit(np.log(radii), np.log(e), 1)[0]
        assert abs(slope - 3.0) <= 0.3, (e, slope)

    # tangent-eigenvalue identities of the degenerate axis pair
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        dz = rand_deltazero(rng, require_p_positive=True)
        mu = ParamPoint(rng.uniform(-1e-3, 1e-3), -rng.uniform(2e-4, 1e-3))
        c = dz.at(mu)
        disc = c.delta * c.delta - 4.0 * mu.mu2 * c.P
        if disc <= 0.0:
            continue
        eqs = find_equilibria(dz, mu)
        for label, sgn in (("E21", 1.0), ("E22", -1.0)):
            eq = eqs.get(label)
            if eq is None or eq.trivial:
                continue
            lam_t = jacobian_at(c, eq.xi)[1][1]
            expect = sgn * eq.xi[1] * math.sqrt(disc)
            assert abs(lam_t - expect) <= 1e-10 * max(abs(expect), 1e-300)
        checked += 1
    ok(5, "axis eigenvalue formulas: cubic remainder (log-log slope 3) and "
          "exact tangent identities")


def test_criterion_06_char_poly_identities(rng):
    checked = 0
    while checked < 200:
        sys_ = rand_nondegenerate(rng)
        phi = wedge_direction(rng, sys_)
        if phi is None:
            continue
        mu = ParamPoint.from_polar(1e-3, phi)
        xi = refine_e3(sys_, mu)
        chk = char_poly_identities(sys_, mu, xi)
        assert abs(chk.p_formula - chk.p_direct) \
            <= 1e-10 * (1.0 + abs(2.0 * chk.p_direct))
        assert abs(chk.det_formula - chk.det_direct) \
            <= 1e-10 * (1.0 + abs(chk.det_direct))
        checked += 1
    ok(6, "half-trace and determinant identities at 200 refined interior "
          "points")


def test_criterion_07_saddle_node_quantities(rng):
    for _ in range(20):
        dz = rand_deltazero(rng)
        for kind, c in ((bif.D_NEG, -1e-3), (bif.D_POS, 1e-3)):
            rep = bif.sotomayor_saddle_node(
                dz, bif.parabola_point(dz, kind, c))
            assert rep.verdict == "SaddleNode"
            assert rep.C1 == pytest.approx(rep.predicted["C1"], rel=0.05)
            assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)
        tz = rand_thetazero(rng)
        for kind, c in ((bif.D_POS, 1e-3), (bif.D_NEG, -1e-3)):
            rep = bif.sotomayor_saddle_node(
                tz, bif.parabola_point(tz, kind, c))
            assert rep.verdict == "SaddleNode"
            assert rep.C1 == pytest.approx(rep.predicted["C1"], rel=0.05)
            assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)
    ok(7, "saddle-node verdicts with C1, C3 within 5% of the predicted "
          "leading values on both fold branches, 20 systems per class")


def test_criterion_08_transcritical_quantities(rng):
    for _ in range(20):
        dz = rand_deltazero(rng)
        rep = bif.sotomayor_transcritical(
            dz, bif.parabola_point(dz, bif.T3, -1e-3))
        assert rep.verdict == "Transcritical"
        assert abs(rep.C1) < 1e-9 * abs(rep.C2)
        assert rep.C2 == pytest.approx(rep.predicted["C2"], rel=0.05)
        assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)
        tz = rand_thetazero(rng)
        rep = bif.sotomayor_transcritical(
            tz, bif.parabola_point(tz, bif.T4, -1e-3))
        assert rep.verdict == "Transcritical"
        assert abs(rep.C1) < 1e-9 * abs(rep.C2)
        assert rep.C2 == pytest.approx(rep.predicted["C2"], rel=0.05)
        assert rep.C3 == pytest.approx(rep.predicted["C3"], rel=0.05)
    ok(8, "transcritical verdicts with C2, C3 within 5% and C1 below "
          "1e-9*C2, 20 systems per curve")


def test_criterion_09_collision_assignments(rng):
    for _ in range(20):
        dz = rand_deltazero(rng, require_p_positive=True)
        mu0 = bif.parabola_point(dz, bif.T3, -1e-3)
        curve = bif.BifurcationCurve(kind=bif.T3, halfline="mu1<0",
                                     samples=[mu0], residuals=[0.0])
        rec = bif.collision_check(dz, curve)[0]
        want = bif.transcritical_branch(dz)
        assert set(rec.pair) == {"E3", want}
        assert abs(rec.vanishing_eig) < 1e-9 * mu0.norm
        if rec.companion_kind is not None:
            expect = "attractor" if rec.companion in ("E22", "E12") \
                else "repeller"
            assert rec.companion_kind.startswith(expect)
        tz = rand_thetazero(rng, require_n_positive=True)
        mu0 = bif.parabola_point(tz, bif.T4, -1e-3)
        curve = bif.BifurcationCurve(kind=bif.T4, halfline="mu2<0",
                                     samples=[mu0], residuals=[0.0])
        rec = bif.collision_check(tz, curve)[0]
        want = bif.transcritical_branch(tz)
        assert set(rec.pair) == {"E3", want}
        assert abs(rec.vanishing_eig) < 1e-9 * mu0.norm
        if rec.companion_kind is not None:
            expect = "attractor" if rec.companion in ("E22", "E12") \
                else "repeller"
            assert rec.companion_kind.startswith(expect)
    ok(9, "collision pairs, vanishing eigenvalues, and companion types on "
          "the transcritical parabolas, 20 systems per class")


def test_criterion_10_truncation_equivalence():
    for cid, sys_ in CANONICAL_NONDEGENERATE:
        full = [s.signature for s in decompose(sys_, None, 1e-3)]
        cut = [s.signature for s in decompose(sys_.truncated(), None, 1e-3)]
        assert full == cut, cid
    ok(10, "linear-quadratic truncation reproduces every sector signature "
           "of the six nondegenerate diagrams")


def test_criterion_11_parabola_ordering():
    for d1 in (1.5, 3.0, 0.5, -1.0):
        sys_ = ReducedSystem.from_coeffs(
            theta=1.0, gamma=1.0, delta=linear_poly(0.0, d1, 0.1), P=1.0,
            M=0.1, N=0.1, L=0.1, S=0.1, R=0.1)
        if (d1 * 1.0 - 2.0) * 1.0 == 0.0:
            continue
        for m1 in np.geomspace(1e-4, 8e-3, 20):
            t3 = bif.parabola_point(sys_, bif.T3, -m1)
            d = bif.parabola_point(sys_, bif.D_NEG, -m1)
            assert t3.mu2 < d.mu2
    ok(11, "the interior-collision parabola lies under the fold parabola at "
           "20 matched abscissae")


def test_criterion_12_oracle_equivalence():
    for fam, cases in CANONICAL_BY_FAMILY.items():
        for cid, sys_ in cases:
            check = cross_check(sys_, decompose(sys_, None, 1e-3))
            assert check.ok, (fam, cid, check)
    ok(12, "identical sector RLE at 1440 angles with block edges within "
           "2e-6 rad, and grid root sets within 1e-9 at every sector "
           "representative, on all 22 canonical fixtures")


def test_criterion_13_attractor_basins_and_quadrant():
    sys_ = nondegenerate_case(-2.0, -1.0)
    fixtures = (
        (45.0, "E3"),    # interior coexistence attractor
        (112.5, "E3"),   # interior attractor with one axis saddle
        (157.0, "E2"),   # axis attractor
    )
    for deg, target in fixtures:
        mu = ParamPoint.from_polar(1e-3, math.radians(deg))
        port = lvbif.portrait(sys_, mu, grid_density=10)
        hits = sum(tr.terminal_label == target for tr in port.trajectories)
        assert hits >= 90, (deg, target, hits)
        for tr in port.trajectories + port.separatrices:
            assert tr.states.min() >= -1e-9, (deg, float(tr.states.min()))
    ok(13, "at least 90% of each trajectory grid reaches the predicted "
           "attractor; no coordinate dips below -1e-9")
