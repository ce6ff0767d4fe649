import math

import numpy as np
import pytest

from lvbif.bifurcation import N_SCAN, scan_circle
import lvbif.equilibria as equilibria
from lvbif.equilibria import (SADDLE, Tolerances, _seed_e3,
                              char_poly_identities, find_equilibria, refine_e3,
                              stable_quadratic_roots)
from lvbif.errors import DiskError, NewtonDivergence, UnsupportedCase
from lvbif.model import (ParamPoint, ReducedSystem, bracket1, bracket2,
                         jacobian_at)
from lvbif.poly import linear_poly

from conftest import (rand_deltazero, rand_nondegenerate, rand_thetazero,
                      scan_systems, wedge_direction)


def canonical(theta, delta, gamma=1.0, **kw):
    return ReducedSystem.from_coeffs(theta=theta, delta=delta, gamma=gamma,
                                     **kw)


# -- find_equilibria ---------------------------------------------------------

def test_origin_only_at_mu_zero():
    eqs = find_equilibria(canonical(1.0, 0.5), (0.0, 0.0))
    assert len(eqs) == 1
    e0 = eqs[0]
    assert e0.label == "E0" and e0.xi == (0.0, 0.0)
    assert e0.eigenvalues == (0.0, 0.0)
    assert e0.kind == "degenerate"


def test_exact_interior_attractor():
    sys_ = canonical(-2.0, -1.0)
    eqs = find_equilibria(sys_, (0.001, 0.001))
    e3 = eqs.get("E3")
    assert e3 is not None and e3.proper and not e3.trivial
    assert e3.xi[0] == pytest.approx(0.002, abs=1e-15)
    assert e3.xi[1] == pytest.approx(0.003, abs=1e-15)
    assert all(z.real < 0.0 for z in e3.eigenvalues)
    assert e3.kind.startswith("attractor")


def test_unit_hyperbola_skips_interior_point():
    sys_ = canonical(1.0, 1.0)
    eqs = find_equilibria(sys_, (-0.01, 0.005), Tolerances(epsilon_disk=2e-2))
    assert eqs.get("E3") is None
    assert any("DegenerateCase" in n for n in eqs.notes)
    e1 = eqs.get("E1")
    assert e1.proper
    assert e1.xi[0] == pytest.approx(0.01, rel=1e-12)
    lam = sorted(z.real for z in e1.eigenvalues)
    # tangent -mu1 = 0.01, transverse mu2 - mu1/(theta*gamma) = 0.015
    assert lam == [pytest.approx(0.01, rel=1e-12),
                   pytest.approx(0.015, rel=1e-12)]


def test_deltazero_axis_pair_from_quadratic():
    sys_ = ReducedSystem.from_coeffs(
        theta=1.0, gamma=1.0, delta=linear_poly(0.0, 1.0, 0.0), P=1.0)
    eqs = find_equilibria(sys_, (-0.01, 0.000024),
                          Tolerances(epsilon_disk=2e-2))
    e21, e22 = eqs.get("E21"), eqs.get("E22")
    assert e21.xi[1] == pytest.approx(0.006, rel=1e-12)
    assert e22.xi[1] == pytest.approx(0.004, rel=1e-12)
    assert e21.proper and e22.proper


def test_disk_precondition():
    with pytest.raises(DiskError):
        find_equilibria(canonical(1.0, 0.5), (0.02, 0.0))
    with pytest.raises(DiskError):
        find_equilibria(canonical(1.0, 0.5), (math.nan, 0.0))


def test_doubly_degenerate_rejected():
    sys_ = canonical(0.0, 0.0)
    with pytest.raises(UnsupportedCase):
        find_equilibria(sys_, (1e-3, 0.0))


def test_ambiguous_collision_pairing_rejected():
    # one root within the collision tolerance of two mutually distinct
    # partners cannot be attributed to a single collision pair
    from lvbif.equilibria import Equilibrium, EquilibriumList, _flag_collisions
    from lvbif.errors import AmbiguousLabel

    def eq(label, xi):
        return Equilibrium(label=label, xi=xi, eigenvalues=(0j, 0j),
                           kind="degenerate", proper=True)

    mu = ParamPoint(1e-3, 0.0)
    thresh = 1e-7 * mu.norm
    eqs = EquilibriumList([eq("E1", (0.0, 0.0)),
                           eq("E3", (0.6 * thresh, 0.0)),
                           eq("E2", (1.2 * thresh, 0.0))])
    # E3 collides with both, but E1 and E2 are farther than the tolerance
    with pytest.raises(AmbiguousLabel):
        _flag_collisions(eqs, mu)
    # labels are checked in label order: E1 (close to E2 and E3) comes
    # before E3 (close to E0 and E1)
    eqs = EquilibriumList([eq("E0", (-0.6 * thresh, 0.0)),
                           eq("E1", (0.6 * thresh, 0.0)),
                           eq("E2", (1.2 * thresh, 0.0)),
                           eq("E3", (0.0, 0.0))])
    with pytest.raises(AmbiguousLabel,
                       match="^E1 collides with both E2 and E3, which are "
                             "distinct$"):
        _flag_collisions(eqs, mu)
    # a clean pairwise collision is only flagged trivial
    eqs = EquilibriumList([eq("E1", (0.0, 0.0)),
                           eq("E3", (0.6 * thresh, 0.0)),
                           eq("E2", (5.0, 5.0))])
    _flag_collisions(eqs, mu)
    assert eqs[0].trivial and eqs[1].trivial and not eqs[2].trivial


def test_flag_collisions_follows_the_rule_on_random_configurations():
    # the rule, stated by brute force: k and j collide when they are distinct
    # and within TOL_COLLIDE * |mu|; the first (k, a < b) in label order
    # where a and b collide with k but not with each other raises, and
    # otherwise each label with a partner is flagged trivial
    from lvbif.equilibria import Equilibrium, EquilibriumList, _flag_collisions
    from lvbif.errors import AmbiguousLabel

    mu = ParamPoint(6e-4, -8e-4)
    thresh = equilibria.TOL_COLLIDE * mu.norm

    def collide(p, q):
        d1, d2 = p[0] - q[0], p[1] - q[1]
        return p is not q and math.sqrt(d1 * d1 + d2 * d2) <= thresh

    rng = np.random.default_rng(24)
    outcomes = {"raised": 0, "flagged": 0, "clean": 0}
    for _ in range(2000):
        n = int(rng.integers(3, 6))
        base = rng.uniform(-1e-3, 1e-3, 2)
        spread = thresh * rng.choice([0.5, 1.0, 2.0, 3.0])
        xis = [tuple(map(float, base + spread * rng.uniform(-1.0, 1.0, 2)))
               for _ in range(n)]
        labels = [f"E{k}" for k in range(n)]
        expected = None
        for k in range(n):
            for a in range(n):
                for b in range(a + 1, n):
                    if (expected is None and collide(xis[k], xis[a])
                            and collide(xis[k], xis[b])
                            and not collide(xis[a], xis[b])):
                        expected = (f"{labels[k]} collides with both "
                                    f"{labels[a]} and {labels[b]}, which "
                                    "are distinct")
        eqs = EquilibriumList(
            Equilibrium(label, xi, (0j, 0j), "degenerate", True)
            for label, xi in zip(labels, xis))
        if expected is not None:
            with pytest.raises(AmbiguousLabel) as exc:
                _flag_collisions(eqs, mu)
            assert str(exc.value) == expected
            outcomes["raised"] += 1
            continue
        _flag_collisions(eqs, mu)
        flags = [any(collide(p, q) for q in xis) for p in xis]
        assert [eq.trivial for eq in eqs] == flags
        outcomes["flagged" if any(flags) else "clean"] += 1
    # every outcome of the rule is drawn many times
    assert min(outcomes.values()) > 200, outcomes


def test_virtual_equilibria_flagged():
    sys_ = canonical(1.0, 2.0)  # E1, E2 virtual in the open first quadrant
    eqs = find_equilibria(sys_, (7e-4, 7e-4))
    assert not eqs.get("E1").proper
    assert not eqs.get("E2").proper


# -- classification ----------------------------------------------------------

def test_classify_origin_saddle():
    sys_ = canonical(1.0, 0.5)
    eq = find_equilibria(sys_, (0.007, -0.007)).get("E0")
    assert eq.xi == (0.0, 0.0) and eq.kind == SADDLE
    lam = sorted(z.real for z in eq.eigenvalues)
    assert lam[0] == pytest.approx(-0.007) and lam[1] == pytest.approx(0.007)


def test_classify_boundary_cases_match_the_letters():
    from lvbif.equilibria import _classify, _letters, sar_letter
    tol = 1e-12
    tiny = 2.0 ** -26      # j12 * j21 = -2**-52: a disc of -2**-52
    cases = [
        # disc = +0.0, a double eigenvalue: a node
        (((1.0, 0.0), (0.0, 1.0)), "repeller_node"),
        (((-1.0, 1.0), (0.0, -1.0)), "attractor_node"),
        # det = -0.0; p * p - det rounds a zero to +0.0, so disc is never
        # -0.0 and this is the nearest case
        (((0.0, 0.0), (0.0, -0.0)), "degenerate"),
        # a tiny negative disc: a focus
        (((1.0, tiny), (-tiny, 1.0)), "repeller_focus"),
        (((-1.0, tiny), (-tiny, -1.0)), "attractor_focus"),
        # a real part inside the TOL_EIG band, and one just outside it
        (((0.5 * tol, 0.0), (0.0, -1.0)), "degenerate"),
        (((-0.5 * tol, 0.0), (0.0, 1.0)), "degenerate"),
        (((-2.0 * tol, 0.0), (0.0, 1.0)), "saddle"),
        (((0.5 * tol, 1.0), (-1.0, 0.5 * tol)), "degenerate"),
        (((2.0 * tol, 1.0), (-1.0, 2.0 * tol)), "repeller_focus"),
        (((2.0 * tol, 0.0), (0.0, -1.0)), "saddle"),
    ]
    (j11, j12), (j21, j22) = (
        [[np.array([c[0][r][s] for c in cases]) for s in (0, 1)]
         for r in (0, 1)])
    letters = _letters(((j11, j12), (j21, j22)), tol)
    for (jac, kind), letter in zip(cases, letters.tolist()):
        cls = _classify(jac, tol)
        assert cls.kind == kind, jac
        assert sar_letter(cls.kind) == letter, jac
    p, disc = 1.0, 1.0 - (1.0 + 2.0 ** -52)
    assert disc < 0.0
    assert _classify(cases[3][0], tol).eigenvalues == (
        complex(p, -math.sqrt(-disc)), complex(p, math.sqrt(-disc)))


def test_e3_saddle_below_unit_hyperbola():
    sys_ = canonical(1.0, 0.5)  # theta*delta - 1 = -0.5 < 0
    # direction strictly inside the properness wedge (between the two
    # collision lines at 206.6 and 225 degrees)
    eqs = find_equilibria(sys_, ParamPoint.from_polar(1e-3, math.radians(216)))
    e3 = eqs.get("E3")
    assert e3.proper and not e3.trivial and e3.kind == SADDLE


def test_deltazero_tangent_eigenvalue_identity(rng):
    # lambda1 of the axis pair equals +-root*sqrt(discriminant) exactly
    for _ in range(50):
        sys_ = rand_deltazero(rng, require_p_positive=True)
        mu = ParamPoint(-1e-3 * rng.uniform(0.5, 1.0) * np.sign(sys_.delta1),
                        -1e-3 * rng.uniform(0.1, 0.5))
        c = sys_.at(mu)
        disc = c.delta * c.delta - 4.0 * mu.mu2 * c.P
        if disc <= 0.0:
            continue
        eqs = find_equilibria(sys_, mu)
        for label, sign in (("E21", 1.0), ("E22", -1.0)):
            eq = eqs.get(label)
            if eq is None or eq.trivial:
                continue
            lam_t = eq.xi[1] * (2.0 * c.P * eq.xi[1] + c.delta)
            expect = sign * eq.xi[1] * math.sqrt(disc)
            assert abs(lam_t - expect) <= 1e-10 * max(abs(expect), 1e-300)
            assert any(abs(z.real - lam_t) <= 1e-10 * (1.0 + abs(lam_t))
                       for z in eq.eigenvalues)


def test_axis_root_ordering(rng):
    # larger-label root is the larger coordinate when the quadratic
    # coefficient is positive
    for _ in range(50):
        dz = rand_deltazero(rng, require_p_positive=True)
        mu = ParamPoint(rng.uniform(-1e-3, 1e-3), -rng.uniform(1e-4, 1e-3))
        eqs = find_equilibria(dz, mu)
        e21, e22 = eqs.get("E21"), eqs.get("E22")
        if e21 and e22:
            assert e21.xi[1] >= e22.xi[1]
        tz = rand_thetazero(rng, require_n_positive=True)
        mu = ParamPoint(-rng.uniform(1e-4, 1e-3), rng.uniform(-1e-3, 1e-3))
        eqs = find_equilibria(tz, mu)
        e11, e12 = eqs.get("E11"), eqs.get("E12")
        if e11 and e12:
            assert e11.xi[0] >= e12.xi[0]


def test_stable_quadratic_roots_edge_cases():
    rp, rm = stable_quadratic_roots(1.0, -3.0, 2.0)
    assert sorted((rp, rm)) == [pytest.approx(1.0), pytest.approx(2.0)]
    # ill-conditioned pairing: tiny product root
    rp, rm = stable_quadratic_roots(1.0, 1.0, 1e-14)
    assert rm == pytest.approx(-1.0, rel=1e-12)
    assert rp == pytest.approx(-1e-14, rel=1e-6)
    # linear fallback
    rp, rm = stable_quadratic_roots(0.0, 2.0, -4.0)
    assert rp == pytest.approx(2.0) and rm is None
    # complex pair
    assert stable_quadratic_roots(1.0, 0.0, 1.0) == (None, None)


# -- characteristic-polynomial identities ------------------------------------

def test_char_poly_quadratic_system_exact():
    sys_ = canonical(-2.0, -1.0)
    chk = char_poly_identities(sys_, (1e-3, 1e-3), (0.002, 0.003))
    x1, x2 = 0.002, 0.003
    assert chk.p_formula == pytest.approx(0.5 * (-2.0 * x1 - 1.0 * x2))
    assert chk.det_formula == pytest.approx(x1 * x2 * (2.0 - 1.0))
    assert chk.p_formula == pytest.approx(chk.p_direct, abs=1e-18)
    assert chk.det_formula == pytest.approx(chk.det_direct, abs=1e-20)


def test_char_poly_identities_random(rng):
    # the closed-form half-trace and determinant expressions are identities at
    # interior equilibria; 200 random systems
    for _ in range(200):
        sys_ = rand_nondegenerate(rng)
        phi = wedge_direction(rng, sys_)
        if phi is None:
            continue
        mu = ParamPoint.from_polar(1e-3, phi)
        xi = refine_e3(sys_, mu)
        chk = char_poly_identities(sys_, mu, xi)
        assert abs(chk.p_formula - chk.p_direct) \
            < 1e-10 * (1.0 + abs(2.0 * chk.p_direct))
        assert abs(chk.det_formula - chk.det_direct) \
            < 1e-10 * (1.0 + abs(chk.det_direct))


def test_deltazero_determinant_sign(rng):
    # near the origin the interior determinant is -xi1*xi2 to leading order
    for _ in range(40):
        sys_ = rand_deltazero(rng)
        mu = ParamPoint.from_polar(1e-3, rng.uniform(0, 2 * math.pi))
        xi = refine_e3(sys_, mu)
        if min(abs(xi[0]), abs(xi[1])) < 1e-8:
            continue
        chk = char_poly_identities(sys_, mu, xi)
        assert np.sign(chk.det_direct) == -np.sign(xi[0] * xi[1])


# -- seeds and refinement ----------------------------------------------------

def test_seed_vanishes_at_origin():
    for sys_ in (canonical(2.0, 1.0),
                 ReducedSystem.from_coeffs(theta=1.0, gamma=1.0,
                                           delta=linear_poly(0, 1, 1), P=1.0),
                 ReducedSystem.from_coeffs(delta=1.0, gamma=1.0,
                                           theta=linear_poly(0, 1, 1), N=1.0)):
        assert _seed_e3(sys_, sys_.at(ParamPoint(0.0, 0.0))) == (0.0, 0.0)


def test_seed_convergence_sweep(rng, monkeypatch):
    # Newton from the closed-form seeds converges within 8 iterations and
    # lands within C*|mu|^2 of the seed, with C stable across radii.  The
    # nondegenerate draws keep |theta*delta - 1| away from zero so the
    # interior point stays in its near-origin regime at the largest radius.
    gens = (rand_nondegenerate,
            lambda r: rand_deltazero(r, require_p_positive=True),
            lambda r: rand_thetazero(r, require_n_positive=True))
    radii = (1e-4, 1e-3, 1e-2)
    monkeypatch.setattr(equilibria, "MAX_ITER", 8)
    ratios = {r: 0.0 for r in radii}
    checked = 0
    while checked < 1000:
        which = checked % 3
        sys_ = gens[which](rng)
        if which == 0 and abs(sys_.theta0 * sys_.delta0 - 1.0) < 0.4:
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        for r in radii:
            mu = ParamPoint.from_polar(r, phi)
            seed = _seed_e3(sys_, sys_.at(mu))
            xi = refine_e3(sys_, mu)
            d = math.hypot(xi[0] - seed[0], xi[1] - seed[1])
            ratios[r] = max(ratios[r], d / (r * r))
        checked += 1
    cs = sorted(ratios.values())
    assert all(np.isfinite(c) for c in cs)
    assert cs[-1] < 5.0 * cs[0]


# -- eigenvalue asymptotics of the axis points -------------------------------

def asymptotics_system():
    # quadratic-in-state coefficients vanish at mu = 0 so the remainder of
    # the lowest-terms eigenvalue formulas is genuinely cubic
    return ReducedSystem.from_coeffs(
        theta=0.7, delta=-1.3, gamma=1.2,
        N=linear_poly(0.0, 0.3, 0.2), P=linear_poly(0.0, -0.25, 0.15),
        R=linear_poly(0.4, 0.3, -0.2), L=linear_poly(-0.3, 0.15, 0.25),
        M=0.2, S=-0.3)


def axis_eigs(sys_, mu, eq):
    J = jacobian_at(sys_.at(mu), eq.xi)
    return J[0][0], J[1][1]  # tangent, transverse (triangular on the axes)


def test_axis_eigenvalue_formulas_exact_at_nominal_point():
    # with constant coefficients the lowest-terms eigenvalue pairs are exactly
    # the Jacobian eigenvalues at the leading-order coordinates
    th, de, g = 0.7, -1.3, 1.2
    N, R, P, L = 0.25, 0.4, -0.3, 0.2
    sys_ = canonical(th, de, g, N=N, R=R, P=P, L=L, M=0.2, S=0.1)
    m1, m2 = -8e-4, 6e-4
    c = sys_.at((m1, m2))
    J = jacobian_at(c, (-m1 / th, 0.0))
    assert J[0][0] == pytest.approx(-m1 + 3 * N * m1 * m1 / th**2, rel=1e-12)
    assert J[1][1] == pytest.approx(m2 - m1 / (th * g) + R * m1 * m1 / th**2,
                                    rel=1e-12)
    J = jacobian_at(c, (0.0, -m2 / de))
    assert J[1][1] == pytest.approx(-m2 + 3 * P * m2 * m2 / de**2, rel=1e-12)
    assert J[0][0] == pytest.approx(m1 - g * m2 / de + L * m2 * m2 / de**2,
                                    rel=1e-12)


def test_axis_eigenvalue_asymptotics_slope():
    sys_ = asymptotics_system()
    th, de, g = 0.7, -1.3, 1.2
    R0, L0 = 0.4, -0.3
    phi = math.radians(135)
    radii = (1e-2, 1e-3, 1e-4)
    errs = {k: [] for k in range(4)}
    for r in radii:
        mu = ParamPoint.from_polar(r, phi)
        eqs = find_equilibria(sys_, mu, Tolerances(epsilon_disk=2e-2))
        m1, m2 = mu.mu1, mu.mu2
        t1, t2 = axis_eigs(sys_, mu, eqs.get("E1"))
        errs[0].append(abs(t1 - (-m1 + 3 * 0.0 * m1 * m1 / th**2)))
        errs[1].append(abs(t2 - (m2 - m1 / (th * g) + R0 * m1 * m1 / th**2)))
        t1, t2 = axis_eigs(sys_, mu, eqs.get("E2"))
        # on the xi2-axis the tangent eigenvalue is the (2,2) entry
        errs[2].append(abs(t2 - (-m2 + 3 * 0.0 * m2 * m2 / de**2)))
        errs[3].append(abs(t1 - (m1 - g * m2 / de + L0 * m2 * m2 / de**2)))
    logr = np.log(radii)
    for k, e in errs.items():
        assert all(v > 0.0 for v in e)
        slope = np.polyfit(logr, np.log(e), 1)[0]
        assert abs(slope - 3.0) <= 0.3, (k, e, slope)


def test_no_hopf_in_interior_wedge(rng):
    # theta*delta > 1: nonzero half-trace with the sign of theta;
    # theta*delta < 1: real eigenvalue pair; never purely imaginary
    checked = 0
    while checked < 200:
        sys_ = rand_nondegenerate(rng)
        phi = wedge_direction(rng, sys_)
        if phi is None:
            continue
        mu = ParamPoint.from_polar(1e-3, phi)
        e3 = find_equilibria(sys_, mu).get("E3")
        assert e3.xi == refine_e3(sys_, mu)
        J = jacobian_at(sys_.at(mu), e3.xi)
        p = 0.5 * (J[0][0] + J[1][1])     # the half-trace
        eigenvalues = e3.eigenvalues
        hyp = sys_.theta0 * sys_.delta0 - 1.0
        if hyp > 0.0:
            assert p != 0.0
            assert np.sign(p) == np.sign(sys_.theta0)
        else:
            assert all(z.imag == 0.0 for z in eigenvalues)
        assert not (abs(p) < 1e-15 and eigenvalues[0].imag != 0.0)
        checked += 1


# -- batched interior solve ---------------------------------------------------

SCAN_PHIS = np.linspace(0.0, 2.0 * math.pi, N_SCAN + 1)


def test_batched_e3_equals_scalar_at_every_scan_angle():
    for sys_ in scan_systems():
        for r in (1e-4, 2e-4, 1e-3, 3e-3):
            x1, x2 = refine_e3(sys_, scan_circle(r))
            for k, phi in enumerate(SCAN_PHIS):
                assert (x1[k], x2[k]) == refine_e3(
                    sys_, ParamPoint.from_polar(r, phi))


def test_batched_e3_finishes_its_last_points_in_the_scalar_loop(monkeypatch):
    finished = []

    def newton(*args, _f=equilibria._newton_e3):
        finished.append(args[-1])
        return _f(*args)
    monkeypatch.setattr(equilibria, "_newton_e3", newton)
    for sys_ in _canonical_systems():
        refine_e3(sys_, scan_circle(1e-3))
    # handed over with part of the step budget spent
    assert finished and all(0 < b < equilibria.MAX_ITER for b in finished)


def _scalar_failures(sys_, r):
    failed = 0
    for phi in SCAN_PHIS:
        try:
            refine_e3(sys_, ParamPoint.from_polar(r, phi))
        except NewtonDivergence:
            failed += 1
    return failed


def test_batched_e3_raises_where_a_scalar_scan_raises(monkeypatch):
    sys_ = ReducedSystem.from_coeffs(theta=1.0, gamma=1.0, P=1.0,
                                     delta=linear_poly(0.0, 1.0, 0.5))
    monkeypatch.setattr(equilibria, "MAX_ITER", 1)
    assert 0 < _scalar_failures(sys_, 1e-3) < len(SCAN_PHIS)
    with pytest.raises(NewtonDivergence):
        refine_e3(sys_, scan_circle(1e-3))


def test_batched_e3_raises_when_one_angle_fails(monkeypatch):
    # a Newton tolerance between the two largest converged residuals fails
    # the scalar solve at exactly one scan angle; the path to it is the same
    sys_ = canonical(-2.0, -1.0, M=0.3, N=-0.2, L=0.1, S=0.2, P=0.4, R=-0.3)
    r = 3e-3
    circle = scan_circle(r)
    x1, x2 = refine_e3(sys_, circle)
    ratios = []
    for k, phi in enumerate(SCAN_PHIS):
        c = sys_.at(ParamPoint.from_polar(r, phi))
        res = math.hypot(bracket1(c, x1[k], x2[k]), bracket2(c, x1[k], x2[k]))
        ratios.append(res / (1.0 + r))
    top, second = sorted(ratios)[-1], sorted(ratios)[-2]
    assert top > second
    monkeypatch.setattr(equilibria, "NEWTON_TOL", 0.5 * (top + second))
    assert _scalar_failures(sys_, r) == 1
    with pytest.raises(NewtonDivergence):
        refine_e3(sys_, circle)


def test_batched_e3_raises_on_a_nan_seed():
    sys_ = canonical(-2.0, -1.0)
    circle = scan_circle(1e-3)
    x1, x2 = _seed_e3(sys_, sys_.at(circle))
    x1[5] = math.nan
    with pytest.raises(NewtonDivergence):
        refine_e3(sys_, ParamPoint(circle.mu1[5], circle.mu2[5]),
                  seed=(x1[5], x2[5]))
    with pytest.raises(NewtonDivergence):
        refine_e3(sys_, circle, seed=(x1, x2))


def _count_calls(monkeypatch, *names):
    import lvbif.equilibria as eqm
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _f=getattr(eqm, name), _n=name):
            counts[_n] += 1
            return _f(*args)
        monkeypatch.setattr(eqm, name, counted)
    return counts


def _canonical_systems():
    from lvbif.cases import CANONICAL_BY_FAMILY
    return [sys_ for cases in CANONICAL_BY_FAMILY.values() for _, sys_ in cases]


def test_scalar_e3_evaluates_the_brackets_once_per_step(monkeypatch):
    # one evaluation at the seed, then one at each full Newton step
    counts = _count_calls(monkeypatch, "bracket1", "bracket_jacobian_at")
    for sys_ in _canonical_systems():
        for phi in SCAN_PHIS:
            counts.update(bracket1=0, bracket_jacobian_at=0)
            refine_e3(sys_, ParamPoint.from_polar(1e-3, phi))
            assert counts["bracket1"] == 1 + counts["bracket_jacobian_at"]


def test_batched_e3_evaluates_the_brackets_once_per_step(monkeypatch):
    # one evaluation at the seeds, then one at the full Newton step of
    # every active point
    counts = _count_calls(monkeypatch, "bracket1", "bracket_jacobian_at")
    for sys_ in _canonical_systems():
        counts.update(bracket1=0, bracket_jacobian_at=0)
        x1, x2 = refine_e3(sys_, scan_circle(1e-3))
        assert counts["bracket1"] <= 1 + counts["bracket_jacobian_at"]
        for k, phi in enumerate(SCAN_PHIS):
            assert (x1[k], x2[k]) == refine_e3(
                sys_, ParamPoint.from_polar(1e-3, phi))


def test_array_hypot_and_norm_equal_the_scalar_ones(rng):
    from lvbif.model import ParamArray, hypot
    x = rng.normal(size=20000) * 10.0 ** rng.integers(-12, 2, 20000)
    y = rng.normal(size=20000) * 10.0 ** rng.integers(-12, 2, 20000)
    assert hypot(x, y).tolist() == [math.sqrt(a * a + b * b) for a, b in
                                    zip(x.tolist(), y.tolist())]
    mu = ParamArray(x[:400].reshape(20, 20), y[:400].reshape(20, 20))
    assert mu.norm.shape == (20, 20)
    assert mu.norm.ravel().tolist() == [
        ParamPoint(a, b).norm for a, b in zip(x[:400].tolist(), y[:400].tolist())]
