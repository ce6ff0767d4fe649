import math

import numpy as np
import pytest

from lvbif import bifurcation as bif
from lvbif.cases import deltazero_case, nondegenerate_case
from lvbif.dynamics import (_A, _B, _D, _E, ATOL, CONVERGED, LEFT_WINDOW,
                            MAX_TIME, RTOL, _combo, integrate, portrait,
                            separatrices)
from lvbif.equilibria import SADDLE, Tolerances, find_equilibria
from lvbif.errors import StepFailure
from lvbif.model import ParamPoint, ReducedSystem, field_at


def test_axis_trajectory_stays_on_axis():
    sys_ = nondegenerate_case(-2.0, -1.0)
    tr = integrate(sys_, (1e-3, 1e-3), (2e-3, 0.0), t_max=2e4)
    assert np.all(tr.states[:, 1] == 0.0)


def test_trajectory_converges_to_interior_attractor():
    sys_ = ReducedSystem.from_coeffs(theta=-2.0, delta=-1.0, gamma=1.0)
    tr = integrate(sys_, (1e-3, 1e-3), (1e-3, 1e-3))
    assert tr.terminal == CONVERGED and tr.terminal_label == "E3"
    assert math.hypot(tr.final[0] - 2e-3, tr.final[1] - 3e-3) < 1e-8


def test_equilibrium_start_is_constant():
    sys_ = nondegenerate_case(-2.0, -1.0)
    tr = integrate(sys_, (1e-3, 1e-3), (0.0, 0.0), t_max=10.0)
    assert np.all(tr.states == 0.0)
    assert tr.terminal == MAX_TIME


def test_separatrices_of_origin_saddle_follow_axes():
    sys_ = nondegenerate_case(1.0, 1.0)
    tol = Tolerances(epsilon_disk=5e-2)
    mu = (0.01, -0.02)
    eqs = find_equilibria(sys_, mu, tol)
    e0 = eqs[0]
    assert e0.kind == "saddle"
    seps = separatrices(sys_, mu, e0, equilibria=eqs)
    # one seed of each eigendirection leaves the closed quadrant
    assert len(seps) == 2
    for tr in seps:
        on_x = np.all(np.abs(tr.states[:, 1]) <= 1e-12)
        on_y = np.all(np.abs(tr.states[:, 0]) <= 1e-12)
        assert on_x or on_y
        # unstable direction (mu1 > 0) is the horizontal axis
        if on_x:
            assert tr.direction == "forward"
        if on_y:
            assert tr.direction == "backward"


def test_boundary_saddle_emits_three_branches():
    sys_ = nondegenerate_case(-2.0, -1.0)
    mu = (1e-3, 1e-3)
    eqs = find_equilibria(sys_, mu)
    e1 = eqs.get("E1")
    assert e1.kind == "saddle" and e1.xi[1] == 0.0
    seps = separatrices(sys_, mu, e1, equilibria=eqs)
    assert len(seps) == 3


def test_interior_saddle_four_branches_stay_in_quadrant():
    sys_ = nondegenerate_case(0.5, 0.5)
    mu = ParamPoint.from_polar(1e-3, math.radians(216))
    eqs = find_equilibria(sys_, mu)
    e3 = eqs.get("E3")
    assert e3.kind == "saddle" and min(e3.xi) > 0.0
    seps = separatrices(sys_, mu, e3, equilibria=eqs)
    assert len(seps) == 4
    for tr in seps:
        assert tr.states.min() >= -1e-9


def test_portrait_repeller_only_region_everything_leaves():
    sys_ = nondegenerate_case(1.0, 2.0)
    port = portrait(sys_, (7e-4, 7e-4), grid_density=5)
    assert all(tr.terminal in (LEFT_WINDOW, MAX_TIME)
               for tr in port.trajectories)
    # outward trend: final radius above initial radius
    for tr in port.trajectories:
        r0 = math.hypot(*tr.initial)
        r1 = math.hypot(*tr.final)
        assert r1 > r0


@pytest.mark.parametrize("density", [0, -2])
def test_portrait_rejects_a_grid_below_one(density):
    # an empty lattice would hand the separatrices back as trajectories
    with pytest.raises(ValueError, match="grid_density must be at least 1"):
        portrait(nondegenerate_case(0.5, 0.5), (-8.09e-4, -5.88e-4),
                 grid_density=density)


def test_portrait_attractor_region_dominates():
    sys_ = ReducedSystem.from_coeffs(theta=-2.0, delta=-1.0, gamma=1.0,
                                     M=0.1, N=0.1, L=0.1, S=0.1, P=0.1, R=0.1)
    port = portrait(sys_, (1e-3, 1e-3), grid_density=10)
    to_e3 = sum(tr.terminal_label == "E3" for tr in port.trajectories)
    assert to_e3 >= 90
    for tr in port.trajectories + port.separatrices:
        assert tr.states.min() >= -1e-9


def test_forward_trajectories_never_settle_on_repellers():
    sys_ = nondegenerate_case(-2.0, -1.0)
    port = portrait(sys_, (1e-3, 1e-3), grid_density=5)
    kinds = {e.label: e.kind for e in port.equilibria}
    for tr in port.trajectories:
        if tr.terminal == CONVERGED:
            assert not kinds[tr.terminal_label].startswith("repeller")


def test_time_reversal_duality_of_mirrored_reduction():
    # a raw system with the negative sign pair reduces (with reversed time)
    # to a form whose interior point attracts; in the raw time direction the
    # corresponding raw-space point must repel
    from scipy.integrate import solve_ivp

    from lvbif.model import RawSystem, reduce
    raw = RawSystem.from_coeffs(p11=2.0, p12=-1.0, p21=-1.0, p22=1.0)
    red = reduce(raw)
    assert red.theta0 == -2.0 and red.delta0 == -1.0 and red.mu_negated
    nu = (1e-3, 1e-3)
    tr = integrate(red, nu, (2.1e-3, 3.1e-3))
    assert tr.terminal == CONVERGED and tr.terminal_label == "E3"
    # raw coordinates: xi = -x*p12 = x, -y*p21 = y; raw parameter mu = -nu
    mu_raw = (-1e-3, -1e-3)
    x0 = (2.1e-3, 3.1e-3)
    sol = solve_ivp(lambda t, y: raw.eval_field(mu_raw, y), (0.0, 400.0), x0,
                    rtol=1e-10, atol=1e-12)
    d0 = math.hypot(x0[0] - 2e-3, x0[1] - 3e-3)
    d1 = math.hypot(sol.y[0, -1] - 2e-3, sol.y[1, -1] - 3e-3)
    assert d1 > 3.0 * d0  # repelled in the raw time direction


def test_portrait_on_fold_curve_shows_one_sided_attraction():
    from lvbif import bifurcation as bif
    sys_ = deltazero_case(1.0, 1.5)
    mu0 = bif.parabola_point(sys_, bif.D_NEG, -2e-3)
    eqs = find_equilibria(sys_, mu0)
    pair = [e for e in eqs if e.label in ("E21", "E22")]
    assert pair and all(e.trivial for e in pair)
    assert any(e.kind == "degenerate" for e in pair)
    x2 = pair[0].xi[1]
    below = integrate(sys_, mu0, (0.0, 0.6 * x2), t_max=2e5)
    # approaching the double root from below along the axis
    assert below.terminal == CONVERGED or \
        abs(below.final[1] - x2) < abs(0.6 * x2 - x2)
    above = integrate(sys_, mu0, (0.0, 1.4 * x2), t_max=2e5)
    assert above.final[1] > 1.4 * x2  # drifts away upward


def _polar(deg):
    return ParamPoint.from_polar(1e-3, math.radians(deg))


# the criterion-13 attractor at three angles, an interior saddle, and a point
# on the fold curve, as the portraits benchmark draws them
PORTRAIT_INPUTS = {
    "attractor@45": (nondegenerate_case(-2.0, -1.0), _polar(45.0), Tolerances()),
    "attractor@112.5": (nondegenerate_case(-2.0, -1.0), _polar(112.5),
                        Tolerances()),
    "attractor@157": (nondegenerate_case(-2.0, -1.0), _polar(157.0),
                      Tolerances()),
    "saddle@216": (nondegenerate_case(0.5, 0.5), _polar(216.0), Tolerances()),
    "fold": (deltazero_case(1.0, 1.5),
             bif.parabola_point(deltazero_case(1.0, 1.5), bif.D_NEG, -2e-3),
             Tolerances(epsilon_disk=2e-2)),
}


def _scipy_rk45(sys_, mu, tr, window, equilibria):
    """Terminal, label and final state of ``tr`` as scipy's RK45 finds them
    with the same tolerances, horizon and terminal events."""
    from scipy.integrate import solve_ivp

    c = sys_.at(mu)
    sign = 1.0 if tr.direction == "forward" else -1.0
    targets = [e for e in equilibria if e.proper]

    def near(eq):
        def ev(_t, y):
            return math.hypot(y[0] - eq.xi[0], y[1] - eq.xi[1]) - 1e-8 * window
        ev.terminal, ev.direction = True, -1.0
        return ev

    def leave(_t, y):
        m = 1e-6 * window
        return min(2.0 * window - y[0], 2.0 * window - y[1], y[0] + m, y[1] + m)
    leave.terminal = True

    sol = solve_ivp(lambda _t, y: [sign * v for v in field_at(c, y)],
                    (0.0, 50.0 / mu.norm), tr.initial, method="RK45",
                    rtol=RTOL, atol=ATOL,
                    events=[near(e) for e in targets] + [leave])
    assert sol.status >= 0, sol.message
    final = sol.y[:, -1].copy()
    final[(final < 0.0) & (final > -10.0 * ATOL * (1.0 + window))] = 0.0
    hit = [k for k, te in enumerate(sol.t_events) if len(te)]
    if not hit:
        return MAX_TIME, None, final
    if hit[0] == len(targets):
        return LEFT_WINDOW, None, final
    if math.hypot(*field_at(c, final)) < 1e-12:
        return CONVERGED, targets[hit[0]].label, final
    return MAX_TIME, None, final


@pytest.mark.parametrize("name", sorted(PORTRAIT_INPUTS))
def test_portrait_terminals_match_scipy_rk45(name):
    sys_, mu, tol = PORTRAIT_INPUTS[name]
    port = portrait(sys_, mu, grid_density=5, tol=tol)
    for tr in port.trajectories + port.separatrices:
        terminal, label, final = _scipy_rk45(sys_, mu, tr, port.window,
                                             port.equilibria)
        assert (tr.terminal, tr.terminal_label) == (terminal, label), tr.initial
        assert np.hypot(*(tr.states[-1] - final)) <= 1e-9 * port.window


@pytest.mark.parametrize("name", sorted(PORTRAIT_INPUTS))
def test_integrate_alone_equals_its_row_in_a_portrait(name):
    # rows that end on different events in different steps are located
    # one bracket at a time, as a row integrated alone is
    sys_, mu, tol = PORTRAIT_INPUTS[name]
    port = portrait(sys_, mu, grid_density=4, tol=tol)
    alone = [integrate(sys_, mu, tr.initial) for tr in port.trajectories]
    for eq in port.equilibria:
        if eq.kind == SADDLE and eq.proper and not eq.trivial:
            alone += separatrices(sys_, mu, eq)
    assert len(alone) == len(port.trajectories + port.separatrices)
    for a, b in zip(alone, port.trajectories + port.separatrices):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert (a.terminal, a.terminal_label) == (b.terminal, b.terminal_label)


def test_stage_combinations_equal_the_left_to_right_sum():
    # the reduce over the stage axis adds whole stages in order from 0.0,
    # as sum() over the stages did, signed zeros included
    rng = np.random.default_rng(7)
    shape = (7, 2, 50)
    K = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    K[rng.random(shape) < 0.2] = 0.0
    K[rng.random(shape) < 0.2] = -0.0
    K[:, :, :5] = -0.0
    for w in [*_A, _B, _E, _D]:
        expected = sum(wi * k for wi, k in zip(w.tolist(), K))
        assert _combo(w, K).tobytes() == expected.tobytes()


def test_non_finite_field_raises_step_failure():
    sys_ = nondegenerate_case(1.0, 2.0)
    with pytest.raises(StepFailure, match=r"from \(1e\+200, 1e\+200\)"):
        integrate(sys_, (1e-3, 1e-3), (1e200, 1e200))
    # a finite-time blow-up inside a huge box ends in a too-small step
    with pytest.raises(StepFailure, match="fell below 10 ulp"):
        integrate(sys_, (1e-3, 1e-3), (1e-3, 1e-3), window=1e300)
