import math

import numpy as np
import pytest

from lvbif.errors import DiskError, DivisionError, SignError
from lvbif.model import (DELTA_ZERO, DOUBLY_DEGENERATE, NONDEGENERATE,
                         THETA_ZERO, ParamPoint, RawSystem, ReducedSystem,
                         check_disk, eval_field, eval_jacobian, reduce,
                         system_from_dict)
from lvbif.oracle import fd_jacobian
from lvbif.poly import linear_poly

from conftest import rand_poly


def make_raw(rng, sign=+1.0, degree=4):
    # the reduction truncates the coefficient ratios at the configured
    # degree, so soundness at 1e-10 needs truncation headroom beyond 2
    def p(lo=0.5, hi=2.0):
        return rand_poly(rng, sign * rng.uniform(lo, hi), spread=0.3,
                         degree=degree)
    def q():
        return rand_poly(rng, rng.uniform(-1.0, 1.0), spread=0.3,
                         degree=degree)
    return RawSystem.from_coeffs(
        degree=degree,
        p11=q(), p12=p(), p13=q(), p14=q(), p15=q(),
        p21=p(), p22=q(), p23=q(), p24=q(), p25=q())


# -- reduction ---------------------------------------------------------------

def test_reduce_constant_ratios():
    raw = RawSystem.from_coeffs(p11=1.0, p12=2.0, p21=4.0, p22=2.0)
    red = reduce(raw)
    assert red.theta0 == pytest.approx(0.5)
    assert red.gamma0 == pytest.approx(0.5)
    assert red.delta0 == pytest.approx(0.5)
    for name in ("M", "N", "L", "S", "P", "R"):
        assert getattr(red, name).is_zero()


def test_reduce_identity():
    red = reduce(RawSystem.from_coeffs(p12=1.0, p21=1.0))
    assert red.gamma0 == 1.0
    assert red.theta.is_zero() and red.delta.is_zero()
    assert red.degeneracy == DOUBLY_DEGENERATE


def test_reduce_sign_guard():
    raw = RawSystem.from_coeffs(p12=-1.0, p21=1.0)
    with pytest.raises(SignError):
        reduce(raw)
    with pytest.raises(DivisionError, match="p12"):
        RawSystem.from_coeffs(p12=0.0, p21=1.0)


def transport_residual(raw: RawSystem, red: ReducedSystem, mu: ParamPoint,
                       xy, negated=False) -> float:
    """Relative disagreement between the reduced field at the transported
    state and the transported raw field (the change-of-variables oracle)."""
    x, y = xy
    s = -1.0 if negated else 1.0
    p12 = raw.p12(mu.mu1, mu.mu2)
    p21 = raw.p21(mu.mu1, mu.mu2)
    xi = (s * x * p12, s * y * p21)
    nu = ParamPoint(-mu.mu1, -mu.mu2) if negated else mu
    fred = eval_field(red, nu, xi)
    fraw = raw.eval_field(mu, (x, y))
    # d(xi)/dt = (+-p12) * (dx/dtau) * (dtau/dt), with dtau/dt = +-1/2
    expect = (p12 * fraw[0] / 2.0, p21 * fraw[1] / 2.0)
    scale = max(abs(expect[0]), abs(expect[1]), 1e-300)
    return max(abs(fred[0] - expect[0]), abs(fred[1] - expect[1])) / scale


def test_reduce_vector_field_agreement():
    raw = RawSystem.from_coeffs(p11=linear_poly(-2.0, 1.0, 0.0), p12=1.0,
                                p21=1.0, p22=-1.0)
    red = reduce(raw)
    assert red.theta0 == -2.0 and red.theta.d_mu1 == 1.0
    assert red.delta0 == -1.0 and red.gamma0 == 1.0
    assert red.degeneracy == NONDEGENERATE
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = ParamPoint(*rng.uniform(-5e-3, 5e-3, 2))
        xy = rng.uniform(-2e-3, 2e-3, 2)
        assert transport_residual(raw, red, mu, xy) < 1e-12


def test_reduce_soundness_random(rng):
    for _ in range(8):
        raw = make_raw(rng)
        red = reduce(raw)
        for _ in range(100):
            mu = ParamPoint(*rng.uniform(-5e-3, 5e-3, 2))
            xy = rng.uniform(-3e-3, 3e-3, 2)
            assert transport_residual(raw, red, mu, xy) < 1e-10


def test_reduce_truncation_error_is_cubic_at_degree_two(rng):
    # at the default degree the transported fields agree up to the division
    # remainder, which must shrink like |mu|^3
    raw = make_raw(rng, degree=2)
    red = reduce(raw)
    worst = {}
    for r in (4e-3, 4e-4):
        w = 0.0
        for _ in range(60):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            mu = ParamPoint(r * math.cos(phi), r * math.sin(phi))
            xy = rng.uniform(-2e-3, 2e-3, 2)
            w = max(w, transport_residual(raw, red, mu, xy))
        worst[r] = w
    assert worst[4e-4] < 2e-2 * worst[4e-3]


def test_reduce_negative_identity_symmetry():
    red = reduce(RawSystem.from_coeffs(p12=-1.0, p21=-1.0))
    assert red.gamma0 == 1.0
    assert red.mu_negated
    for name in ("M", "N", "L", "S", "P", "R"):
        assert getattr(red, name).is_zero()


def test_reduce_negative_coefficients_and_oracle(rng):
    raw = RawSystem.from_coeffs(p12=-2.0, p21=-1.0, p13=1.0)
    red = reduce(raw)
    assert red.gamma0 == pytest.approx(2.0)
    assert red.M.at_zero == pytest.approx(-0.5)
    for _ in range(10):
        mu = ParamPoint(*rng.uniform(-4e-3, 4e-3, 2))
        xy = rng.uniform(-2e-3, 2e-3, 2)
        assert transport_residual(raw, red, mu, xy, negated=True) < 1e-10


def test_reduce_negative_random_oracle(rng):
    for _ in range(5):
        raw = make_raw(rng, sign=-1.0)
        red = reduce(raw)
        for _ in range(50):
            mu = ParamPoint(*rng.uniform(-4e-3, 4e-3, 2))
            xy = rng.uniform(-2e-3, 2e-3, 2)
            assert transport_residual(raw, red, mu, xy, negated=True) < 1e-10


def test_reduce_negative_rejects_mixed_signs():
    raw = RawSystem.from_coeffs(p12=-1.0, p21=1.0)
    with pytest.raises(SignError):
        reduce(raw)


# -- field evaluation --------------------------------------------------------

def canonical(theta, delta, gamma=1.0, **kw):
    return ReducedSystem.from_coeffs(theta=theta, delta=delta, gamma=gamma,
                                     **kw)


def test_field_origin_and_axis_invariance(rng):
    sys_ = canonical(0.7, -1.1, M=0.2, N=0.3, L=-0.4, S=0.1, P=0.2, R=-0.3)
    assert eval_field(sys_, (1e-3, -2e-3), (0.0, 0.0)) == (0.0, 0.0)
    for _ in range(50):
        mu = rng.uniform(-5e-3, 5e-3, 2)
        x = rng.uniform(-1e-2, 1e-2)
        assert eval_field(sys_, mu, (x, 0.0))[1] == 0.0
        assert eval_field(sys_, mu, (0.0, x))[0] == 0.0


def test_field_exact_interior_zero():
    sys_ = canonical(-2.0, -1.0)
    f = eval_field(sys_, (0.001, 0.001), (0.002, 0.003))
    assert f == (0.0, 0.0)


def test_jacobian_at_origin_is_diagonal():
    sys_ = canonical(0.5, 0.5, M=0.2, N=0.1, L=0.3, S=0.4, P=0.5, R=0.6)
    J = eval_jacobian(sys_, (0.01, -0.02), (0.0, 0.0))
    assert J[0][0] == pytest.approx(0.01)
    assert J[1][1] == pytest.approx(-0.02)
    assert J[0][1] == 0.0 and J[1][0] == 0.0


def test_jacobian_axis_structure(rng):
    sys_ = canonical(0.5, 0.5, M=0.2, N=0.1, L=0.3, S=0.4, P=0.5, R=0.6)
    for _ in range(20):
        xi2 = rng.uniform(0.0, 1e-2)
        J = eval_jacobian(sys_, (1e-3, 1e-3), (0.0, xi2))
        assert J[0][1] == 0.0


def test_jacobian_matches_finite_differences(rng):
    for _ in range(1000):
        sys_ = canonical(rng.uniform(-2, 2) or 0.3, rng.uniform(-2, 2) or 0.4,
                         gamma=rng.uniform(0.3, 2.0),
                         M=rng.uniform(-1, 1), N=rng.uniform(-1, 1),
                         L=rng.uniform(-1, 1), S=rng.uniform(-1, 1),
                         P=rng.uniform(-1, 1), R=rng.uniform(-1, 1))
        mu = rng.uniform(-5e-3, 5e-3, 2)
        xi = rng.uniform(-5e-3, 5e-3, 2)
        J = eval_jacobian(sys_, mu, xi)
        F = fd_jacobian(sys_, mu, xi)
        scale = max(abs(v) for row in J for v in row) + 1e-9
        for i in range(2):
            for j in range(2):
                assert abs(J[i][j] - F[i][j]) < 1e-6 * scale


# -- types and config --------------------------------------------------------

def test_param_point_norm_and_disk():
    mu = ParamPoint(3e-3, 4e-3)
    assert mu.norm == pytest.approx(5e-3)
    check_disk(mu)
    with pytest.raises(DiskError):
        check_disk(ParamPoint(1e-2, 1e-2))


def test_gamma_positivity_enforced():
    with pytest.raises(SignError):
        ReducedSystem.from_coeffs(theta=1.0, delta=1.0, gamma=-1.0)
    # missing keys mean zero, and a zero gamma violates the invariant
    with pytest.raises(SignError):
        ReducedSystem.from_coeffs(theta=1.0, delta=1.0)
    with pytest.raises(SignError):
        system_from_dict({"form": "reduced", "theta": {"(0,0)": 1.0},
                          "delta": {"(0,0)": 1.0}})


def test_degeneracy_classification():
    assert canonical(1.0, 1.0).degeneracy == NONDEGENERATE
    assert canonical(1.0, 0.0).degeneracy == DELTA_ZERO
    assert canonical(0.0, 1.0).degeneracy == THETA_ZERO
    assert canonical(1e-13, 1e-13).degeneracy == DOUBLY_DEGENERATE


def test_config_reduced_form():
    loaded = system_from_dict({
        "form": "reduced", "degree": 2,
        "theta": {"(0,0)": -2.0, "(1,0)": 1.0},
        "gamma": {"(0,0)": 1.0},
        "delta": {"(0,0)": -1.0},
    })
    assert loaded.theta0 == -2.0
    assert loaded.degeneracy == NONDEGENERATE


def test_config_raw_form_positive_and_negative():
    pos = system_from_dict({"form": "raw", "p11": {"(0,0)": 1.0},
                            "p12": {"(0,0)": 2.0}, "p21": {"(0,0)": 4.0},
                            "p22": {"(0,0)": 2.0}})
    assert pos.theta0 == pytest.approx(0.5)
    neg = system_from_dict({"form": "raw", "p12": {"(0,0)": -2.0},
                            "p21": {"(0,0)": -1.0}, "p13": {"(0,0)": 1.0}})
    assert neg.mu_negated
    assert neg.M.at_zero == pytest.approx(-0.5)
    with pytest.raises(SignError):
        system_from_dict({"form": "raw", "p12": {"(0,0)": -1.0},
                          "p21": {"(0,0)": 1.0}})


def test_config_rejects_zero_p12():
    with pytest.raises(DivisionError, match="p12\\(0\\) must be nonzero"):
        system_from_dict({"form": "raw", "p12": {"(0,0)": 0.0},
                          "p21": {"(0,0)": 1.0}})


def test_truncated_copy():
    sys_ = canonical(2.0, 1.0, M=0.1, N=0.1, L=0.1, S=0.1, P=0.1, R=0.1)
    t = sys_.truncated()
    assert t.theta0 == 2.0 and t.M.is_zero() and t.P.is_zero()
    assert t.degeneracy == sys_.degeneracy
