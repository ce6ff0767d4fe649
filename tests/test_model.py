import json
import math
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest

from lvbif.errors import DiskError, DivisionError, SignError
from lvbif.model import (DELTA_ZERO, DOUBLY_DEGENERATE, NONDEGENERATE,
                         REDUCED_NAMES, THETA_ZERO, ParamArray, ParamPoint,
                         RawSystem, ReducedSystem, _EPS, _roots, check_disk,
                         field_at, jacobian_at, load_system, mirror, reduce,
                         system_from_dict)
from lvbif.oracle import fd_jacobian
from lvbif.poly import CoefficientPoly, linear_poly

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
    fred = field_at(red.at(nu), xi)
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
    assert field_at(sys_.at((1e-3, -2e-3)), (0.0, 0.0)) == (0.0, 0.0)
    for _ in range(50):
        c = sys_.at(rng.uniform(-5e-3, 5e-3, 2))
        x = rng.uniform(-1e-2, 1e-2)
        assert field_at(c, (x, 0.0))[1] == 0.0
        assert field_at(c, (0.0, x))[0] == 0.0


def test_field_exact_interior_zero():
    sys_ = canonical(-2.0, -1.0)
    f = field_at(sys_.at((0.001, 0.001)), (0.002, 0.003))
    assert f == (0.0, 0.0)


def test_jacobian_at_origin_is_diagonal():
    sys_ = canonical(0.5, 0.5, M=0.2, N=0.1, L=0.3, S=0.4, P=0.5, R=0.6)
    J = jacobian_at(sys_.at((0.01, -0.02)), (0.0, 0.0))
    assert J[0][0] == pytest.approx(0.01)
    assert J[1][1] == pytest.approx(-0.02)
    assert J[0][1] == 0.0 and J[1][0] == 0.0


def test_jacobian_axis_structure(rng):
    sys_ = canonical(0.5, 0.5, M=0.2, N=0.1, L=0.3, S=0.4, P=0.5, R=0.6)
    for _ in range(20):
        xi2 = rng.uniform(0.0, 1e-2)
        J = jacobian_at(sys_.at((1e-3, 1e-3)), (0.0, xi2))
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
        J = jacobian_at(sys_.at(mu), xi)
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


def test_degeneracy_is_derived_never_passed():
    sys_ = canonical(1.0, 1.0)
    coeffs = {n: getattr(sys_, n) for n in REDUCED_NAMES}
    with pytest.raises(TypeError):
        ReducedSystem(degeneracy=THETA_ZERO, **coeffs)
    for theta, delta, family, image in (
            (1.0, 1.0, NONDEGENERATE, NONDEGENERATE),
            (1.0, 0.0, DELTA_ZERO, THETA_ZERO),
            (0.0, 1.0, THETA_ZERO, DELTA_ZERO)):
        sys_ = canonical(theta, delta, M=0.1, P=0.2)
        assert sys_.truncated().degeneracy == family
        assert mirror(sys_).degeneracy == image
        # replace re-derives the class from the new theta(0) and delta(0)
        assert replace(sys_, theta=sys_.delta,
                       delta=sys_.theta).degeneracy == image


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


@pytest.mark.parametrize("build, error, named", [
    # a non-integer degree used to be saved and then refused on loading
    (lambda: ReducedSystem.from_coeffs(degree=2.5, theta=1.0, gamma=1.0),
     ValueError, "2.5"),
    (lambda: ReducedSystem.from_coeffs(degree=True, theta=1.0, gamma=1.0),
     ValueError, "True"),
    # an infinite delta used to give NaN eigenvalues, every point a saddle
    (lambda: ReducedSystem.from_coeffs(theta=-1.0, gamma=1.0,
                                       delta=math.inf),
     ValueError, "coefficient delta: value inf is not finite"),
    (lambda: ReducedSystem.from_coeffs(theta="3", gamma=1.0),
     TypeError, "coefficient theta: value '3'"),
    (lambda: RawSystem.from_coeffs(p12=1.0, p21=1.0, p22={(1.5, 0): 2.0}),
     ValueError, "coefficient p22: bad exponent key (1.5, 0)"),
    (lambda: ReducedSystem.from_coeffs(gamma=1.0, thta=0.5),
     TypeError, "unknown coefficients: ['thta']"),
    # a raw config names the raw coefficient, not a reduced one
    (lambda: system_from_dict({"form": "raw", "p12": 1.0, "p21": 1.0,
                               "p11": {"(1,0)": 1.0, "(1, 0)": 2.0}}),
     ValueError, "coefficient p11: exponent key '(1, 0)' repeats (1, 0)"),
    (lambda: system_from_dict({"form": "raw", "p12": 1.0, "p21": 1.0,
                               "p11": {"(1,2)": 1.0}}),
     ValueError, "coefficient p11: exponent pair (1, 2) exceeds degree 2"),
], ids=["degree-2.5", "degree-True", "delta-inf", "theta-string",
        "p22-float-key", "unknown-name", "p11-repeated-key",
        "p11-above-degree"])
def test_every_system_input_passes_one_constructor(build, error, named):
    with pytest.raises(error) as info:
        build()
    assert named in str(info.value)


def test_truncated_copy():
    sys_ = canonical(2.0, 1.0, M=0.1, N=0.1, L=0.1, S=0.1, P=0.1, R=0.1)
    t = sys_.truncated()
    assert t.theta0 == 2.0 and t.M.is_zero() and t.P.is_zero()
    assert t.degeneracy == sys_.degeneracy


@np.errstate(divide="ignore", invalid="ignore")
def batched_roots(F, a, b, fa, fb, ftol):
    """The former batched Illinois solve, kept as the reference: F(x, idx)
    evaluates the live brackets idx at once, ftol is a scalar or one per
    bracket."""
    out = np.where(np.abs(fa) <= np.abs(fb), a, b)
    live = np.flatnonzero(np.sign(fa) * np.sign(fb) < 0.0)
    ftol = np.broadcast_to(ftol, out.shape)[live]
    a, b, fa, fb = a[live], b[live], fa[live], fb[live]
    while live.size:
        x = b - fb * (b - a) / (fb - fa)
        f = F(x, live)
        flip = np.sign(f) != np.sign(fb)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = x, f
        tol = 4.0 * _EPS * (np.abs(b) + 1.0)
        done = (np.abs(f) <= ftol) | (np.abs(b - a) < tol)
        out[live[done]] = b[done]
        live, a, b, fa, fb, ftol = (v[~done]
                                    for v in (live, a, b, fa, fb, ftol))
    return out


def test_each_bracket_stops_at_its_own_ftol():
    # four residuals of very different size, each done at its own floor,
    # as the batched solve did them together; one floor for all (the
    # smallest) moves the 3e-7 bracket's zero
    scales = np.array([1.0, 1e-12, 1e6, 3e-7])
    a, b = np.array([0.0, 0.1, 0.3, 0.2]), np.array([1.0, 1.3, 1.1, 0.9])

    def F(x, idx):
        return scales[idx] * (np.exp(x) - 2.0)
    ends = np.arange(4)
    fa, fb, ftol = F(a, ends), F(b, ends), 4.0 * _EPS * scales
    together = batched_roots(F, a, b, fa, fb, ftol)

    def alone(k, floor):
        return _roots(lambda x: F(x, k), a[k], b[k], fa[k], fb[k], floor)
    for k in range(4):
        assert alone(k, ftol[k]).hex() == together[k].hex(), k
    assert alone(3, ftol.min()).hex() != together[3].hex()


def test_the_scalar_illinois_equals_the_batched_one_bit_for_bit():
    # 600 seeded cubics s (x - z)(1 + c x^2) + d x^3 on brackets with and
    # without a sign change, ends exactly at a zero, NaN ends, equal ends,
    # ends whose product underflows, ftol = 0 and one ftol per bracket,
    # solved together by the batched reference and one at a time by _roots
    rng = np.random.default_rng(25)
    n = 600
    s = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 6, n)
    s[np.arange(n) % 12 == 0] *= 1e-160
    z, c = rng.uniform(-1.0, 1.0, n), rng.uniform(-2.0, 2.0, n)
    d = s * np.where(rng.random(n) < 0.3, rng.uniform(-0.3, 0.3, n), 0.0)
    a, b = z - rng.uniform(0.0, 1.0, n), z + rng.uniform(0.0, 1.0, n)
    kind = np.arange(n) % 6
    a[kind == 1] = z[kind == 1]                  # an end at z: a zero if d = 0
    b[kind == 2] = a[kind == 2] - 0.1            # no sign change (mostly)
    a[kind == 2] -= 0.5

    def F(x, idx):
        return s[idx] * (x - z[idx]) * (1.0 + c[idx] * x * x) \
            + d[idx] * x * x * x
    ends = np.arange(n)
    fa, fb = F(a, ends), F(b, ends)
    fa[kind == 3] = np.nan                       # NaN ends
    fb[(kind == 4) & (np.arange(n) % 12 == 4)] = np.nan
    fb[(kind == 2) & (np.arange(n) % 12 == 2)] = fa[kind == 2][::2]
    ftol = np.abs(s) * 10.0 ** rng.uniform(-17, -8, n)
    ftol[kind == 5] = 0.0
    assert (np.sign(fa) * np.sign(fb) < 0.0).sum() > n // 4
    together = batched_roots(F, a, b, fa, fb, ftol)
    for k in range(n):
        alone = _roots(lambda x: F(x, k), a[k], b[k], fa[k], fb[k], ftol[k])
        assert type(alone) is float
        assert alone.hex() == together[k].hex(), k


# -- the evaluation plan, the hash and saved configs ---------------------------

def term_loop(p: CoefficientPoly, mu1, mu2):
    """CoefficientPoly.__call__ as every coefficient was evaluated before
    ReducedSystem kept a plan: the reference for at."""
    total = 0.0
    for (i, j), v in p.coeffs().items():
        total += v * mu1 ** i * mu2 ** j
    return total


def plan_system(rng) -> ReducedSystem:
    """Nine coefficients, each zero, constant, linear or full at a degree
    of 0 to 3, their exponent keys inserted in shuffled order."""
    degree = int(rng.integers(0, 4))
    pairs = [(i, t - i) for t in range(degree + 1) for i in range(t + 1)]
    polys = {}
    for name in REDUCED_NAMES:
        shape = rng.integers(0, 4) if degree else rng.integers(0, 2)
        keys = ([], [(0, 0)], [(0, 0), (1, 0), (0, 1)], pairs)[shape]
        keys = [keys[k] for k in rng.permutation(len(keys))]
        vals = rng.choice([-1.0, 1.0], len(keys)) * 10.0 ** rng.uniform(
            -3.0, 1.0, len(keys))
        polys[name] = CoefficientPoly(dict(zip(keys, vals)), degree)
    if polys["gamma"].at_zero <= 0.0:
        polys["gamma"] = CoefficientPoly(
            {**polys["gamma"].coeffs(), (0, 0): 0.5}, degree)
    return ReducedSystem(degree=degree, **polys)


def test_the_plan_equals_the_term_loop_bit_for_bit():
    # 300 seeded systems at ParamPoints and 1-D and 2-D ParamArrays whose
    # components include +-0.0, +-1e-300 and |mu| near 1e-2: every field
    # has the term loop's bits, and a constant one is a float at an array
    rng = np.random.default_rng(26)
    special = np.array([0.0, -0.0, 1e-300, -1e-300])

    def components(shape):
        x = rng.choice([-1.0, 1.0], shape) * rng.uniform(3e-3, 8e-3, shape)
        return np.where(rng.random(shape) < 0.3,
                        rng.choice(special, shape), x)
    shapes = 0
    for _ in range(300):
        sys_ = plan_system(rng)
        polys = [getattr(sys_, n) for n in REDUCED_NAMES]
        points = [ParamPoint(float(a), float(b))
                  for a, b in zip(components(6), components(6))]
        arrays = [ParamArray(components((7,)), components((7,))),
                  ParamArray(components((3, 4)), components((3, 4)))]
        for mu in points + arrays:
            c = sys_.at(mu)
            assert c.mu1 is mu.mu1 and c.mu2 is mu.mu2
            for p, got in zip(polys, c[2:]):
                want = term_loop(p, mu.mu1, mu.mu2)
                if isinstance(mu, ParamPoint):
                    assert type(got) is float
                    assert got.hex() == want.hex(), (p, mu)
                    continue
                shape = np.shape(mu.mu1)
                if p.coeffs().keys() <= {(0, 0)}:
                    assert type(got) is float, p
                else:
                    assert got.shape == shape
                    shapes += 1
                assert ([float(v).hex() for v in np.broadcast_to(got, shape).flat]
                        == [float(v).hex() for v in
                            np.broadcast_to(want, shape).flat]), (p, mu)
    assert shapes > 1000


def negative_pair_system() -> ReducedSystem:
    return reduce(RawSystem.from_coeffs(p11=2.0, p12=-1.0, p21=-1.0,
                                        p22=-1.0))


def shipped_fixtures() -> list[ReducedSystem]:
    folder = resources.files("lvbif") / "fixtures"
    return [load_system(str(f)) for f in sorted(folder.iterdir(),
                                                key=lambda f: f.name)
            if f.name.endswith(".json")]


def test_a_saved_reduced_config_keeps_mu_negated():
    systems = shipped_fixtures() + [negative_pair_system()]
    assert len(systems) == 24 and systems[-1].mu_negated
    for sys_ in systems:
        cfg = sys_.to_json_dict()
        # the key is written only when set, so no fixture's config changes
        assert ("mu_negated" in cfg) == sys_.mu_negated
        back = system_from_dict(json.loads(json.dumps(cfg)))
        assert back == sys_ and hash(back) == hash(sys_)
        assert back.mu_negated == sys_.mu_negated


def test_mu_negated_is_a_json_bool_of_the_reduced_form_only():
    cfg = negative_pair_system().to_json_dict()
    assert cfg["mu_negated"] is True
    assert not system_from_dict({**cfg, "mu_negated": False}).mu_negated
    for bad in (1, 0, "true", None, 1.0, [True]):
        with pytest.raises(ValueError, match="mu_negated"):
            system_from_dict({**cfg, "mu_negated": bad})
    with pytest.raises(ValueError, match="unknown raw config keys"):
        system_from_dict({"form": "raw", "p12": -1.0, "p21": -1.0,
                          "mu_negated": True})


def test_equal_systems_hash_equal_and_hash_once(monkeypatch):
    kw = dict(theta={(0, 0): -2.0, (1, 0): 0.5}, gamma=2.0,
              delta={(0, 0): -1.0, (0, 1): 0.25, (1, 1): 0.75},
              M=0.1, N=-0.3, P={(2, 0): 0.2})
    sys_ = ReducedSystem.from_coeffs(**kw)
    cfg = {n: {f"({i},{j})": v for (i, j), v in
               CoefficientPoly(c).coeffs().items()}
           for n, c in kw.items()}
    equal = [ReducedSystem.from_coeffs(**kw), system_from_dict(cfg),
             replace(sys_), mirror(mirror(sys_)),
             system_from_dict(json.loads(json.dumps(sys_.to_json_dict())))]
    for other in equal:
        assert other is not sys_ and other == sys_
        assert hash(other) == hash(sys_)
    # the hash the generated dataclass __hash__ would give
    assert hash(sys_) == hash(tuple(getattr(sys_, f.name)
                                    for f in fields(sys_) if f.compare))
    for other in (sys_.truncated(), replace(sys_, mu_negated=True)):
        assert other != sys_
    # the coefficients are hashed when the system is built, not after
    hashed = []
    real = CoefficientPoly.__hash__
    monkeypatch.setattr(CoefficientPoly, "__hash__",
                        lambda p: hashed.append(p) or real(p))
    fresh = replace(sys_)
    assert len(hashed) == len(REDUCED_NAMES)
    for _ in range(3):
        assert hash(fresh) == hash(sys_)
    assert len(hashed) == len(REDUCED_NAMES)
