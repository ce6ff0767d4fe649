import numpy as np
import pytest

from lvbif.errors import DivisionError
from lvbif.poly import CoefficientPoly, linear_poly


def test_constant_and_eval():
    p = CoefficientPoly.constant(3.5)
    assert p(0.0, 0.0) == 3.5
    assert p(0.2, -0.1) == 3.5
    assert p.at_zero == 3.5


def test_eval_at_zero_is_constant_term_exactly():
    p = CoefficientPoly({(0, 0): -1.25, (1, 0): 7.0, (0, 2): 1e8})
    assert p(0.0, 0.0) == -1.25


def test_degree_bound_enforced():
    with pytest.raises(ValueError):
        CoefficientPoly({(2, 1): 1.0}, degree=2)
    with pytest.raises(ValueError):
        CoefficientPoly({(-1, 0): 1.0})


def test_key_parsing_forms():
    p = CoefficientPoly.coerce({"(0,0)": 1.0, "(1, 0)": 2.0, "( 0 , 1 )": 3.0})
    assert p.at_zero == 1.0 and p.d_mu1 == 2.0 and p.d_mu2 == 3.0
    with pytest.raises(ValueError):
        CoefficientPoly.coerce({"0,0": 1.0})


@pytest.mark.parametrize("key", [(1.5, 0), (1, 0, 7), (True, 0)])
def test_a_tuple_key_is_two_integers_or_an_error(key):
    # truncating any of them would read it silently as (1, 0)
    with pytest.raises(ValueError, match="bad exponent key"):
        CoefficientPoly.coerce({key: 2.0})
    assert CoefficientPoly.coerce({(1, 0): 2.0}).coeffs() == {(1, 0): 2.0}


def test_linear_poly_partials():
    p = linear_poly(1.0, -2.0, 3.0)
    assert (p.at_zero, p.d_mu1, p.d_mu2) == (1.0, -2.0, 3.0)
    assert p(0.1, 0.2) == pytest.approx(1.0 - 0.2 + 0.6)


def test_arithmetic_truncates():
    p = linear_poly(1.0, 1.0, 0.0)
    q = linear_poly(0.0, 1.0, 1.0)
    prod = p * q
    # mu1 * mu1^2-type terms cannot appear beyond total degree 2
    assert all(i + j <= 2 for i, j in prod.coeffs())
    assert prod.coeff(1, 0) == 1.0
    assert prod.coeff(2, 0) == 1.0
    assert prod.coeff(1, 1) == 1.0


def test_negate_arguments():
    p = CoefficientPoly({(0, 0): 1.0, (1, 0): 2.0, (0, 1): -3.0,
                         (2, 0): 4.0, (1, 1): 5.0})
    q = p.negate_arguments()
    assert q(0.3, -0.2) == pytest.approx(p(-0.3, 0.2))


def test_division_floor():
    with pytest.raises(DivisionError):
        linear_poly(1.0, 0.0, 0.0).truncated_div(linear_poly(0.0, 1.0, 0.0))


def test_division_exact_on_constants():
    q = CoefficientPoly.constant(3.0).truncated_div(
        CoefficientPoly.constant(2.0))
    assert q.at_zero == 1.5 and len(q.coeffs()) == 1


KEYS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
EDGES = (0.0, 0.5, -0.5, 3.0, -3.0)


def draw_poly(rng, nonzero_const=False):
    """Each term present with probability 1/2, valued in [-3, 3], a quarter
    of the values an edge value; a nonzero constant term has magnitude in
    [0.5, 3]."""
    def value(lo):
        if rng.random() < 0.25:
            return float(rng.choice([e for e in EDGES if abs(e) >= lo]))
        return rng.uniform(lo, 3.0) * rng.choice([-1.0, 1.0])
    c = {key: value(0.0) for key in KEYS if rng.random() < 0.5}
    if nonzero_const:
        c[(0, 0)] = value(0.5)
    return CoefficientPoly(c)


def test_division_roundtrip_mod_degree():
    rng = np.random.default_rng(2201)
    for _ in range(200):
        a, b = draw_poly(rng), draw_poly(rng, nonzero_const=True)
        back = a.truncated_div(b) * b
        for key in KEYS:
            assert back.coeff(*key) == pytest.approx(a.coeff(*key),
                                                     abs=1e-9), (a, b)


def test_ring_identities():
    rng = np.random.default_rng(2202)
    x, y = 3e-6, -7e-6
    for _ in range(100):
        a, b = draw_poly(rng), draw_poly(rng)
        assert (-a)(x, y) == -a(x, y)
        # the truncated terms are below 36 * 9 * |mu|^3 ~ 1e-13 here
        assert (a * b)(x, y) == pytest.approx(a(x, y) * b(x, y), abs=1e-12)
        for key in KEYS:
            assert (a * b).coeff(*key) == pytest.approx((b * a).coeff(*key),
                                                        abs=1e-12)
        # a number is a constant polynomial: its product scales every term
        assert (a * 2.0).coeffs() == {k: 2.0 * v
                                      for k, v in a.coeffs().items()}


def test_json_round_trip():
    p = CoefficientPoly({(0, 0): 1.5, (1, 1): -0.25})
    d = p.to_json_dict()
    assert d == {"(0,0)": 1.5, "(1,1)": -0.25}
    assert CoefficientPoly.coerce(d) == p
