import math

import numpy as np
import pytest

from lvbif.errors import DivisionError
from lvbif.poly import CoefficientPoly, linear_poly


def test_constant_and_eval():
    p = CoefficientPoly(3.5)
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
    p = CoefficientPoly({"(0,0)": 1.0, "(1, 0)": 2.0, "( 0 , 1 )": 3.0})
    assert p.at_zero == 1.0 and p.d_mu1 == 2.0 and p.d_mu2 == 3.0
    with pytest.raises(ValueError):
        CoefficientPoly({"0,0": 1.0})


@pytest.mark.parametrize("key", [(1.5, 0), (1, 0, 7), (True, 0)])
def test_a_tuple_key_is_two_integers_or_an_error(key):
    # truncating any of them would read it silently as (1, 0)
    with pytest.raises(ValueError, match="bad exponent key"):
        CoefficientPoly({key: 2.0})
    assert CoefficientPoly({(1, 0): 2.0}).coeffs() == {(1, 0): 2.0}


@pytest.mark.parametrize("value, degree, error, named", [
    # keys: non-negative, named once, within the degree
    ({(0, -1): 2.0}, 2, ValueError, "(0, -1)"),
    ({"(0,0)": 1.0, (0, 0): 2.0}, 2, ValueError, "(0, 0)"),
    ({(2, 1): 1.0}, 2, ValueError, "(2, 1)"),
    # values: a finite real number, not a string or a bool
    ({(1, 0): "3"}, 2, TypeError, "'3'"),
    ("3", 2, TypeError, "'3'"),
    (True, 2, TypeError, "True"),
    (None, 2, TypeError, "None"),
    ({(0, 0): math.inf}, 2, ValueError, "inf"),
    (math.nan, 2, ValueError, "nan"),
    (10 ** 400, 2, ValueError, "not finite"),
    # degree: a non-negative int, not a bool
    (1.0, 2.5, ValueError, "2.5"),
    (1.0, True, ValueError, "True"),
    (1.0, -1, ValueError, "-1"),
], ids=["key-negative", "key-repeated", "key-above-degree", "value-string",
        "number-string", "number-bool", "number-none", "value-inf",
        "number-nan", "number-overflow", "degree-float", "degree-bool",
        "degree-negative"])
def test_the_constructor_refuses_bad_input_naming_it(value, degree, error,
                                                      named):
    with pytest.raises(error) as info:
        CoefficientPoly(value, degree)
    assert named in str(info.value)


def test_the_constructor_takes_a_number_a_mapping_or_a_polynomial():
    p = CoefficientPoly({(0, 0): 1.5, "(1,0)": 0.0, (np.int64(0), 1): -2})
    assert p.coeffs() == {(0, 0): 1.5, (0, 1): -2.0}
    assert all(type(v) is float for v in p.coeffs().values())
    assert CoefficientPoly(np.float32(0.5)).coeffs() == {(0, 0): 0.5}
    assert CoefficientPoly().is_zero() and CoefficientPoly(0).is_zero()
    # another polynomial is copied at the new degree, where its terms fit
    assert CoefficientPoly(p, 1) == p and CoefficientPoly(p, 1).degree == 1
    with pytest.raises(ValueError, match="exceeds degree 0"):
        CoefficientPoly(p, 0)


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
    q = CoefficientPoly(3.0).truncated_div(CoefficientPoly(2.0))
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
    assert CoefficientPoly(d) == p
