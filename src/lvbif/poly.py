"""Truncated bivariate polynomials in the small parameters (mu1, mu2).

Every smooth coefficient function of the model is represented by its Taylor
polynomial about mu = 0, truncated at a configurable total degree (default 2).
All arithmetic is performed modulo O(|mu|^(degree+1)); in particular division
is power-series division of the truncations.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Mapping

from .errors import DivisionError

DEFAULT_DEGREE = 2

# pivot floor for series division: |denominator(0)| below this is rejected
DIV_FLOOR = 1e-8

_KEY_RE = re.compile(r"^\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def _graded_exponents(degree: int) -> list[tuple[int, int]]:
    return [(i, t - i) for t in range(degree + 1) for i in range(t, -1, -1)]


def _is_int(k) -> bool:
    return type(k) is int or (isinstance(k, numbers.Integral)
                              and not isinstance(k, bool))


class CoefficientPoly:
    """A real polynomial sum c[i,j] mu1^i mu2^j with i + j <= degree.

    value is a number (the constant term), an exponent->number mapping or
    another polynomial.  degree is a non-negative int, each exponent key
    passes _parse_key and names its pair once within the degree, and each
    coefficient is a finite real number, not a bool or a string; anything
    else raises ValueError or TypeError naming the culprit.
    """

    __slots__ = ("_c", "degree")

    def __init__(self, value=0.0, degree: int = DEFAULT_DEGREE):
        if type(degree) is not int or degree < 0:
            raise ValueError(
                f"degree must be a non-negative int, got {degree!r}")
        items = (value._c.items() if isinstance(value, CoefficientPoly) else
                 value.items() if isinstance(value, Mapping) else
                 [((0, 0), value)])
        c: dict[tuple[int, int], float] = {}
        for k, v in items:
            i, j = key = self._parse_key(k)
            if key in c:
                raise ValueError(f"exponent key {k!r} repeats {key}")
            if i + j > degree:
                raise ValueError(
                    f"exponent pair {key} exceeds degree {degree}")
            # the type test first: an isinstance against an ABC is slow
            if type(v) is not float and (isinstance(v, bool) or
                                         not isinstance(v, numbers.Real)):
                raise TypeError(f"value {v!r} is not a real number")
            try:
                c[key] = float(v)
            except OverflowError:   # an int past the float range
                raise ValueError(f"value {v!r} is not finite") from None
            if not math.isfinite(c[key]):
                raise ValueError(f"value {v!r} is not finite")
        self.degree = degree
        self._c = c if all(c.values()) else {k: v for k, v in c.items() if v}

    @staticmethod
    def _parse_key(key) -> tuple[int, int]:
        """An exponent pair: an "(i,j)" string or two non-negative
        integers, not bools."""
        if isinstance(key, tuple) and len(key) == 2:
            i, j = key
            if _is_int(i) and _is_int(j) and i >= 0 and j >= 0:
                return int(i), int(j)
        elif isinstance(key, str):
            m = _KEY_RE.match(key.strip())
            if m:
                return int(m[1]), int(m[2])
        raise ValueError(f"bad exponent key {key!r}; expected '(i,j)' "
                         "or two non-negative integers")

    # -- access ------------------------------------------------------------

    def coeffs(self) -> dict[tuple[int, int], float]:
        return dict(self._c)

    def coeff(self, i: int, j: int) -> float:
        return self._c.get((i, j), 0.0)

    @property
    def at_zero(self) -> float:
        return self._c.get((0, 0), 0.0)

    @property
    def d_mu1(self) -> float:
        """First-order coefficient in mu1 (the partial at 0)."""
        return self._c.get((1, 0), 0.0)

    @property
    def d_mu2(self) -> float:
        """First-order coefficient in mu2 (the partial at 0)."""
        return self._c.get((0, 1), 0.0)

    def is_zero(self) -> bool:
        return not self._c

    def __call__(self, mu1: float, mu2: float) -> float:
        total = 0.0
        for (i, j), v in self._c.items():
            total += v * mu1 ** i * mu2 ** j
        return total

    # -- arithmetic (all truncated) -----------------------------------------

    def __neg__(self) -> "CoefficientPoly":
        return CoefficientPoly({k: -v for k, v in self._c.items()}, self.degree)

    def __mul__(self, other) -> "CoefficientPoly":
        other = CoefficientPoly(other, self.degree)
        c: dict[tuple[int, int], float] = {}
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= self.degree:
                    c[(i, j)] = c.get((i, j), 0.0) + v1 * v2
        return CoefficientPoly(c, self.degree)

    def truncated_div(self, den: "CoefficientPoly") -> "CoefficientPoly":
        """Power-series quotient self/den modulo O(|mu|^(degree+1)).

        Requires |den(0)| >= DIV_FLOOR.
        """
        den = CoefficientPoly(den, self.degree)
        b0 = den.at_zero
        if abs(b0) < DIV_FLOOR:
            raise DivisionError(
                f"denominator constant term {b0!r} below floor {DIV_FLOOR}")
        q: dict[tuple[int, int], float] = {}
        for (i, j) in _graded_exponents(self.degree):
            acc = self._c.get((i, j), 0.0)
            for (k, l), qv in q.items():
                if k <= i and l <= j and (k, l) != (i, j):
                    acc -= den._c.get((i - k, j - l), 0.0) * qv
            val = acc / b0
            if val != 0.0:
                q[(i, j)] = val
        return CoefficientPoly(q, self.degree)

    def negate_arguments(self) -> "CoefficientPoly":
        """Return p(-mu1, -mu2) as a polynomial in the new arguments."""
        return CoefficientPoly(
            {k: v if (k[0] + k[1]) % 2 == 0 else -v for k, v in self._c.items()},
            self.degree)

    def swap_arguments(self) -> "CoefficientPoly":
        """Return p(mu2, mu1) as a polynomial in the new arguments."""
        return CoefficientPoly({(j, i): v for (i, j), v in self._c.items()},
                               self.degree)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "CoefficientPoly(0)"
        terms = ", ".join(f"({i},{j}): {v:.17g}"
                          for (i, j), v in sorted(self._c.items()))
        return f"CoefficientPoly({{{terms}}}, degree={self.degree})"

    def to_json_dict(self) -> dict[str, float]:
        return {f"({i},{j})": v for (i, j), v in sorted(self._c.items())}


def linear_poly(c0: float, c1: float, c2: float) -> CoefficientPoly:
    """Convenience constructor c0 + c1*mu1 + c2*mu2."""
    return CoefficientPoly({(0, 0): c0, (1, 0): c1, (0, 1): c2})
