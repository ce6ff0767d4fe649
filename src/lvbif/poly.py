"""Truncated bivariate polynomials in the small parameters (mu1, mu2).

Every smooth coefficient function of the model is represented by its Taylor
polynomial about mu = 0, truncated at a configurable total degree (default 2).
All arithmetic is performed modulo O(|mu|^(degree+1)); in particular division
is power-series division of the truncations.
"""

from __future__ import annotations

import numbers
import re
from typing import Mapping

from .errors import DivisionError

DEFAULT_DEGREE = 2

# pivot floor for series division: |denominator(0)| below this is rejected
DIV_FLOOR = 1e-8

_KEY_RE = re.compile(r"^\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def _graded_exponents(degree: int) -> list[tuple[int, int]]:
    out = []
    for total in range(degree + 1):
        for i in range(total, -1, -1):
            out.append((i, total - i))
    return out


class CoefficientPoly:
    """A real polynomial sum c[i,j] mu1^i mu2^j with i + j <= degree."""

    __slots__ = ("_c", "degree")

    def __init__(self, coeffs: Mapping[tuple[int, int], float] | None = None,
                 degree: int = DEFAULT_DEGREE):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = int(degree)
        c: dict[tuple[int, int], float] = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                i, j = int(i), int(j)
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                if i + j > self.degree:
                    raise ValueError(
                        f"exponent pair ({i}, {j}) exceeds degree {self.degree}")
                v = float(v)
                if v != 0.0:
                    c[(i, j)] = v
        self._c = c

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, value: float, degree: int = DEFAULT_DEGREE) -> "CoefficientPoly":
        return cls({(0, 0): float(value)}, degree)

    @classmethod
    def coerce(cls, value, degree: int = DEFAULT_DEGREE) -> "CoefficientPoly":
        """Accept a CoefficientPoly, a number, or an exponent->number mapping;
        a bool or a string is not a number, and no exponent pair repeats."""
        if isinstance(value, CoefficientPoly):
            if value.degree == degree:
                return value
            return cls(value.coeffs(), degree)
        items = (value.items() if isinstance(value, Mapping)
                 else [((0, 0), value)])
        parsed = {}
        for k, v in items:
            key = cls._parse_key(k)
            if key in parsed:
                raise ValueError(f"exponent key {k!r} repeats {key}")
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"coefficient {v!r} is not a number")
            parsed[key] = float(v)
        return cls(parsed, degree)

    @staticmethod
    def _parse_key(key) -> tuple[int, int]:
        """An exponent pair: an "(i,j)" string or two integers, not bools."""
        m = isinstance(key, str) and _KEY_RE.match(key.strip())
        if m:
            return int(m[1]), int(m[2])
        if isinstance(key, tuple) and len(key) == 2 and all(
                isinstance(k, numbers.Integral) and not isinstance(k, bool)
                for k in key):
            return int(key[0]), int(key[1])
        raise ValueError(
            f"bad exponent key {key!r}; expected '(i,j)' or two integers")

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
        other = CoefficientPoly.coerce(other, self.degree)
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
        den = CoefficientPoly.coerce(den, self.degree)
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
