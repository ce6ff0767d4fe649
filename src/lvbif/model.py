"""Model types: the raw planar cubic system, its normal-form reduction, and
evaluation of the reduced vector field and its derivatives.

The raw system is

    dx/dtau = 2x (mu1 + p11 x + p12 y + p13 xy + p14 x^2 + p15 y^2)
    dy/dtau = 2y (mu2 + p21 x + p22 y + p23 xy + p24 x^2 + p25 y^2)

with all p_ij smooth functions of mu = (mu1, mu2).  Under the state/time
change xi1 = x*p12(mu), xi2 = y*p21(mu), t = 2*tau (valid for p12(0) > 0,
p21(0) > 0) it becomes the reduced form

    xi1' = xi1 (mu1 + theta xi1 + gamma xi2 + M xi1 xi2 + N xi1^2 + L xi2^2)
    xi2' = xi2 (mu2 + xi1/gamma + delta xi2 + S xi1 xi2 + P xi2^2 + R xi1^2)

whose nine coefficient functions are ratios of the raw ones.  For the
negative sign pair p12(0) < 0, p21(0) < 0 a mirrored change (with reversed
time and relabeled parameter nu = -mu) produces the same form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DiskError, DivisionError, SignError
from .poly import DEFAULT_DEGREE, DIV_FLOOR, CoefficientPoly, as_poly

# degeneracy classes, decided by theta(0) and delta(0)
NONDEGENERATE = "NonDegenerate"
DELTA_ZERO = "DeltaZero"
THETA_ZERO = "ThetaZero"
DOUBLY_DEGENERATE = "DoublyDegenerate"

# |theta(0)| (or |delta(0)|) below this counts as an exact zero; it only has
# to absorb float noise from the truncated division in `reduce`.
CLASS_TOL = 1e-12

# default smallness radius of the parameter disk
EPSILON_DISK = 1e-2

# coefficient names of the raw and the reduced system
RAW_NAMES = ("p11", "p12", "p13", "p14", "p15",
             "p21", "p22", "p23", "p24", "p25")
REDUCED_NAMES = ("theta", "gamma", "delta", "M", "N", "L", "S", "P", "R")


@dataclass(frozen=True)
class ParamPoint:
    """A point of the small-parameter plane."""

    mu1: float
    mu2: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.mu1 * self.mu1 + self.mu2 * self.mu2)

    @property
    def angle(self) -> float:
        return math.atan2(self.mu2, self.mu1) % (2.0 * math.pi)

    @classmethod
    def coerce(cls, mu) -> "ParamPoint":
        if isinstance(mu, ParamPoint):
            return mu
        m1, m2 = mu
        return cls(float(m1), float(m2))

    @classmethod
    def from_polar(cls, r: float, phi: float) -> "ParamPoint":
        return cls(r * math.cos(phi), r * math.sin(phi))


def hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(x*x + y*y) element for element.

    It equals the scalar norms bit for bit: they are math.sqrt of the same
    sum, and both roots are correctly rounded (math.hypot can differ in the
    last bit; Borges 2019).  hypot's scaling buys nothing here: every norm
    is of |mu| < 1e-2 or scales with it, far from where x*x over- or
    underflows.
    """
    return np.sqrt(x * x + y * y)


_EPS = np.finfo(float).eps


@np.errstate(divide="ignore", invalid="ignore")
def _roots(F, a, b, fa, fb, ftol):
    """Zeros of F(x, idx) on the brackets [a, b], all together, by the
    Illinois method (Dowell & Jarratt 1971).  A bracket is done, and left
    alone, once |F| <= ftol (the rounding floor of F) or it is below 4 eps
    relative; one whose ends do not change sign keeps the end nearer zero."""
    out = np.where(np.abs(fa) <= np.abs(fb), a, b)
    live = np.flatnonzero(np.sign(fa) * np.sign(fb) < 0.0)
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
        live, a, b, fa, fb = (v[~done] for v in (live, a, b, fa, fb))
    return out


class ParamArray(NamedTuple):
    """Many points of the small-parameter plane, as equal-shape arrays."""

    mu1: np.ndarray
    mu2: np.ndarray

    @property
    def norm(self) -> np.ndarray:
        return hypot(self.mu1, self.mu2)

    def ravel(self) -> "ParamArray":
        """The same points in C order, as 1-D arrays."""
        return ParamArray(np.ravel(self.mu1), np.ravel(self.mu2))

    @classmethod
    def from_polar(cls, r: float, phis) -> "ParamArray":
        """The points ParamPoint.from_polar(r, phi) gives, phi in phis."""
        phis = np.asarray(phis, dtype=float).tolist()
        return cls(np.array([r * math.cos(p) for p in phis]),
                   np.array([r * math.sin(p) for p in phis]))


def check_disk(mu: ParamPoint, epsilon_disk: float = EPSILON_DISK) -> ParamPoint:
    # a NaN norm is outside too
    if not mu.norm < epsilon_disk:
        raise DiskError(
            f"|mu| = {mu.norm:.3e} is not inside the disk of radius {epsilon_disk:.3e}")
    return mu


class Coeffs(NamedTuple):
    """All reduced coefficients evaluated at a fixed mu (the fast path).

    Evaluated at a ParamArray, the fields are arrays (a coefficient that is
    identically zero stays the float 0.0) and every field helper below
    broadcasts over them.
    """

    mu1: float
    mu2: float
    theta: float
    gamma: float
    delta: float
    M: float
    N: float
    L: float
    S: float
    P: float
    R: float


@dataclass(frozen=True)
class RawSystem:
    """The ten coefficient functions of the raw system."""

    p11: CoefficientPoly
    p12: CoefficientPoly
    p13: CoefficientPoly
    p14: CoefficientPoly
    p15: CoefficientPoly
    p21: CoefficientPoly
    p22: CoefficientPoly
    p23: CoefficientPoly
    p24: CoefficientPoly
    p25: CoefficientPoly
    degree: int = DEFAULT_DEGREE

    @classmethod
    def from_coeffs(cls, degree: int = DEFAULT_DEGREE, **kw) -> "RawSystem":
        polys = {n: as_poly(kw.pop(n, 0.0), degree) for n in RAW_NAMES}
        if kw:
            raise TypeError(f"unknown raw coefficients: {sorted(kw)}")
        return cls(degree=degree, **polys)

    def __post_init__(self):
        for name in ("p12", "p21"):
            v = getattr(self, name).at_zero
            if abs(v) < DIV_FLOOR:
                raise DivisionError(f"{name}(0) must be nonzero (got {v!r})")

    def eval_field(self, mu, xy: tuple[float, float]) -> tuple[float, float]:
        """Right-hand side of the raw system at state (x, y)."""
        mu = ParamPoint.coerce(mu)
        x, y = xy
        m1, m2 = mu.mu1, mu.mu2
        e = lambda p: p(m1, m2)
        fx = 2.0 * x * (m1 + e(self.p11) * x + e(self.p12) * y
                        + e(self.p13) * x * y + e(self.p14) * x * x
                        + e(self.p15) * y * y)
        fy = 2.0 * y * (m2 + e(self.p21) * x + e(self.p22) * y
                        + e(self.p23) * x * y + e(self.p24) * x * x
                        + e(self.p25) * y * y)
        return fx, fy


def classify_degeneracy(theta0: float, delta0: float) -> str:
    tz = abs(theta0) < CLASS_TOL
    dz = abs(delta0) < CLASS_TOL
    if tz and dz:
        return DOUBLY_DEGENERATE
    if dz:
        return DELTA_ZERO
    if tz:
        return THETA_ZERO
    return NONDEGENERATE


@dataclass(frozen=True)
class ReducedSystem:
    """The nine coefficient functions of the reduced system."""

    theta: CoefficientPoly
    gamma: CoefficientPoly
    delta: CoefficientPoly
    M: CoefficientPoly
    N: CoefficientPoly
    L: CoefficientPoly
    S: CoefficientPoly
    P: CoefficientPoly
    R: CoefficientPoly
    degree: int = DEFAULT_DEGREE
    degeneracy: str = field(default="")
    mu_negated: bool = False

    def __post_init__(self):
        if self.gamma.at_zero <= 0.0:
            raise SignError(
                f"gamma(0) must be positive (got {self.gamma.at_zero!r})")
        if not self.degeneracy:
            object.__setattr__(
                self, "degeneracy",
                classify_degeneracy(self.theta.at_zero, self.delta.at_zero))

    @classmethod
    def from_coeffs(cls, degree: int = DEFAULT_DEGREE,
                    **kw) -> "ReducedSystem":
        polys = {n: as_poly(kw.pop(n, 0.0), degree) for n in REDUCED_NAMES}
        if kw:
            raise TypeError(f"unknown reduced coefficients: {sorted(kw)}")
        return cls(degree=degree, **polys)

    # convenient scalar views used throughout the analysis
    @property
    def theta0(self) -> float:
        return self.theta.at_zero

    @property
    def delta0(self) -> float:
        return self.delta.at_zero

    @property
    def gamma0(self) -> float:
        return self.gamma.at_zero

    @property
    def theta1(self) -> float:
        return self.theta.d_mu1

    @property
    def theta2(self) -> float:
        return self.theta.d_mu2

    @property
    def delta1(self) -> float:
        return self.delta.d_mu1

    @property
    def delta2(self) -> float:
        return self.delta.d_mu2

    @property
    def gamma1(self) -> float:
        return self.gamma.d_mu1

    @property
    def gamma2(self) -> float:
        return self.gamma.d_mu2

    @property
    def N0(self) -> float:
        return self.N.at_zero

    @property
    def P0(self) -> float:
        return self.P.at_zero

    def at(self, mu) -> Coeffs:
        """Evaluate every coefficient function at mu (or at a ParamArray)."""
        if not isinstance(mu, ParamArray):
            mu = ParamPoint.coerce(mu)
        m1, m2 = mu.mu1, mu.mu2
        return Coeffs(
            m1, m2,
            self.theta(m1, m2), self.gamma(m1, m2), self.delta(m1, m2),
            self.M(m1, m2), self.N(m1, m2), self.L(m1, m2),
            self.S(m1, m2), self.P(m1, m2), self.R(m1, m2))

    def truncated(self) -> "ReducedSystem":
        """Copy with the quadratic/cubic bracket coefficients forced to zero."""
        zero = CoefficientPoly({}, self.degree)
        return replace(self, M=zero, N=zero, L=zero, S=zero, P=zero, R=zero,
                       degeneracy=self.degeneracy)

    def to_json_dict(self) -> dict:
        d = {"form": "reduced", "degree": self.degree}
        for n in REDUCED_NAMES:
            p: CoefficientPoly = getattr(self, n)
            if not p.is_zero():
                d[n] = p.to_json_dict()
        return d


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def reduce(raw: RawSystem) -> ReducedSystem:
    """Reduce the raw system to normal form.

    Coefficient formulas: delta = p22/p21, theta = p11/p12, gamma = p12/p21,
    L = p15/p21^2, M = p13/(p12 p21), N = p14/p12^2, P = p25/p21^2,
    R = p24/p12^2, S = p23/(p12 p21); all as truncated series.

    The negative pair p12(0) < 0, p21(0) < 0 uses xi1 = -x*p12,
    xi2 = -y*p21, t = -2*tau: the result is expressed in the relabeled
    parameter nu = (-mu1, -mu2), with the quadratic and cubic bracket
    coefficients negated, and has mu_negated=True so downstream reports can
    speak in nu.  Mixed signs raise SignError.
    """
    a, b = raw.p12.at_zero, raw.p21.at_zero
    if not a * b > 0.0:
        raise SignError(
            f"p12(0) and p21(0) must have the same sign (got {a!r}, {b!r})")
    p12, p21 = raw.p12, raw.p21
    p12sq = p12 * p12
    p21sq = p21 * p21
    p12p21 = p12 * p21
    ratios = dict(
        theta=raw.p11.truncated_div(p12),
        gamma=p12.truncated_div(p21),
        delta=raw.p22.truncated_div(p21),
        M=raw.p13.truncated_div(p12p21),
        N=raw.p14.truncated_div(p12sq),
        L=raw.p15.truncated_div(p21sq),
        S=raw.p23.truncated_div(p12p21),
        P=raw.p25.truncated_div(p21sq),
        R=raw.p24.truncated_div(p12sq))
    if a < 0.0:
        ratios = {n: p.negate_arguments() if n in ("theta", "gamma", "delta")
                  else -p.negate_arguments() for n, p in ratios.items()}
    return ReducedSystem(degree=raw.degree, mu_negated=a < 0.0, **ratios)


# ---------------------------------------------------------------------------
# the coordinate-swap mirror
# ---------------------------------------------------------------------------

# equilibrium labels and curve kinds that trade places under the mirror;
# every other name (D_branch_neg and D_branch_pos among them) is its own
_SWAPPED = (("E1", "E2"), ("E11", "E21"), ("E12", "E22"), ("T1", "T2"),
            ("T3", "T4"), ("T3plus", "T4plus"), ("Xplus", "Yplus"),
            ("Xminus", "Yminus"))
MIRROR_NAMES = {**dict(_SWAPPED), **{b: a for a, b in _SWAPPED}}


def mirror_name(name: str) -> str:
    """The name a label or curve kind takes in the mirrored system."""
    return MIRROR_NAMES.get(name, name)


def mirror(sys: ReducedSystem) -> ReducedSystem:
    """The same system with xi1 <-> xi2 and mu1 <-> mu2 swapped.

    (theta, gamma, delta, M, N, L, S, P, R) become (delta, 1/gamma, theta,
    S, P, R, M, N, L), each a function of the swapped parameters; 1/gamma is
    a truncated series quotient, valid because gamma(0) > 0.  The mirror
    maps DeltaZero to ThetaZero and back, and NonDegenerate to itself.
    """
    swap = lambda p: p.swap_arguments()
    inv_gamma = CoefficientPoly.constant(1.0, sys.degree).truncated_div(sys.gamma)
    return ReducedSystem(
        theta=swap(sys.delta), gamma=swap(inv_gamma), delta=swap(sys.theta),
        M=swap(sys.S), N=swap(sys.P), L=swap(sys.R),
        S=swap(sys.M), P=swap(sys.N), R=swap(sys.L),
        degree=sys.degree, mu_negated=sys.mu_negated)


# ---------------------------------------------------------------------------
# field evaluation (scalar fast paths on Coeffs, public wrappers on systems)
# ---------------------------------------------------------------------------

def bracket1(c: Coeffs, x1: float, x2: float) -> float:
    """First bracket g1; xi1' = xi1 * g1."""
    return (c.mu1 + c.theta * x1 + c.gamma * x2
            + c.M * x1 * x2 + c.N * x1 * x1 + c.L * x2 * x2)


def bracket2(c: Coeffs, x1: float, x2: float) -> float:
    """Second bracket g2; xi2' = xi2 * g2."""
    return (c.mu2 + x1 / c.gamma + c.delta * x2
            + c.S * x1 * x2 + c.P * x2 * x2 + c.R * x1 * x1)


def field_at(c: Coeffs, xi: tuple[float, float]) -> tuple[float, float]:
    x1, x2 = xi
    return (x1 * bracket1(c, x1, x2), x2 * bracket2(c, x1, x2))


def jacobian_at(c: Coeffs, xi: tuple[float, float]) -> tuple[tuple[float, float],
                                                             tuple[float, float]]:
    x1, x2 = xi
    g1 = bracket1(c, x1, x2)
    g2 = bracket2(c, x1, x2)
    j11 = g1 + x1 * (c.theta + c.M * x2 + 2.0 * c.N * x1)
    j12 = x1 * (c.gamma + c.M * x1 + 2.0 * c.L * x2)
    j21 = x2 * (1.0 / c.gamma + c.S * x2 + 2.0 * c.R * x1)
    j22 = g2 + x2 * (c.delta + c.S * x1 + 2.0 * c.P * x2)
    return ((j11, j12), (j21, j22))


def bracket_jacobian_at(c: Coeffs, xi: tuple[float, float]
                        ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Jacobian of (g1, g2); nonsingular even where equilibria collide."""
    x1, x2 = xi
    return ((c.theta + c.M * x2 + 2.0 * c.N * x1,
             c.gamma + c.M * x1 + 2.0 * c.L * x2),
            (1.0 / c.gamma + c.S * x2 + 2.0 * c.R * x1,
             c.delta + c.S * x1 + 2.0 * c.P * x2))


def hessian_form_at(c: Coeffs, xi: tuple[float, float],
                    v: tuple[float, float]) -> tuple[float, float]:
    """Second differential D^2 f(xi)(v, v), exact for the cubic field."""
    x1, x2 = xi
    v1, v2 = v
    f1_11 = 2.0 * c.theta + 2.0 * c.M * x2 + 6.0 * c.N * x1
    f1_12 = c.gamma + 2.0 * c.M * x1 + 2.0 * c.L * x2
    f1_22 = 2.0 * c.L * x1
    f2_11 = 2.0 * c.R * x2
    f2_12 = 1.0 / c.gamma + 2.0 * c.S * x2 + 2.0 * c.R * x1
    f2_22 = 2.0 * c.delta + 2.0 * c.S * x1 + 6.0 * c.P * x2
    return (f1_11 * v1 * v1 + 2.0 * f1_12 * v1 * v2 + f1_22 * v2 * v2,
            f2_11 * v1 * v1 + 2.0 * f2_12 * v1 * v2 + f2_22 * v2 * v2)


def eval_field(sys: ReducedSystem, mu, xi) -> tuple[float, float]:
    """Right-hand side of the reduced system at state xi."""
    return field_at(sys.at(mu), tuple(xi))


def eval_jacobian(sys: ReducedSystem, mu, xi):
    """Analytic Jacobian of eval_field as a 2x2 nested tuple."""
    return jacobian_at(sys.at(mu), tuple(xi))


# ---------------------------------------------------------------------------
# system configuration files (JSON)
# ---------------------------------------------------------------------------

def system_from_dict(cfg: dict) -> ReducedSystem:
    """Build a reduced system from a configuration mapping.

    Two forms are accepted: {"form": "raw", "p11": {...}, ...} or
    {"form": "reduced", "theta": {...}, ...}.  Exponent keys are "(i,j)"
    strings; missing coefficients are zero.  A raw system is reduced by
    reduce, with either sign pair.
    """
    form = cfg.get("form", "reduced")
    degree = int(cfg.get("degree", DEFAULT_DEGREE))
    if form == "raw":
        raw = RawSystem.from_coeffs(
            degree=degree, **{n: cfg[n] for n in RAW_NAMES if n in cfg})
        return reduce(raw)
    if form == "reduced":
        return ReducedSystem.from_coeffs(
            degree=degree, **{n: cfg[n] for n in REDUCED_NAMES if n in cfg})
    raise ValueError(f"unknown system form {form!r}")


def load_system(path) -> ReducedSystem:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return system_from_dict(cfg)


__all__ = [
    "NONDEGENERATE", "DELTA_ZERO", "THETA_ZERO", "DOUBLY_DEGENERATE",
    "CLASS_TOL", "EPSILON_DISK",
    "ParamPoint", "ParamArray", "hypot", "check_disk", "Coeffs", "RawSystem",
    "ReducedSystem",
    "classify_degeneracy", "reduce",
    "MIRROR_NAMES", "mirror_name", "mirror",
    "bracket1", "bracket2", "field_at", "jacobian_at", "bracket_jacobian_at",
    "hessian_form_at", "eval_field", "eval_jacobian",
    "system_from_dict", "load_system",
]
