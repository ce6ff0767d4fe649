"""Bifurcation curves in the parameter disk and genericity verification.

Each curve kind is the zero set of one scalar residual on one half-line
(the table CURVES): an axis coordinate, the E3 coordinate that vanishes,
the fold discriminant or the half-trace.  On each circle |mu| = r of a
radius sweep the residual is root-solved in the angle by the Illinois
solve model._roots.  The saddle-node and transcritical quantities
C1 = w.f_b, C2 = w.[Df_b v], C3 = w.[D^2 f (v,v)] at collisions use analytic
state derivatives and a complex step in the bifurcation parameter.
Both degenerate classes follow one rule, FOLD_AXIS: the root pair of one
axis (xi2 for DeltaZero, xi1 for ThetaZero) folds on the discriminant
parabola and meets E3 on the transcritical one, the mu coordinate of the
same index is the bifurcation parameter, and the other one is pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .equilibria import (_axis_quadratics, find_equilibria, refine_e3,
                         stable_quadratic_roots)
from .errors import (CollisionMismatch, DegenerateJacobian,
                     HypothesisViolation, NotApplicable, UnsupportedCase)
from .model import (DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ParamArray,
                    ParamPoint, ReducedSystem, _EPS, _roots, field_at,
                    hessian_form_at, jacobian_at, mirror, mirror_name)

# curve kinds
T1 = "T1"
T2 = "T2"
T3 = "T3"
T3_PLUS = "T3plus"
T4 = "T4"
T4_PLUS = "T4plus"
D_NEG = "D_branch_neg"
D_POS = "D_branch_pos"
H = "H"
X_PLUS = "Xplus"
X_MINUS = "Xminus"
Y_PLUS = "Yplus"
Y_MINUS = "Yminus"

AXES = (X_PLUS, Y_PLUS, X_MINUS, Y_MINUS)

# the fold axis of each degenerate class (0: xi1, 1: xi2), which is also
# the index of its bifurcation parameter; the other mu coordinate is pinned
FOLD_AXIS = {DELTA_ZERO: 1, THETA_ZERO: 0}

# default per-class curve sets (H is traceable but never a sector boundary)
ADMISSIBLE = {
    NONDEGENERATE: AXES + (T1, T2, H),
    DELTA_ZERO: AXES + (T1, T3, T3_PLUS, D_NEG, D_POS),
    THETA_ZERO: AXES + (T2, T4, T4_PLUS, D_NEG, D_POS),
}

CURVE_TOL = 1e-12  # times (1 + |mu|), on the defining residual


def admissible_kinds(sys: ReducedSystem) -> tuple[str, ...]:
    try:
        return ADMISSIBLE[sys.degeneracy]
    except KeyError:
        raise UnsupportedCase(
            f"no curve set for degeneracy class {sys.degeneracy!r}")


@dataclass
class BifurcationCurve:
    kind: str
    halfline: str
    samples: list[ParamPoint] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    leading: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.samples


@dataclass
class SotomayorReport:
    curve_kind: str
    mu0: ParamPoint
    xi0: tuple[float, float]
    v: tuple[float, float]
    w: tuple[float, float]
    C1: float
    C2: float
    C3: float
    predicted: dict[str, float]
    verdict: str
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# curve kinds: residuals and half-lines
# ---------------------------------------------------------------------------

class Curve(NamedTuple):
    """A curve kind: the zero set of a residual, taken on a half-line."""

    # mu1 or mu2 (an axis), xi1 or xi2 (the E3 coordinate that vanishes),
    # fold (the fold discriminant) or trace (the half-trace at E3)
    residual: str
    halfline: str | None    # the sign condition, as the curves CSV writes it
    holds: object           # holds(sys, mu): mu is on the half-line


# within a family, the kinds that share a residual are the two half-lines
# of one zero set; the D kinds take the half-lines of the pinned coordinate
# (see halfline_constraint)
CURVES = {
    X_PLUS: Curve("mu2", "mu1>0", lambda s, mu: mu.mu1 > 0.0),
    X_MINUS: Curve("mu2", "mu1<0", lambda s, mu: mu.mu1 < 0.0),
    Y_PLUS: Curve("mu1", "mu2>0", lambda s, mu: mu.mu2 > 0.0),
    Y_MINUS: Curve("mu1", "mu2<0", lambda s, mu: mu.mu2 < 0.0),
    T1: Curve("xi2", "theta*mu1<0", lambda s, mu: s.theta0 * mu.mu1 < 0.0),
    T2: Curve("xi1", "delta*mu2<0", lambda s, mu: s.delta0 * mu.mu2 < 0.0),
    T3: Curve("xi1", "mu1<0", lambda s, mu: mu.mu1 < 0.0),
    T3_PLUS: Curve("xi1", "mu1>0", lambda s, mu: mu.mu1 > 0.0),
    T4: Curve("xi2", "mu2<0", lambda s, mu: mu.mu2 < 0.0),
    T4_PLUS: Curve("xi2", "mu2>0", lambda s, mu: mu.mu2 > 0.0),
    D_NEG: Curve("fold", None, None),
    D_POS: Curve("fold", None, None),
    H: Curve("trace", "", lambda s, mu: True),
}


def curve_residual(sys: ReducedSystem, kind: str):
    """The defining scalar residual of a curve kind, as a function of mu.

    The function is called as residual(mu, xi=None).  mu is a ParamPoint or
    a ParamArray, which gives an array of residuals.  xi is the interior
    equilibrium at mu when the caller has solved for it already; residuals
    that do not need it ignore it.
    """
    if kind not in admissible_kinds(sys):
        raise NotApplicable(f"{kind} is not defined for class {sys.degeneracy}")
    res = CURVES[kind].residual
    if res == "trace":
        g = sys.gamma0
        if abs(sys.theta0 * g - 1.0) < 1e-12 or abs(g - sys.delta0) < 1e-12:
            raise NotApplicable(
                "the half-trace zero set is not a unique curve here "
                "(theta*gamma = 1 or gamma = delta)")

    def residual(mu, xi=None):
        if res in ("mu1", "mu2"):
            return getattr(mu, res)
        if res == "fold":
            return fold_discriminant(sys, mu)
        if xi is None:
            xi = refine_e3(sys, mu)
        if res == "trace":
            (j11, _), (_, j22) = jacobian_at(sys.at(mu), xi)
            return 0.5 * (j11 + j22)
        return xi[("xi1", "xi2").index(res)]
    return residual


def _fold_axis(sys: ReducedSystem) -> int:
    if sys.degeneracy not in FOLD_AXIS:
        raise NotApplicable(f"class {sys.degeneracy} has no fold axis, so no "
                            "saddle-node or transcritical parabola")
    return FOLD_AXIS[sys.degeneracy]


def fold_discriminant(sys: ReducedSystem, mu) -> float:
    """b^2 - 4 m a of the fold axis' quadratic a x^2 + b x + m: the axis-pair
    discriminant, delta^2 - 4 mu2 P (DeltaZero) or theta^2 - 4 mu1 N
    (ThetaZero)."""
    _, _, a, b, m = _axis_quadratics(sys.at(mu))[_fold_axis(sys)]
    return b * b - 4.0 * m * a


# ---------------------------------------------------------------------------
# half-line constraints and leading coefficients
# ---------------------------------------------------------------------------

def halfline_constraint(sys: ReducedSystem, kind: str) -> tuple[str, "callable"]:
    """(description, predicate) for the sign condition attached to a kind."""
    if kind in (D_NEG, D_POS):
        # the half-lines of the pinned coordinate, mu1 or mu2
        pinned = 1 - _fold_axis(sys)
        kind = ((X_MINUS, X_PLUS), (Y_MINUS, Y_PLUS))[pinned][kind == D_POS]
    curve = CURVES[kind]
    return curve.halfline, lambda mu: curve.holds(sys, mu)


def predicted_leading(sys: ReducedSystem, kind: str) -> float | None:
    """Leading coefficient of the curve's leading-order expansion, when one exists.

    Line-like kinds report the slope mu2/mu1; parabola kinds report the
    quadratic coefficient of the transverse coordinate.
    """
    th, de, g = sys.theta0, sys.delta0, sys.gamma0
    if kind == T1:
        return 1.0 / (th * g) if th != 0.0 else None
    if kind == T2:
        return de / g
    if kind == H:
        den = th * g * (g - de)
        return (th * g - 1.0) * de / den if den != 0.0 else None
    if sys.degeneracy == THETA_ZERO:
        # mu1 = a mu2^2 on the system is nu2 = a nu1^2 on its mirror
        return predicted_leading(mirror(sys), mirror_name(kind))
    if sys.degeneracy == DELTA_ZERO:
        d1, P0 = sys.delta1, sys.P0
        if kind in (D_NEG, D_POS):
            return d1 * d1 / (4.0 * P0) if P0 != 0.0 else None
        if kind in (T3, T3_PLUS):
            return (d1 * g - P0) / (g * g)
    return None


def fitted_leading(sys: ReducedSystem, kind: str, mu: ParamPoint) -> float | None:
    """Leading coefficient read off one sample."""
    if kind in AXES:
        return 0.0
    if kind in (T1, T2, H):
        return mu.mu2 / mu.mu1 if mu.mu1 != 0.0 else None
    # a parabola: the parameter over the pinned coordinate squared
    axis = _fold_axis(sys)
    param, pinned = (mu.mu1, mu.mu2)[axis], (mu.mu1, mu.mu2)[1 - axis]
    return param / (pinned * pinned) if pinned != 0.0 else None


# ---------------------------------------------------------------------------
# circle intersections and tracing
# ---------------------------------------------------------------------------

# the scan angles of a circle, with their cosines and sines taken as
# ParamPoint.from_polar takes them, so scan points match scalar ones exactly
N_SCAN = 256
_SCAN_PHIS = np.linspace(0.0, 2.0 * math.pi, N_SCAN + 1)
_SCAN_COS = np.array([math.cos(p) for p in _SCAN_PHIS.tolist()])
_SCAN_SIN = np.array([math.sin(p) for p in _SCAN_PHIS.tolist()])


def scan_circle(r: float) -> ParamArray:
    """The N_SCAN + 1 scan points of the circle |mu| = r, phi = 0 .. 2pi."""
    return ParamArray(r * _SCAN_COS, r * _SCAN_SIN)


# the angle of each semi-axis on a circle
_AXIS_PHI = {X_PLUS: 0.0, Y_PLUS: 0.5 * math.pi, X_MINUS: math.pi,
             Y_MINUS: 1.5 * math.pi}


def circle_zeros(sys: ReducedSystem, kinds,
                 r: float) -> list[tuple[ParamPoint, str]]:
    """Every zero of the kinds' residuals on |mu| = r, on both half-lines.

    The interior equilibrium is solved once for the whole circle, and each
    residual is scanned once for the kinds that share it.  A zero is
    labelled with the kind whose half-line holds it, or else with the first
    of them in CURVES.  All sign changes on the circle are refined by one
    Illinois solve.
    """
    residuals = {k: curve_residual(sys, k) for k in kinds if k not in AXES}
    groups: dict[str, list[str]] = {}
    for kind in CURVES:
        if kind in residuals:
            groups.setdefault(CURVES[kind].residual, []).append(kind)
    scans = [(shared, residuals[shared[0]]) for shared in groups.values()]
    circle = scan_circle(r)
    # every scanned residual but the fold discriminant reads E3
    xi = None if set(groups) <= {"fold"} else refine_e3(sys, circle)
    out = [(ParamPoint.from_polar(r, _AXIS_PHI[kind]), kind)
           for kind in kinds if kind in AXES]
    vals = np.array([residual(circle, xi) for _, residual in scans], ndmin=2)
    a, b = vals[:, :-1], vals[:, 1:]
    rows, j = np.nonzero((a == 0.0) | (a * b < 0.0))

    def F(phis, idx):
        return np.array([scans[rows[i]][1](ParamPoint.from_polar(r, p))
                         for i, p in zip(idx.tolist(), phis.tolist())])
    # a bracket is done at the residuals' rounding floor: 4 eps of the
    # smallest residual's size on the circle
    ftol = 4.0 * _EPS * np.abs(vals).max(axis=1, initial=0.0).min()
    phis = _roots(F, _SCAN_PHIS[j], _SCAN_PHIS[j + 1], a[rows, j], b[rows, j],
                  ftol) % (2.0 * math.pi)
    for row, (shared, _) in enumerate(scans):
        preds = [(k, halfline_constraint(sys, k)[1]) for k in shared]
        for phi in sorted(phis[rows == row].tolist()):
            p = ParamPoint.from_polar(r, phi)
            out.append((p, next((k for k, pred in preds if pred(p)),
                                shared[0])))
    return out


def trace_curve(sys: ReducedSystem, kind: str, radii) -> BifurcationCurve:
    """Sample a curve at the given radii and fit its leading coefficient.

    Returns an empty curve with a note when no sample satisfies the kind's
    half-line constraint (the curve is absent for this sign pattern).
    Raises NotApplicable when the kind does not exist for the class.
    """
    residual = curve_residual(sys, kind)
    desc, pred = halfline_constraint(sys, kind)
    curve = BifurcationCurve(kind=kind, halfline=desc)
    for r in sorted(radii, reverse=True):
        pts = [p for p, _ in circle_zeros(sys, [kind], r) if pred(p)]
        if not pts:
            curve.notes.append(f"NoRoot: no {kind} point on |mu| = {r:.3e}")
            continue
        for p in pts:
            curve.samples.append(p)
            curve.residuals.append(residual(p))
    if curve.samples:
        curve.leading = fitted_leading(sys, kind, curve.samples[-1])
    else:
        curve.notes.append("curve absent for this sign pattern")
    return curve


def parabola_point(sys: ReducedSystem, kind: str, coord: float) -> ParamPoint:
    """Point of a parabola-like curve at a pinned dominant coordinate.

    The pinned coordinate is mu1 for DeltaZero and mu2 for ThetaZero, and
    the solve is in the parameter of the fold axis, seed + span u, |u| <= 60.
    A fold point keeps a discriminant >= 0, where its axis pair exists.
    """
    residual = curve_residual(sys, kind)
    desc, pred = halfline_constraint(sys, kind)
    lead = predicted_leading(sys, kind)
    if lead is None:
        raise HypothesisViolation(f"no leading expansion for {kind}")
    seed = lead * coord * coord
    span = max(abs(seed), 1e-3 * coord * coord, 1e-18)
    axis = _fold_axis(sys)
    point = lambda m: ParamPoint(coord, m) if axis else ParamPoint(m, coord)
    F = lambda x, _: np.array([residual(point(seed + span * v))
                               for v in x.tolist()])
    u = np.array([-60.0, 60.0])
    fe = F(u, None)
    if fe[0] * fe[1] > 0.0:
        raise HypothesisViolation(f"no sign change of {kind} near {coord!r}")
    m = float(seed + span * _roots(F, u[:1], u[1:], fe[:1], fe[1:], 0.0)[0])
    while kind in (D_NEG, D_POS) and residual(point(m)) < 0.0:
        m = math.nextafter(m, seed + span * u[fe.argmax()])
    mu = point(m)
    if not pred(mu):
        raise HypothesisViolation(
            f"{kind} point at coordinate {coord!r} violates {desc}")
    return mu


# ---------------------------------------------------------------------------
# Sotomayor quantities
# ---------------------------------------------------------------------------

def axis_kernel_vectors(A, xi0: tuple[float, float]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Exact kernel vectors of the Jacobian at an on-axis collision point.

    On an axis the Jacobian is triangular, so the zero eigenvalue sits in a
    diagonal slot and the kernel vectors of A and A^T are closed rational
    expressions of its entries.  The scaling follows the component
    convention of the predicted genericity quantities (a designated
    component equals 1), not unit norm.
    """
    (a11, a12), (a21, a22) = A
    on_xi2_axis = xi0[0] == 0.0
    on_xi1_axis = xi0[1] == 0.0
    if not (on_xi1_axis or on_xi2_axis):
        raise DegenerateJacobian(
            f"collision point {xi0!r} is not on a coordinate axis")
    zero_is_first = abs(a11) <= abs(a22)
    zero, other = (a11, a22) if zero_is_first else (a22, a11)
    if abs(other) <= 1e3 * abs(zero):
        raise DegenerateJacobian(
            f"zero eigenvalue is not simple (diagonal {a11:.3e}, {a22:.3e})")
    if on_xi2_axis:
        # lower triangular (a12 = 0)
        if zero_is_first:   # transverse eigenvalue dies: interior crossing
            v = np.array([-a22 / a21, 1.0])
            w = np.array([1.0, 0.0])
        else:               # tangent eigenvalue dies: fold of the axis pair
            v = np.array([0.0, 1.0])
            w = np.array([-a21 / a11, 1.0])
    else:
        # upper triangular (a21 = 0)
        if zero_is_first:   # tangent eigenvalue dies
            v = np.array([1.0, 0.0])
            w = np.array([-a22 / a12, 1.0])
        else:               # transverse eigenvalue dies
            v = np.array([-a12 / a11, 1.0])
            w = np.array([0.0, 1.0])
    return v, w


# the complex step of the parameter derivatives: a power of two, so the
# division by it is exact, and small enough that its square is lost
_STEP = 2.0 ** -100


def _d_parameter(evaluate, sys: ReducedSystem, mu: ParamPoint, xi,
                 param: int) -> np.ndarray:
    """Derivative of evaluate(coeffs, xi) in mu[param], exact to rounding:
    the imaginary part of one complex step, which subtracts nothing."""
    m = [mu.mu1, mu.mu2]
    m[param] += 1j * _STEP
    return np.imag(evaluate(sys.at(ParamPoint(m[0], m[1])), xi)) / _STEP


def sotomayor_quantities(sys: ReducedSystem, mu0: ParamPoint,
                         xi0: tuple[float, float], param: int
                         ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Kernel vectors and C1, C2, C3 at an on-axis collision equilibrium
    with a simple zero eigenvalue; param selects the bifurcation parameter
    (0 or 1)."""
    A = jacobian_at(sys.at(mu0), xi0)
    v, w = axis_kernel_vectors(A, xi0)
    c1 = float(w @ _d_parameter(field_at, sys, mu0, xi0, param))
    c2 = float(w @ (_d_parameter(jacobian_at, sys, mu0, xi0, param) @ v))
    c3 = float(w @ np.asarray(
        hessian_form_at(sys.at(mu0), xi0, (float(v[0]), float(v[1])))))
    return v, w, c1, c2, c3


def _nonzero_tol(scale: float) -> float:
    return 1e3 * _EPS * max(abs(scale), _EPS)


def _sotomayor_report(sys: ReducedSystem, kind: str, mu0: ParamPoint,
                      x: float, predicted: dict[str, float], curve: str,
                      judge) -> SotomayorReport:
    """The report at the collision point x on the fold axis: an off-curve
    note, the quantities in the fold-axis parameter and the verdict
    judge(C1, C2, C3, notes)."""
    notes: list[str] = []
    res = curve_residual(sys, kind)(mu0)
    if abs(res) > CURVE_TOL * (1.0 + mu0.norm) * 1e3:
        notes.append(f"mu0 off the {curve} (residual {res:.3e})")
    axis = _fold_axis(sys)
    xi0 = (x, 0.0) if axis == 0 else (0.0, x)
    v, w, c1, c2, c3 = sotomayor_quantities(sys, mu0, xi0, axis)
    return SotomayorReport(kind, mu0, xi0, (float(v[0]), float(v[1])),
                           (float(w[0]), float(w[1])), c1, c2, c3,
                           predicted, judge(c1, c2, c3, notes), notes)


def sotomayor_saddle_node(sys: ReducedSystem, mu0) -> SotomayorReport:
    """Genericity quantities at the axis-pair collision on the discriminant
    curve, with the predicted leading values attached for comparison."""
    mu0 = ParamPoint.coerce(mu0)
    axis = _fold_axis(sys)
    g = sys.gamma0
    if sys.degeneracy == DELTA_ZERO:
        d1, d2, P0 = sys.delta1, sys.delta2, sys.P0
        hyp = sys.theta0 * d1 * d2 * P0 * (2.0 * P0 - d1 * g)
        predicted = {"C1": -d1 * mu0.mu1 / (2.0 * P0),
                     "C3": -d1 * mu0.mu1}
    else:
        t1, t2, N0 = sys.theta1, sys.theta2, sys.N0
        hyp = t1 * t2 * sys.delta0 * N0 * (2.0 * N0 * g - t2)
        predicted = {"C1": -mu0.mu2 * (2.0 * N0 * g - t2) / (2.0 * N0 * g * g),
                     "C3": -mu0.mu2 * (2.0 * N0 * g - t2) / (g * g)}
    # the double root of the fold axis' quadratic, on the pinned half-line
    _, _, a, b, _ = _axis_quadratics(sys.at(mu0))[axis]
    kind = D_NEG if (mu0.mu1, mu0.mu2)[1 - axis] < 0.0 else D_POS

    def judge(c1, c2, c3, notes):
        if abs(hyp) < 1e-12:
            notes.append("genericity hypothesis product vanishes")
            return "Inconclusive"
        ok = (abs(c1) > _nonzero_tol(predicted["C1"])
              and abs(c3) > _nonzero_tol(predicted["C3"]))
        return "SaddleNode" if ok else "Inconclusive"
    return _sotomayor_report(sys, kind, mu0, -b / (2.0 * a), predicted,
                             "discriminant curve", judge)


def transcritical_branch(sys: ReducedSystem) -> str:
    """Label of the axis point that meets the interior equilibrium."""
    if sys.degeneracy == THETA_ZERO:
        return mirror_name(transcritical_branch(mirror(sys)))
    if sys.degeneracy != DELTA_ZERO:
        raise NotApplicable("no collision branch rule for this class")
    return "E21" if sys.gamma0 * sys.delta1 - 2.0 * sys.P0 < 0.0 else "E22"


def sotomayor_transcritical(sys: ReducedSystem, mu0) -> SotomayorReport:
    """Genericity quantities at the interior/axis collision on the
    transcritical parabola of the active degenerate class."""
    mu0 = ParamPoint.coerce(mu0)
    axis = _fold_axis(sys)
    g = sys.gamma0
    if sys.degeneracy == DELTA_ZERO:
        d1, P0, g2 = sys.delta1, sys.P0, sys.gamma2
        if d1 * g2 * (d1 * g - 2.0 * P0) == 0.0:
            raise HypothesisViolation(
                "transcritical hypothesis delta1*gamma2*(delta1*gamma-2P) = 0")
        predicted = {"C2": mu0.mu1 * mu0.mu1 * (g * d1 - 2.0 * P0) * g2 / g,
                     "C3": 2.0 * g * mu0.mu1 * (2.0 * P0 - g * d1)}
    else:
        t2, N0, g1 = sys.theta2, sys.N0, sys.gamma1
        if g1 * t2 * sys.delta0 * (t2 - N0 * g) == 0.0 \
                or t2 - 2.0 * N0 * g == 0.0:
            raise HypothesisViolation(
                "transcritical hypothesis gamma1*theta2*delta*(theta2-N*gamma) = 0 "
                "or theta2 - 2N*gamma = 0")
        predicted = {"C2": g1 * mu0.mu2 / g,
                     "C3": 2.0 / ((2.0 * N0 * g - t2) * mu0.mu2)}
    # the fold axis' root that meets E3 on its transcritical parabola
    _, pair, a, b, m = _axis_quadratics(sys.at(mu0))[axis]
    rp, rm = stable_quadratic_roots(a, b, m)
    x = rp if transcritical_branch(sys) == pair[0] else rm
    if x is None:
        raise DegenerateJacobian("axis pair absent at mu0")

    def judge(c1, c2, c3, notes):
        tol_c1 = 1e-9 * max(abs(c2), _nonzero_tol(predicted["C2"]))
        ok = (abs(c1) < max(tol_c1, 1e-300)
              and abs(c2) > _nonzero_tol(predicted["C2"])
              and abs(c3) > _nonzero_tol(predicted["C3"]))
        return "Transcritical" if ok else "Inconclusive"
    return _sotomayor_report(sys, (T4, T3)[axis], mu0, x, predicted, "curve",
                             judge)


# ---------------------------------------------------------------------------
# collision bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class CollisionRecord:
    mu: ParamPoint
    pair: tuple[str, str]
    distance: float
    vanishing: str          # label whose transverse eigenvalue vanishes
    vanishing_eig: float
    companion: str | None
    companion_kind: str | None


# the other root of an axis pair: the companion of a transcritical collision
_PARTNER = {"E11": "E12", "E12": "E11", "E21": "E22", "E22": "E21"}


def expected_collision_pair(sys: ReducedSystem, kind: str) -> tuple[str, str]:
    if kind == T1:
        return ("E1", "E3")
    if kind == T2:
        return ("E2", "E3")
    if kind in (T3, T4):
        return (transcritical_branch(sys), "E3")
    raise NotApplicable(f"no collision assignment for curve {kind}")


def collision_check(sys: ReducedSystem,
                    curve: BifurcationCurve) -> list[CollisionRecord]:
    """Verify which pair collides on each sample and which eigenvalue dies.

    The colliding pair is the two equilibria other than E0 that
    find_equilibria flags trivial, within TOL_COLLIDE * |mu| of each other.
    Raises CollisionMismatch when they are not the expected pair.
    """
    expected = expected_collision_pair(sys, curve.kind)
    companion = _PARTNER.get(expected[0])
    records = []
    for mu in curve.samples:
        eqs = find_equilibria(sys, mu)
        flagged = [e for e in eqs if e.trivial and e.label != "E0"]
        pair = tuple(sorted(e.label for e in flagged))
        if pair != tuple(sorted(expected)):
            raise CollisionMismatch(
                f"expected {expected} to collide on {curve.kind}, found {pair} "
                f"at mu = ({mu.mu1:.6e}, {mu.mu2:.6e})")
        ea, eb = flagged
        axis_eq = ea if ea.label != "E3" else eb
        lam = min(axis_eq.eigenvalues, key=lambda z: abs(z.real))
        companion_kind = None
        if companion is not None:
            comp = eqs.get(companion)
            if comp is not None and comp.proper and not comp.trivial:
                companion_kind = comp.kind
        records.append(CollisionRecord(
            mu=mu, pair=pair, distance=ea.distance(eb),
            vanishing=axis_eq.label, vanishing_eig=float(lam.real),
            companion=companion, companion_kind=companion_kind))
    return records


__all__ = [
    "T1", "T2", "T3", "T3_PLUS", "T4", "T4_PLUS", "D_NEG", "D_POS", "H",
    "X_PLUS", "X_MINUS", "Y_PLUS", "Y_MINUS", "AXES", "ADMISSIBLE",
    "CURVE_TOL", "CURVES", "N_SCAN", "admissible_kinds",
    "BifurcationCurve", "SotomayorReport", "Curve", "curve_residual",
    "FOLD_AXIS", "fold_discriminant",
    "halfline_constraint", "predicted_leading", "fitted_leading",
    "scan_circle", "circle_zeros", "trace_curve",
    "parabola_point",
    "sotomayor_quantities", "sotomayor_saddle_node", "sotomayor_transcritical",
    "transcritical_branch", "expected_collision_pair", "collision_check",
    "CollisionRecord",
]
