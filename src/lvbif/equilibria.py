"""Location and eigenvalue classification of all near-origin equilibria.

The origin E0 always exists.  Axis equilibria are exact roots of the on-axis
quadratics

    mu1 + theta(mu) xi1 + N(mu) xi1^2 = 0      (xi1-axis)
    mu2 + delta(mu) xi2 + P(mu) xi2^2 = 0      (xi2-axis)

and the interior point E3 is refined by damped Newton on the bracket system,
seeded from the closed-form leading-order coordinates of the active
degeneracy class.  Labels follow the class conventions:

    NonDegenerate:  E0, E1, E2, E3
    DeltaZero:      E0, E1, E21, E22, E3
    ThetaZero:      E0, E11, E12, E2, E3
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousLabel, NewtonDivergence, UnsupportedCase
from .model import (
    DELTA_ZERO, DOUBLY_DEGENERATE, EPSILON_DISK, NONDEGENERATE, THETA_ZERO,
    Coeffs, ParamArray, ParamPoint, ReducedSystem, bracket1, bracket2,
    bracket_jacobian_at, check_disk, jacobian_at)

# equilibrium kinds; tables collapse the node/focus split to a/r
SADDLE = "saddle"
ATTRACTOR_NODE = "attractor_node"
ATTRACTOR_FOCUS = "attractor_focus"
REPELLER_NODE = "repeller_node"
REPELLER_FOCUS = "repeller_focus"
DEGENERATE = "degenerate"

_SAR = {
    SADDLE: "s",
    ATTRACTOR_NODE: "a", ATTRACTOR_FOCUS: "a",
    REPELLER_NODE: "r", REPELLER_FOCUS: "r",
    DEGENERATE: "d",
}

LABELS_BY_FAMILY = {
    NONDEGENERATE: ("E0", "E1", "E2", "E3"),
    DELTA_ZERO: ("E0", "E1", "E21", "E22", "E3"),
    THETA_ZERO: ("E0", "E11", "E12", "E2", "E3"),
}


def sar_letter(kind: str) -> str:
    return _SAR[kind]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances of the equilibrium analysis.

    The proper/collide/eig tolerances scale with |mu|: the underlying
    dichotomies are exact and the bands only absorb float noise.
    """

    epsilon_disk: float = EPSILON_DISK
    newton_tol: float = 1e-13       # bracket residual, times (1 + |mu|)
    max_iter: int = 25
    tol_proper: float = 1e-9        # times |mu|
    tol_collide: float = 1e-7       # times |mu|
    tol_eig: float = 1e-9           # times |mu|
    hyperbola_tol: float = 1e-9     # guard on theta*delta - 1
    quad_floor: float = 1e-14       # quadratic coefficient floor on the axes


TOL = Tolerances()


@dataclass(frozen=True)
class Equilibrium:
    label: str
    xi: tuple[float, float]
    eigenvalues: tuple[complex, complex]
    kind: str
    proper: bool
    trivial: bool = False
    notes: tuple[str, ...] = ()

    @property
    def letter(self) -> str:
        return sar_letter(self.kind)

    def distance(self, other: "Equilibrium") -> float:
        return math.hypot(self.xi[0] - other.xi[0], self.xi[1] - other.xi[1])


class EquilibriumList(list):
    """List of equilibria plus analysis notes (e.g. skipped refinements)."""

    def __init__(self, items=(), notes=()):
        super().__init__(items)
        self.notes: list[str] = list(notes)

    def get(self, label: str) -> Equilibrium | None:
        for eq in self:
            if eq.label == label:
                return eq
        return None


class Classification(NamedTuple):
    eigenvalues: tuple[complex, complex]
    kind: str
    p: float      # half the Jacobian trace
    det: float    # Jacobian determinant


def _eig2(j11: float, j12: float, j21: float, j22: float
          ) -> tuple[complex, complex, float, float]:
    p = 0.5 * (j11 + j22)
    det = j11 * j22 - j12 * j21
    disc = p * p - det
    if disc >= 0.0:
        s = math.sqrt(disc)
        return complex(p - s), complex(p + s), p, det
    s = math.sqrt(-disc)
    return complex(p, -s), complex(p, s), p, det


def _kind_from_eigs(lam1: complex, lam2: complex, tol_eig: float) -> str:
    re1, re2 = lam1.real, lam2.real
    if abs(re1) <= tol_eig or abs(re2) <= tol_eig:
        return DEGENERATE
    focus = abs(lam1.imag) > 0.0
    if re1 < 0.0 and re2 < 0.0:
        return ATTRACTOR_FOCUS if focus else ATTRACTOR_NODE
    if re1 > 0.0 and re2 > 0.0:
        return REPELLER_FOCUS if focus else REPELLER_NODE
    return SADDLE


def classify(sys: ReducedSystem, mu, xi, tol: Tolerances = TOL) -> Classification:
    """Eigenvalues and kind at a state xi, by the closed 2x2 formulas."""
    mu = ParamPoint.coerce(mu)
    (j11, j12), (j21, j22) = jacobian_at(sys.at(mu), tuple(xi))
    lam1, lam2, p, det = _eig2(j11, j12, j21, j22)
    kind = _kind_from_eigs(lam1, lam2, tol.tol_eig * mu.norm)
    return Classification((lam1, lam2), kind, p, det)


# ---------------------------------------------------------------------------
# axis quadratics
# ---------------------------------------------------------------------------

def stable_quadratic_roots(a: float, b: float, c: float,
                           quad_floor: float = TOL.quad_floor
                           ) -> tuple[float | None, float | None]:
    """Roots of a x^2 + b x + c = 0 as ((-b+sqrt)/2a, (-b-sqrt)/2a).

    Computed with the numerically stable pairing (large root first, companion
    from the product).  Degenerates to the single linear root when |a| is
    below the floor; returns (None, None) for complex roots.
    """
    if abs(a) <= quad_floor * max(1.0, abs(b)):
        if b == 0.0:
            return None, None
        return -c / b, None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None, None
    s = math.sqrt(disc)
    if b >= 0.0:
        r_minus = (-b - s) / (2.0 * a)
        r_plus = c / (a * r_minus) if r_minus != 0.0 else (-b + s) / (2.0 * a)
    else:
        r_plus = (-b + s) / (2.0 * a)
        r_minus = c / (a * r_plus) if r_plus != 0.0 else (-b - s) / (2.0 * a)
    return r_plus, r_minus


def _axis1_roots(c: Coeffs, tol: Tolerances):
    return stable_quadratic_roots(c.N, c.theta, c.mu1, tol.quad_floor)


def _axis2_roots(c: Coeffs, tol: Tolerances):
    return stable_quadratic_roots(c.P, c.delta, c.mu2, tol.quad_floor)


# ---------------------------------------------------------------------------
# leading-order seeds
# ---------------------------------------------------------------------------

def seed_e3(sys: ReducedSystem, mu: ParamPoint) -> tuple[float, float]:
    """Closed-form leading-order coordinates of the interior equilibrium."""
    c = sys.at(mu)
    m1, m2 = c.mu1, c.mu2
    if sys.degeneracy == NONDEGENERATE:
        den = c.theta * c.delta - 1.0
        return ((-c.delta * m1 + c.gamma * m2) / den,
                (m1 - c.theta * c.gamma * m2) / (c.gamma * den))
    if sys.degeneracy == DELTA_ZERO:
        g, p0 = sys.gamma0, sys.P0
        return (-g * m2 + (sys.delta1 * g - p0) * m1 * m1 / g,
                -m1 / g + sys.theta0 * m2)
    if sys.degeneracy == THETA_ZERO:
        g, n0 = sys.gamma0, sys.N0
        return (sys.delta0 * m1 - g * m2,
                -m1 / g + (sys.theta2 - n0 * g) * m2 * m2)
    raise UnsupportedCase(
        "no interior-equilibrium seed for the DoublyDegenerate class")


def refine_e3(sys: ReducedSystem, mu, seed=None,
              tol: Tolerances = TOL) -> tuple[float, float]:
    """Damped Newton on the bracket system (g1, g2) = (0, 0).

    The bracket Jacobian stays nonsingular through equilibrium collisions,
    so the solve is well conditioned on the bifurcation curves themselves.
    At a ParamArray it solves every point at once and returns arrays.
    """
    if isinstance(mu, ParamArray):
        return _refine_e3_array(sys, mu, seed, tol)
    mu = ParamPoint.coerce(mu)
    c = sys.at(mu)
    x1, x2 = seed_e3(sys, mu) if seed is None else (float(seed[0]), float(seed[1]))
    target = tol.newton_tol * (1.0 + mu.norm)
    ball = 10.0 * (math.hypot(x1, x2) + mu.norm) + 1e-6
    g1 = bracket1(c, x1, x2)
    g2 = bracket2(c, x1, x2)
    res = math.hypot(g1, g2)
    for _ in range(tol.max_iter):
        if res == 0.0:
            return (x1, x2)
        (a, b), (d, e) = bracket_jacobian_at(c, (x1, x2))
        det = a * e - b * d
        if det == 0.0:
            raise NewtonDivergence("singular bracket Jacobian")
        dx1 = -(e * g1 - b * g2) / det
        dx2 = -(-d * g1 + a * g2) / det
        step = 1.0
        improved = False
        for _ in range(12):
            nx1, nx2 = x1 + step * dx1, x2 + step * dx2
            ng1 = bracket1(c, nx1, nx2)
            ng2 = bracket2(c, nx1, nx2)
            nres = math.hypot(ng1, ng2)
            if nres < res:
                improved = True
                break
            step *= 0.5
        if not improved:
            # stagnation: accept if already at the requested tolerance
            # (iterates are polished to roundoff before this happens)
            if res <= target:
                return (x1, x2)
            raise NewtonDivergence(
                f"line search stalled at residual {res:.3e}")
        x1, x2, g1, g2, res = nx1, nx2, ng1, ng2, nres
        if math.hypot(x1, x2) > ball:
            raise NewtonDivergence("iterate left the seed neighborhood")
    if res <= target:
        return (x1, x2)
    raise NewtonDivergence(
        f"no convergence in {tol.max_iter} iterations (residual {res:.3e})")


def _refine_e3_array(sys: ReducedSystem, mu: ParamArray, seed,
                     tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """refine_e3 at many points at once.

    Every point takes the steps and step halvings the scalar solve takes;
    a point leaves the iteration where the scalar solve would return, and
    any point where it would raise makes the whole solve raise.
    """
    c = sys.at(mu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x1, x2 = seed_e3(sys, mu) if seed is None else seed
        target = tol.newton_tol * (1.0 + mu.norm)
        ball = 10.0 * (np.hypot(x1, x2) + mu.norm) + 1e-6
        g1 = bracket1(c, x1, x2)
        g2 = bracket2(c, x1, x2)
        res = np.hypot(g1, g2)
        active = np.ones(res.shape, dtype=bool)
        for _ in range(tol.max_iter):
            active &= res != 0.0
            if not active.any():
                return (x1, x2)
            (a, b), (d, e) = bracket_jacobian_at(c, (x1, x2))
            det = a * e - b * d
            if (active & (det == 0.0)).any():
                raise NewtonDivergence("singular bracket Jacobian")
            dx1 = -(e * g1 - b * g2) / det
            dx2 = -(-d * g1 + a * g2) / det
            nx1, nx2, ng1, ng2, nres = x1, x2, g1, g2, res
            searching = active
            step = 1.0
            for _ in range(12):
                tx1, tx2 = x1 + step * dx1, x2 + step * dx2
                tg1 = bracket1(c, tx1, tx2)
                tg2 = bracket2(c, tx1, tx2)
                tres = np.hypot(tg1, tg2)
                ok = searching & (tres < res)
                nx1, nx2 = np.where(ok, tx1, nx1), np.where(ok, tx2, nx2)
                ng1, ng2 = np.where(ok, tg1, ng1), np.where(ok, tg2, ng2)
                nres = np.where(ok, tres, nres)
                searching = searching & ~ok
                if not searching.any():
                    break
                step *= 0.5
            # stagnation: accepted where already at the requested tolerance
            # (a NaN residual fails, as in the scalar solve)
            if (searching & ~(res <= target)).any():
                worst = float(np.max(res[searching]))
                raise NewtonDivergence(
                    f"line search stalled at residual {worst:.3e}")
            active &= ~searching
            x1, x2, g1, g2, res = nx1, nx2, ng1, ng2, nres
            if (active & (np.hypot(x1, x2) > ball)).any():
                raise NewtonDivergence("iterate left the seed neighborhood")
    if (active & ~(res <= target)).any():
        worst = float(np.max(res[active]))
        raise NewtonDivergence(f"no convergence in {tol.max_iter} iterations "
                               f"(residual {worst:.3e})")
    return (x1, x2)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _make_equilibrium(sys: ReducedSystem, mu: ParamPoint, label: str,
                      xi: tuple[float, float], tol: Tolerances,
                      notes: tuple[str, ...] = ()) -> Equilibrium:
    cls = classify(sys, mu, xi, tol)
    band = tol.tol_proper * mu.norm
    proper = xi[0] >= -band and xi[1] >= -band
    extra = ()
    # an exact 0.0 coordinate is an on-axis point, not a boundary call
    if any(0.0 < abs(v) < band for v in xi):
        extra = ("BoundaryCase: coordinate within the properness band",)
    return Equilibrium(label=label, xi=xi, eigenvalues=cls.eigenvalues,
                       kind=cls.kind, proper=proper,
                       notes=notes + extra)


def find_equilibria(sys: ReducedSystem, mu,
                    tol: Tolerances = TOL) -> EquilibriumList:
    """All labeled equilibria of the reduced system near the origin at mu.

    Virtual (negative-coordinate) equilibria are returned flagged improper;
    colliding pairs are flagged trivial.  A failed interior refinement is
    reported in the notes rather than raised.
    """
    mu = ParamPoint.coerce(mu)
    check_disk(mu, tol.epsilon_disk)
    if sys.degeneracy == DOUBLY_DEGENERATE:
        raise UnsupportedCase(
            "equilibrium labeling is not defined for the DoublyDegenerate class")
    out = EquilibriumList()
    c = sys.at(mu)

    e0 = _make_equilibrium(sys, mu, "E0", (0.0, 0.0), tol)
    out.append(e0)
    if mu.norm == 0.0:
        return out

    # axis roots, labeled per degeneracy class
    r1_plus, r1_minus = _axis1_roots(c, tol)
    r2_plus, r2_minus = _axis2_roots(c, tol)

    def near_root(rp, rm, seed_val):
        cands = [r for r in (rp, rm) if r is not None]
        if not cands:
            return None
        return min(cands, key=lambda r: abs(r - seed_val))

    if sys.degeneracy in (NONDEGENERATE, DELTA_ZERO):
        seed1 = -mu.mu1 / c.theta if c.theta != 0.0 else 0.0
        root = near_root(r1_plus, r1_minus, seed1)
        if root is not None:
            out.append(_make_equilibrium(sys, mu, "E1", (root, 0.0), tol))
    else:  # ThetaZero: both axis roots carry labels
        if r1_plus is not None:
            out.append(_make_equilibrium(sys, mu, "E11", (r1_plus, 0.0), tol))
        if r1_minus is not None:
            out.append(_make_equilibrium(sys, mu, "E12", (r1_minus, 0.0), tol))

    if sys.degeneracy in (NONDEGENERATE, THETA_ZERO):
        seed2 = -mu.mu2 / c.delta if c.delta != 0.0 else 0.0
        root = near_root(r2_plus, r2_minus, seed2)
        if root is not None:
            out.append(_make_equilibrium(sys, mu, "E2", (0.0, root), tol))
    else:  # DeltaZero: both axis roots carry labels
        if r2_plus is not None:
            out.append(_make_equilibrium(sys, mu, "E21", (0.0, r2_plus), tol))
        if r2_minus is not None:
            out.append(_make_equilibrium(sys, mu, "E22", (0.0, r2_minus), tol))

    # interior point
    skip_e3 = (sys.degeneracy == NONDEGENERATE
               and abs(sys.theta0 * sys.delta0 - 1.0) <= tol.hyperbola_tol)
    if skip_e3:
        out.notes.append(
            "DegenerateCase: theta*delta - 1 vanishes; interior refinement skipped")
    else:
        try:
            xi3 = refine_e3(sys, mu, tol=tol)
            out.append(_make_equilibrium(sys, mu, "E3", xi3, tol))
        except NewtonDivergence as exc:
            out.notes.append(f"NewtonDivergence: E3 absent ({exc})")

    _flag_collisions(out, mu, tol)
    return out


def _flag_collisions(eqs: EquilibriumList, mu: ParamPoint, tol: Tolerances) -> None:
    """Mark colliding pairs trivial; reject genuinely ambiguous matchings.

    A root claiming two mutually distinct partners at once cannot be
    attributed to a single collision pair.
    """
    thresh = tol.tol_collide * mu.norm
    partners: dict[int, set[int]] = {}
    for i in range(len(eqs)):
        for j in range(i + 1, len(eqs)):
            if eqs[i].distance(eqs[j]) <= thresh:
                partners.setdefault(i, set()).add(j)
                partners.setdefault(j, set()).add(i)
    for k, others in partners.items():
        if len(others) > 1:
            rest = sorted(others)
            for a in rest:
                for b in rest:
                    if b > a and eqs[a].distance(eqs[b]) > thresh:
                        raise AmbiguousLabel(
                            f"{eqs[k].label} collides with both "
                            f"{eqs[a].label} and {eqs[b].label}, which are "
                            "distinct")
        eqs[k] = replace(eqs[k], trivial=True)


# ---------------------------------------------------------------------------
# characteristic-polynomial cross-checks
# ---------------------------------------------------------------------------

class CharPolyCheck(NamedTuple):
    p_formula: float
    det_formula: float
    p_direct: float
    det_direct: float


def char_poly_identities(sys: ReducedSystem, mu, e3) -> CharPolyCheck:
    """Evaluate the closed-form half-trace and determinant expressions at an
    interior equilibrium and return them next to the direct Jacobian values.

    p = (xi1 theta + xi2 delta)/2 + [xi1 (M xi2 + 2N xi1) + xi2 (2P xi2 + S xi1)]/2
    det = xi1 xi2 (theta delta - 1 + c1 xi1 + c2 xi2 + c3 xi1^2 + c4 xi1 xi2
                   + c5 xi2^2)
    with c1 = 2N delta - M/gamma + S theta - 2R gamma,
         c2 = M delta - S gamma + 2P theta - 2L/gamma,
         c3 = -2(MR - NS), c4 = -4(LR - NP), c5 = -2(LS - MP).

    Both expressions are exact identities at solutions of the bracket system.
    """
    mu = ParamPoint.coerce(mu)
    xi = e3.xi if isinstance(e3, Equilibrium) else (float(e3[0]), float(e3[1]))
    c = sys.at(mu)
    x1, x2 = xi
    p_formula = (0.5 * (x1 * c.theta + x2 * c.delta)
                 + 0.5 * (x1 * (c.M * x2 + 2.0 * c.N * x1)
                          + x2 * (2.0 * c.P * x2 + c.S * x1)))
    c1 = 2.0 * c.N * c.delta - c.M / c.gamma + c.S * c.theta - 2.0 * c.R * c.gamma
    c2 = c.M * c.delta - c.S * c.gamma + 2.0 * c.P * c.theta - 2.0 * c.L / c.gamma
    c3 = -2.0 * (c.M * c.R - c.N * c.S)
    c4 = -4.0 * (c.L * c.R - c.N * c.P)
    c5 = -2.0 * (c.L * c.S - c.M * c.P)
    det_formula = x1 * x2 * (c.theta * c.delta - 1.0 + c1 * x1 + c2 * x2
                             + c3 * x1 * x1 + c4 * x1 * x2 + c5 * x2 * x2)
    (j11, j12), (j21, j22) = jacobian_at(c, xi)
    return CharPolyCheck(p_formula, det_formula,
                         0.5 * (j11 + j22), j11 * j22 - j12 * j21)


__all__ = [
    "SADDLE", "ATTRACTOR_NODE", "ATTRACTOR_FOCUS", "REPELLER_NODE",
    "REPELLER_FOCUS", "DEGENERATE", "LABELS_BY_FAMILY", "sar_letter",
    "Tolerances", "TOL", "Equilibrium", "EquilibriumList", "Classification",
    "classify", "stable_quadratic_roots", "seed_e3", "refine_e3",
    "find_equilibria", "CharPolyCheck", "char_poly_identities",
]
