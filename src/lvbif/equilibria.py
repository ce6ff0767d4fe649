"""Location and eigenvalue classification of all near-origin equilibria.

The origin E0 always exists.  Axis equilibria are exact roots of the on-axis
quadratics

    mu1 + theta(mu) xi1 + N(mu) xi1^2 = 0      (xi1-axis)
    mu2 + delta(mu) xi2 + P(mu) xi2^2 = 0      (xi2-axis)

and the interior point E3 is refined by Newton on the bracket system, polished
while the residual falls, from the closed-form leading-order coordinates of
the active degeneracy class.  Labels follow the class conventions:

    NonDegenerate:  E0, E1, E2, E3
    DeltaZero:      E0, E1, E21, E22, E3
    ThetaZero:      E0, E11, E12, E2, E3

One rule labels the axes of every class, at a point or at an array of
points: a single label (E1, E2) takes the root nearest the seed -mu/theta
or -mu/delta, a label pair takes both roots, the plus root first.
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
    bracket_jacobian_at, check_disk, hypot, jacobian_at)

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
    """The radius of the parameter disk the analysis accepts points in."""

    epsilon_disk: float = EPSILON_DISK


TOL = Tolerances()

# The band tolerances scale with |mu|: the underlying dichotomies are exact
# and the bands only absorb float noise.
TOL_PROPER = 1e-9       # properness band, times |mu|
TOL_COLLIDE = 1e-7      # collision distance, times |mu|
TOL_EIG = 1e-9          # zero band of an eigenvalue's real part, times |mu|


@dataclass(frozen=True)
class Equilibrium:
    label: str
    xi: tuple[float, float]
    eigenvalues: tuple[complex, complex]
    kind: str
    proper: bool
    trivial: bool = False

    def distance(self, other: "Equilibrium") -> float:
        d1, d2 = self.xi[0] - other.xi[0], self.xi[1] - other.xi[1]
        return math.sqrt(d1 * d1 + d2 * d2)


class EquilibriumList(list):
    """List of equilibria plus analysis notes (e.g. skipped refinements)."""

    def __init__(self, items=()):
        super().__init__(items)
        self.notes: list[str] = []

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


def classify(sys: ReducedSystem, mu, xi) -> Classification:
    """Eigenvalues and kind at a state xi, by the closed 2x2 formulas."""
    mu = ParamPoint.coerce(mu)
    return _classify(sys.at(mu), xi, TOL_EIG * mu.norm)


def _classify(c: Coeffs, xi, tol_eig: float) -> Classification:
    (j11, j12), (j21, j22) = jacobian_at(c, tuple(xi))
    lam1, lam2, p, det = _eig2(j11, j12, j21, j22)
    return Classification((lam1, lam2), _kind_from_eigs(lam1, lam2, tol_eig),
                          p, det)


def _letters(c: Coeffs, x1, x2, tol_eig) -> np.ndarray:
    """The s/a/r/d letter of _classify at arrays of states."""
    (j11, j12), (j21, j22) = jacobian_at(c, (x1, x2))
    p = 0.5 * (j11 + j22)
    disc = p * p - (j11 * j22 - j12 * j21)
    real = disc >= 0.0
    s = np.sqrt(np.where(real, disc, -disc))
    re1, re2 = np.where(real, p - s, p), np.where(real, p + s, p)
    return np.select(
        [(np.abs(re1) <= tol_eig) | (np.abs(re2) <= tol_eig),
         (re1 < 0.0) & (re2 < 0.0), (re1 > 0.0) & (re2 > 0.0)],
        ["d", "a", "r"], "s")


# ---------------------------------------------------------------------------
# axis quadratics
# ---------------------------------------------------------------------------

# quadratic coefficient floor on the axes, relative to the linear one
QUAD_FLOOR = 1e-14


def stable_quadratic_roots(a: float, b: float, c: float
                           ) -> tuple[float | None, float | None]:
    """Roots of a x^2 + b x + c = 0 as ((-b+sqrt)/2a, (-b-sqrt)/2a).

    Computed with the numerically stable pairing (large root first, companion
    from the product).  Degenerates to the single linear root when |a| is
    below the floor; returns (None, None) for complex roots.
    """
    if abs(a) <= QUAD_FLOOR * max(1.0, abs(b)):
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


def _quadratic_roots_array(a, b, c):
    """stable_quadratic_roots over arrays: (r_plus, has_plus, r_minus,
    has_minus), with the same branches and the same arithmetic."""
    a, b, c = np.broadcast_arrays(a, b, c)
    linear = np.abs(a) <= QUAD_FLOOR * np.maximum(1.0, np.abs(b))
    disc = b * b - 4.0 * a * c
    s = np.sqrt(disc)
    up = b >= 0.0
    big = np.where(up, -b - s, -b + s) / (2.0 * a)
    small = np.where(big != 0.0, c / (a * big),
                     np.where(up, -b + s, -b - s) / (2.0 * a))
    quad = ~linear & ~(disc < 0.0)
    return (np.where(linear, -c / b, np.where(up, small, big)),
            np.where(linear, b != 0.0, quad),
            np.where(up, big, small), quad)


# ---------------------------------------------------------------------------
# leading-order seeds
# ---------------------------------------------------------------------------

def seed_e3(sys: ReducedSystem, mu: ParamPoint) -> tuple[float, float]:
    """Closed-form leading-order coordinates of the interior equilibrium."""
    return _seed_e3(sys, sys.at(mu))


def _seed_e3(sys: ReducedSystem, c: Coeffs):
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


# the interior Newton solve: its residual target, times (1 + |mu|), and its
# iteration budget
NEWTON_TOL = 1e-13
MAX_ITER = 25


def refine_e3(sys: ReducedSystem, mu, seed=None) -> tuple[float, float]:
    """Newton on the bracket system (g1, g2) = (0, 0), polished while the
    residual falls; it raises if the residual stops falling above target.

    The bracket Jacobian stays nonsingular through equilibrium collisions,
    so the solve is well conditioned on the bifurcation curves themselves.
    At a ParamArray it solves every point at once and returns arrays of
    its shape (a seed then holds two such arrays); it raises if the solve
    fails at any point.
    """
    if isinstance(mu, ParamArray):
        flat = mu.ravel()
        seed = seed if seed is None else (np.ravel(seed[0]), np.ravel(seed[1]))
        x1, x2, ok = _refine_e3_array(sys, sys.at(flat), flat.norm, seed)
        if not ok.all():
            raise NewtonDivergence(f"the interior solve failed at "
                                   f"{np.count_nonzero(~ok)} of {ok.size} points")
        return (x1.reshape(np.shape(mu.mu1)), x2.reshape(np.shape(mu.mu1)))
    mu = ParamPoint.coerce(mu)
    return _refine_e3_point(sys, sys.at(mu), mu.norm, seed)


def _refine_e3_point(sys: ReducedSystem, c: Coeffs, norm: float,
                     seed) -> tuple[float, float]:
    x1, x2 = _seed_e3(sys, c) if seed is None else (float(seed[0]), float(seed[1]))
    ball = 10.0 * (math.sqrt(x1 * x1 + x2 * x2) + norm) + 1e-6
    return _newton_e3(c, x1, x2, bracket1(c, x1, x2), bracket2(c, x1, x2),
                      NEWTON_TOL * (1.0 + norm), ball, MAX_ITER)


def _newton_e3(c: Coeffs, x1: float, x2: float, g1: float, g2: float,
               target: float, ball: float, budget: int) -> tuple[float, float]:
    """The Newton loop from (x1, x2), with brackets (g1, g2), budget steps."""
    res = math.sqrt(g1 * g1 + g2 * g2)
    for _ in range(budget):
        if res == 0.0:
            return (x1, x2)
        (a, b), (d, e) = bracket_jacobian_at(c, (x1, x2))
        det = a * e - b * d
        if det == 0.0:
            raise NewtonDivergence("singular bracket Jacobian")
        nx1 = x1 - (e * g1 - b * g2) / det
        nx2 = x2 - (a * g2 - d * g1) / det
        ng1, ng2 = bracket1(c, nx1, nx2), bracket2(c, nx1, nx2)
        nres = math.sqrt(ng1 * ng1 + ng2 * ng2)
        if not nres < res:
            # the residual stopped falling: roundoff, if at the target
            if res <= target:
                return (x1, x2)
            raise NewtonDivergence(
                f"Newton step did not lower the residual {res:.3e}")
        x1, x2, g1, g2, res = nx1, nx2, ng1, ng2, nres
        if math.sqrt(x1 * x1 + x2 * x2) > ball:
            raise NewtonDivergence("iterate left the seed neighborhood")
    if res <= target:
        return (x1, x2)
    raise NewtonDivergence(
        f"no convergence in {MAX_ITER} iterations (residual {res:.3e})")


# at most this many active points finish in the scalar loop: a numpy round
# costs nearly as much at a few points as at a whole scan circle
SCALAR_FINISH = 4


def _refine_e3_array(sys: ReducedSystem, c: Coeffs, norm: np.ndarray, seed):
    """_refine_e3_point at many points at once: (x1, x2, ok).

    Every point takes the scalar solve's steps, each evaluating the brackets
    once, and ok is False where that solve would raise.  Once SCALAR_FINISH
    or fewer points are active, or the budget is spent, each one finishes
    in the scalar loop with the steps it has left: the same float
    arithmetic, so the same bits.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if seed is None:
            seed = _seed_e3(sys, c)
        x1, x2 = (np.array(v, dtype=float) for v in np.broadcast_arrays(*seed))
        target = NEWTON_TOL * (1.0 + norm)
        ball = 10.0 * (hypot(x1, x2) + norm) + 1e-6
        g1, g2 = bracket1(c, x1, x2), bracket2(c, x1, x2)
        res = hypot(g1, g2)
        ok = res == 0.0
        idx = np.flatnonzero(~ok)   # the active points
        steps = 0
        while idx.size > SCALAR_FINISH and steps < MAX_ITER:
            steps += 1
            # views, not copies, while every point is active
            sel = slice(None) if idx.size == ok.size else idx
            ci = Coeffs(*(f[sel] if isinstance(f, np.ndarray) else f for f in c))
            a1, a2, h1, h2, hres = x1[sel], x2[sel], g1[sel], g2[sel], res[sel]
            (a, b), (d, e) = bracket_jacobian_at(ci, (a1, a2))
            det = a * e - b * d
            n1 = a1 - (e * h1 - b * h2) / det
            n2 = a2 - (a * h2 - d * h1) / det
            m1, m2 = bracket1(ci, n1, n2), bracket2(ci, n1, n2)
            nres = hypot(m1, m2)
            keep = (nres < hres) & (det != 0.0)
            # the residual stopped falling: accepted where already at the
            # target (a NaN residual fails, as in the scalar solve)
            ok[idx[~keep & (det != 0.0) & (hres <= target[sel])]] = True
            idx, n1, n2 = idx[keep], n1[keep], n2[keep]
            x1[idx], x2[idx], g1[idx], g2[idx] = n1, n2, m1[keep], m2[keep]
            res[idx] = nres[keep]
            idx = idx[~(hypot(n1, n2) > ball[idx])]
            zero = res[idx] == 0.0
            ok[idx[zero]] = True
            idx = idx[~zero]
        for k in idx.tolist():
            ck = Coeffs(*(float(f[k]) if isinstance(f, np.ndarray) else f
                          for f in c))
            try:
                x1[k], x2[k] = _newton_e3(ck, *(float(v[k]) for v in (
                    x1, x2, g1, g2, target, ball)), MAX_ITER - steps)
                ok[k] = True
            except NewtonDivergence:
                pass
    return (x1, x2, ok)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _make_equilibrium(c: Coeffs, mu: ParamPoint, label: str,
                      xi: tuple[float, float]) -> Equilibrium:
    cls = _classify(c, xi, TOL_EIG * mu.norm)
    band = TOL_PROPER * mu.norm
    return Equilibrium(label=label, xi=xi, eigenvalues=cls.eigenvalues,
                       kind=cls.kind, proper=xi[0] >= -band and xi[1] >= -band)


def _axis_quadratics(c: Coeffs):
    """Per axis: the label of its single root, the labels of its root pair,
    and the coefficients of its quadratic (x^2, x, 1)."""
    return (("E1", ("E11", "E12"), c.N, c.theta, c.mu1),
            ("E2", ("E21", "E22"), c.P, c.delta, c.mu2))


# |theta*delta - 1| at or below this skips the interior solve
HYPERBOLA_TOL = 1e-9


def _skip_e3(sys: ReducedSystem) -> bool:
    return (sys.degeneracy == NONDEGENERATE
            and abs(sys.theta0 * sys.delta0 - 1.0) <= HYPERBOLA_TOL)


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

    out.append(_make_equilibrium(c, mu, "E0", (0.0, 0.0)))
    if mu.norm == 0.0:
        return out

    labels = LABELS_BY_FAMILY[sys.degeneracy]
    for axis, (single, pair, a, b, m) in enumerate(_axis_quadratics(c)):
        rp, rm = stable_quadratic_roots(a, b, m)
        if single in labels:
            # the root nearest the seed; a tie goes to the plus root
            seed = -m / b if b != 0.0 else 0.0
            cands = [r for r in (rp, rm) if r is not None]
            roots = {single: min(cands, key=lambda r: abs(r - seed))
                     if cands else None}
        else:
            roots = {pair[0]: rp, pair[1]: rm}
        for label, r in roots.items():
            if r is not None:
                xi = (r, 0.0) if axis == 0 else (0.0, r)
                out.append(_make_equilibrium(c, mu, label, xi))

    # interior point
    if _skip_e3(sys):
        out.notes.append(
            "DegenerateCase: theta*delta - 1 vanishes; interior refinement skipped")
    else:
        try:
            xi3 = _refine_e3_point(sys, c, mu.norm, None)
            out.append(_make_equilibrium(c, mu, "E3", xi3))
        except NewtonDivergence as exc:
            out.notes.append(f"NewtonDivergence: E3 absent ({exc})")

    _flag_collisions(out, mu)
    return out


def _flag_collisions(eqs: EquilibriumList, mu: ParamPoint) -> None:
    """Mark colliding pairs trivial; reject genuinely ambiguous matchings.

    A root claiming two mutually distinct partners at once cannot be
    attributed to a single collision pair.
    """
    thresh = TOL_COLLIDE * mu.norm
    partners: dict[int, set[int]] = {}
    for i in range(len(eqs)):
        for j in range(i + 1, len(eqs)):
            if eqs[i].distance(eqs[j]) <= thresh:
                partners.setdefault(i, set()).add(j)
                partners.setdefault(j, set()).add(i)
    for k in sorted(partners):
        if len(partners[k]) > 1:
            rest = sorted(partners[k])
            for a in rest:
                for b in rest:
                    if b > a and eqs[a].distance(eqs[b]) > thresh:
                        raise AmbiguousLabel(
                            f"{eqs[k].label} collides with both "
                            f"{eqs[a].label} and {eqs[b].label}, which are "
                            "distinct")
        eqs[k] = replace(eqs[k], trivial=True)


def _signature_rows(sys: ReducedSystem,
                    mu: ParamArray) -> list[tuple[str, ...]]:
    """The type-signatures at many points at once, one row per point over
    the family's labels: find_equilibria at every point, in the default disk.

    A row holds the s/a/r/d letter of a label where find_equilibria lists
    it proper and not colliding, and "-" elsewhere; it raises what
    find_equilibria raises at any of the points.  It works on one
    (label x point) table, the labels in family order.
    """
    norm = mu.norm
    if not (norm < EPSILON_DISK).all():
        k = np.argmin(norm < EPSILON_DISK)
        check_disk(ParamPoint(float(mu.mu1[k]), float(mu.mu2[k])))
    if sys.degeneracy == DOUBLY_DEGENERATE:
        raise UnsupportedCase(
            "equilibrium labeling is not defined for the DoublyDegenerate class")
    c = sys.at(mu)
    labels = LABELS_BY_FAMILY[sys.degeneracy]
    zero = np.zeros(norm.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        found = [(np.ones(norm.shape, dtype=bool), zero, zero)]   # E0
        for axis, (single, _, a, b, m) in enumerate(_axis_quadratics(c)):
            rp, has_p, rm, has_m = _quadratic_roots_array(a, b, m)
            if single in labels:
                # the root nearest the seed; a tie goes to the plus root
                seed = np.where(b != 0.0, -m / b, 0.0)
                minus = has_m & (~has_p | (np.abs(rm - seed) < np.abs(rp - seed)))
                roots = [(has_p | has_m, np.where(minus, rm, rp))]
            else:
                roots = [(has_p, rp), (has_m, rm)]
            found += [(has, r, zero) if axis == 0 else (has, zero, r)
                      for has, r in roots]
        if _skip_e3(sys):
            found.append((np.zeros(norm.shape, dtype=bool), zero, zero))
        else:
            x1, x2, ok = _refine_e3_array(sys, c, norm, None)
            found.append((ok, x1, x2))
        has, x1, x2 = (np.stack(v) for v in zip(*found))
        has[1:] &= norm != 0.0   # at mu = 0 only E0 exists

        thresh = TOL_COLLIDE * norm
        # distances label to label; NaN on the diagonal compares false
        i, j = np.triu_indices(len(labels), 1)
        dist = np.full((len(labels),) + has.shape, np.nan)
        dist[i, j] = dist[j, i] = hypot(x1[i] - x1[j], x2[i] - x2[j])
        close = has[:, None] & has & (dist <= thresh)
        if (close.sum(axis=1) > 1).any():
            # (k, a, b, point) where k is close to both a and b, which are
            # distinct: the first in C order has a < b
            amb = np.argwhere(close[:, :, None] & close[:, None]
                              & (dist > thresh))
            if amb.size:
                k, a, b, p = amb[0]
                raise AmbiguousLabel(
                    f"{labels[k]} collides with both {labels[a]} and "
                    f"{labels[b]}, which are distinct (at point {p})")
        band = TOL_PROPER * norm
        shown = (has & (x1 >= -band) & (x2 >= -band) & ~close.any(axis=1))
        table = np.where(shown, _letters(c, x1, x2, TOL_EIG * norm), "-")
    return list(zip(*table.tolist()))


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
