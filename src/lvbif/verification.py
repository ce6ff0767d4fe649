"""Combined genericity (saddle-node / transcritical) verification suite.

Runs the Sotomayor quantity checks over curve samples of dedicated fixtures
whose first-order coefficients satisfy every hypothesis (the canonical
table fixtures keep gamma constant, which intentionally violates the
transcritical hypothesis, so the suite carries its own systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bifurcation as bif
from .cases import CANONICAL_NONDEGENERATE, deltazero_case
from .equilibria import find_equilibria
from .errors import CollisionMismatch, LVError
from .model import DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ReducedSystem
from .poly import linear_poly

# the pinned coordinate of the curve points the degenerate families check
COORD = 1e-3


def sotomayor_fixture(family: str, branch: str = "a") -> ReducedSystem:
    """A system satisfying every saddle-node and transcritical hypothesis.

    branch "a" gives the collision with the larger axis root, "b" with the
    smaller one.
    """
    if family == DELTA_ZERO:
        d1 = 1.5 if branch == "a" else 3.0   # gamma*d1-2P < 0 vs > 0
        return deltazero_case(1.0, d1, P=1.0, gamma=linear_poly(1.0, 0.5, 1.0),
                              delta2=1.0)
    if family == THETA_ZERO:
        t2 = 1.5 if branch == "a" else 3.0   # theta2-2N*gamma < 0 vs > 0
        return ReducedSystem.from_coeffs(
            delta=1.0,
            gamma=linear_poly(1.0, 1.0, 0.5),
            theta=linear_poly(0.0, 1.0, t2),
            N=1.0, M=0.1, P=0.1, L=0.1, S=0.1, R=0.1)
    raise ValueError(f"no genericity fixture for family {family!r}")


@dataclass
class SuiteResult:
    family: str
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return not self.failures

    def check(self, ok: bool, text: str) -> None:
        mark = "ok " if ok else "FAIL"
        self.lines.append(f"  [{mark}] {text}")
        if not ok:
            self.failures.append(text)

    def as_dict(self) -> dict:
        return {"family": self.family, "success": self.success,
                "checks": self.lines, "failures": self.failures}


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _saddle_node_checks(res: SuiteResult, sys_: ReducedSystem) -> None:
    if sys_.degeneracy == DELTA_ZERO:
        kinds = ((bif.D_NEG, -COORD), (bif.D_POS, +COORD))
    else:
        kinds = ((bif.D_POS, +COORD), (bif.D_NEG, -COORD))
    for kind, c in kinds:
        mu0 = bif.parabola_point(sys_, kind, c)
        rep = bif.sotomayor_saddle_node(sys_, mu0)
        res.check(rep.verdict == "SaddleNode",
                  f"{kind} at coord {c:+.1e}: verdict {rep.verdict}")
        res.check(_within(rep.C1, rep.predicted["C1"], 0.05),
                  f"{kind}: C1 {rep.C1:.6e} vs {rep.predicted['C1']:.6e}")
        res.check(_within(rep.C3, rep.predicted["C3"], 0.05),
                  f"{kind}: C3 {rep.C3:.6e} vs {rep.predicted['C3']:.6e}")


def _transcritical_checks(res: SuiteResult, sys_: ReducedSystem) -> None:
    kind = bif.T3 if sys_.degeneracy == DELTA_ZERO else bif.T4
    coord = -COORD
    mu0 = bif.parabola_point(sys_, kind, coord)
    rep = bif.sotomayor_transcritical(sys_, mu0)
    res.check(rep.verdict == "Transcritical",
              f"{kind} at coord {coord:+.1e}: verdict {rep.verdict}")
    res.check(abs(rep.C1) < 1e-9 * abs(rep.C2),
              f"{kind}: |C1| {abs(rep.C1):.3e} < 1e-9 |C2|")
    res.check(_within(rep.C2, rep.predicted["C2"], 0.05),
              f"{kind}: C2 {rep.C2:.6e} vs {rep.predicted['C2']:.6e}")
    res.check(_within(rep.C3, rep.predicted["C3"], 0.05),
              f"{kind}: C3 {rep.C3:.6e} vs {rep.predicted['C3']:.6e}")
    curve = bif.BifurcationCurve(kind=kind, halfline="", samples=[mu0],
                                 residuals=[0.0])
    try:
        records = bif.collision_check(sys_, curve)
        rec = records[0]
        res.check(abs(rec.vanishing_eig) < 1e-9 * mu0.norm,
                  f"{kind}: vanishing eigenvalue of {rec.vanishing} "
                  f"({rec.vanishing_eig:.3e})")
        if rec.companion_kind is not None:
            # the smaller axis root is the attracting companion
            want = "attractor" if rec.companion in ("E22", "E12") else "repeller"
            res.check(rec.companion_kind.startswith(want),
                      f"{kind}: companion {rec.companion} is {rec.companion_kind}")
    except CollisionMismatch as exc:
        res.check(False, f"{kind}: collision check ({exc})")


def _generic_transcritical_checks(res: SuiteResult, sys_: ReducedSystem) -> None:
    """Sign-pattern check on the interior/axis collision lines (no closed-form
    magnitudes are predicted for them, only the transcritical pattern)."""
    for kind in (bif.T1, bif.T2):
        try:
            curve = bif.trace_curve(sys_, kind, [1e-3])
        except LVError as exc:
            res.check(False, f"{kind}: trace failed ({exc})")
            continue
        if curve.empty:
            res.check(False, f"{kind}: no curve point on |mu| = 1e-3")
            continue
        mu0 = curve.samples[0]
        eqs = find_equilibria(sys_, mu0)
        axis_label = bif.expected_collision_pair(sys_, kind)[0]
        eq = eqs.get(axis_label)
        if eq is None:
            res.check(False, f"{kind}: axis point {axis_label} missing")
            continue
        param = 1 if kind == bif.T1 else 0
        v, w, c1, c2, c3 = bif.sotomayor_quantities(sys_, mu0, eq.xi, param)
        ok = abs(c1) < 1e-6 * max(abs(c2), 1e-300) and c2 != 0.0 and c3 != 0.0
        res.check(ok, f"{kind}: transcritical pattern C1~0, C2, C3 nonzero "
                      f"({c1:.2e}, {c2:.2e}, {c3:.2e})")


def sotomayor_suite(family: str) -> SuiteResult:
    """Run the genericity suite of one family and collect pass/fail lines."""
    res = SuiteResult(family=family)
    res.lines.append(f"genericity suite ({family}):")
    if family == NONDEGENERATE:
        for case_id, sys_ in CANONICAL_NONDEGENERATE[:2]:
            _generic_transcritical_checks(res, sys_)
        return res
    for branch in ("a", "b"):
        sys_ = sotomayor_fixture(family, branch)
        _saddle_node_checks(res, sys_)
        _transcritical_checks(res, sys_)
    return res
