"""Parameter-plane region decomposition and type-table verification.

A small circle |mu| = r is cut into open angular sectors by the intersection
angles of the admissible bifurcation curves (the four semi-axes always
contribute; the half-trace curve never does, since equilibrium types do not
change across it).  Each sector receives a representative point and a
type-signature; neighbouring sectors with identical signatures are merged,
so curves that only move virtual equilibria never show up as boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import bifurcation as bif
from .cases import CANONICAL_BY_FAMILY
from .equilibria import (LABELS_BY_FAMILY, _signature_rows, _skip_e3,
                         find_equilibria, sar_letter)
from .errors import OnCurve, SectorTooThin, UnsupportedCase
from .model import (CLASS_TOL, DELTA_ZERO, DOUBLY_DEGENERATE, EPSILON_DISK,
                    NONDEGENERATE, THETA_ZERO, ParamArray, ParamPoint,
                    ReducedSystem)
from .reference import EXPECTED_SIGNATURES, ROW_DISPLAY, expected_column

TWO_PI = 2.0 * math.pi

# angular separation required between a representative and its boundaries,
# per unit radius
SEP_TOL = 1e-3


@dataclass(frozen=True)
class CaseDescriptor:
    family: str
    signs: tuple[tuple[str, int], ...]
    table_supported: bool = True
    notes: tuple[str, ...] = ()


@dataclass
class RegionReport:
    sector_id: int
    angles: tuple[float, float]            # open interval on the circle
    representative: ParamPoint
    signature: tuple[str, ...]
    bounding: tuple[str, str]              # curve kinds left/right
    radius: float                          # of the circle it was cut on


def _sign_of(name: str, value: float) -> tuple[str, int]:
    """(name, sign of value); a value within CLASS_TOL of zero is a
    vanishing case quantity."""
    if not abs(value) > CLASS_TOL:
        raise UnsupportedCase(f"{name} vanishes")
    return name, 1 if value > 0.0 else -1


# names of the DeltaZero case quantities theta, delta1, delta2, P,
# gamma*delta1-P, gamma*delta1-2P, and of their mirror images
_CASE_NAMES = {
    DELTA_ZERO: ("theta", "delta1", "delta2", "P",
                 "gamma*delta1-P", "gamma*delta1-2P"),
    THETA_ZERO: ("delta", "theta2", "theta1", "N",
                 "theta2-N*gamma", "theta2-2N*gamma"),
}


def select_case(sys: ReducedSystem) -> CaseDescriptor:
    """Sign tuple of the case cell the system falls into.

    Raises UnsupportedCase for the doubly degenerate class and for a
    vanishing case-splitting quantity.  Degenerate-class systems whose axis
    quadratic has the sign the tables do not cover are noted, not fatal.
    """
    fam = sys.degeneracy
    if fam == DOUBLY_DEGENERATE:
        raise UnsupportedCase(
            "theta(0) = delta(0) = 0 is outside the analyzed cases")
    if fam == NONDEGENERATE:
        if _skip_e3(sys):
            raise UnsupportedCase("theta*delta - 1 vanishes")
        th, de = sys.theta0, sys.delta0
        return CaseDescriptor(fam, tuple(map(
            _sign_of, ("theta", "delta", "theta*delta-1"),
            (th, de, th * de - 1.0))))
    # ThetaZero is read as the DeltaZero case of its mirror; gamma > 0, so
    # gamma*delta1-P of the mirror has the sign of theta2-N*gamma
    th, d1, d2, P0, g = bif.fold_scalars(sys)
    names = _CASE_NAMES[fam]
    signs = tuple(map(_sign_of, names, (th, d1, d2, P0,
                                        g * d1 - P0, g * d1 - 2.0 * P0)))
    # delta2 and P only have to be nonzero; the other four signs pick the
    # case, and P's sign decides whether the tables cover it
    supported = P0 > 0.0
    notes = () if supported else (
        f"table verification limited to {names[3]}>0",)
    return CaseDescriptor(fam, signs[:2] + signs[4:], supported, notes)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def signature_at(sys: ReducedSystem, mu) -> tuple[str, ...]:
    """Type-signature over the family's labels at a parameter point.

    At a ParamArray it returns the list of signatures, one per point in C
    order.
    """
    if isinstance(mu, ParamArray):
        return _signature_rows(sys, mu.ravel())
    eqs = find_equilibria(sys, mu)
    return tuple("-" if eq is None or not eq.proper or eq.trivial
                 else sar_letter(eq.kind)
                 for eq in map(eqs.get, LABELS_BY_FAMILY[sys.degeneracy]))


def boundary_candidates(sys: ReducedSystem,
                        r: float) -> list[tuple[float, str]]:
    """Sorted (angle, kind) pairs of all admissible curves on |mu| = r.

    Every zero of a curve's residual counts, on both of its half-lines:
    decompose merges the cuts that only move virtual equilibria, and no
    sector representative can sit on such a zero, where equilibria collide.
    The zeros come from bif.circle_zeros, which each kind's trace reuses;
    a failure of the circle's E3 solve is re-raised.
    """
    zeros, failure = bif.circle_zeros(sys, r)
    if failure is not None:
        raise failure.with_traceback(None)
    out = sorted((p.angle, kind) for p, kind in zeros if kind != bif.H)
    dedup: list[tuple[float, str]] = []
    for ang, kind in out:
        if dedup and abs(ang - dedup[-1][0]) < 1e-9:
            continue
        dedup.append((ang, kind))
    # wrap-around duplicate
    if len(dedup) > 1 and abs(dedup[0][0] + TWO_PI - dedup[-1][0]) < 1e-9:
        dedup.pop()
    return dedup


def decompose(sys: ReducedSystem, case: CaseDescriptor | None,
              r: float) -> list[RegionReport]:
    """Cut the circle |mu| = r into sectors of constant type-signature.

    The system's case is checked by select_case, whatever case is passed:
    it raises UnsupportedCase outside the analyzed cases.  When two
    boundary angles nearly coincide at this radius the decomposition is
    retried at a quarter of the radius, again and again while the radius
    stays at or above 1e-4; the sector structure itself is radius-stable.
    A retry rescues only a thin sector between two straight curves (T1 or
    T2 and an axis, say), whose angular width is fixed while the required
    separation SEP_TOL * r shrinks; a parabola's angle to its axis shrinks
    with r just as fast.
    """
    select_case(sys)
    if not (1e-4 <= r < EPSILON_DISK):
        raise ValueError(
            f"radius {r!r} outside [1e-4, epsilon_disk={EPSILON_DISK!r})")
    while True:
        try:
            return _decompose_at(sys, r)
        except SectorTooThin:
            r /= 4.0    # exact, so r/4/4 is r/16 to the bit
            if r < 1e-4:
                raise


def _decompose_at(sys: ReducedSystem, r: float) -> list[RegionReport]:
    # the four semi-axes always cut the circle, at least 1e-9 rad apart
    bounds = boundary_candidates(sys, r)
    sep = SEP_TOL * r
    m = len(bounds)

    def probe(k: int) -> RegionReport:
        lo_ang, lo_kind = bounds[k]
        hi_ang, hi_kind = bounds[(k + 1) % m]
        width = (hi_ang - lo_ang) % TWO_PI or TWO_PI
        mid = (lo_ang + 0.5 * width) % TWO_PI
        if 0.5 * width <= sep:
            raise SectorTooThin(
                f"sector ({lo_ang!r}, {hi_ang!r}) thinner than 2*sep_tol")
        rep = ParamPoint.from_polar(r, mid)
        return RegionReport(sector_id=k, angles=(lo_ang, hi_ang),
                            representative=rep,
                            signature=signature_at(sys, rep),
                            bounding=(lo_kind, hi_kind), radius=r)

    def join(a: RegionReport, b: RegionReport) -> RegionReport:
        return replace(a, angles=(a.angles[0], b.angles[1]),
                       bounding=(a.bounding[0], b.bounding[1]))

    # merge neighbouring sectors with identical signatures: the separating
    # curve moves only virtual equilibria at this radius.  A merged sector
    # keeps the representative of its first part.
    sectors: list[RegionReport] = []
    for s in map(probe, range(m)):
        if sectors and sectors[-1].signature == s.signature:
            sectors[-1] = join(sectors[-1], s)
        else:
            sectors.append(s)
    if len(sectors) > 1 and sectors[-1].signature == sectors[0].signature:
        sectors[0] = join(sectors.pop(), sectors[0])
    sectors.sort(key=lambda s: s.angles[0])
    for i, s in enumerate(sectors):
        s.sector_id = i
    return sectors


def region_membership(sys: ReducedSystem, mu) -> RegionReport:
    """The sector of the decomposition at radius |mu| containing mu.

    Raises OnCurve when mu is within the angular separation tolerance of a
    sector boundary (including the origin, where every curve meets), and
    SectorTooThin when decompose cut its sectors on a smaller circle, whose
    boundary angles are not those at |mu|.
    """
    mu = ParamPoint.coerce(mu)
    if mu.norm == 0.0:
        raise OnCurve("all bifurcation curves pass through mu = 0")
    sectors = decompose(sys, None, mu.norm)
    if sectors[0].radius != mu.norm:
        raise SectorTooThin(
            f"sectors cut at r = {sectors[0].radius!r}, not at |mu| = "
            f"{mu.norm!r}")
    ang = mu.angle
    sep = SEP_TOL * mu.norm
    for s in sectors:
        lo, hi = s.angles
        width = (hi - lo) % TWO_PI or TWO_PI
        off = (ang - lo) % TWO_PI
        if off >= width:
            continue  # not in this sector's angular span
        if off <= sep or width - off <= sep:
            edge = s.bounding[0] if off <= sep else s.bounding[1]
            raise OnCurve(f"mu lies within sep_tol of the {edge} boundary")
        return replace(s, representative=mu,
                       signature=signature_at(sys, mu))
    raise OnCurve("mu does not fall strictly inside any sector")


# ---------------------------------------------------------------------------
# table verification
# ---------------------------------------------------------------------------

@dataclass
class DiagramReport:
    case_id: str
    system: ReducedSystem
    descriptor: CaseDescriptor
    sectors: list[RegionReport]


@dataclass
class FamilyVerification:
    family: str
    radius: float
    diagrams: list[DiagramReport]
    distinct: list[tuple[str, ...]] = field(default_factory=list)
    matched: list[tuple[str, ...]] = field(default_factory=list)
    unmatched_computed: list[tuple[str, ...]] = field(default_factory=list)
    unmatched_expected: list[tuple[str, ...]] = field(default_factory=list)
    duplicates: dict = field(default_factory=dict)

    @property
    def total_regions(self) -> int:
        return len(self.distinct)

    @property
    def success(self) -> bool:
        return not self.unmatched_computed and not self.unmatched_expected

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "radius": self.radius,
            "total_regions": self.total_regions,
            "expected_regions": len(EXPECTED_SIGNATURES[self.family]),
            "success": self.success,
            "matched_columns": sorted(
                expected_column(self.family, s) for s in self.matched),
            "unmatched_computed": ["".join(s) for s in self.unmatched_computed],
            "unmatched_expected": ["".join(s) for s in self.unmatched_expected],
            "diagrams": [
                {
                    "case": d.case_id,
                    "signs": dict(d.descriptor.signs),
                    "sectors": [
                        {
                            "angles": list(s.angles),
                            "representative": [s.representative.mu1,
                                               s.representative.mu2],
                            "signature": "".join(s.signature),
                            "column": expected_column(self.family, s.signature),
                            "bounding": list(s.bounding),
                        }
                        for s in d.sectors
                    ],
                }
                for d in self.diagrams
            ],
            "shared_signatures": {
                "".join(k): v for k, v in sorted(self.duplicates.items())
            },
        }

    def render_text(self) -> str:
        """Human-readable table mirroring the reference layout."""
        labels = ROW_DISPLAY[self.family]
        cols = []
        for sig in EXPECTED_SIGNATURES[self.family]:
            mark = "ok" if sig in self.matched else "MISSING"
            cols.append((expected_column(self.family, sig), sig, mark))
        lines = [f"family {self.family}  r={self.radius:g}  "
                 f"regions={self.total_regions} "
                 f"(expected {len(EXPECTED_SIGNATURES[self.family])})"]
        head = "      " + " ".join(f"{c[0]:>3d}" for c in cols)
        lines.append(head)
        for i, lab in enumerate(labels):
            row = " ".join(f"{c[1][i]:>3s}" for c in cols)
            lines.append(f"{lab:<5s} " + row)
        lines.append("      " + " ".join(
            f"{'ok' if c[2] == 'ok' else 'NO':>3s}" for c in cols))
        if self.unmatched_computed:
            lines.append("unexpected signatures: "
                         + ", ".join("".join(s) for s in self.unmatched_computed))
        return "\n".join(lines)


def verify_tables(family: str, r: float = 1e-3,
                  cases=None) -> FamilyVerification:
    """Enumerate every canonical diagram of a family and compare the set of
    distinct sector signatures against the family's reference table."""
    if family not in CANONICAL_BY_FAMILY:
        raise UnsupportedCase(f"unknown family {family!r}")
    if cases is None:
        cases = CANONICAL_BY_FAMILY[family]
    diagrams: list[DiagramReport] = []
    seen: dict[tuple[str, ...], list[str]] = {}
    for case_id, sys_ in cases:
        desc = select_case(sys_)
        if not desc.table_supported:
            raise UnsupportedCase(
                f"case {case_id}: {'; '.join(desc.notes)}")
        sectors = decompose(sys_, desc, r)
        diagrams.append(DiagramReport(case_id, sys_, desc, sectors))
        for s in sectors:
            seen.setdefault(s.signature, []).append(case_id)
    distinct = sorted(seen)
    expected = set(EXPECTED_SIGNATURES[family])
    matched = [s for s in distinct if s in expected]
    report = FamilyVerification(
        family=family, radius=r, diagrams=diagrams, distinct=distinct,
        matched=matched,
        unmatched_computed=[s for s in distinct if s not in expected],
        unmatched_expected=sorted(expected.difference(distinct)),
        duplicates={s: ids for s, ids in seen.items() if len(ids) > 1})
    return report
