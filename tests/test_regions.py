import math
import re

import numpy as np
import pytest

from lvbif.cases import (CANONICAL_BY_FAMILY, CANONICAL_NONDEGENERATE,
                         deltazero_case, nondegenerate_case, thetazero_case)
import lvbif.equilibria as equilibria
from lvbif.equilibria import find_equilibria
from lvbif.errors import (AmbiguousLabel, DiskError, OnCurve, SectorTooThin,
                          UnsupportedCase)
from lvbif.model import (DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ParamArray,
                         ParamPoint, ReducedSystem)
from lvbif.oracle import cross_check
from lvbif.poly import linear_poly
from lvbif.reference import EXPECTED_SIGNATURES, expected_column
import lvbif.regions as rg
from lvbif.regions import (decompose, region_membership, select_case,
                           signature_at, verify_tables)


# -- case selection -----------------------------------------------------------

def test_select_case_nondegenerate_signs():
    desc = select_case(nondegenerate_case(2.0, 1.0))
    assert dict(desc.signs) == {"theta": 1, "delta": 1, "theta*delta-1": 1}
    desc = select_case(nondegenerate_case(-2.0, 1.0))
    assert dict(desc.signs) == {"theta": -1, "delta": 1, "theta*delta-1": -1}


def test_select_case_rejects_unit_hyperbola():
    with pytest.raises(UnsupportedCase):
        select_case(nondegenerate_case(1.0, 1.0))


@pytest.mark.parametrize("sys_, name", [
    (deltazero_case(1.0, 1.0), "gamma*delta1-P"),
    (deltazero_case(1.0, 2.0), "gamma*delta1-2P"),
    (deltazero_case(1.0, 1e-13), "delta1"),
    (thetazero_case(1.0, 1.0), "theta2-N*gamma"),
])
def test_select_case_rejects_vanishing_case_quantities(sys_, name):
    # each quantity lies within CLASS_TOL of zero: its sign splits no case
    with pytest.raises(UnsupportedCase, match=re.escape(f"{name} vanishes")):
        select_case(sys_)


def test_select_case_deltazero_p_negative_note():
    desc = select_case(deltazero_case(1.0, 1.5, P=-1.0))
    assert not desc.table_supported
    assert any("P>0" in n for n in desc.notes)


def test_select_case_thetazero_n_negative_note():
    desc = select_case(thetazero_case(1.0, 1.5, N=-1.0))
    assert not desc.table_supported
    assert any("N>0" in n for n in desc.notes)


def test_select_case_doubly_degenerate():
    sys_ = ReducedSystem.from_coeffs(theta=0.0, delta=0.0, gamma=1.0)
    with pytest.raises(UnsupportedCase):
        select_case(sys_)


# -- decomposition ------------------------------------------------------------

def test_decompose_attractor_case_first_quadrant_sector():
    # the sector containing the diagonal direction carries the full
    # coexistence signature: both axis points proper saddles, interior
    # attractor (the type table's column 20)
    sys_ = nondegenerate_case(-2.0, -1.0)
    sectors = decompose(sys_, None, 1e-3)
    diag = ParamPoint.from_polar(1e-3, math.radians(45))
    sig = signature_at(sys_, diag)
    assert sig == ("r", "s", "s", "a")
    assert expected_column(NONDEGENERATE, sig) == 20
    hit = [s for s in sectors if s.angles[0] < math.radians(45) < s.angles[1]]
    assert len(hit) == 1 and hit[0].signature == sig


def test_decompose_repeller_only_sector():
    sys_ = nondegenerate_case(1.0, 2.0)
    sig = signature_at(sys_, ParamPoint.from_polar(1e-3, math.radians(45)))
    assert sig == ("r", "-", "-", "-")
    assert expected_column(NONDEGENERATE, sig) == 1


def test_decompose_sector_and_boundary_counts():
    for fam, cases in CANONICAL_BY_FAMILY.items():
        for cid, sys_ in cases:
            sectors = decompose(sys_, None, 1e-3)
            expected = {NONDEGENERATE: 6, DELTA_ZERO: 7, THETA_ZERO: 7}[fam]
            assert len(sectors) == expected, (fam, cid)
            # circle topology: as many sectors as boundary angles
            starts = [s.angles[0] for s in sectors]
            assert len(set(starts)) == len(sectors)


def test_sector_constancy(rng):
    sys_ = deltazero_case(1.0, 1.5)
    sectors = decompose(sys_, None, 1e-3)
    for s in sectors:
        lo, hi = s.angles
        width = (hi - lo) % (2.0 * math.pi)
        for _ in range(5):
            # stay off the boundaries by a tenth of the width
            phi = lo + width * rng.uniform(0.1, 0.9)
            sig = signature_at(sys_, ParamPoint.from_polar(1e-3, phi))
            assert sig == s.signature


def test_radius_stability():
    for fam, cases in CANONICAL_BY_FAMILY.items():
        for cid, sys_ in cases:
            a = [s.signature for s in decompose(sys_, None, 1e-3)]
            b = [s.signature for s in decompose(sys_, None, 1e-4)]
            assert a == b, (fam, cid)


def test_interior_saddle_whenever_below_unit_hyperbola():
    for cid, sys_ in CANONICAL_NONDEGENERATE:
        if sys_.theta0 * sys_.delta0 - 1.0 >= 0.0:
            continue
        for s in decompose(sys_, None, 1e-3):
            k = s.signature[3]
            assert k in ("-", "s"), (cid, s.signature)


# -- region membership ---------------------------------------------------------

def test_region_membership_matches_decompose():
    sys_ = nondegenerate_case(-2.0, -1.0)
    mu = ParamPoint(1e-3 / math.sqrt(2.0), 1e-3 / math.sqrt(2.0))
    report = region_membership(sys_, mu)
    assert report.signature == ("r", "s", "s", "a")
    # every sector representative must map back to its own sector
    for s in decompose(sys_, None, 1e-3):
        back = region_membership(sys_, s.representative)
        assert back.sector_id == s.sector_id
        assert back.signature == s.signature


def test_region_membership_on_curve_raises():
    sys_ = nondegenerate_case(-2.0, -1.0)
    with pytest.raises(OnCurve):
        region_membership(sys_, (0.0, 0.0))
    # T1 for theta=-2: mu2 = mu1/(theta*gamma) at mu1 > 0
    from lvbif import bifurcation as bif
    t1 = bif.trace_curve(sys_, bif.T1, [1e-3]).samples[0]
    with pytest.raises(OnCurve):
        region_membership(sys_, t1)
    with pytest.raises(OnCurve):
        region_membership(sys_, (1e-3, 0.0))
    # decompose cuts this system's sectors at r = 2.5e-4, where the T2 cut
    # lies short of the T2 zero on |mu| = 1e-3: neither that zero nor the
    # midpoint of the two T2 angles may be placed among those sectors
    sys_ = nondegenerate_case(1e6, 0.3)
    t2 = bif.trace_curve(sys_, bif.T2, [1e-3]).samples[0]
    cut, = (s.angles[0] for s in decompose(sys_, None, 1e-3)
            if s.bounding[0] == bif.T2)
    assert cut < t2.angle
    mid = ParamPoint.from_polar(1e-3, 0.5 * (cut + t2.angle))
    for mu in (t2, mid):
        with pytest.raises(SectorTooThin,
                           match=r"r = 0\.00025, not at \|mu\| = 0\.001"):
            region_membership(sys_, mu)


# -- table verification ---------------------------------------------------------

# the paper's region counts per family
PAPER_REGIONS = {NONDEGENERATE: 30, DELTA_ZERO: 20, THETA_ZERO: 20}


def test_reference_tables_hold_the_papers_counts_without_repeats():
    # success reads the count off the tables: no repeat may shorten one
    for fam, count in PAPER_REGIONS.items():
        sigs = EXPECTED_SIGNATURES[fam]
        assert len(sigs) == len(set(sigs)) == count, fam
    assert len(EXPECTED_SIGNATURES) == len(PAPER_REGIONS)


def test_verify_tables_all_families():
    for fam in (NONDEGENERATE, DELTA_ZERO, THETA_ZERO):
        report = verify_tables(fam, r=1e-3)
        assert report.success, (fam, report.unmatched_computed,
                                report.unmatched_expected)
        assert report.total_regions == PAPER_REGIONS[fam]
        assert not report.unmatched_computed
        assert not report.unmatched_expected


def test_verify_tables_reports_shared_signatures():
    report = verify_tables(NONDEGENERATE, r=1e-3)
    # the six diagrams share some regions (the totals collapse 36 raw
    # sectors to 30 distinct signatures)
    assert report.duplicates
    raw_total = sum(len(d.sectors) for d in report.diagrams)
    assert raw_total == 36


def test_verify_tables_negative_control():
    # corrupting one case (flipped theta sign vs its cell) must be caught
    cases = list(CANONICAL_BY_FAMILY[NONDEGENERATE])
    cases[3] = ("IV", nondegenerate_case(2.0, -1.0))  # theta flipped
    report = verify_tables(NONDEGENERATE, r=1e-3, cases=cases)
    assert not report.success
    assert report.unmatched_expected


def test_verify_tables_render_and_dict():
    report = verify_tables(DELTA_ZERO, r=1e-3)
    text = report.render_text()
    assert "family DeltaZero" in text
    assert "MISSING" not in text
    d = report.as_dict()
    assert d["success"] is True
    assert d["total_regions"] == 20
    assert len(d["diagrams"]) == 8


def test_verify_tables_rejects_unsupported_fixture():
    cases = [("bad", deltazero_case(1.0, 1.5, P=-1.0))]
    with pytest.raises(UnsupportedCase):
        verify_tables(DELTA_ZERO, r=1e-3, cases=cases)


# -- theorem spot checks ---------------------------------------------------------

def test_axis_pair_types_match_region_theorems():
    # gamma*d1 - P > 0, gamma*d1 - 2P < 0: the larger root is a repeller in
    # the lower half plane and in the slice below the interior collision
    # parabola, a saddle above it; the smaller root attracts wherever real
    sys_ = deltazero_case(1.0, 1.5)
    sigs = {s.signature for s in decompose(sys_, None, 1e-3)}
    assert ("s", "r", "s", "a", "-") in sigs     # above T3 (R20+)
    assert ("s", "r", "r", "a", "s") in sigs     # below T3 (R20-)
    assert ("a", "r", "r", "-", "s") in sigs     # lower half (R10)
    # gamma*d1 - P < 0 with d1 > 0: larger root is a saddle between the
    # axis and the (now lower) interior parabola, a repeller beyond it
    sys_ = deltazero_case(1.0, 0.5)
    sigs = {s.signature for s in decompose(sys_, None, 1e-3)}
    assert ("a", "r", "s", "-", "-") in sigs     # R10+ sliver
    assert ("a", "r", "r", "-", "s") in sigs     # R10-


def test_thetazero_mirror_region_theorems():
    sys_ = thetazero_case(1.0, 1.5)
    sigs = {s.signature for s in decompose(sys_, None, 1e-3)}
    assert ("s", "s", "a", "r", "-") in sigs     # R20+ sliver
    assert ("s", "r", "a", "r", "s") in sigs     # R20-
    assert ("s", "r", "-", "-", "-") in sigs     # R10 upper half


def deltazero_expected_pair(sys_, mu):
    """Expected (E21, E22) letters at mu from the degenerate-pair type
    theorems, or '-' where the point is virtual/complex."""
    g, d1, P0 = sys_.gamma0, sys_.delta1, sys_.P0
    q1, q2 = g * d1 - P0, g * d1 - 2.0 * P0
    c = sys_.at(mu)
    disc = c.delta * c.delta - 4.0 * mu.mu2 * c.P
    if disc <= 0.0:
        return ("-", "-")
    in_r20 = mu.mu2 > 0.0 and d1 * mu.mu1 < 0.0
    in_r10 = mu.mu2 < 0.0
    left_of_t3 = mu.mu2 * g * g < q1 * mu.mu1 * mu.mu1
    if in_r20:
        if q1 > 0.0 and q2 < 0.0:
            return ("r" if left_of_t3 else "s", "a")
        if q1 > 0.0 and q2 > 0.0:
            return ("r", "a" if left_of_t3 else "s")
        if q1 < 0.0 and d1 > 0.0:
            return ("s", "a")
        if q1 < 0.0 and d1 < 0.0:
            return ("r", "s")
    if in_r10:
        if q1 > 0.0:
            return ("r", "-")
        # the saddle slice sits between the (now lower) interior-collision
        # parabola and the half-axis on the mu1 < 0 side only; the larger
        # root's transverse eigenvalue does not flip across the mirror
        # branch of the parabola
        in_plus = (not left_of_t3) and mu.mu1 < 0.0
        return ("s" if in_plus else "r", "-")
    return ("-", "-")


def thetazero_expected_pair(sys_, mu):
    g, t2, N0 = sys_.gamma0, sys_.theta2, sys_.N0
    q1, q2 = t2 - N0 * g, t2 - 2.0 * N0 * g
    c = sys_.at(mu)
    disc = c.theta * c.theta - 4.0 * mu.mu1 * c.N
    if disc <= 0.0:
        return ("-", "-")
    in_r20 = mu.mu1 > 0.0 and t2 * mu.mu2 < 0.0
    in_r10 = mu.mu1 < 0.0
    left_of_t4 = mu.mu1 < g * q1 * mu.mu2 * mu.mu2
    if in_r20:
        if q1 > 0.0 and q2 < 0.0:
            return ("r" if left_of_t4 else "s", "a")
        if q1 > 0.0 and q2 > 0.0:
            return ("r", "a" if left_of_t4 else "s")
        if q1 < 0.0 and t2 > 0.0:
            return ("s", "a")
        if q1 < 0.0 and t2 < 0.0:
            return ("r", "s")
    if in_r10:
        if q1 > 0.0:
            return ("r", "-")
        # mirror of the other class: the saddle slice requires mu2 < 0
        in_plus = (not left_of_t4) and mu.mu2 < 0.0
        return ("s" if in_plus else "r", "-")
    return ("-", "-")


def test_degenerate_pair_types_region_by_region():
    # every sector of every canonical degenerate diagram must agree with
    # the degenerate-pair type theorems at its representative
    from lvbif.cases import CANONICAL_DELTAZERO, CANONICAL_THETAZERO
    for cid, sys_ in CANONICAL_DELTAZERO:
        for s in decompose(sys_, None, 1e-3):
            want = deltazero_expected_pair(sys_, s.representative)
            got = (s.signature[2], s.signature[3])
            assert got == want, (cid, s.sector_id, got, want)
    for cid, sys_ in CANONICAL_THETAZERO:
        for s in decompose(sys_, None, 1e-3):
            want = thetazero_expected_pair(sys_, s.representative)
            got = (s.signature[1], s.signature[2])
            assert got == want, (cid, s.sector_id, got, want)


def test_decompose_handles_negative_quadratic_signs():
    # P < 0 (resp. N < 0) is outside the table scope but the sector
    # machinery must still work: the fold parabola moves to the lower
    # (resp. left) half plane and the sector structure stays consistent
    # with the direct angular scan
    for sys_ in (deltazero_case(1.0, 1.5, P=-1.0),
                 thetazero_case(1.0, 1.5, N=-1.0)):
        desc = select_case(sys_)
        assert not desc.table_supported
        sectors = decompose(sys_, desc, 1e-3)
        assert len(sectors) >= 4
        check = cross_check(sys_, sectors)
        assert check.ok, check


def test_decompose_matches_scan_on_random_systems(rng):
    # pipeline-level property: for arbitrary admissible systems the traced
    # sector structure equals the direct angular scan
    from conftest import rand_deltazero, rand_nondegenerate, rand_thetazero
    gens = (rand_nondegenerate, rand_deltazero, rand_thetazero)
    checked = 0
    while checked < 12:
        sys_ = gens[checked % 3](rng)
        if sys_.degeneracy == "NonDegenerate" \
                and abs(sys_.theta0 * sys_.delta0 - 1.0) < 0.3:
            continue
        check = cross_check(sys_, decompose(sys_, None, 1e-3))
        assert check.ok, (sys_, check)
        checked += 1


def test_shipped_fixture_files_match_canonical_cases():
    import json
    from importlib import resources

    from lvbif.model import system_from_dict
    names = {NONDEGENERATE: "nondegenerate", DELTA_ZERO: "deltazero",
             THETA_ZERO: "thetazero"}
    for fam, cases in CANONICAL_BY_FAMILY.items():
        for cid, sys_ in cases:
            ref = resources.files("lvbif") / "fixtures" \
                / f"{names[fam]}_{cid.lower()}.json"
            loaded = system_from_dict(json.loads(ref.read_text()))
            for field in ("theta", "gamma", "delta",
                          "M", "N", "L", "S", "P", "R"):
                assert getattr(loaded, field) == getattr(sys_, field), \
                    (fam, cid, field)


def test_truncation_equivalence_sector_by_sector():
    for cid, sys_ in CANONICAL_NONDEGENERATE:
        full = decompose(sys_, None, 1e-3)
        cut = decompose(sys_.truncated(), None, 1e-3)
        assert [s.signature for s in full] == [s.signature for s in cut], cid
        # boundary angles agree to the O(r^2) curvature corrections
        for a, b in zip(full, cut):
            assert abs(a.angles[0] - b.angles[0]) < 5e-3


# -- batched signatures ---------------------------------------------------------

def _base_angles(n=1440):
    step = 2.0 * math.pi / n
    return [(k + 0.5) * step for k in range(n)]


@pytest.mark.parametrize("r", [1e-3, 3e-3])
def test_batched_signatures_equal_scalar_at_every_base_angle(r):
    from conftest import scan_systems
    phis = _base_angles()
    # theta*delta = 1: E3 is skipped at every point
    # the origin, where only E0 exists, and the four semi-axis points,
    # where an axis root meets E0
    pts = [(0.0, 0.0), (r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)]
    special = ParamArray(*(np.array(v) for v in zip(*pts)))
    empty = ParamArray(np.array([]), np.array([]))
    for sys_ in scan_systems() + [nondegenerate_case(2.0, 0.5)]:
        batched = signature_at(sys_, ParamArray.from_polar(r, phis))
        scalar = [signature_at(sys_, ParamPoint.from_polar(r, p)) for p in phis]
        assert batched == scalar, sys_
        assert signature_at(sys_, special) == [
            signature_at(sys_, ParamPoint(*p)) for p in pts], sys_
        assert signature_at(sys_, empty) == []


def test_two_dimensional_param_arrays_solve_point_by_point():
    # refine_e3 keeps the shape of a 3x4 ParamArray, signature_at lists its
    # points in C order, and each point equals its scalar solve
    sys_ = dict(CANONICAL_NONDEGENERATE)["IV"]
    phis = np.linspace(0.1, 6.2, 12)
    mu = ParamArray(*(v.reshape(3, 4)
                      for v in ParamArray.from_polar(3e-3, phis)))
    x1, x2 = equilibria.refine_e3(sys_, mu)
    assert x1.shape == x2.shape == (3, 4)
    pts = [ParamPoint.from_polar(3e-3, p) for p in phis]
    assert list(zip(x1.flat, x2.flat)) == [equilibria.refine_e3(sys_, p)
                                           for p in pts]
    assert signature_at(sys_, mu) == [signature_at(sys_, p) for p in pts]


def test_batched_signatures_drop_e3_where_its_newton_diverges(monkeypatch):
    sys_ = ReducedSystem.from_coeffs(theta=1.0, gamma=1.0, P=1.0,
                                     delta=linear_poly(0.0, 1.0, 0.5))
    monkeypatch.setattr(equilibria, "MAX_ITER", 1)
    phis = _base_angles()
    diverged = [any(n.startswith("NewtonDivergence") for n in
                    find_equilibria(sys_, ParamPoint.from_polar(1e-3, p)).notes)
                for p in phis]
    assert 0 < sum(diverged) < len(phis)
    batched = signature_at(sys_, ParamArray.from_polar(1e-3, phis))
    assert batched == [signature_at(sys_, ParamPoint.from_polar(1e-3, p))
                       for p in phis]
    assert all(sig[-1] == "-" for sig, d in zip(batched, diverged) if d)
    assert any(sig[-1] != "-" for sig in batched)


def test_batched_signatures_raise_where_the_scalar_path_raises(monkeypatch):
    sys_ = nondegenerate_case(2.0, 2.0)
    monkeypatch.setattr(equilibria, "TOL_COLLIDE", 0.3)
    phis = _base_angles()

    def ambiguous(p):
        try:
            find_equilibria(sys_, ParamPoint.from_polar(1e-3, p))
        except AmbiguousLabel as exc:
            return str(exc)
        return None
    flags = [ambiguous(p) for p in phis]
    assert 0 < sum(f is not None for f in flags) < len(phis)
    with pytest.raises(AmbiguousLabel) as raised:
        signature_at(sys_, ParamArray.from_polar(1e-3, phis))
    # the batched message names a point where the scalar path raises the
    # same message
    msg, point = re.fullmatch(r"(.*) \(at point (\d+)\)",
                              str(raised.value)).groups()
    assert flags[int(point)] == msg
    clean = [p for p, f in zip(phis, flags) if f is None]
    assert signature_at(sys_, ParamArray.from_polar(1e-3, clean)) == [
        signature_at(sys_, ParamPoint.from_polar(1e-3, p)) for p in clean]
    # one point outside the disk fails the whole array, as it fails alone
    mu = ParamArray(np.array([1e-3, 2e-2]), np.array([0.0, 0.0]))
    with pytest.raises(DiskError):
        signature_at(sys_, ParamPoint(2e-2, 0.0))
    with pytest.raises(DiskError):
        signature_at(sys_, mu)
    with pytest.raises(UnsupportedCase):
        signature_at(ReducedSystem.from_coeffs(theta=0.0, delta=0.0, gamma=1.0),
                     ParamArray.from_polar(1e-3, phis[:3]))


def test_decompose_retries_thin_sectors_at_quarter_radii(monkeypatch):
    from lvbif.errors import SectorTooThin
    tried = []

    def thin(sys_, r):
        tried.append(r)
        raise SectorTooThin("boundary angles nearly coincide")

    monkeypatch.setattr(rg, "_decompose_at", thin)
    sys_ = nondegenerate_case(0.5, 0.5)
    for r, radii in ((8e-3, (8e-3, 8e-3 / 4, 8e-3 / 16, 8e-3 / 64)),
                     (1e-3, (1e-3, 1e-3 / 4))):
        tried.clear()
        with pytest.raises(SectorTooThin):
            rg.decompose(sys_, None, r)
        assert tuple(tried) == radii


def test_decompose_retry_rescues_a_thin_sector_between_lines():
    # T1 has slope 1e-6: its sector against the negative mu1 semi-axis is
    # 1e-6 rad wide at every radius, and the required separation
    # SEP_TOL * r only falls below half of that at r/4
    sys_ = nondegenerate_case(1e6, 0.3)
    with pytest.raises(SectorTooThin):
        rg._decompose_at(sys_, 1e-3)
    sectors = decompose(sys_, None, 1e-3)
    assert len(sectors) == 6
    assert {s.radius for s in sectors} == {2.5e-4}


def test_decompose_merges_runs_and_joins_across_the_zero_angle(monkeypatch):
    # runs of equal signatures merge, the last run (4 to 0.5 across zero)
    # joins the first one (0.5 to 1), and a merged sector keeps the
    # representative of its first part
    cuts = [0.5, 1.0, 2.0, 4.0, 5.0]
    monkeypatch.setattr(rg, "boundary_candidates",
                        lambda sys_, r: [(a, f"c{a}") for a in cuts])
    monkeypatch.setattr(rg, "signature_at", lambda sys_, mu:
                        ("s",) if 1.0 < mu.angle < 4.0 else ("a",))
    sectors = decompose(nondegenerate_case(0.5, 0.5), None, 1e-3)
    assert [(s.sector_id, s.angles, s.bounding, s.signature)
            for s in sectors] == [(0, (1.0, 4.0), ("c1.0", "c4.0"), ("s",)),
                                  (1, (4.0, 1.0), ("c4.0", "c1.0"), ("a",))]
    assert [s.representative.angle for s in sectors] == pytest.approx(
        [1.5, 4.5])


def test_boundary_candidates_drop_near_duplicate_and_wrap_around_cuts(
        monkeypatch):
    # a cut 1e-10 rad after another is dropped, and one 1e-10 rad below
    # 2 pi is the wrap-around twin of the cut at 0
    phis = {"Xplus": 0.0, "a": 1.0, "b": 1.0 + 1e-10, "c": 2.0,
            "z": 2.0 * math.pi - 1e-10}
    monkeypatch.setattr(rg.bif, "circle_zeros", lambda sys_, r: ([
        (ParamPoint.from_polar(r, phi), kind) for kind, phi in phis.items()],
        None))
    got = rg.boundary_candidates(nondegenerate_case(0.5, 0.5), 1e-3)
    assert [kind for _, kind in got] == ["Xplus", "a", "c"]
    assert [ang for ang, _ in got] == pytest.approx([0.0, 1.0, 2.0])
