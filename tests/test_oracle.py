import math
from dataclasses import replace

import numpy as np
import pytest

from lvbif.cases import deltazero_case, nondegenerate_case
from lvbif.cli import main as cli_main
from lvbif.equilibria import find_equilibria
from lvbif.model import (Coeffs, ParamArray, ParamPoint, ReducedSystem,
                         bracket1, bracket2, system_from_dict)
import lvbif.oracle as oracle
from lvbif.oracle import (NARROW_FLOOR, cross_check, fd_jacobian,
                          grid_equilibria, sign_scan)
import lvbif.regions as regions
from lvbif.regions import decompose


def test_fd_jacobian_examples(rng):
    sys_ = nondegenerate_case(-2.0, -1.0)
    # origin: diagonal with the parameter values
    F = fd_jacobian(sys_, (3e-3, -4e-3), (0.0, 0.0))
    assert F[0][0] == pytest.approx(3e-3, abs=1e-9)
    assert F[1][1] == pytest.approx(-4e-3, abs=1e-9)
    assert abs(F[0][1]) < 1e-9 and abs(F[1][0]) < 1e-9
    # on the vertical axis the (1,2) entry vanishes structurally
    F = fd_jacobian(sys_, (1e-3, 1e-3), (0.0, 2e-3))
    assert abs(F[0][1]) < 1e-12


def test_grid_finds_only_origin_at_mu_zero():
    sys_ = nondegenerate_case(1.0, 1.0)
    roots = grid_equilibria(sys_, (0.0, 0.0), ((-5e-3, 5e-3), (-5e-3, 5e-3)),
                            n=200)
    assert len(roots) == 1 and roots[0] == (0.0, 0.0)


def test_grid_matches_primary_solver():
    # the window pads the largest |xi| by r / 10 = 1e-4
    assert oracle._grid_roots_match(nondegenerate_case(-2.0, -1.0),
                                    ParamPoint(1e-3, 1e-3), 1e-3)


def test_grid_vertical_axis_empty_when_discriminant_negative():
    sys_ = deltazero_case(1.0, 1.5)
    mu = (5e-4, 8e-4)  # upper half plane: the axis pair is complex
    eqs = find_equilibria(sys_, mu)
    assert eqs.get("E21") is None and eqs.get("E22") is None
    roots = grid_equilibria(sys_, mu, ((-4e-3, 4e-3), (-4e-3, 4e-3)), n=300)
    on_open_upper_axis = [r for r in roots if r[0] == 0.0 and r[1] > 0.0]
    assert not on_open_upper_axis


def test_grid_jitter_pass_is_deterministic():
    # n and jitter_seed, the lattice's resolution and shift, change nothing
    sys_ = nondegenerate_case(0.5, 0.5)
    mu = (-8e-4, -3e-4)
    w = ((-5e-3, 5e-3), (-5e-3, 5e-3))
    a = grid_equilibria(sys_, mu, w, n=250, jitter_seed=5)
    assert a == grid_equilibria(sys_, mu, w, n=4000, jitter_seed=None)
    assert len(a) == 4 and a == grid_equilibria(sys_, mu, w)


@pytest.mark.parametrize("coeffs, mu, window", [
    ({}, (1e-3, 1e-3), ((-1e-3, math.nan), (-1e-3, 1e-3))),
    ({}, (1e-3, 1e-3), ((-1e-3, 1e-3), (-math.inf, 1e-3))),
    ({}, (math.nan, 1e-3), ((-1e-3, 1e-3), (-1e-3, 1e-3))),
    ({"L": math.inf}, (1e-3, 1e-3), ((-1e-3, 1e-3), (-1e-3, 1e-3))),
    ({"P": math.nan}, (1e-3, 1e-3), ((-1e-3, 1e-3), (-1e-3, 1e-3))),
])
def test_grid_rejects_non_finite_input(coeffs, mu, window):
    # a NaN lattice value would flag every cell it touches, where the sign
    # products it replaced flagged none, so such input is refused up front
    sys_ = ReducedSystem.from_coeffs(
        **{"theta": -1.0, "gamma": 1.0, "delta": -2.0, **coeffs})
    with pytest.raises(ValueError, match="finite"):
        grid_equilibria(sys_, mu, window, n=50)


def test_grid_finds_a_close_fold_axis_pair():
    # the two axis roots are 7e-6 apart, closer than one cell of the
    # 300-cell lattice the elimination replaced, which found neither
    sys_ = ReducedSystem.from_coeffs(theta=2.02e-3, gamma=1.0, delta=-1.0,
                                     N=1.0)
    mu = (2.02e-3 ** 2 / 4 - 3.5e-6 ** 2, 2e-3)
    roots = grid_equilibria(sys_, mu, ((-3e-3, 3e-3), (-3e-3, 3e-3)), n=300)
    axis = [x for x, y in roots if y == 0.0 and x != 0.0]
    assert len(axis) == 2
    for x, want in zip(axis, (-1.0135e-3, -1.0065e-3)):
        assert abs(x - want) < oracle.ROOT_TOL


def _count_newton(monkeypatch):
    calls = []
    solve = oracle._fd_newton

    def counted(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(oracle, "_fd_newton", counted)
    return calls


def test_grid_eliminates_linear_brackets(monkeypatch):
    # with L = P = 0 both brackets are linear in y and the quartic resultant
    # vanishes identically; their cubic resultant a1 b0 - a0 b1 seeds x
    sys_ = ReducedSystem.from_coeffs(theta=-2.0, gamma=1.0, delta=-1.0,
                                     M=0.1, N=0.1, S=0.1, R=0.1)
    calls = _count_newton(monkeypatch)
    for mu in ((1e-3, 1e-3), (-1e-3, -1e-3), (1e-3, 5e-4)):
        eqs = find_equilibria(sys_, mu)
        assert eqs.get("E3") is not None and 0.0 not in eqs.get("E3").xi
        assert oracle._grid_roots_match(sys_, ParamPoint(*mu), 1e-3)
    # M R = N S drops w to a quadratic: two seeds, two solves a grid
    assert len(calls) == 2 * 3


@pytest.mark.parametrize("mu", [(-1e-3, 1e-3), (1e-3, -1e-3), (1e-3, 5e-4)])
def test_grid_seeds_y_from_g1_where_the_combination_degenerates(
        monkeypatch, mu):
    # canonical NonDegenerate II has L = P, M = S and gamma = delta, so
    # P g1 - L g2 has no y term and y is seeded from the roots of g1(x, .):
    # two x seeds (a double root of the resultant), two y seeds each
    from lvbif.cases import CANONICAL_NONDEGENERATE
    sys_ = dict(CANONICAL_NONDEGENERATE)["II"]
    c = sys_.at(mu)
    assert c.L * c.S == c.P * c.M and c.L * c.delta == c.P * c.gamma
    calls = _count_newton(monkeypatch)
    e3 = find_equilibria(sys_, mu).get("E3").xi
    assert 0.0 not in e3
    assert oracle._grid_roots_match(sys_, ParamPoint(*mu), 1e-3)
    assert len(calls) == 4


def test_grid_makes_one_newton_solve_per_resultant_root(monkeypatch):
    # a system with every coefficient polynomial set has a full quartic:
    # four seeds, four solves, where the lattice solved once per flagged
    # cell of each of its two or three passes
    sys_ = system_from_dict(_DUPLICATE_ROOTS_SYSTEM)
    calls = _count_newton(monkeypatch)
    roots = grid_equilibria(sys_, (4.3e-4, 4.7e-5),
                            ((-2e-3, 2e-3), (-2e-3, 2e-3)))
    assert len(calls) == 4
    assert len(roots) == 4


def test_fd_newton_refuses_an_unpolished_last_step():
    # a random DeltaZero system at a sector representative: from the real
    # part of a complex resultant root, Newton wanders for 39 steps and its
    # 40th lands 5e-9 from the interior root, which the old loose final
    # test (residual <= 1e-9 (1 + |seed|)) kept as a second root
    c = Coeffs(
        mu1=-0.0014039391953035005, mu2=2.5412999246245524e-06,
        theta=-1.9447322482522467, gamma=0.8122254309972959,
        delta=-0.0019591880529367493, M=-0.38607530304319376,
        N=-0.07464703067169443, L=-0.1991587790382471,
        S=-0.2797408800871296, P=-0.5654920922326482, R=-0.2162732374524459)
    root = (2.077764612355744e-06, 0.001734223289433559)
    assert oracle._fd_newton(c, 10.978030648506696, -11.061867315830987) \
        is None
    got = oracle._fd_newton(c, 2.1e-6, 1.7e-3)
    assert math.hypot(got[0] - root[0], got[1] - root[1]) < 1e-15


def test_grid_roots_match_the_solver_on_the_scan_systems():
    # every sector representative of the 22 canonical fixtures and 12
    # random systems, on two circles, in the window cross_check uses
    from conftest import scan_systems
    for sys_ in scan_systems():
        for r in (1e-3, 3e-3):
            for sector in decompose(sys_, None, r):
                assert oracle._grid_roots_match(
                    sys_, sector.representative, sector.radius), (sys_, r)


def test_sign_scan_validates_arguments():
    sys_ = nondegenerate_case(0.5, 0.5)
    with pytest.raises(ValueError):
        sign_scan(sys_, 1e-3, n_angles=100)
    with pytest.raises(ValueError):
        sign_scan(sys_, 0.0)


def test_sign_scan_matches_decompose_sliver_included():
    sys_ = deltazero_case(1.0, 1.5)
    check = cross_check(sys_, decompose(sys_, None, 1e-3))
    assert check.ok, check
    # the paired-root slice between the two parabolas is a genuinely thin
    # block, of angular width O(r)
    widths = {b.signature: (b.end - b.start) % (2 * math.pi)
              for b in sign_scan(sys_, 1e-3, 1440).blocks}
    sliver = widths[("s", "r", "s", "a", "-")]
    assert 1e-5 < sliver < 5e-4


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction 5: the collision band TOL_COLLIDE * |mu| does not "
    "scale with the equilibria, so with theta = 1e6 E1 collides with E0 on "
    "0.2 rad arcs and sign_scan finds blocks decompose does not cut"))
def test_cross_check_passes_where_two_curves_nearly_coincide():
    # T1 has slope 1e-6; decompose retries and cuts at r = 2.5e-4
    sys_ = nondegenerate_case(1e6, 0.3)
    check = cross_check(sys_, decompose(sys_, None, 1e-3))
    assert check.ok, check


def test_sign_scan_equals_a_per_angle_scalar_scan(monkeypatch):
    # the reference scan takes every base signature from a scalar call at
    # its own point; the bisection is shared, so blocks must be identical
    from lvbif.cases import CANONICAL_BY_FAMILY
    batched = oracle.signature_at

    def per_angle(sys_, mu):
        if isinstance(mu, ParamArray):
            return [batched(sys_, ParamPoint(m1, m2))
                    for m1, m2 in zip(mu.mu1.tolist(), mu.mu2.tolist())]
        return batched(sys_, mu)

    systems = [s for cases in CANONICAL_BY_FAMILY.values() for _, s in cases]
    got = [sign_scan(s, 1e-3).blocks for s in systems]
    monkeypatch.setattr(oracle, "signature_at", per_angle)
    want = [sign_scan(s, 1e-3).blocks for s in systems]
    assert got == want


def _recursive_sign_scan(sys_, r, n_angles=1440):
    # the scan before its bisection was batched, kept as the reference: one
    # scalar signature_at call per midpoint, depth first
    two_pi = regions.TWO_PI
    step = two_pi / n_angles
    angles = [(k + 0.5) * step for k in range(n_angles)]
    sig = lambda phi: regions.signature_at(sys_, ParamPoint.from_polar(r, phi))
    sigs = regions.signature_at(sys_, ParamArray.from_polar(r, angles))
    events = []

    def refine(a, sa, b, sb):
        if b - a < NARROW_FLOOR / 100.0:
            events.append((b, sb))
            return
        m = 0.5 * (a + b)
        sm = sig(m)
        if sm != sa:
            refine(a, sa, m, sm)
        if sm != sb:
            refine(m, sm, b, sb)

    for k in range(n_angles):
        a, sa = angles[k], sigs[k]
        b = angles[(k + 1) % n_angles] + (0.0 if k + 1 < n_angles else two_pi)
        sb = sigs[(k + 1) % n_angles]
        if sa != sb:
            refine(a, sa, b, sb)
    if not events:
        return [oracle.SignScanBlock(0.0, two_pi, sigs[0])]
    events.sort()
    blocks = [oracle.SignScanBlock(ang % two_pi,
                                   events[(i + 1) % len(events)][0] % two_pi, s)
              for i, (ang, s) in enumerate(events)]

    def cyclic_merge(items):
        out = []
        for b in items:
            if out and out[-1].signature == b.signature:
                out[-1] = oracle.SignScanBlock(out[-1].start, b.end,
                                               b.signature)
            else:
                out.append(b)
        if len(out) > 1 and out[0].signature == out[-1].signature:
            first = out.pop(0)
            out[-1] = oracle.SignScanBlock(out[-1].start, first.end,
                                           first.signature)
        return out

    merged = cyclic_merge(blocks)
    wide = [b for b in merged
            if ((b.end - b.start) % two_pi or two_pi) >= NARROW_FLOOR]
    if wide:
        merged = cyclic_merge(wide)
    merged.sort(key=lambda b: b.start)
    return merged


def _exact(blocks):
    # dataclass equality would let -0.0 equal 0.0; compare the floats' bits
    return [(b.start.hex(), b.end.hex(), b.signature) for b in blocks]


def test_batched_bisection_is_the_scalar_recursion():
    from conftest import scan_systems
    cases = [(s, r) for r in (1e-3, 3e-3) for s in scan_systems()]
    # the thin-sector system decompose retries on a smaller circle
    cases.append((nondegenerate_case(1e6, 0.3), 2.5e-4))
    for sys_, r in cases:
        got = sign_scan(sys_, r).blocks
        assert _exact(got) == _exact(_recursive_sign_scan(sys_, r)), (sys_, r)


def test_sign_scan_classifies_levels_deep_per_array_call(monkeypatch):
    # the base samples take one array call, and each round of LEVELS
    # bisection levels one more; the 1440-angle base step halves 18 times
    # before it is below NARROW_FLOOR / 100
    from lvbif.cases import CANONICAL_NONDEGENERATE
    calls = {"array": 0, "scalar": 0}
    real = oracle.signature_at

    def counted(sys_, mu):
        calls["array" if isinstance(mu, ParamArray) else "scalar"] += 1
        return real(sys_, mu)

    monkeypatch.setattr(oracle, "signature_at", counted)
    sys_ = CANONICAL_NONDEGENERATE[0][1]
    assert len(sign_scan(sys_, 1e-3, 1440).blocks) > 1
    step = 2 * math.pi / 1440
    assert step / 2 ** 18 < NARROW_FLOOR / 100 <= step / 2 ** 17
    assert calls == {"array": 1 + math.ceil(18 / oracle.LEVELS), "scalar": 0}


# a 1e-6 rad block about the base angle k of a 1440-angle scan, which the
# scan sees and then drops as narrower than NARROW_FLOOR
def _narrow(k):
    phi = (k + 0.5) * 2.0 * math.pi / 1440
    return [(phi - 5e-7, "n"), (phi + 5e-7, "a")]


@pytest.mark.parametrize("runs, want", [
    # the "a" runs on both sides of the narrow block join, away from the
    # zero angle
    ([(0.0, "b"), (0.5, "a"), *_narrow(229), (3.0, "b")],
     [(0.5, "a"), (3.0, "b")]),
    # the narrow block is the first one: the last "a" run joins the one
    # after it across the zero angle
    ([(0.0, "a"), *_narrow(0), (1.0, "b"), (3.0, "a")],
     [(1.0, "b"), (3.0, "a")]),
])
def test_sign_scan_merges_equal_neighbours_of_a_dropped_block(
        monkeypatch, runs, want):
    # runs: (start angle, signature) of each run of the synthetic circle
    def sig(phi):
        return (max((a, s) for a, s in runs if a <= phi)[1],)

    def synthetic(sys_, mu):
        return [sig(p) for p in
                (np.arctan2(mu.mu2, mu.mu1) % regions.TWO_PI).tolist()]
    monkeypatch.setattr(oracle, "signature_at", synthetic)
    blocks = sign_scan(nondegenerate_case(1.0, 2.0), 1e-3).blocks
    assert [b.signature for b in blocks] == [(s,) for _, s in want]
    assert [b.start for b in blocks] == pytest.approx(
        [a for a, _ in want], abs=NARROW_FLOOR)
    assert [b.end for b in blocks] == pytest.approx(
        [a for a, _ in want[1:] + want[:1]], abs=NARROW_FLOOR)


def test_sign_scan_points_are_the_scalar_points():
    phis = [(k + 0.5) * 2.0 * math.pi / 1440 for k in range(1440)]
    mu = ParamArray.from_polar(3e-3, phis)
    pts = [ParamPoint.from_polar(3e-3, p) for p in phis]
    assert mu.mu1.tolist() == [p.mu1 for p in pts]
    assert mu.mu2.tolist() == [p.mu2 for p in pts]
    assert mu.norm.tolist() == [p.norm for p in pts]


# a random NonDegenerate system whose grid roots used to come back twice:
# finite-difference Newton stopped at the first residual below 1e-12, leaving
# copies of one root 3-5e-12 apart against a dedupe distance of about 1e-12
_DUPLICATE_ROOTS_SYSTEM = {
    "form": "reduced", "degree": 2,
    "theta": {"(0,0)": 1.3771897368105903, "(0,1)": 0.030514650575422575,
              "(0,2)": -0.15744413656668402, "(1,0)": 0.20281048693984527,
              "(1,1)": 0.23074296274272343, "(2,0)": -0.13621462680072627},
    "gamma": {"(0,0)": 2.3921638389882123, "(0,1)": -0.17567299361116806,
              "(0,2)": 0.3693257549310295, "(1,0)": 0.2002917381040421,
              "(1,1)": 0.384589759840991, "(2,0)": -0.011847220454691942},
    "delta": {"(0,0)": 0.5315671092551576, "(0,1)": -0.2927666422022682,
              "(0,2)": -0.1901493276465204, "(1,0)": -0.03720168841547877,
              "(1,1)": -0.23723580745908032, "(2,0)": -0.07750961084229663},
    "M": {"(0,0)": -0.18816854798951455, "(0,1)": 0.03298148443794735,
          "(0,2)": 0.3759403305729061, "(1,0)": 0.1798319526188269,
          "(1,1)": -0.2714783929798985, "(2,0)": -0.17848703676370337},
    "N": {"(0,0)": -0.07667355102742435, "(0,1)": -0.30730751002338375,
          "(0,2)": 0.09040264084243238, "(1,0)": 0.012854868438302969,
          "(1,1)": 0.22134649147383845, "(2,0)": 0.09879180443000035},
    "L": {"(0,0)": 0.32770259382044176, "(0,1)": -0.36832569866863774,
          "(0,2)": -0.35012033668009956, "(1,0)": 0.33383816383272213,
          "(1,1)": -0.03253129369167701, "(2,0)": 0.02287141060801734},
    "S": {"(0,0)": -0.09080086363083872, "(0,1)": 0.28210627078452544,
          "(0,2)": 0.271905216825127, "(1,0)": 0.11306253531150001,
          "(1,1)": -0.19192204181022143, "(2,0)": 0.07435281448342723},
    "P": {"(0,0)": 0.049593687673059494, "(0,1)": 0.008711107573226406,
          "(0,2)": 0.2557013752954216, "(1,0)": 0.007596705217207511,
          "(1,1)": -0.28166237137203476, "(2,0)": 0.2024241661617423},
    "R": {"(0,0)": -0.47244088675693163, "(0,1)": 0.22967755324384087,
          "(0,2)": -0.2469408591542398, "(1,0)": 0.14662952480260572,
          "(1,1)": 0.241891328907624, "(2,0)": -0.24670699278389183},
}


@pytest.mark.parametrize("mu", [
    (0.0004257903715867173, 4.673321514812851e-05),
    (-0.00042578937209781153, -4.674232068037969e-05),
    (-0.000414316220414092, -0.00010873593442748161),
])
def test_grid_roots_are_not_duplicated(mu):
    # the window of the circle r = 4.283e-4 the roots came back twice on
    sys_ = system_from_dict(_DUPLICATE_ROOTS_SYSTEM)
    assert oracle._grid_roots_match(sys_, ParamPoint(*mu), 4.283e-4)


def test_axis_scan_roots_equal_a_per_sample_scan():
    # the axis roots, eigenvalues of the axis quadratics, must be the roots
    # a sample-by-sample sign scan of g1(x, 0) and g2(0, y) bisects to
    sys_ = nondegenerate_case(-2.0, -1.0)
    c = sys_.at((1e-3, -1e-3))
    roots = grid_equilibria(sys_, (1e-3, -1e-3),
                            ((-5e-3, 5e-3), (-5e-3, 5e-3)))

    def scan(fn):
        xs = np.linspace(-5e-3, 5e-3, 301).tolist()
        found = []
        for a, b in zip(xs, xs[1:]):
            if fn(a) * fn(b) < 0.0:
                while b - a > 1e-15:
                    m = 0.5 * (a + b)
                    a, b = (m, b) if fn(a) * fn(m) > 0.0 else (a, m)
                found.append(a)
        return found

    for got, want in (
            ([x for x, y in roots if y == 0.0 and x != 0.0],
             scan(lambda x: bracket1(c, x, 0.0))),
            ([y for x, y in roots if x == 0.0 and y != 0.0],
             scan(lambda y: bracket2(c, 0.0, y)))):
        assert want and len(got) == len(want)
        assert all(abs(g - w) < 1e-14 for g, w in zip(got, want))


# -- the cross-check ----------------------------------------------------------

def _cut(*args, _f=regions._decompose_at):
    # the lower boundary of the second sector, 1e-5 rad off
    sectors = _f(*args)
    lo, hi = sectors[1].angles
    sectors[1] = replace(sectors[1], angles=(lo + 1e-5, hi))
    return sectors


def _flip(*args, _f=oracle.sign_scan):
    # one letter of the first block
    scan = _f(*args)
    sig = scan.blocks[0].signature
    scan.blocks[0] = replace(scan.blocks[0], signature=(
        "a" if sig[0] != "a" else "r",) + sig[1:])
    return scan


def _drop(*args, _f=oracle.grid_equilibria, **kw):
    # one grid root
    return _f(*args, **kw)[:-1]


BREAKS = {"edge_gap": (regions, "_decompose_at", _cut),
          "rle": (oracle, "sign_scan", _flip),
          "roots": (oracle, "grid_equilibria", _drop)}


# each break must fail its own part of the cross-check and no other one,
# and fail verify --oracle with it
@pytest.mark.parametrize("part", BREAKS)
def test_each_broken_part_fails_on_its_own(monkeypatch, capsys, part):
    monkeypatch.setattr(*BREAKS[part])
    sys_ = nondegenerate_case(-2.0, -1.0)
    check = cross_check(sys_, decompose(sys_, None, 1e-3))
    failed = {"edge_gap": check.edge_gap > NARROW_FLOOR,
              "rle": not check.rle, "roots": not all(check.roots)}
    assert failed == {p: p == part for p in failed}, check
    assert not check.ok
    assert cli_main(["verify", "--family", "nondegenerate", "--oracle"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] case I: " in out and "verification FAILED" in out
