"""The coordinate-swap mirror: xi1 <-> xi2 and mu1 <-> mu2.

ThetaZero systems mirror to DeltaZero ones and NonDegenerate systems to
themselves; equilibria, signatures and sector boundaries map across with
the labels renamed by mirror_name.
"""

import math

import numpy as np
import pytest

from lvbif import bifurcation as bif
from lvbif.cases import CANONICAL_BY_FAMILY, deltazero_case, thetazero_case
from lvbif.equilibria import LABELS_BY_FAMILY, find_equilibria
from lvbif.errors import LVError
from lvbif.model import (DELTA_ZERO, NONDEGENERATE, REDUCED_NAMES, THETA_ZERO,
                         ParamArray, ParamPoint, mirror, mirror_name)
from lvbif.poly import CoefficientPoly
from lvbif.regions import decompose, select_case, signature_at, verify_tables
from lvbif.verification import sotomayor_suite

from conftest import rand_nondegenerate, rand_thetazero, rand_wide

R = 1e-3
N_SYSTEMS = 8
N_ANGLES = 300

FAMILIES = [(rand_thetazero, THETA_ZERO, DELTA_ZERO),
            (rand_nondegenerate, NONDEGENERATE, NONDEGENERATE)]


def systems(gen):
    rng = np.random.default_rng(20250809)
    return [gen(rng) for _ in range(N_SYSTEMS)]


def swapped(mu):
    return type(mu)(mu.mu2, mu.mu1)


def unmirror(sig, family, image):
    """A signature over the image family's labels, read over the family's."""
    return tuple(sig[LABELS_BY_FAMILY[image].index(mirror_name(label))]
                 for label in LABELS_BY_FAMILY[family])


def circular_gap(a, b):
    gap = abs(a - b) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap)


@pytest.mark.parametrize("gen, family, image", FAMILIES)
def test_mirror_maps_family_and_round_trips(gen, family, image):
    for sys_ in systems(gen):
        assert sys_.degeneracy == family
        assert mirror(sys_).degeneracy == image
        back = mirror(mirror(sys_))
        for name in REDUCED_NAMES:
            p, q = getattr(sys_, name), getattr(back, name)
            keys = set(p.coeffs()) | set(q.coeffs())
            assert all(abs(p.coeff(*k) - q.coeff(*k)) <= 1e-14 for k in keys), \
                name


@pytest.mark.parametrize("gen, family, image", FAMILIES)
def test_mirrored_signatures_match(gen, family, image):
    phis = [(k + 0.5) * 2.0 * math.pi / N_ANGLES for k in range(N_ANGLES)]
    mu = ParamArray.from_polar(R, phis)
    for sys_ in systems(gen):
        own = signature_at(sys_, mu)
        image_sigs = signature_at(mirror(sys_), swapped(mu))
        assert own == [unmirror(s, family, image) for s in image_sigs]


@pytest.mark.parametrize("gen, family, image", FAMILIES)
def test_mirrored_equilibria_match(gen, family, image):
    for sys_ in systems(gen):
        msys = mirror(sys_)
        for k in range(6):
            mu = ParamPoint.from_polar(R, 0.3 + k * math.pi / 3.0)
            own = find_equilibria(sys_, mu)
            image_eqs = find_equilibria(msys, swapped(mu))
            assert sorted(mirror_name(e.label) for e in own) == sorted(
                e.label for e in image_eqs)
            for e in own:
                m = image_eqs.get(mirror_name(e.label))
                assert math.hypot(e.xi[0] - m.xi[1],
                                  e.xi[1] - m.xi[0]) <= 1e-7 * mu.norm
                assert (e.kind, e.proper, e.trivial) == \
                    (m.kind, m.proper, m.trivial)


@pytest.mark.parametrize("gen, family, image", FAMILIES)
def test_mirrored_decompose_matches(gen, family, image):
    for sys_ in systems(gen):
        own = decompose(sys_, None, R)
        image_sectors = decompose(mirror(sys_), None, R)
        assert len(own) == len(image_sectors)
        # the swap maps the angle phi to pi/2 - phi: a sector (lo, hi)
        # becomes (pi/2 - hi, pi/2 - lo), with the same signature
        for s in own:
            match = [m for m in image_sectors
                     if circular_gap(s.angles[0],
                                     0.5 * math.pi - m.angles[1]) <= 1e-8]
            assert len(match) == 1
            assert circular_gap(s.angles[1],
                                0.5 * math.pi - match[0].angles[0]) <= 1e-8
            assert s.signature == unmirror(match[0].signature, family, image)


def test_thetazero_case_keeps_gamma_exactly():
    # 1/(1/0.9) is 0.8999999999999999; the returned system carries 0.9
    sys_ = thetazero_case(1.0, 1.5, N=0.7, gamma=0.9, theta1=0.2)
    assert sys_.gamma.coeffs() == {(0, 0): 0.9}
    twin = mirror(deltazero_case(1.0, 1.5, 0.7, 1.0 / 0.9, 0.2))
    for name in REDUCED_NAMES:
        if name != "gamma":
            assert getattr(sys_, name) == getattr(twin, name), name
    assert sys_.degeneracy == THETA_ZERO


def outcome(f, sys_):
    """repr(f(sys_)), which tells floats apart bit for bit, or the type of
    the typed error f raises."""
    try:
        return repr(f(sys_))
    except LVError as exc:
        return type(exc).__name__


def case_cell(sys_):
    desc = select_case(sys_)
    return tuple(sign for _, sign in desc.signs), desc.table_supported


def test_thetazero_case_rules_read_the_mirrors_scalars_bit_for_bit():
    rng = np.random.default_rng(0)
    systems = ([sys_ for _, sys_ in CANONICAL_BY_FAMILY[THETA_ZERO]]
               + [rand_thetazero(rng) for _ in range(300)]
               + [rand_wide(rng, THETA_ZERO) for _ in range(300)])
    # the line kinds T1, T2 and H are left out: a mirrored slope is the
    # reciprocal
    kinds = ((bif.D_NEG, bif.D_NEG), (bif.D_POS, bif.D_POS),
             (bif.T4, bif.T3), (bif.T4_PLUS, bif.T3_PLUS))
    for sys_ in systems:
        assert sys_.degeneracy == THETA_ZERO
        twin = mirror(sys_)
        assert repr(bif.fold_scalars(sys_)) == repr(bif.fold_scalars(twin))
        assert outcome(case_cell, sys_) == outcome(case_cell, twin)
        for kind, image in kinds:
            assert repr(bif.predicted_leading(sys_, kind)) == \
                repr(bif.predicted_leading(twin, image)), kind
        assert bif.transcritical_branch(sys_) == \
            mirror_name(bif.transcritical_branch(twin))


def test_thetazero_analysis_builds_no_mirror(monkeypatch):
    def swap_arguments(self):
        raise AssertionError("a mirror was built")
    monkeypatch.setattr(CoefficientPoly, "swap_arguments", swap_arguments)
    assert verify_tables(THETA_ZERO).success
    assert sotomayor_suite(THETA_ZERO).success
    for _, sys_ in CANONICAL_BY_FAMILY[THETA_ZERO]:
        select_case(sys_)
        for kind in bif.admissible_kinds(sys_):
            bif.trace_curve(sys_, kind, [1e-3, 1e-4])
            bif.predicted_leading(sys_, kind)
        bif.transcritical_branch(sys_)
