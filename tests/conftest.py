"""Shared helpers: seeded random system generators for the three families."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lvbif import bifurcation as bif
from lvbif.cases import CANONICAL_BY_FAMILY
from lvbif.model import (DELTA_ZERO, NONDEGENERATE, REDUCED_NAMES, THETA_ZERO,
                         ReducedSystem, mirror)
from lvbif.poly import CoefficientPoly


def rand_poly(rng, c0, d1=None, d2=None, spread=0.4, degree=2):
    d1 = rng.uniform(-spread, spread) if d1 is None else d1
    d2 = rng.uniform(-spread, spread) if d2 is None else d2
    return CoefficientPoly({(0, 0): c0, (1, 0): d1, (0, 1): d2,
                            (2, 0): rng.uniform(-spread, spread),
                            (1, 1): rng.uniform(-spread, spread),
                            (0, 2): rng.uniform(-spread, spread)},
                           degree=degree)


def rand_nondegenerate(rng) -> ReducedSystem:
    while True:
        th = rng.uniform(0.2, 2.5) * rng.choice([-1, 1])
        de = rng.uniform(0.2, 2.5) * rng.choice([-1, 1])
        if abs(th * de - 1.0) >= 0.1:
            break
    g = rng.uniform(0.4, 2.5)
    def c(): return rng.uniform(-0.5, 0.5)
    return ReducedSystem.from_coeffs(
        theta=rand_poly(rng, th), delta=rand_poly(rng, de),
        gamma=rand_poly(rng, g),
        M=rand_poly(rng, c()), N=rand_poly(rng, c()), L=rand_poly(rng, c()),
        S=rand_poly(rng, c()), P=rand_poly(rng, c()), R=rand_poly(rng, c()))


def rand_deltazero(rng, require_p_positive: bool = False) -> ReducedSystem:
    while True:
        g = rng.uniform(0.5, 2.0)
        d1 = rng.uniform(0.4, 2.0) * rng.choice([-1, 1])
        P0 = rng.uniform(0.4, 2.0) * (1 if require_p_positive
                                      else rng.choice([-1, 1]))
        if abs(2.0 * P0 - d1 * g) >= 0.3 and abs(g * d1 - P0) >= 0.2:
            break
    d2 = rng.uniform(0.3, 1.0) * rng.choice([-1, 1])
    g2 = rng.uniform(0.3, 1.0) * rng.choice([-1, 1])
    th = rng.uniform(0.4, 2.0) * rng.choice([-1, 1])
    def c(): return rng.uniform(-0.4, 0.4)
    return ReducedSystem.from_coeffs(
        theta=rand_poly(rng, th), gamma=rand_poly(rng, g, d2=g2),
        delta=rand_poly(rng, 0.0, d1=d1, d2=d2), P=rand_poly(rng, P0),
        M=rand_poly(rng, c()), N=rand_poly(rng, c()), L=rand_poly(rng, c()),
        S=rand_poly(rng, c()), R=rand_poly(rng, c()))


def rand_thetazero(rng, require_n_positive: bool = False) -> ReducedSystem:
    while True:
        g = rng.uniform(0.5, 2.0)
        t2 = rng.uniform(0.4, 2.0) * rng.choice([-1, 1])
        N0 = rng.uniform(0.4, 2.0) * (1 if require_n_positive
                                      else rng.choice([-1, 1]))
        if abs(2.0 * N0 * g - t2) >= 0.3 and abs(t2 - N0 * g) >= 0.2:
            break
    t1 = rng.uniform(0.3, 1.0) * rng.choice([-1, 1])
    g1 = rng.uniform(0.3, 1.0) * rng.choice([-1, 1])
    de = rng.uniform(0.4, 2.0) * rng.choice([-1, 1])
    def c(): return rng.uniform(-0.4, 0.4)
    return ReducedSystem.from_coeffs(
        delta=rand_poly(rng, de), gamma=rand_poly(rng, g, d1=g1),
        theta=rand_poly(rng, 0.0, d1=t1, d2=t2), N=rand_poly(rng, N0),
        M=rand_poly(rng, c()), P=rand_poly(rng, c()), L=rand_poly(rng, c()),
        S=rand_poly(rng, c()), R=rand_poly(rng, c()))


def rand_wide(rng, family: str) -> ReducedSystem:
    """A system far from the moderate draws above: the leading coefficients
    (theta and delta, or for DeltaZero theta, delta1 and P) log-uniform in
    [1e-2, 1e2] with random signs, gamma log-uniform in [0.1, 10], every
    other constant term uniform in [-1, 1], and every term in mu (degree
    2) uniform in [-1, 1]; ThetaZero is the mirror of a DeltaZero draw."""
    if family == THETA_ZERO:
        return mirror(rand_wide(rng, DELTA_ZERO))
    def lead(): return 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1, 1])
    c0 = {n: rng.uniform(-1.0, 1.0) for n in REDUCED_NAMES}
    c0.update(theta=lead(), gamma=10.0 ** rng.uniform(-1.0, 1.0),
              delta=lead() if family == NONDEGENERATE else 0.0)
    d1 = {}
    if family == DELTA_ZERO:
        d1["delta"], c0["P"] = lead(), lead()
    return ReducedSystem.from_coeffs(**{
        n: rand_poly(rng, c0[n], d1.get(n), spread=1.0)
        for n in REDUCED_NAMES})


def wedge_direction(rng, sys_: ReducedSystem, margin: float = 0.15,
                    tries: int = 400) -> float | None:
    """An angle where the interior equilibrium is proper with margin, by the
    leading-order sign conditions."""
    th, de, g = sys_.theta0, sys_.delta0, sys_.gamma0
    hyp = th * de - 1.0
    for phi in rng.uniform(0.0, 2.0 * math.pi, tries):
        c, s = math.cos(phi), math.sin(phi)
        u = (-de * c + g * s) / hyp
        v = (c - th * g * s) / (g * hyp)
        if u > margin and v > margin:
            return float(phi)
    return None


def scan_systems(n_random: int = 12) -> list[ReducedSystem]:
    """The 22 canonical fixtures and n_random seeded random systems, cycling
    through the three families."""
    rng = np.random.default_rng(20250809)
    gens = (rand_nondegenerate, rand_deltazero, rand_thetazero)
    return ([sys_ for cases in CANONICAL_BY_FAMILY.values()
             for _, sys_ in cases]
            + [gens[k % 3](rng) for k in range(n_random)])


@pytest.fixture(autouse=True)
def _empty_scan_memo():
    """Start every test with an empty scan-circle memo: systems compare by
    value, so an entry left by an earlier test would change its call counts."""
    bif._circle_memo.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
