"""Canonical coefficient picks for the family case enumerations.

The case lists fix only signs of a few leading quantities; representative
values are free.  One system is built per case cell, with gamma = 1 and all
remaining quadratic/cubic coefficients at 0.1 so the cubic terms stay active
but subdominant.
"""

from __future__ import annotations

from dataclasses import replace

from .model import (DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ReducedSystem,
                    mirror)
from .poly import CoefficientPoly, linear_poly

HIGHER = 0.1


def nondegenerate_case(theta: float, delta: float) -> ReducedSystem:
    return ReducedSystem.from_coeffs(
        theta=theta, delta=delta, gamma=1.0,
        M=HIGHER, N=HIGHER, L=HIGHER, S=HIGHER, P=HIGHER, R=HIGHER)


def deltazero_case(theta: float, delta1: float, P: float = 1.0,
                   gamma: float = 1.0, delta2: float = HIGHER) -> ReducedSystem:
    return ReducedSystem.from_coeffs(
        theta=theta, gamma=gamma,
        delta=linear_poly(0.0, delta1, delta2),
        P=P, M=HIGHER, N=HIGHER, L=HIGHER, S=HIGHER, R=HIGHER)


def thetazero_case(delta: float, theta2: float, N: float = 1.0,
                   gamma: float = 1.0, theta1: float = HIGHER) -> ReducedSystem:
    """The mirror of deltazero_case(delta, theta2, N, 1 / gamma, theta1)."""
    twin = mirror(deltazero_case(delta, theta2, N, 1.0 / gamma, theta1))
    # the mirror's 1/(1/gamma) can miss gamma in the last bit
    return replace(twin, gamma=CoefficientPoly(gamma, twin.degree))


# one entry per case cell: (case id, descriptive signs, system)
CANONICAL_NONDEGENERATE: tuple[tuple[str, ReducedSystem], ...] = (
    ("I", nondegenerate_case(0.5, 0.5)),     # theta>0, delta>0, theta*delta<1
    ("II", nondegenerate_case(2.0, 1.0)),    # theta>0, delta>0, theta*delta>1
    ("III", nondegenerate_case(-0.5, 0.5)),  # theta<0, delta>0
    ("IV", nondegenerate_case(-2.0, -1.0)),  # theta<0, delta<0, theta*delta>1
    ("V", nondegenerate_case(-0.5, -0.5)),   # theta<0, delta<0, theta*delta<1
    ("VI", nondegenerate_case(0.5, -0.5)),   # theta>0, delta<0
)

CANONICAL_DELTAZERO: tuple[tuple[str, ReducedSystem], ...] = (
    ("I", deltazero_case(1.0, 1.5)),    # g*d1-P>0, g*d1-2P<0
    ("II", deltazero_case(1.0, 3.0)),   # g*d1-P>0, g*d1-2P>0
    ("III", deltazero_case(1.0, 0.5)),  # g*d1-P<0
    ("IV", deltazero_case(-1.0, 1.5)),
    ("V", deltazero_case(-1.0, 3.0)),
    ("VI", deltazero_case(-1.0, 0.5)),
    ("VII", deltazero_case(1.0, -1.0)),
    ("VIII", deltazero_case(-1.0, -1.0)),
)

# ThetaZero case k is the mirror of DeltaZero case k (delta = theta,
# theta2 = delta1, N = P)
CANONICAL_THETAZERO: tuple[tuple[str, ReducedSystem], ...] = tuple(
    (case_id, mirror(sys_)) for case_id, sys_ in CANONICAL_DELTAZERO)

CANONICAL_BY_FAMILY = {
    NONDEGENERATE: CANONICAL_NONDEGENERATE,
    DELTA_ZERO: CANONICAL_DELTAZERO,
    THETA_ZERO: CANONICAL_THETAZERO,
}
