"""Reference region type-tables for the three coefficient families.

Each table lists the expected type-signature of every distinct parameter
region produced by the family's canonical bifurcation diagrams.  A signature
is a tuple of letters over the family's equilibrium labels, with "s"/"a"/"r"
for saddle/attractor/repeller and "-" for an absent (virtual or nonexistent)
point.  Region classification is verified against these as unordered sets of
distinct signatures; column numbers are only used for reporting.
"""

from __future__ import annotations

from .equilibria import LABELS_BY_FAMILY
from .model import DELTA_ZERO, NONDEGENERATE, THETA_ZERO, mirror_name

# row headers use the classical naming ("O" for the origin in the
# degenerate families)
ROW_DISPLAY = {family: tuple("O" if label == "E0" and family != NONDEGENERATE
                             else label for label in labels)
               for family, labels in LABELS_BY_FAMILY.items()}

EXPECTED_SIGNATURES = {
    NONDEGENERATE: (
        ("r", "-", "-", "-"),   # 1
        ("s", "r", "-", "-"),   # 2
        ("a", "r", "s", "-"),   # 3
        ("a", "s", "s", "r"),   # 4
        ("a", "s", "r", "-"),   # 5
        ("s", "-", "r", "-"),   # 6
        ("a", "r", "r", "s"),   # 7
        ("r", "-", "s", "-"),   # 8
        ("s", "r", "s", "-"),   # 9
        ("s", "r", "a", "s"),   # 10
        ("a", "r", "-", "s"),   # 11
        ("a", "s", "-", "-"),   # 12
        ("s", "-", "-", "-"),   # 13
        ("r", "s", "s", "-"),   # 14
        ("s", "-", "s", "-"),   # 15
        ("s", "-", "a", "s"),   # 16
        ("a", "-", "-", "s"),   # 17
        ("s", "a", "-", "s"),   # 18
        ("s", "s", "-", "-"),   # 19
        ("r", "s", "s", "a"),   # 20
        ("s", "-", "s", "a"),   # 21
        ("s", "-", "a", "-"),   # 22
        ("a", "-", "-", "-"),   # 23
        ("s", "a", "-", "-"),   # 24
        ("s", "s", "-", "a"),   # 25
        ("r", "s", "-", "-"),   # 26
        ("a", "-", "s", "-"),   # 27
        ("a", "-", "r", "s"),   # 28
        ("s", "a", "r", "s"),   # 29
        ("s", "s", "r", "-"),   # 30
    ),
    DELTA_ZERO: (
        ("r", "-", "-", "-", "-"),   # 1
        ("s", "r", "-", "-", "-"),   # 2
        ("s", "r", "s", "a", "-"),   # 3
        ("s", "r", "r", "a", "s"),   # 4
        ("a", "r", "r", "-", "s"),   # 5
        ("a", "s", "r", "-", "-"),   # 6
        ("s", "-", "r", "-", "-"),   # 7
        ("s", "r", "r", "s", "-"),   # 8
        ("a", "r", "s", "-", "-"),   # 9
        ("r", "s", "-", "-", "-"),   # 10
        ("s", "-", "-", "-", "-"),   # 11
        ("s", "-", "s", "a", "-"),   # 12
        ("s", "-", "r", "a", "s"),   # 13
        ("a", "-", "r", "-", "s"),   # 14
        ("s", "a", "r", "-", "s"),   # 15
        ("s", "s", "r", "-", "-"),   # 16
        ("s", "-", "r", "s", "-"),   # 17
        ("a", "-", "s", "-", "-"),   # 18
        ("r", "-", "r", "s", "-"),   # 19
        ("r", "s", "r", "s", "-"),   # 20
    ),
}

# ThetaZero is the coordinate-swap mirror of DeltaZero.  Its rows (O, E11,
# E12, E2, E3) are the mirrored DeltaZero rows (O, E21, E22, E1, E3), and
# its columns, in the paper's numbering, are these DeltaZero columns.
_MIRROR_ROWS = tuple(LABELS_BY_FAMILY[DELTA_ZERO].index(mirror_name(label))
                     for label in LABELS_BY_FAMILY[THETA_ZERO])
_MIRROR_COLUMNS = (1, 7, 6, 5, 4, 3, 2, 8, 9, 18,
                   10, 16, 15, 14, 13, 12, 11, 17, 19, 20)

EXPECTED_SIGNATURES[THETA_ZERO] = tuple(
    tuple(EXPECTED_SIGNATURES[DELTA_ZERO][j - 1][i] for i in _MIRROR_ROWS)
    for j in _MIRROR_COLUMNS)


def expected_column(family: str, signature: tuple[str, ...]) -> int | None:
    """1-based column number of a signature in the family table, if present."""
    try:
        return EXPECTED_SIGNATURES[family].index(tuple(signature)) + 1
    except ValueError:
        return None
