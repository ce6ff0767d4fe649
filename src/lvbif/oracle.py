"""Brute-force verification tools, independent of the primary solvers.

These deliberately avoid the closed-form seeds and quadratic formulas of the
primary path: equilibria come from elimination (companion-matrix roots of the
axis quadratics, and of the resultant quartic of the two brackets, whose
interior roots Newton on the brackets refines), the field's Jacobian from
central differences, and sector structure from direct angular sampling with
recursive boundary refinement.  They may be orders of magnitude slower;
that is fine.  cross_check holds a decomposition against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibria import find_equilibria
from .model import (Coeffs, ParamArray, ParamPoint, ReducedSystem, bracket1,
                    bracket2, bracket_jacobian_at, field_at)
from .regions import TWO_PI, RegionReport, signature_at


def fd_jacobian(sys: ReducedSystem, mu, xi):
    """Central-difference Jacobian of the reduced field."""
    mu = ParamPoint.coerce(mu)
    x1, x2 = float(xi[0]), float(xi[1])
    h = 1e-6 * (1.0 + math.hypot(x1, x2))
    c = sys.at(mu)
    f = lambda a, b: field_at(c, (a, b))
    fxp = f(x1 + h, x2)
    fxm = f(x1 - h, x2)
    fyp = f(x1, x2 + h)
    fym = f(x1, x2 - h)
    return (((fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)),
            ((fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)))


# ---------------------------------------------------------------------------
# equilibria by elimination
# ---------------------------------------------------------------------------

def _bracket_newton(c: Coeffs, x1: float, x2: float
                    ) -> tuple[float, float] | None:
    """Newton on the bracket system with its exact Jacobian, at most 40
    steps; None unless the residual falls below 1e-12 (1 + |seed|).

    From there iterates are polished while the residual still falls, so two
    seeds refining the same root agree to roundoff.
    """
    scale = 1.0 + math.hypot(x1, x2)
    polished = None   # (residual, point) once below 1e-12 scale
    for _ in range(40):
        g1, g2 = bracket1(c, x1, x2), bracket2(c, x1, x2)
        res = math.hypot(g1, g2)
        if polished is not None and res >= polished[0]:
            return polished[1]
        if res == 0.0:
            return (x1, x2)
        if res <= 1e-12 * scale:
            polished = (res, (x1, x2))
        (a, b), (d, e) = bracket_jacobian_at(c, (x1, x2))
        det = a * e - b * d
        if det == 0.0:
            return None if polished is None else polished[1]
        x1 -= (e * g1 - b * g2) / det
        x2 -= (-d * g1 + a * g2) / det
    # an iterate that has not reached the polish tolerance is no root
    return None if polished is None else polished[1]


def _horner(p: list[float], x: float) -> float:
    acc = 0.0
    for a in p:
        acc = acc * x + a
    return acc


def _interior_seeds(c: Coeffs) -> list[tuple[float, float]]:
    """Seeds of the interior roots, by eliminating y.

    Write g1 = L y^2 + a1(x) y + a0(x) and g2 = P y^2 + b1(x) y + b0(x).
    Their Sylvester resultant in y,
    Res = u^2 - v w with u = L b0 - P a0, v = L b1 - P a1, w = a1 b0 - a0 b1,
    is a quartic in x (w alone when L = P = 0, where Res vanishes
    identically).  The real part of each of its roots seeds x, so a near
    double root that comes back as a complex pair is still seeded.  y comes
    from P g1 - L g2 = -(v y + u), linear in y, and from the roots of
    g1(x, .) where that is degenerate (v(x) = 0 there, as when L = P, M = S
    and gamma = delta).  Polynomials are numpy's highest-first lists.
    """
    a1, a0 = [c.M, c.gamma], [c.N, c.theta, c.mu1]
    b1, b0 = [c.S, c.delta], [c.R, 1.0 / c.gamma, c.mu2]
    u = [c.L * b - c.P * a for a, b in zip(a0, b0)]
    v = [c.L * b - c.P * a for a, b in zip(a1, b1)]
    w = np.convolve(a1, b0) - np.convolve(a0, b1)
    res = w if c.L == c.P == 0.0 else np.convolve(u, u) - np.convolve(v, w)
    seeds = []
    for x in np.roots(res).real.tolist():
        a1x, a0x, b1x, ux, vx = (_horner(p, x) for p in (a1, a0, b1, u, v))
        if abs(vx) > 1e-12 * (abs(c.L * b1x) + abs(c.P * a1x)):
            seeds.append((x, -ux / vx))
        else:
            seeds += [(x, y) for y in np.roots([c.L, a1x, a0x]).real.tolist()]
    return seeds


def _real_roots_in(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of the polynomial with these coefficients."""
    return [r.real for r in np.roots(coeffs).tolist()
            if r.imag == 0.0 and lo <= r.real <= hi]


def grid_equilibria(sys: ReducedSystem, mu, window, n: int = 400,
                    jitter_seed: int | None = None) -> list[tuple[float, float]]:
    """Equilibria of the reduced field inside the closed rectangular window
    ((x_lo, x_hi), (y_lo, y_hi)), by elimination.

    Both brackets are conics in (xi1, xi2), so there are at most 4 interior
    equilibria (Bezout), seeded from the roots of one resultant quartic
    (_interior_seeds) and refined by Newton on the brackets; the axis roots
    are the real roots of the two axis quadratics, and the origin is always
    an equilibrium.  Roots come from companion-matrix eigenvalues
    (np.roots; Edelman & Murakami 1995), never from the primary solver's
    closed-form seeds.  n and jitter_seed, the resolution and the shift of
    the lattice this replaced, are accepted and ignored.  Window bounds and
    coefficients must be finite.
    """
    mu = ParamPoint.coerce(mu)
    c = sys.at(mu)
    (x_lo, x_hi), (y_lo, y_hi) = window
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi, *c))):
        raise ValueError("window bounds and coefficients must be finite")
    roots: list[tuple[float, float]] = []
    # the origin is an equilibrium by the factored structure of the field
    if x_lo <= 0.0 <= x_hi and y_lo <= 0.0 <= y_hi:
        roots.append((0.0, 0.0))
    # axis roots: zeros of g1(x, 0) and g2(0, y)
    if y_lo <= 0.0 <= y_hi:
        roots += [(x, 0.0) for x in _real_roots_in([c.N, c.theta, c.mu1],
                                                   x_lo, x_hi)]
    if x_lo <= 0.0 <= x_hi:
        roots += [(0.0, y) for y in _real_roots_in([c.P, c.delta, c.mu2],
                                                   y_lo, y_hi)]
    for x, y in _interior_seeds(c):
        got = _bracket_newton(c, x, y)
        if got is not None and (x_lo <= got[0] <= x_hi
                                and y_lo <= got[1] <= y_hi):
            roots.append(got)

    # dedupe
    scale = max(x_hi - x_lo, y_hi - y_lo, 1e-30)
    out: list[tuple[float, float]] = []
    for r in roots:
        if all(math.hypot(r[0] - q[0], r[1] - q[1]) > 1e-9 * scale + 1e-15
               for q in out):
            out.append(r)
    return sorted(out)


# ---------------------------------------------------------------------------
# angular signature scan
# ---------------------------------------------------------------------------

@dataclass
class SignScanBlock:
    start: float
    end: float
    signature: tuple[str, ...]


@dataclass
class SignScan:
    blocks: list[SignScanBlock]


# sign_scan drops signature blocks narrower than this (radians), and its
# bisection stops below NARROW_FLOOR / 100, well inside the block-edge
# tolerance of cross_check
NARROW_FLOOR = 2e-6

# bisection levels sign_scan classifies per array signature_at call
LEVELS = 5


def sign_scan(sys: ReducedSystem, r: float, n_angles: int = 1440) -> SignScan:
    """Run-length-encoded signature blocks of |mu| = r, sorted by start.

    Samples n_angles directions (offset by half a step so the axes are never
    hit exactly) and bisects every pair of neighbouring samples with
    different signatures, so blocks far narrower than the base step are
    still resolved.  Blocks narrower than NARROW_FLOOR (radians) are the
    classification tolerance bands hugging each boundary (collision and
    properness flags have radius-independent angular width well below 1e-6)
    and are dropped.  Genuine sectors are that thin only when two curves
    nearly coincide, such as T1 of slope 1e-6 against an axis; there, too,
    the collision bands can widen to blocks of their own (0.2 rad where E1
    sits within TOL_COLLIDE * |mu| of E0), so the scan does not match the
    decomposition.  Equal neighbours left by a dropped block are merged,
    across the zero angle too.

    The bisection runs in rounds of LEVELS levels.  Each round classifies
    the whole LEVELS-deep midpoint tree of every open interval in one array
    signature_at call, then descends each tree wherever the signatures
    differ, as a one-midpoint-at-a-time recursion would; the points and
    the blocks are bitwise that recursion's.  The trees hold midpoints the
    recursion never visits, so AmbiguousLabel can be raised at one of
    them, as it is at any ambiguous base sample.
    """
    if n_angles < 720:
        raise ValueError("n_angles must be at least 720")
    if r <= 0.0:
        raise ValueError("sign_scan requires r > 0")
    step = TWO_PI / n_angles
    angles = [(k + 0.5) * step for k in range(n_angles)]
    sigs = signature_at(sys, ParamArray.from_polar(r, angles))
    floor = NARROW_FLOOR / 100.0

    events: list[tuple[float, tuple[str, ...]]] = []
    # open intervals (a, sa, b, sb) with sa != sb
    todo = [(angles[k], sigs[k],
             angles[(k + 1) % n_angles] + (0.0 if k + 1 < n_angles else TWO_PI),
             sigs[(k + 1) % n_angles])
            for k in range(n_angles) if sigs[k] != sigs[(k + 1) % n_angles]]
    while todo:
        mids = []
        for a, _, b, _ in todo:
            spans = [(a, b)]
            for _ in range(LEVELS):
                below = []
                for lo, hi in spans:
                    if hi - lo >= floor:
                        m = 0.5 * (lo + hi)
                        mids.append(m)
                        below += [(lo, m), (m, hi)]
                spans = below
        # the walk below recomputes each midpoint bit for bit to look it up
        sig_of = dict(zip(mids, signature_at(sys,
                                             ParamArray.from_polar(r, mids))))
        still_open = []

        def descend(a: float, sa, b: float, sb, depth: int):
            # invariant: sa != sb; record every signature block inside (a, b)
            if b - a < floor:
                events.append((b, sb))
                return
            if depth == LEVELS:
                still_open.append((a, sa, b, sb))
                return
            m = 0.5 * (a + b)
            sm = sig_of[m]
            if sm != sa:
                descend(a, sa, m, sm, depth + 1)
            if sm != sb:
                descend(m, sm, b, sb, depth + 1)

        for interval in todo:
            descend(*interval, 0)
        todo = still_open

    if not events:
        return SignScan([SignScanBlock(0.0, TWO_PI, sigs[0])])

    # each event changes the signature, so neighbouring blocks differ, also
    # across the zero angle, until narrow blocks are dropped
    events.sort()
    blocks = [SignScanBlock(ang % TWO_PI,
                            events[(i + 1) % len(events)][0] % TWO_PI, s)
              for i, (ang, s) in enumerate(events)]
    wide = [b for b in blocks
            if ((b.end - b.start) % TWO_PI or TWO_PI) >= NARROW_FLOOR]
    out: list[SignScanBlock] = []
    for b in wide or blocks:
        if out and out[-1].signature == b.signature:
            out[-1] = SignScanBlock(out[-1].start, b.end, b.signature)
        else:
            out.append(b)
    if len(out) > 1 and out[0].signature == out[-1].signature:
        first = out.pop(0)
        out[-1] = SignScanBlock(out[-1].start, first.end, first.signature)
    out.sort(key=lambda b: b.start)
    return SignScan(out)


def blocks_from(scan: SignScan, phi: float) -> list[SignScanBlock]:
    """The blocks in cyclic order from the last to start at or before phi:
    the block holding phi, or the one before a dropped narrow block's gap."""
    first = min(range(len(scan.blocks)),
                key=lambda i: (phi - scan.blocks[i].start) % TWO_PI)
    return scan.blocks[first:] + scan.blocks[:first]


# ---------------------------------------------------------------------------
# the cross-check of a decomposition
# ---------------------------------------------------------------------------

# grid window half-width: WINDOW_SCALE times the largest |xi| of the primary
# solver's equilibria, plus r / WINDOW_PAD
WINDOW_SCALE = 1.7
WINDOW_PAD = 10.0

# distance within which a grid root matches a primary equilibrium
ROOT_TOL = 1e-9


@dataclass
class CrossCheck:
    """A decomposition against the brute-force oracles, part by part."""

    rle: bool              # the aligned scan blocks carry the signatures
    edge_gap: float        # largest block start to lower boundary (radians)
    roots: list[bool]      # per sector: grid roots match the solver's

    @property
    def edges(self) -> bool:
        return self.edge_gap <= NARROW_FLOOR

    @property
    def ok(self) -> bool:
        return self.rle and self.edges and all(self.roots)


def _grid_roots_match(sys: ReducedSystem, mu: ParamPoint, r: float) -> bool:
    eqs = find_equilibria(sys, mu)
    m = (max(max(abs(e.xi[0]), abs(e.xi[1])) for e in eqs) * WINDOW_SCALE
         + r / WINDOW_PAD)
    roots = grid_equilibria(sys, mu, ((-m, m), (-m, m)))
    return len(roots) == len(eqs) and all(
        min(math.hypot(e.xi[0] - q[0], e.xi[1] - q[1]) for q in roots)
        < ROOT_TOL for e in eqs)


def cross_check(sys: ReducedSystem, sectors: list[RegionReport]) -> CrossCheck:
    """Hold decompose's sectors against sign_scan and grid_equilibria on
    the circle they were cut on, sectors[0].radius (below the requested
    one after a retry).  edge_gap is inf when the block and sector counts
    differ."""
    r = sectors[0].radius
    blocks = blocks_from(sign_scan(sys, r), sectors[0].representative.angle)
    gap = math.inf
    if len(blocks) == len(sectors):
        gap = max(abs((b.start - s.angles[0] + math.pi) % TWO_PI - math.pi)
                  for b, s in zip(blocks, sectors))
    return CrossCheck(
        rle=[b.signature for b in blocks] == [s.signature for s in sectors],
        edge_gap=gap,
        roots=[_grid_roots_match(sys, s.representative, r) for s in sectors])
