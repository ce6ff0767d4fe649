"""Brute-force verification tools, independent of the primary solvers.

These deliberately avoid the closed-form seeds and quadratic formulas of the
primary path: equilibria come from sign-change scans (1-D bisection on the
axes; in the interior, lattice cells flagged by g1, then by g2 at their
corners only, refined by finite-difference Newton), Jacobians from central
differences, and sector structure from direct angular sampling with recursive
boundary refinement.  They may be orders of magnitude slower; that is fine.
cross_check holds a decomposition against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibria import find_equilibria
from .model import (Coeffs, ParamArray, ParamPoint, ReducedSystem, bracket1,
                    bracket2, field_at)
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
# grid equilibrium scan
# ---------------------------------------------------------------------------

def _bisect_1d(fn, a: float, b: float) -> float:
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0 or (b - a) < 1e-12:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _axis_roots_scan(fn, lo: float, hi: float, n: int) -> list[float]:
    """Zeros of fn on [lo, hi] from n + 1 samples, taken in one array call;
    fn must broadcast.  Each sign change is bisected on scalars."""
    xs = np.linspace(lo, hi, n + 1)
    vals = fn(xs)
    va, vb = vals[:-1], vals[1:]
    roots = []
    for k in np.flatnonzero((va == 0.0) | (va * vb < 0.0)).tolist():
        if va[k] == 0.0:
            roots.append(xs[k])
        else:
            roots.append(_bisect_1d(fn, xs[k], xs[k + 1]))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def _fd_newton(c: Coeffs, x1: float, x2: float) -> tuple[float, float] | None:
    """Finite-difference Newton on the bracket system, at most 40 steps.

    Once the residual is below 1e-12 (1 + |xi|), iterates are polished while
    the residual still falls, so two cells refining the same root agree to
    roundoff.
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
        h = 1e-7 * (1.0 + math.hypot(x1, x2))
        a = (bracket1(c, x1 + h, x2) - bracket1(c, x1 - h, x2)) / (2 * h)
        b = (bracket1(c, x1, x2 + h) - bracket1(c, x1, x2 - h)) / (2 * h)
        d = (bracket2(c, x1 + h, x2) - bracket2(c, x1 - h, x2)) / (2 * h)
        e = (bracket2(c, x1, x2 + h) - bracket2(c, x1, x2 - h)) / (2 * h)
        det = a * e - b * d
        if det == 0.0:
            return None if polished is None else polished[1]
        x1 -= (e * g1 - b * g2) / det
        x2 -= (-d * g1 + a * g2) / det
    if polished is not None:
        return polished[1]
    g1, g2 = bracket1(c, x1, x2), bracket2(c, x1, x2)
    if math.hypot(g1, g2) <= 1e-9 * scale:
        return (x1, x2)
    return None


def _straddles(G):
    """Cells of the lattice G (its first two axes) whose four corners are
    neither all > 0 nor all < 0, so an exact-zero corner flags its cell."""
    pos, neg = G > 0, G < 0
    pos, neg = pos[:-1] & pos[1:], neg[:-1] & neg[1:]
    return ~((pos[:, :-1] & pos[:, 1:]) | (neg[:, :-1] & neg[:, 1:]))


def _flagged_cells(c: Coeffs, xs, ys):
    """Row-major (i, j) of the lattice cells where both brackets straddle
    zero; g2 is evaluated only at the corners of the cells g1 straddles."""
    G1 = np.empty((len(xs), len(ys)))
    for a in range(0, len(xs), 32):   # row bands keep temporaries in cache
        G1[a:a + 32] = bracket1(c, xs[a:a + 32, None], ys)
    i, j = np.divmod(np.flatnonzero(_straddles(G1)), len(ys) - 1)
    keep = _straddles(bracket2(c, xs[np.stack([i, i + 1])[:, None]],
                               ys[np.stack([j, j + 1])[None]]))[0, 0]
    return i[keep], j[keep]


def grid_equilibria(sys: ReducedSystem, mu, window, n: int = 400,
                    jitter_seed: int | None = None) -> list[tuple[float, float]]:
    """Equilibria of the reduced field inside a rectangular window.

    window is ((x_lo, x_hi), (y_lo, y_hi)); n is the lattice resolution per
    axis (n <= 2000).  The origin and the axis roots are found by 1-D
    bisection scans, interior roots by flagging lattice cells where both
    bracket functions straddle zero (corners not all > 0 nor all < 0; g2 is
    evaluated only at the corners of the cells g1 flags) and refining with
    finite-difference Newton.  A second, half-cell-shifted pass catches roots
    that straddle cell boundaries; passing jitter_seed adds a small random
    shift as well.  Window bounds and coefficients must be finite.
    """
    if n > 2000:
        raise ValueError("n must be at most 2000 per axis")
    mu = ParamPoint.coerce(mu)
    c = sys.at(mu)
    (x_lo, x_hi), (y_lo, y_hi) = window
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi, *c))):
        raise ValueError("window bounds and coefficients must be finite")
    roots: list[tuple[float, float]] = []
    # the origin is an equilibrium by the factored structure of the field
    if x_lo <= 0.0 <= x_hi and y_lo <= 0.0 <= y_hi:
        roots.append((0.0, 0.0))

    # axis roots: zeros of the restricted bracket functions
    for r in _axis_roots_scan(lambda x: bracket1(c, x, 0.0), x_lo, x_hi, n):
        roots.append((r, 0.0))
    for r in _axis_roots_scan(lambda y: bracket2(c, 0.0, y), y_lo, y_hi, n):
        roots.append((0.0, r))

    # interior roots of the bracket system
    shifts = [(0.0, 0.0), (0.5, 0.5)]
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        shifts.append(tuple(rng.uniform(0.05, 0.45, size=2)))
    dx = (x_hi - x_lo) / n
    dy = (y_hi - y_lo) / n
    for sx, sy in shifts:
        xs = np.linspace(x_lo + sx * dx, x_hi + sx * dx, n + 1)
        ys = np.linspace(y_lo + sy * dy, y_hi + sy * dy, n + 1)
        ii, jj = _flagged_cells(c, xs, ys)
        for i, j in zip(ii.tolist(), jj.tolist()):
            got = _fd_newton(c, 0.5 * (xs[i] + xs[i + 1]),
                             0.5 * (ys[j] + ys[j + 1]))
            if got is None:
                continue
            gx, gy = got
            if not (x_lo - dx <= gx <= x_hi + dx and y_lo - dy <= gy <= y_hi + dy):
                continue
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
    radius: float
    blocks: list[SignScanBlock]


# sign_scan drops signature blocks narrower than this (radians), and its
# bisection stops below NARROW_FLOOR / 100, well inside the block-edge
# tolerance of cross_check
NARROW_FLOOR = 2e-6


def sign_scan(sys: ReducedSystem, r: float, n_angles: int = 1440) -> SignScan:
    """Run-length-encoded signature structure of the circle |mu| = r.

    Samples n_angles directions (offset by half a step so the axes are never
    hit exactly) and recursively bisects every pair of neighbouring samples
    with different signatures, so blocks far narrower than the base step are
    still resolved.  Blocks narrower than NARROW_FLOOR (radians) are the
    classification tolerance bands hugging each boundary (collision and
    properness flags have radius-independent angular width well below 1e-6)
    and are dropped.  Genuine sectors are that thin only when two curves
    nearly coincide, such as T1 of slope 1e-6 against an axis; there, too,
    the collision bands can widen to blocks of their own (0.2 rad where E1
    sits within TOL_COLLIDE * |mu| of E0), so the scan does not match the
    decomposition.  Wrap-around blocks are merged.
    """
    if n_angles < 720:
        raise ValueError("n_angles must be at least 720")
    if r <= 0.0:
        raise ValueError("sign_scan requires r > 0")
    step = TWO_PI / n_angles
    angles = [(k + 0.5) * step for k in range(n_angles)]
    sig = lambda phi: signature_at(sys, ParamPoint.from_polar(r, phi))
    sigs = signature_at(sys, ParamArray.from_polar(r, angles))

    events: list[tuple[float, tuple[str, ...]]] = []

    def refine(a: float, sa, b: float, sb):
        # invariant: sa != sb; record every signature block inside (a, b)
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
        b = angles[(k + 1) % n_angles] + (0.0 if k + 1 < n_angles else TWO_PI)
        sb = sigs[(k + 1) % n_angles]
        if sa != sb:
            refine(a, sa, b, sb)

    if not events:
        return SignScan(r, [SignScanBlock(0.0, TWO_PI, sigs[0])])

    events.sort()
    blocks = [SignScanBlock(ang % TWO_PI,
                            events[(i + 1) % len(events)][0] % TWO_PI, s)
              for i, (ang, s) in enumerate(events)]

    def cyclic_merge(items: list[SignScanBlock]) -> list[SignScanBlock]:
        out: list[SignScanBlock] = []
        for b in items:
            if out and out[-1].signature == b.signature:
                out[-1] = SignScanBlock(out[-1].start, b.end, b.signature)
            else:
                out.append(b)
        if len(out) > 1 and out[0].signature == out[-1].signature:
            first = out.pop(0)
            out[-1] = SignScanBlock(out[-1].start, first.end, first.signature)
        return out

    merged = cyclic_merge(blocks)
    wide = [b for b in merged
            if ((b.end - b.start) % TWO_PI or TWO_PI) >= NARROW_FLOOR]
    if wide:
        merged = cyclic_merge(wide)
    merged.sort(key=lambda b: b.start)
    return SignScan(r, merged)


def blocks_from(scan: SignScan, phi: float) -> list[SignScanBlock]:
    """Blocks in cyclic order starting from the one containing angle phi."""
    phi %= TWO_PI
    n = len(scan.blocks)
    for i, b in enumerate(scan.blocks):
        width = (b.end - b.start) % TWO_PI or TWO_PI
        if (phi - b.start) % TWO_PI < width:
            return [scan.blocks[(i + k) % n] for k in range(n)]
    return list(scan.blocks)


# ---------------------------------------------------------------------------
# the cross-check of a decomposition
# ---------------------------------------------------------------------------

# grid window half-width: WINDOW_SCALE times the largest |xi| of the primary
# solver's equilibria, plus r / WINDOW_PAD
WINDOW_SCALE = 1.7
WINDOW_PAD = 10.0

# lattice resolution per axis of the cross-check's grid scans
GRID_N = 300

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


def _grid_roots_match(sys: ReducedSystem, mu: ParamPoint, r: float,
                      jitter_seed: int | None) -> bool:
    eqs = find_equilibria(sys, mu)
    m = (max(max(abs(e.xi[0]), abs(e.xi[1])) for e in eqs) * WINDOW_SCALE
         + r / WINDOW_PAD)
    roots = grid_equilibria(sys, mu, ((-m, m), (-m, m)), n=GRID_N,
                            jitter_seed=jitter_seed)
    return len(roots) == len(eqs) and all(
        min(math.hypot(e.xi[0] - q[0], e.xi[1] - q[1]) for q in roots)
        < ROOT_TOL for e in eqs)


def cross_check(sys: ReducedSystem, sectors: list[RegionReport],
                jitter_seed: int | None = None) -> CrossCheck:
    """Hold decompose's sectors against sign_scan and grid_equilibria on
    the circle they were cut on, sectors[0].radius (below the requested
    one after a retry).  edge_gap is inf when the block and sector counts
    differ; jitter_seed goes to grid_equilibria."""
    r = sectors[0].radius
    blocks = blocks_from(sign_scan(sys, r), sectors[0].representative.angle)
    gap = math.inf
    if len(blocks) == len(sectors):
        gap = max(abs((b.start - s.angles[0] + math.pi) % TWO_PI - math.pi)
                  for b, s in zip(blocks, sectors))
    return CrossCheck(
        rle=[b.signature for b in blocks] == [s.signature for s in sectors],
        edge_gap=gap,
        roots=[_grid_roots_match(sys, s.representative, r, jitter_seed)
               for s in sectors])


__all__ = ["fd_jacobian", "grid_equilibria", "SignScan", "SignScanBlock",
           "sign_scan", "blocks_from", "CrossCheck", "cross_check"]
