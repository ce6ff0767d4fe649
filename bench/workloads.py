"""Seeded inputs, item runners and output checks for the three workloads.

Every workload is a list of items.  An item runs library calls on one input
and returns a verdict plus a digest of its outputs; a pass runs every item
once.  Library functions are looked up on their modules at call time, so the
tracer in ``spans.py`` sees every call the driver makes.

In the timed passes (see ``timing``) a short reference loop, ``probe_ms``,
runs before and after every item, and it reads the host's speed at that
moment.  Items of ``oracle`` and ``portraits`` take 0.3 to 3 s, so their
time is also taken in laps: each call of the library functions in
``Workload.laps`` is one lap, with a probe before and after it, and the
rest of the item is one more.

A failed check never aborts the pass: the item is counted as failed, with
the reason, and the pass goes on.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import lvbif
from lvbif import bifurcation, cases, dynamics, emit, oracle
from lvbif.model import DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ParamPoint
from lvbif.poly import CoefficientPoly

FAMILIES = (NONDEGENERATE, DELTA_ZERO, THETA_ZERO)

# tables: radii of the curve samples, as `lvbif curves --radii 1e-3,1e-4`
TABLE_R = 1e-3
CURVE_RADII = (1e-3, 1e-4)

# oracle: as `lvbif verify --oracle`, plus seeded random systems; two per
# family keeps a pass near 10 s, so a run times every item about three times
ORACLE_R = 1e-3
RANDOM_PER_FAMILY = 2
RANDOM_R = (2e-4, 3e-3)
SCAN_ANGLES = 1440
GRID_N = 300
ROOT_TOL = 1e-9

# portraits: criterion-13 attractor needs >= 90 of 100 lattice hits
GRID = 10
MIN_HITS = 90
MIN_COORD = -1e-9


@dataclass
class Item:
    """One unit of work: ``run()`` returns (ok, reason, digest)."""

    name: str
    run: object
    family: str = ""


@dataclass
class ItemResult:
    name: str
    ms: float
    ok: bool
    reason: str
    digest: str
    probe: float = 0.0     # mean probe ms before and after the item
    # (ms, mean probe ms before and after) of each lap, in order
    laps: list = field(default_factory=list)


@dataclass
class Workload:
    items: list[Item]
    # family-level steps of `tables`; a failure marks that family's items
    family_steps: list[Item] = field(default_factory=list)
    # (module, attribute) of the library functions whose calls are timed
    # as laps; each is replaced on that module only
    laps: tuple = ()

    def describe(self) -> list[str]:
        """The item names, which spell out every input."""
        return [it.name for it in self.items + self.family_steps]

    def input_digest(self) -> str:
        return _sha(repr(self.describe()))


def _sha(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def _fmt_system(sys_) -> str:
    return repr(sys_.to_json_dict())


# ---------------------------------------------------------------------------
# seeded random systems (same distributions as the test suite's generators)
# ---------------------------------------------------------------------------

def _rand_poly(rng, c0, d1=None, d2=None, spread=0.4):
    d1 = rng.uniform(-spread, spread) if d1 is None else d1
    d2 = rng.uniform(-spread, spread) if d2 is None else d2
    return CoefficientPoly({(0, 0): c0, (1, 0): d1, (0, 1): d2,
                            (2, 0): rng.uniform(-spread, spread),
                            (1, 1): rng.uniform(-spread, spread),
                            (0, 2): rng.uniform(-spread, spread)}, degree=2)


def _pm(rng) -> float:
    return float(rng.choice([-1, 1]))


def rand_nondegenerate(rng):
    while True:
        th = rng.uniform(0.2, 2.5) * _pm(rng)
        de = rng.uniform(0.2, 2.5) * _pm(rng)
        if abs(th * de - 1.0) >= 0.1:
            break
    g = rng.uniform(0.4, 2.5)
    c = [rng.uniform(-0.5, 0.5) for _ in range(6)]
    return lvbif.ReducedSystem.from_coeffs(
        theta=_rand_poly(rng, th), delta=_rand_poly(rng, de),
        gamma=_rand_poly(rng, g),
        **{k: _rand_poly(rng, v) for k, v in zip("MNLSPR", c)})


def rand_deltazero(rng):
    """DeltaZero system with P(0) > 0, the sign the tables cover."""
    while True:
        g = rng.uniform(0.5, 2.0)
        d1 = rng.uniform(0.4, 2.0) * _pm(rng)
        P0 = rng.uniform(0.4, 2.0)
        if abs(2.0 * P0 - d1 * g) >= 0.3 and abs(g * d1 - P0) >= 0.2:
            break
    d2 = rng.uniform(0.3, 1.0) * _pm(rng)
    g2 = rng.uniform(0.3, 1.0) * _pm(rng)
    th = rng.uniform(0.4, 2.0) * _pm(rng)
    c = [rng.uniform(-0.4, 0.4) for _ in range(5)]
    return lvbif.ReducedSystem.from_coeffs(
        theta=_rand_poly(rng, th), gamma=_rand_poly(rng, g, d2=g2),
        delta=_rand_poly(rng, 0.0, d1=d1, d2=d2), P=_rand_poly(rng, P0),
        **{k: _rand_poly(rng, v) for k, v in zip("MNLSR", c)})


def rand_thetazero(rng):
    """ThetaZero system with N(0) > 0, the sign the tables cover."""
    while True:
        g = rng.uniform(0.5, 2.0)
        t2 = rng.uniform(0.4, 2.0) * _pm(rng)
        N0 = rng.uniform(0.4, 2.0)
        if abs(2.0 * N0 * g - t2) >= 0.3 and abs(t2 - N0 * g) >= 0.2:
            break
    t1 = rng.uniform(0.3, 1.0) * _pm(rng)
    g1 = rng.uniform(0.3, 1.0) * _pm(rng)
    de = rng.uniform(0.4, 2.0) * _pm(rng)
    c = [rng.uniform(-0.4, 0.4) for _ in range(5)]
    return lvbif.ReducedSystem.from_coeffs(
        delta=_rand_poly(rng, de), gamma=_rand_poly(rng, g, d1=g1),
        theta=_rand_poly(rng, 0.0, d1=t1, d2=t2), N=_rand_poly(rng, N0),
        **{k: _rand_poly(rng, v) for k, v in zip("MPLSR", c)})


RANDOM_BY_FAMILY = {NONDEGENERATE: rand_nondegenerate,
                    DELTA_ZERO: rand_deltazero,
                    THETA_ZERO: rand_thetazero}


def canonical_fixtures():
    """(family, case id, system) for the 22 canonical fixtures."""
    return [(fam, cid, sys_) for fam in FAMILIES
            for cid, sys_ in cases.CANONICAL_BY_FAMILY[fam]]


# ---------------------------------------------------------------------------
# tables: `lvbif verify` plus `lvbif curves` on every canonical fixture
# ---------------------------------------------------------------------------

def _table_item(fam, cid, sys_) -> Item:
    def run():
        desc = lvbif.select_case(sys_)
        sectors = lvbif.decompose(sys_, desc, TABLE_R)
        parts = [[(s.angles, s.signature) for s in sectors]]
        for kind in bifurcation.admissible_kinds(sys_):
            try:
                curve = lvbif.trace_curve(sys_, kind, list(CURVE_RADII))
            except lvbif.NotApplicable:
                continue      # `lvbif curves` skips these kinds as well
            parts.append((kind, [(p.mu1, p.mu2) for p in curve.samples]))
        return True, "", _sha(repr(parts))
    return Item(f"tables/{fam}/{cid}", run, fam)


def _family_step(fam, fixtures) -> Item:
    def run():
        report = lvbif.verify_tables(fam, r=TABLE_R, cases=fixtures)
        suite = lvbif.sotomayor_suite(fam)
        reasons = []
        if not report.success:
            reasons.append(f"verify_tables: {report.total_regions} regions, "
                           f"{len(report.unmatched_computed)} unexpected")
        if not suite.success:
            reasons.append(f"sotomayor_suite: {suite.failures[0]}")
        digest = _sha(repr((report.distinct, suite.lines)))
        return not reasons, "; ".join(reasons), digest
    return Item(f"family/{fam}", run, fam)


def build_tables(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    fixtures = canonical_fixtures()
    order = rng.permutation(len(fixtures))
    items = [_table_item(*fixtures[k]) for k in order]
    steps = [_family_step(fam, [(cid, s) for f, cid, s in fixtures if f == fam])
             for fam in FAMILIES]
    return Workload(items, steps)


# ---------------------------------------------------------------------------
# oracle: decomposition against the angular sign scan and the grid roots
# ---------------------------------------------------------------------------

def oracle_check(sys_, r, jitter_seed) -> tuple[bool, str, str]:
    """Cross-check one system on |mu| = r; returns (ok, reason, digest)."""
    sectors = lvbif.decompose(sys_, None, r)
    scan = lvbif.sign_scan(sys_, r, SCAN_ANGLES)
    dec = [s.signature for s in sectors]
    got = [b.signature for b in
           oracle.blocks_from(scan, sectors[0].representative.angle)]
    reasons = []
    if got != dec:
        reasons.append(f"RLE mismatch: decompose {len(dec)} sectors, "
                       f"sign_scan {len(got)} blocks")
    roots_all = []
    for s in sectors:
        mu = s.representative
        eqs = lvbif.find_equilibria(sys_, mu)
        m = max(max(abs(e.xi[0]), abs(e.xi[1])) for e in eqs) * 1.7 + r / 10.0
        roots = lvbif.grid_equilibria(sys_, mu, ((-m, m), (-m, m)), n=GRID_N,
                                      jitter_seed=jitter_seed)
        roots_all.append(roots)
        matched = len(roots) == len(eqs) and all(
            min(math.hypot(e.xi[0] - q[0], e.xi[1] - q[1]) for q in roots)
            < ROOT_TOL for e in eqs)
        if not matched:
            reasons.append(f"root-set mismatch at phi={mu.angle:.6f}: "
                           f"{len(eqs)} labels, {len(roots)} grid roots")
    return not reasons, "; ".join(reasons), _sha(repr((got, dec, roots_all)))


def build_oracle(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    inputs = [(f"oracle/{fam}/{cid}", sys_, ORACLE_R)
              for fam, cid, sys_ in canonical_fixtures()]
    for fam in FAMILIES:
        for k in range(RANDOM_PER_FAMILY):
            sys_ = RANDOM_BY_FAMILY[fam](rng)
            r = float(rng.uniform(*RANDOM_R))
            inputs.append((f"oracle/{fam}/random{k}:{_fmt_system(sys_)}",
                           sys_, r))
    jitters = rng.integers(0, 2**31, size=len(inputs)).tolist()
    items = []
    for (name, sys_, r), jit in zip(inputs, jitters):
        items.append(Item(f"{name}@r={r!r},jitter={jit}",
                          lambda s=sys_, r=r, j=jit: oracle_check(s, r, j)))
    return Workload(items, laps=tuple(
        (lvbif, name) for name in ("decompose", "sign_scan", "find_equilibria",
                                   "grid_equilibria")))


# ---------------------------------------------------------------------------
# portraits: `lvbif portrait --grid 10` with SVG and CSV output
# ---------------------------------------------------------------------------

def _portrait_item(name, sys_, mu, tol, target) -> Item:
    def run():
        port = lvbif.portrait(sys_, mu, grid_density=GRID, tol=tol)
        svg = emit.portrait_svg(port)
        csv = emit.trajectories_csv(port.trajectories + port.separatrices)
        reasons = []
        if target is not None:
            hits = sum(tr.terminal_label == target for tr in port.trajectories)
            if hits < MIN_HITS:
                reasons.append(f"{hits} of {GRID * GRID} reach {target}")
        low = min(float(tr.states.min())
                  for tr in port.trajectories + port.separatrices)
        if low < MIN_COORD:
            reasons.append(f"coordinate {low:.3e} below {MIN_COORD:g}")
        return not reasons, "; ".join(reasons), _sha(svg + "\0" + csv)
    return Item(name, run)


def build_portraits(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    attractor = cases.nondegenerate_case(-2.0, -1.0)
    saddle = cases.nondegenerate_case(0.5, 0.5)
    fold = cases.deltazero_case(1.0, 1.5)
    fold_tol = replace(lvbif.Tolerances(), epsilon_disk=2e-2)
    polar = lambda deg: ParamPoint.from_polar(1e-3, math.radians(deg))
    specs = [
        ("portrait/attractor@45", attractor, polar(45.0), None, "E3"),
        ("portrait/attractor@112.5", attractor, polar(112.5), None, "E3"),
        ("portrait/attractor@157", attractor, polar(157.0), None, "E2"),
        ("portrait/saddle@216", saddle, polar(216.0), None, None),
        ("portrait/fold@mu1=-2e-3", fold,
         bifurcation.parabola_point(fold, bifurcation.D_NEG, -2e-3),
         fold_tol, None),
    ]
    items = []
    for k in rng.permutation(len(specs)):
        name, sys_, mu, tol, target = specs[k]
        items.append(_portrait_item(name, sys_, mu, tol or lvbif.Tolerances(),
                                    target))
    # `portrait` and `separatrices` look `integrate` up on lvbif.dynamics
    return Workload(items, laps=((dynamics, "integrate"),
                                 (emit, "portrait_svg"),
                                 (emit, "trajectories_csv")))


BUILDERS = {"tables": build_tables, "oracle": build_oracle,
            "portraits": build_portraits}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

PROBE_LOOP = 2000          # sized to take about 0.25 ms on a 2-core VM
PROBE_ARRAY = np.arange(8.0)
_timing = False            # probes and laps on, in the timed passes
_laps: list | None = None  # laps of the running item
_in_lap = False


def probe_ms() -> float:
    """ms of a fixed reference loop: the host's speed at this moment.

    Interpreted arithmetic and small numpy operations, the mix lvbif runs.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    a = PROBE_ARRAY
    for _ in range(40):
        a = a * 1.0000001 + 1e-9
    return (time.perf_counter() - t0) * 1e3


def _lap(fn):
    @functools.wraps(fn)
    def timed(*args, **kw):
        global _in_lap
        if _laps is None or _in_lap:      # a nested call is part of its lap
            return fn(*args, **kw)
        _in_lap = True
        before = probe_ms()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            ms = (time.perf_counter() - t0) * 1e3
            _laps.append((ms, (before + probe_ms()) / 2.0))
            _in_lap = False
    return timed


@contextlib.contextmanager
def timing(wl: Workload):
    """Probe the host around every item and lap, and time ``wl.laps``."""
    global _timing
    saved = [(mod, name, getattr(mod, name)) for mod, name in wl.laps]
    for mod, name, fn in saved:
        setattr(mod, name, _lap(fn))
    _timing = True
    try:
        yield
    finally:
        _timing = False
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def run_item(item: Item) -> ItemResult:
    global _laps
    laps, _laps = _laps, []
    before = probe_ms() if _timing else 0.0
    t0 = time.perf_counter()
    try:
        ok, reason, digest = item.run()
    except Exception as exc:          # a failed item, never an aborted pass
        where = traceback.extract_tb(exc.__traceback__)[-1]
        ok, digest = False, ""
        reason = (f"{type(exc).__name__}: {exc} "
                  f"(at {Path(where.filename).name}:{where.lineno})")
    finally:
        ms = (time.perf_counter() - t0) * 1e3
        laps, _laps = _laps, laps
    probe = (before + probe_ms()) / 2.0 if _timing else 0.0
    return ItemResult(item.name, ms, ok, reason, digest, probe, laps)


def run_pass(wl: Workload, on_item=None, until=None):
    """One pass over the input set.

    Returns (wall seconds, item results, family step results).  A family
    step of ``tables`` is folded into the results of that family's fixtures:
    its failure fails them and its digest joins theirs.  ``on_item`` wraps
    each item call (the tracer opens its root span there).  With ``until``
    (a ``time.perf_counter()`` value), on a workload without family steps,
    no item starts after that time.
    """
    call = on_item or (lambda item: run_item(item))
    t0 = time.perf_counter()
    results = []
    for it in wl.items:
        if until is not None and time.perf_counter() >= until:
            break
        results.append(call(it))
    steps = [call(st) for st in wl.family_steps]
    wall = time.perf_counter() - t0
    for st, res in zip(wl.family_steps, steps):
        for it, r in zip(wl.items, results):
            if it.family == st.family:
                r.digest = _sha(r.digest + res.digest)
                if not res.ok:
                    r.ok = False
                    r.reason = r.reason or f"{st.name}: {res.reason}"
    return wall, results, steps
