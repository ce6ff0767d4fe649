"""Trajectory integration, separatrices, and phase portraits.

The field is a smooth cubic at O(|mu|) scale, so a batched in-repo
Dormand–Prince 5(4) pair (rtol 1e-10, atol 1e-12) integrates every seed of
a call, a whole portrait included, as one row of an array; its controller
and events follow scipy's RK45 (Hairer–Nørsett–Wanner, *Solving ODEs I*,
§II.4, §II.6), and each fired event is located alone, on floats, by
model._roots.  Linearization rates are O(|mu|), hence the default time
horizon scales as 50/|mu|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibria import SADDLE, TOL, Equilibrium, EquilibriumList, Tolerances, find_equilibria
from .errors import StepFailure
from .model import ParamPoint, ReducedSystem, _roots, field_at, jacobian_at

RTOL = 1e-10
ATOL = 1e-12

CONVERGED = "ConvergedToEquilibrium"
LEFT_WINDOW = "LeftWindow"
MAX_TIME = "MaxTime"

# Dormand–Prince 5(4): stage rows A, weights B, error weights E, and D for
# the quartic dense output (Hairer–Nørsett–Wanner I, §II.6, as in DOPRI5)
_A = [np.array(a) for a in ((1/5,), (3/40, 9/40), (44/45, -56/15, 32/9),
      (19372/6561, -25360/2187, 64448/6561, -212/729),
      (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))]
_B = np.r_[35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84]
_E = np.r_[-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_D = np.r_[-12715105075/11282082432, 0.0, 87487479700/32700410799,
           -10690763975/1880347072, 701980252875/199316789632,
           -1453857185/822651844, 69997945/29380423]
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass
class Trajectory:
    initial: tuple[float, float]
    direction: str                    # "forward" | "backward"
    times: np.ndarray
    states: np.ndarray                # shape (n, 2)
    terminal: str
    terminal_label: str | None = None

    @property
    def final(self) -> tuple[float, float]:
        return (float(self.states[-1, 0]), float(self.states[-1, 1]))


@dataclass
class Portrait:
    mu: ParamPoint
    window: float                     # box [0, window]^2
    equilibria: EquilibriumList
    trajectories: list[Trajectory] = field(default_factory=list)
    separatrices: list[Trajectory] = field(default_factory=list)


def _combo(w, K):
    """sum_i w_i K_i, whole stages added in order from 0.0, as sum() does."""
    return np.add.reduce(w[:, None, None] * K[:len(w)], axis=0, initial=0.0)


def _dense(row, x):
    """The quartic dense output of a step (t, h, y, dy, c3, c4, c5) at x."""
    t, h, *coeffs = row
    s = (x - t) / h
    return [y + s * (dy + (1.0 - s) * (c3 + s * (c4 + (1.0 - s) * c5)))
            for y, dy, c3, c4, c5 in zip(*coeffs)]


def _rms(v):
    return np.sqrt(v[0] * v[0] + v[1] * v[1]) / np.sqrt(2.0)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _integrate_all(sys: ReducedSystem, mu: ParamPoint, seeds,
                   t_max: float | None, window: float,
                   equilibria: EquilibriumList) -> list[Trajectory]:
    """Integrate (seed, direction) pairs as the rows of one array with
    scipy RK45's controller until t_max or an event: falling to 1e-8 window
    of a proper equilibrium, or leaving the box.  The earliest root in a
    step wins and the row ends on the dense output there; see ``integrate``.
    """
    c, n = sys.at(mu), len(seeds)
    if t_max is None:
        t_max = 50.0 / max(mu.norm, 1e-12)
    targets = [e for e in equilibria if e.proper]
    y = np.array([x0 for x0, _ in seeds], dtype=float).reshape(-1, 2).T.copy()
    sign = np.array([1.0 if d == "forward" else -1.0 for _, d in seeds])
    box, margin, radius = 2.0 * window, 1e-6 * window, 1e-8 * window
    ex, ey = np.array([e.xi for e in targets]).reshape(-1, 2).T
    every = np.arange(len(targets))[:, None]
    ftol = 4.0 * np.finfo(float).eps * window
    rows, t, rejected = np.arange(n), np.zeros(n), np.zeros(n, dtype=bool)
    out = [(rows, np.zeros(n), y.copy())]

    def rhs(y, sign, out=None):
        return np.multiply(sign, field_at(c, y), out=out)

    # event e < len(targets) is the distance to targets[e] falling to
    # radius, event len(targets) the least margin to the box's sides
    def near(y0, y1, e):
        return np.hypot(y0 - ex[e], y1 - ey[e]) - radius

    def inside(y0, y1):
        return np.minimum(np.minimum(box - y0, box - y1),
                          np.minimum(y0 + margin, y1 + margin))

    def events(y):
        return np.vstack((near(y[0], y[1], every), inside(y[0], y[1])))

    def event(e, y0, y1):
        return near(y0, y1, e) if e < len(targets) else inside(y0, y1)

    def check(bad, why):
        if bad.any():
            x0, _ = seeds[rows[np.argmax(bad)]]
            raise StepFailure(f"integration failed from {x0}: {why}")

    f = rhs(y, sign)
    check(~np.isfinite(f).all(axis=0), "the field is not finite at the seed")
    # scipy's select_initial_step
    scale = ATOL + np.abs(y) * RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_max)
    d2 = _rms((rhs(y + h0 * f, sign) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.fmax(d1, d2)) ** 0.2)
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), t_max)
    g = events(y)
    ended = np.full(n, -1)
    while rows.size:
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        check(h_abs < min_step, "the step size fell below 10 ulp(t)")
        t_new = np.minimum(t + h_abs, t_max)
        h = t_new - t
        K = np.empty((7,) + y.shape)
        K[0] = f
        for i, a in enumerate(_A, 1):
            rhs(y + h * _combo(a, K), sign, out=K[i])
        y_new = y + h * _combo(_B, K)
        rhs(y_new, sign, out=K[6])
        scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
        err = _rms(_combo(_E, K) * h / scale)
        ok = err < 1.0
        step = SAFETY * err ** -0.2
        grow = np.where(err == 0.0, MAX_FACTOR, np.minimum(MAX_FACTOR, step))
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        h_abs = h * np.where(ok, grow, np.fmax(MIN_FACTOR, step))
        rejected = ~ok
        acc = np.flatnonzero(ok)
        t_a, y_a = t_new[acc], y_new[:, acc]
        g_a = events(y_a)
        fire = (g[:, acc] >= 0.0) & (g_a <= 0.0)
        fire[-1] |= (g[-1, acc] <= 0.0) & (g_a[-1] >= 0.0)
        finished = t_a >= t_max
        ev, j = np.nonzero(fire)
        if j.size:
            # locate every fired event of the step on its row's dense output
            r = acc[j]
            dy = y_new[:, r] - y[:, r]
            c3 = h[r] * K[0][:, r] - dy
            c4 = dy - h[r] * K[6][:, r] - c3
            c5 = h[r] * _combo(_D, K[:, :, r])
            steps = list(zip(t[r].tolist(), h[r].tolist(), *(
                v.T.tolist() for v in (y[:, r], dy, c3, c4, c5))))
            roots = []
            for e, step, t1 in zip(ev.tolist(), steps, t_a[j].tolist()):
                F = lambda x: event(e, *_dense(step, x))
                roots.append(_roots(F, step[0], t1, F(step[0]), F(t1), ftol))
            # earliest root per row, the lower event index on a tie
            order = np.lexsort((ev, roots, j))
            first = order[np.r_[True, j[order][1:] != j[order][:-1]]]
            t_a[j[first]] = np.take(roots, first)
            for i in first.tolist():
                y_a[:, j[i]] = _dense(steps[i], roots[i])
            ended[rows[r[first]]] = ev[first]
            finished[j[first]] = True
        out.append((rows[acc], t_a, y_a))
        t[acc], y[:, acc], f[:, acc], g[:, acc] = t_a, y_a, K[6][:, acc], g_a
        keep = np.ones(rows.size, dtype=bool)
        keep[acc[finished]] = False
        rows, t, h_abs, rejected, sign = (
            v[keep] for v in (rows, t, h_abs, rejected, sign))
        y, f, g = (v[:, keep] for v in (y, f, g))
    rows, times, states = (np.concatenate(v, axis=-1) for v in zip(*out))
    order = np.argsort(rows, kind="stable")
    cuts = np.cumsum(np.bincount(rows, minlength=n))[:-1]
    states = states.T[order]
    states[(states < 0.0) & (states > -10.0 * ATOL * (1.0 + window))] = 0.0
    trs = []
    for (x0, direction), times, states, e in zip(
            seeds, np.split(times[order], cuts), np.split(states, cuts), ended):
        terminal, label = MAX_TIME, None
        if e == len(targets):
            terminal = LEFT_WINDOW
        elif e >= 0 and np.hypot(*field_at(c, states[-1])) < 1e-12:
            terminal, label = CONVERGED, targets[e].label
        trs.append(Trajectory(initial=x0, direction=direction, times=times,
                              states=states, terminal=terminal,
                              terminal_label=label))
    return trs


def _frame(sys: ReducedSystem, mu, tol: Tolerances,
           equilibria: EquilibriumList | None, window: float | None):
    """mu as a ParamPoint, its equilibria and the default window."""
    mu = ParamPoint.coerce(mu)
    if equilibria is None:
        equilibria = find_equilibria(sys, mu, tol)
    if window is None:
        coords = [max(e.xi) for e in equilibria if e.proper and max(e.xi) > 0.0]
        window = 3.0 * (max(coords) if coords else max(mu.norm, 1e-12))
    return mu, equilibria, window


def integrate(sys: ReducedSystem, mu, x0, t_max: float | None = None,
              window: float | None = None) -> Trajectory:
    """Integrate forward from x0 until convergence, window exit, or t_max.

    Convergence requires both closeness to a known equilibrium and a small
    field magnitude, so slow drift along a center manifold is not mistaken
    for arrival.  Tiny negative coordinates (axis invariance is exact in the
    model) are clamped to zero in the output.  The targets are the
    equilibria of find_equilibria in the default disk.
    """
    mu, equilibria, window = _frame(sys, mu, TOL, None, window)
    x0 = (float(x0[0]), float(x0[1]))
    return _integrate_all(sys, mu, [(x0, "forward")], t_max, window,
                          equilibria)[0]


def _separatrix_seeds(sys: ReducedSystem, mu: ParamPoint, saddle: Equilibrium,
                      window: float) -> list[tuple[tuple[float, float], str]]:
    if saddle.kind != SADDLE:
        raise ValueError(f"separatrices need a saddle, got {saddle.kind}")
    lams, vecs = np.linalg.eig(np.asarray(jacobian_at(sys.at(mu), saddle.xi)))
    h = 1e-6 * window
    out = []
    for lam, v in zip(lams.real, vecs.real.T):
        v = v / np.linalg.norm(v)
        direction = "forward" if lam > 0.0 else "backward"
        for s in (+1.0, -1.0):
            seed = saddle.xi + s * h * v
            if seed.min() >= -1e-12 * window:
                out.append((tuple(np.maximum(seed, 0.0).tolist()), direction))
    return out


def separatrices(sys: ReducedSystem, mu, saddle: Equilibrium,
                 equilibria: EquilibriumList | None = None) -> list[Trajectory]:
    """Invariant-manifold branches of a saddle, seeded along its eigenvectors.

    Stable directions are integrated backward, unstable forward.  Seeds that
    fall outside the closed first quadrant are skipped, so boundary saddles
    emit fewer branches.
    """
    mu, equilibria, window = _frame(sys, mu, TOL, equilibria, None)
    return _integrate_all(sys, mu, _separatrix_seeds(sys, mu, saddle, window),
                          None, window, equilibria)


def portrait(sys: ReducedSystem, mu, grid_density: int = 10,
             tol: Tolerances = TOL) -> Portrait:
    """Phase portrait: a lattice of forward trajectories plus separatrices,
    all integrated in one batch.  Raises ValueError unless grid_density is
    at least 1."""
    if grid_density < 1:
        raise ValueError(f"grid_density must be at least 1, got {grid_density}")
    mu, equilibria, window = _frame(sys, mu, tol, None, None)
    seeds = [(((i + 0.5) * window / grid_density,
               (j + 0.5) * window / grid_density), "forward")
             for i in range(grid_density) for j in range(grid_density)]
    for eq in equilibria:
        if eq.kind == SADDLE and eq.proper and not eq.trivial:
            seeds += _separatrix_seeds(sys, mu, eq, window)
    trs = _integrate_all(sys, mu, seeds, None, window, equilibria)
    n = grid_density * grid_density
    return Portrait(mu=mu, window=window, equilibria=equilibria,
                    trajectories=trs[:n], separatrices=trs[n:])
