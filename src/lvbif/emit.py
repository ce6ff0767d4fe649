"""Deterministic CSV and SVG emitters.

All floats are written with 17 significant digits so files round-trip
exactly, and every collection is emitted in a fixed order; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .bifurcation import BifurcationCurve
from .dynamics import Portrait, Trajectory
from .equilibria import sar_letter

F = "{:.17g}"


def fmt(x: float) -> str:
    return F.format(float(x))


def curves_csv(curves: list[BifurcationCurve]) -> str:
    out = io.StringIO()
    out.write("kind,branch,mu1,mu2,residual\n")
    for c in curves:
        for p, res in zip(c.samples, c.residuals):
            out.write(f"{c.kind},{c.halfline},{fmt(p.mu1)},{fmt(p.mu2)},{fmt(res)}\n")
    return out.getvalue()


def trajectories_csv(trajectories: list[Trajectory]) -> str:
    out = io.StringIO()
    out.write("t,xi1,xi2,trajectory_id,terminal\n")
    for tid, tr in enumerate(trajectories):
        term = tr.terminal
        if tr.terminal_label:
            term = f"{term}({tr.terminal_label})"
        # every row of a trajectory in one % call; its tail is a literal
        row = "%.17g,%.17g,%.17g," + f"{tid},{term}\n".replace("%", "%%")
        out.write(row * len(tr.times) % tuple(
            np.column_stack((tr.times, tr.states)).ravel().tolist()))
    return out.getvalue()


# fixed palette per terminal state / label slot
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_KIND_FILL = {"s": "#ffffff", "a": "#000000", "r": "#999999", "d": "#ffcc00"}

# side of the square SVG canvas, in pixels
SIZE = 480


def _color_for(label: str | None, terminal: str, order: dict[str, int]) -> str:
    key = label if label else terminal
    if key not in order:
        order[key] = len(order)
    return _COLORS[order[key] % len(_COLORS)]


def portrait_svg(port: Portrait) -> str:
    """Standalone SVG of a portrait; trajectories colored by terminal."""
    w = port.window
    if w <= 0.0 or not math.isfinite(w):
        raise ValueError(f"bad portrait window {w!r}")
    pad = 0.06 * w
    scale = SIZE / (w + 2.0 * pad)

    def sx(x: float) -> str:
        return fmt((x + pad) * scale)

    def sy(y: float) -> str:
        return fmt(SIZE - (y + pad) * scale)

    def points(tr: Trajectory) -> str:
        xy = (tr.states + pad) * scale
        xy[:, 1] = SIZE - xy[:, 1]
        # display precision: 0.01 px on the canvas, one % call
        return ("%.2f,%.2f " * len(xy) % tuple(xy.ravel().tolist()))[:-1]

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
              f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n')
    out.write(f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>\n')
    # axes
    out.write(f'<line x1="{sx(0.0)}" y1="{sy(0.0)}" x2="{sx(w)}" y2="{sy(0.0)}" '
              'stroke="#333333" stroke-width="1"/>\n')
    out.write(f'<line x1="{sx(0.0)}" y1="{sy(0.0)}" x2="{sx(0.0)}" y2="{sy(w)}" '
              'stroke="#333333" stroke-width="1"/>\n')
    order: dict[str, int] = {}
    for tr in port.trajectories:
        color = _color_for(tr.terminal_label, tr.terminal, order)
        out.write(f'<polyline points="{points(tr)}" fill="none" '
                  f'stroke="{color}" stroke-width="0.8"/>\n')
    for tr in port.separatrices:
        out.write(f'<polyline points="{points(tr)}" fill="none" '
                  'stroke="#000000" stroke-width="2"/>\n')
    for eq in port.equilibria:
        if not eq.proper:
            continue
        fill = _KIND_FILL[sar_letter(eq.kind)]
        out.write(f'<circle cx="{sx(eq.xi[0])}" cy="{sy(eq.xi[1])}" r="4" '
                  f'fill="{fill}" stroke="#000000" stroke-width="1">'
                  f'<title>{eq.label}</title></circle>\n')
    out.write(f'<text x="6" y="14" font-family="monospace" font-size="11">'
              f'mu=({fmt(port.mu.mu1)}, {fmt(port.mu.mu2)})</text>\n')
    out.write("</svg>\n")
    return out.getvalue()
