import math
import re

from lvbif.cases import nondegenerate_case
from lvbif.dynamics import portrait
from lvbif.emit import fmt, portrait_svg, trajectories_csv
from lvbif.equilibria import sar_letter
from lvbif.model import ParamPoint


def test_row_formatting_equals_the_per_value_formatter():
    port = portrait(nondegenerate_case(-2.0, -1.0),
                    ParamPoint.from_polar(1e-3, math.radians(45.0)),
                    grid_density=10)
    trs = port.trajectories + port.separatrices
    # reference: one fmt() call per value, on the NumPy scalars
    rows = ["t,xi1,xi2,trajectory_id,terminal\n"]
    for tid, tr in enumerate(trs):
        term = tr.terminal
        if tr.terminal_label:
            term = f"{term}({tr.terminal_label})"
        for t, (x1, x2) in zip(tr.times, tr.states):
            rows.append(f"{fmt(t)},{fmt(x1)},{fmt(x2)},{tid},{term}\n")
    assert trajectories_csv(trs) == "".join(rows)

    size, w = 480, port.window
    pad = 0.06 * w
    scale = size / (w + 2.0 * pad)
    # the polylines are written at display precision, 0.01 px
    expected = [" ".join(f"{(x + pad) * scale:.2f},"
                         f"{size - (y + pad) * scale:.2f}"
                         for x, y in tr.states) for tr in trs]
    assert re.findall(r'<polyline points="([^"]*)"', portrait_svg(port)) \
        == expected


def test_svg_lines_outside_the_polylines():
    # every line but the trajectories, rebuilt from the 480 px canvas, the
    # window, the proper equilibria and mu
    port = portrait(nondegenerate_case(-2.0, -1.0),
                    ParamPoint.from_polar(1e-3, math.radians(45.0)),
                    grid_density=2)
    g = "{:.17g}".format
    w = port.window
    pad = 0.06 * w
    scale = 480 / (w + 2.0 * pad)

    def at(x, y):
        return g((x + pad) * scale), g(480 - (y + pad) * scale)
    fill = {"s": "#ffffff", "a": "#000000", "r": "#999999", "d": "#ffcc00"}
    (x0, y0), (xw, yw) = at(0.0, 0.0), at(w, w)
    axis = 'stroke="#333333" stroke-width="1"/>'
    proper = [e for e in port.equilibria if e.proper]
    expected = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="0 0 480 480">',
        '<rect width="480" height="480" fill="#ffffff"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{xw}" y2="{y0}" {axis}',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{yw}" {axis}',
    ] + [
        '<circle cx="{}" cy="{}" r="4" fill="{}" stroke="#000000" '
        'stroke-width="1"><title>{}</title></circle>'.format(
            *at(*e.xi), fill[sar_letter(e.kind)], e.label) for e in proper
    ] + [
        '<text x="6" y="14" font-family="monospace" font-size="11">'
        f'mu=({g(port.mu.mu1)}, {g(port.mu.mu2)})</text>',
        '</svg>',
    ]
    svg = portrait_svg(port)
    lines = svg.splitlines()
    assert len(proper) >= 3 and svg.endswith("</svg>\n")
    assert [l for l in lines if not l.startswith("<polyline ")] == expected
    assert lines[5:-len(proper) - 2] == [
        l for l in lines if l.startswith("<polyline ")]
