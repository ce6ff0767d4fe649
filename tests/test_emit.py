import math
import re

from lvbif.cases import nondegenerate_case
from lvbif.dynamics import portrait
from lvbif.emit import fmt, portrait_svg, trajectories_csv
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
    expected = [" ".join(f"{fmt((x + pad) * scale)},"
                         f"{fmt(size - (y + pad) * scale)}"
                         for x, y in tr.states) for tr in trs]
    assert re.findall(r'<polyline points="([^"]*)"', portrait_svg(port)) \
        == expected
