"""One workload in a fresh interpreter; prints its measurements as JSON.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``, one BLAS
thread and ``LVBIF_THREADS`` unset.  The script times the import of
``lvbif`` and the building of the inputs; ``--setup-only`` exits there.
Otherwise it runs passes over the input set for the given seconds, with
the host probed around every item and lap (``workloads.timing``), and
prints a summary.  With ``--trace 1`` every item of a pass runs untraced
and traced, back to back, and the summary carries the per-layer metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10     # items that must lie beyond the tail percentile


def load(workload: str, seed: int):
    """Import lvbif from this checkout's ``src`` and build the inputs."""
    import lvbif
    src = (ROOT / "src").resolve()
    if src not in Path(lvbif.__file__).resolve().parents:
        raise SystemExit(f"lvbif imported from {lvbif.__file__}, not {src}")
    import workloads
    return workloads, workloads.BUILDERS[workload](seed)


def run_passes(workloads, wl, seconds: float, on_item=None, partial=False):
    """Passes until the next one would overrun ``seconds``; at least one.

    With ``partial``, and on a workload without family steps, a last
    partial pass then starts items until ``seconds`` are up.  Returns the
    walls of the full passes, the item results of each pass, and the
    results of each pass's units: its items, then its family steps.
    """
    walls, passes, units = [], [], []
    t0 = time.perf_counter()
    while True:
        wall, results, steps = workloads.run_pass(wl, on_item)
        walls.append(wall)
        passes.append(results)
        units.append(results + steps)
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    if partial and not wl.family_steps:
        _, results, _ = workloads.run_pass(wl, on_item, until=t0 + seconds)
        if results:
            passes.append(results)
            units.append(results)
    return walls, passes, units


def probes(units) -> list[float]:
    """Every probe reading of the timed passes, in ms."""
    return [pr for p in units for r in p
            for pr in [r.probe] + [lap[1] for lap in r.laps]]


def unit_times(units) -> list[float]:
    """Each unit's time in ms, corrected for the host's speed.

    On a shared host the same code runs at full speed or up to about two
    times slower, in spells of a fraction of a second to minutes, depending
    on the other tenants; in some runs full speed is rare.  The fastest of
    a few samples then reads the slow spells, and so does a median.  So
    each sample is scaled by the fastest probe reading of the run over the
    probe reading around that sample, and a unit takes the median of its
    scaled samples over the passes.  A unit timed in laps takes that for
    each lap and for its rest outside the laps, and adds them up.  A unit
    whose lap count changes between passes takes it for its whole time.
    A unit missing from a partial last pass has one sample less.
    """
    fastest = min(probes(units))

    def scaled(ms, probe):
        return ms * fastest / probe

    times = []
    for k in range(len(units[0])):
        samples = [p[k] for p in units if k < len(p)]
        laps = [r.laps for r in samples]
        if laps[0] and len({len(x) for x in laps}) == 1:
            rest = statistics.median(
                scaled(r.ms - sum(ms for ms, _ in r.laps), r.probe)
                for r in samples)
            times.append(rest + sum(
                statistics.median(scaled(*lap) for lap in col)
                for col in zip(*laps)))
        else:
            times.append(statistics.median(scaled(r.ms, r.probe)
                                           for r in samples))
    return times


def latency(item_ms) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) over the item times in ms.

    The tail is the highest percentile of the items with ``TAIL_BEYOND``
    items beyond it, and never less than p50 (then it is reported as p50).
    """
    xs = sorted(item_ms)
    p50 = statistics.median(xs)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0 or xs[k] <= p50:
        return p50, p50, 50.0
    return p50, xs[k], 100.0 * (k + 1) / len(xs)


def verdicts(passes) -> dict:
    """Per-item verdicts over all passes, a partial last one included.

    An item fails if any pass failed it or if its output digest differs
    between passes.  ``consistent`` is false when repeated passes disagree,
    either on a verdict or on the output of an item that passed.
    """
    first = passes[0]
    failed, reasons, consistent = [], [], True
    for k, res in enumerate(first):
        runs = [p[k] for p in passes if k < len(p)]
        ok = all(r.ok for r in runs)
        same = len({r.digest for r in runs}) == 1
        if len({r.ok for r in runs}) > 1 or (ok and not same):
            consistent = False
        if not (ok and same):
            failed.append(res.name)
            why = next((r.reason for r in runs if not r.ok),
                       "output differs between passes")
            reasons.append(f"{res.name.split(':')[0]}: {why}")
    return {"attempted": len(first), "failed": len(failed),
            "consistent": consistent, "reasons": reasons}


def summarize(walls, passes, units) -> dict:
    """End-to-end figures of the untraced passes."""
    times = unit_times(units)
    n_items = len(passes[0])
    p50, value, pct = latency(times[:n_items])
    out = {"passes": len(walls), "partial": len(passes) - len(walls),
           "walls": walls,
           "units": [[(r.ms, r.probe, r.laps) for r in p] for p in units],
           "probe_ms": statistics.quantiles(probes(units), n=20)[::9],
           "laps": sum(len(r.laps) for r in units[0]),
           "wall_s": sum(times) / 1e3,
           "item_ms.p50": p50, "item_ms.tail": value, "tail_pct": pct,
           "items": n_items}
    out.update(verdicts(passes))
    return out


def traced_passes(workloads, wl, seconds: float):
    """Passes in which each item runs untraced and traced, back to back.

    Which side runs first alternates from item to item, so a slow spell of
    the host weighs on both sides alike.  Returns the tracer, the traced
    item results of each pass and the tracing overhead in s per pass.
    """
    from spans import Tracer
    tracer = Tracer()
    traced = tracer.item_runner(workloads.run_item)
    plain_ms = []
    traced_first = itertools.cycle((False, True))

    def pair(item):
        first = next(traced_first)
        if not first:
            plain_ms.append(workloads.run_item(item).ms)
        tracer.install()
        try:
            res = traced(item)
        finally:
            tracer.uninstall()
        if first:
            plain_ms.append(workloads.run_item(item).ms)
        return res

    walls, passes, units = run_passes(workloads, wl, seconds, pair)
    traced_ms = sum(r.ms for p in units for r in p)
    overhead = (traced_ms - sum(plain_ms)) / 1e3 / len(walls)
    return tracer, passes, overhead


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    workloads, wl = load(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "input_digest": wl.input_digest()}
    if args.setup_only:
        print(json.dumps(out))
        return

    import numpy
    import scipy
    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.trace:
        tracer, passes, overhead = traced_passes(workloads, wl, args.seconds)
        layers = tracer.layer_metrics(len(passes))
        layers["trace.overhead_s"] = overhead
        out.update(verdicts(passes), layers=layers, passes=len(passes))
        if args.spans_out:
            tracer.write(Path(args.spans_out))
    else:
        with workloads.timing(wl):
            out.update(summarize(*run_passes(workloads, wl, args.seconds,
                                             partial=True)))
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
