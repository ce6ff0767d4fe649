#!/usr/bin/env python3
"""Benchmark entry point; see bench/README.md.

    python3 bench/run.py --workload tables --seed 1 --seconds 38 --trace 0

Runs from the root of a checkout.  The workload runs single-process in a
fresh interpreter, which also times its own set-up; two more interpreters
only time set-up.  The last line of standard output is one JSON object
with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_EXTRA = 2         # set-up-only interpreters, one before and one
                        # after the measuring one; setup_s is the median
IMPORTTIME_RUNS = 3     # `-X importtime` samples in a traced run
RUN_LIMIT_S = 170.0     # the whole run must end within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")



def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LVBIF_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args: list[str], deadline: float):
    """Run a Python child to completion; exit if it fails."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {' '.join(args[:2])} exited "
                         f"{proc.returncode}")
    return proc


def run_worker(args: list[str], deadline: float) -> dict:
    """The JSON summary a worker prints as its last line."""
    out = run_child([str(BENCH / "worker.py"), *args], deadline).stdout
    return json.loads(out.splitlines()[-1])


def importtime(deadline: float) -> tuple[float, float]:
    """(lvbif, scipy) cumulative import seconds from ``-X importtime``.

    scipy counts every top-level import of a scipy module, that is one not
    nested inside another scipy import.
    """
    stderr = run_child(["-X", "importtime", "-c", "import lvbif"],
                       deadline).stderr
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    lvbif_s = scipy_s = 0.0
    stack: list[tuple[int, bool]] = []  # (indent, inside scipy), outermost first
    for indent, name, cum in reversed(rows):   # parents print after children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        outer_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not outer_scipy:
            scipy_s += cum
        if name == "lvbif":
            lvbif_s = cum
        stack.append((indent, is_scipy or outer_scipy))
    return lvbif_s, scipy_s


def src_stats() -> dict:
    files = sorted(p for p in (SRC / "lvbif").rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        if p.suffix == ".py":
            lines += data.count(b"\n")
    return {"src_lvbif_py_lines": lines, "src_sha256": digest.hexdigest()}


def metadata(args, deadline: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        commit = proc.stdout.strip() or None
    env = child_env()
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "threads_env": {v: env.get(v)
                            for v in THREAD_VARS + ("LVBIF_THREADS",)}}
    meta.update(src_stats())
    return meta


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "lvbif" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no lvbif sources under {SRC}\n")
        return 2

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setup = [run_worker([*common, "--setup-only"], deadline)]
    cmd = [*common, "--trace", str(args.trace)]
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = OUT / f"spans-{stem}.npz" if args.trace else None
    if spans_path:
        cmd += ["--spans-out", str(spans_path)]
    res = run_worker(cmd, deadline)
    setup += [res] + [run_worker([*common, "--setup-only"], deadline)
                      for _ in range(SETUP_EXTRA - 1)]
    same_inputs = len({s["input_digest"] for s in setup}
                      | {res["input_digest"]}) == 1
    correct = res["consistent"] and same_inputs
    ok_frac = (res["attempted"] - res["failed"]) / res["attempted"]

    if args.trace:
        samples = [importtime(deadline) for _ in range(IMPORTTIME_RUNS)]
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = statistics.median(s[0] for s in samples)
        metrics["setup.import.scipy_s"] = statistics.median(
            s[1] for s in samples)
    else:
        metrics = {k: res[k] for k in ("wall_s", "item_ms.p50", "item_ms.tail",
                                       "peak_rss_mb")}
        metrics["ok_frac"] = ok_frac
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        OUT.mkdir(exist_ok=True)
        (OUT / f"samples-{stem}.json").write_text(json.dumps(
            {"walls_s": res["walls"], "units": res["units"],
             "setup_s": [s["setup_s"] for s in setup]}))
    if set(metrics) != set(units):
        raise SystemExit("bench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    meta = metadata(args, deadline)
    meta.update(res["versions"])
    meta.update(passes=res["passes"], input_digest=res["input_digest"],
                spans=str(spans_path.relative_to(ROOT)) if spans_path else None)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {res['passes']}"
          + (f" + {res['partial']} partial" if res.get("partial") else "")
          + (" (each item untraced and traced)" if args.trace else
             "  pass walls " + " ".join(f"{w:.3f}" for w in res["walls"])))
    if not args.trace:
        print("host probe ms p5 {:.4f} p50 {:.4f} p95 {:.4f}".format(
            *res["probe_ms"]))
    for name in sorted(metrics):
        extra = ""
        if name == "wall_s":
            extra = (f"  (sum of the items' and steps' corrected times, "
                     f"{res['laps']} laps a pass)")
        elif name == "item_ms.p50":
            extra = f"  (median of {res['items']} items' corrected times)"
        elif name == "item_ms.tail":
            beyond = round(res["items"] * (1.0 - res["tail_pct"] / 100.0))
            extra = (f"  (p{res['tail_pct']:.1f} of {res['items']} items' "
                     f"corrected times, {beyond} beyond it)")
        elif name == "ok_frac":
            extra = (f"  (failed_frac {1.0 - ok_frac:.4g} = "
                     f"{res['failed']}/{res['attempted']} items)")
        elif name == "setup_s":
            extra = f"  (median of {len(setup)} fresh interpreters)"
        print(f"  {name:<48s} {metrics[name]:>14.6g} {units[name]}{extra}")
    verdict = "PASS" if res["failed"] == 0 else "FAIL"
    print(f"verdict {verdict}: {res['failed']} of {res['attempted']} items "
          f"failed their checks; passes "
          f"{'agree' if res['consistent'] else 'DISAGREE'}; inputs "
          f"{'identical' if same_inputs else 'DIFFER'} across interpreters")
    for reason in res["reasons"]:
        print(f"  failed {reason}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
