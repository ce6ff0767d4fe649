"""Span tracer for the traced run, built only from the benchmark's files.

``Tracer.install()`` replaces each traced library function at every module
attribute of the ``lvbif`` package that refers to it (``from .x import f``
makes copies, and callers look the name up there), and ``ReducedSystem.at``
on its class.  Each call records a span (name, start, end, parent) in flat
arrays kept in memory; self time is a span's duration minus the durations of
its direct children.  ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = "bench.item"

# span name -> (module, attribute); a dotted attribute is class.method
SPANS = {
    "model.at": ("lvbif.model", "ReducedSystem.at"),
    "equilibria.refine_e3": ("lvbif.equilibria", "refine_e3"),
    "equilibria.find_equilibria": ("lvbif.equilibria", "find_equilibria"),
    "bifurcation.circle_intersections": ("lvbif.bifurcation",
                                         "circle_intersections"),
    "bifurcation.brentq": ("lvbif.bifurcation", "brentq"),
    "bifurcation.trace_curve": ("lvbif.bifurcation", "trace_curve"),
    "regions.decompose": ("lvbif.regions", "decompose"),
    "regions.boundary_candidates": ("lvbif.regions", "boundary_candidates"),
    "regions.verify_tables": ("lvbif.regions", "verify_tables"),
    "verification.sotomayor_suite": ("lvbif.verification", "sotomayor_suite"),
    "oracle.sign_scan": ("lvbif.oracle", "sign_scan"),
    "oracle.grid_equilibria": ("lvbif.oracle", "grid_equilibria"),
    "dynamics.integrate": ("lvbif.dynamics", "integrate"),
    "dynamics.solve_ivp": ("lvbif.dynamics", "solve_ivp"),
    "emit.portrait_svg": ("lvbif.emit", "portrait_svg"),
    "emit.trajectories_csv": ("lvbif.emit", "trajectories_csv"),
}

# counter name -> (module, attribute, span it must be called inside); only
# that module's attribute is replaced, the one the counted caller looks up
COUNTERS = {
    "equilibria.refine_e3.bracket_evals": ("lvbif.equilibria", "bracket1",
                                           "equilibria.refine_e3"),
    "oracle.signature_evals": ("lvbif.regions", "signature_at",
                               "oracle.sign_scan"),
}

# curve kinds that share a defining residual with another kind
SHARED_RESIDUAL = {"T3plus": "T3", "T4plus": "T4",
                   "D_branch_pos": "D_branch_neg"}
AXES = ("Xplus", "Xminus", "Yplus", "Yminus")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span = array("i")      # name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")    # span index, -1 for a root
        self._stack: list[int] = []
        self._open = array("i")     # open spans per name id
        self.fails = array("i")     # calls per name id that raised
        self.counts: dict[str, float] = defaultdict(float)
        self._scanned: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
            self.fails.append(0)
        return self._ids[name]

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(result, args, kw)`` on success."""
        nid = self._nid(name)
        span, start, end, parent = self.span, self.start, self.end, self.parent
        stack, opened, fails = self._stack, self._open, self.fails
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            i = len(span)
            span.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            opened[nid] += 1
            start.append(clock())
            try:
                out = fn(*args, **kw)
            except BaseException:
                fails[nid] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
                opened[nid] -= 1
            if after is not None:
                after(out, args, kw)
            return out
        return traced

    def count_inside(self, key: str, fn, inside: str):
        """``fn`` counted under ``key`` when a span ``inside`` is open."""
        nid = self._nid(inside)
        opened, counts = self._open, self.counts

        @functools.wraps(fn)
        def counted(*args, **kw):
            if opened[nid]:
                counts[key] += 1
            return fn(*args, **kw)
        return counted

    def item_runner(self, run_item):
        """``run_item`` under a root span per item; scans dedupe per item."""
        traced = self.wrap(ROOT, run_item)

        def run(item):
            self._scanned = set()
            return traced(item)
        return run

    # -- hooks that read results ------------------------------------------

    def _after_scan(self, out, args, kw):
        sys_, kind, r = (tuple(args) + (None,) * 3)[:3]
        sys_ = kw.get("sys", sys_)
        kind = kw.get("kind", kind)
        r = kw.get("r", r)
        if kind in AXES:
            return
        key = (id(sys_), SHARED_RESIDUAL.get(kind, kind), r)
        self.counts["bifurcation.scans"] += 1
        if key in self._scanned:
            self.counts["bifurcation.dup_scans"] += 1
        self._scanned.add(key)

    def _after_solve(self, sol, args, kw):
        self.counts["dynamics.rhs_evals"] += sol.nfev
        self.counts["dynamics.steps"] += len(sol.t) - 1

    def _after_integrate(self, traj, args, kw):
        if traj.terminal == "ConvergedToEquilibrium":
            self.counts["dynamics.converged"] += 1

    def _after_emit(self, text, args, kw):
        self.counts["emit.bytes"] += len(text.encode())

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lvbif"
                                   or modname.startswith("lvbif.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        after = {"bifurcation.circle_intersections": self._after_scan,
                 "dynamics.solve_ivp": self._after_solve,
                 "dynamics.integrate": self._after_integrate,
                 "emit.portrait_svg": self._after_emit,
                 "emit.trajectories_csv": self._after_emit}
        for name, (modname, attr) in SPANS.items():
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, after.get(name)))
                continue
            original = getattr(mod, attr, None)
            if original is not None:
                self._replace_everywhere(
                    original, self.wrap(name, original, after.get(name)))
        for key, (modname, attr, inside) in COUNTERS.items():
            mod = sys.modules[modname]
            original = getattr(mod, attr, None)
            if original is not None:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, self.count_inside(key, original, inside))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(calls, self seconds, failed calls) per name id."""
        names = np.frombuffer(self.span, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - covered, minlength=k)
        return calls, self_s, np.asarray(self.fails)

    def nested_calls(self, name: str) -> int:
        """Spans of ``name`` whose parent span has the same name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        names = np.frombuffer(self.span, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mine = (names == nid) & (parent >= 0)
        return int(np.count_nonzero(names[parent[mine]] == nid))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, as totals per traced pass."""
        calls, self_s, fails = self.self_times()

        def n_calls(name):
            nid = self._ids.get(name)
            return int(calls[nid]) if nid is not None else 0

        def self_of(name):
            nid = self._ids.get(name)
            return float(self_s[nid]) if nid is not None else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = n_calls(name) / passes
            out[f"{name}.self_s"] = self_of(name) / passes
        refine = n_calls("equilibria.refine_e3")
        nid = self._ids["equilibria.refine_e3"]
        out["equilibria.refine_e3.bracket_evals_per_call"] = ratio(
            c["equilibria.refine_e3.bracket_evals"], refine)
        out["equilibria.refine_e3.fail_frac"] = ratio(int(fails[nid]), refine)
        out["regions.decompose.retry_frac"] = ratio(
            self.nested_calls("regions.decompose"), n_calls("regions.decompose"))
        out["bifurcation.dup_scan_frac"] = ratio(c["bifurcation.dup_scans"],
                                                 c["bifurcation.scans"])
        out["oracle.signature_evals"] = c["oracle.signature_evals"] / passes
        out["dynamics.rhs_evals"] = c["dynamics.rhs_evals"] / passes
        out["dynamics.steps"] = c["dynamics.steps"] / passes
        out["dynamics.converged_frac"] = ratio(c["dynamics.converged"],
                                               n_calls("dynamics.integrate"))
        out["emit.bytes"] = c["emit.bytes"] / passes
        out["trace.spans"] = len(self.span) / passes
        return out

    def write(self, path: Path) -> None:
        """Write every span to a compressed .npz with the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, span=np.frombuffer(self.span, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            names=np.array(json.dumps(self.names)))
