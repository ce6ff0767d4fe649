"""Command-line front end.

Subcommands:
  analyze   case summary and equilibrium listing at one parameter point
  curves    sample every admissible bifurcation curve into a CSV
  portrait  integrate a phase portrait to SVG and/or CSV
  verify    region type-table verification plus the genericity suite

Exit codes: 0 success, 1 verification mismatch, 2 configuration error, bad
argument or unwritable output path, 3 unsupported case.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import bifurcation as bif
from . import cases
from .dynamics import portrait
from .emit import curves_csv, fmt, portrait_svg, trajectories_csv
from .equilibria import find_equilibria
from .errors import LVError, NotApplicable, OnCurve, UnsupportedCase
from .model import (DELTA_ZERO, NONDEGENERATE, THETA_ZERO, ParamPoint,
                    load_system)
from .oracle import cross_check
from .regions import region_membership, select_case, verify_tables
from .verification import sotomayor_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3

FAMILY_ALIASES = {f.lower(): f for f in (NONDEGENERATE, DELTA_ZERO,
                                         THETA_ZERO)}


class ConfigError(Exception):
    """The config file cannot be read as a system."""


def _parse_mu(text: str) -> ParamPoint:
    try:
        mu1, mu2 = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--mu expects 'a,b', got {text!r}") from None
    return ParamPoint(mu1, mu2)


def _parse_radii(text: str) -> list[float]:
    try:
        return [float(r) for r in text.split(",")]
    except ValueError:
        raise ValueError(f"--radii expects 'r1,r2,...', got {text!r}") from None


def _load(path: str):
    try:
        return load_system(path)
    except (LVError, ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(exc) from exc


def cmd_analyze(args) -> int:
    sys_ = _load(args.config)
    mu = _parse_mu(args.mu)
    desc = select_case(sys_)
    eqs = find_equilibria(sys_, mu)
    print(f"degeneracy class: {sys_.degeneracy}")
    if sys_.mu_negated:
        print("note: parameters relabeled nu = -mu by the mirrored reduction; "
              "all values below are in nu")
    print("case signs: " + ", ".join(f"{k}={v:+d}" for k, v in desc.signs))
    for note in desc.notes:
        print(f"note: {note}")
    print(f"equilibria at mu = ({fmt(mu.mu1)}, {fmt(mu.mu2)}):")
    for eq in eqs:
        lam1, lam2 = eq.eigenvalues
        flags = []
        if not eq.proper:
            flags.append("virtual")
        if eq.trivial:
            flags.append("trivial")
        ftxt = f" [{', '.join(flags)}]" if flags else ""
        print(f"  {eq.label:<4s} xi=({fmt(eq.xi[0])}, {fmt(eq.xi[1])}) "
              f"eig=({lam1:.6g}, {lam2:.6g}) kind={eq.kind}{ftxt}")
    for note in eqs.notes:
        print(f"  note: {note}")
    if mu.norm > 0.0:
        try:
            region = region_membership(sys_, mu)
            print("region signature: " + "".join(region.signature)
                  + f" (sector {region.sector_id}, bounded by "
                  + "/".join(region.bounding) + ")")
        except OnCurve as exc:
            print(f"region: on a bifurcation curve ({exc})")
        except (ValueError, LVError) as exc:
            print(f"region: not resolved ({exc})")
    return EXIT_OK


def cmd_curves(args) -> int:
    sys_ = _load(args.config)
    radii = _parse_radii(args.radii)
    curves = []
    for kind in bif.admissible_kinds(sys_):
        try:
            curve = bif.trace_curve(sys_, kind, radii)
        except NotApplicable:
            continue
        except LVError as exc:
            print(f"{kind}: skipped ({exc})")
            continue
        curves.append(curve)
        lead = "" if curve.leading is None else f" leading={fmt(curve.leading)}"
        print(f"{kind}: {len(curve.samples)} samples{lead}")
        for note in curve.notes:
            print(f"  note: {note}")
    text = curves_csv(curves)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        _sys.stdout.write(text)
    return EXIT_OK


def cmd_portrait(args) -> int:
    sys_ = _load(args.config)
    mu = _parse_mu(args.mu)
    port = portrait(sys_, mu, grid_density=args.grid)
    wrote = False
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(portrait_svg(port))
        print(f"wrote {args.svg}")
        wrote = True
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(trajectories_csv(port.trajectories + port.separatrices))
        print(f"wrote {args.csv}")
        wrote = True
    if not wrote:
        print("nothing written (pass --svg and/or --csv)")
    terms = {}
    for tr in port.trajectories:
        key = tr.terminal_label or tr.terminal
        terms[key] = terms.get(key, 0) + 1
    print("terminals: " + ", ".join(f"{k}:{v}" for k, v in sorted(terms.items())))
    return EXIT_OK


def _oracle_pass(report) -> tuple[bool, list[str]]:
    """oracle.cross_check of every diagram, one line each."""
    lines = ["oracle cross-checks:"]
    checks = [cross_check(d.system, d.sectors) for d in report.diagrams]
    for d, check in zip(report.diagrams, checks):
        edges = "" if check.edges else (
            f", block edges up to {check.edge_gap:.1e} rad off")
        lines.append(
            f"  [{'ok ' if check.ok else 'FAIL'}] case {d.case_id}: "
            f"sector RLE {'matches' if check.rle else 'differs'}{edges}, "
            f"grid roots {'match' if all(check.roots) else 'differ'}")
    return all(c.ok for c in checks), lines


def cmd_verify(args) -> int:
    name = args.family.lower()
    if name in ("doublydegenerate", "doubly_degenerate"):
        print("the doubly degenerate class is out of scope", file=_sys.stderr)
        return EXIT_UNSUPPORTED
    if name not in FAMILY_ALIASES:
        print(f"unknown family {args.family!r}", file=_sys.stderr)
        return EXIT_UNSUPPORTED
    family = FAMILY_ALIASES[name]
    case_list = None
    if args.config:
        extra = _load(args.config)
        desc = select_case(extra)
        if desc.family != family:
            print(f"config system is {desc.family}, not {family}",
                  file=_sys.stderr)
            return EXIT_UNSUPPORTED
        case_list = list(cases.CANONICAL_BY_FAMILY[family]) + [
            ("config", extra)]
    report = verify_tables(family, r=args.r, cases=case_list)
    print(report.render_text())
    soto = sotomayor_suite(family)
    for line in soto.lines:
        print(line)
    oracle_ok, oracle_lines = (_oracle_pass(report) if args.oracle
                               else (True, []))
    for line in oracle_lines:
        print(line)
    if args.json_out:
        payload = report.as_dict()
        payload["sotomayor"] = soto.as_dict()
        if args.oracle:
            payload["oracle"] = {"success": oracle_ok, "checks": oracle_lines}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    ok = report.success and soto.success and oracle_ok
    print(f"verification {'PASSED' if ok else 'FAILED'}")
    if not ok:
        if report.unmatched_computed:
            print("unmatched computed: "
                  + ", ".join("".join(s) for s in report.unmatched_computed))
        if report.unmatched_expected:
            print("unmatched expected: "
                  + ", ".join("".join(s) for s in report.unmatched_expected))
    return EXIT_OK if ok else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """An argument error exits 2 with one stderr line, without the usage."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lvbif",
        description="Bifurcation analysis of planar cubic Lotka-Volterra "
                    "systems with small parameters")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="equilibria and region at one mu")
    a.add_argument("--config", required=True)
    a.add_argument("--mu", required=True, help="mu1,mu2")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("curves", help="sample bifurcation curves to CSV")
    c.add_argument("--config", required=True)
    c.add_argument("--radii", default="1e-3,1e-4")
    c.add_argument("--out", default="")
    c.set_defaults(func=cmd_curves)

    pt = sub.add_parser("portrait", help="phase portrait to SVG/CSV")
    pt.add_argument("--config", required=True)
    pt.add_argument("--mu", required=True, help="mu1,mu2")
    pt.add_argument("--grid", type=int, default=10)
    pt.add_argument("--svg", default="")
    pt.add_argument("--csv", default="")
    pt.set_defaults(func=cmd_portrait)

    v = sub.add_parser("verify", help="type-table and genericity verification")
    v.add_argument("--family", required=True,
                   help="nondegenerate | deltazero | thetazero")
    v.add_argument("--r", type=float, default=1e-3)
    v.add_argument("--config", default="",
                   help="optional extra system to include in the family run")
    v.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle cross-checks")
    v.add_argument("--json-out", dest="json_out", default="")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    # bind the value after --mu, --r or --radii to it, so argparse does not
    # read a negative value such as -1e-3,1e-3 as an option
    for opt in ("--mu", "--r", "--radii"):
        while opt in argv[:-1]:
            i = argv.index(opt)
            argv[i:i + 2] = [f"{opt}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except UnsupportedCase as exc:
        message, code = f"unsupported case: {exc}", EXIT_UNSUPPORTED
    except (LVError, ValueError, OSError) as exc:
        # a point outside the disk, a radius out of range, a malformed value,
        # an output path that cannot be written
        message, code = f"error: {exc}", EXIT_CONFIG
    print(message, file=_sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
