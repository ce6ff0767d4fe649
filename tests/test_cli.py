import json
import math
from importlib import resources

import pytest

from lvbif.cli import main
from lvbif.model import load_system


def fixture_path(name: str) -> str:
    return str(resources.files("lvbif") / "fixtures" / name)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:   # argparse's own errors exit from parse_args
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_reports_interior_attractor(capsys):
    code, out, _ = run(capsys, "analyze",
                       "--config", fixture_path("nondegenerate_iv.json"),
                       "--mu", "1e-3,1e-3")
    assert code == 0
    assert "E3" in out and "attractor" in out
    assert "region signature: rssa" in out


def test_analyze_at_origin_single_degenerate_point(capsys):
    code, out, _ = run(capsys, "analyze",
                       "--config", fixture_path("nondegenerate_iv.json"),
                       "--mu", "0,0")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip().startswith("E")]
    assert len(lines) == 1 and "E0" in lines[0] and "degenerate" in lines[0]


@pytest.mark.parametrize("mu, line", [
    # on the positive mu1 semi-axis, a sector boundary
    ("1e-3,0", "region: on a bifurcation curve"),
    # on the positive mu2 semi-axis: the message names that one curve
    ("0,1e-3", "region: on a bifurcation curve (mu lies within sep_tol of "
               "the Yplus boundary)"),
    # |mu| below the smallest radius decompose accepts
    ("5e-5,5e-5", "region: not resolved"),
])
def test_analyze_reports_a_point_without_a_region(capsys, mu, line):
    code, out, _ = run(capsys, "analyze",
                       "--config", fixture_path("nondegenerate_iv.json"),
                       "--mu", mu)
    assert code == 0
    assert out.splitlines()[-1].startswith(line)


def test_analyze_raw_config(capsys):
    code, out, _ = run(capsys, "analyze",
                       "--config", fixture_path("raw_attractor.json"),
                       "--mu", "1e-3,1e-3")
    assert code == 0
    assert "NonDegenerate" in out


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "raw", "p12": {"(0,0)": 0.0},
                               "p21": {"(0,0)": 1.0}}))
    code, _, err = run(capsys, "analyze", "--config", str(bad),
                       "--mu", "1e-3,0")
    assert code == 2
    assert "p12(0) must be nonzero" in err
    # a malformed value, an unknown key or form, a non-finite coefficient,
    # a degree that is not an integer or a config that is not an object:
    # one line that names the culprit, no traceback
    good = load_system(fixture_path("nondegenerate_i.json")).to_json_dict()
    for cfg, named in (({**good, "theta": {"(0,0)": None}}, ""),
                       ({**good, "theta": "abc"}, ""),
                       ({**good, "degree": None}, "None"),
                       ({**good, "thta": {"(0,0)": 0.5}}, "'thta'"),
                       ({"form": "raw", "p12": 1.0, "p21": 1.0, "L": 1.0},
                        "'L'"),
                       ({**good, "delta": {"(0,0)": math.inf}}, "delta"),
                       ({**good, "theta": {"(0,0)": math.nan}}, "theta"),
                       ({**good, "degree": 2.7}, "2.7"),
                       ({**good, "degree": True}, "True"),
                       ({**good, "form": "xyz"}, "'xyz'"),
                       # a coefficient is a JSON number, not a bool or a
                       # string, and no two keys name one exponent pair
                       ({**good, "theta": True}, "True"),
                       ({**good, "delta": False}, "False"),
                       ({**good, "theta": {"(0,0)": "0.5"}}, "'0.5'"),
                       ({**good, "theta": {"(0,0)": 0.5, "( 0 , 0 )": -2.0}},
                        "'( 0 , 0 )'"),
                       # mu_negated is a JSON bool of the reduced form
                       ({**good, "mu_negated": 1}, "mu_negated"),
                       ({**good, "mu_negated": "true"}, "mu_negated"),
                       ({"form": "raw", "p12": -1.0, "p21": -1.0,
                         "mu_negated": True}, "'mu_negated'"),
                       ([1, 2], "")):
        bad.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "analyze", "--config", str(bad),
                           "--mu", "1e-3,1e-3")
        assert code == 2, cfg
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert named in err, (named, err)
    # an integral float degree is the integer
    bad.write_text(json.dumps({**good, "degree": 2.0}))
    assert run(capsys, "analyze", "--config", str(bad),
               "--mu", "1e-3,1e-3")[0] == 0


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--config", "/nonexistent.json",
                       "--mu", "0,0")
    assert code == 2


def test_curves_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, text, _ = run(capsys, "curves",
                            "--config", fixture_path("deltazero_i.json"),
                            "--radii", "1e-3,1e-4", "--out", str(out))
        assert code == 0
        assert "T3:" in text and "D_branch_neg:" in text
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "kind,branch,mu1,mu2,residual"


def test_curves_prints_half_trace_slope(capsys):
    code, out, _ = run(capsys, "curves",
                       "--config", fixture_path("nondegenerate_vi.json"),
                       "--radii", "1e-3")
    assert code == 0
    assert "H: " in out and "leading=" in out


def test_curves_skips_the_e3_kinds_where_theta_delta_is_one(tmp_path,
                                                           capsys):
    cfg = tmp_path / "hyperbola.json"
    cfg.write_text(json.dumps({"theta": 2.0, "delta": 0.5, "gamma": 1.0}))
    code, out, _ = run(capsys, "curves", "--config", str(cfg),
                       "--radii", "1e-3")
    assert code == 0
    lines = out.splitlines()
    assert lines[:7] == [f"{k}: 1 samples leading=0"
                         for k in ("Xplus", "Yplus", "Xminus", "Yminus")] + [
        f"{k}: skipped (theta*delta - 1 vanishes)" for k in ("T1", "T2", "H")]


def test_curves_on_a_doubly_degenerate_config_is_unsupported(tmp_path,
                                                            capsys):
    cfg = tmp_path / "doubly.json"
    cfg.write_text(json.dumps({"theta": {"(1,0)": 1.0}, "gamma": 1.0,
                               "delta": {"(0,1)": 1.0}}))
    code, _, err = run(capsys, "curves", "--config", str(cfg))
    assert code == 3
    assert err.startswith("unsupported case: ") and "DoublyDegenerate" in err


def test_analyze_prints_the_case_and_equilibrium_notes(tmp_path, capsys):
    # a DeltaZero system with P(0) < 0, which the tables do not cover
    from lvbif.cases import deltazero_case
    cfg = tmp_path / "p_negative.json"
    cfg.write_text(json.dumps({**deltazero_case(1.0, 1.5).to_json_dict(),
                               "P": {"(0,0)": -1.0}}))
    code, out, _ = run(capsys, "analyze", "--config", str(cfg),
                       "--mu", "1e-3,1e-3")
    assert code == 0
    assert "note: table verification limited to P>0" in out.splitlines()
    # a point of a NonDegenerate system where E3 does not exist
    from test_bifurcation import E3_LESS
    cfg.write_text(json.dumps(E3_LESS))
    code, out, _ = run(capsys, "analyze", "--config", str(cfg),
                       "--mu", "-0.000492898192229784,0.0008700869911087114")
    assert code == 0
    assert ("  note: NewtonDivergence: E3 absent (Newton step did not lower "
            "the residual 3.470e-07)") in out.splitlines()
    assert not any(l.startswith("  E3 ") for l in out.splitlines())


def test_portrait_without_an_output_writes_nothing(capsys):
    code, out, _ = run(capsys, "portrait",
                       "--config", fixture_path("nondegenerate_iv.json"),
                       "--mu", "1e-3,1e-3", "--grid", "2")
    assert code == 0
    assert out.splitlines()[0] == "nothing written (pass --svg and/or --csv)"


def test_portrait_outputs_deterministic(tmp_path, capsys):
    svgs, csvs = [], []
    for name in ("p1.svg", "p2.svg"):
        svg = tmp_path / name
        csv = tmp_path / (name + ".csv")
        code, out, _ = run(capsys, "portrait",
                           "--config", fixture_path("nondegenerate_iv.json"),
                           "--mu", "1e-3,1e-3", "--grid", "4",
                           "--svg", str(svg), "--csv", str(csv))
        assert code == 0
        svgs.append(svg.read_bytes())
        csvs.append(csv.read_bytes())
        assert "E3" in out
    assert svgs[0] == svgs[1]
    assert b"<svg" in svgs[0]
    assert csvs[0] == csvs[1]
    assert csvs[0].startswith(b"t,xi1,xi2,trajectory_id,terminal\n")


def test_verify_family_passes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "deltazero",
                       "--r", "1e-3")
    assert code == 0
    assert "verification PASSED" in out
    assert "regions=20" in out


def test_verify_doubly_degenerate_out_of_scope(capsys):
    code, _, err = run(capsys, "verify", "--family", "doublydegenerate")
    assert code == 3
    assert "out of scope" in err


def test_verify_unknown_family_is_unsupported(capsys):
    code, _, err = run(capsys, "verify", "--family", "foo")
    assert code == 3
    assert err == "unknown family 'foo'\n"


def test_verify_corrupted_config_fails_with_diff(tmp_path, capsys):
    # a system whose sign cell does not produce new table columns is fine,
    # but a wrong-family config must be refused
    code, _, err = run(capsys, "verify", "--family", "deltazero",
                       "--config", fixture_path("nondegenerate_i.json"))
    assert code == 3
    corrupted = tmp_path / "corrupt.json"
    cfg = json.loads((resources.files("lvbif") / "fixtures"
                      / "deltazero_i.json").read_text())
    cfg["P"] = {"(0,0)": -1.0}  # flips the sign cell out of table coverage
    corrupted.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "verify", "--family", "deltazero",
                       "--config", str(corrupted))
    assert code == 3


def test_verify_mismatch_exits_one(tmp_path, capsys, monkeypatch):
    # corrupt one canonical diagram (theta flipped against its cell): the
    # family then misses table columns and the run must fail with the diff
    import lvbif.regions as regions
    from lvbif.cases import CANONICAL_BY_FAMILY, nondegenerate_case
    from lvbif.model import NONDEGENERATE
    broken = dict(CANONICAL_BY_FAMILY)
    cases = list(broken[NONDEGENERATE])
    cases[3] = ("IV", nondegenerate_case(2.0, -1.0))
    broken[NONDEGENERATE] = tuple(cases)
    monkeypatch.setattr(regions, "CANONICAL_BY_FAMILY", broken)
    code, out, _ = run(capsys, "verify", "--family", "nondegenerate")
    assert code == 1
    assert "verification FAILED" in out
    assert "unmatched expected" in out


def test_verify_reports_a_signature_the_table_lacks(capsys, monkeypatch):
    # the table without its first column: that region is computed but
    # not expected
    import lvbif.regions as regions
    from lvbif.model import NONDEGENERATE
    table = regions.EXPECTED_SIGNATURES[NONDEGENERATE]
    monkeypatch.setitem(regions.EXPECTED_SIGNATURES, NONDEGENERATE,
                        table[1:])
    code, out, _ = run(capsys, "verify", "--family", "nondegenerate")
    assert code == 1
    lines = out.splitlines()
    assert "unexpected signatures: " + "".join(table[0]) in lines
    assert lines[-2:] == ["verification FAILED",
                          "unmatched computed: " + "".join(table[0])]


def test_analyze_negative_pair_reports_relabeling(tmp_path, capsys):
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({
        "form": "raw",
        "p11": {"(0,0)": 2.0}, "p12": {"(0,0)": -1.0},
        "p21": {"(0,0)": -1.0}, "p22": {"(0,0)": 1.0}}))
    code, out, _ = run(capsys, "analyze", "--config", str(cfg),
                       "--mu", "1e-3,1e-3")
    assert code == 0
    assert "relabeled nu = -mu" in out
    assert "E3" in out
    # the reduced config saved from it is analyzed alike, note included
    saved = tmp_path / "neg_reduced.json"
    saved.write_text(json.dumps(load_system(str(cfg)).to_json_dict()))
    assert run(capsys, "analyze", "--config", str(saved),
               "--mu", "1e-3,1e-3")[:2] == (0, out)


def test_module_entry_point_subprocess():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "lvbif.cli", "analyze",
         "--config", fixture_path("nondegenerate_iv.json"),
         "--mu", "1e-3,1e-3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "region signature: rssa" in proc.stdout


def test_verify_json_report(tmp_path, capsys):
    payload = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--family", "thetazero",
                       "--json-out", str(payload))
    assert code == 0
    data = json.loads(payload.read_text())
    assert data["success"] is True
    assert data["total_regions"] == 20
    assert data["sotomayor"]["success"] is True


@pytest.mark.parametrize("family", ["nondegenerate", "deltazero", "thetazero"])
def test_verify_oracle_passes_every_family(capsys, family):
    code, out, _ = run(capsys, "verify", "--family", family, "--r", "1e-3",
                       "--oracle")
    assert code == 0, out
    assert "FAIL" not in out


def test_verify_oracle_scans_at_the_radius_of_a_retried_decomposition(
        capsys, monkeypatch):
    import lvbif.oracle as oracle
    import lvbif.regions as rg
    from lvbif.errors import SectorTooThin
    tried, scanned = [], []

    def thin_once(sys_, r, _f=rg._decompose_at):
        tried.append(r)
        if len(tried) == 1:
            raise SectorTooThin("boundary angles nearly coincide")
        return _f(sys_, r)

    def scan(sys_, r, *args, _f=oracle.sign_scan):
        scanned.append(r)
        return _f(sys_, r, *args)
    monkeypatch.setattr(rg, "_decompose_at", thin_once)
    monkeypatch.setattr(oracle, "sign_scan", scan)
    code, out, _ = run(capsys, "verify", "--family", "nondegenerate",
                       "--r", "1e-3", "--oracle")
    assert code == 0, out
    assert tried[:2] == [1e-3, 1e-3 / 4]
    # the first diagram was cut at r/4, every other one at r
    assert scanned == [1e-3 / 4] + [1e-3] * (len(scanned) - 1)


def test_verify_oracle_checks_the_config_system(capsys):
    code, out, _ = run(capsys, "verify", "--family", "thetazero",
                       "--config", fixture_path("thetazero_iii.json"),
                       "--oracle")
    assert code == 0, out
    assert "[ok ] case config: sector RLE matches, grid roots match" in out


def shipped_fixtures():
    return sorted(p.name for p in (resources.files("lvbif") / "fixtures")
                  .iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("argv", [("analyze", "--mu", "1e-3,1e-3"),
                                  # a negative mu1 after --mu is its value
                                  ("analyze", "--mu", "-1e-3,1e-3"),
                                  ("curves", "--radii", "1e-3,1e-4"),
                                  ("portrait", "--mu", "1e-3,1e-3", "--grid",
                                   "2", "--csv", "{tmp}/p.csv"),
                                  ("verify", "--family", "{family}")])
def test_readme_commands_exit_zero_on_every_shipped_fixture(tmp_path, capsys,
                                                            argv):
    names = shipped_fixtures()
    assert len(names) == 23
    for name in names:
        family = load_system(fixture_path(name)).degeneracy.lower()
        args = [a.format(tmp=tmp_path, family=family) for a in argv]
        code, _, err = run(capsys, args[0], "--config", fixture_path(name),
                           *args[1:])
        assert code == 0, (name, err)


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "deltazero", "--r", "0.5"),
    ("verify", "--family", "deltazero", "--r", "1e-5"),
    ("analyze", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "abc"),
    ("analyze", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "nan,0"),
    ("curves", "--config", fixture_path("deltazero_i.json"), "--radii", "abc"),
    ("portrait", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "1e-3,1e-3", "--grid", "0"),
    ("curves", "--config", fixture_path("deltazero_i.json"), "--radii", "0.5"),
    # a repeated radius would write each of its samples twice
    ("curves", "--config", fixture_path("nondegenerate_iv.json"),
     "--radii", "1e-3,1e-3"),
    # output paths in a missing directory
    ("curves", "--config", fixture_path("deltazero_i.json"),
     "--out", "{missing}/c.csv"),
    ("portrait", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "1e-3,1e-3", "--grid", "2", "--svg", "{missing}/p.svg"),
    ("portrait", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "1e-3,1e-3", "--grid", "2", "--csv", "{missing}/p.csv"),
    ("verify", "--family", "deltazero", "--json-out", "{missing}/r.json"),
    # argparse's own errors
    ("portrait", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "1e-3,1e-3", "--grid", "abc"),
    ("verify",),
    # a point outside the disk |mu| < 1e-2
    ("analyze", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "2e-2,0"),
    # argparse's own error: there is no flag to widen the disk
    ("analyze", "--config", fixture_path("nondegenerate_iv.json"),
     "--mu", "1e-3,1e-3", "--epsilon-disk", "2e-2"),
])
def test_bad_argument_exits_two_with_one_line(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(missing=tmp_path / "missing")
                                   for a in argv))
    assert code == 2, out
    assert len(err.splitlines()) == 1, err
    # analyze checks its point before it prints anything
    if argv[0] == "analyze":
        assert out == "", out


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "deltazero", "--r", "-1e-3"),
    ("curves", "--config", fixture_path("deltazero_i.json"),
     "--radii", "-1e-3,1e-4"),
])
def test_negative_radius_reports_its_range(capsys, argv):
    # a negative value after --r or --radii is that value, not an option,
    # so the error names the radius range and not a missing argument
    code, out, err = run(capsys, *argv)
    assert code == 2, out
    assert len(err.splitlines()) == 1 and "outside" in err, err


def test_readme_cli_block_lists_every_parser_option():
    # each option a subcommand accepts is on that subcommand's README line
    import argparse
    from pathlib import Path

    from lvbif.cli import build_parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = {line.split()[1]: line.replace("[", " ").replace("]", " ")
             for line in block.splitlines() if line.startswith("lvbif ")}
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert set(lines) == set(sub.choices)
    for name, parser in sub.choices.items():
        for action in parser._actions:
            for opt in action.option_strings:
                if opt not in ("-h", "--help"):
                    assert opt in lines[name].split(), (name, opt)


def test_runs_without_scipy(tmp_path):
    # scipy is a test-time reference only; with it unimportable, every
    # family still verifies and a portrait still integrates
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lvbif
    script = f"""
import sys
sys.modules["scipy"] = None
from lvbif.cli import main
codes = [main(["verify", "--family", f])
         for f in ("nondegenerate", "deltazero", "thetazero")]
codes.append(main(["portrait", "--config", {fixture_path("nondegenerate_iv.json")!r},
                   "--mu", "1e-3,1e-3", "--grid", "4",
                   "--svg", {str(tmp_path / "p.svg")!r}]))
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
print("codes", codes, "scipy modules", loaded)
sys.exit(0 if codes == [0, 0, 0, 0] and not loaded else 1)
"""
    src = str(Path(lvbif.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
