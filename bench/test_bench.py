"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import lvbif  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_printed_name_is_declared(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tables",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared(section)


def oracle_subset(seed: int) -> workloads.Workload:
    """The canonical NonDegenerate oracle items."""
    wl = workloads.build_oracle(seed)
    keep = [it for it in wl.items if it.name.startswith("oracle/NonDegenerate/")
            and "random" not in it.name]
    return replace(wl, items=keep)


def test_same_seed_gives_same_inputs_and_failed_frac():
    for name, build in workloads.BUILDERS.items():
        assert build(7).describe() == build(7).describe(), name
    assert (workloads.build_oracle(7).input_digest()
            != workloads.build_oracle(8).input_digest())

    fracs = []
    for _ in range(2):
        wl = oracle_subset(7)
        v = worker.verdicts([workloads.run_pass(wl)[1]])
        fracs.append(v["failed"] / v["attempted"])
    assert fracs[0] == fracs[1]
    assert fracs[0] > 0.0      # case II stays visible as a failure


def test_corrupted_result_is_counted_as_failed(monkeypatch):
    wl = oracle_subset(7)
    wl = replace(wl, items=[it for it in wl.items
                            if it.name.startswith("oracle/NonDegenerate/I@")])
    _, clean, _ = workloads.run_pass(wl)
    assert [r.ok for r in clean] == [True]

    real_scan = lvbif.sign_scan

    def corrupted(*args, **kw):
        scan = real_scan(*args, **kw)
        scan.blocks = scan.blocks[1:]
        return scan
    monkeypatch.setattr(lvbif, "sign_scan", corrupted)
    _, bad, _ = workloads.run_pass(wl)
    assert not bad[0].ok and "RLE mismatch" in bad[0].reason
    assert worker.verdicts([bad])["failed"] == 1

    # an output that changes between passes fails its item too
    drift = [replace(clean[0], digest="0" * 64)]
    v = worker.verdicts([clean, drift])
    assert v["failed"] == 1 and not v["consistent"]


def test_unit_times_scale_samples_to_the_fastest_probe():
    def res(ms, probe, laps=()):
        return workloads.ItemResult("x", ms, True, "", "d", probe, list(laps))
    # the fastest probe reads 1.0; a sample probed at 2.0 counts half
    one = [res(10.0, 1.0, [(4.0, 1.0), (4.0, 1.0)]), res(6.0, 2.0)]
    two = [res(20.0, 2.0, [(8.0, 2.0), (8.0, 2.0)]), res(8.0, 2.0)]
    partial = [res(12.0, 1.0, [(6.0, 1.0), (5.0, 1.0)])]
    # rest median(2, 2, 1) + laps median(4, 4, 6) + median(4, 4, 5)
    assert worker.unit_times([one, two, partial]) == [10.0, 3.5]
    # a lap count that changes between passes falls back to the whole time
    odd = [res(9.0, 1.0, [(9.0, 1.0)])]
    assert worker.unit_times([one, odd]) == [9.5, 3.0]
