"""Smoke test of the benchmark harness on the two-stage golden tower, dims
(2, 1) with 8 rays and 12 cones.  It runs every workload's code path, timed
and traced, and shows that every output check can fail.  It takes a few
seconds:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402

GOLDEN = {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def golden(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], dims=(2, 1))


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.delenv("FLAGBOTT_CONE_CAP", raising=False)


def test_closed_forms_of_golden_tower():
    assert harness.closed_forms((2, 1)) == {"rays": 8, "cones": 12, "walls": 18, "pairings": 24}
    assert harness.closed_forms((3, 3, 3)) == {
        "rays": 42, "cones": 13824, "walls": 62208, "pairings": 378,
    }
    assert harness.closed_forms((4, 4, 3))["cones"] == 345600
    assert harness.closed_forms((9, 9))["pairings"] == 36792


def test_seeded_tower_repeats_per_seed():
    a = harness.seeded_tower((3, 3, 3), random.Random(5))
    assert a == harness.seeded_tower((3, 3, 3), random.Random(5))
    assert a != harness.seeded_tower((3, 3, 3), random.Random(6))
    entries = [e for rows in a["A"].values() for row in rows for e in row]
    assert min(entries) >= -harness.BOUND and max(entries) <= harness.BOUND


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_runs_clean(name, trace, tmp_path):
    result = harness.run(ROOT, golden(name), 7, 0.0, trace, tmp_path, MANIFEST, doc=GOLDEN)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= harness.MIN_ROUNDS
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{name}-seed7-trace{int(trace)}.json").read_text())
    assert record["env"]["workload"] == name and record["env"]["seed"] == 7
    assert {"python", "nproc", "cpu_model", "git_commit"} <= set(record["env"])
    assert record["failed_ops"] == 0
    if trace:
        assert record["not_in_package"] == []
        for key, want in harness.expected_work(golden(name)).items():
            assert record["work"][key] == want
        header = json.loads((tmp_path / f"{name}-spans.jsonl").open().readline())
        assert header["env"] == record["env"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []


def test_traced_work_counts_must_repeat(tmp_path):
    w = golden("verify-large")
    harness.run(ROOT, w, 3, 0.0, True, tmp_path, MANIFEST, doc=GOLDEN)
    path = tmp_path / "verify-large-seed3-trace1.json"
    record = json.loads(path.read_text())
    record["work"]["work.cones"] += 1
    path.write_text(json.dumps(record))
    assert not harness.run(ROOT, w, 3, 0.0, True, tmp_path, MANIFEST, doc=GOLDEN)["correct"]


def test_traced_work_counts_must_match_closed_forms(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "expected_work", lambda w: {"work.cones": 13})
    result = harness.run(ROOT, golden("export-large"), 3, 0.0, True, tmp_path, MANIFEST, doc=GOLDEN)
    assert not result["correct"] and result["failed"] == 0
    record = json.loads((tmp_path / "export-large-seed3-trace1.json").read_text())
    assert record["errors"] == ["work.cones is 12, closed form gives 13"]


@pytest.fixture
def checkers(tmp_path):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(GOLDEN))
    fan = str(tmp_path / "fan.txt")
    return {name: harness.Checker(golden(name), str(spec), fan) for name in harness.WORKLOADS}, spec, fan


def test_verify_and_pairing_checks_fail_on_wrong_output(checkers):
    by_name, spec, fan = checkers
    verify = by_name["verify-large"].check
    cmd = harness.Command("verify", ("verify", str(spec)))
    good = "\n".join(by_name["verify-large"].verify_lines) + "\n"
    assert verify(cmd, 0, good) is None
    assert verify(cmd, 1, good) == "exit code 1"
    assert verify(cmd, 0, good.replace("18 walls", "17 walls")) is not None
    assert verify(cmd, 0, good.replace("ok", "FAIL", 1)) is not None
    pairing = harness.Command("pairing", ("verify", "--pairing", str(spec)))
    assert by_name["over-cap"].check(pairing, 0, "pairing: ok (24 pairings)\n") is None
    assert by_name["over-cap"].check(pairing, 0, "pairing: ok (23 pairings)\n") is not None


def test_export_check_fails_on_wrong_bytes(checkers):
    by_name, spec, fan = checkers
    checker = by_name["export-large"]
    cmd = harness.Command("export", ("export", str(spec), "--out", fan))
    checker.prepare(cmd)
    assert checker.check(cmd, 0, "") is not None  # nothing written
    _, code, out = harness.run_inprocess(cmd)
    assert checker.check(cmd, code, out) is None
    data = Path(fan).read_bytes()
    Path(fan).write_bytes(data.replace(b"RAYS 8", b"RAYS 9"))
    assert "headers" in checker.check(cmd, 0, "")
    last = data.rstrip(b"\n").rsplit(b"\n", 1)
    Path(fan).write_bytes(last[0] + b"\n" + last[1][::-1] + b"\n")
    assert "bytes differ" in checker.check(cmd, 0, "")


def test_sample_check_fails_on_vanishing_minor():
    assert harness.check_sample(1, "1 2\n3 4\n") is None
    assert "rows [1]" in harness.check_sample(1, "0 2\n3 4\n")
    assert "rows [1, 2]" in harness.check_sample(1, "1 2\n2 4\n")
    assert "outside" in harness.check_sample(1, "1 2\n3 40\n")
    assert "not 2x2" in harness.check_sample(1, "1 2\n")
    assert "integer" in harness.check_sample(1, "1 x\n3 4\n")


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "over-cap", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
