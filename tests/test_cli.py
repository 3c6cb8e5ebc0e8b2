"""Command-line interface: parsing, output formats, exit codes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from flagbott import cli, orbitfan
from flagbott.cli import format_fan, load_tower, main
from flagbott.fans import Ray, RayLabel, Subset
from flagbott.orbitfan import PairingViolation, build_fan, verify_pairing_identity
from flagbott.tower import FlagBottTower

TWO_STAGE_DOC = {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(TWO_STAGE_DOC))
    return str(p)


def test_load_tower(spec_path):
    t = load_tower(spec_path)
    assert isinstance(t, FlagBottTower)
    assert t.dims == (2, 1)
    assert t.twist(2, 1).to_rows() == [[1, 2, 0], [0, 0, 0]]


def test_load_tower_missing_file(tmp_path, capsys):
    assert main(["build", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_load_tower_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dims": [2, 1], }')
    assert main(["build", str(p)]) == 2
    err = capsys.readouterr().err
    # location is path:line:column
    assert err.startswith(f"{p}:1:")


def test_load_tower_bad_shape(tmp_path, capsys):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps({"dims": [2, 1], "A": {"2,1": [[1, 2], [0, 0]]}}))
    assert main(["build", str(p)]) == 2
    assert "expected 2x3" in capsys.readouterr().err


def test_load_tower_bad_key(tmp_path, capsys):
    p = tmp_path / "key.json"
    p.write_text(json.dumps({"dims": [1, 1], "A": {"twist": [[0, 0], [0, 0]]}}))
    assert main(["build", str(p)]) == 2
    assert "'twist'" in capsys.readouterr().err


def test_load_tower_missing_matrix(tmp_path, capsys):
    p = tmp_path / "missing.json"
    p.write_text(json.dumps({"dims": [1, 1]}))
    assert main(["build", str(p)]) == 2
    assert "missing matrix" in capsys.readouterr().err


def rejected(tmp_path, capsys, text: str) -> str:
    """Load text as a tower file; assert exit 2 naming the file; return stderr."""
    p = tmp_path / "tower.json"
    p.write_text(text)
    assert main(["build", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{p}:")
    return err


def test_load_tower_rejects_bools(tmp_path, capsys):
    doc = {"dims": [True, 1], "A": {"2,1": [[0, 0], [0, 0]]}}
    assert '"dims"' in rejected(tmp_path, capsys, json.dumps(doc))
    doc = {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, False, 0]]}}
    assert "bool" in rejected(tmp_path, capsys, json.dumps(doc))


def test_load_tower_rejects_noncanonical_keys(tmp_path, capsys):
    # "2,1" and "2, 1" would otherwise both name stage pair (2, 1)
    doc = {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]], "2, 1": [[0, 0, 0], [0, 0, 0]]}}
    assert "'2, 1'" in rejected(tmp_path, capsys, json.dumps(doc))
    for key in (" 2,1", "02,1", "+2,1", "2,1,"):
        doc = {"dims": [2, 1], "A": {key: [[1, 2, 0], [0, 0, 0]]}}
        assert repr(key) in rejected(tmp_path, capsys, json.dumps(doc))


def test_load_tower_rejects_duplicate_keys(tmp_path, capsys):
    text = '{"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]], "2,1": [[0, 0, 0], [0, 0, 0]]}}'
    assert "duplicate key '2,1'" in rejected(tmp_path, capsys, text)
    text = '{"dims": [2, 1], "dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}'
    assert "duplicate key 'dims'" in rejected(tmp_path, capsys, text)


def test_build_prints_counts(spec_path, capsys):
    assert main(["build", spec_path]) == 0
    assert capsys.readouterr().out == "rays: 8, maxcones: 12\n"


def test_rays_output(spec_path, capsys):
    assert main(["rays", spec_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "1 {1} : 1 0 0"
    assert "1 {3} : -1 -1 3" in lines
    assert "2 {2} : 0 0 -1" in lines


def test_verify_all_checks_pass(spec_path, capsys):
    assert main(["verify", spec_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(":")[0] for line in lines]
    assert names == ["smooth", "complete", "pairing", "oracle", "bundle"]
    assert all(": ok (" in line for line in lines)


def test_verify_single_check(spec_path, capsys):
    assert main(["verify", spec_path, "--smooth"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0] == "smooth: ok (12 cones)"


def test_export_and_format(spec_path, tmp_path, capsys):
    out = tmp_path / "fan.txt"
    assert main(["export", spec_path, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == format_fan(build_fan(load_tower(spec_path)))
    lines = text.splitlines()
    assert lines[0] == "FANBOTT 1"
    assert lines[1] == "dims 2 1"
    assert lines[2] == "RAYS 8"
    assert lines[3] == "1 {1} : 1 0 0"
    assert lines[11] == "MAXCONES 12"
    assert len(lines) == 3 + 8 + 1 + 12
    assert text.endswith("\n")


def test_build_out_matches_export(spec_path, tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["build", spec_path, "--out", str(a)]) == 0
    assert main(["export", spec_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cone_cap_env(spec_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "11")
    assert main(["build", spec_path]) == 1
    assert "12 maximal cones" in capsys.readouterr().err
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "12")
    assert main(["build", spec_path]) == 0
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "many")
    assert main(["build", spec_path]) == 2


def test_cone_cap_below_one(spec_path, capsys, monkeypatch):
    for raw in ("0", "-1"):
        monkeypatch.setenv("FLAGBOTT_CONE_CAP", raw)
        assert main(["build", spec_path]) == 2
        assert "FLAGBOTT_CONE_CAP must be at least 1" in capsys.readouterr().err


def test_verify_pairing_fails_on_perturbed_ray(spec_path, capsys, monkeypatch):
    t = load_tower(spec_path)
    bad = (2, Subset.of(2, (1,)))
    true_generator = orbitfan.ray_generator

    def perturbed(t, ell, s):
        u = true_generator(t, ell, s)
        return (u[0] + 1,) + u[1:] if (ell, s) == bad else u

    monkeypatch.setattr(orbitfan, "ray_generator", perturbed)
    violations = verify_pairing_identity(t).violations
    assert violations
    assert all(isinstance(x, PairingViolation) for x in violations)
    assert {(x.stage, x.subset) for x in violations} == {bad}
    assert main(["verify", "--pairing", spec_path]) == 1
    assert capsys.readouterr().out.startswith("pairing: FAIL (")


def test_verify_oracle_fails_on_flipped_ray(spec_path, capsys, monkeypatch):
    fan = build_fan(load_tower(spec_path))
    r = fan.ray_index[RayLabel(1, Subset.of(3, (1,)))]
    rays = list(fan.rays)
    rays[r] = Ray(rays[r].label, tuple(-c for c in rays[r].vector))
    flipped = dataclasses.replace(fan, rays=tuple(rays))
    monkeypatch.setattr(cli, "build_fan", lambda t, cone_cap: flipped)
    k = sum(r in cone for cone in fan.maxcones)
    assert 0 < k < len(fan.maxcones)
    assert main(["verify", "--oracle", spec_path]) == 1
    assert capsys.readouterr().out == f"oracle: FAIL ({k} of {len(fan.maxcones)} cones disagree)\n"


def test_sample_generic_deterministic(capsys):
    assert main(["sample-generic", "--n", "3", "--bound", "5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    rows = first.splitlines()
    assert len(rows) == 4
    assert all(len(r.split()) == 4 for r in rows)
    assert main(["sample-generic", "--n", "3", "--bound", "5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_verify_exit_code_on_runtime_failure(spec_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "1")
    assert main(["verify", spec_path]) == 1


def test_module_entry_point(spec_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "flagbott", "build", spec_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "rays: 8, maxcones: 12\n"
