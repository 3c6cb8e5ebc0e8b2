"""Command-line interface: parsing, output formats, exit codes."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (
    POPULATION_SEEDS,
    random_tower,
    ray_index,
    reference_format_fan,
    seeded_doc,
    subset,
    three_stage_tower,
    two_stage_tower,
)
from flagbott import fancheck, fans, orbitfan, permfan
from flagbott.cli import format_fan, load_tower, main
from flagbott.fans import Ray, RayLabel
from flagbott.orbitfan import PairingViolation, build_fan, verify_pairing_identity
from flagbott.tower import FlagBottTower

TWO_STAGE_DOC = {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}
THREE_STAGE_DOC = {
    "dims": [2, 2, 1],
    "A": {
        "2,1": [[1, 2, 0], [3, 4, 0], [0, 0, 0]],
        "3,1": [[5, 6, 0], [0, 0, 0]],
        "3,2": [[7, 8, 0], [0, 0, 0]],
    },
}
# sha256 of the export of each tower, fixed so that a change to the fan's
# enumeration or to its formatting shows as a changed byte
EXPORT_SHA256 = [
    (TWO_STAGE_DOC, "ee314ea32b3739d5c4182616351199c711ca9223ac7d406ab10183ca3b431887"),
    (THREE_STAGE_DOC, "d2ebbe554c95598ab6b5790f1d8dc8d5e1909800b5e15465ca8c019d7183c786"),
    (seeded_doc((2, 2, 2, 2), 1), "3d23f6f267e57ff2d3d96150d26c7d5eba88a7ec5a8c0ae226ad8bbdd935eee9"),
    (seeded_doc((3, 3, 3), 1), "01633dc98bcf748f23830336132d3e303e80757be3d1f0fbf80ac9478cd0d53d"),
    (seeded_doc((4, 4, 3), 1), "cddad0f0b309fdb0258daca23570d85472201d0b7e8d4a9acb4810bc8e5f7e35"),
]


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
    path = tmp_path / "tower.json"
    assert rejected(tmp_path, capsys, json.dumps(doc)) == f"{path}: matrix for stage pair (2, 1) holds a bool; entries must be int\n"


def test_load_tower_rejects_ragged_rows(tmp_path, capsys):
    p = tmp_path / "ragged.json"
    p.write_text(json.dumps({"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0]]}}))
    assert main(["build", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}: matrix '2,1': ragged rows\n"


def test_load_tower_rejects_a_matrix_that_is_not_a_list_of_rows(tmp_path, capsys):
    for value in ("x", {"a": 1, "b": 2, "c": 3}, 5, [[1, 2, 0], "abc"]):
        p = tmp_path / "rows.json"
        p.write_text(json.dumps({"dims": [2, 1], "A": {"2,1": value}}))
        assert main(["build", str(p)]) == 2
        assert capsys.readouterr() == ("", f"{p}: matrix '2,1' must be a list of rows\n")


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


def test_load_tower_rejects_non_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}, "note": "\xe9"}')
    assert main(["rays", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}: byte 64 is not UTF-8 text\n"


def test_load_tower_rejects_deep_nesting(tmp_path, capsys):
    depth = 200_000  # far past the interpreter's recursion limit
    text = '{"dims": ' + "[" * depth + "]" * depth + "}"
    assert "nested too deeply" in rejected(tmp_path, capsys, text)


def test_load_tower_rejects_huge_integer_literal(tmp_path, capsys):
    text = '{"dims": [' + "7" * 5000 + "]}"  # over the int-to-string digit limit
    assert "4300 digits" in rejected(tmp_path, capsys, text)


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


def test_verify_computes_cone_determinants_once(spec_path, capsys, monkeypatch):
    # every batch of cones takes the level walk; the lifts of a split of a
    # join are its projection's cones
    calls = []
    run = fans._join_dets
    for module in (fans, fancheck):
        monkeypatch.setattr(module, "_join_dets", lambda matrices, *args: calls.append(("_join_dets", len(matrices))) or run(matrices, *args))
    assert main(["verify", spec_path]) == 0
    assert capsys.readouterr().out == (
        "smooth: ok (12 cones)\n"
        "complete: ok (18 walls)\n"
        "pairing: ok (24 pairings)\n"
        "oracle: ok (12 cones agree)\n"
        "bundle: ok (splits 2)\n"
    )
    # the cones, then the lifts of the split at 2
    assert calls == [("_join_dets", 12), ("_join_dets", 6)]
    assert main(["verify", spec_path, "--complete"]) == 0
    assert capsys.readouterr().out == "complete: ok (18 walls)\n"
    assert calls == [("_join_dets", 12), ("_join_dets", 6), ("_join_dets", 12)]


def test_verify_runs_the_product_order_pass_once_per_fan(tmp_path, capsys, monkeypatch):
    # the stage cones are joined once per tower, by build_fan: project_fan
    # reads each base, the projections to two stages and to one, off the
    # fan's nested heads, and no check joins them again to test a fan's order
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(THREE_STAGE_DOC))
    calls, join = [], fans.stage_join
    # fancheck too, which binds no stage_join, so that a join it formed
    # again would be counted
    for module in (orbitfan, fancheck, permfan):
        monkeypatch.setattr(module, "stage_join", lambda dims, cap: calls.append(dims) or join(dims, cap), raising=False)
    assert main(["verify", str(spec)]) == 0
    assert capsys.readouterr().out.count(": ok (") == 5
    assert calls == [(2, 2, 1)]


def test_verify_single_check(spec_path, capsys):
    assert main(["verify", spec_path, "--smooth"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0] == "smooth: ok (12 cones)"


def test_verify_help_lists_the_checks_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one line per option
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    options = [line.split(None, 1) for line in capsys.readouterr().out.splitlines() if line.startswith("  --")]
    assert [(flag, text.strip()) for flag, text in options] == [
        ("--smooth", "cone determinants are +-1"),
        ("--complete", "wall pairing covers R^n"),
        ("--pairing", "weights pair correctly with rays"),
        ("--oracle", "weight-derived rays match the formula"),
        ("--bundle", "iterated bundle structure holds"),
    ]


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


@pytest.mark.parametrize("doc, digest", EXPORT_SHA256, ids=["two-stage", "three-stage", "2222-seed1", "333-seed1", "443-seed1"])
def test_export_bytes_are_pinned(tmp_path, doc, digest):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "fan.txt"
    assert main(["export", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _edited_fans(fan: fans.Fan) -> list[fans.Fan]:
    """The fan with its cones reordered, repeated, dropped and cut, so
    that runs and tails are shared other than in build_fan's order."""
    cones = fan.maxcones
    head = sum(fan.dims[:-1])
    return [
        dataclasses.replace(fan, maxcones=cones[::-1]),
        dataclasses.replace(fan, maxcones=cones[:2] + cones[1:] + cones[:1]),
        dataclasses.replace(fan, maxcones=cones[1::3]),
        dataclasses.replace(fan, maxcones=((cones[-1][0],) * len(cones[-1]),) + cones[1:]),
        dataclasses.replace(fan, maxcones=cones[:1] + (cones[1][: max(head - 1, 0)],) + cones[1:]),
        dataclasses.replace(fan, maxcones=cones[:1] + ((), ()) + cones[1:]),
        dataclasses.replace(fan, maxcones=()),
    ]


def test_format_fan_equals_the_reference():
    towers = [two_stage_tower(), three_stage_tower(), FlagBottTower((3,), {}), *map(random_tower, POPULATION_SEEDS)]
    small = [fan for fan in map(build_fan, towers) if len(fan.maxcones) <= 576]
    assert len(small) > 50
    for fan in small:
        for f in [fan, *_edited_fans(fan)]:
            assert format_fan(f) == reference_format_fan(f)
            # cones given as lists are spelled as their tuples
            listed = dataclasses.replace(f, maxcones=[list(cone) for cone in f.maxcones])
            assert format_fan(listed) == reference_format_fan(f)
    empty = fans.Fan(dims=(), rays=(), maxcones=((),), perm_tuples=((),))
    assert format_fan(empty) == reference_format_fan(empty) == "FANBOTT 1\ndims \nRAYS 0\nMAXCONES 1\n\n"


def test_format_fan_spells_a_join_from_its_stage_data(tmp_path, monkeypatch):
    # seed-1 (4,4,3), and a one-stage tower, whose every head is (): each
    # join is spelled with none of its cones formed, to the text of its
    # materialised copy, which is not a join and is spelled cone by cone
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(seeded_doc((4, 4, 3), 1)))
    joins = [build_fan(load_tower(str(spec))), build_fan(FlagBottTower((3,), {}))]
    copies = [dataclasses.replace(f, maxcones=tuple(f.maxcones), perm_tuples=tuple(f.perm_tuples)) for f in joins]
    assert all(f.is_join and not c.is_join for f, c in zip(joins, copies))
    assert joins[1].maxcones.heads == ((),)

    def refuse(*args):
        raise AssertionError("a cone was formed")

    monkeypatch.setattr(fans._Join, "__iter__", refuse)
    monkeypatch.setattr(fans._Join, "__getitem__", refuse)
    texts = list(map(format_fan, joins))
    monkeypatch.undo()
    assert texts == list(map(format_fan, copies))
    # a last stage of dimension 0 makes every tail (): spelled cone by
    # cone, with no space after the head
    cones, perm_tuples = fans.stage_join((2, 0), 100)
    rays = tuple(Ray(RayLabel(1, fans.Subset(3, mask)), (0, 0)) for mask in range(1, 7))
    hollow = fans.Fan((2, 0), rays, cones, perm_tuples)
    assert hollow.is_join and cones.tails == ((),)
    assert format_fan(hollow) == reference_format_fan(hollow)


def test_format_fan_peak_memory_on_333(tmp_path):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps(seeded_doc((3, 3, 3), 1)))
    fan = build_fan(load_tower(str(spec)))
    tracemalloc.start()
    try:
        format_fan(fan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one line string per cone peaks at 1.8 MB, one block per run with a
    # second copy of the text at 1.1 MB; one block per head, joined once
    # with the final newline, at 0.74 MB: the 0.35 MB of blocks and the text
    assert peak < 1.0e6, peak


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


def test_cone_cap_over_digit_limit(spec_path, capsys, monkeypatch):
    # a well-formed integer that only the int digit limit refuses
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "9" * 5000)
    assert main(["build", spec_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FLAGBOTT_CONE_CAP is too large")
    assert len(err.encode()) < 200


def test_cap_stops_huge_stage_dimension(tmp_path, capsys):
    # 2001! cones: the count stops at the first partial product over the cap
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"dims": [2000]}))
    msg = "error: fan has at least 3628800 maximal cones, over the cap of 1000000\n"
    for argv in (["build", str(p)], ["verify", str(p)], ["export", str(p), "--out", str(tmp_path / "f")]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", msg)


def test_cap_bounds_rays_and_minors(tmp_path, capsys, monkeypatch):
    p = tmp_path / "one_stage.json"
    p.write_text(json.dumps({"dims": [4]}))  # 2**5 - 2 = 30 rays
    for cap, code in (("10", 1), ("29", 1), ("30", 0)):
        monkeypatch.setenv("FLAGBOTT_CONE_CAP", cap)
        for argv in (["rays", str(p)], ["verify", "--pairing", str(p)]):
            assert main(argv) == code
            out, err = capsys.readouterr()
            if code:
                assert out == ""
                assert err == f"error: rays over the cap of {cap}\n"
    sample = ["sample-generic", "--n", "4", "--bound", "5", "--seed", "1"]  # 2**5 - 1 = 31 minors
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "30")
    assert main(sample) == 1
    assert capsys.readouterr() == ("", "error: flag minors per candidate over the cap of 30\n")
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "31")
    assert main(sample) == 0


def test_verify_pairing_fails_on_perturbed_ray(spec_path, capsys, monkeypatch):
    t = load_tower(spec_path)
    bad = (2, subset(2, (1,)))
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
    r = ray_index(fan)[RayLabel(1, subset(3, (1,)))]
    rays = list(fan.rays)
    rays[r] = Ray(rays[r].label, tuple(-c for c in rays[r].vector))
    flipped = dataclasses.replace(fan, rays=tuple(rays))
    monkeypatch.setattr(orbitfan, "build_fan", lambda t, cone_cap: flipped)
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


def test_sample_generic_exhausted(capsys):
    # 7x7 matrices with entries in [-2, 2] are rarely generic
    assert main(["sample-generic", "--n", "6", "--bound", "2", "--seed", "0"]) == 1
    assert capsys.readouterr() == ("", "error: no generic matrix found in 10000 attempts\n")


def test_sample_generic_out_of_range_is_malformed(capsys):
    msg = "sample-generic needs --n of at least 1 and --bound of at least 2\n"
    for n, bound in (("0", "3"), ("-2", "3"), ("3", "1")):
        assert main(["sample-generic", "--n", n, "--bound", bound, "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", msg)


def test_sample_generic_integer_arguments_are_malformed(capsys):
    # a well-formed integer that only the int digit limit refuses, and a non-integer
    big = "9" * 5000
    for name in ("--n", "--bound", "--seed"):
        for raw, what in ((big, "is too large"), ("3x", "must be an integer")):
            argv = ["sample-generic", "--n", "3", "--bound", "5", "--seed", "0"]
            argv[argv.index(name) + 1] = raw
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"{name} {what}, got ")
            assert len(err.encode()) < 300


def test_unwritable_out_is_malformed(spec_path, tmp_path, capsys):
    # an empty --out= names no file either, for build as for export
    for path in (str(tmp_path / "missing" / "fan.txt"), ""):
        for argv in (["export", spec_path, f"--out={path}"], ["build", spec_path, f"--out={path}"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"{path}: No such file or directory\n"


def test_verify_exit_code_on_runtime_failure(spec_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGBOTT_CONE_CAP", "1")
    assert main(["verify", spec_path]) == 1


def test_module_entry_point(spec_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flagbott", "build", spec_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "rays: 8, maxcones: 12\n"


def loaded_modules(*argv: str) -> set[str]:
    """The flagbott modules a fresh `python <argv>` child imports.  The
    child runs with -v, which reports each module as it loads; -X importtime
    misses a submodule that `from . import name` loads."""
    proc = subprocess.run([sys.executable, "-v", *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    return {line.split("'")[1].removeprefix("flagbott.") for line in lines if line.startswith("import 'flagbott.")}


def test_each_command_loads_only_the_modules_it_runs(spec_path, tmp_path):
    no_fan = {"cli", "exactlin", "tower"}
    fan = no_fan | {"fans", "permfan", "orbitfan"}
    load = "import sys; from flagbott.cli import load_tower; load_tower(sys.argv[1])"
    m = ("-m", "flagbott")
    commands = {
        "import flagbott": (("-c", "import flagbott"), set()),
        "load_tower": (("-c", load, spec_path), no_fan),
        "sample-generic": ((*m, "sample-generic", "--n", "3", "--bound", "5", "--seed", "7"), no_fan),
        "rays": ((*m, "rays", spec_path), fan),
        "build": ((*m, "build", spec_path), fan),
        "export": ((*m, "export", spec_path, "--out", str(tmp_path / "fan.txt")), fan),
        "verify --pairing": ((*m, "verify", "--pairing", spec_path), fan),
        "verify": ((*m, "verify", spec_path), fan | {"fancheck"}),
    }
    got = {what: loaded_modules(*argv) for what, (argv, _) in commands.items()}
    assert got == {what: want for what, (_, want) in commands.items()}


@pytest.fixture
def many_rays_path(tmp_path):
    # dims [12]: 8190 rays, far more output than a pipe buffers
    p = tmp_path / "many.json"
    p.write_text(json.dumps({"dims": [12], "A": {}}))
    return str(p)


def test_closed_stdout_pipe_exits_1_without_traceback(many_rays_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagbott", "rays", many_rays_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"1 {1} : 1 0 0 0 0 0 0 0 0 0 0 0\n"
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err
    assert len(err.splitlines()) <= 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_exits_1_with_one_line(spec_path, many_rays_path):
    # rays on 8190 rays fails while printing; verify's five lines fail at
    # the final flush
    for argv in (["rays", many_rays_path], ["verify", spec_path]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "flagbott", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {os.strerror(errno.ENOSPC)}\n"
