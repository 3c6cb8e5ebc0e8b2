"""The mutant gate: planted faults that the suite must catch.

Each row names a module of src/flagbott, a text that occurs in it exactly
once, its replacement, and the tests that must fail on the mutant.  The
gate copies the package to a temporary directory, applies the one
replacement there, and runs only the named tests in a subprocess that
imports the copy.  pytest must exit 1, some test failing: an exit of 0
means the tests are blind to the fault, and any other exit (a collection
or usage error) proves nothing.  Each row takes 1.5-2.0 s on a 2-vCPU
VM (pytest --durations=0), most of it spent starting a fresh pytest and
collecting the named tests' module, and eager-fancheck, whose test
starts eight children of its own, about 3.2 s.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flagbott

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(flagbott.__file__).parent

CLI = "tests/test_cli.py::"
FANCHECK = "tests/test_fancheck.py::"
ORBITFAN = "tests/test_orbitfan.py::"

MUTANTS = {
    # the flip path's same-sign rule inverted in the last stage only
    "flip-same-sign": (
        "fancheck",
        "if s == positive[ci + step]:",
        "if (s == positive[ci + step]) != (table is tables[-1]):",
        [FANCHECK + "test_is_complete_goldens"],
    ),
    # every fan on the flip path, whatever its cones
    "flip-fallback": (
        "fancheck",
        "if 0 in dets or fan.product_departure is not None:",
        "if False:",
        [FANCHECK + "test_incomplete_fan_has_dangling_walls", FANCHECK + "test_crowded_wall_reported"],
    ),
    # a degenerate cone of build_fan's type on the flip path
    "flip-zero-det": (
        "fancheck",
        "if 0 in dets or fan.product_departure is not None:",
        "if fan.product_departure is not None:",
        [FANCHECK + "test_degenerate_cone_sends_a_fan_of_build_fans_type_to_the_census"],
    ),
    # every bundle split by its lifts alone, whatever its cones
    "slice-fallback": (
        "fancheck",
        "if fan.product_departure is None:\n        _check_lifts(base, report)",
        "if True:\n        _check_lifts(base, report)",
        [FANCHECK + "test_bundle_join_reports_two_lifts", FANCHECK + "test_bundle_join_reports_missing_fiber_ray"],
    ),
    # the lift rows ranked by ray index, not label, so that renumbering
    # the rays can change a determinant's sign
    "lift-label-order": (
        "fancheck",
        "order = sorted(range(len(base.rays)), key=lambda r: base.rays[r].label)",
        "order = list(range(len(base.rays)))",
        [FANCHECK + "test_bundle_join_matches_label_reference"],
    ),
    # a lift counted with its repeated rays
    "lift-distinct-rays": (
        "fancheck",
        "{rank[r] for r in cone}",
        "[rank[r] for r in cone]",
        [FANCHECK + "test_bundle_join_matches_label_reference"],
    ),
    # the census's sign rule without the parity of the opposite positions
    "census-parity": (
        "fancheck",
        "if (k1 + k2) & 1 != (dets[c1] * dets[c2] > 0):",
        "if 0 != (dets[c1] * dets[c2] > 0):",
        [FANCHECK + "test_overlapping_cones_are_same_side"],
    ),
    # a degenerate cone listed among the cones of a crowded wall
    "crowded-degenerate": (
        "fancheck",
        "if d and mask ^ bits[r] in crowd:",
        "if mask ^ bits[r] in crowd:",
        [FANCHECK + "test_degenerate_cone_is_not_a_cone_of_a_crowded_wall"],
    ),
    # the cached product-order test blind to the permutation tuples
    "departure-perm-tuples": (
        "fans",
        "if pt != want_pt or cone != sum(parts, ()):",
        "if cone != sum(parts, ()):",
        [ORBITFAN + "test_product_departure_names_the_first_cone_off_build_fans_order"],
    ),
    # cones whose ray indices descend reach the wall test
    "cone-order": (
        "fans",
        "if cone != tuple(sorted(cone)):",
        "if False:",
        [FANCHECK + "test_cone_dets_reject_a_cone_out_of_order"],
    ),
    # M B_ell gathering columns by v_ell where it must scatter them
    "gather-for-scatter": (
        "orbitfan",
        "cols = sorted(range(len(prefix[ell - 1])), key=prefix[ell - 1].__getitem__)",
        "cols = [e - 1 for e in prefix[ell - 1]]",
        [ORBITFAN + "test_x_matrix_matches_chain_sum"],
    ),
    # R_j without the unit of its last projected row
    "stage-rows-unit": (
        "orbitfan",
        "        if k < t.dims[j - 1]:\n            row[offset + k] = 1",
        "        if k < t.dims[j - 1] - 1:\n            row[offset + k] = 1",
        [ORBITFAN + "test_weights_at_identity_two_stage"],
    ),
    # test (c) of the oracle blind to row R_j[1]
    "prefix-agrees-row": (
        "orbitfan",
        "for row in rows}) == 1 for u in rays)",
        "for row in rows[1:]}) == 1 for u in rays)",
        [ORBITFAN + "test_verify_oracle_off_diagonal_failure"],
    ),
    # the pairing check blind to the witness's own prefix: R_j at the
    # identity prefix for every stage
    "pairing-identity-prefix": (
        "orbitfan",
        "rows = identity_rows[j - 1] if j <= ell else _stage_rows(t, v[: j - 1])",
        "rows = identity_rows[j - 1]",
        [ORBITFAN + "test_pairing_identity_on_goldens", ORBITFAN + "test_pairing_identity_equals_the_reference"],
    ),
    # the pairing check taking each weight with the wrong sign
    "pairing-difference": (
        "orbitfan",
        "actual = dots[vi - 1] - dots[vh - 1]",
        "actual = dots[vh - 1] - dots[vi - 1]",
        [ORBITFAN + "test_pairing_identity_on_goldens", ORBITFAN + "test_pairing_identity_equals_the_reference"],
    ),
    # runs keyed by their first k - 1 indices, so that two heads that
    # differ in their k-th index share one text, which lacks that index
    "format-head-run": (
        "cli",
        "groupby(fan.maxcones, itemgetter(slice(0, k)))",
        "groupby(fan.maxcones, itemgetter(slice(0, k - 1)))",
        [CLI + "test_format_fan_equals_the_reference"],
    ),
    # every command loading fancheck, as when cli imported it at the top
    "eager-fancheck": (
        "cli",
        "from .exactlin import IntMatrix\n",
        "from . import fancheck  # noqa: F401\nfrom .exactlin import IntMatrix\n",
        [CLI + "test_each_command_loads_only_the_modules_it_runs"],
    ),
}


def copy_env(tmp_path: Path) -> dict[str, str]:
    """The environment of a subprocess that imports flagbott from tmp_path."""
    return dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")


def pytest_exit(tmp_path: Path, nodes: list[str]) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(argv, cwd=ROOT, env=copy_env(tmp_path), capture_output=True, text=True, timeout=120)


def test_the_subprocess_imports_the_copy(tmp_path):
    shutil.copytree(SRC, tmp_path / "flagbott", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "-c", "import flagbott; print(flagbott.__file__)"]
    out = subprocess.run(argv, cwd=ROOT, env=copy_env(tmp_path), capture_output=True, text=True, check=True)
    assert Path(out.stdout.strip()).resolve() == (tmp_path / "flagbott" / "__init__.py").resolve()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, tmp_path):
    module, old, new, nodes = MUTANTS[name]
    shutil.copytree(SRC, tmp_path / "flagbott", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "flagbott" / f"{module}.py"
    text = path.read_text()
    assert text.count(old) == 1, f"{name}: the text to replace must occur once in {module}.py"
    path.write_text(text.replace(old, new))
    proc = pytest_exit(tmp_path, nodes)
    assert proc.returncode == 1, f"{name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"
