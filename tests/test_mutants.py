"""The mutant gate: planted faults that the suite must catch.

Each row names a module of src/flagbott, a text that occurs in it exactly
once, its replacement, and the tests that must fail on the mutant.  The
gate copies the package to a temporary directory, applies the one
replacement there, and runs only the named tests in a subprocess that
imports the copy.  pytest must exit 1, some test failing: an exit of 0
means the tests are blind to the fault, and any other exit (a collection
or usage error) proves nothing.  Each row takes 0.65-1.2 s on a 2-vCPU
VM (pytest --durations=0), most of it spent starting a fresh pytest and
collecting the named tests' module; eager-fancheck, whose test starts
eight children of its own, takes about 1.8 s, and join-radix, whose
first test draws 30 hypothesis towers, about 2.5 s.
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
PERMFAN = "tests/test_permfan.py::"
PROPERTIES = "tests/test_properties.py::"

MUTANTS = {
    # the flip path's same-sign rule inverted in the last stage only
    "flip-same-sign": (
        "fancheck",
        "if positive[ci] == positive[ci + step]:",
        "if (positive[ci] == positive[ci + step]) != (stride == 1):",
        [FANCHECK + "test_is_complete_goldens"],
    ),
    # the flip walk stepping through a stage's cones by its stride, not its
    # block, so that it leaves the cones of the permutation index it walks
    "flip-block-stride": (
        "fancheck",
        "range(i * stride, len(cones), block)",
        "range(i * stride, len(cones), stride)",
        [FANCHECK + "test_flip_table_positions_equal_the_set_differences"],
    ),
    # the changed subset S_(n-a) looked for at position a, not n - a - 1
    "flip-position": (
        "fancheck",
        "lo + n_p - a - 1",
        "lo + a",
        [FANCHECK + "test_flip_table_positions_equal_the_set_differences"],
    ),
    # every fan on the flip path, whatever its cones
    "flip-fallback": (
        "fancheck",
        "if 0 in dets or not fan.is_join:",
        "if False:",
        [FANCHECK + "test_incomplete_fan_has_dangling_walls", FANCHECK + "test_crowded_wall_reported"],
    ),
    # a degenerate cone of a join on the flip path
    "flip-zero-det": (
        "fancheck",
        "if 0 in dets or not fan.is_join:",
        "if not fan.is_join:",
        [FANCHECK + "test_degenerate_cone_sends_a_fan_of_build_fans_type_to_the_census"],
    ),
    # every bundle split by its lifts alone, whatever its cones
    "slice-fallback": (
        "fancheck",
        "if fan.is_join:\n            _check_lifts(base, report)",
        "if True:\n            _check_lifts(base, report)",
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
    # a degenerate cone's walls let into the census, so that it is listed
    # among the cones of a crowded wall
    "crowded-degenerate": (
        "fancheck",
        '"cone rays are linearly dependent")\n            )\n            continue\n',
        '"cone rays are linearly dependent")\n            )\n',
        [FANCHECK + "test_degenerate_cone_is_not_a_cone_of_a_crowded_wall"],
    ),
    # a fan counted as a join whatever permutation tuples it holds
    "departure-perm-tuples": (
        "fans",
        "cones.perm_tuples is self.perm_tuples",
        "True",
        [FANCHECK + "test_a_fan_is_a_join_by_how_it_was_made"],
    ),
    # a fan counted as a join whatever dims its cones were joined for
    "join-dims": (
        "fans",
        "cones.dims == self.dims",
        "True",
        [FANCHECK + "test_a_fan_is_a_join_by_how_it_was_made"],
    ),
    # mask s of a stage numbered as ray offset + s, one past its ray
    "mask-to-index": (
        "fans",
        "tuple(offset + s - 1 for s in c)",
        "tuple(offset + s for s in c)",
        [PERMFAN + "test_perm_fan_cone_matches_its_chain", ORBITFAN + "test_build_fan_two_stage"],
    ),
    # perm_fan forming all (n+1)! cones whatever the cap
    "perm-fan-cap": (
        "permfan",
        "stage_join((n,), DEFAULT_CONE_CAP)",
        "stage_join((n,), 10**18)",
        [PERMFAN + "test_perm_fan_is_bounded_by_the_cone_cap"],
    ),
    # a join's entry i read in mixed radix by the count of its heads, not
    # of its tails
    "join-radix": (
        "fans",
        "divmod(range(len(self))[i], len(self.tails))",
        "divmod(range(len(self))[i], len(self.heads))",
        [PROPERTIES + "test_a_join_behaves_as_the_tuple_of_its_entries", FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort"],
    ),
    # a join's sort-free order with a stride one short of the tail count,
    # so that it visits some cones twice and others never
    "join-order-stride": (
        "fans",
        "h * len(tails) + t",
        "h * (len(tails) - 1) + t",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort"],
    ),
    # cones whose ray indices descend reach the wall test
    "cone-order": (
        "fans",
        "if sorted(cone) != list(cone):",
        "if False:",
        [FANCHECK + "test_cone_dets_reject_a_cone_out_of_order"],
    ),
    # a ray index below 0 read from the end of the rays, one past the
    # end left to _dets
    "cone-range": (
        "fans",
        "if cone and not (0 <= cone[0] and cone[-1] < len(self.rays)):",
        "if False:",
        [FANCHECK + "test_cone_dets_reject_a_ray_index_out_of_range"],
    ),
    # the projection of a fan that is not a join keeping the last cone over
    # each prefix, not the first
    "project-first-cone": (
        "fancheck",
        "firsts.setdefault(pt[:stages], cone)",
        "firsts[pt[:stages]] = cone",
        [FANCHECK + "test_bundle_join_matches_label_reference", FANCHECK + "test_bundle_join_reports_wrong_size_lift"],
    ),
    # a join projected to the join of one stage too many
    "project-stages": (
        "fancheck",
        "*stage_join(dims, len(fan.maxcones))",
        "*stage_join(fan.dims[: stages + 1], len(fan.maxcones))",
        [FANCHECK + "test_project_fan_equals_truncated_build"],
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
    # a stage permutation taken without checking that it is one, so that a
    # repeated symbol reaches the weights
    "perm-tuple-check": (
        "orbitfan",
        "        check_permutation(vp)",
        "        pass",
        [ORBITFAN + "test_weights_reject_bad_perm_tuples"],
    ),
    # the oracle looking rays up by a label that is missing or repeated
    "oracle-labels": (
        "orbitfan",
        "if any(labels[ell, s] != 1 for",
        "if False and any(labels[ell, s] != 1 for",
        [ORBITFAN + "test_verify_oracle_rejects_a_fan_without_each_of_build_fans_labels_once"],
    ),
    # the oracle forgetting a ray that breaks (a) one stage below it, so
    # that the cones under it are judged by (b) and (c) alone
    "oracle-alone": (
        "orbitfan",
        "alone or broken[s][i]",
        "broken[s][i]",
        [ORBITFAN + "test_verify_oracle_matches_per_cone_reference"],
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
    # each head spelled without the space after its last index, so that it
    # runs into the first index of each tail
    "format-head-space": (
        "cli",
        'spaced = [name + " " for name in names]',
        "spaced = names",
        [CLI + "test_format_fan_equals_the_reference"],
    ),
    # every fan spelled cone by cone: the same text, with every cone formed
    "format-join-off": (
        "cli",
        "if fan.is_join and all(fan.dims):",
        "if False:",
        [CLI + "test_format_fan_spells_a_join_from_its_stage_data"],
    ),
    # a join spelled from its stage data even when its tails are (), so
    # that each line keeps the space after its head
    "format-empty-tails": (
        "cli",
        "if fan.is_join and all(fan.dims):",
        "if fan.is_join:",
        [CLI + "test_format_fan_spells_a_join_from_its_stage_data"],
    ),
    # build --out= taken for no --out, so that it writes nothing and exits 0
    "build-out-empty": (
        "cli",
        "if args.out is not None:",
        "if args.out:",
        [CLI + "test_unwritable_out_is_malformed"],
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
