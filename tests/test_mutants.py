"""The mutant gate: planted faults that the suite must catch.

Each row names a module of src/flagbott, a text that occurs in it exactly
once, its replacement, and the tests that must fail on the mutant.  The
gate copies the package to a temporary directory, applies the one
replacement there, and runs only the named tests in a subprocess that
imports the copy.  pytest must exit 1, some test failing: an exit of 0
means the tests are blind to the fault, and any other exit (a collection
or usage error) proves nothing.  Each row takes 1.0-1.7 s on a 2-vCPU
VM (pytest --durations=0), most of it spent starting a fresh pytest and
collecting the named tests' module; eager-fancheck, whose test starts
eight children of its own, takes about 1.9 s, walk-memo-one-slot, whose
test walks a (3,3,3) join of drawn rays twice, about 2.6 s, and
join-radix, whose first test draws 30 hypothesis towers, about 4.0 s.
Each walk-* row and generic-divisor, where it names a hypothesis test,
names a fixed test before it, which fails first, so that pytest -x stops
before hypothesis shrinks a failing draw.  A control runs the union of
every row's tests on an unmutated copy through the same runner, which
must exit 0, so that a row's exit 1 comes from its fault; it takes about
13 s, and the gate's 57 tests about 84 s.
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
TOWER = "tests/test_tower.py::"

MUTANTS = {
    # the flip path's same-sign rule inverted in the last stage only: its
    # runs compared unflipped, so that a pair is sound iff its signs agree
    "flip-same-sign": (
        "fancheck",
        "positive[start:stop:s].translate(flip)",
        "positive[start:stop:s].translate(flip if stride > 1 else None)",
        [FANCHECK + "test_is_complete_goldens"],
    ),
    # every run compared unflipped: equal runs of equal signs, every pair
    # of them same_side, pass unwalked, and every sound run is walked
    "flip-run-translate": (
        "fancheck",
        "positive[start:stop:s].translate(flip)",
        "positive[start:stop:s]",
        [FANCHECK + "test_is_complete_goldens", FANCHECK + "test_flip_table_positions_equal_the_set_differences"],
    ),
    # each contiguous run one cone short, so that its last pair goes unread
    "flip-run-short": (
        "fancheck",
        "(b, b + stride, 1)",
        "(b, b + stride - 1, 1)",
        [FANCHECK + "test_flip_table_positions_equal_the_set_differences", FANCHECK + "test_planted_sign_faults_on_joins_equal_the_census"],
    ),
    # the flip walk stepping through a stage's cones by its stride, not its
    # block, so that it leaves the cones of the permutation index it walks
    "flip-block-stride": (
        "fancheck",
        "range(i * stride, count, block)",
        "range(i * stride, count, stride)",
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
    # stage 1's ray labels listed by descending mask: the fan is still a
    # join, but each cone's index offset + s - 1 names the complement of s
    "ray-label-order": (
        "fans",
        "for s in range(1, 2 ** (n + 1) - 1)]",
        "for s in (range(2 ** (n + 1) - 2, 0, -1) if ell == 1 else range(1, 2 ** (n + 1) - 1))]",
        [PERMFAN + "test_ray_labels_are_the_rays_stage_join_numbers", PERMFAN + "test_perm_fan_cone_matches_its_chain", ORBITFAN + "test_all_rays_counts_and_order"],
    ),
    # a join's entry i read in mixed radix by the count of its heads, not
    # of its tails
    "join-radix": (
        "fans",
        "divmod(range(len(self))[i], len(self.tails))",
        "divmod(range(len(self))[i], len(self.heads))",
        [PROPERTIES + "test_a_join_behaves_as_the_tuple_of_its_entries", FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort"],
    ),
    # the radix of one nested level swapped: entry i of a join with two
    # levels of joins below it, the third stage's, read by its heads' count
    "join-nested-radix": (
        "fans",
        "divmod(range(len(self))[i], len(self.tails))",
        "divmod(range(len(self))[i], len(self.heads) if isinstance(self.heads, _Join) and isinstance(self.heads.heads, _Join) else len(self.tails))",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort", PROPERTIES + "test_a_join_behaves_as_the_tuple_of_its_entries"],
    ),
    # a join's cone index on the walk's last level with a stride one short
    # of the tail count, so that it writes some cones twice and others never
    "join-order-stride": (
        "fans",
        "out[base * size + ti] = signs[-1] * p",
        "out[base * (size - 1) + ti] = signs[-1] * p",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort"],
    ),
    # each level's tails planned in their own order, not sorted, so that
    # the walk forms some nodes of their prefix trie more than once
    "nested-sorted-heads": (
        "fans",
        "for ti in sorted(range(len(tails)), key=tails.__getitem__):",
        "for ti in range(len(tails)):",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort"],
    ),
    # the next level handed divisor 1, not the head's last pivot, so that
    # its first step against the head's rows divides by the wrong minor
    "walk-head-divisor": (
        "fans",
        "walk(li + 1, base * size + ti, p, signs[-1],",
        "walk(li + 1, base * size + ti, 1, signs[-1],",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort", PROPERTIES + "test_join_walk_equals_bareiss_cone_by_cone"],
    ),
    # the head's column-order sign dropped at a level boundary
    "walk-head-sign": (
        "fans",
        "walk(li + 1, base * size + ti, p, signs[-1],",
        "walk(li + 1, base * size + ti, p, 1,",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort", PROPERTIES + "test_join_walk_equals_bareiss_cone_by_cone"],
    ),
    # a singular node's subtree walked on the stack above the node, so that
    # cones below it get the pivot of a shorter matrix, not 0
    "walk-singular-skip": (
        "fans",
        "if k > len(stack):",
        "if False:",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort", PROPERTIES + "test_join_walk_equals_bareiss_cone_by_cone"],
    ),
    # a level's tails allowed below the largest index of the level before,
    # so that a cone out of order reaches the walk
    "walk-level-range": (
        "fans",
        "t[0] < hi",
        "t[0] < 0",
        [FANCHECK + "test_a_doctored_join_raises_its_materialised_copys_message"],
    ),
    # a head whose reduced later rows equal the slot's copying its block
    # whatever its divisor, so that the walk below divides by the wrong minor
    "walk-memo-divisor": (
        "fans",
        "slot[0] == q and slot[1] == pend",
        "slot[1] == pend",
        [FANCHECK + "test_heads_with_equal_reduced_rows_and_different_divisors_walk_apart"],
    ),
    # the slot's block copied with its own sign, not the head's
    "walk-memo-sign": (
        "fans",
        "done if slot[3] == sign else [-d for d in done]",
        "done",
        [FANCHECK + "test_a_joins_cones_are_visited_in_sorted_order_without_a_sort", PROPERTIES + "test_join_walk_with_shared_heads_equals_bareiss_cone_by_cone"],
    ),
    # a negative pivot kept: still exact, but heads of one divisor and
    # opposite signs reduce the later rows apart, so the slot misses
    "walk-positive-pivot": (
        "fans",
        "if p < 0:",
        "if False:",
        [FANCHECK + "test_the_walk_reduces_each_distinct_head_once"],
    ),
    # every head's slot kept, not the last one's: a memo that grows with
    # the heads, which never hits where no two heads reduce alike
    "walk-memo-one-slot": (
        "fans",
        "slots[li] = (q, pend, base, sign)",
        "slots.append((q, pend, base, sign))",
        [FANCHECK + "test_the_walks_memory_stays_bounded_where_no_head_repeats"],
    ),
    # a join base whose cones repeat a ray taking the walk for its lifts,
    # so that a lift with too few rays reads as determinant 0
    "lift-walk-fallback": (
        "fancheck",
        "_levels(base.maxcones, len(base.rays), n, True)",
        "_levels(base.maxcones, len(base.rays), n, False)",
        [FANCHECK + "test_a_join_base_that_repeats_a_ray_lifts_as_before"],
    ),
    # a join checked and eliminated cone by cone after its walk as well
    "walk-per-cone": (
        "fans",
        "if dets is None:",
        "if True:",
        [FANCHECK + "test_cone_dets_of_a_join_form_no_cone"],
    ),
    # cones whose ray indices descend reach the wall test
    "cone-order": (
        "fans",
        "if sorted(cone) != list(cone):",
        "if False:",
        [FANCHECK + "test_cone_dets_reject_a_cone_out_of_order"],
    ),
    # a ray index below 0 or past the end left to the flat walk, which
    # refuses it without naming the cone
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
        "while len(level.dims) > stages:",
        "while len(level.dims) > stages + 1:",
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
        "if any(labels[label.stage, label.subset.mask] != 1 for",
        "if False and any(labels[label.stage, label.subset.mask] != 1 for",
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
        "for row in rows}) == 1",
        "for row in rows[1:]}) == 1",
        [ORBITFAN + "test_verify_oracle_off_diagonal_failure"],
    ),
    # Z_(j,ell) kept under prefix[ell+1:], blind to v_(ell+1), so that the
    # prefixes that differ there share one Z
    "oracle-z-key-short": (
        "orbitfan",
        "key = (j, ell, prefix[ell:])",
        "key = (j, ell, prefix[ell + 1 :])",
        [ORBITFAN + "test_verify_oracle_matches_per_cone_reference", ORBITFAN + "test_the_oracles_memos_hit_and_stay_small"],
    ),
    # the key of (c) for one ray blind to its block j, so that rays that
    # differ only there share one decision
    "oracle-c-key-short": (
        "orbitfan",
        "u[n_1:hi])",
        "u[n_1 : hi - t.dims[len(prefix)]])",
        [ORBITFAN + "test_verify_oracle_off_diagonal_failure", ORBITFAN + "test_verify_oracle_matches_per_cone_reference"],
    ),
    # Z_(j,ell) kept under the whole prefix: exact, but shared by no two
    # prefixes, so only the count of its entries shows it
    "oracle-z-full-prefix": (
        "orbitfan",
        "key = (j, ell, prefix[ell:])",
        "key = (j, ell, prefix)",
        [ORBITFAN + "test_the_oracles_memos_hit_and_stay_small"],
    ),
    # the pairing check blind to the witness's own prefix: R_j at the
    # identity prefix for every stage
    "pairing-identity-prefix": (
        "orbitfan",
        "rows = identity_rows[j - 1] if j <= ell else _stage_rows(t, v[: j - 1], zs)",
        "rows = identity_rows[j - 1]",
        [ORBITFAN + "test_pairing_identity_on_goldens", ORBITFAN + "test_pairing_identity_equals_the_reference"],
    ),
    # the pairing check taking each weight with the wrong sign
    "pairing-difference": (
        "orbitfan",
        "dots[vi - 1] - dots[vh - 1] for vh, vi",
        "dots[vh - 1] - dots[vi - 1] for vh, vi",
        [ORBITFAN + "test_pairing_identity_on_goldens", ORBITFAN + "test_pairing_identity_equals_the_reference"],
    ),
    # the key of a run blind to the ray's blocks 2..j, so that a stage-1
    # ray with a fault there takes its class's run
    "pairing-key-no-tail": (
        "orbitfan",
        "(v[1:j], w_1, u[n_1 : his[j - 1]])",
        "(v[1:j], w_1)",
        [ORBITFAN + "test_pairing_identity_equals_the_reference_on_a_faulted_generator[tail]"],
    ),
    # w_1 read off u_1 unpermuted: exact on ray_generator's rays, whose u_1
    # names s and so v_1, but every stage-1 ray then takes its own key
    "pairing-w1-unpermuted": (
        "orbitfan",
        "w_1 = tuple(u[e - 1] if e <= n_1 else 0 for e in v[0])",
        "w_1 = u[:n_1] + (0,)",
        [ORBITFAN + "test_pairing_builds_r_j_once_per_key"],
    ),
    # a step of the flag-minor walk divided by the child's pivot, not the
    # parent's
    "generic-divisor": (
        "tower",
        "// p for x, y",
        "// a[0] for x, y",
        [TOWER + "test_is_generic_matrix_equals_the_reference", PROPERTIES + "test_flag_minor_walk_equals_one_determinant_per_row_set"],
    ),
    # a child of the walk reducing every sibling row, not only the later
    # ones: the same minors, met first in the same order, from a node per
    # ordered row tuple
    "generic-pend-all": (
        "tower",
        "for q, b in pend[i + 1 :]])",
        "for q, b in pend[:i] + pend[i + 1 :]])",
        [TOWER + "test_is_generic_matrix_keeps_one_node_per_row_set"],
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


def test_every_rows_tests_pass_on_the_unmutated_copy(tmp_path):
    # the control: on a copy with no fault, the union of every row's tests
    # exits 0 through the same runner, so that a row's exit 1 is its fault's
    shutil.copytree(SRC, tmp_path / "flagbott", ignore=shutil.ignore_patterns("__pycache__"))
    nodes = sorted({node for *_, row_nodes in MUTANTS.values() for node in row_nodes})
    proc = pytest_exit(tmp_path, nodes)
    assert proc.returncode == 0, f"pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"


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
