"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Every check is exact (integer equality, set equality, byte equality); the
stated wall-clock limits are asserted too.  Lines are written to the real
stdout so they stay visible under pytest's capture.
"""

from __future__ import annotations

import itertools
import json
import math
import time

from conftest import (
    ORACLE_SEEDS,
    POPULATION_SEEDS,
    cone_labels,
    proper_subsets,
    random_tower,
    subset,
    three_stage_tower,
    truncated,
    two_stage_tower,
)
from flagbott.cli import main
from flagbott.exactlin import IntMatrix, det
from flagbott.fancheck import (
    is_complete_simplicial,
    is_smooth,
    project_fan,
    verify_bundle_join,
)
from flagbott.orbitfan import (
    OracleReport,
    all_rays,
    build_fan,
    derive_rays_from_weights,
    ray_generator,
    verify_oracle,
    verify_pairing_identity,
)
from flagbott.permfan import perm_fan, perm_ray_vector
from flagbott.tower import (
    FlagBottTower,
    is_generic_matrix,
    sample_generic,
)


class criterion:
    """Times a criterion body, prints its verdict, and enforces the limit.

    The pass/fail line goes through capsys.disabled() so it stays visible
    under pytest's capture.
    """

    def __init__(self, number: int, capsys, limit: float | None = None):
        self.number = number
        self.capsys = capsys
        self.limit = limit
        self.note = ""

    def _echo(self, line: str) -> None:
        with self.capsys.disabled():
            print(line, flush=True)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        stamp = f"[{elapsed:.2f}s]"
        if exc_type is not None:
            self._echo(f"criterion {self.number}: FAIL ({exc_type.__name__}) {stamp}")
            return False
        if self.limit is not None and elapsed > self.limit:
            self._echo(f"criterion {self.number}: FAIL (over {self.limit}s limit) {stamp}")
            raise AssertionError(
                f"criterion {self.number} took {elapsed:.2f}s, limit {self.limit}s"
            )
        note = f" ({self.note})" if self.note else ""
        self._echo(f"criterion {self.number}: PASS{note} {stamp}")
        return False


TWO_STAGE_RAYS = {
    (1, (1,)): (1, 0, 0),
    (1, (2,)): (0, 1, 0),
    (1, (3,)): (-1, -1, 3),
    (1, (1, 2)): (1, 1, -2),
    (1, (1, 3)): (0, -1, 1),
    (1, (2, 3)): (-1, 0, 1),
    (2, (1,)): (0, 0, 1),
    (2, (2,)): (0, 0, -1),
}

TWO_STAGE_CONES = {
    frozenset({(1, s1), (1, s2), (2, s3)})
    for (s1, s2) in [
        ((1,), (1, 2)),
        ((1,), (1, 3)),
        ((2,), (1, 2)),
        ((2,), (2, 3)),
        ((3,), (1, 3)),
        ((3,), (2, 3)),
    ]
    for s3 in [(1,), (2,)]
}

THREE_STAGE_RAYS = {
    (1, (1,)): (1, 0, 0, 0, 0),
    (1, (2,)): (0, 1, 0, 0, 0),
    (1, (3,)): (-1, -1, 3, 7, 11),
    (1, (1, 2)): (1, 1, -2, -4, -6),
    (1, (2, 3)): (-1, 0, 1, 3, 5),
    (1, (1, 3)): (0, -1, 1, 3, 5),
    (2, (1,)): (0, 0, 1, 0, 0),
    (2, (2,)): (0, 0, 0, 1, 0),
    (2, (3,)): (0, 0, -1, -1, 15),
    (2, (1, 2)): (0, 0, 1, 1, -8),
    (2, (2, 3)): (0, 0, -1, 0, 7),
    (2, (1, 3)): (0, 0, 0, -1, 7),
    (3, (1,)): (0, 0, 0, 0, 1),
    (3, (2,)): (0, 0, 0, 0, -1),
}


def ray_map(t: FlagBottTower) -> dict[tuple[int, tuple[int, ...]], tuple[int, ...]]:
    return {
        (r.label.stage, r.label.subset.members()): r.vector for r in all_rays(t)
    }


def cone_label_sets(fan) -> set[frozenset]:
    return {
        frozenset((lbl.stage, lbl.subset.members()) for lbl in cone_labels(fan, i))
        for i in range(len(fan.maxcones))
    }


def test_criterion_01_two_stage_golden(capsys):
    with criterion(1, capsys, limit=0.1) as c:
        t = two_stage_tower()
        fan = build_fan(t)
        assert ray_map(t) == TWO_STAGE_RAYS
        assert len(fan.rays) == 8
        assert len(fan.maxcones) == 12
        assert cone_label_sets(fan) == TWO_STAGE_CONES
        c.note = "8 rays and 12 maximal cones match the printed fan"


def det_example(t: FlagBottTower) -> int:
    cols = [
        ray_generator(t, 1, subset(3, [2])),
        ray_generator(t, 1, subset(3, [2, 3])),
        ray_generator(t, 2, subset(3, [2])),
        ray_generator(t, 2, subset(3, [1, 2])),
        ray_generator(t, 3, subset(2, [2])),
    ]
    return det(IntMatrix.from_rows(list(zip(*cols))))


def test_criterion_02_three_stage_golden(capsys):
    with criterion(2, capsys, limit=0.1) as c:
        t = three_stage_tower()
        assert ray_map(t) == THREE_STAGE_RAYS
        assert len(all_rays(t)) == 14
        assert det_example(t) == 1
        # same 5x5 determinant under other instantiations of the same pattern
        for x11, x12, x21, x22, y1, y2, z1, z2 in [
            (2, -1, 4, 9, -3, 5, 1, -7),
            (0, 0, 0, 0, 0, 0, 0, 0),
        ]:
            other = FlagBottTower(
                (2, 2, 1),
                {
                    (2, 1): IntMatrix.from_rows(
                        [[x11, x12, 0], [x21, x22, 0], [0, 0, 0]]
                    ),
                    (3, 1): IntMatrix.from_rows([[y1, y2, 0], [0, 0, 0]]),
                    (3, 2): IntMatrix.from_rows([[z1, z2, 0], [0, 0, 0]]),
                },
            )
            assert det_example(other) == 1
        c.note = "14 rays match; 5x5 cone determinant is 1"


def test_criterion_03_permutohedral_counts(capsys):
    with criterion(3, capsys, limit=1.0) as c:
        for n in range(1, 5):
            fan = perm_fan(n)
            assert len(fan.rays) == 2 ** (n + 1) - 2
            assert len(fan.maxcones) == math.factorial(n + 1)
        fan = perm_fan(2)
        vectors = {r.label.subset.members(): r.vector for r in fan.rays}
        assert vectors == {
            (1,): (1, 0),
            (2,): (0, 1),
            (1, 2): (1, 1),
            (3,): (-1, -1),
            (1, 3): (0, -1),
            (2, 3): (-1, 0),
        }
        assert cone_label_sets(fan) == {
            frozenset({(1, a), (1, b)})
            for a, b in [
                ((1,), (1, 2)),
                ((2,), (1, 2)),
                ((2,), (2, 3)),
                ((3,), (2, 3)),
                ((3,), (1, 3)),
                ((1,), (1, 3)),
            ]
        }
        c.note = "counts for n=1..4; n=2 rays and cones match the figure"


def test_criterion_04_pairing_identity(capsys):
    with criterion(4, capsys, limit=10.0) as c:
        towers = [two_stage_tower(), three_stage_tower()]
        towers.extend(random_tower(seed) for seed in POPULATION_SEEDS)
        pairings = 0
        for t in towers:
            report = verify_pairing_identity(t)
            assert report.ok, f"violations on dims {t.dims}: {report.violations[:3]}"
            assert report.pairings_checked == report.rays_checked * t.n
            pairings += report.pairings_checked
        c.note = f"{len(towers)} towers, {pairings} pairings, all exact"


def test_criterion_05_oracle_equivalence(capsys):
    with criterion(5, capsys, limit=10.0) as c:
        towers = [two_stage_tower(), three_stage_tower()]
        towers.extend(
            random_tower(seed, max_stages=2, max_dim=3) for seed in ORACLE_SEEDS
        )
        cones = 0
        for t in towers:
            fan = build_fan(t)
            for i, v in enumerate(fan.perm_tuples):
                formula = {fan.rays[r].vector for r in fan.maxcones[i]}
                assert derive_rays_from_weights(t, v) == formula
                cones += 1
            assert verify_oracle(fan, t) == OracleReport(len(fan.maxcones), 0, [])
        c.note = f"{len(towers)} towers, {cones} cones, weight-derived rays match"


def test_criterion_06_smooth_and_complete(capsys):
    with criterion(6, capsys, limit=30.0) as c:
        towers = [two_stage_tower(), three_stage_tower()]
        towers.extend(random_tower(seed) for seed in POPULATION_SEEDS)
        cones = 0
        for t in towers:
            fan = build_fan(t)
            smooth = is_smooth(fan)
            assert smooth.ok, f"non-unimodular cones on dims {t.dims}"
            complete = is_complete_simplicial(fan)
            assert complete.ok, f"completeness defects on dims {t.dims}"
            cones += smooth.cones_checked
        c.note = f"{len(towers)} towers, {cones} cones smooth and complete"


def test_criterion_07_bundle_join(capsys):
    with criterion(7, capsys, limit=30.0) as c:
        towers = [two_stage_tower(), three_stage_tower()]
        towers.extend(random_tower(seed) for seed in POPULATION_SEEDS)
        splits = 0
        for t in towers:
            fan = build_fan(t)
            report = verify_bundle_join(fan)
            assert report.ok, f"join defects on dims {t.dims}: {report.defects[:3]}"
            assert report.splits_checked == list(range(t.m, 1, -1))
            splits += len(report.splits_checked)
            for stages in range(1, t.m + 1):
                assert project_fan(fan, stages) == build_fan(truncated(t, stages))
        c.note = f"{len(towers)} towers, {splits} stage splits and all projections"


def test_criterion_08_reductions(capsys):
    with criterion(8, capsys, limit=1.0) as c:
        for n in (1, 2, 3):
            assert build_fan(FlagBottTower((n,), {})) == perm_fan(n)
        dims = (2, 1, 2)
        zero = FlagBottTower(
            dims,
            {
                (j, ell): IntMatrix.from_rows([[0] * (dims[ell - 1] + 1)] * (dims[j - 1] + 1))
                for j in range(2, 4)
                for ell in range(1, j)
            },
        )
        fan = build_fan(zero)
        assert len(fan.maxcones) == 6 * 2 * 6
        offsets = [sum(dims[:k]) for k in range(len(dims))]
        for ell, n_ell in enumerate(dims, start=1):
            for s in proper_subsets(n_ell + 1):
                vec = list(ray_generator(zero, ell, s))
                lo = offsets[ell - 1]
                assert tuple(vec[lo : lo + n_ell]) == perm_ray_vector(n_ell, s)
                assert not any(vec[:lo]) and not any(vec[lo + n_ell :])
        assert verify_bundle_join(fan).ok
        c.note = "m=1 equals the one-factor fan; zero twists give the product"


def test_criterion_09_genericity(capsys):
    with criterion(9, capsys, limit=1.0) as c:
        rejected = 0
        for size in (2, 3, 4):
            for perm in itertools.permutations(range(size)):
                rows = [
                    [1 if j == perm[i] else 0 for j in range(size)]
                    for i in range(size)
                ]
                ok, witness = is_generic_matrix(IntMatrix.from_rows(rows))
                assert not ok and witness is not None
                rejected += 1
        vandermonde = IntMatrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
        assert is_generic_matrix(vandermonde) == (True, None)
        for seed in range(3):
            g = sample_generic(2, bound=4, seed=seed)
            assert is_generic_matrix(g)[0]
        c.note = f"{rejected} permutation matrices rejected; samples all generic"


def test_criterion_10_scale(capsys):
    with criterion(10, capsys, limit=5.0) as c:
        import random as _random

        rng = _random.Random(99)
        dims = (3, 3, 3)
        twists = {
            (j, ell): IntMatrix.from_rows(
                [
                    [rng.randint(-5, 5) for _ in range(dims[ell - 1] + 1)]
                    for _ in range(dims[j - 1] + 1)
                ]
            )
            for j in range(2, 4)
            for ell in range(1, j)
        }
        t = FlagBottTower(dims, twists)
        fan = build_fan(t)
        assert len(fan.rays) == 42
        assert len(fan.maxcones) == 13824
        assert is_smooth(fan).ok
        c.note = "dims (3,3,3): 42 rays, 13824 cones, all unimodular"


def test_criterion_11_determinism(tmp_path, capsys):
    with criterion(11, capsys) as c:
        doc = {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}
        spec = tmp_path / "tower.json"
        spec.write_text(json.dumps(doc))
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["export", str(spec), "--out", str(a)]) == 0
        assert main(["export", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"FANBOTT 1\n")
        c.note = "two export runs are byte-identical"
