"""Fan of a generic torus orbit closure in a flag Bott tower.

Coordinates.  The ambient lattice has one block per stage; block p has
basis eps_{p,1}, ..., eps_{p,n_p+1} with the convention that the last
vector eps_{p,n_p+1} is projected away.  The projected lattice Z^n
(n = sum of dims) keeps the first n_p coordinates of each block, so the
fan of the orbit closure lives in Z^n.

Rays.  Stage ell and a nonempty proper subset S of {1,...,n_ell+1}
determine the generator returned by ray_generator: inside block ell it is
the one-factor ray u_S; in every higher block p it acquires a correction
read off the twist matrix for (p, ell), with d = n_ell + 1 - |S|:

    n_ell+1 not in S:  +u_S in block ell,
                       entry k of block p is -(sum of columns d+1..n_ell+1
                       of row k of the twist matrix);
    n_ell+1 in S:      -u_{complement} in block ell,
                       entry k of block p is +(sum of columns 1..d).

Those raw coefficients are coordinates on the full block torus, which acts
with a kernel: for each stage p, scaling block p diagonally while
counter-scaling every higher block q by the row sums of the (q, p) twist
matrix acts trivially.  The fan lives in the cocharacter lattice of the
effective torus, realized as the vectors whose last coordinate in every
block vanishes; ray_generator therefore re-represents the raw vector
modulo the kernel directions before dropping the last coordinate of each
block.  When every twist matrix has a zero last row the raw vector is
already in that form and nothing changes.

Cones.  Maximal cones are indexed by tuples of permutations, one per
stage; the cone of a tuple collects, for each stage, the rays of that
stage's chain.

Weights.  A permutation tuple v also determines a fixed point, whose
isotropy weights come out of accumulated twist matrices: with B_p the
0/1 matrix having row i equal to the standard basis vector at v_p(i),

    X_(j,ell) = B_j A_(j,ell) B_ell
                + sum over p strictly between ell and j of
                  X_(j,p) A_(p,ell) B_ell,

which equals the sum over all descending stage chains from j to ell of
the alternating B/A products.  No B_p is ever built: products with
B_p are computed by reindexing rows and columns.  Row i of the block row
[X_(j,1) ... X_(j,j-1)  B_j  0 ... 0] is an ambient character; consecutive
differences projected to Z^n are the n isotropy weights at v.  Those
weights form a unimodular matrix whose inverse columns must reproduce the
cone's rays; derive_rays_from_weights exposes that as an independent
oracle for the ray formula above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .exactlin import IntMatrix, NotUnimodular, unimodular_inverse
from .fans import Chain, Fan, PermTuple, Ray, RayLabel, Subset
from .permfan import (
    chain_of_permutation,
    check_permutation,
    perm_ray_vector,
    permutation_of_chain,
    proper_subsets,
)
from .tower import FlagBottTower, InvalidStagePair, validate

__all__ = [
    "DEFAULT_CONE_CAP",
    "ChainTuple",
    "EnumerationTooLarge",
    "InvalidStagePair",
    "OracleFailure",
    "PairingReport",
    "PairingViolation",
    "WeightSystem",
    "all_rays",
    "build_fan",
    "chain_tuple_of_perm_tuple",
    "derive_rays_from_weights",
    "maximal_cone",
    "perm_tuple_of_chain_tuple",
    "ray_generator",
    "verify_pairing_identity",
    "weights_at",
    "witness_perm_tuple",
    "x_matrix",
]

DEFAULT_CONE_CAP = 1_000_000

ChainTuple = tuple[Chain, ...]


class EnumerationTooLarge(RuntimeError):
    """The tower has more maximal cones than the enumeration cap allows."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"fan has {count} maximal cones, over the cap of {cap}")
        self.count = count
        self.cap = cap


class OracleFailure(RuntimeError):
    """The weight-based reconstruction contradicts itself or the ray formula."""


def _require_valid(t: FlagBottTower) -> None:
    defects = validate(t)
    if defects:
        raise ValueError("invalid tower: " + "; ".join(defects))


def _check_perm_tuple(t: FlagBottTower, v: PermTuple) -> None:
    if len(v) != t.m:
        raise ValueError(f"need one permutation per stage ({t.m}), got {len(v)}")
    for p, (vp, n_p) in enumerate(zip(v, t.dims), start=1):
        if len(vp) != n_p + 1:
            raise ValueError(f"stage {p} permutation must have {n_p + 1} symbols")
        check_permutation(vp)


def ray_generator(t: FlagBottTower, ell: int, s: Subset) -> tuple[int, ...]:
    """Generator in Z^n of the ray labeled (ell, s)."""
    if not 1 <= ell <= t.m:
        raise ValueError(f"stage must be in 1..{t.m}, got {ell}")
    n_ell = t.dims[ell - 1]
    base = perm_ray_vector(n_ell, s)  # validates s for this stage
    blocks = [[0] * (n_p + 1) for n_p in t.dims]
    blocks[ell - 1][:n_ell] = base
    d = n_ell + 1 - len(s)
    last_in = (n_ell + 1) in s
    for p in range(ell + 1, t.m + 1):
        a = t.twist(p, ell)
        for k in range(a.rows):
            if last_in:
                blocks[p - 1][k] = sum(a[k, c] for c in range(d))
            else:
                blocks[p - 1][k] = -sum(a[k, c] for c in range(d, n_ell + 1))
    # re-represent modulo the trivially acting directions: zeroing the last
    # coordinate of block p counter-adjusts every higher block by the row
    # sums of its twist matrix against stage p
    for p in range(1, t.m + 1):
        c = blocks[p - 1][-1]
        if c:
            blocks[p - 1] = [x - c for x in blocks[p - 1]]
            for q in range(p + 1, t.m + 1):
                a = t.twist(q, p)
                for k in range(a.rows):
                    blocks[q - 1][k] += c * sum(a.row(k))
    vec: list[int] = []
    for b in blocks:
        vec.extend(b[:-1])
    return tuple(vec)


def all_rays(t: FlagBottTower) -> list[Ray]:
    """Every ray of the fan, sorted by stage and then by subset bitmask."""
    _require_valid(t)
    return [
        Ray(RayLabel(ell, s), ray_generator(t, ell, s))
        for ell, n_ell in enumerate(t.dims, start=1)
        for s in proper_subsets(n_ell + 1)
    ]


def chain_tuple_of_perm_tuple(v: PermTuple) -> ChainTuple:
    return tuple(chain_of_permutation(vp) for vp in v)


def perm_tuple_of_chain_tuple(c: ChainTuple) -> PermTuple:
    return tuple(permutation_of_chain(cp) for cp in c)


def maximal_cone(t: FlagBottTower, chains: ChainTuple) -> frozenset[RayLabel]:
    """Ray labels of the maximal cone indexed by one chain per stage."""
    if len(chains) != t.m:
        raise ValueError(f"need one chain per stage ({t.m}), got {len(chains)}")
    labels = set()
    for ell, (chain, n_ell) in enumerate(zip(chains, t.dims), start=1):
        if chain.ground != n_ell + 1:
            raise ValueError(
                f"stage {ell} chain has ground {chain.ground}, expected {n_ell + 1}"
            )
        for s in chain:
            labels.add(RayLabel(ell, s))
    return frozenset(labels)


def build_fan(t: FlagBottTower, cone_cap: int = DEFAULT_CONE_CAP) -> Fan:
    """The whole fan: all rays plus all tuples-of-permutations cones.

    Raises EnumerationTooLarge if the cone count would exceed cone_cap.
    """
    _require_valid(t)
    total = 1
    for n_ell in t.dims:
        total *= factorial(n_ell + 1)
    if total > cone_cap:
        raise EnumerationTooLarge(total, cone_cap)
    rays = tuple(all_rays(t))
    index = {ray.label: i for i, ray in enumerate(rays)}
    # per stage, map each permutation to the ray indices of its chain
    stage_tables = []
    for ell, n_ell in enumerate(t.dims, start=1):
        table = []
        for v in itertools.permutations(range(1, n_ell + 2)):
            chain = chain_of_permutation(v)
            table.append((v, [index[RayLabel(ell, s)] for s in chain]))
        stage_tables.append(table)
    maxcones = []
    perm_tuples = []
    for combo in itertools.product(*stage_tables):
        perm_tuples.append(tuple(v for v, _ in combo))
        idxs: list[int] = []
        for _, part in combo:
            idxs.extend(part)
        idxs.sort()
        maxcones.append(tuple(idxs))
    return Fan(t.dims, rays, tuple(maxcones), tuple(perm_tuples))


def _x_row(t: FlagBottTower, v: PermTuple, j: int) -> dict[int, list[list[int]]]:
    # all accumulated twist matrices X_(j,ell) for ell < j, as row lists, by
    # X_(j,ell) = (B_j A_(j,ell) + sum_p X_(j,p) A_(p,ell)) B_ell; row i of
    # B_j M is row v_j(i) of M, and M B_ell moves column b to v_ell(b)
    vj = v[j - 1]
    xs: dict[int, list[list[int]]] = {}
    for ell in range(j - 1, 0, -1):
        a = t.twist(j, ell)
        acc = [list(a.row(vi - 1)) for vi in vj]
        for p in range(ell + 1, j):
            a_rows = t.twist(p, ell).to_rows()
            for row, x_row in zip(acc, xs[p]):
                for x, a_row in zip(x_row, a_rows):
                    if x:
                        for c, e in enumerate(a_row):
                            row[c] += x * e
        cols = sorted(range(len(v[ell - 1])), key=v[ell - 1].__getitem__)
        xs[ell] = [[row[b] for b in cols] for row in acc]
    return xs


def x_matrix(t: FlagBottTower, v: PermTuple, j: int, ell: int) -> IntMatrix:
    """Accumulated twist matrix X_(j,ell) at the fixed point of v."""
    _check_perm_tuple(t, v)
    if not 1 <= ell < j <= t.m:
        raise InvalidStagePair(f"need 1 <= ell < j <= {t.m}, got ({j}, {ell})")
    return IntMatrix.from_rows(_x_row(t, v, j)[ell])


@dataclass(frozen=True)
class WeightSystem:
    """Isotropy weights at the fixed point of a permutation tuple.

    weights holds the n projected consecutive differences in stage-major
    order.
    """

    dims: tuple[int, ...]
    perms: PermTuple
    weights: tuple[tuple[int, ...], ...]

    def weight(self, j: int, i: int) -> tuple[int, ...]:
        """The weight for stage j, index i (both 1-indexed)."""
        if not 1 <= j <= len(self.dims):
            raise IndexError(j)
        if not 1 <= i <= self.dims[j - 1]:
            raise IndexError(i)
        return self.weights[sum(self.dims[: j - 1]) + (i - 1)]

    def items(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        pos = 0
        for j, n_j in enumerate(self.dims, start=1):
            for i in range(1, n_j + 1):
                yield (j, i), self.weights[pos]
                pos += 1

    def matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(self.weights)


def weights_at(t: FlagBottTower, v: PermTuple) -> WeightSystem:
    """All n isotropy weights at the fixed point indexed by v."""
    _check_perm_tuple(t, v)
    weights = []
    offset = 0
    for j, n_j in enumerate(t.dims, start=1):
        xs = _x_row(t, v, j)
        # projected ambient rows: the first n_p entries of each X_(j,p),
        # then row i of B_j, then zeros
        rows = []
        for i, vi in enumerate(v[j - 1]):
            row = []
            for p in range(1, j):
                row.extend(xs[p][i][: t.dims[p - 1]])
            row.extend([0] * (t.n - offset))
            if vi <= n_j:
                row[offset + vi - 1] = 1
            rows.append(row)
        for i in range(n_j):
            weights.append(tuple(b - a for a, b in zip(rows[i], rows[i + 1])))
        offset += n_j
    return WeightSystem(t.dims, v, tuple(weights))


def derive_rays_from_weights(t: FlagBottTower, v: PermTuple) -> set[tuple[int, ...]]:
    """Ray generators of the cone at v, reconstructed from weights alone.

    The weight matrix must be unimodular; its inverse columns are the
    generators.  Raises OracleFailure if unimodularity fails.
    """
    ws = weights_at(t, v)
    try:
        inv = unimodular_inverse(ws.matrix())
    except NotUnimodular as e:
        raise OracleFailure(
            f"weight matrix at {v} has determinant {e.determinant}"
        ) from e
    return {inv.col(k) for k in range(inv.cols)}


def witness_perm_tuple(t: FlagBottTower, ell: int, s: Subset) -> PermTuple:
    """A permutation tuple whose cone contains the ray (ell, s): stage ell
    lists the complement of s ascending then s ascending, other stages are
    identities."""
    if not 1 <= ell <= t.m:
        raise ValueError(f"stage must be in 1..{t.m}, got {ell}")
    n_ell = t.dims[ell - 1]
    if s.ground != n_ell + 1 or not s.is_proper_nonempty():
        raise ValueError(f"subset {s} cannot label a ray at stage {ell}")
    perms = []
    for p, n_p in enumerate(t.dims, start=1):
        if p == ell:
            perms.append(s.complement().members() + s.members())
        else:
            perms.append(tuple(range(1, n_p + 2)))
    return tuple(perms)


@dataclass(frozen=True)
class PairingViolation:
    stage: int
    subset: Subset
    weight_stage: int
    weight_index: int
    expected: int
    actual: int


@dataclass
class PairingReport:
    rays_checked: int
    pairings_checked: int
    violations: list[PairingViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_pairing_identity(t: FlagBottTower) -> PairingReport:
    """Check every ray against every weight at its witness fixed point.

    At the witness of (ell, s) the pairing of weight (j, i) with the ray
    generator must be 1 when j = ell and i = n_ell + 1 - |s|, else 0.
    """
    _require_valid(t)
    violations = []
    rays_checked = 0
    pairings_checked = 0
    for ell, n_ell in enumerate(t.dims, start=1):
        for s in proper_subsets(n_ell + 1):
            rays_checked += 1
            d = n_ell + 1 - len(s)
            u = ray_generator(t, ell, s)
            ws = weights_at(t, witness_perm_tuple(t, ell, s))
            for (j, i), w in ws.items():
                pairings_checked += 1
                expected = 1 if (j == ell and i == d) else 0
                actual = sum(a * b for a, b in zip(w, u))
                if actual != expected:
                    violations.append(
                        PairingViolation(ell, s, j, i, expected, actual)
                    )
    return PairingReport(rays_checked, pairings_checked, violations)
