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
cone's rays; that is the weight oracle, an independent check of the ray
formula above.  derive_rays_from_weights computes the inverse for one
cone, and serves as the per-cone reference for verify_oracle.

The oracle on the prefix tree.  Let W be the weight matrix at v and U the
matrix whose columns are the rays of v's cone.  The cone agrees when the
inverse columns of W are exactly the cone's rays, which holds iff W U is
a permutation matrix P: then det W = +-1 and W^-1 = U P^-1, and
conversely.  verify_oracle decides that for every cone without an inverse,
and for most cones without a product either.

Write X_(j,ell) = B_j Y_(j,ell) and Y_(j,ell) = Z_(j,ell) B_ell.  Then
Z_(j,ell) = A_(j,ell) + sum_p Y_(j,p) A_(p,ell) reads v_(ell+1), ...,
v_(j-1) only, so _y_rows keeps it under (j, ell, prefix[ell:]) for one call
and reindexes its columns per prefix: at most the cone count over
(n_1 + 1)! keys.  Let R_j[k], k = 1..n_j+1, be row k of the
block row [Y_(j,1) ... Y_(j,j-1)  I  0 ... 0], projected; _stage_rows
computes these rows.  Then row i of [X_(j,1) ... B_j ...] is R_j[v_j(i)],
and weight (j, i) is R_j[v_j(i+1)] - R_j[v_j(i)], which vanishes on the
blocks above j.  weights_at, the test (c) below and the pairing check
read these rows.  Split the rows of W by weight stage and the columns of
U by ray stage, so that block (j, ell) of W U pairs the stage-j weights
with the stage-ell rays.

(a) Suppose every stage-ell ray of the cone vanishes on the blocks below
    ell.  Then block (j, ell) is zero for j < ell: W U is block lower
    triangular.  Such a matrix is a permutation matrix iff its diagonal
    blocks are and every block below them is zero.  The first block row
    puts its n_1 ones in the first block column, one per column, so no
    other one falls in that column; repeat down the diagonal.  Under (a)
    the cone agrees exactly when (b) and (c) hold:
(b) for each j, W_jj U_jj is a permutation matrix.  W_jj holds the
    differences e_(v_j(i+1)) - e_(v_j(i)) in block j and U_jj the block-j
    coordinates of the stage-j rays, so this reads v_j alone: it is
    decided once per stage and permutation;
(c) for each ell < j and each stage-ell ray u of the cone, the stage-j
    weights vanish on u, that is, R_j[k] . u is the same for every k
    (v_j permutes the R_j[k] and changes no value).  This reads
    v_1, ..., v_(j-1) only: it is decided once per prefix, and per ray
    once per key.  With u_ell block ell of u ending in its projected-away
    0 and w_ell[b] = u_ell[v_ell(b) - 1], R_j[k] . u is sum_(ell<j)
    Z_(j,ell)[k] . w_ell + u_j[k], and v_ell lies in prefix[1:] for
    ell >= 2, so the key (prefix[1:], w_1, u[n_1 : n_1 + ... + n_j]) holds
    every input of the test: the memo is exact on any rays.  On build_fan's
    fan a stage-1 ray's w_1 and later blocks read only |S| and whether
    n_1 + 1 is in S, so each prefix[1:] has at most
    2 n_1 + sum_(2<=ell<j) (2^(n_ell+1) - 2) keys.

So verify_oracle walks the prefix tree of the permutation tuples in cone
order, in one recursion that carries two flags.  ok says that (b) and
(c) hold so far; a failure of either condemns every cone below it whose
rays satisfy (a), and a subtree with no ray breaking (a) is counted at
once by its size.  (b) and (c) decide nothing for a cone with a ray that
breaks (a).  Swap the vectors of a stage-1 ray and a stage-2 ray: on a
cone holding both, U_11 gets a column zero in block 1 and (b) fails, yet
U is only the true U with two columns swapped, and W U is still a
permutation matrix.  So alone says that the prefix holds such a ray, and
each cone below it is decided on its own, at its leaf, by forming W U.
The rays are read by label, stage by stage, so ray vectors and numbering
may be anything; the cones must be build_fan's.

The pairing check.  By linearity, weight (j, i) pairs with a ray u as
R_j[v_j(i+1)] . u - R_j[v_j(i)] . u, so verify_pairing_identity takes one
dot per row of R_j.  By (c), R_j . u reads only v[1:j-1], w_1 and blocks
2..j of u, and stage 1's run of pairings is the differences of w_1: each
run is computed once per key (v[1:j], w_1, u[n_1 : n_1 + ... + n_j]), on
any rays.  R_j is computed once per call at the witness's identity prefix,
j <= ell, and else once per new key.  A stage-1 ray's w_1 and later blocks
read only |s| and whether n_1 + 1 is in s, so on two stages R_j is built
at most 2 + 2 n_1 times, not 2^(n_1+1).  The check still reads the ray
formula and the twist recurrence independently.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from .exactlin import IntMatrix, unimodular_inverse
from .fans import Fan, PermTuple, Ray, Subset, permutation_chains, ray_labels, stage_join
from .permfan import check_permutation, perm_ray_vector
from .tower import DEFAULT_CONE_CAP, FlagBottTower, validate


def _require_valid(t: FlagBottTower) -> None:
    defects = validate(t)
    if defects:
        raise ValueError("invalid tower: " + "; ".join(defects))


def _check_perm_tuple(t: FlagBottTower, v: PermTuple) -> PermTuple:
    # v as a tuple of tuples, which key the memo of _y_rows
    if len(v) != t.m:
        raise ValueError(f"need one permutation per stage ({t.m}), got {len(v)}")
    for p, (vp, n_p) in enumerate(zip(v, t.dims), start=1):
        if len(vp) != n_p + 1:
            raise ValueError(f"stage {p} permutation must have {n_p + 1} symbols")
        check_permutation(vp)
    return tuple(map(tuple, v))


def ray_generator(t: FlagBottTower, ell: int, s: Subset) -> tuple[int, ...]:
    """Generator in Z^n of the ray labeled (ell, s)."""
    if not 1 <= ell <= t.m:
        raise ValueError(f"stage must be in 1..{t.m}, got {ell}")
    n_ell = t.dims[ell - 1]
    vec = [0] * sum(t.dims[: ell - 1])
    vec += perm_ray_vector(n_ell, s)  # validates s for this stage
    d = n_ell + 1 - len(s)
    last_in = (n_ell + 1) in s
    # each higher block re-represented modulo the trivially acting directions
    # as it is formed: zeroing the last coordinate c_q of an earlier block q
    # adds c_q times the row sums of block p's twist matrix against stage q
    lasts: list[tuple[int, int]] = []  # (q, c_q) for each earlier block with c_q != 0
    for p in range(ell + 1, t.m + 1):
        a = t.twist(p, ell)
        block = [sum(row[:d]) if last_in else -sum(row[d:]) for row in map(a.row, range(a.rows))]
        for q, c in lasts:
            block = [x + c * sum(row) for x, row in zip(block, map(t.twist(p, q).row, range(a.rows)))]
        c = block[-1]
        if c:
            lasts.append((p, c))
        vec += (x - c for x in block[:-1])
    return tuple(vec)


def all_rays(t: FlagBottTower) -> list[Ray]:
    """Every ray of the fan, labelled and ordered by fans.ray_labels: by
    stage, then by subset bitmask."""
    _require_valid(t)
    return [Ray(label, ray_generator(t, label.stage, label.subset)) for label in ray_labels(t.dims)]


def build_fan(t: FlagBottTower, cone_cap: int = DEFAULT_CONE_CAP) -> Fan:
    """The whole fan: all rays plus all tuples-of-permutations cones.

    Raises EnumerationTooLarge if the cone count would exceed cone_cap.
    """
    _require_valid(t)
    cones, perm_tuples = stage_join(t.dims, cone_cap)
    return Fan(t.dims, tuple(all_rays(t)), cones, perm_tuples)


def _y_rows(t: FlagBottTower, prefix: PermTuple, ell: int, zs: dict) -> list[list[int]]:
    # Y_(j,ell) = Z_(j,ell) B_ell for j = len(prefix) + 1, as row lists, Z kept
    # in zs as the module docstring shows; M B_ell moves column b to v_ell(b)
    j = len(prefix) + 1
    key = (j, ell, prefix[ell:])
    z = zs.get(key)
    if z is None:
        z = zs[key] = t.twist(j, ell).to_rows()
        for p in range(ell + 1, j):
            a_rows = t.twist(p, ell).to_rows()
            for row, y_row in zip(z, _y_rows(t, prefix, p, zs)):
                for y, a_row in zip(y_row, a_rows):
                    if y:
                        for c, e in enumerate(a_row):
                            row[c] += y * e
    cols = sorted(range(len(prefix[ell - 1])), key=prefix[ell - 1].__getitem__)
    return [[row[b] for b in cols] for row in z]


def _stage_rows(t: FlagBottTower, prefix: PermTuple, zs: dict) -> list[list[int]]:
    # R_j[k] at list index k - 1: row k of [Y_(j,1) ... Y_(j,j-1) I 0 ... 0],
    # projected to Z^n by keeping the first n_p entries of each block
    j = len(prefix) + 1
    ys = [_y_rows(t, prefix, p, zs) for p in range(1, j)]
    offset = sum(t.dims[: j - 1])
    rows = []
    for k in range(t.dims[j - 1] + 1):
        row = []
        for p in range(1, j):
            row.extend(ys[p - 1][k][: t.dims[p - 1]])
        row.extend([0] * (t.n - offset))
        if k < t.dims[j - 1]:
            row[offset + k] = 1
        rows.append(row)
    return rows


def weights_at(t: FlagBottTower, v: PermTuple) -> tuple[tuple[int, ...], ...]:
    """All n isotropy weights at the fixed point indexed by v, in
    stage-major order: weight (j, i) is R_j[v_j(i+1)] - R_j[v_j(i)]."""
    v = _check_perm_tuple(t, v)
    weights, zs = [], {}
    for j, vj in enumerate(v, start=1):
        rows = _stage_rows(t, v[: j - 1], zs)
        for vh, vi in zip(vj, vj[1:]):
            weights.append(tuple(b - a for a, b in zip(rows[vh - 1], rows[vi - 1])))
    return tuple(weights)


def derive_rays_from_weights(t: FlagBottTower, v: PermTuple) -> set[tuple[int, ...]]:
    """Ray generators of the cone at v, reconstructed from weights alone.

    The weight matrix must be unimodular; its inverse columns are the
    generators.  Raises NotUnimodular, carrying the determinant, otherwise.
    """
    inv = unimodular_inverse(IntMatrix.from_rows(weights_at(t, v)))
    return {inv.col(k) for k in range(inv.cols)}


ORACLE_SHOWN = 10  # disagreeing cones an OracleReport lists


@dataclass
class OracleReport:
    """Cones on which the weights reproduce the rays; first lists the
    lowest disagreeing cone indices, ascending, at most ORACLE_SHOWN."""

    cones_checked: int
    disagreeing: int
    first: list[int]

    @property
    def ok(self) -> bool:
        return not self.disagreeing


def _units(n: int) -> list[tuple[int, ...]]:
    # the columns of any n x n permutation matrix, sorted
    return sorted(tuple(int(i == k) for i in range(n)) for k in range(n))


def _diagonal_columns(v: tuple[int, ...], blocks: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # (b): the columns of W_jj U_jj, sorted.  Weight i pairs with a ray's
    # block b as b[v(i+1)] - b[v(i)], where b ends in the projected-away 0
    return sorted(tuple(b[vi - 1] - b[vh - 1] for vh, vi in zip(v, v[1:])) for b in blocks)


def _prefix_agrees(t: FlagBottTower, prefix: PermTuple, rays: list[tuple[int, ...]], zs: dict, known: dict) -> bool:
    # (c) for each ray u of the prefix, decided once per key of the module
    # docstring and kept in known; w_1[b] = u_1[v_1(b) - 1], u_1 ending in 0
    n_1, hi = t.dims[0], sum(t.dims[: len(prefix) + 1])
    w_1 = operator.itemgetter(*(e - 1 for e in prefix[0]))
    rows = None
    for u in rays:
        key = (prefix[1:], w_1(u[:n_1] + (0,)), u[n_1:hi])
        agrees = known.get(key)
        if agrees is None:
            rows = rows or _stage_rows(t, prefix, zs)
            agrees = known[key] = len({sum(map(operator.mul, row, u)) for row in rows}) == 1
        if not agrees:
            return False
    return True


def verify_oracle(fan: Fan, t: FlagBottTower) -> OracleReport:
    """The weight oracle on every maximal cone, by the walk on the prefix
    tree that the module docstring proves exact.

    The weight route never reads the ray formula: it reads the twist
    recurrence and the ray vectors that fan holds, by label.  The cones of
    fan must be build_fan's, in its order; raises ValueError, naming the
    first cone that is not, or cone 0 unless it holds each label of
    fans.ray_labels once.  A fan that Fan.is_join passes is build_fan's by
    construction; any other has its cones compared with build_fan's by ray
    label, both off fans.permutation_chains.
    """
    _require_valid(t)
    if fan.dims != t.dims:
        raise ValueError(f"fan dims {fan.dims} differ from tower dims {t.dims}")
    m = t.m
    labels = Counter((ray.label.stage, ray.label.subset.mask) for ray in fan.rays)
    if any(labels[label.stage, label.subset.mask] != 1 for label in ray_labels(t.dims)):
        raise ValueError("fan cone 0 is not build_fan's cone 0")
    by_label = {(ray.label.stage, ray.label.subset.mask): i for i, ray in enumerate(fan.rays)}
    # per stage and permutation: its chain's ray indices and vectors,
    # whether one of them breaks (a), and whether (b) holds
    perms, indices, chains, broken, diagonal_ok = [], [], [], [], []
    lo = 0
    for ell, n_ell in enumerate(t.dims, start=1):
        stage_perms, masks = permutation_chains(n_ell)
        stage_indices = [tuple(by_label[ell, s] for s in c) for c in masks]
        stage_chains = [[fan.rays[i].vector for i in c] for c in stage_indices]
        units = _units(n_ell)
        perms.append(stage_perms)
        indices.append(stage_indices)
        chains.append(stage_chains)
        broken.append([any(any(u[:lo]) for u in us) for us in stage_chains])
        diagonal_ok.append(
            [
                _diagonal_columns(v, [u[lo : lo + n_ell] + (0,) for u in us]) == units
                for v, us in zip(stage_perms, stage_chains)
            ]
        )
        lo += n_ell
    # the walk numbers the cones as build_fan does: by itertools.product;
    # a fan not made by stage_join is compared by label
    if not fan.is_join:
        expected = zip(itertools.product(*perms), itertools.product(*indices))
        for ci, (pt, cone, want) in enumerate(itertools.zip_longest(fan.perm_tuples, fan.maxcones, expected)):
            if want is None or pt != want[0] or cone != tuple(sorted(sum(want[1], ()))):
                raise ValueError(f"fan cone {ci} is not build_fan's cone {ci}")
    # size[s]: the cones below a prefix of s stages; clean[s]: no stage
    # from s on has a ray that breaks (a)
    size, clean = [1] * (m + 1), [True] * (m + 1)
    for s in range(m - 1, -1, -1):
        size[s] = size[s + 1] * len(perms[s])
        clean[s] = clean[s + 1] and not any(broken[s])
    # at the last stage every other permutation ends a cone that agrees
    last_odd = [i for i, bad in enumerate(broken[-1]) if bad or not diagonal_ok[-1][i]]
    units = _units(t.n)
    disagreeing = 0
    first: list[int] = []
    zs, known = {}, {}  # the memos of _y_rows and _prefix_agrees, for this call

    def disagree(start: int, count: int) -> None:
        nonlocal disagreeing
        disagreeing += count
        first.extend(range(start, start + min(count, ORACLE_SHOWN - len(first))))

    def walk(s: int, prefix: PermTuple, rays: list[tuple[int, ...]], start: int, ok: bool, alone: bool) -> None:
        # ok: the prefix's s permutations keep (b), and (c) for their
        # weights; alone: a ray of the prefix breaks (a), so each cone
        # below it is decided at its leaf, by forming W U
        if alone and s == m:
            ws = weights_at(t, prefix)
            if sorted(tuple(sum(map(operator.mul, w, u)) for w in ws) for u in rays) != units:
                disagree(start, 1)
            return
        if not alone:
            if ok and s:  # (c) for the stage-(s+1) weights on the prefix's rays
                ok = _prefix_agrees(t, prefix, rays, zs, known)
            if not ok and clean[s]:  # every cone below disagrees
                disagree(start, size[s])
                return
        for i in last_odd if ok and not alone and s == m - 1 else range(len(perms[s])):
            at = start + i * size[s + 1]
            walk(s + 1, prefix + (perms[s][i],), rays + chains[s][i], at, ok and diagonal_ok[s][i], alone or broken[s][i])

    walk(0, (), [], 0, True, False)
    return OracleReport(size[0], disagreeing, first)


def _witness(t: FlagBottTower, ell: int, s: Subset) -> PermTuple:
    # a cone holding the ray (ell, s): stage ell lists the complement of s, then s
    return tuple(
        tuple(sorted(range(1, n_p + 2), key=lambda e: s.mask >> (e - 1) & 1) if p == ell else range(1, n_p + 2))
        for p, n_p in enumerate(t.dims, start=1)
    )


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
    generator must be 1 when j = ell and i = n_ell + 1 - |s|, else 0,
    read off the rows R_j as the module docstring's pairing check shows.
    """
    _require_valid(t)
    identities, zs = tuple(tuple(range(1, n_p + 2)) for n_p in t.dims), {}
    identity_rows = [_stage_rows(t, identities[: j - 1], zs) for j in range(1, t.m + 1)]
    his = list(itertools.accumulate(t.dims))  # where block j ends
    n_1, runs = t.dims[0], {}  # each stage's run of pairings by its key, for this call
    violations = []
    rays_checked = pairings_checked = 0
    for label in ray_labels(t.dims):
        ell, s = label.stage, label.subset
        rays_checked += 1
        d = s.ground - len(s)
        u = ray_generator(t, ell, s)
        v = _witness(t, ell, s)
        w_1 = tuple(u[e - 1] if e <= n_1 else 0 for e in v[0])  # u_1 ends in the projected-away 0
        for j, vj in enumerate(v, start=1):
            key = (v[1:j], w_1, u[n_1 : his[j - 1]])  # every input of stage j's run
            run = runs.get(key)
            if run is None:
                rows = identity_rows[j - 1] if j <= ell else _stage_rows(t, v[: j - 1], zs)
                dots = [sum(map(operator.mul, row, u)) for row in rows]
                run = runs[key] = tuple(dots[vi - 1] - dots[vh - 1] for vh, vi in zip(vj, vj[1:]))
            pairings_checked += len(run)
            expected = (0,) * (d - 1) + (1,) + (0,) * (len(run) - d) if j == ell else (0,) * len(run)
            if run != expected:
                violations += (PairingViolation(ell, s, j, i, e, a) for i, (e, a) in enumerate(zip(expected, run), start=1) if a != e)
    return PairingReport(rays_checked, pairings_checked, violations)
