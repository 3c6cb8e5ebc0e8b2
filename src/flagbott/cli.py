"""Command-line interface.

Input towers are JSON documents:

    {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}

"dims" lists the stage dimensions; "A" maps "j,l" (stages, 1-indexed,
l < j) to the integer twist matrix of shape (dims[j-1]+1) x (dims[l-1]+1).
A key must be spelled exactly f"{j},{l}" (no spaces, signs or leading
zeros); true and false are not integers; a key repeated in any object
is an error.

Exit codes: 0 success, 1 verification or runtime failure, 2 malformed
input (JSON syntax, bad shapes, missing matrices, bad keys, a cone cap
below 1).  The environment variable FLAGBOTT_CONE_CAP, an integer of at
least 1, overrides the maximal-cone enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .exactlin import IntMatrix
from .fans import Fan
from .fancheck import is_complete_simplicial, is_smooth, verify_bundle_join
from .orbitfan import (
    DEFAULT_CONE_CAP,
    EnumerationTooLarge,
    OracleFailure,
    all_rays,
    build_fan,
    derive_rays_from_weights,
    verify_pairing_identity,
)
from .tower import FlagBottTower, sample_generic, validate


class SpecError(Exception):
    """Unusable input document; message includes the location when known."""


def load_tower(path: str) -> FlagBottTower:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise SpecError(f"{path}: {e.strerror or e}") from None

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SpecError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top level must be an object")
    dims = doc.get("dims")
    # type(...) is int: JSON true/false load as bools, which are ints too
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise SpecError(f"{path}: \"dims\" must be a list of integers")
    raw = doc.get("A", {})
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: \"A\" must be an object")
    twists = {}
    for key, rows in raw.items():
        try:
            j, ell = (int(p) for p in key.split(","))
        except ValueError:
            j = ell = None
        # only the canonical spelling, so that two keys never name one pair
        if j is None or key != f"{j},{ell}":
            raise SpecError(f"{path}: matrix key {key!r} is not of the form \"j,l\"")
        try:
            a = IntMatrix.from_rows(rows)
        except (TypeError, ValueError) as e:
            raise SpecError(f"{path}: matrix {key!r}: {e}") from None
        if any(type(e) is bool for e in a.entries):
            raise SpecError(f"{path}: matrix {key!r}: entries must be int, got bool")
        twists[(j, ell)] = a
    tower = FlagBottTower(tuple(dims), twists)
    defects = validate(tower)
    if defects:
        raise SpecError("\n".join(f"{path}: {d}" for d in defects))
    return tower


def format_fan(fan: Fan) -> str:
    lines = ["FANBOTT 1", "dims " + " ".join(str(d) for d in fan.dims)]
    lines.append(f"RAYS {len(fan.rays)}")
    for ray in fan.rays:
        coords = " ".join(str(c) for c in ray.vector)
        lines.append(f"{ray.label.stage} {ray.label.subset} : {coords}")
    lines.append(f"MAXCONES {len(fan.maxcones)}")
    for cone in fan.maxcones:
        lines.append(" ".join(str(i) for i in cone))
    return "\n".join(lines) + "\n"


def _cone_cap() -> int:
    raw = os.environ.get("FLAGBOTT_CONE_CAP")
    if raw is None:
        return DEFAULT_CONE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SpecError(f"FLAGBOTT_CONE_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise SpecError(f"FLAGBOTT_CONE_CAP must be at least 1, got {raw!r}")
    return cap


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cmd_build(args: argparse.Namespace) -> int:
    tower = load_tower(args.spec)
    fan = build_fan(tower, cone_cap=_cone_cap())
    print(f"rays: {len(fan.rays)}, maxcones: {len(fan.maxcones)}")
    if args.out:
        _write_text(args.out, format_fan(fan))
    return 0


def _cmd_rays(args: argparse.Namespace) -> int:
    tower = load_tower(args.spec)
    for ray in all_rays(tower):
        coords = " ".join(str(c) for c in ray.vector)
        print(f"{ray.label.stage} {ray.label.subset} : {coords}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    tower = load_tower(args.spec)
    fan = build_fan(tower, cone_cap=_cone_cap())
    _write_text(args.out, format_fan(fan))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    tower = load_tower(args.spec)
    chosen = [
        name
        for name in ("smooth", "complete", "pairing", "oracle", "bundle")
        if getattr(args, name)
    ] or ["smooth", "complete", "pairing", "oracle", "bundle"]
    fan = None
    if set(chosen) - {"pairing"}:
        fan = build_fan(tower, cone_cap=_cone_cap())
    failed = False
    for name in chosen:
        if name == "smooth":
            rep = is_smooth(fan)
            ok = rep.ok
            note = f"{rep.cones_checked} cones" if ok else f"{len(rep.failures)} of {rep.cones_checked} cones fail"
        elif name == "complete":
            rep = is_complete_simplicial(fan)
            ok = rep.ok
            note = f"{rep.walls_checked} walls" if ok else f"{len(rep.defects)} wall defects, connected={rep.connected}"
        elif name == "pairing":
            rep = verify_pairing_identity(tower)
            ok = rep.ok
            note = f"{rep.pairings_checked} pairings" if ok else f"{len(rep.violations)} violations"
        elif name == "oracle":
            ok, note = _oracle_check(tower, fan)
        else:
            rep = verify_bundle_join(fan, tower)
            ok = rep.ok
            note = (
                f"splits {','.join(map(str, rep.splits_checked)) or 'none'}"
                if ok
                else f"{len(rep.defects)} defects"
            )
        print(f"{name}: {'ok' if ok else 'FAIL'} ({note})")
        failed = failed or not ok
    return 1 if failed else 0


def _oracle_check(tower: FlagBottTower, fan: Fan) -> tuple[bool, str]:
    bad = 0
    for ci, pt in enumerate(fan.perm_tuples):
        want = {fan.rays[r].vector for r in fan.maxcones[ci]}
        try:
            got = derive_rays_from_weights(tower, pt)
        except OracleFailure:
            bad += 1
            continue
        if got != want:
            bad += 1
    if bad:
        return False, f"{bad} of {len(fan.maxcones)} cones disagree"
    return True, f"{len(fan.maxcones)} cones agree"


def _cmd_sample_generic(args: argparse.Namespace) -> int:
    g = sample_generic(args.n, args.bound, args.seed)
    for i in range(g.size):
        print(" ".join(str(e) for e in g.row(i)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagbott",
        description="Fans of generic torus orbit closures in flag Bott towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the fan and print its size")
    p.add_argument("spec", help="tower JSON document")
    p.add_argument("--out", help="also write the fan in exchange format")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("rays", help="print all labeled ray generators")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_rays)

    p = sub.add_parser("verify", help="run structural checks (all by default)")
    p.add_argument("spec")
    p.add_argument("--smooth", action="store_true", help="cone determinants are +-1")
    p.add_argument("--complete", action="store_true", help="wall pairing covers R^n")
    p.add_argument("--pairing", action="store_true", help="weights pair correctly with rays")
    p.add_argument("--oracle", action="store_true", help="weight-derived rays match the formula")
    p.add_argument("--bundle", action="store_true", help="iterated bundle structure holds")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample-generic", help="sample a generic integer matrix")
    p.add_argument("--n", type=int, required=True, help="flag dimension (matrix size n+1)")
    p.add_argument("--bound", type=int, required=True, help="entry bound")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample_generic)

    p = sub.add_parser("export", help="write the fan in exchange format")
    p.add_argument("spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (EnumerationTooLarge, OracleFailure, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
