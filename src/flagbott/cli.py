"""Command-line interface.

Input towers are JSON documents:

    {"dims": [2, 1], "A": {"2,1": [[1, 2, 0], [0, 0, 0]]}}

"dims" lists the stage dimensions; "A" maps "j,l" (stages, 1-indexed,
l < j) to the integer twist matrix of shape (dims[j-1]+1) x (dims[l-1]+1).
A key must be spelled exactly f"{j},{l}" (no spaces, signs or leading
zeros); true and false are not integers; a key repeated in any object
is an error.

Exit codes: 0 success, 1 verification or runtime failure, or a write
error on standard output (silent when the reader closed the pipe), 2
malformed input: a tower file that is not UTF-8 text, bad JSON syntax,
nesting past the recursion limit, an integer literal past the digit
limit, bad shapes, missing matrices or bad keys; a cone cap or a
sample-generic --n, --bound or --seed that is not an integer or has more
digits than the int digit limit; a cone cap below 1; a sample-generic
--n below 1 or --bound below 2; an --out file that cannot be written.
Each such error is one line, and it echoes at most 20 characters of a
bad value.

The environment variable FLAGBOTT_CONE_CAP, an integer of at least 1,
overrides the enumeration cap: it bounds the maximal cones a command
builds, the rays that rays and verify --pairing enumerate, and the flag
minors sample-generic tests per candidate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

# each command imports the fan modules it runs, when it runs
from .exactlin import IntMatrix
from .tower import DEFAULT_CONE_CAP, EnumerationTooLarge, FlagBottTower, SamplingExhausted, sample_generic, validate

if TYPE_CHECKING:
    from .fans import Fan, Ray


class SpecError(Exception):
    """Unusable input document; message includes the location when known."""


def load_tower(path: str) -> FlagBottTower:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SpecError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise SpecError(f"{path}: byte {e.start} is not UTF-8 text") from None

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
    except RecursionError:
        raise SpecError(f"{path}: JSON nested too deeply") from None
    except ValueError as e:  # an integer literal over the int-to-string digit limit
        raise SpecError(f"{path}: {e}") from None
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
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise SpecError(f"{path}: matrix {key!r} must be a list of rows")
        try:
            a = IntMatrix.from_rows(rows)
        except (TypeError, ValueError) as e:
            raise SpecError(f"{path}: matrix {key!r}: {e}") from None
        twists[(j, ell)] = a
    tower = FlagBottTower(tuple(dims), twists)
    defects = validate(tower)
    if defects:
        raise SpecError("\n".join(f"{path}: {d}" for d in defects))
    return tower


def _ray_line(ray: Ray) -> str:
    return f"{ray.label} : {' '.join(map(str, ray.vector))}"


def _spaced_texts(level, spaced: list[str]):  # a tuple's or a nested join's entries, each index then a space
    if isinstance(level, tuple):
        return ("".join(map(spaced.__getitem__, entry)) for entry in level)
    tails = list(_spaced_texts(level.tails, spaced))
    return (head + tail for head in _spaced_texts(level.heads, spaced) for tail in tails)


def format_fan(fan: Fan) -> str:
    """The export text: a header, one line per ray, then one line per
    maximal cone, its ray indices joined by spaces.

    A join's cone i is heads[i // T] + tails[i % T], T = len(tails): each
    tail and each head is spelled once, a head as the text of its own head
    and tail, and a head's block is its text before each tail's, so no cone
    is formed.  That needs every tail nonempty, as when every stage
    dimension is positive; any other fan is spelled one cone at a time.
    """
    names = list(map(str, range(len(fan.rays))))
    blocks = ["FANBOTT 1", "dims " + " ".join(str(d) for d in fan.dims), f"RAYS {len(fan.rays)}"]
    blocks += map(_ray_line, fan.rays)
    blocks.append(f"MAXCONES {len(fan.maxcones)}")
    cones = fan.maxcones
    if fan.is_join and all(fan.dims):
        tails = [" ".join(map(names.__getitem__, tail)) for tail in cones.tails]
        spaced = [name + " " for name in names]
        blocks += (text + ("\n" + text).join(tails) for text in _spaced_texts(cones.heads, spaced))
    else:
        blocks += (" ".join(map(names.__getitem__, cone)) for cone in cones)
    blocks.append("")  # the final newline, with no second copy of the text
    return "\n".join(blocks)


def _shown(raw: str) -> str:
    return repr(raw if len(raw) <= 20 else raw[:20] + "...")  # one short line


def _integer(name: str, raw: str) -> int:
    """An integer given from outside the program, or a SpecError naming it."""
    try:
        return int(raw)
    except ValueError:
        # int() also refuses a well-formed literal past the digit limit
        digits = raw.strip().lstrip("+-").replace("_", "").isdecimal()
        what = "is too large" if digits else "must be an integer"
        raise SpecError(f"{name} {what}, got {_shown(raw)}") from None


def _cone_cap() -> int:
    raw = os.environ.get("FLAGBOTT_CONE_CAP")
    if raw is None:
        return DEFAULT_CONE_CAP
    cap = _integer("FLAGBOTT_CONE_CAP", raw)
    if cap < 1:
        raise SpecError(f"FLAGBOTT_CONE_CAP must be at least 1, got {_shown(raw)}")
    return cap


def _check_cap(what: str, exponents: list[int], minus: int) -> None:
    """Fail unless sum(2**e - minus) over the exponents is within the cap."""
    cap = _cone_cap()
    # a term clamped past the cap's bit length is still over the cap, and small
    top = cap.bit_length() + 1
    if sum((1 << min(e, top)) - minus for e in exponents) > cap:
        raise ValueError(f"{what} over the cap of {cap}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise SpecError(f"{path}: {e.strerror or e}") from None


def _cmd_build(args: argparse.Namespace) -> int:
    from . import orbitfan

    tower = load_tower(args.spec)
    fan = orbitfan.build_fan(tower, cone_cap=_cone_cap())
    print(f"rays: {len(fan.rays)}, maxcones: {len(fan.maxcones)}")
    if args.out is not None:
        _write_text(args.out, format_fan(fan))
    return 0


def _cmd_rays(args: argparse.Namespace) -> int:
    from . import orbitfan

    tower = load_tower(args.spec)
    _check_cap("rays", [n + 1 for n in tower.dims], 2)
    for ray in orbitfan.all_rays(tower):
        print(_ray_line(ray))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from . import orbitfan

    tower = load_tower(args.spec)
    fan = orbitfan.build_fan(tower, cone_cap=_cone_cap())
    _write_text(args.out, format_fan(fan))
    return 0


# verify's checks, in flag and output order: (name, reads the fan, the
# module that defines the check, run, --help text, note when ok, note on
# failure).  _cmd_verify imports that module when the check runs, and run
# calls the check through it, the namespace in which a tracer rebinds it.
_CHECKS = (
    ("smooth", True, "fancheck", lambda fancheck, fan, tower: fancheck.is_smooth(fan),
     "cone determinants are +-1",
     lambda r: f"{r.cones_checked} cones", lambda r: f"{len(r.failures)} of {r.cones_checked} cones fail"),
    ("complete", True, "fancheck", lambda fancheck, fan, tower: fancheck.is_complete_simplicial(fan),
     "wall pairing covers R^n",
     lambda r: f"{r.walls_checked} walls", lambda r: f"{len(r.defects)} wall defects, connected={r.connected}"),
    ("pairing", False, "orbitfan", lambda orbitfan, fan, tower: orbitfan.verify_pairing_identity(tower),
     "weights pair correctly with rays",
     lambda r: f"{r.pairings_checked} pairings", lambda r: f"{len(r.violations)} violations"),
    ("oracle", True, "orbitfan", lambda orbitfan, fan, tower: orbitfan.verify_oracle(fan, tower),
     "weight-derived rays match the formula",
     lambda r: f"{r.cones_checked} cones agree", lambda r: f"{r.disagreeing} of {r.cones_checked} cones disagree"),
    ("bundle", True, "fancheck", lambda fancheck, fan, tower: fancheck.verify_bundle_join(fan, tower),
     "iterated bundle structure holds",
     lambda r: f"splits {','.join(map(str, r.splits_checked)) or 'none'}", lambda r: f"{len(r.defects)} defects"),
)


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import orbitfan

    tower = load_tower(args.spec)
    chosen = [check for check in _CHECKS if getattr(args, check[0])] or _CHECKS
    fan = orbitfan.build_fan(tower, cone_cap=_cone_cap()) if any(reads_fan for _, reads_fan, *_ in chosen) else None
    if any(name == "pairing" for name, *_ in chosen):
        _check_cap("rays", [n + 1 for n in tower.dims], 2)
    failed = False
    for name, _, module, run, _, ok_note, fail_note in chosen:
        rep = run(import_module(f".{module}", __package__), fan, tower)
        note = ok_note(rep) if rep.ok else fail_note(rep)
        print(f"{name}: {'ok' if rep.ok else 'FAIL'} ({note})")
        failed = failed or not rep.ok
    return 1 if failed else 0


def _cmd_sample_generic(args: argparse.Namespace) -> int:
    n = _integer("--n", args.n)
    bound = _integer("--bound", args.bound)
    seed = _integer("--seed", args.seed)
    if n < 1 or bound < 2:
        raise SpecError("sample-generic needs --n of at least 1 and --bound of at least 2")
    _check_cap("flag minors per candidate", [n + 1], 1)
    g = sample_generic(n, bound, seed)
    for i in range(g.rows):
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
    for name, _, _, _, help_text, _, _ in _CHECKS:
        p.add_argument(f"--{name}", action="store_true", help=help_text)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample-generic", help="sample a generic integer matrix")
    # integers are parsed by _integer, which keeps a bad value's echo short
    p.add_argument("--n", required=True, help="flag dimension (matrix size n+1)")
    p.add_argument("--bound", required=True, help="entry bound")
    p.add_argument("--seed", required=True)
    p.set_defaults(func=_cmd_sample_generic)

    p = sub.add_parser("export", help="write the fan in exchange format")
    p.add_argument("spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a write error surfaces here, not at exit
        return code
    except SpecError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (EnumerationTooLarge, SamplingExhausted, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # stdout refused a write: a closed pipe or a full disk
        if not isinstance(e, BrokenPipeError):
            print(f"error: {e.strerror or e}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout still holds output it cannot write; as the Python signal
            # docs advise for a closed pipe, point it at devnull, so that the
            # flush at interpreter exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
