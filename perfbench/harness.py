"""Seeded workloads, the closed loop and the output checks of the
flagbott benchmark.  See README.md in this directory for the workloads and
metrics.

Load model: a single client (this process) runs a closed loop.  It starts
one `python -m flagbott` child at a time, waits for it, checks its output
and only then starts the next.  There are no threads and never two
children at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import flagbott
from flagbott import cli
from flagbott.exactlin import IntMatrix, det
from flagbott.orbitfan import build_fan

from tracing import Tracer, write_spans

BOUND = 5  # twist entries and sampled matrix entries lie in [-BOUND, BOUND]
SETUP_REPEATS = 11  # fresh processes timed per run for setup_s (median)
MIN_ROUNDS = 3  # timed rounds per run, even when --seconds has run out
MIN_PASSES = 2  # traced passes per run, so that work counts can be compared
SETUP_CODE = "import sys; from flagbott.cli import load_tower; load_tower(sys.argv[1])"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-large", (3, 3, 3)),
        Workload("export-large", (4, 4, 3)),
        Workload("over-cap", (9, 9)),
    )
}


@dataclasses.dataclass(frozen=True)
class Command:
    label: str  # "verify", "export", "pairing" or "sample"
    argv: tuple[str, ...]  # arguments of `python -m flagbott`
    n: int = 0  # flag dimension of a "sample" command


def seeded_tower(dims: tuple[int, ...], rng: random.Random) -> dict:
    """Tower document with twist entries uniform in [-BOUND, BOUND], drawn
    in the same order as tests/conftest.py::random_tower."""
    twists = {}
    for j in range(2, len(dims) + 1):
        for ell in range(1, j):
            twists[f"{j},{ell}"] = [
                [rng.randint(-BOUND, BOUND) for _ in range(dims[ell - 1] + 1)]
                for _ in range(dims[j - 1] + 1)
            ]
    return {"dims": list(dims), "A": twists}


def closed_forms(dims: tuple[int, ...]) -> dict[str, int]:
    rays = sum(2 ** (d + 1) - 2 for d in dims)
    cones = math.prod(math.factorial(d + 1) for d in dims)
    n = sum(dims)
    return {"rays": rays, "cones": cones, "walls": cones * n // 2, "pairings": rays * n}


def expected_work(w: Workload) -> dict[str, int]:
    """The work counts that do not depend on the seed."""
    cf = closed_forms(w.dims)
    builds = w.name != "over-cap"
    pairs = w.name != "export-large"
    return {
        "work.rays": cf["rays"],
        "work.cones": cf["cones"] if builds else 0,
        "work.walls": cf["walls"] if w.name == "verify-large" else 0,
        "work.pairings": cf["pairings"] if pairs else 0,
    }


def round_commands(w: Workload, spec: str, fan_path: str, rng: random.Random) -> list[Command]:
    """The commands of one closed-loop round; sample seeds come from rng."""
    if w.name == "verify-large":
        return [Command("verify", ("verify", spec))]
    if w.name == "export-large":
        return [Command("export", ("export", spec, "--out", fan_path))]
    cmds = [Command("pairing", ("verify", "--pairing", spec))]
    for d in w.dims:
        seed = str(rng.randrange(2**31))
        argv = ("sample-generic", "--n", str(d), "--bound", str(BOUND), "--seed", seed)
        cmds.append(Command("sample", argv, n=d))
    return cmds


class Checker:
    """Checks one command's exit code and output against closed forms and,
    for exports, against the bytes format_fan(build_fan(t)) gives in-process."""

    def __init__(self, w: Workload, spec: str, fan_path: str):
        cf = closed_forms(w.dims)
        self.cf = cf
        splits = ",".join(str(s) for s in range(len(w.dims), 1, -1)) or "none"
        self.verify_lines = [
            f"smooth: ok ({cf['cones']} cones)",
            f"complete: ok ({cf['walls']} walls)",
            f"pairing: ok ({cf['pairings']} pairings)",
            f"oracle: ok ({cf['cones']} cones agree)",
            f"bundle: ok (splits {splits})",
        ]
        self.fan_path = Path(fan_path)
        self.fan_sha256 = None
        if w.name == "export-large":
            text = cli.format_fan(build_fan(cli.load_tower(spec)))
            self.fan_sha256 = hashlib.sha256(text.encode()).hexdigest()

    def prepare(self, cmd: Command) -> None:
        """Remove an earlier export, so a command that writes nothing fails."""
        if cmd.label == "export":
            self.fan_path.unlink(missing_ok=True)

    def check(self, cmd: Command, code: int, stdout: str) -> str | None:
        """None if the command did what it should, else what went wrong."""
        if code != 0:
            return f"exit code {code}"
        if cmd.label == "verify":
            return _expect_lines(stdout, self.verify_lines)
        if cmd.label == "pairing":
            return _expect_lines(stdout, [f"pairing: ok ({self.cf['pairings']} pairings)"])
        if cmd.label == "export":
            return _expect_lines(stdout, []) or self._check_export()
        return check_sample(cmd.n, stdout)

    def _check_export(self) -> str | None:
        try:
            data = self.fan_path.read_bytes()
        except OSError as e:
            return f"cannot read export: {e}"
        lines = data.split(b"\n", self.cf["rays"] + 4)
        rays = f"RAYS {self.cf['rays']}".encode()
        cones = f"MAXCONES {self.cf['cones']}".encode()
        if len(lines) < self.cf["rays"] + 4 or lines[2] != rays or lines[3 + self.cf["rays"]] != cones:
            return f"export headers differ from {rays!r} / {cones!r}"
        if hashlib.sha256(data).hexdigest() != self.fan_sha256:
            return "export bytes differ from in-process format_fan(build_fan(t))"
        return None


def _expect_lines(stdout: str, want: list[str]) -> str | None:
    got = stdout.splitlines()
    return None if got == want else f"output {got[:6]!r} != expected {want!r}"


def check_sample(n: int, stdout: str) -> str | None:
    """An (n+1)-square matrix with entries in [-BOUND, BOUND] and every flag
    minor nonzero, rechecked with Bareiss (exactlin.det), not tower._qdet."""
    try:
        rows = [[int(x) for x in line.split()] for line in stdout.splitlines()]
    except ValueError:
        return f"sample output is not an integer matrix: {stdout[:80]!r}"
    size = n + 1
    if len(rows) != size or any(len(r) != size for r in rows):
        return f"sample is not {size}x{size}"
    if any(abs(e) > BOUND for r in rows for e in r):
        return f"sample entry outside [-{BOUND}, {BOUND}]"
    for k in range(1, size + 1):
        for idx in itertools.combinations(range(size), k):
            if det(IntMatrix.from_rows([rows[i][:k] for i in idx])) == 0:
                return f"flag minor on rows {[i + 1 for i in idx]} vanishes"
    return None


class Tally:
    """Operations attempted and the ones that failed or gave wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")


def child_env(root: Path) -> dict[str, str]:
    """The environment of every child: flagbott from root/src, the default
    cone cap, and no bytecode written into the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "FLAGBOTT_CONE_CAP"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(argv: list[str], root: Path, env: dict, out_path: Path) -> tuple[float, int, float, str]:
    """Run `python <argv>` from root; return wall seconds, exit code, peak
    RSS in MB (from os.wait4) and stdout."""
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env, stdout=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return seconds, proc.returncode, usage.ru_maxrss / 1024, text


def run_inprocess(cmd: Command) -> tuple[float, int, str]:
    """Run flagbott.cli.main(argv) in this process; wall seconds, exit code, stdout."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, buf.getvalue()


def timed_run(w, spec, rng, seconds, root, workdir, checker, tally) -> tuple[dict, dict]:
    """Untraced closed loop: set-up processes, then rounds of CLI commands
    until `seconds` have passed (at least MIN_ROUNDS).  Returns the
    end-to-end metric values and the raw samples."""
    out = workdir / "stdout.txt"
    env = child_env(root)
    samples: dict[str, list[float]] = {"setup_s": [], "round_s": []}
    rss = 0.0
    # one untimed start first, so the file cache is warm for every timed one
    for k in range(SETUP_REPEATS + 1):
        secs, code, mb, _ = run_child(["-c", SETUP_CODE, spec], root, env, out)
        tally.record("setup", None if code == 0 else f"exit code {code}")
        rss = max(rss, mb)
        if k:
            samples["setup_s"].append(secs)
    fan_path = str(checker.fan_path)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        round_s = 0.0
        for cmd in round_commands(w, spec, fan_path, rng):
            checker.prepare(cmd)
            secs, code, mb, stdout = run_child(["-m", "flagbott", *cmd.argv], root, env, out)
            tally.record(cmd.label, checker.check(cmd, code, stdout))
            samples.setdefault(f"{cmd.label}_s", []).append(secs)
            round_s += secs
            rss = max(rss, mb)
        samples["round_s"].append(round_s)
        rounds += 1
    metrics = {
        "round_s": statistics.median(samples["round_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": rss,
    }
    return metrics, samples


def work_observers(counts: dict[str, int]) -> dict:
    """Observers that add exact work counts, read off the return values of
    layer boundaries, into counts (which holds every WORK_KEYS entry)."""
    ray_vectors: set[tuple[int, ...]] = set()

    def add(key, amount):
        counts[key] += amount

    def ray(args, kwargs, vector):
        ray_vectors.add(vector)
        counts["work.rays"] = len(ray_vectors)

    return {
        "orbitfan.build_fan": lambda a, k, fan: add("work.cones", len(fan.maxcones)),
        "orbitfan.ray_generator": ray,
        "fancheck.is_complete_simplicial": lambda a, k, rep: add("work.walls", rep.walls_checked),
        "orbitfan.verify_pairing_identity": lambda a, k, rep: add("work.pairings", rep.pairings_checked),
        "tower.plucker": lambda a, k, _: add("work.minors", 1),
        "cli.format_fan": lambda a, k, text: add("work.export_bytes", len(text.encode())),
    }


ACCEPT_RATIO = "tower.sample_generic.accept_ratio"  # samples / candidates tested
WORK_KEYS = ("work.cones", "work.rays", "work.walls", "work.pairings", "work.minors", "work.export_bytes")


def layer_metric(name: str, stats: dict, counts: dict) -> float:
    if name in WORK_KEYS:
        return counts.get(name, 0)
    if name == ACCEPT_RATIO:
        tested = stats["tower.is_generic_matrix"]["calls"]
        return stats["tower.sample_generic"]["calls"] / tested if tested else 0.0
    func, stat = name.rsplit(".", 1)
    return stats[func][stat] if func in stats else 0


def traced_run(w, cmds, seconds, checker, tally, units) -> tuple[dict, list, dict, list[str]]:
    """Pairs of in-process passes of the same commands, one untraced and one
    traced, until `seconds` have passed (at least MIN_PASSES pairs).
    Returns the per-layer metrics (medians over traced passes), the tracers,
    a record of the work counts and pass times, and the harness-level
    errors."""
    errors = []
    per_layer = [m for m in units if m != "trace.overhead_s"]

    def one_pass(tracer):
        results = []
        with tracer or contextlib.nullcontext():
            for cmd in cmds:
                checker.prepare(cmd)
                results.append((cmd, *run_inprocess(cmd)))
        for cmd, _, code, stdout in results:  # checks run untraced
            tally.record(cmd.label, checker.check(cmd, code, stdout))
        return sum(r[1] for r in results)

    start = time.perf_counter()
    tracers, untraced, traced, values, work = [], [], [], [], None
    while len(tracers) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(one_pass(None))
        counts = {k: 0 for k in WORK_KEYS}
        tracer = Tracer(flagbott, work_observers(counts))
        traced.append(one_pass(tracer))
        tracers.append(tracer)
        stats = tracer.stats()
        if not values:
            missing = sorted(
                {m.rsplit(".", 1)[0] for m in per_layer if m not in WORK_KEYS and m != ACCEPT_RATIO}
                - set(stats)
            )
        values.append({m: layer_metric(m, stats, counts) for m in per_layer})
        if work is None:
            work = counts
        elif counts != work:
            errors.append(f"work counts differ between passes: {work} vs {counts}")
    for key, want in expected_work(w).items():
        if work[key] != want:
            errors.append(f"{key} is {work[key]}, closed form gives {want}")
    metrics = {}
    for m in per_layer:
        # counts repeat exactly, so the low median keeps them integers
        med = statistics.median_low if units[m] in ("count", "bytes") else statistics.median
        metrics[m] = med(v[m] for v in values)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    info = {"work": work, "untraced_s": untraced, "traced_s": traced, "not_in_package": missing}
    return metrics, tracers, info, errors


def environment(root: Path, workload: str, seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def run(root: Path, w: Workload, seed: int, seconds: float, trace: bool,
        outdir: Path, manifest: dict, doc: dict | None = None) -> dict:
    """Run one workload; write the output files and return the result object
    the benchmark prints.  The tower is drawn from the seed unless doc gives
    one; the seed also draws the sample-generic seeds."""
    rng = random.Random(seed)
    if doc is None:
        doc = seeded_tower(w.dims, rng)
    outdir.mkdir(parents=True, exist_ok=True)
    env = environment(root, w.name, seed)
    record = {"env": env, "seconds": seconds, "trace": int(trace), "dims": list(w.dims)}
    result_path = outdir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    tally = Tally()
    errors = []
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=outdir) as tmp:
        workdir = Path(tmp)
        spec = str(workdir / "tower.json")
        Path(spec).write_text(json.dumps(doc))
        fan_path = str(workdir / "fan.txt")
        checker = Checker(w, spec, fan_path)
        if trace:
            cmds = round_commands(w, spec, fan_path, rng)
            units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
            metrics, tracers, info, errors = traced_run(w, cmds, seconds, checker, tally, units)
            with contextlib.suppress(OSError, ValueError, KeyError):
                earlier = json.loads(result_path.read_text())
                if earlier["env"]["source_sha256"] == env["source_sha256"] and earlier["work"] != info["work"]:
                    errors.append(f"work counts {info['work']} differ from an earlier run's {earlier['work']}")
            write_spans(outdir / f"{w.name}-spans.jsonl", {"env": env}, tracers)
            record.update(info)
        else:
            units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
            metrics, samples = timed_run(w, spec, rng, seconds, root, workdir, checker, tally)
            record["samples"] = samples
            record["medians"] = {k: {"median": statistics.median(v), "n": len(v)} for k, v in samples.items()}
    failed = len(tally.failures)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(
        result=result,
        failed_ops=failed / tally.attempted,
        failures=tally.failures[:20],
        errors=errors,
        export_sha256=checker.fan_sha256,
    )
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    for line in tally.failures[:20] + errors:
        print(f"perfbench: {line}", file=sys.stderr)
    return result


def main(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    os.environ.pop("FLAGBOTT_CONE_CAP", None)  # the in-process passes use the default cap
    result = run(root, WORKLOADS[workload], seed, seconds, trace, root / ".perfbench_out", manifest)
    print(json.dumps(result))
    return 0
