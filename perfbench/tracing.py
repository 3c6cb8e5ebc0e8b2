"""In-process span tracer for one Python package.

Entering a Tracer wraps every public function (module level, no leading
underscore) defined in any module of the package, and puts the wrapper into
every module namespace of the package that binds the original.  The
rebinding is needed because the package imports names across modules
(orbitfan and fancheck call exactlin's functions through their own
namespaces).  Methods of classes are not wrapped.

Each call records one span (name, start, end, parent) in memory.  A span's
self time is its duration minus the time its child spans cover; a
function's total time counts only its outermost spans, so recursion is not
counted twice.  The body of a generator function runs outside its span and
is charged to the caller that iterates it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from types import ModuleType
from typing import Callable

# observe(args, kwargs, result), called after a traced call returns
Observer = Callable[[tuple, dict, object], None]


def package_modules(package: ModuleType) -> list[ModuleType]:
    """The package itself and every submodule except __main__."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(package: ModuleType) -> dict[str, Callable]:
    """Qualified name ('module.function') -> function, for every public
    module-level function defined in the package."""
    found = {}
    for mod in package_modules(package):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Records a span per call of every public function of a package.

    Use as a context manager: the wrappers are installed on entry and the
    original functions restored on exit.
    """

    def __init__(self, package: ModuleType, observers: dict[str, Observer] | None = None):
        self.package = package
        self.names: list[str] = []
        # (name id, start ns, end ns, parent span index or -1), in call order
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack = [-1]
        self._observers = observers or {}
        self._restore: list[tuple[ModuleType, str, Callable]] = []

    def __enter__(self) -> Tracer:
        functions = public_functions(self.package)
        unknown = set(self._observers) - set(functions)
        if unknown:
            raise KeyError(f"observed functions not in the package: {sorted(unknown)}")
        wrappers = {}
        for qual, fn in functions.items():
            self.names.append(qual)
            wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1, self._observers.get(qual)))
        for mod in package_modules(self.package):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, fn: Callable, nid: int, observe: Observer | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_s and total_s over all recorded spans."""
        spans = self.spans
        covered = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i, (nid, start, end, parent) in enumerate(spans):
            calls[nid] += 1
            self_ns[nid] += end - start - covered[i]
            up = parent
            while up >= 0 and spans[up][0] != nid:
                up = spans[up][3]
            if up < 0:
                total_ns[nid] += end - start
        return {
            name: {"calls": calls[i], "self_s": self_ns[i] / 1e9, "total_s": total_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }


def write_spans(path, header: dict, tracers: list[Tracer]) -> None:
    """JSON lines: a header object, then [pass, name id, start ns, end ns,
    parent] per span, with times relative to the pass's first span."""
    names = tracers[0].names if tracers else []
    with open(path, "w") as fh:
        fh.write(json.dumps(dict(header, names=names, passes=len(tracers))) + "\n")
        for k, tracer in enumerate(tracers):
            t0 = tracer.spans[0][1] if tracer.spans else 0
            for nid, start, end, parent in tracer.spans:
                fh.write(f"[{k},{nid},{start - t0},{end - t0},{parent}]\n")
