"""The public API is what the pipeline uses.

Every name a module lists in __all__ must resolve, and every public
module-level function in src/flagbott must be referenced by src/ code
outside its own body, or be named on the allowlist below.  A function
that only tests call belongs in tests/ as a test oracle, or nowhere.
Every exact decision runs on integers, so no module imports fractions.
The package binds its public names on first use, each to the object its
defining submodule holds.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import flagbott

SRC = Path(flagbott.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

# the 28 names the package bound when it imported every submodule, by module
PACKAGE_NAMES = {
    "exactlin": ["IntMatrix", "NotUnimodular", "det", "mat_mul", "unimodular_inverse"],
    "fans": ["Fan", "Ray", "RayLabel", "Subset"],
    "fancheck": ["is_complete_simplicial", "is_smooth", "project_fan", "verify_bundle_join"],
    "orbitfan": [
        "all_rays", "build_fan", "derive_rays_from_weights", "ray_generator",
        "verify_oracle", "verify_pairing_identity", "weights_at", "x_matrix",
    ],
    "permfan": ["perm_fan", "perm_ray_vector"],
    "tower": ["FlagBottTower", "is_generic_matrix", "plucker", "sample_generic", "validate"],
}

# Public functions kept without a src/ caller, each for a stated reason.
ALLOWLIST = {
    # README's Library section: its example imports, and det, the exact
    # determinant its module list names
    "orbitfan.build_fan",
    "orbitfan.all_rays",
    "orbitfan.ray_generator",
    "orbitfan.weights_at",
    "orbitfan.verify_pairing_identity",
    "fancheck.is_smooth",
    "fancheck.is_complete_simplicial",
    "fancheck.verify_bundle_join",
    "fancheck.project_fan",
    "permfan.perm_fan",
    "tower.sample_generic",
    "tower.is_generic_matrix",
    "exactlin.det",
    # the other layers that perfbench times (BENCHMARK.json per_layer);
    # its smoke test asserts that every timed layer is a public function
    "cli.load_tower",
    "cli.format_fan",
    "tower.validate",
    "tower.plucker",
    "exactlin.mat_mul",
    "exactlin.adjugate_det",
    "exactlin.unimodular_inverse",
    # the per-cone reference of verify_oracle, traced by perfbench
    "orbitfan.derive_rays_from_weights",
    # the tested entry point of the weight recurrence
    "orbitfan.x_matrix",
}


def test_all_names_resolve():
    for info in pkgutil.iter_modules(flagbott.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        mod = importlib.import_module(f"flagbott.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], f"flagbott.{info.name}.__all__ names missing attributes"


def test_public_functions_have_src_callers():
    defined = set()
    uses: list[tuple[str | None, str]] = []  # (enclosing public function, name read)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, ast.FunctionDef):
                owner = f"{path.stem}.{stmt.name}"
                if not stmt.name.startswith("_"):
                    defined.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.append((owner, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    uses.append((owner, node.attr))
    uncalled = {
        q for q in defined if not any(name == q.split(".")[1] and owner != q for owner, name in uses)
    }
    assert sorted(uncalled - ALLOWLIST) == []
    assert sorted(ALLOWLIST - defined) == [], "allowlist names a function that is gone"


def test_src_imports_no_fractions():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "fractions" for m in modules):
                importers.append(path.name)
    assert importers == []


def test_package_names_are_the_defining_modules_objects():
    names = [name for names in PACKAGE_NAMES.values() for name in names]
    assert len(names) == 28
    assert sorted(flagbott.__all__) == sorted(names)
    for module, names in PACKAGE_NAMES.items():
        mod = importlib.import_module(f"flagbott.{module}")
        for name in names:
            assert getattr(flagbott, name) is getattr(mod, name), name
    from flagbott import fancheck

    assert fancheck is sys.modules["flagbott.fancheck"]
    with pytest.raises(AttributeError):
        flagbott.no_such_name


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert example.startswith("from flagbott import (")
    exec(compile(example, str(README), "exec"), {})
