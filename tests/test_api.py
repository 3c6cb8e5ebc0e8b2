"""The public API is what the pipeline uses.

Only the package lists its public names in __all__, and every public
module-level function in src/flagbott must be referenced by src/ code
outside its own body, or be named on the allowlist below; so must every
public method of a class defined there, read as an attribute.  A function
or method that only tests call belongs in tests/ as a test oracle, or
nowhere.
Every exact decision runs on integers, so no module imports fractions.
Every source file parses under the grammar of Python 3.10, the floor
that pyproject.toml declares.
The package binds its public names on first use, each to the object its
defining submodule holds.
An exception class defined in src/ is a package name or is caught by an
except clause in src/; any other error is a built-in one, such as
ValueError, told apart by its message.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import flagbott

SRC = Path(flagbott.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# the 27 names the package bound when it imported every submodule, by module
PACKAGE_NAMES = {
    "exactlin": ["IntMatrix", "NotUnimodular", "det", "mat_mul", "unimodular_inverse"],
    "fans": ["Fan", "Ray", "RayLabel", "Subset"],
    "fancheck": ["is_complete_simplicial", "is_smooth", "project_fan", "verify_bundle_join"],
    "orbitfan": [
        "all_rays", "build_fan", "derive_rays_from_weights", "ray_generator",
        "verify_oracle", "verify_pairing_identity", "weights_at",
    ],
    "permfan": ["perm_fan", "perm_ray_vector"],
    "tower": ["FlagBottTower", "is_generic_matrix", "plucker", "sample_generic", "validate"],
}

# Public functions and methods (module.Class.method) kept without a src/
# caller, each for a stated reason.
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
}


def test_public_names_are_declared_once():
    # flagbott._MODULES is the one list of public names
    declaring = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                declaring.append(path.name)
    assert "__init__.py" in declaring
    assert sorted(set(declaring) - {"__init__.py"}) == []


def src_definitions_and_reads() -> tuple[set[str], set[str], list[tuple[str | None, str, bool]]]:
    """The public module-level functions of src/ (module.name), the public
    non-dunder methods of its classes (module.Class.name), and every name
    src/ reads: (the function or method whose body reads it, the name,
    whether it is read as an attribute)."""
    functions, methods = set(), set()
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                scopes = [(item, f"{path.stem}.{stmt.name}.", methods) for item in stmt.body]
            else:
                scopes = [(stmt, f"{path.stem}.", functions)]
            for scope, prefix, public in scopes:
                owner = None
                if isinstance(scope, ast.FunctionDef):
                    owner = prefix + scope.name
                    if not scope.name.startswith("_"):
                        public.add(owner)
                for node in ast.walk(scope):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        reads.append((owner, node.id, False))
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        reads.append((owner, node.attr, True))
    return functions, methods, reads


def test_exception_classes_are_caught_or_exported():
    defined, caught = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                cls = getattr(importlib.import_module(f"flagbott.{path.stem}"), stmt.name)
                if issubclass(cls, BaseException):
                    defined.add(stmt.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}
    exported = {name for names in flagbott._MODULES.values() for name in names}
    assert {"NotUnimodular", "SpecError"} <= defined
    assert sorted(defined - exported - caught) == []


def test_public_functions_have_src_callers():
    functions, methods, reads = src_definitions_and_reads()
    uncalled = {
        q for q in functions if not any(name == q.split(".")[1] and owner != q for owner, name, _ in reads)
    }
    assert sorted(uncalled - ALLOWLIST) == []
    assert sorted(ALLOWLIST - functions - methods) == [], "allowlist names a function that is gone"


def test_public_methods_have_src_callers():
    _, methods, reads = src_definitions_and_reads()
    unread = {
        q
        for q in methods
        if not any(attribute and name == q.split(".")[2] and owner != q for owner, name, attribute in reads)
    }
    assert sorted(unread - ALLOWLIST) == []


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
    assert len(names) == 27
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


def test_sources_parse_under_the_python_3_10_grammar():
    # the grammar only: a standard-library name that 3.10 lacks still passes
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "flagbott" / "fans.py" in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
