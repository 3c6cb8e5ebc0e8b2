"""Fans of generic torus orbit closures in flag Bott towers.

Build the fan from a tower's integer twist data, rebuild it independently
from isotropy weights, and verify smoothness, completeness, and the
iterated bundle (join) structure -- all in exact integer arithmetic.

Importing the package loads no submodule: each public name below, and
each submodule, is imported on first access (PEP 562).
"""

from importlib import import_module

_MODULES = {
    "exactlin": ("IntMatrix", "NotUnimodular", "det", "mat_mul", "unimodular_inverse"),
    "fans": ("Fan", "Ray", "RayLabel", "Subset"),
    "fancheck": ("is_complete_simplicial", "is_smooth", "project_fan", "verify_bundle_join"),
    "orbitfan": ("all_rays", "build_fan", "derive_rays_from_weights", "ray_generator",
                 "verify_oracle", "verify_pairing_identity", "weights_at"),
    "permfan": ("perm_fan", "perm_ray_vector"),
    "tower": ("FlagBottTower", "is_generic_matrix", "plucker", "sample_generic", "validate"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # the import binds the submodule here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__all__})
