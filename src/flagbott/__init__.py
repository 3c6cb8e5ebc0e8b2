"""Fans of generic torus orbit closures in flag Bott towers.

Build the fan from a tower's integer twist data, rebuild it independently
from isotropy weights, and verify smoothness, completeness, and the
iterated bundle (join) structure -- all in exact integer arithmetic.
"""

from .exactlin import IntMatrix, NotUnimodular, det, mat_mul, unimodular_inverse
from .fans import Fan, Ray, RayLabel, Subset
from .fancheck import (
    is_complete_simplicial,
    is_smooth,
    project_fan,
    verify_bundle_join,
)
from .orbitfan import (
    all_rays,
    build_fan,
    derive_rays_from_weights,
    ray_generator,
    verify_oracle,
    verify_pairing_identity,
    weights_at,
    x_matrix,
)
from .permfan import perm_fan, perm_ray_vector
from .tower import (
    FlagBottTower,
    is_generic_matrix,
    plucker,
    sample_generic,
    validate,
)

__version__ = "0.1.0"
