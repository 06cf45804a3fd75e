"""Finite quadratic spaces: construction, decomposition, Gauss sums,
isotropic subgroups, quotients, and brute-force isometry."""

from .space import (
    FiniteAbelianGroup,
    FiniteQuadraticSpace,
    build_space,
    direct_sum,
    space_from_gram,
    space_from_json,
    space_to_json,
    trivial_space,
)
from .gauss import gauss_sum, signature_mod8
from .decompose import (
    JordanBlockSummary,
    jordan_blocks_odd,
    jordan_decomposition,
    primary_decomposition,
)
from .subgroups import (
    Subgroup,
    closure,
    isotropic_subgroups,
    orthogonal_complement,
    quotient_space,
    subgroup_from_elements,
    subgroup_from_generators,
    trivial_subgroup,
)
from .isometry import is_isometric, verify_isometry

__all__ = [
    "FiniteAbelianGroup",
    "FiniteQuadraticSpace",
    "JordanBlockSummary",
    "Subgroup",
    "build_space",
    "closure",
    "direct_sum",
    "gauss_sum",
    "is_isometric",
    "isotropic_subgroups",
    "jordan_blocks_odd",
    "jordan_decomposition",
    "orthogonal_complement",
    "primary_decomposition",
    "quotient_space",
    "signature_mod8",
    "space_from_gram",
    "space_from_json",
    "space_to_json",
    "subgroup_from_elements",
    "subgroup_from_generators",
    "trivial_space",
    "trivial_subgroup",
    "verify_isometry",
]
