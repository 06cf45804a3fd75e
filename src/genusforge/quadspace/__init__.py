"""Finite quadratic spaces: construction, decomposition, Gauss sums,
isotropic subgroups, quotients, and brute-force isometry.

Names resolve on first use: importing the package loads no submodule,
and reading a name loads the one that defines it.
"""

from .._lazy import lazy_names

__all__, __getattr__, __dir__ = lazy_names(__name__, {
    "space": ("FiniteAbelianGroup", "FiniteQuadraticSpace", "build_space", "direct_sum",
              "space_from_gram", "space_from_json", "space_to_json", "trivial_space"),
    "gauss": ("gauss_sum",),
    "decompose": ("JordanBlockSummary", "jordan_blocks_odd", "primary_decomposition",
                  "signature_mod8"),
    "subgroups": ("Subgroup", "closure", "isotropic_subgroups", "orthogonal_complement",
                  "quotient_space", "subgroup_from_generators"),
    "isometry": ("is_isometric", "verify_isometry"),
})
