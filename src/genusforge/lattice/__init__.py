"""Even lattices: Gram matrices, discriminant forms, genus symbols,
overlattices, theta coefficients, and root-system identification.

Names resolve on first use: importing the package loads no submodule,
and reading a name loads the one that defines it.
"""

from .._lazy import lazy_names

__all__, __getattr__, __dir__ = lazy_names(__name__, {
    "lattice": ("EvenLattice", "build_lattice", "builtin_lattice", "lattice_a",
                "lattice_d", "lattice_d16_plus", "lattice_e8", "lattice_e8e8",
                "lattice_from_json", "lattice_to_json"),
    "discform": ("GenusSymbol", "discriminant_form", "exists_lattice", "genus_symbol",
                 "same_genus", "signature"),
    "overlattice": ("overlattices",),
    "theta": ("short_vectors", "theta_coefficients"),
    "roots": ("RootSystemReport", "root_system"),
})
