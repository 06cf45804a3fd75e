"""Modular tensor category data: S/T matrices, fusion, anomaly checks.

Names resolve on first use: importing the package loads no submodule,
and reading a name loads the one that defines it.
"""

from .._lazy import lazy_names

__all__, __getattr__, __dir__ = lazy_names(__name__, {
    "data": ("ModularData", "build_modular_data", "from_quadratic_space", "ising_data",
             "modular_data_from_json", "modular_data_to_json", "product"),
    "fusion": ("FusionTable", "genus_dimension", "verlinde_fusion"),
    "relations": ("RelationReport", "verify_relations"),
    "voa": ("ExtensionReport", "VoaGenusSymbol", "simple_current_extensions",
            "voa_genus_equal", "voa_milgram_check"),
})
