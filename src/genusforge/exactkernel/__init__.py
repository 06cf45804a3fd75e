"""Exact arithmetic: rational phases, integer matrices, cyclotomic numbers.

Names resolve on first use: importing the package loads no submodule,
and reading a name loads the one that defines it.
"""

from .._lazy import lazy_names

__all__, __getattr__, __dir__ = lazy_names(__name__, {
    "rationals": ("PhaseMod1", "PhaseMod2", "as_fraction", "fraction_str"),
    "intmatrix": ("IntMatrix", "SnfResult", "freeze", "identity", "integer_kernel",
                  "mat_mul", "row_lattice_basis", "smith_normal_form", "transpose"),
    "cyclotomic": ("ORDER_CAP", "ComplexInterval", "CyclotomicNumber", "cyclo_approx",
                   "cyclotomic_polynomial", "euler_phi", "gauss_phase",
                   "reduce_int_counts", "root_of_unity"),
})
