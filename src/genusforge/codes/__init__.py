"""Binary codes: duals, weight enumerators, framing checks, greedy
lexicographic construction, and counts of 8-divisible codes.

Names resolve on first use: importing the package loads no submodule,
and reading a name loads the one that defines it.
"""

from .._lazy import lazy_names

__all__, __getattr__, __dir__ = lazy_names(__name__, {
    "binary": ("BinaryCode", "build_code", "code_from_json", "code_to_json",
               "contains_allones", "dual_code", "is_even", "weight_enumerator",
               "weights_divisible_by_8"),
    "framed": ("FramedPair", "FramedReport", "check_framed_conditions"),
    "greedy": ("lexicode",),
    "sigma": ("DEFAULT_LENGTH_CAP", "SigmaProfile", "relative_mass_rhs", "sigma_k",
              "sigma_profile"),
})
