"""Error types shared by every subpackage.

Two families matter to callers: ValidationError (bad or inconsistent input
data, CLI exit code 1) and LimitError (a configurable enumeration or
precision cap was exceeded, CLI exit code 2).  InternalError marks states
that a theorem rules out; reaching one is a bug, not a user mistake.
"""

from __future__ import annotations


class GenusForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(GenusForgeError, ValueError):
    """Input data violates a documented precondition or invariant."""


class DegenerateFormError(ValidationError):
    """The bilinear form has a nonzero radical."""


class ConsistencyError(ValidationError):
    """q and b values contradict each other or the group relations."""


class NonIsotropicSubgroupError(ValidationError):
    """A subgroup passed where an isotropic one is required."""


class NotPrimaryError(ValidationError):
    """A space passed where a p-primary space for an odd prime is required."""


class NotPositiveDefiniteError(ValidationError):
    """A Gram matrix passed where a positive definite one is required."""


class NonIntegralError(ValidationError):
    """A quantity that must be a nonnegative integer is not one."""


class LimitError(GenusForgeError, RuntimeError):
    """A size, order, or precision cap was exceeded."""


class InternalError(GenusForgeError, AssertionError):
    """An internally impossible state; indicates a bug in this package."""


def check_cap(cap) -> None:
    """Every enumeration cap must be a nonnegative integer; a bool is not."""
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
        raise ValidationError(f"cap must be a nonnegative integer, got {cap!r}")
