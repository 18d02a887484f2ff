"""Exception types, and the integer argument check, shared across the package."""

import operator


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge or broke down."""


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a float or other non-integer is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
