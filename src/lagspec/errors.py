"""Shared across the package: the exception type, the integer check with optional bounds
(``_integer``, whose docstring gives its three refusal wordings), the overflow-safe sum
``_fsum`` and the frozen-value base.

``_Frozen`` stands in for a frozen dataclass: ``dataclasses`` would load
``inspect`` and slow the start-up of the short commands.
"""

import math
import operator

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge or broke down."""


def _integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int, at least ``low`` and at most ``high`` where given.

    A float or other non-integer is rejected, not truncated, as ``<name> must be an
    integer, got <value!r>``; an int out of bounds as ``<name> must be >= <low>, got
    <int>``, or as ``<name> must be in <low>..<high>, got <int>`` where ``high`` is given.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= number <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {number}")
    if low is not None and number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    return number


def _fsum(terms: list) -> float:
    """math.fsum; where it refuses (overflow, inf - inf), the plain sum, +-inf or nan there."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


class _Frozen:
    """A frozen value: assigning or deleting an attribute raises AttributeError.

    Equality, hash and repr are over the attributes named in ``_FIELDS``, as
    a frozen dataclass's are. A subclass's ``__init__`` validates and stores
    its attributes by ``vars(self).update(...)``, past ``__setattr__``;
    pickle and copy restore the same dict.
    """

    _FIELDS: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"
