"""Shared across the package: the exception type, the integer check, the overflow-safe sum
``_fsum`` and the frozen-value base.

``_Frozen`` stands in for a frozen dataclass: ``dataclasses`` would load
``inspect`` and slow the start-up of the short commands.
"""

import math
import operator

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge or broke down."""


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a float or other non-integer is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
