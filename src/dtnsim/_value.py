"""Value semantics for slotted classes whose fields are their `__slots__`.

A constructor takes the fields in slot order and stores them with `_set`.
Two `Frozen` values of one class compare field by field; a value prints as
`Name(field=value, ...)`, is read-only and hashable, and pickles through
its constructor, which checks the copy again. `_require_int` rejects a
float or a bool in an int field, and `_require_finite` a NaN or an
infinity in a float field.
"""

from __future__ import annotations

import math


def require_int(name: str, value: object) -> None:
    """Reject a value that is not an int, a bool included, for the field `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


class Frozen:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes):
        """A copy made by the constructor, with `changes` applied."""
        return type(self)(**{**dict(zip(self.__slots__, self._fields())), **changes})

    def _require_finite(self, *names: str) -> None:
        """Reject a NaN or infinite value in a float field; None passes."""
        for name in names:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def _require_int(self, *names: str) -> None:
        """Reject a non-int, a bool included, in an int field."""
        for name in names:
            require_int(name, getattr(self, name))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._fields())
