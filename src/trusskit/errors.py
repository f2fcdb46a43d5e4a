"""Exceptions, enumeration guards, JSON input checks and table-entry checks
shared across the package."""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_ENUM = 1_000_000
ORDER_CAP = 2**32


class TrussKitError(Exception):
    """Base class for all package-specific errors."""


class BoundExceeded(TrussKitError):
    """An enumeration or table materialization would exceed the configured cap."""

    def __init__(self, what: str, needed: int, limit: int) -> None:
        super().__init__(
            f"{what} would enumerate {needed} objects; cap is {limit} "
            f"(raise max_enum to override)"
        )
        self.what = what
        self.needed = needed
        self.limit = limit


class NotAnIsomorphism(TrussKitError):
    """The given morphism is not a bijective structure-preserving map."""


class InvalidEquivalence(TrussKitError):
    """A claimed module equivalence fails its defining identities."""


def resolve_max_enum(value: int | None) -> int:
    """Turn an optional user cap into an effective one (default 10**6 objects)."""
    if value is None:
        return DEFAULT_MAX_ENUM
    value = int(value)
    if value < 1:
        raise ValueError(f"max_enum must be positive, got {value}")
    return value


def guard(needed: int, limit: int, what: str, *args) -> None:
    """Raise BoundExceeded when `needed` exceeds `limit`. Its subject is
    `what.format(*args)`, built only then: guards sit on hot paths, where
    formatting a group name on every call would cost more than the check."""
    if needed > limit:
        raise BoundExceeded(what.format(*args), needed, limit)


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (not a boolean), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def json_ints(value, what: str) -> tuple[int, ...]:
    """`value` as a tuple if it is a JSON list of integers, else ValueError.
    The entry types are collected by `map` at C speed; a bool is not an int
    here, since `type(True)` is `bool`."""
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def int_table(
    values, length: int, bound: int, wrong_length: str, out_of_range: str
) -> tuple[tuple[int, ...], np.ndarray]:
    """`values` (a sequence of ints or an integer array of any shape, read
    in row-major order) as a tuple of Python ints and as the read-only int64
    array numpy checked: `length` entries, each in [0, bound). Otherwise
    ValueError, also for entries beyond int64; `wrong_length` may name
    `{need}` and `{got}`. An array is copied once, with no Python list in
    between."""
    try:
        table = np.array(values, dtype=np.int64)
        if isinstance(values, np.ndarray):
            table = table.reshape(-1)
    except OverflowError:
        raise ValueError(out_of_range) from None
    if table.ndim != 1 or table.size != length:
        raise ValueError(wrong_length.format(need=length, got=table.size))
    if length and (table.min() < 0 or table.max() >= bound):
        raise ValueError(out_of_range)
    table.flags.writeable = False
    return tuple(table.tolist()), table
