"""The one check of a count or a seed that a caller passes in."""

from __future__ import annotations


def whole(name: str, value, least: int) -> int:
    """value as an int if it is a whole number >= least, an integer-valued
    float or numpy number included; else a ValueError naming the field.

    int(value) == value tests it, not math.isfinite, which overflows on an
    integer past the float range (a seed may have any size); None, text,
    nan and inf fail the int() call itself.
    """
    try:
        is_whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        is_whole = False
    if not is_whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)
