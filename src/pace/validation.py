"""Input validation shared across the package: one rule for a count and one for a real setting."""
from __future__ import annotations

import numbers

import numpy as np


class NonFiniteError(ValueError):
    """``check_array``'s error for NaN/Inf entries, so a caller can tell it from a shape error."""


def check_array(
    x,
    name: str = "array",
    *,
    ndim: int | None = None,
    length: int | None = None,
) -> np.ndarray:
    """Coerce ``x`` to a float64 ndarray and validate basic properties.

    Raises ``ValueError`` on dimensionality/length mismatch and its subclass
    ``NonFiniteError`` on NaN/Inf entries.
    """
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[-1:] != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


def check_batch(x, name: str = "batch", *, width: int | None = None) -> np.ndarray:
    """Validate a non-empty 2-D sample batch with finite entries."""
    arr = check_array(x, name, ndim=2)
    if arr.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if width is not None and arr.shape[1] != width:
        raise ValueError(f"{name} must have {width} columns, got {arr.shape[1]}")
    return arr


def check_real(value, name: str, low: float, high: float, ends: str) -> float:
    """A real setting: a real number (not a bool, a string, None or nan) in an interval, as a
    Python float; ``ends`` holds the brackets, so ``"(]"`` takes ``high`` but not ``low``."""
    refused = isinstance(value, bool) or not isinstance(value, numbers.Real)  # np.bool_ is not Real
    real = np.nan if refused else float(value)  # nan fails both ends
    above = low < real if ends[0] == "(" else low <= real
    below = real < high if ends[1] == ")" else real <= high
    if not (above and below):
        raise ValueError(
            f"{name} must be a real number in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}"
        )
    return real


def check_int(value, name: str, minimum: int = 1) -> int:
    """A count setting: an integer >= ``minimum`` (4.0, 2.5, inf, nan and a bool are not)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= minimum):
        rule = "a positive integer" if minimum == 1 else f">= {minimum} and an integer"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return int(value)


def store_int(config, name: str, minimum: int = 1) -> None:
    """``check_int`` a frozen config's field and store the Python int it returns there."""
    object.__setattr__(config, name, check_int(getattr(config, name), name, minimum))


def store_real(config, name: str, low: float, high: float, ends: str) -> None:
    """``check_real`` a frozen config's field and store the Python float it returns there."""
    object.__setattr__(config, name, check_real(getattr(config, name), name, low, high, ends))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    return 1 << (check_int(n, "n") - 1).bit_length()

