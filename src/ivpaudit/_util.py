"""Shared helpers: the validators that every argument and file field goes
through (``integer``, ``real``, ``array`` and ``sequence``), the one limit
on computed magnitudes (``beyond_limit``), and seeds for sub-streams."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer (not bool), >= ``minimum``."""
    if type(value) is not int:  # plain ints skip the type tests: disclosure sets check every node
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name}: expected an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name}: must be >= {minimum}, got {value}")
    return value


def real(value, name: str) -> float:
    """``value`` as a finite float: an int, float or numpy real (not bool)."""
    if type(value) is not float:  # as in ``integer``: plain floats, the common case, skip them
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValidationError(f"{name}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{name}: must be finite, got {value!r}")
    return value


def array(
    value, name: str, *shape: int | None, flat: bool = False, finite: bool = True
) -> np.ndarray:
    """``value`` as a new float array with ``len(shape)`` axes, each of the
    given length (None: any), and finite entries; numeric strings are read.

    ``flat`` reads a value of any shape as a vector of its entries.  With
    ``finite=False`` the caller checks finiteness of the entries it reads.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: not a numeric array ({exc})") from None
    if flat:
        arr = arr.reshape(-1)
    if arr.ndim != len(shape):
        raise ValidationError(f"{name}: expected a {len(shape)}-D array, got shape {arr.shape}")
    axes = ("length {}",) if arr.ndim == 1 else ("{} rows", "{} columns")
    for axis, want, got in zip(axes, shape, arr.shape):
        if want is not None and got != want:
            raise ValidationError(f"{name}: expected {axis.format(want)}, got {got}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")
    return arr


def sequence(value, name: str) -> list:
    """The entries of ``value``, such as a list of arrays, as a list."""
    try:
        return list(value)
    except TypeError:
        raise ValidationError(f"{name}: expected a sequence, got {value!r}") from None


#: Largest entry magnitude of powers C A^k, transition products and states.
MAGNITUDE_LIMIT = 1e150


def beyond_limit(x: np.ndarray, axis=None):
    """True where an entry of ``x`` over ``axis`` is NaN or past the limit (max, min: no copy)."""
    return ~((x.max(axis) <= MAGNITUDE_LIMIT) & (x.min(axis) >= -MAGNITUDE_LIMIT))


def derive_seed(seed: int, *key: int) -> int:
    """Stable scalar seed for the sub-stream ``key`` of master ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])
