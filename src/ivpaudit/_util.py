"""Shared helpers: the two scalar validators that every argument and file
field goes through (``integer`` and ``real``), and deterministic seed
derivation for sub-streams of a master seed."""

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


def derive_seed(seed: int, *key: int) -> int:
    """Stable scalar seed for the sub-stream ``key`` of master ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])
