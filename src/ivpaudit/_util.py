"""Shared helper: deterministic seed derivation for sub-streams of a master seed."""

from __future__ import annotations

import numpy as np


def derive_seed(seed: int, *key: int) -> int:
    """Stable scalar seed for the sub-stream ``key`` of master ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])
