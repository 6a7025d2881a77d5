"""Shared helpers: deterministic seed derivation and optional thread mapping."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_R = TypeVar("_R")


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream ``key`` of master ``seed``.

    Streams with distinct keys are statistically independent, and the mapping
    (seed, key) -> stream is stable across runs and platforms.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive_seed(seed: int, *key: int) -> int:
    """Stable scalar seed for the sub-stream ``key`` of master ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def worker_count() -> int:
    """Worker cap from the IVP_THREADS environment variable (default 1).

    The value is clamped to [1, os.cpu_count()], so a large setting cannot
    start more threads than the machine has CPUs.
    """
    raw = os.environ.get("IVP_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def pmap(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Map ``fn`` over ``items`` preserving order.

    Runs on a thread pool when IVP_THREADS > 1; results are identical to the
    serial path because every work item is self-seeded.
    """
    seq: Sequence[_T] = list(items)
    workers = worker_count()
    if workers <= 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))
