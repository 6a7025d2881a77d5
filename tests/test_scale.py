"""Verdicts past n = 20, checked against exact ranks over GF(2^61 - 1).

Each case is a ``conftest.random_structure`` draw at n = 21-30 with a drawn
disclosure set P and hidden node i.  For generic verdicts the truth is
``bench/oracle.py``'s ``exact_privacy`` at uniform weights in GF(2^61 - 1):
a rank at one such point is the generic rank except with probability at
most n^2 / p.  For weight-specific verdicts the same draw is instantiated
with ``sample_configuration``; each float weight is a dyadic rational, read
exactly and reduced into GF(2^61 - 1).  A rank there never exceeds the
rank over Q of the instantiated system and equals it unless p divides a
nonzero minor.  A node verdict may also be refused with
``ConditioningError`` (exit 3), never answered wrongly.

Past n = 30, bidirectional paths sensed at their first node are checked at
n = 40-200.  With every weight 1 the exact rank over GF(2^61 - 1) is n, which
proves rank n over Q (a minor that is nonzero mod p is nonzero), so n is
both the weight-specific rank at all-ones weights and the generic rank.  One
dense system, A = G / sqrt(n) for a standard normal G and C = e_1 at
n = 100, is checked the same way, its weights read as dyadic rationals.

The float kernel falls short of the exact rank on many of these draws
(ROADMAP, "Known failures").  Every case that fails is listed below and
marked as a strict xfail, so a change that mends one turns the suite red
until its mark is removed.  Never remove a case or loosen the comparison.
"""

import functools
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ivpaudit import (
    ConditioningError,
    LinearSystem,
    estimate_generic_rank,
    generic_node_privacy,
    NetworkStructure,
    instantiate,
    node_private,
    privacy_index,
    sample_configuration,
)
from conftest import random_structure

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    # The oracle's dataclasses look their module up by name while defined.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

DENSITIES = (0.35, 0.15)
SEEDS = range(20)
SAMPLES = 8
GENERIC_SEED = 1

#: (density, seed) of the cases that fail today, per check.
RANK_FAULTS = {(0.35, s) for s in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 18, 19)}
RANK_FAULTS |= {(0.15, 3)}
VERDICT_FAULTS = {(0.35, s) for s in (2, 3, 5, 7, 8, 10, 12, 13, 17)} | {(0.15, 3)}
#: The same, for the weight-specific checks of the instantiated draws.
WEIGHTED_RANK_FAULTS = {(0.35, s) for s in range(20) if s != 11}
WEIGHTED_RANK_FAULTS |= {(0.15, s) for s in (0, 2, 3, 4, 8, 12, 15, 18, 19)}
WEIGHTED_NODE_FAULTS = {(0.35, s) for s in (0, 2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 15, 17, 18)}


@functools.lru_cache(maxsize=None)
def scale_case(density: float, seed: int):
    """(structure, P, i, exact) for one draw; ``exact`` holds the hidden rank
    under P and node i's verdict."""
    rng = np.random.default_rng(seed)
    structure = random_structure(rng, n_min=21, n_max=30, density=density)
    n = structure.n
    P = tuple(sorted(int(j) for j in rng.choice(n, size=int(rng.integers(0, n // 3 + 1)),
                                                replace=False)))
    i = int(rng.choice([j for j in range(n) if j not in P]))
    weights = oracle.field_weights(structure.n_weights, rng)
    exact = oracle.exact_privacy(n, structure.edges, structure.sensor_edges, weights, P, (i,))
    return structure, P, i, exact


def cases(faults):
    fault = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    return [
        pytest.param(density, seed, marks=fault if (density, seed) in faults else (),
                     id=f"d{density}-s{seed}")
        for density in DENSITIES
        for seed in SEEDS
    ]


@pytest.mark.parametrize("density, seed", cases(RANK_FAULTS))
def test_generic_rank_is_exact(density, seed):
    structure, P, _, exact = scale_case(density, seed)
    estimate = estimate_generic_rank(structure, P, samples=SAMPLES, seed=GENERIC_SEED)
    assert estimate.n_P_ob == exact.rank_hidden


@pytest.mark.parametrize("density, seed", cases(VERDICT_FAULTS))
def test_generic_node_verdict_is_exact(density, seed):
    structure, P, i, exact = scale_case(density, seed)
    verdict = generic_node_privacy(structure, i, P, samples=SAMPLES, seed=GENERIC_SEED)
    assert verdict.generically_private == exact.private[i]


def field_element(x: float) -> int:
    """The float ``x``, a dyadic rational read exactly, as an element of GF(p)."""
    q = Fraction(x)
    return q.numerator * pow(q.denominator, -1, oracle.PRIME) % oracle.PRIME


@functools.lru_cache(maxsize=None)
def weighted_case(density: float, seed: int):
    """(system, P, i, rank, private) for one draw instantiated at
    ``sample_configuration(structure, seed=seed)``: the exact rank of O_ob
    and node i's exact verdict under P."""
    structure, P, i, _ = scale_case(density, seed)
    config = sample_configuration(structure, seed=seed)
    weights = [field_element(x) for x in config.theta.tolist()]
    args = (structure.n, structure.edges, structure.sensor_edges, weights)
    rank = oracle.exact_privacy(*args).rank_hidden
    private = oracle.exact_privacy(*args, P, (i,)).private[i]
    return instantiate(structure, config), P, i, rank, private


@pytest.mark.parametrize("density, seed", cases(WEIGHTED_RANK_FAULTS))
def test_weighted_rank_is_exact(density, seed):
    system, _, _, rank, _ = weighted_case(density, seed)
    assert privacy_index(system).rank_Oob == rank


@pytest.mark.parametrize("density, seed", cases(WEIGHTED_NODE_FAULTS))
def test_weighted_node_verdict_is_exact_or_refused(density, seed):
    # Five wrong "private" verdicts, (0.35, 5/14/16/19) and (0.15, 19), pass
    # only because the certificate check on eta refuses them today.
    system, P, i, _, private = weighted_case(density, seed)
    try:
        verdict = node_private(system, i, P)
    except ConditioningError:
        return
    assert verdict.private == private


PATH_SIZES = (40, 60, 100, 200)
#: Sizes and seed of ``bench/workloads.py``'s sensed lines, its known-fault jobs.
GENERIC_PATH_SIZES = (40, 60)
GENERIC_PATH_SEED = 7


def sensed_path(n: int) -> NetworkStructure:
    """The bidirectional path 0 - 1 - ... - (n-1), sensed at node 0."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    return NetworkStructure(n=n, m=1, edges=edges, sensor_edges=[(0, 0)])


@functools.lru_cache(maxsize=None)
def path_rank(n: int) -> int:
    """The exact rank of the all-ones sensed path's O_ob."""
    structure = sensed_path(n)
    ones = [1] * structure.n_weights
    return oracle.exact_privacy(n, structure.edges, structure.sensor_edges, ones).rank_hidden


@pytest.mark.parametrize("n", PATH_SIZES)
def test_sensed_path_is_observable(n):
    assert path_rank(n) == n


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
@pytest.mark.parametrize("n", PATH_SIZES)
def test_all_ones_path_rank_is_exact(n):
    structure = sensed_path(n)
    system = instantiate(structure, np.ones(structure.n_weights))
    assert privacy_index(system).rank_Oob == path_rank(n)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("n", GENERIC_PATH_SIZES)
def test_sensed_path_generic_rank_is_exact(n):
    estimate = estimate_generic_rank(sensed_path(n), seed=GENERIC_PATH_SEED)
    assert estimate.n_P_ob == path_rank(n)


#: Size and seed of the dense case.
DENSE_SIZE = 100
DENSE_SEED = 100


@functools.lru_cache(maxsize=None)
def dense_case():
    """(system, exact rank of O_ob) for A = G / sqrt(n), G standard normal, and C = e_1."""
    n = DENSE_SIZE
    A = np.random.default_rng(DENSE_SEED).standard_normal((n, n)) / np.sqrt(n)
    edges = [(src, dst) for src in range(n) for dst in range(n)]  # weight A[dst, src]
    weights = [field_element(float(A[dst, src])) for src, dst in edges] + [1]
    rank = oracle.exact_privacy(n, edges, [(0, 0)], weights).rank_hidden
    return LinearSystem(n=n, m=1, A=A, C=np.eye(1, n)), rank


def test_dense_case_is_observable():
    assert dense_case()[1] == DENSE_SIZE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_dense_rank_is_exact():
    system, rank = dense_case()
    assert privacy_index(system).rank_Oob == rank
