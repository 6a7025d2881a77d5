"""Generic (structure-level) privacy analysis by randomized weight sampling.

For a fixed zero pattern, rank functions of the weights are constant almost
everywhere and attain their generic value on all but a measure-zero set of
configurations.  Sampling therefore estimates the generic rank from below:
the maximum sampled rank is a lower bound that equals the generic value
with probability one.  Node verdicts run a second, freshly seeded round of
samples and look for the event that any of three equivalent rank conditions
holds; observing the event certifies generic privacy outright, while never
observing it indicates generic loss (correct with probability one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from ._util import derive_seed, pmap
from .errors import ConditioningError, ValidationError
from .intrinsic import IndexReport, PrivacyVerdict, node_private
from .obsv import Selector, build_bundle
from .sysmodel import (
    Configuration,
    DisclosureSet,
    NetworkStructure,
    instantiate,
    sample_configuration,
)

__all__ = [
    "GenericRankEstimate",
    "GenericVerdict",
    "DichotomyReport",
    "estimate_generic_rank",
    "generic_node_privacy",
    "generic_privacy_index",
    "dichotomy_report",
]

DEFAULT_SAMPLES = 8

_STEP_ESTIMATE = 0
_STEP_VERIFY = 1


@dataclass(frozen=True, eq=False)
class GenericRankEstimate:
    """Sampled generic rank of the hidden observability columns.

    ``agreement`` is the fraction of samples attaining the maximum; values
    below 1.0 are legal but indicate an unusually thin structure.
    """

    n_P_ob: int
    samples: int
    seed: int
    agreement: float

    def to_dict(self) -> dict:
        return {
            "n_P_ob": self.n_P_ob,
            "samples": self.samples,
            "seed": self.seed,
            "agreement": self.agreement,
        }


@dataclass(frozen=True, eq=False)
class GenericVerdict:
    """Two-step generic privacy verdict for one node and disclosure set."""

    node: int
    P: DisclosureSet
    generically_private: bool
    event_E_observed: bool
    condition_hit: tuple
    estimate: GenericRankEstimate

    def to_dict(self, one_based: bool = False) -> dict:
        off = 1 if one_based else 0
        return {
            "node": self.node + off,
            "P": [p + off for p in self.P.nodes],
            "generically_private": bool(self.generically_private),
            "event_E_observed": bool(self.event_E_observed),
            "condition_hit": list(self.condition_hit),
            "estimate": self.estimate.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class DichotomyReport:
    """Generic verdict next to the exact verdict at one explicit configuration.

    ``exception_surface_hit`` marks configurations sitting on the
    measure-zero set where the weight-specific answer deviates from the
    generic one."""

    node: int
    P: DisclosureSet
    generic: GenericVerdict
    exact: PrivacyVerdict
    agree: bool
    exception_surface_hit: bool

    def to_dict(self, one_based: bool = False) -> dict:
        off = 1 if one_based else 0
        return {
            "node": self.node + off,
            "P": [p + off for p in self.P.nodes],
            "generic": self.generic.to_dict(one_based),
            "exact": self.exact.to_dict(one_based),
            "agree": bool(self.agree),
            "exception_surface_hit": bool(self.exception_surface_hit),
        }


def _sampled_system(structure: NetworkStructure, seed: int, step: int, k: int, signed: bool):
    config = sample_configuration(structure, derive_seed(seed, step, k), signed=signed)
    return instantiate(structure, config)


def _hidden_rank(structure: NetworkStructure, P: DisclosureSet, sys) -> int:
    O_ob = build_bundle(sys).O_ob
    sel = Selector.for_nodes(structure.n, P)
    M = O_ob @ sel.E_Pbar
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    tol = float(s[0]) * max(M.shape) * np.finfo(float).eps
    return int(np.count_nonzero(s > tol))


def estimate_generic_rank(
    structure: NetworkStructure,
    P: Union[DisclosureSet, Iterable[int], None] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    signed: bool = False,
) -> GenericRankEstimate:
    """Maximum rank of O_ob E_Pbar over ``samples`` random configurations."""
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValidationError(f"samples: must be an integer >= 1, got {samples!r}")
    P = DisclosureSet.coerce(P)
    P.validate_range(structure.n)

    def one(k: int) -> int:
        return _hidden_rank(structure, P, _sampled_system(structure, seed, _STEP_ESTIMATE, k, signed))

    ranks = pmap(one, range(samples))
    best = max(ranks)
    agreement = sum(1 for r in ranks if r == best) / samples
    return GenericRankEstimate(n_P_ob=best, samples=int(samples), seed=int(seed), agreement=agreement)


def _conditions_at(sys, n: int, i: int, P: DisclosureSet, n_P_ob: int) -> bool:
    """Evaluate the three equivalent certifying conditions at one sample."""
    O_ob = build_bundle(sys).O_ob
    sel = Selector.for_nodes(n, P)
    unpub = list(sel.P.complement(n))
    others = [j for j in unpub if j != i]
    e_i = np.zeros((1, n))
    e_i[0, i] = 1.0
    full = np.vstack([O_ob, sel.E_P.T, e_i])
    s_full = np.linalg.svd(full, compute_uv=False)
    tol = float(s_full[0]) * max(full.shape) * np.finfo(float).eps if s_full.size else 0.0

    def rank_at(M: np.ndarray) -> int:
        if min(M.shape) == 0:
            return 0
        return int(np.count_nonzero(np.linalg.svd(M, compute_uv=False) > tol))

    c1 = rank_at(np.vstack([O_ob, e_i])[:, unpub]) == n_P_ob + 1
    c2 = rank_at(O_ob[:, others]) == n_P_ob
    c3 = int(np.count_nonzero(s_full > tol)) == n_P_ob + len(P) + 1
    if not c1 == c2 == c3:
        raise ConditioningError(
            f"certifying conditions disagree at a sample (C1={c1}, C2={c2}, C3={c3}); "
            "rank tolerance breakdown"
        )
    return c1


def generic_node_privacy(
    structure: NetworkStructure,
    i: int,
    P: Union[DisclosureSet, Iterable[int], None] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    signed: bool = False,
) -> GenericVerdict:
    """Generic privacy of node ``i`` under disclosure ``P``.

    Step 1 estimates the generic hidden rank; step 2 draws fresh
    configurations and watches for the certifying event.  An observed event
    proves generic privacy; an unobserved event indicates generic loss.
    """
    P = DisclosureSet.coerce(P)
    P.validate_range(structure.n)
    if not 0 <= i < structure.n:
        raise ValidationError(f"node: index {i} out of range [0, {structure.n - 1}]")
    if i in P:
        raise ValidationError(f"node: {i} is in the disclosure set")
    estimate = estimate_generic_rank(structure, P, samples=samples, seed=seed, signed=signed)

    def one(k: int) -> bool:
        sys = _sampled_system(structure, seed, _STEP_VERIFY, k, signed)
        return _conditions_at(sys, structure.n, i, P, estimate.n_P_ob)

    hits = pmap(one, range(samples))
    observed = any(hits)
    return GenericVerdict(
        node=i,
        P=P,
        generically_private=observed,
        event_E_observed=observed,
        condition_hit=("C1", "C2", "C3") if observed else (),
        estimate=estimate,
    )


def generic_privacy_index(
    structure: NetworkStructure,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    signed: bool = False,
) -> IndexReport:
    """Generic index n - n_ob_g - 1, with n_ob_g the sampled generic rank of O_ob."""
    estimate = estimate_generic_rank(structure, None, samples=samples, seed=seed, signed=signed)
    return _index_report(structure.n, estimate)


def _index_report(n: int, estimate: GenericRankEstimate) -> IndexReport:
    """Generic index report for an n-node structure from its rank estimate with P empty."""
    index = n - estimate.n_P_ob - 1
    note = "no level-0 privacy" if index < 0 else None
    return IndexReport(index=index, rank_Oob=estimate.n_P_ob, method="generic", note=note)


def dichotomy_report(
    structure: NetworkStructure,
    i: int,
    P: Union[DisclosureSet, Iterable[int], None],
    special_theta: Union[Configuration, Sequence[float]],
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    signed: bool = False,
) -> DichotomyReport:
    """Generic verdict side by side with the exact verdict at ``special_theta``."""
    P = DisclosureSet.coerce(P)
    generic = generic_node_privacy(structure, i, P, samples=samples, seed=seed, signed=signed)
    sys = instantiate(structure, special_theta)
    exact = node_private(sys, i, P, condition="all")
    agree = generic.generically_private == exact.private
    return DichotomyReport(
        node=i,
        P=P,
        generic=generic,
        exact=exact,
        agree=agree,
        exception_surface_hit=not agree,
    )
