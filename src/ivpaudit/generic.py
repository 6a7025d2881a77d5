"""Generic (structure-level) privacy analysis by randomized weight sampling.

For a fixed zero pattern, rank functions of the weights are constant almost
everywhere and attain their generic value on all but a measure-zero set of
configurations.  Sampling therefore estimates the generic rank from below:
the maximum sampled rank is a lower bound that equals the generic value
with probability one.  Node verdicts run a second, freshly seeded round of
samples and look for the certifying event; observing it certifies generic
privacy outright, while never observing it indicates generic loss (correct
with probability one).

Each sample takes one SVD of its O_ob (``obsv.null_basis``).  The hidden
rank rank(O_ob E_Pbar) is (n - |P|) - (k - rank(N_P)) for the null basis N
with k columns, and the paper's three certifying conditions C1-C3 reduce to
the one identity hidden rank + [node i private] == n_P_ob + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ._util import derive_seed, integer
from .intrinsic import IndexReport, PrivacyVerdict, _check_node, node_private
from .obsv import build_bundle, null_basis
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


def _sampled_kernel(structure: NetworkStructure, seed: int, step: int, k: int, signed: bool):
    return null_basis(build_bundle(_sampled_system(structure, seed, step, k, signed)).O_ob)


def estimate_generic_rank(
    structure: NetworkStructure,
    P: Union[DisclosureSet, Iterable[int], None] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    signed: bool = False,
) -> GenericRankEstimate:
    """Maximum rank of O_ob E_Pbar over ``samples`` random configurations."""
    samples = integer(samples, "samples", 1)
    seed = integer(seed, "seed", 0)
    P = DisclosureSet.coerce(P)
    P.validate_range(structure.n)

    ranks = [
        _sampled_kernel(structure, seed, _STEP_ESTIMATE, k, signed).hidden_rank(P.nodes)
        for k in range(samples)
    ]
    best = max(ranks)
    agreement = sum(1 for r in ranks if r == best) / samples
    return GenericRankEstimate(n_P_ob=best, samples=samples, seed=seed, agreement=agreement)


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
    i, P = _check_node(structure.n, i, P)
    estimate = estimate_generic_rank(structure, P, samples=samples, seed=seed, signed=signed)

    def hit(k: int) -> bool:
        # The certifying event: C1, C2 and C3 are this one identity of ranks.
        kern = _sampled_kernel(structure, seed, _STEP_VERIFY, k, signed)
        hidden = kern.hidden_rank(P.nodes)
        private = kern.hidden_rank(P.nodes + (i,)) == hidden
        return hidden + private == estimate.n_P_ob + 1

    observed = any(hit(k) for k in range(samples))
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
    return IndexReport(index=n - estimate.n_P_ob - 1, rank_Oob=estimate.n_P_ob, method="generic")


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
