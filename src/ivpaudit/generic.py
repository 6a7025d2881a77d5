"""Generic (structure-level) privacy analysis by randomized weight sampling.

For a fixed zero pattern, rank functions of the weights are constant almost
everywhere and attain their generic value on all but a measure-zero set of
configurations.  Sampling therefore estimates the generic rank from below:
the maximum sampled rank is a lower bound that equals the generic value
with probability one.  Node verdicts run a second, freshly seeded round of
samples and look for the certifying event; observing it certifies generic
privacy outright, while never observing it indicates generic loss (correct
with probability one).

Each round draws its weights from one generator keyed by (seed, round): row
k of its ``uniform`` draw of shape (samples, n_weights) is sample k, and the
rows are read block by block from the one generator, so they do not depend
on the block size, and ``samples`` = 4 reads the first 4 rows of ``samples``
= 8.  One independent continuous draw per sample is all the probability-one
argument needs (Schwartz 1980; Zippel 1979).

A round's samples are ranked as one stack: their weight vectors fill a stack
of A and C in one scatter, batched products build the stack of O_ob, and one
stacked SVD gives every sample's null basis N through the read-off of
``obsv.null_basis``, so each verdict is the one a separate SVD per sample
would give.  Stacks are cut into blocks of at most ``BLOCK_BYTES``, and a
node verdict ranks its estimate and verify rounds in the same stack; the
verify round checks every sample.  The hidden rank rank(O_ob E_Pbar) is
(n - |P|) - (k - rank(N_P)) for N with k columns, taken in one stacked SVD
of the rows N_P per value of k (``obsv.hidden_ranks``), and the paper's three
certifying conditions C1-C3 reduce to the one identity hidden rank + [node i
private] == n_P_ob + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from ._util import derive_seed, integer
from .intrinsic import IndexReport, PrivacyVerdict, _checked, node_private
from .obsv import NullBasis, _output_power_blocks, hidden_ranks, null_bases
from .sysmodel import (
    Configuration,
    DisclosureSet,
    NetworkStructure,
    fill_weights,
    instantiate,
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

#: Bytes that one block of samples may hold (see ``_sample_bytes``), so that
#: memory does not grow with ``samples``.  Larger blocks gain little speed and
#: raise the peak RSS.
BLOCK_BYTES = 2**19

#: Bytes of the Python objects each sample of a block keeps while the block
#: is ranked: its ``NullBasis`` tuple, the view N, three floats and its draw
#: (step, k).  Traced, they came to 574 bytes per sample at n = 1 (numpy 2.4).
SAMPLE_OBJECT_BYTES = 640

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


def _sampled_system(structure: NetworkStructure, rng: np.random.Generator, rows: int, signed: bool):
    """The next ``rows`` weight vectors of a round's generator ``rng``.

    Row k of a round is sample k: uniform on [0, 1] per weight, or on [-1, 1]
    with ``signed``.  ``Generator.uniform`` reads one 64-bit word per value,
    so the rows do not depend on how a round is cut into blocks.
    """
    return rng.uniform(-1.0 if signed else 0.0, 1.0, size=(rows, structure.n_weights))


def _sample_bytes(structure: NetworkStructure) -> int:
    """Upper bound on the bytes one sample holds in a block: the arrays A, the
    powers C A^k and O_ob, and the U and Vt of its SVD, and the Python
    objects of its null basis and draw."""
    n, m = structure.n, structure.m
    return 8 * n * (n + 1) * (3 * m + 2) + SAMPLE_OBJECT_BYTES


def _kernel_blocks(
    structure: NetworkStructure, seed: int, signed: bool, rounds: Sequence[int], samples: int
) -> Iterator[tuple[list[tuple[int, int]], list[NullBasis]]]:
    """(draws, null bases of O_ob) block by block for ``samples`` samples of each round.

    A draw is a (step, k) pair: sample k of round ``step``, read from the
    generator keyed by (seed, step), in round order.  A block holds as many
    samples as fit in ``BLOCK_BYTES``; only the current block's draws are
    listed.  Its A and C are filled in one scatter, its O_ob stack is built
    by batched products and read through one stacked SVD
    (``obsv.null_bases``), so each null basis equals ``null_basis`` of that
    sample's own O_ob.  A power past the magnitude limit raises
    ``ConditioningError`` naming the earliest k over the block's samples.
    """
    draws = ((step, k) for step in rounds for k in range(samples))
    rngs = {step: np.random.default_rng(derive_seed(seed, step)) for step in rounds}
    per_block = max(1, BLOCK_BYTES // _sample_bytes(structure))
    while block := list(itertools.islice(draws, per_block)):
        theta = np.concatenate([
            _sampled_system(structure, rngs[step], len(list(run)), signed)
            for step, run in itertools.groupby(block, key=lambda draw: draw[0])
        ])
        # One expression, so that A, the power blocks and O_ob are freed once read;
        # the blocks come as (n, samples, m, n) and O_ob as (samples, mn, n).
        yield block, null_bases(
            _output_power_blocks(*fill_weights(structure, theta), structure.n)
            .swapaxes(0, 1).reshape(len(theta), -1, structure.n)
        )


def _fold(best: int, count: int, hidden: list[int]) -> tuple[int, int]:
    """The running (maximum, samples at the maximum) of a round's hidden ranks
    after one more block of them."""
    top = max([best, *hidden])
    return top, hidden.count(top) + (count if top == best else 0)


def estimate_generic_rank(
    structure: NetworkStructure,
    P: Union[DisclosureSet, Iterable[int], None] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    signed: bool = False,
) -> GenericRankEstimate:
    """Maximum rank of O_ob E_Pbar over ``samples`` random configurations.

    A power C A^k past the magnitude limit raises ``ConditioningError``
    naming the earliest k over a block of samples (``_kernel_blocks``).
    """
    samples = integer(samples, "samples", 1)
    seed = integer(seed, "seed", 0)
    P = DisclosureSet.coerce(P, structure.n)

    best, count = -1, 0
    for _, kernels in _kernel_blocks(structure, seed, signed, (_STEP_ESTIMATE,), samples):
        best, count = _fold(best, count, hidden_ranks(kernels, P.nodes))
    return GenericRankEstimate(n_P_ob=best, samples=samples, seed=seed, agreement=count / samples)


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
    proves generic privacy; an unobserved event indicates generic loss.  Both
    rounds are ranked in one stack, and step 2 checks all of its samples.
    Each block is folded into the estimate and the event as it is ranked: its
    step-1 samples come first, and every step-1 sample precedes every step-2
    one, so the estimate is final before any step-2 sample is read.
    Powers past the magnitude limit raise as in ``estimate_generic_rank``.
    """
    (i,), P = _checked(structure.n, (i,), P)
    samples = integer(samples, "samples", 1)
    seed = integer(seed, "seed", 0)

    best, count, observed = -1, 0, False
    rounds = (_STEP_ESTIMATE, _STEP_VERIFY)
    for block, kernels in _kernel_blocks(structure, seed, signed, rounds, samples):
        hidden = hidden_ranks(kernels, P.nodes)
        split = sum(step == _STEP_ESTIMATE for step, _ in block)
        best, count = _fold(best, count, hidden[:split])
        hidden_i = hidden_ranks(kernels[split:], P.nodes + (i,))
        # The certifying event: C1, C2 and C3 are this one identity of ranks.
        observed = observed or any(
            h + (h_i == h) == best + 1 for h, h_i in zip(hidden[split:], hidden_i)
        )
    estimate = GenericRankEstimate(n_P_ob=best, samples=samples, seed=seed, agreement=count / samples)
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
