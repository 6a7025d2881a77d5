"""Exact (weight-specific) initial-value privacy tests and privacy indices.

A hidden node i is private with respect to a disclosure set P exactly when
its unit vector e_i is not a linear combination of the rows of the
observability matrix together with the published unit vectors: then two
initial states differing in x_i[0] can produce identical output statistics.
The paper states three equivalent rank tests:

  b:        rank(O_ob E_Pbar) == rank of the hidden columns excluding i
  c:        rank([O_ob; E_P^T; e_i^T]) == rank([O_ob; E_P^T]) + 1
  c_prime:  rank([O_ob; e_i^T] E_Pbar) == rank(O_ob E_Pbar) + 1

All three depend only on the null space of O_ob.  One SVD of O_ob
(``obsv.null_basis``) gives an orthonormal null basis N with k columns:
node i is private iff row N_i lies outside the row span of N_P, the ranks
above follow from rank(N_P) and rank(N_{P+i}), the whole vector is private
iff k > 0, and the privacy index is k - 1.  The exhaustive cross-check
``privacy_index_bruteforce`` enumerates disclosure sets of the support of N
only, the nodes whose row of N is nonzero, and ranks blocks of them at once
(``NullBasis.row_ranks``) rather than testing one node at a time.  Each set
is ranked once unless its first test N_{P+j} falls short of full rank:
deleting a row interlaces the singular values, so a full-rank N_{P+j}
proves N_P full rank.

Whenever the node is private, an explicit non-identifiability direction eta
(zero on P, nonzero at i, annihilated by the observability map) is attached
to the verdict as a constructive certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from ._util import integer
from .errors import ConditioningError, ValidationError
from .obsv import GUARD_FACTOR, NullBasis, build_bundle, null_basis
from .sysmodel import DisclosureSet, LinearSystem

__all__ = [
    "PrivacyVerdict",
    "IndexReport",
    "whole_vector_private",
    "node_private",
    "privacy_index",
    "privacy_index_bruteforce",
]

#: Relative residual bound for the constructive certificate eta.
ETA_RESIDUAL_RTOL = 1e-8

#: Hard cap for exhaustive disclosure-set enumeration.
BRUTEFORCE_MAX_NODES = 22

#: Disclosure sets ranked in the first stacked SVD of a level, and the cap
#: the block doubles up to.  A small first block lets a level that fails at
#: its first set stop about as early as a set-by-set scan; the cap bounds a
#: block's arrays to a few MB at n = BRUTEFORCE_MAX_NODES.
FIRST_BLOCK = 8
MAX_BLOCK = 2048

_CONDITIONS = ("b", "c", "c_prime", "all")


@dataclass(frozen=True, eq=False)
class PrivacyVerdict:
    """Outcome of one privacy test.

    ``node`` is a 0-based index, or the string "whole-vector" for the
    joint initial-value test.  ``ranks`` records the rank comparisons that
    produced the verdict; ``eta`` is the certifying direction when private.
    """

    node: Union[int, str]
    P: DisclosureSet
    private: bool
    ranks: dict
    certified_by: str
    eta: np.ndarray | None = None

    def to_dict(self, one_based: bool = False) -> dict:
        off = 1 if one_based else 0
        node = self.node if isinstance(self.node, str) else self.node + off
        out = {
            "node": node,
            "P": [p + off for p in self.P.nodes],
            "private": bool(self.private),
            "ranks": dict(self.ranks),
            "certified_by": self.certified_by,
        }
        if self.eta is not None:
            out["eta"] = [float(v) for v in self.eta]
        return out


@dataclass(frozen=True, eq=False)
class IndexReport:
    """Network privacy index: the largest disclosure size that still leaves
    some hidden node private for every disclosure set of that size."""

    index: int
    rank_Oob: int
    method: str

    @property
    def note(self) -> str | None:
        """The note "no level-0 privacy" for a negative index, else None."""
        return "no level-0 privacy" if self.index < 0 else None

    def to_dict(self) -> dict:
        out = {"index": self.index, "rank_Oob": self.rank_Oob, "method": self.method}
        if self.note is not None:
            out["note"] = self.note
        return out


def _build_eta(O_ob: np.ndarray, kern: NullBasis, i: int, P: DisclosureSet, B) -> np.ndarray:
    """Direction eta with eta_i = 1, eta = 0 on P, O_ob @ eta ~ 0.

    The orthonormal columns of B span the null directions of O_ob that vanish
    on P; projecting e_i onto them gives the shortest such eta.
    """
    eta = B @ B[i]
    eta /= eta[i]
    eta[list(P.nodes)] = 0.0
    scale = kern.norm * max(1.0, float(np.linalg.norm(eta)))
    residual = float(np.linalg.norm(O_ob @ eta))
    if not residual <= ETA_RESIDUAL_RTOL * max(scale, np.finfo(float).tiny):
        raise ConditioningError(
            f"certificate residual {residual:.3e} exceeds tolerance; "
            "rank decision is too close to the cutoff"
        )
    return eta


def _evaluate_node(O_ob, kern: NullBasis, i: int, P: DisclosureSet, condition, want_eta):
    """Node i is private iff row i of the null basis adds rank to the rows at P.

    A hidden rank is n - |rows| - k + rank(N_rows).  One null basis of N_P
    serves rank(N_P) and eta.  Conditions b, c and c_prime are identities of
    these ranks, so ``condition`` only names the certificate.
    """
    on_P = null_basis(kern.N[list(P.nodes)], kern.row_tol)
    rank_Opbar = kern.N.shape[0] - len(P) - kern.N.shape[1] + on_P.rank
    rank_minus_i = rank_Opbar - 1 + int(kern.row_ranks(np.array([P.nodes + (i,)]))[0]) - on_P.rank
    private = rank_minus_i == rank_Opbar
    eta = _build_eta(O_ob, kern, i, P, kern.N @ on_P.N) if private and want_eta else None
    return PrivacyVerdict(
        node=i,
        P=P,
        private=private,
        ranks={
            "rank_Opbar": rank_Opbar,
            "rank_minus_i": rank_minus_i,
            "rank_with_ei": rank_Opbar + private,
        },
        certified_by="b" if condition == "all" else condition,
        eta=eta,
    )


def _check_node(n: int, i: int, P) -> tuple[int, DisclosureSet]:
    """Validated node index and disclosure set for a test of node ``i`` in an n-node system."""
    P = DisclosureSet.coerce(P)
    P.validate_range(n)
    i = integer(i, "node")
    if not 0 <= i < n:
        raise ValidationError(f"node: index {i} out of range [0, {n - 1}]")
    if i in P:
        raise ValidationError(f"node: {i} is in the disclosure set; its value is already public")
    return i, P


def node_private(
    sys: LinearSystem,
    i: int,
    P: Union[DisclosureSet, Iterable[int], None] = None,
    condition: str = "all",
    rank_tol: float | None = None,
    want_eta: bool = True,
) -> PrivacyVerdict:
    """Privacy verdict for hidden node ``i`` under disclosure set ``P``.

    ``condition`` ("b", "c", "c_prime" or "all") names the rank test that
    certifies the verdict; all of them are read off one null basis of O_ob,
    so they cannot disagree.  ``rank_tol`` is the cutoff on the singular
    values of O_ob.
    """
    if condition not in _CONDITIONS:
        raise ValidationError(f"condition: expected one of {_CONDITIONS}, got {condition!r}")
    i, P = _check_node(sys.n, i, P)
    O_ob = build_bundle(sys).O_ob
    return _evaluate_node(O_ob, null_basis(O_ob, rank_tol), i, P, condition, want_eta)


def _whole_vector(kern: NullBasis) -> PrivacyVerdict:
    n = kern.N.shape[0]
    private = kern.rank < n
    return PrivacyVerdict(
        node="whole-vector",
        P=DisclosureSet(),
        private=private,
        ranks={"rank_Oob": kern.rank, "n": n},
        certified_by="prop1",
        eta=kern.N[:, -1].copy() if private else None,
    )


def whole_vector_private(sys: LinearSystem, rank_tol: float | None = None) -> PrivacyVerdict:
    """Joint test: the full initial state is non-identifiable iff O_ob drops rank."""
    return _whole_vector(null_basis(build_bundle(sys).O_ob, rank_tol))


def _index_report(kern: NullBasis) -> IndexReport:
    return IndexReport(index=kern.N.shape[1] - 1, rank_Oob=kern.rank, method="formula")


def privacy_index(sys: LinearSystem, rank_tol: float | None = None) -> IndexReport:
    """Closed-form index n - rank(O_ob) - 1.

    A negative value means no hidden node stays private even with nothing
    published (fully observable network).
    """
    return _index_report(null_basis(build_bundle(sys).O_ob, rank_tol))


def _level_holds(kern: NullBasis, n: int, level: int) -> bool:
    """True when every disclosure set of the given size of the n rows of
    ``kern.N`` (the support rows, in the brute-force scan) leaves a private node.

    Node j is private under P iff rank(N_{P+j}) = rank(N_P) + 1.  The sets
    come in blocks that start at ``FIRST_BLOCK`` and double up to
    ``MAX_BLOCK``, so a level whose first set fails stops early.

    Each set is ranked once unless its first test falls short: deleting a
    row interlaces the singular values, sigma_l(N_P) >= sigma_{l+1}(N_{P+j}),
    so a full-rank N_{P+j} proves rank(N_P) = l and j private.  Only the
    sets whose first test has rank <= l need rank(N_P).
    """
    sets = itertools.combinations(range(n), level)
    block_size = FIRST_BLOCK
    while block := list(itertools.islice(sets, block_size)):
        P = np.array(block, dtype=np.intp).reshape(len(block), level)
        hidden = np.ones((len(P), n), dtype=bool)
        hidden[np.arange(len(P))[:, None], P] = False
        hidden = np.nonzero(hidden)[1].reshape(len(P), n - level)
        base = np.full(len(P), level)
        undecided = np.arange(len(P))
        # Round r tests each undecided set's r-th hidden node, P's rows first.
        for r in range(n - level):
            rank = kern.row_ranks(np.column_stack([P[undecided], hidden[undecided, r]]))
            if r == 0:
                short = rank <= level
                base[short] = kern.row_ranks(P[short])
            undecided = undecided[rank != base[undecided] + 1]
            if not len(undecided):
                break
        else:
            return False
        block_size = min(2 * block_size, MAX_BLOCK)
    return True


def privacy_index_bruteforce(
    sys: LinearSystem, l_max: int | None = None, rank_tol: float | None = None
) -> IndexReport:
    """Exhaustive index: scan disclosure sizes upward, enumerating every set.

    Works only for small networks (n <= 22).  A node whose row of N is zero
    is never private and adds nothing to rank(N_P), so only the s support
    nodes, rows above min(``row_tol``, ``GUARD_FACTOR`` n eps), are
    enumerated: a row at or below both moves no singular value of N_P by
    more than the rank kernel's guard band, and sizes l >= s fail.  Losing
    privacy is monotone in the disclosure set, so the first failing size
    terminates the scan.  Each size's sets are ranked in blocks by
    ``NullBasis.row_ranks``, with the verdicts of the node test: a
    determinant bound proves most row subsets of the null basis full rank,
    and stacked SVDs rank the rest.

    A set whose first test N_{P+j} has full rank is ranked once; the others
    also need rank(N_P) (see :func:`_level_holds`).  The cap still admits
    scans of about 17 s, in bounded memory (a block holds at most
    ``MAX_BLOCK`` sets); on a 2-core machine:

    - n = 16 with 5 hidden states in random orthogonal coordinates: about
      5 ms.
    - n = 22 with 11 isolated nodes next to a chain of 11 measured at its
      end (k = 11): the chain's rows of N are zero, so the scan ranks the
      2,047 sets of the 11 isolated rows, in about 6 ms.
    - n = 22 with A = 0 and one sensor reading every node (rank(O_ob) = 1,
      k = 21, no zero row): every level below 21 holds, and the scan ranks
      all 4.2 M sets, each once, in about 17 s.
    """
    n = sys.n
    if n > BRUTEFORCE_MAX_NODES:
        raise ValidationError(
            f"n: brute-force enumeration capped at n <= {BRUTEFORCE_MAX_NODES}, got {n}"
        )
    l_max = n - 1 if l_max is None else min(integer(l_max, "l_max", 0), n - 1)
    kern = null_basis(build_bundle(sys).O_ob, rank_tol)
    cut = min(kern.row_tol, GUARD_FACTOR * n * np.finfo(float).eps)
    support = kern._replace(N=kern.N[np.linalg.norm(kern.N, axis=1) > cut])
    s = support.N.shape[0]
    achieved = -1
    for level in range(min(l_max, s - 1) + 1):
        if not _level_holds(support, s, level):
            break
        achieved = level
    return IndexReport(index=achieved, rank_Oob=kern.rank, method="brute_force")
