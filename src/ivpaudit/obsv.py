"""Observability and noise-stacking matrices, rank and null basis, column selection.

For a horizon T the stacked output of the system obeys

    Y_T = O_T x0 + H_T V_T + W_T,

where O_T stacks C, CA, ..., CA^T (so the classical observability matrix
O_ob is the T = n-1 case), V_T stacks the process noises nu_0 .. nu_{T-1},
W_T stacks the measurement noises omega_0 .. omega_T, and H_T is the lower
block-triangular Toeplitz map with block (i, j) = C A^(i-j-1) for i > j.

``build_bundle`` stacks O_T only.  H_T is m(T+1) x nT (511 MB at n = 400,
m = 1) and no verdict or privacy budget reads it (the noise covariance
follows from O_T, see ``dp``), so a bundle builds H_T on first read of
``bundle.H_T``.

``null_basis`` is the one rank kernel: a single SVD of O_ob gives its rank
and an orthonormal null basis N, and every verdict in ``intrinsic``,
``generic`` and ``sim`` is read off N (see ``NullBasis``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import integer, real
from .errors import ConditioningError, ValidationError
from .sysmodel import DisclosureSet, LinearSystem, TimeVaryingSystem

__all__ = [
    "ObservabilityBundle",
    "Selector",
    "build_bundle",
    "build_tv_observability",
    "numerical_rank",
    "rank_tolerance",
    "select_columns",
]

#: Magnitude guard for matrix powers; beyond this the horizon is declared
#: ill-conditioned rather than silently overflowing.
POWER_OVERFLOW_LIMIT = 1e150


def _output_power_blocks(A: np.ndarray, C: np.ndarray, count: int) -> list[np.ndarray]:
    """[C, CA, ..., CA^(count-1)] with an overflow guard on each step."""
    blocks = [C]
    for k in range(1, count):
        nxt = blocks[-1] @ A
        peak = float(np.abs(nxt).max(initial=0.0))
        if not np.isfinite(peak) or peak > POWER_OVERFLOW_LIMIT:
            raise ConditioningError(
                f"entries of C A^{k} exceed {POWER_OVERFLOW_LIMIT:g}; "
                "the horizon is too long for this spectral radius"
            )
        blocks.append(nxt)
    return blocks


def stacked_maps(A: np.ndarray, C: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """(O_T, H_T) for any horizon T >= 0.

    O_T has shape (m*(T+1), n); H_T has shape (m*(T+1), n*T) with an all-zero
    first block row.
    """
    T = integer(T, "T", 0)
    n = A.shape[0]
    m = C.shape[0]
    blocks = _output_power_blocks(A, C, T + 1)
    O_T = np.vstack(blocks)
    H_T = np.zeros((m * (T + 1), n * T))
    for i in range(1, T + 1):
        for j in range(i):
            H_T[i * m:(i + 1) * m, j * n:(j + 1) * n] = blocks[i - j - 1]
    return O_T, H_T


@dataclass(frozen=True, eq=False)
class ObservabilityBundle:
    """O_ob and O_T for one system and horizon (T >= n-1).

    ``H_T`` is built from ``A`` and ``C`` on first read, frozen and cached.
    """

    n: int
    m: int
    T: int
    A: np.ndarray
    C: np.ndarray
    O_ob: np.ndarray
    O_T: np.ndarray

    @functools.cached_property
    def H_T(self) -> np.ndarray:
        H_T = stacked_maps(self.A, self.C, self.T)[1]
        H_T.flags.writeable = False
        return H_T


def build_bundle(sys: LinearSystem, T: int | None = None) -> ObservabilityBundle:
    """Observability bundle at horizon ``T`` (default n-1, the minimum allowed)."""
    n = sys.n
    T = n - 1 if T is None else integer(T, "T")
    if T < n - 1:
        raise ValidationError(f"T: horizon must be >= n-1 = {n - 1}, got {T}")
    O_T = np.vstack(_output_power_blocks(sys.A, sys.C, T + 1))
    O_ob = O_T[: sys.m * n, :]
    for M in (O_ob, O_T):
        M.flags.writeable = False
    return ObservabilityBundle(n=n, m=sys.m, T=T, A=sys.A, C=sys.C, O_ob=O_ob, O_T=O_T)


def build_tv_observability(sys: TimeVaryingSystem, T: int | None = None) -> np.ndarray:
    """Stacked time-varying observability map.

    Block row t is C_t A_{t-1} ... A_0 (block row 0 is C_0).  For constant
    sequences this reproduces O_T of the time-invariant system exactly.
    """
    T = sys.T if T is None else integer(T, "T", 0)
    if T > sys.T:
        raise ValidationError(f"T: sequences cover horizon {sys.T}, got {T}")
    rows = [sys.C_seq[0]]
    prod = np.eye(sys.n)
    for t in range(1, T + 1):
        prod = sys.A_seq[t - 1] @ prod
        peak = float(np.abs(prod).max(initial=0.0))
        if not np.isfinite(peak) or peak > POWER_OVERFLOW_LIMIT:
            raise ConditioningError(
                f"entries of the transition product at step {t} exceed {POWER_OVERFLOW_LIMIT:g}"
            )
        rows.append(sys.C_seq[t] @ prod)
    out = np.vstack(rows)
    out.flags.writeable = False
    return out


def rank_tolerance(M: np.ndarray, sigma_max: float | None = None) -> float:
    """Default singular-value cutoff: sigma_max * max(shape) * machine eps."""
    if sigma_max is None:
        sigma_max = float(np.linalg.norm(M, 2)) if min(M.shape) > 0 else 0.0
    return sigma_max * max(M.shape) * np.finfo(float).eps


def numerical_rank(M, tol: float | None = None) -> int:
    """Number of singular values above ``tol``.

    When ``tol`` is None the default cutoff from :func:`rank_tolerance` is
    used.  Comparisons between related matrices should pass one shared ``tol``
    computed from the largest matrix involved.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"matrix: expected 2-D, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError("matrix: entries must be finite")
    return null_basis(M, tol).rank


#: c in the row cutoff c * tol / sigma_r of ``null_basis``.  A null basis
#: computed with backward error ``tol`` is accurate to about tol / sigma_r
#: (Wedin's sin-theta bound, BIT 12, 1972), so smaller row entries are
#: rounding.  On 24,000 random (system, node, P) cases at n <= 14, every c
#: from 1 to 1e4 gave the verdicts and ranks of separate SVDs of the
#: hidden-column matrices; c = 1 reads a 1e-15 entry of N as a private node
#: in ``tests/test_intrinsic.py``.  Row subsets of N have singular values in
#: [0, 1], so the cutoff stops at 1/2, where the bound no longer says anything.
ROW_TOL_FACTOR = 16.0


class NullBasis(NamedTuple):
    """Rank r of M (rows x n) and an orthonormal basis N (n x k) of its null space.

    ``tol`` is the cutoff on the singular values of M, ``row_tol`` the cutoff
    on singular values of row subsets of N, and ``norm`` is sigma_1(M).
    """

    rank: int
    N: np.ndarray
    tol: float
    row_tol: float
    norm: float

    def hidden_rank(self, rows) -> int:
        """Rank of the columns of M outside ``rows``: n - |rows| minus the
        k - rank(N_rows) null directions that vanish on ``rows``."""
        n, k = self.N.shape
        return n - len(rows) - k + null_basis(self.N[list(rows)], self.row_tol).rank

    def vanishing_on(self, rows) -> np.ndarray:
        """Orthonormal basis of the null vectors of M that are zero at ``rows``."""
        return self.N @ null_basis(self.N[list(rows)], self.row_tol).N


def null_basis(M: np.ndarray, tol: float | None = None) -> NullBasis:
    """Rank and null basis of M from one SVD; ``tol`` defaults to :func:`rank_tolerance`.

    An explicit ``tol`` must be finite and >= 0 (0 counts every nonzero
    singular value).
    """
    if tol is not None and real(tol, "rank tolerance") < 0:
        raise ValidationError(f"rank tolerance: must be >= 0, got {tol!r}")
    n = M.shape[1]
    if min(M.shape) == 0:
        s, Vt = np.zeros(0), np.eye(n)
    else:
        _, s, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < n)
    norm = float(s[0]) if s.size else 0.0
    if tol is None:
        tol = rank_tolerance(M, norm)
    rank = int(np.count_nonzero(s > tol))
    row_tol = min(ROW_TOL_FACTOR * tol / float(s[rank - 1]), 0.5) if rank else 0.0
    return NullBasis(rank=rank, N=Vt[rank:].T, tol=float(tol), row_tol=row_tol, norm=norm)


@dataclass(frozen=True, eq=False)
class Selector:
    """Column selectors for a disclosure set over n nodes.

    ``E_P`` stacks the unit columns of the published nodes (in set order);
    ``E_Pbar`` stacks the remaining columns in increasing index order.
    """

    n: int
    P: DisclosureSet
    E_P: np.ndarray
    E_Pbar: np.ndarray

    @classmethod
    def for_nodes(cls, n: int, P) -> "Selector":
        P = DisclosureSet.coerce(P)
        P.validate_range(n)
        eye = np.eye(n)
        E_P = eye[:, list(P.nodes)] if len(P) else np.zeros((n, 0))
        E_Pbar = eye[:, list(P.complement(n))]
        E_P.flags.writeable = False
        E_Pbar.flags.writeable = False
        return cls(n=n, P=P, E_P=E_P, E_Pbar=E_Pbar)


def select_columns(M, selector: Selector, which: str = "unpublic") -> np.ndarray:
    """Columns of ``M`` at the published ("public") or hidden ("unpublic") nodes."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] != selector.n:
        raise ValidationError(
            f"matrix: expected {selector.n} columns to match the selector, got shape {M.shape}"
        )
    if which == "public":
        return M[:, list(selector.P.nodes)]
    if which == "unpublic":
        return M[:, list(selector.P.complement(selector.n))]
    raise ValidationError(f"which: expected 'public' or 'unpublic', got {which!r}")
