"""Observability and noise-stacking matrices, rank and null basis, column selection.

For a horizon T the stacked output of the system obeys

    Y_T = O_T x0 + H_T V_T + W_T,

where O_T stacks C, CA, ..., CA^T (so the classical observability matrix
O_ob is the T = n-1 case), V_T stacks the process noises nu_0 .. nu_{T-1},
W_T stacks the measurement noises omega_0 .. omega_T, and H_T is the lower
block-triangular Toeplitz map with block (i, j) = C A^(i-j-1) for i > j.

``build_bundle`` stacks O_T only.  H_T is m(T+1) x nT (511 MB at n = 400,
m = 1) and no verdict or privacy budget reads it (the noise covariance
follows from O_T, see ``dp``), so a bundle copies H_T out of O_T's block
rows on first read of ``bundle.H_T``.

``null_basis`` is the one rank kernel: a single SVD of O_ob gives its rank
and an orthonormal null basis N.  ``null_bases`` is the same kernel over a
stack of matrices.  Every verdict in ``intrinsic``, ``generic`` and ``sim``
is read off N: ``NullBasis.row_ranks`` ranks row subsets of one basis, and
``hidden_ranks`` ranks the columns outside a set of rows for many bases.
Both count singular values of a stack of row subsets without forming U and
Vt, and rank again with U and Vt only the matrices with a singular value
within a rounding band of the cutoff, so every count is the one
``null_basis`` would read (``_stacked_ranks``).  ``row_ranks`` first proves
full rank where it can, from a rigorous lower bound on sigma_min read off the
LU determinant of each subset's Gram matrix (``_full_rank_certified``), and
sends only the rest to the SVD: the brute-force scan ranks row subsets of
the nonzero rows of N, and nearly all of them have full rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import array, integer, real
from .errors import ConditioningError, ValidationError
from .sysmodel import DisclosureSet, LinearSystem, TimeVaryingSystem, require_lti

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

_EPS = np.finfo(float).eps


def _output_power_blocks(A: np.ndarray, C: np.ndarray, count: int) -> np.ndarray:
    """C, CA, ..., CA^(count-1) written into one (count, ..., m, n) array, with
    an overflow guard on each step; a 2-D C gives O_T by a free reshape."""
    out = np.empty((count, *C.shape))
    out[0] = C
    for k in range(1, count):
        nxt = np.matmul(out[k - 1], A, out=out[k])
        peak = float(np.abs(nxt).max(initial=0.0))
        if not np.isfinite(peak) or peak > POWER_OVERFLOW_LIMIT:
            raise ConditioningError(
                f"entries of C A^{k} exceed {POWER_OVERFLOW_LIMIT:g}; "
                "the horizon is too long for this spectral radius"
            )
    return out


def _stacked_powers(A: np.ndarray, C: np.ndarray, T: int) -> np.ndarray:
    """O_T, the blocks C A^k for k = 0 .. T stacked as one (m(T+1), n) matrix."""
    return _output_power_blocks(A, C, T + 1).reshape(-1, C.shape[-1])


def stacked_maps(A: np.ndarray, C: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """(O_T, H_T) for any horizon T >= 0.

    O_T has shape (m*(T+1), n); H_T has shape (m*(T+1), n*T) with an all-zero
    first block row.
    """
    T = integer(T, "T", 0)
    O_T = _stacked_powers(A, C, T)
    return O_T, _noise_map(O_T, T)


def _noise_map(O_T: np.ndarray, T: int) -> np.ndarray:
    """H_T copied out of the block rows of O_T: block (i, j) is block row
    i - j - 1 for i > j, so block column j is O_T's first T - j block rows."""
    rows, n = O_T.shape
    m = rows // (T + 1)
    H_T = np.zeros((rows, n * T))
    for j in range(T):
        H_T[(j + 1) * m:, j * n:(j + 1) * n] = O_T[: rows - (j + 1) * m]
    return H_T


@dataclass(frozen=True, eq=False)
class ObservabilityBundle:
    """O_ob and O_T for one system and horizon (T >= n-1).

    ``H_T`` is copied out of O_T's block rows on first read, frozen and cached.
    """

    n: int
    m: int
    T: int
    O_ob: np.ndarray
    O_T: np.ndarray

    @functools.cached_property
    def H_T(self) -> np.ndarray:
        H_T = _noise_map(self.O_T, self.T)
        H_T.flags.writeable = False
        return H_T


def _horizon(n: int, T: int | None) -> int:
    """``T`` checked as a bundle horizon for n states: default n-1, the minimum allowed."""
    T = n - 1 if T is None else integer(T, "T")
    if T < n - 1:
        raise ValidationError(f"T: horizon must be >= n-1 = {n - 1}, got {T}")
    return T


def build_bundle(sys: LinearSystem, T: int | None = None) -> ObservabilityBundle:
    """Observability bundle at horizon ``T`` (default n-1, the minimum allowed)."""
    require_lti(sys)
    n = sys.n
    T = _horizon(n, T)
    O_T = _stacked_powers(sys.A, sys.C, T)
    O_T.flags.writeable = False  # O_ob, a view, is read-only too
    return ObservabilityBundle(n=n, m=sys.m, T=T, O_ob=O_T[: sys.m * n], O_T=O_T)


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
    """Default singular-value cutoff: sigma_max * max(shape) * machine eps.

    With ``sigma_max`` given, M may also be a stack; its last two axes are
    the matrix shape, and ``sigma_max`` may be an array of one value per matrix.
    """
    if sigma_max is None:
        sigma_max = float(np.linalg.norm(M, 2)) if min(M.shape) > 0 else 0.0
    return sigma_max * max(M.shape[-2:]) * _EPS


def numerical_rank(M, tol: float | None = None) -> int:
    """Number of singular values above ``tol``.

    When ``tol`` is None the default cutoff from :func:`rank_tolerance` is
    used.  Comparisons between related matrices should pass one shared ``tol``
    computed from the largest matrix involved.
    """
    return null_basis(array(M, "matrix", None, None), tol).rank


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

    def row_ranks(self, rows: np.ndarray) -> np.ndarray:
        """rank(N[rows[s]]) for every row s of the sets x size index array ``rows``.

        A stack of two or more sets goes to the full-rank certificate first
        (:func:`_full_rank_certified`); one stacked SVD (:func:`_stacked_ranks`)
        ranks only the sets it leaves undecided, so every count is the one
        ``null_basis`` reads.  A single set, such as a node verdict, goes
        straight to the SVD.
        """
        count, size = rows.shape
        d = min(size, self.N.shape[1])
        if count == 0:
            return np.zeros(0, dtype=int)
        if count == 1 or d == 0:
            return _stacked_ranks(self.N[rows], self.row_tol)
        undecided = ~_full_rank_certified(self.N[rows], self.row_tol)
        ranks = np.full(count, d)
        if undecided.any():
            ranks[undecided] = _stacked_ranks(self.N[rows[undecided]], self.row_tol)
        return ranks


#: c in the guard band eta = c * max(rows, k) * eps * sigma_1(M) of
#: ``_stacked_ranks``.  Over 2.2 M row subsets of random and rotated
#: orthonormal bases with zero and repeated rows (n = 3-22), the singular
#: values with and without U and Vt differed by at most 3.7 max(rows, k) * eps
#: * sigma_1 (numpy 2.4, OpenBLAS); c is more than 4 times that.
GUARD_FACTOR = 16.0


def _stacked_ranks(M: np.ndarray, tol) -> np.ndarray:
    """Number of singular values above ``tol`` of each matrix in the stack M,
    equal to the rank ``null_basis(M[s], tol)`` reads.

    One stacked SVD without U and Vt gives the singular values.  That LAPACK
    path (dqds) can differ in the last bits from the one ``null_basis`` takes
    with vectors, but both are backward stable, so the two values lie within
    eta = ``GUARD_FACTOR`` * max(rows, k) * eps * sigma_1(M[s]) of each other
    and fall on the same side of any cutoff more than eta away.  A matrix
    with a singular value within eta of its cutoff is ranked again with the
    ``full_matrices`` flag of ``null_basis``, whose values the count then
    reads.  ``tol`` is a scalar or one cutoff per matrix.

    ``hidden_ranks`` sends every stack here; ``NullBasis.row_ranks`` sends
    only the matrices that :func:`_full_rank_certified` leaves undecided.
    """
    count, rows, k = M.shape
    if rows == 0 or k == 0:
        return np.zeros(count, dtype=int)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (count,))[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    ranks = (s > tol).sum(axis=-1)
    eta = GUARD_FACTOR * rank_tolerance(M, s[:, :1])
    near = (np.abs(s - tol) <= eta).any(axis=-1)
    if near.any():
        s = np.linalg.svd(M[near], full_matrices=rows < k)[1]
        ranks[near] = (s > tol[near]).sum(axis=-1)
    return ranks


#: Relative slack on each term of the bound of ``_full_rank_certified``.  A
#: term takes a few dozen rounded operations on positive numbers, and the
#: exponent of its exp is below 1500 d in magnitude, so the term's own
#: rounding stays under 1e-6 of it for any d below 1000.
_CERT_SLACK = 2.0**-20

#: ||M||_F^2 range of the matrices ``_full_rank_certified`` bounds; outside
#: it no intermediate can overflow, and gradual underflow (an absolute error
#: of at most 2^-1074 per operation) stays far below u times every term.
_CERT_SCALE = 2.0**400


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u) for the unit roundoff u = eps / 2."""
    return n * (_EPS / 2) / (1 - n * (_EPS / 2))


def _full_rank_certified(M: np.ndarray, tol: float) -> np.ndarray:
    """True for each rows x k matrix of the stack M that provably has all
    d = min(rows, k) singular values above tol + eta, where eta =
    ``GUARD_FACTOR`` * max(rows, k) * eps * ||M||_F is the guard band of
    :func:`_stacked_ranks` (||M||_F >= sigma_1).  Both SVD paths are
    backward stable and move a singular value by well under eta (the
    measurement behind ``GUARD_FACTOR``), so both count d.  False decides
    nothing: the caller ranks those matrices by SVD.

    Let B be the Gram matrix on the smaller side, M M^T when rows <= k, else
    M^T M (d x d), so sigma_min(M)^2 = sigma_min(B).  With the unit roundoff
    u, gamma_n = n u / (1 - n u), p = max(rows, k) and the theorems of
    Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed., 2002):

    1. Gram rounding.  The computed B^ = B + E with |E| <= gamma_p |M| |M|^T
       (section 3.5; |M|^T |M| for M^T M), so ||E||_2 <= e_G = gamma_p ||M||_F^2.
    2. LU.  ``slogdet`` factors B^ by LU with partial pivoting, L^ U^ =
       Pi (B^ + F) with |F| <= gamma_d |Pi^T L^| |U^| (Thm 9.3), |l_ij| <= 1
       and |u_ij| <= 2^(d-1) beta, beta = max |b^_ij| (growth <= 2^(d-1)).
       Every entry of F is at most gamma_d d 2^(d-1) beta, so ||F||_2 <=
       e_LU = gamma_d d^2 2^(d-1) beta.
    3. Pivot product.  X = B^ + F has |det X| = prod |u_ii|, and ``slogdet``
       returns l^, the rounded sum of the rounded logs |u_ii| (each within one
       ulp), so |l^ - log |det X|| <= gamma_(d+2) sum |log |u_ii||.  As
       log |u_ii| <= Lam = d log 2 + log beta (a factor 2 to spare for the
       rounding of the growth), that sum is at most
       2 d max(Lam, 0) - log |det X|, hence |l^ - log |det X|| <= delta =
       gamma_(d+2) (2 d max(Lam, 0) - l^) / (1 - gamma_(d+2)).

    Since |det X| <= sigma_min(X) sigma_max(X)^(d-1) and sigma_max(X) <=
    s = sqrt(||B^||_1) sqrt(||B^||_inf) + e_LU,

        sigma_min(X) >= exp(l^ - delta - (d - 1) log s),

    and Weyl's inequality gives sigma_min(B) >= sigma_min(X) - e_LU - e_G.
    Each term is shrunk or grown by ``_CERT_SLACK`` against the rounding of
    its own evaluation.  Only matrices with ||M||_F^2 within a factor
    ``_CERT_SCALE`` of 1 are bounded; the others, like exactly singular ones
    (l^ = -inf), are not certified.
    """
    count, rows, k = M.shape
    d, p = min(rows, k), max(rows, k)
    fro2 = np.einsum("sij,sij->s", M, M)
    B = M @ M.transpose(0, 2, 1) if rows <= k else M.transpose(0, 2, 1) @ M
    logdet = np.linalg.slogdet(B)[1]
    absB = np.abs(B, out=B)  # B is no longer read: one d x d stack less
    beta = absB.max(axis=(1, 2))
    scaled = (fro2 >= 1 / _CERT_SCALE) & (fro2 <= _CERT_SCALE)
    beta[~scaled] = 1.0  # keeps the logs finite; these are not certified
    e_LU = _gamma(d) * d * d * 2.0 ** (d - 1) * beta
    s = np.sqrt(absB.sum(axis=1).max(axis=1)) * np.sqrt(absB.sum(axis=2).max(axis=1))
    s = (s + e_LU) * (1 + _CERT_SLACK)
    g = _gamma(d + 2)
    lam = d * np.log(2.0) + np.log(beta)
    delta = g * (2 * d * np.maximum(lam, 0.0) - logdet) / (1 - g) * (1 + _CERT_SLACK)
    low = np.exp(logdet - delta - (d - 1) * np.log(s)) * (1 - _CERT_SLACK)
    low -= (e_LU + _gamma(p) * fro2) * (1 + _CERT_SLACK)
    low = np.sqrt(np.maximum(low, 0.0))
    eta = GUARD_FACTOR * rank_tolerance(M, np.sqrt(fro2))
    return scaled & (low * (1 - _CERT_SLACK) > (tol + eta) * (1 + _CERT_SLACK))


def hidden_ranks(kernels: list[NullBasis], rows) -> list[int]:
    """Rank of the columns of M outside ``rows``, n - |rows| - k + rank(N_rows),
    for every kernel, from one stacked SVD of the rows of N per shape n x k:
    each group's bases are stacked once and the stack is indexed once."""
    out = [0] * len(kernels)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for j, kern in enumerate(kernels):
        by_shape.setdefault(kern.N.shape, []).append(j)
    rows = np.fromiter(rows, dtype=np.intp)
    for (n, k), group in by_shape.items():
        N_rows = np.stack([kernels[j].N for j in group])[:, rows]
        ranks = _stacked_ranks(N_rows, [kernels[j].row_tol for j in group])
        for j, r in zip(group, ranks.tolist()):
            out[j] = n - len(rows) - k + r
    return out


def null_bases(M: np.ndarray, tol: float | None = None) -> list[NullBasis]:
    """:func:`null_basis` of every matrix in the count x rows x n stack M from
    one stacked SVD; cutoffs, ranks and norms are read for the whole stack at
    once, with the cutoffs of a one-matrix call."""
    count, rows, n = M.shape
    if min(rows, n) == 0:
        s, Vt = np.zeros((count, 0)), np.tile(np.eye(n), (count, 1, 1))
        norm = np.zeros(count)
    else:
        _, s, Vt = np.linalg.svd(M, full_matrices=rows < n)
        norm = s[:, 0]
    cut = rank_tolerance(M, norm) if tol is None else np.full(count, float(tol))
    rank = np.count_nonzero(s > cut[:, None], axis=1)
    out = []
    for s_j, Vt_j, r, c, norm_j in zip(s, Vt, rank.tolist(), cut.tolist(), norm.tolist()):
        row_tol = min(ROW_TOL_FACTOR * c / float(s_j[r - 1]), 0.5) if r else 0.0
        out.append(NullBasis(rank=r, N=Vt_j[r:].T, tol=c, row_tol=row_tol, norm=norm_j))
    return out


def null_basis(M: np.ndarray, tol: float | None = None) -> NullBasis:
    """Rank and null basis of M from one SVD; ``tol`` defaults to :func:`rank_tolerance`.

    An explicit ``tol`` must be finite and >= 0 (0 counts every nonzero
    singular value).
    """
    if tol is not None and real(tol, "rank tolerance") < 0:
        raise ValidationError(f"rank tolerance: must be >= 0, got {tol!r}")
    return null_bases(M[np.newaxis], tol)[0]


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
    """Columns of ``M`` at the published ("public") or hidden ("unpublic") nodes;
    only the columns returned must be finite."""
    M = array(M, "matrix", None, selector.n, finite=False)
    if which == "public":
        nodes = selector.P.nodes
    elif which == "unpublic":
        nodes = selector.P.complement(selector.n)
    else:
        raise ValidationError(f"which: expected 'public' or 'unpublic', got {which!r}")
    return array(M[:, list(nodes)], "matrix", None, None)
