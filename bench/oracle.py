"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ivpaudit.  Every expected value comes from one of:

* exact arithmetic: ranks over the prime field GF(2^61 - 1) for generic
  (structure-level) questions and over the rationals for explicit integer
  weights;
* closed forms of the rotated permutation construction used by the audit
  workload, whose observable and unobservable subspaces are known exactly;
* the state-covariance recursion P[t+1] = A P[t] A^T + Sigma_nu, which gives
  the output covariance without forming the noise-stacking map H_T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

#: Field for generic ranks.  A rank drop at one uniformly drawn instance has
#: probability at most deg/p (Schwartz-Zippel) with deg <= n*n here, about
#: 1.6e-15 for n = 60.
PRIME = (1 << 61) - 1

_STD = NormalDist()


# ---------------------------------------------------------------------------
# Exact ranks
# ---------------------------------------------------------------------------


class Echelon:
    """Reduced row-echelon basis over GF(prime), or over the rationals when
    ``prime`` is None, grown one row at a time."""

    def __init__(self, prime: int | None = PRIME):
        self.prime = prime
        self.rows: dict[int, list] = {}  # pivot column -> row with a 1 there

    def _fix(self, x):
        return x % self.prime if self.prime else x

    def _minus(self, row: list, f, basis: list) -> list:
        return [self._fix(x - f * b) for x, b in zip(row, basis)]

    def reduce(self, row: list) -> list:
        for col, basis in self.rows.items():
            if row[col]:
                row = self._minus(row, row[col], basis)
        return row

    def add(self, row: list) -> bool:
        """Insert ``row``; True when it was independent of the basis."""
        row = self.reduce(row)
        col = next((k for k, x in enumerate(row) if x), None)
        if col is None:
            return False
        inv = pow(row[col], -1, self.prime) if self.prime else 1 / row[col]
        row = [self._fix(x * inv) for x in row]
        for other_col, other in self.rows.items():
            if other[col]:
                self.rows[other_col] = self._minus(other, other[col], row)
        self.rows[col] = row
        return True

    def contains(self, row: list) -> bool:
        return not any(self.reduce(row))

    @property
    def rank(self) -> int:
        return len(self.rows)


def observability_rows(n: int, edges, sensor_edges, weights, prime: int | None):
    """Rows C, CA, ..., CA^(n-1) for weights laid out as (edges, sensor_edges).

    ``edges`` are (src, dst) pairs meaning A[dst, src] = w; ``sensor_edges``
    are (node, sensor) pairs meaning C[sensor, node] = w.
    """
    w_a = weights[: len(edges)]
    w_c = weights[len(edges):]
    m = 1 + max(s for _, s in sensor_edges)
    zero = 0 if prime else Fraction(0)
    block = [[zero] * n for _ in range(m)]
    for (node, sensor), w in zip(sensor_edges, w_c):
        block[sensor][node] = w
    rows = []
    for _ in range(n):
        rows.extend(block)
        nxt = [[zero] * n for _ in range(m)]
        for (src, dst), w in zip(edges, w_a):
            for s in range(m):
                v = block[s][dst]
                if v:
                    nxt[s][src] = (nxt[s][src] + v * w) % prime if prime else nxt[s][src] + v * w
        block = nxt
    return rows


@dataclass(frozen=True)
class ExactPrivacy:
    """Rank of the hidden observability columns and per-node verdicts."""

    rank_hidden: int
    private: dict


def exact_privacy(n, edges, sensor_edges, weights, P=(), nodes=(), prime=PRIME) -> ExactPrivacy:
    """Hidden-column rank of O_ob under disclosure P, and whether each node in
    ``nodes`` is private: e_i restricted to the hidden columns lies outside
    the row space of the hidden columns of O_ob."""
    hidden = [j for j in range(n) if j not in set(P)]
    basis = Echelon(prime)
    for row in observability_rows(n, edges, sensor_edges, weights, prime):
        basis.add([row[j] for j in hidden])
    one, zero = (1, 0) if prime else (Fraction(1), Fraction(0))
    private = {i: not basis.contains([one if j == i else zero for j in hidden]) for i in nodes}
    return ExactPrivacy(rank_hidden=basis.rank, private=private)


def field_weights(count: int, rng: np.random.Generator) -> list:
    """Uniform nonzero elements of GF(PRIME)."""
    return [int(v) for v in rng.integers(1, PRIME, size=count, dtype=np.int64)]


# ---------------------------------------------------------------------------
# Rotated permutation construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotatedPermutation:
    """A = Q diag(B_o, B_u) Q^T and C = (Q e_0)^T with cyclic shifts B_o, B_u.

    Only the first ``n_o`` rotated coordinates are observable, so the null
    space of O_ob is exactly span(Q[:, n_o:]) and every row of O_T is a unit
    vector of the observable block rotated by Q.
    """

    Q: np.ndarray
    n_o: int
    sigma_nu: float
    sigma_omega: float

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def null_basis(self) -> np.ndarray:
        return self.Q[:, self.n_o:]

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        n, n_o = self.n, self.n_o
        B = np.zeros((n, n))
        for j in range(n_o):
            B[(j + 1) % n_o, j] = 1.0
        n_u = n - n_o
        for j in range(n_u):
            B[n_o + (j + 1) % n_u, n_o + j] = 1.0
        return self.Q @ B @ self.Q.T, self.Q[:, :1].T.copy()

    def norm_OT_sq(self, T: int) -> int:
        """||O_T||^2: the most times one observable coordinate is read in 0..T."""
        return -(-(T + 1) // self.n_o)

    def lam_min(self) -> float:
        """Smallest eigenvalue of the iid output covariance.  Row 0 of H_T is
        zero, so e_0 is an eigenvector with eigenvalue sigma_omega^2, and
        H_T H_T^T is positive semidefinite."""
        return self.sigma_omega**2

    def refined_lhs(self, T: int) -> float:
        """||O_T^T Sigma^-1 O_T||.

        With A orthogonal, (H H^T)[i, j] = min(i, j) when i = j mod n_o and 0
        otherwise, so Sigma splits into one block per residue class r and the
        Gram matrix is diagonal with entries 1^T Sigma_r^-1 1.
        """
        best = 0.0
        for r in range(min(self.n_o, T + 1)):
            idx = np.arange(r, T + 1, self.n_o, dtype=float)
            S = self.sigma_nu**2 * np.minimum.outer(idx, idx) + self.sigma_omega**2 * np.eye(idx.size)
            ones = np.ones(idx.size)
            best = max(best, float(ones @ np.linalg.solve(S, ones)))
        return best


def rotated_permutation(n: int, n_o: int, rng: np.random.Generator, sigma_nu: float, sigma_omega: float):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return RotatedPermutation(Q=Q, n_o=n_o, sigma_nu=sigma_nu, sigma_omega=sigma_omega)


def private_by_null_basis(N: np.ndarray, i: int, P) -> bool:
    """Node i is private under P iff row N_i is outside the row span of N_P."""
    P = list(P)
    if N.shape[1] == 0:
        return False
    if not P:
        return bool(np.linalg.norm(N[i]) > 1e-9)
    base = np.linalg.matrix_rank(N[P], tol=1e-9)
    return bool(np.linalg.matrix_rank(N[P + [i]], tol=1e-9) > base)


# ---------------------------------------------------------------------------
# Output statistics by the state-covariance recursion
# ---------------------------------------------------------------------------


def stacked_observability(A: np.ndarray, C: np.ndarray, T: int) -> np.ndarray:
    """O_T = [C; CA; ...; CA^T]."""
    return np.vstack([C @ np.linalg.matrix_power(A, t) for t in range(T + 1)])


def output_mean(A: np.ndarray, C: np.ndarray, x0: np.ndarray, T: int) -> np.ndarray:
    """Stacked noiseless output O_T x0 by iterating x <- A x."""
    out = []
    x = np.asarray(x0, dtype=float)
    for _ in range(T + 1):
        out.append(C @ x)
        x = A @ x
    return np.concatenate(out)


def output_covariance_iid(A, C, sigma_nu: float, sigma_omega: float, T: int) -> np.ndarray:
    """Covariance of the stacked output noise for iid noise.

    P[t] = Cov(x_t | x_0) obeys P[0] = 0, P[t+1] = A P[t] A^T + sigma_nu^2 I,
    and for t >= s the block (t, s) is C A^(t-s) P[s] C^T.
    """
    n, m = A.shape[0], C.shape[0]
    P = np.zeros((n, n))
    Sigma = np.zeros((m * (T + 1), m * (T + 1)))
    for s in range(T + 1):
        G = C.copy()
        for t in range(s, T + 1):
            block = G @ P @ C.T
            Sigma[t * m:(t + 1) * m, s * m:(s + 1) * m] = block
            Sigma[s * m:(s + 1) * m, t * m:(t + 1) * m] = block.T
            G = G @ A
        P = A @ P @ A.T + sigma_nu**2 * np.eye(n)
    return Sigma + sigma_omega**2 * np.eye(m * (T + 1))


def output_covariance_joint(A, C, Sigma_T: np.ndarray, T: int) -> np.ndarray:
    """Covariance of the stacked output noise for a joint noise covariance.

    y_t = sum_{s<t} C A^(t-1-s) nu_s + omega_t, so the output noise is the
    linear image L [nu; omega] with L built block by block here.
    """
    n, m = A.shape[0], C.shape[0]
    L = np.zeros((m * (T + 1), n * T + m * (T + 1)))
    for t in range(T + 1):
        G = C.copy()
        for s in range(t - 1, -1, -1):
            L[t * m:(t + 1) * m, s * n:(s + 1) * n] = G
            G = G @ A
        L[t * m:(t + 1) * m, n * T + t * m:n * T + (t + 1) * m] = np.eye(m)
    return L @ Sigma_T @ L.T


# ---------------------------------------------------------------------------
# Gaussian quantities
# ---------------------------------------------------------------------------


def q_tail(w: float) -> float:
    """P(Z > w) for a standard normal Z."""
    return 0.5 * math.erfc(w / math.sqrt(2.0))


def kappa(epsilon: float, delta: float) -> float:
    r = _STD.inv_cdf(1.0 - delta)
    return (r + math.sqrt(r * r + 2.0 * epsilon)) / (2.0 * epsilon)


def delta_min(epsilon: float, lam_min: float, c: float) -> float:
    """Sufficient-condition delta at noise floor lam_min for c = d sqrt(N) ||O_T||."""
    root = math.sqrt(lam_min)
    return q_tail(epsilon * root / c - c / (2.0 * root))


def gaussian_cells(mu: float, var: float, edges: np.ndarray) -> np.ndarray:
    """Probabilities of the histogram cells for N(mu, var); a point mass when var == 0."""
    if var > 0:
        sd = math.sqrt(var)
        cdf = np.array([_STD.cdf((e - mu) / sd) for e in edges])
        return np.diff(cdf)
    probs = np.zeros(len(edges) - 1)
    if edges[0] <= mu <= edges[-1]:
        idx = int(np.searchsorted(edges, mu, side="right")) - 1
        probs[min(max(idx, 0), len(probs) - 1)] = 1.0
    return probs
