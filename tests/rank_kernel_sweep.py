"""Agreement sweep of the stacked rank kernel against the SVD of ``null_basis``.

Usage: ``python tests/rank_kernel_sweep.py [seed]``.  Not collected by pytest.

Every row subset of random orthonormal bases with zero and repeated rows (and
the same bases rotated by a random orthogonal k x k matrix), n = 3-12 and
every k, is ranked at row cutoffs 0, 1e-13, 1e-10, 1e-8 and 1e-3 three ways:

- ``NullBasis.row_ranks``: the full-rank certificate, then the guarded SVD;
- ``_stacked_ranks``: the guarded SVD alone, as ``hidden_ranks`` runs it;
- the SVD with U and Vt that ``null_bases`` takes, the reference count.

It prints the matrices ranked, the certified share of all full-rank matrices
and of the square ones (rows == k), and the disagreements, and exits 1 on any
disagreement or on any certified matrix whose reference count is short of
full rank.
"""

from __future__ import annotations

import itertools
import sys
import time

import numpy as np

from ivpaudit.obsv import NullBasis, _full_rank_certified, _stacked_ranks

ROW_TOLS = (0.0, 1e-13, 1e-10, 1e-8, 1e-3)


def basis(rng, n: int, k: int) -> np.ndarray:
    """Orthonormal n x k basis with zero and repeated rows and, for k >= 2,
    a last column within 1e-12 to 1e-3 of the first, so that row subsets have
    singular values near every cutoff."""
    X = rng.standard_normal((n, k))
    if k >= 2:
        X[:, -1] = X[:, 0] + rng.choice([1e-12, 1e-9, 1e-7, 1e-3]) * rng.standard_normal(n)
    X[rng.random(n) < 0.3] = 0.0
    X[1] = X[0]
    return np.linalg.qr(X)[0]


def full_path_ranks(M: np.ndarray, tol: float) -> np.ndarray:
    """Counts of each matrix of the stack M from the SVD that ``null_bases``
    takes, with U and Vt."""
    s = np.linalg.svd(M, full_matrices=M.shape[1] < M.shape[2])[1]
    return (s > tol).sum(axis=-1)


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    matrices = certified = full = square_certified = square_full = 0
    disagree = {"row_ranks": 0, "_stacked_ranks": 0, "certified short": 0}
    for n in range(3, 13):
        subsets = [np.array(list(itertools.combinations(range(n), size)), dtype=np.intp)
                   for size in range(1, n + 1)]
        for k in range(1, n + 1):
            N = basis(rng, n, k)
            G = np.linalg.qr(rng.standard_normal((k, k)))[0]
            for N_b in (N, N @ G):
                for tol in ROW_TOLS:
                    kern = NullBasis(rank=n - k, N=N_b, tol=0.0, row_tol=tol, norm=1.0)
                    for sets in subsets:
                        M = N_b[sets]
                        d = min(M.shape[1:])
                        want = full_path_ranks(M, tol)
                        cert = _full_rank_certified(M, tol)
                        matrices += len(M)
                        certified += int(cert.sum())
                        full += int((want == d).sum())
                        disagree["certified short"] += int((want[cert] < d).sum())
                        if M.shape[1] == k:
                            square_certified += int(cert.sum())
                            square_full += int((want == d).sum())
                        disagree["row_ranks"] += int((kern.row_ranks(sets) != want).sum())
                        disagree["_stacked_ranks"] += int((_stacked_ranks(M, tol) != want).sum())
    print(f"seed {seed}: {matrices} row subsets (n = 3-12, row cutoffs {ROW_TOLS}), "
          f"{full} of full rank, {certified} certified ({certified / max(full, 1):.1%} of full rank; "
          f"square {square_certified} of {square_full}, {square_certified / max(square_full, 1):.1%}), "
          f"disagreements {disagree}, {time.perf_counter() - start:.1f} s; numpy {np.__version__}")
    return 1 if any(disagree.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
