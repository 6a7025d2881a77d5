"""Trajectory simulation, eavesdropper estimation, empirical privacy probing.

The eavesdropper model: observe N full output trajectories released by the
system, average them, and run generalized least squares against the stacked
observability map.  For identifiable systems this is the maximum-likelihood
estimate of the initial value; for unobservable systems the minimum-norm
solution is returned together with the unidentifiable directions.

The empirical probe compares per-coordinate output histograms between
adjacent initial values and extracts the worst-case likelihood-ratio bound
that the samples support, which lower-bounds the true privacy loss.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from ._util import derive_seed, integer, real
from .errors import ConditioningError, ValidationError
from .dp import _noise_covariance, _radius
from .obsv import _output_power_blocks, null_basis, rank_tolerance
from .sysmodel import LinearSystem

__all__ = [
    "TrajectoryBatch",
    "AttackResult",
    "EmpiricalDpReport",
    "simulate",
    "mle_attack",
    "empirical_dp_report",
    "batch_to_csv",
    "report_to_csv",
]

#: Magnitude guard for simulated states.
STATE_OVERFLOW_LIMIT = 1e150

#: Histogram cells enter ratio estimates only with at least this many samples.
DEFAULT_MIN_COUNT = 10

#: Multiplier on the Poisson-noise scale when reporting the sampling bound.
NOISE_BOUND_SIGMAS = 3.0

#: A populated-vs-empty cell certifies disjoint supports only when the
#: populated side is overwhelming; below this count a zero on the other side
#: is still compatible with an ordinary bounded likelihood ratio.
DECISIVE_ZERO_COUNT = 100


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """N stacked output trajectories with the noise draws that produced them.

    Row i of ``Y`` is the stacked output of trajectory i and satisfies
    Y[i] = O_T x0 + H_T V[i] + W[i] exactly for the recorded draws.  The
    draws come from one Philox generator re-keyed per trajectory to counter
    [0, 0, 0, i]; ``V`` and ``W`` are column views of a single draw array.
    """

    x0: np.ndarray
    N: int
    T: int
    Y: np.ndarray
    seed: int
    V: np.ndarray
    W: np.ndarray


@dataclass(frozen=True, eq=False)
class AttackResult:
    """Initial-value estimate from averaged trajectories.

    When the system is not identifiable, ``x0_hat`` is the minimum-norm
    solution, ``covariance_estimate`` is None and ``null_space`` spans the
    directions the eavesdropper cannot resolve.
    """

    x0_hat: np.ndarray
    covariance_estimate: np.ndarray | None
    identifiable: bool
    residual: float
    null_space: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "x0_hat": [float(v) for v in self.x0_hat],
            "covariance_estimate": (
                self.covariance_estimate.tolist()
                if self.covariance_estimate is not None
                else "non-identifiable"
            ),
            "identifiable": bool(self.identifiable),
            "residual": self.residual,
            "null_space": self.null_space.tolist() if self.null_space is not None else None,
        }


def _noise_factor(sigma: np.ndarray) -> np.ndarray:
    """L with L L^T = sigma for a validated PSD covariance."""
    lam, U = np.linalg.eigh(0.5 * (sigma + sigma.T))
    lam = np.clip(lam, 0.0, None)
    return U * np.sqrt(lam)


def _draw_noise(sys: LinearSystem, N: int, T: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory noise from counter-based streams keyed by (seed, index).

    Trajectory i reads the Philox stream with the seed's key and counter
    [0, 0, 0, i], so results do not depend on evaluation order or batching.
    One generator is re-keyed per trajectory by resetting its counter and
    buffer, and each row of a single draw array receives that trajectory's
    normals; ``V`` and ``W`` are column views of that array.
    """
    n, m = sys.n, sys.m
    len_v = n * T
    len_w = m * (T + 1)
    noise = sys.noise
    if noise.kind == "general":
        joint = noise.Sigma_T
        if joint.shape[0] != len_v + len_w:
            raise ValidationError(
                f"noise.SigmaT: expected side {len_v + len_w} = n*T + m*(T+1) at T={T}, "
                f"got {joint.shape[0]}"
            )
        L = _noise_factor(joint)
    key = np.random.SeedSequence(entropy=seed).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key)
    g = np.random.Generator(bitgen)
    state = bitgen.state  # as constructed: empty buffer, no cached 32-bit word
    counter = state["state"]["counter"]
    Z = np.empty((N, len_v + len_w))
    for i in range(N):
        counter[3] = i
        bitgen.state = state
        g.standard_normal(out=Z[i])
        if noise.kind == "general":
            Z[i] = L @ Z[i]
    if noise.kind == "iid":
        Z[:, :len_v] *= noise.sigma_nu
        Z[:, len_v:] *= noise.sigma_omega
    return Z[:, :len_v], Z[:, len_v:]


def simulate(
    sys: LinearSystem, x0, N: int, T: int | None = None, seed: int = 0
) -> TrajectoryBatch:
    """Simulate N output trajectories of length T+1 from initial value x0."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n:
        raise ValidationError(f"x0: expected length {sys.n}, got {x0.shape[0]}")
    if not np.all(np.isfinite(x0)):
        raise ValidationError("x0: entries must be finite")
    N = integer(N, "N", 1)
    T = sys.n - 1 if T is None else integer(T, "T", 0)
    seed = integer(seed, "seed", 0)

    n, m = sys.n, sys.m
    V, W = _draw_noise(sys, N, T, seed)
    Y = np.zeros((N, m * (T + 1)))
    x = np.broadcast_to(x0, (N, n)).copy()
    for t in range(T + 1):
        Y[:, t * m:(t + 1) * m] = x @ sys.C.T + W[:, t * m:(t + 1) * m]
        if t < T:
            x = x @ sys.A.T + V[:, t * n:(t + 1) * n]
            peak = float(np.abs(x).max(initial=0.0))
            if not np.isfinite(peak) or peak > STATE_OVERFLOW_LIMIT:
                raise ConditioningError(
                    f"state magnitude exceeded {STATE_OVERFLOW_LIMIT:g} at step {t + 1}"
                )
    for arr in (Y, V, W):
        arr.flags.writeable = False
    frozen_x0 = x0.copy()
    frozen_x0.flags.writeable = False
    return TrajectoryBatch(x0=frozen_x0, N=N, T=T, Y=Y, seed=seed, V=V, W=W)


def mle_attack(sys: LinearSystem, batch: TrajectoryBatch) -> AttackResult:
    """Generalized least squares on the trajectory-averaged stacked output.

    Directions of the output space with zero noise variance are treated as
    exact linear constraints, so purely deterministic releases (including the
    zero-noise case) are inverted rather than rejected.
    """
    O_T = np.vstack(_output_power_blocks(sys.A, sys.C, batch.T + 1))
    sigma = _noise_covariance(sys, O_T, batch.T)
    ybar = batch.Y.mean(axis=0)

    lam, U = np.linalg.eigh(sigma)
    noisy = lam > rank_tolerance(sigma, max(float(lam[-1]), 0.0))
    weights = np.empty_like(lam)
    if np.any(noisy):
        weights[noisy] = 1.0 / np.sqrt(lam[noisy])
        weights[~noisy] = max(1.0, float(weights[noisy].max()))
    else:
        weights[:] = 1.0
    whitener = weights[:, None] * U.T
    G = whitener @ O_T
    G_pinv = np.linalg.pinv(G)
    x0_hat = G_pinv @ (whitener @ ybar)
    estimator = G_pinv @ whitener
    covariance = estimator @ sigma @ estimator.T / batch.N
    residual = float(np.linalg.norm(ybar - O_T @ x0_hat))

    kern = null_basis(O_T)
    identifiable = kern.rank == sys.n
    null_space = None
    if not identifiable:
        null_space = kern.N.copy()
        covariance = None
    for arr in (x0_hat,) + ((covariance,) if covariance is not None else ()):
        arr.flags.writeable = False
    return AttackResult(
        x0_hat=x0_hat,
        covariance_estimate=covariance,
        identifiable=identifiable,
        residual=residual,
        null_space=null_space,
    )


@dataclass(frozen=True, eq=False)
class EmpiricalDpReport:
    """Histogram evidence of privacy loss between adjacent initial values.

    ``eps_hat`` is the largest finite log ratio of cell frequencies over all
    ordered pairs, output coordinates, and cells with at least ``min_count``
    samples on both sides (after subtracting ``delta`` from the numerator).
    ``noise_bound`` is the sampling-noise scale of that estimate; an
    ``eps_hat`` below it is statistically indistinguishable from zero.
    ``analytic_eps`` recomputes the same maximum from exact Gaussian cell
    probabilities.  ``dp_violation`` marks empirically disjoint supports:
    some cell holds at least ``DECISIVE_ZERO_COUNT`` samples on one side and
    none on the other, which no finite privacy loss explains.
    """

    x0_list: tuple
    N_runs: int
    T: int
    seed: int
    delta: float
    min_count: int
    bin_edges: tuple
    counts: tuple
    eps_hat: float
    eps_hat_by_coord: tuple
    noise_bound: float
    analytic_eps: float
    dp_violation: bool
    violations: tuple

    def to_dict(self) -> dict:
        return {
            "x0_list": [[float(v) for v in x] for x in self.x0_list],
            "N_runs": self.N_runs,
            "T": self.T,
            "seed": self.seed,
            "delta": self.delta,
            "min_count": self.min_count,
            "eps_hat": self.eps_hat,
            "eps_hat_by_coord": list(self.eps_hat_by_coord),
            "noise_bound": self.noise_bound,
            "analytic_eps": self.analytic_eps,
            "dp_violation": bool(self.dp_violation),
            "violations": [
                {"pair": list(pair), "coord": coord} for pair, coord in self.violations
            ],
        }


def _analytic_cell_probs(mu: float, var: float, edges: np.ndarray) -> np.ndarray:
    """Exact per-cell probabilities of a scalar output coordinate."""
    if var > 0:
        sd = np.sqrt(var)
        cdf = ndtr((edges - mu) / sd)
        return np.diff(cdf)
    probs = np.zeros(len(edges) - 1)
    idx = int(np.searchsorted(edges, mu, side="right") - 1)
    idx = min(max(idx, 0), len(probs) - 1)
    if edges[0] <= mu <= edges[-1]:
        probs[idx] = 1.0
    return probs


def empirical_dp_report(
    sys: LinearSystem,
    x0_list: Sequence,
    N_runs: int,
    bins: int | None = None,
    seed: int = 0,
    delta: float = 0.0,
    d: float | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    T: int | None = None,
) -> EmpiricalDpReport:
    """Simulate each initial value and compare output histograms pairwise.

    ``bins`` overrides the Freedman-Diaconis bin count; edges are shared
    across initial values per coordinate (pooled data).  When ``d`` (> 0) is
    given, all pairs are checked to be within the adjacency radius.
    """
    x0s = [np.asarray(x, dtype=float).reshape(-1) for x in x0_list]
    if len(x0s) < 2:
        raise ValidationError("x0_list: need at least two initial values to compare")
    for k, x in enumerate(x0s):
        if x.shape[0] != sys.n:
            raise ValidationError(f"x0_list[{k}]: expected length {sys.n}, got {x.shape[0]}")
    N_runs = integer(N_runs, "N_runs", 1)
    delta = real(delta, "delta")
    if not 0.0 <= delta < 0.5:
        raise ValidationError(f"delta: must lie in [0, 0.5), got {delta!r}")
    min_count = integer(min_count, "min_count", 1)
    bins = "fd" if bins is None else integer(bins, "bins", 1)
    seed = integer(seed, "seed", 0)
    T = sys.n - 1 if T is None else integer(T, "T", 0)
    if d is not None:
        d = _radius(d)
        for a in range(len(x0s)):
            for b in range(a + 1, len(x0s)):
                dist = float(np.linalg.norm(x0s[a] - x0s[b]))
                if dist > d + 1e-12:
                    raise ValidationError(
                        f"x0_list: values {a} and {b} are {dist:.6g} apart, beyond adjacency d={d}"
                    )

    batches = [
        simulate(sys, x, N_runs, T, seed=derive_seed(seed, j)) for j, x in enumerate(x0s)
    ]
    O_T = np.vstack(_output_power_blocks(sys.A, sys.C, T + 1))
    sigma = _noise_covariance(sys, O_T, T)
    means = [O_T @ x for x in x0s]
    n_coords = sys.m * (T + 1)

    edges_all = []
    counts_all = []
    for r in range(n_coords):
        pooled = np.concatenate([b.Y[:, r] for b in batches])
        edges = np.histogram_bin_edges(pooled, bins=bins)
        counts = np.vstack([np.histogram(b.Y[:, r], bins=edges)[0] for b in batches])
        edges_all.append(edges)
        counts_all.append(counts)

    total = float(N_runs)
    eps_by_coord = np.zeros(n_coords)
    noise_bound = 0.0
    analytic_eps = 0.0
    violations = []
    for r in range(n_coords):
        counts = counts_all[r]
        probs = counts / total
        analytic = np.vstack(
            [_analytic_cell_probs(float(means[j][r]), float(sigma[r, r]), edges_all[r])
             for j in range(len(x0s))]
        )
        for j in range(len(x0s)):
            for k in range(len(x0s)):
                if j == k:
                    continue
                admissible = (counts[j] >= min_count) & (counts[k] >= min_count)
                excess = probs[j] - delta
                live = admissible & (excess > 0)
                if np.any(live):
                    ratios = np.log(excess[live] / probs[k][live])
                    eps_by_coord[r] = max(eps_by_coord[r], float(ratios.max(initial=0.0)))
                    spread = NOISE_BOUND_SIGMAS * np.sqrt(
                        1.0 / counts[j][live] + 1.0 / counts[k][live]
                    )
                    noise_bound = max(noise_bound, float(spread.max(initial=0.0)))
                    a_excess = analytic[j][live] - delta
                    a_ok = (a_excess > 0) & (analytic[k][live] > 0)
                    if np.any(a_ok):
                        a_ratios = np.log(a_excess[a_ok] / analytic[k][live][a_ok])
                        analytic_eps = max(analytic_eps, float(a_ratios.max(initial=0.0)))
                decisive = max(min_count, DECISIVE_ZERO_COUNT)
                disjoint = (counts[j] >= decisive) & (counts[k] == 0) & (excess > 0)
                if np.any(disjoint):
                    violations.append(((j, k), r))

    return EmpiricalDpReport(
        x0_list=tuple(x0s),
        N_runs=N_runs,
        T=T,
        seed=seed,
        delta=delta,
        min_count=min_count,
        bin_edges=tuple(edges_all),
        counts=tuple(counts_all),
        eps_hat=float(eps_by_coord.max(initial=0.0)),
        eps_hat_by_coord=tuple(float(v) for v in eps_by_coord),
        noise_bound=noise_bound,
        analytic_eps=analytic_eps,
        dp_violation=bool(violations),
        violations=tuple(violations),
    )


def batch_to_csv(batch: TrajectoryBatch, path) -> None:
    """One row per trajectory; columns are the stacked output coordinates."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory"] + [f"y{r}" for r in range(batch.Y.shape[1])])
        for i in range(batch.N):
            writer.writerow([i] + [repr(float(v)) for v in batch.Y[i]])


def report_to_csv(report: EmpiricalDpReport, path) -> None:
    """Plot-ready long format: coordinate, bin edges, initial-value index, count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coord", "bin_left", "bin_right", "x0_index", "count"])
        for r, (edges, counts) in enumerate(zip(report.bin_edges, report.counts)):
            for j in range(counts.shape[0]):
                for b in range(len(edges) - 1):
                    writer.writerow(
                        [r, repr(float(edges[b])), repr(float(edges[b + 1])), j, int(counts[j, b])]
                    )
