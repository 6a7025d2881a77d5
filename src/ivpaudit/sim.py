"""Trajectory simulation, eavesdropper estimation, empirical privacy probing.

The eavesdropper model: observe N full output trajectories released by the
system, average them, and run generalized least squares against the stacked
observability map.  Identifiability and the unidentifiable directions come
from one ``obsv.null_basis`` of O_T's first min(T+1, n) block rows, the O_ob
that ``audit`` ranks when T >= n-1, so ``attack`` and ``audit`` at its
default cutoff cannot disagree on one system file.  For identifiable systems
with an invertible noise covariance the estimate is the maximum-likelihood
estimate of the initial value; for unobservable systems the minimum-norm
solution is returned together with the unidentifiable directions.
Zero-variance output directions are weighted like the least noisy one, not
enforced exactly.

Noise comes from the counter-based Philox generator as one flat sequence of
unit normals per seed, in blocks of ``STREAM_BLOCK`` normals: block b reads
the seed's key at counter [0, 0, 0, b], and trajectory i takes the side =
n*T + m*(T+1) normals that follow i*side, so its draws depend only on the
seed, its index and side.  ``STREAM`` names this design; the ``simulate``
and ``attack`` commands report it as "stream".  ``simulate`` runs the
recurrence over chunks whose noise draws and states fit in ``CHUNK_BYTES``,
and keeps only the outputs ``Y``.  Since a chunk's draws depend only on the
seed and its trajectory indices, chunks run concurrently, on one thread per
usable CPU and at most ``CHUNKS_IN_FLIGHT`` at once; there is nothing to
set, and the results do not depend on the number of threads.  A batch
regenerates its noise draws from the seed when they are read, so memory
grows with the outputs, not with the noise.  Each chunk also reduces its
outputs to column moments (count, mean, centred sum of squares) in the
thread that ran it, and the chunks' moments are merged in chunk order
(Chan, Golub & LeVeque 1979).  The averaging attack reads only the mean, so
the ``simulate`` and ``attack`` commands read the merged moments and hold
an N-row ``Y`` only when they write it to a CSV: without one, their memory
does not grow with N.  They still run every trajectory's recurrence, so the
state guard reports the exact earliest step.  The outputs each chunk stores
are checked against the same limit once, after its recurrence, so an output
past it raises ``ConditioningError`` at the earliest step over the batch
instead of reaching the moments as inf or NaN.

The empirical probe compares per-coordinate output histograms between
adjacent initial values and extracts the worst-case likelihood-ratio bound
that the samples support, which lower-bounds the true privacy loss.  It
makes one pass per output coordinate, which bins that coordinate and
compares every ordered pair of initial values at once.
"""

from __future__ import annotations

import collections
import csv
import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._util import MAGNITUDE_LIMIT, array, beyond_limit, derive_seed, integer, real, sequence
from .errors import ConditioningError, ValidationError
from .dp import _joint_covariance, _noise_covariance, _radius, q_function
from .obsv import _stacked_powers, null_basis, rank_tolerance
from .sysmodel import LinearSystem, require_lti

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

#: Unit normals per Philox counter: block b holds normals STREAM_BLOCK*b, ...,
#: STREAM_BLOCK*b + STREAM_BLOCK - 1 of a seed's flat sequence, drawn by one
#: ``standard_normal`` call at counter [0, 0, 0, b].
STREAM_BLOCK = 4096

#: Name of the noise-stream design, reported as "stream" by the ``simulate``
#: and ``attack`` commands.
STREAM = f"philox4x64-normals{STREAM_BLOCK}"

#: Bytes per chunk of trajectories in ``simulate``: a chunk holds as many rows
#: as fit, at 8 * (n*T + m*(T+1) + 2*n) bytes per row for its float64 draws
#: and its two state arrays, rounded down to a multiple of CHUNK_ROW_MULTIPLE
#: rows (at least one multiple), and the last chunk also takes the remainder.
#: 1 MiB fits in one core's L2 cache, and at n = 8 it keeps a chunk's
#: products under OpenBLAS's own threading threshold, so BLAS threads do not
#: compete with ``simulate``'s.
CHUNK_BYTES = 2**20

#: Chunk rows are a multiple of this many trajectories, so no chunk's
#: products are one-row or short-tailed ones that BLAS rounds differently
#: from the same rows inside a larger product.
CHUNK_ROW_MULTIPLE = 8

#: Chunks that ``simulate`` runs at once, whatever the number of CPUs, so it
#: holds at most 3 * CHUNK_BYTES of draws and states (the last chunk can be
#: almost twice the others); general noise briefly holds a second copy of a
#: chunk's draws.
CHUNKS_IN_FLIGHT = 2

#: Trajectories converted to Python floats at a time by ``batch_to_csv``.
CSV_ROWS = 4096

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
    """N stacked output trajectories and the seed of the noise that produced them.

    Row i of ``Y`` is the stacked output of trajectory i and satisfies
    Y[i] = O_T x0 + H_T V[i] + W[i] exactly.  The draws come from the
    ``STREAM`` design: trajectory i reads normals i*side, ..., (i+1)*side - 1
    of the seed's flat sequence, side = n*T + m*(T+1).  Only ``Y`` is
    stored: ``V`` and ``W`` are regenerated from (system, N, T, seed) on
    first read, bit for bit, then frozen and cached as column views of one
    array.
    """

    x0: np.ndarray
    N: int
    T: int
    Y: np.ndarray
    seed: int
    system: LinearSystem = field(repr=False)

    @functools.cached_property
    def _noise(self) -> tuple[np.ndarray, np.ndarray]:
        L = _general_factor(self.system, self.T)
        V, W = _draw_noise(self.system, self.N, self.T, self.seed, 0, L)
        for arr in (V, W):
            arr.flags.writeable = False
        return V, W

    @property
    def V(self) -> np.ndarray:
        """Process noise, N x n*T."""
        return self._noise[0]

    @property
    def W(self) -> np.ndarray:
        """Measurement noise, N x m*(T+1)."""
        return self._noise[1]


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


def _general_factor(sys: LinearSystem, T: int) -> np.ndarray | None:
    """The factor of general noise's Sigma_T at horizon T; None for iid noise."""
    if sys.noise.kind != "general":
        return None
    return _noise_factor(_joint_covariance(sys.noise, sys.n * T + sys.m * (T + 1)))


def _draw_noise(
    sys: LinearSystem, N: int, T: int, seed: int, start: int, L: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Noise of trajectories start, ..., start + N - 1 from the seed's flat normal sequence.

    Block b of the sequence is ``STREAM_BLOCK`` normals read from the Philox
    stream with the seed's key and counter [0, 0, 0, b].  Trajectory i takes
    normals i*side, ..., (i+1)*side - 1, side = n*T + m*(T+1), so its draws
    do not depend on N, ``start`` or how a batch is split into chunks.  The
    blocks that cover the range are drawn whole and then cut, so a block
    that two chunks share is drawn by both.  One generator is re-keyed per
    block by resetting its counter and buffer.  General noise multiplies the
    rows by ``L`` (from ``_general_factor``) in one ``einsum``, whose rows
    do not depend on how the batch is sliced.  ``V`` and ``W`` are column
    views of one draw array.
    """
    n, m = sys.n, sys.m
    len_v = n * T
    side = len_v + m * (T + 1)
    noise = sys.noise
    key = np.random.SeedSequence(entropy=seed).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key)
    g = np.random.Generator(bitgen)
    # The state as constructed (empty buffer, no cached 32-bit word), held in
    # plain ints: the state setter reads Python ints faster than uint64 arrays.
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key.tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    first, skip = divmod(start * side, STREAM_BLOCK)
    blocks = -(-(skip + N * side) // STREAM_BLOCK)
    flat = np.empty((blocks, STREAM_BLOCK))
    for b in range(blocks):
        counter[3] = first + b
        bitgen.state = state
        g.standard_normal(out=flat[b])
    Z = flat.reshape(-1)[skip:skip + N * side].reshape(N, side)
    if L is not None:
        Z = np.einsum("ij,kj->ik", Z, L, optimize=False)
    if noise.kind == "iid":
        Z[:, :len_v] *= noise.sigma_nu
        Z[:, len_v:] *= noise.sigma_omega
    return Z[:, :len_v], Z[:, len_v:]


class _Moments(NamedTuple):
    """Column moments of stacked output rows: the row count, the column mean
    and the centred column sum of squares."""

    count: int
    mean: np.ndarray
    m2: np.ndarray


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """The moments of a's rows followed by b's (Chan, Golub & LeVeque 1979)."""
    count = a.count + b.count
    delta = b.mean - a.mean
    return _Moments(
        count,
        a.mean + delta * (b.count / count),
        a.m2 + b.m2 + delta**2 * (a.count * b.count / count),
    )


def _simulate_chunk(
    sys: LinearSystem, x0: np.ndarray, start: int, stop: int,
    T: int, seed: int, L: np.ndarray | None, Y: np.ndarray | None,
) -> tuple[tuple[int, str] | None, _Moments | None]:
    """Run trajectories start, ..., stop - 1 and reduce their outputs to moments.

    Draws the chunk's blocks with ``_draw_noise`` and runs the recurrence,
    writing the outputs into rows start:stop of ``Y`` when one is given and
    over the chunk's measurement noise ``W`` otherwise.  The states, which
    it overwrites, are checked against ``MAGNITUDE_LIMIT`` at every step, and
    the recurrence stops at the first step past it; the outputs written are
    checked once, after the loop.  Returns the earliest (step, "output") or
    (step, "state") past the limit, with no moments, or None with the
    moments of its output rows.  The recurrence runs with overflow warnings
    off, so an inf or NaN reaches the checks instead of escaping as a warning.
    """
    n, m = sys.n, sys.m
    V, W = _draw_noise(sys, stop - start, T, seed, start, L)
    out = W if Y is None else Y[start:stop]
    x = np.broadcast_to(x0, (stop - start, n)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            cols = slice(t * m, (t + 1) * m)
            np.add(x @ sys.C.T, W[:, cols], out=out[:, cols])
            if t == T:
                break
            x = x @ sys.A.T
            x += V[:, t * n:(t + 1) * n]  # in place: two state arrays at a time, not three
            if beyond_limit(x):
                break
        # Outputs 0 .. t are written; t < T means the state at step t + 1 is past the limit.
        written = out[:, : (t + 1) * m]
        if beyond_limit(written) or t < T:  # one check over the chunk; per column only on failure
            bad = np.flatnonzero(beyond_limit(written, 0))
            return ((int(bad[0]) // m, "output") if bad.size else (t + 1, "state")), None
    mean = out.mean(axis=0)
    dev = out - mean
    dev *= dev
    return None, _Moments(stop - start, mean, dev.sum(axis=0))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate(
    sys: LinearSystem, x0, N: int, T: int | None = None, seed: int = 0
) -> TrajectoryBatch:
    """Simulate N output trajectories of length T+1 from initial value x0.

    The batch is cut into chunks whose noise draws and two state arrays fit
    in ``CHUNK_BYTES``: each holds a multiple of ``CHUNK_ROW_MULTIPLE`` rows
    and the last one also takes the remainder, so the cuts depend only on
    ``CHUNK_BYTES`` and the row size.  The rounding and the merged remainder
    keep ``Y`` equal to a one-chunk run's: BLAS rounds a one-row product,
    and the trailing rows of a matrix-vector product, differently from the
    same rows inside a larger product.  Each chunk draws its own part of the
    noise stream (a cut may fall inside a Philox block, which both chunks
    then draw) and runs its own recurrence into its rows of ``Y``.  A batch
    of more than one chunk runs them on threads, one per usable CPU and at
    most ``CHUNKS_IN_FLIGHT``, so at most that many chunks' draws and states
    are held at once; a one-chunk batch, or one on a single usable CPU, runs
    in the calling thread.  ``Y`` does not depend on the number of threads,
    since each chunk computes the same products whichever thread runs it.
    It can still depend on the cuts: a BLAS with a separate small-matrix
    kernel (OpenBLAS on AVX-512) rounds a chunk's products differently in
    the last bit when n >= 32 and m > 1.

    The state guard checks x0 as step 0, then each chunk's states, which it
    overwrites, at every step, and raises ``ConditioningError`` at the earliest
    step past ``_util.MAGNITUDE_LIMIT`` over all trajectories.  Each chunk's
    outputs are checked once, after its recurrence, and the error names the
    earliest step over all trajectories at which a state or an output passed
    the limit.
    """
    return _simulate(sys, x0, N, T, seed, keep=True)[2]


def _simulate(
    sys: LinearSystem, x0, N: int, T: int | None, seed: int, keep: bool
) -> tuple[int, _Moments, TrajectoryBatch | None]:
    """``simulate``'s chunks, reduced to the horizon T and the moments of the N outputs.

    Each chunk reduces its rows to moments in the thread that ran it, and
    the chunks' moments are merged in chunk order, so they depend on the
    cuts but not on the number of threads.  Only ``keep`` allocates the
    N-row ``Y`` and returns the batch (else None): without it, memory does
    not grow with N.
    """
    require_lti(sys)
    x0 = array(x0, "x0", sys.n, flat=True)
    N = integer(N, "N", 1)
    T = sys.n - 1 if T is None else integer(T, "T", 0)
    seed = integer(seed, "seed", 0)

    n, m = sys.n, sys.m
    L = _general_factor(sys, T)
    if beyond_limit(x0):
        raise ConditioningError(f"state magnitude exceeded {MAGNITUDE_LIMIT:g} at step 0")
    row_bytes = 8 * (n * T + m * (T + 1) + 2 * n)
    rows = max(1, CHUNK_BYTES // row_bytes // CHUNK_ROW_MULTIPLE) * CHUNK_ROW_MULTIPLE
    cuts = range(rows, N - rows + 1, rows)
    chunks = zip(itertools.chain([0], cuts), itertools.chain(cuts, [N]))
    Y = np.empty((N, m * (T + 1))) if keep else None
    run = functools.partial(_simulate_chunk, sys, x0, T=T, seed=seed, L=L, Y=Y)
    workers = min(_usable_cpus(), len(cuts) + 1, CHUNKS_IN_FLIGHT)
    if workers == 1:
        bad, moments = _merge_chunks(itertools.starmap(run, chunks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            bad, moments = _merge_chunks(_in_order(pool, run, chunks, 2 * workers))
    if bad is not None:
        raise ConditioningError(f"{bad[1]} magnitude exceeded {MAGNITUDE_LIMIT:g} at step {bad[0]}")
    if not keep:
        return T, moments, None
    Y.flags.writeable = False
    x0.flags.writeable = False  # the rule's own copy
    return T, moments, TrajectoryBatch(x0=x0, N=N, T=T, Y=Y, seed=seed, system=sys)


def _in_order(pool, run, chunks, ahead: int):
    """``run`` over ``chunks`` on ``pool``, results in chunk order, with at most
    ``ahead`` chunks submitted and not yet taken, so the pending tasks do not
    grow with the number of chunks.  As with ``Executor.map``, a chunk that
    raises cancels the chunks not yet started."""
    pending = collections.deque()
    try:
        for chunk in chunks:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(pool.submit(run, *chunk))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _merge_chunks(results) -> tuple[tuple[int, str] | None, _Moments | None]:
    """The earliest (step, what) past the limit over ``_simulate_chunk``
    results taken in chunk order, or None with their merged moments; each
    result is dropped once merged."""
    bad = moments = None
    for past, part in results:
        if past is not None:
            bad = past if bad is None else min(bad, past)
        elif bad is None:
            moments = part if moments is None else _merge(moments, part)
    return bad, moments


def mle_attack(sys: LinearSystem, batch: TrajectoryBatch) -> AttackResult:
    """Generalized least squares on the trajectory-averaged stacked output.

    One ``null_basis`` of O_T's first min(T+1, n) block rows (the O_ob that
    ``audit`` ranks when T >= n-1) gives ``identifiable`` and ``null_space``.
    ``x0_hat`` solves the whitened least squares over the kernel's observable
    complement, so it is orthogonal to ``null_space``.  Output directions of
    zero noise variance get the least noisy direction's weight (at least 1),
    not exact constraints: a zero-noise release is inverted, but a partly
    noise-free one is not fitted exactly on its noise-free part.

    The estimate reads only the mean output ``batch.Y.mean(axis=0)``, N
    and T.  The ``attack`` command computes it from the mean merged over
    ``simulate``'s chunks instead, without holding ``Y``, so its figures can
    differ from this function's in the last few bits.
    """
    require_lti(sys)
    return _attack(sys, batch.Y.mean(axis=0), batch.N, batch.T)


def _attack(sys: LinearSystem, ybar: np.ndarray, N: int, T: int) -> AttackResult:
    """``mle_attack`` on the mean ``ybar`` of N output trajectories of horizon T."""
    O_T = _stacked_powers(sys.A, sys.C, T)
    sigma = _noise_covariance(sys, O_T, T)

    lam, U = np.linalg.eigh(sigma)
    noisy = lam > rank_tolerance(sigma, max(float(lam[-1]), 0.0))
    weights = np.ones_like(lam)
    weights[noisy] = 1.0 / np.sqrt(lam[noisy])
    weights[~noisy] = weights.max()
    whitener = weights[:, None] * U.T
    kern = null_basis(O_T[: sys.m * sys.n])
    Q = np.linalg.qr(kern.N, mode="complete")[0][:, kern.N.shape[1]:]
    Q_G, R_G = np.linalg.qr(whitener @ O_T @ Q)
    estimator = Q @ np.linalg.solve(R_G, Q_G.T @ whitener)
    x0_hat = estimator @ ybar
    residual = float(np.linalg.norm(ybar - O_T @ x0_hat))

    identifiable = kern.rank == sys.n
    covariance = estimator @ sigma @ estimator.T / N if identifiable else None
    null_space = None if identifiable else kern.N.copy()
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
        # Phi(z) = Q(-z) at each edge; a few hundred scalar calls per probe.
        z = ((edges - mu) / np.sqrt(var)).tolist()
        return np.diff([q_function(-t) for t in z])
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

    ``bins`` overrides the Freedman-Diaconis bin count and is at most the
    pooled sample count len(x0_list) * N_runs, since each coordinate holds
    bins + 1 edges; edges are shared across initial values per coordinate
    (pooled data).  When ``d`` (> 0) is given, all pairs are checked to be
    within the adjacency radius.  Every argument, each initial value's length
    and finiteness included, is checked before anything is simulated.

    One pass per output coordinate bins the pooled outputs, counts each
    initial value's outputs in those cells, and compares all ordered pairs
    (j, k), j != k, at once, as rows of (pairs x cells) arrays in j-major
    order; ``violations`` lists (pair, coordinate) in coordinate order, then
    that pair order.
    """
    require_lti(sys)
    x0s = [array(x, f"x0_list[{k}]", sys.n, flat=True)
           for k, x in enumerate(sequence(x0_list, "x0_list"))]
    if len(x0s) < 2:
        raise ValidationError("x0_list: need at least two initial values to compare")
    N_runs = integer(N_runs, "N_runs", 1)
    delta = real(delta, "delta")
    if not 0.0 <= delta < 0.5:
        raise ValidationError(f"delta: must lie in [0, 0.5), got {delta!r}")
    min_count = integer(min_count, "min_count", 1)
    bins = "fd" if bins is None else integer(bins, "bins", 1)
    if bins != "fd" and bins > len(x0s) * N_runs:
        raise ValidationError(
            f"bins: at most the pooled sample count {len(x0s) * N_runs}, got {bins}"
        )
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
    O_T = _stacked_powers(sys.A, sys.C, T)
    sigma = _noise_covariance(sys, O_T, T)
    means = [O_T @ x for x in x0s]
    # Every ordered pair (J[p], K[p]), j != k, in j-major order.
    J, K = np.nonzero(~np.eye(len(x0s), dtype=bool))
    decisive = max(min_count, DECISIVE_ZERO_COUNT)

    edges_all, counts_all, eps_by_coord, violations = [], [], [], []
    noise_bound = analytic_eps = 0.0
    for r in range(sys.m * (T + 1)):
        edges = np.histogram_bin_edges(np.concatenate([b.Y[:, r] for b in batches]), bins=bins)
        counts = np.vstack([np.histogram(b.Y[:, r], bins=edges)[0] for b in batches])
        analytic = np.vstack(
            [_analytic_cell_probs(float(mu[r]), float(sigma[r, r]), edges) for mu in means]
        )
        c_j, c_k = counts[J], counts[K]
        excess = c_j / N_runs - delta
        live = (c_j >= min_count) & (c_k >= min_count) & (excess > 0)
        ratios = np.log(excess[live] / (c_k[live] / N_runs))
        eps_by_coord.append(float(ratios.max(initial=0.0)))
        spread = NOISE_BOUND_SIGMAS * np.sqrt(1.0 / c_j[live] + 1.0 / c_k[live])
        noise_bound = max(noise_bound, float(spread.max(initial=0.0)))
        a_excess, a_k = analytic[J] - delta, analytic[K]
        a_ok = live & (a_excess > 0) & (a_k > 0)
        a_ratios = np.log(a_excess[a_ok] / a_k[a_ok])
        analytic_eps = max(analytic_eps, float(a_ratios.max(initial=0.0)))
        disjoint = ((c_j >= decisive) & (c_k == 0) & (excess > 0)).any(axis=1)
        violations.extend(((j, k), r) for j, k in zip(J[disjoint].tolist(), K[disjoint].tolist()))
        edges_all.append(edges)
        counts_all.append(counts)

    return EmpiricalDpReport(
        x0_list=tuple(x0s),
        N_runs=N_runs,
        T=T,
        seed=seed,
        delta=delta,
        min_count=min_count,
        bin_edges=tuple(edges_all),
        counts=tuple(counts_all),
        eps_hat=max(eps_by_coord, default=0.0),
        eps_hat_by_coord=tuple(eps_by_coord),
        noise_bound=noise_bound,
        analytic_eps=analytic_eps,
        dp_violation=bool(violations),
        violations=tuple(violations),
    )


def batch_to_csv(batch: TrajectoryBatch, path) -> None:
    """One row per trajectory; columns are the stacked output coordinates.

    ``csv`` writes each float as its ``repr``, the shortest string that reads
    back to the same value.  Rows are converted ``CSV_ROWS`` at a time, so
    the Python floats in flight stay bounded whatever N is.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory"] + [f"y{r}" for r in range(batch.Y.shape[1])])
        for lo in range(0, batch.N, CSV_ROWS):
            rows = batch.Y[lo:lo + CSV_ROWS].tolist()
            writer.writerows([i, *row] for i, row in enumerate(rows, lo))


def report_to_csv(report: EmpiricalDpReport, path) -> None:
    """Plot-ready long format: coordinate, bin edges, initial-value index, count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coord", "bin_left", "bin_right", "x0_index", "count"])
        for r, (edges, counts) in enumerate(zip(report.bin_edges, report.counts)):
            edges = edges.tolist()
            for j, row in enumerate(counts.tolist()):
                writer.writerows(
                    [r, left, right, j, count]
                    for left, right, count in zip(edges, edges[1:], row)
                )
