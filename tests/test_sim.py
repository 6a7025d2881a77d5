"""Trajectory simulation, the averaging attack, and empirical privacy loss."""

import concurrent.futures
import csv
import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import ivpaudit
from ivpaudit import (
    ConditioningError,
    DpBudget,
    LinearSystem,
    NoiseModel,
    ValidationError,
    batch_to_csv,
    build_bundle,
    calibrate_sigma_omega,
    effective_covariance,
    empirical_dp_report,
    mle_attack,
    privacy_index,
    report_to_csv,
    simulate,
)
from ivpaudit import sim
from ivpaudit._util import MAGNITUDE_LIMIT, derive_seed
from ivpaudit.dp import _noise_covariance
from ivpaudit.obsv import _output_power_blocks, null_basis
from ivpaudit.sim import EmpiricalDpReport, _noise_factor
from conftest import (
    chunk_rows,
    count_draws,
    force_workers,
    general_noise_system,
    iid_noise_system,
)


def noiseless(A, C) -> LinearSystem:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return LinearSystem(
        n=A.shape[0], m=C.shape[0], A=A, C=C, noise=NoiseModel.iid(0.0, 0.0)
    )


class TestSimulate:
    def test_zero_noise_reproduces_stacked_map(self):
        system = noiseless([[0.5, 1.0], [0.0, 0.3]], [[1.0, 2.0]])
        x0 = np.array([1.0, -2.0])
        batch = simulate(system, x0, N=4, T=3, seed=0)
        want = build_bundle(system, T=3).O_T @ x0
        np.testing.assert_allclose(batch.Y, np.tile(want, (4, 1)), atol=1e-12)

    def test_stacked_identity_iid(self, sys_line2_first):
        batch = simulate(sys_line2_first, [2.0, 1.0], N=20, T=3, seed=42)
        bundle = build_bundle(sys_line2_first, T=3)
        for i in range(batch.N):
            lhs = batch.Y[i]
            rhs = bundle.O_T @ batch.x0 + bundle.H_T @ batch.V[i] + batch.W[i]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_stacked_identity_general_noise(self):
        rng = np.random.default_rng(3)
        n, m, T = 2, 1, 1
        side = n * T + m * (T + 1)
        root = rng.standard_normal((side, side))
        system = LinearSystem(
            n=n,
            m=m,
            A=[[0.0, 1.0], [0.0, -1.0]],
            C=[[1.0, 0.0]],
            noise=NoiseModel.general(root @ root.T + 0.1 * np.eye(side)),
        )
        batch = simulate(system, [1.0, 1.0], N=50, T=T, seed=9)
        bundle = build_bundle(system, T=T)
        for i in range(batch.N):
            rhs = bundle.O_T @ batch.x0 + bundle.H_T @ batch.V[i] + batch.W[i]
            np.testing.assert_allclose(batch.Y[i], rhs, atol=1e-10)

    def test_trajectories_independent_of_batch_size(self, sys_line2_first):
        small = simulate(sys_line2_first, [2.0, 1.0], N=5, T=2, seed=7)
        large = simulate(sys_line2_first, [2.0, 1.0], N=10, T=2, seed=7)
        np.testing.assert_array_equal(small.Y, large.Y[:5])

    def test_deterministic_coordinate(self, sys_line2_sum):
        # sigma_omega = 0 makes y_0 = x_{0,0} + x_{0,1} exactly.
        batch = simulate(sys_line2_sum, [2.0, 1.0], N=100, T=1, seed=1)
        np.testing.assert_allclose(batch.Y[:, 0], 3.0, atol=1e-14)
        assert batch.Y[:, 1].std() > 0.5

    def test_column_vector_accepted(self, sys_line2_first):
        batch = simulate(sys_line2_first, np.array([[2.0], [1.0]]), N=1, seed=0)
        assert batch.x0.tolist() == [2.0, 1.0]

    def test_batch_arrays_frozen(self, sys_line2_first):
        batch = simulate(sys_line2_first, [2.0, 1.0], N=2, seed=0)
        with pytest.raises(ValueError):
            batch.Y[0, 0] = 0.0

    def test_input_validation(self, sys_line2_first):
        with pytest.raises(ValidationError, match="x0"):
            simulate(sys_line2_first, [1.0], N=1)
        with pytest.raises(ValidationError, match="N"):
            simulate(sys_line2_first, [1.0, 2.0], N=0)
        with pytest.raises(ValidationError, match="T"):
            simulate(sys_line2_first, [1.0, 2.0], N=1, T=-1)
        with pytest.raises(ValidationError, match="finite"):
            simulate(sys_line2_first, [np.nan, 0.0], N=1)

    def test_unstable_state_guard(self):
        system = LinearSystem(n=1, m=1, A=[[10.0]], C=[[1.0]])
        with pytest.raises(ConditioningError, match="magnitude"):
            simulate(system, [1.0], N=1, T=400, seed=0)

    @pytest.mark.parametrize("T", [0, 1, 5])
    def test_guard_checks_the_initial_value_as_step_0(self, sys_line2_first, T):
        with pytest.raises(ConditioningError, match="at step 0$"):
            simulate(sys_line2_first, [1e307, 1e307], N=3, T=T, seed=1)
        with pytest.raises(ConditioningError, match="at step 0$"):
            simulate(sys_line2_first, [0.0, 2 * MAGNITUDE_LIMIT], N=3, T=T, seed=1)
        # The limit itself passes.
        simulate(sys_line2_first, [0.0, MAGNITUDE_LIMIT], N=3, T=0, seed=1)

    def test_output_guard(self):
        # x0 = 1e120 passes the state guard, but C x0 overflows to inf at step
        # 0; the overflow reaches the guard instead of a RuntimeWarning.
        system = LinearSystem(n=1, m=1, A=[[0.5]], C=[[1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match=r"^output magnitude .* at step 0$"):
                simulate(system, [1e120], N=2, T=2, seed=0)
        # Finite outputs past the limit too: 1e140 * 2^t first passes 1e150 at t = 34.
        system = LinearSystem(n=1, m=1, A=[[2.0]], C=[[1e140]])
        with pytest.raises(ConditioningError, match=r"^output magnitude .* at step 34$"):
            simulate(system, [1.0], N=2, T=40, seed=0)


#: Unit normals per Philox counter in the pinned stream design.
BLOCK = 4096


def reference_normals(seed: int, N: int, length: int, start: int = 0) -> np.ndarray:
    """Rows of trajectories start, ..., start + N - 1 of the flat normal stream.

    Block b is ``BLOCK`` normals from a fresh Philox stream with the seed's
    key at counter [0, 0, 0, b]; the blocks are concatenated, and trajectory
    i is normals i*length, ..., (i+1)*length - 1 of the result.
    """
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    lo, hi = start * length, (start + N) * length
    flat = np.concatenate([
        np.random.Generator(np.random.Philox(counter=[0, 0, 0, b], key=key)).standard_normal(BLOCK)
        for b in range(-(-hi // BLOCK))
    ])
    return flat[lo:hi].reshape(N, length)


def reference_general(Z: np.ndarray, L: np.ndarray) -> np.ndarray:
    """General noise row by row: each row of Z times L, as a one-row einsum."""
    return np.vstack([np.einsum("ij,kj->ik", z[None, :], L, optimize=False) for z in Z])


#: (seed, block, first draws of the block) under the "philox4x64-normals4096" stream.
PINNED_DRAWS = [
    (0, 0, [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256,
             -1.271943284573895, -1.4064349008284343]),
    (2**40 + 3, 5, [0.3298620768952171, 1.6331585680003693, 0.0857731824573113,
                    0.27480323328507245, 1.5275580201628824]),
]


class TestNoiseStream:
    """Trajectory i is normals i*side, ..., (i+1)*side - 1 of one sequence whose
    block b of 4096 normals is drawn at Philox counter [0, 0, 0, b]."""

    def test_stream_pinned_to_literal_draws(self):
        # The first draws of two (seed, block) pairs, as numpy's Philox and
        # ziggurat give them: a change to either, or to the stream design,
        # fails here.  n = m = 1 and T = 1 give rows of 3 unit normals, so
        # block 5 starts inside trajectory 6826.
        assert sim.STREAM == "philox4x64-normals4096"
        system = LinearSystem(n=1, m=1, A=[[0.5]], C=[[1.0]], noise=NoiseModel.iid(1.0, 1.0))
        for seed, block, want in PINNED_DRAWS:
            lo = BLOCK * block
            N = -(-(lo + len(want)) // 3)
            batch = simulate(system, [0.0], N=N, T=1, seed=seed)
            flat = np.hstack([batch.V, batch.W]).ravel()
            np.testing.assert_array_equal(flat[lo:lo + len(want)], want)
            np.testing.assert_array_equal(
                reference_normals(seed, N, 3).ravel()[lo:lo + len(want)], want
            )

    @pytest.mark.parametrize("T", [0, 1, 4])
    @pytest.mark.parametrize("seed", [0, 12345, 2**63 + 977])
    def test_iid_draws_match_reference_streams(self, T, seed):
        n, m, N = 3, 2, 7
        system = LinearSystem(
            n=n, m=m, A=np.eye(n) * 0.5, C=np.ones((m, n)), noise=NoiseModel.iid(0.7, 1.3)
        )
        batch = simulate(system, np.ones(n), N=N, T=T, seed=seed)
        Z = reference_normals(seed, N, n * T + m * (T + 1))
        assert batch.V.shape == (N, n * T)
        np.testing.assert_array_equal(batch.V, 0.7 * Z[:, :n * T])
        np.testing.assert_array_equal(batch.W, 1.3 * Z[:, n * T:])

    @pytest.mark.parametrize("N", [5, 13])
    def test_partial_last_block_cut_from_whole_block(self, N):
        # The last block is drawn whole and cut, so the rows a short batch
        # keeps are those of a batch that fills the block (rows of 12).
        system = iid_noise_system()
        batch = simulate(system, np.ones(3), N=N, T=2, seed=77)
        full = simulate(system, np.ones(3), N=BLOCK // 12 + 1, T=2, seed=77)
        Z = reference_normals(77, N, 3 * 2 + 2 * 3)
        np.testing.assert_array_equal(batch.V, 0.7 * Z[:, :6])
        np.testing.assert_array_equal(batch.W, 1.3 * Z[:, 6:])
        np.testing.assert_array_equal(batch.V, full.V[:N])
        np.testing.assert_array_equal(batch.Y, full.Y[:N])

    @pytest.mark.parametrize("start, N", [(16, 8), (16, 11), (8, 3), (11, 9)])
    def test_draws_from_a_later_start(self, start, N):
        # Rows of 256 normals: trajectory 16 starts block 1, trajectory 8
        # starts inside block 0, and trajectories 11-19 straddle the two.
        n, m, T = 2, 1, 85
        system = LinearSystem(
            n=n, m=m, A=np.eye(n) * 0.5, C=np.ones((m, n)), noise=NoiseModel.iid(0.7, 1.3)
        )
        seed = 2**40 + 3
        V, W = sim._draw_noise(system, N, T, seed, start, None)
        Z = reference_normals(seed, N, 256, start)
        np.testing.assert_array_equal(V, 0.7 * Z[:, :n * T])
        np.testing.assert_array_equal(W, 1.3 * Z[:, n * T:])

    @pytest.mark.parametrize("T", [0, 2])
    def test_general_draws_match_reference_streams(self, T):
        system = general_noise_system(T)
        seed, N = 2**40 + 3, 6
        batch = simulate(system, np.ones(3), N=N, T=T, seed=seed)
        L = _noise_factor(system.noise.Sigma_T)
        Z = reference_normals(seed, N, L.shape[0])
        want = reference_general(Z, L)
        np.testing.assert_allclose(want, np.array([L @ z for z in Z]), rtol=1e-13, atol=1e-13)
        len_v = system.n * T
        np.testing.assert_array_equal(batch.V, want[:, :len_v])
        np.testing.assert_array_equal(batch.W, want[:, len_v:])

    @pytest.mark.parametrize("start, N", [(0, 1), (0, 400), (5, 1000), (341, 1), (100, 300)])
    def test_generator_drawn_once_per_covering_block(self, monkeypatch, start, N):
        # One standard_normal call per Philox block that the range of normals
        # touches: rows of 12 normals, so trajectory 341 and trajectories
        # 100-399 straddle blocks 0 and 1.
        calls = []

        class CountedGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls.append(1)
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", CountedGenerator)
        sim._draw_noise(iid_noise_system(), N, 2, 3, start, None)
        lo, hi = 12 * start, 12 * (start + N)
        assert len(calls) == -(-hi // BLOCK) - lo // BLOCK

    def test_general_rows_do_not_depend_on_slicing(self):
        # The einsum that applies L gives each row the same bits however the
        # batch is sliced, for every side from 3 to 202.
        rng = np.random.default_rng(8)
        for side in range(3, 203):
            system = LinearSystem(
                n=1, m=side, A=[[0.5]], C=np.ones((side, 1)),
                noise=NoiseModel.general(np.eye(side)),
            )
            L = rng.standard_normal((side, side))
            whole = np.hstack(sim._draw_noise(system, 40, 0, side, 0, L))
            for start, N in [(0, 1), (1, 7), (5, 13), (17, 23), (39, 1)]:
                part = np.hstack(sim._draw_noise(system, N, 0, side, start, L))
                np.testing.assert_array_equal(part, whole[start:start + N], err_msg=f"side {side}")

    def test_general_trajectories_independent_of_batch_size(self):
        system = general_noise_system(2)
        small = simulate(system, [2.0, 1.0, -1.0], N=5, T=2, seed=7)
        large = simulate(system, [2.0, 1.0, -1.0], N=10, T=2, seed=7)
        np.testing.assert_array_equal(small.Y, large.Y[:5])
        np.testing.assert_array_equal(small.V, large.V[:5])
        np.testing.assert_array_equal(small.W, large.W[:5])


class TestChunks:
    """``simulate`` draws noise chunk by chunk and stores only ``Y``."""

    @pytest.mark.parametrize("general", [False, True], ids=["iid", "general"])
    def test_chunks_match_one_chunk_and_reference_streams(self, monkeypatch, general):
        T, N, seed = 2, 37, 2**40 + 3
        system = general_noise_system(T) if general else iid_noise_system()
        x0 = np.array([2.0, 1.0, -1.0])
        whole = simulate(system, x0, N=N, T=T, seed=seed)
        chunk_rows(monkeypatch, system, T, 8)
        calls = count_draws(monkeypatch)
        chunked = simulate(system, x0, N=N, T=T, seed=seed)
        # Chunks of 8 rows; the last one takes the remainder.  Chunks run
        # concurrently, so the log is compared in order of start.
        assert sorted(calls) == [(0, 8), (8, 8), (16, 8), (24, 13)]
        np.testing.assert_array_equal(chunked.Y, whole.Y)

        len_v = system.n * T
        Z = reference_normals(seed, N, len_v + system.m * (T + 1))
        if general:
            L = _noise_factor(system.noise.Sigma_T)
            want_v, want_w = np.hsplit(reference_general(Z, L), [len_v])
        else:
            want_v, want_w = 0.7 * Z[:, :len_v], 1.3 * Z[:, len_v:]
        for batch in (whole, chunked):
            np.testing.assert_array_equal(batch.V, want_v)
            np.testing.assert_array_equal(batch.W, want_w)
        bundle = build_bundle(system, T=T)
        np.testing.assert_allclose(
            chunked.Y, x0 @ bundle.O_T.T + chunked.V @ bundle.H_T.T + chunked.W, atol=1e-10
        )

    def test_noise_regenerated_once_and_frozen(self, monkeypatch):
        system = iid_noise_system()
        batch = simulate(system, np.ones(3), N=5, T=1, seed=4)
        calls = count_draws(monkeypatch)
        V, W = batch.V, batch.W
        assert batch.V is V and batch.W is W and calls == [(0, 5)]
        for arr in (V, W):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_simulate_and_attack_draw_each_trajectory_once(self, monkeypatch, sys_line2_first):
        chunk_rows(monkeypatch, sys_line2_first, 1, 16)
        calls = count_draws(monkeypatch)
        batch = simulate(sys_line2_first, [2.0, 1.0], N=100, T=1, seed=6)
        mle_attack(sys_line2_first, batch)
        drawn = [i for start, rows in calls for i in range(start, start + rows)]
        assert sorted(drawn) == list(range(100))

    def test_general_noise_factored_once_per_call(self, monkeypatch):
        T = 2
        system = general_noise_system(T)
        chunk_rows(monkeypatch, system, T, 8)
        calls = count_draws(monkeypatch)
        factored = []
        monkeypatch.setattr(sim, "_noise_factor", lambda s: factored.append(s) or _noise_factor(s))
        simulate(system, np.ones(3), N=40, T=T, seed=1)
        assert len(calls) == 5 and len(factored) == 1

    def test_state_guard_reports_earliest_step_across_chunks(self, monkeypatch):
        # At seed 4 the first chunk's states pass the guard at step 152 and
        # a later chunk's at step 151.
        system = LinearSystem(n=1, m=1, A=[[10.0]], C=[[1.0]], noise=NoiseModel.iid(1.0, 0.0))
        chunk_rows(monkeypatch, system, 400, 8)
        for workers in (1, 4):
            force_workers(monkeypatch, workers)
            with pytest.raises(ConditioningError, match="at step 151$"):
                simulate(system, [0.0], N=24, T=400, seed=4)
            with pytest.raises(ConditioningError, match="at step 152$"):
                simulate(system, [0.0], N=8, T=400, seed=4)

    def test_output_guard_reports_earliest_step_across_chunks(self, monkeypatch):
        # The system above with C = 1e10: outputs pass the limit ten steps
        # before the states do, at step 142 in the first chunk and 141 in a
        # later one, so the outputs are checked, not only the states.
        system = LinearSystem(n=1, m=1, A=[[10.0]], C=[[1e10]], noise=NoiseModel.iid(1.0, 0.0))
        chunk_rows(monkeypatch, system, 400, 8)
        for workers in (1, 4):
            force_workers(monkeypatch, workers)
            with pytest.raises(ConditioningError, match="^output .* at step 141$"):
                simulate(system, [0.0], N=24, T=400, seed=4)
            with pytest.raises(ConditioningError, match="^output .* at step 142$"):
                simulate(system, [0.0], N=8, T=400, seed=4)

    def test_short_horizon_chunks_count_the_states(self):
        # T = 0 leaves one draw per trajectory but 200 states: a chunk sized
        # by its draws alone would hold all 20,000 trajectories' states.
        n = 200
        system = LinearSystem(
            n=n, m=1, A=np.eye(n) * 0.5, C=np.ones((1, n)), noise=NoiseModel.iid(1.0, 1.0)
        )
        simulate(system, np.ones(n), N=8, T=0, seed=0)
        tracemalloc.start()
        try:
            batch = simulate(system, np.ones(n), N=20_000, T=0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch.Y.nbytes + 8 * sim.CHUNK_BYTES

    @pytest.mark.parametrize("cpus", [None, 64], ids=["machine-cpus", "64-cpus"])
    def test_peak_memory_is_outputs_plus_a_few_chunks(self, monkeypatch, sys_line2_first, cpus):
        # CHUNKS_IN_FLIGHT holds the bound however many CPUs there are.
        if cpus is not None:
            monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 2**16)
        # The first simulation in a process imports modules (numpy.random's
        # SeedSequence imports `secrets`), whose allocations are no batch's.
        simulate(sys_line2_first, [2.0, 1.0], N=8, T=1, seed=0)
        tracemalloc.start()
        try:
            batch = simulate(sys_line2_first, [2.0, 1.0], N=200_000, T=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch.Y.nbytes + 8 * sim.CHUNK_BYTES


class TestWorkers:
    """Chunks run on threads, and the thread count never shows in the results."""

    @pytest.mark.parametrize("general", [False, True], ids=["iid", "general"])
    def test_one_or_four_workers_give_identical_batches(self, monkeypatch, general):
        T, N, seed = 2, 45, 2**40 + 3
        system = general_noise_system(T) if general else iid_noise_system()
        chunk_rows(monkeypatch, system, T, 8)  # five chunks: four of 8 rows, one of 13
        batches, pools = {}, {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the threads interleave as often as they can
        try:
            for k in (1, 4):
                pools[k] = force_workers(monkeypatch, k)
                batches[k] = simulate(system, np.array([2.0, 1.0, -1.0]), N=N, T=T, seed=seed)
        finally:
            sys.setswitchinterval(switch)
        assert pools == {1: [], 4: [4]}
        for name in ("Y", "V", "W"):
            np.testing.assert_array_equal(getattr(batches[1], name), getattr(batches[4], name))

    @pytest.mark.parametrize("general", [False, True], ids=["iid", "general"])
    def test_cuts_inside_a_philox_block(self, monkeypatch, general):
        # Chunks of 24 rows of 12 normals: no cut falls on a multiple of 4096
        # normals, and the chunk at trajectories 336-359 straddles blocks 0
        # and 1, which both of its neighbours also draw.
        T, N, seed = 2, 700, 5
        system = general_noise_system(T) if general else iid_noise_system()
        x0 = np.array([2.0, 1.0, -1.0])
        whole = simulate(system, x0, N=N, T=T, seed=seed)
        chunk_rows(monkeypatch, system, T, 24)
        for k in (1, 4):
            force_workers(monkeypatch, k)
            calls = count_draws(monkeypatch)
            chunked = simulate(system, x0, N=N, T=T, seed=seed)
            starts = sorted(start for start, _ in calls)
            assert starts == list(range(0, N - 24 + 1, 24))
            assert all(12 * start % BLOCK for start in starts[1:])
            for name in ("Y", "V", "W"):
                np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))

    def test_one_chunk_batch_starts_no_thread(self, monkeypatch, sys_line2_first):
        force_workers(monkeypatch, 4)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk batch started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        batch = simulate(sys_line2_first, [2.0, 1.0], N=1000, seed=3)
        assert batch.Y.shape == (1000, 2)


class TestMoments:
    """Each chunk reduces its output rows to moments, and the chunks' moments
    are merged in chunk order: they follow the cuts, never the threads."""

    @pytest.mark.parametrize("N", [1, 5, 45], ids=["one-row", "partial-chunk", "five-chunks"])
    @pytest.mark.parametrize("general", [False, True], ids=["iid", "general"])
    def test_moments_match_the_batch_whatever_the_workers(self, monkeypatch, general, N):
        T, seed = 2, 11
        system = general_noise_system(T) if general else iid_noise_system()
        x0 = np.array([0.1, 0.2, 0.7])
        chunk_rows(monkeypatch, system, T, 8)
        runs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the threads interleave as often as they can
        try:
            for k in (1, 4):
                force_workers(monkeypatch, k)
                runs += [sim._simulate(system, x0, N, T, seed, keep) for keep in (False, True)]
        finally:
            sys.setswitchinterval(switch)
        assert [batch is None for _, _, batch in runs] == [True, False, True, False]
        T_0, first, _ = runs[0]
        assert T_0 == T and first.count == N
        for T_k, moments, _ in runs[1:]:
            assert T_k == T and moments.count == N
            np.testing.assert_array_equal(moments.mean, first.mean)
            np.testing.assert_array_equal(moments.m2, first.m2)
        Y = runs[1][2].Y
        np.testing.assert_array_equal(runs[3][2].Y, Y)
        np.testing.assert_array_equal(simulate(system, x0, N, T, seed=seed).Y, Y)
        np.testing.assert_allclose(first.mean, Y.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(np.sqrt(first.m2 / N), Y.std(axis=0), rtol=1e-12)

    def test_merge_matches_one_pass_over_the_rows(self):
        rows = np.random.default_rng(3).standard_normal((23, 4)) * [1.0, 1e3, 1e-3, 0.0] + 5.0
        parts = [
            sim._Moments(len(p), p.mean(axis=0), ((p - p.mean(axis=0)) ** 2).sum(axis=0))
            for p in np.split(rows, [1, 9, 16])
        ]
        merged = parts[0]
        for part in parts[1:]:
            merged = sim._merge(merged, part)
        assert merged.count == 23
        np.testing.assert_allclose(merged.mean, rows.mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(merged.m2 / 23, rows.var(axis=0), rtol=1e-12, atol=1e-28)


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(ivpaudit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ivpaudit; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(ivpaudit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # concurrent.futures too: only a simulation of more than one chunk needs it.
    code = (
        "import sys, ivpaudit, ivpaudit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestAttack:
    def test_zero_noise_single_run_recovery(self):
        system = noiseless([[0.5, 1.0], [0.0, 0.3]], [[1.0, 2.0]])
        batch = simulate(system, [1.0, -2.0], N=1, T=3, seed=0)
        result = mle_attack(system, batch)
        assert result.identifiable
        np.testing.assert_allclose(result.x0_hat, [1.0, -2.0], atol=1e-9)
        np.testing.assert_allclose(result.covariance_estimate, 0.0, atol=1e-18)
        assert result.residual < 1e-9

    def test_matches_gls_closed_form(self, sys_line2_first):
        batch = simulate(sys_line2_first, [2.0, 1.0], N=200, T=1, seed=11)
        result = mle_attack(sys_line2_first, batch)
        sigma = effective_covariance(sys_line2_first, T=1)
        O = build_bundle(sys_line2_first, T=1).O_T
        ybar = batch.Y.mean(axis=0)
        gram = O.T @ np.linalg.solve(sigma, O)
        want = np.linalg.solve(gram, O.T @ np.linalg.solve(sigma, ybar))
        np.testing.assert_allclose(result.x0_hat, want, atol=1e-10)
        np.testing.assert_allclose(
            result.covariance_estimate, np.linalg.inv(gram) / batch.N, atol=1e-12
        )

    def test_gls_reduces_to_average_when_O_is_identity(self, sys_line2_first):
        # O_1 = I and Sigma diagonal: the estimate is the averaged output.
        batch = simulate(sys_line2_first, [2.0, 1.0], N=500, T=1, seed=3)
        result = mle_attack(sys_line2_first, batch)
        np.testing.assert_allclose(result.x0_hat, batch.Y.mean(axis=0), atol=1e-12)

    def test_error_shrinks_with_batch_size(self, sys_line2_first):
        x0 = np.array([2.0, 1.0])
        errors = {N: [] for N in (100, 10000)}
        for s in range(30):
            for N in errors:
                batch = simulate(sys_line2_first, x0, N=N, T=1, seed=1000 + s)
                err = np.linalg.norm(mle_attack(sys_line2_first, batch).x0_hat - x0)
                errors[N].append(err)
        assert np.median(errors[10000]) < 0.2 * np.median(errors[100])

    def test_non_identifiable_min_norm_and_null_space(self, sys_line2_sum):
        batch = simulate(sys_line2_sum, [2.0, 1.0], N=50, T=1, seed=5)
        result = mle_attack(sys_line2_sum, batch)
        assert not result.identifiable
        assert result.covariance_estimate is None
        np.testing.assert_allclose(result.x0_hat, [1.5, 1.5], atol=1e-10)
        direction = result.null_space[:, 0] / result.null_space[0, 0]
        np.testing.assert_allclose(direction, [1.0, -1.0], atol=1e-10)

    def test_null_component_never_recovered(self, sys_line2_sum):
        # Averaging more trajectories sharpens the sum, never the difference.
        for N in (10, 10000):
            batch = simulate(sys_line2_sum, [2.0, 1.0], N=N, T=1, seed=8)
            result = mle_attack(sys_line2_sum, batch)
            assert abs(result.x0_hat @ np.array([1.0, -1.0])) < 1e-9

    def test_result_to_dict(self, sys_line2_sum):
        batch = simulate(sys_line2_sum, [2.0, 1.0], N=5, T=1, seed=5)
        d = mle_attack(sys_line2_sum, batch).to_dict()
        assert d["identifiable"] is False
        assert d["covariance_estimate"] == "non-identifiable"
        assert len(d["null_space"]) == 2

    def test_short_horizon_reads_all_of_O_T(self):
        # T = 0 < n - 1: O_T = C, so two directions orthogonal to C stay
        # hidden and the estimate is the minimum-norm C^T ybar / |C|^2.
        C = np.array([[1.0, 2.0, -1.0]])
        system = LinearSystem(
            n=3, m=1, A=np.random.default_rng(5).standard_normal((3, 3)), C=C,
            noise=NoiseModel.iid(1.0, 0.5),
        )
        batch = simulate(system, [1.0, -1.0, 2.0], N=40, T=0, seed=6)
        result = mle_attack(system, batch)
        assert not result.identifiable
        assert result.covariance_estimate is None
        assert result.null_space.shape == (3, 2)
        np.testing.assert_allclose(C @ result.null_space, 0.0, atol=1e-14)
        want = C[0] * batch.Y.mean(axis=0)[0] / (C[0] @ C[0])
        np.testing.assert_allclose(result.x0_hat, want, atol=1e-14)


class TestAttackReadsAuditKernel:
    """The attack's identifiability and null space are the audit's kernel of O_ob."""

    @pytest.mark.parametrize("n, T", [(30, 60), (40, 80)])
    def test_dense_systems_agree_with_audit(self, n, T):
        # Dense A ~ N(0, 1/n) sensed at one state: at these sizes a separate
        # SVD of O_T or a pinv of the whitened map ranks differently from
        # O_ob on a few draws.  Identifiability does not depend on the draws,
        # so a few trajectories suffice.
        disagreements = []
        for seed in range(40):
            A = np.random.default_rng(seed).standard_normal((n, n)) / np.sqrt(n)
            system = LinearSystem(
                n=n, m=1, A=A, C=np.eye(1, n), noise=NoiseModel.iid(1.0, 0.5)
            )
            result = mle_attack(system, simulate(system, np.ones(n), N=8, T=T, seed=1))
            N = null_basis(build_bundle(system).O_ob).N
            null_space = np.zeros((n, 0)) if result.identifiable else result.null_space
            x0_hat = result.x0_hat
            if (
                result.identifiable != (privacy_index(system).rank_Oob == n)
                or not np.allclose(null_space @ null_space.T, N @ N.T, atol=1e-12)
                or np.linalg.norm(null_space.T @ x0_hat) > 1e-12 * (1 + np.linalg.norm(x0_hat))
            ):
                disagreements.append(seed)
        assert disagreements == []


class TestEmpiricalDp:
    def test_identical_initial_values_look_flat(self, sys_line2_first):
        report = empirical_dp_report(
            sys_line2_first, [[2.0, 1.0], [2.0, 1.0]], N_runs=4000, seed=17
        )
        assert report.eps_hat <= report.noise_bound
        assert not report.dp_violation
        assert report.analytic_eps == 0.0

    def test_adjacent_values_have_bounded_loss(self, sys_line2_first):
        report = empirical_dp_report(
            sys_line2_first,
            [[1.4, 1.7], [1.6, 1.8]],
            N_runs=5000,
            seed=23,
            d=1.0,
        )
        assert not report.dp_violation
        assert 0.0 < report.eps_hat < 1.5
        assert report.analytic_eps > 0.0

    def test_deterministic_coordinate_flags_violation(self, sys_line2_sum):
        # y_0 is a point mass at the coordinate sum, which differs: supports
        # are disjoint for every sample size.
        report = empirical_dp_report(
            sys_line2_sum, [[2.0, 1.0], [2.5, 1.0]], N_runs=2000, seed=31
        )
        assert report.dp_violation
        pairs = {pair for pair, coord in report.violations if coord == 0}
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_calibrated_noise_caps_empirical_loss(self, sys_line2_first):
        budget = DpBudget(epsilon=1.0, delta=0.05, d=1.0, N=1)
        floor = calibrate_sigma_omega(sys_line2_first, budget)
        system = LinearSystem(
            n=2,
            m=1,
            A=sys_line2_first.A,
            C=sys_line2_first.C,
            noise=NoiseModel.iid(1.0, floor),
        )
        report = empirical_dp_report(
            system, [[2.0, 1.0], [2.8, 1.6]], N_runs=20000, seed=41, delta=0.05, d=1.0
        )
        assert report.eps_hat <= 1.0

    def test_fixed_bin_count_respected(self, sys_line2_first):
        report = empirical_dp_report(
            sys_line2_first, [[2.0, 1.0], [2.1, 1.0]], N_runs=500, bins=30, seed=3
        )
        assert all(len(edges) == 31 for edges in report.bin_edges)

    def test_seeded_runs_reproducible(self, sys_line2_first):
        kwargs = dict(x0_list=[[2.0, 1.0], [2.1, 1.0]], N_runs=800, seed=97)
        a = empirical_dp_report(sys_line2_first, **kwargs)
        b = empirical_dp_report(sys_line2_first, **kwargs)
        assert a.eps_hat == b.eps_hat
        assert a.to_dict() == b.to_dict()

    def test_adjacency_radius_enforced(self, sys_line2_first):
        with pytest.raises(ValidationError, match="adjacency"):
            empirical_dp_report(
                sys_line2_first, [[0.0, 0.0], [3.0, 0.0]], N_runs=100, d=1.0
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_value_refused_before_any_draw(
        self, monkeypatch, sys_line2_first, bad
    ):
        # With d = 1, a NaN value is within no adjacency radius, yet NaN > d is false.
        calls = count_draws(monkeypatch)
        with pytest.raises(ValidationError, match=r"^x0_list\[1\]: entries must be finite"):
            empirical_dp_report(sys_line2_first, [[1.0, 2.0], [bad, 1.0]], N_runs=1000, d=1.0)
        with pytest.raises(ValidationError, match=r"^x0: entries must be finite"):
            simulate(sys_line2_first, [bad, 1.0], N=10)
        assert calls == []

    def test_argument_validation(self, sys_line2_first):
        with pytest.raises(ValidationError, match="two initial values"):
            empirical_dp_report(sys_line2_first, [[2.0, 1.0]], N_runs=100)
        with pytest.raises(ValidationError, match="length"):
            empirical_dp_report(sys_line2_first, [[2.0], [1.0]], N_runs=100)
        with pytest.raises(ValidationError, match="N_runs"):
            empirical_dp_report(sys_line2_first, [[2.0, 1.0], [2.1, 1.0]], N_runs=0)
        with pytest.raises(ValidationError, match="delta"):
            empirical_dp_report(
                sys_line2_first, [[2.0, 1.0], [2.1, 1.0]], N_runs=10, delta=0.7
            )
        with pytest.raises(ValidationError, match="bins"):
            empirical_dp_report(
                sys_line2_first, [[2.0, 1.0], [2.1, 1.0]], N_runs=10, bins=0
            )


class TestProbeConstants:
    """The probe's deciding constants, each pinned where it flips an output.
    ``reference_probe`` reads the constants from ``sim``, so it cannot."""

    # Noise-free and A = 0: every output of x0 is C x0, one point per value.
    POINT = noiseless([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])

    def test_noise_bound_is_three_sigma(self, monkeypatch):
        # One cell holds all N_runs outputs of both values, so the only live
        # ratio is 1 and its Poisson scale is sqrt(2 / N_runs) = 0.1.
        def bound():
            report = empirical_dp_report(self.POINT, [[0.0, 0.0], [1.0, 0.0]], 200, bins=1)
            assert report.eps_hat == 0.0
            return report.noise_bound

        assert bound() == pytest.approx(0.3, rel=1e-15)
        monkeypatch.setattr(sim, "NOISE_BOUND_SIGMAS", 2.0)
        assert bound() == pytest.approx(0.2, rel=1e-15)

    def test_disjoint_cells_decide_from_100_samples(self, monkeypatch):
        # Two cells, each holding all N_runs outputs of one value: a violation
        # once N_runs reaches DECISIVE_ZERO_COUNT = 100 (above min_count 10).
        def violated(N_runs):
            report = empirical_dp_report(self.POINT, [[0.0, 0.0], [1.0, 0.0]], N_runs, bins=2, T=0)
            return report.dp_violation

        assert violated(100) and not violated(99)
        monkeypatch.setattr(sim, "DECISIVE_ZERO_COUNT", 50)
        assert violated(99)

    def test_adjacency_forgives_rounding_only(self, sys_line2_first):
        # 0.1 - (-0.2) rounds to 0.30000000000000004 > 0.3: within the slack
        # of 1e-12.  A distance of 0.3 + 1e-9 is not.
        report = empirical_dp_report(sys_line2_first, [[0.1, 0.0], [-0.2, 0.0]], 10, d=0.3)
        assert np.linalg.norm(report.x0_list[0] - report.x0_list[1]) > 0.3
        with pytest.raises(ValidationError, match="beyond adjacency d=0.3$"):
            empirical_dp_report(sys_line2_first, [[0.3 + 1e-9, 0.0], [0.0, 0.0]], 10, d=0.3)


def reference_probe(system, x0s, N_runs, bins, seed, delta, min_count, T):
    """The probe's earlier two-pass form: one loop bins every coordinate, a
    second reads the bins back and compares each ordered pair in a Python loop."""
    x0s = [np.asarray(x, dtype=float) for x in x0s]
    bins = "fd" if bins is None else bins
    batches = [
        simulate(system, x, N_runs, T, seed=derive_seed(seed, j)) for j, x in enumerate(x0s)
    ]
    O_T = np.vstack(_output_power_blocks(system.A, system.C, T + 1))
    sigma = _noise_covariance(system, O_T, T)
    means = [O_T @ x for x in x0s]
    n_coords = system.m * (T + 1)

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
            [sim._analytic_cell_probs(float(means[j][r]), float(sigma[r, r]), edges_all[r])
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
                    spread = sim.NOISE_BOUND_SIGMAS * np.sqrt(
                        1.0 / counts[j][live] + 1.0 / counts[k][live]
                    )
                    noise_bound = max(noise_bound, float(spread.max(initial=0.0)))
                    a_excess = analytic[j][live] - delta
                    a_ok = (a_excess > 0) & (analytic[k][live] > 0)
                    if np.any(a_ok):
                        a_ratios = np.log(a_excess[a_ok] / analytic[k][live][a_ok])
                        analytic_eps = max(analytic_eps, float(a_ratios.max(initial=0.0)))
                decisive = max(min_count, sim.DECISIVE_ZERO_COUNT)
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


def probe_sweep_noise(kind: str, rng, n: int, m: int, T: int) -> NoiseModel:
    """"iid"; "y0-exact" (sigma_omega = 0, so every output at t = 0 has zero
    variance); "noise-free" (every output has zero variance); "general"."""
    if kind == "general":
        side = n * T + m * (T + 1)
        root = rng.standard_normal((side, side))
        return NoiseModel.general(root @ root.T / side)
    return {
        "iid": NoiseModel.iid(0.8, 0.5),
        "y0-exact": NoiseModel.iid(0.8, 0.0),
        "noise-free": NoiseModel.iid(0.0, 0.0),
    }[kind]


class TestProbeMatchesReference:
    N_RUNS = 300

    def test_sweep_is_identical(self):
        # Every combination of delta, min_count (1, or one above most cells'
        # counts and above DECISIVE_ZERO_COUNT, so it sets the decisive count),
        # FD or fixed bins, and noise, twice, at random n 1-4, m 1-2, T 0-2
        # and 2-4 initial values.
        combos = itertools.product(
            [0.0, 0.01], [1, self.N_RUNS // 2 + 1], [None, 7],
            ["iid", "y0-exact", "noise-free", "general"], range(2),
        )
        mismatches, violated = [], 0
        for case, (delta, min_count, bins, kind, _) in enumerate(combos):
            rng = np.random.default_rng(case)
            n, m, T, k = (int(v) for v in rng.integers([1, 1, 0, 2], [5, 3, 3, 5]))
            system = LinearSystem(
                n=n, m=m, A=rng.standard_normal((n, n)) / np.sqrt(n),
                C=rng.standard_normal((m, n)), noise=probe_sweep_noise(kind, rng, n, m, T),
            )
            # The first value, then values near it, far from it, or equal to it.
            scales = rng.choice([0.0, 0.3, 3.0], size=(k - 1, 1))
            base = rng.standard_normal(n)
            x0s = [base] + list(base + scales * rng.standard_normal((k - 1, n)))
            kwargs = dict(bins=bins, seed=case, delta=delta, min_count=min_count, T=T)
            want = reference_probe(system, x0s, self.N_RUNS, **kwargs)
            got = empirical_dp_report(system, x0s, self.N_RUNS, **kwargs)
            violated += want.dp_violation
            if (
                got.to_dict() != want.to_dict()
                or len(got.bin_edges) != len(want.bin_edges)
                or not all(np.array_equal(a, b) for a, b in zip(got.bin_edges, want.bin_edges))
                or not all(np.array_equal(a, b) for a, b in zip(got.counts, want.counts))
            ):
                mismatches.append(case)
        assert mismatches == []
        assert violated >= 10  # the order of ``violations`` is compared, not only its absence


class TestCsvExports:
    def test_batch_round_trip(self, sys_line2_first, tmp_path):
        batch = simulate(sys_line2_first, [2.0, 1.0], N=3, T=1, seed=0)
        path = tmp_path / "batch.csv"
        batch_to_csv(batch, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trajectory", "y0", "y1"]
        assert len(rows) == 4
        recovered = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(recovered, batch.Y)

    def test_report_long_format(self, sys_line2_first, tmp_path):
        report = empirical_dp_report(
            sys_line2_first, [[2.0, 1.0], [2.1, 1.0]], N_runs=200, bins=10, seed=3
        )
        path = tmp_path / "hist.csv"
        report_to_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coord", "bin_left", "bin_right", "x0_index", "count"]
        # two coordinates, two initial values, ten cells each
        assert len(rows) == 1 + 2 * 2 * 10
        total = sum(int(r[4]) for r in rows[1:])
        assert total == 2 * 2 * 200

    def test_exports_byte_identical_to_repr_formatting(self, monkeypatch, sys_line2_first, tmp_path):
        # Each float written as repr(float(v)), row by row: the format the
        # exports have always had.  Signed zeros, subnormals and 17-digit
        # values must come out the same, across CSV_ROWS boundaries too.
        monkeypatch.setattr(sim, "CSV_ROWS", 2)
        awkward = [-0.0, 5e-324, 2.2250738585072009e-308, 0.30000000000000004, 1 / 3,
                   -1.2345678901234567e-300, 1e16, 123456789.12345679, 0.0, -2.5]
        Y = np.array(awkward).reshape(5, 2)
        batch = sim.TrajectoryBatch(x0=np.zeros(2), N=5, T=1, Y=Y, seed=0, system=sys_line2_first)
        report = empirical_dp_report(
            sys_line2_first, [[2.0, 1.0], [2.1, 1.0]], N_runs=50, bins=2, seed=3
        )
        edges = np.array(awkward[:3])
        report = dataclasses.replace(
            report, bin_edges=(edges, np.array(awkward[3:6])),
            counts=(np.array([[1, 2], [3, 4]]), np.array([[0, 7], [9, 0]])),
        )

        def legacy(path, header, rows):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow(row)

        legacy(tmp_path / "batch_ref.csv", ["trajectory", "y0", "y1"],
               ([i] + [repr(float(v)) for v in Y[i]] for i in range(5)))
        legacy(tmp_path / "hist_ref.csv", ["coord", "bin_left", "bin_right", "x0_index", "count"],
               ([r, repr(float(e[b])), repr(float(e[b + 1])), j, int(c[j, b])]
                for r, (e, c) in enumerate(zip(report.bin_edges, report.counts))
                for j in range(c.shape[0]) for b in range(len(e) - 1)))
        batch_to_csv(batch, tmp_path / "batch.csv")
        report_to_csv(report, tmp_path / "hist.csv")
        for name in ("batch", "hist"):
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert b"-0.0," in (tmp_path / "batch.csv").read_bytes()
