"""Observability stacking, numerical rank, selectors."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivpaudit import (
    ConditioningError,
    LinearSystem,
    NoiseModel,
    Selector,
    TimeVaryingSystem,
    ValidationError,
    build_bundle,
    build_tv_observability,
    instantiate,
    numerical_rank,
    rank_tolerance,
    sample_configuration,
    select_columns,
)
from ivpaudit import obsv
from ivpaudit.obsv import (
    GUARD_FACTOR,
    ROW_TOL_FACTOR,
    NullBasis,
    _output_power_blocks,
    hidden_ranks,
    null_bases,
    null_basis,
    stacked_maps,
)
from conftest import sweep_hidden_rank_identity
from rank_kernel_sweep import ROW_TOLS, full_path_ranks
from rank_kernel_sweep import basis as sweep_basis


def line3_observability_poly(theta):
    """Hand-expanded observability matrix of the 3-node path structure.

    Rows are C, CA, CA^2 written out as polynomials in the weights
    (a12, a21, a23, c11, c13); an independent check on the matrix builder.
    """
    a12, a21, a23, c11, c13 = theta
    return np.array(
        [
            [c11, 0.0, c13],
            [0.0, c11 * a12, 0.0],
            [c11 * a12 * a21, 0.0, c11 * a12 * a23],
        ]
    )


def tree4_observability_poly(theta):
    """Hand-expanded observability matrix of the 4-node structure
    (weights a11, a12, a14, a22, a23, c11, c13)."""
    a11, a12, a14, a22, a23, c11, c13 = theta
    return np.array(
        [
            [c11, 0.0, c13, 0.0],
            [c11 * a11, c11 * a12, 0.0, c11 * a14],
            [c11 * a11**2, c11 * a12 * (a11 + a22), c11 * a12 * a23, c11 * a11 * a14],
            [
                c11 * a11**3,
                c11 * a12 * (a11**2 + a11 * a22 + a22**2),
                c11 * a12 * a23 * (a11 + a22),
                c11 * a11**2 * a14,
            ],
        ]
    )


class TestBundle:
    def test_line2_sum_blocks(self, sys_line2_sum):
        bundle = build_bundle(sys_line2_sum, T=1)
        assert bundle.O_T.tolist() == [[1.0, 1.0], [0.0, 0.0]]
        assert bundle.O_ob.tolist() == [[1.0, 1.0], [0.0, 0.0]]
        assert bundle.H_T.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_identity_system_stacks_identities(self):
        system = LinearSystem(n=3, m=3, A=np.eye(3), C=np.eye(3))
        bundle = build_bundle(system)
        assert np.array_equal(bundle.O_T, np.vstack([np.eye(3)] * 3))

    def test_default_horizon_is_minimal(self, sys_line2_first):
        assert build_bundle(sys_line2_first).T == 1

    def test_horizon_below_minimum_rejected(self, sys_line2_first):
        with pytest.raises(ValidationError, match="n-1"):
            build_bundle(sys_line2_first, T=0)

    def test_O_ob_prefix_of_longer_horizons(self, sys_line2_first):
        long = build_bundle(sys_line2_first, T=5)
        assert np.array_equal(long.O_T[:2], long.O_ob)
        assert long.O_T.shape == (6, 2)
        assert long.H_T.shape == (6, 10)

    def test_line3_polynomial_entries(self, struct_line3):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = rng.uniform(0.1, 2.0, size=5)
            system = instantiate(struct_line3, theta)
            bundle = build_bundle(system, T=2)
            np.testing.assert_allclose(
                bundle.O_T, line3_observability_poly(theta), rtol=0, atol=1e-13
            )

    def test_tree4_polynomial_entries(self, struct_tree4):
        rng = np.random.default_rng(6)
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0, size=7)
            system = instantiate(struct_tree4, theta)
            bundle = build_bundle(system, T=3)
            np.testing.assert_allclose(
                bundle.O_T, tree4_observability_poly(theta), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("m", [1, 3])
    def test_noise_map_is_a_copy_of_the_power_blocks(self, m):
        # H_T is read off O_T's block rows; block (i, j) must be C A^(i-j-1)
        # bit for bit, from stacked_maps and from a bundle alike.
        rng = np.random.default_rng(41 + m)
        n = 4
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((m, n))
        system = LinearSystem(n=n, m=m, A=A, C=C)
        for T in (0, 1, n - 1, n + 3):
            blocks = _output_power_blocks(A, C, T + 1)
            want = np.zeros((m * (T + 1), n * T))
            for i in range(1, T + 1):
                for j in range(i):
                    want[i * m:(i + 1) * m, j * n:(j + 1) * n] = blocks[i - j - 1]
            O_T, H_T = stacked_maps(A, C, T)
            assert O_T.tobytes() == np.vstack(blocks).tobytes()
            assert H_T.shape == want.shape and H_T.tobytes() == want.tobytes()
            if T >= n - 1:
                bundle = build_bundle(system, T)
                assert bundle.H_T.tobytes() == want.tobytes()
                assert not (bundle.O_T.flags.writeable or bundle.O_ob.flags.writeable)

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "stacked"])
    def test_power_blocks_are_written_in_place(self, lead):
        # One (count, ..., m, n) array holding C A^k bit for bit as the
        # products C @ A @ ... @ A taken one factor at a time.
        rng = np.random.default_rng(47)
        A = rng.standard_normal(lead + (6, 6))
        C = rng.standard_normal(lead + (2, 6))
        blocks = _output_power_blocks(A, C, 7)
        assert blocks.shape == (7,) + C.shape
        want = C
        for k in range(7):
            assert blocks[k].tobytes() == want.tobytes()
            want = want @ A
        with pytest.raises(ConditioningError, match=r"entries of C A\^3 exceed 1e\+150"):
            _output_power_blocks(1e60 * np.eye(6), C, 5)

    def test_toeplitz_blocks_match_matrix_power(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, m, T = 3, 2, 5
            A = rng.standard_normal((n, n)) * 0.7
            C = rng.standard_normal((m, n))
            system = LinearSystem(n=n, m=m, A=A, C=C)
            bundle = build_bundle(system, T=T)
            for i in range(T + 1):
                for j in range(T):
                    block = bundle.H_T[i * m:(i + 1) * m, j * n:(j + 1) * n]
                    if i > j:
                        expect = C @ np.linalg.matrix_power(A, i - j - 1)
                    else:
                        expect = np.zeros((m, n))
                    np.testing.assert_allclose(block, expect, rtol=0, atol=1e-10)

    def test_power_overflow_guard(self):
        system = LinearSystem(n=2, m=1, A=10.0 * np.eye(2), C=[[1.0, 0.0]])
        with pytest.raises(ConditioningError, match="horizon"):
            build_bundle(system, T=200)


class TestPowerGuard:
    """The stored blocks C A^k are checked once, after the chain."""

    @staticmethod
    def guard_k(A, C, count=12):
        """The k that the guard names, or None."""
        try:
            _output_power_blocks(np.asarray(A), np.asarray(C), count)
        except ConditioningError as exc:
            return int(exc.args[0].split("^")[1].split()[0])
        return None

    def test_stacked_samples_report_the_earliest_k(self):
        # C = 1 and A = a: a = 1e40, 1e80 and 1e20 first pass 1e150 at k = 4,
        # 2 and 8.  Stacked in any order, the earliest k over them is named.
        scales = {1e40: 4, 1e80: 2, 1e20: 8}
        for a, k in scales.items():
            assert self.guard_k([[a]], [[1.0]]) == k
        for stack, k in (((1e40, 1e80, 1e20), 2), ((1e40, 1e20), 4)):
            for order in itertools.permutations(stack):
                A = np.array(order)[:, None, None]
                assert self.guard_k(A, np.ones((len(order), 1, 1))) == k
        # Blocks up to the limit itself pass, and so does C past it (C is not checked).
        assert self.guard_k([[1e75]], [[1.0]], count=3) is None
        assert self.guard_k([[1e-100]], [[1e200]]) is None
        assert self.guard_k([[1e75]], [[1.0]], count=4) == 3

    @pytest.mark.parametrize("A, C, k", [
        ([[1e250]], [[1e100]], 1),  # C A is inf already
        ([[1e200, -1e200], [1e200, 1e200]], [[1.0, 1.0]], 1),  # inf, then NaN from inf - inf
        ([[1e100]], [[1.0]], 2),
    ], ids=["inf-at-once", "inf-then-nan", "limit-then-inf"])
    def test_overflowing_chain_raises_without_warning(self, A, C, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.guard_k(A, C, count=40) == k
            system = LinearSystem(n=len(A), m=1, A=A, C=C)
            with pytest.raises(ConditioningError, match=rf"^entries of C A\^{k} exceed 1e\+150; "):
                build_bundle(system, T=39)


class TestTimeVarying:
    def test_constant_sequences_reduce_to_time_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n, m, T = 4, 2, 6
            A = rng.standard_normal((n, n)) * 0.6
            C = rng.standard_normal((m, n))
            tv = TimeVaryingSystem(n=n, m=m, A_seq=(A,) * T, C_seq=(C,) * (T + 1))
            lti = LinearSystem(n=n, m=m, A=A, C=C)
            O_hat = build_tv_observability(tv)
            O_T = build_bundle(lti, T=T).O_T
            np.testing.assert_allclose(O_hat, O_T, rtol=0, atol=1e-12)

    def test_matches_direct_product_accumulation(self):
        rng = np.random.default_rng(9)
        n, m, T = 3, 1, 4
        A_seq = tuple(rng.standard_normal((n, n)) for _ in range(T))
        C_seq = tuple(rng.standard_normal((m, n)) for _ in range(T + 1))
        tv = TimeVaryingSystem(n=n, m=m, A_seq=A_seq, C_seq=C_seq)
        O_hat = build_tv_observability(tv)
        for t in range(T + 1):
            prod = np.eye(n)
            for k in range(t):
                prod = A_seq[k] @ prod
            np.testing.assert_allclose(
                O_hat[t * m:(t + 1) * m], C_seq[t] @ prod, rtol=0, atol=1e-12
            )

    def test_horizon_beyond_sequences_rejected(self):
        tv = TimeVaryingSystem(
            n=2, m=1, A_seq=(np.eye(2),), C_seq=([[1.0, 0.0]], [[1.0, 0.0]])
        )
        with pytest.raises(ValidationError, match="cover"):
            build_tv_observability(tv, T=3)


class TestNumericalRank:
    def test_trivial_cases(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.eye(4)) == 4
        outer = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert numerical_rank(outer) == 1

    def test_empty_dimensions(self):
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert numerical_rank(np.zeros((3, 0))) == 0

    def test_perturbation_below_tolerance_ignored(self):
        M = np.outer([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        M = M + 1e-16 * np.eye(3)
        assert numerical_rank(M) == 1

    def test_shared_tolerance_changes_decision(self):
        M = np.diag([1.0, 1e-13])
        assert numerical_rank(M) == 2
        assert numerical_rank(M, tol=1e-10) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            numerical_rank(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValidationError, match="rank tolerance"):
            numerical_rank(np.zeros((3, 3)), tol=tol)

    def test_zero_tolerance_counts_nonzero_singular_values(self):
        assert numerical_rank(np.diag([1.0, 1e-300, 0.0]), tol=0.0) == 2

    @settings(max_examples=30, deadline=None)
    @given(
        M=arrays(np.float64, (4, 3), elements=st.floats(-5, 5)),
        extra=arrays(np.float64, (2, 3), elements=st.floats(-5, 5)),
    )
    @example(
        M=np.where(np.arange(12).reshape(4, 3) == 0, 0.0, 4.6e-201),
        extra=np.ones((2, 3)),
    )
    def test_rank_monotone_under_row_stacking(self, M, extra):
        # Interlacing makes this hold for one shared cutoff, not for cutoffs
        # relative to each matrix's own largest singular value.
        stacked = np.vstack([M, extra])
        tol = rank_tolerance(stacked)
        assert numerical_rank(stacked, tol) >= numerical_rank(M, tol)
        assert numerical_rank(stacked, tol) <= numerical_rank(M, tol) + extra.shape[0]

    def test_hidden_column_rank_independent_of_horizon(self):
        assert sweep_hidden_rank_identity(40, seed=90210) == 40


class TestNullBasis:
    def test_sum_sensor_null_direction(self, sys_line2_sum):
        O_ob = build_bundle(sys_line2_sum).O_ob
        kern = null_basis(O_ob)
        assert kern.rank == 1
        assert kern.N.shape == (2, 1)
        np.testing.assert_allclose(kern.N.T @ kern.N, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(np.abs(kern.N[:, 0]), [2 ** -0.5, 2 ** -0.5], atol=1e-12)
        assert kern.N[0, 0] == pytest.approx(-kern.N[1, 0])
        np.testing.assert_allclose(O_ob @ kern.N, 0.0, atol=1e-12)
        assert kern.norm == pytest.approx(np.linalg.norm(O_ob, 2))

    def test_shapes_and_cutoffs(self):
        full = null_basis(np.eye(3))
        assert (full.rank, full.N.shape) == (3, (3, 0))
        assert full.tol == rank_tolerance(np.eye(3))
        wide = null_basis(np.ones((1, 3)))
        assert (wide.rank, wide.N.shape) == (1, (3, 2))
        np.testing.assert_allclose(wide.N.T @ wide.N, np.eye(2), atol=1e-12)
        assert 0.0 < wide.row_tol <= 0.5
        empty = null_basis(np.zeros((0, 2)))
        assert (empty.rank, empty.N.shape, empty.row_tol) == (0, (2, 2), 0.0)

    def test_tol_is_the_cutoff_on_singular_values(self):
        M = np.diag([1.0, 1e-13])
        assert null_basis(M).rank == 2
        kern = null_basis(M, tol=1e-10)
        assert kern.rank == 1
        np.testing.assert_allclose(np.abs(kern.N[:, 0]), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_ranks_match_separate_null_bases(self, seed):
        # Zero and repeated rows of X stay zero and repeated in its Q factor,
        # so row subsets of the basis span anywhere from 0 to k dimensions.
        rng = np.random.default_rng(seed)
        n = 6
        for k in range(n + 1):
            X = rng.standard_normal((n, k))
            X[rng.random(n) < 0.3] = 0.0
            X[1] = X[0]
            N = np.linalg.qr(X)[0]
            for row_tol in (1e-10, 0.0, 1e-13, 1e-8, 1e-3):
                kern = NullBasis(rank=n - k, N=N, tol=1e-12, row_tol=row_tol, norm=1.0)
                for size in range(n + 1):
                    sets = list(itertools.combinations(range(n), size))
                    ranks = kern.row_ranks(np.array(sets, dtype=np.intp).reshape(len(sets), size))
                    assert ranks.shape == (len(sets),)
                    for P, rank in zip(sets, ranks):
                        assert rank == null_basis(N[list(P)], kern.row_tol).rank
                        assert hidden_ranks([kern], P) == [n - size - k + rank]

    @pytest.mark.parametrize("basis", ["diagonal", "rotated"])
    @pytest.mark.parametrize("side", ["below", "at", "above"])
    def test_cutoff_ties_are_ranked_on_the_full_path(self, monkeypatch, basis, side):
        # A singular value of N_P placed just below, at and just above the row
        # cutoff.  The values without U and Vt may differ from those of
        # null_basis in the last bits, so such a set must be ranked again with
        # U and Vt, and the count must be the one null_basis reads.
        rng = np.random.default_rng(37)
        n, k = 5, 3
        if basis == "diagonal":
            N = np.zeros((n, k))
            N[[0, 1, 2], [0, 1, 2]] = [1.0, 0.5, 3e-9]
            N[3:] = rng.standard_normal((2, k))
        else:
            N = np.linalg.qr(rng.standard_normal((n, k)))[0]
        sets = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp)
        sigma = np.linalg.svd(N[sets[0]], full_matrices=False)[1][-1]
        row_tol = {"below": np.nextafter(sigma, 0.0), "at": sigma, "above": np.nextafter(sigma, 1.0)}[side]
        kern = NullBasis(rank=n - k, N=N, tol=1e-12, row_tol=float(row_tol), norm=1.0)
        other = NullBasis(rank=n - k, N=N[::-1].copy(), tol=1e-12, row_tol=1e-10, norm=1.0)

        # (matrices in the stack, U and Vt formed) and the stack of each SVD call
        calls, stacks = [], []
        svd = np.linalg.svd

        def counted_svd(M, *args, **kwargs):
            calls.append((M.shape[0], kwargs.get("compute_uv", True)))
            stacks.append(M)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        ranks = kern.row_ranks(sets)
        # The tie set is not certified and reaches the first SVD, without U
        # and Vt; no certified set reaches any SVD.
        certified = obsv._full_rank_certified(N[sets], kern.row_tol)
        assert not certified[0]
        assert calls[0][1] is False
        assert any(np.array_equal(M, N[sets[0]]) for M in stacks[0])
        ranked = [M for stack in stacks for M in stack]
        assert not any(np.array_equal(M, N[P]) for P in sets[certified] for M in ranked)
        assert 1 <= sum(count for count, uv in calls[1:] if uv) < len(sets)
        calls.clear()
        hidden = hidden_ranks([kern, other], sets[0])
        assert calls == [(2, False), (1, True)]
        monkeypatch.setattr(np.linalg, "svd", svd)

        for P, rank in zip(sets, ranks):
            assert rank == null_basis(N[P], kern.row_tol).rank
        want = null_basis(N[sets[0]], kern.row_tol).rank
        assert want == (3 if side == "below" else 2)
        assert hidden[0] == n - 3 - k + want
        assert hidden[1] == n - 3 - k + null_basis(other.N[sets[0]], other.row_tol).rank

    @pytest.mark.parametrize("shape", [(3, 6), (9, 6), (6, 6), (0, 4)])
    def test_stacked_bases_match_one_matrix_bases(self, shape):
        # Each matrix of the stack has its own rank, from 0 up to full.
        rng = np.random.default_rng(17)
        rows, n = shape
        stack = np.array([
            rng.standard_normal((rows, r)) @ rng.standard_normal((r, n)) for r in range(min(shape) + 1)
        ])
        for tol in (None, 1e-3):
            for M, got in zip(stack, null_bases(stack, tol)):
                want = null_basis(M, tol)
                assert (got.rank, got.tol, got.row_tol, got.norm) == (
                    want.rank, want.tol, want.row_tol, want.norm
                )
                np.testing.assert_array_equal(got.N, want.N)

    @pytest.mark.parametrize("shape", [(3, 6), (9, 6), (6, 6), (0, 4), (4, 0), (0, 0)])
    @pytest.mark.parametrize("tol", [None, 0.0, 1e-3])
    def test_stacked_read_off_matches_per_matrix_loop(self, shape, tol):
        # The read-off of cutoffs, ranks and norms over the whole stack gives
        # the fields, bit for bit, of a loop that reads one matrix at a time.
        def reference(M, tol):
            count, rows, n = M.shape
            if min(rows, n) == 0:
                s, Vt = np.zeros((count, 0)), np.tile(np.eye(n), (count, 1, 1))
            else:
                _, s, Vt = np.linalg.svd(M, full_matrices=rows < n)
            out = []
            for s_j, Vt_j in zip(s, Vt):
                norm = float(s_j[0]) if s_j.size else 0.0
                cut = norm * max(rows, n) * np.finfo(float).eps if tol is None else tol
                rank = int(np.count_nonzero(s_j > cut))
                row_tol = min(ROW_TOL_FACTOR * cut / float(s_j[rank - 1]), 0.5) if rank else 0.0
                out.append((rank, Vt_j[rank:].T, float(cut), row_tol, norm))
            return out

        rng = np.random.default_rng(29)
        rows, n = shape
        stack = np.stack([
            rng.standard_normal((rows, r)) @ rng.standard_normal((r, n)) for r in range(min(shape) + 1)
        ] + [np.zeros(shape)])
        got = null_bases(stack, tol)
        want = reference(stack, tol)
        assert len(got) == len(want) == len(stack)
        for kern, (rank, N, cut, row_tol, norm) in zip(got, want):
            assert (kern.rank, kern.tol, kern.row_tol, kern.norm) == (rank, cut, row_tol, norm)
            assert [type(v) for v in kern[2:]] == [float] * 3 and type(kern.rank) is int
            np.testing.assert_array_equal(kern.N, N)
        assert null_bases(np.zeros((0, 3, 2)), tol) == []

    def test_hidden_ranks_match_each_kernel(self):
        # Kernels with null spaces of different dimensions share one call.
        rng = np.random.default_rng(23)
        n = 6
        kernels = [
            null_basis(rng.standard_normal((n, r)) @ rng.standard_normal((r, n)))
            for r in (2, 4, 2, 6, 0, 4, 5)
        ]
        for size in range(n + 1):
            for rows in itertools.combinations(range(n), size):
                assert hidden_ranks(kernels, rows) == [
                    n - size - kern.N.shape[1] + null_basis(kern.N[list(rows)], kern.row_tol).rank
                    for kern in kernels
                ]
        assert hidden_ranks([], (0,)) == []

    def test_not_exported(self):
        import ivpaudit

        assert "null_basis" not in ivpaudit.__all__

    def test_single_and_empty_stacks_skip_the_certificate(self, monkeypatch):
        # A one-set stack (a node verdict) goes straight to the SVD, and an
        # empty stack returns before any linear algebra.
        N = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 3)))[0]
        kern = NullBasis(rank=2, N=N, tol=1e-12, row_tol=1e-10, norm=1.0)
        calls = []
        svd = np.linalg.svd

        def counted_svd(M, *args, **kwargs):
            calls.append(M.shape)
            return svd(M, *args, **kwargs)

        def refuse(M, tol):
            raise AssertionError("certificate called")

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(obsv, "_full_rank_certified", refuse)
        assert kern.row_ranks(np.array([[0, 2, 4]])).tolist() == [3]
        assert calls == [(1, 3, 3)]
        calls.clear()
        empty = kern.row_ranks(np.zeros((0, 2), dtype=np.intp))
        assert empty.shape == (0,) and calls == []


class TestFullRankCertificate:
    @pytest.mark.parametrize("seed", range(2))
    def test_never_certifies_a_short_count(self, seed):
        # Every row subset of random bases and of the same bases rotated by a
        # random orthogonal k x k matrix, at each row cutoff: a certified
        # matrix has full count on the path null_basis takes.
        rng = np.random.default_rng(seed)
        certified = full = 0
        for n in range(3, 9):
            for k in range(1, n + 1):
                N = sweep_basis(rng, n, k)
                G = np.linalg.qr(rng.standard_normal((k, k)))[0]
                for basis in (N, N @ G):
                    for size in range(1, n + 1):
                        M = basis[np.array(list(itertools.combinations(range(n), size)))]
                        for tol in ROW_TOLS:
                            cert = obsv._full_rank_certified(M, tol)
                            counts = full_path_ranks(M, tol)
                            assert (counts[cert] == min(size, k)).all()
                            certified += int(cert.sum())
                            full += int((counts == min(size, k)).sum())
        # The certificate also decides most full-rank matrices.
        assert certified > 0.6 * full

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 5), (5, 3)])
    @pytest.mark.parametrize("basis", ["diagonal", "rotated"])
    @pytest.mark.parametrize("smallest", [0.5, 1e-9])
    def test_singular_value_at_the_band_edge(self, shape, basis, smallest):
        # sigma_min placed one ulp below, at and one ulp above tol + eta:
        # at or below it, the matrix is not certified.  For the 2 x 2 diagonal
        # matrix with sigma_min = 1e-9 the bound is within eta of sigma_min.
        rng = np.random.default_rng(43)
        rows, k = shape
        d = min(shape)
        M = np.zeros(shape)
        M[range(d), range(d)] = np.linspace(1.0, 0.5, d)
        M[d - 1, d - 1] = smallest
        if basis == "rotated":
            M = np.linalg.qr(rng.standard_normal((rows, rows)))[0] @ M
            M = M @ np.linalg.qr(rng.standard_normal((k, k)))[0]
        s_min = np.linalg.svd(M, full_matrices=rows < k)[1][-1]
        eta = GUARD_FACTOR * rank_tolerance(M, np.sqrt(np.einsum("ij,ij->", M, M)))
        tol = s_min - eta
        for _ in range(4):
            tol = np.nextafter(tol, 0.0)
        seen = set()
        for _ in range(9):
            edge = tol + eta
            side = "below" if s_min < edge else "at" if s_min == edge else "above"
            seen.add(side)
            cert = obsv._full_rank_certified(M[np.newaxis], float(tol))[0]
            if side != "above":
                assert not cert
            tol = np.nextafter(tol, 1.0)
        assert seen == {"below", "at", "above"}

    @pytest.mark.parametrize("d", [8, 10, 12])
    def test_worst_growth_matrix_below_the_cutoff(self, d):
        # Wilkinson's matrix has growth 2^(d-1) under partial pivoting.  Scaled
        # so that sigma_min sits just below the cutoff, it is not certified.
        W = np.eye(d) - np.tril(np.ones((d, d)), -1)
        W[:, -1] = 1.0
        tol = 1e-3
        M = W * (tol / np.linalg.svd(W, compute_uv=False)[-1]) * (1 - 1e-12)
        assert full_path_ranks(M[np.newaxis], tol)[0] < d
        assert not obsv._full_rank_certified(M[np.newaxis], tol)[0]

    def test_lu_growth_term_keeps_a_near_singular_gram_uncertified(self):
        # sigma_min = 1e-2 gives a Gram determinant of 1e-4, and the bound
        # divides it by s^20 with s = ||B||_1 near 2.2, so about 1e-11 of it
        # is left: less than the LU error term e_LU with its 2^(d-1) growth
        # factor (about 1e-6), more than the term without it (about 1e-12).
        rng = np.random.default_rng(21)
        U, V = (np.linalg.qr(rng.standard_normal((21, 21)))[0] for _ in range(2))
        M = U @ np.diag([1.0] * 20 + [1e-2]) @ V.T
        assert full_path_ranks(M[np.newaxis], 0.0)[0] == 21
        assert not obsv._full_rank_certified(M[np.newaxis], 0.0)[0]

    def test_slack_keeps_the_bound_below_its_unslacked_value(self, monkeypatch):
        # Without _CERT_SLACK the certificate holds up to a cutoff t*, found
        # by bisection to the last bit.  Each term's slack of 2^-20 lowers
        # the real cutoff by a few 1e-6 of t*, so 1e-7 below t* is uncertified.
        rng = np.random.default_rng(59)
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0][:3]
        M = (U @ np.diag([1.0, 0.7, 0.4]) @ V)[np.newaxis]
        real = obsv._full_rank_certified
        monkeypatch.setattr(obsv, "_CERT_SLACK", 0.0)
        lo, hi = 0.0, 1.0
        assert real(M, lo)[0] and not real(M, hi)[0]
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if real(M, mid)[0] else (lo, mid)
        t_star = lo * (1 - 1e-7)
        assert 0.2 < lo < 0.4 and real(M, t_star)[0]  # sigma_min(M) = 0.4
        monkeypatch.undo()
        assert not real(M, t_star)[0]

    @pytest.mark.parametrize("sign", [1, -1], ids=["large", "small"])
    def test_only_the_scale_range_is_certified(self, monkeypatch, sign):
        # ||M||_F^2 = 2^(+-399) lies within the factor _CERT_SCALE = 2^400 of
        # 1 and is certified; 2^(+-401) lies outside and is not, although the
        # bound would hold there (as a wider range shows).
        def cert(e):
            M = np.eye(2)[np.newaxis] * 2.0 ** (sign * e / 2 - 0.5)  # ||M||_F^2 = 2^(sign e)
            return obsv._full_rank_certified(M, 0.0)[0]

        assert cert(399) and not cert(401)
        monkeypatch.setattr(obsv, "_CERT_SCALE", 2.0**1000)
        assert cert(401)


class TestSelectors:
    def test_selector_columns(self):
        sel = Selector.for_nodes(4, (2, 0))
        assert sel.E_P.T.tolist() == [[0, 0, 1, 0], [1, 0, 0, 0]]
        assert sel.E_Pbar.T.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]

    def test_select_columns_both_sides(self):
        M = np.arange(12, dtype=float).reshape(3, 4)
        sel = Selector.for_nodes(4, (1,))
        assert select_columns(M, sel, "public").tolist() == M[:, [1]].tolist()
        assert select_columns(M, sel, "unpublic").tolist() == M[:, [0, 2, 3]].tolist()

    def test_unselected_nonfinite_column_ignored(self):
        sel = Selector.for_nodes(2, (1,))
        assert select_columns(np.array([[np.inf, 1.0]]), sel, "public").tolist() == [[1.0]]

    def test_empty_disclosure(self):
        sel = Selector.for_nodes(3, ())
        assert sel.E_P.shape == (3, 0)
        assert np.array_equal(sel.E_Pbar, np.eye(3))

    def test_dimension_mismatch_rejected(self):
        sel = Selector.for_nodes(3, (0,))
        with pytest.raises(ValidationError, match="columns"):
            select_columns(np.eye(4), sel)

    def test_bad_which_rejected(self):
        sel = Selector.for_nodes(3, (0,))
        with pytest.raises(ValidationError, match="which"):
            select_columns(np.eye(3), sel, "other")
