"""Exact rank-based privacy verdicts and the privacy index."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ivpaudit import (
    DisclosureSet,
    LinearSystem,
    NetworkStructure,
    ValidationError,
    instantiate,
    node_private,
    privacy_index,
    privacy_index_bruteforce,
    sample_configuration,
    whole_vector_private,
)
from ivpaudit import ConditioningError, intrinsic
from ivpaudit.obsv import NullBasis, build_bundle, hidden_ranks, null_basis
from conftest import (
    TREE4_SPECIAL_THETA,
    random_structure,
    random_system,
    sweep_condition_equivalence,
    sweep_index_agreement,
)


def exact_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_private(system: LinearSystem, i: int, P: tuple) -> bool:
    """Condition b with O_ob formed in exact arithmetic from the float weights."""
    A = [[Fraction(float(x)) for x in row] for row in system.A]
    block = [[Fraction(float(x)) for x in row] for row in system.C]
    O = []
    for _ in range(system.n):
        O += block
        block = [[sum(b * a for b, a in zip(row, col)) for col in zip(*A)] for row in block]
    hidden = [j for j in range(system.n) if j not in P]
    others = [j for j in hidden if j != i]
    return exact_rank([[r[j] for j in others] for r in O]) == exact_rank(
        [[r[j] for j in hidden] for r in O]
    )


def chain_with_isolated(n_chain: int, n_isolated: int) -> LinearSystem:
    """Path graph measured at its far end, plus unobservable isolated nodes."""
    n = n_chain + n_isolated
    A = np.zeros((n, n))
    for i in range(n_chain - 1):
        A[i + 1, i] = 1.0
    C = np.zeros((1, n))
    C[0, n_chain - 1] = 1.0
    return LinearSystem(n=n, m=1, A=A, C=C)


def reference_level_holds(O_ob, kern, n: int, level: int) -> bool:
    """Set-by-set scan: every disclosure set of size ``level`` leaves a node
    that the single-node test calls private."""
    return all(
        any(
            intrinsic._evaluate_node(O_ob, kern, j, DisclosureSet(P), "c_prime", False).private
            for j in range(n)
            if j not in P
        )
        for P in itertools.combinations(range(n), level)
    )


def assert_levels_match_reference(system: LinearSystem, rank_tol=None) -> None:
    """The blocked enumeration decides every level as the set-by-set scan does."""
    O_ob = build_bundle(system).O_ob
    kern = null_basis(O_ob, rank_tol)
    n = system.n
    expected = [reference_level_holds(O_ob, kern, n, level) for level in range(n)]
    assert [intrinsic._level_holds(kern, n, level) for level in range(n)] == expected
    for l_max in range(n):
        index = next((level - 1 for level in range(l_max + 1) if not expected[level]), l_max)
        assert privacy_index_bruteforce(system, l_max=l_max, rank_tol=rank_tol).index == index


def rotated(system: LinearSystem, rng) -> LinearSystem:
    """The same system in the coordinates of a random orthogonal Q, so its
    null basis is dense."""
    Q = np.linalg.qr(rng.standard_normal((system.n, system.n)))[0]
    return LinearSystem(
        n=system.n, m=system.m, A=Q @ system.A @ Q.T, C=system.C @ Q.T, require_output=False
    )


def rotated_permutation(n: int, hidden: int, seed: int) -> LinearSystem:
    """Cycles on n - hidden measured and on ``hidden`` unmeasured states, in
    random orthogonal coordinates: k = hidden and the null basis is dense."""
    A = np.zeros((n, n))
    for start, size in ((0, n - hidden), (n - hidden, hidden)):
        for j in range(size):
            A[start + (j + 1) % size, start + j] = 1.0
    return rotated(LinearSystem(n=n, m=1, A=A, C=np.eye(1, n)), np.random.default_rng(seed))


def count_row_ranks(monkeypatch) -> list:
    """Record the rows array of every ``NullBasis.row_ranks`` call."""
    calls = []
    row_ranks = NullBasis.row_ranks

    def counting(self, rows):
        calls.append(np.asarray(rows))
        return row_ranks(self, rows)

    monkeypatch.setattr(NullBasis, "row_ranks", counting)
    return calls


class TestNodePrivate:
    def test_unobserved_node_is_private(self):
        system = LinearSystem(n=2, m=1, A=np.zeros((2, 2)), C=[[1.0, 0.0]])
        assert node_private(system, 1, ()).private
        assert not node_private(system, 0, ()).private

    def test_fully_observed_state_has_no_privacy(self):
        system = LinearSystem(n=3, m=3, A=np.zeros((3, 3)), C=np.eye(3))
        for i in range(3):
            assert not node_private(system, i, ()).private

    def test_line3_all_ones_verdicts(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        expected = {0: True, 1: False, 2: True}
        for i, want in expected.items():
            verdict = node_private(system, i, ())
            assert verdict.private is want
            assert verdict.ranks["rank_Opbar"] == 2

    def test_line3_certificate_direction(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        verdict = node_private(system, 0, ())
        eta = verdict.eta / verdict.eta[0]
        np.testing.assert_allclose(eta, [1.0, 0.0, -1.0], atol=1e-10)

    def test_disclosure_can_flip_verdict(self, struct_line3):
        # eta = [1, 0, -1]: publishing node 2 pins node 0, publishing the
        # decoupled node 1 does not.
        system = instantiate(struct_line3, np.ones(5))
        assert node_private(system, 0, (1,)).private
        assert not node_private(system, 0, (2,)).private

    def test_certificate_vanishes_on_disclosed_nodes(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        verdict = node_private(system, 0, (1,))
        assert verdict.eta[1] == 0.0
        assert verdict.eta[0] != 0.0

    def test_tree4_special_config_loses_node4(self, struct_tree4):
        system = instantiate(struct_tree4, TREE4_SPECIAL_THETA)
        assert not node_private(system, 3, ()).private

    def test_tree4_generic_config_keeps_node4(self, struct_tree4):
        system = instantiate(struct_tree4, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        assert node_private(system, 3, ()).private

    def test_conditions_agree_individually(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        for cond in ("b", "c", "c_prime", "all"):
            assert node_private(system, 0, (), condition=cond).private
            assert not node_private(system, 1, (), condition=cond).private

    def test_want_eta_false_skips_certificate(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        verdict = node_private(system, 0, (), want_eta=False)
        assert verdict.private and verdict.eta is None

    def test_verdict_to_dict_one_based(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        d = node_private(system, 0, (2,)).to_dict(one_based=True)
        assert d["node"] == 1
        assert d["P"] == [3]

    def test_node_in_disclosure_rejected(self, sys_line2_sum):
        with pytest.raises(ValidationError, match="disclosure"):
            node_private(sys_line2_sum, 0, (0,))

    def test_node_out_of_range_rejected(self, sys_line2_sum):
        with pytest.raises(ValidationError, match="range"):
            node_private(sys_line2_sum, 2, ())

    def test_bad_condition_rejected(self, sys_line2_sum):
        with pytest.raises(ValidationError, match="condition"):
            node_private(sys_line2_sum, 0, (), condition="d")

    def test_rounding_entry_of_null_basis_stays_not_private(self):
        # Drawn from random_structure(np.random.default_rng(411), n_max=14),
        # with the weight seed from the same stream.  The exact null vector of
        # O_ob is e_1; the computed one has entries near 1e-15 at nodes 2 and
        # 3, which a row cutoff of tol / sigma_r alone reads as privacy.
        structure = NetworkStructure(
            n=4,
            m=1,
            edges=((3, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2), (2, 3)),
            sensor_edges=((2, 0),),
        )
        system = instantiate(structure, sample_configuration(structure, seed=4003292661))
        for i, P in ((3, (0,)), (3, (2,)), (2, (3,))):
            assert not exact_private(system, i, P)
            assert not node_private(system, i, P).private
        assert node_private(system, 1, (0, 2, 3)).private
        assert exact_private(system, 1, (0, 2, 3))

    def test_monotone_loss_under_superset(self):
        # Once a node's privacy is lost it stays lost under larger disclosures.
        rng = np.random.default_rng(411)
        checked = 0
        while checked < 25:
            system = random_system(rng)
            n = system.n
            if n < 3:
                continue
            i = int(rng.integers(n))
            others = [j for j in range(n) if j != i]
            rng.shuffle(others)
            small = tuple(others[:1])
            large = tuple(others[:2])
            if not node_private(system, i, small).private:
                assert not node_private(system, i, large).private
            checked += 1


class TestWholeVector:
    def test_sum_sensor_is_private(self, sys_line2_sum):
        verdict = whole_vector_private(sys_line2_sum)
        assert verdict.private
        assert verdict.ranks == {"rank_Oob": 1, "n": 2}
        eta = verdict.eta / np.linalg.norm(verdict.eta)
        np.testing.assert_allclose(np.abs(eta), [1, 1] / np.sqrt(2), atol=1e-10)

    def test_observable_system_is_not(self, sys_line2_first):
        verdict = whole_vector_private(sys_line2_first)
        assert not verdict.private
        assert verdict.eta is None
        assert verdict.ranks == {"rank_Oob": 2, "n": 2}


class TestAudit:
    def test_matches_the_single_verdicts(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        report = intrinsic.audit(system, [0, 1], (2,))
        assert report.whole.to_dict() == whole_vector_private(system).to_dict()
        assert report.index.to_dict() == privacy_index(system).to_dict()
        assert [v.to_dict() for v in report.nodes] == [
            node_private(system, i, (2,)).to_dict() for i in (0, 1)
        ]
        assert intrinsic.audit(system).nodes == ()

    def test_one_bundle_and_one_kernel(self, monkeypatch, sys_line2_sum):
        calls = []

        def counted(name):
            fn = getattr(intrinsic, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("build_bundle", "null_basis"):
            monkeypatch.setattr(intrinsic, name, counted(name))
        intrinsic.audit(sys_line2_sum, [0, 1])
        # One null_basis of O_ob, and one of N_P per node verdict.
        assert calls == ["build_bundle", "null_basis", "null_basis", "null_basis"]

    @pytest.mark.parametrize(
        "nodes, P, message",
        [
            ((), (2,), "disclosure: node 2 out of range"),
            ((), (1, 1), "duplicate"),
            ((0, 5), (), "node: index 5 out of range"),
            ((0, 1), (1,), "node: 1 is in the disclosure set"),
            (("x",), (), "node: expected an integer"),
            (3, (), "nodes: expected a sequence"),
        ],
    )
    def test_checks_before_building(self, monkeypatch, sys_line2_sum, nodes, P, message):
        monkeypatch.setattr(intrinsic, "build_bundle", None)  # reached only after the checks
        with pytest.raises(ValidationError, match=message):
            intrinsic.audit(sys_line2_sum, nodes, P)


class TestPrivacyIndex:
    def test_identity_output_index(self):
        system = LinearSystem(n=3, m=3, A=np.zeros((3, 3)), C=np.eye(3))
        report = privacy_index(system)
        assert report.index == -1
        assert report.note == "no level-0 privacy"
        assert privacy_index_bruteforce(system).index == -1

    def test_single_dark_node(self):
        system = LinearSystem(
            n=2, m=1, A=np.zeros((2, 2)), C=[[1.0, 0.0]]
        )
        assert privacy_index(system).index == 0
        assert privacy_index_bruteforce(system).index == 0

    def test_line3_all_ones_index(self, struct_line3):
        system = instantiate(struct_line3, np.ones(5))
        assert privacy_index(system).index == 0
        assert privacy_index_bruteforce(system).index == 0

    def test_unmeasured_system_maximal_index(self):
        system = LinearSystem(
            n=3, m=1, A=np.eye(3), C=np.zeros((1, 3)), require_output=False
        )
        report = privacy_index(system)
        assert report.index == 2
        assert report.rank_Oob == 0

    def test_chain_with_isolated_nodes(self):
        # 17-node observable chain plus 3 isolated nodes: rank 17, index 2.
        system = chain_with_isolated(17, 3)
        formula = privacy_index(system)
        brute = privacy_index_bruteforce(system, l_max=3)
        assert formula.rank_Oob == 17
        assert formula.index == 2
        assert brute.index == 2

    def test_l_max_caps_the_scan(self):
        system = chain_with_isolated(4, 3)
        assert privacy_index(system).index == 2
        assert privacy_index_bruteforce(system, l_max=1).index == 1

    def test_bruteforce_node_cap(self):
        system = chain_with_isolated(23, 0)
        with pytest.raises(ValidationError, match="22"):
            privacy_index_bruteforce(system)

    def test_formula_matches_bruteforce_sweep(self):
        assert sweep_index_agreement(30, seed=2024) == 30


class TestBlockedEnumeration:
    @pytest.mark.parametrize(
        "system",
        [
            pytest.param(LinearSystem(n=3, m=3, A=np.zeros((3, 3)), C=np.eye(3)), id="k0"),
            pytest.param(LinearSystem(n=1, m=1, A=[[0.5]], C=[[1.0]]), id="n1-observable"),
            pytest.param(
                LinearSystem(n=1, m=1, A=[[0.5]], C=[[0.0]], require_output=False), id="n1-unmeasured"
            ),
            pytest.param(
                LinearSystem(n=4, m=1, A=np.eye(4), C=np.zeros((1, 4)), require_output=False),
                id="unmeasured",
            ),
            # The one failing 3-set, the isolated nodes {6, 7, 8}, is the last.
            pytest.param(chain_with_isolated(6, 3), id="failing-set-last"),
        ],
    )
    def test_edge_cases_match_reference(self, system):
        assert_levels_match_reference(system)

    @pytest.mark.parametrize("max_block", [intrinsic.MAX_BLOCK, 16])
    def test_random_systems_match_reference(self, max_block, monkeypatch):
        monkeypatch.setattr(intrinsic, "MAX_BLOCK", max_block)
        rng = np.random.default_rng(5)
        for _ in range(150):
            assert_levels_match_reference(random_system(rng))

    @pytest.mark.parametrize("rank_tol", [0, 1e-8, 1e-3])
    def test_random_and_rotated_systems_match_reference_at_cutoffs(self, rank_tol):
        # A full-rank first test stands in for rank(N_P) by interlacing; at
        # rank_tol 0 the row cutoff is 0 too, where that holds up to rounding.
        rng = np.random.default_rng(6)
        for draw in range(80):
            system = random_system(rng)
            assert_levels_match_reference(rotated(system, rng) if draw % 2 else system, rank_tol)

    def test_failing_first_set_stops_after_the_first_block(self, monkeypatch):
        # Reversing chain_with_isolated(13, 3) puts the isolated nodes at 0,
        # 1 and 2, so the first 3-set (0, 1, 2) already leaves no node private.
        # One block holding the whole level would rank all C(16, 3) sets.
        base = chain_with_isolated(13, 3)
        system = LinearSystem(n=16, m=1, A=base.A[::-1, ::-1], C=base.C[:, ::-1])
        n, level = system.n, 3
        kern = null_basis(build_bundle(system).O_ob)
        ranked = []
        row_ranks = NullBasis.row_ranks

        def counting(self, rows):
            ranked.append(len(rows))
            return row_ranks(self, rows)

        monkeypatch.setattr(NullBasis, "row_ranks", counting)
        assert not intrinsic._level_holds(kern, n, level)
        bound = intrinsic.FIRST_BLOCK * (n - level) + intrinsic.FIRST_BLOCK
        assert sum(ranked) <= bound < math.comb(n, level)

    def test_full_rank_first_test_ranks_each_set_once(self, monkeypatch):
        # With a dense null basis every first test N_{P+j} has full rank
        # below k, which proves rank(N_P) = |P|: each set is ranked once.
        system = rotated_permutation(16, 5, seed=11)
        n = system.n
        kern = null_basis(build_bundle(system).O_ob)
        assert kern.N.shape[1] == 5
        calls = count_row_ranks(monkeypatch)
        for level in range(5):
            calls.clear()
            assert intrinsic._level_holds(kern, n, level)
            assert sum(len(rows) for rows in calls) == math.comb(n, level)

    def test_certified_levels_make_no_svd_call(self, monkeypatch):
        # Every first test N_{P+j} of a dense null basis at levels below k is
        # certified full rank, and no set is short, so no SVD runs.  Level 0
        # has one set, and a one-set stack goes straight to the SVD.
        system = rotated_permutation(16, 5, seed=11)
        kern = null_basis(build_bundle(system).O_ob)
        calls = []
        svd = np.linalg.svd

        def counted_svd(M, *args, **kwargs):
            calls.append(M.shape)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for level in range(5):
            assert intrinsic._level_holds(kern, system.n, level)
        assert calls == [(1, 1, 5)]

    def test_short_first_test_still_ranks_the_disclosure_set(self, monkeypatch):
        # Chain nodes 0-5 have zero rows of N, so every first test (hidden
        # node 0 or 1) falls short and each set's rank(N_P) is computed; the
        # verdicts rank(N_{P+j}) == rank(N_P) + 1 then find an isolated node.
        system = chain_with_isolated(6, 3)
        n = system.n
        kern = null_basis(build_bundle(system).O_ob)
        calls = count_row_ranks(monkeypatch)
        for level in range(3):
            calls.clear()
            assert intrinsic._level_holds(kern, n, level)
            disclosed = sorted(tuple(P) for rows in calls if rows.shape[1] == level for P in rows)
            assert disclosed == list(itertools.combinations(range(n), level))


def full_scan_index(system: LinearSystem, rank_tol=None) -> int:
    """Index from ``_level_holds`` on every row of N, level by level."""
    kern = null_basis(build_bundle(system).O_ob, rank_tol)
    n = system.n
    failing = (level for level in range(n) if not intrinsic._level_holds(kern, n, level))
    return next(failing, n) - 1


class TestSupportScan:
    @pytest.mark.parametrize(
        "rank_tol",
        [
            None,
            # Draw 38 (n = 10, two exactly zero rows of N): with a row cutoff
            # of 0 the full scan counts the SVD rounding of a zero row in
            # N_P (sigma_4 = 1.3e-17) as rank, so level 4 fails there while
            # level 5 holds.  The support scan reads index 5, the full scan 3.
            pytest.param(
                0, marks=pytest.mark.xfail(strict=True, reason="rounding of a zero row at row cutoff 0")
            ),
            1e-8,
            1e-3,
        ],
    )
    def test_support_scan_matches_full_scan(self, rank_tol):
        # Random and rotated systems and sparser instantiated structures at
        # n <= 12: privacy_index_bruteforce, which enumerates only the rows
        # of N above its support cutoff, reads the index of the full scan.
        rng = np.random.default_rng(29)
        for draw in range(60):
            if draw % 3 == 2:
                structure = random_structure(rng, n_max=12, m_max=3, density=0.15)
                config = sample_configuration(structure, seed=int(rng.integers(2**32)))
                system = instantiate(structure, config)
            else:
                system = random_system(rng, n_max=12)
                system = rotated(system, rng) if draw % 3 else system
            index = privacy_index_bruteforce(system, rank_tol=rank_tol).index
            assert index == full_scan_index(system, rank_tol), f"draw {draw}"

    def test_chain_rows_are_never_enumerated(self, monkeypatch):
        # The chain's rows of N are zero, so every set ranked is a row subset
        # of the 11 isolated rows: levels 0-10 hold, each set's first test is
        # full rank, and the scan ranks sum_{l <= 10} C(11, l) = 2^11 - 1 sets.
        system = chain_with_isolated(11, 11)
        kern = null_basis(build_bundle(system).O_ob)
        ranked = []
        row_ranks = NullBasis.row_ranks

        def recording(self, rows):
            ranked.append((self.N, np.asarray(rows)))
            return row_ranks(self, rows)

        monkeypatch.setattr(NullBasis, "row_ranks", recording)
        assert privacy_index_bruteforce(system).index == 10
        assert all(np.array_equal(N, kern.N[11:]) for N, _ in ranked)
        assert sum(len(rows) for _, rows in ranked) == 2**11 - 1


class TestRankTolerance:
    def test_rank_tol_flips_every_verdict_together(self):
        system = LinearSystem(n=2, m=2, A=np.zeros((2, 2)), C=np.diag([1.0, 1e-13]))
        assert not whole_vector_private(system).private
        assert privacy_index(system).index == -1
        assert not node_private(system, 1, ()).private
        assert whole_vector_private(system, rank_tol=1e-10).private
        assert privacy_index(system, rank_tol=1e-10).index == 0
        verdict = node_private(system, 1, (), rank_tol=1e-10)
        assert verdict.private
        np.testing.assert_allclose(verdict.eta, [0.0, 1.0])

    def test_eta_residual_bound_lies_between_1e_10_and_1e_6(self):
        """``ETA_RESIDUAL_RTOL`` (1e-8) pinned from both sides.  With A = 0 the
        certificate e_2 leaves the residual sigma_2 against ||O_ob|| = 1: a
        cutoff that drops sigma_2 = 1e-6 is refused, one that drops 1e-10 is
        certified.  ROADMAP item 4 makes the bound follow the cutoff, which
        moves this pin."""

        def system(c2):
            return LinearSystem(n=2, m=2, A=np.zeros((2, 2)), C=np.diag([1.0, c2]))

        with pytest.raises(ConditioningError, match="certificate residual 1.000e-06 exceeds"):
            node_private(system(1e-6), 1, (), rank_tol=1e-5)
        verdict = node_private(system(1e-10), 1, (), rank_tol=1e-9)
        assert verdict.private
        np.testing.assert_allclose(verdict.eta, [0.0, 1.0])

    def test_small_gap_keeps_unit_rows_of_the_null_basis(self):
        # sigma_2 = 1e-14 is just above the default cutoff (2e-15), so the
        # error bound on the null basis exceeds 1.  The exact null vector e_3
        # must still make node 3 private, as the whole vector is.
        system = LinearSystem(n=3, m=3, A=np.zeros((3, 3)), C=np.diag([1.0, 1e-14, 0.0]))
        assert whole_vector_private(system).private
        assert node_private(system, 2, ()).private
        assert node_private(system, 0, (2,)).ranks == {
            "rank_Opbar": 2,
            "rank_minus_i": 1,
            "rank_with_ei": 2,
        }


class TestConditionEquivalence:
    def test_sweep_with_certificates(self):
        cases, private_cases = sweep_condition_equivalence(50, seed=3003)
        assert cases == 50
        assert private_cases > 0


def reference_node_dict(system, i, P, condition, rank_tol, want_eta) -> dict:
    """Node verdict with each rank from its own SVD of the rows of N: rank(N_P)
    and rank(N_{P+i}) for the verdict, and a third for the certificate eta."""
    O_ob = build_bundle(system).O_ob
    kern = null_basis(O_ob, rank_tol)
    rank_Opbar = hidden_ranks([kern], P)[0]
    rank_minus_i = hidden_ranks([kern], P + (i,))[0]
    private = rank_minus_i == rank_Opbar
    out = {
        "node": i,
        "P": list(P),
        "private": private,
        "ranks": {
            "rank_Opbar": rank_Opbar,
            "rank_minus_i": rank_minus_i,
            "rank_with_ei": rank_Opbar + private,
        },
        "certified_by": "b" if condition == "all" else condition,
    }
    if private and want_eta:
        B = kern.N @ null_basis(kern.N[list(P)], kern.row_tol).N
        eta = B @ B[i]
        eta /= eta[i]
        eta[list(P)] = 0.0
        scale = kern.norm * max(1.0, float(np.linalg.norm(eta)))
        residual = float(np.linalg.norm(O_ob @ eta))
        if not residual <= intrinsic.ETA_RESIDUAL_RTOL * max(scale, np.finfo(float).tiny):
            raise ConditioningError(
                f"certificate residual {residual:.3e} exceeds tolerance; "
                "rank decision is too close to the cutoff"
            )
        out["eta"] = [float(v) for v in eta]
    return out


def outcome(fn, *args):
    """fn(*args), or the message of the ConditioningError it raised."""
    try:
        return fn(*args)
    except ConditioningError as exc:
        return ("ConditioningError", str(exc))


class TestNodeMatchesReference:
    """One null basis of N_P serves the verdict and eta, with the verdicts,
    ranks and certificates of separate SVDs, bit for bit."""

    def test_verdicts_equal_separate_svds(self):
        # Disclosure sets: empty, drawn, and every node but i.  rank_tol 1e-3
        # also reaches certificates whose residual check fails.
        rng = np.random.default_rng(2300)
        outcomes = []
        for _ in range(120):
            system = random_system(rng, n_min=2, n_max=16)
            n = system.n
            i = int(rng.integers(n))
            others = [j for j in range(n) if j != i]
            drawn = rng.choice(others, size=int(rng.integers(0, n)), replace=False)
            for P in ((), tuple(int(j) for j in drawn), tuple(others)):
                for rank_tol in (None, 0.0, 1e-3):
                    condition = str(rng.choice(["b", "c", "c_prime", "all"]))
                    for want_eta in (True, False):
                        args = (system, i, P, condition, rank_tol, want_eta)
                        got = outcome(lambda: node_private(*args).to_dict())
                        want = outcome(reference_node_dict, *args)
                        assert got == want
                        outcomes.append(want)
        assert sum(isinstance(o, dict) and "eta" in o for o in outcomes) >= 30
        assert sum(isinstance(o, tuple) for o in outcomes) >= 5
