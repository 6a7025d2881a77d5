"""Gaussian tail utilities, budget checks, calibration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ivpaudit import (
    ConditioningError,
    DpBudget,
    LinearSystem,
    NoiseModel,
    ValidationError,
    build_bundle,
    calibrate_sigma_omega,
    check_dp,
    delta_min,
    effective_covariance,
    empirical_dp_report,
    kappa,
    mle_attack,
    node_private,
    privacy_index,
    privacy_index_bruteforce,
    q_function,
    q_inverse,
    simulate,
    whole_vector_private,
)
from ivpaudit import dp, obsv
from ivpaudit.dp import _noise_covariance, stacked_noise_covariance
from ivpaudit.obsv import stacked_maps
from ivpaudit.sim import _analytic_cell_probs
from conftest import general_noise_system

# kappa(1, 0.05), frozen from the bisection oracle below.
KAPPA_1_005 = 1.9070400457036372


def q_by_quadrature(w: float) -> float:
    """Tail mass as a literal integral of the normal density."""
    pdf = lambda u: np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    val, _ = quad(pdf, w, np.inf, epsabs=1e-14, epsrel=1e-13)
    return val


def q_inverse_by_bisection(p: float) -> float:
    """Invert the tail by bisection, independent of erfcinv."""
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_by_quadrature(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_iid(A, C, sigma_nu, sigma_omega) -> LinearSystem:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return LinearSystem(
        n=A.shape[0],
        m=C.shape[0],
        A=A,
        C=C,
        noise=NoiseModel.iid(sigma_nu, sigma_omega),
    )


class TestTailFunctions:
    def test_q_against_quadrature(self):
        for w in [-4.0, -1.3, 0.0, 0.5, 1.0, 2.5, 4.0]:
            assert abs(q_function(w) - q_by_quadrature(w)) < 5e-11

    def test_q_known_points(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
        assert q_function(30.0) < 1e-100

    def test_q_inverse_against_bisection(self):
        for p in [0.5, 0.3, 0.1, 0.05, 0.01, 1e-4]:
            oracle = q_inverse_by_bisection(p)
            assert q_inverse(p) == pytest.approx(oracle, rel=1e-8, abs=1e-8)

    def test_q_round_trip(self):
        for w in [0.0, 0.7, 1.6448536269514722, 3.0, 5.0]:
            assert q_inverse(q_function(w)) == pytest.approx(w, rel=1e-10, abs=1e-10)
        for p in [0.5, 0.2, 0.01]:
            assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-10)

    def test_q_inverse_domain(self):
        for p in (0.0, -0.1, 0.5000001, 1.0):
            with pytest.raises(ValidationError):
                q_inverse(p)

    def test_q_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            q_function(np.nan)


# Reference values computed once with mpmath at 80 digits from the exact
# float arguments, then rounded to the nearest double.
Q_REFERENCE = [
    (-8.0, 0.9999999999999993),
    (-1.0, 0.8413447460685429),
    (0.0, 0.5),
    (0.5, 0.3085375387259869),
    (3.0, 0.0013498980316300946),
    (10.0, 7.619853024160525e-24),
    (30.0, 4.906713927148187e-198),
]
Q_INVERSE_REFERENCE = [
    (0.5, 0.0),
    (0.05, 1.6448536269514726),
    (1e-3, 3.0902323061678136),
    (1e-10, 6.361340902404057),
    (1e-100, 21.273453560965326),
    (1e-300, 37.0470962993612),
]
# Cells of N(0.25, 2) between these edges.
CELL_MU, CELL_VAR = 0.25, 2.0
CELL_EDGES = [-14.0, -3.0, -1.0, 0.0, 0.5, 1.75, 4.0]
CELL_REFERENCE = [
    0.010778133380008168,
    0.17760142552578284,
    0.24146233869354208,
    0.1403162048013338,
    0.28541971442609065,
    0.14041721200830243,
]


def argument_rounding(z: float) -> float:
    """Error of Phi or Q at z caused by rounding z itself: |z| phi(z) times a
    few units of 2^-53 (z = w / sqrt 2 or (edge - mu) / sd is rounded two or
    three times).  Relative to Q(w) this is about w^2 2^-51, so the far tail
    gets more than a few ulp (4e-13 at w = 30)."""
    return 2.0**-51 * abs(z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


class TestTailAccuracy:
    """The stdlib tails against high-precision literals."""

    @pytest.mark.parametrize("w, want", Q_REFERENCE)
    def test_q_function(self, w, want):
        tol = 4 * math.ulp(want) + argument_rounding(w)
        assert abs(q_function(w) - want) <= tol
        if abs(w) >= 10:
            assert abs(q_function(w) - want) <= 1e-12 * want

    @pytest.mark.parametrize("p, want", Q_INVERSE_REFERENCE)
    def test_q_inverse(self, p, want):
        assert abs(q_inverse(p) - want) <= 4 * math.ulp(want)

    def test_q_inverse_at_half_is_positive_zero(self):
        assert math.copysign(1.0, q_inverse(0.5)) == 1.0

    def test_analytic_cell_probs(self):
        got = _analytic_cell_probs(CELL_MU, CELL_VAR, np.array(CELL_EDGES))
        z = [(e - CELL_MU) / math.sqrt(CELL_VAR) for e in CELL_EDGES]
        for k, want in enumerate(CELL_REFERENCE):
            tol = 4 * math.ulp(want) + argument_rounding(z[k]) + argument_rounding(z[k + 1])
            assert abs(got[k] - want) <= tol


class TestKappa:
    def test_frozen_reference_value(self):
        assert kappa(1.0, 0.05) == pytest.approx(KAPPA_1_005, abs=1e-12)

    def test_against_defining_quadratic(self):
        # kappa is the positive root of 2 eps k^2 - 2 Q^-1(delta) k - 1 = 0.
        for eps, delta in [(0.5, 0.1), (1.0, 0.05), (3.0, 0.01), (0.1, 0.2)]:
            k = kappa(eps, delta)
            r = q_inverse_by_bisection(delta)
            assert 2 * eps * k * k - 2 * r * k - 1 == pytest.approx(0.0, abs=1e-9)

    def test_limit_at_delta_half(self):
        eps = 2.0
        assert kappa(eps, 0.5 - 1e-13) == pytest.approx(1 / np.sqrt(2 * eps), rel=1e-6)

    def test_monotone_in_both_arguments(self):
        assert kappa(1.0, 0.05) > kappa(2.0, 0.05)
        assert kappa(1.0, 0.01) > kappa(1.0, 0.05)

    def test_domain(self):
        with pytest.raises(ValidationError):
            kappa(0.0, 0.05)
        with pytest.raises(ValidationError):
            kappa(1.0, 0.5)
        with pytest.raises(ValidationError):
            kappa(1.0, 0.0)


class TestBudget:
    def test_valid_budget_coerces(self):
        b = DpBudget(epsilon=1, delta=0.05, d=1, N=10)
        assert isinstance(b.epsilon, float) and isinstance(b.N, int)
        assert b.T is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "delta": 0.05, "d": 1.0, "N": 1},
            {"epsilon": 1.0, "delta": 0.6, "d": 1.0, "N": 1},
            {"epsilon": 1.0, "delta": 0.0, "d": 1.0, "N": 1},
            {"epsilon": 1.0, "delta": 0.05, "d": 0.0, "N": 1},
            {"epsilon": 1.0, "delta": 0.05, "d": 1.0, "N": 0},
            {"epsilon": 1.0, "delta": 0.05, "d": 1.0, "N": 1, "T": -1},
        ],
    )
    def test_invalid_budget_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            DpBudget(**kwargs)


def unstable_iid() -> LinearSystem:
    """n = 11, m = 2, A = 6.6 Q with Q orthogonal: spectral radius 6.6."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((11, 11)))
    return make_iid(6.6 * Q, rng.standard_normal((2, 11)), 1.0, math.sqrt(1.029))


class TestCheckDp:
    def test_singular_covariance_never_certifies(self, sys_line2_sum):
        # sigma_omega = 0 leaves a deterministic output direction.
        verdict = check_dp(sys_line2_sum, DpBudget(epsilon=10, delta=0.4, d=1, N=1))
        assert not verdict.satisfied
        assert verdict.lhs == pytest.approx(0.0, abs=1e-14)

    def test_boundary_both_sides(self, sys_line2_first):
        # Sigma = diag(1, 2), ||O_T|| = 1, so with d = N = 1 the condition is
        # kappa^2 <= 1; kappa(eps, 0.05) = 1 exactly at eps = 0.5 + Q^-1(0.05).
        eps_star = 0.5 + q_inverse(0.05)
        sigma = effective_covariance(sys_line2_first)
        np.testing.assert_allclose(sigma, np.diag([1.0, 2.0]), atol=1e-14)
        good = check_dp(sys_line2_first, DpBudget(epsilon=eps_star + 0.01, delta=0.05, d=1, N=1))
        bad = check_dp(sys_line2_first, DpBudget(epsilon=eps_star - 0.01, delta=0.05, d=1, N=1))
        assert good.satisfied and not bad.satisfied
        at = check_dp(sys_line2_first, DpBudget(epsilon=eps_star, delta=0.05, d=1, N=1))
        assert at.lhs == pytest.approx(at.rhs, rel=1e-12)

    @pytest.mark.parametrize("refined", [False, True], ids=["standard", "refined"])
    def test_boundary_slack_lies_between_1e_13_and_1e_9(self, monkeypatch, sys_line2_first, refined):
        # BOUNDARY_RTOL = 1e-12 forgives a miss of rounding size and no more.
        # lhs does not depend on d, and rhs moves with d^2 (standard, lhs >=
        # rhs) or 1 / d^2 (refined, lhs <= rhs), so d can make the condition
        # miss by a chosen relative amount.
        base = check_dp(sys_line2_first, DpBudget(epsilon=1.0, delta=0.05, d=1, N=1), refined)
        ratio = base.lhs / base.rhs if not refined else base.rhs / base.lhs

        def satisfied(miss):
            d = math.sqrt(ratio * (1 + miss))
            return check_dp(sys_line2_first, DpBudget(1.0, 0.05, d, 1), refined).satisfied

        assert satisfied(1e-13) and not satisfied(1e-9)
        monkeypatch.setattr(dp, "BOUNDARY_RTOL", 1e-6)
        assert satisfied(1e-9)

    def test_more_releases_need_more_noise(self, sys_line2_first):
        eps_star = 0.5 + q_inverse(0.05)
        budget1 = DpBudget(epsilon=eps_star + 0.01, delta=0.05, d=1, N=1)
        budget4 = DpBudget(epsilon=eps_star + 0.01, delta=0.05, d=1, N=4)
        assert check_dp(sys_line2_first, budget1).satisfied
        assert not check_dp(sys_line2_first, budget4).satisfied

    def test_refined_agrees_on_aligned_system(self, sys_line2_first):
        eps_star = 0.5 + q_inverse(0.05)
        for eps in (eps_star + 0.01, eps_star - 0.01):
            budget = DpBudget(epsilon=eps, delta=0.05, d=1, N=1)
            std = check_dp(sys_line2_first, budget)
            ref = check_dp(sys_line2_first, budget, refined=True)
            assert std.satisfied == ref.satisfied
            assert ref.refined_used

    def test_refined_strictly_weaker_case(self):
        # Noise concentrated along the well-observed direction: Sigma =
        # diag(1, 5, 9), gram norm 10/9, min eigenvalue 1, ||O_T||^2 = 2.
        system = make_iid([[0, 1], [1, 0]], [[1, 0]], sigma_nu=2.0, sigma_omega=1.0)
        q = q_inverse(0.05)
        eps = (2.0 + 3.6 * q) / 3.24
        assert kappa(eps, 0.05) == pytest.approx(0.9, abs=1e-12)
        budget = DpBudget(epsilon=eps, delta=0.05, d=1, N=1, T=2)
        assert not check_dp(system, budget).satisfied
        assert check_dp(system, budget, refined=True).satisfied

    def test_standard_implies_refined(self):
        rng = np.random.default_rng(88)
        hits = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            system = make_iid(
                rng.standard_normal((n, n)) * 0.6,
                rng.standard_normal((m, n)),
                sigma_nu=float(rng.uniform(0, 2)),
                sigma_omega=float(rng.uniform(0.1, 3)),
            )
            budget = DpBudget(
                epsilon=float(rng.uniform(0.2, 4)),
                delta=float(rng.uniform(0.01, 0.4)),
                d=float(rng.uniform(0.5, 2)),
                N=int(rng.integers(1, 5)),
            )
            std = check_dp(system, budget)
            if std.satisfied:
                hits += 1
                assert check_dp(system, budget, refined=True).satisfied
        assert hits > 0

    def test_refined_requires_iid(self):
        base = make_iid([[0.0]], [[1.0]], 0.0, 1.0)
        general = LinearSystem(
            n=1, m=1, A=base.A, C=base.C, noise=NoiseModel.general(np.eye(1))
        )
        with pytest.raises(ValidationError, match="iid"):
            check_dp(general, DpBudget(epsilon=1, delta=0.05, d=1, N=1, T=0), refined=True)

    def test_refined_requires_invertible_covariance(self, sys_line2_sum):
        with pytest.raises(ConditioningError, match="singular"):
            check_dp(
                sys_line2_sum,
                DpBudget(epsilon=1, delta=0.05, d=1, N=1),
                refined=True,
            )

    @pytest.mark.parametrize("T", [12, 19])
    def test_iid_lhs_is_sigma_omega_squared_on_unstable_system(self, T):
        # lambda_min(Sigma) = sigma_omega^2 exactly for iid noise; an eigensolve
        # of this Sigma (entries up to about 6.6^(2T)) loses sigma_omega^2 to
        # rounding and can come out large and negative.
        system = unstable_iid()
        sigma_omega = system.noise.sigma_omega
        verdict = check_dp(system, DpBudget(epsilon=1, delta=0.05, d=1, N=1, T=T))
        assert verdict.lhs == sigma_omega**2
        assert 0.0 < delta_min(system, 1.0, d=1.0, N=1, T=T) <= 1.0

    @pytest.mark.parametrize("T", [12, 19])
    def test_general_lhs_floored_on_unstable_system(self, T):
        # Sigma = G I G^T with G G^T = H_T H_T^T + I, so lambda_min(Sigma) >= 1;
        # the eigensolve alone returns -683.6 at T = 12 and -1.1e15 at T = 19.
        base = unstable_iid()
        side = base.n * T + base.m * (T + 1)
        system = LinearSystem(
            n=base.n, m=base.m, A=base.A, C=base.C, noise=NoiseModel.general(np.eye(side))
        )
        verdict = check_dp(system, DpBudget(epsilon=1, delta=0.05, d=1, N=1, T=T))
        assert verdict.lhs == 1.0
        assert 0.0 < delta_min(system, 1.0, d=1.0, N=1, T=T) <= 1.0

    def test_general_noise_standard_path(self):
        # Joint covariance reproducing iid sigma_nu=1, sigma_omega=1 at T=1.
        base = make_iid([[0, 1], [0, -1]], [[1, 0]], 1.0, 1.0)
        general = LinearSystem(
            n=2, m=1, A=base.A, C=base.C, noise=NoiseModel.general(np.eye(4))
        )
        budget = DpBudget(epsilon=1, delta=0.05, d=1, N=1)
        assert check_dp(general, budget).lhs == pytest.approx(
            check_dp(base, budget).lhs, rel=1e-12
        )


class TestCalibration:
    def test_floor_formula(self, sys_line2_first):
        budget = DpBudget(epsilon=1, delta=0.05, d=2.0, N=9)
        floor = calibrate_sigma_omega(sys_line2_first, budget)
        norm = np.linalg.norm(build_bundle(sys_line2_first).O_T, 2)
        assert floor == pytest.approx(2.0 * 3.0 * norm * KAPPA_1_005, rel=1e-12)

    def test_floor_certifies_any_process_noise(self, sys_line2_first):
        budget = DpBudget(epsilon=1, delta=0.05, d=1, N=3)
        floor = calibrate_sigma_omega(sys_line2_first, budget)
        for sigma_nu in (0.0, 0.7, 5.0):
            system = make_iid(sys_line2_first.A, sys_line2_first.C, sigma_nu, floor)
            assert check_dp(system, budget).satisfied

    def test_floor_is_tight_without_process_noise(self):
        nilpotent = make_iid([[0, 1], [0, 0]], [[1, 0]], 0.0, 1.0)
        budget = DpBudget(epsilon=1, delta=0.05, d=1, N=1)
        floor = calibrate_sigma_omega(nilpotent, budget)
        shaved = make_iid(nilpotent.A, nilpotent.C, 0.0, 0.999 * floor)
        assert not check_dp(shaved, budget).satisfied

    def test_floor_monotone_in_budget(self, sys_line2_first):
        loose = calibrate_sigma_omega(sys_line2_first, DpBudget(epsilon=2, delta=0.05, d=1, N=1))
        tight = calibrate_sigma_omega(sys_line2_first, DpBudget(epsilon=1, delta=0.05, d=1, N=1))
        assert tight > loose

    def test_requires_iid(self):
        general = LinearSystem(
            n=1, m=1, A=[[0.0]], C=[[1.0]], noise=NoiseModel.general(np.eye(2))
        )
        with pytest.raises(ValidationError, match="iid"):
            calibrate_sigma_omega(general, DpBudget(epsilon=1, delta=0.05, d=1, N=1, T=0))


class TestCalibrate:
    def test_floor_and_table_from_one_bundle(self, monkeypatch, sys_line2_first):
        budget = DpBudget(epsilon=1, delta=0.05, d=1.5, N=4)
        calls = []
        build = dp.build_bundle
        monkeypatch.setattr(dp, "build_bundle", lambda *a, **k: calls.append(a) or build(*a, **k))
        result = dp.calibrate(sys_line2_first, budget, [0.5, 2.0])
        assert len(calls) == 1
        monkeypatch.undo()
        floor = calibrate_sigma_omega(sys_line2_first, budget)
        assert result.sigma_omega_floor == floor
        assert result.kappa == kappa(1, 0.05)
        assert result.norm_OT == pytest.approx(
            np.linalg.norm(build_bundle(sys_line2_first).O_T, 2), rel=1e-13
        )
        calibrated = make_iid(sys_line2_first.A, sys_line2_first.C, 1.0, floor)
        assert result.delta_min_table == tuple(
            {"epsilon": eps, "delta_min": delta_min(calibrated, eps, d=1.5, N=4)}
            for eps in (0.5, 2.0)
        )

    def test_default_grid_is_the_budget_epsilon(self, sys_line2_first):
        budget = DpBudget(epsilon=1.5, delta=0.05, d=1, N=1)
        table = dp.calibrate(sys_line2_first, budget).delta_min_table
        assert [row["epsilon"] for row in table] == [1.5]
        assert dp.calibrate(sys_line2_first, budget, []).delta_min_table == ()

    @pytest.mark.parametrize("grid", [[1.0, 0.0], [math.nan], 2.0])
    def test_grid_checked_before_the_bundle(self, monkeypatch, sys_line2_first, grid):
        monkeypatch.setattr(dp, "build_bundle", None)  # reached only after the checks
        budget = DpBudget(epsilon=1, delta=0.05, d=1, N=1)
        with pytest.raises(ValidationError, match="epsilon"):
            dp.calibrate(sys_line2_first, budget, grid)


class TestDeltaMin:
    def test_formula_oracle(self, sys_line2_first):
        sigma = effective_covariance(sys_line2_first)
        s = np.linalg.eigvalsh(sigma)[0]
        c = 1.5 * np.sqrt(4) * np.linalg.norm(build_bundle(sys_line2_first).O_T, 2)
        for eps in (0.5, 1.0, 3.0):
            want = q_by_quadrature(eps * np.sqrt(s) / c - c / (2 * np.sqrt(s)))
            assert delta_min(sys_line2_first, eps, d=1.5, N=4) == pytest.approx(
                want, rel=1e-9, abs=1e-12
            )

    def test_consistent_with_check_dp(self, sys_line2_first):
        for eps in (0.8, 1.5, 2.5, 4.0):
            dmin = delta_min(sys_line2_first, eps, d=1.0, N=1)
            if not 0.0 < dmin < 0.5:
                continue
            above = DpBudget(epsilon=eps, delta=min(dmin + 1e-6, 0.499999), d=1, N=1)
            assert check_dp(sys_line2_first, above).satisfied
            if dmin > 1e-6:
                below = DpBudget(epsilon=eps, delta=dmin - 1e-6, d=1, N=1)
                assert not check_dp(sys_line2_first, below).satisfied

    def test_decreasing_in_epsilon(self, sys_line2_first):
        values = [delta_min(sys_line2_first, eps, d=1.0, N=1) for eps in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_singular_covariance_is_degenerate(self, sys_line2_sum):
        with pytest.raises(ConditioningError, match="singular"):
            delta_min(sys_line2_sum, 1.0, d=1.0, N=1)

    def test_argument_validation(self, sys_line2_first):
        with pytest.raises(ValidationError):
            delta_min(sys_line2_first, 0.0, d=1.0, N=1)
        with pytest.raises(ValidationError):
            delta_min(sys_line2_first, 1.0, d=-1.0, N=1)
        with pytest.raises(ValidationError):
            delta_min(sys_line2_first, 1.0, d=1.0, N=0)


def random_iid(rng, n, m, sigma_nu=None, sigma_omega=None) -> LinearSystem:
    """Dense random system with spectral radius near 1, so powers stay bounded."""
    return make_iid(
        rng.standard_normal((n, n)) / np.sqrt(n),
        rng.standard_normal((m, n)),
        sigma_nu=float(rng.uniform(0.2, 2)) if sigma_nu is None else sigma_nu,
        sigma_omega=float(rng.uniform(0.2, 2)) if sigma_omega is None else sigma_omega,
    )


def covariance_via_H(system: LinearSystem, T: int) -> np.ndarray:
    """The product formula on the materialised noise-stacking map."""
    return stacked_noise_covariance(system.noise, stacked_maps(system.A, system.C, T)[1])


class TestGramCovariance:
    """The iid covariance from the O_T Gram recurrence equals H_T H_T^T scaled."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 4])
    def test_matches_product_formula(self, m, extra):
        rng = np.random.default_rng(400 + 10 * m + extra)
        for n in (2, 3, 5, 9, 14):
            system = random_iid(rng, n, m)
            T = n - 1 + extra
            got = effective_covariance(system, T)
            assert got.shape == (m * (T + 1),) * 2
            np.testing.assert_allclose(got, covariance_via_H(system, T), rtol=1e-12)

    def test_single_node_horizon_zero(self):
        system = make_iid([[0.7]], [[1.0], [-2.0]], sigma_nu=1.3, sigma_omega=0.4)
        np.testing.assert_array_equal(effective_covariance(system, 0), 0.4**2 * np.eye(2))
        np.testing.assert_array_equal(effective_covariance(system, 0), covariance_via_H(system, 0))

    @pytest.mark.parametrize("zero", ["sigma_nu", "sigma_omega"])
    def test_zero_noise_levels(self, zero):
        rng = np.random.default_rng(71)
        for m in (1, 2, 3):
            system = random_iid(rng, 6, m, **{zero: 0.0})
            for T in (5, 9):
                want = covariance_via_H(system, T)
                np.testing.assert_allclose(effective_covariance(system, T), want, rtol=1e-12)

    def test_short_horizons_for_simulation(self):
        # sim reads the covariance at horizons below n-1, where no bundle exists.
        rng = np.random.default_rng(72)
        system = random_iid(rng, 7, 2)
        for T in range(0, 7):
            O_T = stacked_maps(system.A, system.C, T)[0]
            want = covariance_via_H(system, T)
            np.testing.assert_allclose(_noise_covariance(system, O_T, T), want, rtol=1e-12)

    def test_general_floor_is_the_lambda_min_of_the_load(self, monkeypatch):
        # lambda_min(Sigma_T) is kept from the load's PSD check, bit for bit,
        # and check_dp and delta_min solve no eigenproblem of Sigma_T's side.
        system = general_noise_system(2)
        eigvalsh = np.linalg.eigvalsh
        assert system.noise.Sigma_T_lambda_min == eigvalsh(system.noise.Sigma_T)[0]
        sides = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: sides.append(len(M)) or eigvalsh(M))
        check_dp(system, DpBudget(epsilon=1, delta=0.05, d=1, N=2))
        delta_min(system, 1.0, d=1.0, N=2)
        assert sides and len(system.noise.Sigma_T) not in sides

    def test_general_noise_unchanged(self):
        rng = np.random.default_rng(73)
        for n, m, T in ((2, 1, 1), (3, 2, 2), (4, 1, 6)):
            base = random_iid(rng, n, m)
            side = n * T + m * (T + 1)
            root = rng.standard_normal((side, side))
            system = LinearSystem(
                n=n, m=m, A=base.A, C=base.C, noise=NoiseModel.general(root @ root.T / side)
            )
            H = stacked_maps(system.A, system.C, T)[1]
            G = np.hstack([H, np.eye(H.shape[0])])
            want = G @ system.noise.Sigma_T @ G.T
            np.testing.assert_array_equal(effective_covariance(system, T), 0.5 * (want + want.T))


class TestNoNoiseMapBuilt:
    """Verdicts and budgets never build H_T; the bundle still serves it on request."""

    @pytest.fixture
    def no_noise_map(self, monkeypatch):
        # Every H_T, stacked_maps' and the bundle's included, is copied by _noise_map.
        def refuse(*args, **kwargs):
            raise AssertionError("_noise_map called: H_T was built")

        monkeypatch.setattr(obsv, "_noise_map", refuse)
        monkeypatch.setattr(dp, "_noise_map", refuse)

    def test_iid_paths_build_no_noise_map(self, no_noise_map):
        rng = np.random.default_rng(74)
        for n, m in ((2, 1), (6, 1), (8, 2)):
            system = random_iid(rng, n, m)
            budget = DpBudget(epsilon=1, delta=0.05, d=1, N=2, T=n + 1)
            whole_vector_private(system)
            privacy_index(system)
            node_private(system, 0, [1])
            privacy_index_bruteforce(system)
            check_dp(system, budget)
            check_dp(system, budget, refined=True)
            delta_min(system, 1.0, d=1.0, N=2)
            calibrate_sigma_omega(system, budget)
            effective_covariance(system)
            batch = simulate(system, np.ones(n), 5, n - 2, seed=3)
            mle_attack(system, batch)
            empirical_dp_report(system, [np.zeros(n), 0.1 * np.ones(n)], 20, seed=4, T=1)

    def test_general_paths_build_O_T_once(self, monkeypatch):
        # General noise copies H_T out of the caller's O_T instead of building a second one.
        built = []
        blocks = obsv._output_power_blocks
        monkeypatch.setattr(
            obsv, "_output_power_blocks", lambda *args: built.append(1) or blocks(*args)
        )
        system = general_noise_system(2)
        for call in (
            lambda: check_dp(system, DpBudget(epsilon=1, delta=0.05, d=1, N=2)),
            lambda: delta_min(system, 1.0, d=1.0, N=2),
            lambda: effective_covariance(system),
            lambda: empirical_dp_report(system, [np.zeros(3), 0.1 * np.ones(3)], 20, seed=4),
        ):
            built.clear()
            call()
            assert built == [1]

    def test_bundle_builds_noise_map_once_on_read(self):
        system = random_iid(np.random.default_rng(75), 4, 2)
        bundle = build_bundle(system, 6)
        assert "H_T" not in vars(bundle)
        H = bundle.H_T
        np.testing.assert_array_equal(H, stacked_maps(system.A, system.C, 6)[1])
        assert not H.flags.writeable
        assert bundle.H_T is H


def iid_of_kind(rng, kind, n, m) -> LinearSystem:
    """A dense random system, or A = r Q with Q orthogonal: r = 1 for a rotated
    system, r = 3 for an unstable one."""
    if kind == "random":
        return random_iid(rng, n, m)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    radius = 1.0 if kind == "rotated" else 3.0
    return make_iid(radius * Q, rng.standard_normal((m, n)), 1.0, 1.0)


KINDS = ["random", "rotated", "unstable"]


class TestNormsByEigensolve:
    """||O_T|| and the refined lhs from eigvalsh agree with the SVD norm."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_norm_OT_matches_svd(self, kind, m):
        rng = np.random.default_rng(480 + m)
        for n in (2, 5, 9, 16):
            system = iid_of_kind(rng, kind, n, m)
            for T in (n - 1, n + 3):
                O_T = build_bundle(system, T).O_T
                assert dp._norm_OT(O_T) == pytest.approx(np.linalg.norm(O_T, 2), rel=1e-13, abs=0)

    @pytest.mark.parametrize("scale", [1e140, 1e-140, 1e200, 1e-200])
    def test_norm_OT_scaled_far_from_one(self, scale):
        # At 1e+-200 an unscaled Gram matrix would overflow or underflow.
        O = np.random.default_rng(491).standard_normal((12, 5))
        want = np.linalg.norm(O, 2) * scale
        assert dp._norm_OT(O * scale) == pytest.approx(want, rel=1e-13, abs=0)

    def test_norm_OT_of_a_zero_map_is_zero(self):
        assert str(dp._norm_OT(np.zeros((4, 3)))) == "0.0"

    def test_norm_OT_of_the_identity_is_exact(self):
        assert dp._norm_OT(np.eye(4)) == 1.0
        assert dp._norm_OT(np.vstack([np.eye(3)] * 4)) == 2.0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_refined_lhs_matches_svd(self, kind, m):
        rng = np.random.default_rng(493 + m)
        for n in (3, 8, 11):
            system = iid_of_kind(rng, kind, n, m)
            T = n + 2
            budget = DpBudget(epsilon=1, delta=0.05, d=1, N=2, T=T)
            O_T = build_bundle(system, T).O_T
            gram = O_T.T @ np.linalg.solve(effective_covariance(system, T), O_T)
            sym = 0.5 * (gram + gram.T)
            lhs = check_dp(system, budget, refined=True).lhs
            assert lhs == dp._symmetric_norm(sym)
            assert lhs == pytest.approx(np.linalg.norm(sym, 2), rel=1e-13, abs=0)

    def test_symmetric_norm_reads_the_most_negative_eigenvalue(self):
        Q = np.linalg.qr(np.random.default_rng(497).standard_normal((5, 5)))[0]
        S = Q @ np.diag([-3.0, -1.0, 0.5, 1.0, 2.0]) @ Q.T
        S = 0.5 * (S + S.T)
        assert dp._symmetric_norm(S) == pytest.approx(3.0, rel=1e-14, abs=0)
        assert dp._symmetric_norm(S) == pytest.approx(np.linalg.norm(S, 2), rel=1e-14, abs=0)
