"""(epsilon, delta) differential-privacy checks and noise calibration.

The mechanism under audit releases N independent output trajectories of
length T+1.  Adjacency is Euclidean: initial values closer than ``d``.  The
sufficient condition certified here bounds the smallest eigenvalue of the
effective output covariance

    Sigma = H_T Sigma_V H_T^T + Sigma_W     (iid case)
    Sigma = [H_T I] Sigma_T [H_T I]^T       (general case)

from below by d^2 N ||O_T||^2 kappa(epsilon, delta)^2, where ``kappa`` is
the Gaussian-mechanism factor built from the upper tail function Q.  A
failed check means "not certified by this condition", not a proof that
privacy is violated.

In the iid case Sigma = sigma_nu^2 S + sigma_omega^2 I with S = H_T H_T^T,
and S follows from O_T alone: with K = O O^T for O the first mT rows of O_T,
its m x m blocks obey S[i, j] = S[i-1, j-1] + K[i-1, j-1], block row and
column 0 being zero.  S is filled one block row at a time from the row above,
in O(m^2 T^2 n) work, so H_T (m(T+1) x nT) is never formed.  Block row 0 of
H_T is zero, so S is singular and lambda_min(Sigma) = sigma_omega^2 exactly,
at every T: the standard iid check, ``delta_min`` and the calibration table
use that closed form and need only ||O_T||.  The eigensolve serves general
noise alone, floored at lambda_min(Sigma_T) (see ``_sigma_min``).
``calibrate`` returns the noise floor, kappa, ||O_T|| and the delta_min
table of the calibrated system from one bundle and one norm;
``calibrate_sigma_omega`` reads its floor.

Each spectral norm is read off one symmetric eigensolve (``eigvalsh``), not
an SVD.  ||O_T|| = 2^e sqrt(lambda_max(X^T X)) for X = 2^-e O_T, e the
binary exponent of max |O_T|.  The scaling is exact for every entry within
a factor 2^1021 of the largest, and max |X| lies in [1/2, 1), so the Gram
matrix X^T X (n x n, the smaller side, as T >= n-1) can neither overflow nor
lose lambda_max to underflow.  Its rounding is at most gamma_p ||X||_F^2
(Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.5, p
the longer side), about n gamma_p relative to ||X||^2 in the worst case;
against ``np.linalg.norm(O_T, 2)`` (numpy 2.4, OpenBLAS) it differed by at
most 11.3 eps on the rotated systems (n = 10-400) of the benchmark's
``audit`` workload and 4 eps over 64 random, rotated and unstable systems
(n = 2-400, m = 1-3) with C scaled by up to 1e+-100.  The refined
lhs ||(G + G^T) / 2|| is symmetric already: it is the largest eigenvalue in
magnitude, within a few eps of the SVD norm.

Q and its inverse come from the standard library: Q(w) = erfc(w / sqrt 2) / 2
with ``math.erfc``, and Q^-1(p) = -Phi^-1(p) with ``statistics.NormalDist``
(Wichura's AS241 algorithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from ._util import integer, real, sequence
from .errors import ConditioningError, ValidationError
from .obsv import _noise_map, build_bundle
from .sysmodel import LinearSystem

__all__ = [
    "DpBudget",
    "DpVerdict",
    "q_function",
    "q_inverse",
    "kappa",
    "stacked_noise_covariance",
    "effective_covariance",
    "check_dp",
    "Calibration",
    "calibrate",
    "calibrate_sigma_omega",
    "delta_min",
]

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()

# Relative slack on the certification inequality; absorbs the rounding-order
# difference between a calibrated noise floor and the threshold it must meet.
BOUNDARY_RTOL = 1e-12


def q_function(w: float) -> float:
    """Standard normal upper tail Q(w) = P(Z > w)."""
    return 0.5 * math.erfc(real(w, "w") / _SQRT2)


def q_inverse(p: float) -> float:
    """Inverse of the upper tail on its useful branch, p in (0, 0.5]."""
    p = real(p, "p")
    if not 0.0 < p <= 0.5:
        raise ValidationError(f"p: q_inverse requires p in (0, 0.5], got {p!r}")
    # + 0.0 turns the -0.0 of -inv_cdf(0.5) into +0.0.
    return -_STANDARD_NORMAL.inv_cdf(p) + 0.0


def _epsilon(value) -> float:
    """``value`` as a float, validated as a privacy budget epsilon > 0."""
    epsilon = real(value, "epsilon")
    if epsilon <= 0:
        raise ValidationError(f"epsilon: must be > 0, got {epsilon!r}")
    return epsilon


def _delta(value) -> float:
    """``value`` as a float, validated as a privacy budget delta in (0, 0.5)."""
    delta = real(value, "delta")
    if not 0.0 < delta < 0.5:
        raise ValidationError(f"delta: must lie in (0, 0.5), got {delta!r}")
    return delta


def _radius(value) -> float:
    """``value`` as a float, validated as an adjacency radius d > 0."""
    d = real(value, "d")
    if d <= 0:
        raise ValidationError(f"d: adjacency radius must be > 0, got {d!r}")
    return d


def kappa(epsilon: float, delta: float) -> float:
    """Gaussian mechanism factor (Q^-1(delta) + sqrt(Q^-1(delta)^2 + 2 eps)) / (2 eps)."""
    epsilon = _epsilon(epsilon)
    r = q_inverse(_delta(delta))
    return float((r + np.sqrt(r * r + 2.0 * epsilon)) / (2.0 * epsilon))


@dataclass(frozen=True, eq=False)
class DpBudget:
    """Privacy budget and mechanism shape.

    ``d`` is the adjacency radius, ``N`` the number of released trajectories,
    ``T`` the horizon (None selects the minimum n-1 at evaluation time).
    """

    epsilon: float
    delta: float
    d: float
    N: int
    T: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon))
        object.__setattr__(self, "delta", _delta(self.delta))
        object.__setattr__(self, "d", _radius(self.d))
        object.__setattr__(self, "N", integer(self.N, "N", 1))
        if self.T is not None:
            object.__setattr__(self, "T", integer(self.T, "T", 0))


@dataclass(frozen=True, eq=False)
class DpVerdict:
    """Outcome of a sufficient-condition check.

    Standard form: satisfied iff lhs >= rhs with lhs = min eig of Sigma and
    rhs = d^2 N ||O_T||^2 kappa^2.  Refined form (refined_used=True):
    satisfied iff lhs <= rhs with lhs = ||O_T^T Sigma^-1 O_T|| and
    rhs = 1 / (d^2 N kappa^2).
    """

    satisfied: bool
    lhs: float
    rhs: float
    kappa: float
    refined_used: bool

    def to_dict(self) -> dict:
        return {
            "satisfied": bool(self.satisfied),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "kappa": self.kappa,
            "refined_used": self.refined_used,
        }


def _joint_covariance(noise, side: int) -> np.ndarray:
    """General noise's Sigma_T, checked to have the horizon's side n*T + m*(T+1)."""
    if noise.Sigma_T.shape[0] != side:
        raise ValidationError(
            f"noise.SigmaT: expected side {side} = n*T + m*(T+1) for this horizon, "
            f"got {noise.Sigma_T.shape[0]}"
        )
    return noise.Sigma_T


def stacked_noise_covariance(noise, H: np.ndarray) -> np.ndarray:
    """Covariance of H_T V_T + W_T for a given stacking map H_T."""
    rows = H.shape[0]
    if noise.kind == "iid":
        sigma = noise.sigma_nu**2 * (H @ H.T) + noise.sigma_omega**2 * np.eye(rows)
    else:
        G = np.hstack([H, np.eye(rows)])
        sigma = G @ _joint_covariance(noise, H.shape[1] + rows) @ G.T
    return 0.5 * (sigma + sigma.T)


def _noise_covariance(sys: LinearSystem, O_T: np.ndarray, T: int) -> np.ndarray:
    """Covariance of H_T V_T + W_T at horizon T >= 0, given O_T for that horizon.

    The iid case uses the Gram recurrence of the module docstring; only the
    general case, whose Sigma_T is larger than H_T anyway, copies H_T out of O_T.
    """
    noise = sys.noise
    if noise.kind != "iid":
        return stacked_noise_covariance(noise, _noise_map(O_T, T))
    m = sys.m
    rows = m * (T + 1)
    O = O_T[: m * T]
    K = O @ O.T
    S = np.zeros((rows, rows))
    for i in range(1, T + 1):
        S[i * m:(i + 1) * m, m:] = S[(i - 1) * m:i * m, : m * T] + K[(i - 1) * m:i * m]
    sigma = noise.sigma_nu**2 * S + noise.sigma_omega**2 * np.eye(rows)
    return 0.5 * (sigma + sigma.T)


def effective_covariance(sys: LinearSystem, T: int | None = None) -> np.ndarray:
    """Covariance of the stacked noise contribution at horizon T (default n-1)."""
    bundle = build_bundle(sys, T)
    return _noise_covariance(sys, bundle.O_T, bundle.T)


def _sigma_min(sys: LinearSystem, O_T: np.ndarray, T: int) -> float:
    """Smallest eigenvalue of the effective covariance at horizon T, given O_T.

    sigma_omega^2 in closed form for iid noise (module docstring); an
    eigensolve of Sigma for general noise, floored at lambda_min(Sigma_T).
    The floor is sound: Sigma = G Sigma_T G^T with G = [H_T I], and
    G G^T = H_T H_T^T + I >= I (a floor at or below 0, which a Sigma_T within
    the PSD tolerance can give, certifies nothing either way).  It matters on unstable systems, where
    ||H_T|| grows like |lambda_max(A)|^T and the eigensolve's rounding error
    swamps lambda_min(Sigma), down to large negative values.
    """
    if sys.noise.kind == "iid":
        return sys.noise.sigma_omega**2
    sigma = _noise_covariance(sys, O_T, T)
    return float(max(np.linalg.eigvalsh(sigma)[0], sys.noise.Sigma_T_lambda_min))


def _symmetric_norm(S: np.ndarray) -> float:
    """||S||_2 of a symmetric matrix: its largest eigenvalue in magnitude."""
    return float(np.abs(np.linalg.eigvalsh(S)).max())


def _norm_OT(O_T: np.ndarray) -> float:
    """||O_T||_2 from the largest eigenvalue of X^T X (module docstring); O_T
    has m(T+1) >= n rows, so X^T X is the Gram matrix on the smaller side."""
    e = math.frexp(float(np.abs(O_T).max()))[1]
    X = np.ldexp(O_T, -e)
    return math.ldexp(math.sqrt(_symmetric_norm(X.T @ X)), e)


def _delta_min(epsilon: float, c: float, s_min: float) -> float:
    """Smallest certifiable delta at ``epsilon`` for scale ``c`` and min eig ``s_min`` of Sigma."""
    if s_min <= 0:
        raise ConditioningError("delta_min: effective covariance is singular")
    root = np.sqrt(s_min)
    return q_function(epsilon * root / c - c / (2.0 * root))


def _require_iid(sys: LinearSystem, field: str) -> None:
    if sys.noise.kind != "iid":
        raise ValidationError(f"{field}: requires the iid noise model")


def check_dp(sys: LinearSystem, budget: DpBudget, refined: bool = False) -> DpVerdict:
    """Check the sufficient (epsilon, delta) condition for the release of N
    trajectories.

    The refined variant replaces the eigenvalue bound with the exact norm of
    the whitened observability Gram matrix; it is never harder to satisfy
    than the standard one, and requires an invertible covariance (iid model
    with sigma_omega > 0).
    """
    k = kappa(budget.epsilon, budget.delta)
    if refined:
        _require_iid(sys, "refined")
    bundle = build_bundle(sys, budget.T)
    if refined:
        if sys.noise.sigma_omega == 0:
            raise ConditioningError(
                "refined: effective covariance is singular (needs sigma_omega > 0)"
            )
        sigma = _noise_covariance(sys, bundle.O_T, bundle.T)
        gram = bundle.O_T.T @ np.linalg.solve(sigma, bundle.O_T)
        lhs = _symmetric_norm(0.5 * (gram + gram.T))
        rhs = 1.0 / (budget.d**2 * budget.N * k * k)
        ok = lhs <= rhs * (1.0 + BOUNDARY_RTOL)
        return DpVerdict(satisfied=ok, lhs=lhs, rhs=rhs, kappa=k, refined_used=True)
    lhs = _sigma_min(sys, bundle.O_T, bundle.T)
    rhs = budget.d**2 * budget.N * _norm_OT(bundle.O_T) ** 2 * k * k
    ok = lhs >= rhs * (1.0 - BOUNDARY_RTOL)
    return DpVerdict(satisfied=ok, lhs=lhs, rhs=rhs, kappa=k, refined_used=False)


class Calibration(NamedTuple):
    """The noise floor sigma_omega = c kappa for c = d sqrt(N) ||O_T||, and
    {"epsilon", "delta_min"} rows for the system calibrated to that floor;
    ``_asdict()`` is the ``calibrate`` command's payload."""

    sigma_omega_floor: float
    kappa: float
    norm_OT: float
    delta_min_table: tuple[dict, ...]


def calibrate(sys: LinearSystem, budget: DpBudget, epsilon_grid=None) -> Calibration:
    """The smallest measurement-noise level certifying the budget for any
    process-noise level, and ``delta_min`` at each epsilon of ``epsilon_grid``
    (default: the budget's) once sigma_omega is set to it, from one bundle
    and one ||O_T||.

    The calibrated system's lambda_min(Sigma) is the floor squared (module
    docstring), so the table needs no covariance.  The grid is checked
    before O_T is built.
    """
    _require_iid(sys, "calibrate_sigma_omega")
    k = kappa(budget.epsilon, budget.delta)
    grid = [budget.epsilon] if epsilon_grid is None else sequence(epsilon_grid, "epsilon_grid")
    grid = [_epsilon(eps) for eps in grid]
    norm_OT = _norm_OT(build_bundle(sys, budget.T).O_T)
    c = budget.d * np.sqrt(budget.N) * norm_OT
    floor = float(c * k)
    table = tuple({"epsilon": eps, "delta_min": _delta_min(eps, c, floor**2)} for eps in grid)
    return Calibration(floor, k, norm_OT, table)


def calibrate_sigma_omega(sys: LinearSystem, budget: DpBudget) -> float:
    """Smallest measurement-noise level certifying the budget for any
    process-noise level: sigma_omega = d sqrt(N) ||O_T|| kappa."""
    return calibrate(sys, budget, ()).sigma_omega_floor


def delta_min(
    sys: LinearSystem, epsilon: float, d: float, N: int, T: int | None = None
) -> float:
    """Smallest delta for which the sufficient condition can certify
    (epsilon, delta) at the system's current noise level.

    Values >= 0.5 mean the condition certifies nothing in the admissible
    delta range.  Decreasing in epsilon and in the noise floor.
    """
    epsilon, d, N = _epsilon(epsilon), _radius(d), integer(N, "N", 1)
    bundle = build_bundle(sys, T)
    s_min = _sigma_min(sys, bundle.O_T, bundle.T)
    return _delta_min(epsilon, d * np.sqrt(N) * _norm_OT(bundle.O_T), s_min)
