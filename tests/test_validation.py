"""Arguments at the library boundary: one integer rule and one number rule for
scalars, one rule for float arrays, and one time-invariance rule for systems."""

import re

import numpy as np
import pytest

from ivpaudit import (
    Configuration,
    DisclosureSet,
    DpBudget,
    LinearSystem,
    NoiseModel,
    ValidationError,
    build_bundle,
    delta_min,
    empirical_dp_report,
    estimate_generic_rank,
    instantiate,
    TimeVaryingSystem,
    calibrate_sigma_omega,
    check_dp,
    effective_covariance,
    mle_attack,
    node_private,
    numerical_rank,
    privacy_index,
    privacy_index_bruteforce,
    simulate,
    whole_vector_private,
)
from ivpaudit.obsv import Selector, select_columns
from conftest import general_noise_system

ADJACENT = [[2.0, 1.0], [2.1, 1.0]]
BUDGET = DpBudget(epsilon=1.0, delta=0.05, d=1.0, N=1)
TIME_VARYING = TimeVaryingSystem(
    n=2, m=1, A_seq=([[0.0, 1.0], [0.0, -1.0]],), C_seq=([[1.0, 0.0]], [[1.0, 0.0]])
)
# General noise with a 7 x 7 Sigma_T: the side n*T + m*(T+1) at T = 1, while
# T = 2 (also the default n - 1) needs 12.
GENERAL_T1 = general_noise_system(1)

# (field named by the error, call on the sys_line2_first and struct_line3 fixtures)
BAD_SCALARS = [
    pytest.param("noise.sigma_nu", lambda s, g: NoiseModel(kind="iid", sigma_nu="a"), id="sigma-str"),
    pytest.param("noise.sigma_nu", lambda s, g: NoiseModel(kind="iid", sigma_nu=None), id="sigma-none"),
    pytest.param("epsilon", lambda s, g: DpBudget(epsilon="1", delta=0.05, d=1.0, N=1), id="epsilon-str"),
    pytest.param("node", lambda s, g: node_private(s, "0"), id="node-str"),
    pytest.param("node", lambda s, g: node_private(s, 0.0), id="node-float"),
    pytest.param("node", lambda s, g: node_private(s, True), id="node-bool"),
    pytest.param("T", lambda s, g: build_bundle(s, 1.5), id="bundle-T-float"),
    pytest.param("T", lambda s, g: build_bundle(s, "a"), id="bundle-T-str"),
    pytest.param("T", lambda s, g: delta_min(s, 1.0, 1.0, 1, T="a"), id="delta-min-T-str"),
    pytest.param("l_max", lambda s, g: privacy_index_bruteforce(s, l_max=0.5), id="l-max-float"),
    pytest.param("rank tolerance", lambda s, g: numerical_rank(np.eye(2), tol="1"), id="tol-str"),
    pytest.param("seed", lambda s, g: simulate(s, [2.0, 1.0], N=1, seed=-1), id="simulate-seed"),
    pytest.param("seed", lambda s, g: estimate_generic_rank(g, seed=-3), id="generic-seed"),
    pytest.param("T", lambda s, g: empirical_dp_report(s, ADJACENT, N_runs=10, T=1.5), id="probe-T-float"),
    pytest.param("d", lambda s, g: empirical_dp_report(s, ADJACENT, N_runs=10, d=np.nan), id="probe-d-nan"),
    pytest.param(
        "bins", lambda s, g: empirical_dp_report(s, ADJACENT, N_runs=10, bins=21),
        id="probe-bins-above-samples",
    ),
    pytest.param(
        "min_count", lambda s, g: empirical_dp_report(s, ADJACENT, N_runs=10, min_count=2.5),
        id="probe-min-count-float",
    ),
    pytest.param("n", lambda s, g: LinearSystem(n=True, m=1, A=[[0.0]], C=[[1.0]]), id="n-bool"),
    pytest.param("disclosure[0]", lambda s, g: DisclosureSet((True,)), id="disclosure-bool"),
    pytest.param("disclosure", lambda s, g: node_private(s, 0, 1), id="disclosure-int"),
    pytest.param("theta", lambda s, g: Configuration("a"), id="theta-str"),
    pytest.param("theta", lambda s, g: instantiate(g, "a"), id="instantiate-theta-str"),
    pytest.param(
        "noise.sigma_nu",
        lambda s, g: NoiseModel(kind="general", Sigma_T=[[1.0]], sigma_nu="abc"),
        id="general-sigma-str",
    ),
    pytest.param(
        "noise.SigmaT", lambda s, g: simulate(GENERAL_T1, [1.0, 0.0, 0.0], N=1, T=2),
        id="sigma-t-simulate",
    ),
    pytest.param(
        "noise.SigmaT",
        lambda s, g: empirical_dp_report(GENERAL_T1, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], N_runs=10),
        id="sigma-t-probe",
    ),
    pytest.param(
        "noise.SigmaT",
        lambda s, g: check_dp(GENERAL_T1, DpBudget(epsilon=1.0, delta=0.05, d=1.0, N=1, T=2)),
        id="sigma-t-check-dp",
    ),
    pytest.param(
        "noise.SigmaT", lambda s, g: effective_covariance(GENERAL_T1, T=2),
        id="sigma-t-effective-covariance",
    ),
    # Rank, budget and simulation layers read A and C: a time-varying system is refused.
    pytest.param("system", lambda s, g: privacy_index_bruteforce(TIME_VARYING), id="tv-bruteforce"),
    pytest.param("system", lambda s, g: privacy_index(TIME_VARYING), id="tv-index"),
    pytest.param("system", lambda s, g: whole_vector_private(TIME_VARYING), id="tv-whole-vector"),
    pytest.param("system", lambda s, g: node_private(TIME_VARYING, 0), id="tv-node"),
    pytest.param("system", lambda s, g: check_dp(TIME_VARYING, BUDGET), id="tv-check-dp"),
    pytest.param("system", lambda s, g: calibrate_sigma_omega(TIME_VARYING, BUDGET), id="tv-calibrate"),
    pytest.param("system", lambda s, g: simulate(TIME_VARYING, [1.0, 0.0], N=1), id="tv-simulate"),
    pytest.param(
        "system", lambda s, g: mle_attack(TIME_VARYING, simulate(s, [1.0, 0.0], N=1)), id="tv-attack"
    ),
    pytest.param(
        "system", lambda s, g: empirical_dp_report(TIME_VARYING, ADJACENT, N_runs=10), id="tv-probe"
    ),
]


@pytest.mark.parametrize("field, call", BAD_SCALARS)
def test_bad_scalar_names_its_field(field, call, sys_line2_first, struct_line3):
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: "):
        call(sys_line2_first, struct_line3)


def test_numpy_scalars_accepted_and_converted():
    system = LinearSystem(
        n=np.int64(1), m=np.int32(1), A=[[0.5]], C=[[1.0]],
        noise=NoiseModel.iid(np.float32(0.5), np.int64(1)),
    )
    assert type(system.n) is int and type(system.m) is int
    assert type(system.noise.sigma_nu) is float and system.noise.sigma_omega == 1.0
    batch = simulate(system, [1.0], N=np.int64(3), T=np.int16(2), seed=np.uint8(4))
    assert (type(batch.N), type(batch.T), type(batch.seed)) == (int, int, int)


def _with_first(value, entry):
    """``value``, nested lists, with its first number replaced by ``entry``."""
    return [_with_first(value[0], entry), *value[1:]] if isinstance(value, list) else entry


def _bad_arrays(input_id, field, call, good, length=None, axes=True):
    """One case per way ``good`` can be malformed, each passed to ``call(value, s, g)``;
    ``length`` is ``good`` with a wrong axis length, None where no length is fixed,
    and ``axes`` is False where any shape is read (as for x0)."""
    bad = {
        "text": _with_first(good, "x"),
        "ragged": [good[0], good],
        "dict": {"a": 1.0},
        "axes": [good] if axes else None,
        "length": length,
        "nan": _with_first(good, np.nan),
        "inf": _with_first(good, -np.inf),
        "huge-int": _with_first(good, 10**400),
    }
    return [
        pytest.param(field, call, value, id=f"{input_id}-{kind}")
        for kind, value in bad.items()
        if value is not None
    ]


A2 = [[0.0, 1.0], [0.0, -1.0]]
C2 = [[1.0, 0.0]]
THETA = [0.5, 1.0, 1.0, 1.0, 1.0]
# The hidden node 0's column is the first: its entries are the ones returned.
HIDE_0 = Selector.for_nodes(2, (1,))

BAD_ARRAYS = [
    *_bad_arrays("A", "A", lambda v, s, g: LinearSystem(n=2, m=1, A=v, C=C2), A2, A2 + A2[:1]),
    *_bad_arrays("C", "C", lambda v, s, g: LinearSystem(n=2, m=1, A=A2, C=v), C2, C2 + C2),
    *_bad_arrays(
        "A-seq", "A_seq[0]",
        lambda v, s, g: TimeVaryingSystem(n=2, m=1, A_seq=(v,), C_seq=(C2, C2)), A2, A2 + A2[:1],
    ),
    *_bad_arrays(
        "C-seq", "C_seq[1]",
        lambda v, s, g: TimeVaryingSystem(n=2, m=1, A_seq=(A2,), C_seq=(C2, v)),
        C2, [[1.0, 0.0, 0.0]],
    ),
    *_bad_arrays(
        "sigma-t", "noise.SigmaT", lambda v, s, g: NoiseModel.general(v),
        [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]],
    ),
    *_bad_arrays("configuration", "theta", lambda v, s, g: Configuration(v), THETA),
    *_bad_arrays("instantiate", "theta", lambda v, s, g: instantiate(g, v), THETA, THETA + [1.0]),
    *_bad_arrays("x0", "x0", lambda v, s, g: simulate(s, v, N=1), [2.0, 1.0], [2.0], axes=False),
    *_bad_arrays(
        "x0-list", "x0_list[1]", lambda v, s, g: empirical_dp_report(s, [[2.0, 1.0], v], N_runs=10),
        [2.0, 1.0], [2.0, 1.0, 0.0], axes=False,
    ),
    # A sequence of arrays that is not iterable at all.
    pytest.param(
        "x0_list", lambda v, s, g: empirical_dp_report(s, v, 10), 5.0, id="x0-list-not-iterable"
    ),
    pytest.param(
        "A_seq", lambda v, s, g: TimeVaryingSystem(n=2, m=1, A_seq=v, C_seq=(C2, C2)), 5,
        id="A-seq-not-iterable",
    ),
    pytest.param(
        "C_seq", lambda v, s, g: TimeVaryingSystem(n=2, m=1, A_seq=(A2,), C_seq=v), 7,
        id="C-seq-not-iterable",
    ),
    *_bad_arrays("numerical-rank", "matrix", lambda v, s, g: numerical_rank(v), A2),
    *_bad_arrays(
        "select-columns", "matrix", lambda v, s, g: select_columns(v, HIDE_0), A2,
        [[0.0, 1.0, 0.0]],
    ),
]


@pytest.mark.parametrize("field, call, value", BAD_ARRAYS)
def test_bad_array_names_its_field(field, call, value, sys_line2_first, struct_line3):
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: "):
        call(value, sys_line2_first, struct_line3)


def test_numeric_strings_and_initial_values_of_any_shape_accepted():
    system = LinearSystem(n=2, m=1, A=[["0", "1"], ["0", "-1"]], C=[["1", "0"]])
    assert system.A.tolist() == A2 and system.C.tolist() == C2
    assert simulate(system, [["2"], ["1.5"]], N=1).x0.tolist() == [2.0, 1.5]
    report = empirical_dp_report(system, [np.array([[2.0, 1.0]]), ["2", "1.5"]], N_runs=10)
    assert [x.tolist() for x in report.x0_list] == [[2.0, 1.0], [2.0, 1.5]]
    assert Configuration(["0.5", "1e-3"]).theta.tolist() == [0.5, 1e-3]
    assert numerical_rank([["1", "0"], ["0", "0"]]) == 1
