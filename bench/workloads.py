"""Workloads: inputs drawn from a seed, the fixed job list, and each job's check.

A job is one call into the program: an argument list for ``ivpaudit.cli.main``
or, for the two functions without a subcommand, a library call.  Each job
carries a check that compares its output with a computation from
``oracle.py``; a check returns a list of problems, empty when the output is
right.  Jobs tagged with a ``rung`` feed ``small_job_ms`` and
``large_job_ms``.

Regenerate the inputs of one run, and list its jobs, with

    python3 bench/workloads.py --workload audit --seed 7 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import Callable

import numpy as np
from scipy.special import chdtri

import oracle

Check = Callable[[dict], list]


@dataclass
class Job:
    name: str
    check: Check
    argv: list | None = None
    call: Callable | None = None  # call(ivpaudit) -> dict, for library-only functions
    rung: str | None = None  # "small" or "large"
    known_fault: bool = False


@dataclass
class SelfCheck:
    """A job on a paper example whose check must pass, and corruptions of its
    output that the same check must reject."""

    job: Job
    corruptions: dict = field(default_factory=dict)  # label -> fn(out) -> corrupted out


@dataclass
class Workload:
    jobs: list
    warmup: list  # argv of the untimed warm-up job
    systems: list  # files read by load_system during set-up
    structures: list  # files read by load_structure during set-up
    self_checks: list

    def __post_init__(self) -> None:
        # Spread each rung's jobs evenly over the pass, so that the samples
        # behind a rung metric span the whole run rather than one stretch of
        # it; on a shared 2-vCPU VM the speed drifted by 10-20 % over a few
        # seconds.
        groups: dict = {}
        for job in self.jobs:
            groups.setdefault(job.rung, []).append(job)
        spread = [((k + 0.5) / len(g), job) for g in groups.values() for k, job in enumerate(g)]
        self.jobs = [job for _, job in sorted(spread, key=lambda item: item[0])]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _expect_close(problems: list, label: str, got, want, rtol: float, atol: float = 0.0) -> None:
    if not isinstance(got, (int, float)) or not _close(float(got), float(want), rtol, atol):
        problems.append(f"{label}: got {got!r}, expected {want!r} (rtol {rtol:g})")


def _nodes_arg(nodes) -> str:
    return ",".join(str(i + 1) for i in nodes)


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _system_payload(A, C, noise: dict) -> dict:
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    return {"n": A.shape[0], "m": C.shape[0], "A": A.tolist(), "C": C.tolist(), "noise": noise}


def _iid(sigma_nu: float, sigma_omega: float) -> dict:
    return {"kind": "iid", "sigma_nu": sigma_nu, "sigma_omega": sigma_omega}


def _basis(null_basis, n: int) -> np.ndarray:
    """Null basis as an n x k array, also for k = 0."""
    arr = np.asarray(null_basis, dtype=float)
    return arr.reshape(n, arr.size // n)


def _structure_payload(n: int, edges, sensor_edges) -> dict:
    m = 1 + max(s for _, s in sensor_edges)
    return {
        "n": n,
        "m": m,
        "edges": [[a + 1, b + 1] for a, b in edges],
        "sensor_edges": [[a + 1, b + 1] for a, b in sensor_edges],
    }


# The paper's 2-node examples: A = [[0, 1], [0, -1]] read through x1 + x2
# (unobservable along [1, -1]) or through x1 alone (observable).
PAPER_A = [[0.0, 1.0], [0.0, -1.0]]
SUM_C = [[1.0, 1.0]]
FIRST_C = [[1.0, 0.0]]
SUM_NULL = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Expected values for systems with a known null space
# ---------------------------------------------------------------------------


@dataclass
class KnownSystem:
    """A system with its null space of O_ob and its output statistics at T = n-1.

    The statistics come from the rotated permutation closed forms or, for
    other systems, from the state-covariance recursion.
    """

    null_basis: np.ndarray  # n x k, orthonormal columns
    norm_OT_sq: float
    lam_min: float
    refined_lhs: float
    sigma_scale: float  # bound on ||Sigma||, for absolute tolerances

    @property
    def n(self) -> int:
        return self.null_basis.shape[0]

    @classmethod
    def from_construction(cls, con: oracle.RotatedPermutation) -> "KnownSystem":
        T = con.n - 1
        return cls(
            null_basis=con.null_basis,
            norm_OT_sq=con.norm_OT_sq(T),
            lam_min=con.lam_min(),
            refined_lhs=con.refined_lhs(T),
            sigma_scale=con.sigma_nu**2 * T * (T + 1) / 2 + con.sigma_omega**2,
        )

    @classmethod
    def by_recursion(cls, A, C, sigma_nu, sigma_omega, null_basis) -> "KnownSystem":
        A = np.asarray(A, dtype=float)
        C = np.asarray(C, dtype=float)
        T = A.shape[0] - 1
        O_T = oracle.stacked_observability(A, C, T)
        Sigma = oracle.output_covariance_iid(A, C, sigma_nu, sigma_omega, T)
        eigs = np.linalg.eigvalsh(Sigma)
        return cls(
            null_basis=_basis(null_basis, A.shape[0]),
            norm_OT_sq=float(np.linalg.norm(O_T, 2)) ** 2,
            lam_min=float(eigs[0]),
            refined_lhs=float(np.linalg.norm(O_T.T @ np.linalg.solve(Sigma, O_T), 2)),
            sigma_scale=float(eigs[-1]),
        )


def check_audit(ks: KnownSystem, nodes, P) -> Check:
    n = ks.n
    N = ks.null_basis
    rank = n - N.shape[1]

    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "n", out.get("n"), n)
        _expect(problems, "T", out.get("T"), n - 1)
        _expect(problems, "rank_Oob", out.get("rank_Oob"), rank)
        _expect(problems, "index", out.get("index"), n - rank - 1)
        _expect(problems, "whole_vector_private", out.get("whole_vector_private"), rank < n)
        verdicts = out.get("nodes", [])
        _expect(problems, "node count", len(verdicts), len(nodes))
        for i, v in zip(nodes, verdicts):
            label = f"node {i + 1}"
            _expect(problems, f"{label} id", v.get("node"), i + 1)
            _expect(problems, f"{label} P", v.get("P"), [p + 1 for p in P])
            private = oracle.private_by_null_basis(N, i, P)
            _expect(problems, f"{label} private", v.get("private"), private)
            if private and v.get("private"):
                eta = np.asarray(v.get("eta", []), dtype=float)
                if eta.shape != (n,):
                    problems.append(f"{label} eta: shape {eta.shape}")
                    continue
                size = float(np.linalg.norm(eta))
                if any(abs(eta[p]) > 1e-12 * size for p in P):
                    problems.append(f"{label} eta: nonzero on the disclosure set")
                if abs(eta[i]) <= 1e-6 * size:
                    problems.append(f"{label} eta: zero at the node")
                if np.linalg.norm(eta - N @ (N.T @ eta)) > 1e-7 * size:
                    problems.append(f"{label} eta: outside the null space")
        return problems

    return check


def check_dp_standard(ks: KnownSystem, epsilon, delta, d, N) -> Check:
    k = oracle.kappa(epsilon, delta)
    rhs = d * d * N * ks.norm_OT_sq * k * k

    def check(out: dict) -> list:
        problems: list = []
        _expect_close(problems, "lhs", out.get("lhs"), ks.lam_min, 1e-9, 1e-9 * ks.sigma_scale)
        _expect_close(problems, "rhs", out.get("rhs"), rhs, 1e-9)
        _expect_close(problems, "kappa", out.get("kappa"), k, 1e-9)
        _expect(problems, "refined_used", out.get("refined_used"), False)
        if not _close(ks.lam_min, rhs, 1e-6):
            _expect(problems, "satisfied", out.get("satisfied"), ks.lam_min >= rhs)
        return problems

    return check


def check_dp_refined(ks: KnownSystem, epsilon, delta, d, N) -> Check:
    k = oracle.kappa(epsilon, delta)
    rhs = 1.0 / (d * d * N * k * k)

    def check(out: dict) -> list:
        problems: list = []
        _expect_close(problems, "lhs", out.get("lhs"), ks.refined_lhs, 1e-6)
        _expect_close(problems, "rhs", out.get("rhs"), rhs, 1e-9)
        _expect_close(problems, "kappa", out.get("kappa"), k, 1e-9)
        _expect(problems, "refined_used", out.get("refined_used"), True)
        if not _close(ks.refined_lhs, rhs, 1e-4):
            _expect(problems, "satisfied", out.get("satisfied"), ks.refined_lhs <= rhs)
        return problems

    return check


def check_calibrate(ks: KnownSystem, epsilon, delta, d, N, grid) -> Check:
    k = oracle.kappa(epsilon, delta)
    c = d * math.sqrt(N) * math.sqrt(ks.norm_OT_sq)
    floor = c * k

    def check(out: dict) -> list:
        problems: list = []
        _expect_close(problems, "sigma_omega_floor", out.get("sigma_omega_floor"), floor, 1e-9)
        _expect_close(problems, "kappa", out.get("kappa"), k, 1e-9)
        _expect_close(problems, "norm_OT", out.get("norm_OT"), math.sqrt(ks.norm_OT_sq), 1e-9)
        table = out.get("delta_min_table", [])
        _expect(problems, "table epsilons", [row.get("epsilon") for row in table], list(grid))
        for row in table:
            want = oracle.delta_min(row["epsilon"], floor * floor, c)
            _expect_close(problems, f"delta_min at {row['epsilon']}", row.get("delta_min"), want, 1e-6, 1e-15)
            if row["epsilon"] == epsilon and not row.get("delta_min", 1.0) <= delta * (1 + 1e-9):
                problems.append(f"calibrated floor does not certify delta {delta}: {row.get('delta_min')}")
        return problems

    return check


# ---------------------------------------------------------------------------
# audit: weight-specific verdicts and noise calibration up to n = 400
# ---------------------------------------------------------------------------

#: (n, systems on the rung, rung tag).  The ladder stops at n = 400, where
#: H_T alone is 511 MB; at n = 1000 it would be about 8 GB.
AUDIT_LADDER = ((10, 6, "small"), (50, 1, None), (100, 1, None), (200, 1, None), (400, 1, "large"))


def audit_hidden(n: int) -> int:
    """Hidden states of the audit systems.  Fixed per size: the spectrum of
    O_ob, and with it the SVD's run time, depends on it.  At least three, so
    that every node is private under a disclosure set of two."""
    return max(3, n // 4)


AUDIT_GRID = (0.5, 1.0, 2.0)


def _audit_jobs(name: str, path: str, ks: KnownSystem, rng, rung) -> list:
    n = ks.n
    order = [int(v) for v in rng.permutation(n)]
    nodes, P = sorted(order[:2]), sorted(order[2:4])
    epsilon = float(rng.choice(AUDIT_GRID))
    delta, d, N = 0.05, 1.0, int(rng.choice((1, 10)))
    budget = ["--epsilon", repr(epsilon), "--delta", repr(delta), "--d", repr(d), "--N", str(N)]
    grid = ",".join(repr(e) for e in AUDIT_GRID)
    return [
        Job(f"{name}/audit", check_audit(ks, nodes, P), rung=rung,
            argv=["audit", "--system", path, "--node", _nodes_arg(nodes), "--public", _nodes_arg(P)]),
        Job(f"{name}/check-dp", check_dp_standard(ks, epsilon, delta, d, N), rung=rung,
            argv=["check-dp", "--system", path] + budget),
        Job(f"{name}/check-dp-refined", check_dp_refined(ks, epsilon, delta, d, N), rung=rung,
            argv=["check-dp", "--system", path] + budget + ["--refined"]),
        Job(f"{name}/calibrate", check_calibrate(ks, epsilon, delta, d, N, AUDIT_GRID), rung=rung,
            argv=["calibrate", "--system", path] + budget + ["--epsilon-grid", grid]),
    ]


def _paper_self_checks(out_dir: str) -> list:
    """Audit and DP checks on the 2-node examples, with corruptions to reject."""
    first_null = np.zeros((2, 0))
    sum_ks = KnownSystem.by_recursion(PAPER_A, SUM_C, 1.0, 0.5, SUM_NULL)
    first_ks = KnownSystem.by_recursion(PAPER_A, FIRST_C, 1.0, 1.0, first_null)
    sum_path = _write_json(os.path.join(out_dir, "paper_sum.json"), _system_payload(PAPER_A, SUM_C, _iid(1.0, 0.5)))
    first_path = _write_json(
        os.path.join(out_dir, "paper_first.json"), _system_payload(PAPER_A, FIRST_C, _iid(1.0, 1.0))
    )
    budget = ["--epsilon", "1.0", "--delta", "0.05"]

    def with_eta(out, eta):
        out["nodes"][0]["eta"] = eta
        return out

    return [
        SelfCheck(
            Job("paper-sum/audit", check_audit(sum_ks, [0], []),
                argv=["audit", "--system", sum_path, "--node", "1"]),
            {
                "rank 2": lambda o: {**o, "rank_Oob": 2, "index": -1},
                "whole vector observable": lambda o: {**o, "whole_vector_private": False},
                "eta off the null direction": lambda o: with_eta(o, [1.0, 1.0]),
                "node not private": lambda o: {**o, "nodes": [{**o["nodes"][0], "private": False}]},
            },
        ),
        SelfCheck(
            Job("paper-first/audit", check_audit(first_ks, [0], []),
                argv=["audit", "--system", first_path, "--node", "1"]),
            {
                "rank 1": lambda o: {**o, "rank_Oob": 1, "index": 0},
                "node private": lambda o: {**o, "nodes": [{**o["nodes"][0], "private": True}]},
            },
        ),
        SelfCheck(
            Job("paper-first/check-dp", check_dp_standard(first_ks, 1.0, 0.05, 1.0, 1),
                argv=["check-dp", "--system", first_path] + budget),
            {"lhs off by 1%": lambda o: {**o, "lhs": o["lhs"] * 1.01},
             "rhs off by 1%": lambda o: {**o, "rhs": o["rhs"] * 1.01}},
        ),
        SelfCheck(
            Job("paper-first/check-dp-refined", check_dp_refined(first_ks, 1.0, 0.05, 1.0, 1),
                argv=["check-dp", "--system", first_path] + budget + ["--refined"]),
            {"lhs off by 1%": lambda o: {**o, "lhs": o["lhs"] * 1.01}},
        ),
        SelfCheck(
            Job("paper-first/calibrate", check_calibrate(first_ks, 1.0, 0.05, 1.0, 1, (0.5, 1.0)),
                argv=["calibrate", "--system", first_path] + budget + ["--epsilon-grid", "0.5,1.0"]),
            {"floor off by 1%": lambda o: {**o, "sigma_omega_floor": o["sigma_omega_floor"] * 1.01},
             "delta_min off": lambda o: {**o, "delta_min_table": [
                 {**row, "delta_min": row["delta_min"] * 1.5} for row in o["delta_min_table"]]}},
        ),
    ]


def closed_form_problems(rng) -> list:
    """The rotated permutation closed forms must agree with the recursion."""
    con = oracle.rotated_permutation(7, 4, rng, 0.8, 0.6)
    closed = KnownSystem.from_construction(con)
    rec = KnownSystem.by_recursion(*con.matrices(), con.sigma_nu, con.sigma_omega, con.null_basis)
    problems = []
    for name in ("norm_OT_sq", "lam_min", "refined_lhs"):
        if not _close(getattr(closed, name), getattr(rec, name), 1e-9):
            problems.append(f"closed form {name} {getattr(closed, name)!r} != recursion {getattr(rec, name)!r}")
    return problems


def build_audit(seed: int, out_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    problems = closed_form_problems(rng)
    if problems:
        raise RuntimeError("; ".join(problems))
    jobs = []
    systems = []
    for n, count, rung in AUDIT_LADDER:
        for k in range(count):
            con = oracle.rotated_permutation(
                n, n - audit_hidden(n), rng, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.2, 1.0))
            )
            A, C = con.matrices()
            path = _write_json(
                os.path.join(out_dir, f"rot_n{n}_{k}.json"),
                _system_payload(A, C, _iid(con.sigma_nu, con.sigma_omega)),
            )
            systems.append(path)
            jobs += _audit_jobs(f"n{n}.{k}", path, KnownSystem.from_construction(con), rng, rung)
    warm = next(j for j in jobs if j.name == "n100.0/check-dp-refined")
    return Workload(jobs=jobs, warmup=warm.argv, systems=systems, structures=[],
                    self_checks=_paper_self_checks(out_dir))


# ---------------------------------------------------------------------------
# network: structure-level verdicts and exhaustive enumeration
# ---------------------------------------------------------------------------

#: Sizes of the random structures; the smallest rung gets four structures and
#: the others two, each with one generic-index and two generic-check jobs.
NETWORK_LADDER = (6, 12, 18, 24, 30)
#: Exhaustive enumeration: rotated permutation systems with 5 hidden states.
BRUTEFORCE_SIZES = ((8, None), (12, None), (16, "large"), (16, "large"), (16, "large"))
BRUTEFORCE_HIDDEN = 5
#: Known fault kept in the job list: sensed bidirectional lines are
#: structurally observable (generic index -1) but the sampled float rank
#: reports 3 and 21 at n = 40 and 60.  Fixed seed, independent of --seed.
LINE_SIZES = (40, 60)
LINE_SEED = 7
SAMPLES = 8


def random_structure(rng, n: int):
    """Accessible part R feeding the sensors plus two nodes U that no sensor
    can reach (edges run only R -> U and within U)."""
    u = 2
    r = n - u
    m = max(1, r // 4)
    perm = [int(v) for v in rng.permutation(n)]
    R, U = perm[:r], perm[r:]
    edges = set()
    sensor_edges = set()
    for k, v in enumerate(R):
        if k < m:
            sensor_edges.add((v, k))
        else:
            edges.add((v, R[int(rng.integers(0, k))]))
        if rng.random() < 0.5:
            edges.add((v, v))
    for _ in range(r):
        a, b = (int(x) for x in rng.choice(R, size=2, replace=False))
        edges.add((a, b))
    for s in range(m):
        sensor_edges.add((R[int(rng.integers(0, r))], s))
    for k, v in enumerate(U):
        edges.add((R[int(rng.integers(0, r))], v))
        if k:
            edges.add((U[k - 1], v))
    return sorted(edges, key=lambda e: (e[1], e[0])), sorted(sensor_edges, key=lambda e: (e[1], e[0]))


def check_generic_index(n, edges, sensor_edges, rng) -> Check:
    exact = oracle.exact_privacy(n, edges, sensor_edges, oracle.field_weights(len(edges) + len(sensor_edges), rng))

    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "rank_Oob", out.get("rank_Oob"), exact.rank_hidden)
        _expect(problems, "index", out.get("index"), n - exact.rank_hidden - 1)
        _expect(problems, "method", out.get("method"), "generic")
        return problems

    return check


def check_generic_node(n, edges, sensor_edges, i, P, rng) -> Check:
    exact = oracle.exact_privacy(
        n, edges, sensor_edges, oracle.field_weights(len(edges) + len(sensor_edges), rng), P, [i]
    )

    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "node", out.get("node"), i + 1)
        _expect(problems, "P", out.get("P"), [p + 1 for p in P])
        _expect(problems, "generically_private", out.get("generically_private"), exact.private[i])
        _expect(problems, "event_E_observed", out.get("event_E_observed"), exact.private[i])
        _expect(problems, "n_P_ob", out.get("estimate", {}).get("n_P_ob"), exact.rank_hidden)
        return problems

    return check


def check_dichotomy(n, edges, sensor_edges, i, P, theta, rng) -> Check:
    weights = oracle.field_weights(len(edges) + len(sensor_edges), rng)
    generic = oracle.exact_privacy(n, edges, sensor_edges, weights, P, [i]).private[i]
    rational = [Fraction(t) for t in theta]
    exact = oracle.exact_privacy(n, edges, sensor_edges, rational, P, [i], prime=None).private[i]

    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "generic private", out.get("generic", {}).get("generically_private"), generic)
        _expect(problems, "exact private", out.get("exact", {}).get("private"), exact)
        _expect(problems, "agree", out.get("agree"), generic == exact)
        _expect(problems, "exception_surface_hit", out.get("exception_surface_hit"), generic != exact)
        return problems

    return check


def check_bruteforce(n: int, hidden: int) -> Check:
    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "index", out.get("index"), hidden - 1)
        _expect(problems, "rank_Oob", out.get("rank_Oob"), n - hidden)
        _expect(problems, "method", out.get("method"), "brute_force")
        return problems

    return check


def _dichotomy_job(name, path, n, edges, sensor_edges, i, P, theta, seed, rng) -> Job:
    def call(iv):
        structure = iv.load_structure(path)
        return iv.dichotomy_report(structure, i, P, list(theta), samples=SAMPLES, seed=seed).to_dict(one_based=True)

    return Job(name, check_dichotomy(n, edges, sensor_edges, i, P, theta, rng), call=call)


def _bruteforce_job(name, path, n, hidden, rung) -> Job:
    return Job(name, check_bruteforce(n, hidden), rung=rung,
               call=lambda iv: iv.privacy_index_bruteforce(iv.load_system(path)).to_dict())


#: Structures of the paper's examples, with the weights of the printed systems.
#: (n, edges, sensor_edges, theta, node, P); edges are (src, dst) with A[dst, src].
PAPER_STRUCTURES = {
    # A = [[0, 1], [0, -1]], C = [1, 1]: exactly private along [1, -1],
    # generically observable.
    "paper-sum": (2, [(1, 0), (1, 1)], [(0, 0), (1, 0)], (1, -1, 1, 1), 0, ()),
    # Same A, C = [1, 0]: observable for these weights and generically.
    "paper-first": (2, [(1, 0), (1, 1)], [(0, 0)], (1, -1, 1), 0, ()),
    # 3-node path, sensor on nodes 1 and 3; all-ones weights sit on the
    # exceptional surface c11 a23 = c13 a21.
    "line3": (3, [(1, 0), (0, 1), (2, 1)], [(0, 0), (2, 0)], (1, 1, 1, 1, 1), 0, ()),
    # 4-node tree; node 4 is generically private and exactly lost here.
    "tree4": (4, [(0, 0), (1, 0), (3, 0), (1, 1), (2, 1)], [(0, 0), (2, 0)], (1, 1, 1, 1, 1, 1, -1), 3, ()),
}


def build_network(seed: int, out_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    structures = []
    systems = []
    for n in NETWORK_LADDER:
        for k in range(4 if n == NETWORK_LADDER[0] else 2):
            edges, sensor_edges = random_structure(rng, n)
            path = _write_json(os.path.join(out_dir, f"net_n{n}_{k}.json"), _structure_payload(n, edges, sensor_edges))
            structures.append(path)
            rung = "small" if n == NETWORK_LADDER[0] else None
            prog_seed = str(int(rng.integers(0, 2**31)))
            jobs.append(Job(f"n{n}.{k}/generic-index", check_generic_index(n, edges, sensor_edges, rng), rung=rung,
                            argv=["generic-index", "--structure", path, "--seed", prog_seed]))
            for q in range(2):
                order = [int(v) for v in rng.permutation(n)]
                P = sorted(order[1:1 + 2 * q])
                i = order[0]
                jobs.append(Job(
                    f"n{n}.{k}/generic-check.{q}", check_generic_node(n, edges, sensor_edges, i, P, rng), rung=rung,
                    argv=["generic-check", "--structure", path, "--node", str(i + 1),
                          "--public", _nodes_arg(P), "--seed", prog_seed]))
    for name in ("line3", "tree4"):
        n, edges, sensor_edges, theta, i, P = PAPER_STRUCTURES[name]
        path = _write_json(os.path.join(out_dir, f"{name}.json"), _structure_payload(n, edges, sensor_edges))
        structures.append(path)
        jobs.append(_dichotomy_job(f"{name}/dichotomy", path, n, edges, sensor_edges, i, P, theta,
                                   int(rng.integers(0, 2**31)), rng))
    for k in range(2):
        n = 6
        edges, sensor_edges = random_structure(rng, n)
        theta = [int(v) for v in rng.choice((-2, -1, 1, 2), size=len(edges) + len(sensor_edges))]
        path = _write_json(os.path.join(out_dir, f"dich_n{n}_{k}.json"), _structure_payload(n, edges, sensor_edges))
        structures.append(path)
        i = int(rng.integers(0, n))
        jobs.append(_dichotomy_job(f"dich{k}/dichotomy", path, n, edges, sensor_edges, i, (), theta,
                                   int(rng.integers(0, 2**31)), rng))
    for k, (n, rung) in enumerate(BRUTEFORCE_SIZES):
        con = oracle.rotated_permutation(n, n - BRUTEFORCE_HIDDEN, rng, 1.0, 1.0)
        A, C = con.matrices()
        path = _write_json(os.path.join(out_dir, f"brute_n{n}_{k}.json"), _system_payload(A, C, _iid(1.0, 1.0)))
        systems.append(path)
        jobs.append(_bruteforce_job(f"brute{k}.n{n}/bruteforce", path, n, BRUTEFORCE_HIDDEN, rung))
    line_rng = np.random.default_rng(LINE_SEED)
    for n in LINE_SIZES:
        edges = sorted([(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)],
                       key=lambda e: (e[1], e[0]))
        path = _write_json(os.path.join(out_dir, f"line_n{n}.json"), _structure_payload(n, edges, [(0, 0)]))
        structures.append(path)
        jobs.append(Job(f"line{n}/generic-index", check_generic_index(n, edges, [(0, 0)], line_rng),
                        argv=["generic-index", "--structure", path, "--seed", str(LINE_SEED)], known_fault=True))
    warm = next(j for j in jobs if j.name == "n12.0/generic-index")
    return Workload(jobs=jobs, warmup=warm.argv, systems=systems, structures=structures,
                    self_checks=_network_self_checks(out_dir, rng))


def _network_self_checks(out_dir: str, rng) -> list:
    checks = []
    for name in ("paper-sum", "paper-first"):
        n, edges, sensor_edges, theta, i, P = PAPER_STRUCTURES[name]
        path = _write_json(os.path.join(out_dir, f"{name}.json"), _structure_payload(n, edges, sensor_edges))
        checks.append(SelfCheck(
            _dichotomy_job(f"{name}/dichotomy", path, n, edges, sensor_edges, i, P, theta, 11, rng),
            {"exact verdict flipped": lambda o: {**o, "exact": {**o["exact"], "private": not o["exact"]["private"]}},
             "generic verdict flipped": lambda o: {**o, "generic": {
                 **o["generic"], "generically_private": not o["generic"]["generically_private"]}}},
        ))
        checks.append(SelfCheck(
            Job(f"{name}/generic-index", check_generic_index(n, edges, sensor_edges, rng),
                argv=["generic-index", "--structure", path, "--seed", "11"]),
            {"index off by one": lambda o: {**o, "index": o["index"] + 1, "rank_Oob": o["rank_Oob"] - 1}},
        ))
    return checks


# ---------------------------------------------------------------------------
# release: simulation, the averaging attack and the histogram probe
# ---------------------------------------------------------------------------

#: Tail probability of each statistical check; with a few hundred checks per
#: run, a false alarm has probability below 1e-6.
STAT_TAIL = 1e-9
STAT_Z = NormalDist().inv_cdf(1.0 - STAT_TAIL / 2)
#: Cells enter the probe's ratios only with this many samples on both sides
#: (the program's default; the CLI has no flag for it).
PROBE_MIN_COUNT = 10


@dataclass
class ReleaseSystem:
    path: str
    A: np.ndarray
    C: np.ndarray
    Sigma: np.ndarray  # stacked output noise covariance at T = n-1
    null_basis: np.ndarray  # n x k

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def T(self) -> int:
        return self.n - 1

    def O_T(self) -> np.ndarray:
        return oracle.stacked_observability(self.A, self.C, self.T)


def check_simulate(rs: ReleaseSystem, x0, N: int) -> Check:
    mean = oracle.output_mean(rs.A, rs.C, x0, rs.T)
    sd = np.sqrt(np.clip(np.diag(rs.Sigma), 0.0, None))

    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "N", out.get("N"), N)
        _expect(problems, "T", out.get("T"), rs.T)
        y_mean = np.asarray(out.get("y_mean", []), dtype=float)
        y_std = np.asarray(out.get("y_std", []), dtype=float)
        if y_mean.shape != mean.shape or y_std.shape != mean.shape:
            return problems + [f"output length {y_mean.shape}, expected {mean.shape}"]
        scale = 1e-9 * (1.0 + np.abs(mean))
        bad = np.abs(y_mean - mean) > STAT_Z * sd / math.sqrt(N) + scale
        if bad.any():
            problems.append(f"y_mean outside {STAT_Z:.1f} standard errors of O_T x0 at {np.flatnonzero(bad).tolist()}")
        bad = np.abs(y_std - sd) > STAT_Z * sd / math.sqrt(2 * N) + scale
        if bad.any():
            problems.append(f"y_std inconsistent with the output covariance at {np.flatnonzero(bad).tolist()}")
        return problems

    return check


def check_attack(rs: ReleaseSystem, x0, N: int) -> Check:
    O_T = rs.O_T()
    N_basis = rs.null_basis
    k = N_basis.shape[1]
    # Observable coordinates: an orthonormal complement of the null space.
    Q_o = np.linalg.svd(np.eye(rs.n) - N_basis @ N_basis.T)[0][:, : rs.n - k]
    G = O_T @ Q_o
    # A singular output covariance (sigma_omega = 0) has no chi-squared law
    # for the error; only the structural checks apply then.
    noisy = np.linalg.eigvalsh(rs.Sigma)[0] > 0
    cov_obs = np.linalg.inv(G.T @ np.linalg.solve(rs.Sigma, G)) / N if noisy else None
    bound = float(chdtri(rs.n - k, STAT_TAIL))

    def check(out: dict) -> list:
        problems: list = []
        _expect(problems, "identifiable", out.get("identifiable"), k == 0)
        x0_hat = np.asarray(out.get("x0_hat", []), dtype=float)
        if x0_hat.shape != (rs.n,):
            return problems + [f"x0_hat shape {x0_hat.shape}"]
        if noisy:
            err = Q_o.T @ (x0_hat - x0)
            stat = float(err @ np.linalg.solve(cov_obs, err))
            if not stat <= bound:
                problems.append(f"attack error chi2 {stat:.3g} beyond the {1 - STAT_TAIL} quantile {bound:.3g}")
        if k == 0 and noisy:
            cov = np.asarray(out.get("covariance_estimate"), dtype=float)
            if cov.shape != cov_obs.shape or np.linalg.norm(cov - cov_obs) > 1e-6 * np.linalg.norm(cov_obs):
                problems.append("covariance_estimate differs from (O_T^T Sigma^-1 O_T)^-1 / N")
            else:
                x_err = x0_hat - x0
                stat = float(x_err @ np.linalg.solve(cov, x_err))
                if not stat <= bound:
                    problems.append(f"attack error chi2 {stat:.3g} under covariance_estimate beyond {bound:.3g}")
        elif k > 0:
            _expect(problems, "covariance_estimate", out.get("covariance_estimate"), "non-identifiable")
            ns = _basis(out.get("null_space") or [], rs.n)
            if ns.shape[1] != k or np.linalg.matrix_rank(ns, tol=1e-8) != k:
                problems.append(f"null_space has {ns.shape[1]} columns, expected {k}")
            elif np.linalg.norm(ns - N_basis @ (N_basis.T @ ns)) > 1e-8 * np.linalg.norm(ns):
                problems.append("null_space does not span the known unobservable subspace")
            if np.linalg.norm(N_basis.T @ x0_hat) > 1e-8 * (1.0 + np.linalg.norm(x0_hat)):
                problems.append("x0_hat is not the minimum-norm estimate")
        return problems

    return check


def _read_hist_csv(path: str, coords: int, sides: int):
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["coord"]), []).append(
                (float(row["bin_left"]), float(row["bin_right"]), int(row["x0_index"]), int(row["count"]))
            )
    edges, counts = [], []
    for r in range(coords):
        cells = rows.get(r, [])
        bins = sorted({(a, b) for a, b, _, _ in cells})
        e = np.array([bins[0][0]] + [b for _, b in bins]) if bins else np.zeros(1)
        c = np.zeros((sides, len(bins)), dtype=np.int64)
        index = {lo: j for j, (lo, _) in enumerate(bins)}
        for lo, _, side, count in cells:
            c[side, index[lo]] = count
        edges.append(e)
        counts.append(c)
    return edges, counts


def check_probe(rs: ReleaseSystem, x0s, runs: int, csv_path: str, violation: bool) -> Check:
    means = [oracle.output_mean(rs.A, rs.C, x, rs.T) for x in x0s]
    coords = means[0].shape[0]
    var = np.diag(rs.Sigma)

    def check(out: dict) -> list:
        problems: list = []
        probe = out.get("empirical_dp", {})
        _expect(problems, "dp_violation", probe.get("dp_violation"), violation)
        edges, counts = _read_hist_csv(csv_path, coords, len(x0s))
        eps_hat = 0.0
        analytic = 0.0
        for r in range(coords):
            if not (counts[r].sum(axis=1) == runs).all():
                problems.append(f"coordinate {r}: histogram counts do not sum to {runs}")
            probs = counts[r] / float(runs)
            cells = [oracle.gaussian_cells(float(mu[r]), float(var[r]), edges[r]) for mu in means]
            for j in range(len(x0s)):
                for k in range(len(x0s)):
                    if j == k:
                        continue
                    live = (counts[r][j] >= PROBE_MIN_COUNT) & (counts[r][k] >= PROBE_MIN_COUNT) & (probs[j] > 0)
                    if live.any():
                        eps_hat = max(eps_hat, float(np.log(probs[j][live] / probs[k][live]).max()))
                        ok = live & (cells[j] > 0) & (cells[k] > 0)
                        if ok.any():
                            analytic = max(analytic, float(np.log(cells[j][ok] / cells[k][ok]).max()))
        _expect_close(problems, "eps_hat", probe.get("eps_hat"), eps_hat, 1e-9, 1e-12)
        _expect_close(problems, "analytic_eps", probe.get("analytic_eps"), analytic, 1e-6, 1e-9)
        return problems

    return check


def _release_system(out_dir, name, A, C, noise: dict, null_basis) -> ReleaseSystem:
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    T = A.shape[0] - 1
    if noise["kind"] == "iid":
        Sigma = oracle.output_covariance_iid(A, C, noise["sigma_nu"], noise["sigma_omega"], T)
    else:
        Sigma = oracle.output_covariance_joint(A, C, np.asarray(noise["SigmaT"]), T)
    path = _write_json(os.path.join(out_dir, f"{name}.json"), _system_payload(A, C, noise))
    return ReleaseSystem(path=path, A=A, C=C, Sigma=Sigma, null_basis=_basis(null_basis, A.shape[0]))


def _vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


#: Trajectory counts of the rungs.
RELEASE_N = {"small": 1_000, "mid": 10_000, "large": 100_000}
PROBE_RUNS = 20_000
VIOLATION_RUNS = 5_000


def _release_systems(out_dir: str, rng) -> dict:
    systems = {
        "sum2": _release_system(out_dir, "sum2", PAPER_A, SUM_C, _iid(1.0, 0.5), SUM_NULL),
        "first2": _release_system(out_dir, "first2", PAPER_A, FIRST_C, _iid(1.0, 1.0), np.zeros((2, 0))),
        "sum2-exact": _release_system(out_dir, "sum2_exact", PAPER_A, SUM_C, _iid(1.0, 0.0), SUM_NULL),
    }
    con = oracle.rotated_permutation(4, 3, rng, 0.7, 0.5)
    systems["rot4"] = _release_system(out_dir, "rot4", *con.matrices(), _iid(0.7, 0.5), con.null_basis)
    M = rng.standard_normal((8, 8))
    A8 = 0.9 * M / max(abs(np.linalg.eigvals(M)))
    systems["rand8"] = _release_system(out_dir, "rand8", A8, rng.standard_normal((2, 8)), _iid(0.5, 0.5),
                                       np.zeros((8, 0)))
    M = rng.standard_normal((3, 3))
    A3 = 0.8 * M / max(abs(np.linalg.eigvals(M)))
    side = 3 * 2 + 1 * 3
    B = rng.standard_normal((side, side))
    joint = B @ B.T / side + 0.1 * np.eye(side)
    systems["gen3"] = _release_system(out_dir, "gen3", A3, rng.standard_normal((1, 3)),
                                      {"kind": "general", "SigmaT": joint.tolist()}, np.zeros((3, 0)))
    return systems


def _simulate_job(rs: ReleaseSystem, name: str, x0, N: int, seed: int, rung) -> Job:
    return Job(f"{name}/simulate.N{N}", check_simulate(rs, x0, N), rung=rung,
               argv=["simulate", "--system", rs.path, "--x0=" + _vec(x0), "--N", str(N), "--seed", str(seed)])


def _attack_job(rs: ReleaseSystem, name: str, x0, N: int, seed: int, rung) -> Job:
    return Job(f"{name}/attack.N{N}", check_attack(rs, x0, N), rung=rung,
               argv=["attack", "--system", rs.path, "--x0=" + _vec(x0), "--N", str(N), "--seed", str(seed)])


def _probe_job(rs: ReleaseSystem, name: str, x0s, runs: int, seed: int, csv_path: str, violation: bool) -> Job:
    check_p = check_probe(rs, x0s, runs, csv_path, violation)
    check_a = check_attack(rs, x0s[0], 1_000)

    def check(out: dict) -> list:
        return check_a(out) + check_p(out)

    return Job(f"{name}/attack-probe", check,
               argv=["attack", "--system", rs.path, "--x0=" + _vec(x0s[0]), "--N", "1000", "--seed", str(seed),
                     "--empirical-dp", "--adjacent=" + ";".join(_vec(x) for x in x0s), "--runs", str(runs),
                     "--hist-csv", csv_path])


def build_release(seed: int, out_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    sy = _release_systems(out_dir, rng)

    def x0(name):
        return 2.0 * rng.standard_normal(sy[name].n)

    def prog_seed():
        return int(rng.integers(0, 2**31))

    small, mid, large = RELEASE_N["small"], RELEASE_N["mid"], RELEASE_N["large"]
    jobs = []
    for k in range(2):
        jobs += [
            _simulate_job(sy["first2"], f"first2.{k}", x0("first2"), small, prog_seed(), "small"),
            _simulate_job(sy["rand8"], f"rand8.{k}", x0("rand8"), small, prog_seed(), "small"),
            _attack_job(sy["first2"], f"first2.{k}", x0("first2"), small, prog_seed(), "small"),
            _attack_job(sy["sum2"], f"sum2.{k}", x0("sum2"), small, prog_seed(), "small"),
            _attack_job(sy["rot4"], f"rot4.{k}", x0("rot4"), small, prog_seed(), "small"),
            _attack_job(sy["rand8"], f"rand8.{k}", x0("rand8"), small, prog_seed(), "small"),
        ]
    jobs += [
        _simulate_job(sy["rand8"], "rand8", x0("rand8"), mid, prog_seed(), None),
        _attack_job(sy["rot4"], "rot4", x0("rot4"), mid, prog_seed(), None),
        _simulate_job(sy["gen3"], "gen3", x0("gen3"), mid, prog_seed(), None),
        _attack_job(sy["gen3"], "gen3", x0("gen3"), mid, prog_seed(), None),
        _simulate_job(sy["rand8"], "rand8", x0("rand8"), large, prog_seed(), "large"),
        _attack_job(sy["rand8"], "rand8", x0("rand8"), large, prog_seed(), "large"),
    ]
    base = x0("first2")
    step = rng.standard_normal(2)
    adjacent = [base, base + 0.3 * step / np.linalg.norm(step)]
    jobs.append(_probe_job(sy["first2"], "first2", adjacent, PROBE_RUNS, prog_seed(),
                           os.path.join(out_dir, "probe_first2.csv"), violation=False))
    # sigma_omega = 0: y_0 = x1 + x2 exactly, so initial values with different
    # sums have disjoint output supports.
    base = x0("sum2-exact")
    jobs.append(_probe_job(sy["sum2-exact"], "sum2-exact", [base, base + np.array([0.2, 0.1])], VIOLATION_RUNS,
                           prog_seed(), os.path.join(out_dir, "probe_sum2_exact.csv"), violation=True))
    return Workload(jobs=jobs, warmup=jobs[5].argv, systems=[rs.path for rs in sy.values()], structures=[],
                    self_checks=_release_self_checks(sy))


def _release_self_checks(sy: dict) -> list:
    x0 = np.array([2.0, 1.0])
    return [
        SelfCheck(
            _attack_job(sy["sum2"], "paper-sum", x0, 1_000, 1, None),
            {"null direction [1, 1]": lambda o: {**o, "null_space": [[1.0], [1.0]]},
             "declared identifiable": lambda o: {**o, "identifiable": True},
             "estimate shifted along [1, 1]": lambda o: {**o, "x0_hat": [v + 1.0 for v in o["x0_hat"]]}},
        ),
        SelfCheck(
            _attack_job(sy["first2"], "paper-first", x0, 1_000, 1, None),
            {"estimate off by 10 sd": lambda o: {**o, "x0_hat": [
                 o["x0_hat"][0] + 10 * math.sqrt(o["covariance_estimate"][0][0]), o["x0_hat"][1]]},
             "covariance halved": lambda o: {**o, "covariance_estimate": [
                 [v / 2 for v in row] for row in o["covariance_estimate"]]}},
        ),
        SelfCheck(
            _simulate_job(sy["first2"], "paper-first", x0, 1_000, 1, None),
            {"mean off by 10 standard errors": lambda o: {**o, "y_mean": [
                 o["y_mean"][0] + 10 * o["y_std"][0] / math.sqrt(1_000)] + o["y_mean"][1:]},
             "std doubled": lambda o: {**o, "y_std": [2 * v for v in o["y_std"]]}},
        ),
    ]


WORKLOADS = {"audit": build_audit, "network": build_network, "release": build_release}


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one run's inputs and list its jobs.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.out)
    for job in wl.jobs:
        what = " ".join(job.argv) if job.argv else "(library call)"
        print(f"{job.name}\trung={job.rung}\tknown_fault={job.known_fault}\t{what}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
