"""Shared fixtures: hand-built reference systems and random generators."""

from __future__ import annotations

import concurrent.futures
import json

import numpy as np
import pytest

from ivpaudit import (
    LinearSystem,
    NetworkStructure,
    NoiseModel,
    instantiate,
    sample_configuration,
    sim,
)


@pytest.fixture
def sys_line2_sum():
    """2-state system whose only measured quantity is x1 + x2.

    A = [[0, 1], [0, -1]], C = [1, 1]: the output at time 0 is x1+x2 and all
    later rows of the observability matrix vanish, so the initial value is
    non-identifiable along [1, -1].  Measurement noise is zero, which makes
    y_0 deterministic.
    """
    return LinearSystem(
        n=2, m=1, A=[[0.0, 1.0], [0.0, -1.0]], C=[[1.0, 1.0]],
        noise=NoiseModel.iid(1.0, 0.0),
    )


@pytest.fixture
def sys_line2_first():
    """Same dynamics but measuring x1 only; fully observable at T=1."""
    return LinearSystem(
        n=2, m=1, A=[[0.0, 1.0], [0.0, -1.0]], C=[[1.0, 0.0]],
        noise=NoiseModel.iid(1.0, 1.0),
    )


@pytest.fixture
def struct_line3():
    """3-node path with one sensor reading nodes 1 and 3 (0-based: 0 and 2).

    Node edges: 2->1, 1->2, 3->2; a single sensed output c11*x1 + c13*x3.
    Node 1 is generically identifiable but becomes private exactly on the
    weight surface c11*a23 == c13*a21 (the all-ones configuration sits on it).
    """
    return NetworkStructure(
        n=3, m=1, edges=((1, 0), (0, 1), (2, 1)), sensor_edges=((0, 0), (2, 0))
    )


@pytest.fixture
def struct_tree4():
    """4-node structure whose node 4 is generically private.

    Node edges: 1->1, 2->1, 4->1, 2->2, 3->2; sensor reads nodes 1 and 3.
    Privacy of node 4 is lost exactly on the surface
    c13*a11*a22 + c11*a12*a23 == 0 with c11*a14*a22 != 0.
    """
    return NetworkStructure(
        n=4,
        m=1,
        edges=((0, 0), (1, 0), (3, 0), (1, 1), (2, 1)),
        sensor_edges=((0, 0), (2, 0)),
    )


#: Weight layout for struct_tree4 in canonical order: a11, a12, a14, a22,
#: a23, c11, c13.  This choice zeroes c13*a11*a22 + c11*a12*a23 while keeping
#: c11*a14*a22 nonzero, so node 4 (0-based 3) loses privacy exactly there.
TREE4_SPECIAL_THETA = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


def random_structure(rng, n_min=2, n_max=8, m_max=2, density=0.35) -> NetworkStructure:
    """Sparse random structure; every sensor reads at least one node."""
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    edges = set()
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                edges.add((j, i))
    sensor_edges = set()
    for s in range(m):
        picks = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
        for src in picks:
            sensor_edges.add((int(src), s))
    return NetworkStructure(n=n, m=m, edges=tuple(edges), sensor_edges=tuple(sensor_edges))


def random_system(rng, n_min=2, n_max=8, noise=None) -> LinearSystem:
    """Random sparse structure instantiated with uniform weights."""
    structure = random_structure(rng, n_min=n_min, n_max=n_max)
    config = sample_configuration(structure, seed=int(rng.integers(0, 2**32)))
    base = instantiate(structure, config)
    if noise is None:
        noise = NoiseModel.iid(0.0, 1.0)
    return LinearSystem(n=base.n, m=base.m, A=base.A, C=base.C, noise=noise, require_output=False)


def write_system_file(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


# Release systems and ``simulate`` chunking, shared by the library and CLI tests.


def iid_noise_system() -> LinearSystem:
    n, m = 3, 2
    return LinearSystem(
        n=n, m=m, A=np.eye(n) * 0.5, C=np.ones((m, n)), noise=NoiseModel.iid(0.7, 1.3)
    )


def chunk_rows(monkeypatch, system: LinearSystem, T: int, rows: int) -> None:
    """Set the chunk budget to ``rows`` trajectories' worth of draws and states."""
    row_bytes = 8 * (system.n * T + system.m * (T + 1) + 2 * system.n)
    monkeypatch.setattr(sim, "CHUNK_BYTES", rows * row_bytes)


def count_draws(monkeypatch) -> list:
    """Record (start, rows) of every ``_draw_noise`` call."""
    calls = []
    draw = sim._draw_noise

    def counted(system, N, T, seed, start, L):
        calls.append((start, N))
        return draw(system, N, T, seed, start, L)

    monkeypatch.setattr(sim, "_draw_noise", counted)
    return calls


_ThreadPool = concurrent.futures.ThreadPoolExecutor


def force_workers(monkeypatch, k: int) -> list:
    """Give ``simulate`` k CPUs and k chunks in flight; returns the worker
    count of every thread pool it starts."""
    monkeypatch.setattr(sim, "_usable_cpus", lambda: k)
    monkeypatch.setattr(sim, "CHUNKS_IN_FLIGHT", k)
    pools = []

    class CountedPool(_ThreadPool):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    return pools


def general_noise_system(T: int) -> LinearSystem:
    rng = np.random.default_rng(5)
    n, m = 3, 2
    side = n * T + m * (T + 1)
    root = rng.standard_normal((side, side))
    return LinearSystem(
        n=n,
        m=m,
        A=rng.standard_normal((n, n)) / 2.0,
        C=rng.standard_normal((m, n)),
        noise=NoiseModel.general(root @ root.T),
    )


@pytest.fixture
def file_line2_sum(tmp_path):
    """JSON file for sys_line2_sum."""
    return write_system_file(
        tmp_path,
        "line2_sum.json",
        {
            "n": 2,
            "m": 1,
            "A": [[0.0, 1.0], [0.0, -1.0]],
            "C": [[1.0, 1.0]],
            "noise": {"kind": "iid", "sigma_nu": 1.0, "sigma_omega": 0.0},
        },
    )


@pytest.fixture
def file_line2_first(tmp_path):
    """JSON file for sys_line2_first."""
    return write_system_file(
        tmp_path,
        "line2_first.json",
        {
            "n": 2,
            "m": 1,
            "A": [[0.0, 1.0], [0.0, -1.0]],
            "C": [[1.0, 0.0]],
            "noise": {"kind": "iid", "sigma_nu": 1.0, "sigma_omega": 1.0},
        },
    )


@pytest.fixture
def file_struct_line3(tmp_path):
    """Structure file for struct_line3 (1-based indices on disk)."""
    return write_system_file(
        tmp_path,
        "line3_structure.json",
        {
            "n": 3,
            "m": 1,
            "edges": [[2, 1], [1, 2], [3, 2]],
            "sensor_edges": [[1, 1], [3, 1]],
        },
    )


def random_case(rng):
    """Random (system, node, disclosure set) with the node kept hidden."""
    system = random_system(rng)
    n = system.n
    P_size = int(rng.integers(0, n))
    order = rng.permutation(n)
    P = tuple(int(v) for v in order[:P_size])
    i = int(order[P_size])
    return system, i, P


def sweep_hidden_rank_identity(count: int, seed: int = 501) -> int:
    """Check rank(O_T E_Pbar) == rank(O_ob E_Pbar) for T in {n-1, n, 2n}.

    Returns the number of cases exercised; raises on any mismatch.
    """
    from ivpaudit import Selector, build_bundle, numerical_rank

    rng = np.random.default_rng(seed)
    for _ in range(count):
        system, _, P = random_case(rng)
        sel = Selector.for_nodes(system.n, P)
        ranks = []
        for T in (system.n - 1, system.n, 2 * system.n):
            O_T = build_bundle(system, T).O_T
            M = O_T @ sel.E_Pbar
            ranks.append(numerical_rank(M))
        assert ranks[0] == ranks[1] == ranks[2], (
            f"hidden-column rank changed with horizon: {ranks} "
            f"(n={system.n}, P={P})"
        )
    return count


def sweep_condition_equivalence(count: int, seed: int = 777) -> tuple[int, int]:
    """Run the node test with every rank condition plus certificate checks.

    Returns (cases, private_cases); raises on disagreement or a bad
    certificate.
    """
    from ivpaudit import build_bundle, node_private

    rng = np.random.default_rng(seed)
    private_cases = 0
    for _ in range(count):
        system, i, P = random_case(rng)
        verdict = node_private(system, i, P, condition="all")
        for condition in ("b", "c", "c_prime"):
            single = node_private(system, i, P, condition=condition, want_eta=False)
            assert single.private == verdict.private, (
                f"condition {condition} disagrees (n={system.n}, i={i}, P={P})"
            )
        if verdict.private:
            private_cases += 1
            eta = verdict.eta
            assert eta is not None and eta[i] != 0.0
            assert all(eta[p] == 0.0 for p in P)
            O_T = build_bundle(system, 2 * system.n).O_T
            bound = 1e-8 * np.linalg.norm(O_T, 2)
            assert np.linalg.norm(O_T @ eta) <= bound, "certificate residual too large"
    return count, private_cases


def sweep_index_agreement(count: int, seed: int = 313) -> int:
    """Closed-form privacy index against exhaustive enumeration."""
    from ivpaudit import privacy_index, privacy_index_bruteforce

    rng = np.random.default_rng(seed)
    for _ in range(count):
        system = random_system(rng)
        formula = privacy_index(system)
        brute = privacy_index_bruteforce(system)
        assert formula.index == brute.index, (
            f"index mismatch: formula {formula.index} vs brute {brute.index} (n={system.n})"
        )
    return count
