"""System and network data model with JSON loading and serialization.

The model covers discrete-time linear systems

    x[t+1] = A x[t] + nu[t],      y[t] = C x[t] + omega[t],

their time-varying counterparts, weighted network structures whose edge
weights fill the zero patterns of (A, C), and disclosure sets of publicly
known state entries.

File format (JSON, indices 1-based in files, 0-based in the API):

    {
      "n": 2, "m": 1,
      "A": [[0, 1], [0, -1]],
      "C": [[1, 1]],
      "noise": {"kind": "iid", "sigma_nu": 1.0, "sigma_omega": 0.0},
      "structure": {"edges": [[2, 1]], "sensor_edges": [[1, 1]]}
    }

Time-varying systems replace "A"/"C" with "A_seq" (length T) and "C_seq"
(length T+1).  General noise replaces the sigmas with "SigmaT", the joint
covariance of the stacked process and measurement noise over one horizon.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from ._util import integer, real
from .errors import ValidationError

__all__ = [
    "NoiseModel",
    "LinearSystem",
    "TimeVaryingSystem",
    "NetworkStructure",
    "Configuration",
    "DisclosureSet",
    "load_system",
    "load_structure",
    "save_system",
    "system_to_dict",
    "instantiate",
    "sample_configuration",
]

#: Relative eigenvalue floor below which a covariance is rejected as indefinite.
PSD_TOLERANCE = 1e-10


def _as_float_matrix(value, path: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: not a numeric matrix ({exc})") from None
    if arr.ndim != 2:
        raise ValidationError(f"{path}: expected a 2-D array, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValidationError(f"{path}: expected {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValidationError(f"{path}: expected {cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: entries must be finite")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _check_psd(sigma: np.ndarray, path: str) -> np.ndarray:
    if sigma.shape[0] != sigma.shape[1]:
        raise ValidationError(f"{path}: covariance must be square, got shape {sigma.shape}")
    scale = max(float(np.abs(sigma).max(initial=0.0)), 1.0)
    if float(np.abs(sigma - sigma.T).max(initial=0.0)) > 1e-8 * scale:
        raise ValidationError(f"{path}: covariance must be symmetric")
    sym = 0.5 * (sigma + sigma.T)
    eigs = np.linalg.eigvalsh(sym)
    floor = -PSD_TOLERANCE * max(float(eigs[-1]), 1.0)
    if float(eigs[0]) < floor:
        raise ValidationError(
            f"{path}: covariance is not positive semidefinite (min eigenvalue {eigs[0]:.3e})"
        )
    return sym


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Gaussian noise description.

    ``kind == "iid"``: process noise N(0, sigma_nu^2 I) and measurement noise
    N(0, sigma_omega^2 I), independent across time.

    ``kind == "general"``: one joint covariance ``Sigma_T`` for the stacked
    noise vector (all process noises, then all measurement noises) over a
    horizon; its side length must equal n*T + m*(T+1) wherever it is used.
    """

    kind: str
    sigma_nu: float = 0.0
    sigma_omega: float = 0.0
    Sigma_T: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "general"):
            raise ValidationError(f"noise.kind: expected 'iid' or 'general', got {self.kind!r}")
        if self.kind == "iid":
            for name in ("sigma_nu", "sigma_omega"):
                val = real(getattr(self, name), f"noise.{name}")
                if val < 0:
                    raise ValidationError(f"noise.{name}: must be >= 0, got {val!r}")
                object.__setattr__(self, name, val)
            if self.Sigma_T is not None:
                raise ValidationError("noise.SigmaT: only allowed when kind == 'general'")
        else:
            if self.Sigma_T is None:
                raise ValidationError("noise.SigmaT: required when kind == 'general'")
            sigma = _as_float_matrix(self.Sigma_T, "noise.SigmaT")
            object.__setattr__(self, "Sigma_T", _freeze(_check_psd(sigma, "noise.SigmaT")))

    @classmethod
    def iid(cls, sigma_nu: float, sigma_omega: float) -> "NoiseModel":
        return cls(kind="iid", sigma_nu=sigma_nu, sigma_omega=sigma_omega)

    @classmethod
    def general(cls, Sigma_T) -> "NoiseModel":
        return cls(kind="general", Sigma_T=Sigma_T)

    def to_dict(self) -> dict:
        if self.kind == "iid":
            return {"kind": "iid", "sigma_nu": self.sigma_nu, "sigma_omega": self.sigma_omega}
        return {"kind": "general", "SigmaT": self.Sigma_T.tolist()}


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Time-invariant system (A, C) with a noise model.

    The standing assumption rank(C) > 0 (at least one nonzero output row) is
    enforced at construction unless ``require_output=False``; the relaxation
    exists so that structure instantiation with degenerate weights can still
    produce a system object whose downstream checks report the degeneracy.
    """

    n: int
    m: int
    A: np.ndarray
    C: np.ndarray
    noise: NoiseModel = field(default_factory=lambda: NoiseModel.iid(0.0, 0.0))
    require_output: InitVar[bool] = True

    def __post_init__(self, require_output: bool) -> None:
        object.__setattr__(self, "n", integer(self.n, "n", 1))
        object.__setattr__(self, "m", integer(self.m, "m", 1))
        A = _as_float_matrix(self.A, "A", rows=self.n, cols=self.n)
        C = _as_float_matrix(self.C, "C", rows=self.m, cols=self.n)
        if require_output and not np.any(C != 0.0):
            raise ValidationError("C: rank(C) = 0; at least one output coefficient must be nonzero")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "C", _freeze(C))


@dataclass(frozen=True, eq=False)
class TimeVaryingSystem:
    """Time-varying system over a fixed horizon.

    ``A_seq`` holds A_0 .. A_{T-1} and ``C_seq`` holds C_0 .. C_T, so the
    horizon is ``T = len(A_seq)`` and ``len(C_seq) == T + 1``.
    """

    n: int
    m: int
    A_seq: tuple
    C_seq: tuple
    noise: NoiseModel = field(default_factory=lambda: NoiseModel.iid(0.0, 0.0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "n", 1))
        object.__setattr__(self, "m", integer(self.m, "m", 1))
        A_seq = tuple(_freeze(_as_float_matrix(a, f"A_seq[{k}]", rows=self.n, cols=self.n))
                      for k, a in enumerate(self.A_seq))
        C_seq = tuple(_freeze(_as_float_matrix(c, f"C_seq[{k}]", rows=self.m, cols=self.n))
                      for k, c in enumerate(self.C_seq))
        if len(C_seq) != len(A_seq) + 1:
            raise ValidationError(
                f"C_seq: expected length len(A_seq)+1 = {len(A_seq) + 1}, got {len(C_seq)}"
            )
        if not any(np.any(c != 0.0) for c in C_seq):
            raise ValidationError("C_seq: all output maps are zero")
        object.__setattr__(self, "A_seq", A_seq)
        object.__setattr__(self, "C_seq", C_seq)

    @property
    def T(self) -> int:
        return len(self.A_seq)


def _check_edges(edges, n_src: int, n_dst: int, path: str, src_name: str, dst_name: str):
    seen = set()
    out = []
    for k, pair in enumerate(edges):
        pair = tuple(pair)
        if len(pair) != 2:
            raise ValidationError(f"{path}[{k}]: expected a (source, target) pair, got {pair!r}")
        src, dst = (integer(v, f"{path}[{k}]") for v in pair)
        if not 0 <= src < n_src:
            raise ValidationError(f"{path}[{k}]: {src_name} index {src} out of range [0, {n_src - 1}]")
        if not 0 <= dst < n_dst:
            raise ValidationError(f"{path}[{k}]: {dst_name} index {dst} out of range [0, {n_dst - 1}]")
        if (src, dst) in seen:
            raise ValidationError(f"{path}[{k}]: duplicate entry {pair!r}")
        seen.add((src, dst))
        out.append((src, dst))
    return out


@dataclass(frozen=True, eq=False)
class NetworkStructure:
    """Zero pattern of a networked system.

    ``edges`` are node-to-node influences (source, target): edge (j, i) marks
    A[i, j] as a free weight.  ``sensor_edges`` are (source node, sensor)
    pairs: edge (j, s) marks C[s, j] as a free weight.  Edges are stored in
    the canonical order that also fixes the layout of configuration vectors:
    node edges sorted by (target, source), then sensor edges sorted by
    (sensor, source).
    """

    n: int
    m: int
    edges: tuple = ()
    sensor_edges: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "n", 1))
        object.__setattr__(self, "m", integer(self.m, "m", 1))
        edges = _check_edges(self.edges, self.n, self.n, "edges", "source node", "target node")
        sensor_edges = _check_edges(
            self.sensor_edges, self.n, self.m, "sensor_edges", "source node", "sensor"
        )
        covered = {s for _, s in sensor_edges}
        for s in range(self.m):
            if s not in covered:
                raise ValidationError(f"sensor_edges: sensor {s} has no incident edge")
        edges.sort(key=lambda e: (e[1], e[0]))
        sensor_edges.sort(key=lambda e: (e[1], e[0]))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "sensor_edges", tuple(sensor_edges))

    @property
    def n_weights(self) -> int:
        return len(self.edges) + len(self.sensor_edges)

    def to_dict(self, one_based: bool = False) -> dict:
        off = 1 if one_based else 0
        return {
            "n": self.n,
            "m": self.m,
            "edges": [[s + off, t + off] for s, t in self.edges],
            "sensor_edges": [[s + off, t + off] for s, t in self.sensor_edges],
        }


@dataclass(frozen=True, eq=False)
class Configuration:
    """Weight assignment for a structure, laid out in canonical edge order."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValidationError(f"theta: expected a 1-D vector, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValidationError("theta: entries must be finite")
        object.__setattr__(self, "theta", _freeze(theta))

    def __len__(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True, eq=False)
class DisclosureSet:
    """Set of state indices published to the eavesdropper (0-based)."""

    nodes: tuple = ()

    def __post_init__(self) -> None:
        nodes = []
        seen = set()
        for k, i in enumerate(self.nodes):
            i = integer(i, f"disclosure[{k}]")
            if i in seen:
                raise ValidationError(f"disclosure[{k}]: duplicate node {i}")
            seen.add(i)
            nodes.append(i)
        object.__setattr__(self, "nodes", tuple(nodes))

    @classmethod
    def coerce(cls, value: Union["DisclosureSet", Iterable[int], None]) -> "DisclosureSet":
        if value is None:
            return cls()
        if isinstance(value, DisclosureSet):
            return value
        return cls(tuple(value))

    def validate_range(self, n: int) -> None:
        for i in self.nodes:
            if not 0 <= i < n:
                raise ValidationError(f"disclosure: node {i} out of range [0, {n - 1}]")

    def complement(self, n: int) -> tuple:
        """All node indices not in the set, in increasing order."""
        self.validate_range(n)
        inside = set(self.nodes)
        return tuple(i for i in range(n) if i not in inside)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, i: int) -> bool:
        return i in self.nodes


def instantiate(
    structure: NetworkStructure,
    config: Union[Configuration, Sequence[float]],
    noise: NoiseModel | None = None,
) -> LinearSystem:
    """Fill the structure's free positions with weights from ``config``.

    Weights map to matrix entries in canonical edge order; all other entries
    are exactly zero.  Degenerate weight choices (for example an all-zero
    configuration) are allowed here and surface as rank failures downstream.
    """
    if not isinstance(config, Configuration):
        config = Configuration(np.asarray(config, dtype=float))
    if len(config) != structure.n_weights:
        raise ValidationError(
            f"theta: expected {structure.n_weights} weights "
            f"({len(structure.edges)} edges + {len(structure.sensor_edges)} sensor edges), "
            f"got {len(config)}"
        )
    A = np.zeros((structure.n, structure.n))
    C = np.zeros((structure.m, structure.n))
    k = 0
    for src, dst in structure.edges:
        A[dst, src] = config.theta[k]
        k += 1
    for src, sensor in structure.sensor_edges:
        C[sensor, src] = config.theta[k]
        k += 1
    return LinearSystem(
        n=structure.n,
        m=structure.m,
        A=A,
        C=C,
        noise=noise if noise is not None else NoiseModel.iid(0.0, 0.0),
        require_output=False,
    )


def sample_configuration(
    structure: NetworkStructure, seed: int, signed: bool = False
) -> Configuration:
    """Draw one random configuration, uniform on [0, 1] per weight.

    With ``signed=True`` weights are uniform on [-1, 1] instead, which covers
    sign-cancellation phenomena that positive weights cannot reach.
    """
    rng = np.random.default_rng(integer(seed, "seed", 0))
    lo = -1.0 if signed else 0.0
    theta = rng.uniform(lo, 1.0, size=structure.n_weights)
    return Configuration(theta)


def _parse_noise(raw) -> NoiseModel:
    """The "noise" block; ``NoiseModel`` checks its fields under the same names.

    An iid block's "SigmaT" key is ignored, so such files keep loading.
    """
    if raw is None:
        return NoiseModel.iid(0.0, 0.0)
    if not isinstance(raw, dict):
        raise ValidationError("noise: expected an object")
    kind = raw.get("kind")
    return NoiseModel(
        kind=kind,
        sigma_nu=raw.get("sigma_nu", 0.0),
        sigma_omega=raw.get("sigma_omega", 0.0),
        Sigma_T=raw.get("SigmaT") if kind == "general" else None,
    )


def _require(raw: dict, *names: str) -> None:
    for name in names:
        if name not in raw:
            raise ValidationError(f"{name}: missing")


def _parse_structure(raw: dict, n: int, m: int, path: str = "structure") -> NetworkStructure:
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object")
    for name in ("edges", "sensor_edges"):
        if name not in raw:
            raise ValidationError(f"{path}.{name}: missing")
        if not isinstance(raw[name], list):
            raise ValidationError(f"{path}.{name}: expected a list of pairs")
    def shift(pairs, name):
        out = []
        for k, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"{path}.{name}[{k}]: expected a pair, got {pair!r}")
            a, b = (integer(v, f"{path}.{name}[{k}]") for v in pair)
            if a < 1 or b < 1:
                raise ValidationError(f"{path}.{name}[{k}]: file indices are 1-based, got {pair!r}")
            out.append((a - 1, b - 1))
        return out
    return NetworkStructure(
        n=n,
        m=m,
        edges=tuple(shift(raw["edges"], "edges")),
        sensor_edges=tuple(shift(raw["sensor_edges"], "sensor_edges")),
    )


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return raw


def load_system(path) -> Union[LinearSystem, TimeVaryingSystem]:
    """Parse a system file; returns the time-varying type when "A_seq" is present."""
    raw = _load_json(path)
    _require(raw, "n", "m")
    noise = _parse_noise(raw.get("noise"))
    if "A_seq" in raw or "C_seq" in raw:
        for name in ("A_seq", "C_seq"):
            if name not in raw or not isinstance(raw[name], list):
                raise ValidationError(f"{name}: missing or not a list of matrices")
        return TimeVaryingSystem(
            n=raw["n"], m=raw["m"], A_seq=tuple(raw["A_seq"]), C_seq=tuple(raw["C_seq"]), noise=noise
        )
    _require(raw, "A", "C")
    return LinearSystem(n=raw["n"], m=raw["m"], A=raw["A"], C=raw["C"], noise=noise)


def load_structure(path) -> NetworkStructure:
    """Parse a structure file, or the "structure" block of a system file."""
    raw = _load_json(path)
    _require(raw, "n", "m")
    block = raw.get("structure", raw if "edges" in raw else None)
    if block is None:
        raise ValidationError("structure: missing (expected 'edges'/'sensor_edges')")
    return _parse_structure(block, raw["n"], raw["m"])


def system_to_dict(sys: Union[LinearSystem, TimeVaryingSystem]) -> dict:
    """JSON-ready dictionary; round-trips through load_system bit-for-bit."""
    out: dict = {"n": sys.n, "m": sys.m}
    if isinstance(sys, TimeVaryingSystem):
        out["A_seq"] = [a.tolist() for a in sys.A_seq]
        out["C_seq"] = [c.tolist() for c in sys.C_seq]
    else:
        out["A"] = sys.A.tolist()
        out["C"] = sys.C.tolist()
    out["noise"] = sys.noise.to_dict()
    return out


def save_system(sys: Union[LinearSystem, TimeVaryingSystem], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys), fh, indent=2)
        fh.write("\n")
