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
A structure is checked once, by one validator: a file's in its own 1-based terms.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np
import orjson

from ._util import array, integer, real
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr``, a float array no caller shares, made read-only in place."""
    arr.flags.writeable = False
    return arr


def _check_psd(value, path: str) -> tuple[np.ndarray, float]:
    """The symmetric part of the covariance ``value``, checked, and its smallest eigenvalue."""
    sigma = array(value, path, None, None)
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
    return sym, float(eigs[0])


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Gaussian noise description.

    ``kind == "iid"``: process noise N(0, sigma_nu^2 I) and measurement noise
    N(0, sigma_omega^2 I), independent across time.

    ``kind == "general"``: one joint covariance ``Sigma_T`` for the stacked
    noise vector (all process noises, then all measurement noises) over a
    horizon; its side length must equal n*T + m*(T+1) wherever it is used.
    ``Sigma_T_lambda_min`` is its smallest eigenvalue, computed when it is
    checked (None for iid noise).
    """

    kind: str
    sigma_nu: float = 0.0
    sigma_omega: float = 0.0
    Sigma_T: np.ndarray | None = None
    Sigma_T_lambda_min: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "general"):
            raise ValidationError(f"noise.kind: expected 'iid' or 'general', got {self.kind!r}")
        for name in ("sigma_nu", "sigma_omega"):
            val = real(getattr(self, name), f"noise.{name}")
            if val < 0:
                raise ValidationError(f"noise.{name}: must be >= 0, got {val!r}")
            object.__setattr__(self, name, val)
        if self.kind == "iid":
            if self.Sigma_T is not None:
                raise ValidationError("noise.SigmaT: only allowed when kind == 'general'")
        else:
            if self.Sigma_T is None:
                raise ValidationError("noise.SigmaT: required when kind == 'general'")
            sigma, lambda_min = _check_psd(self.Sigma_T, "noise.SigmaT")
            object.__setattr__(self, "Sigma_T", _freeze(sigma))
            object.__setattr__(self, "Sigma_T_lambda_min", lambda_min)

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
        A = array(self.A, "A", self.n, self.n)
        C = array(self.C, "C", self.m, self.n)
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
        A_seq = tuple(_freeze(array(a, f"A_seq[{k}]", self.n, self.n))
                      for k, a in enumerate(self.A_seq))
        C_seq = tuple(_freeze(array(c, f"C_seq[{k}]", self.m, self.n))
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


def require_lti(sys) -> LinearSystem:
    """``sys`` itself when it is time-invariant; the rank, privacy-budget and
    simulation layers read ``A`` and ``C`` and take no time-varying system."""
    if not isinstance(sys, LinearSystem):
        raise ValidationError("system: this command requires a time-invariant system")
    return sys


def _check_edges(edges, n: int, n_dst: int, path: str, dst_name: str, base: int = 0):
    """``edges`` as 0-based pairs; indices in ``edges`` and in errors count from ``base``."""
    if not isinstance(edges, Iterable):
        raise ValidationError(f"{path}: expected a list of pairs")
    out = {}  # (source, target) as given -> 0-based pair
    for k, pair in enumerate(edges):
        try:
            pair = src, dst = tuple(pair)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{path}[{k}]: expected a (source, target) pair, got {pair!r}"
            ) from None
        if type(src) is not int or type(dst) is not int:  # plain ints skip the formatting
            src, dst = (integer(v, f"{path}[{k}]") for v in pair)
        for index, name, count in ((src, "source node", n), (dst, dst_name, n_dst)):
            if not base <= index < count + base:
                raise ValidationError(f"{path}[{k}]: {name} index {index} out of range "
                                      f"[{base}, {count - 1 + base}]")
        if (src, dst) in out:
            raise ValidationError(f"{path}[{k}]: duplicate entry {pair!r}")
        out[src, dst] = (src - base, dst - base)
    return out.values()


def _check_structure(obj: NetworkStructure, prefix: str = "", base: int = 0) -> None:
    """Check n, m, the edges and sensor coverage, then set the fields: edges 0-based,
    in canonical order.  Edge paths start with ``prefix``; indices count from ``base``."""
    n, m = integer(obj.n, "n", 1), integer(obj.m, "m", 1)
    # Both lists are read, and so a file's JSON shape is checked, before any index.
    given = [list(p) if isinstance(p, Iterable) else p for p in (obj.edges, obj.sensor_edges)]
    edges = _check_edges(given[0], n, n, f"{prefix}edges", "target node", base)
    sensors = f"{prefix}sensor_edges"
    sensor_edges = _check_edges(given[1], n, m, sensors, "sensor", base)
    uncovered = set(range(m)).difference(s for _, s in sensor_edges)
    if uncovered:
        raise ValidationError(f"{sensors}: sensor {min(uncovered) + base} has no incident edge")
    edges, sensor_edges = (tuple(sorted(e, key=lambda p: p[::-1])) for e in (edges, sensor_edges))
    vars(obj).update(n=n, m=m, edges=edges, sensor_edges=sensor_edges)  # frozen: skip __setattr__


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
        _check_structure(self)

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
        object.__setattr__(self, "theta", _freeze(array(self.theta, "theta", None)))

    def __len__(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True, eq=False)
class DisclosureSet:
    """Set of state indices published to the eavesdropper (0-based)."""

    nodes: tuple = ()

    def __post_init__(self) -> None:
        try:
            given = tuple(self.nodes)
        except TypeError:
            raise ValidationError(
                f"disclosure: expected a collection of node indices, got {self.nodes!r}"
            ) from None
        nodes = {}  # node -> its position, in the given order
        for k, i in enumerate(given):
            i = integer(i, f"disclosure[{k}]")
            if i in nodes:
                raise ValidationError(f"disclosure[{k}]: duplicate node {i}")
            nodes[i] = k
        object.__setattr__(self, "nodes", tuple(nodes))

    @classmethod
    def coerce(cls, value: Union["DisclosureSet", Iterable[int], None]) -> "DisclosureSet":
        if value is None:
            return cls()
        if isinstance(value, DisclosureSet):
            return value
        return cls(value)

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


def fill_weights(structure: NetworkStructure, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices A (..., n, n) and C (..., m, n) for weight vectors ``theta`` (..., n_weights).

    One index assignment per matrix places the weights in canonical edge
    order, for one vector or a whole stack of them; every other entry is
    exactly zero.
    """
    lead = theta.shape[:-1]
    n, m = structure.n, structure.m
    A = np.zeros(lead + (n, n))
    C = np.zeros(lead + (m, n))
    src, dst = np.array(structure.edges, dtype=np.intp).reshape(-1, 2).T
    A[..., dst, src] = theta[..., : len(src)]
    src, sensor = np.array(structure.sensor_edges, dtype=np.intp).reshape(-1, 2).T
    C[..., sensor, src] = theta[..., len(structure.edges):]
    return A, C


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
        config = Configuration(config)
    if len(config) != structure.n_weights:
        raise ValidationError(
            f"theta: expected {structure.n_weights} weights "
            f"({len(structure.edges)} edges + {len(structure.sensor_edges)} sensor edges), "
            f"got {len(config)}"
        )
    A, C = fill_weights(structure, config.theta)
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


def _file_pairs(block: dict, name: str, path: str):
    """``block[name]``'s entries, each checked as read: a JSON array of two, no int below 1."""
    if not isinstance(pairs := block.get(name), list):
        problem = "expected a list of pairs" if name in block else "missing"
        raise ValidationError(f"{path}: {problem}")
    for k, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{path}[{k}]: expected a pair, got {pair!r}")
        a, b = pair  # _check_edges rejects what is not an integer
        if type(a) is int and a < 1 or type(b) is int and b < 1:
            raise ValidationError(f"{path}[{k}]: file indices are 1-based, got {pair!r}")
        yield pair


def _parse_structure(raw: dict, n, m, path: str = "structure") -> NetworkStructure:
    """The "structure" block, checked once, in the file's terms: 1-based, under ``path``."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object")
    structure = object.__new__(NetworkStructure)  # not checked a second time by __post_init__
    pairs = {name: _file_pairs(raw, name, f"{path}.{name}") for name in ("edges", "sensor_edges")}
    vars(structure).update(n=n, m=m, **pairs)  # read after n and m are checked
    _check_structure(structure, f"{path}.", 1)
    return structure


def _load_json(path) -> dict:
    """The file's top-level object, decoded as strict RFC 8259 JSON by orjson.

    ``NaN``/``Infinity`` literals, numbers that overflow a double and bytes
    that are not UTF-8 are invalid JSON; ``orjson.JSONDecodeError``
    subclasses ``json.JSONDecodeError``.
    """
    try:
        with open(path, "rb") as fh:
            raw = orjson.loads(fh.read())
    except FileNotFoundError:
        raise ValidationError(f"{path}: file not found") from None
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror or exc})") from None
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
