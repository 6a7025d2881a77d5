"""Command-line interface.

Subcommands: audit, calibrate, check-dp, generic-check, generic-index,
attack, simulate.  Node indices on the command line and in JSON output are
1-based to match system files.  Every randomized command requires --seed and
is fully deterministic given its argument list.  Exit codes: 0 success,
2 invalid input, 3 numerical conditioning failure.

Each ``cmd_*`` handler parses its arguments, makes one library call and
formats the result; no verdict or noise floor is derived here.  ``audit``
calls ``intrinsic.audit`` and ``calibrate`` calls ``dp.calibrate``, each
building one bundle; ``check-dp``, ``generic-check`` and ``generic-index``
call ``dp.check_dp``, ``generic.generic_node_privacy`` and
``generic.estimate_generic_rank``; ``simulate`` and ``attack`` run
``sim._simulate``, whose chunks reduce the outputs to moments, and ``attack``
reads ``sim._attack``'s estimate off their mean.

``main`` parses with one parser per process, built on its first call (not at
import) and reused after: ``parse_args`` writes only to the new namespace, so
one job's arguments never leak into the next.  Each subcommand's ``cmd_*``
handler is bound to its parser by ``set_defaults`` when that parser is built,
so patching ``cli.cmd_*`` after the first ``main`` call has no effect; patch
the library functions the handlers call instead.  ``build_parser`` still
returns a fresh parser for callers that want to extend one.

Called in-process, ``main`` returns the exit code of a job that ran: 2 for a
``ValidationError``, 3 for a ``ConditioningError``.  An argument argparse
itself rejects (a missing required flag, an unknown subcommand, a
non-integer count) raises ``SystemExit(2)`` from argparse instead, after
printing the usage line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys

import numpy as np

from . import dp, generic, intrinsic, sim
from ._util import array
from .errors import ConditioningError, ValidationError
from .obsv import _horizon
from .sysmodel import load_structure, load_system, require_lti


def _parse_nodes(text: str) -> tuple:
    """Comma-separated 1-based node list ('' means empty)."""
    text = (text or "").strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            val = int(part)
        except ValueError:
            raise ValidationError(f"node list: {part!r} is not an integer") from None
        if val < 1:
            raise ValidationError(f"node list: indices are 1-based, got {val}")
        out.append(val - 1)
    return tuple(out)


def _entries(text: str, sep: str, field: str) -> list:
    """The stripped ``sep``-separated parts of ``text``: none when every part
    is blank, an error naming ``field`` when only some are."""
    parts = [part.strip() for part in text.split(sep)]
    if not any(parts):
        return []
    if not all(parts):
        raise ValidationError(f"{field}: entry {parts.index('') + 1} of {text!r} is empty")
    return parts


def _parse_vector(text: str, field: str) -> list:
    parts = _entries(text, ",", field)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{field}: could not parse {text!r}") from None


def _parse_vectors(text: str, field: str) -> list:
    vecs = [_parse_vector(part, field) for part in _entries(text, ";", field)]
    if not vecs:
        raise ValidationError("vector list: empty")
    return vecs


def cmd_audit(args) -> dict:
    system = require_lti(load_system(args.system))
    # Every verdict reads O_ob, the same for every T >= n-1: T is checked and echoed only.
    T = _horizon(system.n, args.T)
    P = _parse_nodes(args.public)
    report = intrinsic.audit(system, _parse_nodes(args.node), P, rank_tol=args.rank_tol)
    out = {
        "n": system.n,
        "m": system.m,
        "T": T,
        "whole_vector_private": bool(report.whole.private),
        "rank_Oob": report.index.rank_Oob,
        "index": report.index.index,
    }
    if report.index.note:
        out["note"] = report.index.note
    if args.node:
        out["nodes"] = [v.to_dict(one_based=True) for v in report.nodes]
    return out


def cmd_calibrate(args) -> dict:
    system = require_lti(load_system(args.system))
    budget = dp.DpBudget(epsilon=args.epsilon, delta=args.delta, d=args.d, N=args.N, T=args.T)
    grid = None if args.epsilon_grid is None else _parse_vector(args.epsilon_grid, "epsilon-grid")
    if grid == []:
        raise ValidationError("epsilon-grid: empty grid")
    return dp.calibrate(system, budget, grid)._asdict()


def cmd_check_dp(args) -> dict:
    system = require_lti(load_system(args.system))
    budget = dp.DpBudget(epsilon=args.epsilon, delta=args.delta, d=args.d, N=args.N, T=args.T)
    verdict = dp.check_dp(system, budget, refined=args.refined)
    return verdict.to_dict()


def cmd_generic_check(args) -> dict:
    structure = load_structure(args.structure)
    nodes = _parse_nodes(str(args.node))
    if len(nodes) != 1:
        raise ValidationError("node: expected exactly one 1-based index")
    verdict = generic.generic_node_privacy(
        structure,
        nodes[0],
        _parse_nodes(args.public),
        samples=args.samples,
        seed=args.seed,
        signed=args.signed,
    )
    return verdict.to_dict(one_based=True)


def cmd_generic_index(args) -> dict:
    structure = load_structure(args.structure)
    estimate = generic.estimate_generic_rank(
        structure, None, samples=args.samples, seed=args.seed, signed=args.signed
    )
    out = generic._index_report(structure.n, estimate).to_dict()
    out.update({"samples": estimate.samples, "seed": estimate.seed, "agreement": estimate.agreement})
    return out


def cmd_attack(args) -> dict:
    system = require_lti(load_system(args.system))
    # x0 and the probe's arguments are all checked before the probe, the
    # first to simulate, so a bad one exits 2 before any draw.
    x0 = array(_parse_vector(args.x0, "x0"), "x0", system.n)
    report = None
    if args.empirical_dp:
        if not args.adjacent:
            raise ValidationError("adjacent: --empirical-dp needs --adjacent 'x1,..;x2,..'")
        report = sim.empirical_dp_report(
            system,
            _parse_vectors(args.adjacent, "adjacent"),
            args.runs,
            bins=args.bins,
            seed=args.seed,
            delta=args.dp_delta,
            T=args.T,
        )
    # Only --save-batch needs the N-row Y; the estimate reads the merged mean.
    T, moments, batch = sim._simulate(
        system, x0, args.N, args.T, args.seed, keep=bool(args.save_batch)
    )
    out = sim._attack(system, moments.mean, moments.count, T).to_dict()
    out["N"] = moments.count
    out["T"] = T
    out["seed"] = args.seed
    out["stream"] = sim.STREAM
    if args.save_batch:
        sim.batch_to_csv(batch, args.save_batch)
        out["batch_csv"] = args.save_batch
    if report is not None:
        payload = report.to_dict()
        if args.hist_csv:
            sim.report_to_csv(report, args.hist_csv)
            payload["hist_csv"] = args.hist_csv
        out["empirical_dp"] = payload
    return out


def cmd_simulate(args) -> dict:
    system = require_lti(load_system(args.system))
    x0 = _parse_vector(args.x0, "x0")
    # Only --out needs the N-row Y; the summary reads the merged moments.
    T, moments, batch = sim._simulate(system, x0, args.N, args.T, args.seed, keep=bool(args.out))
    out = {
        "n": system.n,
        "m": system.m,
        "N": moments.count,
        "T": T,
        "seed": args.seed,
        "stream": sim.STREAM,
        "y_mean": moments.mean.tolist(),
        "y_std": np.sqrt(moments.m2 / moments.count).tolist(),
    }
    if args.out:
        sim.batch_to_csv(batch, args.out)
        out["batch_csv"] = args.out
    return out


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, required=True, help="privacy budget epsilon > 0")
    p.add_argument("--delta", type=float, required=True, help="privacy budget delta in (0, 0.5)")
    p.add_argument("--d", type=float, default=1.0, help="adjacency radius (default 1)")
    p.add_argument("--N", type=int, default=1, help="number of released trajectories (default 1)")
    p.add_argument("--T", type=int, default=None, help="horizon (default n-1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivpaudit",
        description="Audit initial-value privacy of linear dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="rank-based privacy verdicts and index")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--node", default="", help="comma-separated 1-based nodes to test")
    p.add_argument("--public", default="", help="comma-separated 1-based disclosure set")
    p.add_argument("--T", type=int, default=None, help="horizon (default n-1)")
    p.add_argument("--rank-tol", type=float, default=None, help="cutoff on O_ob's singular values")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("calibrate", help="measurement-noise floor for a privacy budget")
    p.add_argument("--system", required=True)
    _add_budget_flags(p)
    p.add_argument(
        "--epsilon-grid",
        default=None,
        help="comma-separated epsilons for the delta_min table (default: budget epsilon)",
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("check-dp", help="verify the sufficient privacy condition")
    p.add_argument("--system", required=True)
    _add_budget_flags(p)
    p.add_argument("--refined", action="store_true", help="use the exact whitened-norm condition")
    p.set_defaults(func=cmd_check_dp)

    p = sub.add_parser("generic-check", help="structure-level privacy of one node")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--node", required=True, help="1-based node index")
    p.add_argument("--public", default="", help="comma-separated 1-based disclosure set")
    p.add_argument("--samples", type=int, default=generic.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--signed", action="store_true", help="sample weights in [-1, 1]")
    p.set_defaults(func=cmd_generic_check)

    p = sub.add_parser("generic-index", help="structure-level privacy index")
    p.add_argument("--structure", required=True)
    p.add_argument("--samples", type=int, default=generic.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--signed", action="store_true")
    p.set_defaults(func=cmd_generic_index)

    p = sub.add_parser("attack", help="estimate the initial value from released trajectories")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True, help="true initial value, comma-separated")
    p.add_argument("--N", type=int, required=True, help="number of trajectories")
    p.add_argument("--T", type=int, default=None, help="horizon (default n-1)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--save-batch", default=None, help="write the simulated batch to CSV")
    p.add_argument("--empirical-dp", action="store_true", help="also run the histogram probe")
    p.add_argument("--adjacent", default=None, help="semicolon-separated initial values")
    p.add_argument("--runs", type=int, default=10000, help="mechanism draws per initial value")
    p.add_argument("--bins", type=int, default=None, help="histogram bin count (default FD rule)")
    p.add_argument("--dp-delta", type=float, default=0.0, help="delta for the empirical epsilon")
    p.add_argument("--hist-csv", default=None, help="write histogram counts to CSV")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("simulate", help="simulate output trajectories")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="write the batch to CSV")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call (module docstring)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=_sys.stderr)
        return 3
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
