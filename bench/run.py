"""Benchmark for ivpaudit: three workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload audit|network|release --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client: a single process runs one job at a time
through ``ivpaudit.cli.main`` (or the library, for functions without a
subcommand), with IVP_THREADS unset and at most ``nproc`` BLAS threads.

A run builds the workload's inputs from the seed, checks its output checks
on the paper's 2-node examples, times set-up in several fresh interpreters,
then repeats whole passes over the job list for at least ``--seconds``
seconds, checking every output.  The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_STARTS = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "small_job_ms": "ms",
    "large_job_ms": "ms",
    "peak_rss_mb": "MB",
}


def _thread_env() -> dict:
    """Environment with IVP_THREADS unset and BLAS pinned to nproc threads,
    whatever the caller set, so that every run times the same configuration."""
    env = dict(os.environ)
    env.pop("IVP_THREADS", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def _run_job(job, cli, ivpaudit, tracer):
    """Run one job; returns (seconds, output dict or None, error text or None)."""
    buf = io.StringIO()
    code, out, error = 0, None, None
    span = tracer.span("cli.main") if (tracer and job.argv) else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            if job.argv:
                code = cli.main(job.argv)
            else:
                out = job.call(ivpaudit)
    except Exception:  # the job list must keep running; the failure is reported
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None and job.argv:
        out = json.loads(buf.getvalue())
    return elapsed, out, error


def _run_pass(jobs, cli, ivpaudit, tracer=None) -> dict:
    times, failures = {}, {}
    for job in jobs:
        if tracer:
            tracer.job = job.name
        elapsed, out, error = _run_job(job, cli, ivpaudit, tracer)
        times[job.name] = elapsed
        problems = [error] if error else job.check(out)
        if problems:
            failures[job.name] = problems
    return {"times": times, "failures": failures, "wall_s": sum(times.values())}


def _self_check(wl, cli, ivpaudit) -> list:
    """Each check must accept the program's output on a paper example and
    reject every corruption of it; otherwise the check itself is broken."""
    broken = []
    for sc in wl.self_checks:
        _, out, error = _run_job(sc.job, cli, ivpaudit, None)
        problems = [error] if error else sc.job.check(out)
        if problems:
            broken.append(f"{sc.job.name}: check rejects the program's output: {problems}")
            continue
        for label, corrupt in sc.corruptions.items():
            if not sc.job.check(corrupt(json.loads(json.dumps(out)))):
                broken.append(f"{sc.job.name}: check accepts a corrupted output ({label})")
    return broken


def _scipy_stats_ms(importtime_log: str) -> float:
    """Cumulative import time of scipy.stats from a -X importtime log (0 if absent)."""
    with open(importtime_log, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.stats":
                return int(parts[1]) / 1e3
    return 0.0


def _measure_setup(wl, inputs: str, env: dict, src: str, trace: bool) -> list:
    """Time SETUP_STARTS fresh interpreters from spawn to ready; each must
    have imported ivpaudit from ``src``."""
    spec = os.path.join(inputs, "setup.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"systems": wl.systems, "structures": wl.structures, "warmup": wl.warmup}, fh)
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        os.path.join(BENCH_DIR, "setup_child.py"), spec]
    samples = []
    for k in range(SETUP_STARTS):
        log = os.path.join(inputs, f"setup_stderr_{k}.txt")
        with open(log, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        if proc.returncode != 0 or not line:
            with open(log, encoding="utf-8") as fh:
                raise RuntimeError(f"set-up probe failed ({proc.returncode}): {fh.read()[-2000:]}")
        stages = json.loads(line)
        module = os.path.abspath(stages.pop("module"))
        if not module.startswith(src + os.sep):
            raise RuntimeError(f"set-up probe imported ivpaudit from {module}, not from {src}")
        stages["setup_s"] = ready
        if trace:
            stages["import_scipy_stats_ms"] = _scipy_stats_ms(log)
        samples.append(stages)
    return samples


def _rung_job_ms(passes: list, names: list) -> float:
    """Median over passes of the mean job time on one rung.  A rung mixes a
    few commands of different cost; averaging them within a pass keeps the
    median off the gap between two commands."""
    return median(sum(p["times"][name] for name in names) / len(names) for p in passes) * 1e3


def _end_to_end(passes: list, jobs: list, setup: list) -> dict:
    return {
        "setup_s": median(s["setup_s"] for s in setup),
        "wall_s": median(p["wall_s"] for p in passes),
        "small_job_ms": _rung_job_ms(passes, [j.name for j in jobs if j.rung == "small"]),
        "large_job_ms": _rung_job_ms(passes, [j.name for j in jobs if j.rung == "large"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit", "network", "release"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ivpaudit", "__init__.py")):
        print(f"error: no ivpaudit sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = _thread_env()
    env["PYTHONPATH"] = src
    os.environ.update({k: v for k, v in env.items() if k.endswith("_NUM_THREADS")})
    os.environ.pop("IVP_THREADS", None)
    sys.path[:0] = [src, BENCH_DIR]

    import ivpaudit
    from ivpaudit import cli

    if not os.path.abspath(ivpaudit.__file__).startswith(src + os.sep):
        print(f"error: imported ivpaudit from {ivpaudit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    out_dir = os.path.join(BENCH_DIR, "out")
    inputs = os.path.join(out_dir, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(inputs)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, inputs)
        broken = _self_check(wl, cli, ivpaudit)
        if broken:
            print("error: output checks failed their self-check:\n  " + "\n  ".join(broken), file=sys.stderr)
            return 1
        setup = _measure_setup(wl, inputs, env, src, bool(args.trace))
        _run_job(workloads.Job("warm-up", lambda out: [], argv=wl.warmup), cli, ivpaudit, None)

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        start = time.perf_counter()
        # The traced run alternates untraced and traced passes, so that the
        # difference of their wall times is the tracing overhead.
        while not passes or time.perf_counter() - start < args.seconds or (
            tracer and not any(p["traced"] for p in passes)
        ):
            traced = bool(tracer) and len(passes) % 2 == 1
            if traced:
                first, before = len(tracer.spans), dict(tracer.counters)
                with tracing.instrument(tracer):
                    rec = _run_pass(wl.jobs, cli, ivpaudit, tracer)
                delta = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
                rec["layers"] = tracing.pass_metrics(tracer, first, delta)
            else:
                rec = _run_pass(wl.jobs, cli, ivpaudit)
            rec["traced"] = traced
            passes.append(rec)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    known = {j.name for j in wl.jobs if j.known_fault}
    failures = [(name, problems) for p in passes for name, problems in p["failures"].items()]
    unexpected = sorted({name for name, _ in failures if name not in known})
    for name in unexpected:
        print(f"FAILED {name}: {next(p for n, p in failures if n == name)}", file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    if tracer:
        traced = [p for p in passes if p["traced"]]
        metrics = tracing.median_metrics([p["layers"] for p in traced])
        for stage in ("import", "load", "warmup"):
            metrics[f"setup.{stage}_ms"] = median(s[f"{stage}_ms"] for s in setup)
        metrics["setup.import_scipy_stats_ms"] = median(s["import_scipy_stats_ms"] for s in setup)
        metrics["trace.traced_wall_s"] = median(p["wall_s"] for p in traced)
        metrics["trace.untraced_wall_s"] = median(p["wall_s"] for p in untraced)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        units = tracing.LAYER_UNITS
        tracing.dump(tracer, os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = _end_to_end(untraced, wl.jobs, setup)
        units = END_TO_END_UNITS

    result = {
        "correct": not unexpected,
        "attempted": len(passes) * len(wl.jobs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"workload {args.workload}: {len(passes)} passes of {len(wl.jobs)} jobs, "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"(known fault: {', '.join(sorted(known)) or 'none'}); "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
