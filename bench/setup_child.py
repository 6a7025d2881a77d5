"""Set-up probe run in a fresh interpreter.

Imports ivpaudit, loads and validates the workload's input files, runs the
untimed warm-up job, and prints the three stage times and the path ivpaudit
was imported from as one JSON line.  The parent process times the whole
start-up, from spawning this interpreter to reading that line, and rejects a
probe that imported ivpaudit from anywhere but the checkout's ``src/``.

    python3 bench/setup_child.py SPEC.json    (with src/ on PYTHONPATH)
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import ivpaudit
    from ivpaudit import cli

    t1 = time.perf_counter()
    for path in spec["systems"]:
        ivpaudit.load_system(path)
    for path in spec["structures"]:
        ivpaudit.load_structure(path)
    t2 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["warmup"])
    t3 = time.perf_counter()
    if code != 0:
        print(f"warm-up job exited with {code}", file=sys.stderr)
        return 1
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "load_ms": (t2 - t1) * 1e3, "warmup_ms": (t3 - t2) * 1e3,
                      "module": ivpaudit.__file__}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
