"""One benchmark run in a fresh interpreter: import, load, call `cli.main`.

Usage: python3 bench/child.py JOB.json SPAWN_NS

SPAWN_NS is the CLOCK_MONOTONIC reading the parent took just before it
started this interpreter, so set-up time covers interpreter start, the
package import and loading the configs.  The job file names the CLI
argument lists, the configs, the source directory the package must come
from, whether to trace, and where to write the result.  An untraced run
is probed for host speed throughout (see `calib.py`).
"""

import contextlib
import json
import sys
import time
from pathlib import Path

import calib


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    spawn_ns = int(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    with calib.Probe() as probe:
        return run(job, spawn_ns, probe)


def run(job: dict, spawn_ns: int, probe: calib.Probe) -> int:
    from delaystab import cli
    for path in job["configs"]:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    setup_s = (_now_ns() - spawn_ns) * 1e-9

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: delaystab imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    import resource
    import traceback

    import numpy

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    calls = []
    for k, argv in enumerate(job["argv"]):
        if tracer is not None:
            tracer.run_id = f"{job['run_id']}:{k}"
        t0 = time.perf_counter()
        try:
            rc, error = cli.main(argv), None
        except Exception:
            rc, error = None, traceback.format_exc()
        calls.append({"rc": rc, "s": time.perf_counter() - t0,
                      "error": error})
    run_s = sum(c["s"] for c in calls)
    speed = probe.speed() if probe.times else 1.0
    result = {"setup_s": setup_s * speed, "run_s": run_s * speed,
              "wall_setup_s": setup_s, "wall_run_s": run_s, "speed": speed,
              "probes": len(probe.times), "calls": calls,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "numpy": numpy.__version__,
              "spans": None if tracer is None
              else [s.to_list() for s in tracer.spans]}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
