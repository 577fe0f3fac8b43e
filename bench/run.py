"""delaystab benchmark: drive the CLI from outside, one fresh interpreter a run.

Usage (from the repository root):

    python3 bench/run.py --workload envelope_sup --seed 0 --seconds 20 \
        --trace 0

Runs the workload's `cli.main` calls again and again, one interpreter at
a time, for `--seconds` seconds (at least three times), and checks every
run's outputs.  The package is imported from `src/` of the checkout
this file sits in, byte-compiled first, so that set-up time does not
depend on whether the environment lets Python write its bytecode cache.
All files go to a scratch directory under the checkout, removed at the
end.

With `--trace 0` the metrics are end to end (medians over runs):
`run_s` (entering `cli.main` until it returns with outputs written),
`setup_s` (fresh interpreter until the package is imported and the
config loaded) and `peak_rss_mb`.  The two times are wall seconds scaled
by the host speed a probe measured during the same run (`calib.py`), so
they read as seconds at the probe's reference speed; the wall seconds
and the speed are in the detail line.  With `--trace 1` untraced and
traced runs alternate, and the metrics are the per-layer figures of the
traced runs (see `spans.py`) plus the tracing overhead.

A run fails on an unexpected exit code or verdict, a missing or
unparsable output, the `envelope_sup` oracle bound being violated, or
outputs that differ in any byte from the first run's.  The next-to-last
output line is a JSON record of provenance, sizes, digests and failure
reasons; the last line is the result: `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import make_workloads  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# what the child measured before scaling by host speed, for the record
PROBED = {"wall_run_s": "s", "wall_setup_s": "s", "speed": "ratio"}
RUN_TIMEOUT_S = 60.0
MIN_RUNS = 3
# Runs are single-threaded, one at a time.  Left at its default, the BLAS
# library starts a thread per core while numpy is imported, and that
# start-up swings set-up time by up to 1.7x with the host's state.
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("DELAYSTAB_THREADS", None)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def _digest(out: Path) -> tuple:
    """SHA-256 over the output tree's names and bytes, and its total size."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(str(p.relative_to(out)).encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def invoke(wl, seed: int, work: Path, index: int, traced: bool) -> dict:
    """Run the workload once in a fresh interpreter; return its record."""
    run_dir = work / f"run{index}"
    out = run_dir / "out"
    out.mkdir(parents=True)
    argv, configs = [], []
    for k, call in enumerate(wl.calls):
        cfg_path = run_dir / f"config{k}.json"
        cfg_path.write_text(json.dumps(call.config), encoding="utf-8")
        configs.append(str(cfg_path))
        argv.append([call.command, "--config", str(cfg_path),
                     "--seed", str(seed), "--out", str(out / call.name)])
    result_path = run_dir / "result.json"
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(
        {"argv": argv, "configs": configs, "src": str(SRC),
         "trace": traced, "run_id": str(index),
         "result": str(result_path)}), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "child.py"), str(job_path)]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + [str(spawn_ns)], env=_child_env(work),
                              cwd=run_dir, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": ["timed out"], "rec": None,
                "timed_out": True}
    problems = []
    rec = None
    stderr = proc.stderr.strip()[-300:]
    if proc.returncode != 0:
        problems.append(f"child exit {proc.returncode}: {stderr}")
    else:
        rec = json.loads(result_path.read_text(encoding="utf-8"))
        for call, c in zip(wl.calls, rec["calls"]):
            if c["rc"] != 0:
                why = (c["error"] or stderr).strip().splitlines()
                problems.append(f"{call.name}: exit {c['rc']}: "
                                f"{why[-1] if why else ''}")
        problems += wl.check(out, wl.calls)
    digest, written = _digest(out)
    shutil.rmtree(run_dir)
    return {"traced": traced, "problems": problems, "rec": rec,
            "digest": digest, "bytes": written}


def _quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def layer_metrics(summary: dict, speed: float, untraced_run_s: float,
                  bytes_written: int) -> dict:
    """The per-layer metrics of one traced run, by name, with units.

    Times are wall seconds; the tracing overhead compares the traced
    run's time with untraced `run_s`, both scaled by host speed.
    """
    total = summary["total_s"]
    fn = summary["functions"]
    sim = summary["simulate"]
    layer = summary["layer_self_s"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def fn_s(name):
        return fn.get(name, {}).get("self_s", 0.0)

    def kind(name, key):
        return summary["space_norm_kinds"].get(name, {}).get(key, 0)

    return {
        "dde.simulate.calls": (calls("dde.simulate"), "count"),
        "dde.simulate.steps": (sim["steps"], "count"),
        "dde.simulate.escapes": (sim["escapes"], "count"),
        "dde.simulate.distinct_ratio": (
            sim["distinct"] / sim["counted"] if sim["counted"] else 1.0,
            "ratio"),
        "dde.simulate.self_s": (fn_s("dde.simulate"), "s"),
        "dde.simulate.us_per_step": (
            1e6 * fn_s("dde.simulate") / max(sim["steps"], 1), "us"),
        "dde.simulate.share": (fn_s("dde.simulate") / total, "frac"),
        "dde.segment_at.calls": (calls("dde.segment_at"), "count"),
        "dde.segment_at.share": (fn_s("dde.segment_at") / total, "frac"),
        "segment.space_norm.self_s": (fn_s("segment.space_norm"), "s"),
        "segment.space_norm.us_per_call": (
            1e6 * fn_s("segment.space_norm")
            / max(calls("segment.space_norm"), 1), "us"),
        "segment.space_norm.share": (
            fn_s("segment.space_norm") / total, "frac"),
        "segment.space_norm.sup.calls": (kind("sup", "calls"), "count"),
        "segment.space_norm.sobolev.calls": (
            kind("sobolev", "calls"), "count"),
        "segment.space_norm.hoelder.calls": (
            kind("hoelder", "calls"), "count"),
        "segment.space_norm.hoelder.share": (
            kind("hoelder", "self_s") / total, "frac"),
        "sampler.sample_one.calls": (calls("sampler.sample_one"), "count"),
        "sampler.sample_one.self_s": (fn_s("sampler.sample_one"), "s"),
        "checkers.share": (layer["checkers"] / total, "frac"),
        "checkers.fit_kl_envelope.calls": (
            calls("checkers.fit_kl_envelope"), "count"),
        "checkers.check_uga.calls": (calls("checkers.check_uga"), "count"),
        "lyapunov.share": (layer["lyapunov"] / total, "frac"),
        "lyapunov.dini_derivative.calls": (
            calls("lyapunov.dini_derivative"), "count"),
        "lyapunov.dini_derivative.share": (
            fn_s("lyapunov.dini_derivative") / total, "frac"),
        "cli.self_s": (layer["cli"], "s"),
        "cli.share": (layer["cli"] / total, "frac"),
        "cli.bytes_written": (bytes_written, "B"),
        "trace.overhead_frac": (total * speed / untraced_run_s - 1.0,
                                "frac"),
    }


def detail_table(summary: dict) -> dict:
    """Every traced self time and count, including the zero ones."""
    out = {f"{k}.self_s": v for k, v in summary["layer_self_s"].items()}
    for name, row in summary["functions"].items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    for kind, row in summary["space_norm_kinds"].items():
        out[f"segment.space_norm.{kind}.calls"] = row["calls"]
        out[f"segment.space_norm.{kind}.self_s"] = row["self_s"]
        out[f"segment.space_norm.{kind}.ms_per_call"] = \
            1e3 * row["self_s"] / row["calls"]
    return out


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "blas_env": BLAS_ENV}


def sources_present() -> bool:
    """Whether the checkout holds the package sources; says so if not."""
    if (SRC / "delaystab" / "cli.py").is_file():
        return True
    print(f"error: no delaystab sources under {SRC}", file=sys.stderr)
    return False


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload for `seconds`; return (result, detail)."""
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runs = []
        start = time.perf_counter()
        # a run that hangs ends the measurement, so the whole stays short
        while not (runs and runs[-1].get("timed_out")):
            if len(runs) >= MIN_RUNS * (2 if trace else 1) \
                    and time.perf_counter() - start >= seconds:
                break
            traced = trace and len(runs) % 2 == 1
            runs.append(invoke(wl, seed, work, len(runs), traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    digests = [r.get("digest") for r in runs]
    for r in runs:
        if r.get("digest") != digests[0]:
            r["problems"].append("outputs differ from the first run's")
    failed = [r for r in runs if r["problems"]]
    plain = [r["rec"] for r in runs
             if r["rec"] is not None and not r["traced"]]
    stats = {key: _quartiles([rec[key] for rec in plain])
             for key in (*END_TO_END, *PROBED) if plain}
    metrics = {}
    if not trace:
        metrics = {k: {"value": stats[k]["median"], "unit": unit}
                   for k, unit in END_TO_END.items() if k in stats}
    traced_runs = [r for r in runs if r["traced"] and r["rec"] is not None]
    summaries = [spans.summarize([spans.Span(*row)
                                  for row in r["rec"]["spans"]])
                 for r in traced_runs]
    layers = {}
    if summaries and plain:
        per_run = [layer_metrics(sm, r["rec"]["speed"],
                                 stats["run_s"]["median"], r["bytes"])
                   for sm, r in zip(summaries, traced_runs)]
        for name, (_, unit) in per_run[0].items():
            metrics[name] = {
                "value": statistics.median(m[name][0] for m in per_run),
                "unit": unit}
        layers = detail_table(summaries[-1])
    prov = provenance()
    prov["numpy"] = next((r["rec"]["numpy"] for r in runs if r["rec"]), None)
    result = {"correct": not failed and len(metrics) > 0,
              "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}
    detail = {"workload": wl.name, "why": wl.why, "size": wl.size,
              "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": prov, "output_digest": digests[0],
              "failed_frac": len(failed) / len(runs),
              "end_to_end": stats, "layers": layers,
              "traced_runs": len(summaries),
              "failures": sorted({p for r in failed for p in r["problems"]})}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not sources_present():
        return 2
    wls = make_workloads()
    if args.workload not in wls:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wls)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result, detail = measure(wls[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    for problem in detail["failures"]:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
