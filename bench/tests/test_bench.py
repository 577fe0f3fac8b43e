"""Tests of the benchmark itself: span accounting, oracles, smoke runs.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (ENVELOPE_FLAT_TOL, envelope_oracle,  # noqa: E402
                       make_workloads)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, "0")


def test_self_time_subtracts_nested_children():
    s = [_span("cli.main", 0.0, 10.0, None),
         _span("checkers.check_uga", 1.0, 9.0, 0),
         _span("dde.simulate", 2.0, 4.0, 1),
         _span("segment.space_norm", 5.0, 8.0, 1),
         _span("segment.hoelder_seminorm", 6.0, 7.5, 3)]
    assert spans.self_times(s) == pytest.approx([2.0, 3.0, 2.0, 1.5, 1.5])
    summary = spans.summarize(s)
    assert summary["total_s"] == pytest.approx(10.0)
    assert summary["layer_self_s"]["segment"] == pytest.approx(3.0)
    assert summary["layer_self_s"]["checkers"] == pytest.approx(3.0)
    # a function's in-layer time includes its same-layer callees
    assert summary["functions"]["segment.space_norm"]["self_s"] \
        == pytest.approx(3.0)
    assert summary["functions"]["checkers.check_uga"]["self_s"] \
        == pytest.approx(3.0)
    # layer self times partition the traced wall time
    assert sum(summary["layer_self_s"].values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    s = [_span("cli.main", 0.0, 10.0, None),
         _span("dde.simulate", 1.0, 4.0, 0),
         _span("dde.segment_at", 3.0, 6.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(5.0)


def test_nested_same_function_counted_once():
    s = [_span("checkers.check_ls", 0.0, 10.0, None),
         _span("checkers.check_ls", 2.0, 6.0, 0)]
    row = spans.summarize(s)["functions"]["checkers.check_ls"]
    assert row == {"calls": 2, "self_s": pytest.approx(10.0)}


def test_tracer_wrappers_record_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    wrapped_inner = tracer.wrap(inner, "dde.inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer.wrap(outer, "checkers.outer")() == 2
    got = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
    assert got == [("checkers.outer", 0.0, 5.0, None),
                   ("dde.inner", 1.0, 2.0, 0), ("dde.inner", 3.0, 4.0, 0)]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tracer_installs_on_caller_names_and_uninstalls():
    sys.path.insert(0, str(run.SRC))
    from delaystab import checkers, dde, lyapunov
    original = dde.simulate
    tracer = spans.Tracer()
    try:
        assert tracer.install() > 0
        assert checkers.simulate is not original
        assert lyapunov.simulate is checkers.simulate
        assert checkers.simulate.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert checkers.simulate is original and dde.simulate is original


def test_probe_samples_while_active_and_restores_the_signal():
    with calib.Probe() as probe:
        end = time.perf_counter() + 4.5 * calib.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probe.times) >= 3
    assert probe.speed() == pytest.approx(
        sum(calib.REF_S / p for p in probe.times) / len(probe.times))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def _sigma_csv(path, times, rows):
    lines = ["s/t," + ",".join(repr(t) for t in times)]
    lines += [f"{s!r}," + ",".join(repr(v) for v in row) for s, row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_envelope_oracle_flags_slow_decay(tmp_path):
    path = _sigma_csv(tmp_path / "sigma.csv", [0.0, 1.0],
                      [(1.0, [1.05, 0.38])])
    assert envelope_oracle(path, r=0.5)[0] <= 1.0
    _sigma_csv(path, [0.0, 1.0], [(1.0, [1.05, 0.40])])
    assert envelope_oracle(path, r=0.5)[0] > 1.0


def test_envelope_oracle_flags_fast_decay(tmp_path):
    r, times = 0.02, [0.0, 0.02, 0.5, 1.0, 1.5]
    exact = [math.exp(r - max(t, r)) for t in times]
    path = _sigma_csv(tmp_path / "sigma.csv", times, [(1.0, exact)])
    assert envelope_oracle(path, r) == (pytest.approx(math.exp(r) / 1.05),
                                        pytest.approx(0.0, abs=1e-12))
    # decays faster than e^-t: under the upper bound, caught by the shape
    fast = [v * math.exp(-0.1 * max(t - r, 0.0))
            for t, v in zip(times, exact)]
    _sigma_csv(path, times, [(1.0, fast)])
    worst, flat = envelope_oracle(path, r)
    assert worst <= 1.0 and flat > ENVELOPE_FLAT_TOL


@pytest.mark.parametrize("name", sorted(make_workloads(tiny=True)))
def test_smoke_each_workload_at_tiny_size(name):
    wl = make_workloads(tiny=True)[name]
    plain, detail = run.measure(wl, seed=3, seconds=0.01, trace=False)
    traced, _ = run.measure(wl, seed=3, seconds=0.01, trace=True)
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert detail["end_to_end"]["speed"]["median"] > 0
    assert plain["attempted"] >= run.MIN_RUNS
    assert detail["output_digest"] and detail["provenance"]["nproc"]
    calls = traced["metrics"]["dde.simulate.calls"]["value"]
    steps = traced["metrics"]["dde.simulate.steps"]["value"]
    assert calls >= 1 and steps >= calls
    if name == "gas_vs_ugas_distributed":
        # every run either fails or passes; none may be partly right
        assert plain["failed"] in (0, plain["attempted"])
        return
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == 0 and traced["failed"] == 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "envelope_sup",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "")


def test_benchmark_json_names_what_run_py_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wls = make_workloads()
    assert all(w["name"] in wls and w["why"] == wls[w["name"]].why
               for w in doc["workloads"])
    assert {m["name"] for m in doc["end_to_end"]} \
        == {"run_s", "setup_s", "peak_rss_mb"}
    empty = spans.summarize([_span("cli.main", 0.0, 1.0, None)])
    metrics = run.layer_metrics(empty, 1.0, 1.0, 0)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == [(k, unit) for k, (_, unit) in metrics.items()]
