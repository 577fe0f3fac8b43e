"""The benchmark's workloads: CLI calls, their stated size, and output checks.

Every workload runs through `delaystab.cli.main` and expects exit code 0
with a `consistent` verdict.  The seed is not part of a workload: the
benchmark passes it on as the CLI's `--seed`.  `tiny=True` gives the
same calls at a size small enough for a smoke test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

E_INV = math.exp(-1.0)


@dataclass(frozen=True)
class Call:
    """One `cli.main` call; its outputs go to the subdirectory `name`."""

    name: str
    command: str
    config: dict
    outputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: dict
    calls: tuple
    check: Callable[[Path, tuple], list] = field(repr=False)


def _read_json(path: Path, problems: list) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _check_files(out: Path, calls: tuple) -> list:
    """Every expected output exists and nothing else (no stray temp files)."""
    problems = []
    for call in calls:
        have = sorted(p.name for p in (out / call.name).iterdir()) \
            if (out / call.name).is_dir() else []
        if have != sorted(call.outputs):
            problems.append(f"{call.name}: outputs {have}, "
                            f"expected {sorted(call.outputs)}")
    return problems


def _check_verdicts(out: Path, calls: tuple) -> list:
    problems = _check_files(out, calls)
    if problems:
        return problems
    for call in calls:
        doc = _read_json(out / call.name / "report.json", problems)
        if doc is None:
            continue
        verdict = doc.get("report", {}).get("verdict")
        if verdict != "consistent":
            problems.append(f"{call.name}: verdict {verdict!r}")
    return problems


# Past t = r every sampled sup-norm track is |x(0)| e^(r - t) up to where
# the window's left end falls on the mesh, so sigma(s, t) e^t is flat along
# each row to within about h.  Seeds 0-9 at h = 4e-4 stay within 3.93e-4.
ENVELOPE_FLAT_TOL = 1e-3


def envelope_oracle(sigma_csv: Path, r: float) -> tuple[float, float]:
    """Check an envelope of x' = -x(t) against its closed form, both sides.

    The solution from any history is x(0) e^-t.  Returns the largest
    sigma(s, t) / (1.05 s e^-t + 1e-9) over the table, at most 1 for a
    correct envelope, and the largest relative departure of sigma(s, t) e^t
    for t >= r from its value at the first report time >= r, at most
    `ENVELOPE_FLAT_TOL` for one that decays neither too slowly nor too
    fast.
    """
    with open(sigma_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    times = [float(t) for t in rows[0][1:]]
    first = next(k for k, t in enumerate(times) if t >= r)
    worst = flat = 0.0
    for row in rows[1:]:
        if len(row) != len(times) + 1:
            raise ValueError("ragged sigma.csv row")
        s = float(row[0])
        vals = [float(v) for v in row[1:]]
        worst = max(worst, *(v / (1.05 * s * math.exp(-t) + 1e-9)
                             for t, v in zip(times, vals)))
        ref = vals[first] * math.exp(times[first])
        flat = max(flat, *(abs(v * math.exp(t) / ref - 1.0)
                           for t, v in zip(times[first:], vals[first:])))
    return worst, flat


def _check_envelope(out: Path, calls: tuple) -> list:
    problems = _check_files(out, calls)
    if problems:
        return problems
    d = out / calls[0].name
    _read_json(d / "summary.json", problems)
    r = calls[0].config["system"]["r"]
    try:
        worst, flat = envelope_oracle(d / "sigma.csv", r)
    except (OSError, ValueError, IndexError, StopIteration,
            ZeroDivisionError) as exc:
        return problems + [f"sigma.csv: {exc!r}"]
    if not worst <= 1.0:
        problems.append(f"sigma.csv: envelope oracle ratio {worst:.6g} > 1")
    if not flat <= ENVELOPE_FLAT_TOL:
        problems.append(f"sigma.csv: sigma(s, t) e^t departs by {flat:.6g} "
                        f"past t = r, more than {ENVELOPE_FLAT_TOL}")
    return problems


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """All workloads by name, at benchmark size or at smoke-test size."""
    # envelope_sup: criterion 4's system; h = r/100 over 1.5 gives 3750
    # steps per trajectory and sup norms take the window-max path.
    # Every shell needs a sample: an interpolated inner shell copies the
    # outer one and breaks the oracle bound.
    env_shells, env_budget = (2, 2) if tiny else (8, 48)
    env_cfg = {"system": {"name": "linear_scalar", "r": 0.04,
                          "params": {"a": -1.0, "b": 0.0}},
               "space": {"kind": "sup"}, "rho_max": 2.0,
               "shells": env_shells, "budget": env_budget, "h": 0.0004,
               "horizon": 1.5}

    uga_budget = 1 if tiny else 4
    uga_cfg = {"property": "uga",
               "system": {"name": "saturating", "r": 1.0,
                          "params": {"c": 1.0, "k": 0.5}},
               "space": {"kind": "hoelder", "a": 0.5}, "rho": 1.0,
               "eps": 0.05, "budget": uga_budget}
    if tiny:
        uga_cfg["grid_points"] = 20

    # Every run of this one fails today: writing report.json raises on the
    # ndarray-valued K parameter.  It is kept so the failure is counted.
    gas_cfg = {"property": "gas-vs-ugas",
               "system": {"name": "distributed_linear", "r": 1.0,
                          "params": {"A0": [[-2.0]],
                                     "K": [[[0.5]], [[0.3]]]}},
               "space": {"kind": "sup"}, "rho_list": [0.5, 1.0],
               "eps_list": [0.1], "budget": 1,
               "horizon": 1.0 if tiny else 4.0}

    diss_samples, diss_traj = (2, 1) if tiny else (40, 12)
    growth_samples = 2 if tiny else 80
    diss_cfg = {"check": "dissipation",
                "system": {"name": "linear_scalar", "r": 1.0,
                           "params": {"a": -1.0, "b": 0.0}},
                "functional": {"type": "weighted_sup", "lam": 1.0},
                "space": {"kind": "sup"}, "a1": {"linear": E_INV},
                "a2": {"linear": 1.0},
                "rate": {"type": "scaled_abs", "c": E_INV},
                "samples": diss_samples,
                "integral_trajectories": diss_traj}
    growth_cfg = {"check": "growth",
                  "system": {"name": "linear_scalar", "r": 1.0,
                             "params": {"a": 0.0, "b": 1.0}},
                  "functional": {"type": "weighted_sup", "lam": 1.0},
                  "space": {"kind": "sup"}, "a": {"linear": 1.0},
                  "mu": math.e, "samples": growth_samples,
                  "traj_check": growth_samples, "T": 2.0}

    report = ("report.json",)
    wls = [
        Workload(
            "envelope_sup",
            "integrator-bound: serial method of steps dominates; sup norms "
            "take the cheap window-max path, so norm work should not show",
            {"system": "linear_scalar r=0.04 a=-1 b=0", "space": "sup",
             "samples": env_budget, "shells": env_shells, "rho_max": 2.0,
             "h": 0.0004, "horizon": 1.5, "steps_per_trajectory": 3750,
             "report_times": 200},
            (Call("envelope", "envelope", env_cfg,
                  ("sigma.csv", "summary.json")),),
            _check_envelope),
        Workload(
            "uga_hoelder",
            "norm-bound: Hoelder lag profiles of resampled segments "
            "dominate and the integrator is a small share",
            {"system": "saturating r=1 c=1 k=0.5", "space": "hoelder a=0.5",
             "samples": uga_budget, "rho": 1.0, "eps": 0.05, "h": 0.01,
             "horizon": 20.0,
             "report_times": uga_cfg.get("grid_points", 200)},
            (Call("uga", "check", uga_cfg, report),),
            _check_verdicts),
        Workload(
            "gas_vs_ugas_distributed",
            "distributed-delay quadrature reads in the integrator, and "
            "early-stopping ls bisection probes",
            {"system": "distributed_linear r=1 A0=-2 K=(0.5,0.3)",
             "space": "sup", "samples": 1, "rho_list": [0.5, 1.0],
             "eps_list": [0.1], "h": 0.01,
             "horizon": gas_cfg["horizon"]},
            (Call("gas_vs_ugas", "check", gas_cfg, report),),
            _check_verdicts),
        Workload(
            "certificates",
            "certificate checks: per-sample Dini ladders of short fine-step "
            "trajectories, so per-call overhead matters and there is "
            "nothing to batch",
            {"dissipation": {"system": "linear_scalar r=1 a=-1 b=0",
                             "samples": diss_samples,
                             "integral_trajectories": diss_traj,
                             "dini_steps": 2048},
             "growth": {"system": "linear_scalar r=1 a=0 b=1",
                        "samples": growth_samples,
                        "trajectories": growth_samples, "T": 2.0}},
            (Call("dissipation", "lyapunov", diss_cfg, report),
             Call("growth", "lyapunov", growth_cfg, report)),
            _check_verdicts),
    ]
    return {w.name: w for w in wls}
