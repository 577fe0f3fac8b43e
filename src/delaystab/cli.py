"""Batch front door: JSON-configured runs with machine-readable outputs.

Five subcommands: simulate a system and dump the trajectory, compute
segment norms for a sample batch, run a stability property check, fit a
decay envelope (optionally lifting it to a stronger norm), and check an
energy-functional certificate.  Every run takes --config pointing at a
JSON file that is validated strictly before any computation; unknown keys
are rejected so typos fail loudly instead of silently using defaults.

Exit codes: 0 success or consistent verdict, 1 bad configuration,
2 trajectory escape, 3 falsified, 4 inconclusive.  Outputs are written
atomically (temp file, then rename) into --out; JSON outputs embed the
fully resolved configuration and the toolkit version so a run can be
reproduced from its own artifacts.  Same config and seed give
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkers import (
    _exponent_of,
    _json_safe,
    check_ga,
    check_gas_vs_ugas,
    check_lags,
    check_ls,
    check_rfc,
    check_uga,
    fit_kl_envelope,
    lift_sup_envelope,
)
from .dde import segment_at, simulate, system_from_json_dict
from .lyapunov import (
    check_exponential_certificate,
    check_growth_certificate,
    check_pointwise_dissipation,
    functional_from_json_dict,
    grid_fn_from_json_dict,
    rate_from_json_dict,
)
from .sampler import SamplerConfig, sample_one
from .segment import ParameterError, Segment, SegmentDataError, SpaceSpec, \
    space_norm

__all__ = ["main"]

VERDICT_EXIT = {"consistent": 0, "falsified": 3, "inconclusive": 4}

SUMMARY_SPACES = (("sup", SpaceSpec.sup()),
                  ("sobolev2", SpaceSpec.sobolev(2.0)),
                  ("hoelder05", SpaceSpec.hoelder(0.5)))


def _check_keys(cfg: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ParameterError(f"{where}: expected a JSON object")
    missing = required - set(cfg)
    if missing:
        raise ParameterError(f"{where}: missing keys {sorted(missing)}")
    unknown = set(cfg) - required - optional
    if unknown:
        raise ParameterError(f"{where}: unknown keys {sorted(unknown)}")


def _atomic_write(path: Path, write_body) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj: dict) -> None:
    def body(fh):
        json.dump(_json_safe(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")

    _atomic_write(path, body)


def _report_payload(command: str, resolved: dict, report) -> dict:
    return {"command": command, "config": resolved, "version": __version__,
            "report": report.to_json_dict()}


def _common_sampler_opts(cfg: dict, seed: int) -> dict:
    opts = {"family": cfg.get("family", "fourier"),
            "order": int(cfg.get("order", 3)),
            "n_nodes": int(cfg.get("n_nodes", 65)),
            "seed": seed}
    if "h" in cfg:
        opts["h"] = float(cfg["h"])
    if "grid_points" in cfg:
        opts["grid_points"] = int(cfg["grid_points"])
    return opts


SAMPLER_OPTIONAL = {"family", "order", "n_nodes", "h"}
COMMON_OPTIONAL = SAMPLER_OPTIONAL | {"grid_points"}


# -- simulate ----------------------------------------------------------


def _history_segment(spec: dict, sys, seed: int) -> Segment:
    if not isinstance(spec, dict):
        raise ParameterError("history: expected a JSON object")
    if set(spec) <= {"constant", "n_nodes"} and "constant" in spec:
        vals = np.atleast_1d(np.asarray(spec["constant"], dtype=float))
        return Segment.constant(sys.delay_r, vals,
                                int(spec.get("n_nodes", 65)))
    if set(spec) <= {"sampler", "index"} and "sampler" in spec:
        samp = dict(spec["sampler"])
        samp.setdefault("dimension", sys.dimension)
        samp.setdefault("delay_r", sys.delay_r)
        samp["seed"] = seed
        cfg = SamplerConfig.from_json_dict(samp)
        if cfg.delay_r != sys.delay_r or cfg.dimension != sys.dimension:
            raise ParameterError("history sampler does not match the system")
        return sample_one(cfg, int(spec.get("index", 0)))
    raise ParameterError("history: expected either 'constant' (+ optional "
                         "'n_nodes') or 'sampler' (+ optional 'index')")


def cmd_simulate(cfg: dict, seed: int, out: Path) -> int:
    _check_keys(cfg, {"system", "history", "T"}, {"h"}, "simulate config")
    sys = system_from_json_dict(cfg["system"])
    x0 = _history_segment(cfg["history"], sys, seed)
    T = float(cfg["T"])
    h = float(cfg.get("h", sys.delay_r / 100.0))
    traj = simulate(sys, x0, T, h)
    _atomic_write(out / "trajectory.csv", traj.write_csv)
    resolved = {"system": sys.to_json_dict(), "history": cfg["history"],
                "T": T, "h": h, "seed": seed}
    summary = {"command": "simulate", "config": resolved,
               "version": __version__, "end_time": traj.end_time,
               "escaped": traj.escaped,
               "escape_time": traj.escape_time,
               "terminal_state": traj.values[-1].tolist()}
    if not traj.escaped:
        seg = segment_at(traj, traj.end_time, n_nodes=x0.n_nodes)
        summary["terminal_norms"] = {
            name: space_norm(seg, sp) for name, sp in SUMMARY_SPACES}
    _write_json(out / "summary.json", summary)
    return 2 if traj.escaped else 0


# -- norms -------------------------------------------------------------


def cmd_norms(cfg: dict, seed: int, out: Path) -> int:
    _check_keys(cfg, {"sampler", "count"}, {"spaces"}, "norms config")
    samp = dict(cfg["sampler"])
    samp["seed"] = seed
    scfg = SamplerConfig.from_json_dict(samp)
    spaces = [SpaceSpec.from_json_dict(d) for d in cfg.get("spaces", [])] \
        or [sp for _, sp in SUMMARY_SPACES]
    count = int(cfg["count"])
    if count < 1:
        raise ParameterError("norms config: count must be >= 1")
    rows = []
    for i in range(count):
        seg = sample_one(scfg, i)
        rows.append([space_norm(seg, sp) for sp in spaces])

    def body(fh):
        fh.write(",".join(["index"] + [sp.label for sp in spaces]) + "\n")
        for i, row in enumerate(rows):
            fh.write(",".join([str(i)] + [f"{v:.17g}" for v in row]) + "\n")

    _atomic_write(out / "norms.csv", body)
    resolved = {"sampler": scfg.to_json_dict(), "count": count,
                "spaces": [sp.to_json_dict() for sp in spaces],
                "seed": seed}
    _write_json(out / "summary.json",
                {"command": "norms", "config": resolved,
                 "version": __version__, "count": count})
    return 0


# -- check -------------------------------------------------------------


CHECK_PARAMS = {
    "ls": ({"eps_list", "budget"}, {"horizon", "bisection_steps"}),
    "ga": ({"rho", "eps", "budget"}, {"horizon"}),
    "uga": ({"eps", "rho", "budget"}, {"horizon"}),
    "lags": ({"rho", "budget"}, {"horizon"}),
    "rfc": ({"rho", "T", "budget"}, set()),
    "gas-vs-ugas": ({"rho_list", "eps_list", "budget"},
                    {"horizon", "shells"}),
}


def cmd_check(cfg: dict, seed: int, out: Path) -> int:
    base = {"property", "system", "space"}
    prop = cfg.get("property") if isinstance(cfg, dict) else None
    if prop not in CHECK_PARAMS:
        raise ParameterError(f"check config: property must be one of "
                             f"{sorted(CHECK_PARAMS)}")
    required, extra = CHECK_PARAMS[prop]
    _check_keys(cfg, base | required, extra | COMMON_OPTIONAL,
                "check config")
    sys = system_from_json_dict(cfg["system"])
    space = SpaceSpec.from_json_dict(cfg["space"])
    opts = _common_sampler_opts(cfg, seed)
    budget = int(cfg["budget"])
    if "horizon" in cfg:
        opts["horizon"] = float(cfg["horizon"])
    if prop == "ls":
        if "bisection_steps" in cfg:
            opts["bisection_steps"] = int(cfg["bisection_steps"])
        rep = check_ls(sys, space, [float(e) for e in cfg["eps_list"]],
                       budget, **opts)
    elif prop == "ga":
        rep = check_ga(sys, space, float(cfg["rho"]), float(cfg["eps"]),
                       budget, **opts)
    elif prop == "uga":
        rep = check_uga(sys, space, float(cfg["eps"]), float(cfg["rho"]),
                        budget, **opts)
    elif prop == "lags":
        rep = check_lags(sys, space, float(cfg["rho"]), budget, **opts)
    elif prop == "rfc":
        rep = check_rfc(sys, space, float(cfg["rho"]), float(cfg["T"]),
                        budget, **opts)
    else:
        if "shells" in cfg:
            opts["shells"] = int(cfg["shells"])
        rep = check_gas_vs_ugas(sys, space,
                                [float(v) for v in cfg["rho_list"]],
                                [float(e) for e in cfg["eps_list"]],
                                budget, **opts)
    resolved = dict(cfg)
    resolved.update({"system": sys.to_json_dict(),
                     "space": space.to_json_dict(), "seed": seed})
    _write_json(out / "report.json",
                _report_payload("check", resolved, rep))
    return VERDICT_EXIT[rep.verdict]


# -- envelope ----------------------------------------------------------


def cmd_envelope(cfg: dict, seed: int, out: Path) -> int:
    _check_keys(cfg, {"system", "space", "rho_max", "shells", "budget"},
                {"horizon", "t_grid", "report_space", "lipschitz_constant"}
                | COMMON_OPTIONAL, "envelope config")
    sys = system_from_json_dict(cfg["system"])
    space = SpaceSpec.from_json_dict(cfg["space"])
    opts = _common_sampler_opts(cfg, seed)
    if "horizon" in cfg:
        opts["horizon"] = float(cfg["horizon"])
    if "report_space" in cfg:
        opts["report_space"] = SpaceSpec.from_json_dict(cfg["report_space"])
    t_grid = None
    if "t_grid" in cfg:
        t_grid = np.asarray(cfg["t_grid"], dtype=float)
    env = fit_kl_envelope(sys, space, float(cfg["rho_max"]),
                          int(cfg["shells"]), t_grid, int(cfg["budget"]),
                          **opts)
    _atomic_write(out / "sigma.csv", env.write_csv)
    resolved = dict(cfg)
    resolved.update({"system": sys.to_json_dict(),
                     "space": space.to_json_dict(), "seed": seed})
    summary = {"command": "envelope", "config": resolved,
               "version": __version__, "decayed": env.decayed,
               "nondecay": env.nondecay,
               "shell_counts": env.shell_counts.tolist(),
               "interpolated": env.interpolated.tolist()}
    if "lipschitz_constant" in cfg:
        L = float(cfg["lipschitz_constant"])
        lifted = lift_sup_envelope(env, sys.delay_r, _exponent_of(space),
                                   lambda R: L)
        _atomic_write(out / "omega.csv", lifted.write_csv)
        summary["omega_written"] = True
    _write_json(out / "summary.json", summary)
    return 0


# -- lyapunov ----------------------------------------------------------


LYAP_PARAMS = {
    "exponential": ({"a1", "a2", "T"}, {"rho", "grid_points"}),
    "dissipation": ({"a1", "a2", "rate"},
                    {"rho", "T", "integral_trajectories"}),
    "growth": ({"a", "mu"}, {"rho", "T", "traj_check", "grid_points"}),
}


def cmd_lyapunov(cfg: dict, seed: int, out: Path) -> int:
    base = {"check", "system", "functional", "space", "samples"}
    kind = cfg.get("check") if isinstance(cfg, dict) else None
    if kind not in LYAP_PARAMS:
        raise ParameterError(f"lyapunov config: check must be one of "
                             f"{sorted(LYAP_PARAMS)}")
    required, extra = LYAP_PARAMS[kind]
    _check_keys(cfg, base | required, extra | SAMPLER_OPTIONAL,
                "lyapunov config")
    sys = system_from_json_dict(cfg["system"])
    space = SpaceSpec.from_json_dict(cfg["space"])
    V = functional_from_json_dict(cfg["functional"])
    samples = int(cfg["samples"])
    opts = _common_sampler_opts(cfg, seed)
    if "rho" in cfg:
        opts["rho"] = float(cfg["rho"])
    if kind == "exponential":
        rep = check_exponential_certificate(
            sys, V, grid_fn_from_json_dict(cfg["a1"]),
            grid_fn_from_json_dict(cfg["a2"]), space, samples,
            float(cfg["T"]), **opts)
    elif kind == "dissipation":
        if "T" in cfg:
            opts["T"] = float(cfg["T"])
        if "integral_trajectories" in cfg:
            opts["integral_trajectories"] = int(cfg["integral_trajectories"])
        rep = check_pointwise_dissipation(
            sys, V, grid_fn_from_json_dict(cfg["a1"]),
            grid_fn_from_json_dict(cfg["a2"]),
            rate_from_json_dict(cfg["rate"]), space, samples, **opts)
    else:
        if "T" in cfg:
            opts["T"] = float(cfg["T"])
        if "traj_check" in cfg:
            opts["traj_check"] = int(cfg["traj_check"])
        rep = check_growth_certificate(
            sys, V, grid_fn_from_json_dict(cfg["a"]), float(cfg["mu"]),
            samples, space=space, **opts)
    resolved = dict(cfg)
    resolved.update({"system": sys.to_json_dict(),
                     "space": space.to_json_dict(), "seed": seed})
    _write_json(out / "report.json",
                _report_payload("lyapunov", resolved, rep))
    return VERDICT_EXIT[rep.verdict]


# -- entry point -------------------------------------------------------


DISPATCH = {"simulate": cmd_simulate, "norms": cmd_norms,
            "check": cmd_check, "envelope": cmd_envelope,
            "lyapunov": cmd_lyapunov}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delaystab",
        description="Stability experiments for delay differential "
                    "equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "integrate a system and write the trajectory"),
            ("norms", "compute segment norms for a sample batch"),
            ("check", "run a stability property check"),
            ("envelope", "fit a decay envelope, optionally lifted"),
            ("lyapunov", "check an energy-functional certificate")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0)")
        p.add_argument("--out", default=".",
                       help="output directory (default .)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=_sys.stderr)
        return 1
    if args.seed < 0:
        print("error: seed must be a nonnegative integer", file=_sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return DISPATCH[args.command](cfg, int(args.seed), out)
    except (ParameterError, SegmentDataError, ValueError, KeyError,
            TypeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
