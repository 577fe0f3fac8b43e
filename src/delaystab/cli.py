"""Batch front door: JSON-configured runs with machine-readable outputs.

Five subcommands: simulate a system and dump the trajectory, compute
segment norms for a sample batch, run a stability property check, fit a
decay envelope (optionally lifting it to a stronger norm), and check an
energy-functional certificate.  Every run takes --config pointing at a
JSON file that is validated strictly before any computation: every object
in it (the config itself, system, per-family params, per-kind space,
history, sampler, functional, rate) passes the one key check
``segment._check_keys``, so a missing key or an unknown one (a typo, or a
key of another system or space kind) fails loudly instead of silently
running a different experiment.  ``check``, ``lyapunov`` and ``envelope``
bind their keys to the function they call through one table: CONVERT
gives each key's converter, CHECKS, LYAP_CHECKS and ENVELOPE each entry's
required and optional keys (all also take family, order, n_nodes and h).

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
    _step_defaults,
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
    _check_keys, _select, space_norm

__all__ = ["main"]

VERDICT_EXIT = {"consistent": 0, "falsified": 3, "inconclusive": 4}

SUMMARY_SPACES = (("sup", SpaceSpec.sup()),
                  ("sobolev2", SpaceSpec.sobolev(2.0)),
                  ("hoelder05", SpaceSpec.hoelder(0.5)))


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


# -- simulate ----------------------------------------------------------


def _history_segment(spec: dict, sys, seed: int) -> Segment:
    if isinstance(spec, dict) and "sampler" in spec:
        _check_keys(spec, {"sampler"}, {"index"}, "history")
        samp = dict(spec["sampler"])
        samp.setdefault("dimension", sys.dimension)
        samp.setdefault("delay_r", sys.delay_r)
        samp["seed"] = seed
        cfg = SamplerConfig.from_json_dict(samp)
        if cfg.delay_r != sys.delay_r or cfg.dimension != sys.dimension:
            raise ParameterError("history sampler does not match the system")
        return sample_one(cfg, int(spec.get("index", 0)))
    _check_keys(spec, {"constant"}, {"n_nodes"}, "history")
    vals = np.atleast_1d(np.asarray(spec["constant"], dtype=float))
    return Segment.constant(sys.delay_r, vals, int(spec.get("n_nodes", 65)))


def cmd_simulate(cfg: dict, seed: int, out: Path) -> int:
    _check_keys(cfg, {"system", "history", "T"}, {"h"}, "simulate config")
    sys = system_from_json_dict(cfg["system"])
    x0 = _history_segment(cfg["history"], sys, seed)
    T = float(cfg["T"])
    h = float(_step_defaults(sys.delay_r, cfg.get("h"))[0])
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


# -- check, lyapunov, envelope -----------------------------------------


SAMPLER_KEYS = {"family", "order", "n_nodes", "h"}


def _floats(values) -> list:
    return [float(v) for v in values]


# Converter of every command-specific config key; "system" and "space" are
# read before binding.  A key binds the function parameter of its own name,
# except "rate", which binds Q, and "functional", passed by position after
# the system because the certificate checks name it V or U.
CONVERT = {
    "T": float, "a": grid_fn_from_json_dict, "a1": grid_fn_from_json_dict,
    "a2": grid_fn_from_json_dict, "bisection_steps": int, "budget": int,
    "eps": float, "eps_list": _floats, "family": str,
    "functional": functional_from_json_dict, "grid_points": int, "h": float,
    "horizon": float, "integral_trajectories": int,
    "lipschitz_constant": float, "mu": float, "n_nodes": int, "order": int,
    "rate": rate_from_json_dict, "report_space": SpaceSpec.from_json_dict,
    "rho": float, "rho_list": _floats, "rho_max": float, "samples": int,
    "shells": int, "t_grid": lambda v: np.asarray(v, dtype=float),
    "traj_check": int,
}
PARAM_OF = {"rate": "Q"}


def _bind(cfg: dict, seed: int) -> dict:
    """Converted config values by parameter name, plus the seed."""
    kw = {PARAM_OF.get(k, k): CONVERT[k](v) for k, v in cfg.items()
          if k in CONVERT}
    kw["seed"] = seed
    return kw


# property or check: (function, required keys, optional keys); every entry
# also takes SAMPLER_KEYS
CHECKS = {
    "ls": (check_ls, {"eps_list", "budget"},
           {"horizon", "bisection_steps", "grid_points"}),
    "ga": (check_ga, {"rho", "eps", "budget"}, {"horizon", "grid_points"}),
    "uga": (check_uga, {"eps", "rho", "budget"}, {"horizon", "grid_points"}),
    "lags": (check_lags, {"rho", "budget"}, {"horizon", "grid_points"}),
    "rfc": (check_rfc, {"rho", "T", "budget"}, {"grid_points"}),
    "gas-vs-ugas": (check_gas_vs_ugas, {"rho_list", "eps_list", "budget"},
                    {"horizon", "shells", "grid_points"}),
}
LYAP_CHECKS = {
    "exponential": (check_exponential_certificate,
                    {"functional", "samples", "a1", "a2", "T"},
                    {"rho", "grid_points"}),
    "dissipation": (check_pointwise_dissipation,
                    {"functional", "samples", "a1", "a2", "rate"},
                    {"rho", "T", "integral_trajectories"}),
    "growth": (check_growth_certificate, {"functional", "samples", "a", "mu"},
               {"rho", "T", "traj_check", "grid_points"}),
}
ENVELOPE = (fit_kl_envelope, {"rho_max", "shells", "budget"},
            {"horizon", "t_grid", "report_space", "grid_points"})


def _resolved(cfg: dict, sys, space: SpaceSpec, seed: int) -> dict:
    return {**cfg, "system": sys.to_json_dict(),
            "space": space.to_json_dict(), "seed": seed}


def _run_check(command: str, selector: str, table: dict, cfg: dict,
               seed: int, out: Path) -> int:
    """Run the entry of table that cfg[selector] names; write report.json."""
    name = _select(cfg, selector, table, f"{command} config")
    fn, required, optional = table[name]
    _check_keys(cfg, {selector, "system", "space"} | required,
                optional | SAMPLER_KEYS, f"{command} config")
    sys = system_from_json_dict(cfg["system"])
    space = SpaceSpec.from_json_dict(cfg["space"])
    kw = _bind(cfg, seed)
    lead = [kw.pop("functional")] if "functional" in kw else []
    rep = fn(sys, *lead, space=space, **kw)
    _write_json(out / "report.json",
                {"command": command,
                 "config": _resolved(cfg, sys, space, seed),
                 "version": __version__, "report": rep.to_json_dict()})
    return VERDICT_EXIT[rep.verdict]


def cmd_check(cfg: dict, seed: int, out: Path) -> int:
    return _run_check("check", "property", CHECKS, cfg, seed, out)


def cmd_lyapunov(cfg: dict, seed: int, out: Path) -> int:
    return _run_check("lyapunov", "check", LYAP_CHECKS, cfg, seed, out)


def cmd_envelope(cfg: dict, seed: int, out: Path) -> int:
    fit, required, optional = ENVELOPE
    _check_keys(cfg, {"system", "space"} | required,
                optional | SAMPLER_KEYS | {"lipschitz_constant"},
                "envelope config")
    sys = system_from_json_dict(cfg["system"])
    space = SpaceSpec.from_json_dict(cfg["space"])
    kw = _bind(cfg, seed)
    L = kw.pop("lipschitz_constant", None)
    env = fit(sys, space, t_grid=kw.pop("t_grid", None), **kw)
    _atomic_write(out / "sigma.csv", env.write_csv)
    summary = {"command": "envelope",
               "config": _resolved(cfg, sys, space, seed),
               "version": __version__, "decayed": env.decayed,
               "nondecay": env.nondecay,
               "shell_counts": env.shell_counts.tolist(),
               "interpolated": env.interpolated.tolist()}
    if L is not None:
        lifted = lift_sup_envelope(env, sys.delay_r, _exponent_of(space),
                                   lambda R: L)
        _atomic_write(out / "omega.csv", lifted.write_csv)
        summary["omega_written"] = True
    _write_json(out / "summary.json", summary)
    return 0


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
