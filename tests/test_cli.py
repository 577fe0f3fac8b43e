"""End-to-end tests of the command line front door, via subprocess or
in-process through `main`."""

import inspect
import json
import math
import subprocess
import sys

import pytest

from delaystab.cli import (
    CHECKS,
    CONVERT,
    ENVELOPE,
    LYAP_CHECKS,
    PARAM_OF,
    SAMPLER_KEYS,
    _atomic_write,
    main,
)
from delaystab.dde import system_from_json_dict

LINEAR_DECAY = {"name": "linear_scalar", "r": 1.0,
                "params": {"a": -1.0, "b": 0.0}}
ZERO_SYS = {"name": "linear_scalar", "r": 1.0,
            "params": {"a": 0.0, "b": 0.0}}
BLOWUP = {"name": "quadratic", "r": 1.0, "params": {"c": 1.0}}


def run_cli(subcommand, cfg, out_dir, *extra):
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "delaystab", subcommand,
         "--config", str(cfg_path), "--out", str(out_dir), *extra],
        capture_output=True, text=True)
    return proc


def test_simulate_exponential_decay(tmp_path):
    cfg = {"system": LINEAR_DECAY, "history": {"constant": [1.0]}, "T": 1.0}
    proc = run_cli("simulate", cfg, tmp_path)
    assert proc.returncode == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["terminal_state"][0] == pytest.approx(math.exp(-1.0),
                                                         rel=1e-8)
    assert set(summary["terminal_norms"]) == {"sup", "sobolev2", "hoelder05"}
    assert summary["version"]
    # trajectory CSV has a header and one row per mesh node
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,dx_1"
    assert len(lines) > 100


def test_simulate_zero_history_all_zero(tmp_path):
    cfg = {"system": ZERO_SYS, "history": {"constant": [0.0]}, "T": 0.5}
    proc = run_cli("simulate", cfg, tmp_path)
    assert proc.returncode == 0
    for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]:
        _, x, dx = line.split(",")
        assert float(x) == 0.0 and float(dx) == 0.0


def test_simulate_escape_exit_code(tmp_path):
    cfg = {"system": BLOWUP, "history": {"constant": [2.0]}, "T": 1.0,
           "h": 0.002}
    proc = run_cli("simulate", cfg, tmp_path)
    assert proc.returncode == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["escaped"]
    assert 0.49 <= summary["escape_time"] <= 0.51


def test_norms_batch(tmp_path):
    cfg = {"sampler": {"family": "fourier", "order": 3,
                       "target_space": {"kind": "sup"}, "target_norm": 1.0,
                       "dimension": 1, "delay_r": 1.0, "seed": 0,
                       "n_nodes": 65},
           "count": 5}
    proc = run_cli("norms", cfg, tmp_path)
    assert proc.returncode == 0
    lines = (tmp_path / "norms.csv").read_text().splitlines()
    assert len(lines) == 6
    # first sample sits on the sphere, the rest inside the ball
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, rel=1e-9)
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) <= 1.0 + 1e-9
        assert float(cells[2]) >= float(cells[1]) - 1e-12


def test_check_ga_zero_system_falsified(tmp_path):
    cfg = {"property": "ga", "system": ZERO_SYS, "space": {"kind": "sup"},
           "rho": 1.0, "eps": 0.01, "budget": 10,
           "family": "polynomial", "order": 0}
    proc = run_cli("check", cfg, tmp_path)
    assert proc.returncode == 3
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["verdict"] == "falsified"
    assert report["witness"] is not None


def test_check_rfc_saturating_consistent(tmp_path):
    cfg = {"property": "rfc",
           "system": {"name": "saturating", "r": 1.0,
                      "params": {"c": 1.0, "k": 0.5}},
           "space": {"kind": "sup"}, "rho": 1.0, "T": 2.0, "budget": 5}
    proc = run_cli("check", cfg, tmp_path)
    assert proc.returncode == 0


@pytest.mark.parametrize("system", [
    {"name": "linear_scalar", "r": 1.0, "params": {"a": math.nan, "b": 0.0}},
    {"name": "saturating", "r": 1.0, "params": {"c": 1.0, "k": math.inf}},
])
def test_non_finite_system_parameters_are_a_config_error(tmp_path, system):
    # json reads NaN and Infinity; such a system is refused, not checked
    cfg = {"property": "rfc", "system": system,
           "space": {"kind": "sup"}, "rho": 1.0, "T": 2.0, "budget": 3}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["check", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "report.json").exists()


def test_null_step_is_the_default_step(tmp_path):
    cfg = {"property": "rfc", "system": LINEAR_DECAY,
           "space": {"kind": "sup"}, "rho": 1.0, "T": 2.0, "budget": 3}
    outs = []
    for name, extra in (("absent", {}), ("null", {"h": None})):
        out = tmp_path / name
        out.mkdir()
        (out / "config.json").write_text(json.dumps({**cfg, **extra}))
        assert main(["check", "--config", str(out / "config.json"),
                     "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_check_ls_stable_linear_consistent(tmp_path):
    cfg = {"property": "ls", "system": LINEAR_DECAY,
           "space": {"kind": "sup"}, "eps_list": [0.5], "budget": 5,
           "horizon": 6.0}
    proc = run_cli("check", cfg, tmp_path)
    assert proc.returncode == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert "delta(0.5)" in report["margins"]


def test_check_unknown_key_rejected_before_output(tmp_path):
    cfg = {"property": "ga", "system": ZERO_SYS, "space": {"kind": "sup"},
           "rho": 1.0, "eps": 0.01, "budget": 10, "bogus": 1}
    proc = run_cli("check", cfg, tmp_path)
    assert proc.returncode == 1
    assert "bogus" in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_check_reports_are_byte_identical(tmp_path):
    cfg = {"property": "uga", "system": LINEAR_DECAY,
           "space": {"kind": "sup"}, "eps": 0.2, "rho": 1.0, "budget": 4,
           "horizon": 8.0}
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert run_cli("check", cfg, a).returncode == 0
    assert run_cli("check", cfg, b).returncode == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_envelope_writes_sigma_and_omega(tmp_path):
    cfg = {"system": {"name": "linear_scalar", "r": 0.1,
                      "params": {"a": -1.0, "b": 0.0}},
           "space": {"kind": "sup"}, "rho_max": 2.0, "shells": 4,
           "budget": 16, "horizon": 4.0, "grid_points": 40,
           "lipschitz_constant": 1.0}
    proc = run_cli("envelope", cfg, tmp_path)
    assert proc.returncode == 0
    sigma = (tmp_path / "sigma.csv").read_text().splitlines()
    assert sigma[0].startswith("s/t,")
    assert len(sigma) == 5
    assert (tmp_path / "omega.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["decayed"] is True


def test_lyapunov_exponential_consistent(tmp_path):
    cfg = {"check": "exponential", "system": LINEAR_DECAY,
           "functional": {"type": "weighted_sup", "lam": 1.0},
           "space": {"kind": "sup"}, "samples": 3, "T": 2.0,
           "a1": {"linear": math.exp(-1.0)}, "a2": {"linear": 1.0}}
    proc = run_cli("lyapunov", cfg, tmp_path)
    assert proc.returncode == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["margins"]["worst_decay_ratio"] <= 1.0 + 1e-6


def test_lyapunov_growth_falsified_exit(tmp_path):
    cfg = {"check": "growth",
           "system": {"name": "linear_scalar", "r": 1.0,
                      "params": {"a": 0.0, "b": 1.0}},
           "functional": {"type": "weighted_sup", "lam": 1.0},
           "space": {"kind": "sup"}, "samples": 3, "mu": 0.0,
           "a": {"linear": math.exp(-1.0)},
           "family": "polynomial", "order": 0}
    proc = run_cli("lyapunov", cfg, tmp_path)
    assert proc.returncode == 3


def test_bad_json_config_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = subprocess.run(
        [sys.executable, "-m", "delaystab", "check",
         "--config", str(path), "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "not valid JSON" in proc.stderr


def test_no_stray_temp_files(tmp_path):
    cfg = {"system": LINEAR_DECAY, "history": {"constant": [1.0]}, "T": 0.5}
    assert run_cli("simulate", cfg, tmp_path).returncode == 0
    assert not list(tmp_path.glob("*.tmp"))


DISTRIBUTED = {"name": "distributed_linear", "r": 1.0,
               "params": {"A0": [[-2.0]], "K": [[[0.5]], [[0.3]]]}}


def test_distributed_system_outputs_round_trip(tmp_path):
    sim = tmp_path / "sim"
    chk = tmp_path / "chk"
    sim.mkdir()
    chk.mkdir()
    cfg = {"system": DISTRIBUTED, "history": {"constant": [1.0]}, "T": 0.5}
    proc = run_cli("simulate", cfg, sim)
    assert proc.returncode == 0, proc.stderr
    cfg = {"property": "rfc", "system": DISTRIBUTED,
           "space": {"kind": "sup"}, "rho": 1.0, "T": 0.5, "budget": 1}
    proc = run_cli("check", cfg, chk)
    assert proc.returncode == 0, proc.stderr
    for path in (sim / "summary.json", chk / "report.json"):
        params = json.loads(path.read_text())["config"]["system"]["params"]
        assert params["K"] == [[[0.5]], [[0.3]]]
        again = system_from_json_dict(
            json.loads(path.read_text())["config"]["system"])
        assert again.to_json_dict()["params"] == params
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_write_leaves_no_temp_file(tmp_path):
    def body(fh):
        fh.write("partial")
        raise TypeError("not serializable")

    with pytest.raises(TypeError):
        _atomic_write(tmp_path / "report.json", body)
    assert list(tmp_path.iterdir()) == []


def test_threads_flag_is_rejected(tmp_path):
    cfg = {"system": LINEAR_DECAY, "history": {"constant": [1.0]}, "T": 0.5}
    proc = run_cli("simulate", cfg, tmp_path, "--threads", "2")
    assert proc.returncode == 2
    assert "--threads" in proc.stderr


GROWTH = {"check": "growth",
          "system": {"name": "linear_scalar", "r": 1.0,
                     "params": {"a": 0.0, "b": 1.0}},
          "functional": {"type": "weighted_sup", "lam": 1.0},
          "space": {"kind": "sup"}, "samples": 3, "mu": math.e,
          "a": {"linear": 1.0}, "T": 2.0}


def test_lyapunov_growth_uses_grid_points(tmp_path):
    ratios = []
    for name, extra in (("default", {}), ("coarse", {"grid_points": 5})):
        out = tmp_path / name
        out.mkdir()
        assert run_cli("lyapunov", {**GROWTH, **extra}, out).returncode == 0
        report = json.loads((out / "report.json").read_text())["report"]
        ratios.append(report["margins"]["worst_trajectory_ratio"])
    assert ratios[0] != ratios[1]


def test_lyapunov_dissipation_rejects_grid_points(tmp_path):
    cfg = {"check": "dissipation", "system": LINEAR_DECAY,
           "functional": {"type": "weighted_sup", "lam": 1.0},
           "space": {"kind": "sup"}, "samples": 2,
           "a1": {"linear": math.exp(-1.0)}, "a2": {"linear": 1.0},
           "rate": {"type": "scaled_abs", "c": math.exp(-1.0)},
           "grid_points": 5}
    proc = run_cli("lyapunov", cfg, tmp_path)
    assert proc.returncode == 1
    assert "grid_points" in proc.stderr
    assert not (tmp_path / "report.json").exists()


GA = {"property": "ga", "system": LINEAR_DECAY, "space": {"kind": "sup"},
      "rho": 1.0, "eps": 0.1, "budget": 2, "horizon": 2.0}
ENV = {"system": LINEAR_DECAY, "space": {"kind": "sobolev", "p": 2.0},
       "rho_max": 1.0, "shells": 2, "budget": 2, "horizon": 2.0}

# Each of these once ran, without an error, a different experiment than
# the one it names: the stray key was dropped.
SILENT = [
    ("check", {**GA, "system": {"name": "quadratic", "r": 1.0,
                                "params": {"C": 5.0}}}, "C"),
    ("check", {**GA, "system": {"name": "linear_scalar", "r": 1.0,
                                "params": {"a": -1.0, "b": 0.0,
                                           "k": 0.5}}}, "k"),
    ("check", {**GA, "system": {**LINEAR_DECAY, "delay": 2.0}}, "delay"),
    ("check", {**GA, "space": {"kind": "sup", "p": 2}}, "p"),
    ("check", {**GA, "space": {"kind": "hoelder", "a": 0.5, "p": 2}}, "p"),
    ("envelope", {**ENV, "space": {"kind": "sobolev", "p": 2,
                                   "a": 0.5}}, "a"),
]


@pytest.mark.parametrize("command,cfg,key", SILENT,
                         ids=[f"{c}-{k}" for c, _, k in SILENT])
def test_silent_configs_exit_one_without_output(tmp_path, capsys, command,
                                                cfg, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert f"unknown keys ['{key}']" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


GROWTH = {"check": "growth", "system": LINEAR_DECAY,
          "functional": {"type": "weighted_sup", "lam": 1.0},
          "space": {"kind": "sup"}, "samples": 3, "mu": 1.0,
          "a": {"linear": math.exp(-1.0)}}
LS = {"property": "ls", "system": LINEAR_DECAY, "space": {"kind": "sup"},
      "eps_list": [0.5], "budget": 2, "horizon": 2.0}
NORMS = {"sampler": {"family": "fourier", "order": 3,
                     "target_space": {"kind": "sup"}, "target_norm": 1.0,
                     "dimension": 1, "delay_r": 1.0, "seed": 0},
         "count": 2}
SIMULATE = {"system": LINEAR_DECAY, "T": 1.0,
            "history": {"sampler": {"family": "fourier", "order": 3,
                                    "target_space": {"kind": "sup"},
                                    "target_norm": 1.0}}}

# Each of these once exited 0 having run something other than what it
# asks for: a negative count ran no bisection or no trajectory check, an
# integer key took a fraction or a boolean and rounded it; or it died with
# a traceback (an empty t_grid), or only after every shell was integrated
# (a descending one).
BAD_VALUES = [
    ("lyapunov", {**GROWTH, "traj_check": -3}, "traj_check"),
    ("check", {**LS, "bisection_steps": -5}, "bisection_steps"),
    ("check", {**GA, "budget": 2.7}, "budget"),
    ("check", {**GA, "budget": True}, "budget"),
    ("check", {**GA, "order": 1.5}, "order"),
    ("check", {**GA, "system": {**LINEAR_DECAY, "n": True}}, "system"),
    ("norms", {**NORMS, "count": 2.5}, "count"),
    ("norms", {**NORMS, "sampler": {**NORMS["sampler"], "dimension": 1.5}},
     "sampler"),
    ("simulate", {**SIMULATE, "history": {
        "sampler": {**SIMULATE["history"]["sampler"], "order": True}}},
     "sampler"),
    ("simulate", {**SIMULATE, "history": {
        **SIMULATE["history"], "index": 0.5}}, "history"),
    ("envelope", {**ENV, "t_grid": []}, "t_grid"),
    ("envelope", {**ENV, "t_grid": [0.0, 2.0, 1.0]}, "t_grid"),
    # a JSON boolean where a number belongs once ran as 1.0 or 0.0
    ("simulate", {**SIMULATE, "T": True}, "'T'"),
    ("simulate", {**SIMULATE, "h": True}, "'h'"),
    ("check", {**GA, "rho": True}, "'rho'"),
    ("check", {**GA, "eps": False}, "'eps'"),
    ("check", {**GA, "horizon": True}, "'horizon'"),
    ("check", {**LS, "eps_list": [0.5, True]}, "'eps_list'"),
    ("check", {"property": "gas-vs-ugas", "system": LINEAR_DECAY,
               "space": {"kind": "sup"}, "rho_list": [True],
               "eps_list": [0.5], "budget": 1}, "'rho_list'"),
    ("lyapunov", {**GROWTH, "mu": True}, "'mu'"),
    ("envelope", {**ENV, "rho_max": True}, "'rho_max'"),
    ("envelope", {**ENV, "lipschitz_constant": True},
     "'lipschitz_constant'"),
    ("envelope", {**ENV, "t_grid": [0.0, True]}, "'t_grid'"),
    ("norms", {**NORMS, "sampler": {**NORMS["sampler"],
                                    "target_norm": True}}, "'target_norm'"),
    ("norms", {**NORMS, "sampler": {**NORMS["sampler"], "delay_r": True}},
     "'delay_r'"),
    ("norms", {**NORMS, "sampler": {**NORMS["sampler"],
                                    "radial_min": False}}, "'radial_min'"),
    ("check", {**GA, "system": {**LINEAR_DECAY, "r": True}}, "'r'"),
    ("check", {**GA, "space": {"kind": "hoelder", "a": True}}, "'a'"),
    ("check", {**GA, "system": {**LINEAR_DECAY,
                                "params": {"a": True, "b": 0.0}}},
     "'a'"),
    ("check", {**GA, "system": {"name": "linear_vector", "r": 1.0,
                                "params": {"A0": [[-1.0, True], [0.0, -1.0]],
                                           "A1": [[0.0, 0.0], [0.0, 0.0]]}}},
     "'A0'"),
    # a non-finite tolerance once died as non-finite segment data
    ("check", {**LS, "eps_list": [0.5, math.nan]},
     "positive and finite"),
    ("check", {"property": "gas-vs-ugas", "system": LINEAR_DECAY,
               "space": {"kind": "sup"}, "rho_list": [1.0],
               "eps_list": [math.inf], "budget": 1},
     "positive and finite"),
]


@pytest.mark.parametrize("command,cfg,key", BAD_VALUES,
                         ids=[f"{c}-{k}-{i}"
                              for i, (c, _, k) in enumerate(BAD_VALUES)])
def test_bad_values_exit_one_without_output(tmp_path, capsys, command, cfg,
                                            key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_config_tables_bind_checker_parameters():
    """Every key a command accepts converts and binds a named parameter."""
    entries = [*CHECKS.values(), *LYAP_CHECKS.values(), ENVELOPE]
    used = {"lipschitz_constant"}  # read by cmd_envelope for the lift
    for fn, required, optional in entries:
        params = inspect.signature(fn).parameters
        assert not required & optional
        for key in required | optional | SAMPLER_KEYS:
            assert key in CONVERT, key
            used.add(key)
            if key == "functional":  # by position, named V or U
                assert list(params)[1] in ("V", "U")
                continue
            param = params.get(PARAM_OF.get(key, key))
            assert param is not None, (fn.__name__, key)
            assert param.kind in (param.POSITIONAL_OR_KEYWORD,
                                  param.KEYWORD_ONLY), (fn.__name__, key)
        assert "seed" in params and "space" in params
    assert used == set(CONVERT)
