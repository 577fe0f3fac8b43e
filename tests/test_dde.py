"""Tests for delay systems and the method-of-steps integrator."""

import io
import math

import numpy as np
import pytest

from delaystab.dde import (
    ESCAPE_THRESHOLD,
    DelaySystem,
    LipschitzViolation,
    SYSTEM_BUILDERS,
    _SolutionView,
    lipschitz_probe,
    make_system,
    segment_at,
    simulate,
    system_from_json_dict,
)
from delaystab.sampler import SamplerConfig, sample_one
from delaystab.segment import (
    ParameterError,
    Segment,
    SpaceSpec,
    lp_deriv_norm,
    space_norm,
    sup_norm,
)

EXP_MINUS_ONE = 0.36787944117144233


def const_history(r=1.0, value=1.0, n_nodes=201):
    return Segment.constant(r, value, n_nodes)


def kinked_history(r=1.0, n_nodes=201):
    """Piecewise linear, slopes -0.3 then +0.7, kink at s = -r/2."""
    s = np.linspace(-r, 0.0, n_nodes)
    mid = -r / 2.0
    vals = np.where(s <= mid, -0.3 * (s - mid), 0.7 * (s - mid))
    ders = np.where(s < mid, -0.3, 0.7)
    return Segment(r, s, vals[:, None], ders[:, None])


# ------------------------------------------------------------ registry


def test_registry_entries():
    assert set(SYSTEM_BUILDERS) == {"linear_scalar", "linear_vector",
                                    "distributed_linear", "saturating",
                                    "quadratic"}


def test_unknown_system_rejected():
    with pytest.raises(ParameterError):
        make_system("pendulum", 1.0, {})


SILENT_SYSTEMS = [
    ({"name": "quadratic", "r": 1.0, "params": {"C": 5.0}}, "C"),
    ({"name": "linear_scalar", "r": 1.0,
      "params": {"a": -1.0, "b": 0.0, "k": 0.5}}, "k"),
    ({"name": "linear_scalar", "r": 1.0, "delay": 2.0,
      "params": {"a": -1.0, "b": 0.0}}, "delay"),
    ({"name": "saturating", "r": 1.0,
      "params": {"c": 1.0, "k": 0.5, "b": 0.0}}, "b"),
    ({"name": "linear_vector", "r": 1.0,
      "params": {"A0": [[-1.0]], "A1": [[0.0]], "K": []}}, "K"),
    ({"name": "distributed_linear", "r": 1.0,
      "params": {"A0": [[-1.0]], "K": [[[0.1]]], "A1": [[0.0]]}}, "A1"),
]


def test_system_rejects_unknown_keys():
    for d, key in SILENT_SYSTEMS:
        with pytest.raises(ParameterError, match=f"unknown keys.*'{key}'"):
            system_from_json_dict(d)
    with pytest.raises(ParameterError, match="missing keys"):
        make_system("saturating", 1.0, {"c": 1.0})
    with pytest.raises(ParameterError):
        make_system("linear_scalar", 1.0, [-1.0, 0.0])
    # quadratic's c is optional and defaults to 1
    assert make_system("quadratic", 1.0, {}).params == {"c": 1.0}


def test_linear_scalar_modulus():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    assert sys.lipschitz_modulus(10.0) == 1.5
    assert sys.dimension == 1


def test_linear_vector_modulus_spectral():
    A0 = [[0.0, 1.0], [-1.0, 0.0]]
    A1 = [[0.5, 0.0], [0.0, 0.5]]
    sys = make_system("linear_vector", 1.0, {"A0": A0, "A1": A1})
    assert sys.lipschitz_modulus(1.0) == pytest.approx(1.5, rel=1e-12)


def test_distributed_constant_oracle():
    # rhs(c) = -c + 0.3 * (r/2) c - 0.2 * (r/2) c for constant history c
    r = 2.0
    sys = make_system("distributed_linear", r,
                      {"A0": [[-1.0]], "K": [[[0.3]], [[-0.2]]]})
    seg = const_history(r, 1.5)
    expect = 1.5 * (-1.0 + 0.3 * (r / 2) - 0.2 * (r / 2))
    assert sys.rhs(seg)[0] == pytest.approx(expect, rel=1e-12)
    assert sys.lipschitz_modulus(1.0) == pytest.approx(1.0 + r * 0.3, rel=1e-12)


def test_saturating_modulus():
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 2.0})
    assert sys.lipschitz_modulus(5.0) == 3.0


def test_rhs_must_vanish_at_zero():
    def bad(seg):
        return np.array([1.0])

    with pytest.raises(ParameterError):
        DelaySystem("bad", 1, 1.0, bad, lambda R: 1.0)


def test_system_json_round_trip():
    sys = make_system("linear_scalar", 0.5, {"a": -2.0, "b": 1.0})
    back = system_from_json_dict(sys.to_json_dict())
    assert back.name == sys.name
    assert back.params == sys.params
    assert back.delay_r == sys.delay_r


# ----------------------------------------------------------- integration


def test_pure_decay_matches_exponential():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    traj = simulate(sys, const_history(), 1.0)
    assert traj.forward_values[-1, 0] == pytest.approx(EXP_MINUS_ONE, abs=1e-8)
    assert not traj.escaped


def test_first_interval_closed_form():
    # dx/dt = x(t-1) with x==1 history: x(t) = 1 + t on [0, 1]
    sys = make_system("linear_scalar", 1.0, {"a": 0.0, "b": 1.0})
    traj = simulate(sys, const_history(), 1.0)
    assert traj.forward_values[-1, 0] == pytest.approx(2.0, abs=1e-12)
    mid = np.searchsorted(traj.forward_times, 0.5)
    assert traj.forward_values[mid, 0] == pytest.approx(1.5, abs=1e-12)


def test_zero_history_stays_at_equilibrium():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    traj = simulate(sys, Segment.zero(1.0), 2.0)
    assert np.all(traj.forward_values == 0.0)
    assert np.all(traj.forward_derivs == 0.0)


def test_fourth_order_convergence():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    x0 = const_history()

    def err(h):
        t = simulate(sys, x0, 1.0, h)
        return abs(t.forward_values[-1, 0] - math.exp(-1.0))

    assert err(1.0 / 20) / err(1.0 / 40) >= 12.0


def test_fourth_order_with_active_delay():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    x0 = const_history()
    ref = simulate(sys, x0, 2.0, 1.0 / 400).forward_values[-1, 0]

    def err(h):
        return abs(simulate(sys, x0, 2.0, h).forward_values[-1, 0] - ref)

    assert err(1.0 / 20) / err(1.0 / 40) >= 12.0


def test_breakpoints_land_on_mesh():
    sys = make_system("linear_scalar", 0.7, {"a": -1.0, "b": 0.5})
    traj = simulate(sys, const_history(0.7), 2.5, h=0.7 / 30)
    for k in (1, 2, 3):
        bp = k * 0.7
        if bp <= 2.5:
            assert np.min(np.abs(traj.forward_times - bp)) < 1e-12


def test_tail_step_hits_horizon_exactly():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    traj = simulate(sys, const_history(), 1.2345, h=0.01)
    assert traj.end_time == pytest.approx(1.2345, abs=1e-14)
    assert traj.forward_values[-1, 0] == pytest.approx(
        math.exp(-1.2345), abs=1e-10)


def test_step_validation():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    with pytest.raises(ParameterError):
        simulate(sys, const_history(), 1.0, h=0.2)
    with pytest.raises(ParameterError):
        simulate(sys, const_history(), -1.0)
    with pytest.raises(ParameterError):
        simulate(sys, const_history(r=2.0), 1.0)


def test_linear_vector_rotation_preserves_radius():
    sys = make_system("linear_vector", 1.0,
                      {"A0": [[0.0, 1.0], [-1.0, 0.0]],
                       "A1": [[0.0, 0.0], [0.0, 0.0]]})
    x0 = Segment.constant(1.0, [1.0, 0.0])
    traj = simulate(sys, x0, 3.0)
    radii = np.sqrt(np.sum(traj.forward_values**2, axis=1))
    assert np.max(np.abs(radii - 1.0)) < 1e-9


def test_distributed_simulation_runs():
    sys = make_system("distributed_linear", 1.0,
                      {"A0": [[-1.0]], "K": [[[0.4]], [[0.4]]]})
    traj = simulate(sys, const_history(), 2.0, h=1.0 / 50)
    assert not traj.escaped
    # dominant negative feedback keeps the solution bounded and positive
    assert 0.0 < traj.forward_values[-1, 0] < 1.0


# -------------------------------------------------------------- escape


def test_quadratic_blowup_escapes():
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    traj = simulate(sys, const_history(value=2.0), 2.0, h=0.002)
    assert traj.escaped
    # dx/dt = x^2 from 2 blows up at t = 1/2
    assert traj.escape_time == pytest.approx(0.5, abs=0.01)
    assert traj.end_time <= traj.escape_time


def test_stable_system_does_not_escape():
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    traj = simulate(sys, const_history(value=3.0), 5.0)
    assert not traj.escaped
    assert traj.escape_time is None


def test_escaped_trajectory_supports_segments_before_escape():
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    traj = simulate(sys, const_history(value=2.0), 2.0, h=0.002)
    seg = segment_at(traj, min(0.3, traj.end_time))
    assert sup_norm(seg) > 2.0
    with pytest.raises(ParameterError):
        segment_at(traj, traj.end_time + 1.0)


# ------------------------------------------------------------ segments


def test_segment_round_trip_at_zero():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    x0 = kinked_history()
    traj = simulate(sys, x0, 1.0)
    back = segment_at(traj, 0.0)
    assert np.allclose(back.values, x0.values, atol=1e-12)
    assert np.allclose(back.derivs, x0.derivs, atol=1e-12)


def test_segment_after_first_interval():
    sys = make_system("linear_scalar", 1.0, {"a": 0.0, "b": 1.0})
    traj = simulate(sys, const_history(), 1.0)
    seg = segment_at(traj, 1.0)
    s = np.linspace(-1.0, 0.0, 21)
    assert np.allclose(seg.value_at(s)[:, 0], 2.0 + s, atol=1e-12)


def test_segment_of_equilibrium_is_zero():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    traj = simulate(sys, Segment.zero(1.0), 2.0)
    assert sup_norm(segment_at(traj, 1.7)) == 0.0


def test_segment_derivs_track_rhs():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    traj = simulate(sys, const_history(), 2.0)
    seg = segment_at(traj, 1.5)
    want = sys.rhs(seg)[0]
    assert seg.derivs[-1, 0] == pytest.approx(want, rel=1e-9)


def test_segment_nodes_are_the_integrator_reads():
    # segment_at reads the cells the integrator built, by its own rule, so
    # every node left of the window end is bitwise the value a right-hand
    # side would read at that absolute time once all steps have settled
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    cfg = SamplerConfig(family="fourier", order=3, target_space=SpaceSpec.sup(),
                        target_norm=1.0, dimension=1, delay_r=1.0, seed=0,
                        n_nodes=65)
    traj = simulate(sys, sample_one(cfg, 0), 3.0, h=0.01)
    view = _SolutionView(traj.initial, traj.step_h, traj.forward_values,
                         traj.forward_derivs)
    times = np.random.default_rng(0).uniform(0.0, traj.end_time, 300)
    for t in np.concatenate([[0.0, 0.5, 1.0, traj.end_time], times]):
        seg = segment_at(traj, float(t))
        view.set_stage(traj.forward_values.shape[0] - 1, float(t),
                       traj.forward_values[-1])
        reads = np.array([view.value_at_point(float(s))
                          for s in seg.nodes[:-1]])
        assert np.array_equal(seg.values[:-1], reads)


def test_semigroup_restart_smooth_history():
    # history on the characteristic curve e^{lam s}: no derivative jump at
    # t=0, so the restart only pays smooth resampling error
    a, b, r = -1.0, 0.5, 1.0
    lam = -0.3
    for _ in range(60):
        lam = a + b * math.exp(-lam * r)
    sys = make_system("linear_scalar", r, {"a": a, "b": b})
    x0 = Segment.from_callable(
        r, lambda s: np.exp(lam * s), lambda s: lam * np.exp(lam * s))
    direct = segment_at(simulate(sys, x0, 1.5), 1.5)
    mid = segment_at(simulate(sys, x0, 0.7), 0.7)
    indirect = segment_at(simulate(sys, mid, 0.8), 0.8)
    assert sup_norm(direct - indirect) < 1e-9


def test_semigroup_restart_kinked_start():
    # a constant history produces a derivative jump at t=0; the restart
    # segment stores one-sided data at that node, an error quadratic in
    # the segment spacing, so hand the restart a finer grid
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    x0 = const_history()
    direct = segment_at(simulate(sys, x0, 1.5), 1.5)
    mid = segment_at(simulate(sys, x0, 0.7), 0.7, n_nodes=1601)
    indirect = segment_at(simulate(sys, mid, 0.8), 0.8, n_nodes=201)
    assert sup_norm(direct - indirect) < 1e-7


# ----------------------------------------------- flow continuity in X


def test_flow_continuity_in_sobolev_two():
    # zero system freezes the state; the segment distance to the start
    # shrinks with t for finite p
    sys = make_system("linear_scalar", 1.0, {"a": 0.0, "b": 0.0})
    x0 = kinked_history()
    traj = simulate(sys, x0, 0.5)
    space = SpaceSpec.sobolev(2.0)
    dists = [space_norm(segment_at(traj, t) - x0, space)
             for t in (0.1, 0.05, 0.025)]
    assert dists[0] > dists[1] > dists[2]
    # derivative part of the distance scales like sqrt(t)
    d2 = [lp_deriv_norm(segment_at(traj, t) - x0, 2.0)
          for t in (0.1, 0.025)]
    assert d2[0] / d2[1] == pytest.approx(2.0, rel=0.2)


def test_flow_continuity_fails_at_p_infinity():
    # the slope jump of size 1 travels with the window: the derivative
    # sup-distance never decays
    sys = make_system("linear_scalar", 1.0, {"a": 0.0, "b": 0.0})
    x0 = kinked_history()
    traj = simulate(sys, x0, 0.5)
    for t in (0.1, 0.05, 0.025):
        d = lp_deriv_norm(segment_at(traj, t) - x0, math.inf)
        assert d >= 0.9
        assert d <= 1.5


# ----------------------------------------------------------- lipschitz


def test_probe_linear_scalar_under_declared_bound():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    assert lipschitz_probe(sys, 2.0, 30) <= 1.5 + 1e-8


def test_probe_zero_system():
    sys = make_system("linear_scalar", 1.0, {"a": 0.0, "b": 0.0})
    assert lipschitz_probe(sys, 1.0, 10) == 0.0


def test_probe_saturating():
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 2.0})
    assert lipschitz_probe(sys, 1.0, 30) <= 3.0 + 1e-8


def test_probe_distributed():
    sys = make_system("distributed_linear", 1.0,
                      {"A0": [[-1.0]], "K": [[[0.3]], [[-0.2]]]})
    assert lipschitz_probe(sys, 1.5, 30) <= sys.lipschitz_modulus(1.5) + 1e-8


def test_probe_flags_understated_modulus():
    def rhs(seg):
        return 5.0 * seg.value_at_point(0.0)

    liar = DelaySystem("liar", 1, 1.0, rhs, lambda R: 1.0)
    with pytest.raises(LipschitzViolation):
        lipschitz_probe(liar, 1.0, 30)


# ------------------------------------------------------------------ io


def test_trajectory_csv():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    traj = simulate(sys, const_history(n_nodes=11), 0.5, h=0.1)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x_1,dx_1"
    assert len(lines) == 1 + traj.times.size
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -1.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.5)
