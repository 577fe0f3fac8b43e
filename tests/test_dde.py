"""Tests for delay systems and the method-of-steps integrator."""

import copy
import hashlib
import io
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaystab import dde
from delaystab.dde import (
    ESCAPE_THRESHOLD,
    DelaySystem,
    LipschitzViolation,
    SYSTEM_BUILDERS,
    Trajectory,
    _SolutionView,
    _factor,
    _matvec,
    _mesh,
    _working_step,
    lipschitz_probe,
    make_system,
    segment_at,
    simulate,
    simulate_many,
    system_from_json_dict,
)
from delaystab.lyapunov import (
    MonotoneGridFn,
    check_growth_certificate,
    weighted_sup,
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
    # a wrong-typed value is a ParameterError too, not a TypeError
    with pytest.raises(ParameterError, match="linear_scalar params"):
        system_from_json_dict({"name": "linear_scalar", "r": 1.0,
                               "params": {"a": [1], "b": 0.0}})
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


@pytest.mark.parametrize("name, params", [
    ("linear_scalar", {"a": math.nan, "b": 0.0}),
    ("linear_scalar", {"a": -1.0, "b": math.inf}),
    ("saturating", {"c": 1.0, "k": math.inf}),
    ("saturating", {"c": math.nan, "k": 0.5}),
    ("quadratic", {"c": math.nan}),
    ("quadratic", {"c": -math.inf}),
    ("distributed_linear", {"A0": [[math.nan]], "K": [[[0.5]]]}),
    ("distributed_linear", {"A0": [[-1.0]], "K": [[[math.inf]]]}),
    ("linear_vector", {"A0": [[math.nan]], "A1": [[0.5]]}),
    ("linear_vector", {"A0": [[-1.0, 0.0], [0.0, -1.0]],
                       "A1": [[0.0, -math.inf], [0.0, 0.0]]}),
])
def test_non_finite_parameters_are_refused(name, params):
    # one check of every family's parameters, before any is used, names
    # the family and the non-finite key
    (key,) = [k for k, v in params.items() if not np.all(np.isfinite(v))]
    with pytest.raises(ParameterError,
                       match=f"^{name} params: '{key}' must be finite$"):
        make_system(name, 1.0, params)


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


@pytest.mark.parametrize("a", [-1.0, 0.7])
def test_undelayed_linear_scalar_steps_by_its_stability_function(a):
    """x' = a x integrates, at every forward node k, to x0(0) M^k in every
    bit, built by repeated 0-d products with M = R(w a) the RK4 stability
    function in Horner form, w the step's width (the short final step
    its own); each node's derivative is a times its value."""
    sys = make_system("linear_scalar", 1.0, {"a": a, "b": 0.0})
    x0 = _fourier_block(sys, 1, seed=4)[0]
    T = 3.537
    traj = simulate(sys, x0, T, 0.05)
    n_full, tail = _mesh(T, traj.step_h)
    assert tail > 0.0

    def stability(w):
        z = np.array(w * a)
        return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))

    y = np.array(x0.values[-1, 0])
    want = [y]
    for k in range(n_full + 1):
        y = stability(traj.step_h if k < n_full else tail) * y
        want.append(y)
    assert traj.forward_values[:, 0].tobytes() == np.array(want).tobytes()
    assert traj.forward_derivs.tobytes() == (a * traj.forward_values).tobytes()


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
    # every node of x_t left of the settled time of the stage at time t is
    # bitwise the value a right-hand side reads there at that stage
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    cfg = SamplerConfig(family="fourier", order=3, target_space=SpaceSpec.sup(),
                        target_norm=1.0, dimension=1, delay_r=1.0, seed=0,
                        n_nodes=65)
    traj = simulate(sys, sample_one(cfg, 0), 3.0, h=0.01)
    h = traj.step_h
    n_full, tail = _mesh(traj.end_time, h)
    assert tail == 0.0
    # the block view of this one trajectory, at every stage of its mesh
    view = _SolutionView([traj.initial], traj.forward_values[:, None],
                         traj.forward_derivs[:, None], h, (n_full, tail))
    compared = 0
    for q in range(2 * n_full + 1):
        k = max(q - 1, 0) // 2  # steps settled
        t = 0.0 if q == 0 else k * h + (0.5 * h if q % 2 else h)
        seg = segment_at(traj, t)
        view.set_stage(q, traj.forward_values[k][None])
        for s, node in zip(seg.nodes[:-1], seg.values[:-1]):
            if t + s < k * h:
                assert view.value_at_point(float(s))[0].tobytes() \
                    == node.tobytes()
                compared += 1
    assert compared > 60 * 2 * n_full


def test_block_members_escape_like_their_serial_runs():
    # x' = x(t - r/2) until |x(t - r/2)| reaches 2, where the derivative
    # turns infinite; each member escapes at its own time, and the zero
    # history stays put next to them
    def rhs(seg):
        v = seg.value_at_point(-0.5)
        return np.where(np.abs(v) < 2.0, v, np.inf)

    cliff = DelaySystem("cliff", 1, 1.0, rhs, lambda R: 1.0)
    x0s = [const_history(value=c, n_nodes=65)
           for c in (0.0, 0.3, -0.7, 1.0, 1.5, 1.9, 1.99)]
    many = simulate_many(cliff, x0s, 4.0, 0.05)
    assert sum(t.escaped for t in many) == 6
    assert len({t.escape_time for t in many}) == 7
    for x0, got in zip(x0s, many):
        # the node whose derivative turned infinite is not kept
        assert np.all(np.isfinite(got.values))
        assert np.all(np.isfinite(got.derivs))
        want = simulate(cliff, x0, 4.0, 0.05)
        assert got.escaped == want.escaped
        assert got.escape_time == want.escape_time
        for a, b in ((got.times, want.times), (got.values, want.values),
                     (got.derivs, want.derivs)):
            assert np.array_equal(a, b)


def _per_step_escapes(sys, x0s, T, h):
    """The oracle of simulate_many's escape handling: the same steps with
    a block-wide escape test after every step, each escaped member
    removed at once."""
    r = sys.delay_r
    h_eff = _working_step(r, T, h)
    n_full, tail = _mesh(T, h_eff)
    n_steps = n_full + (1 if tail > 0.0 else 0)
    fwd_times = np.minimum(np.arange(n_steps + 1) * h_eff, T)
    if tail > 0.0:
        fwd_times[-1] = T
    out = [None] * len(x0s)

    def finish(b, values, derivs, escape_time):
        # forward rows of member b, after its history nodes
        out[b] = Trajectory(
            system=sys, initial=x0s[b], step_h=h_eff,
            forward_times=fwd_times[:values.shape[0]], forward_values=values,
            forward_derivs=derivs, escape_time=escape_time)

    # the block's forward rows, time-major as the integrator holds them
    members = list(range(len(x0s)))
    values = np.empty((n_steps + 1, len(x0s), sys.dimension))
    derivs = np.empty_like(values)
    values[0] = [x0.values[-1] for x0 in x0s]
    view = _SolutionView(x0s, values, derivs, h_eff, (n_full, tail))
    vals, ders = view.values, view.derivs
    ders[0] = sys.rhs(view)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            step = h_eff if k < n_full else tail
            y, k1 = vals[k], ders[k]
            view.set_stage(2 * k + 1, y + (0.5 * step) * k1)
            k2 = sys.rhs(view)
            view.set_stage(2 * k + 1, y + (0.5 * step) * k2)
            k3 = sys.rhs(view)
            view.set_stage(2 * k + 2, y + step * k3)
            k4 = sys.rhs(view)
            y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_next = k * h_eff + step
            vals[k + 1] = y_next
            view.set_stage(2 * k + 2, y_next)
            d_next = sys.rhs(view)
            ders[k + 1] = d_next
            sq = np.sum(y_next * y_next, axis=1)
            if math.sqrt(sq.max()) <= ESCAPE_THRESHOLD \
                    and np.isfinite(d_next).all():
                continue
            broken = ~(np.isfinite(y_next).all(axis=1)
                       & np.isfinite(d_next).all(axis=1))
            gone = broken | (np.sqrt(sq) > ESCAPE_THRESHOLD)
            for pos in np.flatnonzero(gone):
                stop = k + (1 if broken[pos] else 2)
                finish(members[pos], values[:stop, pos],
                       derivs[:stop, pos], t_next)
            if gone.all():
                break
            members = [b for b, g in zip(members, gone) if not g]
            values, derivs = values[:, ~gone], derivs[:, ~gone]
            view = _SolutionView([x0s[b] for b in members], values, derivs,
                                 h_eff, (n_full, tail))
            vals, ders = view.values, view.derivs
    for pos, b in enumerate(members):
        if out[b] is None:
            finish(b, values[:, pos], derivs[:, pos], None)
    return out


def test_escapes_tested_per_delay_interval_are_the_per_step_escapes():
    # x' = x^3 + x(t - r)/2 with r = 0.1 and h = 0.01, 10 steps a delay
    # interval: the histories escape at different steps of one interval,
    # past 1e12 with a finite state (kept as the last node) or with a
    # non-finite state or derivative (node not kept; from 1.5 and -1.5
    # the state at step 21 is still finite and only its cube overflows),
    # one from 1.0 in the short final step of T = 0.425, and 0 and 0.5
    # reach T; at T = 0.22 the cube of 1.5 overflows in the last step
    def rhs(seg):
        v = seg.value_at_point(0.0)
        return v ** 3 + 0.5 * seg.value_at_point(-0.1)

    cubic = DelaySystem("cubic", 1, 0.1, rhs, lambda R: 3.0 * R * R + 0.5)
    x0s = [const_history(0.1, c, 17) for c in
           (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, -1.5,
            -3.0)]
    for T in (0.22, 0.425):
        for order in (slice(None), slice(None, None, -1)):
            block = x0s[order]
            got = simulate_many(cubic, block, T, 0.01)
            want = _per_step_escapes(cubic, block, T, 0.01)
            for a, b in zip(got, want):
                assert a.escaped == b.escaped
                assert a.escape_time == b.escape_time
                for u, v in ((a.times, b.times), (a.values, b.values),
                             (a.derivs, b.derivs)):
                    assert u.tobytes() == v.tobytes()
    # what the case covers at T = 0.425, read off the trajectories
    ends = [t.escape_time for t in got if t.escaped]
    first = [e for e in ends if e <= 0.1 + 1e-12]
    assert len(set(first)) >= 4 and len(first) > len(set(first))
    assert T in ends and sum(not t.escaped for t in got) == 2
    past = [t.escaped and abs(t.forward_values[-1, 0]) > ESCAPE_THRESHOLD
            for t in got]
    kept_finite = [t.escaped and not p for t, p in zip(got, past)]
    assert any(past) and any(kept_finite)
    for t in got:
        assert np.isfinite(t.values).all() and np.isfinite(t.derivs).all()


def test_escapes_near_the_threshold_are_the_per_step_escapes():
    # x' = x from states between half the threshold and the threshold,
    # which the interval test has to look at row by row for several
    # intervals before they cross 1e12, in one and in two dimensions
    grow = make_system("linear_scalar", 0.1, {"a": 1.0, "b": 0.0})
    plane = make_system("linear_vector", 0.1, {"A0": [[1.0, 0.0], [0.0, 1.0]],
                                               "A1": [[0.0, 0.0], [0.0, 0.0]]})
    cases = [(grow, [const_history(0.1, c, 17)
                     for c in (6e11, -9.9e11, 1e11, 1.1e12)]),
             (plane, [Segment.constant(0.1, v, 17)
                      for v in ([5e11, 5e11], [-3e11, 2e11],
                                [7.07e11, 0.0])])]
    for sys, x0s in cases:
        got = simulate_many(_view_twin(sys), x0s, 1.0, 0.01)
        want = _per_step_escapes(sys, x0s, 1.0, 0.01)
        assert [t.escaped for t in got] == [t.escaped for t in want]
        assert sum(t.escaped for t in got) == len(x0s) - 1
        for a, b in zip(got, want):
            assert a.escape_time == b.escape_time
            for u, v in ((a.times, b.times), (a.values, b.values),
                         (a.derivs, b.derivs)):
                assert u.tobytes() == v.tobytes()
        # the affine step escapes where its view twin does
        split = simulate_many(sys, x0s, 1.0, 0.01)
        assert [t.escape_time for t in split] == [t.escape_time for t in want]


def test_non_finite_derivative_at_a_small_state_ends_the_interval():
    # x' = x, but infinite on a band around the node x(0.1) of the history
    # 1: RK4's last stage overshoots the node, so only the derivative at
    # that node, the last of the first delay interval, turns infinite
    # while the state stays near 1.1
    x0s = [const_history(0.1, c, 17) for c in (1.0, 0.5)]
    plain = make_system("linear_scalar", 0.1, {"a": 1.0, "b": 0.0})
    node = simulate(plain, x0s[0], 0.1, 0.01).forward_values[-1, 0]
    lo, hi = node * (1.0 - 1e-12), node * (1.0 + 1e-12)

    def rhs(seg):
        v = seg.value_at_point(0.0)
        return np.where((v > lo) & (v < hi), np.inf, v)

    band = DelaySystem("band", 1, 0.1, rhs, lambda R: 1.0)
    got = simulate_many(band, x0s, 0.5, 0.01)
    want = _per_step_escapes(band, x0s, 0.5, 0.01)
    assert [t.escaped for t in got] == [True, False]
    assert got[0].escape_time == want[0].escape_time
    # the escape is the step to t = 0.1, whose node is not kept
    assert got[0].escape_time == pytest.approx(0.1)
    assert got[0].forward_times.size == 10
    for a, b in zip(got, want):
        for u, v in ((a.times, b.times), (a.values, b.values),
                     (a.derivs, b.derivs)):
            assert u.tobytes() == v.tobytes()


def _one_stage(view):
    """A view of the same rows and stage without plans: its first read of
    a time offset plans from the current stage, whose row is the read of
    this stage alone."""
    fresh = copy.copy(view)
    fresh.plans = {}
    return fresh


def test_planned_reads_equal_fresh_one_stage_reads():
    """Every read a right-hand side makes through a block's schedule of
    planned spans, point and array reads on history and forward cells,
    with late and mid-step columns, equals in every bit the read of a
    fresh view that plans only its own stage; across the tail step, a
    window that has moved and a block rebuilt after a member escapes.
    Planned reads are read-only; late reads follow the stage value."""
    points = [-1.0, -0.73, -0.5, -0.04, -0.02, 0.0]
    arrays = [np.linspace(-1.0, 0.0, 27), np.array([-0.3, -0.04, -0.001, 0.0])]
    seen = {"calls": 0, "span": 0, "members": set(), "firsts": set()}
    kept = []

    def rhs(seg):
        if not isinstance(seg, _SolutionView):
            v = seg.value_at_point(0.0)
            return -v + v ** 3
        fresh = _one_stage(seg)
        for s in points:
            got = seg.value_at_point(s)
            assert got.tobytes() == fresh.value_at_point(s).tobytes()
        for s in arrays:
            got = seg.value_at(s)
            assert got.tobytes() == fresh.value_at(s).tobytes()
            assert got.tobytes() == fresh.value_at(s.tolist()).tobytes()
        # the late read at s = 0 is the running stage value
        assert seg.value_at_point(0.0) is seg.stage_value
        assert seg.value_at(arrays[1])[:, -1].tobytes() \
            == seg.stage_value.tobytes()
        planned = seg.value_at_point(-0.5)
        assert not planned.flags.writeable
        assert not seg.value_at(arrays[0][:5]).flags.writeable
        kept[:] = [planned]
        seen["calls"] += 1
        seen["span"] = max([seen["span"]] + [len(plan.reads) for plan
                                             in seg.plans.values()])
        seen["members"].add(seg.stage_value.shape[0])
        seen["firsts"].add(seg.first)
        v, w = seg.value_at_point(0.0), seg.value_at_point(-0.73)
        return -v + 0.4 * w + 0.1 * (seg.value_at(arrays[0]).mean(axis=-2)
                                     + v * v * v)

    sys = DelaySystem("probe", 1, 1.0, rhs, lambda R: 1.0)
    x0s = [const_history(value=c, n_nodes=33) for c in (0.3, -0.6, 2.5, 0.0)]
    pieces = []
    # a tail step of 0.03, and windows of 50 rows that move
    held = dde.BLOCK_BYTES // len(x0s) - 16 * 50
    simulate_many(sys, x0s, 6.03, 0.05, held=held,
                  take=lambda p: pieces.extend((b, p.escape_time)
                                               for b in p.members))
    assert seen["calls"] > 4 * 120
    assert seen["span"] > 20
    assert seen["members"] == {3, 4}  # one member escaped
    assert len(seen["firsts"]) > 2  # the window moved
    assert sum(t is not None for _, t in pieces) == 1
    with pytest.raises(ValueError):
        kept[0][...] = 0.0


def test_planned_read_at_a_span_edge_reads_only_settled_rows():
    """With h = r / 30, the stage time 95 h + h less r is a hair below
    66 h, yet divided by h it rounds to 66: the read's cell is 66 and its
    right row 67.  A plan made with 66 steps settled must stop before that
    stage, though its time is below the settled time; rows not yet
    written hold NaN, so a read of one shows."""
    r, h = 1.0, 1.0 / 30.0
    u = (95 * h + h) - r
    assert u < 66 * h and u / h == 66.0 and int(u / h) == 66
    sys = make_system("linear_scalar", r, {"a": -1.0, "b": 0.5})
    x0 = const_history(n_nodes=31)
    traj = simulate(sys, x0, 3.5, h)
    assert traj.step_h == h
    values = np.full((traj.forward_values.shape[0], 1, 1), np.nan)
    derivs = np.full_like(values, np.nan)
    view = _SolutionView([x0], values, derivs, h,
                         (traj.forward_values.shape[0] - 1, 0.0))
    for q in range(2 * 66 + 1, 2 * 97 + 1):
        k = (q - 1) // 2
        values[:k + 1, 0] = traj.forward_values[:k + 1]
        derivs[:k + 1, 0] = traj.forward_derivs[:k + 1]
        view.set_stage(q, values[k])
        got = view.value_at_point(-r)
        assert got.tobytes() == _one_stage(view).value_at_point(-r).tobytes()
        assert np.isfinite(got).all()
    # one plan served the stages up to the edge, another the edge on
    assert view.plans[np.array([-r]).tobytes()].q0 == 2 * 95 + 2


@pytest.mark.parametrize("members", [1, 4])
@pytest.mark.parametrize("budget", [1, 512 * 45, dde.BLOCK_BYTES])
def test_late_reads_are_the_overlap_formula(monkeypatch, members, budget):
    """At every stage of a distributed_linear block and of a hand-built
    system that reads inside the step, each read at or past the stage's
    settled time k h is bitwise the overlap formula, by scalar division:
    with u = stage time + s, the stage value where u is the stage time,
    else (1 - w) x(k h) + w stage value, w = (u - k h) / (stage time -
    k h), whatever the budget that sizes the view's plans."""
    monkeypatch.setattr(dde, "BLOCK_BYTES", budget)
    r, h, T = 1.0, 0.01, 0.537
    offsets = [np.array([x]) for x in (-0.001, -h / 2, -1e-12, 0.0)] \
        + [np.linspace(-r, 0.0, 27)]
    seen = {"stages": set(), "late": 0, "mid": 0}

    def check(view):
        n_full, tail = view.mesh
        q = view.q
        k = max(q - 1, 0) // 2  # steps settled
        step = h if k < n_full else tail
        t = 0.0 if q == 0 else k * h + (0.5 * step if q % 2 else step)
        settled = k * h
        node, stage = view.values[k - view.first], view.stage_value
        seen["stages"].add(q)
        for s in offsets:
            got = view.value_at(s)
            for col, x in enumerate(s.tolist()):
                u = t + x
                if u < settled:
                    continue
                seen["late"] += 1
                for b, d in np.ndindex(stage.shape):
                    if u == t:
                        want = stage[b, d]
                    else:
                        w = (u - settled) / (t - settled)
                        want = (1.0 - w) * node[b, d] + w * stage[b, d]
                        seen["mid"] += 1
                    assert got[b, col, d].tobytes() \
                        == np.float64(want).tobytes()

    def checked(sys):
        def rhs(seg):
            if isinstance(seg, _SolutionView):
                check(seg)
            return sys.rhs(seg)
        return DelaySystem(sys.name, sys.dimension, r, rhs,
                           sys.lipschitz_modulus, sys.params)

    def inside(seg):  # reads x(t - 0.004), inside the step being built
        v = seg.value_at_point(0.0)
        return -v + 0.5 * seg.value_at_point(-0.004) \
            + 0.2 * seg.value_at_point(-0.6)

    for sys in (make_system("distributed_linear", r,
                            PINNED_SYSTEMS["distributed_linear"]),
                DelaySystem("inside", 1, r, inside, lambda R: 1.7)):
        seen["stages"].clear()
        simulate_many(checked(sys), _fourier_block(sys, members), T, h)
        n_full, tail = _mesh(T, h)
        assert tail > 0.0
        assert seen["stages"] == set(range(2 * (n_full + 1) + 1))
    assert seen["late"] > 0 and seen["mid"] > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_block_trajectories_do_not_depend_on_the_split(data):
    """A block split into smaller blocks gives every member's trajectory
    bitwise, escapes included, whatever the memory budget that sizes a
    block's read plans."""
    def cliff(seg):  # escapes once |x(t - r/2)| reaches 2
        v = seg.value_at_point(-0.5)
        return np.where(np.abs(v) < 2.0, v, np.inf)

    sys = data.draw(st.sampled_from([
        DelaySystem("cliff", 1, 1.0, cliff, lambda R: 1.0),
        make_system("quadratic", 1.0, {"c": 1.0}),
        make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.3}),
        make_system("linear_vector", 1.0, {"A0": [[-1.0, 0.2], [0.1, -1.5]],
                                           "A1": [[0.3, 0.0], [0.1, 0.2]]}),
        make_system("distributed_linear", 1.0,
                    {"A0": [[-2.0]], "K": [[[0.5]], [[0.3]]]}),
        make_system("saturating", 1.0, {"c": 1.0, "k": 0.5}),
    ]))
    members = data.draw(st.integers(1, 9))
    h = data.draw(st.sampled_from([0.02, 0.05, 0.1]))
    T = data.draw(st.floats(0.3, 3.0))
    cfg = SamplerConfig(family="fourier", order=3,
                        target_space=SpaceSpec.sup(), target_norm=1.0,
                        dimension=sys.dimension, delay_r=1.0,
                        seed=data.draw(st.integers(0, 9)), n_nodes=33)
    # every third history is large enough to escape where the system can
    x0s = [sample_one(replace(cfg, target_norm=(0.5, 4.0, 1.5)[i % 3]), i)
           for i in range(members)]
    cuts = sorted(set(data.draw(st.lists(st.integers(1, members),
                                         max_size=3))) | {members})
    whole = simulate_many(sys, x0s, T, h)
    # 512 * 45 gives plans of odd spans: 45, 22, 15, ... stages at 1, 2,
    # 3, ... members of one dimension
    with mock.patch.object(dde, "BLOCK_BYTES", data.draw(
            st.sampled_from([1, 512 * 45, 1 << 12, dde.BLOCK_BYTES]))):
        parts = [t for a, b in zip([0] + cuts, cuts)
                 for t in simulate_many(sys, x0s[a:b], T, h)]
    for got, want in zip(parts, whole, strict=True):
        assert got.escape_time == want.escape_time
        for a, b in ((got.forward_times, want.forward_times),
                     (got.forward_values, want.forward_values),
                     (got.forward_derivs, want.forward_derivs)):
            assert a.tobytes() == b.tobytes()


PINNED_SYSTEMS = {
    "linear_scalar": {"a": -1.0, "b": 0.3},
    "linear_scalar_b0": {"a": -1.0, "b": 0.0},
    "linear_vector": {"A0": [[-1.0, 0.2], [0.1, -1.5]],
                      "A1": [[0.3, 0.0], [0.1, 0.2]]},
    "distributed_linear": {"A0": [[-2.0]], "K": [[[0.5]], [[0.3]]]},
    "saturating": {"c": 1.0, "k": 0.5},
    "quadratic": {"c": 1.0},
}
# sha256 of the integrator's output on each pinned case (_pinned_digest),
# recorded before the step's arithmetic was last reworked; those of the
# linear_scalar, linear_vector and saturating cases when they took the
# affine step
PINNED_DIGESTS = {
    ('distributed_linear', 1, False):
        "d468f29b9c78769f6d17df08143ac7e26c85a924c2a7a01b30e491a60d8e1844",
    ('distributed_linear', 17, False):
        "1818ba2f30ebef2b07708c9110ecf0e228d56c91a95ae3bf5ba160be0b4e2d54",
    ('distributed_linear', 17, True):
        "9d2c960a612b0aa1fa629ba395c160e3d42f0bc1bdedf6949ee5be5621501250",
    ('linear_scalar', 1, False):
        "181964b8777ad4d1cb3a2b4bc7ae005ec1cb33169a028134cd88357fc94818f2",
    ('linear_scalar', 17, False):
        "9758f609917b251c36c4c29c59cfbc70bd8850fa5975b76f35d599052c64707b",
    ('linear_scalar', 17, True):
        "dd20526f1e7f4d8a1f6a7d18278c389c37b8e502030387587cb64d0a801d6f29",
    ('linear_scalar_b0', 1, False):
        "e0956ae2086d8f0946cb123d2f5c0434c1c7df6090c463fa3206eac378b3edb1",
    ('linear_scalar_b0', 17, False):
        "4231ac6f721bc7c425836f41bf399d37b856140b8eda9785357320783b5b45c8",
    ('linear_scalar_b0', 17, True):
        "6e649c96334110eeec8d8bb36e915899d4a4f4999671dad48d0634699bf55755",
    ('linear_vector', 1, False):
        "8ce49af23c6c021ee621d218106408d099bb45f12087c6cc96a002506508e078",
    ('linear_vector', 17, False):
        "620c2e1711a61af7b4cd96dcd64ac5709d3c3005ca0bcd77537aa7069d4ee95c",
    ('linear_vector', 17, True):
        "52f427db07751479aa19a72923a81e97d9912a8b3fa8d6f5372c070004af3774",
    ('quadratic', 1, False):
        "35f8ba6ba89ac08ed8629cffc455b49f0e228d52aef868ea01d184433bb92b63",
    ('quadratic', 17, False):
        "44f7fad712aa4c269b59a9e179346724935a567ca1f9fce9e1c61aa3c54aeca2",
    ('quadratic', 17, True):
        "71c0cd871b021ab6fbbe24d47bca817ff71b4e0e9f975eb6730e202ef7594a96",
    ('saturating', 1, False):
        "29f54fb0020581e3824264107e3f13afe13247ab963d9af487e30ee51f186c19",
    ('saturating', 17, False):
        "b5c68529b03bb05669449bdc679b86c5d0f5a2df73ba9a6bf703fee99f567358",
    ('saturating', 17, True):
        "77eb19d83c449d08e35a5876b67894d9d2506c00be0fc59472362dc2c037c0a6",
}


def _pinned_digest(label: str, members: int, moving: bool) -> str:
    """sha256 of forward_values, forward_derivs and escape_time of a
    fourier block of members histories (norms 0.5, 4, 1.5 in turn, so
    quadratic members escape) over T = 3.537 at h = 0.05, whose last step
    is short.  moving hands the rows on as pieces of a window of the
    smallest size, which moves on twice, and hashes the pieces in order."""
    sys = make_system(label.removesuffix("_b0"), 1.0, PINNED_SYSTEMS[label])
    cfg = SamplerConfig(family="fourier", order=3,
                        target_space=SpaceSpec.sup(), target_norm=1.0,
                        dimension=sys.dimension, delay_r=1.0, seed=5,
                        n_nodes=33)
    x0s = [sample_one(replace(cfg, target_norm=(1.5, 0.5, 4.0)[i % 3]), i)
           for i in range(members)]
    digest = hashlib.sha256()

    def feed(rows):
        for values, derivs, escape in rows:
            digest.update(values.tobytes())
            digest.update(derivs.tobytes())
            digest.update(repr(escape).encode())

    if moving:
        with mock.patch.object(dde, "BLOCK_BYTES", 1):
            simulate_many(sys, x0s, 3.537, 0.05, take=lambda piece: feed(
                (piece.forward_values[:, pos], piece.forward_derivs[:, pos],
                 (b, piece.first_row, piece.final, piece.escape_time))
                for pos, b in enumerate(piece.members)))
    else:
        feed((t.forward_values, t.forward_derivs, t.escape_time)
             for t in simulate_many(sys, x0s, 3.537, 0.05))
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(PINNED_SYSTEMS))
@pytest.mark.parametrize("members, moving", [(1, False), (17, False),
                                             (17, True)])
def test_integrator_output_is_pinned_bitwise(label, members, moving):
    """Every built-in family integrates to the recorded bits, at B = 1 and
    B = 17, with a short final step, an escaping quadratic member and a
    moving window: a change to the step's arithmetic that moves one bit
    of any trajectory fails here."""
    assert _pinned_digest(label, members, moving) \
        == PINNED_DIGESTS[label, members, moving]


# the families with parts, as (family, params); at a = 12 histories of
# norm 4 escape near t = 2.2 and of norm 1e-4 near t = 3
SPLIT_SYSTEMS = [
    ("linear_scalar", PINNED_SYSTEMS["linear_scalar"]),
    ("linear_scalar", PINNED_SYSTEMS["linear_scalar_b0"]),
    ("linear_scalar", {"a": 12.0, "b": 0.3}),
    ("linear_vector", PINNED_SYSTEMS["linear_vector"]),
    ("saturating", PINNED_SYSTEMS["saturating"]),
]
# the affine step against the stage form of its view twin: values within
# TWIN_TOL of the member's sup |x|, derivatives of its sup |x'|
TWIN_TOL = 1e-11


def _view_twin(sys: DelaySystem) -> DelaySystem:
    """The same rhs as a system without parts, integrated through the
    block view."""
    return DelaySystem(sys.name, sys.dimension, sys.delay_r, sys.rhs,
                       sys.lipschitz_modulus)


def _fourier_block(sys: DelaySystem, members: int, seed: int = 5,
                   norms=(1.5, 0.5, 4.0)):
    """members fourier histories of sys, of sup norms taken from norms in
    turn."""
    cfg = SamplerConfig(family="fourier", order=3,
                        target_space=SpaceSpec.sup(), target_norm=1.0,
                        dimension=sys.dimension, delay_r=sys.delay_r,
                        seed=seed, n_nodes=33)
    return [sample_one(replace(cfg, target_norm=norms[i % len(norms)]), i)
            for i in range(members)]


def _split_and_twin(name: str, params: dict, members: int, h: float,
                    T: float, budget: int, seed: int):
    """The runs of a family with parts and of its view twin on the same
    fourier block, under a BLOCK_BYTES of budget: each as its whole
    trajectories and as the pieces it hands on to take, (member,
    first_row, final, escape_time, forward_values, forward_derivs)."""
    split = make_system(name, 1.0, params)
    twin = _view_twin(split)
    assert split.parts is not None and twin.parts is None
    x0s = _fourier_block(split, members, seed, norms=(1.5, 0.5, 4.0, 1e-4))

    def run(sys):
        pieces = []
        with mock.patch.object(dde, "BLOCK_BYTES", budget):
            whole = simulate_many(sys, x0s, T, h)
            simulate_many(sys, x0s, T, h, take=lambda piece: pieces.extend(
                (b, piece.first_row, piece.final, piece.escape_time,
                 piece.forward_values[:, pos].copy(),
                 piece.forward_derivs[:, pos].copy())
                for pos, b in enumerate(piece.members)))
        return whole, pieces

    return run(split), run(twin)


def _twin_deviation(got, want) -> float:
    """The largest deviation of the runs got of a family with parts from
    want, its view twin's, each value over the member's sup |x| and each
    derivative over its sup |x'| (in the twin's whole run); the escapes,
    forward times and piece layout must be equal."""
    (whole, pieces), (twin_whole, twin_pieces) = got, want
    assert len(whole) == len(twin_whole) and len(pieces) == len(twin_pieces)
    scales = [(np.abs(t.forward_values).max(), np.abs(t.forward_derivs).max())
              for t in twin_whole]
    pairs = []
    for a, b, scale in zip(whole, twin_whole, scales):
        assert a.escape_time == b.escape_time
        assert a.forward_times.tobytes() == b.forward_times.tobytes()
        pairs.append((a.forward_values, a.forward_derivs, b.forward_values,
                      b.forward_derivs, scale))
    for a, b in zip(pieces, twin_pieces):
        assert a[:4] == b[:4]
        pairs.append(a[4:] + b[4:] + (scales[a[0]],))
    worst = 0.0
    for values, derivs, twin_values, twin_derivs, (sx, sd) in pairs:
        assert values.shape == twin_values.shape
        assert derivs.shape == twin_derivs.shape
        worst = max(worst, np.abs(values - twin_values).max() / sx,
                    np.abs(derivs - twin_derivs).max() / sd)
    return worst


def test_split_families_integrate_as_their_view_twins():
    """A family with parts integrates, by the affine step and its delayed
    terms applied a plan at a time, to its own rhs integrated through the
    block view in the stage form: forward_values and forward_derivs within
    TWIN_TOL and the same escape_time, as whole trajectories and as the
    pieces of a window that moves, at B = 1, 4, 17 and 48, with a short
    final step, escaping members, a BLOCK_BYTES of 1 that leaves each
    plan a single stage and one of 512 * 45 that gives plans of odd
    spans, which end between a step's two stages."""
    seen = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        (name, params), members, h, T, budget, seed = (
            data.draw(st.sampled_from(SPLIT_SYSTEMS)),
            data.draw(st.sampled_from([1, 4, 17, 48])),
            data.draw(st.sampled_from([0.05, 0.1])),
            data.draw(st.floats(0.3, 3.6)),
            data.draw(st.sampled_from([1, 512 * 45, dde.BLOCK_BYTES])),
            data.draw(st.integers(0, 9)))
        got, want = _split_and_twin(name, params, members, h, T, budget, seed)
        assert _twin_deviation(got, want) <= TWIN_TOL
        if _mesh(T, h)[1] > 0.0:
            seen.add("short final step")
        if any(t.escaped for t in got[0]):
            seen.add("escape")
        if budget == 1 and any(first > 0 for _, first, *_ in got[1]):
            seen.add("moved")
        seen.add(members)

    check()
    assert {1, 4, 17, 48, "short final step", "escape", "moved"} <= seen


# every built-in family, and linear_scalar at a = 12, whose histories of
# norm 4 and 1e-4 escape
BUDGET_SYSTEMS = [(label.removesuffix("_b0"), params) for label, params
                  in sorted(PINNED_SYSTEMS.items())] + [SPLIT_SYSTEMS[2]]


@pytest.mark.parametrize("name, params", BUDGET_SYSTEMS)
@pytest.mark.parametrize("members", [1, 5, 17])
def test_trajectories_do_not_depend_on_the_plan_budget(name, params,
                                                       members):
    """A block integrates to the same whole trajectories in every bit,
    escapes included, under a BLOCK_BYTES of 1 (plans of one stage, each
    step on its own), of 512 * 7 B n (plans of 7 stages, which end
    between a step's two stages, so the affine step's runs end there) and
    the default, with a short final step."""
    sys = make_system(name, 1.0, params)
    x0s = _fourier_block(sys, members, norms=(1.5, 0.5, 4.0, 1e-4))
    T, h = 3.537, 0.05
    assert _mesh(T, h)[1] > 0.0
    runs = []
    for budget in (1, 512 * 7 * members * sys.dimension, dde.BLOCK_BYTES):
        with mock.patch.object(dde, "BLOCK_BYTES", budget):
            runs.append(simulate_many(sys, x0s, T, h))
    if members > 2 and (name == "quadratic" or params.get("a") == 12.0):
        assert any(t.escaped for t in runs[-1])
    for run in runs[:-1]:
        for got, want in zip(run, runs[-1], strict=True):
            assert got.escape_time == want.escape_time
            for a, b in ((got.forward_times, want.forward_times),
                         (got.forward_values, want.forward_values),
                         (got.forward_derivs, want.forward_derivs)):
                assert a.tobytes() == b.tobytes()


def test_split_family_member_escapes_inside_a_plan():
    """Members escape while the rest of their block carries on: at a = 12
    some members of this block escape in (2, 3], found by the test after
    step 59, while the plan of delayed terms made at stage 118 still
    holds the next stages.  The others go on, with their own terms, as
    in the view twin to within TWIN_TOL, and escape after t = 3."""
    got, want = _split_and_twin("linear_scalar", {"a": 12.0, "b": 0.3}, 8,
                                0.05, 3.6, dde.BLOCK_BYTES, 3)
    assert _twin_deviation(got, want) <= TWIN_TOL
    escapes = sorted(t.escape_time for t in got[0])
    assert 2.0 < escapes[0] <= 3.0 < escapes[-1]


def test_hand_built_vector_parts_without_a_delayed_part_step_as_the_twin():
    """A system built by hand with parts (A0, None) and n = 2 steps by
    the affine map y <- M y, written into its window row by matrix
    products, to within TWIN_TOL of its view twin."""
    A0 = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    sys = DelaySystem("spiral", 2, 1.0,
                      lambda seg: _matvec(A0, seg.value_at_point(0.0)),
                      lambda R: 2.1, parts=(A0, None))
    x0s = _fourier_block(sys, 3)
    runs = [(simulate_many(s, x0s, 2.537, 0.05), []) for s in
            (sys, _view_twin(sys))]
    assert _twin_deviation(*runs) <= TWIN_TOL


def test_split_families_read_the_view_only_to_plan(monkeypatch):
    """A block of a family with parts makes no point or array read of
    the view and never sets its stage: its delayed terms come from one
    _plan call per span of stages, at increasing stage numbers from
    stage 0 (a family without a delayed part makes none).  A user-built
    system and distributed_linear read through the view."""
    calls, planned = {}, []

    def counted(name):
        method = getattr(_SolutionView, name)

        def wrapper(self, *args):
            calls[name] = calls.get(name, 0) + 1
            if name == "_plan":
                planned.append(args[1])
            return method(self, *args)
        return wrapper

    for name in ("value_at_point", "value_at", "_planned", "_plan",
                 "set_stage"):
        monkeypatch.setattr(_SolutionView, name, counted(name))
    budget = 1 << 16
    monkeypatch.setattr(dde, "BLOCK_BYTES", budget)
    T, h, members = 3.537, 0.05, 4
    n_full, tail = _mesh(T, h)
    assert tail > 0.0  # a short final step
    steps = n_full + 1
    stages = 2 * steps + 1
    for name, params in SPLIT_SYSTEMS:
        sys = make_system(name, 1.0, params)
        calls.clear()
        planned.clear()
        simulate_many(sys, _fourier_block(sys, members, norms=(0.5,)), T, h)
        assert "value_at_point" not in calls and "value_at" not in calls
        assert "_planned" not in calls and "set_stage" not in calls
        if sys.parts[1] is None:
            assert "_plan" not in calls
        else:
            # a plan's reads fit BLOCK_BYTES // 64 (see _SolutionView._plan)
            span = budget // (512 * members * sys.dimension)
            assert 0 < calls["_plan"] <= math.ceil(stages / span)
            assert planned[0] == 0 and planned == sorted(set(planned))
    user = DelaySystem("user", 1, 1.0, lambda seg: -seg.value_at_point(-0.5),
                       lambda R: 1.0)
    for sys in (user, make_system("distributed_linear", 1.0,
                                  PINNED_SYSTEMS["distributed_linear"])):
        calls.clear()
        simulate_many(sys, _fourier_block(sys, members, norms=(0.5,)), T, h)
        assert calls["_planned"] >= 4 * steps


@pytest.mark.parametrize("name, params", SPLIT_SYSTEMS)
def test_split_family_rhs_is_its_parts(name, params):
    """On a segment, the rhs of a family with parts is bitwise A0 x(0)
    plus delayed at x(-r), or A0 x(0) alone without a delayed part, A0
    its (n, n) coefficient of x(t)."""
    sys = make_system(name, 1.0, params)
    A0, delayed = sys.parts
    assert A0.shape == (sys.dimension, sys.dimension)
    assert (delayed is None) == (params.get("b") == 0)
    for seg in _fourier_block(sys, 20, seed=2, norms=(0.5, 4.0, 1.5, 30.0)):
        want = _matvec(_factor(A0), seg.value_at_point(0.0))
        if delayed is not None:
            want = want + delayed(seg.value_at_point(-sys.delay_r))
        assert np.asarray(sys.rhs(seg)).tobytes() == want.tobytes()


# lipschitz_probe(sys, 1.5, 20, seed=3).hex() and the sha256 of the JSON
# of check_growth_certificate(sys, weighted_sup(1), a(s) = s / e, mu = 2,
# 6 samples, T = 1, seed = 1), recorded before the families were split
# into parts; linear_vector's report when it took the affine step, which
# moved its worst_trajectory_ratio by one ulp
SEGMENT_CALLER_REPORTS = {
    "linear_scalar": (
        "0x1.32c1a14358f2dp+0",
        "f2024393703085c5a6e151073e7214e9c9a2c8d32f22e8c63aa27b540b0717ee"),
    "linear_scalar_b0": (
        "0x1.0000000000000p+0",
        "3133b4ac37db3daa93df90867a438790143663040e67def97018423376ddf04b"),
    "linear_vector": (
        "0x1.6102f36a90b71p+0",
        "037417037203b1ab9a356f852e1662cb731a127ecb5172ac8084b41d3d8c9f4c"),
    "saturating": (
        "0x1.510adf4b0622fp+0",
        "a83b084866873dd6b17fd0ec9ab224795b2a7b6c2490cb08dfd98faf5596dd54"),
    "quadratic": (
        "0x1.b1a3d0dcb3cc8p+0",
        "bae07674c5937f6dee69d85473917d8a4589735455a882f164faa67a6189f418"),
}


@pytest.mark.parametrize("label", sorted(SEGMENT_CALLER_REPORTS))
def test_segment_callers_of_split_families_keep_their_reports(label):
    """lipschitz_probe and the growth check's head slopes call rhs on
    segments; for the families with parts they report the recorded
    bits."""
    sys = make_system(label.removesuffix("_b0"), 1.0, PINNED_SYSTEMS[label])
    rep = check_growth_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(EXP_MINUS_ONE), 2.0, 6,
        T=1.0, seed=1)
    doc = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    assert (lipschitz_probe(sys, 1.5, 20, seed=3).hex(),
            hashlib.sha256(doc).hexdigest()) == SEGMENT_CALLER_REPORTS[label]


def test_window_pieces_are_the_whole_trajectories(monkeypatch):
    """With a window of two delay intervals and three rows, the pieces a
    block hands on overlap by the kept rows, settle in order, and put
    together are the whole trajectories in every bit, escapes included;
    the last piece of each member is final.  A right-hand side that reads
    x before t - r is refused, where the window no longer holds it."""
    from delaystab import dde

    cubic = DelaySystem("cubic", 1, 0.1, lambda seg: seg.value_at_point(0.0)
                        ** 3 + 0.5 * seg.value_at_point(-0.1),
                        lambda R: 3.0 * R * R + 0.5)
    x0s = [const_history(0.1, c, 17) for c in
           (0.0, 0.5, 1.0, 1.5, 2.0, -1.5, 0.3)]
    whole = simulate_many(cubic, x0s, 0.425, 0.01)
    monkeypatch.setattr(dde, "BLOCK_BYTES", 1)
    assert dde._window_rows(cubic, 0.425, 0.01, len(x0s)) == 23
    pieces = [[] for _ in x0s]

    def keep(piece):
        # a piece is a view of the window, valid until take returns: keep
        # each member's rows
        for pos, b in enumerate(piece.members):
            pieces[b].append(piece._replace(
                members=(b,),
                forward_values=piece.forward_values[:, pos].copy(),
                forward_derivs=piece.forward_derivs[:, pos].copy()))

    assert simulate_many(cubic, x0s, 0.425, 0.01, take=keep) is None
    assert sum(len(p) for p in pieces) > 2 * len(x0s)
    for got, want in zip(pieces, whole):
        assert [p.final for p in got] == [False] * (len(got) - 1) + [True]
        assert got[-1].escape_time == want.escape_time
        assert all(p.escape_time is None for p in got[:-1])
        rows = np.concatenate([p.forward_values for p in got])
        for p in got:
            lo = p.first_row
            for a, b in ((p.forward_times, want.forward_times),
                         (p.forward_values, want.forward_values),
                         (p.forward_derivs, want.forward_derivs)):
                assert a.tobytes() == b[lo:lo + a.shape[0]].tobytes()
        assert got[-1].end_time == want.end_time
        assert rows.shape[0] >= want.forward_values.shape[0]
        # each piece starts no later than a delay interval and three rows
        # before the end of the one before it
        for a, b in zip(got, got[1:]):
            end = a.first_row + a.forward_times.size
            assert b.first_row == end - 13

    def reaching_back(seg):
        return seg.value_at_point(-0.15)

    far = DelaySystem("far", 1, 0.1, reaching_back, lambda R: 0.0)
    with pytest.raises(ParameterError, match="before t - r"):
        simulate_many(far, x0s[:1], 1.0, 0.01, take=lambda piece: None)


def test_simulate_many_trajectories_own_their_rows():
    """The whole trajectories are copied out of the block's window: each
    member's rows are C-contiguous and share no memory with another's,
    the escaped member's too."""
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    x0s = [const_history(value=c, n_nodes=33) for c in (0.0, 0.2, 3.0, -0.5)]
    many = simulate_many(sys, x0s, 2.0, 0.05)
    assert [t.escaped for t in many] == [False, False, True, False]
    arrays = [[t.forward_times, t.forward_values, t.forward_derivs]
              for t in many]
    for rows in arrays:
        assert all(a.flags.c_contiguous for a in rows)
    for i, mine in enumerate(arrays):
        for theirs in arrays[i + 1:]:
            assert not any(np.shares_memory(a, b)
                           for a in mine for b in theirs)


def test_block_histories_share_one_grid():
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.3})
    with pytest.raises(ParameterError, match="share a grid"):
        simulate_many(sys, [const_history(n_nodes=33),
                            const_history(n_nodes=65)], 1.0)
    assert simulate_many(sys, [], 1.0) == []


def test_block_grid_check_compares_distinct_node_arrays_only(monkeypatch):
    """The samples of one stack share one nodes array, which passes the
    grid check without a comparison; equal nodes in another array are
    compared once and pass."""
    sys = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.3})
    cfg = SamplerConfig(family="fourier", order=3,
                        target_space=SpaceSpec.sup(), target_norm=1.0,
                        dimension=1, delay_r=1.0, seed=0, n_nodes=33)
    (stack,) = dde._sample_stacks(cfg, range(4))
    assert all(x0.nodes is stack[0].nodes for x0 in stack)
    calls = []
    equal = np.array_equal

    def counting(a, b):
        calls.append(1)
        return equal(a, b)

    monkeypatch.setattr(np, "array_equal", counting)
    simulate_many(sys, stack, 1.0)
    assert calls == []
    twin = Segment.from_samples(1.0, stack[1].values, stack[1].derivs)
    assert twin.nodes is not stack[0].nodes
    simulate_many(sys, [stack[0], twin], 1.0)
    assert calls == [1]


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
