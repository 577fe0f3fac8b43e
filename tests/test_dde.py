"""Tests for delay systems and the method-of-steps integrator."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from delaystab.dde import (
    ESCAPE_THRESHOLD,
    DelaySystem,
    LipschitzViolation,
    SYSTEM_BUILDERS,
    Trajectory,
    _SolutionView,
    _mesh,
    _working_step,
    lipschitz_probe,
    make_system,
    segment_at,
    simulate,
    simulate_many,
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
    # the block view of this one trajectory, all of its steps settled
    view = _SolutionView([traj.initial], traj.forward_values[:, None],
                         traj.forward_derivs[:, None], traj.step_h)
    times = np.random.default_rng(0).uniform(0.0, traj.end_time, 300)
    for t in np.concatenate([[0.0, 0.5, 1.0, traj.end_time], times]):
        seg = segment_at(traj, float(t))
        view.set_stage(traj.forward_values.shape[0] - 1, float(t),
                       traj.forward_values[-1][None])
        reads = np.array([view.value_at_point(float(s))[0]
                          for s in seg.nodes[:-1]])
        assert np.array_equal(seg.values[:-1], reads)


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
    view = _SolutionView(x0s, values, derivs, h_eff)
    vals, ders = view.values, view.derivs
    ders[0] = sys.rhs(view)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t_k = k * h_eff
            step = h_eff if k < n_full else tail
            y, k1 = vals[k], ders[k]
            view.set_stage(k, t_k + 0.5 * step, y + (0.5 * step) * k1)
            k2 = sys.rhs(view)
            view.set_stage(k, t_k + 0.5 * step, y + (0.5 * step) * k2)
            k3 = sys.rhs(view)
            view.set_stage(k, t_k + step, y + step * k3)
            k4 = sys.rhs(view)
            y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_next = t_k + step
            vals[k + 1] = y_next
            view.set_stage(k, t_next, y_next)
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
                                 h_eff)
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
        got = simulate_many(sys, x0s, 1.0, 0.01)
        want = _per_step_escapes(sys, x0s, 1.0, 0.01)
        assert [t.escaped for t in got] == [t.escaped for t in want]
        assert sum(t.escaped for t in got) == len(x0s) - 1
        for a, b in zip(got, want):
            assert a.escape_time == b.escape_time
            for u, v in ((a.times, b.times), (a.values, b.values),
                         (a.derivs, b.derivs)):
                assert u.tobytes() == v.tobytes()


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


def test_solution_view_memo_reads_equal_fresh_reads():
    """Dense reads served from the memo, across repeated set_stage calls
    that keep and that move the stage, equal the reads of a fresh view in
    every bit; late reads follow the stage value every time."""
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    cfg = SamplerConfig(family="fourier", order=3, target_space=SpaceSpec.sup(),
                        target_norm=1.0, dimension=1, delay_r=1.0, seed=0,
                        n_nodes=65)
    x0s = [sample_one(cfg, i) for i in range(3)]
    trajs = simulate_many(sys, x0s, 3.0, 0.01)
    values = np.stack([t.forward_values for t in trajs], axis=1)
    derivs = np.stack([t.forward_derivs for t in trajs], axis=1)
    h = trajs[0].step_h
    memo = _SolutionView(x0s, values, derivs, h)
    points = [-1.0, -0.73, -0.5, -0.02, -0.004, 0.0]
    arrays = [np.linspace(-1.0, 0.0, 27), np.array([-0.3, -0.001, 0.0])]
    rng = np.random.default_rng(1)
    for settled in (0, 5, 100, 150, 299):
        for frac in (0.0, 0.5, 0.5, 1.0, 1.0):
            stage = rng.normal(size=(3, 1))
            t = settled * h + frac * h
            for _ in range(2):
                memo.set_stage(settled, t, stage)
                fresh = _SolutionView(x0s, values, derivs, h)
                fresh.set_stage(settled, t, stage)
                for s in points:
                    got = memo.value_at_point(s)
                    assert got.tobytes() == fresh.value_at_point(s).tobytes()
                for s in arrays:
                    got = memo.value_at(s)
                    assert got.tobytes() == fresh.value_at(s).tobytes()
                    assert got.tobytes() == fresh.value_at(
                        s.tolist()).tobytes()
                # the late read at s = 0 is the running stage value
                assert memo.value_at_point(0.0) is stage
                assert np.array_equal(memo.value_at(arrays[1])[:, -1], stage)
                stage = stage + 1.0
    # memoised reads cannot be changed in place
    with pytest.raises(ValueError):
        memo.value_at_point(-0.5)[...] = 0.0
    with pytest.raises(ValueError):
        memo.value_at(np.array([-0.7, -0.3]))[...] = 0.0


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

    def keep(b, rows):
        # a piece is a view of the window, valid until take returns
        pieces[b].append(replace(
            rows, forward_values=rows.forward_values.copy(),
            forward_derivs=rows.forward_derivs.copy()))

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
        simulate_many(far, x0s[:1], 1.0, 0.01, take=lambda b, rows: None)


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
