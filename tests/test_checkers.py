"""Tests for the empirical stability checkers and envelope machinery."""

import io
import math
from itertools import chain

import numpy as np
import pytest

from delaystab import checkers, dde, lyapunov
from delaystab.checkers import (
    KLEnvelope,
    StabilityReport,
    check_envelope_lift,
    check_ga,
    check_gas_vs_ugas,
    check_lags,
    check_ls,
    check_rfc,
    check_uga,
    default_time_grid,
    fit_kl_envelope,
    lift_sup_envelope,
    lipschitz_propagation_bound,
    verify_pair_bounds,
)
from delaystab.dde import DelaySystem, make_system, segment_at, simulate, \
    simulate_many
from delaystab.lyapunov import MonotoneGridFn, check_pointwise_dissipation, \
    scaled_abs_rate, weighted_sup
from delaystab.sampler import SamplerConfig, sample_one
from delaystab.segment import ParameterError, Segment, SpaceSpec, \
    hoelder_seminorm, lp_deriv_norm, space_norm, sup_norm

SUP = SpaceSpec.sup()
SOB2 = SpaceSpec.sobolev(2.0)

# 1 + 2 e and e^-2 + 2 e^-1, the lift factors for the unit-delay examples
LIFT_AT_ZERO = 6.43656365691809
LIFT_AT_TWO = 0.8710941655794974
LOG_TEN = 2.302585092994046


def linear(r, a, b):
    return make_system("linear_scalar", r=r, params={"a": a, "b": b})


def exp_envelope():
    """Exact A e^-t table on a grid hitting 1 and 2, for lift oracles."""
    s_grid = np.array([0.5, 1.0, 2.0])
    t_grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    sigma = np.exp(-t_grid)[None, :] * s_grid[:, None]
    return KLEnvelope(s_grid=s_grid, t_grid=t_grid, sigma=sigma,
                      shell_counts=np.array([1, 1, 1]),
                      interpolated=np.zeros(3, dtype=bool),
                      decayed=False, nondecay=True)


# -- time grid ---------------------------------------------------------


def test_time_grid_linear_then_geometric():
    grid = default_time_grid(10.0, 0.5, 40)
    assert grid.size == 40
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(10.0, rel=1e-12)
    assert np.all(np.diff(grid) > 0.0)
    assert grid[10] == pytest.approx(0.5, rel=1e-12)


def test_time_grid_short_horizon_is_linear():
    grid = default_time_grid(0.3, 0.5, 10)
    assert np.allclose(grid, np.linspace(0.0, 0.3, 10))


def test_time_grid_validation():
    with pytest.raises(ParameterError):
        default_time_grid(0.0, 0.5)
    with pytest.raises(ParameterError):
        default_time_grid(1.0, 0.5, points=3)


# -- envelope container ------------------------------------------------


def test_envelope_shape_assertion_accepts_exact_table():
    exp_envelope().assert_kl_shape()


def test_envelope_shape_assertion_rejects_bad_tables():
    env = exp_envelope()
    flipped = env.sigma[::-1].copy()
    bad_s = KLEnvelope(env.s_grid, env.t_grid, flipped, env.shell_counts,
                       env.interpolated, False, False)
    with pytest.raises(ParameterError):
        bad_s.assert_kl_shape()
    rising = env.sigma[:, ::-1].copy()
    bad_t = KLEnvelope(env.s_grid, env.t_grid, rising, env.shell_counts,
                       env.interpolated, False, False)
    with pytest.raises(ParameterError):
        bad_t.assert_kl_shape()
    holed = env.sigma.copy()
    holed[1, 1] = np.nan
    bad_nan = KLEnvelope(env.s_grid, env.t_grid, holed, env.shell_counts,
                         env.interpolated, False, False)
    with pytest.raises(ParameterError):
        bad_nan.assert_kl_shape()


def test_envelope_lookup_is_conservative():
    s_grid = np.array([1.0, 2.0])
    t_grid = np.array([0.0, 1.0, 2.0])
    sigma = np.array([[2.0, 1.0, 0.5], [4.0, 3.0, 2.0]])
    env = KLEnvelope(s_grid, t_grid, sigma, np.array([1, 1]),
                     np.zeros(2, dtype=bool), False, True)
    # ceiling shell in s, step-left in t
    assert env.value_at(1.5, 0.9) == 4.0
    assert env.value_at(0.5, 2.5) == 0.5
    assert env.value_at(2.0, 1.0) == 3.0
    with pytest.raises(ParameterError):
        env.value_at(2.5, 0.0)
    with pytest.raises(ParameterError):
        env.value_at(1.0, -0.1)
    # a NaN radius would read the outermost shell and a NaN time the last
    # report time, both bounds off in the direction no caller assumes
    for s, t in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ParameterError, match="nonnegative"):
            env.value_at(s, t)


def test_envelope_csv_round_trip():
    env = exp_envelope()
    buf = io.StringIO()
    env.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].startswith("s/t,0,")
    assert len(lines) == 1 + env.s_grid.size
    back = np.array([[float(v) for v in ln.split(",")[1:]]
                     for ln in lines[1:]])
    assert np.array_equal(back, env.sigma)


# -- lift and propagation constant -------------------------------------


def test_lift_matches_closed_form_at_zero():
    lifted = lift_sup_envelope(exp_envelope(), 1.0, math.inf, lambda R: 0.0)
    assert np.allclose(lifted.sigma[:, 0] / exp_envelope().s_grid,
                       LIFT_AT_ZERO, rtol=1e-12)


def test_lift_matches_closed_form_past_the_delay():
    env = exp_envelope()
    lifted = lift_sup_envelope(env, 1.0, 2.0, lambda R: 1.0)
    assert np.allclose(lifted.sigma[:, -1] / env.s_grid, LIFT_AT_TWO,
                       rtol=1e-12)


def test_lift_dominates_its_input_exactly():
    env = exp_envelope()
    lifted = lift_sup_envelope(env, 1.0, 2.0, lambda R: 1.0)
    assert np.all(lifted.sigma >= env.sigma)
    lifted.assert_kl_shape()


def test_lift_rejects_p_one():
    with pytest.raises(ParameterError):
        lift_sup_envelope(exp_envelope(), 1.0, 1.0, lambda R: 0.0)


def test_propagation_constant_frozen_values():
    assert lipschitz_propagation_bound(1.0, 1.0, 1.0, math.inf,
                                       lambda R: 0.0) == 3.0
    got = lipschitz_propagation_bound(1.0, 1.0, 1.0, 2.0, lambda R: 1.0)
    assert got == pytest.approx(LIFT_AT_ZERO, rel=1e-12)
    # small L e^(L T) pins the max at 1, leaving 2 + r^(1/p)
    got = lipschitz_propagation_bound(1.0, 1.0, 0.5, 2.0, lambda R: 0.2)
    assert got == pytest.approx(2.0 + math.sqrt(0.5), rel=1e-12)


def test_propagation_constant_validation():
    with pytest.raises(ParameterError):
        lipschitz_propagation_bound(-1.0, 1.0, 1.0, 2.0, lambda R: 0.0)
    with pytest.raises(ParameterError):
        lipschitz_propagation_bound(1.0, 1.0, 1.0, 1.0, lambda R: 0.0)


def test_propagation_constant_overflow_is_vacuous():
    # e^(L T) R = e^800 is past the float range: the bound is +inf
    got = lipschitz_propagation_bound(10.0, 40.0, 1.0, math.inf,
                                      lambda R: 2.0 * R)
    assert got == math.inf


# -- report container --------------------------------------------------


def test_report_rejects_unknown_verdict():
    with pytest.raises(ParameterError):
        StabilityReport("rfc", SUP, "maybe", None, {}, {})


def test_report_falsified_needs_witness():
    with pytest.raises(ParameterError):
        StabilityReport("rfc", SUP, "falsified", None, {}, {})


# -- bounded reach -----------------------------------------------------


def test_rfc_frozen_system_stays_put():
    zero = linear(1.0, 0.0, 0.0)
    rep = check_rfc(zero, SUP, 1.5, 3.0, 4, family="polynomial", order=0,
                    seed=1, h=1.0 / 25, grid_points=40)
    assert rep.verdict == "consistent"
    assert rep.margins["sup"] == pytest.approx(1.5, rel=1e-12)
    assert rep.witness is None


def test_rfc_decaying_system_consistent():
    sys = linear(1.0, -1.0, 0.5)
    rep = check_rfc(sys, SUP, 1.0, 5.0, 6, h=1.0 / 25, grid_points=40)
    assert rep.verdict == "consistent"
    assert 0.9 <= rep.margins["sup"] <= 1.6


def test_rfc_blowup_reports_earliest_escape():
    quad = make_system("quadratic", r=1.0, params={"c": 1.0})
    rep = check_rfc(quad, SUP, 2.0, 1.0, 4, family="polynomial", order=0,
                    seed=1, h=0.002, grid_points=30)
    assert rep.verdict == "falsified"
    assert 0.49 <= rep.details["escape_time"] <= 0.51
    assert rep.witness["index"] == 0
    assert rep.to_json_dict()["witness"]["norm"] == "inf"


def test_rfc_deterministic_reports():
    sys = linear(0.5, -1.0, 0.3)
    kw = dict(h=0.02, grid_points=30, seed=7)
    a = check_rfc(sys, SUP, 1.0, 2.0, 3, **kw)
    b = check_rfc(sys, SUP, 1.0, 2.0, 3, **kw)
    assert a.to_json_dict() == b.to_json_dict()


# -- uniform boundedness ----------------------------------------------


def test_lags_frozen_system_sup_is_radius():
    zero = linear(0.5, 0.0, 0.0)
    rep = check_lags(zero, SUP, 1.25, 3, family="polynomial", order=0,
                     h=0.02, grid_points=40)
    assert rep.verdict == "consistent"
    assert rep.margins["sup"] == pytest.approx(1.25, rel=1e-12)


def test_lags_growth_is_inconclusive():
    rep = check_lags(linear(1.0, 0.0, 1.0), SUP, 1.0, 3, h=0.04,
                     grid_points=40)
    assert rep.verdict == "inconclusive"
    assert rep.details["still_growing"]


# -- stability near the origin ----------------------------------------


def test_ls_decay_radius_tracks_tolerance():
    rep = check_ls(linear(0.5, -1.0, 0.0), SUP, [0.5], 5, h=0.02,
                   grid_points=40)
    assert rep.verdict == "consistent"
    assert rep.margins["delta(0.5)"] == pytest.approx(0.5, rel=0.02)


def test_ls_frozen_system_radius_equals_tolerance():
    rep = check_ls(linear(0.5, 0.0, 0.0), SUP, [0.5], 5,
                   family="polynomial", order=0, h=0.02, grid_points=40)
    assert rep.margins["delta(0.5)"] == pytest.approx(0.5, rel=1e-4)


def test_ls_growth_is_falsified_with_tiny_frontier():
    rep = check_ls(linear(1.0, 0.0, 1.0), SUP, [0.1], 4, h=0.04,
                   grid_points=40)
    assert rep.verdict == "falsified"
    assert rep.details["frontier"] <= 1e-4
    assert rep.margins["delta(0.1)"] < rep.details["frontier"]


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_ls_refuses_a_tolerance_outside_the_positive_reals(eps):
    # a NaN once passed the test and died as non-finite segment data
    with pytest.raises(ParameterError,
                       match=rf"positive and finite, got \[0.5, {eps}\]"):
        check_ls(linear(0.5, -1.0, 0.0), SUP, [0.5, eps], 1)


def test_ls_witness_regenerates_bitwise():
    rep = check_ls(linear(1.0, 0.0, 1.0), SUP, [0.1], 4, h=0.04,
                   grid_points=40)
    wit = rep.witness
    cfg = SamplerConfig.from_json_dict(wit["sampler"])
    seg = wit["scale"] * sample_one(cfg, wit["index"])
    emb = Segment.from_json_dict(wit["segment"])
    assert np.array_equal(seg.values, emb.values)
    assert np.array_equal(seg.derivs, emb.derivs)


# -- attractivity ------------------------------------------------------


def test_ga_decay_converges():
    rep = check_ga(linear(1.0, -1.0, 0.0), SUP, 1.0, 0.05, 3, h=0.04,
                   grid_points=40)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_end_norm"] < 1e-6


def test_ga_frozen_system_falsified_with_constant_witness():
    zero = linear(0.5, 0.0, 0.0)
    rep = check_ga(zero, SUP, 2.0, 0.1, 3, family="polynomial", order=0,
                   seed=1, h=0.02, grid_points=40)
    assert rep.verdict == "falsified"
    assert rep.margins["residual_norm"] == pytest.approx(2.0, rel=1e-12)
    emb = Segment.from_json_dict(rep.witness["segment"])
    assert np.allclose(emb.values, emb.values[0], atol=1e-15)
    cfg = SamplerConfig.from_json_dict(rep.witness["sampler"])
    seg = sample_one(cfg, rep.witness["index"])
    assert np.array_equal(seg.values, emb.values)


def test_ga_slow_decay_is_inconclusive():
    rep = check_ga(linear(1.0, -0.05, 0.0), SUP, 1.0, 0.1, 3, h=0.04,
                   grid_points=40)
    assert rep.verdict == "inconclusive"
    assert rep.details["still_decreasing"]


# -- uniform attractivity ---------------------------------------------


def test_uga_settle_time_matches_log_ratio():
    sys = linear(0.05, -1.0, 0.0)
    rep = check_uga(sys, SUP, 0.1, 1.0, 4, family="polynomial", order=0,
                    horizon=4.0, h=0.005, grid_points=160)
    assert rep.verdict == "consistent"
    assert abs(rep.margins["settle_time"] - LOG_TEN) <= 0.25


def test_uga_frozen_system_inconclusive():
    rep = check_uga(linear(0.5, 0.0, 0.0), SUP, 0.1, 1.0, 3,
                    family="polynomial", order=0, h=0.02, grid_points=30)
    assert rep.verdict == "inconclusive"


def test_uga_saturating_settles():
    sat = make_system("saturating", r=0.5, params={"c": 1.0, "k": 0.5})
    rep = check_uga(sat, SUP, 0.2, 1.0, 3, h=0.02, grid_points=60)
    assert rep.verdict == "consistent"
    assert 1.0 < rep.margins["settle_time"] < 9.0


# -- envelope fitting --------------------------------------------------


def test_envelope_frozen_system_is_identity_in_radius():
    zero = linear(0.5, 0.0, 0.0)
    env = fit_kl_envelope(zero, SUP, 2.0, 4, None, 8, family="polynomial",
                          order=0, horizon=2.0, h=0.02, grid_points=30)
    expect = np.broadcast_to(env.s_grid[:, None], env.sigma.shape)
    assert np.allclose(env.sigma, expect, rtol=1e-9)
    assert not env.decayed
    assert env.nondecay


def test_envelope_decay_tracks_exponential():
    sys = linear(0.04, -1.0, 0.0)
    env = fit_kl_envelope(sys, SUP, 2.0, 4, None, 16, family="polynomial",
                          order=0, h=0.004, horizon=1.5, grid_points=60)
    oracle = env.s_grid[:, None] * np.exp(-env.t_grid)[None, :]
    ratio = env.sigma / oracle
    # the segment sup lags the state by at most one delay window
    assert ratio.max() <= math.exp(0.04) + 1e-9
    assert ratio.min() >= 1.0 - 1e-9
    env.assert_kl_shape()


def test_envelope_start_column_covers_shell_radius():
    sys = linear(0.5, -1.0, 0.3)
    env = fit_kl_envelope(sys, SOB2, 1.5, 4, None, 8,
                          report_space=SpaceSpec.sup(), horizon=2.0,
                          h=0.02, grid_points=30)
    assert np.all(env.sigma[:, 0] >= env.s_grid - 1e-12)


def test_envelope_growth_sets_nondecay_flag():
    env = fit_kl_envelope(linear(1.0, 0.0, 1.0), SUP, 1.0, 2, None, 8,
                          horizon=5.0, h=0.04, grid_points=40)
    assert env.nondecay
    assert not env.decayed


def test_envelope_decayed_flag_on_long_horizon():
    env = fit_kl_envelope(linear(0.5, -1.0, 0.3), SUP, 1.5, 4, None, 8,
                          horizon=6.0, h=0.02, grid_points=40)
    assert env.decayed
    assert not env.nondecay


def test_envelope_grows_with_budget():
    sys = linear(0.5, -1.0, 0.3)
    kw = dict(horizon=3.0, h=0.02, grid_points=30)
    e8 = fit_kl_envelope(sys, SUP, 1.5, 4, None, 8, **kw)
    e16 = fit_kl_envelope(sys, SUP, 1.5, 4, None, 16, **kw)
    assert np.all(e16.sigma >= e8.sigma - 1e-15)


def test_envelope_short_budget_interpolates_inner_shells():
    env = fit_kl_envelope(linear(0.5, -1.0, 0.3), SUP, 1.5, 4, None, 2,
                          horizon=2.0, h=0.02, grid_points=30)
    assert env.interpolated.tolist() == [True, True, False, False]
    assert env.shell_counts.tolist() == [0, 0, 1, 1]
    # clamped fill: empty inner rows repeat the innermost sampled row
    assert np.allclose(env.sigma[0], env.sigma[1])


def test_envelope_escape_fills_infinities():
    quad = make_system("quadratic", r=1.0, params={"c": 1.0})
    env = fit_kl_envelope(quad, SUP, 2.0, 1, None, 1, family="polynomial",
                          order=0, seed=1, horizon=1.0, h=0.01,
                          grid_points=30)
    assert np.isinf(env.sigma).any()
    assert env.nondecay
    assert not env.decayed


def test_envelope_explicit_time_grid_is_respected():
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    env = fit_kl_envelope(linear(0.5, -1.0, 0.0), SUP, 1.0, 2, grid, 4,
                          h=0.02)
    assert np.array_equal(env.t_grid, grid)


def test_envelope_validation():
    sys = linear(0.5, -1.0, 0.0)
    with pytest.raises(ParameterError):
        fit_kl_envelope(sys, SUP, 0.0, 4, None, 8)
    with pytest.raises(ParameterError):
        fit_kl_envelope(sys, SUP, 1.0, 0, None, 8)
    with pytest.raises(ParameterError):
        fit_kl_envelope(sys, SUP, 1.0, 4, None, 0)


@pytest.mark.parametrize("t_grid", [[], [[0.0, 1.0]], [0.0, 2.0, 1.0],
                                    [0.0, 1.0, 1.0], [-0.5, 1.0],
                                    [0.0, math.nan], [0.0, math.inf]])
def test_bad_time_grid_is_rejected_before_integration(monkeypatch, t_grid):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before checking the time grid")

    monkeypatch.setattr(checkers, "simulate_many", no_integration)
    sys = linear(0.5, -1.0, 0.0)
    with pytest.raises(ParameterError, match="t_grid"):
        fit_kl_envelope(sys, SUP, 1.0, 2, t_grid, 4)
    with pytest.raises(ParameterError, match="t_grid"):
        check_envelope_lift(sys, SOB2, 1.0, 2, 4, t_grid=t_grid)


# -- pair propagation bounds ------------------------------------------


def test_pair_bounds_saturating_consistent():
    sat = make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5})
    rep = verify_pair_bounds(sat, SUP, 1.0, 2.0, 6, h=0.04, grid_points=12)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_sup_ratio"] < 1.0
    assert rep.margins["worst_full_ratio"] < 1.0


def test_pair_bounds_frozen_system_constants():
    zero = linear(0.5, 0.0, 0.0)
    rep = verify_pair_bounds(zero, SOB2, 1.0, 1.0, 4, h=0.02, grid_points=10)
    assert rep.verdict == "consistent"
    assert rep.margins["growth_factor"] == 1.0
    assert rep.margins["propagation_constant"] == pytest.approx(
        2.0 + math.sqrt(0.5), rel=1e-12)


def test_pair_bounds_catch_understated_modulus():
    def rhs(seg):
        return np.atleast_1d(seg.value_at_point(0.0))

    liar = DelaySystem(name="liar", dimension=1, delay_r=0.5, rhs=rhs,
                       lipschitz_modulus=lambda R: 0.0, params={})
    rep = verify_pair_bounds(liar, SUP, 1.0, 1.0, 2, family="polynomial",
                             order=0, h=0.02, grid_points=10)
    assert rep.verdict == "falsified"
    assert rep.witness is not None


def test_pair_bounds_overflowing_factors_are_vacuous():
    sat = make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5})
    rep = verify_pair_bounds(sat, SUP, 1.0, 500.0, 1, h=0.1)
    assert rep.verdict == "consistent"
    assert rep.margins["growth_factor"] == math.inf
    assert rep.margins["propagation_constant"] == math.inf
    assert rep.margins["worst_sup_ratio"] == 0.0
    assert rep.details["sigma0"] == math.inf


def test_grown_bound_saturates_without_nan():
    assert checkers._grown(0.0, 800.0) == 0.0
    assert checkers._grown(2.0, 800.0) == math.inf
    assert checkers._grown(2.0, math.inf) == math.inf
    assert checkers._grown(3.0, 1.0) == 3.0 * math.e


def test_pair_bounds_escape_is_falsified():
    quad = make_system("quadratic", r=1.0, params={"c": 1.0})
    rep = verify_pair_bounds(quad, SUP, 1.0, 1.5, 1, family="polynomial",
                             order=0, seed=0, h=0.01, grid_points=10)
    assert rep.verdict == "falsified"
    wit = rep.witness
    assert wit["norm"] == math.inf
    assert wit["time"] == rep.details["escape_time"]
    assert {wit["index"], wit["pair_index"]} == {0, 1}
    cfg = SamplerConfig.from_json_dict(wit["sampler"])
    again = simulate(quad, sample_one(cfg, wit["index"]), 1.5, 0.01)
    assert again.escaped and again.escape_time == wit["time"]


# -- norm tracks -------------------------------------------------------


def _fourier_runs(a, b, count, T, h):
    sys = linear(1.0, a, b)
    cfg = SamplerConfig(family="fourier", order=3, target_space=SUP,
                        target_norm=1.0, dimension=1, delay_r=1.0, seed=0,
                        n_nodes=65)
    x0s = [sample_one(cfg, i) for i in range(count)]
    for i, (x0, traj) in enumerate(zip(x0s, simulate_many(sys, x0s, T, h))):
        yield i, x0, traj


def test_sup_track_at_zero_is_the_sup_norm():
    """At t = 0 the sup track reads the same points as space_norm."""
    for _, x0, traj in _fourier_runs(-1.0, 0.3, 20, 0.5, 0.01):
        track = checkers._norm_read(SUP, np.array([0.0, 0.25]),
                                    65).track(traj)
        assert track[0] == space_norm(x0, SUP)


def test_sup_track_follows_the_segment_norm_inside_the_first_window():
    """For t in (0, r) the window max sees the refined history points."""
    grid = default_time_grid(2.0, 1.0, 200)
    inner = grid[(grid > 0.0) & (grid < 1.0)]
    for _, _, traj in _fourier_runs(-1.0, 0.3, 20, 2.0, 0.01):
        track = checkers._norm_read(SUP, inner, 65).track(traj)
        full = [space_norm(segment_at(traj, float(t), n_nodes=65), SUP)
                for t in inner]
        assert np.all(track >= 0.95 * np.array(full))


VECTOR3 = make_system("linear_vector", r=0.7,
                      params={"A0": [[-1.0, 0.2, 0.0], [0.1, -2.0, 0.3],
                                     [0.0, 0.0, -0.5]],
                              "A1": [[0.1, 0.0, 0.2], [0.0, 0.3, 0.0],
                                     [0.2, 0.0, -0.1]]})


def _fourier_history(sys, n_nodes):
    cfg = SamplerConfig(family="fourier", order=3, target_space=SUP,
                        target_norm=1.0, dimension=sys.dimension,
                        delay_r=sys.delay_r, seed=2, n_nodes=n_nodes)
    return sample_one(cfg, 0)


QUAD_RISING = make_system("quadratic", r=1.0, params={"c": 1.0})
# (system, history, horizon): a 3-dimensional system, a quadratic history
# that escapes at about t = 0.5 (the grid runs to 3), and n_nodes 257,
# whose refined grid of 2049 samples exceeds the Hoelder cap
TRACK_CASES = [
    (linear(1.0, -1.0, 0.3), _fourier_history(linear(1.0, -1.0, 0.3), 65)),
    (VECTOR3, _fourier_history(VECTOR3, 65)),
    (QUAD_RISING, Segment.from_callable(1.0, lambda s: 2.0 + 0.3 * s * s,
                                        lambda s: 0.6 * s, 33)),
    (linear(1.0, -1.0, 0.3), _fourier_history(linear(1.0, -1.0, 0.3), 257)),
]


def _composed_norm(seg, space):
    if space.kind == "sobolev":
        return sup_norm(seg) + lp_deriv_norm(seg, space.p)
    return max(sup_norm(seg), hoelder_seminorm(seg, space.a))


@pytest.mark.parametrize("space", [SpaceSpec.hoelder(0.5),
                                   SpaceSpec.hoelder(1.0), SOB2,
                                   SpaceSpec.sobolev(math.inf)],
                         ids=lambda sp: sp.label)
def test_norm_track_is_the_per_segment_norm_bitwise(monkeypatch, space):
    """The stacked track equals space_norm(segment_at(traj, t)) in every
    bit, for any number of times a chunk, and is +inf past the end."""
    grid = np.linspace(0.0, 3.0, 13)
    for sys, x0 in TRACK_CASES:
        traj = simulate(sys, x0, 2.5, 0.01)
        assert traj.escaped == (sys is QUAD_RISING)
        past = grid > traj.end_time
        assert past.any() and not past[:2].any()
        segs = [segment_at(traj, float(t), n_nodes=x0.n_nodes)
                for t in grid[~past]]
        want = np.array([space_norm(seg, space) for seg in segs]
                        + [math.inf] * past.sum())
        # the same norms composed from the per-segment seminorms
        assert want[:len(segs)].tobytes() == np.array(
            [_composed_norm(seg, space) for seg in segs]).tobytes()
        for chunk_bytes, chunk in ((1, 1), (10**12, grid.size)):
            monkeypatch.setattr(dde, "BLOCK_BYTES", chunk_bytes)
            assert min(dde._segment_chunk(x0.n_nodes, sys.dimension),
                       grid.size) == chunk
            track = checkers._norm_read(space, grid,
                                        x0.n_nodes).track(traj)
            assert track.tobytes() == want.tobytes()


def _per_time_window_max(traj, times, lam):
    """The oracle of _track with lam: one pair of searchsorted calls and
    one slice max per report time, over the same candidate set."""
    r = traj.system.delay_r
    out = np.full(len(times), np.inf)
    s, vals, _ = traj.initial.refined()
    u = np.concatenate([s, traj.forward_times[1:]])
    g = np.exp(lam * u) * np.concatenate(
        [np.sqrt(np.einsum("ij,ij->i", vals, vals)),
         np.sqrt(np.einsum("ij,ij->i", traj.forward_values[1:],
                           traj.forward_values[1:]))])
    for k in range(checkers._covered(traj, times)):
        t = times[k]
        lo = np.searchsorted(u, t - r - 1e-15 * r, side="left")
        hi = np.searchsorted(u, t + 1e-15 * max(r, abs(t)), side="right")
        out[k] = math.exp(-lam * t) * float(g[lo:hi].max())
    return out


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.5])
def test_window_max_track_is_the_per_time_max_bitwise(lam):
    """All report windows of a weighted sup track in one reduceat give
    the per-time slice maxima in every bit: on grids that start at t = 0,
    on report times that are mesh nodes (the window's ends then sit on
    candidates), past the end and past an escape (+inf), and in three
    dimensions."""
    for sys, x0 in TRACK_CASES[:3]:
        traj = simulate(sys, x0, 2.5, 0.01)
        grid = np.linspace(0.0, 3.0, 41)
        # times past the horizon, and for the quadratic history, which
        # escapes at about t = 0.5, past the escape
        assert traj.escaped == (sys is QUAD_RISING)
        assert checkers._covered(traj, grid) < grid.size
        for times in (grid, traj.forward_times[::7],
                      default_time_grid(2.5, sys.delay_r, 60),
                      [0.0], [0.0, 0.5 * sys.delay_r, sys.delay_r]):
            want = _per_time_window_max(traj, times, lam)
            got = checkers._track(traj, times, x0.n_nodes, None, lam)
            assert got.tobytes() == want.tobytes()
    # r = 0.04 and times an ulp below mesh nodes past t = r: the node
    # just after t falls inside the window's relative end tolerance
    short = linear(0.04, -1.0, 0.0)
    x0 = _fourier_history(short, 65)
    traj = simulate(short, x0, 1.5, 0.0004)
    times = np.nextafter(traj.forward_times[150::97], -np.inf)
    want = _per_time_window_max(traj, times, lam)
    assert want.tobytes() == checkers._track(traj, times, 65, None,
                                             lam).tobytes()


def test_weighted_track_stays_finite_along_a_long_horizon():
    """x' = -x/10 from the constant 1 gives x(u) = e^(-u/10).  The weighted
    sup of x_t with lam = 1 is e^(-t/10), at s = 0, and with lam = -1 it
    is e^(1.1 - t/10), at s = -1.  Far along the horizon e^(lam u) alone
    overflows (lam = 1, t > 709) or its product with |x(u)| underflows
    (lam = -1, t near 700), where the weighted sup is about 1e-30."""
    sys = linear(1.0, -0.1, 0.0)
    traj = simulate(sys, Segment.constant(1.0, 1.0, 65), 800.0, 0.1)
    times = np.array([5.0, 690.0, 700.0, 707.0, 708.5, 720.0, 750.0, 799.0])
    for lam, peak in ((1.0, 0.0), (-1.0, 1.0)):
        got = checkers._track(traj, times, 65, None, lam)
        want = np.exp(lam * -peak - 0.1 * (times - peak))
        assert np.allclose(got, want, rtol=1e-7, atol=0.0), lam


# -- lifted envelope domination ---------------------------------------


def test_envelope_lift_dominates_full_norm_trajectories():
    sys = linear(1.0, -1.0, 0.3)
    rep = check_envelope_lift(sys, SOB2, 1.5, 4, 16, horizon=8.0, h=0.02,
                              grid_points=50)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_ratio"] < 1.0
    assert rep.details["decayed"]


def test_envelope_lift_integrates_each_sample_once(monkeypatch):
    histories = []

    def counting_simulate_many(sys, x0s, *args, **kwargs):
        histories.extend(x0s)
        return simulate_many(sys, x0s, *args, **kwargs)

    monkeypatch.setattr(checkers, "simulate_many", counting_simulate_many)
    rep = check_envelope_lift(linear(1.0, -1.0, 0.3), SOB2, 1.5, 4, 8,
                              horizon=4.0, h=0.05, grid_points=30)
    assert rep.verdict == "consistent"
    assert rep.margins["trajectories_checked"] == 8
    assert len(histories) == 8


def test_dini_ladders_and_ls_probes_run_in_blocks(monkeypatch):
    calls, serial = [], []

    def counting_simulate_many(sys, x0s, T, h=None, **kwargs):
        calls.append((T, len(x0s)))
        return simulate_many(sys, x0s, T, h, **kwargs)

    def counting_simulate(*args, **kwargs):
        serial.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(checkers, "simulate_many", counting_simulate_many)
    monkeypatch.setattr(lyapunov, "simulate", counting_simulate)
    sys = linear(1.0, -1.0, 0.0)
    hs = lyapunov._dini_steps(1.0)
    # a ladder's whole horizon of dense output and its read of V at hs
    ladder_bytes = 16 * (round(hs[0] / (hs[-1] / 2.0)) + 1) + 8 * hs.size
    monkeypatch.setattr(dde, "BLOCK_BYTES", 3 * ladder_bytes)
    assert dde._block_members(sys, float(hs[0]), hs[-1] / 2.0,
                              8 * hs.size) == 3
    rep = check_pointwise_dissipation(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(math.exp(-1.0)),
        MonotoneGridFn.linear(1.0), scaled_abs_rate(math.exp(-1.0)), SUP, 7,
        integral_trajectories=2, seed=0)
    assert rep.verdict == "consistent"
    assert [n for T, n in calls if T == hs[0]] == [3, 3, 1]
    assert serial == []
    calls.clear()
    # a probe member's 41 rows of dense output and its norm track
    held = checkers._norm_read(SUP, default_time_grid(2.0, 1.0, 10),
                               65).held(41)
    monkeypatch.setattr(dde, "BLOCK_BYTES", 2 * (16 * 41 + held))
    block = dde._block_members(sys, 2.0, 0.05, held)
    assert block == 2
    check_ls(linear(1.0, -1.0, 0.3), SUP, [0.5], 5, horizon=2.0,
             bisection_steps=3, h=0.05, grid_points=10)
    assert calls and max(n for _, n in calls) <= block


def test_blocks_keep_their_reads_within_block_bytes(monkeypatch):
    """A block's windows of dense output and the tracks that its members'
    reads keep until it ends fit BLOCK_BYTES together: the node stacks of
    the pair bounds and the rates on every row of the dissipation
    integral shrink the block, and what a run keeps is what its block
    counted."""
    blocks, kept = [], []
    ensemble = checkers._ensemble

    def recording(sys, x0s, T, h=None, **kwargs):
        blocks.append((len(x0s), kwargs["held"],
                       16 * sys.dimension * dde._window_rows(
                           sys, T, h, len(x0s), kwargs["held"])))
        return simulate_many(sys, x0s, T, h, **kwargs)

    def spying(*args, **kwargs):
        for run in ensemble(*args, **kwargs):
            kept.append(sum(track.nbytes for track in run.tracks))
            yield run

    monkeypatch.setattr(checkers, "simulate_many", recording)
    monkeypatch.setattr(checkers, "_ensemble", spying)
    monkeypatch.setattr(lyapunov, "_ensemble", spying)
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    rep = verify_pair_bounds(sys, SOB2, 1.0, 2.0, 60, seed=0)
    assert rep.verdict == "consistent"
    # 65 node values and slopes at each of 40 grid times
    assert set(kept) == {size for _, size, _ in blocks} == {2 * 65 * 8 * 40}
    checks = [blocks[:], kept[:]]
    blocks.clear()
    kept.clear()
    rep = check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(math.exp(-1.0)), MonotoneGridFn.linear(1.0),
        scaled_abs_rate(math.exp(-1.0)), SUP, 4, integral_trajectories=60,
        T=3.0, h=0.002)
    assert rep.verdict == "consistent"
    # the integral pass: V at its checkpoints and Q on 1501 rows
    held = 8 * (lyapunov.DISSIPATION_CHECKPOINTS + 1501)
    assert kept[-60:] == [held] * 60 and blocks[-1][1] == held
    checks.append(blocks)
    for members, held, window in chain(checks[0], checks[2]):
        assert members * (window + held) <= dde.BLOCK_BYTES
    # the pair bounds ran in more than one block
    assert len(checks[0]) > 1


# -- composite experiment ---------------------------------------------


def test_composite_stable_system_is_consistent():
    sys = linear(1.0, -1.0, 0.3)
    rep = check_gas_vs_ugas(sys, SUP, [1.0], [0.2], 4, h=0.04,
                            grid_points=40, shells=4)
    assert rep.verdict == "consistent"
    assert rep.margins["coherent"] == 1.0
    assert rep.details["envelope_decayed"]


def test_composite_growth_is_falsified():
    rep = check_gas_vs_ugas(linear(1.0, 0.0, 1.0), SUP, [1.0], [0.2], 3,
                            h=0.04, grid_points=40, shells=3)
    assert rep.verdict == "falsified"
    assert rep.details["ls"] == "falsified"
    assert rep.witness is not None


def test_composite_frozen_system_fails_attractivity():
    rep = check_gas_vs_ugas(linear(0.5, 0.0, 0.0), SUP, [1.0], [0.2], 3,
                            family="polynomial", order=0, h=0.02,
                            grid_points=40, shells=3)
    assert rep.verdict == "falsified"
    assert rep.details["ga"] == ["falsified"]
    assert rep.details["envelope_nondecay"]
    assert rep.margins["coherent"] == 1.0


# -- block size --------------------------------------------------------


QUAD = make_system("quadratic", r=0.25, params={"c": 1.0})
VECTOR = make_system("linear_vector", r=0.25,
                     params={"A0": [[-1.0, 0.5], [0.2, -1.5]],
                             "A1": [[0.3, 0.1], [0.0, 0.4]]})
DISTRIBUTED = make_system("distributed_linear", r=0.25,
                          params={"A0": [[-2.0, 0.3], [0.1, -1.0]],
                                  "K": [[[0.5, 0.1], [0.0, 0.2]],
                                        [[0.3, 0.0], [0.1, 0.1]]]})
# (system, ball radius, horizon, step): 6, 6 and 5.5 delay intervals of
# 25, 11 and 11 steps, the last with a short final step.  At radius 3
# about half of the quadratic histories blow up, each at its own time,
# most of them inside a chunk.
ENSEMBLES = [(QUAD, 3.0, 1.51, 0.01), (VECTOR, 1.0, 1.5, 0.25 / 11),
             (DISTRIBUTED, 1.0, 1.375, 0.25 / 11)]


def _reads(sys, T):
    """Reads of every kind an ensemble takes: window maxima, unweighted
    and weighted, stacked Sobolev norms, Q on every row, and the rows
    themselves.  The times run past the horizon and fall on delay
    multiples, where chunks end."""
    r = sys.delay_r
    grid = np.unique(np.concatenate([np.linspace(0.0, T + 0.2, 37),
                                     r * np.arange(1, 7)]))
    return [checkers._norm_read(SUP, grid, 33),
            checkers._Read(grid, 33, None, 1.0),
            checkers._norm_read(SOB2, grid, 33),
            checkers._Read(None, None,
                           lyapunov._row_rates(scaled_abs_rate(2.0))),
            checkers._Read(None, None, lambda rows: rows.copy(),
                           width=sys.dimension)]


def _member_bytes(sys, T, h):
    """A member's smallest window of dense output plus what _reads keep."""
    total, smallest = dde._row_counts(sys, T, h)
    return 16 * sys.dimension * smallest \
        + sum(read.held(total) for read in _reads(sys, T))


def _settings(unit):
    """BLOCK_BYTES that give 11 histories of unit bytes each, read by a
    caller that reads every one, in turn one block of one chunk; one
    block whose chunks are one delay interval each (after a first chunk
    of two); blocks of 8 and 3 members, whose windows hold one and
    several delay intervals; and blocks of one member."""
    return [10**12, 11 * unit, 8 * unit, 1]


def _cfg(sys, rho):
    return SamplerConfig(family="fourier", order=2, target_space=SUP,
                         target_norm=rho, dimension=sys.dimension,
                         delay_r=sys.delay_r, seed=1, n_nodes=33)


def _ensemble_runs(monkeypatch, sys, rho, T, h, every):
    """Escapes and track bytes of an ensemble of 11, and its blocks: the
    members and window rows of each."""
    blocks = []

    def recording(sys, x0s, T, h=None, **kwargs):
        blocks.append((len(x0s), dde._window_rows(sys, T, h, len(x0s),
                                                  kwargs["held"])))
        return simulate_many(sys, x0s, T, h, **kwargs)

    monkeypatch.setattr(checkers, "simulate_many", recording)
    runs = [(run.escaped, run.escape_time, _bits(run.tracks))
            for run in checkers._ensemble(
                sys, checkers._samples(_cfg(sys, rho), 11), T, h,
                _reads(sys, T), every)]
    monkeypatch.setattr(checkers, "simulate_many", simulate_many)
    return runs, blocks


def _reports():
    """The envelope and reports of the ensemble-driven checkers."""
    env = fit_kl_envelope(QUAD, SUP, 3.0, 3, None, 9, seed=1, h=0.01,
                          horizon=1.5, grid_points=20)
    reports = [
        check_uga(VECTOR, SUP, 0.1, 1.0, 5, horizon=4.0, h=0.02,
                  grid_points=20),
        check_uga(VECTOR, SUP, 0.2, 1.0, 5, horizon=4.0, h=0.02,
                  grid_points=20),
        check_ls(QUAD, SUP, [0.5], 12, horizon=2.0, bisection_steps=4,
                 h=0.02, grid_points=20, seed=1),
        verify_pair_bounds(QUAD, SUP, 3.0, 1.5, 4, seed=1, h=0.01,
                           grid_points=10),
        verify_pair_bounds(DISTRIBUTED, SUP, 1.0, 1.0, 3, h=0.02,
                           grid_points=10),
        verify_pair_bounds(DISTRIBUTED, SOB2, 1.0, 1.0, 3, h=0.02,
                           grid_points=10),
        check_pointwise_dissipation(
            linear(0.25, -1.0, 0.0), weighted_sup(1.0),
            MonotoneGridFn.linear(math.exp(-1.0)), MonotoneGridFn.linear(1.0),
            scaled_abs_rate(math.exp(-1.0)), SUP, 4, integral_trajectories=9,
            T=1.0, h=0.01)]
    return env, [rep.to_json_dict() for rep in reports]


def _bits(tracks):
    return [np.asarray(t).tobytes() for t in tracks]


def test_results_do_not_depend_on_block_size(monkeypatch):
    """Escapes and tracks are byte-identical whether an ensemble runs as
    one block of one chunk, as one block of chunks of one delay interval,
    in several blocks, or a member at a time, and whether its caller
    reads every history or may stop early; each is that of the member's
    whole trajectory integrated alone, whose rows the row read returns.
    Reports and envelopes are byte-identical under the same settings."""
    escapes = set()
    for sys, rho, T, h in ENSEMBLES:
        total, smallest = dde._row_counts(sys, T, h)
        held = sum(read.held(total) for read in _reads(sys, T))
        serial = []
        for i in range(11):
            traj = simulate(sys, sample_one(_cfg(sys, rho), i), T, h)
            tracks = [read.evaluate(traj.forward_values)
                      if read.times is None else read.track(traj)
                      for read in _reads(sys, T)]
            assert tracks[-1].tobytes() == traj.forward_values.tobytes()
            serial.append((traj.escaped, traj.escape_time, _bits(tracks)))
        escapes |= {e for escaped, e, _ in serial if escaped}
        settings = _settings(_member_bytes(sys, T, h))
        for setting in settings:
            monkeypatch.setattr(dde, "BLOCK_BYTES", setting)
            for every in (True, False):
                runs, blocks = _ensemble_runs(monkeypatch, sys, rho, T, h,
                                              every)
                assert runs == serial
                sizes = [size for size, _ in blocks]
                rows = [window for _, window in blocks]
                assert sum(sizes) == 11
                if not every:
                    # a caller that may stop early: a first block of
                    # whole horizons, one chunk if one fits, then the
                    # wide blocks
                    first = dde._block_members(sys, T, h, held, whole=True)
                    fits = 16 * sys.dimension * total + held <= setting
                    assert sizes[0] == min(first, 11)
                    assert rows[0] == total or not fits
                    continue
                if setting == settings[0]:
                    assert sizes == [11] and rows == [total]
                elif setting == settings[1]:
                    assert sizes == [11] and rows == [smallest]
                elif setting == settings[2]:
                    assert sizes == [8, 3] \
                        and rows[0] == smallest < rows[1] <= total
                else:
                    assert sizes == [1] * 11 and rows == [smallest] * 11
    assert len(escapes) >= 3
    # some escape inside a chunk, away from the delay multiples
    assert any(0.1 < (e / QUAD.delay_r) % 1.0 < 0.9 for e in escapes)
    results = []
    for setting in _settings(_member_bytes(QUAD, 1.51, 0.01)):
        monkeypatch.setattr(dde, "BLOCK_BYTES", setting)
        results.append(_reports())
    env, reports = results[0]
    assert [rep["verdict"] for rep in reports] == [
        "inconclusive", "consistent", "consistent", "falsified",
        "consistent", "consistent", "consistent"]
    for other_env, other_reports in results[1:]:
        assert other_reports == reports
        assert other_env.to_json_dict() == env.to_json_dict()
        assert other_env.sigma.tobytes() == env.sigma.tobytes()
