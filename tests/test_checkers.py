"""Tests for the empirical stability checkers and envelope machinery."""

import io
import math

import numpy as np
import pytest

from delaystab import checkers
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
from delaystab.dde import DelaySystem, make_system, simulate
from delaystab.sampler import SamplerConfig, sample_one
from delaystab.segment import ParameterError, Segment, SpaceSpec

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


# -- lifted envelope domination ---------------------------------------


def test_envelope_lift_dominates_full_norm_trajectories():
    sys = linear(1.0, -1.0, 0.3)
    rep = check_envelope_lift(sys, SOB2, 1.5, 4, 16, horizon=8.0, h=0.02,
                              grid_points=50)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_ratio"] < 1.0
    assert rep.details["decayed"]


def test_envelope_lift_integrates_each_sample_once(monkeypatch):
    calls = []

    def counting_simulate(*args, **kwargs):
        calls.append(args[1])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(checkers, "simulate", counting_simulate)
    rep = check_envelope_lift(linear(1.0, -1.0, 0.3), SOB2, 1.5, 4, 8,
                              horizon=4.0, h=0.05, grid_points=30)
    assert rep.verdict == "consistent"
    assert rep.margins["trajectories_checked"] == 8
    assert len(calls) == 8


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
