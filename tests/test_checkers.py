"""Tests for the empirical stability checkers and envelope machinery."""

import hashlib
import io
import json
import math
from dataclasses import replace
from itertools import chain, islice
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaystab import checkers, dde, lyapunov, segment
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


def test_time_grid_ends_exactly_at_the_horizon():
    """The composite's one pass integrates to the horizon and serves the
    envelope, which integrates to its last report time: the two agree."""
    rng = np.random.default_rng(5)
    for horizon, r in rng.uniform(0.01, 30.0, size=(300, 2)):
        for points in (4, 7, 40, 200):
            assert default_time_grid(horizon, r, points)[-1] == horizon


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


@pytest.mark.parametrize("sys,probes", [
    (linear(0.5, -1.0, 0.0), [1e-6, 1, 2, 3, 1e-6, 1, 2, 3]),
    (linear(0.5, 10.0, 0.0), [1e-6, 1e-6])])
def test_ls_probes_the_lower_radius_then_once_a_bisection_step(
        monkeypatch, sys, probes):
    """Each eps probes the ball of radius 1e-6 eps, then, unless that one
    leaks, once a bisection step; the ball of radius 10 eps, which always
    leaks (sample 0 lies on its sphere, so its norm at t = 0 is 10 eps),
    is not probed."""
    radii = []
    ensemble_blocks = checkers._ensemble_blocks

    def counting(sys, x0s, *args, **kwargs):
        x0s = list(x0s)
        radii.append(space_norm(x0s[0], SUP))
        return ensemble_blocks(sys, x0s, *args, **kwargs)

    monkeypatch.setattr(checkers, "_ensemble_blocks", counting)
    eps_list = [0.5, 0.1]
    check_ls(sys, SUP, eps_list, 3, horizon=2.0, bisection_steps=3, h=0.02,
             grid_points=20)
    assert len(radii) == len(probes)
    # the lower probe is the first of its eps, and no probe is 10 eps
    firsts = [k for k, p in enumerate(probes) if p == 1e-6]
    for k, eps in zip(firsts, eps_list):
        assert radii[k] == pytest.approx(1e-6 * eps, rel=1e-12)
    assert not any(r == pytest.approx(10.0 * eps, rel=1e-9)
                   for r in radii for eps in eps_list)


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


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("check", [check_uga, check_ga])
def test_uga_and_ga_refuse_a_tolerance_outside_the_positive_reals(check,
                                                                  eps):
    # an infinite eps once gave a vacuous consistent report
    sys = linear(0.5, -1.0, 0.0)
    args = (eps, 1.0) if check is check_uga else (1.0, eps)
    with pytest.raises(ParameterError,
                       match=rf"positive and finite, got {eps}"):
        check(sys, SUP, *args, 1)


# The oracles of uga at a level and of ga on its last quarter: both
# checks as they read every report time exactly.


def _runs(blocks):
    """Each history of an ensemble's blocks, in their order, as (x0,
    escaped, escape time, its row of each read)."""
    for block in blocks:
        for m, x0 in enumerate(block.x0s):
            yield (x0, bool(block.escaped[m]), block.escape_times[m],
                   [track[m] for track in block.tracks])


def _exact_uga(sys, space, eps, rho, budget, *, horizon, h, seed,
               grid_points=200):
    r = sys.delay_r
    grid = default_time_grid(horizon, r, grid_points)
    cfg = checkers._ball_cfg(sys, space, rho, "fourier", 3, seed, 65)
    peak = np.zeros(grid.size)
    runs = _runs(checkers._ensemble_blocks(
        sys, checkers._samples(cfg, budget), horizon, h,
        [checkers._norm_read(space, grid, 65)]))
    for i, (x0, escaped, escape_time, (track,)) in enumerate(runs):
        if escaped:
            wit = checkers._witness(cfg, i, x0, escape_time, math.inf)
            return StabilityReport(
                "uga", space, "falsified", wit, {"eps": eps, "rho": rho},
                {"samples": budget}, {"escape_time": escape_time})
        peak = np.maximum(peak, track)
    suffix = np.maximum.accumulate(peak[::-1])[::-1]
    ok = np.nonzero(suffix <= eps * (1.0 + checkers._REL_TOL))[0]
    budgets = {"samples": budget}
    if ok.size == 0:
        return StabilityReport("uga", space, "inconclusive", None,
                               {"eps": eps, "rho": rho,
                                "residual": float(suffix[-1])},
                               budgets, {"horizon": horizon})
    return StabilityReport("uga", space, "consistent", None,
                           {"eps": eps, "rho": rho,
                            "settle_time": float(grid[int(ok[0])])},
                           budgets, {"horizon": horizon})


def _exact_ga(sys, space, rho, eps, budget, *, horizon, h, seed):
    r = sys.delay_r
    grid = default_time_grid(horizon, r, 200)
    cfg = checkers._ball_cfg(sys, space, rho, "fourier", 3, seed, 65)
    q = 3 * grid.size // 4
    worst_end = 0.0
    undecided = False
    runs = _runs(checkers._ensemble_blocks(
        sys, checkers._samples(cfg, budget), horizon, h,
        [checkers._norm_read(space, grid, 65)]))
    for i, (x0, _, _, (track,)) in enumerate(runs):
        tail = track[q:]
        worst_end = max(worst_end, float(track[-1]))
        if np.all(tail <= eps * (1.0 + checkers._REL_TOL)):
            continue
        plateau = float(tail.max())
        if (not math.isfinite(plateau)) or track[-1] >= 0.99 * plateau:
            wit = checkers._witness(cfg, i, x0, float(grid[-1]),
                                    float(track[-1]))
            return StabilityReport(
                "ga", space, "falsified", wit,
                {"residual_norm": float(track[-1]), "eps": eps},
                {"samples": budget}, {"horizon": horizon})
        undecided = True
    margins = {"worst_end_norm": worst_end, "eps": eps}
    if undecided:
        return StabilityReport("ga", space, "inconclusive", None, margins,
                               {"samples": budget},
                               {"horizon": horizon, "still_decreasing": True})
    return StabilityReport("ga", space, "consistent", None, margins,
                           {"samples": budget}, {"horizon": horizon})


# (system, rho, eps, uga verdict): settling; too slow for the horizon,
# smooth and oscillating (whose last Hoelder(0.5) norm is not reached
# by the sup norm and the lag-1 quotient, so a residual read at the
# level would fall short); and an escape from the ball
LEVEL_CASES = [
    (make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5}), 1.0,
     0.05, "consistent"),
    (linear(1.0, -0.2, 0.1), 1.0, 0.05, "inconclusive"),
    (linear(1.0, 0.0, -1.5), 1.0, 0.05, "inconclusive"),
    (make_system("quadratic", r=1.0, params={"c": 1.0}), 2.0, 0.05,
     "falsified"),
]
LEVEL_SPACES = [SpaceSpec.hoelder(0.5), SpaceSpec.hoelder(1.0), SOB2]


@pytest.mark.parametrize("space", LEVEL_SPACES, ids=lambda sp: sp.label)
@pytest.mark.parametrize("case", range(len(LEVEL_CASES)),
                         ids=["settling", "slow", "oscillating", "escape"])
def test_uga_at_its_level_and_ga_on_its_tail_report_as_exact_reads(
        monkeypatch, space, case):
    """uga reads its report times but the last at eps and ga reads only
    the last quarter; their reports are byte for byte those of the
    loops that read every time exactly, in every verdict, and in the
    Hoelder spaces the level leaves most lags unread."""
    sys, rho, eps, verdict = LEVEL_CASES[case]
    kw = {"horizon": 8.0, "h": 0.02, "seed": 3}
    work = []
    lag_maxima = segment._lag_maxima

    def counting(vals, k, width):
        work[-1] += vals.shape[0] * width
        return lag_maxima(vals, k, width)

    monkeypatch.setattr(segment, "_lag_maxima", counting)
    got = []
    for check in (_exact_uga, check_uga):
        work.append(0)
        got.append(json.dumps(check(sys, space, eps, rho, 4, **kw)
                              .to_json_dict()))
    assert got[1] == got[0]
    assert json.loads(got[0])["verdict"] == verdict
    if space.kind == "hoelder" and verdict != "falsified":
        assert work[1] < work[0] / 4
    ga = [json.dumps(check(sys, space, rho, eps, 4, **kw).to_json_dict())
          for check in (_exact_ga, check_ga)]
    assert ga[1] == ga[0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_uga_read_back_from_the_horizon_reports_as_exact_reads(data):
    """check_uga reads its level times back from the horizon and leaves
    unread what its suffix max cannot need; its report is byte for byte
    the one built from exact reads of every report time, whatever the
    system, space, ball, tolerance and memory budget."""
    sys, rho = data.draw(st.sampled_from([
        (make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5}), 1.0),
        (linear(1.0, -1.0, 0.3), 1.0),
        (linear(1.0, -0.2, 0.1), 1.0),
        (make_system("linear_vector", r=1.0,
                     params={"A0": [[-1.0, 0.2], [0.1, -1.5]],
                             "A1": [[0.3, 0.0], [0.1, 0.2]]}), 1.0),
        (make_system("quadratic", r=1.0, params={"c": 1.0}), 2.0)]))
    space = data.draw(st.sampled_from([SpaceSpec.hoelder(0.5), SOB2, SUP]))
    eps = data.draw(st.sampled_from([0.5, 0.05, 1e-3]))
    args = (sys, space, eps, rho, data.draw(st.integers(1, 8)))
    kw = {"horizon": data.draw(st.sampled_from([3.0, 8.0])), "h": 0.05,
          "seed": data.draw(st.integers(0, 9)), "grid_points": 40}
    want = json.dumps(_exact_uga(*args, **kw).to_json_dict())
    with mock.patch.object(dde, "BLOCK_BYTES", data.draw(
            st.sampled_from([1, 1 << 12, dde.BLOCK_BYTES]))):
        got = json.dumps(check_uga(*args, **kw).to_json_dict())
    assert got == want


def test_uga_hands_few_rows_to_the_level_norms(monkeypatch):
    """On the saturating Hoelder(0.5) ball of radius 1 at eps 0.05 (budget
    4, seed 0), check_uga hands _norms at most 350 rows at its level, of
    the 796 that a read of every time before the last takes."""
    rows = []
    norms = checkers._norms

    def counting(r, nodes, values, derivs, space, refine=8, level=None):
        if level is not None:
            rows.append(values.shape[0])
        return norms(r, nodes, values, derivs, space, refine, level)

    monkeypatch.setattr(checkers, "_norms", counting)
    sat = make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5})
    rep = check_uga(sat, SpaceSpec.hoelder(0.5), 0.05, 1.0, 4, seed=0)
    assert rep.verdict == "consistent"
    assert 0 < sum(rows) <= 350


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
    # a ladder runs to the first mesh node past hs[-3], the largest of the
    # three rungs its estimate reads
    step = dde._working_step(1.0, float(hs[0]), hs[-1] / 2.0)
    horizon = (math.floor(hs[-3] / step) + 1) * step
    # a ladder's whole horizon of dense output and its read of V at the
    # three rungs
    ladder_bytes = 16 * (round(horizon / step) + 1) + 8 * 3
    monkeypatch.setattr(dde, "BLOCK_BYTES", 3 * ladder_bytes)
    assert dde._block_members(sys, horizon, hs[-1] / 2.0, 8 * 3) == 3
    rep = check_pointwise_dissipation(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(math.exp(-1.0)),
        MonotoneGridFn.linear(1.0), scaled_abs_rate(math.exp(-1.0)), SUP, 7,
        integral_trajectories=2, seed=0)
    assert rep.verdict == "consistent"
    assert [n for T, n in calls if T == horizon] == [3, 3, 1]
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
    ensemble_blocks = checkers._ensemble_blocks

    def recording(sys, x0s, T, h=None, **kwargs):
        blocks.append((len(x0s), kwargs["held"],
                       16 * sys.dimension * dde._window_rows(
                           sys, T, h, len(x0s), kwargs["held"])))
        return simulate_many(sys, x0s, T, h, **kwargs)

    def spying(*args, **kwargs):
        for runs in ensemble_blocks(*args, **kwargs):
            kept.extend(sum(track.nbytes for track in tracks)
                        for _, _, _, tracks in _runs([runs]))
            yield runs

    monkeypatch.setattr(checkers, "simulate_many", recording)
    monkeypatch.setattr(checkers, "_ensemble_blocks", spying)
    monkeypatch.setattr(lyapunov, "_ensemble_blocks", spying)
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


def _separate_composite(sys, space, rho_list, eps_list, budget, *,
                        horizon=None, family="fourier", order=3, seed=0,
                        n_nodes=65, h=None, grid_points=200, shells=8):
    """The composite assembled from the public checkers, each integrating
    its own ball: check_ls, check_ga at each rho, check_rfc at the largest
    and fit_kl_envelope."""
    r = sys.delay_r
    h = r / 100.0 if h is None else h
    horizon = 20.0 * r if horizon is None else horizon
    kw = dict(family=family, order=order, seed=seed, n_nodes=n_nodes, h=h,
              grid_points=grid_points)
    ls = check_ls(sys, space, eps_list, budget, horizon=horizon, **kw)
    ga = [check_ga(sys, space, rho, min(eps_list), budget, horizon=horizon,
                   **kw) for rho in rho_list]
    rfc = check_rfc(sys, space, max(rho_list), horizon, budget, **kw)
    env = fit_kl_envelope(sys, space, max(rho_list), min(shells, budget),
                          None, budget, horizon=horizon, **kw)
    parts = {"ls": ls.verdict, "rfc": rfc.verdict,
             "ga": [g.verdict for g in ga],
             "envelope_decayed": env.decayed,
             "envelope_nondecay": env.nondecay}
    point_ok = all(rep.verdict == "consistent" for rep in [ls, rfc, *ga])
    margins = {"coherent": float((not point_ok) or env.decayed),
               **{f"ls_{k}": v for k, v in ls.margins.items()},
               "rfc_sup": rfc.margins["sup"]}
    budgets = {"samples": budget, "shells": min(shells, budget)}
    falsified = [rep for rep in [ls, rfc, *ga] if rep.verdict == "falsified"]
    if falsified:
        verdict, witness = "falsified", falsified[0].witness
    else:
        verdict = "consistent" if point_ok and env.decayed else "inconclusive"
        witness = None
    return StabilityReport("gas_vs_ugas", space, verdict, witness, margins,
                           budgets, parts)


QUAD = make_system("quadratic", r=0.25, params={"c": 1.0})
SATURATING = make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5})
COMPOSITES = {
    # (system, space, rho_list, eps_list, budget, options)
    "sup-consistent": (linear(1.0, -1.0, 0.3), SUP, [0.5, 1.0], [0.2], 4,
                       dict(h=0.1, grid_points=24, horizon=10.0, shells=4)),
    "sup-ls-falsified": (linear(1.0, 0.0, 1.0), SUP, [1.0], [0.2], 3,
                         dict(h=0.04, grid_points=40, shells=3)),
    "sup-ga-falsified": (linear(0.5, 0.0, 0.0), SUP, [1.0], [0.2], 3,
                         dict(family="polynomial", order=0, h=0.02,
                              grid_points=40, shells=3)),
    "sup-inconclusive": (linear(1.0, -0.3, 0.0), SUP, [0.5, 1.0], [0.05], 3,
                         dict(h=0.05, grid_points=30, horizon=6.0, shells=2)),
    "sup-rfc-falsified": (QUAD, SUP, [0.5, 3.0], [0.5], 6,
                          dict(h=0.01, grid_points=20, horizon=1.5,
                               shells=3)),
    "sobolev-ga-falsified": (QUAD, SOB2, [0.5, 3.0], [0.5], 6,
                             dict(h=0.01, grid_points=20, horizon=1.5,
                                  shells=3)),
    "hoelder-consistent": (SATURATING, SpaceSpec.hoelder(0.5), [0.5, 1.0],
                           [0.5], 3, dict(h=0.1, grid_points=16, horizon=6.0,
                                          shells=3)),
}
COMPOSITE_PARTS = {
    # the composite's verdict, then those of ls, rfc and ga at each rho
    "sup-consistent": ("consistent", "consistent", "consistent",
                       ["consistent"] * 2),
    "sup-ls-falsified": ("falsified", "falsified", "consistent",
                         ["falsified"]),
    "sup-ga-falsified": ("falsified", "consistent", "consistent",
                         ["falsified"]),
    "sup-inconclusive": ("inconclusive", "consistent", "consistent",
                         ["inconclusive"] * 2),
    "sup-rfc-falsified": ("falsified", "consistent", "falsified",
                          ["consistent", "falsified"]),
    "sobolev-ga-falsified": ("falsified", "consistent", "consistent",
                             ["consistent", "falsified"]),
    "hoelder-consistent": ("consistent", "consistent", "consistent",
                           ["consistent"] * 2),
}


@pytest.mark.parametrize("case", COMPOSITES)
def test_composite_is_its_checkers_run_one_after_another(case):
    """One shared pass gives byte for byte the report of the public
    checkers each integrating their own balls, witnesses included."""
    sys, space, rho_list, eps_list, budget, kw = COMPOSITES[case]
    rep = check_gas_vs_ugas(sys, space, rho_list, eps_list, budget, **kw)
    got = rep.to_json_dict()
    assert got == _separate_composite(sys, space, rho_list, eps_list, budget,
                                      **kw).to_json_dict()
    d = got["details"]
    assert (got["verdict"], d["ls"], d["rfc"], d["ga"]) == \
        COMPOSITE_PARTS[case]


def _entered_ensembles(monkeypatch):
    """The number of members of each _ensemble_blocks call made outside
    check_ls, filled in as the calls run."""
    outside, inside_ls = [], []
    ensemble, ls = checkers._ensemble_blocks, checkers.check_ls

    def counting(sys, x0s, *args, **kwargs):
        x0s = list(x0s)
        if not inside_ls:
            outside.append(len(x0s))
        return ensemble(sys, x0s, *args, **kwargs)

    def marked(*args, **kwargs):
        inside_ls.append(True)
        try:
            return ls(*args, **kwargs)
        finally:
            inside_ls.pop()

    monkeypatch.setattr(checkers, "_ensemble_blocks", counting)
    monkeypatch.setattr(checkers, "check_ls", marked)
    return outside


def test_composite_integrates_each_distinct_history_once(monkeypatch):
    """Past the ls probes the composite enters _ensemble_blocks once, with one
    member per distinct (sampler config, index): 4 histories at rho 0.5,
    4 at rho 1.0 that rfc shares, and one in each of 4 shells; with one
    sample and one shell, the shell's history is that of the rho 1.0
    ball."""
    outside = _entered_ensembles(monkeypatch)
    check_gas_vs_ugas(linear(1.0, -1.0, 0.3), SUP, [0.5, 1.0], [0.2], 4,
                      h=0.1, grid_points=24, horizon=4.0)
    assert outside == [12]
    outside.clear()
    check_gas_vs_ugas(linear(1.0, -1.0, 0.3), SUP, [0.5, 1.0], [0.2], 1,
                      h=0.1, grid_points=24, horizon=4.0)
    assert outside == [2]


@pytest.mark.parametrize("rho_list,shells,message", [
    ([0.5, -1.0], 8, "need positive rho and budget"),
    ([0.5, math.inf], 8, "target_norm must be positive and finite"),
    ([0.5, 1.0], 0, "need at least one shell")])
def test_composite_validates_before_integrating(monkeypatch, rho_list,
                                                shells, message):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return simulate_many(*args, **kwargs)

    monkeypatch.setattr(checkers, "simulate_many", counting)
    with pytest.raises(ParameterError, match=message):
        check_gas_vs_ugas(linear(1.0, -1.0, 0.3), SUP, rho_list, [0.2], 2,
                          shells=shells, h=0.1, grid_points=24, horizon=4.0)
    assert calls == []


def _rightmost_root(a, b, r):
    """a + W0(b r e^(-a r)) / r, the rightmost root of
    lam = a + b e^(-lam r) for b >= 0, W0 by Halley's iteration."""
    x = b * r * math.exp(-a * r)
    w = math.log1p(x)
    for _ in range(50):
        f = w * math.exp(w) - x
        w -= f / (math.exp(w) * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return a + w / r


@pytest.mark.parametrize("a,b", [(-1.0, 0.3), (-2.0, 0.5), (-1.0, 0.0),
                                 (0.0, 1.0), (0.5, 0.0), (-1.0, 1.5)])
def test_composite_verdict_agrees_with_the_characteristic_root(a, b):
    """x' = a x + b x(t - 1) is stable exactly when its rightmost
    characteristic root is negative: no stable system is falsified and
    no unstable one is consistent."""
    lam = _rightmost_root(a, b, 1.0)
    assert abs(lam - a - b * math.exp(-lam)) < 1e-12
    assert abs(lam) >= 0.1
    rep = check_gas_vs_ugas(linear(1.0, a, b), SUP, [0.5, 1.0], [0.1], 3,
                            h=0.05, grid_points=24, horizon=10.0, shells=3)
    assert rep.verdict != ("falsified" if lam < 0.0 else "consistent")


# -- block size --------------------------------------------------------


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
    runs = [(escaped, escape_time, _bits(tracks))
            for _, escaped, escape_time, tracks in _runs(
                checkers._ensemble_blocks(
                    sys, checkers._samples(_cfg(sys, rho), 11), T, h,
                    _reads(sys, T), every))]
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
            T=1.0, h=0.01),
        check_uga(VECTOR, SpaceSpec.hoelder(0.5), 0.1, 1.0, 5, horizon=4.0,
                  h=0.02, grid_points=20),
        check_ga(VECTOR, SpaceSpec.hoelder(0.5), 1.0, 0.05, 5, horizon=4.0,
                 h=0.02, grid_points=20),
        # the one pass that puts histories of two radii into one block
        check_gas_vs_ugas(QUAD, SUP, [1.0, 3.0], [0.5], 4, horizon=1.5,
                          h=0.01, grid_points=20, shells=2, seed=1)]
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
        "consistent", "consistent", "consistent", "consistent",
        "inconclusive", "falsified"]
    for other_env, other_reports in results[1:]:
        assert other_reports == reports
        assert other_env.to_json_dict() == env.to_json_dict()
        assert other_env.sigma.tobytes() == env.sigma.tobytes()


# -- block reads against the per-member reads ---------------------------
#
# The oracle is the per-member read loop that block pieces replaced: each
# member's rows of a piece read on their own, as a trajectory piece, by a
# reader of that member alone, through the per-member window max and
# segment reads.


class _MemberPiece(NamedTuple):
    """One member's rows of a block piece: a trajectory piece."""

    system: DelaySystem
    initial: Segment
    step_h: float
    forward_times: np.ndarray
    forward_values: np.ndarray
    forward_derivs: np.ndarray
    escape_time: float | None
    first_row: int
    final: bool

    @property
    def end_time(self):
        return float(self.forward_times[-1])


def _member_piece(piece, pos, x0s):
    return _MemberPiece(piece.system, x0s[piece.members[pos]], piece.step_h,
                        piece.forward_times, piece.forward_values[:, pos],
                        piece.forward_derivs[:, pos], piece.escape_time,
                        piece.first_row, piece.final)


def _member_nodes(traj, times, n_nodes):
    """Node values and slopes of x_t at each time, from one member."""
    r = traj.system.delay_r
    end = traj.end_time
    s = np.linspace(-r, 0.0, n_nodes)
    u = np.minimum(np.maximum(times, 0.0), end)[:, None] + s
    vals = np.empty(u.shape + (traj.system.dimension,))
    ders = np.empty_like(vals)
    hist = u <= 1e-14 * r
    if np.any(hist):
        q = np.clip(u[hist], -r, 0.0)
        vals[hist] = traj.initial.value_at(q)
        ders[hist] = traj.initial.deriv_at(q)
    fwd = ~hist
    if np.any(fwd):
        h = traj.step_h
        fv, fd = traj.forward_values, traj.forward_derivs
        n_full, tail = dde._mesh(end, h)
        q = np.minimum(u[fwd], end)
        j = np.minimum((q / h).astype(int), traj.first_row + fv.shape[0] - 2)
        width = np.where(j < n_full, h, tail)
        i = j - traj.first_row
        cell = (fv[i], fd[i], fv[i + 1], fd[i + 1],
                ((q - j * h) / width)[:, None], width[:, None])
        vals[fwd] = segment._hermite(*cell)
        ders[fwd] = segment._hermite_slope(*cell)
    return s, vals, ders


def _member_track(traj, times, seg_nodes, evaluate, lam=None):
    """The track of one member's piece, a chunk of times at a time."""
    r = traj.system.delay_r
    covered = checkers._covered(traj, times)
    t = np.asarray(times[:covered], dtype=float)
    if lam is None:
        size = dde._segment_chunk(seg_nodes, traj.system.dimension)
        parts = [evaluate(r, *_member_nodes(traj, t[lo:lo + size], seg_nodes))
                 for lo in range(0, t.size, size)]
        if not parts:
            return np.full(len(times), np.inf)
        got = np.concatenate(parts)
        out = np.full((len(times),) + got.shape[1:], np.inf)
        out[:covered] = got
        return out
    out = np.full(len(times), np.inf)
    ft, fv = traj.forward_times, np.ascontiguousarray(traj.forward_values)
    if traj.first_row == 0:
        x0 = traj.initial
        s, vals = segment._uniform_reads(
            x0.delay_r, x0.nodes, x0.values, x0.derivs,
            segment._refined_count(x0.n_nodes, segment.DEFAULT_REFINE),
            False)[:2]
        u = np.concatenate([s, ft[1:]])
        mags = np.concatenate([segment._euclid(vals),
                               segment._euclid(fv[1:])])
    else:
        u, mags = ft, segment._euclid(fv)
    lo = np.searchsorted(u, t - r - 1e-15 * r, side="left")
    hi = np.searchsorted(u, t + 1e-15 * np.maximum(r, np.abs(t)),
                         side="right")
    near = abs(lam) * np.maximum(t, r) < 708.0
    if np.any(near):
        top = int(hi[near].max())
        with np.errstate(over="ignore"):
            g = np.exp(lam * u[:top]) * mags[:top]
        peaks = np.maximum.reduceat(
            np.append(g, -np.inf),
            np.column_stack([lo[near], hi[near]]).ravel())[::2]
        got = np.array([math.exp(-lam * tk) * m for tk, m
                        in zip(t[near].tolist(), peaks.tolist())])
        out[:covered][near] = got
        if lam != 0.0:
            info = np.finfo(float)
            near[near] = ((info.tiny <= peaks) & (peaks <= info.max)
                          & (info.tiny <= got) & (got <= info.max))
    for k in np.flatnonzero(~near):
        w = slice(lo[k], hi[k])
        out[k] = (np.exp(lam * (u[w] - t[k])) * mags[w]).max()
    return out


class _MemberReader:
    """The reads of one member, taken from its own rows of each piece."""

    def __init__(self, reads):
        self.reads = reads
        self.done = [0] * len(reads)
        self.parts = [[] for _ in reads]
        self.tracks = [None] * len(reads)
        self.escape_time = None

    def __call__(self, piece):
        last = piece.first_row + piece.forward_times.size - 1
        for q, read in enumerate(self.reads):
            done = self.done[q]
            if read.times is None:
                self.parts[q].append(read.evaluate(
                    piece.forward_values[done - piece.first_row:]))
                self.done[q] = last + 1
                if piece.final:
                    self.tracks[q] = np.concatenate(self.parts[q])
                continue
            times = read.times
            stop = times.size if piece.final else done + int(np.count_nonzero(
                (times[done:] / piece.step_h).astype(int) < last))
            if stop == done:
                continue
            got = _member_track(piece, times[done:stop], read.seg_nodes,
                                read.evaluate, read.lam)
            if self.tracks[q] is None:
                self.tracks[q] = np.full((times.size,) + got.shape[1:],
                                         np.inf)
            self.tracks[q][done:stop] = got.reshape(
                got.shape + (1,) * (self.tracks[q].ndim - got.ndim))
            self.done[q] = stop
        if piece.final:
            self.escape_time = piece.escape_time
            for q, read in enumerate(self.reads):
                if self.tracks[q] is None:
                    self.tracks[q] = np.full(read.times.size, np.inf)


def _both_reads(sys, block, T, h, reads, held):
    """The block reader and the per-member readers of one block, fed the
    same pieces, the first rows of the pieces, and each piece's members
    and the span of the times of the last read that it read."""
    reader = checkers._Reader(reads, len(block))
    members = [_MemberReader(reads) for _ in block]
    firsts = set()
    spans = []

    def take(piece):
        firsts.add(piece.first_row)
        lo = reader.done[-1]
        reader(piece)
        spans.append((piece.members, lo, reads[-1].times.size
                      if piece.final else reader.done[-1]))
        for pos, b in enumerate(piece.members):
            members[b](_member_piece(piece, pos, block))

    simulate_many(sys, block, T, h, held=held, take=take)
    return reader, members, firsts, spans


def _oracle_ensemble(sys, x0s, T, h, reads, every=False):
    """checkers._ensemble_blocks of time reads with the per-member
    readers."""
    x0s = iter(x0s)
    held = sum(read.held(dde._row_counts(sys, T, h)[0]) for read in reads)
    wide = dde._block_members(sys, T, h, held)
    size = wide if every else dde._block_members(sys, T, h, held, whole=True)
    first = 0
    while block := list(islice(x0s, size)):
        members = _both_reads(sys, block, T, h, reads, held)[1]
        yield checkers._Runs(
            block, [got.escape_time for got in members], first,
            [np.array([got.tracks[q] for got in members])
             for q in range(len(reads))])
        first += len(block)
        size = wide


def _cliff(n):
    """x' = x(t - r/2) until a component of it reaches 2, then inf."""
    def rhs(seg):
        v = seg.value_at_point(-0.25)
        return np.where(np.abs(v) < 2.0, v, np.inf)

    return DelaySystem(f"cliff{n}", n, 0.5, rhs, lambda R: 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_block_reads_are_the_per_member_reads_bitwise(data):
    """Every read that a block takes of a piece for all its members at
    once is, for each member, its own read of its rows in every bit:
    window maxima (lam 0, 1 and 800, whose far windows weigh relative to
    their time), stacked Sobolev and Hoelder norms and node stacks, and
    row reads; whatever the blocks, the memory budget, the escapes and
    the window moves.  Hoelder reads at a level keep the level rule where
    they read: at most the level exactly when the norm is, else above it
    and at most the norm; and the suffix max of each piece's peak over
    its members compares with the level as that of the exact reads."""
    sys = data.draw(st.sampled_from([
        _cliff(1), _cliff(2), make_system("quadratic", 0.5, {"c": 1.0}),
        make_system("linear_vector", 0.5, {"A0": [[-1.0, 0.2], [0.1, -1.5]],
                                           "A1": [[0.3, 0.0], [0.1, 0.2]]}),
        make_system("saturating", 0.5, {"c": 1.0, "k": 0.5})]))
    count = data.draw(st.integers(1, 8))
    h = data.draw(st.sampled_from([0.025, 0.05]))
    T = data.draw(st.floats(0.3, 3.0))
    lam = data.draw(st.sampled_from([0.0, 1.0, 800.0]))
    level = data.draw(st.sampled_from([0.05, 0.5, 2.0]))
    cfg = SamplerConfig(family="fourier", order=3, target_space=SUP,
                        target_norm=1.0, dimension=sys.dimension,
                        delay_r=0.5, seed=data.draw(st.integers(0, 9)),
                        n_nodes=33)
    # the second of every three histories is large enough to overflow
    # e^(lam u)|x(u)| with lam 800 on a window that is near by its time,
    # at t = 0.884, alone, and it and the third escape where the system can
    x0s = [sample_one(replace(cfg, target_norm=(0.5, 1e6, 3.0)[i % 3]), i)
           for i in range(count)]
    cuts = sorted(set(data.draw(st.lists(st.integers(1, count),
                                         max_size=3))) | {count})
    grid = np.unique(np.concatenate([
        np.linspace(0.0, T + 0.2, data.draw(st.integers(2, 40))),
        0.5 * np.arange(1, 7), [0.884]]))
    hoelder = SpaceSpec.hoelder(0.5)
    reads = [checkers._Read(grid, 33, None, lam),
             checkers._norm_read(SOB2, grid, 33),
             checkers._norm_read(hoelder, grid, 33),
             checkers._Read(grid, 17, lambda r, s, v, d: np.stack((v, d), 1),
                            width=2 * 17 * sys.dimension),
             checkers._Read(None, None,
                            lyapunov._row_rates(scaled_abs_rate(2.0))),
             checkers._Read(None, None, lambda rows: rows.copy(),
                            width=sys.dimension),
             checkers._norm_read(hoelder, grid, 33, level)]
    held = sum(read.held(dde._row_counts(sys, T, h)[0]) for read in reads)
    budget = data.draw(st.sampled_from([1, 1 << 12, dde.BLOCK_BYTES]))
    with mock.patch.object(dde, "BLOCK_BYTES", budget):
        for a, b in zip([0] + cuts, cuts):
            reader, members, firsts, spans = _both_reads(
                sys, x0s[a:b], T, h, reads, held)
            if budget == 1 and T > 1.2 \
                    and any(m.escape_time is None for m in members):
                assert len(firsts) > 1  # the window moved
            tracks = reader.tracks()
            for pos, want in enumerate(members):
                assert reader.escape_times[pos] == want.escape_time
                got = [track[pos] for track in tracks]
                for x, y in zip(got[:-1], want.tracks[:-1], strict=True):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()
                exact, at_level = got[2], got[-1]
                below = exact <= level
                read = np.isfinite(at_level)
                assert np.array_equal((at_level <= level)[read], below[read])
                assert np.all(at_level[read & ~below] <= exact[read & ~below])
            for at, lo, hi in spans:
                # the suffix max of each piece's peak over its members
                exact, at_level = (np.maximum.accumulate(np.max(
                    [tracks[q][b][lo:hi] for b in at], axis=0)[::-1])
                    for q in (2, -1))
                assert np.array_equal(at_level <= level, exact <= level)


@pytest.mark.parametrize("budget", [1, 1 << 12, None])
def test_uga_reports_are_those_of_per_member_reads(monkeypatch, budget):
    """check_uga on a Hoelder ball, whose report times before the last are
    read at the level eps, reports the same bytes from block reads as
    from per-member reads, whether its ensemble stops at an escape or
    settles."""
    if budget is not None:
        monkeypatch.setattr(dde, "BLOCK_BYTES", budget)
    hoelder = SpaceSpec.hoelder(0.5)
    cases = [(VECTOR, 0.1, 1.0), (VECTOR, 1e-3, 1.0), (QUAD, 0.1, 5.0)]
    for sys, eps, rho in cases:
        args = (sys, hoelder, eps, rho, 6)
        kwargs = dict(horizon=2.0, h=0.025, grid_points=25)
        got = check_uga(*args, **kwargs).to_json_dict()
        with monkeypatch.context() as patched:
            patched.setattr(checkers, "_ensemble_blocks", _oracle_ensemble)
            want = check_uga(*args, **kwargs).to_json_dict()
        assert json.dumps(got) == json.dumps(want)


# exact stacked evaluations of segments, by name
GROUPED_EVALUATES = {
    "weighted_sup": lyapunov._stacked(lyapunov.weighted_sup(1.0)),
    "quadratic_integral": lyapunov._stacked(lyapunov.quadratic_integral(0.5)),
    "sobolev(p=2)": lambda r, s, v, d: segment._norms(r, s, v, d, SOB2),
    "hoelder(a=0.5)": lambda r, s, v, d: segment._norms(
        r, s, v, d, SpaceSpec.hoelder(0.5))}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_grouped_exact_reads_are_each_members_own_track_bitwise(data):
    """An exact stacked read takes the members of a piece together, as
    many (member, time) pairs a stack as dde._segment_chunk allows, and
    each row of its track is bitwise the member's own track on its whole
    simulate trajectory: for blocks of 1 to 40 members, 1 to 40 times
    (one stack of many members, of one member, and one member's times in
    chunks), the memory budget at 1 byte and at its default, the built-in
    functionals and the Sobolev and exact Hoelder norms, a member that
    escapes mid-block, and pieces whose covered times are empty."""
    evaluate = GROUPED_EVALUATES[data.draw(st.sampled_from(
        sorted(GROUPED_EVALUATES)))]
    sys = data.draw(st.sampled_from([
        _cliff(1), _cliff(2), make_system("saturating", 0.5,
                                          {"c": 1.0, "k": 0.5})]))
    members = data.draw(st.sampled_from([1, 3, 17, 40]))
    count = data.draw(st.sampled_from([1, 3, 31, 40]))
    T = data.draw(st.sampled_from([0.6, 1.7]))
    first = data.draw(st.sampled_from([0.0, 0.45 * T]))
    times = np.linspace(first, T + 0.2, count)
    escaping = data.draw(st.integers(-1, members - 1))
    cfg = SamplerConfig(family="fourier", order=3, target_space=SUP,
                        target_norm=1.0, dimension=sys.dimension,
                        delay_r=0.5, seed=data.draw(st.integers(0, 9)),
                        n_nodes=65)
    x0s = [sample_one(replace(cfg, target_norm=1e6 if b == escaping
                              else 0.5), b) for b in range(members)]
    read = checkers._Read(times, 65, evaluate)
    budget = data.draw(st.sampled_from([1, dde.BLOCK_BYTES]))
    stacks = []
    block_nodes = checkers._block_nodes

    def counting(piece, at, t, n_nodes):
        got = block_nodes(piece, at, t, n_nodes)
        stacks.append(got[1].shape[0] * got[1].shape[1])
        return got

    reader = checkers._Reader([read], members)

    def take(piece):
        reader(piece)
        if piece.final:  # a piece read past its end reads no time
            past = [piece.end_time + 0.1, piece.end_time + 1.0]
            assert np.all(checkers._block_track(
                piece, past, 65, evaluate) == np.inf)

    with mock.patch.object(dde, "BLOCK_BYTES", budget), \
            mock.patch.object(checkers, "_block_nodes", counting):
        simulate_many(sys, x0s, T, 0.025, held=read.held(1), take=take)
        size = dde._segment_chunk(65, sys.dimension)
    assert stacks and max(stacks) <= size
    if budget == 1:
        assert set(stacks) == {1}
    for b, x0 in enumerate(x0s):
        traj = simulate(sys, x0, T, 0.025)
        assert traj.escaped == (reader.escape_times[b] is not None)
        want = checkers._track(traj, times, 65, evaluate)
        got = reader.tracks()[0][b]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid_points", [200, 8])
def test_uga_reads_at_its_level_one_member_a_stack(monkeypatch, grid_points):
    """On the uga_hoelder benchmark workload's config, and on it with 8
    report times, whose level reads would fit a stack of several
    members, every stack read at the level holds one member's times, as
    Hoelder rows that prune differently would cost each other lag
    visits; only the exact read of the last report time takes the
    block's members together."""
    stacks = []

    def counting(piece, at, times, n_nodes):
        got = dde._block_nodes(piece, at, times, n_nodes)
        stacks.append((got[1].shape[0], times.size, float(times[-1])))
        return got

    monkeypatch.setattr(checkers, "_block_nodes", counting)
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    rep = check_uga(sys, SpaceSpec.hoelder(0.5), 0.05, 1.0, 4, seed=0,
                    grid_points=grid_points)
    assert rep.verdict == "consistent"
    horizon = rep.details["horizon"]
    last = [m for m, k, end in stacks if k == 1 and end == horizon]
    assert last == [4]
    assert len(stacks) > 1
    assert all(m == 1 for m, k, end in stacks if (k, end) != (1, horizon))


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_window_bounds_hold_above_resampled_norms(monkeypatch, a):
    """The bound a level track builds from a piece's own cells, before
    any resample, holds for every (member, time) it screens: its value
    and slope bounds are above the cell bounds of segment_at's node
    data, and its norm bound above the exact Hoelder norm of that
    segment.  The pieces include later ones (the window moves) and those
    of a member that escapes later; a member's piece past its escape
    screens nothing."""
    monkeypatch.setattr(dde, "BLOCK_BYTES", 1 << 12)
    space = SpaceSpec.hoelder(a)
    seen = []
    bound, track = checkers._hoelder_bound, checkers._block_track

    def recording(sv, sd, *rest):
        got = bound(sv, sd, *rest)
        seen[-1].append((sv, sd, got))
        return got

    def tracking(piece, times, *args):
        seen.append([piece.members, piece.first_row, piece.final,
                     np.array(times, dtype=float)])
        return track(piece, times, *args)

    monkeypatch.setattr(checkers, "_hoelder_bound", recording)
    monkeypatch.setattr(checkers, "_block_track", tracking)
    sys, T, h, seg_nodes = _cliff(2), 2.0, 0.025, 17
    cfg = SamplerConfig(family="fourier", order=3, target_space=SUP,
                        target_norm=1.0, dimension=2, delay_r=0.5, seed=3,
                        n_nodes=33)
    x0s = [sample_one(replace(cfg, target_norm=(0.3, 1.5)[b % 2]), b)
           for b in range(5)]
    trajs = [simulate(sys, x0, T, h) for x0 in x0s]
    escaped = {b for b, traj in enumerate(trajs) if traj.escaped}
    assert escaped and len(escaped) < 5
    read = checkers._norm_read(space, np.linspace(0.0, T, 41), seg_nodes, 0.5)
    simulate_many(sys, x0s, T, h, held=read.held(1),
                  take=checkers._Reader([read], len(x0s)))
    screened = [entry for entry in seen if len(entry) == 5]
    assert any(first > 0 for _, first, *_ in screened)
    assert any(set(members) & escaped for members, *_ in screened)
    # a member's escape piece reads past its end and screens nothing
    assert all(len(entry) == 4 for entry in seen
               if entry[2] and set(entry[0]) <= escaped)
    for members, _, _, times, (sv, sd, upper) in screened:
        for pos, b in enumerate(members):
            for k, t in enumerate(times.tolist()):
                seg = segment_at(trajs[b], t, seg_nodes)
                cv, cd = segment._cell_bounds(seg.values, seg.derivs,
                                              seg.spacing)
                assert cv.max() <= sv[pos, k] and cd.max() <= sd[pos, k]
                assert space_norm(seg, space) <= upper[pos, k]


def _unbounded(sv, *_):
    """A bound that settles nothing: every level read is swept."""
    return np.full(np.shape(sv), np.inf)


# (system, eps, rho, family, horizon): settled, inconclusive (a
# marginally stable system) and escaping balls
SCREEN_CASES = [
    (make_system("saturating", 0.5, {"c": 1.0, "k": 0.5}), 0.05, 1.0,
     "fourier", 6.0),
    (linear(0.5, -1.0, 0.3), 0.05, 1.0, "polynomial", 6.0),
    (make_system("linear_vector", 0.5,
                 {"A0": [[-1.0, 0.5], [0.2, -1.5]],
                  "A1": [[0.3, 0.1], [0.0, 0.4]]}), 0.05, 1.0,
     "piecewise_linear", 6.0),
    (linear(0.5, 0.0, 0.0), 0.1, 1.0, "fourier", 3.0),
    (_cliff(1), 0.1, 3.0, "fourier", 3.0),
]


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 3])
def test_uga_reports_are_those_of_unscreened_reads(monkeypatch, a, seed):
    """check_uga reports the same bytes whether its level reads screen
    times by bound or sweep every one (the bound forced to +inf): on
    saturating, linear_scalar and linear_vector balls of the three
    sample families, an inconclusive ball and one whose sample escapes.
    The screen leaves fewer times to resample."""
    space = SpaceSpec.hoelder(a)
    pairs = {True: 0, False: 0}
    block_nodes = checkers._block_nodes
    verdicts = set()
    for sys, eps, rho, family, horizon in SCREEN_CASES:
        args = (sys, space, eps, rho, 4)
        kwargs = dict(horizon=horizon, family=family, seed=seed, h=0.02,
                      grid_points=40)
        reports = {}
        for screen in (True, False):
            def resampling(piece, at, times, n_nodes, screen=screen):
                got = block_nodes(piece, at, times, n_nodes)
                pairs[screen] += got[1].shape[0] * got[1].shape[1]
                return got

            with monkeypatch.context() as patched:
                patched.setattr(checkers, "_block_nodes", resampling)
                if not screen:
                    patched.setattr(segment, "_hoelder_bound", _unbounded)
                    patched.setattr(checkers, "_hoelder_bound", _unbounded)
                reports[screen] = check_uga(*args, **kwargs).to_json_dict()
        assert json.dumps(reports[True]) == json.dumps(reports[False])
        verdicts.add(reports[True]["verdict"])
    assert verdicts == {"consistent", "inconclusive", "falsified"}
    assert pairs[True] < pairs[False]


def test_uga_hoelder_reads_only_what_no_bound_settles(monkeypatch):
    """On the uga_hoelder benchmark workload's config (seed 0), the
    screens leave at most 140 (member, time) pairs to resample and 70
    Hoelder rows to sweep at the level, of 339 and 335 unscreened; the
    counts are deterministic."""
    pairs, rows = [], []
    block_nodes, sweep = checkers._block_nodes, segment._hoelder_norms

    def resampling(piece, at, times, n_nodes):
        got = block_nodes(piece, at, times, n_nodes)
        pairs.append(got[1].shape[0] * got[1].shape[1])
        return got

    def sweeping(vals, a, r, floor, cap=math.inf):
        if cap < math.inf:
            rows.append(vals.shape[0])
        return sweep(vals, a, r, floor, cap)

    monkeypatch.setattr(checkers, "_block_nodes", resampling)
    monkeypatch.setattr(segment, "_hoelder_norms", sweeping)
    sys = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    args = (sys, SpaceSpec.hoelder(0.5), 0.05, 1.0, 4)
    report = check_uga(*args, seed=0).to_json_dict()
    assert sum(pairs) <= 140 and sum(rows) <= 70
    screened = sum(pairs), sum(rows)
    pairs.clear()
    rows.clear()
    monkeypatch.setattr(segment, "_hoelder_bound", _unbounded)
    monkeypatch.setattr(checkers, "_hoelder_bound", _unbounded)
    assert check_uga(*args, seed=0).to_json_dict() == report
    assert (sum(pairs), sum(rows)) == (339, 335) != screened


# -- judged reports keep their bytes ----------------------------------


def _echo(seg):
    return np.atleast_1d(seg.value_at_point(0.0))


# x' = x(t) and x' = 0.5 x(t) with understated Lipschitz moduli
LIAR = DelaySystem(name="liar", dimension=1, delay_r=0.5, rhs=_echo,
                   lipschitz_modulus=lambda R: 0.0, params={})
UNDERSTATED = replace(linear(1.0, 0.5, 0.0), lipschitz_modulus=lambda R: 0.4)
SATURATING = make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5})
# configs that reach each verdict of lags, uga, the pair bounds and the
# envelope lift; a falsifying sample or pair is a later one where it can be
JUDGED_CASES = {
    "lags_consistent": lambda: check_lags(
        linear(0.5, 0.0, 0.0), SUP, 1.25, 3, family="polynomial", order=0,
        h=0.02, grid_points=40),
    "lags_sobolev": lambda: check_lags(
        linear(1.0, -1.0, 0.3), SOB2, 1.0, 5, horizon=4.0, h=0.02,
        grid_points=30),
    "lags_still_growing": lambda: check_lags(
        linear(1.0, 0.0, 1.0), SUP, 1.0, 3, h=0.04, grid_points=40),
    "lags_escape": lambda: check_lags(
        QUAD, SUP, 2.0, 6, horizon=1.5, seed=0, h=0.01, grid_points=20),
    "uga_consistent": lambda: check_uga(
        make_system("saturating", r=0.5, params={"c": 1.0, "k": 0.5}), SUP,
        0.2, 1.0, 3, h=0.02, grid_points=60),
    "uga_hoelder": lambda: check_uga(
        linear(0.25, -1.0, 0.3), SpaceSpec.hoelder(0.5), 0.1, 1.0, 5,
        horizon=4.0, h=0.02, grid_points=20),
    "uga_inconclusive": lambda: check_uga(
        linear(0.5, 0.0, 0.0), SUP, 0.1, 1.0, 3, family="polynomial",
        order=0, h=0.02, grid_points=30),
    "uga_escape": lambda: check_uga(
        QUAD, SUP, 0.1, 2.0, 6, horizon=1.5, seed=0, h=0.01, grid_points=20),
    "pairs_consistent": lambda: verify_pair_bounds(
        SATURATING, SUP, 1.0, 2.0, 6, h=0.04, grid_points=12),
    "pairs_sobolev": lambda: verify_pair_bounds(
        SATURATING, SOB2, 1.0, 2.0, 6, h=0.04, grid_points=12),
    "pairs_overflowing_factors": lambda: verify_pair_bounds(
        SATURATING, SUP, 1.0, 500.0, 1, h=0.1),
    "pairs_bound_falsified": lambda: verify_pair_bounds(
        LIAR, SUP, 1.0, 1.0, 2, family="polynomial", order=0, h=0.02,
        grid_points=10),
    "pairs_bound_falsified_late": lambda: verify_pair_bounds(
        UNDERSTATED, SUP, 1.0, 2.0, 8, h=0.04, grid_points=12, seed=1),
    "pairs_escape": lambda: verify_pair_bounds(
        make_system("quadratic", r=1.0, params={"c": 1.0}), SUP, 1.0, 1.5,
        1, family="polynomial", order=0, seed=0, h=0.01, grid_points=10),
    "lift_consistent": lambda: check_envelope_lift(
        linear(1.0, -1.0, 0.3), SOB2, 1.5, 4, 16, horizon=8.0, h=0.02,
        grid_points=50),
    "lift_falsified": lambda: check_envelope_lift(
        linear(1.0, -200.0, 0.0), SOB2, 1.5, 4, 8,
        lipschitz_modulus=lambda R: 1.0, horizon=2.0, h=0.005,
        grid_points=30),
    # even the smallest probe radius, 1e-6 eps, leaks, so delta is 0
    "ls_smallest_probe_leaks": lambda: check_ls(
        linear(0.5, 10.0, 0.0), SUP, [0.5, 0.1], 3, horizon=2.0,
        bisection_steps=3, h=0.02, grid_points=20),
}
# (verdict, sha256 of the sorted report JSON), recorded when each of
# these checks judged its runs inline, a sample and a report time at a
# time; lift_consistent and pairs_bound_falsified_late when linear_scalar
# took the affine step
JUDGED_REPORTS = {
    "lags_consistent": (
        "consistent",
        "e980949fcb274161619a0d0d3a0738fb0003a49825864b4a7513203e9f78b780"),
    "lags_escape": (
        "falsified",
        "ca0ff445af28d4c11f4648e698ee25f53a1941e60a32a4ec3634306a2056da5e"),
    "lags_sobolev": (
        "consistent",
        "18031e2f175ada3dbd5edd932e07191639721adf20f6b6f2ce64df5837f953f1"),
    "lags_still_growing": (
        "inconclusive",
        "87c918105bd37c741bbc98233b9bc3cf11d6c4863d21a8fc6dddf7fd5a65fa20"),
    "lift_consistent": (
        "consistent",
        "9114eaa47d2f16865ef719d441efb32df1f5733e60547c8033204d031f28a8e9"),
    "lift_falsified": (
        "falsified",
        "351b8a22bd8a9fa43e2faae9a36452d3a9ece17f8b328ee9c13f363abeb17393"),
    "ls_smallest_probe_leaks": (
        "falsified",
        "21ccbb3d1bf4ca1f3492a4058b5b80935059028df0cd6ff747a75d47fc3c2b46"),
    "pairs_bound_falsified": (
        "falsified",
        "192d35d565b17544366f56fa2e8e22a909f7af092923ef20558d3e0967c40e86"),
    "pairs_bound_falsified_late": (
        "falsified",
        "08c72417d9d2455e24be8660cf94156d1d67533cac169c2115e297644e8bdcce"),
    "pairs_consistent": (
        "consistent",
        "e2a4dde1cbfb98434ecabcc4e9bcd0dfbe7bdea4c11bc4b231087120a38cc181"),
    "pairs_escape": (
        "falsified",
        "78031f34b19e3e860e62fa117c263c5f84850a9dbf42966157336cf383f58163"),
    "pairs_overflowing_factors": (
        "consistent",
        "7b3e33673dca4cff96b959fdc6d779d363284f9717c873798748d33296ca1c78"),
    "pairs_sobolev": (
        "consistent",
        "1f4941135066aef94d38f9d193e5a45a348ac0e87792c6e28d95283eb70b0f12"),
    "uga_consistent": (
        "consistent",
        "dabbb4ed84412d9cea8d5cb7cf086742375a837f88debb80d6ae1ef4cfb4f418"),
    "uga_escape": (
        "falsified",
        "1f00691cb6d145c8b2f370b83070c76ba9ba31b373b81e413a6ff83fb87bc81b"),
    "uga_hoelder": (
        "consistent",
        "4bf943311d853f25fb879182650206bcc59210e5af77551319856dfa2dbcb173"),
    "uga_inconclusive": (
        "inconclusive",
        "4e23c247e9440fd419e17b9a1d0b5f37fa24307afc5ae4da45b58131042a0af3"),
}


@pytest.mark.parametrize("case", sorted(JUDGED_CASES))
def test_judged_reports_keep_their_bytes(case):
    """Every verdict of lags, uga, the pair bounds and the envelope lift,
    and ls when its smallest probe leaks, keeps its report bytes:
    witnesses, escape times, settle times, residuals and worst-ratio
    margins."""
    rep = JUDGED_CASES[case]()
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert (rep.verdict, hashlib.sha256(text.encode()).hexdigest()) \
        == JUDGED_REPORTS[case]
