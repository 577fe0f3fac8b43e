"""Tests for energy functionals, Dini estimates, and certificate checks."""

import hashlib
import json
import math

import numpy as np
import pytest

from delaystab import SpaceSpec, checkers, dde, lyapunov, make_system, sampler
from delaystab.dde import _segment_nodes, segment_at, simulate, \
    simulate_many
from delaystab.sampler import SamplerConfig, sample_one
from delaystab.segment import ParameterError, Segment, _quadrature_weights, \
    prolong, space_norm
from delaystab.lyapunov import (
    DiniEstimate,
    EscapeError,
    Functional,
    MonotoneGridFn,
    check_exponential_certificate,
    check_growth_certificate,
    check_pointwise_dissipation,
    dini_derivative,
    functional_from_json_dict,
    functional_lipschitz_probe,
    grid_fn_from_json_dict,
    quadratic_integral,
    rate_from_json_dict,
    scaled_abs_rate,
    scaled_square_rate,
    space_norm_functional,
    weighted_sup,
)

SUP = SpaceSpec.sup()


def linear(r, a, b):
    return make_system("linear_scalar", r, {"a": a, "b": b})


def ball_cfg(family="fourier", order=3, r=1.0, seed=0, norm=1.0):
    return SamplerConfig(family=family, order=order, target_space=SUP,
                         target_norm=norm, dimension=1, delay_r=r,
                         seed=seed, n_nodes=65)


# -- monotone grid functions -------------------------------------------


def test_grid_fn_linear_and_extrapolation():
    f = MonotoneGridFn.linear(2.0)
    assert f(0.5) == pytest.approx(1.0)
    assert f(3.0) == pytest.approx(6.0)
    # extrapolation keeps the end slope instead of clamping
    assert f(-1.0) == pytest.approx(-2.0)


def test_grid_fn_scalar_reads_are_the_array_reads_bitwise():
    """A scalar argument is read as an array of one; its value is that of
    the array path in every bit, inside, at the nodes and on both
    extrapolation sides."""
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-2.0, 3.0, 7)) + 1e-3 * np.arange(7)
    ys = np.cumsum(rng.uniform(0.0, 2.0, 7))
    for f in (MonotoneGridFn(xs, ys), MonotoneGridFn.linear(0.7),
              MonotoneGridFn.linear(0.0)):
        probes = np.concatenate([
            f.xs, rng.uniform(f.xs[0], f.xs[-1], 50),
            f.xs[0] - rng.exponential(3.0, 20),
            f.xs[-1] + rng.exponential(3.0, 20), [1e300, -1e300]])
        want = f(probes)
        for v, w in zip(probes, want):
            for arg in (float(v), np.float64(v)):
                got = f(arg)
                assert type(got) is float
                assert np.float64(got).tobytes() == w.tobytes()
            assert np.float64(f(np.array(v))).tobytes() == w.tobytes()


def test_grid_fn_validation():
    with pytest.raises(ParameterError):
        MonotoneGridFn(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ParameterError):
        MonotoneGridFn(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        MonotoneGridFn.linear(-1.0)
    # flat pieces block inversion
    flat = MonotoneGridFn(np.array([0.0, 1.0, 2.0]),
                          np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ParameterError):
        flat.invert()


def test_grid_fn_inversion_roundtrip():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(-2.0, 3.0, 9))
    xs += 1e-3 * np.arange(9)
    ys = np.cumsum(rng.uniform(0.1, 2.0, 9))
    f = MonotoneGridFn(xs, ys)
    inv = f.invert()
    probes = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2,
                             [xs[0] - 1.0, xs[-1] + 1.5]])
    for s in probes:
        assert inv(f(s)) == pytest.approx(s, rel=1e-12, abs=1e-12)


def test_grid_fn_json():
    f = grid_fn_from_json_dict({"linear": 1.5})
    assert f(2.0) == pytest.approx(3.0)
    g = grid_fn_from_json_dict(f.to_json_dict())
    assert g(2.0) == pytest.approx(3.0)
    with pytest.raises(ParameterError):
        grid_fn_from_json_dict({"linear": 1.0, "xs": [0, 1]})


# -- functionals -------------------------------------------------------


def test_functionals_vanish_at_origin():
    z = Segment.zero(1.0, 1, 65)
    for V in (weighted_sup(1.0), quadratic_integral(0.5),
              space_norm_functional(SUP)):
        assert V.evaluate(z) == 0.0


def test_weighted_sup_homogeneous():
    x = sample_one(ball_cfg(), 2)
    V = weighted_sup(1.0)
    for c in (0.5, 2.0, 3.7):
        assert V.evaluate(x * c) == pytest.approx(c * V.evaluate(x),
                                                  rel=1e-12)


def test_quadratic_integral_scales_quadratically():
    x = sample_one(ball_cfg(), 2)
    V = quadratic_integral(0.5)
    for c in (0.5, 2.0, 3.7):
        assert V.evaluate(x * c) == pytest.approx(c * c * V.evaluate(x),
                                                  rel=1e-12)


def test_functional_json_round():
    V = functional_from_json_dict({"type": "weighted_sup", "lam": 1.0})
    x = sample_one(ball_cfg(), 0)
    assert V.evaluate(x) == pytest.approx(weighted_sup(1.0).evaluate(x))
    W = functional_from_json_dict({"type": "space_norm",
                                   "space": {"kind": "sup"}})
    assert W.evaluate(x) == pytest.approx(space_norm(x, SUP))
    with pytest.raises(ParameterError):
        functional_from_json_dict({"type": "weighted_sup"})
    for d in ({"type": "mystery", "lam": 1.0}, {"type": ["weighted_sup"]},
              {"type": "weighted_sup", "lam": 1.0, "mu": 1.0},
              {"type": "space_norm", "space": {"kind": "sup", "p": 2}}):
        with pytest.raises(ParameterError):
            functional_from_json_dict(d)


def test_rate_builders():
    Q = scaled_abs_rate(2.0)
    assert Q(np.array([-3.0])) == pytest.approx(6.0)
    Q2 = scaled_square_rate(0.5)
    assert Q2(np.array([3.0, 4.0])) == pytest.approx(12.5)
    with pytest.raises(ParameterError):
        scaled_abs_rate(0.0)
    Qj = rate_from_json_dict({"type": "scaled_abs", "c": 1.0})
    assert Qj(np.array([2.0])) == pytest.approx(2.0)
    for d in ({"type": "scaled_abs"}, {"type": "scaled_abs", "c": 1.0,
                                       "k": 1.0}, [1.0]):
        with pytest.raises(ParameterError):
            rate_from_json_dict(d)


@pytest.mark.parametrize("n", [1, 3])
def test_built_in_rates_of_stacked_rows_are_the_per_row_calls_bitwise(n):
    """A built-in rate reads all rows of a chunk at once, and each value
    is bitwise c * float(np.linalg.norm(v)), or its square, of the row
    alone, over magnitudes from subnormal squares to near overflow; a
    user-supplied rate is called once a row."""
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(4000, n)) * rng.choice(
        [1e-160, 1e-3, 1.0, 1e5, 1e150], size=(4000, 1))
    rows[:3] = np.array([0.0, -0.0, 2.0])[:, None]
    for c in (math.exp(-1.0), 3.0):
        for Q, want in (
                (scaled_abs_rate(c),
                 [c * float(np.linalg.norm(v)) for v in rows]),
                (scaled_square_rate(c),
                 [c * float(np.linalg.norm(v) ** 2) for v in rows])):
            got = lyapunov._row_rates(Q)(rows)
            assert _bits(got) == _bits(want)
            assert _bits(got[5:9]) == _bits([Q(v) for v in rows[5:9]])
    calls = []

    def custom(v):
        calls.append(v)
        return float(np.abs(v).sum())

    got = lyapunov._row_rates(custom)(rows[:7])
    assert len(calls) == 7 and _bits(got) == _bits(
        [float(np.abs(v).sum()) for v in rows[:7]])


def test_lipschitz_probe_bounds():
    # weighted sup is 1-Lipschitz against the plain sup norm
    C = functional_lipschitz_probe(weighted_sup(1.0), SUP, 1.0, 20, r=1.0,
                                   seed=3)
    assert C <= 1.0 + 1e-9
    # quadratic integral: |V(x)-V(y)| <= 2R(1+r) ||x-y|| on the R-ball
    Cq = functional_lipschitz_probe(quadratic_integral(0.0), SUP, 1.0, 20,
                                    r=1.0, seed=3)
    assert Cq <= 4.0


# -- Dini derivative ---------------------------------------------------


def test_dini_constant_history_decay():
    """x = c under pure decay: V(x_t) = e^(-t)|c|, so the quotient is -|c|."""
    sys = linear(1.0, -1.0, 0.0)
    V = weighted_sup(1.0)
    cfg = ball_cfg(family="polynomial", order=0)
    for i in range(3):
        x = sample_one(cfg, i)
        c = abs(float(x.values[-1][0]))
        d = dini_derivative(sys, V, x)
        assert d.estimate == pytest.approx(-c, rel=2e-2)
        assert not d.trend
        hs = [h for h, _ in d.quotients]
        assert len(hs) == 6 and hs[0] == pytest.approx(1e-2)


def test_dini_equilibrium_is_zero():
    sys = linear(1.0, -1.0, 0.0)
    d = dini_derivative(sys, weighted_sup(1.0), Segment.zero(1.0, 1, 65))
    assert d.estimate == 0.0


def test_dini_frozen_norm_on_constant_flow():
    # zero system keeps a constant history constant, so the norm never moves
    sys = linear(1.0, 0.0, 0.0)
    x = sample_one(ball_cfg(family="polynomial", order=0), 0)
    d = dini_derivative(sys, space_norm_functional(SUP), x)
    assert d.estimate == 0.0


def test_dini_escape_carries_time():
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    big = Segment.constant(1.0, np.array([300.0]), 65)
    with pytest.raises(EscapeError) as exc:
        dini_derivative(sys, weighted_sup(1.0), big)
    assert 0.0 < exc.value.escape_time < 1e-2


def test_dini_validation():
    with pytest.raises(ParameterError):
        DiniEstimate(((1e-2, 0.0), (1e-2, 0.0), (1e-3, 0.0)), 0.0, False)
    with pytest.raises(ParameterError):
        DiniEstimate(((1e-2, 0.0), (1e-3, 0.0), (1e-4, 0.0)), math.inf,
                     False)


# -- exponential certificate -------------------------------------------


def test_exponential_certificate_equality_on_constants():
    """Pure decay with the e^s-weighted sup: decay holds with equality."""
    sys = linear(1.0, -1.0, 0.0)
    rep = check_exponential_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(math.exp(-1.0)),
        MonotoneGridFn.linear(1.0), SUP, 5, 3.0,
        family="polynomial", order=0, seed=0)
    assert rep.verdict == "consistent"
    assert 1.0 - 1e-9 <= rep.margins["worst_decay_ratio"] <= 1.0 + 1e-6
    assert rep.margins["worst_envelope_ratio"] <= 1.0 + 1e-6


def test_exponential_certificate_fourier_consistent():
    sys = linear(1.0, -1.0, 0.0)
    rep = check_exponential_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(math.exp(-1.0)),
        MonotoneGridFn.linear(1.0), SUP, 5, 3.0, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_upper_ratio"] <= 1.0 + 1e-9


def test_exponential_certificate_scaled_breaks_upper():
    sys = linear(1.0, -1.0, 0.0)
    base = weighted_sup(1.0)
    doubled = Functional("doubled", lambda s: 2.0 * base.evaluate(s))
    rep = check_exponential_certificate(
        sys, doubled, MonotoneGridFn.linear(math.exp(-1.0)),
        MonotoneGridFn.linear(1.0), SUP, 5, 3.0, seed=0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "upper_sandwich"
    assert rep.witness["time"] == 0.0


def test_exponential_certificate_frozen_norm_fails_decay():
    # zero system: the norm is frozen, e^(-t)V < V at the first grid time
    sys = linear(1.0, 0.0, 0.0)
    idf = MonotoneGridFn.linear(1.0)
    rep = check_exponential_certificate(
        sys, space_norm_functional(SUP), idf, idf, SUP, 3, 2.0, seed=0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "decay"
    assert 0.0 < rep.witness["time"] <= 0.2


def test_exponential_certificate_escape():
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    idf = MonotoneGridFn.linear(1.0)
    rep = check_exponential_certificate(
        sys, space_norm_functional(SUP), idf, idf, SUP, 1, 1.0,
        family="polynomial", order=0, seed=1, rho=3.0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "escape"
    assert rep.witness["norm"] == math.inf


# -- pointwise dissipation ---------------------------------------------


def test_dissipation_consistent():
    """Pure decay dissipates at rate e^(-r)|x(0)| against the weighted sup."""
    sys = linear(1.0, -1.0, 0.0)
    idf = MonotoneGridFn.linear(1.0)
    rep = check_pointwise_dissipation(
        sys, weighted_sup(1.0), idf, idf, scaled_abs_rate(math.exp(-1.0)),
        SUP, 5, integral_trajectories=5, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_dini_excess"] < 0.0
    assert rep.margins["worst_integral_excess"] < 0.0


def test_dissipation_integral_exact_off_the_step_grid():
    """V(x_t) + integral of Q = V(x_0) holds with equality under pure decay.

    A horizon off the step grid ends on a short final step, which the
    quadrature must weight as such: the excess matches the on-grid one.
    """
    sys = linear(1.0, -1.0, 0.0)
    idf = MonotoneGridFn.linear(1.0)
    excess = []
    for T in (2.0, 2.005):
        rep = check_pointwise_dissipation(
            sys, weighted_sup(1.0), idf, idf, scaled_abs_rate(1.0), SUP, 1,
            integral_trajectories=3, T=T, family="polynomial", order=0,
            h=0.01, seed=0)
        assert rep.verdict == "consistent"
        excess.append(rep.margins["worst_integral_excess"])
    assert excess[1] == pytest.approx(excess[0], abs=1e-8)


def test_dissipation_unstable_falsified():
    sys = linear(1.0, 1.0, 0.0)
    idf = MonotoneGridFn.linear(1.0)
    rep = check_pointwise_dissipation(
        sys, weighted_sup(1.0), idf, idf, scaled_abs_rate(math.exp(-1.0)),
        SUP, 5, integral_trajectories=5, family="polynomial", order=0,
        seed=0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "dissipation"
    assert rep.witness is not None


def test_dissipation_sandwich_falsified():
    # a2 ten times too small cannot dominate V
    sys = linear(1.0, -1.0, 0.0)
    rep = check_pointwise_dissipation(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(0.1), scaled_abs_rate(1.0), SUP, 5,
        integral_trajectories=2, seed=0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "sandwich"


# -- growth certificate ------------------------------------------------


def test_growth_certificate_delay_feedback():
    """For dx = x(t-r), prolongation grows at most at rate e^r."""
    sys = linear(1.0, 0.0, 1.0)
    rep = check_growth_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(math.exp(-1.0)),
        math.e, 10, T=2.0, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_quotient_excess"] < 0.0
    assert rep.margins["worst_trajectory_ratio"] <= 1.0 + 1e-3


def test_growth_certificate_zero_system():
    # f = 0: prolongation never increases the sup
    sys = linear(1.0, 0.0, 0.0)
    rep = check_growth_certificate(
        sys, space_norm_functional(SUP), MonotoneGridFn.linear(1.0), 0.0, 5,
        seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_quotient_excess"] < 0.0
    assert rep.margins["worst_trajectory_ratio"] == pytest.approx(1.0,
                                                                  rel=1e-9)


def test_growth_certificate_unstable_falsified():
    sys = linear(1.0, 0.0, 1.0)
    rep = check_growth_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(math.exp(-1.0)), 0.0,
        5, family="polynomial", order=0, seed=0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "prolongation"
    assert rep.margins["quotient"] > 0.0


def test_growth_certificate_coercivity_falsified():
    # requiring U >= 10|x(0)| overshoots the weighted sup on constants
    sys = linear(1.0, 0.0, 0.0)
    rep = check_growth_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(10.0), 0.0, 5,
        family="polynomial", order=0, seed=0)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "coercivity"


def test_growth_certificate_overflowing_limit_is_vacuous():
    # e^(mu t) overflows for t > 0.24; the limit turns +inf instead of
    # raising, the decaying negative constants pass and sample 2 escapes
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    args = (sys, weighted_sup(1.0), MonotoneGridFn.linear(1.0), 3000.0)
    kw = dict(rho=3.0, T=1.0, family="polynomial", order=0, seed=2)
    rep = check_growth_certificate(*args, 2, **kw)
    assert rep.verdict == "consistent"
    assert 0.0 < rep.margins["worst_trajectory_ratio"] < 1e-40
    rep = check_growth_certificate(*args, 4, **kw)
    assert rep.verdict == "falsified"
    assert rep.details["failed"] == "escape"
    assert rep.witness["index"] == 2


@pytest.mark.parametrize("mu", [0.5, 5.0])
@pytest.mark.parametrize("T", [-1.0, 0.0])
def test_growth_certificate_rejects_its_horizon_before_sampling(
        monkeypatch, T, mu):
    """A horizon that is not positive is refused before any sample is
    drawn, whether or not the prolongation pass would have falsified."""
    drawn = _count_draws(monkeypatch)
    with pytest.raises(ParameterError, match="horizon"):
        check_growth_certificate(linear(1.0, 0.0, 1.0), weighted_sup(1.0),
                                 MonotoneGridFn.linear(math.exp(-1.0)), mu,
                                 3, T=T)
    assert drawn == []


# -- cross-checks and continuity ---------------------------------------


def test_certificate_decay_implies_dissipative_dini():
    """When the decay certificate passes, Dini estimates sit below -0.95 V."""
    sys = linear(1.0, -1.0, 0.0)
    V = weighted_sup(1.0)
    rep = check_exponential_certificate(
        sys, V, MonotoneGridFn.linear(math.exp(-1.0)),
        MonotoneGridFn.linear(1.0), SUP, 5, 3.0, seed=0)
    assert rep.verdict == "consistent"
    cfg = ball_cfg()
    for i in range(5):
        x = sample_one(cfg, i)
        d = dini_derivative(sys, V, x)
        assert d.estimate <= -V.evaluate(x) * (1.0 - 0.05)


def _kinked_segment(r=1.0, n_nodes=65):
    def f(s):
        return np.where(s >= -r / 2, s + r / 2, 0.0)[:, None]

    def df(s):
        return np.where(s >= -r / 2, 1.0, 0.0)[:, None]

    return Segment.from_callable(r, f, df, n_nodes)


def _norm_jumps(traj, space, npts, r):
    ts = np.linspace(0.0, 1.2 * r, npts)
    vs = [space_norm(segment_at(traj, float(t), n_nodes=65), space)
          for t in ts]
    return float(np.abs(np.diff(vs)).max())


def test_norm_track_continuity_ladder():
    """t -> ||x_t|| jumps vanish under refinement for p = 2 but not p = inf.

    Under the zero system the window slides over a slope jump; the
    derivative sup drops by the jump height the instant the steep part
    leaves, while the L2 derivative norm drains continuously.
    """
    r = 1.0
    sys = linear(r, 0.0, 0.0)
    traj = simulate(sys, _kinked_segment(r), 1.2 * r, r / 100)
    sob2 = SpaceSpec.sobolev(2.0)
    coarse2 = _norm_jumps(traj, sob2, 25, r)
    fine2 = _norm_jumps(traj, sob2, 193, r)
    assert fine2 < 0.5 * coarse2
    assert fine2 < 0.06
    sobinf = SpaceSpec.sobolev(math.inf)
    assert _norm_jumps(traj, sobinf, 25, r) >= 0.9
    assert _norm_jumps(traj, sobinf, 193, r) >= 0.9


# -- stacked evaluation --------------------------------------------------
#
# The per-segment code that the stacked functionals, the stacked Dini
# rungs and the stacked prolongation quotients replaced, kept as oracles.


def _old_weighted_sup(lam):
    def evaluate(seg):
        s, vals, _ = seg.refined()
        return float((np.exp(lam * s)
                      * np.sqrt(np.einsum("ij,ij->i", vals, vals))).max())
    return evaluate


def _old_quadratic_integral(mu):
    def evaluate(seg):
        s, vals, _ = seg.refined()
        sq = np.einsum("ij,ij->i", vals, vals)
        w = _quadrature_weights(s.size, s[1] - s[0])
        return float(sq[-1]) + float(w @ (np.exp(mu * s) * sq))
    return evaluate


def _old_evaluate(V):
    """The per-segment evaluation of a built-in functional before stacks."""
    if V.kind == "weighted_sup":
        return _old_weighted_sup(V.param)
    if V.kind == "quadratic_integral":
        return _old_quadratic_integral(V.param)
    return lambda seg: space_norm(seg, V.param)


def _old_read_dini(V, x, traj):
    """One validated Segment and one evaluation per rung."""
    r = traj.system.delay_r
    hs = lyapunov._dini_steps(r)
    v0 = V.evaluate(x)
    s, vals, ders = _segment_nodes(traj, hs, x.n_nodes)
    quotients = []
    for hk, v, d in zip(hs, vals, ders):
        seg = Segment(r, s, v, d)
        quotients.append((float(hk), (V.evaluate(seg) - v0) / float(hk)))
    tail = [q for _, q in quotients[-3:]]
    q_prev, q_last = quotients[-2][1], quotients[-1][1]
    scale = max(abs(q_prev), abs(q_last), 1e-9 * (1.0 + v0))
    return DiniEstimate(quotients=tuple(quotients),
                        estimate=float(max(tail)),
                        trend=bool(abs(q_last - q_prev) > 0.1 * scale))


def _old_prolonged_weighted_sup(x, f, h, lam):
    s, vals, _ = x.refined()
    r = x.delay_r
    keep = s >= -r + h - 1e-15 * r
    cand = -math.inf
    if np.any(keep):
        cand = float((np.exp(lam * (s[keep] - h))
                      * np.sqrt(np.einsum("ij,ij->i", vals[keep],
                                          vals[keep]))).max())
    ss = np.linspace(-h, 0.0, 17)
    tail = x.values[-1][None, :] + (ss + h)[:, None] * f[None, :]
    cand_tail = float((np.exp(lam * ss)
                       * np.sqrt(np.einsum("ij,ij->i", tail, tail))).max())
    return max(cand, cand_tail)


def _old_growth_quotient(U, x, f, h):
    """One rung, U(x) evaluated afresh."""
    lam = lyapunov._weighted_kind(U)
    up = U.evaluate(prolong(x, f, h)) if lam is None \
        else _old_prolonged_weighted_sup(x, f, h, lam)
    return (up - U.evaluate(x)) / h


BUILT_IN = [weighted_sup(-0.5), weighted_sup(0.0), weighted_sup(1.0),
            quadratic_integral(0.5), quadratic_integral(-1.0),
            space_norm_functional(SUP),
            space_norm_functional(SpaceSpec.sobolev(2.0)),
            space_norm_functional(SpaceSpec.hoelder(0.5))]
VECTOR2_PARAMS = {"A0": [[-1.0, 0.2], [0.1, -0.8]],
                  "A1": [[0.1, 0.0], [0.2, -0.1]]}
VECTOR2 = make_system("linear_vector", 0.7, VECTOR2_PARAMS)


def _histories(n, count, r=0.7, family="fourier", order=3):
    cfg = SamplerConfig(family=family, order=order, target_space=SUP,
                        target_norm=1.0, dimension=n, delay_r=r, seed=5,
                        n_nodes=65)
    return [sample_one(cfg, i) for i in range(count)]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("V", BUILT_IN, ids=lambda V: V.name)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("K", [1, 7])
def test_stacked_functional_is_the_single_evaluation_bitwise(V, n, K):
    """A stack of K segments gives, row by row, the per-segment value of
    the code it replaced, and evaluate is its batch of one."""
    xs = _histories(n, K)
    stack = lyapunov._stacked(V)(
        xs[0].delay_r, xs[0].nodes, np.stack([x.values for x in xs]),
        np.stack([x.derivs for x in xs]))
    assert stack.shape == (K,)
    assert _bits(stack) == _bits([_old_evaluate(V)(x) for x in xs])
    assert _bits(stack) == _bits([V.evaluate(x) for x in xs])


def test_custom_functional_is_read_one_segment_at_a_time():
    calls = []
    base = weighted_sup(1.0)

    def doubled(seg):
        calls.append(seg)
        return 2.0 * base.evaluate(seg)

    xs = _histories(2, 3)
    V = Functional("doubled", doubled)
    stack = lyapunov._stacked(V)(
        xs[0].delay_r, xs[0].nodes, np.stack([x.values for x in xs]),
        np.stack([x.derivs for x in xs]))
    assert len(calls) == 3 and all(isinstance(c, Segment) for c in calls)
    assert _bits(stack) == _bits([2.0 * base.evaluate(x) for x in xs])


DOUBLED = Functional("doubled", lambda s: 2.0 * weighted_sup(1.0).evaluate(s))


def test_dini_rungs_as_one_stack_are_the_per_rung_ladder_bitwise():
    hs = lyapunov._dini_steps(0.7)
    for sys, n in ((linear(0.7, -1.0, 0.3), 1), (VECTOR2, 2)):
        for x in _histories(n, 3) + _histories(n, 2, family="polynomial",
                                                order=2):
            ladder = simulate(sys, x, float(hs[0]), hs[-1] / 2.0)
            for V in BUILT_IN + [DOUBLED]:
                assert repr(dini_derivative(sys, V, x)) \
                    == repr(_old_read_dini(V, x, ladder)), V.name


@pytest.mark.parametrize("U", BUILT_IN + [DOUBLED], ids=lambda U: U.name)
def test_growth_quotients_of_all_rungs_are_the_per_rung_quotients(U):
    """All rungs of a stack of samples in one call, from the known U(x0),
    give the old one-rung quotients of each sample in every bit, alone
    or in the stack: weighted sups through the shared prolongation grid,
    the other functionals on stacked prolongations."""
    hs = lyapunov._dini_steps(0.7)
    for sys, n in ((linear(0.7, 0.0, 1.0), 1), (VECTOR2, 2)):
        xs = _histories(n, 3) + _histories(n, 2, family="polynomial",
                                           order=0)
        fs = np.array([np.asarray(sys.rhs(x), dtype=float) for x in xs])
        want = [[_old_growth_quotient(U, x, f, float(h)) for h in hs]
                for x, f in zip(xs, fs)]
        for lo, hi in [(k, k + 1) for k in range(len(xs))] + [(0, len(xs))]:
            got = lyapunov._growth_quotients(
                U, xs[lo:hi], [U.evaluate(x) for x in xs[lo:hi]],
                fs[lo:hi], hs)
            assert [_bits(q) for q in got] == [_bits(w)
                                               for w in want[lo:hi]]


@pytest.mark.parametrize("V", BUILT_IN + [DOUBLED], ids=lambda V: V.name)
def test_functional_track_is_the_per_time_evaluation_bitwise(monkeypatch,
                                                              V):
    """A functional track reads chunks of report times as stacks; with one
    time a chunk or all of them, each value is the old per-segment
    evaluation of segment_at(traj, t), and +inf past an escape."""
    grid = np.concatenate([np.linspace(0.0, 0.7, 9),
                           np.linspace(0.8, 3.0, 23)])
    cases = [(linear(0.7, -1.0, 0.3), _histories(1, 1)[0], 2.5),
             (VECTOR2, _histories(2, 1)[0], 2.5),
             (make_system("quadratic", 0.7, {"c": 1.0}),
              Segment.constant(0.7, np.array([2.0]), 65), 2.5)]
    evaluate = V.evaluate if V is DOUBLED else _old_evaluate(V)
    for sys, x0, T in cases:
        traj = simulate(sys, x0, T, 0.007)
        covered = grid[:checkers._covered(traj, grid)]
        assert 0 < covered.size < grid.size  # past the end: +inf
        want = [evaluate(segment_at(traj, float(t), n_nodes=65))
                for t in covered] + [math.inf] * (grid.size - covered.size)
        lam = lyapunov._weighted_kind(V)
        # one time a chunk, 5 (2 for n = 2), and all of them
        for chunk_bytes in (1, 5 * 64 * 513, 10**12):
            monkeypatch.setattr(dde, "BLOCK_BYTES", chunk_bytes)
            got = lyapunov._functional_read(V, grid, 65).track(traj)
            if lam is None:
                assert _bits(got) == _bits(want)
            else:  # the window max reads the shared candidate set
                assert _bits(got) == _bits(
                    checkers._track(traj, grid, 65, None, lam))


def test_quadratic_certificate_equals_the_per_time_oracle(monkeypatch):
    """check_exponential_certificate with a quadratic_integral V takes the
    stacked track of _track without lam; its report is the one built
    with the old per-time segment_at loop."""
    sys = linear(1.0, -1.0, 0.0)
    args = (sys, quadratic_integral(2.0), MonotoneGridFn.linear(1e-3),
            MonotoneGridFn.linear(2.0), SUP, 4, 3.0)
    got = check_exponential_certificate(*args, seed=0, grid_points=30)
    assert got.verdict == "consistent"
    assert got.margins["worst_decay_ratio"] > 0.9

    calls = []

    def per_time(V, times, n_nodes):
        # the old evaluation of each x_t as its own Segment, read off the
        # stacked nodes, each bitwise segment_at(traj, t)
        def evaluate(r, s, vals, ders):
            calls.append(len(vals))
            return np.array([_old_quadratic_integral(V.param)(
                Segment(r, s, v, d)) for v, d in zip(vals, ders)])
        return checkers._Read(times, n_nodes, evaluate)

    monkeypatch.setattr(lyapunov, "_functional_read", per_time)
    want = check_exponential_certificate(*args, seed=0, grid_points=30)
    assert sum(calls) == 4 * 29
    assert got.to_json_dict() == want.to_json_dict()


def _count_draws(monkeypatch):
    """Record the sample draws of the checks by index: every draw is a
    sampler.sample_many stack of dde._sample_stacks, the one place the
    checks draw from."""
    drawn = []
    real = sampler.sample_many

    def counting(cfg, indices):
        drawn.extend(indices)
        return real(cfg, indices)

    monkeypatch.setattr(dde, "sample_many", counting)
    return drawn


E_INV = math.exp(-1.0)
# the reports of the four checks below, as they were when every pass drew
# its own samples
GROWTH_BELOW = {
    "property": "growth_certificate", "space": {"kind": "sup"},
    "verdict": "consistent", "witness": None,
    "margins": {"worst_quotient_excess": -0.23273397838968862,
                "worst_trajectory_ratio": 0.742355144447584},
    "sample_budget": {"samples": 6, "trajectories": 3},
    "details": {"mu": 2.718281828459045, "T": 2.0}}
GROWTH_EQUAL = {
    "property": "growth_certificate", "space": {"kind": "sup"},
    "verdict": "consistent", "witness": None,
    "margins": {"worst_quotient_excess": -1.946439092497215,
                "worst_trajectory_ratio": 0.678191233505411},
    "sample_budget": {"samples": 4, "trajectories": 4},
    "details": {"mu": 2.718281828459045, "T": 2.0}}
DISSIPATION_BELOW = {
    "property": "pointwise_dissipation", "space": {"kind": "sup"},
    "verdict": "consistent", "witness": None,
    "margins": {"worst_dini_excess": -0.05744034166467685,
                "worst_integral_excess": -0.09664931716120263},
    "sample_budget": {"samples": 5, "integral_trajectories": 2},
    "details": {"T": 2.0}}
DISSIPATION_ABOVE = {
    "property": "pointwise_dissipation", "space": {"kind": "sup"},
    "verdict": "consistent", "witness": None,
    "margins": {"worst_dini_excess": -0.24663861652856958,
                "worst_integral_excess": -0.021440838195619427},
    "sample_budget": {"samples": 3, "integral_trajectories": 5},
    "details": {"T": 2.0}}


def test_growth_check_draws_each_sample_once(monkeypatch):
    drawn = _count_draws(monkeypatch)
    sys = linear(1.0, 0.0, 1.0)
    rep = check_growth_certificate(
        sys, weighted_sup(1.0), MonotoneGridFn.linear(E_INV), math.e, 6,
        traj_check=3, T=2.0, seed=0)
    assert drawn == list(range(6))
    assert rep.to_json_dict() == GROWTH_BELOW
    drawn.clear()
    rep = check_growth_certificate(
        sys, space_norm_functional(SUP), MonotoneGridFn.linear(1.0), math.e,
        4, traj_check=4, T=2.0, seed=0)
    assert drawn == list(range(4))
    assert rep.to_json_dict() == GROWTH_EQUAL


def test_dissipation_check_draws_each_sample_once(monkeypatch):
    drawn = _count_draws(monkeypatch)
    sys = linear(1.0, -1.0, 0.0)
    args = (sys, weighted_sup(1.0), MonotoneGridFn.linear(E_INV),
            MonotoneGridFn.linear(1.0), scaled_abs_rate(E_INV), SUP)
    rep = check_pointwise_dissipation(*args, 5, integral_trajectories=2,
                                      seed=0)
    assert drawn == list(range(5))
    assert rep.to_json_dict() == DISSIPATION_BELOW
    drawn.clear()
    rep = check_pointwise_dissipation(*args, 3, integral_trajectories=5,
                                      seed=0)
    assert drawn == list(range(5))
    assert rep.to_json_dict() == DISSIPATION_ABOVE


def test_checks_that_stop_early_draw_one_stack_past_their_witness(
        monkeypatch):
    """A check that falsifies at its first sample has drawn only that
    sample's stack, not its whole budget, and its witness is the
    sample of its index."""
    drawn = _count_draws(monkeypatch)
    stack = len(next(dde._sample_stacks(ball_cfg(), range(40))))
    assert 1 < stack < 40
    drawn.clear()
    # coercivity fails at every sample: a(|x(0)|) is far above U(x)
    rep = check_growth_certificate(
        linear(1.0, 0.0, 1.0), weighted_sup(1.0), MonotoneGridFn.linear(1e6),
        math.e, 40, T=2.0, seed=0)
    assert (rep.verdict, rep.details["failed"]) == ("falsified",
                                                    "coercivity")
    assert rep.witness["index"] == 0
    assert drawn == list(range(stack))
    assert rep.witness["segment"] == sample_one(ball_cfg(), 0).to_json_dict()


# -- the dissipation check's short Dini ladders --------------------------

# the systems of the sweep below, each built at delay r, with parameters
# drawn from rng where they vary
LADDER_SYSTEMS = {
    "linear_scalar": lambda r, rng: linear(r, rng.uniform(-1.5, 1.0),
                                           rng.uniform(0.1, 1.0)),
    "distributed_linear": lambda r, rng: make_system(
        "distributed_linear", r, {"A0": [[-2.0]], "K": [[[0.5]], [[0.3]]]}),
    "linear_vector": lambda r, rng: make_system("linear_vector", r,
                                                VECTOR2_PARAMS),
}


def _off_mesh(r):
    """Whether the solver step of a Dini ladder at delay r leaves the rung
    hs[-3] off its mesh nodes, so that a ladder ending on that rung would
    end in a short step."""
    hs = lyapunov._dini_steps(r)
    q = hs[-3] / dde._working_step(r, float(hs[0]), hs[-1] / 2.0)
    return abs(q - round(q)) > 1e-6


@pytest.mark.parametrize("name", sorted(LADDER_SYSTEMS))
def test_dissipation_estimate_is_dini_derivative_bitwise(name):
    """The dissipation check integrates each Dini ladder only to the first
    mesh node past the largest rung its estimate reads; the estimate is
    dini_derivative's in every bit.  50 seeded delays in [0.01, 10] a
    system, 150 in all, each with its own sampled history, for every
    built-in functional and a per-segment one.  20 of the 50 leave that
    rung off the mesh nodes (about 1 delay in 100 does), where a ladder
    that ended on the rung would read it in a short last step; a ladder
    that ended on it elsewhere could still read it in a capped cell.

    A rate that no estimate meets puts the estimate of the check's one
    sample in its report.  dini_derivative's ladders come from one
    integration of its whole ladder a delay, with every functional's rung
    read (its own _ensemble_blocks call, one read for each functional), which
    is checked against dini_derivative itself at the first delay."""
    rng = np.random.default_rng(sorted(LADDER_SYSTEMS).index(name))
    pool = rng.uniform(0.01, 10.0, 5000).tolist()
    delays = [r for r in pool if _off_mesh(r)][:20] + pool[:30]
    assert len(delays) == 50
    Vs = BUILT_IN + [DOUBLED]
    for k, r in enumerate(delays):
        sys = LADDER_SYSTEMS[name](r, rng)
        x = sample_one(SamplerConfig(
            family="fourier", order=3, target_space=SUP, target_norm=1.0,
            dimension=sys.dimension, delay_r=r, seed=k, n_nodes=65), 0)
        hs = lyapunov._dini_steps(r)
        (run,) = checkers._ensemble_blocks(
            sys, [x], float(hs[0]), hs[-1] / 2.0,
            [lyapunov._dini_read(V, hs, 65) for V in Vs])
        assert not run.escaped[0]
        for V, vs in zip(Vs, (track[0] for track in run.tracks)):
            want = lyapunov._dini_ladder(r, V.evaluate(x), vs)
            if k == 0:
                assert repr(dini_derivative(sys, V, x)) == repr(want)
            rep = check_pointwise_dissipation(
                sys, V, MonotoneGridFn.linear(0.0),
                MonotoneGridFn.linear(1e12), lambda v: 1e300, SUP, 1,
                seed=k)
            assert rep.details["failed"] == "dissipation"
            assert rep.witness["segment"] == x.to_json_dict()
            assert _bits(rep.margins["dini_estimate"]) \
                == _bits(want.estimate), (r, V.name)


def test_dissipation_ladders_run_as_one_block_of_33_steps(monkeypatch):
    """On the dissipation config of the certificates benchmark workload
    the 40 ladders are one simulate_many call of 40 members over 33
    steps, to the first mesh node past the rung hs[-3], where
    dini_derivative's ladder is 2048 steps; the rest is the integral
    pass over T = 2."""
    calls = []

    def counting(sys, x0s, T, h=None, **kwargs):
        step = dde._working_step(sys.delay_r, T, h)
        calls.append((T, step, len(x0s), dde._mesh_times(T, step).size - 1))
        return simulate_many(sys, x0s, T, h, **kwargs)

    monkeypatch.setattr(checkers, "simulate_many", counting)
    rep = check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0),
        scaled_abs_rate(E_INV), SUP, 40, integral_trajectories=12, seed=0)
    assert rep.verdict == "consistent"
    (T, step, members, steps), *rest = calls
    assert (members, steps) == (40, 33)
    assert T - step <= lyapunov._dini_steps(1.0)[-3] < T
    assert [call[0] for call in rest] == [2.0] * len(rest)


def test_dissipation_ladder_escape_only_within_its_horizon():
    """quadratic c = 1 from a constant history c0 > 0 escapes at about
    1 / c0.  From 1e5 that is within the ladder the check integrates: an
    escape, at dini_derivative's escape time.  From 2000 it is past that
    ladder's 33 steps but within dini_derivative's 2048, so
    dini_derivative raises EscapeError while the check judges its
    estimate, and the dissipation fails."""
    sys = make_system("quadratic", 1.0, {"c": 1.0})
    args = (sys, weighted_sup(1.0), MonotoneGridFn.linear(0.0),
            MonotoneGridFn.linear(1.0), scaled_abs_rate(1.0), SUP, 1)
    for c0 in (1e5, 2000.0):
        x = sample_one(ball_cfg(family="polynomial", order=0, seed=1,
                                norm=c0), 0)
        assert x.values[-1][0] == c0
        with pytest.raises(EscapeError) as exc:
            dini_derivative(sys, weighted_sup(1.0), x)
        rep = check_pointwise_dissipation(*args, rho=c0, family="polynomial",
                                          order=0, seed=1)
        assert rep.verdict == "falsified"
        assert rep.witness["segment"] == x.to_json_dict()
        if c0 == 1e5:
            assert exc.value.escape_time == 1.46484375e-05
            assert rep.details["failed"] == "escape"
            assert rep.margins == {"escape_time": exc.value.escape_time}
            assert rep.witness["time"] == exc.value.escape_time
            assert rep.witness["norm"] == math.inf
        else:
            assert exc.value.escape_time == 0.0005078125
            assert rep.details["failed"] == "dissipation"
            assert rep.margins == {"dini_estimate": 558349068.3598312,
                                   "required": -2000.0, "tolerance": 2.001}
            assert rep.witness["time"] == 0.0


QUAD_ONE = make_system("quadratic", 1.0, {"c": 1.0})
# max(0, x(0)): 0 on every history whose head is not positive
HEAD_PART = Functional("head_positive_part",
                       lambda s: max(0.0, float(s.values[-1][0])))
# the certificates benchmark workload's configs and falsifying cases
CERTIFICATE_CASES = {
    "growth_workload": lambda: check_growth_certificate(
        linear(1.0, 0.0, 1.0), weighted_sup(1.0), MonotoneGridFn.linear(1.0),
        math.e, 80, traj_check=80, T=2.0, seed=0),
    "growth_trajectory_falsified": lambda: check_growth_certificate(
        linear(1.0, 1.0, 0.0), space_norm_functional(SUP),
        MonotoneGridFn.linear(0.1), 0.5, 6, T=2.0, seed=0),
    "growth_overflowing_limit": lambda: check_growth_certificate(
        QUAD_ONE, weighted_sup(1.0), MonotoneGridFn.linear(1.0), 3000.0, 2,
        rho=3.0, T=1.0, family="polynomial", order=0, seed=2),
    "growth_overflowing_limit_escape": lambda: check_growth_certificate(
        QUAD_ONE, weighted_sup(1.0), MonotoneGridFn.linear(1.0), 3000.0, 4,
        rho=3.0, T=1.0, family="polynomial", order=0, seed=2),
    "dissipation_workload": lambda: check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0),
        scaled_abs_rate(E_INV), SUP, 40, integral_trajectories=12, seed=0),
    "dissipation_off_the_step_grid": lambda: check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(1.0), scaled_abs_rate(1.0), SUP, 1,
        integral_trajectories=3, T=2.005, family="polynomial", order=0,
        h=0.01, seed=0),
    "growth_coercivity": lambda: check_growth_certificate(
        linear(1.0, 0.0, 0.0), weighted_sup(1.0), MonotoneGridFn.linear(10.0),
        0.0, 5, family="polynomial", order=0, seed=0),
    "growth_prolongation": lambda: check_growth_certificate(
        linear(1.0, 0.0, 1.0), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), 0.0, 5, family="polynomial", order=0,
        seed=0),
    "dissipation_sandwich": lambda: check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(0.1), scaled_abs_rate(1.0), SUP, 5,
        integral_trajectories=2, seed=0),
    "dissipation_unstable": lambda: check_pointwise_dissipation(
        linear(1.0, 1.0, 0.0), weighted_sup(1.0), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(1.0), scaled_abs_rate(E_INV), SUP, 5,
        integral_trajectories=5, family="polynomial", order=0, seed=0),
    # a rate 5e-4 above the decay passes the Dini tolerance and breaks the
    # integral at its second checkpoint
    "dissipation_integral": lambda: check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0),
        scaled_abs_rate(1.0005), SUP, 3, integral_trajectories=3,
        family="polynomial", order=0, seed=0),
    "exponential_workload": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0), SUP, 40,
        2.0, seed=0),
    "exponential_quadratic": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.0), quadratic_integral(2.0),
        MonotoneGridFn.linear(1e-3), MonotoneGridFn.linear(2.0), SUP, 4, 3.0,
        seed=0, grid_points=30),
    "exponential_lower_sandwich": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0), MonotoneGridFn.linear(2.0),
        MonotoneGridFn.linear(1.0), SUP, 5, 3.0, seed=0),
    "exponential_upper_sandwich": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.0),
        Functional("doubled", lambda s: 2.0 * weighted_sup(1.0).evaluate(s)),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0), SUP, 5,
        3.0, seed=0),
    "exponential_escape": lambda: check_exponential_certificate(
        QUAD_ONE, space_norm_functional(SUP), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(1.0), SUP, 1, 1.0, family="polynomial",
        order=0, seed=1, rho=3.0),
    "exponential_decay": lambda: check_exponential_certificate(
        linear(1.0, 0.0, 0.0), space_norm_functional(SUP),
        MonotoneGridFn.linear(1.0), MonotoneGridFn.linear(1.0), SUP, 3, 2.0,
        seed=0),
    # sample 0 decays; sample 1 breaks the rate at a late report time
    "exponential_decay_late": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.1), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0), SUP, 10,
        2.0, seed=2),
    # V(x_t) = e^(-t) V(x0) on constants while the window still holds
    # them, so the sup norm outlives the envelope the sandwich implies
    "exponential_implied_envelope": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.0), weighted_sup(5.0), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(1.0), SUP, 3, 2.0, family="polynomial",
        order=0, seed=0),
    # the judges of stacks and blocks: sample 10's quotient breaks the
    # limit only at the smallest rung
    "growth_prolongation_late_rung": lambda: check_growth_certificate(
        linear(1.0, 0.0, 1.0), quadratic_integral(1.0),
        MonotoneGridFn.linear(0.01), 3.0, 20, family="polynomial", order=2,
        seed=0),
    # U(x0) = 0 for the samples whose head is negative, so their limits
    # are 0 at every report time and stay out of the worst ratio
    "growth_zero_limit": lambda: check_growth_certificate(
        linear(1.0, -1.0, 0.0), HEAD_PART, MonotoneGridFn.linear(0.0),
        math.e, 20, traj_check=20, T=2.0, seed=0),
    # samples 0-24 pass; sample 25, in the second stack of 15, does not
    "growth_second_stack": lambda: check_growth_certificate(
        linear(1.0, 0.0, 1.0), weighted_sup(1.0), MonotoneGridFn.linear(1.0),
        1.5, 40, seed=3),
    # the Dini estimate of sample 16 misses the rate; samples 0-15 meet it
    "dissipation_second_stack": lambda: check_pointwise_dissipation(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(E_INV), MonotoneGridFn.linear(1.0),
        scaled_square_rate(1.8), SUP, 40, integral_trajectories=12, seed=0),
    # constant histories: V = e^r |c| holds still while the window shifts,
    # so every Dini estimate is 0; sample 2 is the first to escape in the
    # integral pass
    "dissipation_escape": lambda: check_pointwise_dissipation(
        QUAD_ONE, weighted_sup(-1.0), MonotoneGridFn.linear(1.0),
        MonotoneGridFn.linear(10.0), scaled_abs_rate(1e-6), SUP, 3,
        integral_trajectories=3, family="polynomial", order=0, seed=2,
        rho=3.0),
    # sample 17's norm outlives the implied envelope; samples 0-16 decay
    "exponential_implied_envelope_late": lambda: check_exponential_certificate(
        linear(1.0, -1.0, 0.0), weighted_sup(1.0),
        MonotoneGridFn.linear(0.39), MonotoneGridFn.linear(1.0), SUP, 40, 2.0,
        seed=1),
}
# (verdict, failed, sha256 of the sorted report JSON), recorded when the
# growth check computed e^(mu t) once per sample and time and the
# dissipation check its quadrature weights once per sample and checkpoint;
# the failing growth and dissipation cases and the exponential cases
# when those checks judged each sample, rung and report time inline and
# the exponential one computed e^(-t) once per sample and time; the
# seven whose numbers moved when linear_scalar took the affine step, then;
# the five of the stack judges when every judge took one sample at a time
CERTIFICATE_REPORTS = {
    "growth_workload": (
        "consistent", None,
        "2bc8e7c63837e6889e3a1960d5b847c5883cb7888a58208ed3589ef07defd3eb"),
    "growth_trajectory_falsified": (
        "falsified", "trajectory_growth",
        "35413a3b43e9cfca2ad3bab2d10b2fe6904db0cbda0b49b91349e18970cccb04"),
    "growth_overflowing_limit": (
        "consistent", None,
        "95679645039bcd3a74e42e175f2655f3365cb2fbc911c6f89eb3e3ea4b3373b7"),
    "growth_overflowing_limit_escape": (
        "falsified", "escape",
        "35221ffb9ec001cd5e852d8a14fa459a8b4b60575db6f3dfdc58a43fe8af88a3"),
    "dissipation_workload": (
        "consistent", None,
        "fa27c989ecb2b4c81d9bb4feabd6a55d1433f567652a0a3c48831809e173da26"),
    "dissipation_off_the_step_grid": (
        "consistent", None,
        "31d67bfcf02f3a225214b1e9435bfe81a3c51a8b555affbeea79a67265e724b9"),
    "growth_coercivity": (
        "falsified", "coercivity",
        "7131758b5fdfe354ffb93f8c7691fa5f8a513b910f951a690bb23e1bc950291a"),
    "growth_prolongation": (
        "falsified", "prolongation",
        "0fe97a602deee4fa593b69c548a95d5ab66b08079525923b4e4d19aa09ed8b05"),
    "dissipation_sandwich": (
        "falsified", "sandwich",
        "7921d30d1adfdebf62c229f84d7edee609cc8518bd0f7cfe20c782e7bed72dea"),
    "dissipation_unstable": (
        "falsified", "dissipation",
        "edb96fa7cf879e1ae3c4b379ee6ddd19643c85da768a63716b0c072460465271"),
    "dissipation_integral": (
        "falsified", "integral",
        "b49cb9d7c2bb2efa78d4178ae41cd83d4cdcde93b3640171a0fb96fc66c6ef9b"),
    "exponential_decay": (
        "falsified", "decay",
        "40b628f333420f8f120c92b2e1340be882e1e67b35c5482faa0bb2b53a4c4766"),
    "exponential_decay_late": (
        "falsified", "decay",
        "703d52a42b9961cc48e7be8d64ce1a82339c8486f9dcac0097bc8055f1767c7f"),
    "exponential_escape": (
        "falsified", "escape",
        "9767338418b92e8ad2f7de1a5ea2638bcdc6973d16963aad8d8382fe16ba1861"),
    "exponential_implied_envelope": (
        "falsified", "implied_envelope",
        "b8ba9f01c6a6a6c30b8a4aafc8cea7a4456492a8525886675c85981142da53da"),
    "exponential_lower_sandwich": (
        "falsified", "lower_sandwich",
        "f0afd250def8acf820de8cedad7adab23f8d99617cb9225d30c4536ba32269a5"),
    "exponential_quadratic": (
        "consistent", None,
        "2eb1bb39e06f445a707fb34a60e929d010e9f4d1bb29af2a0645da3d4d33a9a5"),
    "exponential_upper_sandwich": (
        "falsified", "upper_sandwich",
        "9fee4021dabeebc4f0d4582d942729149276e97be91f4dff12746c3e82f4bfcb"),
    "exponential_workload": (
        "consistent", None,
        "d2c3d0e03cf361e48c2725d41d60acc8b58d67828466afc8f7f23e25f21c0a3d"),
    "growth_prolongation_late_rung": (
        "falsified", "prolongation",
        "87bd56fa1d2ce56a96446fff0b4782df2a3550afef593731c82899503f9108a6"),
    "growth_zero_limit": (
        "consistent", None,
        "5b1fa0f4703b5f78386fed81fe08654ca454ac8451fbfe8b2f5f01277afa0817"),
    "growth_second_stack": (
        "falsified", "prolongation",
        "5ccf22cae4558fdcbf261aed7504f82378726d8757620a6291d88839b59b30c0"),
    "dissipation_second_stack": (
        "falsified", "dissipation",
        "97f61bd4854ffe56accdc7202fe2742fde3c5651fe729f10720496f4c2e74657"),
    "exponential_implied_envelope_late": (
        "falsified", "implied_envelope",
        "9b8887e4f2c68e63fee654baff645107ec9c66ac92ab972dd37aa309912512b1"),
    "dissipation_escape": (
        "falsified", "escape",
        "dbd8e5760ab4a1ff627fbd4f737ff591af19e62a4b8e129a1b673670cd08e799"),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_reports_keep_their_bytes(monkeypatch, case):
    """Each time's e^(mu t) or e^(-t) and each checkpoint's quadrature
    weights are computed once a check, not once a sample, and every
    report keeps its bytes, including a trajectory_growth witness, limits
    that overflow to +inf and each way the exponential certificate
    fails."""
    counts = {"_grown": 0, "_mesh_weights": 0}
    for name in counts:
        def counting(*args, _name=name, _f=getattr(lyapunov, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(lyapunov, name, counting)
    rep = CERTIFICATE_CASES[case]()
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert (rep.verdict, rep.details.get("failed"),
            hashlib.sha256(text.encode()).hexdigest()) \
        == CERTIFICATE_REPORTS[case]
    if case == "growth_workload":  # one a report time
        assert counts["_grown"] == 29
    if case == "exponential_workload":  # one a report time, for 40 samples
        assert counts["_grown"] == 39
    if case == "dissipation_workload":  # one a checkpoint
        assert counts["_mesh_weights"] == lyapunov.DISSIPATION_CHECKPOINTS


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_reports_do_not_depend_on_blocks_or_stacks(monkeypatch,
                                                               case):
    """The judges take one sample stack or one ensemble block at a time;
    with BLOCK_BYTES at 8 KiB the samples come in stacks of one and the
    runs in blocks of at most 14 (the dissipation ladders) or 2, so the
    later failures above lie in later stacks and blocks, and every
    report keeps its bytes."""
    monkeypatch.setattr(dde, "BLOCK_BYTES", 8192)
    assert len(next(dde._sample_stacks(ball_cfg(), range(40)))) == 1
    rep = CERTIFICATE_CASES[case]()
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert (rep.verdict, rep.details.get("failed"),
            hashlib.sha256(text.encode()).hexdigest()) \
        == CERTIFICATE_REPORTS[case]


def test_dissipation_ladders_read_in_grouped_stacks(monkeypatch):
    """On the dissipation config of the certificates benchmark workload
    the 40 ladders of 3 rungs are read as stacks of whole ladders, at
    most dde._segment_chunk (member, rung) pairs a stack: 4 reads of
    node data, where a stack of one ladder each made 40."""
    stacks = []

    def counting(piece, at, times, n_nodes):
        got = dde._block_nodes(piece, at, times, n_nodes)
        stacks.append(got[1].shape[:2])
        return got

    monkeypatch.setattr(checkers, "_block_nodes", counting)
    rep = CERTIFICATE_CASES["dissipation_workload"]()
    assert rep.verdict == "consistent"
    size = dde._segment_chunk(65, 1)
    assert len(stacks) <= math.ceil(40 * 3 / size) == 4
    assert all(k == 3 and m * k <= size for m, k in stacks)
    assert sum(m for m, _ in stacks) == 40
