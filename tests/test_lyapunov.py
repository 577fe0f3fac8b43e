"""Tests for energy functionals, Dini estimates, and certificate checks."""

import math

import numpy as np
import pytest

from delaystab import SpaceSpec, checkers, dde, lyapunov, make_system, sampler
from delaystab.dde import _segment_nodes, segment_at, simulate
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
VECTOR2 = make_system("linear_vector", 0.7,
                      {"A0": [[-1.0, 0.2], [0.1, -0.8]],
                       "A1": [[0.1, 0.0], [0.2, -0.1]]})


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
    """All rungs of a sample in one call, from the known U(x0), give the
    old one-rung quotients in every bit: weighted sups through the shared
    prolongation grid, the other functionals on stacked prolongations."""
    hs = lyapunov._dini_steps(0.7)
    for sys, n in ((linear(0.7, 0.0, 1.0), 1), (VECTOR2, 2)):
        for x in _histories(n, 3) + _histories(n, 2, family="polynomial",
                                                order=0):
            f = np.asarray(sys.rhs(x), dtype=float)
            got = lyapunov._growth_quotients(U, x, U.evaluate(x), f, hs)
            want = [_old_growth_quotient(U, x, f, float(h)) for h in hs]
            assert _bits(got) == _bits(want)


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
    """Count the sample draws of the checks by index, wherever they are
    drawn (the shared checkers._samples or lyapunov itself)."""
    drawn = []
    real = sampler.sample_one

    def counting(cfg, index):
        drawn.append(index)
        return real(cfg, index)

    monkeypatch.setattr(checkers, "sample_one", counting)
    monkeypatch.setattr(lyapunov, "sample_one", counting)
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
