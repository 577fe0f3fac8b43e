"""Tests for history segments, norms and prolongation.

Closed-form values below were derived by hand and frozen; property sweeps
check the inequalities that the discrete norms satisfy exactly by
construction (positive quadrature weights, pairwise seminorm maxima).
"""

import io
import json
import math

import numpy as np
import pytest

from delaystab.segment import (
    DEFAULT_REFINE,
    ParameterError,
    Segment,
    SegmentDataError,
    SpaceSpec,
    _quadrature_weights,
    hoelder_seminorm,
    lp_deriv_norm,
    prolong,
    space_norm,
    sup_norm,
)
from delaystab.sampler import FAMILIES, SamplerConfig, sample_one

SQRT2 = 1.4142135623730951


def linear_segment(r=2.0, n_nodes=201):
    # x(s) = s
    return Segment.from_callable(r, lambda s: s, lambda s: np.ones_like(s), n_nodes)


def random_fourier_segment(rng, r=1.0, dim=2, n_nodes=65, modes=3):
    s = np.linspace(-r, 0.0, n_nodes)
    vals = np.zeros((n_nodes, dim))
    ders = np.zeros((n_nodes, dim))
    for j in range(dim):
        c0 = rng.normal()
        vals[:, j] += c0
        for k in range(1, modes + 1):
            ac, bc = rng.normal(size=2)
            w = k * math.pi / r
            vals[:, j] += ac * np.cos(w * s) + bc * np.sin(w * s)
            ders[:, j] += -ac * w * np.sin(w * s) + bc * w * np.cos(w * s)
    return Segment(r, s, vals, ders)


# ---------------------------------------------------------------- construction


def test_constant_segment_sup_norm():
    seg = Segment.constant(1.0, [3.0, 4.0])
    assert sup_norm(seg) == pytest.approx(5.0, abs=0.0)


def test_zero_segment_all_norms_vanish():
    seg = Segment.zero(1.5, dim=3)
    assert sup_norm(seg) == 0.0
    assert lp_deriv_norm(seg, 2.0) == 0.0
    assert hoelder_seminorm(seg, 0.5) == 0.0


def test_nodes_must_be_uniform():
    nodes = np.array([-1.0, -0.4, 0.0])
    with pytest.raises(SegmentDataError):
        Segment(1.0, nodes, np.zeros((3, 1)), np.zeros((3, 1)))


def test_needs_three_nodes():
    with pytest.raises(SegmentDataError):
        Segment(1.0, np.array([-1.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 1)))


def test_rejects_nonfinite_data():
    vals = np.zeros((5, 1))
    vals[2] = np.nan
    with pytest.raises(SegmentDataError):
        Segment.from_samples(1.0, vals, np.zeros((5, 1)))


def test_nodes_must_span_minus_r_to_zero():
    nodes = np.linspace(-1.0, 0.5, 7)
    with pytest.raises(SegmentDataError):
        Segment(1.0, nodes, np.zeros((7, 1)), np.zeros((7, 1)))


def test_arrays_are_read_only():
    seg = Segment.constant(1.0, 2.0)
    with pytest.raises(ValueError):
        seg.values[0] = 9.0


# ----------------------------------------------------------------- evaluation


def test_interpolation_reproduces_cubics_exactly():
    # cubic Hermite is exact on polynomials up to degree 3
    f = lambda s: 2.0 + s - 0.5 * s**2 + 0.25 * s**3
    df = lambda s: 1.0 - s + 0.75 * s**2
    seg = Segment.from_callable(1.0, f, df, n_nodes=11)
    s = np.linspace(-1.0, 0.0, 137)
    assert np.allclose(seg.value_at(s)[:, 0], f(s), atol=1e-13)
    assert np.allclose(seg.deriv_at(s)[:, 0], df(s), atol=1e-12)


def test_value_at_point_matches_vectorized():
    rng = np.random.default_rng(7)
    seg = random_fourier_segment(rng)
    for s in [-1.0, -0.73, -0.5, -0.111, 0.0]:
        a = seg.value_at_point(s)
        b = seg.value_at(np.array([s]))[0]
        assert np.allclose(a, b, atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("r", [1.0, 0.3, 0.04])
def test_point_and_array_reads_agree_bitwise(family, r):
    # one Hermite formula serves both reads, so they agree to the last bit
    # inside the window (the right end s = 0 is the documented exception)
    rng = np.random.default_rng(11)
    cfg = SamplerConfig(family=family, order=3, target_space=SpaceSpec.sup(),
                        target_norm=1.0, dimension=2, delay_r=r, seed=5,
                        n_nodes=65)
    for index in range(4):
        seg = sample_one(cfg, index)
        s = np.concatenate([rng.uniform(-r, 0.0, 300), seg.nodes[1:-1]])
        s = s[(s > -r) & (s < 0.0)]
        arr = seg.value_at(s)
        pts = np.array([seg.value_at_point(float(x)) for x in s])
        assert np.array_equal(arr, pts)


def test_evaluation_outside_window_raises():
    seg = Segment.constant(1.0, 1.0)
    with pytest.raises(ParameterError):
        seg.value_at(np.array([-1.5]))
    with pytest.raises(ParameterError):
        seg.value_at(np.array([0.5]))


def test_refined_grid_is_cached():
    seg = Segment.constant(1.0, 1.0, n_nodes=11)
    a = seg.refined(4)
    b = seg.refined(4)
    assert a[0] is b[0]
    assert a[0].size == 10 * 4 + 1


# ----------------------------------------------------------------- quadrature


def test_quadrature_weights_positive_and_sum_to_length():
    for count in range(2, 40):
        w = _quadrature_weights(count, 0.1)
        assert np.all(w > 0.0)
        assert w.sum() == pytest.approx(0.1 * (count - 1), rel=1e-13)


def test_quadrature_exact_on_cubic():
    # even interval count: plain Simpson; odd: Simpson plus 3/8 tail
    for count in (9, 10):
        s = np.linspace(0.0, 2.0, count)
        w = _quadrature_weights(count, s[1] - s[0])
        vals = s**3 - 2.0 * s + 1.0
        exact = 2.0**4 / 4 - 2.0**2 + 2.0
        assert np.dot(w, vals) == pytest.approx(exact, rel=1e-13)


# ---------------------------------------------------------------- norm values


def test_linear_segment_sup_and_hoelder_half():
    seg = linear_segment(r=2.0)
    assert sup_norm(seg) == pytest.approx(2.0, abs=0.0)
    assert hoelder_seminorm(seg, 0.5) == pytest.approx(SQRT2, rel=1e-12)


def test_linear_segment_lipschitz_seminorm():
    seg = linear_segment(r=2.0)
    assert hoelder_seminorm(seg, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_quadratic_segment_l2_derivative_norm():
    # x(s) = s^2 on [-1, 0]: integral of (2s)^2 is 4/3
    seg = Segment.from_callable(1.0, lambda s: s * s, lambda s: 2.0 * s, 41)
    assert lp_deriv_norm(seg, 2.0) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)


def test_linear_segment_sobolev_norm():
    seg = linear_segment(r=1.0)
    # sup = 1, l2 of the unit derivative over one unit of time = 1
    assert space_norm(seg, SpaceSpec.sobolev(2.0)) == pytest.approx(2.0, rel=1e-12)


def test_inf_exponent_takes_derivative_max():
    seg = Segment.from_callable(1.0, lambda s: s * s, lambda s: 2.0 * s, 41)
    assert lp_deriv_norm(seg, math.inf) == pytest.approx(2.0, rel=1e-12)


def test_hoelder_norm_is_max_of_sup_and_seminorm():
    seg = linear_segment(r=2.0)
    val = space_norm(seg, SpaceSpec.hoelder(0.5))
    assert val == pytest.approx(max(2.0, SQRT2), rel=1e-12)


def test_hoelder_grid_cap_resamples():
    rng = np.random.default_rng(3)
    seg = random_fourier_segment(rng, n_nodes=1025)
    # 1024 cells at refine 8 exceeds the cap; result must still be finite
    # and close to the uncapped exponent-1 slope bound
    semi = hoelder_seminorm(seg, 1.0)
    assert math.isfinite(semi)
    assert semi <= lp_deriv_norm(seg, math.inf) * (1.0 + 1e-9)


def test_parameter_validation():
    seg = linear_segment()
    with pytest.raises(ParameterError):
        lp_deriv_norm(seg, 1.0)
    with pytest.raises(ParameterError):
        hoelder_seminorm(seg, 0.0)
    with pytest.raises(ParameterError):
        hoelder_seminorm(seg, 1.5)
    with pytest.raises(ParameterError):
        SpaceSpec.sobolev(1.0)
    with pytest.raises(ParameterError):
        SpaceSpec.hoelder(1.2)
    with pytest.raises(ParameterError):
        SpaceSpec("banana")


# ---------------------------------------------------------- norm inequalities


@pytest.mark.parametrize("seed", range(8))
def test_homogeneity_all_spaces(seed):
    rng = np.random.default_rng(100 + seed)
    seg = random_fourier_segment(rng)
    spaces = [SpaceSpec.sup(), SpaceSpec.sobolev(2.0), SpaceSpec.sobolev(math.inf),
              SpaceSpec.hoelder(0.5), SpaceSpec.hoelder(1.0)]
    c = -2.5
    for sp in spaces:
        lhs = space_norm(c * seg, sp)
        rhs = abs(c) * space_norm(seg, sp)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_triangle_inequality_all_spaces(seed):
    rng = np.random.default_rng(200 + seed)
    x = random_fourier_segment(rng)
    y = random_fourier_segment(rng)
    spaces = [SpaceSpec.sup(), SpaceSpec.sobolev(2.0), SpaceSpec.sobolev(4.0),
              SpaceSpec.hoelder(0.3), SpaceSpec.hoelder(1.0)]
    for sp in spaces:
        lhs = space_norm(x + y, sp)
        rhs = space_norm(x, sp) + space_norm(y, sp)
        assert lhs <= rhs * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_sup_norm_is_dominated_by_space_norms(seed):
    rng = np.random.default_rng(300 + seed)
    seg = random_fourier_segment(rng)
    base = sup_norm(seg)
    for sp in (SpaceSpec.sobolev(2.0), SpaceSpec.hoelder(0.5)):
        assert base <= space_norm(seg, sp) * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_sobolev_monotone_in_exponent(seed):
    # weights sum to r, so the power mean bound holds discretely:
    # lp(p) <= r^(1/p - 1/q) * lp(q) for p <= q
    rng = np.random.default_rng(400 + seed)
    r = 1.7
    seg = random_fourier_segment(rng, r=r)
    exps = [2.0, 4.0, math.inf]
    for p, q in zip(exps[:-1], exps[1:]):
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        factor = r ** (1.0 / p - inv_q)
        assert lp_deriv_norm(seg, p) <= factor * lp_deriv_norm(seg, q) * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_hoelder_monotone_in_exponent(seed):
    # per pair: ratio_a = ratio_b * lag^(b - a) <= ratio_b * max(1, r^(b-a))
    rng = np.random.default_rng(500 + seed)
    r = 2.3
    seg = random_fourier_segment(rng, r=r)
    for a, b in [(0.25, 0.5), (0.5, 1.0), (0.3, 0.9)]:
        lhs = hoelder_seminorm(seg, a)
        rhs = max(1.0, r ** (b - a)) * hoelder_seminorm(seg, b)
        assert lhs <= rhs * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_derivative_norm_controls_hoelder_seminorm(seed):
    # |x(t) - x(s)| <= lp(p) * |t - s|^(1 - 1/p) for the interpolant itself.
    # The seminorm side is a max over chords, always below the continuum
    # value; the majorant side gets a fine grid so its own discretization
    # gap stays far below the stated slack.
    rng = np.random.default_rng(600 + seed)
    seg = random_fourier_segment(rng)
    for p in (2.0, 4.0, math.inf):
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        semi = hoelder_seminorm(seg, 1.0 - inv_p if p != math.inf else 1.0)
        majorant_refine = 512 if math.isinf(p) else DEFAULT_REFINE
        assert semi <= lp_deriv_norm(seg, p, refine=majorant_refine) * (1.0 + 1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_lp_norm_bounded_by_window_scaled_max(seed):
    # same sample grid on both sides makes this a pure power mean bound
    rng = np.random.default_rng(700 + seed)
    r = 1.3
    seg = random_fourier_segment(rng, r=r)
    for p in (2.0, 4.0):
        lhs = lp_deriv_norm(seg, p)
        rhs = r ** (1.0 / p) * lp_deriv_norm(seg, math.inf)
        assert lhs <= rhs * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_hoelder_bounded_by_window_scaled_derivative_max(seed):
    rng = np.random.default_rng(800 + seed)
    r = 1.3
    seg = random_fourier_segment(rng, r=r)
    fine_max = lp_deriv_norm(seg, math.inf, refine=512)
    for p in (2.0, 4.0):
        semi = hoelder_seminorm(seg, 1.0 - 1.0 / p)
        assert semi <= r ** (1.0 / p) * fine_max + 1e-6


def test_space_norm_constant_sobolev():
    seg = Segment.constant(1.0, [3.0, 4.0])
    assert space_norm(seg, SpaceSpec.sobolev(2.0)) == pytest.approx(5.0, abs=1e-13)


def test_space_norm_linear_hoelder_one():
    seg = linear_segment(r=1.0)
    assert space_norm(seg, SpaceSpec.hoelder(1.0)) == pytest.approx(1.0, rel=1e-10)


# -------------------------------------------------------------- serialization


def test_space_spec_json_round_trip():
    for sp in (SpaceSpec.sup(), SpaceSpec.sobolev(2.5), SpaceSpec.sobolev(math.inf),
               SpaceSpec.hoelder(0.75)):
        back = SpaceSpec.from_json_dict(json.loads(json.dumps(sp.to_json_dict())))
        assert back == sp


def test_space_spec_labels():
    # norms.csv headers are these labels
    assert SpaceSpec.sup().label == "sup"
    assert SpaceSpec.sobolev(2.0).label == "sobolev(p=2)"
    assert SpaceSpec.sobolev(math.inf).label == "sobolev(p=inf)"
    assert SpaceSpec.hoelder(0.5).label == "hoelder(a=0.5)"


def test_space_spec_rejects_unknown_keys():
    # each kind takes only its own exponent: a foreign one is not dropped
    for d, key in (({"kind": "sup", "q": 3}, "q"),
                   ({"kind": "sup", "p": 2}, "p"),
                   ({"kind": "hoelder", "a": 0.5, "p": 2}, "p"),
                   ({"kind": "sobolev", "p": 2, "a": 0.5}, "a")):
        with pytest.raises(ParameterError, match=f"unknown keys.*'{key}'"):
            SpaceSpec.from_json_dict(d)
    for d in ({"kind": "sobolev"}, {"kind": "hoelder", "a": None},
              {"kind": ["sup"]}, {"p": 2}, ["sup"]):
        with pytest.raises(ParameterError):
            SpaceSpec.from_json_dict(d)


def test_segment_json_round_trip():
    rng = np.random.default_rng(9)
    seg = random_fourier_segment(rng)
    back = Segment.from_json(seg.to_json())
    assert back.delay_r == seg.delay_r
    assert np.array_equal(back.values, seg.values)
    assert np.array_equal(back.derivs, seg.derivs)


def test_segment_csv_export():
    seg = Segment.constant(1.0, [1.0, -2.0], n_nodes=3)
    buf = io.StringIO()
    seg.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "s,x_1,x_2,dx_1,dx_2"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first == [-1.0, 1.0, -2.0, 0.0, 0.0]


# ----------------------------------------------------------------- arithmetic


def test_arithmetic_grid_mismatch_raises():
    a = Segment.constant(1.0, 1.0, n_nodes=11)
    b = Segment.constant(1.0, 1.0, n_nodes=21)
    c = Segment.constant(2.0, 1.0, n_nodes=11)
    with pytest.raises(SegmentDataError):
        a + b
    with pytest.raises(SegmentDataError):
        a - c


def test_difference_of_equal_segments_is_zero():
    rng = np.random.default_rng(11)
    seg = random_fourier_segment(rng)
    d = seg - seg
    assert sup_norm(d) == 0.0


# --------------------------------------------------------------- prolongation


def test_prolong_constant_history_linear_extension():
    # x == 1 on [-1, 0], slope 2 over a step of 0.25:
    # values stay 1 up to s = -0.25, then rise linearly to 1.5
    seg = Segment.constant(1.0, 1.0, n_nodes=201)
    out = prolong(seg, 2.0, 0.25)
    assert out.value_at_point(-1.0)[0] == pytest.approx(1.0, abs=1e-14)
    assert out.value_at_point(-0.25)[0] == pytest.approx(1.0, abs=1e-14)
    assert out.value_at_point(-0.125)[0] == pytest.approx(1.25, abs=1e-13)
    assert out.value_at_point(0.0)[0] == pytest.approx(1.5, abs=1e-14)
    assert sup_norm(out) == pytest.approx(1.5, abs=1e-13)


def test_prolong_shifts_old_values():
    seg = linear_segment(r=1.0, n_nodes=101)
    out = prolong(seg, 0.0, 0.5)
    # x(s) = s shifted by 0.5 gives s + 0.5 on [-1, -0.5], then flat 0.5... no:
    # x(0) = 0 and slope 0, so the extension is identically 0
    assert out.value_at_point(-0.75)[0] == pytest.approx(-0.25, abs=1e-13)
    assert out.value_at_point(-0.25)[0] == pytest.approx(0.0, abs=1e-13)


def test_prolong_junction_node_uses_extension_slope():
    seg = Segment.constant(1.0, 1.0, n_nodes=5)
    out = prolong(seg, 3.0, 0.25)
    # node at -0.25 lands exactly on the junction
    idx = np.argmin(np.abs(out.nodes + 0.25))
    assert out.derivs[idx, 0] == pytest.approx(3.0, abs=0.0)


def test_prolong_composes_at_node_multiples():
    # with a constant slope and node-aligned steps the two-step and the
    # one-step prolongation agree exactly
    rng = np.random.default_rng(21)
    seg = random_fourier_segment(rng, r=1.0, dim=1, n_nodes=101)
    f = np.array([0.4])
    one = prolong(seg, f, 0.75)
    two = prolong(prolong(seg, f, 0.25), f, 0.5)
    assert np.allclose(one.values, two.values, atol=1e-12)
    assert np.allclose(one.derivs, two.derivs, atol=1e-12)


def test_prolong_constant_fixed_point():
    seg = Segment.constant(1.0, [2.0, -1.0], n_nodes=51)
    out = prolong(seg, np.zeros(2), 0.3)
    assert np.allclose(out.values, seg.values, atol=1e-13)
    assert np.allclose(out.derivs, 0.0, atol=1e-13)


def test_prolong_linear_history_matching_slope():
    # x(s) = s with slope 1 continues seamlessly: result is s + 0.5
    seg = linear_segment(r=1.0, n_nodes=101)
    out = prolong(seg, 1.0, 0.5)
    s = np.linspace(-1.0, 0.0, 41)
    assert np.allclose(out.value_at(s)[:, 0], s + 0.5, atol=1e-12)


def test_prolong_composes_for_smooth_data_general_steps():
    # steps that are not node multiples: both orders resample the same
    # smooth function (extension slope equals the end derivative, so no
    # kink), leaving only interpolation error well under 1e-8
    r = 1.0
    seg = Segment.from_callable(
        r, lambda s: np.sin(math.pi * s),
        lambda s: math.pi * np.cos(math.pi * s), 401)
    f = np.array([math.pi * math.cos(0.0)])
    one = prolong(seg, f, 0.2861)
    two = prolong(prolong(seg, f, 0.1234), f, 0.1627)
    diff = one - two
    assert sup_norm(diff) < 1e-8


def test_prolong_step_validation():
    seg = Segment.constant(1.0, 1.0)
    with pytest.raises(ParameterError):
        prolong(seg, 0.0, 0.0)
    with pytest.raises(ParameterError):
        prolong(seg, 0.0, 1.5)
    with pytest.raises(ParameterError):
        prolong(seg, np.array([1.0, 2.0]), 0.5)


def test_prolong_full_window_is_pure_line():
    seg = linear_segment(r=1.0, n_nodes=11)
    out = prolong(seg, 2.0, 1.0)
    # everything is the extension: x(0) + (s + 1) * 2 = 2 s + 2
    s = np.linspace(-1.0, 0.0, 31)
    assert np.allclose(out.value_at(s)[:, 0], 2.0 * s + 2.0, atol=1e-13)
