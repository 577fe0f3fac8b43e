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

from delaystab import checkers, dde, lyapunov, segment
from delaystab.segment import (
    DEFAULT_REFINE,
    HOELDER_GRID_CAP,
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


SPACES = [SpaceSpec.sup(), SpaceSpec.sobolev(2.0), SpaceSpec.hoelder(0.5)]


def test_reads_store_nothing_on_the_segment():
    """A segment is a plain value: refining it, norming it, a built-in
    functional and the tracks of an ensemble leave its attributes its
    four data fields, each the same object."""
    seg = Segment.from_callable(1.0, np.sin, np.cos, 65)
    before = dict(vars(seg))
    assert set(before) == {"delay_r", "nodes", "values", "derivs"}
    seg.refined()
    for space in SPACES:
        space_norm(seg, space)
    for V in (lyapunov.weighted_sup(1.0), lyapunov.quadratic_integral(1.0)):
        V.evaluate(seg)
    sys = dde.make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    grid = np.linspace(0.0, 2.0, 5)
    (run,) = checkers._ensemble(
        sys, [seg], 2.0, 0.01,
        [checkers._norm_read(space, grid, seg.n_nodes) for space in SPACES])
    assert all(np.all(np.isfinite(track)) for track in run.tracks)
    assert vars(seg).keys() == before.keys()
    assert all(vars(seg)[k] is v for k, v in before.items())


def test_space_norm_is_the_stacked_norm_of_one(monkeypatch):
    """space_norm is the batch of one of _norms in every bit, for the sup,
    Sobolev and Hoelder spaces, and reads the segment once, slopes for
    Sobolev only."""
    seg = Segment.from_callable(1.0, np.sin, np.cos, 65)
    reads = segment._uniform_reads
    for space in SPACES:
        calls = []

        def counting(*args):
            calls.append(args[-2:])
            return reads(*args)

        monkeypatch.setattr(segment, "_uniform_reads", counting)
        got = space_norm(seg, space)
        assert calls == [(8 * 64 + 1, space.kind == "sobolev")]
        monkeypatch.setattr(segment, "_uniform_reads", reads)
        want = segment._norms(1.0, seg.nodes, seg.values[None],
                              seg.derivs[None], space)
        assert np.array([got]).tobytes() == want.tobytes()
    assert sup_norm(seg) == space_norm(seg, SPACES[0])


def test_refined_reads_are_point_reads_on_the_exact_nodes():
    """The memoised grid of a uniform read locates its times by the rule
    of Segment.value_at, on the segment's exact nodes: refined values and
    slopes are value_at and deriv_at at the sample times in every bit,
    also for nodes an ulp off the uniform grid, and the shared grid
    arrays are read-only."""
    rng = np.random.default_rng(5)
    seg = random_fourier_segment(rng)
    nodes = seg.nodes.copy()
    nodes[1:-1] = np.nextafter(nodes[1:-1], 0.0)
    off = Segment(seg.delay_r, nodes, seg.values, seg.derivs)
    for x in (seg, off):
        s, vals, ders = x.refined(4)
        assert s.size == 64 * 4 + 1 and not s.flags.writeable
        assert vals.tobytes() == x.value_at(s).tobytes()
        assert ders.tobytes() == x.deriv_at(s).tobytes()
        assert x._refined_values(4)[1].tobytes() == vals.tobytes()


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
    # refine is a whole number: a fraction or a boolean is refused by
    # name, where int() took both as refine 1
    for bad in (1.5, True, "8"):
        for norm in (lambda: sup_norm(seg, refine=bad),
                     lambda: hoelder_seminorm(seg, 0.5, refine=bad),
                     lambda: space_norm(seg, SpaceSpec.hoelder(0.5), bad)):
            with pytest.raises(ParameterError, match="refine"):
                norm()
    with pytest.raises(ParameterError, match="refine"):
        sup_norm(seg, refine=0)
    assert sup_norm(seg, refine=2.0) == sup_norm(seg, refine=2)


# ------------------------------------------------ pruned Hoelder lag sweep
#
# The oracle is the full lag profile the pruned sweep replaced: every lag
# of every segment, then the max of the quotients.


def _full_lag_profiles(vals):
    """Per lag k = 1 .. m-1, the largest |x(s_i+k) - x(s_i)| over the
    samples of each segment; (K, m, n) -> (K, m - 1)."""
    m = vals.shape[1]
    maxdiff = np.empty((vals.shape[0], m - 1))
    for k in range(1, m):
        diff = vals[:, k:] - vals[:, :-k]
        maxdiff[:, k - 1] = np.einsum("...j,...j->...", diff, diff).max(axis=1)
    return np.sqrt(maxdiff, out=maxdiff)


def _profile_seminorms(profiles, a, r):
    lags = np.arange(1, profiles.shape[1] + 1) * (r / profiles.shape[1])
    return (profiles / lags ** a).max(axis=1)


def _full_profiles(segs):
    """The lag profiles of the seminorm's (capped) grids of segs, which
    share one node grid."""
    count = min((segs[0].n_nodes - 1) * DEFAULT_REFINE + 1, HOELDER_GRID_CAP)
    s = np.linspace(-segs[0].delay_r, 0.0, count)
    return _full_lag_profiles(np.array([seg.value_at(s) for seg in segs]))


def _sampled(family, n, n_nodes):
    cfg = SamplerConfig(family=family, order=3, target_space=SpaceSpec.sup(),
                        target_norm=1.0, dimension=n, delay_r=1.0, seed=4,
                        n_nodes=n_nodes)
    return sample_one(cfg, 0)


def _linear(n, n_nodes):
    k = np.arange(1.0, n + 1.0)
    return Segment.from_callable(0.7, lambda s: np.outer(s, k),
                                 lambda s: np.outer(np.ones_like(s), k),
                                 n_nodes)


def _exactness_segments():
    """(label, segment): sampled, constant and linear histories in one
    and three dimensions, and a sampled and a linear one whose refined
    grid exceeds HOELDER_GRID_CAP."""
    out = []
    for n in (1, 3):
        out += [(f"fourier n={n}", _sampled("fourier", n, 65)),
                (f"polynomial n={n}", _sampled("polynomial", n, 65)),
                (f"constant n={n}", Segment.constant(
                    0.7, np.linspace(-1.0, 2.0, n), 65)),
                (f"linear n={n}", _linear(n, 65)),
                (f"fourier n={n} capped", _sampled("fourier", n, 1025)),
                (f"linear n={n} capped", _linear(n, 1025))]
    return out


@pytest.mark.parametrize("label,seg0", _exactness_segments(),
                         ids=[lab for lab, _ in _exactness_segments()])
def test_pruned_hoelder_sweep_is_the_full_sweep_bitwise(label, seg0):
    """hoelder_seminorm and the Hoelder space_norm equal the max over
    every lag in every bit, also where squares underflow (scale 1e-160)
    and near overflow (1e150)."""
    scales = (1.0, 1e-160, 1e150)
    segs = [seg0 * scale for scale in scales]
    profiles = _full_profiles(segs)
    for a in (0.05, 0.5, 1.0):
        semis = _profile_seminorms(profiles, a, seg0.delay_r)
        for scale, seg, semi in zip(scales, segs, semis):
            assert np.float64(hoelder_seminorm(seg, a)).tobytes() \
                == semi.tobytes(), (scale, a)
            want = np.maximum(sup_norm(seg), semi)
            assert np.float64(space_norm(seg, SpaceSpec.hoelder(a))) \
                .tobytes() == want.tobytes(), (scale, a)
        if "constant" not in label:
            assert semis[1] > 0.0  # though the lag-1 squares underflow


# affine samples x0 + i d: every lag quotient at a = 1 ties up to
# rounding, and one lag's computed maximum exceeds k times the computed
# lag-1 maximum by an ulp
ROUNDING_TIES = [
    ([-0.4397900259035405, -0.3550031292012924],
     [5.343366143592687e-10, -1.3168225668255961e-08], 129),
    ([-6.504655846559341, 14.61717359332307, 9.750916711242603],
     [5.4889880276353135e-05, -6.365596204244256e-05,
      0.00020368509003671569], 257),
]


@pytest.mark.parametrize("x0,d,count", ROUNDING_TIES)
def test_pruned_hoelder_sweep_keeps_lags_that_tie_up_to_rounding(x0, d,
                                                                 count):
    """The bound's rounding margin keeps the lag that holds the max, in
    a stack of 32 segments, which takes the lags one at a time, and in a
    standalone seminorm read at the nodes (refine 1)."""
    vals = np.asarray(x0) + np.arange(count)[:, None] * np.asarray(d)
    semi = _profile_seminorms(_full_lag_profiles(vals[None]), 1.0, 1.0)
    stack = np.repeat(vals[None], 32, axis=0)
    assert segment._hoelder_norms(stack, 1.0, 1.0, 0.0).tobytes() \
        == np.repeat(semi, 32).tobytes()
    seg = Segment.from_samples(1.0, vals, np.zeros_like(vals))
    assert np.float64(hoelder_seminorm(seg, 1.0, refine=1)).tobytes() \
        == semi.tobytes()


@pytest.mark.parametrize("a", [0.05, 0.5, 1.0])
def test_pruned_hoelder_track_mixing_rough_and_smooth_rows(monkeypatch, a):
    """A track whose stacks mix rows whose seminorm exceeds the sup norm
    with rows it does not equals the full sweep in every bit, for chunks
    of one time and of all times."""
    sys = dde.make_system("linear_scalar", r=1.0,
                          params={"a": -1.0, "b": 0.3})
    x0 = Segment.from_callable(1.0, lambda s: np.sin(12.0 * s),
                               lambda s: 12.0 * np.cos(12.0 * s), 65)
    traj = dde.simulate(sys, x0, 6.0, 0.01)
    grid = np.linspace(0.0, 6.0, 25)
    segs = [dde.segment_at(traj, float(t), n_nodes=65) for t in grid]
    sups = np.array([sup_norm(s) for s in segs])
    semis = _profile_seminorms(_full_profiles(segs), a, 1.0)
    assert (semis > sups).any() and (semis < sups).any()
    want = np.maximum(sups, semis)
    space = SpaceSpec.hoelder(a)
    for chunk_bytes, chunk in ((1, 1), (10**12, grid.size)):
        monkeypatch.setattr(dde, "BLOCK_BYTES", chunk_bytes)
        assert min(dde._segment_chunk(65, 1), grid.size) == chunk
        track = checkers._norm_read(space, grid, 65).track(traj)
        assert track.tobytes() == want.tobytes()


@pytest.mark.parametrize("a", [0.05, 0.5, 0.9])
def test_pruned_hoelder_sweep_largest_lag_first(monkeypatch, a):
    """With floor 0 and a < 1 a linear segment's quotient grows with the
    lag, so the largest lag holds the seminorm.  Its block has the
    largest bound and goes first; its quotient then prunes every other
    block, and the value is the full sweep's in every bit, standalone
    and in a stack with rows whose maximum sits elsewhere."""
    lin = _linear(1, 65)
    count = 64 * DEFAULT_REFINE + 1
    profiles = _full_profiles([lin])
    quotients = profiles / (np.arange(1, count) * (lin.delay_r / (count - 1))) ** a
    assert np.argmax(quotients[0]) == count - 2  # lag m - 1
    calls = []
    lag_maxima = segment._lag_maxima

    def logged(vals, k, width):
        calls.append((vals.shape[0], k, width))
        return lag_maxima(vals, k, width)

    monkeypatch.setattr(segment, "_lag_maxima", logged)
    semi = _profile_seminorms(profiles, a, lin.delay_r)
    assert np.float64(hoelder_seminorm(lin, a)).tobytes() == semi.tobytes()
    # lag 1, then only the last block of lags 2 + 32 j .., which holds
    # lag m - 1 (an ascending sweep takes all 16 blocks here)
    last = 2 + 32 * ((count - 3) // 32)
    assert calls == [(1, 1, 1), (1, last, count - last)]
    s = np.linspace(-lin.delay_r, 0.0, count)
    segs = [lin, _sampled("fourier", 1, 65), lin * -3.0,
            _sampled("polynomial", 1, 65)]
    stack = np.array([seg.value_at(s) for seg in segs])
    want = _profile_seminorms(_full_profiles(segs), a, lin.delay_r)
    got = segment._hoelder_norms(stack, a, lin.delay_r, 0.0)
    assert got.tobytes() == want.tobytes()


def test_pruned_hoelder_sweep_skips_most_lag_pairs(monkeypatch):
    """Work guard, not a wall gate: on a 200-time Hoelder(0.5) track of
    the saturating system the sweep evaluates at most 35% of the
    K m (m - 1) / 2 sample pairs of the full lag profiles."""
    sys = dde.make_system("saturating", r=1.0, params={"c": 1.0, "k": 0.5})
    space = SpaceSpec.hoelder(0.5)
    cfg = SamplerConfig(family="fourier", order=3, target_space=space,
                        target_norm=1.0, dimension=1, delay_r=1.0, seed=0,
                        n_nodes=65)
    traj = dde.simulate(sys, sample_one(cfg, 0), 20.0, 0.01)
    grid = checkers.default_time_grid(20.0, 1.0, 200)
    pairs = []
    lag_maxima = segment._lag_maxima

    def counting(vals, k, width):
        # the pairs of lags k .. k + width - 1, padding included
        pairs.append(vals.shape[0] * width * (vals.shape[1] - k))
        return lag_maxima(vals, k, width)

    monkeypatch.setattr(segment, "_lag_maxima", counting)
    track = checkers._norm_read(space, grid, 65).track(traj)
    assert np.isfinite(track).all()
    m = 64 * DEFAULT_REFINE + 1
    assert sum(pairs) <= 0.35 * grid.size * m * (m - 1) // 2


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
