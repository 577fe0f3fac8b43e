"""Tests for the ball sampler: determinism, membership, family guarantees."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.random import Generator, Philox
from hypothesis import strategies as st

import delaystab.sampler as mod
from delaystab.sampler import FAMILIES, SamplerConfig, sample, sample_many, \
    sample_one
from delaystab.segment import (
    ParameterError,
    Segment,
    SegmentDataError,
    SpaceSpec,
    hoelder_seminorm,
    space_norm,
    sup_norm,
)


def cfg(family="fourier", order=3, space=None, radius=2.0, dim=1, r=1.0,
        seed=42, n_nodes=201, radial_min=0.0):
    return SamplerConfig(
        family=family, order=order,
        target_space=space or SpaceSpec.sup(), target_norm=radius,
        dimension=dim, delay_r=r, seed=seed, n_nodes=n_nodes,
        radial_min=radial_min)


# -------------------------------------------------------------- determinism


def test_same_seed_bitwise_identical():
    c = cfg(seed=7)
    a = sample(c, 5)
    b = sample(c, 5)
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)
        assert np.array_equal(x.derivs, y.derivs)


def test_different_seeds_differ():
    a = sample(cfg(seed=1), 1)[0]
    b = sample(cfg(seed=2), 1)[0]
    assert not np.array_equal(a.values, b.values)


def test_budget_growth_preserves_prefix():
    c = cfg(seed=11)
    small = sample(c, 4)
    big = sample(c, 9)
    for x, y in zip(small, big):
        assert np.array_equal(x.values, y.values)


def test_indexed_regeneration_matches_stream():
    c = cfg(seed=13)
    stream = sample(c, 6)
    lone = sample_one(c, 4)
    assert np.array_equal(stream[4].values, lone.values)
    assert np.array_equal(stream[4].derivs, lone.derivs)


# ---------------------------------------------------------- ball membership


@pytest.mark.parametrize("family,order", [("fourier", 3), ("polynomial", 4),
                                          ("piecewise_linear", 5)])
def test_samples_lie_in_sup_ball(family, order):
    c = cfg(family=family, order=order, radius=2.0, seed=100)
    for seg in sample(c, 100):
        assert sup_norm(seg) <= 2.0 + 1e-12


@pytest.mark.parametrize("space", [SpaceSpec.sobolev(2.0),
                                   SpaceSpec.sobolev(math.inf),
                                   SpaceSpec.hoelder(0.5)])
def test_samples_lie_in_other_balls(space):
    c = cfg(space=space, radius=1.5, dim=2, seed=101)
    for seg in sample(c, 40):
        assert space_norm(seg, space) <= 1.5 + 1e-12


def test_first_sample_sits_on_the_sphere():
    for family, order in [("fourier", 2), ("polynomial", 3),
                          ("piecewise_linear", 4)]:
        c = cfg(family=family, order=order, radius=3.0, seed=5)
        seg = sample_one(c, 0)
        assert sup_norm(seg) == pytest.approx(3.0, rel=1e-12)


def test_radial_coverage_spreads_into_the_ball():
    c = cfg(radius=1.0, seed=17)
    norms = [sup_norm(s) for s in sample(c, 200)]
    assert min(norms) < 0.2
    assert max(norms) > 0.9


def test_annulus_restriction():
    c = cfg(radius=1.0, seed=19, radial_min=0.75)
    norms = [sup_norm(s) for s in sample(c, 100)]
    assert min(norms) >= 0.75 - 1e-12
    assert max(norms) <= 1.0 + 1e-12


def test_with_shell_changes_seed_and_floor():
    base = cfg(seed=3)
    shell = base.with_shell(0.5, 7)
    assert shell.radial_min == 0.5
    assert shell.seed == 10
    assert base.radial_min == 0.0


# ------------------------------------------------------- family guarantees


def test_polynomial_degree_zero_gives_constants():
    c = cfg(family="polynomial", order=0, radius=1e-3, seed=23)
    for seg in sample(c, 20):
        assert np.all(seg.derivs == 0.0)
        assert np.ptp(seg.values) == 0.0
        assert sup_norm(seg) <= 1e-3 + 1e-15


def test_piecewise_linear_hoelder_one_equals_max_slope():
    c = cfg(family="piecewise_linear", order=6, radius=2.0,
            space=SpaceSpec.hoelder(1.0), seed=29)
    for i in range(20):
        seg = sample_one(c, i)
        semi = hoelder_seminorm(seg, 1.0)
        max_slope = np.abs(seg.derivs).max()
        assert semi == pytest.approx(max_slope, rel=1e-9)


def test_piecewise_linear_pieces_span_two_cells():
    c = cfg(family="piecewise_linear", order=9, n_nodes=21, seed=31)
    for i in range(10):
        seg = sample_one(c, i)
        d = seg.derivs[:, 0]
        # interior node derivs equal an adjacent piece slope, so a piece
        # narrower than two cells would leave some slope without any
        # interior node carrying it; check the value profile directly
        cell_slopes = np.diff(seg.values[:, 0]) / seg.spacing
        change = np.nonzero(np.abs(np.diff(cell_slopes)) > 1e-10)[0]
        if change.size > 1:
            assert np.all(np.diff(change) >= 2)
        assert d.shape == (21,)


def test_fourier_derivatives_are_analytic():
    c = cfg(family="fourier", order=2, seed=37, n_nodes=401)
    seg = sample_one(c, 1)
    s = seg.nodes
    fd = np.gradient(seg.values[:, 0], s)
    # centered differences of a band-limited function track the stored
    # analytic derivative to second order
    assert np.allclose(fd[1:-1], seg.derivs[1:-1, 0], atol=5e-3)



def _fourier_wave_per_term(c, rng):
    """The Fourier candidate with each harmonic's cosine and sine taken
    afresh in each term that uses them, as the sampler took them before
    it shared each harmonic's wave."""
    s = np.linspace(-c.delay_r, 0.0, c.n_nodes)
    vals = np.zeros((c.n_nodes, c.dimension))
    ders = np.zeros((c.n_nodes, c.dimension))
    for j in range(c.dimension):
        vals[:, j] = rng.standard_normal()
        for k in range(1, c.order + 1):
            a, b = rng.standard_normal(2)
            w = k * math.pi / c.delay_r
            vals[:, j] += a * np.cos(w * s) + b * np.sin(w * s)
            ders[:, j] += w * (b * np.cos(w * s) - a * np.sin(w * s))
    return vals, ders


def _polynomial_alone(c, rng):
    """The polynomial candidate of one sample, one component at a time,
    as the sampler built it before it built stacks."""
    tau = np.linspace(-c.delay_r, 0.0, c.n_nodes) / c.delay_r
    vals = np.zeros((c.n_nodes, c.dimension))
    ders = np.zeros((c.n_nodes, c.dimension))
    for j in range(c.dimension):
        coeffs = rng.standard_normal(c.order + 1)
        vals[:, j] = np.polynomial.polynomial.polyval(tau, coeffs)
        dcoeffs = np.polynomial.polynomial.polyder(coeffs)
        if dcoeffs.size:
            ders[:, j] = np.polynomial.polynomial.polyval(tau, dcoeffs) \
                / c.delay_r
    return vals, ders


def _piecewise_linear_alone(c, rng):
    """The piecewise-linear candidate of one sample, one component at a
    time, as the sampler built it before it built stacks."""
    k, n_cells = c.order, c.n_nodes - 1
    h = c.delay_r / n_cells
    vals = np.zeros((c.n_nodes, c.dimension))
    ders = np.zeros((c.n_nodes, c.dimension))
    for j in range(c.dimension):
        gaps = np.full(k + 1, 2, dtype=int)
        spare = n_cells - 2 * (k + 1)
        if spare > 0:
            gaps = gaps + rng.multinomial(spare, np.full(k + 1, 1.0 / (k + 1)))
        breaks = np.cumsum(gaps)[:-1]
        slopes = mod._tame_slopes(rng.standard_normal(k + 1))
        piece_of_cell = np.zeros(n_cells, dtype=int)
        for b in breaks:
            piece_of_cell[b:] += 1
        cell_slope = slopes[piece_of_cell]
        v0 = rng.standard_normal()
        vals[0, j] = v0
        vals[1:, j] = v0 + np.cumsum(cell_slope) * h
        ders[0, j] = cell_slope[0]
        ders[-1, j] = cell_slope[-1]
        left, right = cell_slope[:-1], cell_slope[1:]
        ders[1:-1, j] = np.where(np.abs(left) >= np.abs(right), left, right)
    return vals, ders


ALONE = {"fourier": _fourier_wave_per_term, "polynomial": _polynomial_alone,
         "piecewise_linear": _piecewise_linear_alone}


def _key_rng(c, index):
    """A fresh generator of sample index: Philox keyed by (seed, index)."""
    return Generator(Philox(key=np.array(
        [c.seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))


def _lone_sample(c, index):
    """Sample `index` as the sampler drew it before it drew stacks: its
    candidate alone, from a fresh generator of its key, normed by
    space_norm and scaled as a Segment."""
    rng = _key_rng(c, index)
    vals, ders = ALONE[c.family](c, rng)
    candidate = Segment.from_samples(c.delay_r, vals, ders)
    norm = space_norm(candidate, c.target_space)
    if norm == 0.0:
        return Segment.zero(c.delay_r, c.dimension, c.n_nodes)
    u = 1.0 if index == 0 else \
        c.radial_min + (1.0 - c.radial_min) * (1.0 - rng.random())
    return candidate * (u * c.target_norm / norm)


class _Replay:
    """The normals of a sample's draw, handed out again in their order,
    as its generator gave them."""

    def __init__(self, draw):
        self.left = iter(np.ravel(draw).tolist())

    def standard_normal(self, size=None):
        if size is None:
            return next(self.left)
        return np.array([next(self.left) for _ in range(size)])


def _stacked(builder):
    """A block builder that builds each sample of a stack alone, from the
    normals its family's draw took."""
    def block(c, draws):
        vals, ders = zip(*(builder(c, _Replay(d)) for d in draws))
        return np.stack(vals), np.stack(ders)

    return block


def _same_bytes(a, b):
    return (a.nodes.tobytes(), a.values.tobytes(), a.derivs.tobytes()) \
        == (b.nodes.tobytes(), b.values.tobytes(), b.derivs.tobytes())


@pytest.mark.parametrize("dim", [1, 3])
def test_fourier_samples_share_each_wave_bitwise(monkeypatch, dim):
    """Samples 0-49 of a Fourier stream are, in every byte, those whose
    waves are taken afresh in each term."""
    c = cfg(space=SpaceSpec.sobolev(2.0), dim=dim, r=0.7, seed=4, n_nodes=65)
    got = [sample_one(c, i) for i in range(50)]
    monkeypatch.setitem(mod._BUILDERS, "fourier",
                        _stacked(_fourier_wave_per_term))
    for i, seg in enumerate(got):
        want = sample_one(c, i)
        assert seg.values.tobytes() == want.values.tobytes()
        assert seg.derivs.tobytes() == want.derivs.tobytes()


# sha256 of the values and slopes of Fourier samples 0-11 (seed 5, r 1,
# 33 nodes, unit sup ball), recorded when each coefficient was its own
# standard_normal call: one draw per sample reads the same stream
FOURIER_DIGESTS = {
    (1, 1): "23ec0262aa5f9f248fe9c2978b54bdf80cdacf258fb725b892e884be190d7f0d",
    (1, 3): "bcd7d7c231c4925d2c977e7b52c2d463db30356fc4d17e8ca13bd0796edcada6",
    (2, 1): "e3d86f247e1489ae3127c9264df0ee8711fbcf760edbee5c5280de539a39591a",
    (2, 3): "e6ab7b0cfc179322af87ae5c0b4c77ebf6e5ecd7a464b0ce6959f74139270bce",
}


@pytest.mark.parametrize("dim, order", sorted(FOURIER_DIGESTS))
def test_fourier_coefficients_are_one_draw_of_the_same_stream(dim, order):
    c = SamplerConfig(family="fourier", order=order,
                      target_space=SpaceSpec.sup(), target_norm=1.0,
                      dimension=dim, delay_r=1.0, seed=5, n_nodes=33)
    digest = hashlib.sha256()
    for x in sample_many(c, range(12)):
        digest.update(x.values.tobytes())
        digest.update(x.derivs.tobytes())
    assert digest.hexdigest() == FOURIER_DIGESTS[dim, order]


SPACES = [SpaceSpec.sup(), SpaceSpec.sobolev(2.0), SpaceSpec.sobolev(math.inf),
          SpaceSpec.hoelder(0.5), SpaceSpec.hoelder(1.0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_stacks_are_their_lone_samples_and_lie_in_their_ball(data):
    """sample_many of any index list (repeats, any order, gaps) is in
    every byte the list of sample_one draws and of the draws of the
    per-sample sampler; every sample's norm lies in [radial_min rho,
    rho] and sample 0 sits on the sphere, to 1e-12 relative."""
    family, order = data.draw(st.sampled_from(
        [("fourier", 1), ("fourier", 3), ("polynomial", 0),
         ("polynomial", 4), ("piecewise_linear", 1),
         ("piecewise_linear", 5)]))
    space = data.draw(st.sampled_from(SPACES))
    c = cfg(family=family, order=order, space=space,
            radius=data.draw(st.sampled_from([1e-3, 1.0, 2.5])),
            dim=data.draw(st.integers(1, 3)),
            r=data.draw(st.sampled_from([0.3, 1.0, 7.0])),
            seed=data.draw(st.integers(0, 2**40)),
            n_nodes=data.draw(st.sampled_from([21, 65])),
            radial_min=data.draw(st.sampled_from([0.0, 0.3, 0.9])))
    indices = data.draw(st.lists(
        st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1)),
        min_size=1, max_size=12))
    got = sample_many(c, indices)
    assert len(got) == len(indices)
    for index, seg in zip(indices, got):
        assert _same_bytes(seg, sample_one(c, index))
        assert _same_bytes(seg, _lone_sample(c, index))
        norm = space_norm(seg, space)
        rho = c.target_norm
        assert c.radial_min * rho * (1.0 - 1e-12) <= norm \
            <= rho * (1.0 + 1e-12)
        if index == 0:
            assert norm == pytest.approx(rho, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family, order, space", [
    ("fourier", 3, SpaceSpec.sobolev(2.0)), ("polynomial", 2, SpaceSpec.sup()),
    ("piecewise_linear", 3, SpaceSpec.hoelder(0.5))])
def test_stacks_are_the_streams_of_fresh_keyed_generators(family, order,
                                                          space):
    """sample_many draws every index of a stack from one generator that
    it re-keys; each sample is bitwise the one drawn from a fresh
    Generator(Philox(key=[seed, index])) of its own, for stacks of 1 to
    40 shuffled indices with repeats, the last index of the counter
    range among them, and a seed past 2^63."""
    c = cfg(family=family, order=order, space=space, dim=2, r=0.7,
            seed=2**63 + 11, n_nodes=33, radial_min=0.2)
    pool = list(range(25)) + [2**64 - 1, 2**63, 2**32 + 1]
    lone = {index: _lone_sample(c, index) for index in pool}
    shuffle = np.random.default_rng(7)
    for size in range(1, 41):
        indices = shuffle.choice(len(pool), size).tolist()  # repeats too
        indices = [pool[k] for k in indices]
        for index, seg in zip(indices, sample_many(c, indices)):
            assert _same_bytes(seg, lone[index]), (size, index)


def _spoiled(monkeypatch, at, part):
    """Let the Fourier builder make part (0 values, 1 slopes) of the
    candidate at stack row at NaN in one node."""
    build = mod._BUILDERS["fourier"]

    def spoiled(c, draws):
        out = build(c, draws)
        if at < len(draws):
            out[part][at, 5, 0] = math.nan
        return out

    monkeypatch.setitem(mod._BUILDERS, "fourier", spoiled)


@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("at", [0, 4, 9])
def test_a_sample_that_is_not_finite_raises_as_its_segment_does(monkeypatch,
                                                                at, part):
    """The scaled stack is checked once, values and slopes: a NaN in the
    candidate of the sample at stack position at raises the
    SegmentDataError that its Segment raises, with every stack that holds
    it, and no stack of the samples before it raises."""
    c = cfg(seed=3, n_nodes=33)
    good = sample_many(c, range(at))
    _spoiled(monkeypatch, at, part)
    assert all(_same_bytes(x, y) for x, y in zip(sample_many(c, range(at)),
                                                 good))
    with pytest.raises(SegmentDataError) as alone:
        x = sample_one(c, at) if at == 0 else good[0]
        data = [x.values.copy(), x.derivs.copy()]
        data[part][5, 0] = math.nan
        Segment(x.delay_r, x.nodes, *data)
    for stop in (at + 1, 10):
        with pytest.raises(SegmentDataError) as stacked:
            sample_many(c, range(stop))
        assert str(stacked.value) == str(alone.value)


def test_zero_norm_candidate_becomes_zero_segment(monkeypatch):
    def zero_builder(c, rngs):
        n = (len(rngs), c.n_nodes, c.dimension)
        return np.zeros(n), np.zeros(n)

    monkeypatch.setitem(mod._BUILDERS, "fourier", zero_builder)
    seg = sample_one(cfg(seed=41), 3)
    assert sup_norm(seg) == 0.0
    assert isinstance(seg, Segment)
    assert all(sup_norm(s) == 0.0 for s in sample_many(cfg(seed=41),
                                                        [0, 5, 5]))


@pytest.mark.parametrize("index", [0.5, 1.7, True, False, -1, 2**64, 1e20,
                                   "1", None, math.nan])
def test_bad_sample_indices_are_refused(index):
    """An index that is not a whole number in [0, 2^64) is refused, in a
    list as alone, before anything is drawn; 0.5 is no history of the
    stream and 1.7 and True are not sample 1."""
    with pytest.raises(ParameterError, match="sample index"):
        sample_one(cfg(), index)
    with pytest.raises(ParameterError, match="sample index"):
        sample_many(cfg(), [0, index])


def test_whole_number_indices_are_their_samples():
    """segment._integer's rule: an integral float or numpy integer is
    that index; the last index of the counter range is a sample."""
    c = cfg(seed=43)
    for alias, index in [(1.0, 1), (np.int64(7), 7), (np.uint64(3), 3)]:
        assert _same_bytes(sample_one(c, alias), sample_one(c, index))
    assert _same_bytes(sample_one(c, 2**64 - 1), _lone_sample(c, 2**64 - 1))
    assert sample_many(c, []) == []


# ------------------------------------------------------------- validation


def test_family_validation():
    with pytest.raises(ParameterError):
        cfg(family="spline")
    with pytest.raises(ParameterError):
        cfg(family="fourier", order=0)
    with pytest.raises(ParameterError):
        cfg(radius=0.0)
    with pytest.raises(ParameterError):
        cfg(radial_min=1.0)
    with pytest.raises(ParameterError):
        cfg(family="piecewise_linear", order=10, n_nodes=21)
    with pytest.raises(ParameterError):
        sample(cfg(), 0)
    with pytest.raises(ParameterError):
        sample_one(cfg(), -1)


def test_polynomial_order_zero_allowed():
    c = cfg(family="polynomial", order=0)
    assert c.order == 0


# ----------------------------------------------------------- serialization


def test_config_json_round_trip():
    c = cfg(family="piecewise_linear", order=4, space=SpaceSpec.sobolev(2.0),
            radius=1.25, dim=3, r=0.5, seed=99, n_nodes=101, radial_min=0.25)
    back = SamplerConfig.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert back == c


def test_config_rejects_unknown_keys():
    d = cfg().to_json_dict()
    d["bogus"] = 1
    with pytest.raises(ParameterError):
        SamplerConfig.from_json_dict(d)
    d = cfg().to_json_dict()
    d["target_space"] = {"kind": "sup", "p": 2}
    with pytest.raises(ParameterError, match="'p'"):
        SamplerConfig.from_json_dict(d)
    # a wrong-typed value is a ParameterError too, not a TypeError
    d = cfg().to_json_dict()
    d["order"] = None
    with pytest.raises(ParameterError, match="sampler config"):
        SamplerConfig.from_json_dict(d)


def test_all_families_listed():
    assert set(FAMILIES) == {"fourier", "polynomial", "piecewise_linear"}
