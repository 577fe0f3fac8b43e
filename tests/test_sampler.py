"""Tests for the ball sampler: determinism, membership, family guarantees."""

import json
import math

import numpy as np
import pytest

from delaystab.sampler import FAMILIES, SamplerConfig, sample, sample_one
from delaystab.segment import (
    ParameterError,
    Segment,
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


def test_zero_norm_candidate_becomes_zero_segment(monkeypatch):
    import delaystab.sampler as mod

    def zero_builder(c, rng):
        n = (c.n_nodes, c.dimension)
        return np.zeros(n), np.zeros(n)

    monkeypatch.setitem(mod._BUILDERS, "fourier", zero_builder)
    seg = sample_one(cfg(seed=41), 3)
    assert sup_norm(seg) == 0.0
    assert isinstance(seg, Segment)


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


def test_all_families_listed():
    assert set(FAMILIES) == {"fourier", "polynomial", "piecewise_linear"}
