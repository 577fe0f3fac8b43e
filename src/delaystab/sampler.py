"""Reproducible random history segments inside closed balls of a chosen space.

Samples are indexed: sample i of a configuration is generated by a
counter-based generator keyed by (seed, i), so any sample can be recomputed
in isolation and enlarging a budget keeps every earlier sample bitwise
identical.  Each candidate is drawn from one of three analytic families,
measured in the configured space, and rescaled to land inside the ball.

Samples are drawn in stacks (sample_many) from one generator a stack,
re-keyed for each index to the state a fresh generator of (seed, i)
starts in, so each index draws its own stream.  The stack's candidates
are built, normed, scaled and checked at once, each bitwise the
candidate of its index alone, so sample_one is the stack of one and a
sample does not depend on the stack it is drawn in.

Radial placement: sample 0 is scaled onto the sphere itself (radius exactly
target_norm), later samples get a radius factor drawn uniformly from
(radial_min, 1].  The default radial_min = 0 covers the whole ball; a
positive value restricts sampling to an annulus, which the envelope fitter
uses for per-shell stratification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .segment import ParameterError, Segment, SegmentDataError, \
    SpaceSpec, _check_keys, _check_nodes, _field, _integer, _norms, _real, \
    _typed

__all__ = ["FAMILIES", "SamplerConfig", "sample", "sample_many",
           "sample_one"]

FAMILIES = ("fourier", "polynomial", "piecewise_linear")


@dataclass(frozen=True)
class SamplerConfig:
    """Everything needed to regenerate a sample stream.

    family: "fourier" (order = number of harmonics), "polynomial" (order =
    degree, 0 allowed for pure constants), or "piecewise_linear" (order =
    number of interior breakpoints).  target_space and target_norm define
    the ball; dimension and delay_r the segments; n_nodes their grid.
    """

    family: str
    order: int
    target_space: SpaceSpec
    target_norm: float
    dimension: int
    delay_r: float
    seed: int
    n_nodes: int = 201
    radial_min: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown sampler family {self.family!r}")
        if self.order < 0 or (self.family != "polynomial" and self.order < 1):
            raise ParameterError("family order must be >= 1 (polynomial: >= 0)")
        if not (self.target_norm > 0.0 and math.isfinite(self.target_norm)):
            raise ParameterError("ball radius target_norm must be positive "
                                 f"and finite, got {self.target_norm}")
        if self.dimension < 1:
            raise ParameterError("dimension must be at least 1")
        if not (self.delay_r > 0.0 and math.isfinite(self.delay_r)):
            raise ParameterError("delay r must be positive")
        if self.n_nodes < 3:
            raise ParameterError("need at least 3 segment nodes")
        if not (0.0 <= self.radial_min < 1.0):
            raise ParameterError("radial_min must lie in [0, 1)")
        if self.family == "piecewise_linear":
            # every piece must span at least two grid cells
            if self.n_nodes - 1 < 2 * (self.order + 1):
                raise ParameterError(
                    "grid too coarse for the requested breakpoint count")

    def with_shell(self, lo_fraction: float, seed_offset: int) -> "SamplerConfig":
        """Annulus restriction used for stratified shell sampling."""
        return replace(self, radial_min=lo_fraction, seed=self.seed + seed_offset)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "target_space": self.target_space.to_json_dict(),
            "target_norm": self.target_norm,
            "dimension": self.dimension,
            "delay_r": self.delay_r,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "radial_min": self.radial_min,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SamplerConfig":
        _check_keys(d, {"family", "order", "target_space", "target_norm",
                        "dimension", "delay_r", "seed"},
                    {"n_nodes", "radial_min"}, "sampler config")
        where = "sampler config"
        with _typed(where):
            return SamplerConfig(
                family=d["family"], order=_field(d, "order", _integer, where),
                target_space=SpaceSpec.from_json_dict(d["target_space"]),
                target_norm=_field(d, "target_norm", _real, where),
                dimension=_field(d, "dimension", _integer, where),
                delay_r=_field(d, "delay_r", _real, where),
                seed=_field(d, "seed", _integer, where),
                n_nodes=_field(d, "n_nodes", _integer, where, 201),
                radial_min=_field(d, "radial_min", _real, where, 0.0))


def _rng_for(cfg: SamplerConfig, index: int) -> Generator:
    """The generator of sample index: Philox keyed by (seed, index)."""
    key = np.array([np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(index)], dtype=np.uint64)
    return Generator(Philox(key=key))


def _rekey(rng: Generator, cfg: SamplerConfig, index: int) -> None:
    """Set rng to the state _rng_for(cfg, index) starts in: counter 0,
    key (seed, index) and an empty buffer, so it draws that stream
    bitwise.  Generator itself holds no stream state."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (cfg.seed & 0xFFFFFFFFFFFFFFFF, index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0}


def _index(index) -> int:
    """A sample index as an int: a whole number (segment._integer's rule)
    in [0, 2^64), the range of the generator's counter key."""
    try:
        index = _integer(index)
    except TypeError as exc:
        raise ParameterError(f"sample index: {exc}") from None
    if not 0 <= index < 1 << 64:
        raise ParameterError(f"sample index must lie in [0, 2^64), "
                             f"got {index}")
    return index


# -- candidate families ------------------------------------------------
#
# A family is a draw and a builder.  The draw takes from a sample's
# generator what that sample alone needs, in the same calls and order
# whatever the stack.  The builder takes the draws of a stack of samples
# and gives the stack's candidate values and slopes, (K, N, n) each, at
# once; every element is the same sequence of float operations as in a
# stack of one, so a candidate's bits do not depend on the stack.


@lru_cache(maxsize=64)
def _waves(r: float, n_nodes: int, order: int):
    """Each harmonic's frequency, cosine and sine on the nodes, shared by
    every component of every Fourier candidate of that grid."""
    s = np.linspace(-r, 0.0, n_nodes)
    ws = [k * math.pi / r for k in range(1, order + 1)]
    cos = np.array([np.cos(w * s) for w in ws])[:, :, None]
    sin = np.array([np.sin(w * s) for w in ws])[:, :, None]
    cos.setflags(write=False)
    sin.setflags(write=False)
    return ws, cos, sin


def _fourier_draw(cfg: SamplerConfig, rng: Generator) -> np.ndarray:
    """Per component a constant, then each harmonic's two coefficients,
    all in one draw."""
    return rng.standard_normal((cfg.dimension, 2 * cfg.order + 1))


def _fourier_block(cfg: SamplerConfig, draws: list):
    coef = np.array(draws)
    ws, cos, sin = _waves(cfg.delay_r, cfg.n_nodes, cfg.order)
    vals = np.repeat(coef[:, None, :, 0], cfg.n_nodes, axis=1)
    ders = np.zeros_like(vals)
    for k, w in enumerate(ws):
        a = coef[:, None, :, 2 * k + 1]
        b = coef[:, None, :, 2 * k + 2]
        vals += a * cos[k] + b * sin[k]
        ders += w * (b * cos[k] - a * sin[k])
    return vals, ders


def _by_node(rows: np.ndarray, count: int) -> np.ndarray:
    """(K n, N) component rows as a (K, N, n) stack."""
    return np.ascontiguousarray(
        rows.reshape(count, -1, rows.shape[-1]).transpose(0, 2, 1))


def _polynomial_draw(cfg: SamplerConfig, rng: Generator) -> np.ndarray:
    """Per component the order + 1 coefficients in powers of s / r, all
    in one draw."""
    return rng.standard_normal((cfg.dimension, cfg.order + 1))


def _polynomial_block(cfg: SamplerConfig, draws: list):
    coef = np.array(draws)
    tau = np.linspace(-cfg.delay_r, 0.0, cfg.n_nodes) / cfg.delay_r
    # one coefficient column per (sample, component)
    coef = coef.reshape(-1, cfg.order + 1).T
    poly = np.polynomial.polynomial  # numpy imports it on first use
    vals = poly.polyval(tau, coef)
    ders = poly.polyval(tau, poly.polyder(coef)) / cfg.delay_r
    return _by_node(vals, len(draws)), _by_node(ders, len(draws))


def _piece_cells(cfg: SamplerConfig, rng: Generator) -> np.ndarray:
    """Cells of each of the order + 1 pieces, at least 2 each."""
    k = cfg.order
    gaps = np.full(k + 1, 2, dtype=int)
    spare = cfg.n_nodes - 1 - 2 * (k + 1)
    if spare > 0:
        extra = rng.multinomial(spare, np.full(k + 1, 1.0 / (k + 1)))
        gaps = gaps + extra
    return gaps


def _tame_slopes(slopes: np.ndarray) -> np.ndarray:
    """Shrink the smaller slope at sign-flip kinks until it is at most half
    the larger one in magnitude; keeps the curvature of the interpolated
    kink cells inside the max-slope bound."""
    m = slopes.copy()
    for _ in range(32):
        changed = False
        for i in range(m.size - 1):
            a, b = m[i], m[i + 1]
            if a * b < 0.0:
                if abs(a) < abs(b) and abs(a) > abs(b) / 2.0:
                    m[i] = math.copysign(abs(b) / 2.0, a)
                    changed = True
                elif abs(b) < abs(a) and abs(b) > abs(a) / 2.0:
                    m[i + 1] = math.copysign(abs(a) / 2.0, b)
                    changed = True
                elif abs(a) == abs(b):
                    m[i + 1] = math.copysign(abs(a) / 2.0, b)
                    changed = True
        if not changed:
            break
    return m


def _piecewise_linear_draw(cfg: SamplerConfig, rng: Generator) -> tuple:
    """Per component the piece widths, the tamed piece slopes and the
    value at -r: the slope of each cell, (n, N), and the starts, (n,)."""
    slopes = np.empty((cfg.dimension, cfg.n_nodes - 1))
    starts = np.empty(cfg.dimension)
    for j in range(cfg.dimension):
        gaps = _piece_cells(cfg, rng)
        pieces = _tame_slopes(rng.standard_normal(cfg.order + 1))
        slopes[j] = np.repeat(pieces, gaps)
        starts[j] = rng.standard_normal()
    return slopes, starts


def _piecewise_linear_block(cfg: SamplerConfig, draws: list):
    h = cfg.delay_r / (cfg.n_nodes - 1)
    slopes = np.array([cell_slopes for cell_slopes, _ in draws])
    v0 = np.array([starts for _, starts in draws])
    vals = np.empty(slopes.shape[:2] + (cfg.n_nodes,))
    vals[..., 0] = v0
    vals[..., 1:] = v0[..., None] + np.cumsum(slopes, axis=-1) * h
    # node derivative: piece slope at interior nodes and window ends,
    # the larger-magnitude adjacent slope at a kink
    ders = np.empty_like(vals)
    ders[..., 0] = slopes[..., 0]
    ders[..., -1] = slopes[..., -1]
    left = slopes[..., :-1]
    right = slopes[..., 1:]
    ders[..., 1:-1] = np.where(np.abs(left) >= np.abs(right), left, right)
    return (np.ascontiguousarray(vals.transpose(0, 2, 1)),
            np.ascontiguousarray(ders.transpose(0, 2, 1)))


_DRAWS = {
    "fourier": _fourier_draw,
    "polynomial": _polynomial_draw,
    "piecewise_linear": _piecewise_linear_draw,
}
_BUILDERS = {
    "fourier": _fourier_block,
    "polynomial": _polynomial_block,
    "piecewise_linear": _piecewise_linear_block,
}


@lru_cache
def _shared_nodes(r: float, count: int) -> np.ndarray:
    """The count uniform nodes from -r to 0, read-only: one array for the
    samples of every stream of that delay and node count, so that the
    grid check of a block of them (dde.simulate_many) is an identity
    test."""
    nodes = np.linspace(-r, 0.0, count)
    nodes.setflags(write=False)
    return nodes


# -- public API --------------------------------------------------------


def sample_many(cfg: SamplerConfig, indices) -> list[Segment]:
    """Regenerate samples `indices` of the stream (any order, repeats
    allowed) as one stack, each bitwise its sample_one.

    One generator serves the call: re-keyed for each index (_rekey), it
    gives that index's draws, its candidate's and then its radius's, in
    the calls and order of a fresh generator of the index; the radius is
    drawn even where it goes unused (sample 0, a zero candidate).  The
    family builder computes the stack's candidates at once, one stacked
    segment._norms call norms them all and one product scales them onto
    their radii.  The scaled stack is checked once, as Segment checks
    its data (finite values and slopes, its nodes), and its rows become
    read-only segments on the one nodes array of their delay and node
    count (_shared_nodes), without a check each; the first sample that is
    not finite raises the SegmentDataError its Segment would.  An index
    that is not a whole number in [0, 2^64) is a ParameterError.  The
    norm's temporaries grow with the stack; the package draws in the
    bounded stacks of dde._sample_stacks.
    """
    indices = [_index(i) for i in indices]
    if not indices:
        return []
    rng = _rng_for(cfg, indices[0])
    draw = _DRAWS[cfg.family]
    draws, radial = [], []
    for index in indices:
        _rekey(rng, cfg, index)
        draws.append(draw(cfg, rng))
        radial.append(rng.random())
    vals, ders = _BUILDERS[cfg.family](cfg, draws)
    r = float(cfg.delay_r)
    nodes = _shared_nodes(r, cfg.n_nodes)
    norms = _norms(r, nodes, vals, ders, cfg.target_space)
    zero = norms == 0.0
    # 1 - random() lies in (0, 1]; radial_min shifts it into the annulus
    u = cfg.radial_min + (1.0 - cfg.radial_min) * (1.0 - np.array(radial))
    u[[index == 0 for index in indices]] = 1.0
    scale = np.divide(u * cfg.target_norm, norms, out=np.zeros(len(indices)),
                      where=~zero)[:, None, None]
    vals, ders = scale * vals, scale * ders
    finite = zero | (np.isfinite(vals).all(axis=(1, 2))
                     & np.isfinite(ders).all(axis=(1, 2)))
    if not finite.all():
        raise SegmentDataError("segment data must be finite")
    _check_nodes(r, nodes.tobytes())
    shape = (cfg.n_nodes, cfg.dimension)
    return [Segment._of_checked(r, nodes, np.zeros(shape), np.zeros(shape))
            if z else Segment._of_checked(r, nodes, v, d)
            for z, v, d in zip(zero.tolist(), vals, ders)]


def sample_one(cfg: SamplerConfig, index: int) -> Segment:
    """Regenerate sample `index` of the stream in isolation: the batch of
    one of sample_many."""
    return sample_many(cfg, [index])[0]


def sample(cfg: SamplerConfig, count: int) -> list[Segment]:
    """The first `count` samples of the stream, drawn in the bounded
    stacks of dde._sample_stacks."""
    if count < 1:
        raise ParameterError("sample count must be positive")
    from .dde import _sample_stacks  # dde imports this module
    return [x for stack in _sample_stacks(cfg, range(count)) for x in stack]
