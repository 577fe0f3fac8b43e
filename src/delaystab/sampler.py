"""Reproducible random history segments inside closed balls of a chosen space.

Samples are indexed: sample i of a configuration is generated by a
counter-based generator keyed by (seed, i), so any sample can be recomputed
in isolation and enlarging a budget keeps every earlier sample bitwise
identical.  Each candidate is drawn from one of three analytic families,
measured in the configured space, and rescaled to land inside the ball.

Radial placement: sample 0 is scaled onto the sphere itself (radius exactly
target_norm), later samples get a radius factor drawn uniformly from
(radial_min, 1].  The default radial_min = 0 covers the whole ball; a
positive value restricts sampling to an annulus, which the envelope fitter
uses for per-shell stratification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .segment import ParameterError, Segment, SpaceSpec, _check_keys, \
    space_norm

__all__ = ["FAMILIES", "SamplerConfig", "sample", "sample_one"]

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
            raise ParameterError("ball radius target_norm must be positive")
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
        return SamplerConfig(
            family=d["family"], order=int(d["order"]),
            target_space=SpaceSpec.from_json_dict(d["target_space"]),
            target_norm=float(d["target_norm"]), dimension=int(d["dimension"]),
            delay_r=float(d["delay_r"]), seed=int(d["seed"]),
            n_nodes=int(d.get("n_nodes", 201)),
            radial_min=float(d.get("radial_min", 0.0)))


def _rng_for(cfg: SamplerConfig, index: int) -> Generator:
    key = np.array([np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(index)], dtype=np.uint64)
    return Generator(Philox(key=key))


# -- candidate families ------------------------------------------------


def _fourier_candidate(cfg: SamplerConfig, rng: Generator):
    s = np.linspace(-cfg.delay_r, 0.0, cfg.n_nodes)
    vals = np.zeros((cfg.n_nodes, cfg.dimension))
    ders = np.zeros((cfg.n_nodes, cfg.dimension))
    for j in range(cfg.dimension):
        vals[:, j] = rng.standard_normal()
        for k in range(1, cfg.order + 1):
            a, b = rng.standard_normal(2)
            w = k * math.pi / cfg.delay_r
            vals[:, j] += a * np.cos(w * s) + b * np.sin(w * s)
            ders[:, j] += w * (b * np.cos(w * s) - a * np.sin(w * s))
    return vals, ders


def _polynomial_candidate(cfg: SamplerConfig, rng: Generator):
    s = np.linspace(-cfg.delay_r, 0.0, cfg.n_nodes)
    tau = s / cfg.delay_r
    vals = np.zeros((cfg.n_nodes, cfg.dimension))
    ders = np.zeros((cfg.n_nodes, cfg.dimension))
    for j in range(cfg.dimension):
        coeffs = rng.standard_normal(cfg.order + 1)
        vals[:, j] = np.polynomial.polynomial.polyval(tau, coeffs)
        dcoeffs = np.polynomial.polynomial.polyder(coeffs)
        if dcoeffs.size:
            ders[:, j] = np.polynomial.polynomial.polyval(tau, dcoeffs) / cfg.delay_r
    return vals, ders


def _breakpoint_cells(cfg: SamplerConfig, rng: Generator) -> np.ndarray:
    """Cell indices of the interior breakpoints, pieces >= 2 cells wide."""
    k = cfg.order
    n_cells = cfg.n_nodes - 1
    gaps = np.full(k + 1, 2, dtype=int)
    spare = n_cells - 2 * (k + 1)
    if spare > 0:
        extra = rng.multinomial(spare, np.full(k + 1, 1.0 / (k + 1)))
        gaps = gaps + extra
    return np.cumsum(gaps)[:-1]


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


def _piecewise_linear_candidate(cfg: SamplerConfig, rng: Generator):
    n_cells = cfg.n_nodes - 1
    h = cfg.delay_r / n_cells
    vals = np.zeros((cfg.n_nodes, cfg.dimension))
    ders = np.zeros((cfg.n_nodes, cfg.dimension))
    for j in range(cfg.dimension):
        breaks = _breakpoint_cells(cfg, rng)
        slopes = _tame_slopes(rng.standard_normal(cfg.order + 1))
        piece_of_cell = np.zeros(n_cells, dtype=int)
        for b in breaks:
            piece_of_cell[b:] += 1
        cell_slope = slopes[piece_of_cell]
        v0 = rng.standard_normal()
        vals[0, j] = v0
        vals[1:, j] = v0 + np.cumsum(cell_slope) * h
        # node derivative: piece slope at interior nodes and window ends,
        # the larger-magnitude adjacent slope at a kink
        ders[0, j] = cell_slope[0]
        ders[-1, j] = cell_slope[-1]
        left = cell_slope[:-1]
        right = cell_slope[1:]
        ders[1:-1, j] = np.where(np.abs(left) >= np.abs(right), left, right)
    return vals, ders


_BUILDERS = {
    "fourier": _fourier_candidate,
    "polynomial": _polynomial_candidate,
    "piecewise_linear": _piecewise_linear_candidate,
}


# -- public API --------------------------------------------------------


def sample_one(cfg: SamplerConfig, index: int) -> Segment:
    """Regenerate sample `index` of the stream in isolation."""
    if index < 0:
        raise ParameterError("sample index must be nonnegative")
    rng = _rng_for(cfg, index)
    vals, ders = _BUILDERS[cfg.family](cfg, rng)
    candidate = Segment.from_samples(cfg.delay_r, vals, ders)
    norm = space_norm(candidate, cfg.target_space)
    if norm == 0.0:
        return Segment.zero(cfg.delay_r, cfg.dimension, cfg.n_nodes)
    if index == 0:
        u = 1.0
    else:
        # 1 - random() lies in (0, 1]; radial_min shifts it into the annulus
        u = cfg.radial_min + (1.0 - cfg.radial_min) * (1.0 - rng.random())
    return candidate * (u * cfg.target_norm / norm)


def sample(cfg: SamplerConfig, count: int) -> list[Segment]:
    """The first `count` samples of the stream."""
    if count < 1:
        raise ParameterError("sample count must be positive")
    return [sample_one(cfg, i) for i in range(count)]
