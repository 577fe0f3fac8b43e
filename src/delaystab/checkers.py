"""Empirical stability checkers: sampling, falsification, envelope fitting.

Every property tested here quantifies over a ball of initial histories, so
no finite experiment can prove it; the checkers report one of three
verdicts.  "falsified" always comes with a witness that can be regenerated
bitwise from its recorded sampler coordinates.  "consistent" means the
sampled evidence fits the property at the configured tolerances, and
"inconclusive" means the horizon or the sample budget ended the experiment
before either of the other verdicts was earned.

The envelope fitter bins initial norms into geometric shells, records the
worst observed trajectory norm per shell per report time, and then closes
the table upward into a two-argument monotone shape (nondecreasing in the
shell radius, nonincreasing in time): the smallest such majorant of the
data.  Everything downstream (the sup-to-full-norm lift, the propagation
constant, the domination checks) evaluates this table conservatively:
ceiling shell in the radius argument, step-left in the time argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Callable, NamedTuple

import numpy as np

from .dde import DelaySystem, Trajectory, _block_members, _row_counts, \
    _segment_chunk, _segment_nodes, simulate_many
from .dde import simulate  # noqa: F401  (unused; bench tests look it up here)
from .sampler import SamplerConfig, sample_one
from .segment import DEFAULT_REFINE, ParameterError, Segment, SpaceSpec, \
    _euclid, _norms, space_norm

__all__ = [
    "KLEnvelope",
    "StabilityReport",
    "check_envelope_lift",
    "check_ga",
    "check_gas_vs_ugas",
    "check_lags",
    "check_ls",
    "check_rfc",
    "check_uga",
    "default_time_grid",
    "fit_kl_envelope",
    "lift_sup_envelope",
    "lipschitz_propagation_bound",
    "verify_pair_bounds",
]

_REL_TOL = 1e-9


def default_time_grid(horizon: float, r: float, points: int = 200) -> np.ndarray:
    """Report times: linear up to the delay, geometric afterwards."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ParameterError("horizon must be positive and finite")
    points = int(points)
    if points < 4:
        raise ParameterError("need at least 4 report times")
    if horizon <= r:
        return np.linspace(0.0, horizon, points)
    n_lin = max(2, points // 4)
    lin = np.linspace(0.0, r, n_lin, endpoint=False)
    geo = np.geomspace(r, horizon, points - n_lin)
    return np.concatenate([lin, geo])


def _report_grid(t_grid, horizon: float, r: float,
                 points: int) -> np.ndarray:
    """A caller's report times, checked, or the default grid without them."""
    if t_grid is None:
        return default_time_grid(horizon, r, points)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ParameterError("t_grid must be a non-empty list of times")
    if not np.all(np.isfinite(t_grid)) or t_grid[0] < 0.0 \
            or np.any(np.diff(t_grid) <= 0.0):
        raise ParameterError(
            "t_grid must be finite, nonnegative and strictly increasing")
    return t_grid


def _exponent_of(space: SpaceSpec) -> float:
    """Derivative exponent paired with a space for the window factor r^(1/p)."""
    if space.kind == "sobolev":
        return space.p
    if space.kind == "hoelder":
        return math.inf if space.a >= 1.0 else 1.0 / (1.0 - space.a)
    return math.inf


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def _grown(start: float, x: float) -> float:
    """start * e^x (start >= 0); 0 at start 0, +inf past the float range."""
    if start == 0.0:
        return 0.0
    try:
        return start * math.exp(x)
    except OverflowError:
        return math.inf


def _step_defaults(r: float, h: float | None,
                   horizon: float | None = None) -> tuple[float, float]:
    """Solver step and horizon, defaulting to r/100 and 20 r."""
    return (r / 100.0 if h is None else h,
            20.0 * r if horizon is None else horizon)


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, np.floating):
        return _json_safe(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


# -- norm tracking -----------------------------------------------------


def _covered(traj: Trajectory, times) -> int:
    """How many leading times lie in the covered range (up to escape)."""
    tol = 1e-12 * max(traj.system.delay_r, 1.0)
    past = np.flatnonzero(np.asarray(times) > traj.end_time + tol)
    return int(past[0]) if past.size else len(times)


def _segment_stacks(traj: Trajectory, times, seg_nodes: int):
    """Yield (lo, s, values, derivs): the node data of the segments x_t
    at times[lo:lo + K], stacked (K, seg_nodes, n), K times at a time as
    dde._segment_chunk allows."""
    times = np.asarray(times, dtype=float)
    size = _segment_chunk(seg_nodes, traj.system.dimension)
    for lo in range(0, times.size, size):
        yield (lo, *_segment_nodes(traj, times[lo:lo + size], seg_nodes))


def _track(traj: Trajectory, times, seg_nodes: int | None,
           evaluate: Callable[..., np.ndarray] | None,
           lam: float | None = None) -> np.ndarray:
    """A functional of the history segment x_t at each time.

    Times past the covered end (escape) give +inf.  Without lam, evaluate
    takes stacked segments, (r, nodes, values, derivs) with node data
    (K, seg_nodes, n), to K values (or K arrays of one shape), and the
    track reads a chunk of times at a time through _segment_stacks (each
    row bitwise segment_at), so each value is evaluate of x_t alone
    whatever the chunk size.

    With lam the value is the window max of e^(lam s)|x_t(s)|, taken over
    one candidate set that every time shares: the initial segment's
    refined grid plus the forward solver mesh, weighted once as
    e^(lam u)|x(u)|.  Each window max then reads the same history points
    as the t = 0 evaluation, so decay ratios carry no resampling noise
    (exact on constants).  All windows [t - r, t] are located by two
    searchsorted calls and their maxima taken by one maximum.reduceat,
    which is exact, so each value is bitwise that of a per-time slice
    max.  Weighting relative to u = 0 is kept where it loses nothing:
    |lam| max(t, r) < 708, so that e^(lam u) and e^(-lam t) are normal
    floats, and the window max and the value are normal floats too
    (always so with lam = 0).  Any other window, such as one far along a
    long horizon where e^(lam u) overflows or its product with |x(u)|
    underflows, is weighted relative to its own time, as
    e^(lam (u - t))|x(u)|, which is e^(lam s)|x_t(s)| itself.

    traj may be a piece that dde.simulate_many hands on, if it holds
    every row the times read: from the first row of each window (later
    pieces start past the history) to the right node of the time's cell.
    Every value is then bitwise that of the whole trajectory: the reads
    of the cells gather fresh rows, and the window max takes the norms
    of a contiguous copy of the piece's strided rows.
    """
    r = traj.system.delay_r
    covered = _covered(traj, times)
    t = np.asarray(times[:covered], dtype=float)
    if lam is None:
        parts = [evaluate(r, s, vals, ders)
                 for _, s, vals, ders in _segment_stacks(traj, t, seg_nodes)]
        if not parts:
            return np.full(len(times), np.inf)
        got = np.concatenate(parts)
        out = np.full((len(times),) + got.shape[1:], np.inf)
        out[:covered] = got
        return out
    out = np.full(len(times), np.inf)
    ft, fv = traj.forward_times, np.ascontiguousarray(traj.forward_values)
    if traj.first_row == 0:
        s, vals = traj.initial._refined_values(DEFAULT_REFINE)
        u = np.concatenate([s, ft[1:]])
        mags = np.concatenate([_euclid(vals), _euclid(fv[1:])])
    else:
        u, mags = ft, _euclid(fv)
    lo = np.searchsorted(u, t - r - 1e-15 * r, side="left")
    hi = np.searchsorted(u, t + 1e-15 * np.maximum(r, np.abs(t)),
                         side="right")
    # every window holds a node: it is r long and no gap of the candidate
    # set (a refined history cell, a solver step) exceeds r / 10; in a
    # later piece every window starts past its first row
    assert np.all(lo < hi) and (traj.first_row == 0 or np.all(lo > 0))
    near = abs(lam) * np.maximum(t, r) < 708.0
    if np.any(near):
        top = int(hi[near].max())
        with np.errstate(over="ignore"):
            g = np.exp(lam * u[:top]) * mags[:top]
        # the -inf pad makes top a valid bound; no window reaches it
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


class _Read(NamedTuple):
    """One track an ensemble takes of each member: _track(traj, times,
    seg_nodes, evaluate, lam), with times nondecreasing.  With times None
    it is evaluate of the forward rows, (m, n) to m values, one a mesh
    node.  A value is width floats (evaluate's shape past the first axis),
    which the ensemble counts against the block's memory."""

    times: np.ndarray | None
    seg_nodes: int | None
    evaluate: Callable | None
    lam: float | None = None
    width: int = 1

    def track(self, traj: Trajectory) -> np.ndarray:
        """The track of a whole trajectory, or of a piece of its rows."""
        return _track(traj, self.times, self.seg_nodes, self.evaluate,
                      self.lam)

    def held(self, rows: int) -> int:
        """Bytes the track keeps of a member whose mesh has rows nodes."""
        return 8 * self.width * (rows if self.times is None
                                 else self.times.size)


def _norm_read(space: SpaceSpec, grid: np.ndarray, seg_nodes: int) -> _Read:
    """The report-space norm of x_t at each grid time; +inf past the
    covered end.  Sup is the lam = 0 window max of _track; the other
    spaces are its stacked track with segment._norms, each value bitwise
    space_norm(segment_at(traj, t, seg_nodes), space)."""
    if space.kind == "sup":
        return _Read(grid, seg_nodes, None, 0.0)
    return _Read(grid, seg_nodes, partial(_norms, space=space))


def _ball_cfg(sys: DelaySystem, space: SpaceSpec, radius: float, family: str,
              order: int, seed: int, n_nodes: int) -> SamplerConfig:
    return SamplerConfig(family=family, order=order, target_space=space,
                         target_norm=radius, dimension=sys.dimension,
                         delay_r=sys.delay_r, seed=seed, n_nodes=n_nodes)


class _Run(NamedTuple):
    """One history of an ensemble: its escape, if any, and its reads."""

    x0: Segment
    escaped: bool
    escape_time: float | None
    tracks: list


class _Reader:
    """The reads of one member, taken piece by piece as its rows settle.

    A piece that is not the member's last reads the times whose cell,
    int(t / h), ends at or before its last row; the final piece reads
    the rest, +inf past the end.  Window maxima and stacked norms are
    exact per time, so each value is bitwise that of the whole trajectory.
    A row read takes each row once, and its values are one array at the
    end.
    """

    def __init__(self, reads: list):
        self.reads = reads
        self.done = [0] * len(reads)
        self.parts = [[] for _ in reads]
        self.tracks = [None] * len(reads)
        self.escape_time = None

    def __call__(self, piece: Trajectory):
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
            got = read._replace(times=times[done:stop]).track(piece)
            if self.tracks[q] is None:
                self.tracks[q] = np.full((times.size,) + got.shape[1:],
                                         np.inf)
            # past the end a node-stack read is +inf in every entry
            self.tracks[q][done:stop] = got.reshape(
                got.shape + (1,) * (self.tracks[q].ndim - got.ndim))
            self.done[q] = stop
        if piece.final:
            self.escape_time = piece.escape_time
            for q, read in enumerate(self.reads):
                if self.tracks[q] is None:
                    self.tracks[q] = np.full(read.times.size, np.inf)


def _ensemble(sys: DelaySystem, x0s, T: float, h: float, reads: list,
              every: bool = False):
    """Yield a _Run per history x0 of the iterable x0s, in their order:
    x0 integrated over [0, T], its escape, and one array per read of
    reads (see _Read).

    Every integration of sampled histories goes through here: the
    checkers' ensembles, the `ls` bisection probes and the Dini ladders
    of the dissipation certificate.  The histories are drawn from x0s and
    integrated a block at a time, as many as their windows of dense
    output fit dde.BLOCK_BYTES together with what their reads keep
    (dde._block_members), and each member's reads are taken from its rows
    chunk by chunk as they settle, so no whole trajectory is held.  A
    horizon that fits one window is one chunk.  Lazy per block, so a
    caller that stops at its first counterexample neither draws nor
    integrates anything past its block.  Such a caller's first block holds
    only as many histories as whole horizons fit, one chunk, so an early
    counterexample costs no more than that; the blocks after it, and every
    block of a caller that reads every history (every), are as wide as
    their windows allow.
    """
    x0s = iter(x0s)
    held = sum(read.held(_row_counts(sys, T, h)[0]) for read in reads)
    wide = _block_members(sys, T, h, held)
    size = wide if every else _block_members(sys, T, h, held, whole=True)
    while block := list(islice(x0s, size)):
        readers = [_Reader(reads) for _ in block]
        simulate_many(sys, block, T, h, held=held,
                      take=lambda b, piece: readers[b](piece))
        for x0, got in zip(block, readers):
            yield _Run(x0, got.escape_time is not None, got.escape_time,
                       got.tracks)
        size = wide


def _samples(cfg: SamplerConfig, count: int):
    """Samples 0 .. count-1 of cfg, drawn lazily."""
    return (sample_one(cfg, i) for i in range(count))


def _witness(cfg: SamplerConfig, index: int, seg: Segment, time: float,
             norm: float, scale: float | None = None) -> dict:
    w = {"sampler": cfg.to_json_dict(), "index": int(index),
         "time": float(time), "norm": float(norm),
         "segment": seg.to_json_dict()}
    if scale is not None:
        w["scale"] = float(scale)
    return w


# -- report ------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one empirical property check."""

    property: str
    space: SpaceSpec
    verdict: str
    witness: dict | None
    margins: dict
    sample_budget: dict
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("consistent", "falsified", "inconclusive"):
            raise ParameterError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "falsified" and self.witness is None:
            raise ParameterError("a falsified report must carry a witness")

    def to_json_dict(self) -> dict:
        return _json_safe({
            "property": self.property,
            "space": self.space.to_json_dict(),
            "verdict": self.verdict,
            "witness": self.witness,
            "margins": self.margins,
            "sample_budget": self.sample_budget,
            "details": self.details,
        })


# -- KL envelopes ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KLEnvelope:
    """Grid majorant sigma(shell radius, time) with two-argument monotonicity.

    sigma is nondecreasing along the shell axis and nonincreasing along the
    time axis.  decayed means every shell fell below 5 percent of its
    starting value by the last report time; nondecay means some shell still
    exceeds half its starting value there.  interpolated marks shell rows
    that received no samples and were filled from their neighbors.
    """

    s_grid: np.ndarray
    t_grid: np.ndarray
    sigma: np.ndarray
    shell_counts: np.ndarray
    interpolated: np.ndarray
    decayed: bool
    nondecay: bool

    def assert_kl_shape(self):
        s, t, sig = self.s_grid, self.t_grid, self.sigma
        if s.ndim != 1 or t.ndim != 1 or sig.shape != (s.size, t.size):
            raise ParameterError("envelope grids and matrix do not line up")
        if np.any(np.diff(s) <= 0.0) or np.any(s <= 0.0):
            raise ParameterError("shell grid must be positive increasing")
        if np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
            raise ParameterError("time grid must be nonnegative increasing")
        if np.any(np.isnan(sig)):
            raise ParameterError("envelope entries must not be NaN")
        # inf entries from escapes make inf - inf diffs; those are fine
        with np.errstate(invalid="ignore"):
            if np.any(np.diff(sig, axis=0) < 0.0):
                raise ParameterError(
                    "envelope must be nondecreasing in the shell")
            if np.any(np.diff(sig, axis=1) > 0.0):
                raise ParameterError("envelope must be nonincreasing in time")

    def value_at(self, s: float, t: float) -> float:
        """Conservative lookup: ceiling shell, step-left time."""
        if not (s >= 0.0 and t >= 0.0):
            raise ParameterError("envelope arguments must be nonnegative")
        if s > self.s_grid[-1] * (1.0 + _REL_TOL):
            raise ParameterError("norm above the outermost fitted shell")
        j = int(np.searchsorted(self.s_grid, s * (1.0 - _REL_TOL), side="left"))
        j = min(j, self.s_grid.size - 1)
        k = int(np.searchsorted(self.t_grid, t * (1.0 + _REL_TOL),
                                side="right")) - 1
        k = max(k, 0)
        return float(self.sigma[j, k])

    def write_csv(self, fileobj):
        head = ["s/t"] + [f"{t:.17g}" for t in self.t_grid]
        fileobj.write(",".join(head) + "\n")
        for j in range(self.s_grid.size):
            row = [f"{self.s_grid[j]:.17g}"] \
                + [f"{v:.17g}" for v in self.sigma[j]]
            fileobj.write(",".join(row) + "\n")

    def to_json_dict(self) -> dict:
        return _json_safe({
            "s_grid": self.s_grid.tolist(),
            "t_grid": self.t_grid.tolist(),
            "shell_counts": self.shell_counts.tolist(),
            "interpolated": self.interpolated.tolist(),
            "decayed": self.decayed,
            "nondecay": self.nondecay,
        })


def _close_kl_shape(raw: np.ndarray) -> np.ndarray:
    """Smallest majorant with the required two-argument monotonicity."""
    out = np.maximum.accumulate(raw, axis=0)
    return np.maximum.accumulate(out[:, ::-1], axis=1)[:, ::-1]


def _envelope_flags(sigma: np.ndarray) -> tuple[bool, bool]:
    if not np.all(np.isfinite(sigma)):
        return False, True
    start = sigma[:, 0]
    endv = sigma[:, -1]
    decayed = bool(np.all(endv <= 0.05 * start))
    nondecay = bool(np.any(endv > 0.5 * start))
    return decayed, nondecay


def _shell_counts(budget: int, shells: int) -> np.ndarray:
    """Sample allocation per shell; a short budget favors the outer shells."""
    counts = np.zeros(shells, dtype=int)
    if budget >= shells:
        counts[:] = budget // shells
    else:
        counts[shells - budget:] = 1
    return counts


def _shell_plan(rho_max: float, shells: int, budget: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Geometric shell radii (outermost rho_max) and samples per shell."""
    if not (rho_max > 0.0 and math.isfinite(rho_max)):
        raise ParameterError("ball radius must be positive")
    if shells < 1:
        raise ParameterError("need at least one shell")
    if budget < 1:
        raise ParameterError("need a positive sample budget")
    if shells == 1:
        s_grid = np.array([rho_max])
    else:
        s_grid = rho_max * (1.0 / 16.0) ** (
            np.arange(shells - 1, -1, -1) / (shells - 1))
    return s_grid, _shell_counts(budget, shells)


def _shell_runs(sys: DelaySystem, space: SpaceSpec, s_grid: np.ndarray,
                counts: np.ndarray, T: float, h: float, family: str,
                order: int, seed: int, n_nodes: int, reads: list):
    """Yield (j, cfg, i, run) for every sample of every shell j, run the
    sample's _Run with its reads.

    Shell j draws from the annulus between radii s_grid[j-1] and s_grid[j]
    of the `space` ball.  The samples of all shells share the blocks.
    """
    labels, x0s = [], []
    for j in range(s_grid.size):
        lo_frac = s_grid[j - 1] / s_grid[j] if j > 0 else 0.0
        cfg = _ball_cfg(sys, space, float(s_grid[j]), family, order,
                        seed, n_nodes).with_shell(lo_frac, j)
        labels += [(j, cfg, i) for i in range(int(counts[j]))]
        x0s.append(_samples(cfg, int(counts[j])))
    runs = _ensemble(sys, chain(*x0s), T, h, reads, every=True)
    for label, run in zip(labels, runs):
        yield (*label, run)


def _close_envelope(s_grid: np.ndarray, t_grid: np.ndarray, raw: np.ndarray,
                    counts: np.ndarray) -> KLEnvelope:
    """Envelope from the per-shell worst tracks; empty shells interpolated."""
    interpolated = counts == 0
    if np.all(interpolated):
        raise ParameterError("budget too small: every shell is empty")
    if np.any(interpolated):
        present = ~interpolated
        for k in range(t_grid.size):
            raw[interpolated, k] = np.interp(
                s_grid[interpolated], s_grid[present], raw[present, k])
    # a bound at t = 0 must cover the shell radius itself even when the
    # report norm only sees a weaker part of the initial data
    raw[:, 0] = np.maximum(raw[:, 0], s_grid)
    sigma = _close_kl_shape(raw)
    decayed, nondecay = _envelope_flags(sigma)
    env = KLEnvelope(s_grid=s_grid, t_grid=t_grid, sigma=sigma,
                     shell_counts=counts, interpolated=interpolated,
                     decayed=decayed, nondecay=nondecay)
    env.assert_kl_shape()
    return env


def fit_kl_envelope(sys: DelaySystem, space: SpaceSpec, rho_max: float,
                    shells: int, t_grid: np.ndarray | None, budget: int, *,
                    report_space: SpaceSpec | None = None,
                    family: str = "fourier", order: int = 3, seed: int = 0,
                    n_nodes: int = 65, h: float | None = None,
                    horizon: float | None = None,
                    grid_points: int = 200) -> KLEnvelope:
    """Fit the smallest monotone-shape grid majorant of sampled trajectories.

    Initial histories are drawn per shell from geometric annuli of the
    `space` ball of radius rho_max; the recorded norm is `report_space`
    (defaulting to `space` itself; passing the sup space measures decay of
    the state while the shells still classify initial data in the stronger
    norm).  The time-zero column is raised to at least the shell radius
    whenever the report norm is the shell norm's lower bound, keeping the
    envelope usable as a bound at t = 0.  Escaped trajectories contribute
    +inf beyond their coverage.
    """
    s_grid, counts = _shell_plan(rho_max, shells, budget)
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    t_grid = _report_grid(t_grid, horizon, r, grid_points)
    if report_space is None:
        report_space = space
    raw = np.full((shells, t_grid.size), -np.inf)
    read = _norm_read(report_space, t_grid, n_nodes)
    for j, _, _, run in _shell_runs(sys, space, s_grid, counts,
                                    float(t_grid[-1]), h, family, order,
                                    seed, n_nodes, [read]):
        raw[j] = np.maximum(raw[j], run.tracks[0])
    return _close_envelope(s_grid, t_grid, raw, counts)


def lift_sup_envelope(sigma_env: KLEnvelope, r: float, p: float,
                      lipschitz_modulus) -> KLEnvelope:
    """Turn a sup-norm decay envelope into a full-space one.

    The full norm adds a derivative term; along a trajectory the new
    derivative is bounded through the right-hand side by the sup of the
    state one window back, and for the first window by the initial data.
    Both are covered by
        lifted(s, t) = sigma(s, t)
            + (1 + r^(1/p)) * max(1, L(sigma(s, 0)))
            * (e^(r - t) * sigma(s, 0)   if t <= r,
               sigma(s, t - r)           if t > r)
    evaluated conservatively on the envelope grid (step-left in t - r).
    """
    if not (p > 1.0):
        raise ParameterError("derivative exponent must satisfy p > 1")
    if not (r > 0.0 and math.isfinite(r)):
        raise ParameterError("delay r must be positive")
    sigma_env.assert_kl_shape()
    s_grid, t_grid, sig = sigma_env.s_grid, sigma_env.t_grid, sigma_env.sigma
    window = 1.0 + r ** _inv(p)
    out = np.empty_like(sig)
    for j in range(s_grid.size):
        s0 = sig[j, 0]
        gain = window * max(1.0, float(lipschitz_modulus(s0)))
        for k, t in enumerate(t_grid):
            if t <= r * (1.0 + _REL_TOL):
                base = math.exp(r - t) * s0
            else:
                base = sigma_env.value_at(s_grid[j], t - r)
            out[j, k] = sig[j, k] + gain * base
    decayed, nondecay = _envelope_flags(out)
    env = KLEnvelope(s_grid=s_grid, t_grid=t_grid, sigma=out,
                     shell_counts=sigma_env.shell_counts,
                     interpolated=sigma_env.interpolated,
                     decayed=decayed, nondecay=nondecay)
    env.assert_kl_shape()
    return env


def lipschitz_propagation_bound(R: float, T: float, r: float, p: float,
                                lipschitz_modulus, sigma0: float | None = None
                                ) -> float:
    """Constant M with ||x_t - y_t||_X <= M ||x_0 - y_0||_X on the R-ball.

    sigma0 bounds trajectory sups from the ball over [0, T]; without a
    fitted envelope the a-priori growth bound e^(L(R) T) R is used.
    """
    for name, v in (("R", R), ("T", T), ("r", r)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ParameterError(f"{name} must be positive and finite")
    if not (p > 1.0):
        raise ParameterError("derivative exponent must satisfy p > 1")
    if sigma0 is None:
        sigma0 = _grown(R, float(lipschitz_modulus(R)) * T)
    Ls = float(lipschitz_modulus(sigma0))
    return 1.0 + (1.0 + r ** _inv(p)) * max(1.0, _grown(Ls, Ls * T))


# -- property checkers -------------------------------------------------


def check_rfc(sys: DelaySystem, space: SpaceSpec, rho: float, T: float,
              budget: int, *, family: str = "fourier", order: int = 3,
              seed: int = 0, n_nodes: int = 65, h: float | None = None,
              grid_points: int = 200) -> StabilityReport:
    """Bounded reachable sets: no sampled trajectory may escape before T."""
    if not (rho > 0.0 and T > 0.0 and budget >= 1):
        raise ParameterError("need positive rho, T and budget")
    r = sys.delay_r
    h, _ = _step_defaults(r, h)
    grid = default_time_grid(T, r, grid_points)
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    sup = 0.0
    escapes = []
    runs = _ensemble(sys, _samples(cfg, budget), T, h,
                     [_norm_read(space, grid, n_nodes)], every=True)
    for i, (x0, escaped, escape_time, (track,)) in enumerate(runs):
        finite = track[np.isfinite(track)]
        if finite.size:
            sup = max(sup, float(finite.max()))
        if escaped:
            escapes.append((escape_time, i, x0))
    margins = {"sup": sup, "escape_count": float(len(escapes))}
    budgets = {"samples": budget}
    if escapes:
        e_time, idx, x0 = min(escapes, key=lambda e: (e[0], e[1]))
        wit = _witness(cfg, idx, x0, e_time, math.inf)
        return StabilityReport("rfc", space, "falsified", wit, margins,
                               budgets, {"escape_time": e_time})
    return StabilityReport("rfc", space, "consistent", None, margins, budgets)


def check_lags(sys: DelaySystem, space: SpaceSpec, rho: float, budget: int, *,
               horizon: float | None = None, family: str = "fourier",
               order: int = 3, seed: int = 0, n_nodes: int = 65,
               h: float | None = None,
               grid_points: int = 200) -> StabilityReport:
    """Uniform boundedness from the ball, truncated at the horizon."""
    if not (rho > 0.0 and budget >= 1):
        raise ParameterError("need positive rho and budget")
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = default_time_grid(horizon, r, grid_points)
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    peak = np.full(grid.size, 0.0)
    runs = _ensemble(sys, _samples(cfg, budget), horizon, h,
                     [_norm_read(space, grid, n_nodes)])
    for i, (x0, escaped, escape_time, (track,)) in enumerate(runs):
        if escaped:
            wit = _witness(cfg, i, x0, escape_time, math.inf)
            return StabilityReport(
                "lags", space, "falsified", wit,
                {"sup": math.inf}, {"samples": budget},
                {"escape_time": escape_time})
        peak = np.maximum(peak, track)
    running = np.maximum.accumulate(peak)
    sup = float(running[-1])
    q = 3 * grid.size // 4
    margins = {"sup": sup}
    budgets = {"samples": budget}
    if running[-1] > running[q] * (1.0 + _REL_TOL):
        return StabilityReport("lags", space, "inconclusive", None, margins,
                               budgets, {"still_growing": True})
    return StabilityReport("lags", space, "consistent", None, margins, budgets)


def check_ls(sys: DelaySystem, space: SpaceSpec, eps_list, budget: int, *,
             horizon: float | None = None, bisection_steps: int = 20,
             family: str = "fourier", order: int = 3, seed: int = 0,
             n_nodes: int = 65, h: float | None = None,
             grid_points: int = 100) -> StabilityReport:
    """Stability at the origin: search the largest safe initial radius.

    For each tolerance eps, a log-scale bisection over delta in
    [1e-6 eps, 10 eps] finds the largest sampled radius whose ball keeps
    every trajectory norm within eps up to the horizon.  The property is
    declared falsified when even radii below 1e-3 eps leak: the frontier
    then witnesses trajectories escaping an arbitrarily small ball.
    """
    eps_list = [float(e) for e in np.atleast_1d(eps_list)]
    if not eps_list or not all(0.0 < e < math.inf for e in eps_list):
        raise ParameterError(
            f"tolerances must be positive and finite, got {eps_list}")
    if budget < 1:
        raise ParameterError("need a positive sample budget")
    if bisection_steps < 0:
        raise ParameterError("bisection_steps must be nonnegative")
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = default_time_grid(horizon, r, grid_points)
    cfg = _ball_cfg(sys, space, 1.0, family, order, seed, n_nodes)
    base = list(_samples(cfg, budget))
    reads = [_norm_read(space, grid, n_nodes)]

    def probe(delta: float, eps: float):
        runs = _ensemble(sys, (delta * seg for seg in base), horizon, h,
                         reads)
        for i, (_, _, _, (track,)) in enumerate(runs):
            bad = np.nonzero(track > eps * (1.0 + _REL_TOL))[0]
            if bad.size:
                k = int(bad[0])
                return (i, float(grid[k]), float(track[k]))
        return None

    margins = {}
    verdict = "consistent"
    witness = None
    first_bad = None
    for eps in eps_list:
        lo, hi = 1e-6 * eps, 10.0 * eps
        bad_lo = probe(lo, eps)
        if bad_lo is not None:
            delta, frontier, leak = 0.0, lo, bad_lo
        elif probe(hi, eps) is None:
            delta, frontier, leak = hi, None, None
        else:
            leak = None
            for _ in range(bisection_steps):
                mid = math.sqrt(lo * hi)
                bad = probe(mid, eps)
                if bad is None:
                    lo = mid
                else:
                    hi, leak = mid, bad
            delta, frontier = lo, hi
        margins[f"delta({eps:g})"] = delta
        if frontier is not None and frontier <= 1e-3 * eps and verdict != "falsified":
            verdict = "falsified"
            i, t_bad, v_bad = leak
            witness = _witness(cfg, i, frontier * base[i], t_bad, v_bad,
                               scale=frontier)
            first_bad = {"eps": eps, "frontier": frontier}
    details = {"horizon": horizon}
    if first_bad:
        details.update(first_bad)
    return StabilityReport("ls", space, verdict, witness, margins,
                           {"samples": budget,
                            "bisection_steps": bisection_steps}, details)


def check_ga(sys: DelaySystem, space: SpaceSpec, rho: float, eps: float,
             budget: int, *, horizon: float | None = None,
             family: str = "fourier", order: int = 3, seed: int = 0,
             n_nodes: int = 65, h: float | None = None,
             grid_points: int = 200) -> StabilityReport:
    """Attractivity: every sampled trajectory should settle below eps.

    A sample that has not converged and whose norm has stopped moving over
    the last quarter of the horizon falsifies the property; one that is
    still visibly decreasing only leaves the check inconclusive.
    """
    if not (rho > 0.0 and eps > 0.0 and budget >= 1):
        raise ParameterError("need positive rho, eps and budget")
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = default_time_grid(horizon, r, grid_points)
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    q = 3 * grid.size // 4
    worst_end = 0.0
    undecided = False
    runs = _ensemble(sys, _samples(cfg, budget), horizon, h,
                     [_norm_read(space, grid, n_nodes)])
    for i, (x0, _, _, (track,)) in enumerate(runs):
        tail = track[q:]
        worst_end = max(worst_end, float(track[-1]))
        if np.all(tail <= eps * (1.0 + _REL_TOL)):
            continue
        plateau = float(tail.max())
        stagnant = (not math.isfinite(plateau)) or \
            track[-1] >= 0.99 * plateau
        if stagnant:
            wit = _witness(cfg, i, x0, float(grid[-1]), float(track[-1]))
            return StabilityReport(
                "ga", space, "falsified", wit,
                {"residual_norm": float(track[-1]), "eps": eps},
                {"samples": budget}, {"horizon": horizon})
        undecided = True
    margins = {"worst_end_norm": worst_end, "eps": eps}
    budgets = {"samples": budget}
    if undecided:
        return StabilityReport("ga", space, "inconclusive", None, margins,
                               budgets, {"horizon": horizon,
                                         "still_decreasing": True})
    return StabilityReport("ga", space, "consistent", None, margins, budgets,
                           {"horizon": horizon})


def check_uga(sys: DelaySystem, space: SpaceSpec, eps: float, rho: float,
              budget: int, *, horizon: float | None = None,
              family: str = "fourier", order: int = 3, seed: int = 0,
              n_nodes: int = 65, h: float | None = None,
              grid_points: int = 200) -> StabilityReport:
    """Uniform attractivity: one settling time for the whole ball."""
    if not (rho > 0.0 and eps > 0.0 and budget >= 1):
        raise ParameterError("need positive rho, eps and budget")
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = default_time_grid(horizon, r, grid_points)
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    peak = np.zeros(grid.size)
    runs = _ensemble(sys, _samples(cfg, budget), horizon, h,
                     [_norm_read(space, grid, n_nodes)])
    for i, (x0, escaped, escape_time, (track,)) in enumerate(runs):
        if escaped:
            wit = _witness(cfg, i, x0, escape_time, math.inf)
            return StabilityReport(
                "uga", space, "falsified", wit, {"eps": eps, "rho": rho},
                {"samples": budget}, {"escape_time": escape_time})
        peak = np.maximum(peak, track)
    suffix = np.maximum.accumulate(peak[::-1])[::-1]
    ok = np.nonzero(suffix <= eps * (1.0 + _REL_TOL))[0]
    budgets = {"samples": budget}
    if ok.size == 0:
        return StabilityReport("uga", space, "inconclusive", None,
                               {"eps": eps, "rho": rho,
                                "residual": float(suffix[-1])},
                               budgets, {"horizon": horizon})
    T_est = float(grid[int(ok[0])])
    return StabilityReport("uga", space, "consistent", None,
                           {"eps": eps, "rho": rho, "settle_time": T_est},
                           budgets, {"horizon": horizon})


def verify_pair_bounds(sys: DelaySystem, space: SpaceSpec, R: float, T: float,
                       pairs: int, *, family: str = "fourier", order: int = 3,
                       seed: int = 0, n_nodes: int = 65,
                       h: float | None = None, grid_points: int = 40,
                       sigma0: float | None = None) -> StabilityReport:
    """Trajectory-pair propagation bounds on the R-ball over [0, T].

    Checks, for sampled history pairs, the a-priori growth bound on the
    sup distance (factor e^(L sigma0 T) wrt the initial sup distance) and
    the full-norm bound with the propagation constant M.  A pair member
    that escapes before T falsifies the bounds at its escape time.
    """
    if not (R > 0.0 and T > 0.0 and pairs >= 1):
        raise ParameterError("need positive R, T and pairs")
    r = sys.delay_r
    h, _ = _step_defaults(r, h)
    L = sys.lipschitz_modulus
    if sigma0 is None:
        sigma0 = _grown(R, float(L(R)) * T)
    growth = _grown(1.0, float(L(sigma0)) * T)
    p = _exponent_of(space)
    M = lipschitz_propagation_bound(R, T, r, p, L, sigma0)
    margins = {"growth_factor": growth, "propagation_constant": M}
    grid = default_time_grid(T, r, grid_points)
    cfg = _ball_cfg(sys, space, R, family, order, seed, n_nodes)
    sup_space = SpaceSpec.sup()
    worst_sup = 0.0
    worst_full = 0.0
    # each member's node values and slopes of x_t at the grid times
    nodes = _Read(grid, n_nodes, lambda r, s, v, d: np.stack((v, d), axis=1),
                  width=2 * n_nodes * sys.dimension)
    s = np.linspace(-r, 0.0, n_nodes)
    size = _segment_chunk(n_nodes, sys.dimension)
    runs = enumerate(_ensemble(sys, _samples(cfg, 2 * pairs), T, h, [nodes]))
    for (i, run_x), (k, run_y) in zip(runs, runs):
        x0, y0 = run_x.x0, run_y.x0
        escapes = [(run.escape_time, j, run.x0)
                   for j, run in ((i, run_x), (k, run_y)) if run.escaped]
        if escapes:
            e_time, j, z0 = min(escapes)
            wit = _witness(cfg, j, z0, e_time, math.inf)
            wit["pair_index"] = k if j == i else i
            return StabilityReport("pair_bounds", space, "falsified", wit,
                                   margins, {"pairs": pairs},
                                   {"escape_time": e_time})
        d0_sup = space_norm(x0 - y0, sup_space)
        d0_full = space_norm(x0 - y0, space)
        # an infinite factor on a zero distance still bounds by 0
        lim_sup = growth * d0_sup if d0_sup else 0.0
        lim_full = M * d0_full if d0_full else 0.0
        gap = run_x.tracks[0] - run_y.tracks[0]
        for lo in range(0, grid.size, size):
            diff = (r, s, gap[lo:lo + size, 0], gap[lo:lo + size, 1])
            for t, d_sup, d_full in zip(grid[lo:],
                                        _norms(*diff, sup_space).tolist(),
                                        _norms(*diff, space).tolist()):
                if d_sup > lim_sup * (1.0 + 1e-6) + 1e-15 \
                        or d_full > lim_full * (1.0 + 1e-6) + 1e-15:
                    wit = _witness(cfg, i, x0, float(t),
                                   float(max(d_sup, d_full)))
                    wit["pair_index"] = k
                    return StabilityReport(
                        "pair_bounds", space, "falsified", wit, margins,
                        {"pairs": pairs},
                        {"d_sup": d_sup, "limit_sup": lim_sup,
                         "d_full": d_full, "limit_full": lim_full})
                if lim_sup > 0.0:
                    worst_sup = max(worst_sup, d_sup / lim_sup)
                if lim_full > 0.0:
                    worst_full = max(worst_full, d_full / lim_full)
    return StabilityReport(
        "pair_bounds", space, "consistent", None,
        {**margins, "worst_sup_ratio": worst_sup,
         "worst_full_ratio": worst_full},
        {"pairs": pairs}, {"sigma0": sigma0})


def check_envelope_lift(sys: DelaySystem, space: SpaceSpec, rho_max: float,
                        shells: int, budget: int, *,
                        lipschitz_modulus=None, horizon: float | None = None,
                        t_grid: np.ndarray | None = None,
                        family: str = "fourier", order: int = 3,
                        seed: int = 0, n_nodes: int = 65,
                        h: float | None = None,
                        grid_points: int = 200) -> StabilityReport:
    """Fit a sup-norm envelope against full-norm shells and verify its lift.

    The envelope records sup-norm decay of trajectories binned by the full
    norm of their initial data; the lifted envelope must then dominate the
    measured full norm of every sampled trajectory at every report time.
    Each sample is integrated once and yields both tracks.
    """
    s_grid, counts = _shell_plan(rho_max, shells, budget)
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = _report_grid(t_grid, horizon, r, grid_points)
    if lipschitz_modulus is None:
        lipschitz_modulus = sys.lipschitz_modulus
    sup_space = SpaceSpec.sup()
    raw = np.full((shells, grid.size), -np.inf)
    runs = []
    reads = [_norm_read(sup_space, grid, n_nodes),
             _norm_read(space, grid, n_nodes)]
    for j, cfg, i, run in _shell_runs(sys, space, s_grid, counts,
                                      float(grid[-1]), h, family, order,
                                      seed, n_nodes, reads):
        sup_track, track = run.tracks
        raw[j] = np.maximum(raw[j], sup_track)
        runs.append((j, cfg, i, run.x0, track))
    env = _close_envelope(s_grid, grid, raw, counts)
    lifted = lift_sup_envelope(env, r, _exponent_of(space), lipschitz_modulus)
    worst = 0.0
    for j, cfg, i, x0, track in runs:
        bound = lifted.sigma[j]
        bad = np.nonzero(track > bound * (1.0 + 1e-6) + 1e-12)[0]
        if bad.size:
            k = int(bad[0])
            wit = _witness(cfg, i, x0, float(grid[k]), float(track[k]))
            wit["shell"] = int(j)
            return StabilityReport(
                "envelope_lift", space, "falsified", wit,
                {"bound": float(bound[k]), "measured": float(track[k])},
                {"samples": budget, "shells": shells},
                {"envelope": env.to_json_dict()})
        with np.errstate(invalid="ignore"):
            ratios = track / bound
        finite = ratios[np.isfinite(ratios)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    return StabilityReport(
        "envelope_lift", space, "consistent", None,
        {"worst_ratio": worst, "trajectories_checked": float(len(runs))},
        {"samples": budget, "shells": shells},
        {"envelope": env.to_json_dict(), "decayed": env.decayed})


def check_gas_vs_ugas(sys: DelaySystem, space: SpaceSpec, rho_list, eps_list,
                      budget: int, *, horizon: float | None = None,
                      family: str = "fourier", order: int = 3, seed: int = 0,
                      n_nodes: int = 65, h: float | None = None,
                      grid_points: int = 200,
                      shells: int = 8) -> StabilityReport:
    """Composite experiment: stability + attractivity + bounded reach + decay.

    Consistent means every component check passed and the fitted envelope
    decayed at the horizon; the report also cross-checks that the component
    verdicts and the envelope agree (a coherence flag on the tool itself,
    not a mathematical conclusion).
    """
    rho_list = [float(x) for x in np.atleast_1d(rho_list)]
    eps_list = [float(x) for x in np.atleast_1d(eps_list)]
    if not rho_list or not eps_list:
        raise ParameterError("need at least one rho and one eps")
    h, horizon = _step_defaults(sys.delay_r, h, horizon)
    kw = dict(family=family, order=order, seed=seed, n_nodes=n_nodes, h=h,
              grid_points=grid_points)
    ls = check_ls(sys, space, eps_list, budget, horizon=horizon, **kw)
    rho_max = max(rho_list)
    eps_min = min(eps_list)
    ga_reports = [check_ga(sys, space, rho, eps_min, budget, horizon=horizon,
                           **kw) for rho in rho_list]
    rfc = check_rfc(sys, space, rho_max, horizon, budget, **kw)
    env = fit_kl_envelope(sys, space, rho_max, min(shells, budget), None,
                          budget, horizon=horizon, **kw)
    parts = {"ls": ls.verdict, "rfc": rfc.verdict,
             "ga": [g.verdict for g in ga_reports],
             "envelope_decayed": env.decayed,
             "envelope_nondecay": env.nondecay}
    point_ok = ls.verdict == "consistent" and rfc.verdict == "consistent" \
        and all(g.verdict == "consistent" for g in ga_reports)
    coherent = (not point_ok) or env.decayed
    margins = {"coherent": float(coherent)}
    for k, v in ls.margins.items():
        margins[f"ls_{k}"] = v
    margins["rfc_sup"] = rfc.margins["sup"]
    budgets = {"samples": budget, "shells": int(min(shells, budget))}
    sub_falsified = [rep for rep in [ls, rfc, *ga_reports]
                     if rep.verdict == "falsified"]
    if sub_falsified:
        first = sub_falsified[0]
        return StabilityReport("gas_vs_ugas", space, "falsified",
                               first.witness, margins, budgets, parts)
    if point_ok and env.decayed:
        return StabilityReport("gas_vs_ugas", space, "consistent", None,
                               margins, budgets, parts)
    return StabilityReport("gas_vs_ugas", space, "inconclusive", None,
                           margins, budgets, parts)
