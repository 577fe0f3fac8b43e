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
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .dde import DelaySystem, Trajectory, _Block, _block_members, \
    _block_nodes, _block_of, _row_counts, _sample_stacks, _segment_chunk, \
    _stack_chunk, simulate_many
from .dde import simulate  # noqa: F401  (unused; bench tests look it up here)
from .sampler import SamplerConfig
from .segment import DEFAULT_REFINE, ParameterError, Segment, SpaceSpec, \
    _norms, _refined_count, _squares, _uniform_grid, \
    _uniform_reads, space_norm

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


def _covered(traj: Trajectory | _Block, times) -> int:
    """How many leading times lie in the covered range (up to escape)."""
    tol = 1e-12 * max(traj.system.delay_r, 1.0)
    past = np.flatnonzero(np.asarray(times) > traj.end_time + tol)
    return int(past[0]) if past.size else len(times)


def _segment_stacks(piece: _Block, times, seg_nodes: int,
                    at: int | None = None, backward: bool = False):
    """Yield (s, values, derivs): the node data of the segments x_t of
    each member of the piece (of the member at position at alone, if
    given) at the times of times, member by member, stacked (K, seg_nodes,
    n), K times at a time as dde._segment_chunk allows: from the first
    time on, or with backward from the last time back, so that the last
    stack holds the first times.  A stack holds one member's times, as
    that member's own read would: stacks across members grow the
    temporaries of small reads (40 Dini ladders of 6 rungs in stacks of
    31 took 930 KB at peak, not 212 KB) and join rows that prune different
    Hoelder lags (their lag visits rose by two thirds)."""
    times = np.asarray(times, dtype=float)
    size = _segment_chunk(seg_nodes, piece.system.dimension)
    spans = ([slice(max(0, hi - size), hi)
              for hi in range(times.size, 0, -size)] if backward
             else [slice(lo, lo + size) for lo in range(0, times.size, size)])
    for pos in range(len(piece.members)) if at is None else (at,):
        for span in spans:
            yield _block_nodes(piece, pos, times[span], seg_nodes)


def _track(traj: Trajectory, times, seg_nodes: int | None,
           evaluate: Callable[..., np.ndarray] | None,
           lam: float | None = None,
           level: float | None = None) -> np.ndarray:
    """A functional of the history segment x_t of a whole trajectory at
    each time: the track of the block of one that holds it."""
    return _block_track(_block_of(traj), times, seg_nodes, evaluate, lam,
                        level)[0]


def _block_track(piece: _Block, times, seg_nodes: int | None,
                 evaluate: Callable[..., np.ndarray] | None,
                 lam: float | None = None,
                 level: float | None = None) -> np.ndarray:
    """A functional of the history segment x_t of each member of a piece
    at each time, one row a member.

    Times past the covered end (escape) give +inf.  Without lam, evaluate
    takes stacked segments, (r, nodes, values, derivs) with node data
    (K, seg_nodes, n), to K values (or K arrays of one shape), and the
    track reads each member's times a chunk at a time through
    _segment_stacks (each row bitwise segment_at), so each value is
    evaluate of x_t alone whatever the chunk.

    With a level, evaluate gives one value a segment, exact only in how
    it compares with the level (see _norm_read), and the track keeps only
    what the suffix max of the piece's peak over its members needs.  The
    members read in order, each from the last time back a stack at a
    time, and stop after the first stack that holds a value above the
    level (or NaN); no member reads a time at or before the latest such
    value found so far in the piece, and no time is read if the piece
    ends before the last time.  Times left unread are +inf, which is
    above the level, so the suffix max of the peak compares with the
    level at every time as that of exact reads does.

    With lam the value is the window max of e^(lam s)|x_t(s)| (see
    _window_maxima).

    The piece must hold every row the times read: from the first row of
    each window (later pieces start past the history) to the right node
    of the time's cell.  Every value is then bitwise that of the
    member's whole trajectory.
    """
    covered = _covered(piece, times)
    t = np.asarray(times[:covered], dtype=float)
    if lam is not None:
        return _window_maxima(piece, t, len(times), lam)
    members = len(piece.members)
    r = piece.system.delay_r
    if level is not None:
        out = np.full((members, len(times)), np.inf)
        floor = 0 if covered == len(times) else covered  # first time to read
        for pos in range(members):
            hi = covered
            for s, vals, ders in _segment_stacks(piece, t[floor:], seg_nodes,
                                                 pos, backward=True):
                got = evaluate(r, s, vals, ders)
                lo = hi - got.size
                out[pos, lo:hi] = got
                above = np.flatnonzero(~(got <= level))
                if above.size:
                    floor = lo + int(above[-1]) + 1
                    break
                hi = lo
        return out
    parts = [evaluate(r, s, vals, ders)
             for s, vals, ders in _segment_stacks(piece, t, seg_nodes)]
    if not parts:
        return np.full((members, len(times)), np.inf)
    got = np.concatenate(parts)
    out = np.full((members, len(times)) + got.shape[1:], np.inf)
    out[:, :covered] = got.reshape((members, covered) + got.shape[1:])
    return out


def _window_maxima(piece: _Block, t: np.ndarray, count: int,
                   lam: float) -> np.ndarray:
    """The window max of e^(lam s)|x_t(s)| of each member of the piece at
    each covered time of t, (members, count), +inf past t.

    The max is taken over one candidate set that every member and time
    shares: the histories' refined grid plus the forward solver mesh,
    weighted once as e^(lam u)|x(u)|.  Each window max then reads the
    same history points as the t = 0 evaluation, so decay ratios carry no
    resampling noise (exact on constants).  All windows [t - r, t] are
    located by two searchsorted calls and their maxima taken by one
    maximum.reduceat over the members' weighted magnitudes, a group of
    members at a time, as many as dde._stack_chunk allows for three
    arrays of their candidates; the max is exact, so each value is
    bitwise that of a per-time slice max of the member alone.  Weighting
    relative to u = 0 is kept where it loses nothing: |lam| max(t, r) <
    708, so that e^(lam u) and e^(-lam t) are normal floats, and the
    window max and the value are normal floats too (always so with lam =
    0).  Any other window, such as one far along a long horizon where
    e^(lam u) overflows or its product with |x(u)| underflows, is
    weighted relative to its own time, as e^(lam (u - t))|x(u)|, which is
    e^(lam s)|x_t(s)| itself.
    """
    r = piece.system.delay_r
    out = np.full((len(piece.members), count), np.inf)
    ft, fv = piece.forward_times, piece.forward_values
    hist = piece.first_row == 0
    if hist:
        refined = _refined_count(piece.hist_nodes.size, DEFAULT_REFINE)
        s = _uniform_grid(piece.hist_r, piece.hist_nodes.tobytes(),
                          refined)[0]
        u = np.concatenate([s, ft[1:]])
    else:
        u = ft
    lo = np.searchsorted(u, t - r - 1e-15 * r, side="left")
    hi = np.searchsorted(u, t + 1e-15 * np.maximum(r, np.abs(t)),
                         side="right")
    # every window holds a node: it is r long and no gap of the candidate
    # set (a refined history cell, a solver step) exceeds r / 10; in a
    # later piece every window starts past its first row
    assert np.all(lo < hi) and (hist or np.all(lo > 0))
    within = abs(lam) * np.maximum(t, r) < 708.0
    near, far = np.flatnonzero(within), np.flatnonzero(~within)
    if near.size:
        top = int(hi[near].max())
        with np.errstate(over="ignore"):
            weight = np.exp(lam * u[:top])
        bounds = np.column_stack([lo[near], hi[near]]).ravel()
        scale = np.array([math.exp(-lam * tk) for tk in t[near].tolist()])
    info = np.finfo(float)

    def group_maxima(at: slice):
        """The window maxima of the members at positions at, into out."""
        rows = out[at]
        # |x(u)|, one row a member, then a -inf pad that makes top a
        # valid bound of the reduceat; no window reaches it
        mags = np.empty((rows.shape[0], u.size + 1))
        tail = fv[1:, at] if hist else fv[:, at]
        first = u.size - tail.shape[0]
        if hist:
            _squares(_uniform_reads(
                piece.hist_r, piece.hist_nodes, piece.hist_values[at],
                piece.hist_derivs[at], refined, False)[1],
                out=mags[:, :first])
        _squares(tail, out=mags[:, first:-1].T)
        np.sqrt(mags[:, :-1], out=mags[:, :-1])
        mags[:, -1] = -np.inf
        if near.size:
            weighted = mags  # weights of 1 (lam 0) change nothing
            if lam != 0.0:
                weighted = np.full((rows.shape[0], top + 1), -np.inf)
                with np.errstate(over="ignore"):
                    np.multiply(weight, mags[:, :top], out=weighted[:, :top])
            peaks = np.maximum.reduceat(weighted, bounds, axis=1)[:, ::2]
            got = scale * peaks
            rows[:, near] = got
            if lam != 0.0:
                normal = ((info.tiny <= peaks) & (peaks <= info.max)
                          & (info.tiny <= got) & (got <= info.max))
                for m, c in zip(*np.nonzero(~normal)):
                    k = near[c]
                    w = slice(lo[k], hi[k])
                    rows[m, k] = (np.exp(lam * (u[w] - t[k]))
                                  * mags[m, w]).max()
        for k in far:
            w = slice(lo[k], hi[k])
            rows[:, k] = (np.exp(lam * (u[w] - t[k])) * mags[:, w]).max(axis=1)

    # a member's magnitudes, their weighted copy and the copy of its rows
    # that einsum takes their squares from
    group = _stack_chunk(3 * u.size)
    for a in range(0, len(piece.members), group):
        group_maxima(slice(a, a + group))
    return out


class _Read(NamedTuple):
    """One track an ensemble takes of each member: _track(traj, times,
    seg_nodes, evaluate, lam, level), with times nondecreasing, which the
    ensemble takes of all of a piece's members at once (_block_track).
    With times None it is evaluate of the forward rows, (m, n) to m
    values, one a mesh node.  A value is width floats (evaluate's shape
    past the first axis), which the ensemble counts against the block's
    memory."""

    times: np.ndarray | None
    seg_nodes: int | None
    evaluate: Callable | None
    lam: float | None = None
    width: int = 1
    level: float | None = None

    def track(self, traj: Trajectory) -> np.ndarray:
        """The track of a whole trajectory."""
        return _track(traj, self.times, self.seg_nodes, self.evaluate,
                      self.lam, self.level)

    def held(self, rows: int) -> int:
        """Bytes the track keeps of a member whose mesh has rows nodes."""
        return 8 * self.width * (rows if self.times is None
                                 else self.times.size)


def _norm_read(space: SpaceSpec, grid: np.ndarray, seg_nodes: int,
               level: float | None = None) -> _Read:
    """The report-space norm of x_t at each grid time; +inf past the
    covered end.  Sup is the lam = 0 window max of _track; the other
    spaces are its stacked track with segment._norms, each value bitwise
    space_norm(segment_at(traj, t, seg_nodes), space).  With a level the
    values are _norms' at that level: exact only in how they compare
    with it (Hoelder values above it may fall short of the norm), and
    only the times that the suffix max of a piece's peak needs are read
    (see _block_track); the others are +inf."""
    if space.kind == "sup":
        return _Read(grid, seg_nodes, None, 0.0)
    return _Read(grid, seg_nodes, partial(_norms, space=space, level=level),
                 level=level)


def _ball_cfg(sys: DelaySystem, space: SpaceSpec, radius: float, family: str,
              order: int, seed: int, n_nodes: int) -> SamplerConfig:
    return SamplerConfig(family=family, order=order, target_space=space,
                         target_norm=radius, dimension=sys.dimension,
                         delay_r=sys.delay_r, seed=seed, n_nodes=n_nodes)


class _Ball(NamedTuple):
    """The sampled ball of a check: samples 0 .. budget-1 of cfg,
    integrated with step h over [0, horizon] and read at the grid."""

    cfg: SamplerConfig
    budget: int
    h: float
    horizon: float
    grid: np.ndarray

    @property
    def tail(self) -> np.ndarray:
        """The last quarter of the report times, the ones ga judges."""
        return self.grid[3 * self.grid.size // 4:]


def _ball(sys: DelaySystem, space: SpaceSpec, rho: float, budget: int,
          family: str, order: int, seed: int, n_nodes: int, h: float | None,
          grid_points: int, *, horizon: float | None = None,
          T: float | None = None, eps: float | None = None,
          error: str = "need positive rho and budget") -> _Ball:
    """The ball of radius rho that a check samples, validated before any
    draw: bad rho, budget or required horizon T raise error, and eps and
    the defaulted horizon must be positive and finite."""
    if not (rho > 0.0 and budget >= 1 and (T is None or T > 0.0)):
        raise ParameterError(error)
    if eps is not None and not 0.0 < eps < math.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    h, horizon = _step_defaults(sys.delay_r, h, horizon if T is None else T)
    grid = default_time_grid(horizon, sys.delay_r, grid_points)
    return _Ball(_ball_cfg(sys, space, rho, family, order, seed, n_nodes),
                 budget, h, horizon, grid)


class _Run(NamedTuple):
    """One history of an ensemble: its escape, if any, and its reads."""

    x0: Segment
    escaped: bool
    escape_time: float | None
    tracks: list


class _Reader:
    """The reads of the members of a block, taken piece by piece as their
    rows settle, each read of a piece in one call for all its members.

    A piece that is not final reads the times whose cell, int(t / h),
    ends at or before its last row; a final piece reads the rest, +inf
    past the end.  The members of a piece that is not final have read
    the same times before, so one count a read serves them all; a member
    that escapes reads its rest alone, from its block of one.  Window
    maxima and stacked reads are exact per member and time, so each value
    is bitwise that of the member's whole trajectory.  A row read takes
    each row once, all the piece's rows in one call, and a member's
    values are one array at the end (tracks).
    """

    def __init__(self, reads: list, members: int):
        self.reads = reads
        self.done = [0] * len(reads)
        self.row_parts = [[[] for _ in range(members)] for _ in reads]
        self.time_tracks = [None] * len(reads)
        self.escape_times = [None] * members

    def __call__(self, piece: _Block):
        at = list(piece.members)
        last = piece.first_row + piece.forward_times.size - 1
        for q, read in enumerate(self.reads):
            done = self.done[q]
            if read.times is None:
                rows = piece.forward_values[done - piece.first_row:]
                got = read.evaluate(rows.reshape(-1, rows.shape[-1]))
                got = got.reshape(rows.shape[:2] + got.shape[1:])
                for pos, b in enumerate(at):
                    self.row_parts[q][b].append(got[:, pos])
                stop = last + 1
            else:
                times = read.times
                stop = times.size if piece.final else done + int(
                    np.count_nonzero((times[done:] / piece.step_h).astype(int)
                                     < last))
                if stop > done:
                    got = _block_track(piece, times[done:stop], read.seg_nodes,
                                       read.evaluate, read.lam, read.level)
                    if self.time_tracks[q] is None:
                        self.time_tracks[q] = np.full(
                            (len(self.escape_times), times.size)
                            + got.shape[2:], np.inf)
                    track = self.time_tracks[q]
                    # past the end a node-stack read is +inf in every entry
                    track[at, done:stop] = got.reshape(
                        got.shape + (1,) * (track.ndim - got.ndim))
            if not piece.final:
                self.done[q] = stop
        if piece.final:
            for b in at:
                self.escape_times[b] = piece.escape_time

    def tracks(self, b: int) -> list:
        """Member b's array of each read, once its last piece is read."""
        return [np.concatenate(parts[b]) if read.times is None
                else np.full(read.times.size, np.inf) if track is None
                else track[b] for read, parts, track
                in zip(self.reads, self.row_parts, self.time_tracks)]


def _ensemble(sys: DelaySystem, x0s, T: float, h: float, reads: list,
              every: bool = False):
    """Yield a _Run per history x0 of the iterable x0s, in their order:
    x0 integrated over [0, T], its escape, and one array per read of
    reads (see _Read).

    Every integration of sampled histories goes through here: the
    checkers' ensembles, the `ls` bisection probes, the one pass of
    check_gas_vs_ugas (which validates every input first and integrates
    each distinct history of its balls once) and the Dini ladders of
    dini_derivative and of the dissipation certificate, which runs each
    ladder only to the first mesh node past the largest rung its
    estimate reads.  The histories are drawn from x0s and
    integrated a block at a time, as many as their windows of dense
    output fit dde.BLOCK_BYTES together with what their reads keep
    (dde._block_members), and the block's reads are taken from its rows
    chunk by chunk as they settle, each read of a chunk in one call for
    all the members still running (_Reader), so no whole trajectory is
    held.  A horizon that fits one window is one chunk.  Lazy per block,
    so a caller that stops at its first counterexample integrates nothing
    past its block; as the samples are drawn a stack at a time
    (dde._sample_stacks), it draws past its block at most the rest of
    the one sample stack the block ended in.  Such a caller's first
    block holds only as many histories as whole horizons fit, one chunk,
    so an early counterexample costs no more than that; the blocks after
    it, and every block of a caller that reads every history (every),
    are as wide as their windows allow.
    """
    x0s = iter(x0s)
    held = sum(read.held(_row_counts(sys, T, h)[0]) for read in reads)
    wide = _block_members(sys, T, h, held)
    size = wide if every else _block_members(sys, T, h, held, whole=True)
    while block := list(islice(x0s, size)):
        reader = _Reader(reads, len(block))
        simulate_many(sys, block, T, h, held=held, take=reader)
        for b, x0 in enumerate(block):
            escape_time = reader.escape_times[b]
            yield _Run(x0, escape_time is not None, escape_time,
                       reader.tracks(b))
        size = wide


def _samples(cfg: SamplerConfig, count: int):
    """Samples 0 .. count-1 of cfg, drawn lazily a stack at a time."""
    return chain.from_iterable(_sample_stacks(cfg, range(count)))


def _keyed_samples(keys):
    """The sample of each (cfg, index) of keys, in their order, drawn
    lazily a stack at a time: each run of consecutive keys that share a
    cfg in dde._sample_stacks of that cfg."""
    return chain.from_iterable(
        stack for cfg, run in groupby(keys, key=itemgetter(0))
        for stack in _sample_stacks(cfg, [i for _, i in run]))


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


def _envelope(s_grid: np.ndarray, t_grid: np.ndarray, sigma: np.ndarray,
              counts: np.ndarray, interpolated: np.ndarray) -> KLEnvelope:
    """The envelope of a sigma table, with its decay flags and checked."""
    decayed, nondecay = False, True
    if np.all(np.isfinite(sigma)):
        start = sigma[:, 0]
        endv = sigma[:, -1]
        decayed = bool(np.all(endv <= 0.05 * start))
        nondecay = bool(np.any(endv > 0.5 * start))
    env = KLEnvelope(s_grid=s_grid, t_grid=t_grid, sigma=sigma,
                     shell_counts=counts, interpolated=interpolated,
                     decayed=decayed, nondecay=nondecay)
    env.assert_kl_shape()
    return env


def _shell_plan(sys: DelaySystem, space: SpaceSpec, rho_max: float,
                shells: int, budget: int, family: str, order: int, seed: int,
                n_nodes: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Geometric shell radii s_grid (outermost rho_max), the samples per
    shell (a short budget favors the outer ones), and (j, cfg, i) for each
    sample i of shell j, drawn from the annulus s_grid[j-1] to s_grid[j]."""
    if not (rho_max > 0.0 and math.isfinite(rho_max)):
        raise ParameterError("ball radius must be positive")
    if shells < 1:
        raise ParameterError("need at least one shell")
    if budget < 1:
        raise ParameterError("need a positive sample budget")
    counts = np.zeros(shells, dtype=int)
    if budget >= shells:
        counts[:] = budget // shells
    else:
        counts[shells - budget:] = 1
    if shells == 1:
        s_grid = np.array([rho_max])
    else:
        s_grid = rho_max * (1.0 / 16.0) ** (
            np.arange(shells - 1, -1, -1) / (shells - 1))
    members = []
    for j in range(shells):
        lo_frac = s_grid[j - 1] / s_grid[j] if j > 0 else 0.0
        cfg = _ball_cfg(sys, space, float(s_grid[j]), family, order,
                        seed, n_nodes).with_shell(lo_frac, j)
        members += [(j, cfg, i) for i in range(int(counts[j]))]
    return s_grid, counts, members


def _close_envelope(s_grid: np.ndarray, t_grid: np.ndarray,
                    counts: np.ndarray, tracks) -> KLEnvelope:
    """The envelope judge: the worst track of each shell (tracks in shell
    plan order), empty shells interpolated, closed to the KL shape."""
    raw = np.full((s_grid.size, t_grid.size), -np.inf)
    for j, track in zip(np.repeat(np.arange(s_grid.size), counts), tracks):
        raw[j] = np.maximum(raw[j], track)
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
    # the smallest majorant with the two-argument monotonicity
    sigma = np.maximum.accumulate(raw, axis=0)
    sigma = np.maximum.accumulate(sigma[:, ::-1], axis=1)[:, ::-1]
    return _envelope(s_grid, t_grid, sigma, counts, interpolated)


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
    s_grid, counts, members = _shell_plan(
        sys, space, rho_max, shells, budget, family, order, seed, n_nodes)
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    t_grid = _report_grid(t_grid, horizon, r, grid_points)
    if report_space is None:
        report_space = space
    runs = _ensemble(sys, _keyed_samples((cfg, i) for _, cfg, i in members),
                     float(t_grid[-1]), h,
                     [_norm_read(report_space, t_grid, n_nodes)], every=True)
    return _close_envelope(s_grid, t_grid, counts,
                           (run.tracks[0] for run in runs))


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
    return _envelope(s_grid, t_grid, out, sigma_env.shell_counts,
                     sigma_env.interpolated)


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


def _rfc_report(space: SpaceSpec, ball: _Ball, runs) -> StabilityReport:
    """The rfc judge of runs read at every report time: none may escape."""
    sup = 0.0
    escapes = []
    for i, (x0, escaped, escape_time, (track,)) in enumerate(runs):
        finite = track[np.isfinite(track)]
        if finite.size:
            sup = max(sup, float(finite.max()))
        if escaped:
            escapes.append((escape_time, i, x0))
    margins = {"sup": sup, "escape_count": float(len(escapes))}
    budgets = {"samples": ball.budget}
    if escapes:
        e_time, idx, x0 = min(escapes, key=lambda e: (e[0], e[1]))
        wit = _witness(ball.cfg, idx, x0, e_time, math.inf)
        return StabilityReport("rfc", space, "falsified", wit, margins,
                               budgets, {"escape_time": e_time})
    return StabilityReport("rfc", space, "consistent", None, margins, budgets)


def check_rfc(sys: DelaySystem, space: SpaceSpec, rho: float, T: float,
              budget: int, *, family: str = "fourier", order: int = 3,
              seed: int = 0, n_nodes: int = 65, h: float | None = None,
              grid_points: int = 200) -> StabilityReport:
    """Bounded reachable sets: no sampled trajectory may escape before T."""
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, T=T, error="need positive rho, T and budget")
    runs = _ensemble(sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
                     [_norm_read(space, ball.grid, n_nodes)], every=True)
    return _rfc_report(space, ball, runs)


def check_lags(sys: DelaySystem, space: SpaceSpec, rho: float, budget: int, *,
               horizon: float | None = None, family: str = "fourier",
               order: int = 3, seed: int = 0, n_nodes: int = 65,
               h: float | None = None,
               grid_points: int = 200) -> StabilityReport:
    """Uniform boundedness from the ball, truncated at the horizon."""
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, horizon=horizon)
    peak = np.full(ball.grid.size, 0.0)
    runs = _ensemble(sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
                     [_norm_read(space, ball.grid, n_nodes)])
    for i, (x0, escaped, escape_time, (track,)) in enumerate(runs):
        if escaped:
            wit = _witness(ball.cfg, i, x0, escape_time, math.inf)
            return StabilityReport(
                "lags", space, "falsified", wit,
                {"sup": math.inf}, {"samples": budget},
                {"escape_time": escape_time})
        peak = np.maximum(peak, track)
    running = np.maximum.accumulate(peak)
    sup = float(running[-1])
    margins = {"sup": sup}
    budgets = {"samples": budget}
    if running[-1] > running[-ball.tail.size] * (1.0 + _REL_TOL):
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
    ball = _ball(sys, space, 1.0, budget, family, order, seed, n_nodes, h,
                 grid_points, horizon=horizon,
                 error="need a positive sample budget")
    if bisection_steps < 0:
        raise ParameterError("bisection_steps must be nonnegative")
    base = list(_samples(ball.cfg, budget))
    reads = [_norm_read(space, ball.grid, n_nodes)]

    def probe(delta: float, eps: float):
        runs = _ensemble(sys, (delta * seg for seg in base), ball.horizon,
                         ball.h, reads)
        for i, (_, _, _, (track,)) in enumerate(runs):
            bad = np.nonzero(track > eps * (1.0 + _REL_TOL))[0]
            if bad.size:
                k = int(bad[0])
                return (i, float(ball.grid[k]), float(track[k]))
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
            witness = _witness(ball.cfg, i, frontier * base[i], t_bad, v_bad,
                               scale=frontier)
            first_bad = {"eps": eps, "frontier": frontier}
    details = {"horizon": ball.horizon}
    if first_bad:
        details.update(first_bad)
    return StabilityReport("ls", space, verdict, witness, margins,
                           {"samples": budget,
                            "bisection_steps": bisection_steps}, details)


def _ga_report(space: SpaceSpec, ball: _Ball, eps: float,
               runs) -> StabilityReport:
    """The ga judge of runs read at least at ball.tail, all it judges."""
    worst_end = 0.0
    undecided = False
    for i, (x0, _, _, (track,)) in enumerate(runs):
        tail = track[-ball.tail.size:]
        worst_end = max(worst_end, float(tail[-1]))
        if np.all(tail <= eps * (1.0 + _REL_TOL)):
            continue
        plateau = float(tail.max())
        stagnant = (not math.isfinite(plateau)) or \
            tail[-1] >= 0.99 * plateau
        if stagnant:
            wit = _witness(ball.cfg, i, x0, float(ball.grid[-1]),
                           float(tail[-1]))
            return StabilityReport(
                "ga", space, "falsified", wit,
                {"residual_norm": float(tail[-1]), "eps": eps},
                {"samples": ball.budget}, {"horizon": ball.horizon})
        undecided = True
    margins = {"worst_end_norm": worst_end, "eps": eps}
    budgets = {"samples": ball.budget}
    if undecided:
        return StabilityReport("ga", space, "inconclusive", None, margins,
                               budgets, {"horizon": ball.horizon,
                                         "still_decreasing": True})
    return StabilityReport("ga", space, "consistent", None, margins, budgets,
                           {"horizon": ball.horizon})


def check_ga(sys: DelaySystem, space: SpaceSpec, rho: float, eps: float,
             budget: int, *, horizon: float | None = None,
             family: str = "fourier", order: int = 3, seed: int = 0,
             n_nodes: int = 65, h: float | None = None,
             grid_points: int = 200) -> StabilityReport:
    """Attractivity: every sampled trajectory should settle below eps.

    A sample that has not converged and whose norm has stopped moving over
    the last quarter of the horizon falsifies the property; one that is
    still visibly decreasing only leaves the check inconclusive.  Only
    that last quarter of the report times is read, exactly.
    """
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, horizon=horizon, eps=eps)
    runs = _ensemble(sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
                     [_norm_read(space, ball.tail, n_nodes)])
    return _ga_report(space, ball, eps, runs)


def check_uga(sys: DelaySystem, space: SpaceSpec, eps: float, rho: float,
              budget: int, *, horizon: float | None = None,
              family: str = "fourier", order: int = 3, seed: int = 0,
              n_nodes: int = 65, h: float | None = None,
              grid_points: int = 200) -> StabilityReport:
    """Uniform attractivity: one settling time for the whole ball.

    The settling time is the first report time from which the peak over
    the samples stays within eps.  Of the report times before the last
    only that comparison matters, so they are read at the level
    eps (1 + 1e-9) (see segment._norms): a Hoelder sweep stops once a
    block of lags lifts a sample above it.  Only the suffix max of the
    peak is kept, so they are read back from the horizon, no further
    than the last stack that lifts a sample above the level (see
    _block_track).  The last time is read exactly, as the residual of
    an inconclusive report.
    """
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, horizon=horizon, eps=eps)
    level = eps * (1.0 + _REL_TOL)
    peak = np.zeros(ball.grid.size)
    runs = _ensemble(sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
                     [_norm_read(space, ball.grid[:-1], n_nodes, level),
                      _norm_read(space, ball.grid[-1:], n_nodes)])
    for i, (x0, escaped, escape_time, tracks) in enumerate(runs):
        if escaped:
            wit = _witness(ball.cfg, i, x0, escape_time, math.inf)
            return StabilityReport(
                "uga", space, "falsified", wit, {"eps": eps, "rho": rho},
                {"samples": budget}, {"escape_time": escape_time})
        peak = np.maximum(peak, np.concatenate(tracks))
    suffix = np.maximum.accumulate(peak[::-1])[::-1]
    ok = np.nonzero(suffix <= level)[0]
    budgets = {"samples": budget}
    if ok.size == 0:
        return StabilityReport("uga", space, "inconclusive", None,
                               {"eps": eps, "rho": rho,
                                "residual": float(suffix[-1])},
                               budgets, {"horizon": ball.horizon})
    T_est = float(ball.grid[int(ok[0])])
    return StabilityReport("uga", space, "consistent", None,
                           {"eps": eps, "rho": rho, "settle_time": T_est},
                           budgets, {"horizon": ball.horizon})


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
    ball = _ball(sys, space, R, pairs, family, order, seed, n_nodes, h,
                 grid_points, T=T, error="need positive R, T and pairs")
    r, grid = sys.delay_r, ball.grid
    L = sys.lipschitz_modulus
    if sigma0 is None:
        sigma0 = _grown(R, float(L(R)) * T)
    growth = _grown(1.0, float(L(sigma0)) * T)
    p = _exponent_of(space)
    M = lipschitz_propagation_bound(R, T, r, p, L, sigma0)
    margins = {"growth_factor": growth, "propagation_constant": M}
    sup_space = SpaceSpec.sup()
    worst_sup = 0.0
    worst_full = 0.0
    # each member's node values and slopes of x_t at the grid times
    nodes = _Read(grid, n_nodes, lambda r, s, v, d: np.stack((v, d), axis=1),
                  width=2 * n_nodes * sys.dimension)
    s = np.linspace(-r, 0.0, n_nodes)
    size = _segment_chunk(n_nodes, sys.dimension)
    runs = enumerate(_ensemble(sys, _samples(ball.cfg, 2 * pairs), T,
                               ball.h, [nodes]))
    for (i, run_x), (k, run_y) in zip(runs, runs):
        x0, y0 = run_x.x0, run_y.x0
        escapes = [(run.escape_time, j, run.x0)
                   for j, run in ((i, run_x), (k, run_y)) if run.escaped]
        if escapes:
            e_time, j, z0 = min(escapes)
            wit = _witness(ball.cfg, j, z0, e_time, math.inf)
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
                    wit = _witness(ball.cfg, i, x0, float(t),
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
    s_grid, counts, members = _shell_plan(
        sys, space, rho_max, shells, budget, family, order, seed, n_nodes)
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = _report_grid(t_grid, horizon, r, grid_points)
    if lipschitz_modulus is None:
        lipschitz_modulus = sys.lipschitz_modulus
    runs = list(zip(members, _ensemble(
        sys, _keyed_samples((cfg, i) for _, cfg, i in members),
        float(grid[-1]),
        h, [_norm_read(SpaceSpec.sup(), grid, n_nodes),
            _norm_read(space, grid, n_nodes)], every=True)))
    env = _close_envelope(s_grid, grid, counts,
                          (run.tracks[0] for _, run in runs))
    lifted = lift_sup_envelope(env, r, _exponent_of(space), lipschitz_modulus)
    worst = 0.0
    for (j, cfg, i), run in runs:
        track = run.tracks[1]
        bound = lifted.sigma[j]
        bad = np.nonzero(track > bound * (1.0 + 1e-6) + 1e-12)[0]
        if bad.size:
            k = int(bad[0])
            wit = _witness(cfg, i, run.x0, float(grid[k]), float(track[k]))
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

    Every input is validated before anything integrates.  Past the ls
    bisection, one ensemble pass integrates each distinct (sampler
    config, index) of the ga, rfc and envelope balls once, and their
    judges read it: the bytes of check_ga, check_rfc and fit_kl_envelope.
    """
    rho_list = [float(x) for x in np.atleast_1d(rho_list)]
    eps_list = [float(x) for x in np.atleast_1d(eps_list)]
    if not rho_list or not eps_list:
        raise ParameterError("need at least one rho and one eps")
    balls = [_ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                   grid_points, horizon=horizon) for rho in rho_list]
    rho_max = max(rho_list)
    rfc_ball = balls[rho_list.index(rho_max)]
    s_grid, counts, members = _shell_plan(
        sys, space, rho_max, min(shells, budget), budget, family, order,
        seed, n_nodes)
    h, horizon, grid = rfc_ball.h, rfc_ball.horizon, rfc_ball.grid
    ls = check_ls(sys, space, eps_list, budget, horizon=horizon,
                  family=family, order=order, seed=seed, n_nodes=n_nodes,
                  h=h, grid_points=grid_points)
    # the envelope's T is its last report time: one pass needs T = horizon
    assert grid[-1] == horizon
    keys = dict.fromkeys([(ball.cfg, i) for ball in balls
                          for i in range(budget)]
                         + [(cfg, i) for _, cfg, i in members])
    runs = dict(zip(keys, _ensemble(
        sys, _keyed_samples(keys), horizon, h,
        [_norm_read(space, grid, n_nodes)], every=True)))
    ga_reports = [_ga_report(space, ball, min(eps_list),
                             (runs[ball.cfg, i] for i in range(budget)))
                  for ball in balls]
    rfc = _rfc_report(space, rfc_ball,
                      (runs[rfc_ball.cfg, i] for i in range(budget)))
    env = _close_envelope(s_grid, grid, counts,
                          (runs[cfg, i].tracks[0] for _, cfg, i in members))
    parts = {"ls": ls.verdict, "rfc": rfc.verdict,
             "ga": [g.verdict for g in ga_reports],
             "envelope_decayed": env.decayed,
             "envelope_nondecay": env.nondecay}
    point_ok = all(rep.verdict == "consistent"
                   for rep in [ls, rfc, *ga_reports])
    coherent = (not point_ok) or env.decayed
    margins = {"coherent": float(coherent),
               **{f"ls_{k}": v for k, v in ls.margins.items()},
               "rfc_sup": rfc.margins["sup"]}
    budgets = {"samples": budget, "shells": int(min(shells, budget))}
    falsified = [rep for rep in [ls, rfc, *ga_reports]
                 if rep.verdict == "falsified"]
    if falsified:
        return StabilityReport("gas_vs_ugas", space, "falsified",
                               falsified[0].witness, margins, budgets, parts)
    verdict = "consistent" if point_ok and env.decayed else "inconclusive"
    return StabilityReport("gas_vs_ugas", space, verdict, None, margins,
                           budgets, parts)
