"""Empirical stability checkers: sampling, falsification, envelope fitting.

Every property tested here quantifies over a ball of initial histories, so
no finite experiment can prove it; the checkers report one of three
verdicts.  "falsified" always comes with a witness that can be regenerated
bitwise from its recorded sampler coordinates.  "consistent" means the
sampled evidence fits the property at the configured tolerances, and
"inconclusive" means the horizon or the sample budget ended the experiment
before either of the other verdicts was earned.

Each check is a ball of samples (_ball, or _shell_plan for the envelope
checks), the reads it declares of each trajectory (_Read), one
_ensemble_blocks pass over the ball, and a judge over the pass's blocks
(_rfc_report, _lags_report, _ga_report, _uga_report, _pair_report,
_lift_report, and _close_envelope for the envelope).  A judge takes a
block (_Runs) at a time and compares the reads of all its samples, a
row each, with their limits as arrays; the first failing row's first
failure (_first_failure) is its report (_falsified), with the sample as
witness, and each worst ratio is a max over the arrays.
check_gas_vs_ugas judges ga, rfc and the envelope from one shared pass.

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
    _block_nodes, _block_of, _mesh, _row_counts, _sample_stacks, \
    _segment_chunk, _stack_chunk, simulate_many
from .dde import simulate  # noqa: F401  (unused; bench tests look it up here)
from .sampler import SamplerConfig
from .segment import DEFAULT_REFINE, HOELDER_GRID_CAP, ParameterError, \
    Segment, SpaceSpec, _cell_bounds, _hoelder_bound, _norms, \
    _refined_count, _squares, _uniform_grid, _uniform_reads, _write_table, \
    space_norm

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


def _segment_stacks(piece: _Block, at: slice, times, seg_nodes: int):
    """Yield (rows, cols, s, values, derivs): the node data of the
    segments x_t of the members at positions rows of the piece at the
    times times[cols], stacked member by member as (M K, seg_nodes, n),
    for the members at positions at (a slice), at most
    dde._segment_chunk (member, time) pairs a stack.  When a member's
    times fit a stack, a stack takes all the times of as many members as
    fit; otherwise it takes one member's times a chunk at a time, from
    the last time back, so that the member's last stack holds its first
    times."""
    times = np.asarray(times, dtype=float)
    size = _segment_chunk(seg_nodes, piece.system.dimension)
    group = max(1, size // max(1, times.size))
    first, stop, _ = at.indices(len(piece.members))
    for a in range(first, stop, group):
        rows = slice(a, min(a + group, stop))
        for hi in range(times.size, 0, -size):
            cols = slice(max(0, hi - size), hi)
            s, vals, ders = _block_nodes(piece, rows, times[cols], seg_nodes)
            yield (rows, cols, s, vals.reshape((-1,) + vals.shape[2:]),
                   ders.reshape((-1,) + ders.shape[2:]))


def _track(traj: Trajectory, times, seg_nodes: int | None,
           evaluate: Callable[..., np.ndarray] | None,
           lam: float | None = None,
           level: float | None = None,
           a: float | None = None) -> np.ndarray:
    """A functional of the history segment x_t of a whole trajectory at
    each time: the track of the block of one that holds it."""
    return _block_track(_block_of(traj), times, seg_nodes, evaluate, lam,
                        level, a)[0]


def _block_track(piece: _Block, times, seg_nodes: int | None,
                 evaluate: Callable[..., np.ndarray] | None,
                 lam: float | None = None,
                 level: float | None = None,
                 a: float | None = None) -> np.ndarray:
    """A functional of the history segment x_t of each member of a piece
    at each time, one row a member.

    Times past the covered end (escape) give +inf.  Without lam, evaluate
    takes stacked segments, (r, nodes, values, derivs) with node data
    (K, seg_nodes, n), to K values (or K arrays of one shape), and the
    track reads the piece's members together through _segment_stacks,
    as many (member, time) pairs a stack as dde._segment_chunk allows
    (each row bitwise segment_at), so each value is evaluate of x_t alone
    whatever the stack.

    With a level, evaluate gives one value a segment, exact only in how
    it compares with the level (see _norm_read), and the track keeps only
    what the suffix max of the piece's peak over its members needs.  A
    stack then holds one member's times: stacks across members join rows
    that prune different Hoelder lags, and their lag visits rose by two
    thirds.  A member stops after the first stack that holds a value
    above the level (or NaN); no member reads a time at or before the
    latest such value found so far in the piece, and no time is read if
    the piece ends before the last time.  Times left unread are +inf,
    which is above the level, so the suffix max of the peak compares with
    the level at every time as that of exact reads does.

    When evaluate is the Hoelder(a) norm at the level, a time is first
    screened by bound, before any resample: the cell bounds of the
    piece's own history and forward cells (segment._cell_bounds), their
    maxima over the window of each time (one maximum.reduceat, as in
    _window_maxima), and from them a bound of x_t's node data and so of
    its norm (segment._hoelder_bound, which derives the rounding
    allowance).  A time whose bound is finite and at most the level is
    cleared: it reads as the level, bitwise what its sweep would give,
    and each member reads back, under the rule above, only the times
    that are not cleared.  A cleared time at or before the final floor
    is +inf like every time there.

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
    out = np.full((members, len(times)), np.inf)
    if level is None:
        for rows, cols, s, vals, ders in _segment_stacks(piece, slice(None),
                                                         t, seg_nodes):
            got = evaluate(r, s, vals, ders)
            if out.shape[2:] != got.shape[1:]:  # values of evaluate's shape
                out = np.full(out.shape[:2] + got.shape[1:], np.inf)
            out[rows, cols] = got.reshape(
                (-1, cols.stop - cols.start) + got.shape[1:])
        return out
    if covered < len(times):
        return out
    clear = np.zeros(out.shape, dtype=bool)
    if a is not None and t.size:
        lo, hi, w, cells = _piece_cells(piece, t)
        # the cells' bounds, one row a member, then a pad column that
        # makes hi a valid bound of the reduceat; no window reaches it
        pad = np.zeros((members, 1))
        bounds = np.column_stack([lo, hi]).ravel()
        wv, wd = (np.maximum.reduceat(np.concatenate([*part, pad], axis=1),
                                      bounds, axis=1)[:, ::2]
                  for part in zip(*(_cell_bounds(*cell) for cell in cells)))
        g = r / (seg_nodes - 1)
        count = min(_refined_count(seg_nodes, DEFAULT_REFINE),
                    HOELDER_GRID_CAP)
        with np.errstate(all="ignore"):
            # x_t's node data from its window (see segment._hoelder_bound)
            e = 128.0 * np.finfo(float).eps * (wv + (w + np.abs(t) + r) * wd)
            clear = _hoelder_bound(wv + g / 3.0 * wd + e * (1.0 + g / w),
                                   5.0 * wd + e * (2.0 / w + 8.0 / g), a, r,
                                   count) <= level
    floor = 0
    for pos in range(members):
        left = floor + np.flatnonzero(~clear[pos, floor:])
        for _, cols, s, vals, ders in _segment_stacks(
                piece, slice(pos, pos + 1), t[left], seg_nodes):
            got = evaluate(r, s, vals, ders)
            out[pos, left[cols]] = got
            above = np.flatnonzero(~(got <= level))
            if above.size:
                floor = int(left[cols][above[-1]]) + 1
                break
    out[:, floor:][clear[:, floor:]] = level
    return out


def _piece_cells(piece: _Block, t: np.ndarray):
    """The cells of a piece's dense output that the windows [t - r, t]
    of the times t read: (lo, hi, w, cells), the window of t[k] the
    cells lo[k] .. hi[k] - 1 (with a cell of rounding to spare at each
    end), w the narrowest cell's width, and cells the (values, derivs,
    width) node data of the history cells, when the piece starts at the
    history, and of the forward cells, members first, in time order."""
    r, h = piece.system.delay_r, piece.step_h
    ft = piece.forward_times
    n_full, tail = _mesh(piece.end_time, h)
    j = piece.first_row + np.arange(ft.size - 1)
    widths = np.where(j < n_full, h, tail)
    cells = [(piece.forward_values.transpose(1, 0, 2),
              piece.forward_derivs.transpose(1, 0, 2), widths)]
    starts, stops = ft[:-1], ft[1:]
    if piece.first_row == 0:
        nodes = piece.hist_nodes
        width = np.full(nodes.size - 1, piece.hist_r / (nodes.size - 1))
        cells.insert(0, (piece.hist_values, piece.hist_derivs, width))
        starts = np.concatenate([nodes[:-1], starts])
        stops = np.concatenate([nodes[1:], stops])
    w = float(min(cell[2].min() for cell in cells if cell[2].size))
    tol = 1e-9 * (r + np.abs(t))
    lo = np.maximum(np.searchsorted(stops, t - r - tol, side="left") - 1, 0)
    hi = np.minimum(np.searchsorted(starts, t + tol, side="right") + 1,
                    starts.size)
    assert np.all(lo < hi)
    return lo, hi, w, cells


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
    seg_nodes, evaluate, lam, level, a), with times nondecreasing, which the
    ensemble takes of all of a piece's members at once (_block_track).
    With times None it is evaluate of the forward rows, (m, n) to m
    values, one a mesh node.  A value is width floats (evaluate's shape
    past the first axis), which the ensemble counts against the block's
    memory.  a is the exponent of a Hoelder norm, by which a track at a
    level screens its times (see _block_track)."""

    times: np.ndarray | None
    seg_nodes: int | None
    evaluate: Callable | None
    lam: float | None = None
    width: int = 1
    level: float | None = None
    a: float | None = None

    def track(self, traj: Trajectory) -> np.ndarray:
        """The track of a whole trajectory."""
        return _track(traj, self.times, self.seg_nodes, self.evaluate,
                      self.lam, self.level, self.a)

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
    (see _block_track); the others are +inf, or the level itself where a
    bound of a Hoelder norm settles a time before any read."""
    if space.kind == "sup":
        return _Read(grid, seg_nodes, None, 0.0)
    return _Read(grid, seg_nodes, partial(_norms, space=space, level=level),
                 level=level, a=space.a)


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


class _Runs(NamedTuple):
    """A block of an ensemble: its histories, their escape times (None
    for none, escaped their mask), the position of its first history in
    the ensemble, and each read as _Reader holds it: a (members, times,
    ...) array for a time read, +inf past a member's end, and the
    members' arrays of values, one a mesh row, for a row read."""

    x0s: list
    escape_times: list
    first: int
    tracks: list

    @property
    def escaped(self) -> np.ndarray:
        return np.array([t is not None for t in self.escape_times])

    def rows(self, at, first: int = 0) -> "_Runs":
        """The rows at (of time reads) as a block whose first is first."""
        return _Runs([self.x0s[b] for b in at],
                     [self.escape_times[b] for b in at], first,
                     [track[at] for track in self.tracks])


def _joined(blocks) -> _Runs:
    """The blocks of a pass of time reads as one block, in their order."""
    x0s, times, firsts, tracks = zip(*blocks)
    return _Runs(list(chain(*x0s)), list(chain(*times)), firsts[0],
                 [np.concatenate(track) for track in zip(*tracks)])


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
    values are one array at the end (see _Runs).
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
                                       read.evaluate, read.lam, read.level,
                                       read.a)
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

    def tracks(self) -> list:
        """Each read of the block once its last piece is read (_Runs)."""
        return [[np.concatenate(part) for part in parts] if read.times is None
                else np.full((len(self.escape_times), read.times.size),
                             np.inf) if track is None
                else track for read, parts, track
                in zip(self.reads, self.row_parts, self.time_tracks)]


def _ensemble_blocks(sys: DelaySystem, x0s, T: float, h: float, reads: list,
                     every: bool = False):
    """Yield the histories of the iterable x0s, in their order, a block
    at a time, each as its _Runs: integrated over [0, T], with their
    escapes and each read of reads (see _Read) as one array.

    Every integration of sampled histories goes through here, the `ls`
    probes and the Dini ladders included.  A block holds as many
    histories as their windows of dense output fit dde.BLOCK_BYTES
    together with what their reads keep (dde._block_members), and its
    reads are taken from its rows chunk by chunk as they settle, each in
    one call for all the members still running (_Reader), so no whole
    trajectory is held; a horizon that fits one window is one chunk.
    Lazy per block, so a caller that stops at its first counterexample
    integrates nothing past its block, and draws past it at most the
    rest of the sample stack (dde._sample_stacks) the block ended in.
    Such a caller's first block holds only as many histories as whole
    horizons fit, one chunk; the blocks after it, and every block of a
    caller that reads every history (every), are as wide as their
    windows allow.
    """
    x0s = iter(x0s)
    held = sum(read.held(_row_counts(sys, T, h)[0]) for read in reads)
    wide = _block_members(sys, T, h, held)
    size = wide if every else _block_members(sys, T, h, held, whole=True)
    first = 0
    while block := list(islice(x0s, size)):
        reader = _Reader(reads, len(block))
        simulate_many(sys, block, T, h, held=held, take=reader)
        yield _Runs(block, reader.escape_times, first, reader.tracks())
        first += len(block)
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
             norm: float) -> dict:
    return {"sampler": cfg.to_json_dict(), "index": int(index),
            "time": float(time), "norm": float(norm),
            "segment": seg.to_json_dict()}


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


def _falsified(prop: str, space: SpaceSpec, cfg: SamplerConfig, index: int,
               x0: Segment, time: float, margins: dict, budgets: dict,
               details: dict | None = None, norm: float = math.inf,
               **witness) -> StabilityReport:
    """The falsified report whose witness is sample index of cfg, x0, at
    time with norm, plus the fields of witness; by default x0 escaped at
    time."""
    return StabilityReport(
        prop, space, "falsified",
        {**_witness(cfg, index, x0, time, norm), **witness}, margins,
        budgets, {"escape_time": time} if details is None else details)


def _worst(worst: float, values: np.ndarray,
           den: np.ndarray | None = None) -> float:
    """max(worst, *values), or of values / den over the entries where
    den > 0, as a loop of max takes it, in row order over every axis of
    a stack of runs: a NaN changes nothing."""
    if den is not None:
        pos = den > 0.0
        values = values[pos] / den[pos]
    return float(np.fmax.reduce(values, axis=None, initial=worst))


def _first_failure(checks: list):
    """The first row of a block that fails a check, and the first check it
    fails: checks are (name, fails) in the order a row is judged, fails
    (K,) booleans, or (K, T) for a check of each report time or rung,
    which fails at its first failing column.  (row, name, column), the
    column None for a (K,) check, or None when every row passes."""
    rows = [fails if fails.ndim == 1 else fails.any(axis=1)
            for _, fails in checks]
    failing = np.logical_or.reduce(rows)
    if not failing.any():
        return None
    i = int(failing.argmax())
    for (name, fails), row in zip(checks, rows):
        if row[i]:
            return i, name, int(fails[i].argmax()) if fails.ndim == 2 \
                else None


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
        _write_table(fileobj,
                     ["s/t"] + [f"{t:.17g}" for t in self.t_grid.tolist()],
                     np.column_stack([self.s_grid, self.sigma]))

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
                    counts: np.ndarray, tracks: np.ndarray) -> KLEnvelope:
    """The envelope judge: the worst track of each shell (tracks, a row a
    member, in shell plan order), empty shells interpolated, closed to
    the KL shape."""
    raw = np.full((s_grid.size, t_grid.size), -np.inf)
    np.maximum.at(raw, np.repeat(np.arange(s_grid.size), counts), tracks)
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


def _shell_pass(sys: DelaySystem, space: SpaceSpec, report_spaces: list,
                rho_max: float, shells: int, budget: int, t_grid, family: str,
                order: int, seed: int, n_nodes: int, h: float | None,
                horizon: float | None, grid_points: int):
    """The one pass of the envelope checks over the shell plan of the
    space ball of radius rho_max, reading the norm of each space of
    report_spaces at the report times: the envelope of the first, each
    shell member (j, cfg, i), and their runs as one block."""
    s_grid, counts, members = _shell_plan(
        sys, space, rho_max, shells, budget, family, order, seed, n_nodes)
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = _report_grid(t_grid, horizon, r, grid_points)
    runs = _joined(_ensemble_blocks(
        sys, _keyed_samples((cfg, i) for _, cfg, i in members),
        float(grid[-1]), h, [_norm_read(s, grid, n_nodes)
                             for s in report_spaces], every=True))
    return _close_envelope(s_grid, grid, counts, runs.tracks[0]), members, \
        runs


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
    return _shell_pass(sys, space,
                       [space if report_space is None else report_space],
                       rho_max, shells, budget, t_grid, family, order, seed,
                       n_nodes, h, horizon, grid_points)[0]


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


def _rfc_report(space: SpaceSpec, ball: _Ball, blocks) -> StabilityReport:
    """The rfc judge of blocks read at every report time: none may
    escape."""
    sup = 0.0
    escapes = []
    for runs in blocks:
        (track,) = runs.tracks
        sup = max(sup, float(np.max(track, initial=0.0,
                                    where=np.isfinite(track))))
        escapes += [(runs.escape_times[i], runs.first + i, runs.x0s[i])
                    for i in np.flatnonzero(runs.escaped).tolist()]
    margins = {"sup": sup, "escape_count": float(len(escapes))}
    budgets = {"samples": ball.budget}
    if escapes:
        e_time, idx, x0 = min(escapes, key=lambda e: (e[0], e[1]))
        return _falsified("rfc", space, ball.cfg, idx, x0, e_time, margins,
                          budgets)
    return StabilityReport("rfc", space, "consistent", None, margins, budgets)


def check_rfc(sys: DelaySystem, space: SpaceSpec, rho: float, T: float,
              budget: int, *, family: str = "fourier", order: int = 3,
              seed: int = 0, n_nodes: int = 65, h: float | None = None,
              grid_points: int = 200) -> StabilityReport:
    """Bounded reachable sets: no sampled trajectory may escape before T."""
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, T=T, error="need positive rho, T and budget")
    return _rfc_report(space, ball, _ensemble_blocks(
        sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
        [_norm_read(space, ball.grid, n_nodes)], every=True))


def _peak(prop: str, space: SpaceSpec, ball: _Ball, margins: dict, blocks):
    """(None, the peak over the ball of each run's tracks joined), or
    (the escape report, with margins, of the first run that escapes,
    None)."""
    peak = np.zeros(ball.grid.size)
    for runs in blocks:
        found = _first_failure([("escape", runs.escaped)])
        if found:
            i = found[0]
            return _falsified(prop, space, ball.cfg, runs.first + i,
                              runs.x0s[i], runs.escape_times[i], margins,
                              {"samples": ball.budget}), None
        peak = np.maximum(peak,
                          np.concatenate(runs.tracks, axis=1).max(axis=0))
    return None, peak


def _lags_report(space: SpaceSpec, ball: _Ball, blocks) -> StabilityReport:
    """The lags judge of blocks read at every report time: their running
    peak may not still rise over the last quarter of the report times."""
    escape, peak = _peak("lags", space, ball, {"sup": math.inf}, blocks)
    if escape:
        return escape
    running = np.maximum.accumulate(peak)
    margins = {"sup": float(running[-1])}
    budgets = {"samples": ball.budget}
    if running[-1] > running[-ball.tail.size] * (1.0 + _REL_TOL):
        return StabilityReport("lags", space, "inconclusive", None, margins,
                               budgets, {"still_growing": True})
    return StabilityReport("lags", space, "consistent", None, margins, budgets)


def check_lags(sys: DelaySystem, space: SpaceSpec, rho: float, budget: int, *,
               horizon: float | None = None, family: str = "fourier",
               order: int = 3, seed: int = 0, n_nodes: int = 65,
               h: float | None = None,
               grid_points: int = 200) -> StabilityReport:
    """Uniform boundedness from the ball, truncated at the horizon."""
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, horizon=horizon)
    return _lags_report(space, ball, _ensemble_blocks(
        sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
        [_norm_read(space, ball.grid, n_nodes)]))


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
        """(sample, time, norm) of the delta ball's first leak, or None."""
        blocks = _ensemble_blocks(sys, (delta * seg for seg in base),
                                  ball.horizon, ball.h, reads)
        for runs in blocks:
            (track,) = runs.tracks
            found = _first_failure([("leak", track > eps * (1.0 + _REL_TOL))])
            if found:
                i, _, k = found
                return (runs.first + i, float(ball.grid[k]),
                        float(track[i, k]))
        return None

    margins = {}
    first_bad = None
    for eps in eps_list:
        # the ball of radius hi = 10 eps always leaks: sample 0 lies on its
        # sphere, so its norm at t = 0 is 10 eps
        lo, hi = 1e-6 * eps, 10.0 * eps
        leak = probe(lo, eps)
        if leak is not None:
            delta, frontier = 0.0, lo
        else:
            for _ in range(bisection_steps):
                mid = math.sqrt(lo * hi)
                bad = probe(mid, eps)
                if bad is None:
                    lo = mid
                else:
                    hi, leak = mid, bad
            delta, frontier = lo, hi
        margins[f"delta({eps:g})"] = delta
        if frontier <= 1e-3 * eps and first_bad is None:
            first_bad = (eps, frontier, leak)
    details = {"horizon": ball.horizon}
    budgets = {"samples": budget, "bisection_steps": bisection_steps}
    if first_bad is None:
        return StabilityReport("ls", space, "consistent", None, margins,
                               budgets, details)
    eps, frontier, (i, t_bad, v_bad) = first_bad
    return _falsified("ls", space, ball.cfg, i, frontier * base[i], t_bad,
                      margins, budgets,
                      {**details, "eps": eps, "frontier": frontier}, v_bad,
                      scale=frontier)


def _ga_report(space: SpaceSpec, ball: _Ball, eps: float,
               blocks) -> StabilityReport:
    """The ga judge of blocks read at least at ball.tail, all it judges."""
    worst_end = 0.0
    undecided = False
    for runs in blocks:
        tail = runs.tracks[0][:, -ball.tail.size:]
        above = ~np.all(tail <= eps * (1.0 + _REL_TOL), axis=1)
        plateau = tail.max(axis=1)
        found = _first_failure([("stagnant", above & (
            ~np.isfinite(plateau) | (tail[:, -1] >= 0.99 * plateau)))])
        if found:
            i = found[0]
            end = float(tail[i, -1])
            return _falsified(
                "ga", space, ball.cfg, runs.first + i, runs.x0s[i],
                float(ball.grid[-1]), {"residual_norm": end, "eps": eps},
                {"samples": ball.budget}, {"horizon": ball.horizon}, end)
        worst_end = _worst(worst_end, tail[:, -1])
        undecided |= bool(above.any())
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
    return _ga_report(space, ball, eps, _ensemble_blocks(
        sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
        [_norm_read(space, ball.tail, n_nodes)]))


def _uga_report(space: SpaceSpec, ball: _Ball, eps: float, rho: float,
                blocks) -> StabilityReport:
    """The uga judge of blocks read as check_uga reads them."""
    margins = {"eps": eps, "rho": rho}
    escape, peak = _peak("uga", space, ball, margins, blocks)
    if escape:
        return escape
    suffix = np.maximum.accumulate(peak[::-1])[::-1]
    ok = np.nonzero(suffix <= eps * (1.0 + _REL_TOL))[0]
    budgets = {"samples": ball.budget}
    details = {"horizon": ball.horizon}
    if ok.size == 0:
        return StabilityReport("uga", space, "inconclusive", None,
                               {**margins, "residual": float(suffix[-1])},
                               budgets, details)
    return StabilityReport(
        "uga", space, "consistent", None,
        {**margins, "settle_time": float(ball.grid[int(ok[0])])}, budgets,
        details)


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
    _block_track).  A Hoelder time that a certified bound already puts
    at or below the level is not read: the bound of a sample's window
    of dense output clears it before the resample, and the bound of
    the resampled node data before the refine.  The last time is read
    exactly, as the residual of an inconclusive report.
    """
    ball = _ball(sys, space, rho, budget, family, order, seed, n_nodes, h,
                 grid_points, horizon=horizon, eps=eps)
    return _uga_report(space, ball, eps, rho, _ensemble_blocks(
        sys, _samples(ball.cfg, budget), ball.horizon, ball.h,
        [_norm_read(space, ball.grid[:-1], n_nodes, eps * (1.0 + _REL_TOL)),
         _norm_read(space, ball.grid[-1:], n_nodes)]))


def _stack_norms(r: float, s: np.ndarray, nodes: np.ndarray,
                 space: SpaceSpec) -> np.ndarray:
    """_norms of an array of segments' node values and slopes (..., 2,
    N + 1, n), at most dde._segment_chunk segments a call, as tracks."""
    flat = nodes.reshape((-1,) + nodes.shape[-3:])
    size = _segment_chunk(s.size, nodes.shape[-1])
    out = np.empty(len(flat))
    for lo in range(0, len(flat), size):
        out[lo:lo + size] = _norms(r, s, flat[lo:lo + size, 0],
                                   flat[lo:lo + size, 1], space)
    return out.reshape(nodes.shape[:-3])


def _limits(factor: float, d0: np.ndarray) -> np.ndarray:
    """factor times each initial distance of d0, as a column, 0 where it
    is 0: an infinite factor on a zero distance still bounds by 0."""
    return np.multiply(factor, d0, out=np.zeros(d0.shape),
                       where=d0 != 0.0)[:, None]


def _pair_report(space: SpaceSpec, ball: _Ball, growth: float, M: float,
                 sigma0: float, blocks) -> StabilityReport:
    """The pair-bounds judge of blocks of runs in pairs (2i, 2i + 1), a
    pair maybe across two blocks, each read as its node values and slopes
    at the report times: the sup distance of a pair may grow by at most
    growth, its full distance by M."""
    margins = {"growth_factor": growth, "propagation_constant": M}
    budgets = {"pairs": ball.budget}
    sup = SpaceSpec.sup()
    r = ball.cfg.delay_r
    s = np.linspace(-r, 0.0, ball.cfg.n_nodes)
    worst_sup = worst_full = 0.0
    odd = None  # the unpaired last run of a block, paired in the next
    for runs in blocks:
        runs = runs if odd is None else _joined([odd, runs])
        end = len(runs.x0s) // 2 * 2
        odd = runs.rows([end], runs.first + end) if end < len(runs.x0s) \
            else None
        escaped = runs.escaped[0:end:2] | runs.escaped[1:end:2]
        gone = _first_failure([("escape", escaped)])
        end = end if gone is None else 2 * gone[0]  # the pairs judged
        xs, ys, track = runs.x0s[0:end:2], runs.x0s[1:end:2], runs.tracks[0]
        gap = track[0:end:2] - track[1:end:2]
        d0_sup = np.array([space_norm(x - y, sup) for x, y in zip(xs, ys)])
        d_sup = _stack_norms(r, s, gap, sup)
        if space == sup:  # the full distance is the sup distance
            d0_full, d_full = d0_sup, d_sup
        else:
            d0_full = np.array([space_norm(x - y, space)
                                for x, y in zip(xs, ys)])
            d_full = _stack_norms(r, s, gap, space)
        lim_sup, lim_full = _limits(growth, d0_sup), _limits(M, d0_full)
        found = _first_failure([("bound", (
            d_sup > lim_sup * (1.0 + 1e-6) + 1e-15)
            | (d_full > lim_full * (1.0 + 1e-6) + 1e-15))])
        if found:
            i, _, t = found
            ds, df = float(d_sup[i, t]), float(d_full[i, t])
            return _falsified(
                "pair_bounds", space, ball.cfg, runs.first + 2 * i, xs[i],
                float(ball.grid[t]), margins, budgets,
                {"d_sup": ds, "limit_sup": float(lim_sup[i, 0]),
                 "d_full": df, "limit_full": float(lim_full[i, 0])},
                max(ds, df), pair_index=runs.first + 2 * i + 1)
        if gone is not None:  # the pair's first escape, pair_index its twin
            e_time, b = min((runs.escape_times[b], b) for b in (end, end + 1)
                            if runs.escaped[b])
            return _falsified("pair_bounds", space, ball.cfg, runs.first + b,
                              runs.x0s[b], e_time, margins, budgets,
                              pair_index=runs.first + 2 * end + 1 - b)
        worst_sup = _worst(worst_sup, d_sup,
                           np.broadcast_to(lim_sup, d_sup.shape))
        worst_full = _worst(worst_full, d_full,
                            np.broadcast_to(lim_full, d_full.shape))
    return StabilityReport(
        "pair_bounds", space, "consistent", None,
        {**margins, "worst_sup_ratio": worst_sup,
         "worst_full_ratio": worst_full}, budgets, {"sigma0": sigma0})


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
    L = sys.lipschitz_modulus
    if sigma0 is None:
        sigma0 = _grown(R, float(L(R)) * T)
    growth = _grown(1.0, float(L(sigma0)) * T)
    M = lipschitz_propagation_bound(R, T, sys.delay_r, _exponent_of(space),
                                    L, sigma0)
    # each member's node values and slopes of x_t at the grid times
    nodes = _Read(ball.grid, n_nodes,
                  lambda r, s, v, d: np.stack((v, d), axis=1),
                  width=2 * n_nodes * sys.dimension)
    return _pair_report(space, ball, growth, M, sigma0, _ensemble_blocks(
        sys, _samples(ball.cfg, 2 * pairs), T, ball.h, [nodes]))


def _lift_report(space: SpaceSpec, env: KLEnvelope, lifted: KLEnvelope,
                 budgets: dict, members: list, runs: _Runs) -> StabilityReport:
    """The lift judge of the shell members and their runs, one block read
    in the sup norm and the full norm at the report times: the lifted
    envelope of the member's shell must dominate the full norm."""
    tracks = runs.tracks[1]
    bounds = lifted.sigma[[j for j, _, _ in members]]
    found = _first_failure([("breach",
                             tracks > bounds * (1.0 + 1e-6) + 1e-12)])
    if found:
        m, _, k = found
        j, cfg, i = members[m]
        measured = float(tracks[m, k])
        return _falsified(
            "envelope_lift", space, cfg, i, runs.x0s[m], float(env.t_grid[k]),
            {"bound": float(bounds[m, k]), "measured": measured}, budgets,
            {"envelope": env.to_json_dict()}, measured, shell=int(j))
    with np.errstate(invalid="ignore"):
        ratios = tracks / bounds
    return StabilityReport(
        "envelope_lift", space, "consistent", None,
        {"worst_ratio": _worst(0.0, ratios[np.isfinite(ratios)]),
         "trajectories_checked": float(len(members))}, budgets,
        {"envelope": env.to_json_dict(), "decayed": env.decayed})


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
    env, members, runs = _shell_pass(
        sys, space, [SpaceSpec.sup(), space], rho_max, shells, budget, t_grid,
        family, order, seed, n_nodes, h, horizon, grid_points)
    lifted = lift_sup_envelope(
        env, sys.delay_r, _exponent_of(space),
        sys.lipschitz_modulus if lipschitz_modulus is None
        else lipschitz_modulus)
    return _lift_report(space, env, lifted,
                        {"samples": budget, "shells": shells}, members, runs)


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
    # the row of each distinct (cfg, index) in the pass
    at = {key: row for row, key in enumerate(dict.fromkeys(
        [(ball.cfg, i) for ball in balls for i in range(budget)]
        + [(cfg, i) for _, cfg, i in members]))}
    runs = _joined(_ensemble_blocks(
        sys, _keyed_samples(at), horizon, h,
        [_norm_read(space, grid, n_nodes)], every=True))
    # each ball's samples 0 .. budget-1 as one block
    picked = [runs.rows([at[ball.cfg, i] for i in range(budget)])
              for ball in balls]
    ga_reports = [_ga_report(space, ball, min(eps_list), [rows])
                  for ball, rows in zip(balls, picked)]
    rfc = _rfc_report(space, rfc_ball, [picked[rho_list.index(rho_max)]])
    env = _close_envelope(s_grid, grid, counts, runs.tracks[0][
        [at[cfg, i] for _, cfg, i in members]])
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
