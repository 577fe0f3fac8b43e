"""Delay systems and their integration by the method of steps.

A :class:`DelaySystem` wraps a right-hand side f mapping a history segment
to a state derivative, together with the declared Lipschitz modulus L(R)
that the bound checkers rely on.  :func:`simulate_many` integrates
dx/dt = f(x_t) from a block of histories at once, as one (B, n) state, with
a classical fourth-order one-step scheme whose stages read the history
through cubic Hermite dense output; :func:`simulate` is its batch of one.
Member b of a block is bitwise the integration of its own history alone,
so results do not depend on how histories are grouped into blocks.  The
forward mesh is chosen so that every multiple of the delay r is a mesh
point; the derivative discontinuities that the method of steps propagates
from t = 0 therefore always land on nodes and each step integrates smooth
data.  Stages and :func:`segment_at` read x through the one Hermite formula
of :mod:`segment` on the same cells, so each node of x_t left of its right
end is bitwise the value a stage reads at that time once its step has
settled.

Right-hand sides access the state only through ``value_at_point(s)`` /
``value_at(array)`` queries with s in [-r, 0], which keeps distributed
delays first class.  On a plain :class:`Segment` the reads return (n,) and
(m, n); during integration the block view returns (B, n) and (B, m, n), one
row per member, so a right-hand side must act row-wise on the last axis
(write ``A @ v`` as a product that maps rows, as the built-ins do).  During
a step, queries into the not yet settled part of the current interval (an
overlap of at most one step) are answered by linear interpolation toward
the running stage value; this is the standard method-of-steps compromise
and is documented behavior, not an accident.

Solutions that leave the ball |x| <= 1e12, or turn non-finite, end their
integration early and mark the trajectory ``escaped`` with the crossing
time; finite-time blowup is data here (failure of forward completeness),
not an error.  The other members of the block carry on.  The block is
tested once per delay interval (r / h steps, a whole number) and after
the last step: a member that fails inside the interval steps on, on its
own rows, until the test, which finds its first failing step, so its
kept rows and escape time are those of a test after every step.

The block's dense output is one time-major buffer, (rows, B, n): a window
of forward rows, each read at its absolute cell index and fraction
(j = int(u / h)) less the window's first row.  The method of steps only
reads x back one delay, so a window needs the last delay interval plus
the rows being built.  :func:`simulate_many` hands the settled rows on
after each chunk's escape test, once for the whole block: one ``_Block``
piece views the window's rows of every member still running, with their
block indices and stacked histories, and starts at a later forward row
once the window has moved on; a member that escapes gets its last rows
as a block of one.  A window that spans the horizon hands on one piece
of whole trajectories, which :func:`simulate` and :func:`simulate_many`
return with each member's rows copied out of the window.

Stages read the dense output through read plans: the block's stage times
follow from its mesh, and a read at delay s that no plan covers computes,
in one vectorised Hermite call, its values at this stage and at every later
stage whose cells have both rows settled already, at most a share of
BLOCK_BYTES; the later stages look their row up.  Each planned read is
the formula of a read at its own stage on the same cell and fraction, so
planning ahead moves no bit (see ``_SolutionView``).

A step pays numpy's per-call cost and no more: its constants (step / 2,
step, step / 6 and 2) are 0-d arrays cached per step width, and each
stage state and partial sum is written into a preallocated buffer of
its own, the new state straight into its window row, in the association
y + (step / 2) k1, ..., y + (step / 6) (((k1 + 2 k2) + 2 k3) + k4).  The
built-in scalar families hold their coefficients as 0-d arrays too.  A
0-d factor makes the same products as a Python float, so no bit moves.

Ensembles integrate in memory-bounded blocks (``_block_members``): a
block holds the most histories whose smallest windows, two delay
intervals and three rows (16 n bytes a row, values plus derivatives),
fit :data:`BLOCK_BYTES` together with the bytes that each member's reads
keep until the block ends, and at least one; a horizon shorter than that
is one window.  The members of a block then share BLOCK_BYTES: each
window holds (BLOCK_BYTES // B - held) // (16 n) rows (``_window_rows``),
and the rows past the kept delay interval are one chunk, a whole number
of delay intervals.  A window that holds the horizon is a single chunk.
A block sized by whole horizons instead (``whole``) is one chunk.

Segments x_t are read the same way: ``_block_nodes`` gathers the node
values and slopes of x_t for many times t of one member of a piece as
one (K, N + 1, n) stack, and a whole trajectory is read as the block of
one that holds it (``_block_of``): ``_segment_nodes`` stacks its times
and :func:`segment_at` is their batch of one.  Norm tracks read their
times in chunks of the most whose refined values fit BLOCK_BYTES // 8
(``_segment_chunk``), and window maxima take their members in groups
whose candidates fit the same share (``_stack_chunk``), so the reads of
a block stay memory-bounded too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .sampler import SamplerConfig, sample_many
from .segment import (
    DEFAULT_REFINE,
    ParameterError,
    Segment,
    SpaceSpec,
    _check_keys,
    _field,
    _hermite,
    _hermite_slope,
    _integer,
    _locate,
    _points_read,
    _quadrature_weights,
    _real,
    _reals,
    _typed,
    sup_norm,
)

__all__ = [
    "ESCAPE_THRESHOLD",
    "DelaySystem",
    "LipschitzViolation",
    "SYSTEM_BUILDERS",
    "Trajectory",
    "lipschitz_probe",
    "make_system",
    "segment_at",
    "simulate",
    "simulate_many",
]

ESCAPE_THRESHOLD = 1e12
# dense output of one block of an ensemble, in bytes (see the module doc)
BLOCK_BYTES = 1 << 20


class LipschitzViolation(RuntimeError):
    """A sampled pair exceeded the declared Lipschitz modulus."""


@dataclass(frozen=True)
class DelaySystem:
    """A time-invariant delay system dx/dt = f(x_t) with zero equilibrium.

    rhs maps any Segment-like state (value_at_point / value_at queries) to
    its derivative: on a Segment the reads are (n,) and (m, n) and rhs
    returns (n,); on the integrator's block view they are (B, n) and
    (B, m, n) and rhs returns (B, n), row b depending on member b alone.
    Blocks hold as many histories as their windows of dense output fit
    in BLOCK_BYTES (see the module doc).  lipschitz_modulus(R) bounds the
    sup-norm Lipschitz constant of rhs on the R-ball.  Construction checks
    that the zero segment is an equilibrium.
    """

    name: str
    dimension: int
    delay_r: float
    rhs: object
    lipschitz_modulus: object
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ParameterError("system dimension must be at least 1")
        if not (self.delay_r > 0.0 and math.isfinite(self.delay_r)):
            raise ParameterError("delay r must be positive and finite")
        zero = Segment.zero(self.delay_r, self.dimension, n_nodes=33)
        with np.errstate(all="ignore"):  # a NaN rhs is refused below
            fz = np.atleast_1d(np.asarray(self.rhs(zero), dtype=float))
        if fz.shape != (self.dimension,):
            raise ParameterError("rhs output dimension mismatch")
        if not np.all(np.abs(fz) <= 1e-12):
            raise ParameterError("rhs must vanish on the zero segment")

    def to_json_dict(self) -> dict:
        return {"name": self.name, "n": self.dimension, "r": self.delay_r,
                "params": _params_to_json(self.params)}


def _params_to_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        out[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return out


# -- builtin systems ---------------------------------------------------
#
# The scalar families hold their coefficients as 0-d arrays: a 0-d factor
# of a (B, n) read costs numpy less than a Python float, and its products
# are the same bits.


def _param(params: dict, key: str, convert, family: str, *default):
    """A parameter of a system family, read by _field, refused unless
    every entry is finite; the error names the family and the key."""
    v = _field(params, key, convert, f"{family} params", *default)
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{family} params: {key!r} must be finite")
    return v


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M x for each row x of v, (n,) or (B, n): v @ M.T, one (1, n) @ (n, n)
    product per row, so a row's bits do not depend on how many rows are
    stacked (a (B, n) @ (n, n) product rounds differently at B = 1)."""
    return (v[..., None, :] @ M.T)[..., 0, :]


def _linear_scalar(r: float, params: dict) -> DelaySystem:
    _check_keys(params, {"a", "b"}, set(), "linear_scalar params")
    a = _param(params, "a", _real, "linear_scalar")
    b = _param(params, "b", _real, "linear_scalar")
    a0, b0 = np.array(a), np.array(b)

    if b != 0.0:
        def rhs(seg):
            return a0 * seg.value_at_point(0.0) + b0 * seg.value_at_point(-r)
    else:
        def rhs(seg):
            return a0 * seg.value_at_point(0.0)

    L = abs(a) + abs(b)
    return DelaySystem("linear_scalar", 1, r, rhs, lambda R: L,
                       {"a": a, "b": b})


def _linear_vector(r: float, params: dict) -> DelaySystem:
    _check_keys(params, {"A0", "A1"}, set(), "linear_vector params")
    A0 = _param(params, "A0", _reals, "linear_vector")
    A1 = _param(params, "A1", _reals, "linear_vector")
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1] or A0.shape != A1.shape:
        raise ParameterError("A0 and A1 must be equal square matrices")
    n = A0.shape[0]

    def rhs(seg):
        return _matvec(A0, seg.value_at_point(0.0)) \
            + _matvec(A1, seg.value_at_point(-r))

    L = np.linalg.norm(A0, 2) + np.linalg.norm(A1, 2)
    return DelaySystem("linear_vector", n, r, rhs, lambda R: L,
                       {"A0": A0, "A1": A1})


def _distributed_linear(r: float, params: dict) -> DelaySystem:
    _check_keys(params, {"A0", "K"}, set(), "distributed_linear params")
    A0 = _param(params, "A0", _reals, "distributed_linear")
    K = _param(params, "K", _reals, "distributed_linear")
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ParameterError("A0 must be square")
    n = A0.shape[0]
    if K.ndim != 3 or len(K) < 1 or K.shape[1:] != (n, n):
        raise ParameterError("K must hold at least one n x n kernel piece")
    pieces = [k.copy() for k in K]  # BLAS may round a view of K apart
    m = len(pieces)
    # fixed quadrature: 8 Simpson cells per equal-width kernel piece
    pts = 9
    edges = np.linspace(-r, 0.0, m + 1)
    times = np.concatenate(
        [np.linspace(edges[j], edges[j + 1], pts) for j in range(m)])
    w = _quadrature_weights(pts, (r / m) / (pts - 1))

    def rhs(seg):
        vals = seg.value_at(times)
        acc = _matvec(A0, seg.value_at_point(0.0))
        for j, K in enumerate(pieces):
            chunk = vals[..., j * pts:(j + 1) * pts, :]
            acc = acc + _matvec(K, w @ chunk)
        return acc

    L = np.linalg.norm(A0, 2) + r * max(np.linalg.norm(K, 2) for K in pieces)
    return DelaySystem("distributed_linear", n, r, rhs, lambda R: L,
                       {"A0": A0, "K": K})


def _saturating(r: float, params: dict) -> DelaySystem:
    _check_keys(params, {"c", "k"}, set(), "saturating params")
    c = _param(params, "c", _real, "saturating")
    k = _param(params, "k", _real, "saturating")
    if c < 0.0:
        raise ParameterError("damping c must be nonnegative")

    minus_c, k0 = np.array(-c), np.array(k)

    def rhs(seg):
        return minus_c * seg.value_at_point(0.0) \
            + k0 * np.tanh(seg.value_at_point(-r))

    return DelaySystem("saturating", 1, r, rhs, lambda R: c + abs(k),
                       {"c": c, "k": k})


def _quadratic(r: float, params: dict) -> DelaySystem:
    _check_keys(params, set(), {"c"}, "quadratic params")
    c = _param(params, "c", _real, "quadratic", 1.0)
    c0 = np.array(c)

    def rhs(seg):
        v = seg.value_at_point(0.0)
        return c0 * v * v

    # |c(u^2 - v^2)| <= 2 c R |u - v| on the R-ball
    return DelaySystem("quadratic", 1, r, rhs, lambda R: 2.0 * abs(c) * R,
                       {"c": c})


SYSTEM_BUILDERS = {
    "linear_scalar": _linear_scalar,
    "linear_vector": _linear_vector,
    "distributed_linear": _distributed_linear,
    "saturating": _saturating,
    "quadratic": _quadratic,
}


def make_system(name: str, r: float, params: dict) -> DelaySystem:
    if name not in SYSTEM_BUILDERS:
        raise ParameterError(f"unknown system {name!r}; "
                             f"known: {sorted(SYSTEM_BUILDERS)}")
    with _typed(f"{name} params"):
        return SYSTEM_BUILDERS[name](_real(r), params)


def system_from_json_dict(d: dict) -> DelaySystem:
    _check_keys(d, {"name", "r", "params"}, {"n"}, "system")
    with _typed("system"):
        sys = make_system(d["name"], _field(d, "r", _real, "system"),
                          d["params"])
        if "n" in d and _field(d, "n", _integer, "system") != sys.dimension:
            raise ParameterError(
                "declared dimension does not match the system")
    return sys


# -- trajectories ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense solution record over [-r, T] (or up to the escape time).

    The initial segment is kept whole, so history queries use its exact
    grid, and the forward rows follow it: forward_times from t = 0 and
    the node values and derivatives (m, n) there.  times, values and
    derivs join its history nodes and forward rows, and forward_start is
    the row index of t = 0 in them.  A trajectory ends at end_time, at
    its escape_time if it escaped (else None).  Its reads are those of
    the block of one that holds it (``_block_of``).
    """

    system: DelaySystem
    initial: Segment
    step_h: float
    forward_times: np.ndarray
    forward_values: np.ndarray
    forward_derivs: np.ndarray
    escape_time: float | None

    @property
    def escaped(self) -> bool:
        return self.escape_time is not None

    @property
    def end_time(self) -> float:
        return float(self.forward_times[-1])

    @property
    def forward_start(self) -> int:
        return self.initial.n_nodes - 1

    @property
    def times(self) -> np.ndarray:
        return np.concatenate([self.initial.nodes[:-1], self.forward_times])

    @property
    def values(self) -> np.ndarray:
        return np.concatenate([self.initial.values[:-1], self.forward_values])

    @property
    def derivs(self) -> np.ndarray:
        return np.concatenate([self.initial.derivs[:-1], self.forward_derivs])

    def write_csv(self, fileobj):
        n = self.system.dimension
        header = ["t"] + [f"x_{j+1}" for j in range(n)] \
            + [f"dx_{j+1}" for j in range(n)]
        fileobj.write(",".join(header) + "\n")
        for t, x, dx in zip(self.times, self.values, self.derivs):
            fileobj.write(",".join(f"{v:.17g}" for v in (t, *x, *dx)) + "\n")


class _Block(NamedTuple):
    """The settled rows of members of a block, as simulate_many hands them
    on to take: one piece for all the members still running, or a block
    of one for a member that escaped.

    members are the block indices of the piece's B' members, in the
    order of its member axis.  Their histories are stacked on the shared
    grid hist_nodes of window hist_r, hist_values and hist_derivs
    (B', N + 1, n).  The forward rows first_row, first_row + 1, ... at
    forward_times follow, forward_values and forward_derivs (m, B', n),
    a view of the block's window valid until take returns.  A later
    piece starts past forward node 0, so a read of x_t needs the rows
    from t - r to its cell's right node.  Only a member's last piece is
    final; escape_time is the escape of the member of a block of one
    that escaped, else None.  Every member of a piece ends at end_time.
    """

    system: DelaySystem
    step_h: float
    members: tuple
    hist_r: float
    hist_nodes: np.ndarray
    hist_values: np.ndarray
    hist_derivs: np.ndarray
    forward_times: np.ndarray
    forward_values: np.ndarray
    forward_derivs: np.ndarray
    escape_time: float | None
    first_row: int = 0
    final: bool = True

    @property
    def end_time(self) -> float:
        return float(self.forward_times[-1])


def _block_of(traj: Trajectory) -> _Block:
    """A whole trajectory as the block of one that holds it."""
    x0 = traj.initial
    return _Block(traj.system, traj.step_h, (0,), x0.delay_r, x0.nodes,
                  x0.values[None], x0.derivs[None], traj.forward_times,
                  traj.forward_values[:, None], traj.forward_derivs[:, None],
                  traj.escape_time)


class _SolutionView:
    """Segment-like read access to the partially built solutions of a block.

    Queries are relative to stage_time: s in [-r, 0] maps to absolute time
    stage_time + s, the same for every member.  Absolute times at or before
    settled_time use dense output (the stacked history nodes or the forward
    Hermite cells); later times lie in the overlap of the step being built
    and interpolate linearly toward the running stage value.  values and
    derivs are the block's window of dense output, time-major (rows, B, n):
    row i holds forward node first + i of every member.  A forward read
    locates its cell j by its absolute time, as over the whole horizon, and
    reads rows j - first and j + 1 - first; a read before the window's
    first row is refused.  Reads return (B, n) for a point and (B, m, n)
    for an array of m times, by the rules of the scalar reads.

    Dense reads are planned a span of stages ahead.  mesh, the block's
    full steps and short final step as _mesh gives them, fixes its
    schedule: stage 0 at time 0, then stages 2k + 1 and 2k + 2 at
    t_k + step / 2 and t_k + step of step k, both with k steps settled,
    by the integrator's own arithmetic, so a stage time names its stage.
    A read whose key (s for a point, the bytes of s for an array) has no
    plan that holds the current stage time makes one: its dense reads at
    this stage and at every later stage whose forward cells have both rows
    settled now, at most as many as fit a plan's share of BLOCK_BYTES, in
    one vectorised Hermite call.  Each is the scalar read's formula on the
    same cell and fraction, so it is bitwise the read made at its own
    stage.  A view without a mesh plans the current stage alone and drops
    its plans when set_stage moves the stage; the integrator drops them
    when the window moves, so that a read the window no longer holds is
    refused as before.  Late reads follow stage_value and are made afresh
    on every call: a late point read is not planned, and an array read
    copies its planned row and fills its late columns.  Planned reads are
    read-only.
    """

    __slots__ = ("delay_r", "dim", "h", "hist_values", "hist_derivs",
                 "values", "derivs", "first", "settled", "settled_time",
                 "stage_time", "stage_value", "mesh", "plans")

    def __init__(self, histories, values, derivs, h: float, first: int = 0,
                 mesh: tuple[int, float] | None = None):
        self.delay_r = histories[0].delay_r
        self.dim = histories[0].dim
        self.h = h
        self.hist_values = np.stack([x.values for x in histories])
        self.hist_derivs = np.stack([x.derivs for x in histories])
        self.values = values
        self.derivs = derivs
        self.first = first
        self.settled = 0
        self.settled_time = 0.0
        self.stage_time = 0.0
        self.stage_value = values[0]
        self.mesh = mesh
        self.plans = {}

    def set_stage(self, settled: int, stage_time: float, stage_value):
        if self.mesh is None and (settled != self.settled
                                  or stage_time != self.stage_time):
            self.plans.clear()
        self.settled = settled
        self.settled_time = settled * self.h
        self.stage_time = stage_time
        self.stage_value = stage_value

    def _row(self, j: int) -> int:
        """The window row of forward node j."""
        if j < self.first:
            raise ParameterError("right-hand side read x before t - r")
        return j - self.first

    def _planned(self, key, s) -> np.ndarray:
        """The planned read of key at the current stage: (B, n) for a
        point s, (B, m, n) for an array."""
        plan = self.plans.get(key)
        row = None if plan is None else plan[0].get(self.stage_time)
        if row is None:
            rows, reads = self._plan(np.atleast_1d(s))
            plan = self.plans[key] = \
                rows, reads if np.ndim(s) else reads[:, :, 0]
            row = rows[self.stage_time]
        return plan[1][row]

    def _plan(self, s: np.ndarray):
        """A plan of the reads at the times s, (m,): the row of each stage
        it covers, by stage time, and its reads there, (stages, B, m, n),
        read-only, with each late column left unset."""
        h = self.h
        B = self.stage_value.shape[0]
        # a plan's reads fit BLOCK_BYTES // 64: the Hermite formula makes
        # about ten temporaries of their size
        span = max(1, BLOCK_BYTES // (512 * B * s.size * self.dim))
        if self.mesh is None:
            times = np.array([self.stage_time])
            settled = np.array([self.settled])
        else:  # the schedule from the current stage to the last step's end
            n_full, tail = self.mesh
            k = self.settled
            if self.stage_time == 0.0:
                q0 = 0
            elif self.stage_time == k * h + 0.5 * (h if k < n_full else tail):
                q0 = 2 * k + 1
            else:
                q0 = 2 * k + 2
            q = np.arange(q0, min(q0 + span, 2 * (n_full + (tail > 0)) + 1))
            settled = np.maximum(q - 1, 0) // 2
            step = np.where(settled < n_full, h, tail)
            times = settled * h + np.where(q % 2, 0.5 * step, step)
            times[q == 0] = 0.0
        u = times[:, None] + s
        late = u >= (settled * h)[:, None]
        hist = ~late & (u <= 0.0)
        fwd = ~late & ~hist
        j = np.minimum((u / h).astype(int), settled[:, None] - 1)
        # a later stage joins while each of its forward cells has both
        # rows settled now; u < settled_time alone may round to a cell
        # whose right row is not yet written
        ahead = (fwd & (j >= self.settled)).any(axis=1)
        stop = int(np.argmax(ahead)) if ahead.any() else times.size
        u, hist, fwd, j = u[:stop], hist[:stop], fwd[:stop], j[:stop]
        reads = np.empty((stop, B, s.size, self.dim))
        by_time = reads.transpose(0, 2, 1, 3)
        if hist.any():
            by_time[hist] = _points_read(
                self.hist_values, self.hist_derivs, self.delay_r,
                u[hist]).transpose(1, 0, 2)
        if fwd.any():
            uf, jf = u[fwd], j[fwd]
            self._row(int(jf.min()))
            i = jf - self.first
            by_time[fwd] = _hermite(self.values[i], self.derivs[i],
                                    self.values[i + 1], self.derivs[i + 1],
                                    ((uf - jf * h) / h)[:, None, None], h)
        reads.flags.writeable = False
        return dict(zip(times[:stop].tolist(), range(stop))), reads

    def value_at_point(self, s: float) -> np.ndarray:
        if s == 0.0:  # u = stage_time, at or past settled_time
            return self.stage_value
        u = self.stage_time + s
        if u >= self.settled_time:
            gap = self.stage_time - self.settled_time
            if gap <= 0.0 or u >= self.stage_time:
                return self.stage_value
            w = (u - self.settled_time) / gap
            return (1.0 - w) * self.values[self.settled - self.first] \
                + w * self.stage_value
        return self._planned(s, s)

    def value_at(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = self._planned(s.tobytes(), s)
        u = self.stage_time + s
        late = u >= self.settled_time
        if late.any():
            out = out.copy()
            out[:, late] = self.stage_value[:, None]
            mid = late & (u < self.stage_time)
            if mid.any():
                w = ((u[mid] - self.settled_time)
                     / (self.stage_time - self.settled_time))[:, None]
                node = self.values[self.settled - self.first]
                out[:, mid] = (1.0 - w) * node[:, None] \
                    + w * self.stage_value[:, None]
        return out


def _mesh(T: float, h: float) -> tuple[int, float]:
    """Full steps of width h in [0, T] and the short final step (or 0.0)."""
    n_full = int(math.floor(T / h + 1e-9))
    tail = T - n_full * h
    return n_full, (tail if tail >= 1e-9 * h else 0.0)


def _mesh_times(T: float, h: float) -> np.ndarray:
    """The forward mesh on [0, T]: full steps of width h, then the short
    final step, which lands exactly on T."""
    n_full, tail = _mesh(T, h)
    n_steps = n_full + (1 if tail > 0.0 else 0)
    times = np.minimum(np.arange(n_steps + 1) * h, T)
    if tail > 0.0:
        times[-1] = T
    return times


def _working_step(r: float, T: float, h: float | None) -> float:
    """The solver step for a request: h (default r/200) shrunk to divide r."""
    if not (T > 0.0 and math.isfinite(T)):
        raise ParameterError("horizon T must be positive and finite")
    if h is None:
        h = r / 200.0
    if not (0.0 < h <= r / 10.0 + 1e-15 * r):
        raise ParameterError("step must satisfy 0 < h <= r/10")
    return r / math.ceil(r / h - 1e-12)


def _row_counts(sys: DelaySystem, T: float,
                h: float | None) -> tuple[int, int]:
    """Forward rows of the horizon, and of the smallest window: the kept
    delay interval (r / h + 3 rows) and one delay interval more."""
    h_eff = _working_step(sys.delay_r, T, h)
    return _mesh_times(T, h_eff).size, 2 * round(sys.delay_r / h_eff) + 3


def _block_members(sys: DelaySystem, T: float, h: float | None,
                   held: int = 0, whole: bool = False) -> int:
    """Histories per block: the most whose smallest windows (whole
    horizons if whole, or if shorter), each with the held bytes its reads
    keep, fit BLOCK_BYTES, and at least one."""
    total, smallest = _row_counts(sys, T, h)
    rows = total if whole else min(total, smallest)
    return max(1, BLOCK_BYTES // (16 * sys.dimension * rows + held))


def _window_rows(sys: DelaySystem, T: float, h: float | None,
                 members: int, held: int = 0) -> int:
    """Rows of each window of a block of members, each keeping held bytes
    of reads: their share of BLOCK_BYTES, at least the smallest window, at
    most the horizon."""
    total, smallest = _row_counts(sys, T, h)
    share = (BLOCK_BYTES // members - held) // (16 * sys.dimension)
    return min(total, max(smallest, share))


def simulate(sys: DelaySystem, x0: Segment, T: float, h: float | None = None
             ) -> Trajectory:
    """Integrate dx/dt = f(x_t) from history x0 over [0, T].

    h defaults to r/200 and is shrunk so the delay is an exact multiple of
    the working step (breakpoints on mesh nodes); a shorter final step
    lands exactly on T.  Requires h <= r/10.  The batch of one of
    :func:`simulate_many`.
    """
    return simulate_many(sys, [x0], T, h)[0]


def simulate_many(sys: DelaySystem, x0s, T: float, h: float | None = None,
                  *, take=None, held: int = 0) -> list[Trajectory] | None:
    """Integrate every history of x0s over [0, T] as one (B, n) state.

    The histories must share one node grid.  Trajectory b is bitwise
    :func:`simulate` of x0s[b]; a member that escapes stops there while
    the others carry on.  The whole list is one block, laid out as one
    time-major window of forward rows.

    Without take the window spans the horizon and the whole trajectories
    are returned, their rows copied out of the window.  With take the
    window holds _window_rows rows a member, leaving room for the held
    bytes that take keeps of each member until the block ends, and
    take(piece) receives the settled rows as _Block pieces, one call for
    all the members still running: after each chunk's escape test, the
    rows since the window's first row, then the window moves on and
    keeps the last delay interval (r / h + 3 rows).  A member that
    escapes gets its last rows, up to its escape, as a block of one at
    that test; the running members' last piece, after the last step, is
    final too.  A piece views the window, handed on once and valid until
    take returns; nothing is returned.
    """
    x0s = list(x0s)
    r = sys.delay_r
    for x0 in x0s:
        if abs(x0.delay_r - r) > 1e-12 * r:
            raise ParameterError(
                "history window does not match the system delay")
        if x0.dim != sys.dimension:
            raise ParameterError("history dimension does not match the system")
        if x0.delay_r != x0s[0].delay_r \
                or not np.array_equal(x0.nodes, x0s[0].nodes):
            raise ParameterError("histories of one block must share a grid")
    h_eff = _working_step(r, T, h)
    if not x0s:
        return [] if take is None else None
    n_full, tail = _mesh(T, h_eff)
    fwd_times = _mesh_times(T, h_eff)
    n_steps = fwd_times.size - 1
    per = round(r / h_eff)  # steps per delay interval (h_eff divides r)
    back = per + 3  # rows a window keeps when it moves on
    out = None
    if take is None:
        window = fwd_times.size
        out = [None] * len(x0s)

        def take(piece: _Block):
            for pos, b in enumerate(piece.members):
                out[b] = Trajectory(sys, x0s[b], h_eff,
                                    piece.forward_times.copy(),
                                    piece.forward_values[:, pos].copy(),
                                    piece.forward_derivs[:, pos].copy(),
                                    piece.escape_time)
    else:
        window = _window_rows(sys, T, h, len(x0s), held)

    members = list(range(len(x0s)))
    first = 0  # the forward node in row 0 of the window
    # rows not yet written hold NaN (or, once the window has moved, rows
    # it held before), so a read of one gives the same result every run
    values = np.full((window, len(x0s), sys.dimension), np.nan)
    derivs = np.full_like(values, np.nan)
    values[0] = [x0.values[-1] for x0 in x0s]

    def hand_on(at: slice, stop: int, final: bool = True,
                escape_time: float | None = None):
        """Forward rows first .. stop - 1 of the members at positions at
        to take, as one piece."""
        take(_Block(sys, h_eff, tuple(members[at]), view.delay_r,
                    x0s[0].nodes, view.hist_values[at], view.hist_derivs[at],
                    fwd_times[first:stop], values[:stop - first, at],
                    derivs[:stop - first, at], escape_time, first, final))

    view = _SolutionView(x0s, values, derivs, h_eff, mesh=(n_full, tail))
    derivs[0] = np.asarray(sys.rhs(view), dtype=float)
    rhs = sys.rhs
    # components of at most screen give |x| <= sqrt(n) screen, half the
    # threshold, so no state they make can fail the bound
    screen = ESCAPE_THRESHOLD / (2.0 * math.sqrt(sys.dimension))
    tested = 0  # forward rows 1 .. tested have passed the escape test
    # the stage states and the partial sums, one buffer each, none both
    # read and written by one call (an in-place ufunc on a block of one
    # scalar costs numpy twice a plain one), and an rhs that returns its
    # stage state (k2 is y2) aliases no buffer still to be written
    y2, y3, y4, scaled, part, total = np.empty((6, len(x0s), sys.dimension))
    two = np.array(2.0)
    # 0-d step constants by width: a 0-d factor costs numpy less than a
    # Python float, and its products are the same bits
    weights = {width: (np.array(0.5 * width), np.array(width),
                       np.array(width / 6.0)) for width in (h_eff, tail)}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            i = k - first
            t_k = k * h_eff
            step = h_eff if k < n_full else tail
            half, whole, sixth = weights[step]
            y = values[i]
            k1 = derivs[i]
            np.add(y, np.multiply(half, k1, scaled), y2)
            view.set_stage(k, t_k + 0.5 * step, y2)
            k2 = np.asarray(rhs(view), dtype=float)
            np.add(y, np.multiply(half, k2, scaled), y3)
            view.set_stage(k, t_k + 0.5 * step, y3)
            k3 = np.asarray(rhs(view), dtype=float)
            np.add(y, np.multiply(whole, k3, scaled), y4)
            view.set_stage(k, t_k + step, y4)
            k4 = np.asarray(rhs(view), dtype=float)
            # y + (step / 6) (((k1 + 2 k2) + 2 k3) + k4), straight into
            # its window row
            np.add(k1, np.multiply(two, k2, scaled), part)
            np.add(part, np.multiply(two, k3, scaled), total)
            np.add(total, k4, part)
            y_next = values[i + 1]
            np.add(y, np.multiply(sixth, part, scaled), y_next)
            # derivative at the fresh node: the step interior is still the
            # linear overlay (its Hermite data needs this very derivative)
            view.set_stage(k, t_k + step, y_next)
            derivs[i + 1] = np.asarray(rhs(view), dtype=float)
            if (k + 1) % per and k + 1 < n_steps:
                continue
            # one test of the interval's fresh nodes.  Rows are
            # independent, so a member that failed early in the interval
            # has stepped on alone.  The screen allocates nothing the size
            # of the rows: a NaN or inf shows in a max or a min.
            ys = values[tested + 1 - first:i + 2]
            ds = derivs[tested + 1 - first:i + 2]
            big = np.maximum(ys.max(axis=(0, 2)), -ys.min(axis=(0, 2)))
            steep = np.maximum(ds.max(axis=(0, 2)), -ds.min(axis=(0, 2)))
            keep = (big <= screen) & (steep < np.inf)
            for pos in np.flatnonzero(~keep):
                # the per-step test on this member's rows: a non-finite
                # state or derivative ends before the node of its first
                # failing step, a state past the threshold just after it
                row_y, row_d = ys[:, pos], ds[:, pos]
                broken = ~(np.isfinite(row_y).all(axis=1)
                           & np.isfinite(row_d).all(axis=1))
                fail = broken | (np.sqrt(np.sum(row_y * row_y, axis=1))
                                 > ESCAPE_THRESHOLD)
                if not fail.any():
                    keep[pos] = True
                    continue
                kf = tested + int(np.argmax(fail))
                t_fail = kf * h_eff + (h_eff if kf < n_full else tail)
                hand_on(slice(pos, pos + 1),
                        kf + (1 if broken[kf - tested] else 2),
                        escape_time=t_fail)
            tested = k + 1
            if not keep.all():
                members = [b for b, kept in zip(members, keep) if kept]
                if not members:
                    break
                values, derivs = values[:, keep], derivs[:, keep]
                y2, y3, y4, scaled, part, total = np.empty(
                    (6,) + values.shape[1:])
                view = _SolutionView([x0s[b] for b in members], values,
                                     derivs, h_eff, first, (n_full, tail))
            # no room for the rows up to the next test: hand on the
            # settled rows and keep the last delay interval
            if k + 1 < n_steps \
                    and i + 2 + min(per, n_steps - k - 1) > window:
                hand_on(slice(None), k + 2, final=False)
                start = k + 2 - back
                values[:back] = values[start - first:i + 2]
                derivs[:back] = derivs[start - first:i + 2]
                first = view.first = start
                view.plans.clear()  # a read of a dropped row is refused
    if members:
        hand_on(slice(None), n_steps + 1)
    return out


def segment_at(traj: Trajectory, t: float, n_nodes: int | None = None
               ) -> Segment:
    """The history segment x_t, resampled onto the standard uniform grid.

    Node values and derivatives come from the trajectory's dense output;
    times at or before zero read the initial segment exactly, later times
    read the integrator's own cells.  Requires 0 <= t <= the covered end
    time.  The batch of one of :func:`_segment_nodes`.
    """
    if n_nodes is None:
        n_nodes = traj.initial.n_nodes
    s, vals, ders = _segment_nodes(traj, np.array([t], dtype=float), n_nodes)
    return Segment(traj.system.delay_r, s, vals[0], ders[0])


def _segment_nodes(traj: Trajectory, times: np.ndarray, n_nodes: int):
    """The node times s of the uniform grid of n_nodes on [-r, 0] and the
    node values and slopes of x_t there for every t of times, stacked as
    (K, n_nodes, n): row k is bitwise the nodes of segment_at(traj,
    times[k], n_nodes).  The batch of one of :func:`_block_nodes`."""
    return _block_nodes(_block_of(traj), 0, times, n_nodes)


def _block_nodes(piece: _Block, pos: int, times: np.ndarray, n_nodes: int):
    """The node times s of the uniform grid of n_nodes on [-r, 0] and the
    node values and slopes of x_t there of the member at position pos of
    the piece for every t of times, stacked as (K, n_nodes, n).  The
    piece must hold every row the reads take: the cells are those of the
    whole trajectory, at the same absolute indices."""
    r = piece.system.delay_r
    end = piece.end_time
    if not np.all((-1e-12 * r <= times) & (times <= end + 1e-12 * r)):
        raise ParameterError("segment time outside the covered range")
    s = np.linspace(-r, 0.0, n_nodes)
    u = np.minimum(np.maximum(times, 0.0), end)[:, None] + s
    vals = np.empty(u.shape + (piece.system.dimension,))
    ders = np.empty_like(vals)
    hist = u <= 1e-14 * r
    if np.any(hist):
        hr = piece.hist_r
        j, f, w = _locate(hr, piece.hist_nodes, np.clip(u[hist], -hr, 0.0))
        hv, hd = piece.hist_values[pos], piece.hist_derivs[pos]
        cell = (hv[j], hd[j], hv[j + 1], hd[j + 1], f[:, None], w)
        vals[hist] = _hermite(*cell)
        ders[hist] = _hermite_slope(*cell)
    fwd = ~hist
    if np.any(fwd):
        # the integrator's cells: width h, a short final step its own
        h = piece.step_h
        fv, fd = piece.forward_values, piece.forward_derivs
        n_full, tail = _mesh(end, h)
        q = np.minimum(u[fwd], end)
        j = np.minimum((q / h).astype(int), piece.first_row + fv.shape[0] - 2)
        width = np.where(j < n_full, h, tail)
        i = j - piece.first_row
        assert i.min() >= 0, "read before the first row of a piece"
        cell = (fv[i, pos], fd[i, pos], fv[i + 1, pos], fd[i + 1, pos],
                ((q - j * h) / width)[:, None], width[:, None])
        vals[fwd] = _hermite(*cell)
        ders[fwd] = _hermite_slope(*cell)
    return s, vals, ders


def _stack_chunk(values: int) -> int:
    """Stacks of values floats per read: the most that fit
    BLOCK_BYTES // 8, and at least one."""
    return max(1, BLOCK_BYTES // (64 * values))


def _segment_chunk(n_nodes: int, dim: int) -> int:
    """Times per stacked read of segments of n_nodes nodes: the most whose
    refined values (DEFAULT_REFINE samples a cell) fit BLOCK_BYTES // 8,
    and at least one."""
    return _stack_chunk(((n_nodes - 1) * DEFAULT_REFINE + 1) * dim)


def _sample_stacks(cfg: SamplerConfig, indices):
    """The samples of cfg at indices (a sequence), in their order, as
    sample_many stacks drawn lazily one at a time: as many samples a
    stack as the refined values and slopes of their candidates fit
    BLOCK_BYTES // 8, and at least one."""
    size = _segment_chunk(cfg.n_nodes, 2 * cfg.dimension)
    for lo in range(0, len(indices), size):
        yield sample_many(cfg, indices[lo:lo + size])


# -- declared-modulus consistency --------------------------------------


def lipschitz_probe(sys: DelaySystem, R: float, trials: int,
                    seed: int = 0) -> float:
    """Max sampled ratio |f(x) - f(y)| / sup|x - y| over pairs in the R-ball.

    Raises LipschitzViolation if any ratio exceeds the declared modulus
    L(R) by more than 1e-8; otherwise returns the largest ratio seen.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not (R > 0.0):
        raise ParameterError("ball radius must be positive")
    cfg = SamplerConfig(family="fourier", order=3, target_space=SpaceSpec.sup(),
                        target_norm=R, dimension=sys.dimension,
                        delay_r=sys.delay_r, seed=seed, n_nodes=65)
    bound = float(sys.lipschitz_modulus(R)) + 1e-8
    worst = 0.0
    samples = chain.from_iterable(_sample_stacks(cfg, range(2 * trials)))
    # zip of one iterator with itself: the pairs of samples 2i, 2i + 1
    for i, (x, y) in enumerate(zip(samples, samples)):
        gap = sup_norm(x - y)
        if gap == 0.0:
            continue
        fx = np.atleast_1d(np.asarray(sys.rhs(x), dtype=float))
        fy = np.atleast_1d(np.asarray(sys.rhs(y), dtype=float))
        ratio = float(np.sqrt(np.sum((fx - fy) ** 2))) / gap
        if ratio > bound:
            raise LipschitzViolation(
                f"pair {i}: ratio {ratio:.6g} exceeds declared modulus "
                f"{bound:.6g} on the {R}-ball")
        worst = max(worst, ratio)
    return worst
