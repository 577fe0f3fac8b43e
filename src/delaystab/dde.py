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
data.  Stages and :func:`segment_at` read x through the one cell read of
:mod:`segment` on the same cells, history cells placed by its one locate
rule, so each node of x_t left of its right end is bitwise the value a
stage reads at that time once its step has settled.  That holds at u = 0
too: a node of x_t at absolute time 0 reads the history's stored end
node, as a stage's history read of that time does.

Right-hand sides access the state only through ``value_at_point(s)`` /
``value_at(array)`` queries with s in [-r, 0], which keeps distributed
delays first class; the integrator calls them on a block view, except for
the families that declare parts (below), which it steps from their parts
and never calls rhs.  On a plain :class:`Segment` the reads return (n,) and
(m, n); during integration the block view returns (B, n) and (B, m, n), one
row per member, so a right-hand side must act row-wise on the last axis
(write ``A @ v`` as a product that maps rows, as the built-ins do).  During
a step, queries into the not yet settled part of the current interval (an
overlap of at most one step) are answered by linear interpolation toward
the running stage value; this is the standard method-of-steps compromise
and is documented behavior, not an accident.

The families whose x(t) term is linear (linear_scalar, linear_vector and
saturating) declare f as two parts, f(x_t) = A0 x(t) + delayed(x(t - r))
(``DelaySystem.parts``; linear_scalar at b = 0 has no delayed part), and
build their rhs from them, so a segment's read is unchanged.  With
r >= 10 h, x(t - r) is settled data a delay interval ahead: the
integrator applies delayed once to a read plan at -r, over all the
plan's stages and members, and within a step g(t) = delayed(x(t - r)) is
known forcing.  Classical RK4 on x' = A0 x + g(t) is then exactly the
affine map y <- M y + F, F = (c0 g0 + ch gh) + cf gf from the planned
terms at the step's start, middle and end, M the RK4 stability function
of w A0 and all four built once per step width w (``_affine_step``;
Hairer, Norsett and Wanner, Solving ODEs I, for the stability function;
Bellen and Zennaro 2003 for RK inside the method of steps).  It steps a
run of full steps at once, up to the next escape test or the last step
whose two stages the plan holds: the run's forcing comes at once from
strided slices of the plan's terms (gh the odd stages, gf the even ones,
g0 the step before's gf), each step is then y <- M y + F alone, written
straight into its window row, and the run's node derivatives A0 y + gf,
each the next step's k1, come in one product and one add before the next
plan is made.  The short final step is a run of one, and so is a step
whose plan ends between its two stages, which plans its second stage
anew; the plan is dropped when the window moves or members escape.  A
family without a delayed part never reads the view: its run is y <- M y,
for a 0-d M one multiply.accumulate over its window rows.  The affine
map sums RK4's terms in another order than its stages do, so it matches
the stage form through rhs to rounding, not bitwise; every product maps
rows (a 0-d factor for n = 1, else ``_matvec``), so a member's bits
still do not depend on its block.  quadratic, whose x(t) term is not
linear, distributed_linear, whose quadrature reads x across [-r, 0], the
unsettled overlap at s = 0 included, and every system built without
parts step in the stage form through rhs and the block view.

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

Stages read the dense output through read plans, by stage number
(``_stages``): a read at delay s that no plan covers computes, in one
vectorised Hermite call, its values at this stage and at every later
stage whose cells have both rows settled already, at most a share of
BLOCK_BYTES; on the view path stage q takes row q - q0 of the plan made
at q0, and the affine step takes the plan at -r whole.  Each planned
read is the formula of a read at its own stage on the same cell and
fraction, so planning ahead moves no bit (see ``_SolutionView``).

A step pays numpy's per-call cost, about the same whatever the block
size, so its cost is its count of numpy calls: the affine step makes one
product and one add a step with a delayed part, none without one
for n = 1, and a few calls a run; the stage form makes four rhs calls
and its stage sums, in the association y + (step / 2) k1, ...,
y + (step / 6) (((k1 + 2 k2) + 2 k3) + k4).  The coefficients of both
are 0-d arrays (matrices for n > 1) cached per step width, and the
built-in scalar families hold theirs as 0-d arrays too: a 0-d factor
costs numpy less than a Python float and makes the same products, so no
bit moves.

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
values and slopes of x_t for many times t of many members of a piece as
one (M, K, N + 1, n) stack, and a whole trajectory is read as the block
of one that holds it (``_block_of``): ``_segment_nodes`` stacks its
times and :func:`segment_at` is their batch of one.  Norm tracks read
(member, time) pairs in stacks of the most whose refined values fit
BLOCK_BYTES // 8 (``_segment_chunk``), and window maxima take their
members in groups whose candidates fit the same share
(``_stack_chunk``), so the reads of a block stay memory-bounded too.
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
    _cell_reads,
    _check_keys,
    _field,
    _integer,
    _locate,
    _quadrature_weights,
    _real,
    _reals,
    _typed,
    _write_table,
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

    parts is structure, not an option: the families whose x(t) term is
    linear (linear_scalar, linear_vector, saturating) are f(x_t) = A0 x(t)
    + delayed(x(t - r)) and give the pair (A0, delayed): A0 the (n, n)
    coefficient of x(t) ([[a]], [[-c]] or A0), delayed a map of (..., n)
    to (..., n) row by row, or None where f reads x(t) alone
    (linear_scalar at b = 0).  rhs is built from them (_from_parts), and
    the integrator steps such a system by RK4's affine map, applying
    delayed to a plan's stages at once (see the module doc).  A system
    without parts is integrated in the stage form through rhs and the
    block view: one built by hand, quadratic, whose x(t) term is not
    linear, or distributed_linear, whose quadrature reads x across
    [-r, 0], the step being built included.
    """

    name: str
    dimension: int
    delay_r: float
    rhs: object
    lipschitz_modulus: object
    params: dict = field(default_factory=dict)
    parts: tuple | None = None

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
# The scalar families apply their coefficients as 0-d arrays: a 0-d factor
# of a (B, n) read costs numpy less than a Python float, and its products
# are the same bits.


def _param(params: dict, key: str, convert, family: str, *default):
    """A parameter of a system family, read by _field, refused unless
    every entry is finite; the error names the family and the key."""
    v = _field(params, key, convert, f"{family} params", *default)
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{family} params: {key!r} must be finite")
    return v


def _matvec(M: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """M x for each row x of v, (n,) or (B, n), into out if given: a 0-d M
    scales the rows, an (n, n) M is v @ M.T, one (1, n) @ (n, n) product
    per row, so a row's bits do not depend on how many rows are stacked
    (a (B, n) @ (n, n) product rounds differently at B = 1)."""
    if M.ndim == 0:
        return np.multiply(M, v, out)
    if out is None:
        return (v[..., None, :] @ M.T)[..., 0, :]
    np.matmul(v[..., None, :], M.T, out[..., None, :])
    return out


def _factor(C: np.ndarray) -> np.ndarray:
    """C as _matvec applies it: a 0-d factor if C is 1 x 1 (a 0-d factor
    of a (B, 1) read costs numpy less than a matrix product and is its
    bits), else C."""
    return np.array(C[0, 0]) if C.shape == (1, 1) else C


def _from_parts(name: str, r: float, A0: np.ndarray, delayed, L,
                params: dict) -> DelaySystem:
    """The family f(x_t) = A0 x(t) + delayed(x(t - r)), or A0 x(t) alone
    if delayed is None: its rhs is built from the parts, the family's one
    formula, and the parts ride along for the integrator."""
    A = _factor(A0)
    if delayed is None:
        def rhs(seg):
            return _matvec(A, seg.value_at_point(0.0))
    else:
        def rhs(seg):
            return _matvec(A, seg.value_at_point(0.0)) \
                + delayed(seg.value_at_point(-r))
    return DelaySystem(name, A0.shape[0], r, rhs, L, params, (A0, delayed))


def _linear_scalar(r: float, params: dict) -> DelaySystem:
    _check_keys(params, {"a", "b"}, set(), "linear_scalar params")
    a = _param(params, "a", _real, "linear_scalar")
    b = _param(params, "b", _real, "linear_scalar")
    b0 = np.array(b)
    L = abs(a) + abs(b)
    return _from_parts("linear_scalar", r, np.array([[a]]),
                       (lambda w: b0 * w) if b != 0.0 else None,
                       lambda R: L, {"a": a, "b": b})


def _linear_vector(r: float, params: dict) -> DelaySystem:
    _check_keys(params, {"A0", "A1"}, set(), "linear_vector params")
    A0 = _param(params, "A0", _reals, "linear_vector")
    A1 = _param(params, "A1", _reals, "linear_vector")
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1] or A0.shape != A1.shape:
        raise ParameterError("A0 and A1 must be equal square matrices")
    L = np.linalg.norm(A0, 2) + np.linalg.norm(A1, 2)
    return _from_parts("linear_vector", r, A0, lambda w: _matvec(A1, w),
                       lambda R: L, {"A0": A0, "A1": A1})


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

    k0 = np.array(k)
    return _from_parts("saturating", r, np.array([[-c]]),
                       lambda w: k0 * np.tanh(w), lambda R: c + abs(k),
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
        _write_table(fileobj, header, np.column_stack(
            [self.times, self.values, self.derivs]))


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


class _Plan(NamedTuple):
    """Reads of the times s, (m,), at stages q0, q0 + 1, ...: reads (stages,
    B, m, n), read-only, late columns unset; late and mid mark a stage's
    columns at or past its settled time and, of those, before its time, w
    a mid weight; overlay: a stage's any late, any mid, settled node row."""

    q0: int
    reads: np.ndarray
    late: np.ndarray | None
    mid: np.ndarray | None
    w: np.ndarray | None
    overlay: list


class _SolutionView:
    """Segment-like read access to the partially built solutions of a block.

    The view is at stage q of the block's mesh, (n_full, tail) as _mesh
    gives it, with k steps settled (_stages); s in [-r, 0] maps to
    absolute time u = stage time + s, the same for every member.  Times
    before the settled time k h use dense output (the stacked history
    nodes, located by segment's rule on their shared nodes, or the
    forward Hermite cells); later times lie in the overlap of the step
    being built and interpolate linearly from node k toward the running
    stage value.  values and derivs are the block's window of dense
    output, time-major (rows, B, n): row i holds forward node first + i
    of every member.  A forward read locates its cell j by its absolute
    time, as over the whole horizon, and reads rows j - first and
    j + 1 - first; a read before the window's first row is refused.
    Reads return (B, m, n) for an array of m times; a point read at s = 0
    is the stage value, at any other s the array read of s alone, (B, n).

    Reads are planned a span of stages ahead, by stage number.  A read
    whose times (keyed by their bytes) have no plan that holds stage q
    makes one: its dense reads at q and at every later stage whose
    forward cells have both rows settled now, at most as many as fit a
    plan's share of BLOCK_BYTES, in one vectorised Hermite call, and each
    stage's overlay of late columns.  Each is the one-stage read's formula
    on the same cell and fraction, so it is bitwise the read made at its
    own stage: a plan made at q has the one-stage read as its first row.
    A read copies its planned row and fills its late columns from the
    stage value by the overlay.  Planned reads are read-only.  The
    integrator drops the plans when the window moves, so that a read the
    window no longer holds is refused as before; its affine step calls
    _plan at -r itself and keeps the plan outside plans.
    """

    __slots__ = ("delay_r", "dim", "h", "hist_nodes", "hist_values",
                 "hist_derivs", "values", "derivs", "mesh", "first", "q",
                 "stage_value", "plans")

    def __init__(self, histories, values, derivs, h: float,
                 mesh: tuple[int, float], first: int = 0):
        self.delay_r = histories[0].delay_r
        self.dim = histories[0].dim
        self.h = h
        self.hist_nodes = histories[0].nodes
        self.hist_values = np.stack([x.values for x in histories])
        self.hist_derivs = np.stack([x.derivs for x in histories])
        self.values = values
        self.derivs = derivs
        self.mesh = mesh
        self.first = first
        self.q = 0
        self.stage_value = values[0]
        self.plans = {}

    def set_stage(self, q: int, stage_value):
        self.q = q
        self.stage_value = stage_value

    def _planned(self, s: np.ndarray) -> tuple[_Plan, int]:
        """The plan of the reads at the times s, (m,), that holds the
        current stage, made now if none does, and the stage's row in it."""
        key = s.tobytes()
        plan = self.plans.get(key)
        if plan is None or not 0 <= self.q - plan.q0 < len(plan.reads):
            plan = self.plans[key] = self._plan(s, self.q)
        return plan, self.q - plan.q0

    def _plan(self, s: np.ndarray, q: int) -> _Plan:
        """The plan of the reads at the times s, (m,), from stage q."""
        h = self.h
        B = self.values.shape[1]
        # a plan's reads fit BLOCK_BYTES // 64: the Hermite formula makes
        # about ten temporaries of their size
        span = max(1, BLOCK_BYTES // (512 * B * s.size * self.dim))
        n_full, tail = self.mesh
        times, settled = _stages(
            n_full, tail, h, q, min(q + span, 2 * (n_full + (tail > 0)) + 1))
        start = (settled * h)[:, None]
        u = times[:, None] + s
        late = u >= start
        hist = ~late & (u <= 0.0)
        fwd = ~late & ~hist
        j = np.minimum((u / h).astype(int), settled[:, None] - 1)
        # a later stage joins while each of its forward cells has both
        # rows settled now; u < settled time alone may round to a cell
        # whose right row is not yet written
        ahead = (fwd & (j >= settled[0])).any(axis=1)
        stop = int(np.argmax(ahead)) if ahead.any() else times.size
        u, late, hist, fwd, j = u[:stop], late[:stop], hist[:stop], \
            fwd[:stop], j[:stop]
        reads = np.empty((stop, B, s.size, self.dim))
        by_time = reads.transpose(0, 2, 1, 3)
        if hist.any():
            by_time[hist] = _cell_reads(
                self.hist_values, self.hist_derivs,
                *_locate(self.delay_r, self.hist_nodes, u[hist]))[0] \
                .transpose(1, 0, 2)
        if fwd.any():
            uf, jf = u[fwd], j[fwd]
            if jf.min() < self.first:
                raise ParameterError("right-hand side read x before t - r")
            by_time[fwd] = _cell_reads(
                self.values.transpose(1, 0, 2), self.derivs.transpose(1, 0, 2),
                jf - self.first, (uf - jf * h) / h, h)[0].transpose(1, 0, 2)
        reads.flags.writeable = False
        if not late.any():
            return _Plan(q, reads, None, None, None,
                         [(False, False, 0)] * stop)
        start, times = start[:stop], times[:stop, None]
        mid = late & (u < times)
        w = np.divide(u - start, times - start, out=np.zeros_like(u),
                      where=mid)
        return _Plan(q, reads, late, mid, w, list(zip(
            late.any(axis=1).tolist(), mid.any(axis=1).tolist(),
            (settled[:stop] - self.first).tolist())))

    def value_at_point(self, s: float) -> np.ndarray:
        if s == 0.0:  # u = stage time, at or past the settled time
            return self.stage_value
        return self.value_at(s)[:, 0]

    def value_at(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        plan, i = self._planned(s)
        out = plan.reads[i]
        late, mid, row = plan.overlay[i]
        if late:
            stage = self.stage_value[:, None]
            out = out.copy()
            out[:, plan.late[i]] = stage
            if mid:
                cols = plan.mid[i]
                w = plan.w[i, cols][:, None]
                out[:, cols] = (1.0 - w) * self.values[row][:, None] \
                    + w * stage
        return out


def _stages(n_full: int, tail: float, h: float, lo: int, hi: int):
    """The times and settled-step counts of the stages lo .. hi - 1 of a
    mesh (n_full, tail): stage 0 at time 0, then 2k + 1 and 2k + 2 at
    k h + step / 2 and k h + step, with k steps settled."""
    q = np.arange(lo, hi)
    settled = np.maximum(q - 1, 0) // 2
    step = np.where(settled < n_full, h, tail)
    times = settled * h + np.where(q % 2, 0.5 * step, step)
    if lo == 0:
        times[0] = 0.0
    return times, settled


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


def _affine_step(A0: np.ndarray, w: float) -> tuple:
    """Classical RK4 on x' = A0 x + g(t) over a step of width w is the
    affine map y <- M y + (c0 g0 + ch gh) + cf gf, g0, gh and gf the
    forcing at the step's start, middle and end: with Z = w A0, M =
    R(Z) = I + Z + Z^2 / 2 + Z^3 / 6 + Z^4 / 24 (RK4's stability function),
    c0 = (w / 6)(I + Z + Z^2 / 2 + Z^3 / 4), ch = (w / 6)(4 I + 2 Z +
    Z^2 / 2) and cf = (w / 6) I, each in Horner form.  M, c0 and ch come as
    _factor gives them, cf as the 0-d w / 6."""
    I = np.eye(A0.shape[0])
    Z = w * A0
    M = I + Z @ (I + Z @ (I / 2.0 + Z @ (I / 6.0 + Z / 24.0)))
    c0 = (w / 6.0) * (I + Z @ (I + Z @ (I / 2.0 + Z / 4.0)))
    ch = (w / 6.0) * (4.0 * I + Z @ (2.0 * I + Z / 2.0))
    return _factor(M), _factor(c0), _factor(ch), np.array(w / 6.0)


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
        if x0.delay_r != x0s[0].delay_r or (  # a stack shares its nodes
                x0.nodes is not x0s[0].nodes
                and not np.array_equal(x0.nodes, x0s[0].nodes)):
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

    view = _SolutionView(x0s, values, derivs, h_eff, (n_full, tail))
    rhs = sys.rhs
    A0, delayed = sys.parts or (None, None)
    # delayed(x(t - r)) at the stages lo .. hi - 1, (stages, B, n): the
    # view's read plan at -r with delayed applied to it at once
    lo = hi = 0
    terms = g_full = None  # g_full: the delayed term of the last full step
    minus_r = np.array([-r])

    def plan(q: int):
        """The delayed terms planned from stage q, and their stages."""
        reads = view._plan(minus_r, q).reads
        return q, q + len(reads), delayed(reads[:, :, 0])

    # the step widths that occur: full steps, and the short final step
    widths = [w for w, used in ((h_eff, n_full), (tail, tail)) if used]
    if A0 is None:
        # 0-d stage weights by width: a 0-d factor costs numpy less than a
        # Python float, and its products are the same bits
        weights = {width: (np.array(0.5 * width), np.array(width),
                           np.array(width / 6.0)) for width in widths}
        derivs[0] = np.asarray(rhs(view), dtype=float)
    else:
        weights = {width: _affine_step(A0, width) for width in widths}
        A = _factor(A0)
        if delayed is None:
            _matvec(A, values[0], derivs[0])
        else:
            lo, hi, terms = plan(0)
            g_full = terms[0]
            np.add(_matvec(A, values[0]), g_full, derivs[0])
    # components of at most screen give |x| <= sqrt(n) screen, half the
    # threshold, so no state they make can fail the bound
    screen = ESCAPE_THRESHOLD / (2.0 * math.sqrt(sys.dimension))
    tested = 0  # forward rows 1 .. tested have passed the escape test
    k = 0  # steps settled
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            i = k - first
            step = h_eff if k < n_full else tail
            # a run of m steps: the affine step takes the full steps up to
            # the next escape test at once, the short final step alone
            m = 1 if A0 is None else max(1, min(per - k % per, n_full - k))
            if A0 is None:
                # the stage form through rhs and the block view, in the
                # association y + (step / 6) (((k1 + 2 k2) + 2 k3) + k4)
                half, whole, sixth = weights[step]
                y, y_next, k1 = values[i], values[i + 1], derivs[i]
                view.set_stage(2 * k + 1, y + half * k1)
                k2 = np.asarray(rhs(view), dtype=float)
                view.set_stage(2 * k + 1, y + half * k2)
                k3 = np.asarray(rhs(view), dtype=float)
                view.set_stage(2 * k + 2, y + whole * k3)
                k4 = np.asarray(rhs(view), dtype=float)
                np.add(y, sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4), y_next)
                # derivative at the fresh node, the next step's k1: the
                # step interior is still the linear overlay (its Hermite
                # data needs this very derivative)
                view.set_stage(2 * k + 2, y_next)
                derivs[i + 1] = np.asarray(rhs(view), dtype=float)
            elif delayed is None:
                M = weights[step][0]
                ys = values[i:i + m + 1]
                if M.ndim == 0:  # y <- M y for the run in one call
                    ys[1:] = M
                    np.multiply.accumulate(ys, out=ys)
                else:
                    for y, y_next in zip(ys, ys[1:]):
                        _matvec(M, y, y_next)
                _matvec(A, ys[1:], derivs[i + 1:i + m + 1])
            else:
                # the affine step y <- M y + F[j] of the run's steps, F
                # from the delayed terms of each step's three stages: Gh
                # the odd stages, Gf the even ones and G0 the step
                # before's end.  The run ends with the plan's last whole
                # step; a step whose plan ends between its two stages is
                # a run of one that plans its second stage anew.
                M, c0, ch, cf = weights[step]
                q = 2 * k + 1
                if q >= hi:
                    lo, hi, terms = plan(q)
                m = max(1, min(m, (hi - q) // 2))
                Gh = terms[q - lo:q + 2 * m - lo:2]
                if q + 1 >= hi:
                    lo, hi, terms = plan(q + 1)
                Gf = terms[q + 1 - lo:q + 2 * m - lo:2]
                G0 = np.concatenate((g_full[None], Gf[:-1]))
                g_full = Gf[-1]
                F = np.add(np.add(_matvec(c0, G0), _matvec(ch, Gh)),
                           np.multiply(cf, Gf))
                ys = values[i:i + m + 1]
                for y, y_next, f in zip(ys, ys[1:], F):
                    np.add(_matvec(M, y, y_next), f, y_next)
                # the fresh nodes' derivatives, each the next step's k1
                np.add(_matvec(A, ys[1:]), Gf, derivs[i + 1:i + m + 1])
            k += m
            i = k - first  # the row of the last fresh node
            if k % per and k < n_steps:
                continue
            # one test of the interval's fresh nodes.  Rows are
            # independent, so a member that failed early in the interval
            # has stepped on alone.  The screen allocates nothing the size
            # of the rows: a NaN or inf shows in a max or a min.
            ys = values[tested + 1 - first:i + 1]
            ds = derivs[tested + 1 - first:i + 1]
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
            tested = k
            if not keep.all():
                members = [b for b, kept in zip(members, keep) if kept]
                if not members:
                    break
                values, derivs = values[:, keep], derivs[:, keep]
                if g_full is not None:
                    g_full = g_full[keep]
                view = _SolutionView([x0s[b] for b in members], values,
                                     derivs, h_eff, (n_full, tail), first)
                hi = 0  # the planned terms are of the old members
            # no room for the rows up to the next test: hand on the
            # settled rows and keep the last delay interval
            if k < n_steps and i + 1 + min(per, n_steps - k) > window:
                hand_on(slice(None), k + 1, final=False)
                start = k + 1 - back
                values[:back] = values[start - first:i + 1]
                derivs[:back] = derivs[start - first:i + 1]
                first = view.first = start
                view.plans.clear()  # a read of a dropped row is refused
                hi = 0
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
    s, vals, ders = _block_nodes(_block_of(traj), slice(0, 1), times, n_nodes)
    return s, vals[0], ders[0]


def _block_nodes(piece: _Block, at: slice, times: np.ndarray, n_nodes: int):
    """The node times s of the uniform grid of n_nodes on [-r, 0] and the
    node values and slopes of x_t there of the members at positions at
    (a slice) of the piece for every t of times, stacked as (M, K,
    n_nodes, n).  Each member's rows are the same Hermite formula on the
    same cells as its read alone, so every row is bitwise that of the
    member's own read.  The piece must hold every row the reads take:
    the cells are those of the whole trajectory, at the same absolute
    indices."""
    r = piece.system.delay_r
    end = piece.end_time
    if not np.all((-1e-12 * r <= times) & (times <= end + 1e-12 * r)):
        raise ParameterError("segment time outside the covered range")
    s = np.linspace(-r, 0.0, n_nodes)
    u = np.minimum(np.maximum(times, 0.0), end)[:, None] + s
    hist_values = piece.hist_values[at]
    vals = np.empty((len(hist_values),) + u.shape + (piece.system.dimension,))
    ders = np.empty_like(vals)
    hist = u <= 1e-14 * r
    if np.any(hist):
        hr = piece.hist_r
        vals[:, hist], ders[:, hist] = _cell_reads(
            hist_values, piece.hist_derivs[at],
            *_locate(hr, piece.hist_nodes, np.clip(u[hist], -hr, 0.0)),
            slopes=True)
    fwd = ~hist
    if np.any(fwd):
        # the integrator's cells: width h, a short final step its own
        h = piece.step_h
        n_full, tail = _mesh(end, h)
        q = np.minimum(u[fwd], end)
        j = np.minimum((q / h).astype(int),
                       piece.first_row + piece.forward_values.shape[0] - 2)
        width = np.where(j < n_full, h, tail)
        i = j - piece.first_row
        assert i.min() >= 0, "read before the first row of a piece"
        vals[:, fwd], ders[:, fwd] = _cell_reads(
            piece.forward_values[:, at].transpose(1, 0, 2),
            piece.forward_derivs[:, at].transpose(1, 0, 2), i,
            (q - j * h) / width, width[:, None], slopes=True)
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
