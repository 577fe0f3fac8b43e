"""Candidate energy functionals on history segments and their certificates.

A certificate here is a functional together with comparison functions: a
sandwich pinning the functional between monotone bounds of a norm, and a
decay or growth condition along the flow.  The module evaluates candidate
functionals, estimates upper-right Dini derivatives by a shrinking ladder
of forward quotients, and checks three certificate patterns on sampled
data: exponential decay of the functional (which implies a uniform decay
envelope through the inverted lower bound), pointwise dissipation with an
integral form along trajectories, and bounded exponential growth of the
functional under window prolongation (which rules out finite-time escape).

None of the checks prove anything; they falsify with witnesses or report
consistency at stated tolerances, like the rest of the toolkit.

Each check is a ball of samples, the reads it declares of each
trajectory (checkers._Read), one checkers._ensemble_blocks pass a phase,
and a judge over the pass's blocks, as in checkers: _exponential_report;
_dini_report over the Dini ladders, then _dissipation_report over the
integral pass; _prolongation_report over the sample stacks and their
prolongation quotients, which need no pass, then _growth_report over
the trajectories.  A judge takes one sample stack or one ensemble block
at a time, so it draws and integrates nothing past the one it fails in,
and compares the reads of all its samples with their limits as arrays,
a row a sample and a column a report time or rung.  Its report is the
first failing sample's first failing condition (checkers._first_failure,
_failed), and each worst ratio is one fmax reduction over a stack
(checkers._worst).  A limit that involves e^(rate t) uses libm's value,
computed once a report time (_exp_factors).

The samples are drawn once, in stacks (dde._sample_stacks), with V(x0),
the norm of x0 and the growth check's prolongations of a weighted sup
read once a stack, all from the stack's one refined read
(segment._Refined); the second pass of the dissipation and growth checks
reuses the first pass's samples and their values.  Every trajectory goes
through the ensemble, Dini ladders included: dini_derivative integrates
its ladder to the largest rung, 1e-2 r, and the dissipation check each
ladder only to the first solver-mesh node past the largest rung its
estimate reads (33 steps, not 2048), so that each rung it reads is
bitwise dini_derivative's.

The built-in rates (scaled_abs, scaled_square) evaluate the rows of a
chunk at once, each value bitwise the rate of its row alone, and a call
on one state is its row of one; a rate given only as a callable is
called once a row.  A MonotoneGridFn reads a scalar as an array of one.

The built-in functionals evaluate stacks of segments, node data
(K, N + 1, n) to K values, the way segment._norms norms them (see
_stacked), and Functional.evaluate is the batch of one (_built_in), so
a value does not depend on the stack it is read in.  A functional track
reads the report times of as many members of a block piece as fit as
one stack, so the Dini ladders of a block read their rungs together (40
ladders of three rungs at 65 nodes in 4 stacks), and a growth quotient
reads all the prolongations of a sample.  A functional given only by
its per-segment callable is read one segment at a time.

Forward quotients of a sup-type functional are delicate: the quotient
divides by steps down to 1e-7 of the delay, so the two sup evaluations
must share their sample points or grid-placement noise of order (cell)^2
swamps the signal.  The prolongation quotient therefore evaluates the
shifted window on the original segment's own refined grid points plus the
explicit linear tail, never on a resampled copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, tee
from typing import Callable

import numpy as np

from .checkers import (
    StabilityReport,
    _Ball,
    _ball,
    _ball_cfg,
    _ensemble_blocks,
    _falsified,
    _first_failure,
    _grown,
    _norm_read,
    _Read,
    _step_defaults,
    _worst,
)
from .dde import DelaySystem, _mesh_times, _sample_stacks, _working_step
from .dde import simulate  # noqa: F401  (unused; bench tests look it up here)
from .sampler import SamplerConfig
from .segment import (
    ParameterError,
    Segment,
    SpaceSpec,
    _check_keys,
    _euclid,
    _node_stack,
    _norms,
    _quadrature_weights,
    _real,
    _reals,
    _Refined,
    _select,
    _squares,
    prolong,
    space_norm,
)

__all__ = [
    "DiniEstimate",
    "EscapeError",
    "Functional",
    "MonotoneGridFn",
    "check_exponential_certificate",
    "check_growth_certificate",
    "check_pointwise_dissipation",
    "dini_derivative",
    "functional_from_json_dict",
    "functional_lipschitz_probe",
    "grid_fn_from_json_dict",
    "quadratic_integral",
    "rate_from_json_dict",
    "scaled_abs_rate",
    "scaled_square_rate",
    "space_norm_functional",
    "weighted_sup",
]

DINI_RUNGS = 6
DINI_H0_FACTOR = 1e-2
# mesh points of the dissipation integral check: the ends of each quarter
DISSIPATION_CHECKPOINTS = 4


def _dini_steps(r: float) -> np.ndarray:
    """Forward-quotient ladder: 1e-2 r, then quartered per rung."""
    return DINI_H0_FACTOR * r * 4.0 ** (-np.arange(DINI_RUNGS))


class EscapeError(RuntimeError):
    """A probe trajectory escaped; carries the escape time."""

    def __init__(self, escape_time: float):
        super().__init__(f"trajectory escaped at t = {escape_time:g}")
        self.escape_time = escape_time


# -- monotone grid functions -------------------------------------------


@dataclass(frozen=True, eq=False)
class MonotoneGridFn:
    """Nondecreasing piecewise-linear function with linear extrapolation."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.ascontiguousarray(self.xs, dtype=float)
        ys = np.ascontiguousarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ParameterError("grid function needs matching 1-D grids "
                                 "with at least two points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ParameterError("grid function entries must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ParameterError("abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0.0):
            raise ParameterError("ordinates must be nondecreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def linear(cls, slope: float) -> "MonotoneGridFn":
        if not (slope >= 0.0 and math.isfinite(slope)):
            raise ParameterError("slope must be nonnegative and finite")
        return cls(np.array([0.0, 1.0]), np.array([0.0, slope]))

    def __call__(self, v):
        """The value at each entry of v, a float for a scalar v."""
        xs, ys = self.xs, self.ys
        v = np.asarray(v, dtype=float)
        out = np.interp(v, xs, ys)
        out = np.where(v < xs[0], ys[0] + (v - xs[0])
                       * ((ys[1] - ys[0]) / (xs[1] - xs[0])), out)
        out = np.where(v > xs[-1], ys[-1] + (v - xs[-1])
                       * ((ys[-1] - ys[-2]) / (xs[-1] - xs[-2])), out)
        return float(out) if out.ndim == 0 else out

    def invert(self) -> "MonotoneGridFn":
        if np.any(np.diff(self.ys) <= 0.0):
            raise ParameterError("only a strictly increasing grid function "
                                 "can be inverted")
        return MonotoneGridFn(self.ys, self.xs)

    def to_json_dict(self) -> dict:
        return {"xs": self.xs.tolist(), "ys": self.ys.tolist()}


def grid_fn_from_json_dict(data: dict) -> MonotoneGridFn:
    if isinstance(data, dict) and "linear" in data:
        _check_keys(data, {"linear"}, set(), "grid function")
        return MonotoneGridFn.linear(_real(data["linear"]))
    _check_keys(data, {"xs", "ys"}, set(), "grid function")
    return MonotoneGridFn(_reals(data["xs"]), _reals(data["ys"]))


# -- functionals -------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Nonnegative functional on segments, vanishing at the origin.

    evaluate gives the value of one segment.  The built-in kinds
    (weighted_sup, quadratic_integral, space_norm, with their param) also
    evaluate a stack of segments at once, and their evaluate is the batch
    of one of that stacked read (see _built_in).  A functional given
    only by its per-segment callable is read one segment at a time.
    """

    name: str
    evaluate: Callable[[Segment], float]
    kind: str | None = None
    param: object = None


def _weighted_sups(lam: float, s: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """weighted_sup(lam) of each segment of a stack of refined reads, the
    sample times s and values (K, m, n), the weight taken once for the
    stack; the max is exact, so each value is that of the segment alone."""
    return (np.exp(lam * s) * _euclid(vals)).max(axis=1)


def _quadratic_integrals(mu: float, s: np.ndarray,
                         vals: np.ndarray) -> np.ndarray:
    """quadratic_integral(mu) of each segment of a stack of refined reads,
    weights and quadrature weights taken once for the stack."""
    sq = _squares(vals)
    w = _quadrature_weights(s.size, s[1] - s[0])
    weighted = np.exp(mu * s) * sq
    # one dot of fresh rows a segment, as segment._lp_norms takes them:
    # the BLAS dot rounds differently on a row view of the stack
    return sq[:, -1] + np.array([w @ row.copy() for row in weighted])


def _built_in(name: str, kind: str, param) -> Functional:
    """The built-in functional of kind with param, whose evaluate is the
    batch of one of its stacked read (_stacked)."""
    def evaluate(seg: Segment) -> float:
        return float(_stacked(V)(seg.delay_r, seg.nodes, seg.values[None],
                                 seg.derivs[None])[0])

    V = Functional(name, evaluate, kind, param)
    return V


def weighted_sup(lam: float) -> Functional:
    """V(x) = sup over the window of e^(lam s) |x(s)|."""
    lam = _real(lam)
    if not math.isfinite(lam):
        raise ParameterError("weight exponent must be finite")
    return _built_in(f"weighted_sup({lam:g})", "weighted_sup", lam)


def quadratic_integral(mu: float) -> Functional:
    """V(x) = |x(0)|^2 + integral of e^(mu s) |x(s)|^2 over the window."""
    mu = _real(mu)
    if not math.isfinite(mu):
        raise ParameterError("weight exponent must be finite")
    return _built_in(f"quadratic_integral({mu:g})", "quadratic_integral", mu)


def space_norm_functional(space: SpaceSpec) -> Functional:
    return _built_in(f"space_norm[{space.label}]", "space_norm", space)


def _stacked(V: Functional) -> Callable:
    """V of each segment of a stack: (r, nodes, values, derivs), node data
    (K, N + 1, n) on the uniform nodes from -r to 0, gives K values; a
    keyword refined, the stack's segment._Refined read, is shared with
    the caller's other kernels of the stack.

    The built-in kinds read the whole stack at once, each value bitwise
    that of its segment alone, which V.evaluate reads as a stack of one:
    a weighted sup or quadratic integral by its kernel on the stack's
    refined values, and a space norm by segment._norms, of which
    space_norm is the batch of one.  Any other functional is read one
    segment at a time, and reads no shared read.
    """
    if V.kind == "space_norm":
        return partial(_norms, space=V.param)
    kernel = {"weighted_sup": _weighted_sups,
              "quadratic_integral": _quadratic_integrals}.get(V.kind)
    if kernel is None:
        def one_at_a_time(r, nodes, values, derivs, refined=None):
            return np.array([V.evaluate(Segment(r, nodes, v.copy(),
                                                d.copy()))
                             for v, d in zip(values, derivs)])

        return one_at_a_time

    def stacked(r, nodes, values, derivs, refined=None):
        if refined is None:
            refined = _Refined(r, nodes, values, derivs)
        s, vals, _ = refined()
        return kernel(V.param, s, vals)

    return stacked


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of (m, n) states, bitwise: the norm is
    the root of the row's dot with itself, and a stack of (1, n) @ (n, 1)
    products takes that same dot per row, where a row-sum or einsum
    rounds differently for n > 1."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class _Rate:
    """A built-in rate, Q(v) = c |v| (power 1) or c |v|^2 (power 2):
    rows gives Q of each row of (m, n) states at once, each value that of
    its row alone, and a call on one state is its row of one."""

    c: float
    power: int

    def __call__(self, v) -> float:
        return float(self.rows(np.atleast_1d(np.asarray(v, dtype=float))
                               [None])[0])

    def rows(self, rows: np.ndarray) -> np.ndarray:
        norms = _row_norms(rows)
        if self.power == 1:
            return self.c * norms
        # the scalar power of a norm is libm's pow, which an array power
        # (a square, or a vector pow) does not round alike
        return np.array([self.c * v ** 2 for v in norms.tolist()])


def _rate(c, power: int) -> _Rate:
    c = _real(c)
    if not (c > 0.0 and math.isfinite(c)):
        raise ParameterError("rate constant must be positive")
    return _Rate(c, power)


def scaled_abs_rate(c: float) -> Callable[[np.ndarray], float]:
    """Q(v) = c |v|, positive definite for c > 0."""
    return _rate(c, 1)


def scaled_square_rate(c: float) -> Callable[[np.ndarray], float]:
    """Q(v) = c |v|^2, positive definite for c > 0."""
    return _rate(c, 2)


def _row_rates(Q: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Q of each row of (m, n) states: a built-in rate on all rows at
    once, any other callable one row at a time."""
    if isinstance(Q, _Rate):
        return Q.rows
    return lambda rows: np.array([Q(row) for row in rows])


def _from_table(data: dict, table: dict, what: str):
    """Build {"type": t, key: v} as table[t] = (key, builder) says."""
    kind = _select(data, "type", table, what)
    key, build = table[kind]
    _check_keys(data, {"type", key}, set(), f"{kind} {what}")
    return build(data[key])


_FUNCTIONALS = {
    "weighted_sup": ("lam", weighted_sup),
    "quadratic_integral": ("mu", quadratic_integral),
    "space_norm": ("space", lambda d: space_norm_functional(
        SpaceSpec.from_json_dict(d))),
}
_RATES = {"scaled_abs": ("c", scaled_abs_rate),
          "scaled_square": ("c", scaled_square_rate)}


def functional_from_json_dict(data: dict) -> Functional:
    return _from_table(data, _FUNCTIONALS, "functional")


def rate_from_json_dict(data: dict) -> Callable[[np.ndarray], float]:
    return _from_table(data, _RATES, "rate")


# -- Dini derivative ---------------------------------------------------


@dataclass(frozen=True)
class DiniEstimate:
    """Forward-quotient ladder for the upper-right derivative of V."""

    quotients: tuple
    estimate: float
    trend: bool

    def __post_init__(self):
        hs = [h for h, _ in self.quotients]
        if len(hs) < 3 or any(b >= a for a, b in zip(hs, hs[1:])):
            raise ParameterError("quotient steps must be strictly decreasing "
                                 "with at least three rungs")
        if not math.isfinite(self.estimate):
            raise ParameterError("Dini estimate must be finite")


def dini_derivative(sys: DelaySystem, V: Functional,
                    x: Segment) -> DiniEstimate:
    """Estimate the upper-right derivative of V along the flow at x.

    One short simulation covers the whole ladder, to its largest rung
    1e-2 r; the solver step, half the smallest rung, divides every rung
    time exactly.  An escape before the ladder's end raises EscapeError.
    One checkers._ensemble_blocks block of one with _dini_read, then
    _dini_ladder.
    check_pointwise_dissipation integrates its ladders only as far as
    its estimate reads (see there), and its estimate is this one's in
    every bit.
    """
    r = sys.delay_r
    hs = _dini_steps(r)
    (run,) = _ensemble_blocks(sys, [x], float(hs[0]), hs[-1] / 2.0,
                              [_dini_read(V, hs, x.n_nodes)])
    if run.escaped[0]:
        raise EscapeError(run.escape_times[0])
    return _dini_ladder(r, V.evaluate(x), run.tracks[0][0])


def _dini_read(V: Functional, hs: np.ndarray, n_nodes: int) -> _Read:
    """V at the rungs x_h of a ladder, one for each step h of the
    decreasing hs, read as a stacked track (each value bitwise V of
    segment_at); the steps go in increasing order, as a track takes its
    times."""
    return _Read(hs[::-1], n_nodes, _stacked(V))


def _dini_quotients(hs: np.ndarray, v0, vs: np.ndarray) -> np.ndarray:
    """The forward quotient (V(x_h) - V(x)) / h for each step h of the
    decreasing hs, from V(x) = v0 and the _dini_read values vs: of one
    ladder, or of a stack of ladders, a row each, with a column of v0."""
    return (vs[..., ::-1] - v0) / hs


def _dini_ladder(r: float, v0: float, vs: np.ndarray) -> DiniEstimate:
    """The ladder of quotients from V(x) = v0 and the _dini_read values
    vs.  The estimate is the max of the last three quotients, and the
    trend flag warns when the two smallest rungs still differ by more
    than 10 percent."""
    hs = _dini_steps(r)
    quotients = list(zip(hs.tolist(), _dini_quotients(hs, v0, vs).tolist()))
    tail = [q for _, q in quotients[-3:]]
    q_prev, q_last = quotients[-2][1], quotients[-1][1]
    scale = max(abs(q_prev), abs(q_last), 1e-9 * (1.0 + v0))
    return DiniEstimate(quotients=tuple(quotients),
                        estimate=float(max(tail)),
                        trend=bool(abs(q_last - q_prev) > 0.1 * scale))


# -- shared helpers ----------------------------------------------------


def _prolonged_weighted_sups(refined: _Refined, fs: np.ndarray,
                             hs: np.ndarray, lam: float) -> np.ndarray:
    """Weighted sup of the h-prolongation of each segment x of a stack,
    whose head slope is its row of fs, for each step h of hs, on shared
    sample points: (K, len(hs)), from the stack's refined read.

    The shifted-history part reuses the original refined grid (points that
    remain in the window), so its candidates differ from the functional's
    own evaluation only by the weight shift; the linear tail is sampled
    densely, 17 points a step.  The sliver below one refined cell at the
    far end is dropped, making this a lower approximation like every
    discrete sup here.  Each element is computed as that segment and step
    alone would be; the window part goes a step at a time, so that no
    temporary holds more than one step of the stack.
    """
    r, _, values, _ = refined.data
    s, vals, _ = refined()
    mags = _euclid(vals)
    steps = hs[:, None]
    keep = s >= -r + steps - 1e-15 * r
    weights = np.exp(lam * (s - steps))
    cand = np.empty((values.shape[0], hs.size))
    for k in range(hs.size):
        cand[:, k] = np.where(keep[k], weights[k] * mags, -np.inf).max(axis=1)
    ss = np.linspace(-hs, 0.0, 17, axis=1)
    tail = values[:, -1, None, None] + (ss + steps)[:, :, None] \
        * fs[:, None, None]
    cand_tail = (np.exp(lam * ss) * _euclid(tail)).max(axis=-1)
    return np.where(cand_tail > cand, cand_tail, cand)


def _weighted_kind(V: Functional) -> float | None:
    """Weight exponent when V is a weighted sup, else None."""
    if V.kind == "weighted_sup":
        return float(V.param)
    if V.kind == "space_norm" and V.param.kind == "sup":
        return 0.0
    return None


def _functional_read(V: Functional, times, n_nodes: int) -> _Read:
    """V(x_t) at each time: a weighted sup (the sup norm included) by its
    window max, any other functional on the stacked segments x_t."""
    return _Read(times, n_nodes, _stacked(V), _weighted_kind(V))


def _growth_quotients(U: Functional, xs: list, u0s, fs: np.ndarray,
                      hs: np.ndarray, refined: _Refined | None = None
                      ) -> np.ndarray:
    """(U(P_h x) - U(x)) / h for each step h of hs, a row for each segment
    x of the stack xs, where U(x) is its u0 of u0s and its head slope its
    row of fs: a weighted sup by its noise-free prolongation path, from
    the stack's refined read (refined, or a read of its own), any other
    functional on the stack of a segment's prolongations, one segment at
    a time."""
    lam = _weighted_kind(U)
    u0s = np.asarray(u0s, dtype=float)
    if lam is not None:
        if refined is None:
            refined = _Refined(*_node_stack(xs))
        up = _prolonged_weighted_sups(refined, fs, hs, lam)
        return (up - u0s[:, None]) / hs
    return np.array([(_stacked(U)(*_node_stack([prolong(x, f, h)
                                                for h in hs.tolist()]))
                      - u0) / hs for x, u0, f in zip(xs, u0s.tolist(), fs)])


def _prolonged(sys: DelaySystem, U: Functional, stacks, hs: np.ndarray):
    """(xs, U(x) of each, _growth_quotients of each) for each stack xs of
    the sample stacks, in their order: U and a weighted sup's
    prolongations share the stack's one refined read."""
    for xs in stacks:
        stack = _node_stack(xs)
        refined = _Refined(*stack)
        u0s = _stacked(U)(*stack, refined=refined)
        fs = np.array([np.atleast_1d(np.asarray(sys.rhs(x), dtype=float))
                       for x in xs])
        yield xs, u0s, _growth_quotients(U, xs, u0s, fs, hs, refined)


def _stack_reads(xs: list, *reads) -> list:
    """Each stacked read (see _stacked) of the segments xs as one stack,
    which all share its one refined read, a list of floats each, in the
    order of xs."""
    stack = _node_stack(xs)
    refined = _Refined(*stack)
    return [read(*stack, refined=refined).tolist() for read in reads]


def _drawn(stacks, *reads):
    """The samples of the sample stacks, and in step with them the tuple
    of each one's values under reads, each read taken once a stack
    (_stack_reads): two iterators, of which the second is taken behind
    the first, so it reads only stacks the first has drawn."""
    drawn, judged = tee(stacks)
    return (chain.from_iterable(drawn),
            chain.from_iterable(zip(*_stack_reads(xs, *reads))
                                for xs in judged))


def functional_lipschitz_probe(V: Functional, space: SpaceSpec, R: float,
                               trials: int, *, r: float, dimension: int = 1,
                               family: str = "fourier", order: int = 3,
                               seed: int = 0, n_nodes: int = 65) -> float:
    """Worst observed |V(x) - V(y)| / ||x - y||_X over sampled pairs."""
    if not (R > 0.0 and trials >= 1):
        raise ParameterError("need positive R and trials")
    cfg = SamplerConfig(family=family, order=order, target_space=space,
                        target_norm=R, dimension=dimension, delay_r=r,
                        seed=seed, n_nodes=n_nodes)
    worst = 0.0
    samples = chain.from_iterable(_sample_stacks(cfg, range(2 * trials)))
    # zip of one iterator with itself: the pairs of samples 2i, 2i + 1
    for x, y in zip(samples, samples):
        gap = space_norm(x - y, space)
        if gap < 1e-14:
            continue
        worst = max(worst, abs(V.evaluate(x) - V.evaluate(y)) / gap)
    return worst


# -- certificate checks ------------------------------------------------


def _failed(prop: str, space: SpaceSpec, ball: _Ball, i: int, x0: Segment,
            t: float, failed: str = "escape", v: float = math.inf,
            margins: dict | None = None) -> StabilityReport:
    """The falsified report of a certificate check of the ball's samples:
    sample i, x0, fails the condition failed at time t with value v, by
    default by its escape at t."""
    return _falsified(prop, space, ball.cfg, i, x0, t,
                      {"escape_time": t} if margins is None else margins,
                      {"samples": ball.budget}, {"failed": failed}, v)


def _exp_factors(rate: float, times: np.ndarray) -> np.ndarray:
    """e^(rate t) at each time, +inf past the float range: libm's value
    (checkers._grown), which numpy's exp may not round alike, once a
    time."""
    return np.array([_grown(1.0, rate * t) for t in times.tolist()])


def _mesh_weights(times: np.ndarray, h: float) -> np.ndarray:
    """Quadrature weights on a solver mesh whose last step may be short.

    Composite Simpson over the whole steps of length h, the trapezoid rule
    on a short final step.
    """
    tail = float(times[-1] - times[-2])
    if abs(tail - h) <= 1e-9 * h:
        return _quadrature_weights(times.size, h)
    w = np.zeros(times.size)
    w[:-1] = _quadrature_weights(times.size - 1, h)
    w[-2:] += tail / 2.0
    return w


def _exponential_report(space: SpaceSpec, ball: _Ball, a1: MonotoneGridFn,
                        a2: MonotoneGridFn, starts, blocks) -> StabilityReport:
    """The exponential-certificate judge of blocks read as V and the
    norm at the report times past 0, each run with its (V(x0), ||x0||) of
    starts."""
    fail = partial(_failed, "exponential_certificate", space, ball)
    times = ball.grid[1:]
    decay = _exp_factors(-1.0, times)
    a1_inv = a1.invert()
    worst_low = worst_up = worst_decay = worst_env = 0.0
    for runs in blocks:
        vts, nts = runs.tracks
        v0, nx = np.array(list(islice(starts, len(runs.x0s)))).T
        tol = 1e-12 * (1.0 + v0)
        lo, up = a1(nx), a2(nx)
        limit = decay * v0[:, None]
        env = a1_inv(decay * up[:, None])
        over = vts > limit * (1.0 + 1e-6) + tol[:, None]
        above = nts > env * (1.0 + 1e-6) + 1e-9 * (1.0 + env)
        found = _first_failure([
            ("lower_sandwich", lo > v0 * (1.0 + 1e-6) + tol),
            ("upper_sandwich", v0 > up * (1.0 + 1e-6) + tol),
            ("escape", runs.escaped), ("decay", over | above)])
        if found:
            i, name, k = found
            at, x0, v = runs.first + i, runs.x0s[i], float(v0[i])
            if name == "lower_sandwich":
                return fail(at, x0, 0.0, name, v,
                            {"lower_bound": float(lo[i]), "value": v})
            if name == "upper_sandwich":
                return fail(at, x0, 0.0, name, v,
                            {"upper_bound": float(up[i]), "value": v})
            if name == "escape":
                return fail(at, x0, runs.escape_times[i])
            vt, nt = float(vts[i, k]), float(nts[i, k])
            if over[i, k]:
                return fail(at, x0, float(times[k]), "decay", vt,
                            {"value": vt, "limit": float(limit[i, k])})
            return fail(at, x0, float(times[k]), "implied_envelope", nt,
                        {"norm": nt, "envelope": float(env[i, k])})
        worst_low = _worst(worst_low, lo, v0)
        worst_up = _worst(worst_up, v0, up)
        worst_decay = _worst(worst_decay, vts, limit)
        worst_env = _worst(worst_env, nts, env)
    return StabilityReport(
        "exponential_certificate", space, "consistent", None,
        {"worst_lower_ratio": worst_low, "worst_upper_ratio": worst_up,
         "worst_decay_ratio": worst_decay, "worst_envelope_ratio": worst_env},
        {"samples": ball.budget}, {"T": ball.horizon})


def check_exponential_certificate(sys: DelaySystem, V: Functional,
                                  a1: MonotoneGridFn, a2: MonotoneGridFn,
                                  space: SpaceSpec, samples: int, T: float, *,
                                  rho: float = 1.0, family: str = "fourier",
                                  order: int = 3, seed: int = 0,
                                  n_nodes: int = 65, h: float | None = None,
                                  grid_points: int = 40) -> StabilityReport:
    """Sandwich plus exponential decay of V, with the implied norm envelope.

    Checks a1(||x||_X) <= V(x) <= a2(||x||_X) on samples and
    V(x_t) <= e^(-t) V(x) along trajectories; when both hold the inverted
    lower bound must dominate the norm: ||x_t||_X <= a1^-1(e^(-t) a2(s)).
    """
    ball = _ball(sys, space, rho, samples, family, order, seed, n_nodes, h,
                 grid_points, T=T, error="need positive samples, T and rho")
    times = ball.grid[1:]
    reads = [_functional_read(V, times, n_nodes),
             _norm_read(space, times, n_nodes)]
    x0s, starts = _drawn(_sample_stacks(ball.cfg, range(samples)),
                         _stacked(V), _stacked(space_norm_functional(space)))
    blocks = _ensemble_blocks(sys, x0s, T, ball.h, reads)
    return _exponential_report(space, ball, a1, a2, starts, blocks)


def _dini_report(space: SpaceSpec, ball: _Ball, a1: MonotoneGridFn,
                 a2: MonotoneGridFn, Q: Callable, keep: int, starts,
                 blocks) -> tuple:
    """The sandwich and Dini judge of blocks of ladders read at the rungs
    ball.grid, each run with its (V(x0), ||x0||) of starts: the first
    failure's report (or None), the worst Dini excess, and (x0, V(x0)) of
    the first keep samples."""
    fail = partial(_failed, "pointwise_dissipation", space, ball)
    rungs = ball.grid[::-1]
    rates = _row_rates(Q)
    worst = -math.inf
    kept = []
    for runs in blocks:
        (vs,), x0s = runs.tracks, runs.x0s
        v0, nx = np.array(list(islice(starts, len(runs.x0s)))).T
        kept += list(zip(x0s, v0.tolist()))[:keep - len(kept)]
        heads = np.array([x0.values[-1] for x0 in x0s])
        lo, up = a1(_row_norms(heads)), a2(nx)
        tol = 1e-12 * (1.0 + v0)
        est = _dini_quotients(rungs, v0[:, None], vs).max(axis=1)
        dissipation_tol = 1e-3 * (1.0 + v0)
        rate = rates(heads)
        gap = est + rate
        found = _first_failure([
            ("sandwich", (lo > v0 * (1.0 + 1e-6) + tol)
             | (v0 > up * (1.0 + 1e-6) + tol)),
            ("escape", runs.escaped),
            ("dissipation", gap > dissipation_tol)])
        if found:
            i, name, _ = found
            at, x0, v = runs.first + i, x0s[i], float(v0[i])
            if name == "sandwich":
                return fail(at, x0, 0.0, name, v,
                            {"value": v, "lower": float(lo[i]),
                             "upper": float(up[i])}), worst, kept
            if name == "escape":
                return fail(at, x0, runs.escape_times[i]), worst, kept
            e = float(est[i])
            return fail(at, x0, 0.0, name, e,
                        {"dini_estimate": e, "required": -float(rate[i]),
                         "tolerance": float(dissipation_tol[i])}), worst, kept
        worst = _worst(worst, gap - dissipation_tol)
    return None, worst, kept


def _dissipation_report(space: SpaceSpec, ball: _Ball, trajectories: int,
                        worst_dini: float, weights: list, starts,
                        blocks) -> StabilityReport:
    """The integral judge of blocks read as V at the checkpoints ball.grid
    and Q on every mesh row, each run with its V(x0) of starts; weights
    are each checkpoint's quadrature weights from t = 0."""
    fail = partial(_failed, "pointwise_dissipation", space, ball)
    worst = -math.inf
    for runs in blocks:
        vts, rates = runs.tracks
        (v0,) = np.array(list(islice(starts, len(runs.x0s)))).T
        slack = 1e-4 * (1.0 + v0)
        integrals = _integrals(weights, rates, runs.escaped)
        excess = vts + integrals - v0[:, None]
        bad = excess > slack[:, None]
        found = _first_failure([("escape", runs.escaped), ("integral", bad)])
        if found:
            i, name, c = found
            at, x0 = runs.first + i, runs.x0s[i]
            if name == "escape":
                return fail(at, x0, runs.escape_times[i])
            vt = float(vts[i, c])
            return fail(at, x0, float(ball.grid[c]), name, vt,
                        {"value": vt, "integral": float(integrals[i, c]),
                         "start": float(v0[i])})
        worst = _worst(worst, excess - slack[:, None])
    return StabilityReport(
        "pointwise_dissipation", space, "consistent", None,
        {"worst_dini_excess": worst_dini, "worst_integral_excess": worst},
        {"samples": ball.budget, "integral_trajectories": trajectories},
        {"T": ball.horizon})


def _integrals(weights: list, rates: list, escaped: np.ndarray) -> np.ndarray:
    """The integral of each run's rates from t = 0 to each checkpoint, a
    row a run, NaN for a run that escaped: one dot of a run's own rates
    a checkpoint, as a product with padded weights, or of a stack of
    runs, rounds differently."""
    out = np.full((len(rates), len(weights)), np.nan)
    for row, run_rates, gone in zip(out, rates, escaped.tolist()):
        if not gone:
            row[:] = [w @ run_rates[:w.size] for w in weights]
    return out


def check_pointwise_dissipation(sys: DelaySystem, V: Functional,
                                a1: MonotoneGridFn, a2: MonotoneGridFn,
                                Q: Callable[[np.ndarray], float],
                                space: SpaceSpec, samples: int, *,
                                rho: float = 1.0,
                                integral_trajectories: int = 20,
                                T: float | None = None,
                                family: str = "fourier", order: int = 3,
                                seed: int = 0, n_nodes: int = 65,
                                h: float | None = None) -> StabilityReport:
    """Non-coercive sandwich, Dini dissipation, and its integral form.

    Checks a1(|x(0)|) <= V(x) <= a2(||x||_X) and Dini V <= -Q(x(0)) on
    samples, then V(x_t) + integral of Q(x(s)) <= V(x_0) along simulated
    trajectories, the integral by composite quadrature on the solver mesh.

    The Dini estimate is dini_derivative's in every bit, from ladders
    run only past the three rungs it reads, so a ladder that escapes
    later is judged by its estimate, where dini_derivative would raise
    EscapeError.
    """
    if not (samples >= 1 and rho > 0.0 and integral_trajectories >= 1):
        raise ParameterError("need positive samples, rho and trajectories")
    r = sys.delay_r
    h, _ = _step_defaults(r, h)
    if T is None:
        T = 2.0 * r
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    hs = _dini_steps(r)
    rungs = hs[-3:]  # the estimate reads V at these only
    # each ladder runs to the first node of dini_derivative's mesh past
    # the largest of them, so every rung read is bitwise
    # dini_derivative's (a ladder that ended on a rung could read it in
    # a short or capped last step)
    step = _working_step(r, float(hs[0]), hs[-1] / 2.0)
    ladder = _Ball(cfg, samples, hs[-1] / 2.0,
                   (math.floor(rungs[0] / step) + 1) * step, rungs[::-1])
    x0s, starts = _drawn(_sample_stacks(cfg, range(samples)), _stacked(V),
                         _stacked(space_norm_functional(space)))
    ladders = _ensemble_blocks(sys, x0s, ladder.horizon, ladder.h,
                               [_dini_read(V, rungs, n_nodes)])
    failed, worst_dini, kept = _dini_report(
        space, ladder, a1, a2, Q, integral_trajectories, starts, ladders)
    if failed:
        return failed
    # the solver mesh of a trajectory that reaches T, and the checkpoints
    step = _working_step(r, T, h)
    times = _mesh_times(T, step)
    n_steps = times.size - 1
    idxs = [c * n_steps // DISSIPATION_CHECKPOINTS
            for c in range(1, DISSIPATION_CHECKPOINTS + 1)]
    idxs = [idx for idx in idxs if idx >= 2]
    ball = _Ball(cfg, samples, h, T, times[idxs])
    # V at the checkpoints, and Q on every row of the mesh
    reads = [_functional_read(V, ball.grid, n_nodes),
             _Read(None, None, _row_rates(Q))]
    fresh, fresh_starts = _drawn(
        _sample_stacks(cfg, range(samples, integral_trajectories)),
        _stacked(V))
    blocks = _ensemble_blocks(sys, chain((x0 for x0, _ in kept), fresh), T,
                              h, reads)
    return _dissipation_report(
        space, ball, integral_trajectories, worst_dini,
        [_mesh_weights(times[:idx + 1], step) for idx in idxs],
        chain(((v0,) for _, v0 in kept), fresh_starts), blocks)


def _prolongation_report(space: SpaceSpec, ball: _Ball, a: MonotoneGridFn,
                         mu: float, hs: np.ndarray, keep: int,
                         stacks) -> tuple:
    """The coercivity and prolongation judge of sample stacks, each (its
    samples x0, U(x0) of each, their quotients at the steps hs, a row
    each): the first failure's report (or None), the worst quotient
    excess, and (x0, U(x0)) of the first keep samples."""
    fail = partial(_failed, "growth_certificate", space, ball)
    worst = -math.inf
    kept = []
    done = 0
    for xs, u0, qs in stacks:
        kept += list(zip(xs, u0.tolist()))[:keep - len(kept)]
        required = a(_row_norms(np.array([x.values[-1] for x in xs])))
        tol = 1e-3 * (1.0 + u0)
        excess = qs - (mu * u0)[:, None]
        found = _first_failure([
            ("coercivity", required > u0 * (1.0 + 1e-6) + 1e-12 * (1.0 + u0)),
            ("prolongation", excess > tol[:, None])])
        if found:
            i, name, k = found
            x0, u = xs[i], float(u0[i])
            if name == "coercivity":
                return fail(done + i, x0, 0.0, name, u,
                            {"value": u, "required": float(required[i])}
                            ), worst, kept
            q = float(qs[i, k])
            return fail(done + i, x0, 0.0, name, q,
                        {"quotient": q, "limit": mu * u,
                         "step": float(hs[k])}), worst, kept
        worst = _worst(worst, excess - tol[:, None])
        done += len(xs)
    return None, worst, kept


def _growth_report(space: SpaceSpec, ball: _Ball, mu: float,
                   worst_quotient: float, kept: list,
                   blocks) -> StabilityReport:
    """The trajectory judge of the blocks of the kept samples, (x0,
    U(x0)), read as U at the report times past 0: U(x_t) <= e^(mu t)
    U(x0)."""
    fail = partial(_failed, "growth_certificate", space, ball)
    times = ball.grid[1:]
    growth = _exp_factors(mu, times)
    worst = 0.0
    starts = ((u0,) for _, u0 in kept)
    for runs in blocks:
        (uts,) = runs.tracks
        (u0,) = np.array(list(islice(starts, len(runs.x0s)))).T
        # 0 where U(x0) is 0, which the product would make NaN at +inf
        limit = np.zeros(uts.shape)
        np.multiply(u0[:, None], growth, out=limit, where=u0[:, None] != 0.0)
        bad = uts > limit * (1.0 + 1e-3) + (1e-12 * (1.0 + u0))[:, None]
        found = _first_failure([("escape", runs.escaped),
                                ("trajectory_growth", bad)])
        if found:
            i, name, k = found
            at, x0 = runs.first + i, runs.x0s[i]
            if name == "escape":
                return fail(at, x0, runs.escape_times[i])
            ut = float(uts[i, k])
            return fail(at, x0, float(times[k]), name, ut,
                        {"value": ut, "limit": float(limit[i, k])})
        worst = _worst(worst, uts, limit)
    return StabilityReport(
        "growth_certificate", space, "consistent", None,
        {"worst_quotient_excess": worst_quotient,
         "worst_trajectory_ratio": worst},
        {"samples": ball.budget, "trajectories": len(kept)},
        {"mu": mu, "T": ball.horizon})


def check_growth_certificate(sys: DelaySystem, U: Functional,
                             a: MonotoneGridFn, mu: float, samples: int, *,
                             rho: float = 1.0, traj_check: int = 5,
                             T: float | None = None, family: str = "fourier",
                             order: int = 3, seed: int = 0, n_nodes: int = 65,
                             h: float | None = None, grid_points: int = 30,
                             space: SpaceSpec | None = None
                             ) -> StabilityReport:
    """Coercivity at the head plus bounded growth under prolongation.

    Checks U(x) >= a(|x(0)|) and the prolongation quotient
    (U(P_h x) - U(x)) / h <= mu U(x) on the ladder of steps, then
    cross-checks U(x_t) <= e^(mu t) U(x_0) along simulated trajectories.
    A consistent report supports boundedness of reachable sets.
    """
    if not (samples >= 1 and rho > 0.0 and traj_check >= 1):
        raise ParameterError("need positive samples, rho and traj_check")
    if not math.isfinite(mu):
        raise ParameterError("growth rate must be finite")
    r = sys.delay_r
    if space is None:
        space = SpaceSpec.sup()
    ball = _ball(sys, space, rho, samples, family, order, seed, n_nodes, h,
                 grid_points, horizon=2.0 * r if T is None else T)
    hs = _dini_steps(r)
    failed, worst_quotient, kept = _prolongation_report(
        space, ball, a, mu, hs, min(traj_check, samples),
        _prolonged(sys, U, _sample_stacks(ball.cfg, range(samples)), hs))
    if failed:
        return failed
    blocks = _ensemble_blocks(sys, (x0 for x0, _ in kept), ball.horizon,
                              ball.h,
                              [_functional_read(U, ball.grid[1:], n_nodes)])
    return _growth_report(space, ball, mu, worst_quotient, kept, blocks)
