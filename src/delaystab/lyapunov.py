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

Every trajectory this module needs is integrated through the one
ensemble primitive, checkers._ensemble, in memory-bounded blocks: the
sampled trajectories of the three checks and the Dini ladders, one short
simulation per sample, of the dissipation check and of dini_derivative,
which is a block of one.  dini_derivative integrates its ladder to the
largest rung, 1e-2 r; the dissipation check, whose estimate reads only
the three smallest rungs, integrates each ladder only to the first
solver-mesh node past the largest of those (33 steps where
dini_derivative takes 2048), so a block holds 1846 ladders at n = 1
where it held 31, and each rung it reads is bitwise dini_derivative's.
A caller declares what it reads of each trajectory (checkers._Read),
and the ensemble takes those reads as the rows settle: V and the norm
at the report times, V at the rungs of a ladder, and for the
dissipation integral V at its checkpoints and the rate Q on every row
of the mesh.  A check draws each sample index once and evaluates the
functional at it once: the trajectory pass of the growth check and the
integral pass of the dissipation check reuse the samples, and their
values, of the pass before.  The samples are drawn in stacks
(dde._sample_stacks), and V(x0), the norm of x0 and the growth check's
prolongations of a weighted sup are read once a stack; the checks still
judge sample by sample in index order.

The built-in rates (scaled_abs, scaled_square) evaluate the rows of a
chunk at once, each value bitwise the rate of its row alone; a rate
given only as a callable is called once a row.

The built-in functionals evaluate stacks of segments, node data
(K, N + 1, n) to K values, the way segment._norms norms them (see
_stacked); Functional.evaluate is the batch of one, so a value does not
depend on the stack it is read in.  A functional track reads a chunk of
report times as one stack, a Dini ladder all its rungs, and a growth
quotient all the prolongations of a sample.  A functional given only by
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
from itertools import chain, tee
from typing import Callable

import numpy as np

from .checkers import (
    StabilityReport,
    _ball,
    _ball_cfg,
    _ensemble,
    _grown,
    _norm_read,
    _Read,
    _step_defaults,
    _witness,
)
from .dde import DelaySystem, _mesh_times, _sample_stacks, _working_step
from .dde import simulate  # noqa: F401  (unused; bench tests look it up here)
from .sampler import SamplerConfig
from .segment import (
    DEFAULT_REFINE,
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
    _refined_count,
    _select,
    _squares,
    _uniform_reads,
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
        # the ends and end slopes, as Python floats for the scalar path
        object.__setattr__(self, "_ends", tuple(map(float, (
            xs[0], ys[0], (ys[1] - ys[0]) / (xs[1] - xs[0]),
            xs[-1], ys[-1], (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])))))

    @classmethod
    def linear(cls, slope: float) -> "MonotoneGridFn":
        if not (slope >= 0.0 and math.isfinite(slope)):
            raise ParameterError("slope must be nonnegative and finite")
        return cls(np.array([0.0, 1.0]), np.array([0.0, slope]))

    def __call__(self, v):
        x_lo, y_lo, slope_lo, x_hi, y_hi, slope_hi = self._ends
        if isinstance(v, (int, float)):  # the same float arithmetic
            v = float(v)
            if v < x_lo:
                return y_lo + (v - x_lo) * slope_lo
            if v > x_hi:
                return y_hi + (v - x_hi) * slope_hi
            return float(np.interp(v, self.xs, self.ys))
        v = np.asarray(v, dtype=float)
        out = np.interp(v, self.xs, self.ys)
        out = np.where(v < x_lo, y_lo + (v - x_lo) * slope_lo, out)
        out = np.where(v > x_hi, y_hi + (v - x_hi) * slope_hi, out)
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
    of one of the same kernel (see _stacked).  A functional given
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


def weighted_sup(lam: float) -> Functional:
    """V(x) = sup over the window of e^(lam s) |x(s)|."""
    lam = _real(lam)
    if not math.isfinite(lam):
        raise ParameterError("weight exponent must be finite")

    def evaluate(seg: Segment) -> float:
        s, vals = seg._refined_values(DEFAULT_REFINE)
        return float(_weighted_sups(lam, s, vals[None])[0])

    return Functional(name=f"weighted_sup({lam:g})", evaluate=evaluate,
                      kind="weighted_sup", param=lam)


def quadratic_integral(mu: float) -> Functional:
    """V(x) = |x(0)|^2 + integral of e^(mu s) |x(s)|^2 over the window."""
    mu = _real(mu)
    if not math.isfinite(mu):
        raise ParameterError("weight exponent must be finite")

    def evaluate(seg: Segment) -> float:
        s, vals = seg._refined_values(DEFAULT_REFINE)
        return float(_quadratic_integrals(mu, s, vals[None])[0])

    return Functional(name=f"quadratic_integral({mu:g})", evaluate=evaluate,
                      kind="quadratic_integral", param=mu)


def space_norm_functional(space: SpaceSpec) -> Functional:
    def evaluate(seg: Segment) -> float:
        return space_norm(seg, space)

    return Functional(name=f"space_norm[{space.label}]", evaluate=evaluate,
                      kind="space_norm", param=space)


def _stacked(V: Functional) -> Callable:
    """V of each segment of a stack: (r, nodes, values, derivs), node data
    (K, N + 1, n) on the uniform nodes from -r to 0, gives K values.

    The built-in kinds read the whole stack at once, each value bitwise
    V.evaluate of its segment alone: a weighted sup or quadratic integral
    by its kernel on the stack's refined values, which
    Segment._refined_values reads alike, and a space norm by
    segment._norms, of which space_norm is the batch of one.  Any other
    functional is read one segment at a time.
    """
    if V.kind == "space_norm":
        return partial(_norms, space=V.param)
    kernel = {"weighted_sup": _weighted_sups,
              "quadratic_integral": _quadratic_integrals}.get(V.kind)
    if kernel is None:
        def one_at_a_time(r, nodes, values, derivs):
            return np.array([V.evaluate(Segment(r, nodes, v.copy(),
                                                d.copy()))
                             for v, d in zip(values, derivs)])

        return one_at_a_time

    def stacked(r, nodes, values, derivs):
        count = _refined_count(nodes.size, DEFAULT_REFINE)
        s, vals, _ = _uniform_reads(r, nodes, values, derivs, count, False)
        return kernel(V.param, s, vals)

    return stacked


@dataclass(frozen=True)
class _Rate:
    """A built-in rate, Q(v) = c |v| (power 1) or c |v|^2 (power 2).

    Called on one state it gives Q of it; rows gives Q of each row of
    (m, n) states at once, each value bitwise the call on its row.
    """

    c: float
    power: int

    def __call__(self, v) -> float:
        norm = np.linalg.norm(np.atleast_1d(v))
        return self.c * float(norm if self.power == 1 else norm ** 2)

    def rows(self, rows: np.ndarray) -> np.ndarray:
        # np.linalg.norm is the root of the row's dot with itself; a stack
        # of (1, n) @ (n, 1) products takes that same dot per row, where
        # a row-sum or einsum rounds differently for n > 1
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
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
    One checkers._ensemble member with _dini_read, then _dini_ladder.
    check_pointwise_dissipation integrates its ladders only as far as
    its estimate reads (see there), and its estimate is this one's in
    every bit.
    """
    r = sys.delay_r
    hs = _dini_steps(r)
    (run,) = _ensemble(sys, [x], float(hs[0]), hs[-1] / 2.0,
                       [_dini_read(V, hs, x.n_nodes)])
    if run.escaped:
        raise EscapeError(run.escape_time)
    return _dini_ladder(r, V.evaluate(x), run.tracks[0])


def _dini_read(V: Functional, hs: np.ndarray, n_nodes: int) -> _Read:
    """V at the rungs x_h of a ladder, one for each step h of the
    decreasing hs, read as a stacked track (each value bitwise V of
    segment_at); the steps go in increasing order, as a track takes its
    times."""
    return _Read(hs[::-1], n_nodes, _stacked(V))


def _dini_quotients(hs: np.ndarray, v0: float, vs: np.ndarray) -> list:
    """The forward quotient (V(x_h) - V(x)) / h for each step h of the
    decreasing hs, from V(x) = v0 and the _dini_read values vs."""
    return [(v - v0) / hk for hk, v in zip(hs.tolist(), vs[::-1].tolist())]


def _dini_ladder(r: float, v0: float, vs: np.ndarray) -> DiniEstimate:
    """The ladder of quotients from V(x) = v0 and the _dini_read values
    vs.  The estimate is the max of the last three quotients, and the
    trend flag warns when the two smallest rungs still differ by more
    than 10 percent."""
    hs = _dini_steps(r)
    quotients = list(zip(hs.tolist(), _dini_quotients(hs, v0, vs)))
    tail = [q for _, q in quotients[-3:]]
    q_prev, q_last = quotients[-2][1], quotients[-1][1]
    scale = max(abs(q_prev), abs(q_last), 1e-9 * (1.0 + v0))
    return DiniEstimate(quotients=tuple(quotients),
                        estimate=float(max(tail)),
                        trend=bool(abs(q_last - q_prev) > 0.1 * scale))


# -- shared helpers ----------------------------------------------------


def _prolonged_weighted_sups(xs: list, fs: np.ndarray, hs: np.ndarray,
                             lam: float) -> np.ndarray:
    """Weighted sup of the h-prolongation of each segment x of the stack
    xs, whose head slope is its row of fs, for each step h of hs, on
    shared sample points: (K, len(hs)).

    The shifted-history part reuses the original refined grid (points that
    remain in the window), so its candidates differ from the functional's
    own evaluation only by the weight shift; the linear tail is sampled
    densely, 17 points a step.  The sliver below one refined cell at the
    far end is dropped, making this a lower approximation like every
    discrete sup here.  Each element is computed as that segment and step
    alone would be; the window part goes a step at a time, so that no
    temporary holds more than one step of the stack.
    """
    r, nodes, values, derivs = _node_stack(xs)
    s, vals, _ = _uniform_reads(r, nodes, values, derivs,
                                _refined_count(nodes.size, DEFAULT_REFINE),
                                False)
    mags = _euclid(vals)
    steps = hs[:, None]
    keep = s >= -r + steps - 1e-15 * r
    weights = np.exp(lam * (s - steps))
    cand = np.empty((len(xs), hs.size))
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


def _growth_quotients(U: Functional, xs: list, u0s: list, fs: np.ndarray,
                      hs: np.ndarray):
    """(U(P_h x) - U(x)) / h for each step h of hs, one array for each
    segment x of the stack xs, where U(x) is its u0 of u0s and its head
    slope its row of fs: a weighted sup by its noise-free prolongation
    path, for the whole stack at once, any other functional on the stack
    of a segment's prolongations, one segment at a time as the arrays
    are taken."""
    lam = _weighted_kind(U)
    if lam is not None:
        up = _prolonged_weighted_sups(xs, fs, hs, lam)
        return list((up - np.array(u0s)[:, None]) / hs)

    def quotients(x, u0, f):
        up = _stacked(U)(*_node_stack([prolong(x, f, h)
                                       for h in hs.tolist()]))
        return (up - u0) / hs

    return map(quotients, xs, u0s, fs)


def _prolonged(sys: DelaySystem, U: Functional, stacks, hs: np.ndarray):
    """(x, U(x), _growth_quotients of x) for each sample x of the sample
    stacks, in their order; U, the head slopes and a weighted sup's
    prolongations are read once a stack."""
    for xs in stacks:
        (u0s,) = _stack_reads(xs, _stacked(U))
        fs = np.array([np.atleast_1d(np.asarray(sys.rhs(x), dtype=float))
                       for x in xs])
        yield from zip(xs, u0s, _growth_quotients(U, xs, u0s, fs, hs))


def _stack_reads(xs: list, *reads) -> list:
    """Each stacked read (see _stacked) of the segments xs as one stack,
    a list of floats each, in the order of xs."""
    stack = _node_stack(xs)
    return [read(*stack).tolist() for read in reads]


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


def _falsifier(prop: str, space: SpaceSpec, cfg: SamplerConfig,
               samples: int):
    """Report builder for a failed certificate condition of sample i."""
    def falsified(i: int, x0: Segment, t: float, v: float, margins: dict,
                  failed: str) -> StabilityReport:
        return StabilityReport(prop, space, "falsified",
                               _witness(cfg, i, x0, t, v), margins,
                               {"samples": samples}, {"failed": failed})
    return falsified


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
    a1_inv = a1.invert()
    times, cfg = ball.grid[1:], ball.cfg
    fail = _falsifier("exponential_certificate", space, cfg, samples)
    worst_low = 0.0
    worst_up = 0.0
    worst_decay = 0.0
    worst_env = 0.0
    reads = [_functional_read(V, times, n_nodes),
             _norm_read(space, times, n_nodes)]
    x0s, starts = _drawn(_sample_stacks(cfg, range(samples)), _stacked(V),
                         _stacked(space_norm_functional(space)))
    runs = _ensemble(sys, x0s, T, ball.h, reads)
    for i, ((x0, escaped, escape_time, (vts, nts)), (v0, nx)) in enumerate(
            zip(runs, starts)):
        tol = 1e-12 * (1.0 + v0)
        lo, up = float(a1(nx)), float(a2(nx))
        if lo > v0 * (1.0 + 1e-6) + tol:
            return fail(i, x0, 0.0, v0, {"lower_bound": lo, "value": v0},
                        "lower_sandwich")
        if v0 > up * (1.0 + 1e-6) + tol:
            return fail(i, x0, 0.0, v0, {"upper_bound": up, "value": v0},
                        "upper_sandwich")
        if v0 > 0.0:
            worst_low = max(worst_low, lo / v0)
        if up > 0.0:
            worst_up = max(worst_up, v0 / up)
        if escaped:
            return fail(i, x0, escape_time, math.inf,
                        {"escape_time": escape_time}, "escape")
        for t, vt, nt in zip(times, vts.tolist(), nts.tolist()):
            limit = math.exp(-t) * v0
            if vt > limit * (1.0 + 1e-6) + tol:
                return fail(i, x0, float(t), vt,
                            {"value": vt, "limit": limit}, "decay")
            env = float(a1_inv(math.exp(-t) * up))
            if nt > env * (1.0 + 1e-6) + 1e-9 * (1.0 + env):
                return fail(i, x0, float(t), nt,
                            {"norm": nt, "envelope": env}, "implied_envelope")
            if limit > 0.0:
                worst_decay = max(worst_decay, vt / limit)
            if env > 0.0:
                worst_env = max(worst_env, nt / env)
    return StabilityReport(
        "exponential_certificate", space, "consistent", None,
        {"worst_lower_ratio": worst_low, "worst_upper_ratio": worst_up,
         "worst_decay_ratio": worst_decay, "worst_envelope_ratio": worst_env},
        {"samples": samples}, {"T": T})


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

    The Dini estimate is dini_derivative's, the max of the quotients at
    the three smallest rungs, in every bit; the ladders run as one
    ensemble, each only to the first mesh node past the largest rung it
    reads (33 steps, not dini_derivative's 2048).  So a ladder that
    escapes only after that node is judged by its estimate, where
    dini_derivative would raise EscapeError.
    """
    if not (samples >= 1 and rho > 0.0 and integral_trajectories >= 1):
        raise ParameterError("need positive samples, rho and trajectories")
    r = sys.delay_r
    h, _ = _step_defaults(r, h)
    if T is None:
        T = 2.0 * r
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    fail = _falsifier("pointwise_dissipation", space, cfg, samples)
    worst_dini = -math.inf
    worst_integral = -math.inf
    hs = _dini_steps(r)
    rungs = hs[-3:]  # the estimate reads V at these only
    # each ladder runs to the first node of dini_derivative's mesh past
    # the largest of them, so every rung read is bitwise
    # dini_derivative's (a ladder that ended on a rung could read it in
    # a short or capped last step)
    step = _working_step(r, float(hs[0]), hs[-1] / 2.0)
    x0s, starts = _drawn(_sample_stacks(cfg, range(samples)), _stacked(V),
                         _stacked(space_norm_functional(space)))
    ladders = _ensemble(sys, x0s, (math.floor(rungs[0] / step) + 1) * step,
                        hs[-1] / 2.0, [_dini_read(V, rungs, n_nodes)])
    kept = []  # (x0, V(x0)) of the samples the integral pass reuses
    for i, ((x0, escaped, escape_time, (vs,)), (v0, nx)) in enumerate(
            zip(ladders, starts)):
        if i < integral_trajectories:
            kept.append((x0, v0))
        head = float(np.linalg.norm(x0.values[-1]))
        tol = 1e-12 * (1.0 + v0)
        if float(a1(head)) > v0 * (1.0 + 1e-6) + tol \
                or v0 > float(a2(nx)) * (1.0 + 1e-6) + tol:
            return fail(i, x0, 0.0, v0,
                        {"value": v0, "lower": float(a1(head)),
                         "upper": float(a2(nx))}, "sandwich")
        if escaped:
            return fail(i, x0, escape_time, math.inf,
                        {"escape_time": escape_time}, "escape")
        est = max(_dini_quotients(rungs, v0, vs))
        dissipation_tol = 1e-3 * (1.0 + v0)
        gap = est + Q(x0.values[-1])
        worst_dini = max(worst_dini, gap - dissipation_tol)
        if gap > dissipation_tol:
            return fail(i, x0, 0.0, est,
                        {"dini_estimate": est, "required": -Q(x0.values[-1]),
                         "tolerance": dissipation_tol}, "dissipation")
    # the solver mesh of a trajectory that reaches T, and the checkpoints
    step = _working_step(r, T, h)
    times = _mesh_times(T, step)
    n_steps = times.size - 1
    idxs = [c * n_steps // DISSIPATION_CHECKPOINTS
            for c in range(1, DISSIPATION_CHECKPOINTS + 1)]
    idxs = [idx for idx in idxs if idx >= 2]
    # V at the checkpoints, and Q on every row of the mesh
    reads = [_functional_read(V, times[idxs], n_nodes),
             _Read(None, None, _row_rates(Q))]
    fresh, fresh_starts = _drawn(
        _sample_stacks(cfg, range(samples, integral_trajectories)),
        _stacked(V))
    runs = _ensemble(sys, chain((x0 for x0, _ in kept), fresh), T, h, reads)
    starts = chain((v0 for _, v0 in kept), (v0 for v0, in fresh_starts))
    for i, ((x0, escaped, escape_time, (vts, rates)), v0) in enumerate(
            zip(runs, starts)):
        if escaped:
            return fail(i, x0, escape_time, math.inf,
                        {"escape_time": escape_time}, "escape")
        slack = 1e-4 * (1.0 + v0)
        for idx, vt in zip(idxs, vts.tolist()):
            w = _mesh_weights(times[:idx + 1], step)
            integral = float(w @ rates[:idx + 1])
            excess = vt + integral - v0
            worst_integral = max(worst_integral, excess - slack)
            if excess > slack:
                return fail(i, x0, float(times[idx]), vt,
                            {"value": vt, "integral": integral, "start": v0},
                            "integral")
    return StabilityReport(
        "pointwise_dissipation", space, "consistent", None,
        {"worst_dini_excess": worst_dini,
         "worst_integral_excess": worst_integral},
        {"samples": samples, "integral_trajectories": integral_trajectories},
        {"T": T})


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
    cfg, T, times = ball.cfg, ball.horizon, ball.grid[1:]
    fail = _falsifier("growth_certificate", space, cfg, samples)
    hs = _dini_steps(r)
    worst_quotient = -math.inf
    checked = min(traj_check, samples)
    kept = []  # (x0, U(x0)) of the samples the trajectory pass reuses
    for i, (x0, u0, qs) in enumerate(
            _prolonged(sys, U, _sample_stacks(cfg, range(samples)), hs)):
        if i < checked:
            kept.append((x0, u0))
        head = float(np.linalg.norm(x0.values[-1]))
        if float(a(head)) > u0 * (1.0 + 1e-6) + 1e-12 * (1.0 + u0):
            return fail(i, x0, 0.0, u0,
                        {"value": u0, "required": float(a(head))},
                        "coercivity")
        tol = 1e-3 * (1.0 + u0)
        for hk, q in zip(hs.tolist(), qs.tolist()):
            excess = q - mu * u0
            worst_quotient = max(worst_quotient, excess - tol)
            if excess > tol:
                return fail(i, x0, 0.0, q,
                            {"quotient": q, "limit": mu * u0,
                             "step": hk}, "prolongation")
    worst_traj = 0.0
    runs = _ensemble(sys, (x0 for x0, _ in kept), T, ball.h,
                     [_functional_read(U, times, n_nodes)])
    for i, ((x0, escaped, escape_time, (uts,)), (_, u0)) in enumerate(
            zip(runs, kept)):
        if escaped:
            return fail(i, x0, escape_time, math.inf,
                        {"escape_time": escape_time}, "escape")
        for t, ut in zip(times, uts.tolist()):
            limit = _grown(u0, mu * t)
            if ut > limit * (1.0 + 1e-3) + 1e-12 * (1.0 + u0):
                return fail(i, x0, float(t), ut,
                            {"value": ut, "limit": limit},
                            "trajectory_growth")
            if limit > 0.0:
                worst_traj = max(worst_traj, ut / limit)
    return StabilityReport(
        "growth_certificate", space, "consistent", None,
        {"worst_quotient_excess": worst_quotient,
         "worst_trajectory_ratio": worst_traj},
        {"samples": samples, "trajectories": checked},
        {"mu": mu, "T": T})
