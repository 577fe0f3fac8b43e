"""Delay systems and their integration by the method of steps.

A :class:`DelaySystem` wraps a right-hand side f mapping a history segment
to a state derivative, together with the declared Lipschitz modulus L(R)
that the bound checkers rely on.  :func:`simulate` integrates
dx/dt = f(x_t) with a classical fourth-order one-step scheme whose stages
read the history through cubic Hermite dense output.  The forward mesh is
chosen so that every multiple of the delay r is a mesh point; the
derivative discontinuities that the method of steps propagates from t = 0
therefore always land on nodes and each step integrates smooth data.
Stages and :func:`segment_at` read x through the one Hermite formula of
:mod:`segment` on the same cells, so each node of x_t left of its right end
is bitwise the value a stage reads at that time once its step has settled.

Right-hand sides access the state only through ``value_at_point(s)`` /
``value_at(array)`` queries with s in [-r, 0], which keeps distributed
delays first class.  During a step, queries into the not yet settled part
of the current interval (an overlap of at most one step) are answered by
linear interpolation toward the running stage value; this is the standard
method-of-steps compromise and is documented behavior, not an accident.

Solutions that leave the ball |x| <= 1e12, or turn non-finite, end the
integration early and mark the trajectory ``escaped`` with the crossing
time; finite-time blowup is data here (failure of forward completeness),
not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampler import SamplerConfig, sample_one
from .segment import (
    ParameterError,
    Segment,
    SpaceSpec,
    _hermite,
    _hermite_slope,
    _quadrature_weights,
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
]

ESCAPE_THRESHOLD = 1e12


class LipschitzViolation(RuntimeError):
    """A sampled pair exceeded the declared Lipschitz modulus."""


@dataclass(frozen=True)
class DelaySystem:
    """A time-invariant delay system dx/dt = f(x_t) with zero equilibrium.

    rhs maps any Segment-like state (value_at_point / value_at queries) to
    an (n,) derivative vector.  lipschitz_modulus(R) bounds the sup-norm
    Lipschitz constant of rhs on the R-ball.  Construction checks that the
    zero segment is an equilibrium.
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
        fz = np.atleast_1d(np.asarray(self.rhs(zero), dtype=float))
        if fz.shape != (self.dimension,):
            raise ParameterError("rhs output dimension mismatch")
        if np.max(np.abs(fz)) > 1e-12:
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


def _linear_scalar(r: float, params: dict) -> DelaySystem:
    a = float(params["a"])
    b = float(params["b"])

    if b != 0.0:
        def rhs(seg):
            return a * seg.value_at_point(0.0) + b * seg.value_at_point(-r)
    else:
        def rhs(seg):
            return a * seg.value_at_point(0.0)

    L = abs(a) + abs(b)
    return DelaySystem("linear_scalar", 1, r, rhs, lambda R: L,
                       {"a": a, "b": b})


def _linear_vector(r: float, params: dict) -> DelaySystem:
    A0 = np.asarray(params["A0"], dtype=float)
    A1 = np.asarray(params["A1"], dtype=float)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1] or A0.shape != A1.shape:
        raise ParameterError("A0 and A1 must be equal square matrices")
    n = A0.shape[0]

    def rhs(seg):
        return A0 @ seg.value_at_point(0.0) + A1 @ seg.value_at_point(-r)

    L = np.linalg.norm(A0, 2) + np.linalg.norm(A1, 2)
    return DelaySystem("linear_vector", n, r, rhs, lambda R: L,
                       {"A0": A0, "A1": A1})


def _distributed_linear(r: float, params: dict) -> DelaySystem:
    A0 = np.asarray(params["A0"], dtype=float)
    pieces = [np.asarray(K, dtype=float) for K in params["K"]]
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ParameterError("A0 must be square")
    n = A0.shape[0]
    for K in pieces:
        if K.shape != (n, n):
            raise ParameterError("kernel pieces must match the state dimension")
    m = len(pieces)
    if m < 1:
        raise ParameterError("need at least one kernel piece")
    # fixed quadrature: 8 Simpson cells per equal-width kernel piece
    pts = 9
    edges = np.linspace(-r, 0.0, m + 1)
    times = np.concatenate(
        [np.linspace(edges[j], edges[j + 1], pts) for j in range(m)])
    w = _quadrature_weights(pts, (r / m) / (pts - 1))

    def rhs(seg):
        vals = seg.value_at(times)
        acc = A0 @ seg.value_at_point(0.0)
        for j, K in enumerate(pieces):
            chunk = vals[j * pts:(j + 1) * pts]
            acc = acc + K @ (w @ chunk)
        return acc

    L = np.linalg.norm(A0, 2) + r * max(np.linalg.norm(K, 2) for K in pieces)
    return DelaySystem("distributed_linear", n, r, rhs, lambda R: L,
                       {"A0": A0, "K": np.array(pieces)})


def _saturating(r: float, params: dict) -> DelaySystem:
    c = float(params["c"])
    k = float(params["k"])
    if c < 0.0:
        raise ParameterError("damping c must be nonnegative")

    def rhs(seg):
        return -c * seg.value_at_point(0.0) + k * np.tanh(seg.value_at_point(-r))

    return DelaySystem("saturating", 1, r, rhs, lambda R: c + abs(k),
                       {"c": c, "k": k})


def _quadratic(r: float, params: dict) -> DelaySystem:
    c = float(params.get("c", 1.0))

    def rhs(seg):
        v = seg.value_at_point(0.0)
        return c * v * v

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
    return SYSTEM_BUILDERS[name](float(r), params)


def system_from_json_dict(d: dict) -> DelaySystem:
    missing = {"name", "r", "params"} - set(d)
    if missing:
        raise ParameterError(f"system JSON missing keys {sorted(missing)}")
    sys = make_system(d["name"], float(d["r"]), d["params"])
    if "n" in d and int(d["n"]) != sys.dimension:
        raise ParameterError("declared dimension does not match the system")
    return sys


# -- trajectories ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense solution record over [-r, T] (or up to the escape time).

    times runs from -r through the forward mesh; values/derivs align with
    it.  forward_start is the row index of t = 0.  The initial segment is
    kept whole so history queries use its exact grid.
    """

    system: DelaySystem
    initial: Segment
    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    step_h: float
    escaped: bool
    escape_time: float | None
    forward_start: int

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    @property
    def forward_times(self) -> np.ndarray:
        return self.times[self.forward_start:]

    @property
    def forward_values(self) -> np.ndarray:
        return self.values[self.forward_start:]

    @property
    def forward_derivs(self) -> np.ndarray:
        return self.derivs[self.forward_start:]

    def write_csv(self, fileobj):
        n = self.system.dimension
        header = ["t"] + [f"x_{j+1}" for j in range(n)] \
            + [f"dx_{j+1}" for j in range(n)]
        fileobj.write(",".join(header) + "\n")
        for i in range(self.times.size):
            row = [self.times[i], *self.values[i], *self.derivs[i]]
            fileobj.write(",".join(f"{v:.17g}" for v in row) + "\n")


class _SolutionView:
    """Segment-like read access to the partially built solution.

    Queries are relative to stage_time: s in [-r, 0] maps to absolute time
    stage_time + s.  Absolute times at or before settled_time use dense
    output (history segment or forward Hermite cells); later times lie in
    the overlap of the step being built and interpolate linearly toward
    the running stage value.
    """

    __slots__ = ("initial", "delay_r", "dim", "h", "values", "derivs",
                 "settled", "settled_time", "stage_time", "stage_value")

    def __init__(self, initial: Segment, h: float, values, derivs):
        self.initial = initial
        self.delay_r = initial.delay_r
        self.dim = initial.dim
        self.h = h
        self.values = values
        self.derivs = derivs
        self.settled = 0
        self.settled_time = 0.0
        self.stage_time = 0.0
        self.stage_value = initial.values[-1]

    def set_stage(self, settled: int, stage_time: float, stage_value):
        self.settled = settled
        self.settled_time = settled * self.h
        self.stage_time = stage_time
        self.stage_value = stage_value

    def value_at_point(self, s: float) -> np.ndarray:
        u = self.stage_time + s
        if u >= self.settled_time:
            gap = self.stage_time - self.settled_time
            if gap <= 0.0 or u >= self.stage_time:
                return self.stage_value
            w = (u - self.settled_time) / gap
            return (1.0 - w) * self.values[self.settled] + w * self.stage_value
        if u <= 0.0:
            return self.initial.value_at_point(u)
        h = self.h
        j = min(int(u / h), self.settled - 1)
        return _hermite(self.values[j], self.derivs[j], self.values[j + 1],
                        self.derivs[j + 1], (u - j * h) / h, h)

    def value_at(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty((s.size, self.dim))
        for i in range(s.size):
            out[i] = self.value_at_point(float(s[i]))
        return out


def _mesh(T: float, h: float) -> tuple[int, float]:
    """Full steps of width h in [0, T] and the short final step (or 0.0)."""
    n_full = int(math.floor(T / h + 1e-9))
    tail = T - n_full * h
    return n_full, (tail if tail >= 1e-9 * h else 0.0)


def simulate(sys: DelaySystem, x0: Segment, T: float, h: float | None = None
             ) -> Trajectory:
    """Integrate dx/dt = f(x_t) from history x0 over [0, T].

    h defaults to r/200 and is shrunk so the delay is an exact multiple of
    the working step (breakpoints on mesh nodes); a shorter final step
    lands exactly on T.  Requires h <= r/10.
    """
    r = sys.delay_r
    if abs(x0.delay_r - r) > 1e-12 * r:
        raise ParameterError("history window does not match the system delay")
    if x0.dim != sys.dimension:
        raise ParameterError("history dimension does not match the system")
    if not (T > 0.0 and math.isfinite(T)):
        raise ParameterError("horizon T must be positive and finite")
    if h is None:
        h = r / 200.0
    if not (0.0 < h <= r / 10.0 + 1e-15 * r):
        raise ParameterError("step must satisfy 0 < h <= r/10")
    h_eff = r / math.ceil(r / h - 1e-12)
    n_full, tail = _mesh(T, h_eff)
    n_steps = n_full + (1 if tail > 0.0 else 0)

    vals = np.empty((n_steps + 1, sys.dimension))
    ders = np.empty((n_steps + 1, sys.dimension))
    vals[0] = x0.values[-1]
    view = _SolutionView(x0, h_eff, vals, ders)
    view.set_stage(0, 0.0, vals[0])
    ders[0] = np.asarray(sys.rhs(view), dtype=float)

    escaped = False
    escape_time = None
    last = 0
    rhs = sys.rhs
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t_k = k * h_eff
            step = h_eff if k < n_full else tail
            y = vals[k]
            k1 = ders[k]
            y2 = y + (0.5 * step) * k1
            view.set_stage(k, t_k + 0.5 * step, y2)
            k2 = np.asarray(rhs(view), dtype=float)
            y3 = y + (0.5 * step) * k2
            view.set_stage(k, t_k + 0.5 * step, y3)
            k3 = np.asarray(rhs(view), dtype=float)
            y4 = y + step * k3
            view.set_stage(k, t_k + step, y4)
            k4 = np.asarray(rhs(view), dtype=float)
            y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_next = t_k + step
            if not np.all(np.isfinite(y_next)):
                escaped = True
                escape_time = t_next
                break
            vals[k + 1] = y_next
            # derivative at the fresh node: the step interior is still the
            # linear overlay (its Hermite data needs this very derivative)
            view.set_stage(k, t_next, y_next)
            d_next = np.asarray(rhs(view), dtype=float)
            if not np.all(np.isfinite(d_next)):
                escaped = True
                escape_time = t_next
                break
            ders[k + 1] = d_next
            last = k + 1
            if np.sqrt(float(y_next @ y_next)) > ESCAPE_THRESHOLD:
                escaped = True
                escape_time = t_next
                break

    fwd_times = np.array([min(k * h_eff, T) for k in range(last + 1)])
    if last == n_steps and tail > 0.0:
        fwd_times[-1] = T
    times = np.concatenate([x0.nodes[:-1], fwd_times])
    values = np.concatenate([x0.values[:-1], vals[: last + 1]])
    derivs = np.concatenate([x0.derivs[:-1], ders[: last + 1]])
    return Trajectory(system=sys, initial=x0, times=times, values=values,
                      derivs=derivs, step_h=h_eff, escaped=escaped,
                      escape_time=escape_time,
                      forward_start=x0.n_nodes - 1)


def segment_at(traj: Trajectory, t: float, n_nodes: int | None = None
               ) -> Segment:
    """The history segment x_t, resampled onto the standard uniform grid.

    Node values and derivatives come from the trajectory's dense output;
    times at or before zero read the initial segment exactly, later times
    read the integrator's own cells.  Requires 0 <= t <= the covered end
    time.
    """
    r = traj.system.delay_r
    end = traj.end_time
    if not (-1e-12 * r <= t <= end + 1e-12 * r):
        raise ParameterError("segment time outside the covered range")
    t = min(max(t, 0.0), end)
    if n_nodes is None:
        n_nodes = traj.initial.n_nodes
    s = np.linspace(-r, 0.0, n_nodes)
    u = t + s
    vals = np.empty((n_nodes, traj.system.dimension))
    ders = np.empty((n_nodes, traj.system.dimension))
    hist = u <= 1e-14 * r
    if np.any(hist):
        q = np.clip(u[hist], -r, 0.0)
        vals[hist] = traj.initial.value_at(q)
        ders[hist] = traj.initial.deriv_at(q)
    fwd = ~hist
    if np.any(fwd):
        # the integrator's cells: width h, a short final step its own
        h = traj.step_h
        fv, fd = traj.forward_values, traj.forward_derivs
        n_full, tail = _mesh(end, h)
        q = np.minimum(u[fwd], end)
        j = np.minimum((q / h).astype(int), fv.shape[0] - 2)
        width = np.where(j < n_full, h, tail)
        cell = (fv[j], fd[j], fv[j + 1], fd[j + 1],
                ((q - j * h) / width)[:, None], width[:, None])
        vals[fwd] = _hermite(*cell)
        ders[fwd] = _hermite_slope(*cell)
    return Segment(r, s, vals, ders)


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
    for i in range(trials):
        x = sample_one(cfg, 2 * i)
        y = sample_one(cfg, 2 * i + 1)
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
