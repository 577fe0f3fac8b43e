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
from typing import Callable

import numpy as np

from .checkers import (
    StabilityReport,
    _ball_cfg,
    _ensemble,
    _grown,
    _norm_track,
    _step_defaults,
    _track,
    _witness,
    default_time_grid,
)
from .dde import DelaySystem, segment_at, simulate
from .sampler import SamplerConfig, sample_one
from .segment import (
    DEFAULT_REFINE,
    ParameterError,
    Segment,
    SpaceSpec,
    _check_keys,
    _euclid,
    _quadrature_weights,
    _select,
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

    @classmethod
    def from_points(cls, pairs) -> "MonotoneGridFn":
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ParameterError("expected a sequence of (x, y) pairs")
        return cls(arr[:, 0], arr[:, 1])

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        out = np.interp(v, self.xs, self.ys)
        slope_lo = (self.ys[1] - self.ys[0]) / (self.xs[1] - self.xs[0])
        slope_hi = (self.ys[-1] - self.ys[-2]) / (self.xs[-1] - self.xs[-2])
        out = np.where(v < self.xs[0],
                       self.ys[0] + (v - self.xs[0]) * slope_lo, out)
        out = np.where(v > self.xs[-1],
                       self.ys[-1] + (v - self.xs[-1]) * slope_hi, out)
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
        return MonotoneGridFn.linear(float(data["linear"]))
    _check_keys(data, {"xs", "ys"}, set(), "grid function")
    return MonotoneGridFn(np.asarray(data["xs"], dtype=float),
                          np.asarray(data["ys"], dtype=float))


# -- functionals -------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Nonnegative functional on segments, vanishing at the origin."""

    name: str
    evaluate: Callable[[Segment], float]
    kind: str | None = None
    param: object = None


def weighted_sup(lam: float) -> Functional:
    """V(x) = sup over the window of e^(lam s) |x(s)|."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ParameterError("weight exponent must be finite")

    def evaluate(seg: Segment) -> float:
        s, vals, _ = seg.refined(DEFAULT_REFINE)
        return float((np.exp(lam * s) * _euclid(vals)).max())

    return Functional(name=f"weighted_sup({lam:g})", evaluate=evaluate,
                      kind="weighted_sup", param=lam)


def quadratic_integral(mu: float) -> Functional:
    """V(x) = |x(0)|^2 + integral of e^(mu s) |x(s)|^2 over the window."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise ParameterError("weight exponent must be finite")

    def evaluate(seg: Segment) -> float:
        s, vals, _ = seg.refined(DEFAULT_REFINE)
        sq = np.einsum("ij,ij->i", vals, vals)
        w = _quadrature_weights(s.size, s[1] - s[0])
        head = float(sq[-1])
        return head + float(w @ (np.exp(mu * s) * sq))

    return Functional(name=f"quadratic_integral({mu:g})", evaluate=evaluate,
                      kind="quadratic_integral", param=mu)


def space_norm_functional(space: SpaceSpec) -> Functional:
    def evaluate(seg: Segment) -> float:
        return space_norm(seg, space)

    return Functional(name=f"space_norm[{space.label}]", evaluate=evaluate,
                      kind="space_norm", param=space)


def scaled_abs_rate(c: float) -> Callable[[np.ndarray], float]:
    """Q(v) = c |v|, positive definite for c > 0."""
    c = float(c)
    if not (c > 0.0 and math.isfinite(c)):
        raise ParameterError("rate constant must be positive")
    return lambda v: c * float(np.linalg.norm(np.atleast_1d(v)))


def scaled_square_rate(c: float) -> Callable[[np.ndarray], float]:
    """Q(v) = c |v|^2, positive definite for c > 0."""
    c = float(c)
    if not (c > 0.0 and math.isfinite(c)):
        raise ParameterError("rate constant must be positive")
    return lambda v: c * float(np.linalg.norm(np.atleast_1d(v)) ** 2)


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

    One short simulation covers the whole ladder; the solver step divides
    every rung time exactly.  The estimate is the max of the last three
    quotients, and the trend flag warns when the two smallest rungs still
    differ by more than 10 percent.
    """
    hs = _dini_steps(sys.delay_r)
    traj = simulate(sys, x, float(hs[0]), hs[-1] / 2.0)
    if traj.escaped:
        raise EscapeError(traj.escape_time)
    v0 = V.evaluate(x)
    quotients = []
    for hk in hs:
        seg = segment_at(traj, float(hk), n_nodes=x.n_nodes)
        quotients.append((float(hk), (V.evaluate(seg) - v0) / float(hk)))
    tail = [q for _, q in quotients[-3:]]
    q_prev, q_last = quotients[-2][1], quotients[-1][1]
    scale = max(abs(q_prev), abs(q_last), 1e-9 * (1.0 + v0))
    return DiniEstimate(quotients=tuple(quotients),
                        estimate=float(max(tail)),
                        trend=bool(abs(q_last - q_prev) > 0.1 * scale))


# -- shared helpers ----------------------------------------------------


def _prolonged_weighted_sup(x: Segment, f: np.ndarray, h: float,
                            lam: float) -> float:
    """Weighted sup of the h-prolongation, on shared sample points.

    The shifted-history part reuses the original refined grid (points that
    remain in the window), so its candidates differ from the functional's
    own evaluation only by the weight shift; the linear tail is sampled
    densely.  The sliver below one refined cell at the far end is dropped,
    making this a lower approximation like every discrete sup here.
    """
    s, vals, _ = x.refined(DEFAULT_REFINE)
    r = x.delay_r
    keep = s >= -r + h - 1e-15 * r
    cand = -math.inf
    if np.any(keep):
        cand = float((np.exp(lam * (s[keep] - h)) * _euclid(vals[keep])).max())
    ss = np.linspace(-h, 0.0, 17)
    tail = x.values[-1][None, :] + (ss + h)[:, None] * f[None, :]
    cand_tail = float((np.exp(lam * ss) * _euclid(tail)).max())
    return max(cand, cand_tail)


def _weighted_kind(V: Functional) -> float | None:
    """Weight exponent when V is a weighted sup, else None."""
    if V.kind == "weighted_sup":
        return float(V.param)
    if V.kind == "space_norm" and V.param.kind == "sup":
        return 0.0
    return None


def _growth_quotient(U: Functional, x: Segment, f: np.ndarray,
                     h: float) -> float:
    """(U(P_h x) - U(x)) / h with the noise-free path for sup functionals."""
    lam = _weighted_kind(U)
    up = U.evaluate(prolong(x, f, h)) if lam is None \
        else _prolonged_weighted_sup(x, f, h, lam)
    return (up - U.evaluate(x)) / h


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
    for i in range(trials):
        x = sample_one(cfg, 2 * i)
        y = sample_one(cfg, 2 * i + 1)
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
    if not (samples >= 1 and T > 0.0 and rho > 0.0):
        raise ParameterError("need positive samples, T and rho")
    r = sys.delay_r
    h, _ = _step_defaults(r, h)
    a1_inv = a1.invert()
    times = default_time_grid(T, r, grid_points)[1:]
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    fail = _falsifier("exponential_certificate", space, cfg, samples)
    lam = _weighted_kind(V)
    worst_low = 0.0
    worst_up = 0.0
    worst_decay = 0.0
    worst_env = 0.0
    for i, x0, traj in _ensemble(sys, cfg, range(samples), T, h):
        v0 = V.evaluate(x0)
        nx = space_norm(x0, space)
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
        if traj.escaped:
            return fail(i, x0, traj.escape_time, math.inf,
                        {"escape_time": traj.escape_time}, "escape")
        vts = _track(traj, times, n_nodes, V.evaluate, lam)
        nts = _norm_track(traj, space, times, n_nodes)
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
    for i in range(samples):
        x0 = sample_one(cfg, i)
        v0 = V.evaluate(x0)
        head = float(np.linalg.norm(x0.values[-1]))
        nx = space_norm(x0, space)
        tol = 1e-12 * (1.0 + v0)
        if float(a1(head)) > v0 * (1.0 + 1e-6) + tol \
                or v0 > float(a2(nx)) * (1.0 + 1e-6) + tol:
            return fail(i, x0, 0.0, v0,
                        {"value": v0, "lower": float(a1(head)),
                         "upper": float(a2(nx))}, "sandwich")
        try:
            est = dini_derivative(sys, V, x0).estimate
        except EscapeError as exc:
            return fail(i, x0, exc.escape_time, math.inf,
                        {"escape_time": exc.escape_time}, "escape")
        dissipation_tol = 1e-3 * (1.0 + v0)
        gap = est + Q(x0.values[-1])
        worst_dini = max(worst_dini, gap - dissipation_tol)
        if gap > dissipation_tol:
            return fail(i, x0, 0.0, est,
                        {"dini_estimate": est, "required": -Q(x0.values[-1]),
                         "tolerance": dissipation_tol}, "dissipation")
    lam = _weighted_kind(V)
    for i, x0, traj in _ensemble(sys, cfg, range(integral_trajectories),
                                 T, h):
        v0 = V.evaluate(x0)
        if traj.escaped:
            return fail(i, x0, traj.escape_time, math.inf,
                        {"escape_time": traj.escape_time}, "escape")
        times = traj.forward_times
        rates = np.array([Q(row) for row in traj.forward_values])
        slack = 1e-4 * (1.0 + v0)
        n_steps = times.size - 1
        idxs = [c * n_steps // DISSIPATION_CHECKPOINTS
                for c in range(1, DISSIPATION_CHECKPOINTS + 1)]
        idxs = [idx for idx in idxs if idx >= 2]
        vts = _track(traj, times[idxs], n_nodes, V.evaluate, lam)
        for idx, vt in zip(idxs, vts.tolist()):
            w = _mesh_weights(times[:idx + 1], traj.step_h)
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
    if not (samples >= 1 and rho > 0.0):
        raise ParameterError("need positive samples and rho")
    if not math.isfinite(mu):
        raise ParameterError("growth rate must be finite")
    r = sys.delay_r
    h, _ = _step_defaults(r, h)
    if T is None:
        T = 2.0 * r
    if space is None:
        space = SpaceSpec.sup()
    cfg = _ball_cfg(sys, space, rho, family, order, seed, n_nodes)
    fail = _falsifier("growth_certificate", space, cfg, samples)
    hs = _dini_steps(r)
    worst_quotient = -math.inf
    for i in range(samples):
        x0 = sample_one(cfg, i)
        u0 = U.evaluate(x0)
        head = float(np.linalg.norm(x0.values[-1]))
        if float(a(head)) > u0 * (1.0 + 1e-6) + 1e-12 * (1.0 + u0):
            return fail(i, x0, 0.0, u0,
                        {"value": u0, "required": float(a(head))},
                        "coercivity")
        f = np.asarray(sys.rhs(x0), dtype=float)
        tol = 1e-3 * (1.0 + u0)
        for hk in hs:
            q = _growth_quotient(U, x0, f, float(hk))
            excess = q - mu * u0
            worst_quotient = max(worst_quotient, excess - tol)
            if excess > tol:
                return fail(i, x0, 0.0, q,
                            {"quotient": q, "limit": mu * u0,
                             "step": float(hk)}, "prolongation")
    worst_traj = 0.0
    times = default_time_grid(T, r, grid_points)[1:]
    lam = _weighted_kind(U)
    for i, x0, traj in _ensemble(sys, cfg, range(min(traj_check, samples)),
                                 T, h):
        u0 = U.evaluate(x0)
        if traj.escaped:
            return fail(i, x0, traj.escape_time, math.inf,
                        {"escape_time": traj.escape_time}, "escape")
        uts = _track(traj, times, n_nodes, U.evaluate, lam)
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
        {"samples": samples, "trajectories": min(traj_check, samples)},
        {"mu": mu, "T": T})
