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
from typing import Callable

import numpy as np

from .dde import DelaySystem, Trajectory, segment_at, simulate
from .sampler import SamplerConfig, sample_one
from .segment import DEFAULT_REFINE, ParameterError, Segment, SpaceSpec, \
    _euclid, space_norm

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


def _track(traj: Trajectory, times, seg_nodes: int,
           evaluate: Callable[[Segment], float],
           lam: float | None = None) -> np.ndarray:
    """A functional of the history segment x_t at each time.

    Times past the covered end (escape) give +inf.  With lam the value is
    the window max of e^(lam s)|x_t(s)|, taken over one candidate set that
    every time shares: the initial segment's refined grid plus the forward
    solver mesh, weighted once as e^(lam u)|x(u)|.  Each window max then
    reads the same history points as the t = 0 evaluation, so decay ratios
    carry no resampling noise (exact on constant histories).  Without lam
    the value is evaluate(x_t) on a resampled segment.
    """
    r = traj.system.delay_r
    end = traj.end_time
    out = np.full(len(times), np.inf)
    if lam is not None:
        s, vals, _ = traj.initial.refined(DEFAULT_REFINE)
        u = np.concatenate([s, traj.forward_times[1:]])
        g = np.exp(lam * u) * np.concatenate(
            [_euclid(vals), _euclid(traj.forward_values[1:])])
    for k, t in enumerate(times):
        if t > end + 1e-12 * max(r, 1.0):
            break
        if lam is None:
            out[k] = evaluate(segment_at(traj, float(t), n_nodes=seg_nodes))
            continue
        lo = np.searchsorted(u, t - r - 1e-15 * r, side="left")
        hi = np.searchsorted(u, t + 1e-15 * max(r, abs(t)), side="right")
        out[k] = math.exp(-lam * t) * float(g[lo:hi].max())
    return out


def _norm_track(traj: Trajectory, space: SpaceSpec, grid: np.ndarray,
                seg_nodes: int) -> np.ndarray:
    """Report-space norm of x_t at each grid time; sup is the lam = 0 max."""
    return _track(traj, grid, seg_nodes, lambda seg: space_norm(seg, space),
                  0.0 if space.kind == "sup" else None)


def _ball_cfg(sys: DelaySystem, space: SpaceSpec, radius: float, family: str,
              order: int, seed: int, n_nodes: int) -> SamplerConfig:
    return SamplerConfig(family=family, order=order, target_space=space,
                         target_norm=radius, dimension=sys.dimension,
                         delay_r=sys.delay_r, seed=seed, n_nodes=n_nodes)


def _ensemble(sys: DelaySystem, cfg: SamplerConfig, indices, T: float,
              h: float):
    """Yield (i, x0, traj): sample i of cfg integrated over [0, T].

    Lazy, so a caller that stops at its first counterexample integrates
    nothing after it.
    """
    for i in indices:
        x0 = sample_one(cfg, i)
        yield i, x0, simulate(sys, x0, T, h)


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
        if s < 0.0 or t < 0.0:
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
                order: int, seed: int, n_nodes: int):
    """Yield (j, cfg, i, x0, traj) for every sample of every shell j.

    Shell j draws from the annulus between radii s_grid[j-1] and s_grid[j]
    of the `space` ball.
    """
    for j in range(s_grid.size):
        lo_frac = s_grid[j - 1] / s_grid[j] if j > 0 else 0.0
        cfg = _ball_cfg(sys, space, float(s_grid[j]), family, order,
                        seed, n_nodes).with_shell(lo_frac, j)
        for i, x0, traj in _ensemble(sys, cfg, range(int(counts[j])), T, h):
            yield j, cfg, i, x0, traj


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
    if t_grid is None:
        t_grid = default_time_grid(horizon, r, grid_points)
    t_grid = np.asarray(t_grid, dtype=float)
    if report_space is None:
        report_space = space
    raw = np.full((shells, t_grid.size), -np.inf)
    for j, _, _, _, traj in _shell_runs(sys, space, s_grid, counts,
                                        float(t_grid[-1]), h, family, order,
                                        seed, n_nodes):
        raw[j] = np.maximum(raw[j],
                            _norm_track(traj, report_space, t_grid, n_nodes))
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
    for i, x0, traj in _ensemble(sys, cfg, range(budget), T, h):
        track = _norm_track(traj, space, grid, n_nodes)
        finite = track[np.isfinite(track)]
        if finite.size:
            sup = max(sup, float(finite.max()))
        if traj.escaped:
            escapes.append((traj.escape_time, i, x0))
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
    for i, x0, traj in _ensemble(sys, cfg, range(budget), horizon, h):
        track = _norm_track(traj, space, grid, n_nodes)
        if traj.escaped:
            wit = _witness(cfg, i, x0, traj.escape_time, math.inf)
            return StabilityReport(
                "lags", space, "falsified", wit,
                {"sup": math.inf}, {"samples": budget},
                {"escape_time": traj.escape_time})
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
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ParameterError("tolerances must be positive")
    if budget < 1:
        raise ParameterError("need a positive sample budget")
    r = sys.delay_r
    h, horizon = _step_defaults(r, h, horizon)
    grid = default_time_grid(horizon, r, grid_points)
    cfg = _ball_cfg(sys, space, 1.0, family, order, seed, n_nodes)
    base = [sample_one(cfg, i) for i in range(budget)]

    def probe(delta: float, eps: float):
        for i, seg in enumerate(base):
            traj = simulate(sys, delta * seg, horizon, h)
            track = _norm_track(traj, space, grid, n_nodes)
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
    for i, x0, traj in _ensemble(sys, cfg, range(budget), horizon, h):
        track = _norm_track(traj, space, grid, n_nodes)
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
    for i, x0, traj in _ensemble(sys, cfg, range(budget), horizon, h):
        if traj.escaped:
            wit = _witness(cfg, i, x0, traj.escape_time, math.inf)
            return StabilityReport(
                "uga", space, "falsified", wit, {"eps": eps, "rho": rho},
                {"samples": budget}, {"escape_time": traj.escape_time})
        peak = np.maximum(peak, _norm_track(traj, space, grid, n_nodes))
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
    firsts = _ensemble(sys, cfg, range(0, 2 * pairs, 2), T, h)
    seconds = _ensemble(sys, cfg, range(1, 2 * pairs, 2), T, h)
    for (i, x0, tx), (k, y0, ty) in zip(firsts, seconds):
        escapes = [(tr.escape_time, j, z0)
                   for j, z0, tr in ((i, x0, tx), (k, y0, ty)) if tr.escaped]
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
        for t in grid:
            diff = segment_at(tx, float(t), n_nodes=n_nodes) \
                - segment_at(ty, float(t), n_nodes=n_nodes)
            d_sup = space_norm(diff, sup_space)
            d_full = space_norm(diff, space)
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
    if t_grid is None:
        t_grid = default_time_grid(horizon, r, grid_points)
    grid = np.asarray(t_grid, dtype=float)
    if lipschitz_modulus is None:
        lipschitz_modulus = sys.lipschitz_modulus
    sup_space = SpaceSpec.sup()
    raw = np.full((shells, grid.size), -np.inf)
    runs = []
    for j, cfg, i, x0, traj in _shell_runs(sys, space, s_grid, counts,
                                           float(grid[-1]), h, family, order,
                                           seed, n_nodes):
        raw[j] = np.maximum(raw[j],
                            _norm_track(traj, sup_space, grid, n_nodes))
        runs.append((j, cfg, i, x0, _norm_track(traj, space, grid, n_nodes)))
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
