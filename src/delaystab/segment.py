"""History segments on [-r, 0] and the norms of the spaces they live in.

A :class:`Segment` stores a function x : [-r, 0] -> R^n through values and
derivatives on a uniform node grid and interpolates between nodes with cubic
Hermite polynomials.  Every norm here is evaluated on an m-times refined
sample grid of that interpolant.  Supremum-type quantities (sup norm, Hoelder
seminorm) are therefore lower approximations of the continuum value, while
integral quantities are quadrature approximations; both are exact statements
about the concrete piecewise-cubic function the segment represents, which is
what keeps the inequality checks in the rest of the toolkit honest.

One value and one slope formula (``_hermite``, ``_hermite_slope``) serve
every read of x here, in the integrator and in ``dde.segment_at``, so two
reads of one time agree bitwise.  The exception is the right window end:
``value_at(0)`` interpolates at u ~ 1, ``value_at_point(0)`` returns the node.

Three norm families are supported:

* ``sup``: the plain supremum of the Euclidean norm of x,
* ``sobolev`` with exponent p > 1: sup norm plus the L^p norm of the
  derivative (p = inf uses the max of the derivative),
* ``hoelder`` with exponent 0 < a <= 1: max of the sup norm and the Hoelder
  seminorm of x.

p = 1 is rejected on purpose; the toolkit works in spaces where bounded sets
of derivatives are equi-integrable, and the p = 1 case does not deliver that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_REFINE",
    "HOELDER_GRID_CAP",
    "ParameterError",
    "SegmentDataError",
    "SpaceSpec",
    "Segment",
    "sup_norm",
    "lp_deriv_norm",
    "hoelder_seminorm",
    "space_norm",
    "prolong",
]

DEFAULT_REFINE = 8
HOELDER_GRID_CAP = 2048

_UNIFORM_RTOL = 1e-12


class ParameterError(ValueError):
    """A norm or operator parameter is outside its allowed range."""


class SegmentDataError(ValueError):
    """Segment node data violates the representation invariants."""


def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    """The one key check of every config reader: d is an object holding
    all required keys and nothing outside required | optional."""
    if not isinstance(d, dict):
        raise ParameterError(f"{where}: expected a JSON object")
    missing = required - set(d)
    if missing:
        raise ParameterError(f"{where}: missing keys {sorted(missing)}")
    unknown = set(d) - required - optional
    if unknown:
        raise ParameterError(f"{where}: unknown keys {sorted(unknown)}")


def _select(d: dict, key: str, table: dict, where: str) -> str:
    """The value of d[key], which must name an entry of table."""
    choice = d.get(key) if isinstance(d, dict) else None
    if not isinstance(choice, str) or choice not in table:
        raise ParameterError(f"{where}: {key!r} must be one of "
                             f"{sorted(table)}")
    return choice


# the exponent each space kind carries
_SPACE_PARAMS = {"sup": (), "sobolev": ("p",), "hoelder": ("a",)}


@dataclass(frozen=True)
class SpaceSpec:
    """Which norm a computation should use.

    kind is one of "sup", "sobolev", "hoelder".  The sobolev kind carries the
    derivative exponent p (p > 1, math.inf allowed), the hoelder kind carries
    the seminorm exponent a in (0, 1].
    """

    kind: str
    p: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.kind == "sup":
            if self.p is not None or self.a is not None:
                raise ParameterError("sup space takes no parameters")
        elif self.kind == "sobolev":
            if self.p is None or self.a is not None:
                raise ParameterError("sobolev space needs exponent p only")
            if not (self.p > 1.0):
                raise ParameterError(
                    "sobolev exponent must satisfy p > 1 (p = 1 is rejected)"
                )
        elif self.kind == "hoelder":
            if self.a is None or self.p is not None:
                raise ParameterError("hoelder space needs exponent a only")
            if not (0.0 < self.a <= 1.0):
                raise ParameterError("hoelder exponent must lie in (0, 1]")
        else:
            raise ParameterError(f"unknown space kind {self.kind!r}")

    @staticmethod
    def sup() -> "SpaceSpec":
        return SpaceSpec("sup")

    @staticmethod
    def sobolev(p: float) -> "SpaceSpec":
        return SpaceSpec("sobolev", p=float(p))

    @staticmethod
    def hoelder(a: float) -> "SpaceSpec":
        return SpaceSpec("hoelder", a=float(a))

    @property
    def label(self) -> str:
        if self.kind == "sup":
            return "sup"
        if self.kind == "sobolev":
            return f"sobolev(p={self.p:g})"
        return f"hoelder(a={self.a:g})"

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "sobolev":
            d["p"] = "inf" if math.isinf(self.p) else self.p
        elif self.kind == "hoelder":
            d["a"] = self.a
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "SpaceSpec":
        kind = _select(d, "kind", _SPACE_PARAMS, "space")
        names = _SPACE_PARAMS[kind]
        _check_keys(d, {"kind", *names}, set(), f"{kind} space")
        if any(d[k] is None for k in names):
            raise ParameterError(f"{kind} space: {names[0]} must be a number")
        return SpaceSpec(kind, **{k: float(d[k]) for k in names})


# -- cubic Hermite reader ----------------------------------------------


def _hermite(v0, d0, v1, d1, u, h):
    """Value at fraction u of the Hermite cell (v0, d0), (v1, d1) of width h.

    u and h are scalars or (m, 1) columns, node rows (n,) or (m, n).
    """
    one_m = 1.0 - u
    h00 = (1.0 + 2.0 * u) * (one_m * one_m)
    h10 = u * (one_m * one_m)
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return h00 * v0 + h * h10 * d0 + h01 * v1 + h * h11 * d1


def _hermite_slope(v0, d0, v1, d1, u, h):
    """Derivative of the cell of :func:`_hermite`, with the same shapes."""
    g00 = (6.0 * u * u - 6.0 * u) / h
    g10 = 3.0 * u * u - 4.0 * u + 1.0
    g01 = (6.0 * u - 6.0 * u * u) / h
    g11 = 3.0 * u * u - 2.0 * u
    return g00 * v0 + g10 * d0 + g01 * v1 + g11 * d1


@dataclass(frozen=True, eq=False)
class Segment:
    """A sampled history x : [-r, 0] -> R^n with cubic Hermite interpolation.

    values and derivs have shape (N + 1, n) for N >= 2 cells; nodes are the
    N + 1 uniformly spaced times from -r to 0.  Instances are immutable; the
    arrays are marked read-only at construction.
    """

    delay_r: float
    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        r = float(self.delay_r)
        if not (r > 0.0 and math.isfinite(r)):
            raise SegmentDataError("delay r must be positive and finite")
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        derivs = np.ascontiguousarray(np.asarray(self.derivs, dtype=float))
        if values.ndim == 1:
            values = values[:, None]
        if derivs.ndim == 1:
            derivs = derivs[:, None]
        if nodes.ndim != 1 or nodes.size < 3:
            raise SegmentDataError("need at least 3 nodes (N >= 2 cells)")
        if values.shape != derivs.shape or values.shape[0] != nodes.size:
            raise SegmentDataError("values/derivs shape mismatch with nodes")
        if values.shape[1] < 1:
            raise SegmentDataError("state dimension must be at least 1")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))
                and np.all(np.isfinite(derivs))):
            raise SegmentDataError("segment data must be finite")
        if abs(nodes[0] + r) > _UNIFORM_RTOL * r or abs(nodes[-1]) > _UNIFORM_RTOL * r:
            raise SegmentDataError("nodes must run from -r to 0")
        spacing = np.diff(nodes)
        if np.any(spacing <= 0.0):
            raise SegmentDataError("nodes must be strictly increasing")
        h = r / (nodes.size - 1)
        if np.any(np.abs(spacing - h) > _UNIFORM_RTOL * r):
            raise SegmentDataError("nodes must be uniformly spaced")
        for arr in (nodes, values, derivs):
            arr.setflags(write=False)
        object.__setattr__(self, "delay_r", r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)
        object.__setattr__(self, "_cache", {})

    # -- shape helpers -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def spacing(self) -> float:
        return self.delay_r / self.n_cells

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_samples(delay_r, values, derivs) -> "Segment":
        values = np.asarray(values, dtype=float)
        nodes = np.linspace(-float(delay_r), 0.0, values.shape[0])
        return Segment(float(delay_r), nodes, values, derivs)

    @staticmethod
    def from_callable(delay_r, f, df, n_nodes=201) -> "Segment":
        """Sample vectorized callables f(s), df(s) on the uniform grid."""
        s = np.linspace(-float(delay_r), 0.0, int(n_nodes))
        return Segment(float(delay_r), s, f(s), df(s))

    @staticmethod
    def constant(delay_r, value, n_nodes=201) -> "Segment":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        n = int(n_nodes)
        vals = np.tile(v, (n, 1))
        return Segment.from_samples(delay_r, vals, np.zeros_like(vals))

    @staticmethod
    def zero(delay_r, dim=1, n_nodes=201) -> "Segment":
        return Segment.constant(delay_r, np.zeros(int(dim)), n_nodes)

    # -- evaluation ----------------------------------------------------

    def _cells(self, s):
        """Hermite cell data of the times s, in the order _hermite takes."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        r = self.delay_r
        tol = 1e-9 * r
        if np.any(s < -r - tol) or np.any(s > tol):
            raise ParameterError("evaluation time outside [-r, 0]")
        s = np.clip(s, -r, 0.0)
        h = self.spacing
        j = np.clip(((s + r) / h).astype(int), 0, self.n_cells - 1)
        u = (s - self.nodes[j]) / h
        return (self.values[j], self.derivs[j], self.values[j + 1],
                self.derivs[j + 1], u[:, None], h)

    def value_at(self, s) -> np.ndarray:
        """Hermite value at times s (scalar or array); returns (m, n)."""
        return _hermite(*self._cells(s))

    def deriv_at(self, s) -> np.ndarray:
        """Derivative of the Hermite interpolant at times s; returns (m, n)."""
        return _hermite_slope(*self._cells(s))

    def value_at_point(self, s: float) -> np.ndarray:
        """Scalar-time fast path used by right-hand-side evaluation."""
        r = self.delay_r
        if s >= 0.0:
            return self.values[-1]
        if s <= -r:
            return self.values[0]
        h = self.spacing
        j = min(int((s + r) / h), self.n_cells - 1)
        return _hermite(self.values[j], self.derivs[j], self.values[j + 1],
                        self.derivs[j + 1], (s - (j * h - r)) / h, h)

    def refined(self, refine: int = DEFAULT_REFINE):
        """Sample grid, values and derivatives at refine points per cell."""
        refine = int(refine)
        if refine < 1:
            raise ParameterError("refinement factor must be >= 1")
        cached = self._cache.get(("refined", refine))
        if cached is not None:
            return cached
        count = self.n_cells * refine + 1
        s = np.linspace(-self.delay_r, 0.0, count)
        out = (s, self.value_at(s), self.deriv_at(s))
        self._cache[("refined", refine)] = out
        return out

    # -- linear structure ----------------------------------------------

    def _check_compatible(self, other: "Segment"):
        if abs(self.delay_r - other.delay_r) > _UNIFORM_RTOL * self.delay_r:
            raise SegmentDataError("segments live on different delay windows")
        if self.values.shape != other.values.shape:
            raise SegmentDataError("segments have different grids or dims")

    def __add__(self, other: "Segment") -> "Segment":
        self._check_compatible(other)
        return Segment.from_samples(self.delay_r, self.values + other.values,
                                    self.derivs + other.derivs)

    def __sub__(self, other: "Segment") -> "Segment":
        self._check_compatible(other)
        return Segment.from_samples(self.delay_r, self.values - other.values,
                                    self.derivs - other.derivs)

    def __mul__(self, c) -> "Segment":
        c = float(c)
        return Segment.from_samples(self.delay_r, c * self.values, c * self.derivs)

    __rmul__ = __mul__

    def __neg__(self) -> "Segment":
        return self * -1.0

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "r": self.delay_r,
            "nodes": self.nodes.tolist(),
            "values": self.values.tolist(),
            "derivs": self.derivs.tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Segment":
        missing = {"r", "nodes", "values", "derivs"} - set(d)
        if missing:
            raise SegmentDataError(f"segment JSON missing keys {sorted(missing)}")
        return Segment(float(d["r"]), np.asarray(d["nodes"], dtype=float),
                       np.asarray(d["values"], dtype=float),
                       np.asarray(d["derivs"], dtype=float))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Segment":
        return Segment.from_json_dict(json.loads(text))

    def write_csv(self, fileobj):
        """Columns s, x_1..x_n, dx_1..dx_n with 17 significant digits."""
        n = self.dim
        header = ["s"] + [f"x_{j+1}" for j in range(n)] + [f"dx_{j+1}" for j in range(n)]
        fileobj.write(",".join(header) + "\n")
        for i in range(self.n_nodes):
            row = [self.nodes[i], *self.values[i], *self.derivs[i]]
            fileobj.write(",".join(f"{v:.17g}" for v in row) + "\n")


# -- quadrature weights ------------------------------------------------


def _quadrature_weights(count: int, spacing: float) -> np.ndarray:
    """Positive composite Simpson weights for count uniform samples.

    An odd interval count falls back to Simpson plus a 3/8 tail (or pure
    trapezoid when only one interval exists); all weights stay positive and
    sum to the interval length, which the discrete norm inequalities rely on.
    """
    n_int = count - 1
    if n_int < 1:
        raise ParameterError("quadrature needs at least two samples")
    w = np.zeros(count)
    if n_int == 1:
        w[:] = spacing / 2.0
        return w
    if n_int % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (spacing / 3.0)
    if n_int == 3:
        return np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * spacing / 8.0)
    head = _quadrature_weights(count - 3, spacing)
    w[: count - 3] = head
    w[count - 4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * spacing / 8.0)
    return w


def _euclid(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


# -- norms -------------------------------------------------------------


def sup_norm(seg: Segment, refine: int = DEFAULT_REFINE) -> float:
    """Max Euclidean norm of x over the refined grid (nodes included)."""
    _, vals, _ = seg.refined(refine)
    return float(_euclid(vals).max())


def lp_deriv_norm(seg: Segment, p: float, refine: int = DEFAULT_REFINE) -> float:
    """L^p norm of the interpolant derivative; p = inf gives the max."""
    p = float(p)
    if not p > 1.0:
        raise ParameterError("derivative exponent must satisfy p > 1")
    s, _, ders = seg.refined(refine)
    mags = _euclid(ders)
    if math.isinf(p):
        return float(mags.max())
    w = _quadrature_weights(s.size, s[1] - s[0])
    return float(np.dot(w, mags ** p) ** (1.0 / p))


def _hoelder_lag_profile(seg: Segment, refine: int, grid_cap: int):
    key = ("hoelder", refine, grid_cap)
    cached = seg._cache.get(key)
    if cached is not None:
        return cached
    count = seg.n_cells * refine + 1
    if count > grid_cap:
        m = grid_cap
        s = np.linspace(-seg.delay_r, 0.0, m)
        vals = seg.value_at(s)
    else:
        m = count
        _, vals, _ = seg.refined(refine)
    delta = seg.delay_r / (m - 1)
    maxdiff = np.empty(m - 1)
    for k in range(1, m):
        d = vals[k:] - vals[:-k]
        maxdiff[k - 1] = np.einsum("ij,ij->i", d, d).max()
    np.sqrt(maxdiff, out=maxdiff)
    out = (delta, maxdiff)
    seg._cache[key] = out
    return out


def hoelder_seminorm(seg: Segment, a: float, refine: int = DEFAULT_REFINE,
                     grid_cap: int = HOELDER_GRID_CAP) -> float:
    """Max of |x(t) - x(s)| / |t - s|^a over sample pairs.

    Pairs come from the refined grid, capped at grid_cap uniformly spaced
    samples, so the result is a lower approximation of the continuum
    seminorm.  The per-lag maxima are cached on the segment, which makes
    evaluating several exponents on one segment cheap.
    """
    a = float(a)
    if not (0.0 < a <= 1.0):
        raise ParameterError("hoelder exponent must lie in (0, 1]")
    delta, maxdiff = _hoelder_lag_profile(seg, int(refine), int(grid_cap))
    lags = np.arange(1, maxdiff.size + 1) * delta
    return float((maxdiff / lags ** a).max())


def space_norm(seg: Segment, space: SpaceSpec, refine: int = DEFAULT_REFINE) -> float:
    """Norm of the segment in the given space."""
    if space.kind == "sup":
        return sup_norm(seg, refine)
    if space.kind == "sobolev":
        return sup_norm(seg, refine) + lp_deriv_norm(seg, space.p, refine)
    return max(sup_norm(seg, refine), hoelder_seminorm(seg, space.a, refine))


# -- prolongation ------------------------------------------------------


def prolong(seg: Segment, f_value, h: float) -> Segment:
    """Shift the window forward by h with a linear extension of slope f_value.

    The result represents s -> x(s + h) on [-r, -h] continued by
    x(0) + (s + h) * f_value on (-h, 0], resampled onto the segment's own
    uniform grid.  At a node falling exactly on the junction the stored
    derivative takes the linear-extension side.  Requires 0 < h <= r.
    """
    h = float(h)
    r = seg.delay_r
    if not (0.0 < h <= r * (1.0 + _UNIFORM_RTOL)):
        raise ParameterError("prolongation step must satisfy 0 < h <= r")
    h = min(h, r)
    f = np.atleast_1d(np.asarray(f_value, dtype=float))
    if f.shape != (seg.dim,):
        raise ParameterError("f_value dimension does not match the segment")
    s = seg.nodes
    shifted = s + h
    old_side = shifted <= 0.0
    new_vals = np.empty_like(seg.values)
    new_ders = np.empty_like(seg.derivs)
    if np.any(old_side):
        q = np.minimum(shifted[old_side], 0.0)
        new_vals[old_side] = seg.value_at(q)
        new_ders[old_side] = seg.deriv_at(q)
    lin = ~old_side
    if np.any(lin):
        new_vals[lin] = seg.values[-1] + shifted[lin, None] * f
        new_ders[lin] = f
    # junction convention: a node exactly at -h carries the extension slope
    at_junction = np.abs(shifted) <= _UNIFORM_RTOL * r
    if np.any(at_junction):
        new_ders[at_junction] = f
    return Segment.from_samples(r, new_vals, new_ders)
