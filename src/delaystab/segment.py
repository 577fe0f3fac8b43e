"""History segments on [-r, 0] and the norms of the spaces they live in.

A :class:`Segment` stores a function x : [-r, 0] -> R^n through values and
derivatives on a uniform node grid and interpolates between nodes with cubic
Hermite polynomials.  Every norm here is evaluated on an m-times refined
sample grid of that interpolant.  Supremum-type quantities (sup norm, Hoelder
seminorm) are therefore lower approximations of the continuum value, while
integral quantities are quadrature approximations; both are exact statements
about the concrete piecewise-cubic function the segment represents, which is
what keeps the inequality checks in the rest of the toolkit honest.

One rule places a time in a history cell (``_locate``), and one cell
read (``_cell_reads``, by the value and slope formulas ``_hermite`` and
``_hermite_slope``) serves every read of x here, in the integrator and in
``dde.segment_at``, so two reads of one time agree bitwise; a time at or
past a window end reads the end node and slope themselves, signed zeros
included.  ``_point_read`` is the scalar fast path of the same rule.

The norm kernels work on stacks: K segments on one node grid, as
(K, N + 1, n) node data, are refined and normed at once by ``_norms``,
and each value is bitwise the norm of that segment alone.  The
per-segment functions (``space_norm``, ``sup_norm``, ``lp_deriv_norm``,
``hoelder_seminorm``) are batches of one of the same kernels, so the
checkers' stacked norm tracks agree with them in every bit.  The Hoelder
seminorm is one pruned, exact sweep over the sample lags
(``_hoelder_norms``): it skips the lags that provably cannot reach the
norm, so its value is the max over all lags in every bit.  A caller
that only compares norms with a level can ask ``_norms`` for values
exact only against it; the sweep then stops where a value passes it.

Segments are plain values: every read of one is taken afresh from its four
fields.  Only the grid arithmetic of a uniform read (``_uniform_grid``) is
memoised, keyed on the exact nodes; it holds no data values.

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
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

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


@contextmanager
def _typed(where: str):
    """Report a wrong-typed config value (TypeError or ValueError from a
    conversion) as the ParameterError every config reader raises."""
    try:
        yield
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{where}: {exc}") from None


def _integer(v) -> int:
    """A config value that must be a whole number, as an int.  Booleans
    and non-integral numbers are refused, where int() would take them or
    round them down; a TypeError that _typed reports."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or (
            isinstance(v, float) and v.is_integer())):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def _real(v) -> float:
    """A config value that must be a number, as a float.  Booleans are
    refused, where float() would take them as 1.0 and 0.0; a TypeError
    that _typed reports."""
    if isinstance(v, bool):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _reals(v) -> np.ndarray:
    """A config array of numbers (nested lists) as a float array, with
    booleans refused as by _real."""
    if any(isinstance(x, bool) for x in np.asarray(v, dtype=object).flat):
        raise TypeError(f"expected numbers, got {v!r}")
    return np.asarray(v, dtype=float)


def _field(d: dict, key: str, convert, where: str, *default):
    """convert(d[key]), or convert(default) when the key is absent; a bad
    value is a ParameterError that names where and the key."""
    with _typed(f"{where}: {key!r}"):
        return convert(d.get(key, *default))


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
        return SpaceSpec(kind, **{k: _field(d, k, _real, f"{kind} space")
                                  for k in names})


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


def _locate(r: float, nodes, s: np.ndarray):
    """The one rule that places times in a history cell: each time of the
    array s in [-r, 0] lies in cell j of the uniform nodes from -r to 0,
    at fraction u = (s - nodes[j]) / h of its width h.  The times s <= -r
    and s >= 0 read the end nodes themselves: ends holds their positions
    in s and the index of their node, 0 or -1."""
    h = r / (nodes.size - 1)
    j = np.clip(((s + r) / h).astype(int), 0, nodes.size - 2)
    at = np.flatnonzero((s <= -r) | (s >= 0.0))
    return j, (s - nodes[j]) / h, h, (at, np.where(s[at] < 0.0, 0, -1))


def _point_read(r: float, nodes, values, derivs, s: float):
    """x(s) at one time s by the rule of _locate, bitwise its array read.

    The node axis is the second to last, so values (N + 1, n) give an (n,)
    row and stacked nodes (B, N + 1, n) give (B, n).
    """
    if s >= 0.0:
        return values[..., -1, :]
    if s <= -r:
        return values[..., 0, :]
    cells = nodes.size - 1
    h = r / cells
    j = min(int((s + r) / h), cells - 1)
    return _hermite(values[..., j, :], derivs[..., j, :],
                    values[..., j + 1, :], derivs[..., j + 1, :],
                    (s - nodes[j]) / h, h)


def _cell_reads(values, derivs, j, u, h, ends=None, slopes: bool = False,
                value: bool = True):
    """x at fraction u of the cells j, each of width h, if value, and x'
    if slopes (each else None): the one read of a cell's node rows.  A
    read of slopes only computes no value, and its slopes are bitwise
    those of a read of both.

    The node axis of values and derivs is the second to last: node rows
    (N + 1, n) give reads (m, n), and stacked node data (K, N + 1, n)
    give (K, m, n), each segment of the stack read by the same formula on
    the same cells as it would be alone.  h is a scalar or an (m, 1)
    column.  The times at ends, as _locate gives them, read their end
    node and slope themselves.
    """
    cell = (values[..., j, :], derivs[..., j, :], values[..., j + 1, :],
            derivs[..., j + 1, :], u[:, None], h)
    reads = (_hermite(*cell) if value else None,
             _hermite_slope(*cell) if slopes else None)
    if ends is not None:
        at, node = ends
        for out, data in zip(reads, (values, derivs)):
            if out is not None:
                out[..., at, :] = data[..., node, :]
    return reads


def _refined_count(n_nodes: int, refine) -> int:
    """Samples of the grid with refine points per cell of n_nodes nodes;
    refine must be a whole number of at least 1, else a ParameterError
    names it."""
    with _typed("refine"):
        refine = _integer(refine)
    if refine < 1:
        raise ParameterError("refinement factor must be >= 1")
    return (n_nodes - 1) * refine + 1


@lru_cache
def _uniform_grid(r: float, node_bytes: bytes, count: int):
    """The count uniform times s from -r to 0 located on the nodes whose
    float64 bytes are node_bytes, (s, j, u, h, ends) with read-only
    arrays: pure grid arithmetic, memoised, holding no data values."""
    s = np.linspace(-r, 0.0, count)
    j, u, h, ends = _locate(r, np.frombuffer(node_bytes), s)
    for arr in (s, j, u, *ends):
        arr.setflags(write=False)
    return s, j, u, h, ends


def _uniform_reads(r: float, nodes, values, derivs, count: int,
                   slopes: bool, value: bool = True):
    """The count uniform times s from -r to 0, x at them if value and, if
    slopes, x' (each else None); (m, n) reads for node rows, (K, m, n)
    for stacks."""
    s, *grid = _uniform_grid(r, nodes.tobytes(), count)
    return (s, *_cell_reads(values, derivs, *grid, slopes=slopes,
                            value=value))


class _Refined:
    """The uniform read of a stack of node data, data = (r, nodes, values,
    derivs), at count samples (by default the DEFAULT_REFINE grid), each
    part read at most once, for every kernel of the stack that reads
    that grid to share.

    Called with slopes False it gives (s, vals, None), with slopes True
    (s, vals, ders): the values on the first call, together with the
    slopes if that call asks for them, and the slopes alone on the first
    later call that does; every array is bitwise _uniform_reads'.
    """

    def __init__(self, r: float, nodes, values, derivs,
                 count: int | None = None):
        self.data = (r, nodes, values, derivs)
        self.count = _refined_count(nodes.size, DEFAULT_REFINE) \
            if count is None else count
        self.s = self.vals = self.ders = None

    def __call__(self, slopes: bool = False):
        if self.vals is None:
            self.s, self.vals, self.ders = _uniform_reads(
                *self.data, self.count, slopes)
        elif slopes and self.ders is None:
            self.ders = _uniform_reads(*self.data, self.count, True,
                                       value=False)[2]
        return self.s, self.vals, self.ders if slopes else None


@lru_cache
def _check_nodes(r: float, node_bytes: bytes) -> None:
    """Raise SegmentDataError unless the nodes whose float64 bytes are
    node_bytes are finite and run uniformly from -r to 0.  Memoised, like
    _uniform_grid: the segments of a sample stream or a trajectory share
    their nodes, so each array of nodes is checked once."""
    nodes = np.frombuffer(node_bytes)
    if not np.all(np.isfinite(nodes)):
        raise SegmentDataError("segment data must be finite")
    if abs(nodes[0] + r) > _UNIFORM_RTOL * r \
            or abs(nodes[-1]) > _UNIFORM_RTOL * r:
        raise SegmentDataError("nodes must run from -r to 0")
    spacing = np.diff(nodes)
    if np.any(spacing <= 0.0):
        raise SegmentDataError("nodes must be strictly increasing")
    h = r / (nodes.size - 1)
    if np.any(np.abs(spacing - h) > _UNIFORM_RTOL * r):
        raise SegmentDataError("nodes must be uniformly spaced")


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
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
            raise SegmentDataError("segment data must be finite")
        _check_nodes(r, nodes.tobytes())
        for arr in (nodes, values, derivs):
            arr.setflags(write=False)
        object.__setattr__(self, "delay_r", r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    @classmethod
    def _of_checked(cls, r: float, nodes, values, derivs) -> "Segment":
        """The segment of data that its caller has checked as __post_init__
        checks it: r a positive finite float, nodes passed by _check_nodes,
        values and derivs finite C-contiguous float (N + 1, n) arrays.
        The arrays are marked read-only here.  For a caller that checks a
        whole stack of segments at once (sampler.sample_many)."""
        seg = object.__new__(cls)
        for name, arr in (("nodes", nodes), ("values", values),
                          ("derivs", derivs)):
            arr.setflags(write=False)
            object.__setattr__(seg, name, arr)
        object.__setattr__(seg, "delay_r", r)
        return seg

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

    def _reads(self, s, slopes: bool, value: bool = True):
        """The cell reads of the times s (scalar or array)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        r = self.delay_r
        tol = 1e-9 * r
        if np.any(s < -r - tol) or np.any(s > tol):
            raise ParameterError("evaluation time outside [-r, 0]")
        return _cell_reads(self.values, self.derivs,
                           *_locate(r, self.nodes, np.clip(s, -r, 0.0)),
                           slopes=slopes, value=value)

    def value_at(self, s) -> np.ndarray:
        """Hermite value at times s (scalar or array); returns (m, n)."""
        return self._reads(s, False)[0]

    def deriv_at(self, s) -> np.ndarray:
        """Derivative of the Hermite interpolant at times s; returns (m, n)."""
        return self._reads(s, True, value=False)[1]

    def value_at_point(self, s: float) -> np.ndarray:
        """Scalar-time fast path used by right-hand-side evaluation."""
        return _point_read(self.delay_r, self.nodes, self.values,
                           self.derivs, s)

    def refined(self, refine: int = DEFAULT_REFINE):
        """Sample grid, values and derivatives at refine points per cell."""
        return _uniform_reads(self.delay_r, self.nodes, self.values,
                              self.derivs, _refined_count(self.n_nodes, refine),
                              True)

    def _refined_values(self, refine: int = DEFAULT_REFINE):
        """The sample grid and values of refined(refine), without slopes."""
        return _uniform_reads(self.delay_r, self.nodes, self.values,
                              self.derivs, _refined_count(self.n_nodes, refine),
                              False)[:2]

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
        _write_table(fileobj, header, np.column_stack(
            [self.nodes, self.values, self.derivs]))


def _write_table(fileobj, header: list, table: np.ndarray) -> None:
    """The CSV lines of header and of each row of the 2-D table, every
    entry with 17 significant digits.  The rows are formatted as Python
    floats, whose format is bitwise a numpy float64's, inf, nan, -0 and
    subnormals included."""
    lines = [",".join(header)]
    lines += [",".join([f"{v:.17g}" for v in row]) for row in table.tolist()]
    fileobj.write("\n".join(lines) + "\n")


def _node_stack(segs) -> tuple:
    """(r, nodes, values, derivs) of segments on one delay and one set of
    nodes: their node data as the (K, N + 1, n) stacks that _norms and
    the stacked functionals read."""
    return (segs[0].delay_r, segs[0].nodes,
            np.stack([seg.values for seg in segs]),
            np.stack([seg.derivs for seg in segs]))


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


def _squares(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean norm along the last axis, (m, n) -> (m,) or
    (K, m, n) -> (K, m), into out if given; a row's bits do not depend on
    the others."""
    return np.einsum("...j,...j->...", rows, rows, out=out)


def _euclid(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_squares(rows))


# -- norms -------------------------------------------------------------
#
# Each kernel takes a stack of K sampled segments, (K, m, n), and returns
# one value per segment; a segment's value does not depend on the others
# or on K.  The per-segment functions are their batches of one, and
# _norms reads a stack of node data the way space_norm reads one segment.


def _sup_norms(vals: np.ndarray) -> np.ndarray:
    """Max Euclidean norm over the samples of each segment."""
    return _euclid(vals).max(axis=1)


def _lp_norms(ders: np.ndarray, p: float, spacing: float) -> np.ndarray:
    """L^p norm of each segment's sampled derivative; p = inf the max.

    The weighted powers are laid out row by row (order="C"), so that numpy
    sums each row pairwise in the order its length fixes and a value does
    not depend on the other rows: a stack's reads are laid out sample by
    sample, and a sum across that layout adds each row in sequence.
    """
    mags = _euclid(ders)
    if math.isinf(p):
        return mags.max(axis=1)
    w = _quadrature_weights(mags.shape[1], spacing)
    return np.multiply(mags ** p, w, order="C").sum(axis=1) ** (1.0 / p)


def _lag_maxima(vals: np.ndarray, k: int, width: int) -> np.ndarray:
    """Per lag j = k .. k + width - 1, the largest |x(s_i+j) - x(s_i)|
    over the samples of each segment; (K, m, n) -> (K, width), a row's
    bits independent of the others and of width."""
    K, m, n = vals.shape
    diff = np.zeros((K, width, m - k, n))  # lag k + c: m - k - c pairs
    for c in range(width):
        np.subtract(vals[:, k + c:], vals[:, :m - k - c],
                    out=diff[:, c, :m - k - c])
    return np.sqrt(_squares(diff).max(axis=2))


def _hoelder_norms(vals: np.ndarray, a: float, r: float,
                   floor, cap: float = math.inf) -> np.ndarray:
    """max(floor, Hoelder seminorm) of each segment of a stack of samples
    uniform on [-r, 0]: the seminorm is the max over lags k of the lag-k
    quotient, the largest |x(s_i+k) - x(s_i)| over |s_i+k - s_i|^a.

    One sweep over the lags skips the lags that cannot reach the result.
    By the triangle inequality the lag-k quotient is at most
    (min(k M1, R) + 1e-150) (1 + 1e-9) / den_k, where M1 is the lag-1
    maximum and R the norm of the componentwise range.
    The slack covers squares that underflow: differences below about
    1.5e-154 square into the subnormals or to 0, where M1 loses its
    relative accuracy, and m - 1 <= 2047 of them stay under 1e-150.
    The factor covers rounding.  The lags go in blocks of 32 // K (at
    least one), so that a stack of few segments, such as a standalone
    seminorm, makes about as few numpy calls per lag as a track chunk of
    31.  The blocks go in descending order of their largest bound, so the
    results rise early and prune more.  A row takes a block only if some
    lag's bound in it is not below what the row's result already
    reaches (an inf or NaN bound always is), so each skipped quotient is
    below the result, and the max, which is exact, is bitwise the max
    over all lags.  A row's value does not depend on the others or on K.

    A row whose result passes cap leaves the sweep, at the start and at
    each block, so its value is above cap and at most the exact one; a
    row that never passes cap ends exact.  Its value then compares with
    cap as the exact one does, but which blocks it took before leaving,
    and so the value itself, may depend on the other rows and on K.
    With cap = inf no row leaves and every bit is as above.
    """
    K, m = vals.shape[:2]
    width = max(1, 32 // K)
    ks = np.arange(1, m)
    den = (ks * (r / (m - 1))) ** a
    m1 = _lag_maxima(vals, 1, 1)[:, 0]
    thr = np.maximum(floor, m1 / den[0])
    spread = _euclid(vals.max(axis=1) - vals.min(axis=1))
    # bound[k - 1, i]: row i at lag k
    bound = ((np.minimum(ks[:, None] * m1, spread) + 1e-150)
             * (1.0 + 1e-9) / den[:, None])
    # the blocks of lags 2 .. m - 1 that some row needs at the start,
    # largest bound first, so that thresholds rise early
    need = ~(bound[1:] < thr)
    capped = cap < math.inf  # else no row leaves: no test is made
    if capped:
        need &= ~(thr > cap)
    need = need.any(axis=1)
    starts = np.arange(0, m - 2, width)
    top = np.maximum.reduceat(bound[1:].max(axis=1), starts)
    keep = np.logical_or.reduceat(need, starts)
    starts, top = starts[keep], top[keep]
    for k in 2 + starts[np.argsort(-top, kind="stable")]:
        lags = slice(k - 1, min(k - 1 + width, m - 1))  # rows of bound
        take = ~(bound[lags] < thr)
        if capped:
            take &= ~(thr > cap)
        rows = np.nonzero(take.any(axis=0))[0]
        if rows.size:
            q = _lag_maxima(vals[rows], k, lags.stop - lags.start)
            thr[rows] = np.maximum(thr[rows], (q / den[lags]).max(axis=1))
    return thr


def _norms(r: float, nodes, values, derivs, space: SpaceSpec,
           refine: int = DEFAULT_REFINE, level: float | None = None,
           refined: _Refined | None = None) -> np.ndarray:
    """space_norm of each segment of a stack: node data (K, N + 1, n) on
    the uniform nodes from -r to 0 give K norms, each bitwise the norm of
    that segment alone.  Sobolev refines slopes too, and the Hoelder
    seminorm reads its own grid when the refined one exceeds
    HOELDER_GRID_CAP samples.  refined, if given, is the stack's read at
    refine, which the norm shares with the caller's other kernels.

    With a level, a value is exact only in how it compares with the
    level: it is at most the level exactly when the norm is, and
    otherwise above the level and at most the norm.  Hoelder rows then
    sweep with floor max(sup, level) and cap level, so a row leaves
    after the first block of lags that lifts it above the level and
    skips every lag whose bound stays below it; sup and Sobolev values
    stay exact."""
    count = _refined_count(nodes.size, refine)
    if refined is None:
        refined = _Refined(r, nodes, values, derivs, count)
    s, vals, ders = refined(space.kind == "sobolev")
    sup = _sup_norms(vals)
    if space.kind == "sup":
        return sup
    if space.kind == "sobolev":
        return sup + _lp_norms(ders, space.p, s[1] - s[0])
    if count > HOELDER_GRID_CAP:
        vals = _uniform_reads(r, nodes, values, derivs, HOELDER_GRID_CAP,
                              False)[1]
    if level is None:
        return _hoelder_norms(vals, space.a, r, sup)
    return _hoelder_norms(vals, space.a, r, np.maximum(sup, level), level)


def sup_norm(seg: Segment, refine: int = DEFAULT_REFINE) -> float:
    """Max Euclidean norm of x over the refined grid (nodes included)."""
    return space_norm(seg, SpaceSpec.sup(), refine)


def lp_deriv_norm(seg: Segment, p: float, refine: int = DEFAULT_REFINE) -> float:
    """L^p norm of the interpolant derivative; p = inf gives the max."""
    p = float(p)
    if not p > 1.0:
        raise ParameterError("derivative exponent must satisfy p > 1")
    s, _, ders = _uniform_reads(seg.delay_r, seg.nodes, seg.values,
                                seg.derivs, _refined_count(seg.n_nodes, refine),
                                True, value=False)
    return float(_lp_norms(ders[None], p, s[1] - s[0])[0])


def hoelder_seminorm(seg: Segment, a: float,
                     refine: int = DEFAULT_REFINE) -> float:
    """Max of |x(t) - x(s)| / |t - s|^a over sample pairs.

    Pairs come from the refined grid, capped at HOELDER_GRID_CAP uniformly
    spaced samples, so the result is a lower approximation of the
    continuum seminorm.  It is the batch of one of the stacked kernel
    behind space_norm, with floor 0.
    """
    a = float(a)
    if not (0.0 < a <= 1.0):
        raise ParameterError("hoelder exponent must lie in (0, 1]")
    count = min(_refined_count(seg.n_nodes, refine), HOELDER_GRID_CAP)
    _, vals, _ = _uniform_reads(seg.delay_r, seg.nodes, seg.values,
                                seg.derivs, count, False)
    return float(_hoelder_norms(vals[None], a, seg.delay_r, 0.0)[0])


def space_norm(seg: Segment, space: SpaceSpec, refine: int = DEFAULT_REFINE) -> float:
    """Norm of the segment in the given space: the batch of one of the
    stacked norms of x_t that the checkers' norm tracks take (_norms)."""
    return float(_norms(seg.delay_r, seg.nodes, seg.values[None],
                        seg.derivs[None], space, refine)[0])


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
        new_vals[old_side], new_ders[old_side] = seg._reads(q, True)
    lin = ~old_side
    if np.any(lin):
        new_vals[lin] = seg.values[-1] + shifted[lin, None] * f
        new_ders[lin] = f
    # junction convention: a node exactly at -h carries the extension slope
    at_junction = np.abs(shifted) <= _UNIFORM_RTOL * r
    if np.any(at_junction):
        new_ders[at_junction] = f
    return Segment.from_samples(r, new_vals, new_ders)
