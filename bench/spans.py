"""In-memory spans around delaystab's public functions, and their layer sums.

A `Tracer` wraps every public module-level function of the package's
layer modules under each name a module looks it up by (for example
`delaystab.checkers.simulate` as well as `delaystab.dde.simulate`), so
calls across and within layers open a span.  Nothing is hard-coded per
function except the counters in `COUNTERS`; a name a module no longer
has is simply not wrapped.

A span is (name, start, end, parent, run id, info).  `summarize` turns
a span list into self times, call counts and work counters:

- a span's self time is its duration minus the part of it covered by
  its child spans;
- a layer's self time is the sum of the self times of its spans;
- a function's in-layer time is the time spent in its own layer during
  its outermost calls: self time plus that of same-layer callees.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "delaystab"
LAYERS = ("segment", "sampler", "dde", "checkers", "lyapunov", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run_id,
                self.info]


# -- counters taken from arguments and return values -------------------


def _simulate_info(bound: inspect.BoundArguments, traj) -> dict:
    x0 = bound.arguments["x0"]
    key = hashlib.blake2b(digest_size=16)
    for arr in (x0.nodes, x0.values, x0.derivs):
        key.update(arr.tobytes())
    key.update(repr((bound.arguments.get("T"),
                     bound.arguments.get("h"))).encode())
    return {"steps": int(traj.times.size - traj.forward_start - 1),
            "escaped": bool(traj.escaped), "key": key.hexdigest()}


def _space_norm_info(bound: inspect.BoundArguments, result) -> dict:
    return {"kind": str(bound.arguments["space"].kind)}


COUNTERS = {"dde.simulate": _simulate_info,
            "segment.space_norm": _space_norm_info}


class Tracer:
    """Installs span-recording wrappers on delaystab and removes them."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.run_id = ""
        self._clock = clock
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str):
        """Return `fn` wrapped so each call records a span named `name`."""
        spans, stack, clock = self.spans, self._stack, self._clock
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None,
                        self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = counter(bound, result)
                except (TypeError, KeyError, AttributeError):
                    span.info = None
            return result

        return wrapper

    def install(self) -> int:
        """Wrap delaystab's public functions; returns the names patched."""
        targets = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    targets[obj] = self.wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, attr, targets[obj])
                    self._patched.append((mod, attr, obj))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


# -- accounting ---------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the part its children cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


def summarize(spans: list[Span]) -> dict:
    """Self times, in-layer times, call counts and work counters."""
    own = self_times(spans)
    inlayer = list(own)
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i].parent
        if p is not None and spans[p].layer == spans[i].layer:
            inlayer[p] += inlayer[i]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fn: dict[str, dict] = {}
    kinds: dict[str, dict] = {}
    sim = {"steps": 0, "escapes": 0, "keys": set(), "counted": 0}
    for i, s in enumerate(spans):
        layer_self[s.layer] += own[i]
        row = fn.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        outermost = True
        p = s.parent
        while p is not None:
            if spans[p].name == s.name:
                outermost = False
                break
            p = spans[p].parent
        if outermost:
            row["self_s"] += inlayer[i]
        if s.info is None:
            continue
        if s.name == "segment.space_norm":
            k = kinds.setdefault(s.info["kind"], {"calls": 0, "self_s": 0.0})
            k["calls"] += 1
            if outermost:
                k["self_s"] += inlayer[i]
        elif s.name == "dde.simulate":
            sim["steps"] += s.info["steps"]
            sim["escapes"] += int(s.info["escaped"])
            sim["keys"].add((s.run_id, s.info["key"]))
            sim["counted"] += 1
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    return {"total_s": roots, "layer_self_s": layer_self, "functions": fn,
            "space_norm_kinds": kinds,
            "simulate": {"steps": sim["steps"], "escapes": sim["escapes"],
                         "distinct": len(sim["keys"]),
                         "counted": sim["counted"]}}
