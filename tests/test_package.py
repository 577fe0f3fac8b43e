"""The package namespace exports exactly the public names it imports, and
its sources integrate histories along one path and take norm tracks from
stacked segment reads."""

import ast
import inspect
from pathlib import Path

import delaystab


def test_all_lists_every_public_import():
    public = {name for name, value in vars(delaystab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(delaystab.__all__) == public | {"__version__"}
    assert len(delaystab.__all__) == len(set(delaystab.__all__))


def _callers(name: str) -> set:
    """(module, top-level function) pairs whose code calls `name` in the
    package sources, by bare name or as an attribute."""
    found = set()
    for path in sorted(Path(delaystab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    found.add((path.stem, where))
    return found


def test_every_integration_goes_through_one_path():
    """Ensembles integrate only in checkers._ensemble, Dini ladders
    included; the serial simulate is left to the single run of the CLI.
    The one solution record, whole or in pieces, is built only where
    the integrator hands its rows on."""
    assert _callers("simulate_many") == {("checkers", "_ensemble"),
                                         ("dde", "simulate")}
    assert _callers("simulate") == {("cli", "cmd_simulate")}
    assert _callers("Trajectory") == {("dde", "simulate_many")}


def _referrers(name: str) -> set:
    """(module, top-level function) pairs whose code names `name` as a
    value, called or passed on."""
    found = set()
    for path in sorted(Path(delaystab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            if any(isinstance(node, ast.Name) and node.id == name
                   for node in ast.walk(top)):
                found.add((path.stem, where))
    return found


def test_norm_tracks_read_stacked_segments():
    """Norm and functional tracks, pair distances and Dini ladders read
    the segments x_t of many times as one stack (dde._segment_nodes)
    through the one track primitive, and tracks and pair distances take
    their norms across it (segment._norms); the per-segment segment_at
    and space_norm are left to single segments, of which they are the
    batches of one."""
    assert _callers("_segment_nodes") == {("dde", "segment_at"),
                                          ("checkers", "_segment_stacks")}
    # every track that is no window max reads chunks of stacked segments:
    # the reads of an ensemble, piece by piece, and whole trajectories
    assert _callers("_segment_stacks") == {("checkers", "_track")}
    assert _callers("_track") == {("checkers", "_Read")}
    # space_norm is the batch of one of _norms, and a segment keeps no
    # read of its own for a second path to norm
    assert _callers("_norms") == {("checkers", "verify_pair_bounds"),
                                  ("segment", "space_norm")}
    assert not hasattr(delaystab.segment, "_read_norms")
    # norm reads and space-norm functionals hand _norms to the track
    assert _referrers("_norms") - _callers("_norms") == {
        ("checkers", "_norm_read"), ("lyapunov", "_stacked")}
    # no track reads its segments one time at a time
    assert _callers("segment_at") == {("cli", "cmd_simulate")}
    assert _callers("space_norm") == {
        ("checkers", "verify_pair_bounds"),  # the initial distance only
        ("cli", "cmd_norms"), ("cli", "cmd_simulate"),
        ("lyapunov", "check_exponential_certificate"),
        ("lyapunov", "check_pointwise_dissipation"),
        ("lyapunov", "functional_lipschitz_probe"),
        ("lyapunov", "space_norm_functional"),
        ("sampler", "sample_one")}


def test_one_hoelder_kernel():
    """The Hoelder seminorm has one kernel, the pruned lag sweep, which
    the stacked norms and the per-segment seminorm share; the full lag
    profile it replaced is gone."""
    assert _callers("_hoelder_norms") == {("segment", "_norms"),
                                          ("segment", "hoelder_seminorm")}
    assert _callers("_lag_profiles") == set()
    assert not hasattr(delaystab.segment, "_lag_profiles")
