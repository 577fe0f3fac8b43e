"""The package namespace exports exactly the public names it imports, and
its sources integrate histories along one path."""

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
    """Ensembles integrate only in checkers._ensemble; the serial
    simulate is left to the single runs that need it."""
    assert _callers("simulate_many") == {("checkers", "_ensemble"),
                                         ("dde", "simulate")}
    assert _callers("simulate") == {("lyapunov", "dini_derivative"),
                                    ("cli", "cmd_simulate")}
