"""The package namespace exports exactly the public names it imports."""

import inspect

import delaystab


def test_all_lists_every_public_import():
    public = {name for name, value in vars(delaystab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(delaystab.__all__) == public | {"__version__"}
    assert len(delaystab.__all__) == len(set(delaystab.__all__))
