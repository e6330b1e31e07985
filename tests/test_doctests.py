import doctest
import importlib
import pkgutil

import ulamcodes


def test_every_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(ulamcodes.__path__):
        module = importlib.import_module(f"ulamcodes.{info.name}")
        results = doctest.testmod(module)
        assert results.failed == 0, info.name
        attempted += results.attempted
    assert attempted > 0
