"""The docstring examples of every braidkit module run as part of the suite."""

import doctest
import importlib
import pkgutil

import braidkit


def test_every_docstring_example_passes():
    failed = attempted = 0
    for info in pkgutil.iter_modules(braidkit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"braidkit.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 10
