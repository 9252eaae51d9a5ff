"""Every name a package's ``__all__`` exports must exist.

Ruff ignores F401 in ``__init__`` files, so a stale entry left behind by
a deletion would otherwise surface only as an ``AttributeError`` on
``from repro.<pkg> import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    package = importlib.import_module(name)
    missing = [n for n in package.__all__ if not hasattr(package, n)]
    assert missing == []
