"""The package's export list: every public name it imports, and no module."""

from __future__ import annotations

from types import ModuleType

import idstats


def test_the_export_list_names_the_public_imports_and_no_module():
    for name in idstats.__all__:
        assert hasattr(idstats, name), name
        assert not isinstance(getattr(idstats, name), ModuleType), name
    namespace: dict = {}
    exec("from idstats import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(idstats.__all__)
