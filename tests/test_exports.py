"""Every ``repro`` module imports, and every ``__all__`` entry resolves.

A deleted or renamed name that an export list still carries would only
fail at ``from repro.x import *`` or at a user's import; this test fails
first.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def _module_names() -> "list[str]":
    return ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]


def test_every_module_imports_and_exports_resolve():
    names = _module_names()
    missing = []
    for name in names:
        module = importlib.import_module(name)
        for exported in getattr(module, "__all__", ()):
            if not hasattr(module, exported):
                missing.append(f"{name}.{exported}")
    assert missing == []
    # The walk must have reached the subpackages, not just the root.
    assert {"repro.switch", "repro.workloads", "repro.matching.kernels"} <= set(names)
