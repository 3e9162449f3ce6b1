"""The package's public surface: `__all__` is read from one table of names by
defining module, and each name loads from that module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import youbounds

SUBMODULES = ("analytic", "harness", "special", "stein", "trees")


def test_all_names_resolve_once():
    assert len(youbounds.__all__) == len(set(youbounds.__all__))
    for name in youbounds.__all__:
        assert hasattr(youbounds, name), name


def test_all_lists_every_public_import():
    # the table lists each name once (the name -> module map would hide a
    # repeat), and __all__ is the table plus the version
    listed = [name for names in youbounds._PUBLIC.values() for name in names]
    assert listed
    assert len(listed) == len(set(listed))
    assert youbounds.__all__ == [*listed, "__version__"]


def test_each_name_is_its_modules_object():
    for module, names in youbounds._PUBLIC.items():
        defining = importlib.import_module(f"youbounds.{module}")
        for name in names:
            assert getattr(youbounds, name) is getattr(defining, name), name


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(youbounds, "no_such_name")


def test_bare_import_loads_on_first_use():
    # a fresh interpreter: this process has imported every submodule already
    src = str(Path(youbounds.__file__).resolve().parents[1])
    code = ("import sys, youbounds\n"
            "print(sorted(m for m in sys.modules if m.startswith('youbounds')))\n"
            "print(set(youbounds.__all__) <= set(dir(youbounds)))\n"
            f"print([getattr(youbounds, m).__name__ for m in {SUBMODULES!r}])\n"
            "print(all(hasattr(youbounds, name) for name in youbounds.__all__))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "['youbounds']", "True", str([f"youbounds.{m}" for m in SUBMODULES]), "True"]
