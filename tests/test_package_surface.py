"""The package surface the README promises is the one that exists.

README's module table names one ``repro.*`` row per package under
``src/repro/``, and every name a package exports in ``__all__``
resolves, so a deleted package cannot linger in the docs or in an
export list.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = sorted(p.parent.name for p in
                  (ROOT / "src" / "repro").glob("*/__init__.py"))


def _readme_table_modules():
    """The ``repro.*`` names in the first column of README's module
    table."""
    rows = re.findall(r"^\| `repro\.(\w+)` \|",
                      (ROOT / "README.md").read_text(encoding="utf-8"),
                      flags=re.MULTILINE)
    assert len(rows) == len(set(rows)), "a package has two rows"
    return sorted(rows)


def test_readme_module_table_lists_every_package():
    assert _readme_table_modules() == PACKAGES


@pytest.mark.parametrize("name", ["repro"] + [f"repro.{p}" for p in
                                               PACKAGES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
