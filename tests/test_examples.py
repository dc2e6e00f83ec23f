"""The examples import only supported, non-deprecated entry points.

Running an example trains real models and takes minutes; its top-level
imports take milliseconds and are where a deprecated shim would be
picked up, so those are what runs here, with ``DeprecationWarning``
raised as an error.
"""

import ast
import warnings
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples")
                  .glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_top_level_imports_are_not_deprecated(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = ast.Module(
        body=[node for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))],
        type_ignores=[])
    assert imports.body, f"{path.name} has no top-level imports"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        exec(compile(imports, str(path), "exec"), {})
