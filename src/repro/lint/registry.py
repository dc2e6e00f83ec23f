"""Rule base class and registry.

A rule owns an id (``R001``), a short name, a description, and a
``check`` that yields :class:`~repro.lint.engine.Finding` objects for
one parsed module — or, for a whole-program rule (F202), a
``check_project`` that sees every module at once.  Rules register
themselves with :func:`register` at import time; the engine
instantiates every registered rule unless a ``--select`` subset is
given.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Mapping, Type

_REGISTRY: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the global registry."""
    rule_id = cls.rule_id
    if not rule_id or rule_id in _REGISTRY:
        raise ValueError(f"duplicate or empty rule id: {rule_id!r}")
    _REGISTRY[rule_id] = cls
    return cls


def all_rules() -> List["Rule"]:
    """Fresh instances of every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> "Rule":
    """Fresh instance of one registered rule, by id."""
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}") from None


def _load_builtin_rules() -> None:
    # Deferred so `registry` can be imported without dragging in every
    # rule module (and to avoid circular imports at package init).
    from . import (  # noqa: F401
        rules_api,
        rules_autograd,
        rules_concurrency,
        rules_determinism,
        rules_docs,
        rules_hygiene,
        rules_locality,
        rules_partition,
        rules_persistence,
        rules_robustness,
        rules_streaming,
    )


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``applies_to`` gates the rule by module path (posix-style, rooted at
    the ``repro`` package, e.g. ``repro/distributed/views.py``); the
    default is every module.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, modpath: str) -> bool:
        """Whether this rule runs on the module at ``modpath``."""
        return True

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def check_project(self, trees: Mapping[str, ast.AST]) -> Iterable:
        """Yield findings for every module (``{modpath: tree}``).

        Per-file rules keep this default, which runs :meth:`check` on
        each module :meth:`applies_to` admits; a whole-program rule
        overrides it instead.
        """
        for modpath, tree in trees.items():
            if self.applies_to(modpath):
                yield from self.check(tree, modpath)
