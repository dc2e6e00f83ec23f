"""Concurrency rule: worker-executed code must not race on module state.

The thread and process backends run worker code concurrently.  A
module-level mutable global written from that code is shared by every
thread (and silently diverges per forked child), so its contents — and
anything derived from them — depend on scheduling.  Which code runs on
a worker is a whole-program question, so F202 is the one rule that
reads every module at once: it builds the project's call graph
(:mod:`repro.lint.callgraph`), takes every function handed to
``pool.submit``/``map``, ``Thread(target=)`` or ``Process(target=)`` as
a worker root, and checks every function reachable from one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from .astutils import call_name, dotted_name
from .callgraph import CallGraph, ModuleInfo, ProjectIndex
from .registry import Rule, register

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "add", "update", "extend", "insert", "pop", "popitem",
    "setdefault", "remove", "discard", "clear", "appendleft",
    "extendleft", "popleft", "sort", "reverse",
}

#: Lock-ish names: a ``with <lock>:`` block counts as synchronization.
_LOCK_HINTS = ("lock", "mutex", "guard", "sem", "cond")


@register
class WorkerSharedStateRaceRule(Rule):
    """F202: worker-executed code writes a module-level mutable global.

    Covers ``global`` rebinds, container mutation (``CACHE.append``,
    ``CACHE[k] = v``, ``del CACHE[k]``, ``CACHE += ...``) and mutation
    of globals imported from sibling modules.  A write lexically inside
    ``with <lock-ish>:`` (a name containing ``lock``/``mutex``/
    ``guard``/``sem``/``cond``) passes.
    """

    rule_id = "F202"
    name = "worker-shared-state-race"
    description = ("worker-executed code writes a module-level mutable "
                   "global without synchronization")

    def check_project(self, trees: Dict[str, ast.Module]) -> Iterable:
        """Yield findings for the whole project at once."""
        from .engine import Finding

        index = ProjectIndex(trees)
        reachable, why = CallGraph(index).worker_reachable()
        findings: List[Finding] = []
        for qname in sorted(reachable):
            info = index.functions.get(qname)
            if info is None:
                continue
            mod = index.module_of(info)
            root = why.get(qname, qname)
            synced = _synchronized_nodes(info.node)
            declared_global = {
                name for node in ast.walk(info.node)
                if isinstance(node, ast.Global) for name in node.names}
            for node in ast.walk(info.node):
                target_name, verb = _global_write(node, mod,
                                                  declared_global, index)
                if target_name is None or id(node) in synced:
                    continue
                findings.append(Finding(
                    rule_id=self.rule_id, path=info.modpath,
                    line=node.lineno, col=node.col_offset,
                    message=(f"{info.name}() is worker-executed (reachable "
                             f"from {root.rsplit('.', 1)[-1]}) and {verb} "
                             f"module-level state {target_name!r} without "
                             "synchronization; keep worker state "
                             "worker-local or guard it with a lock")))
        return findings


def _global_write(node: ast.AST, mod: ModuleInfo,
                  declared_global: Set[str], index: ProjectIndex):
    """Classify one AST node as a module-global write, if it is one.

    Returns ``(name, verb)`` or ``(None, None)``.  Covers rebinding
    through a ``global`` declaration, in-place container mutation
    (``CACHE.append(...)``, ``CACHE[k] = v``, ``del CACHE[k]``,
    ``CACHE += ...``) and attribute stores on module-level containers.
    Names imported from sibling modules resolve through the import
    table, so mutating another module's global is caught too.
    """

    def is_module_global(name: str) -> bool:
        if name in mod.mutable_globals:
            return True
        target = mod.imports.get(name)
        if target and "." in target:
            owner, bare = target.rsplit(".", 1)
            owner_mod = index.modules.get(owner)
            return (owner_mod is not None
                    and bare in owner_mod.mutable_globals)
        return False

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in declared_global:
                    return target.id, "rebinds"
                if (isinstance(node, ast.AugAssign)
                        and is_module_global(target.id)):
                    return target.id, "mutates"
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = target.value
                if isinstance(base, ast.Name) and (
                        is_module_global(base.id)
                        or base.id in declared_global):
                    return base.id, "writes into"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and \
                    isinstance(target.value, ast.Name) and \
                    is_module_global(target.value.id):
                return target.value.id, "deletes from"
    elif isinstance(node, ast.Call) and isinstance(node.func,
                                                   ast.Attribute):
        base = node.func.value
        if (node.func.attr in _MUTATING_METHODS
                and isinstance(base, ast.Name)
                and is_module_global(base.id)):
            return base.id, f"mutates (.{node.func.attr})"
    return None, None


def _synchronized_nodes(func_node) -> Set[int]:
    """ids of AST nodes lexically inside a ``with <lock-ish>:`` block."""
    out: Set[int] = set()
    for node in ast.walk(func_node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        guarded = False
        for item in node.items:
            expr = item.context_expr
            name: Optional[str] = (call_name(expr)
                                   if isinstance(expr, ast.Call)
                                   else dotted_name(expr))
            lowered = (name or "").lower()
            if any(hint in lowered for hint in _LOCK_HINTS):
                guarded = True
        if guarded:
            for stmt in node.body:
                out.update(id(sub) for sub in ast.walk(stmt))
    return out
