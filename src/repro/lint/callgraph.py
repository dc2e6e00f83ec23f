"""Project-wide symbol table and static call graph (what F202 reads).

:class:`ProjectIndex` parses nothing itself: it indexes already-parsed
modules and records what is needed to resolve names across files — the
functions and classes each module defines, what its imports bind, and
which module-level names are mutable containers (the shared state F202
polices).

:class:`CallGraph` resolves calls over that index.  Resolution is
deliberately *over-approximate* where Python's dynamism defeats precise
typing: a ``receiver.method(...)`` call whose receiver class is unknown
links to **every** project method of that name.  For F202's worker cone
an over-approximation is the sound direction — a spurious edge can at
worst surface a finding for a human to triage; a missing edge would
silently un-check real worker code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .astutils import call_name

#: Call names whose result is a mutable container (module-global
#: classification).
_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "collections.defaultdict", "collections.OrderedDict", "deque",
    "collections.deque",
}

#: Methods that execute their function argument on another thread or
#: process — the roots of the worker cone.
_SUBMIT_METHODS = {"submit", "map", "apply_async", "starmap"}
_SPAWN_CALLS = {"Thread", "Process"}


def modname_of(modpath: str) -> str:
    """Dotted module name for a repo-rooted posix path.

    ``repro/distributed/backends.py`` → ``repro.distributed.backends``;
    package ``__init__`` files name the package itself.
    """
    name = modpath[:-3] if modpath.endswith(".py") else modpath
    parts = [p for p in name.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition, with resolution context."""

    qname: str                      # "pkg.mod.fn" / "pkg.mod.Cls.fn"
    modpath: str
    modname: str
    node: ast.AST                   # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None       # enclosing class name, if a method

    @property
    def name(self) -> str:
        """Bare function name."""
        return self.node.name


@dataclass
class ClassInfo:
    """One class definition and its methods."""

    qname: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module and its top-level bindings."""

    modpath: str
    modname: str
    #: alias → fully dotted target ("np" → "numpy",
    #: "ensure_rng" → "repro.rng.ensure_rng").
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level names bound to mutable containers (list/dict/set
    #: literals or constructor calls) — candidate shared state.
    mutable_globals: Dict[str, int] = field(default_factory=dict)


def _resolve_relative(modname: str, target: Optional[str],
                      level: int) -> str:
    """Resolve a ``from ... import`` module spec to a dotted name."""
    if level == 0:
        return target or ""
    parts = modname.split(".")
    # A module's package is its own prefix; ``from . import x`` inside
    # ``repro.lint.engine`` refers to ``repro.lint``.
    base = parts[:-level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class ProjectIndex:
    """Every module of the project, indexed once and cross-linked."""

    def __init__(self, trees: Dict[str, ast.Module]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Fully qualified function name → info (methods included).
        self.functions: Dict[str, FunctionInfo] = {}
        #: Method name → every FunctionInfo with that name (duck-typed
        #: attribute-call resolution for the call graph).
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for modpath in sorted(trees):
            mod = ModuleInfo(modpath=modpath, modname=modname_of(modpath))
            self.modules[mod.modname] = mod
            for stmt in trees[modpath].body:
                self._index_toplevel(mod, stmt)

    # -- construction ---------------------------------------------------

    def _index_toplevel(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(stmt, ast.ImportFrom):
            base = _resolve_relative(mod.modname, stmt.module, stmt.level)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                mod.imports[alias.asname or alias.name] = \
                    f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(mod, stmt, cls=None)
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(mod, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            value = stmt.value
            if value is not None and _is_mutable_value(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        mod.mutable_globals[target.id] = stmt.lineno
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditionally defined top-level bindings (version gates).
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._index_toplevel(mod, sub)

    def _index_function(self, mod: ModuleInfo, node,
                        cls: Optional[str]) -> FunctionInfo:
        local = f"{cls}.{node.name}" if cls else node.name
        qname = f"{mod.modname}.{local}"
        info = FunctionInfo(qname=qname, modpath=mod.modpath,
                            modname=mod.modname, node=node, cls=cls)
        mod.functions[local] = info
        self.functions[qname] = info
        self.methods_by_name.setdefault(node.name, []).append(info)
        return info

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{mod.modname}.{node.name}"
        cinfo = ClassInfo(qname=qname,
                          bases=[b for b in map(_base_name, node.bases)
                                 if b])
        mod.classes[node.name] = cinfo
        self.classes[qname] = cinfo
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cinfo.methods[stmt.name] = self._index_function(
                    mod, stmt, cls=node.name)

    # -- lookups --------------------------------------------------------

    def module_of(self, info: FunctionInfo) -> ModuleInfo:
        """The :class:`ModuleInfo` a function was defined in."""
        return self.modules[info.modname]

    def resolve_name(self, mod: ModuleInfo, name: str
                     ) -> Optional[FunctionInfo]:
        """Resolve a bare ``Name`` call in ``mod`` to a project function.

        Checks module-level functions first, then imported names
        (``from repro.rng import ensure_rng`` style).
        """
        if name in mod.functions:
            return mod.functions[name]
        target = mod.imports.get(name)
        if target and target in self.functions:
            return self.functions[target]
        # ``from .mod import Cls`` followed by ``Cls(...)``: resolve to
        # the class __init__ when one exists.
        if target and target in self.classes:
            return self.classes[target].methods.get("__init__")
        if name in mod.classes:
            return mod.classes[name].methods.get("__init__")
        return None

    def resolve_attribute(self, mod: ModuleInfo, owner: str, attr: str,
                          cls: Optional[str] = None
                          ) -> List[FunctionInfo]:
        """Candidate targets of an ``owner.attr(...)`` call.

        ``self.attr`` resolves within the enclosing class (walking
        project base classes); ``module_alias.attr`` resolves through
        the import table; anything else falls back to *every* project
        method named ``attr`` — a deliberate over-approximation that
        keeps worker-reachability sound for F202.
        """
        if owner in ("self", "cls") and cls is not None:
            found = self._resolve_method(mod, cls, attr)
            if found is not None:
                return [found]
        target = mod.imports.get(owner)
        if target is not None:
            targetmod = self.modules.get(target)
            if targetmod is not None:
                fn = targetmod.functions.get(attr)
                if fn is not None:
                    return [fn]
                if attr in targetmod.classes:
                    init = targetmod.classes[attr].methods.get("__init__")
                    return [init] if init is not None else []
                return []
        return list(self.methods_by_name.get(attr, []))

    def _resolve_method(self, mod: ModuleInfo, cls: str, attr: str
                        ) -> Optional[FunctionInfo]:
        """Look up ``attr`` on class ``cls`` and its project bases."""
        seen = set()
        queue = [(mod, cls)]
        while queue:
            cur_mod, cur_cls = queue.pop(0)
            if (cur_mod.modname, cur_cls) in seen:
                continue
            seen.add((cur_mod.modname, cur_cls))
            cinfo = cur_mod.classes.get(cur_cls)
            if cinfo is None:
                imported = cur_mod.imports.get(cur_cls)
                if imported and imported in self.classes:
                    cinfo = self.classes[imported]
                    cur_mod = self.modules[cinfo.qname.rsplit(".", 1)[0]] \
                        if cinfo.qname.rsplit(".", 1)[0] in self.modules \
                        else cur_mod
            if cinfo is None:
                continue
            if attr in cinfo.methods:
                return cinfo.methods[attr]
            for base in cinfo.bases:
                queue.append((cur_mod, base))
        return None


def _base_name(node: ast.AST) -> Optional[str]:
    """Base-class name of a ``ClassDef`` base expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_mutable_value(node: ast.AST) -> bool:
    """Whether a top-level binding's value is a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_name(node) in _MUTABLE_CALLS
    return False


class CallGraph:
    """Call edges plus the worker roots they start from."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: caller qname → ordered callee qnames (duplicates removed).
        self.edges: Dict[str, List[str]] = {}
        #: functions handed to pools/threads/processes as work items.
        self.worker_roots: List[FunctionInfo] = []
        for modname in sorted(index.modules):
            mod = index.modules[modname]
            for local in sorted(mod.functions):
                self._scan_function(mod, mod.functions[local])

    # -- construction ---------------------------------------------------

    def _scan_function(self, mod: ModuleInfo, info: FunctionInfo) -> None:
        callees = self.edges.setdefault(info.qname, [])
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self.resolve_call(mod, info, node):
                if callee.qname not in callees:
                    callees.append(callee.qname)
            self._scan_worker_root(mod, info, node)

    def _scan_worker_root(self, mod: ModuleInfo, info: FunctionInfo,
                          node: ast.Call) -> None:
        """Record functions shipped to executors / thread / process
        constructors as worker-cone roots."""
        func = node.func
        # pool.submit(fn, ...) / pool.map(fn, ...)
        if (isinstance(func, ast.Attribute)
                and func.attr in _SUBMIT_METHODS and node.args):
            for target in self._work_item_targets(mod, info, node.args[0]):
                self.worker_roots.append(target)
        # Thread(target=fn) / Process(target=fn) / ctx.Process(target=fn)
        callee_name = (func.attr if isinstance(func, ast.Attribute)
                       else func.id if isinstance(func, ast.Name) else None)
        if callee_name in _SPAWN_CALLS:
            for kw in node.keywords:
                if kw.arg == "target":
                    for target in self._work_item_targets(mod, info,
                                                         kw.value):
                        self.worker_roots.append(target)

    def _work_item_targets(self, mod: ModuleInfo, info: FunctionInfo,
                           expr: ast.AST) -> List[FunctionInfo]:
        """Resolve a function *reference* (not call) to project targets."""
        if isinstance(expr, ast.Name):
            found = self.index.resolve_name(mod, expr.id)
            return [found] if found is not None else []
        if isinstance(expr, ast.Attribute):
            owner = expr.value
            owner_name = owner.id if isinstance(owner, ast.Name) else None
            if owner_name is not None:
                return self.index.resolve_attribute(
                    mod, owner_name, expr.attr, cls=info.cls)
            return list(self.index.methods_by_name.get(expr.attr, []))
        return []

    # -- resolution -----------------------------------------------------

    def resolve_call(self, mod: ModuleInfo, info: FunctionInfo,
                     node: ast.Call) -> List[FunctionInfo]:
        """Project-function targets of one call expression."""
        func = node.func
        if isinstance(func, ast.Name):
            found = self.index.resolve_name(mod, func.id)
            return [found] if found is not None else []
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                return self.index.resolve_attribute(
                    mod, owner.id, func.attr, cls=info.cls)
            if isinstance(owner, ast.Attribute):
                # self.obj.meth / module.sub.meth: duck-typed fallback.
                return list(self.index.methods_by_name.get(func.attr, []))
        return []

    # -- queries --------------------------------------------------------

    def worker_reachable(self) -> Tuple[Set[str], Dict[str, str]]:
        """The worker cone: functions reachable from submit targets.

        Returns ``(qnames, why)`` where ``why[qname]`` names the root
        that makes the function worker-executed (for messages).
        """
        why: Dict[str, str] = {}
        seen: Set[str] = set()
        for root in self.worker_roots:
            stack = [root.qname]
            while stack:
                qname = stack.pop()
                if qname in seen:
                    continue
                seen.add(qname)
                why.setdefault(qname, root.qname)
                stack.extend(self.edges.get(qname, ()))
        return seen, why
