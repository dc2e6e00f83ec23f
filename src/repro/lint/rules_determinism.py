"""Determinism rules.

The accuracy comparisons in the paper (same model, different
distribution strategies) are only meaningful if a run is a pure
function of its seed.  These rules flag the ways hidden entropy leaks
into library code.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .astutils import call_name, is_numpy_alias
from .registry import Rule, register


@register
class UnseededRngRule(Rule):
    """R001: unseeded numpy RNG construction / legacy global RNG.

    Flags ``np.random.default_rng()`` and the bit generators
    (``PCG64``, ``MT19937``, ``Philox``, ``SFC64``, ``SeedSequence``)
    called with no seed or a literal ``None`` one — each draws fresh OS
    entropy, so callers must thread an explicit generator (or go
    through :func:`repro.rng.ensure_rng`, which supplies a lint-visible
    default seed) — and *any* call into the legacy global
    ``np.random.*`` namespace (``np.random.seed``, ``np.random.rand``,
    ...), whose process-wide hidden state defeats per-worker seeding.
    """

    rule_id = "R001"
    name = "unseeded-rng"
    description = ("np.random.default_rng() or a bit generator without a "
                   "seed, or a legacy global np.random.* call")

    # Constructors that draw OS entropy unless given a seed.
    _CONSTRUCTORS = {"default_rng", "PCG64", "MT19937", "Philox", "SFC64",
                     "SeedSequence"}

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            in_np_random = (len(parts) >= 3 and is_numpy_alias(parts[0])
                            and parts[1] == "random")
            ctor = parts[-1] if len(parts) == 1 or (
                in_np_random and len(parts) == 3) else None
            if ctor in self._CONSTRUCTORS:
                if not _has_seed(node):
                    findings.append(Finding(
                        rule_id=self.rule_id, path=modpath,
                        line=node.lineno, col=node.col_offset,
                        message=(f"{name}() without a seed draws OS "
                                 "entropy: thread an explicit rng or use "
                                 "repro.rng.ensure_rng")))
            elif (in_np_random and parts[2] != "Generator"
                  and parts[2] not in self._CONSTRUCTORS):
                findings.append(Finding(
                    rule_id=self.rule_id, path=modpath,
                    line=node.lineno, col=node.col_offset,
                    message=(f"global numpy RNG call {name}(): use an "
                             "explicit np.random.Generator instead")))
        return findings


def _has_seed(node: ast.Call) -> bool:
    """Whether a generator-constructor call passes a seed.

    The seed is the first positional argument or a ``seed=`` /
    ``entropy=`` (``SeedSequence``) / ``key=`` (``Philox``) keyword.  A
    literal ``None`` counts as no seed: numpy then draws OS entropy.
    """
    seed = node.args[0] if node.args else next(
        (kw.value for kw in node.keywords
         if kw.arg in ("seed", "entropy", "key")), None)
    return seed is not None and not (isinstance(seed, ast.Constant)
                                     and seed.value is None)


@register
class WallClockRule(Rule):
    """R102: wall-clock reads in library code.

    ``time.time()`` (and friends) makes results depend on when a run
    happens; simulated time lives in
    :mod:`repro.distributed.timeline`.  Duration measurement with
    ``time.perf_counter()``/``time.monotonic()`` is allowed — elapsed
    timings are reported, never fed back into training decisions.
    """

    rule_id = "R102"
    name = "wall-clock"
    description = "time.time()/datetime.now() in library code"

    _BANNED = {
        "time.time", "time.time_ns", "datetime.datetime.now",
        "datetime.datetime.utcnow", "datetime.date.today",
    }

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in self._BANNED:
                    findings.append(Finding(
                        rule_id=self.rule_id, path=modpath,
                        line=node.lineno, col=node.col_offset,
                        message=(f"{name}() in library code: results must "
                                 "not depend on wall-clock time")))
        return findings


@register
class StdlibRandomRule(Rule):
    """R103: the stdlib ``random`` module in library code.

    Its global Mersenne state is invisible to the numpy seeding
    discipline the trainers rely on.
    """

    rule_id = "R103"
    name = "stdlib-random"
    description = "import or use of the stdlib random module"

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        findings.append(Finding(
                            rule_id=self.rule_id, path=modpath,
                            line=node.lineno, col=node.col_offset,
                            message=("stdlib random imported: use "
                                     "np.random.Generator")))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(Finding(
                        rule_id=self.rule_id, path=modpath,
                        line=node.lineno, col=node.col_offset,
                        message=("stdlib random imported: use "
                                 "np.random.Generator")))
        return findings
