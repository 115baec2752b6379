"""Determinism rules: all randomness through ``repro.stats.rng``, all
wall-clock reads through ``repro.clock``, no hash-order-sensitive
iteration.

The fingerprint harness (``tests/harness.py``) pins that every sampler,
backend, batch size, worker count and serving interleaving produces
bit-identical results.  That guarantee dies the moment an execution-path
module draws from an ambient RNG, reads the wall clock, or iterates a
``set`` (whose order depends on ``PYTHONHASHSEED`` for str keys).  These
rules mechanically enforce the conventions in the packages on the
execution path: ``core``, ``engine``, ``oracle``, ``serve``,
plus the top-level ``repro`` modules.

Three rule ids (suppressible independently):

* ``ambient-rng`` — ``np.random.*`` (except type references),
  ``random`` module imports, and argless ``RandomState()`` (which seeds
  from OS entropy);
* ``wall-clock`` — references to ``time.time`` / ``monotonic`` /
  ``perf_counter`` / ``sleep`` (and friends) or naive ``datetime.now``
  anywhere outside the one allowlisted seam module, ``src/repro/clock.py``;
* ``unordered-iteration`` — iterating (or materializing into an ordered
  container) a ``set`` expression directly; wrap in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from repro.analysis.linter import FileContext, Finding, Rule

__all__ = ["CHECKED_PACKAGES", "WALL_CLOCK_ALLOWLIST", "DeterminismRule"]

#: Sub-packages of ``src/repro`` on the deterministic execution path.
CHECKED_PACKAGES = ("core", "engine", "oracle", "serve")

#: The single module allowed to read the wall clock (the Clock seam).
WALL_CLOCK_ALLOWLIST = ("src/repro/clock.py",)

_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "sleep",
}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
# np.random attributes that are type/infrastructure references, not draws.
_NP_RANDOM_TYPES = {"SeedSequence", "Generator", "BitGenerator"}


def _in_scope(ctx: FileContext) -> bool:
    parts = ctx.package_parts
    if len(parts) < 3 or parts[0] != "src" or parts[1] != "repro":
        return False
    if len(parts) == 3:  # top-level repro module (repro/__init__.py, clock.py)
        return True
    return parts[2] in CHECKED_PACKAGES


class _Aliases:
    """Import aliases relevant to the checks, collected per file."""

    def __init__(self, tree: ast.Module):
        self.numpy: Set[str] = set()
        self.np_random: Set[str] = set()
        self.time_mod: Set[str] = set()
        self.datetime_mod: Set[str] = set()
        self.datetime_types: Set[str] = set()
        # Directly imported flagged callables: local name -> qualified name.
        self.time_names: Dict[str, str] = {}
        self.random_imports: List[ast.stmt] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name in ("numpy", "numpy.random"):
                        if alias.name == "numpy.random" and alias.asname:
                            self.np_random.add(local)
                        else:
                            self.numpy.add(local)
                    elif alias.name == "time":
                        self.time_mod.add(local)
                    elif alias.name == "datetime":
                        self.datetime_mod.add(local)
                    elif alias.name == "random" or alias.name.startswith("random."):
                        self.random_imports.append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    self.random_imports.append(node)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.np_random.add(alias.asname or "random")
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_ATTRS:
                            local = alias.asname or alias.name
                            self.time_names[local] = f"time.{alias.name}"
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_types.add(alias.asname or alias.name)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "ambient RNG, wall-clock reads and hash-order iteration on the "
        "deterministic execution path"
    )
    # The ids actually attached to findings (one rule class, three ids,
    # so suppressions can target exactly one hazard).
    ids = ("ambient-rng", "wall-clock", "unordered-iteration")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx):
            return []
        aliases = _Aliases(ctx.tree)
        findings: List[Finding] = []
        wall_clock_ok = ctx.rel in WALL_CLOCK_ALLOWLIST

        def report(rule: str, node: ast.AST, message: str, suggestion: str):
            findings.append(
                Finding(
                    rule=rule,
                    path=ctx.rel,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                    suggestion=suggestion,
                )
            )

        for node in aliases.random_imports:
            report(
                "ambient-rng",
                node,
                "import of the ambient `random` module; all randomness must "
                "flow through repro.stats.rng",
                "draw from a repro.stats.rng.RandomState threaded from the caller",
            )

        for node in ast.walk(ctx.tree):
            # -- ambient numpy RNG ------------------------------------------------
            if isinstance(node, ast.Attribute):
                value = node.value
                # np.random.<attr>
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in aliases.numpy
                ) or (
                    isinstance(value, ast.Name) and value.id in aliases.np_random
                ):
                    if node.attr not in _NP_RANDOM_TYPES:
                        report(
                            "ambient-rng",
                            node,
                            f"reference to ambient numpy RNG `np.random.{node.attr}`",
                            "thread a repro.stats.rng.RandomState through instead "
                            "of touching the global numpy generator",
                        )
                # time.<attr> on the time module
                if (
                    isinstance(value, ast.Name)
                    and value.id in aliases.time_mod
                    and node.attr in _TIME_ATTRS
                    and not wall_clock_ok
                ):
                    report(
                        "wall-clock",
                        node,
                        f"wall-clock reference `time.{node.attr}` outside the "
                        "repro.clock seam",
                        "accept an injectable clock/sleep defaulting to "
                        "repro.clock.monotonic / repro.clock.sleep",
                    )
                # datetime.datetime.now / datetime.now / date.today ...
                if node.attr in _DATETIME_ATTRS and not wall_clock_ok:
                    value_name = None
                    if isinstance(value, ast.Name):
                        value_name = value.id
                    elif isinstance(value, ast.Attribute) and isinstance(
                        value.value, ast.Name
                    ):
                        if value.value.id in aliases.datetime_mod:
                            value_name = value.attr
                    if value_name in aliases.datetime_types or (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id in aliases.datetime_mod
                    ):
                        report(
                            "wall-clock",
                            node,
                            f"wall-clock reference `datetime.{node.attr}` outside "
                            "the repro.clock seam",
                            "inject a Clock (repro.clock) instead of reading "
                            "calendar time",
                        )
            # from time import monotonic → bare-name references
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                qual = aliases.time_names.get(node.id)
                if qual is not None and not wall_clock_ok:
                    report(
                        "wall-clock",
                        node,
                        f"wall-clock reference `{qual}` outside the repro.clock seam",
                        "accept an injectable clock/sleep defaulting to "
                        "repro.clock.monotonic / repro.clock.sleep",
                    )
            # -- argless RandomState() -------------------------------------------
            if isinstance(node, ast.Call) and not node.args and not node.keywords:
                func = node.func
                callee = None
                if isinstance(func, ast.Name):
                    callee = func.id
                elif isinstance(func, ast.Attribute):
                    callee = func.attr
                if callee == "RandomState":
                    report(
                        "ambient-rng",
                        node,
                        "argless RandomState() seeds from OS entropy and is "
                        "nondeterministic",
                        "pass an explicit seed or a parent RandomState",
                    )
            # -- set iteration ----------------------------------------------------
            iter_exprs: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_exprs.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iter_exprs.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "tuple", "iter", "enumerate") and node.args:
                    iter_exprs.append(node.args[0])
            for expr in iter_exprs:
                if _is_set_expr(expr):
                    report(
                        "unordered-iteration",
                        expr,
                        "iteration over a set is hash-order dependent "
                        "(PYTHONHASHSEED-sensitive for str keys)",
                        "wrap the set in sorted(...) to fix the order",
                    )
        return findings
