"""The repro-lint engine: project-specific AST invariant checking.

The repo's correctness story rests on conventions that ordinary linters
cannot see — bit-identical determinism (all randomness through
:mod:`repro.stats.rng`, all wall-clock reads through :mod:`repro.clock`),
lock discipline (``@guarded_by`` annotations, see
:mod:`repro.analysis.annotations`), and ``__all__``/docs consistency.  This module is the engine that runs the
project rules in :mod:`repro.analysis.rules` over the tree and reports
:class:`Finding`\\ s; ``scripts/lint_repro.py`` is the CLI and the CI
gate (see docs/STATIC_ANALYSIS.md for the rule catalog).

Suppression
-----------
A finding is suppressed by a comment on the flagged line::

    started = time.monotonic()  # repro-lint: disable=wall-clock

or for a whole file (anywhere in the file, conventionally the top)::

    # repro-lint: file-disable=ambient-rng

Suppressions name rule ids (comma-separated) or ``all``.  Every
suppression should carry a justification in the surrounding comment —
the lint gate reviews them like any other diff.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "Project",
    "Rule",
    "LintEngine",
    "default_rules",
    "lint_tree",
]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|file-disable)=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suggestion: Optional[str] = None

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        out = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suggestion is not None:
            out["suggestion"] = self.suggestion
        return out

    def format(self, with_suggestion: bool = False) -> str:
        text = f"{self.location}: [{self.rule}] {self.message}"
        if with_suggestion and self.suggestion:
            text += f"\n    fix: {self.suggestion}"
        return text


class FileContext:
    """One parsed source file, shared by every per-file rule."""

    def __init__(self, path: Path, root: Path):
        self.path = path
        try:
            self.rel = path.relative_to(root).as_posix()
        except ValueError:
            self.rel = path.as_posix()  # scanned path outside the root
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.line_suppressions: Dict[int, set] = {}
        self.file_suppressions: set = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            rules = {name.strip() for name in match.group(2).split(",")}
            if match.group(1) == "file-disable":
                self.file_suppressions |= rules
            else:
                self.line_suppressions.setdefault(lineno, set()).update(rules)

    def suppressed(self, finding: Finding) -> bool:
        if {finding.rule, "all"} & self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(finding.line, ())
        return finding.rule in on_line or "all" in on_line

    @property
    def package_parts(self):
        """Path parts relative to the repo root, e.g. ("src","repro","serve")."""
        return Path(self.rel).parts


class Project:
    """The whole checked tree: contexts by relative path, plus the root."""

    def __init__(self, root: Path, contexts: Dict[str, FileContext]):
        self.root = root
        self.contexts = contexts

    def get(self, rel: str) -> Optional[FileContext]:
        return self.contexts.get(rel)

    def read_text(self, rel: str) -> Optional[str]:
        path = self.root / rel
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


class Rule:
    """Base class: a named check over files and/or the whole project."""

    name: str = "rule"
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule (import-safe order)."""
    from repro.analysis.rules import all_rules

    return all_rules()


class LintEngine:
    """Collect findings from the configured rules over a source tree.

    ``paths`` restricts the scanned files (defaults to ``src/repro``);
    project-wide rules always see every scanned context.  Unparseable
    files surface as ``syntax-error`` findings rather than crashing the
    run, so the gate fails loudly on a broken tree.
    """

    def __init__(
        self,
        root: Path,
        rules: Optional[Sequence[Rule]] = None,
        enabled: Optional[Sequence[str]] = None,
        disabled: Optional[Sequence[str]] = None,
    ):
        self.root = Path(root).resolve()
        selected = list(rules) if rules is not None else default_rules()
        if enabled:
            keep = set(enabled)
            selected = [rule for rule in selected if rule.name in keep]
        if disabled:
            drop = set(disabled)
            selected = [rule for rule in selected if rule.name not in drop]
        self.rules = selected

    def collect_files(self, paths: Optional[Sequence[Path]] = None) -> List[Path]:
        if paths:
            files: List[Path] = []
            for path in paths:
                path = Path(path)
                if not path.is_absolute():
                    path = self.root / path
                if path.is_dir():
                    files.extend(sorted(path.rglob("*.py")))
                else:
                    files.append(path)
            return files
        default = self.root / "src" / "repro"
        return sorted(default.rglob("*.py"))

    def run(self, paths: Optional[Sequence[Path]] = None) -> List[Finding]:
        findings: List[Finding] = []
        contexts: Dict[str, FileContext] = {}
        for path in self.collect_files(paths):
            if "__pycache__" in path.parts:
                continue
            try:
                ctx = FileContext(path, self.root)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="syntax-error",
                        path=path.relative_to(self.root).as_posix(),
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            contexts[ctx.rel] = ctx
        project = Project(self.root, contexts)
        for rule in self.rules:
            for ctx in contexts.values():
                for finding in rule.check_file(ctx):
                    if not ctx.suppressed(finding):
                        findings.append(finding)
            for finding in rule.check_project(project):
                ctx = contexts.get(finding.path)
                if ctx is None or not ctx.suppressed(finding):
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


def lint_tree(
    root: Path,
    paths: Optional[Sequence[Path]] = None,
    enabled: Optional[Sequence[str]] = None,
    disabled: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """One-call entry point: findings for the tree under ``root``."""
    return LintEngine(root, enabled=enabled, disabled=disabled).run(paths)


def findings_to_json(findings: Sequence[Finding]) -> str:
    """The machine-readable report (one object, stable key order)."""
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
        },
        indent=2,
        sort_keys=False,
    )
