#!/usr/bin/env python
"""repro-lint: run the project AST invariant checker over the tree.

The CI ``analysis`` job runs this repo-wide and requires zero findings;
locally it is the fastest way to check a change against the determinism,
lock-discipline and api-hygiene rules before pushing.

    PYTHONPATH=src python scripts/lint_repro.py                 # whole tree
    PYTHONPATH=src python scripts/lint_repro.py src/repro/serve # one package
    PYTHONPATH=src python scripts/lint_repro.py --json          # machine output
    PYTHONPATH=src python scripts/lint_repro.py --fix-suggestions
    PYTHONPATH=src python scripts/lint_repro.py --rules determinism,api-hygiene

Exit status: 0 when clean, 1 when any finding survives suppression, 2 on
usage errors.  Suppression syntax and the rule catalog are documented in
docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.linter import LintEngine, default_rules, findings_to_json  # noqa: E402


def _split(value):
    return [item.strip() for item in value.split(",") if item.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_repro",
        description="project AST invariant checker (repro-lint)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the findings as a JSON report on stdout",
    )
    parser.add_argument(
        "--fix-suggestions",
        action="store_true",
        help="print a suggested fix under each finding",
    )
    parser.add_argument(
        "--rules",
        type=_split,
        default=None,
        metavar="NAMES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        type=_split,
        default=None,
        metavar="NAMES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="tree root the default scan and relative paths resolve "
        "against (default: this repository)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            ids = ", ".join(getattr(rule, "ids", (rule.name,)))
            print(f"{rule.name:16s} [{ids}]\n    {rule.description}")
        return 0

    known = {rule.name for rule in default_rules()}
    for selection in (args.rules or []) + (args.disable or []):
        if selection not in known:
            parser.error(
                f"unknown rule {selection!r}; known rules: {', '.join(sorted(known))}"
            )

    engine = LintEngine(
        args.root, enabled=args.rules, disabled=args.disable
    )
    paths = [Path(p) for p in args.paths] or None
    findings = engine.run(paths)

    if args.json:
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(finding.format(with_suggestion=args.fix_suggestions))
        scanned = "tree" if paths is None else f"{len(paths)} path(s)"
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"repro-lint: {status} ({scanned} scanned, "
              f"{len(engine.rules)} rule(s))", file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
