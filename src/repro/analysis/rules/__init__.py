"""The project rule set for repro-lint.

Each module contributes one :class:`~repro.analysis.linter.Rule`
subclass; :func:`all_rules` is the registry the engine instantiates
(see docs/STATIC_ANALYSIS.md for the catalog, and for how to add a
rule: write the class, add it here, give it a positive and a negative
test in ``tests/test_analysis.py``).
"""

from __future__ import annotations

from typing import List

from repro.analysis.linter import Rule
from repro.analysis.rules.api import ApiHygieneRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.locks import LockDisciplineRule

__all__ = [
    "ApiHygieneRule",
    "DeterminismRule",
    "LockDisciplineRule",
    "all_rules",
]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in report order."""
    return [
        DeterminismRule(),
        LockDisciplineRule(),
        ApiHygieneRule(),
    ]
