"""Query ledger: named, monotone counters for oracle-call accounting.

Every black-box oracle in the pipeline charges its calls to a ledger
under one fixed key, never a setting: the circuit oracle (BoolOracle)
under ``L``, the grid labeling (SpernerInstance) under ``lambda``, the
map an induced labeling reads under ``F``, the cube map and its
Jacobian under ``F_evals`` and ``JF_evals``, the feedback-cut solver's
reduced map under ``cut_evals``, and the objective and its gradient
under ``f_evals`` and ``grad_f_evals``.
Counts are whole numbers >= 0 and only ever increase.
"""

from __future__ import annotations

from typing import Dict

from .config import whole_number


class QueryLedger:
    """Monotone counters keyed by oracle name."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def record(self, name: str, amount: int = 1) -> None:
        """Charge `amount` queries to counter `name` (a whole number >= 0)."""
        if type(amount) is not int or amount < 0:
            amount = whole_number(amount, "a ledger increment")
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def snapshot(self) -> Dict[str, int]:
        """Copy of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"QueryLedger({self.snapshot()!r})"
