"""Query ledger: named, monotone counters for oracle-call accounting.

Every black-box oracle in the pipeline charges its calls to a ledger
under one fixed key, never a setting: the circuit oracle (BoolOracle)
under ``L``, the grid labeling (SpernerInstance) under ``lambda``, the
map an induced labeling reads under ``F``, the cube map and its
Jacobian under ``F_evals`` and ``JF_evals``, the feedback-cut solver's
reduced map under ``cut_evals``, and the objective and its gradient
under ``f_evals`` and ``grad_f_evals``.
Counts are whole numbers >= 0 and only ever increase.

Each thread records into its own shard, a dict that only that thread
writes, so ``record`` takes no lock; a shard is created under the lock
the first time a thread records, and outlives the thread.  Reads take
the lock only to list the shards, then sum copies of them (``dict(shard)``
copies in one interpreter step), so a reader sees every count
non-decreasing.  A ledger only one thread has written has one shard,
and ``count`` on it is one dict lookup.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from .config import whole_number

_get_ident = threading.get_ident


class QueryLedger:
    """Monotone counters keyed by oracle name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._only: Optional[Dict[str, int]] = {}  # the shard while there is just one
        self._shards: Dict[int, Dict[str, int]] = {_get_ident(): self._only}

    def _new_shard(self) -> Dict[str, int]:
        with self._lock:
            # readers that still see _only see it before the new shard exists
            self._only = None
            return self._shards.setdefault(_get_ident(), {})

    def record(self, name: str, amount: int = 1) -> None:
        """Charge `amount` queries to counter `name` (a whole number >= 0)."""
        if type(amount) is not int or amount < 0:
            amount = whole_number(amount, "a ledger increment")
        try:
            shard = self._shards[_get_ident()]
        except KeyError:
            shard = self._new_shard()
        shard[name] = shard.get(name, 0) + amount

    def _listed(self) -> List[Dict[str, int]]:
        only = self._only
        if only is not None:
            return [only]
        with self._lock:
            return list(self._shards.values())

    def count(self, name: str) -> int:
        only = self._only
        if only is not None:
            return only.get(name, 0)
        return sum(shard.get(name, 0) for shard in self._listed())

    def total(self) -> int:
        return sum(self.snapshot().values())

    def snapshot(self) -> Dict[str, int]:
        """Copy of all counters: the sum of one copy of each shard."""
        shards = self._listed()
        out = dict(shards[0])
        for shard in shards[1:]:
            for key, value in dict(shard).items():
                out[key] = out.get(key, 0) + value
        return out

    def __repr__(self) -> str:
        return f"QueryLedger({self.snapshot()!r})"
