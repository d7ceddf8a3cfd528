"""Span tracing installed from outside the program.

``Tracer`` replaces each traced function or method at every binding in
the ``minmaxlab`` package that holds it (``brouwer.eval_F`` and
``gda.eval_F`` are one function bound twice), so no caller bypasses a
wrapper. A span is (name, start, end, parent span, pass id), kept in flat
arrays and written out once at the end. Calls of about a microsecond
(smooth steps, ledger records) are only counted; their time comes from
isolated timings instead.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Dict, List

import numpy as np

from minmaxlab import boolinterp
from minmaxlab.boolinterp import BoolOracle
from minmaxlab.ledger import QueryLedger
from minmaxlab.sperner import SpernerInstance

# (layer, owner, attribute): a module-level function of minmaxlab.<owner>,
# or a method of a class. The layer owns the span's self time.
SPANNED = [
    ("boolinterp", "boolinterp", "interp_eval"),
    ("boolinterp", "boolinterp", "interp_grad"),
    ("boolinterp", "boolinterp", "interp_hess_entry"),
    ("circuit", "circuit", "check_assignment"),
    ("circuit", BoolOracle, "query"),
    ("brouwer", "brouwer", "build_brouwer"),
    ("brouwer", "brouwer", "eval_F"),
    ("brouwer", "brouwer", "eval_JF"),
    ("brouwer", "brouwer", "decode_brouwer"),
    ("brouwer", "brouwer", "find_fixed_point"),
    ("brouwer", "brouwer", "damped_iteration"),
    ("brouwer", "brouwer", "grid_restart_point"),
    ("brouwer", "brouwer", "cycle_cut_solve"),
    ("sperner", "sperner", "brouwer_to_labeling"),
    ("sperner", "sperner", "find_sperner_solution_exhaustive"),
    ("sperner", "sperner", "verify_sperner_solution"),
    ("sperner", "sperner", "decode_sperner_to_fixed_point"),
    ("sperner", SpernerInstance, "query"),
    ("gda", "gda", "eval_f"),
    ("gda", "gda", "eval_grad_f"),
    ("gda", "gda", "dichotomy_extract"),
    ("harness", "harness", "run_pgda"),
    ("harness", "harness", "fd_check"),
    ("cli", "cli", "main"),
]

COUNTED = [
    ("smoothstep", "smoothstep", "step_eval"),
    ("smoothstep", "smoothstep", "step_d1"),
    ("smoothstep", "smoothstep", "step_d2"),
    ("ledger", QueryLedger, "record"),
]

INTERP = ("boolinterp.interp_eval", "boolinterp.interp_grad", "boolinterp.interp_hess_entry")
ATTEMPTS = ("brouwer.damped_iteration", "brouwer.cycle_cut_solve")


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.pass_no = -1
        self.counts: Counter = Counter()
        self.pass_counts: Dict[int, Dict[str, int]] = {}
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "minmaxlab"]
        self._bindings = []  # (holder, attribute, original, wrapper)
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, owner, attr in table:
                if isinstance(owner, str):
                    owner = sys.modules[f"minmaxlab.{owner}"]
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    wrapper = make(f"{layer}.{owner.__name__}.{attr}", original)
                    self._bindings.append((owner, attr, original, wrapper))
                    continue
                wrapper = make(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, key, original, wrapper))

    def _spanned(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        active = name in INTERP
        stack, name_id, parent, pass_id = self._stack, self.name_id, self.parent, self.pass_id
        start, end, counts = self.start, self.end, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            pass_id.append(self.pass_no)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if active and boolinterp.active_vertex(args[0]) is not None:
                    counts["boolinterp.active"] += 1

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_pass(self, number: int) -> None:
        self.counts.clear()
        self.pass_no = number
        for holder, key, _original, wrapper in self._bindings:
            setattr(holder, key, wrapper)

    def end_pass(self) -> None:
        for holder, key, original, _wrapper in self._bindings:
            setattr(holder, key, original)
        self.pass_counts[self.pass_no] = dict(self.counts)
        self.pass_no = -1

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class PassSpans:
    """The spans and counts of one traced pass, with the per-layer sums."""

    def __init__(self, tracer: Tracer, number: int) -> None:
        name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        mask = np.frombuffer(tracer.pass_id, dtype=np.int32) == number
        self.index = np.flatnonzero(mask)
        self.names = tracer.names
        self.name_id = name_id
        self.parent = parent
        self.dur = dur
        self.self_time = dur - child
        self.counts = tracer.pass_counts.get(number, {})
        ids = {name: i for i, name in enumerate(tracer.names)}
        self._of = {name: self.index[name_id[self.index] == ids[name]] for name in tracer.names}

    def calls(self, *names: str) -> int:
        return int(sum(self._of[n].size for n in names))

    def total(self, *names: str) -> float:
        return float(sum(self.dur[self._of[n]].sum() for n in names))

    def self_s(self, *names: str) -> float:
        return float(sum(self.self_time[self._of[n]].sum() for n in names))

    def layer_self(self, layer: str) -> float:
        return self.self_s(*[n for n in self.names if n.split(".")[0] == layer])

    def calls_under(self, name: str, parents) -> int:
        """Calls of `name` made directly from a span named in `parents`."""
        pids = self.parent[self._of[name]]
        pids = pids[pids >= 0]
        wanted = {self.names.index(p) for p in parents}
        return int(sum(1 for nid in self.name_id[pids] if nid in wanted))

    def fp_attempts(self):
        """(attempts, F evaluations in losing attempts, F evaluations in all).

        An attempt is a damped run or the cut solve called by
        find_fixed_point; the grid scan that seeds the restart belongs to
        the damped run after it. The last attempt is the one that won.
        """
        f_parents = self.parent[self._of["brouwer.eval_F"]]
        f_by_parent = np.bincount(f_parents[f_parents >= 0], minlength=self.dur.size)
        attempts = wasted = total = 0
        for fp in self._of["brouwer.find_fixed_point"]:
            children = self.index[self.parent[self.index] == fp]
            groups: List[int] = []
            carry = 0
            for c in children:
                carry += int(f_by_parent[c])
                if self.names[self.name_id[c]] in ATTEMPTS:
                    groups.append(carry)
                    carry = 0
            attempts += len(groups)
            wasted += sum(groups[:-1])
            total += sum(groups) + carry
        return attempts, wasted, total
