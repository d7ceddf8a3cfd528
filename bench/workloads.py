"""The benchmark's three workloads: inputs made from a seed, one pass, and the output checks.

Every call into the program goes through a module attribute
(``brouwer.eval_F``, ``harness.run_pgda``, ...) at call time, so the
span wrappers that ``spans.Tracer`` installs on those attributes see it.
Times are read from a ``hostspeed.Clock``, which the workloads tick
between calls into the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from minmaxlab import boolinterp, brouwer, circuit, cli, gda, harness, smoothstep, sperner
from minmaxlab.boolinterp import BoolOracle
from minmaxlab.config import DEFAULTS
from minmaxlab.ledger import QueryLedger

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop
from hostspeed import Clock

# Bound before any wrapper is installed, so classifying a PGDA iteration
# as "in transition" never shows up in the smoothstep call counts.
_RAW_STEP_D1 = smoothstep.step_d1


@dataclass(frozen=True)
class Size:
    solve_n: int  # replicas of the gadget instance
    solve_steps: int  # PGDA steps of the pass's one solve
    fd_n: int
    fd_points: int
    cert_arities: Tuple[int, ...]
    cert_tables: int  # random truth tables per arity
    cert_points: int  # points per table, alternately inside / just outside the 1/6 box
    fp_damped_steps: int
    sperner_eps: float
    setup_probes: int  # fresh interpreters timed for setup_s


SIZES = {
    "full": Size(16, 1000, 16, 1, tuple(range(2, 13)), 4, 100, 5000, 0.07, 11),
    "tiny": Size(2, 3, 2, 1, (2, 3, 4), 1, 4, 50, 0.5, 1),
}


class Gate:
    """Counts output checks and keeps the description of each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def gadget():
    return circuit.build_constant_gadget().instance


def _ints(values) -> Tuple[int, ...]:
    return tuple(int(v) for v in values)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One pass of a workload, repeated by the runner on fixed inputs."""

    name = ""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.ledgers: Dict[str, QueryLedger] = {}

    def snapshot(self) -> Dict[str, int]:
        return {
            f"{label}/{key}": value
            for label, ledger in self.ledgers.items()
            for key, value in ledger.snapshot().items()
        }

    def make_inputs(self) -> None:
        """Make the benchmark's own inputs, after the program's instances;
        set-up time (``setup_s``) stops before this."""

    def run_pass(self, gate: Gate) -> dict:
        """Run one pass; return phase times (keys ending in ``_s``, clock
        seconds) plus other samples.

        Ledger counts that the pass collects from ledgers it does not own
        (those of instances the CLI builds) go under the ``"ledger"`` key.
        """
        raise NotImplementedError


class IterationTimer:
    """Objective passed to ``run_pgda`` in place of ``GdaObjective``.

    It stamps the start of each gradient call, so consecutive stamps give
    per-iteration latency, and it flags iterations in which some block
    energy is in transition (the branch that computes every gadget value).
    The flag is computed off the clock, so it adds nothing to the latency.
    """

    def __init__(self, obj: harness.GdaObjective, clock: Clock) -> None:
        self.obj = obj
        self.clock = clock
        self.inst = obj.inst
        self.dim_x, self.dim_y = obj.dim_x, obj.dim_y
        self.ledger, self.mode = obj.ledger, obj.mode
        self.stamps: List[float] = []
        self.transitions = 0

    def value(self, x, y):
        return self.obj.value(x, y)

    def grad(self, x, y):
        self.clock.tick()
        self.stamps.append(self.clock.now())
        out = self.obj.grad(x, y)
        with self.clock.excluded():
            diff = self.inst.blocks(x) - self.inst.blocks(y)
            sq = np.einsum("vij,vij->v", diff, diff)
            spec = self.inst.energy_step.spec
            if any(_RAW_STEP_D1(spec, s) != 0.0 for s in sq):
                self.transitions += 1
        return out

    def take_latencies(self, end: float) -> List[Tuple[float, float]]:
        """(start, latency) of each iteration since the last call."""
        bounds = self.stamps + [end]
        self.stamps = []
        return [(a, b - a) for a, b in zip(bounds, bounds[1:])]


class SolveGadget(Workload):
    """PGDA as ``minmaxlab solve --algo pgda --seed <seed>`` runs it, then
    dichotomy extraction."""

    name = "solve-gadget"

    def __init__(self, seed: int, size: Size, workdir: Path, clock: Clock) -> None:
        super().__init__(clock)
        params = gda.derive_parameters(12, mode="scaled", delta=0.05, n=size.solve_n, eps=1e-4)
        self.inst = gda.build_gda_instance(gadget(), params)
        self.ledgers = {"gadget": self.inst.ledger}
        self.obj = IterationTimer(harness.GdaObjective(self.inst), clock)
        self.seed = seed
        self.steps = size.solve_steps

    def run_pass(self, gate: Gate) -> dict:
        self.obj.transitions = 0
        # the CLI's defaults: lr=None is 0.1 / sqrt(steps)
        run = harness.run_pgda(self.obj, steps=self.steps, lr=None, seed=self.seed, gap_every=100)
        latencies = self.obj.take_latencies(self.clock.now())
        gate.check(
            not run.aborted and math.isfinite(run.best_gap) and run.best_gap >= 0.0,
            f"pgda: aborted={run.aborted} best_gap={run.best_gap}",
        )
        t0 = self.clock.now()
        outcome = gda.dichotomy_extract(self.inst, *run.best_point)
        t1 = self.clock.now()
        gate.check(outcome.gap == run.best_gap, f"pgda: gap {outcome.gap} at the best point, run reported {run.best_gap}")
        if outcome.witness is not None:
            ok = outcome.assignment is None and outcome.witness.residual <= self.inst.params.rho
        else:
            ok = outcome.assignment is not None and outcome.violations == circuit.check_assignment(
                self.inst.circuit, outcome.assignment
            )
        gate.check(ok, "pgda: dichotomy returned neither a witness nor a checked assignment")
        return {
            "verify_s": t1 - t0,
            "latencies": latencies,
            "transition_iters": self.obj.transitions,
        }


@dataclass(frozen=True)
class _Case:
    oracle: BoolOracle
    x: Tuple[float, ...]
    vertex: Tuple[int, ...]
    bit: int
    inside: bool
    j: int  # coordinate placed outside the 1/6 box (when not inside)


class AuditOracle(Workload):
    """Finite-difference audit of f on oracle_purify plus certification of
    the Boolean interpolation on random truth tables."""

    name = "audit-oracle"

    def __init__(self, seed: int, size: Size, workdir: Path, clock: Clock) -> None:
        super().__init__(clock)
        rng = np.random.default_rng(seed)
        params = gda.derive_parameters(3, mode="scaled", delta=0.05, n=size.fd_n, eps=1e-4)
        self.inst = gda.build_gda_instance(oracle_purify(), params)
        self.h = DEFAULTS.grad_fd_step
        # the points `minmaxlab grad-check` draws
        self.points = [self.h + (1 - 2 * self.h) * rng.random(2 * self.inst.dim) for _ in range(size.fd_points)]
        self.cert_ledger = QueryLedger()
        self.ledgers = {"fd": self.inst.ledger, "certify": self.cert_ledger}
        self.oracles = []
        for arity in size.cert_arities:
            for _ in range(size.cert_tables):
                table = _ints(rng.integers(0, 2, 2**arity))
                self.oracles.append((table, BoolOracle.from_truth_table(table, ledger=self.cert_ledger)))
        self.rng = rng
        self.cert_points = size.cert_points
        self.cases: List[_Case] = []

    def make_inputs(self) -> None:
        rng = self.rng
        for table, oracle in self.oracles:
            arity = oracle.arity
            for p in range(self.cert_points):
                vertex = _ints(rng.integers(0, 2, arity))
                # offsets strictly inside the 1/6 box; for the "just
                # outside" points one coordinate moves to (0.19, 0.27),
                # short of the 1/3 end where the profile rounds to 0
                offsets = rng.random(arity) * (0.99 / 6.0)
                j = int(rng.integers(arity))
                inside = p % 2 == 0
                if not inside:
                    offsets[j] = 0.19 + 0.08 * rng.random()
                x = tuple(float(o) if y == 0 else float(1.0 - o) for y, o in zip(vertex, offsets))
                index = int("".join(map(str, vertex)), 2)
                self.cases.append(_Case(oracle, x, vertex, table[index], inside, j))

    def _value(self, vec):
        self.clock.tick()
        d = self.inst.dim
        return gda.eval_f(self.inst, vec[:d], vec[d:])

    def _grad(self, vec):
        d = self.inst.dim
        gx, gy = gda.eval_grad_f(self.inst, vec[:d], vec[d:])
        return np.concatenate([gx, gy])

    def _certify(self, case: _Case, gate: Gate) -> None:
        count = self.cert_ledger.count
        q0 = count("L")
        value = boolinterp.interp_eval(case.x, case.oracle)
        q1 = count("L")
        grad = boolinterp.interp_grad(case.x, case.oracle)
        q2 = count("L")
        hess = boolinterp.interp_hess_entry(case.x, case.oracle, case.j, case.j)
        q3 = count("L")
        queries = (q1 - q0, q2 - q1, q3 - q2)
        if case.inside:
            ok = value == case.bit and not grad.any() and hess == 0.0 and queries == (1, 0, 0)
        else:
            profile = boolinterp.box_profile(case.x, case.vertex)
            ok = (
                value == 0.5 + profile * (case.bit - 0.5)
                and queries[:2] == (1, 1)
                and queries[2] == (hess != 0.0)
                and grad[case.j] != 0.0
                and float(np.max(np.abs(grad))) <= math.exp(12) / 2
                and math.isfinite(hess)
                and abs(hess) <= 6 * math.exp(24)
            )
        if ok and len(case.x) <= 6:
            # independent path: sum over all 2^N vertices, uncounted oracle
            ok = value == boolinterp.dense_sum_eval(case.x, case.oracle.fn, len(case.x))
        gate.check(ok, f"interpolation at arity {len(case.x)} {'inside' if case.inside else 'outside'} "
                       f"the 1/6 box: value={value} bit={case.bit} queries={queries}")

    def run_pass(self, gate: Gate) -> dict:
        t0 = self.clock.now()
        report = harness.fd_check(self._value, self._grad, self.points, self.h)
        t1 = self.clock.now()
        gate.check(
            report.checked == len(self.points) and report.max_rel_err <= DEFAULTS.grad_fd_rel_tol,
            f"fd_check: max relative error {report.max_rel_err} over {report.checked} points",
        )
        t2 = self.clock.now()
        for case in self.cases:
            self.clock.tick()
            self._certify(case, gate)
        t3 = self.clock.now()
        return {"fd_audit_s": t1 - t0, "certify_s": t3 - t2}


class FixedPoint(Workload):
    """Fixed-point search, decoded and checked through ``minmaxlab verify``,
    plus the Sperner reduction of two maps."""

    name = "fixed-point"

    def __init__(self, seed: int, size: Size, workdir: Path, clock: Clock) -> None:
        super().__init__(clock)
        rng = np.random.default_rng(seed)
        circuits = {
            "nor_loop": nor_loop(),
            "purify_loop": purify_loop(),
            "oracle_pair": oracle_pair(_ints(rng.integers(0, 2, 2))),
            "oracle_purify": oracle_purify(),
            "oracle_attracting": oracle_attracting(_ints(rng.integers(0, 2, 4))),
            "gadget": gadget(),
        }
        self.maps = {name: brouwer.build_brouwer(inst) for name, inst in circuits.items()}
        self.ledgers = {name: inst.ledger for name, inst in circuits.items()}
        self.paths = {}
        for name, inst in circuits.items():
            self.paths[name] = workdir / f"{name}.json"
            self.paths[name].write_text(circuit.circuit_to_json(inst))
        self.point_path = workdir / "z.csv"
        self.fp_seed = seed
        self.damped_steps = size.fp_damped_steps
        self.eps = size.sperner_eps
        self.sperner_map = brouwer.build_brouwer(oracle_purify())
        self.rotation = sperner.get_test_map("smoothed_rotation")
        self.ledgers.update(
            sperner_map=self.sperner_map.ledger,
            labels=QueryLedger(),
            rotation_labels=QueryLedger(),
        )

    def _verify_cli(self, name: str, z: np.ndarray) -> Tuple[int, dict]:
        self.point_path.write_text(",".join(repr(float(v)) for v in z) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(self.paths[name]), str(self.point_path)])
        return code, json.loads(out.getvalue())

    def _ticking(self, F):
        def ticking(z):
            self.clock.tick()
            return F(z)

        return ticking

    def _sperner(self, F, d: int, ledger: QueryLedger, gate: Gate, what: str):
        inst = sperner.brouwer_to_labeling(F, d, self.eps, ledger=ledger)
        before = ledger.count("lambda")
        sol = sperner.find_sperner_solution_exhaustive(inst)
        gate.check(sol is not None, f"{what}: no Sperner solution found")
        if sol is None:
            return None
        ok, cert = sperner.verify_sperner_solution(inst, sol)
        gate.check(ok, f"{what}: solution fails verification: {cert}")
        labels = ledger.count("lambda") - before
        gate.check(labels == inst.M**d + len(set(sol.points)), f"{what}: {labels} labeling queries for M={inst.M}, d={d}")
        return sperner.decode_sperner_to_fixed_point(sol, inst.M)

    def run_pass(self, gate: Gate) -> dict:
        cli_ledger: Dict[str, int] = {}
        t0 = self.clock.now()
        for name, bmap in self.maps.items():
            self.clock.tick()
            l0, f0 = bmap.ledger.count("L"), bmap.ledger.count("F_evals")
            result = brouwer.find_fixed_point(bmap, damped_steps=self.damped_steps, seed=self.fp_seed)
            gate.check(result.residual <= DEFAULTS.brouwer_eps, f"{name}: fixed-point residual {result.residual}")
            queries, evals = bmap.ledger.count("L") - l0, bmap.ledger.count("F_evals") - f0
            gate.check(queries <= bmap.dim * evals, f"{name}: {queries} oracle queries for {evals} F evaluations")
            code, payload = self._verify_cli(name, result.z)
            gate.check(
                code == 0 and payload["ok"] and payload["violations"] == [],
                f"{name}: `minmaxlab verify` exit {code}, violations {payload.get('violations')}",
            )
            for key, value in payload["ledger"].items():
                cli_ledger[f"verify-{name}/{key}"] = value
        t1 = self.clock.now()
        smap = self.sperner_map
        l0, f0 = smap.ledger.count("L"), smap.ledger.count("F_evals")
        z = self._sperner(self._ticking(partial(brouwer.eval_F, smap)), smap.dim, self.ledgers["labels"], gate, "oracle_purify map")
        if z is not None:
            gate.check(bool(np.all((z >= 0.0) & (z <= 1.0))), f"oracle_purify map: decoded point {z} outside the cube")
        queries, evals = smap.ledger.count("L") - l0, smap.ledger.count("F_evals") - f0
        gate.check(queries <= smap.dim * evals, f"oracle_purify map: {queries} oracle queries for {evals} F evaluations")
        rot = self.rotation
        z = self._sperner(self._ticking(rot.fn), rot.d, self.ledgers["rotation_labels"], gate, "smoothed_rotation")
        if z is not None:
            res = float(np.max(np.abs(rot.fn(z) - z)))
            gate.check(res <= self.eps, f"smoothed_rotation: decoded residual {res} > eps {self.eps}")
        t2 = self.clock.now()
        return {"fixed_point_s": t1 - t0, "sperner_s": t2 - t1, "ledger": cli_ledger}


WORKLOADS = {cls.name: cls for cls in (SolveGadget, AuditOracle, FixedPoint)}
