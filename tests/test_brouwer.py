import math
from itertools import product
from typing import List, Optional, Tuple

import numpy as np
import pytest

from minmaxlab import brouwer, smoothstep
from minmaxlab.brouwer import (
    BrouwerMap,
    FixedPointResult,
    build_brouwer,
    cycle_cut_solve,
    damped_iteration,
    decode_brouwer,
    eval_F,
    eval_JF,
    feedback_cut,
    find_fixed_point,
    grid_restart_point,
    residual,
    verify_brouwer_solution,
)
from minmaxlab.circuit import (
    BOT,
    CircuitInstance,
    build_constant_gadget,
    check_assignment,
    nor,
    purify,
)
from minmaxlab.config import DEFAULTS
from minmaxlab.smoothstep import ELL, G

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop


class TestBuild:
    def test_dimension_is_node_count(self):
        bmap = build_brouwer(build_constant_gadget().instance)
        assert bmap.dim == 12

    def test_invalid_instance_rejected(self):
        bad = CircuitInstance(nodes=("a", "b", "c"), gates=(nor("a", "b", "c"),))
        with pytest.raises(ValueError, match="not the output"):
            build_brouwer(bad)

    def test_component_formulas(self):
        bmap = build_brouwer(nor_loop())
        z = np.array([0.7, 0.2, 0.9])  # (a, b, c)
        out = eval_F(bmap, z)
        assert out[0] == G(z[1] + z[2])          # NOR(b, c -> a)
        assert out[1] == ELL(z[0] + 0.25)        # PURIFY first output
        assert out[2] == ELL(z[0] - 0.25)        # PURIFY second output


def _knee_points():
    """The knees of g and ell, one ulp either side, and a few plateau and
    band points; NOR input sums reach 2."""
    out = [0.0, 0.2, 0.5, 0.9, 1.0, 4.0 / 3.0, 2.0]
    for knee in (1.0 / 3.0, 2.0 / 3.0, 5.0 / 12.0, 7.0 / 12.0):
        out += [math.nextafter(knee, -math.inf), knee, math.nextafter(knee, math.inf)]
    return out


class TestGateTableKnees:
    """BrouwerMap answers the plateaus without evaluating the step; its
    values and slopes must be G, ELL, G.d1 and ELL.d1 bit for bit,
    signed zeros included."""

    @staticmethod
    def bits(values):
        return np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("x", _knee_points())
    def test_values_and_slopes_equal_the_steps(self, x):
        # nor_loop rows: a = NOR(b, c), b and c = PURIFY(a); with zero
        # offsets and z_c = 0 every gate sees exactly x
        table = build_brouwer(nor_loop())
        vals, offsets = [x, x, 0.0], [0.0, 0.0, 0.0]
        assert self.bits(table.values(vals, offsets, range(3))) == self.bits([G(x), ELL(x), ELL(x)])
        assert self.bits(table.slopes(vals, offsets, range(3))) == self.bits(
            [G.d1(x), G.d1(x), ELL.d1(x), ELL.d1(x)]
        )

    @pytest.mark.parametrize("x", _knee_points())
    def test_map_and_signal_offsets(self, x):
        table = build_brouwer(nor_loop())
        z = [x - 0.25, x / 2.0, x / 2.0]
        for offsets, (first, second) in ((table.map_offsets, (0.25, -0.25)), (table.signal_offsets, (-0.25, 0.25))):
            expected = [G(z[1] + z[2]), ELL(z[0] + first), ELL(z[0] + second)]
            assert self.bits(table.values(z, offsets, range(3))) == self.bits(expected)
            slope = G.d1(z[1] + z[2])
            expected = [slope, slope, ELL.d1(z[0] + first), ELL.d1(z[0] + second)]
            assert self.bits(table.slopes(z, offsets, range(3))) == self.bits(expected)

    def test_plateaus_skip_the_step(self, monkeypatch):
        calls = []
        for name in ("step_eval", "step_d1"):
            original = getattr(smoothstep, name)
            monkeypatch.setattr(smoothstep, name, lambda spec, x, f=original: calls.append(x) or f(spec, x))
        table = build_brouwer(nor_loop())
        zeros = [0.0, 0.0, 0.0]
        # (PURIFY input, NOR input), each at or beyond a knee of its step
        for a, b in ((0.0, 0.0), (5.0 / 12.0, 1.0 / 3.0), (7.0 / 12.0, 2.0 / 3.0), (1.0, 2.0)):
            table.values([a, b, 0.0], zeros, range(3))
            table.slopes([a, b, 0.0], zeros, range(3))
        assert calls == []
        table.values([0.5, 0.5, 0.0], zeros, range(3))
        assert calls == [0.5, 0.5, 0.5]


class TestEvalF:
    def test_nor_at_zero_inputs(self):
        bmap = build_brouwer(nor_loop())
        z = np.array([0.4, 0.0, 0.0])
        assert eval_F(bmap, z)[0] == 1.0

    def test_purify_saturates_high(self):
        bmap = build_brouwer(purify_loop())
        z = np.array([5.0 / 6.0, 0.9, 0.5, 0.5])  # a, b high
        out = eval_F(bmap, z)
        assert out[1] == 1.0 and out[2] == 1.0  # outputs of PURIFY(a -> b, c)

    def test_oracle_sees_rounded_vertex(self):
        inst = oracle_purify(table=(0, 1, 1, 0))  # XOR of (a, c)
        bmap = build_brouwer(inst)
        z = np.array([0.9, 0.5, 0.1])  # (a, b, c): vertex (1, 0)
        assert eval_F(bmap, z)[1] == 1.0

    def test_domain_rejection(self):
        bmap = build_brouwer(nor_loop())
        with pytest.raises(ValueError):
            eval_F(bmap, np.array([0.5, 0.5, 1.5]))
        with pytest.raises(ValueError):
            eval_F(bmap, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [eval_F, eval_JF])
    def test_non_finite_rejected(self, fn, bad):
        bmap = build_brouwer(nor_loop())
        with pytest.raises(ValueError):
            fn(bmap, np.array([0.5, bad, 0.5]))
        assert bmap.ledger.total() == 0

    def test_range(self):
        rng = np.random.default_rng(3)
        bmap = build_brouwer(oracle_attracting())
        for _ in range(100):
            out = eval_F(bmap, rng.random(5))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_query_budget_without_oracle(self):
        inst = purify_loop()
        bmap = build_brouwer(inst)
        eval_F(bmap, np.full(4, 0.25))
        assert inst.ledger.count("L") == 0

    def test_query_budget_with_oracle(self):
        inst = oracle_pair()
        bmap = build_brouwer(inst)
        rng = np.random.default_rng(5)
        for _ in range(50):
            before = inst.ledger.count("L")
            eval_F(bmap, rng.random(2))
            assert inst.ledger.count("L") - before <= bmap.dim
            before = inst.ledger.count("L")
            eval_JF(bmap, rng.random(2))
            assert inst.ledger.count("L") - before <= bmap.dim


class TestJacobian:
    def test_nor_row_structure(self):
        bmap = build_brouwer(nor_loop())
        z = np.array([0.3, 0.28, 0.24])
        jac = eval_JF(bmap, z)
        slope = G.d1(z[1] + z[2])
        assert jac[0, 1] == slope and jac[0, 2] == slope
        assert jac[0, 0] == 0.0
        assert slope != 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for inst in (nor_loop(), purify_loop(), oracle_purify(), oracle_attracting()):
            bmap = build_brouwer(inst)
            for _ in range(20):
                z = rng.uniform(h, 1 - h, size=bmap.dim)
                jac = eval_JF(bmap, z)
                for j in range(bmap.dim):
                    up = z.copy()
                    up[j] += h
                    down = z.copy()
                    down[j] -= h
                    col = (eval_F(bmap, up) - eval_F(bmap, down)) / (2 * h)
                    for i in range(bmap.dim):
                        err = abs(col[i] - jac[i, j])
                        scale = max(abs(col[i]), abs(jac[i, j]))
                        if scale > 1.0:
                            err /= scale
                        assert err <= 1e-5

    def test_entrywise_bound(self):
        rng = np.random.default_rng(11)
        bound = math.exp(12.0)
        for inst in (nor_loop(), oracle_purify()):
            bmap = build_brouwer(inst)
            for _ in range(300):
                jac = eval_JF(bmap, rng.random(bmap.dim))
                assert np.max(np.abs(jac)) <= bound


class TestDecode:
    def test_thresholds(self):
        bmap = build_brouwer(nor_loop())
        b = decode_brouwer(bmap, np.array([0.05, 0.5, 5.0 / 6.0]))
        assert b["a"] == 0
        assert b["b"] is BOT
        assert b["c"] == 1

    def test_verify_solution(self):
        bmap = build_brouwer(purify_loop())
        ones = np.ones(4)
        assert residual(bmap, ones) == 0.0
        assert verify_brouwer_solution(bmap, ones)
        off = ones.copy()
        off[0] = 0.8
        assert not verify_brouwer_solution(bmap, off, eps=1.0 / 12.0)


class TestSolvers:
    def test_damped_converges_on_attracting_loop(self):
        bmap = build_brouwer(purify_loop())
        result = damped_iteration(bmap, steps=2000)
        assert result.converged
        assert result.residual <= 1.0 / 12.0
        b = decode_brouwer(bmap, result.z)
        assert check_assignment(bmap.circuit, b) == []

    def test_damped_trace_ledger_monotone(self):
        bmap = build_brouwer(oracle_attracting())
        result = damped_iteration(bmap, steps=500)
        totals = [t[2] for t in result.trace]
        assert totals == sorted(totals)

    def test_feedback_cut_small(self):
        bmap = build_brouwer(nor_loop())
        cut, order = feedback_cut(bmap)
        assert len(cut) == 1
        assert len(order) == bmap.dim - 1

    def test_cycle_cut_solves_nor_loop(self):
        bmap = build_brouwer(nor_loop())
        result = cycle_cut_solve(bmap)
        assert result.converged
        assert result.residual <= 1e-8
        b = decode_brouwer(bmap, result.z)
        assert check_assignment(bmap.circuit, b) == []

    def test_cycle_cut_solves_constant_gadget(self):
        gadget = build_constant_gadget()
        bmap = build_brouwer(gadget.instance)
        result = cycle_cut_solve(bmap)
        assert result.converged
        assert result.residual <= 1e-8
        b = decode_brouwer(bmap, result.z)
        assert check_assignment(gadget.instance, b) == []
        assert b[gadget.zero_node] == 0
        assert b[gadget.one_node] == 1

    def test_grid_restart_gated(self):
        bmap = build_brouwer(purify_loop())
        with pytest.raises(ValueError):
            grid_restart_point(bmap)

    def test_find_fixed_point_all_instances(self):
        gadget = build_constant_gadget()
        for inst in (nor_loop(), purify_loop(), oracle_pair(), oracle_attracting(), gadget.instance):
            bmap = build_brouwer(inst)
            result = find_fixed_point(bmap, damped_steps=1500)
            assert result.converged, inst.nodes
            assert verify_brouwer_solution(bmap, result.z)
            b = decode_brouwer(bmap, result.z)
            assert check_assignment(inst, b) == []

    def test_cycle_cut_root_against_brentq(self):
        # independent root oracle for the reduced displacement
        from scipy.optimize import brentq

        from minmaxlab.brouwer import _propagate, eval_component

        for inst in (nor_loop(), build_constant_gadget().instance):
            bmap = build_brouwer(inst)
            cut, order = feedback_cut(bmap)
            assert len(cut) == 1

            def reduced_residual(c):
                z = _propagate(bmap, cut, order, np.array([c]))
                return eval_component(bmap, cut[0], z) - c

            root = brentq(reduced_residual, 0.0, 1.0, xtol=1e-13)
            result = cycle_cut_solve(bmap)
            assert abs(result.z[cut[0]] - root) <= 1e-8

    def test_multi_coordinate_cut_reports_iterations_run(self, monkeypatch):
        # two disjoint nor_loop copies: one cut coordinate per copy
        inst = CircuitInstance(
            nodes=("a", "b", "c", "x", "y", "w"),
            gates=(purify("a", "b", "c"), nor("b", "c", "a"), purify("x", "y", "w"), nor("y", "w", "x")),
        )
        bmap = build_brouwer(inst)
        assert feedback_cut(bmap)[0] == [0, 3]
        calls = []
        original = brouwer._propagate
        monkeypatch.setattr(brouwer, "_propagate", lambda *args: calls.append(1) or original(*args))
        result = cycle_cut_solve(bmap)
        assert result.residual <= 1e-10
        # one propagation per reduced-map evaluation, plus the final one
        assert result.iterations == len(calls) - 1 < 20000

    @pytest.mark.parametrize("run", [
        lambda bmap: damped_iteration(bmap, steps=-1),
        lambda bmap: find_fixed_point(bmap, damped_steps=-1),
    ], ids=["damped_iteration", "find_fixed_point"])
    def test_negative_step_count_rejected(self, run):
        bmap = build_brouwer(purify_loop())
        with pytest.raises(ValueError, match="steps"):
            run(bmap)
        assert bmap.ledger.total() == 0

    @pytest.mark.parametrize("steps", [2.5, math.nan, math.inf, "10"])
    @pytest.mark.parametrize("run", [
        lambda bmap, steps: damped_iteration(bmap, steps=steps),
        lambda bmap, steps: find_fixed_point(bmap, damped_steps=steps),
    ], ids=["damped_iteration", "find_fixed_point"])
    def test_non_integral_step_count_rejected(self, run, steps):
        bmap = build_brouwer(purify_loop())
        with pytest.raises(ValueError, match="steps"):
            run(bmap, steps)
        assert bmap.ledger.total() == 0

    def test_integral_float_step_count_accepted(self):
        bmap = build_brouwer(nor_loop())
        assert damped_iteration(bmap, steps=40.0).iterations == 40

    def test_zero_steps_trace_one_row(self, tmp_path):
        from minmaxlab.brouwer import write_residual_trace

        bmap = build_brouwer(nor_loop())
        result = damped_iteration(bmap, steps=0)
        assert result.iterations == 0
        assert result.trace == [(0, residual(bmap, np.full(3, 0.5)), 1)]
        out = tmp_path / "trace.csv"
        write_residual_trace(result, out)
        assert len(out.read_text().splitlines()) == 2

    def test_displacement_and_trace_writer(self, tmp_path):
        from minmaxlab.brouwer import displacement, write_residual_trace

        bmap = build_brouwer(purify_loop())
        z = np.full(4, 0.25)
        assert np.array_equal(displacement(bmap, z), eval_F(bmap, z) - z)
        result = damped_iteration(bmap, steps=300)
        out = tmp_path / "trace.csv"
        write_residual_trace(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,residual,ledger_total"
        assert len(lines) == len(result.trace) + 1


def reference_damped_iteration(bmap: BrouwerMap, z0: Optional[np.ndarray] = None, steps: int = 5000) -> FixedPointResult:
    """damped_iteration as it was before the 500-step stop rule: every
    attempt runs the full `steps` unless it reaches the target."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    gamma, target = 0.25, DEFAULTS.brouwer_eps
    z = np.full(bmap.dim, 0.5) if z0 is None else np.asarray(z0, dtype=float).copy()
    best_z = z.copy()
    fz = eval_F(bmap, z)
    best_res = float(np.max(np.abs(fz - z)))
    trace: List[Tuple[int, float, int]] = [(0, best_res, bmap.ledger.total())]
    it = 0
    for it in range(1, steps + 1):
        z = (1.0 - gamma) * z + gamma * fz
        fz = eval_F(bmap, z)
        res = float(np.max(np.abs(fz - z)))
        if res < best_res:
            best_res = res
            best_z = z.copy()
        if it % 100 == 0:
            trace.append((it, res, bmap.ledger.total()))
        if best_res <= target:
            break
    last = (it, best_res, bmap.ledger.total())
    if trace[-1] != last:
        trace.append(last)
    return FixedPointResult(
        z=best_z,
        residual=best_res,
        method="damped",
        iterations=it,
        converged=best_res <= target,
        trace=trace,
    )


def _every_instance():
    """Every circuit of tests/circuits.py with every oracle table, and the gadget."""
    cases = [("nor_loop", nor_loop), ("purify_loop", purify_loop)]
    for table in product((0, 1), repeat=2):
        cases.append((f"oracle_pair{table}", lambda table=table: oracle_pair(table)))
    for maker in (oracle_purify, oracle_attracting):
        for table in product((0, 1), repeat=4):
            cases.append((f"{maker.__name__}{table}", lambda maker=maker, table=table: maker(table)))
    cases.append(("gadget", lambda: build_constant_gadget().instance))
    return cases


class TestEarlyStop:
    """The 500-step stop rule of damped_iteration only shortens attempts
    that would not have improved again: against the loop without it, the
    best point, residual and flag are the same and no more F is spent."""

    @pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in _every_instance()])
    def test_same_result_as_full_run(self, make):
        starts = [None]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            starts += [rng.random(len(make().nodes)) for _ in range(2)]
        for z0 in starts:
            old, new = build_brouwer(make()), build_brouwer(make())
            expected = reference_damped_iteration(old, z0=z0)
            got = damped_iteration(new, z0=z0)
            assert got.z.tobytes() == expected.z.tobytes()
            assert got.residual == expected.residual
            assert got.converged == expected.converged
            assert new.ledger.count("F_evals") <= old.ledger.count("F_evals")

    def test_stalled_attempt_ends_early(self):
        bmap = build_brouwer(nor_loop())
        result = damped_iteration(bmap)
        assert not result.converged
        assert result.iterations < 700
        assert bmap.ledger.count("F_evals") == result.iterations + 1


def reference_grid_restart_point(bmap: BrouwerMap) -> np.ndarray:
    """grid_restart_point as it was before its stop at an exact fixed
    point: every one of the 21^d grid points is evaluated."""
    if bmap.dim > 3:
        raise ValueError("grid restart is gated to d <= 3")
    axis = np.linspace(0.0, 1.0, 21)
    best_z = None
    best_res = np.inf
    for combo in product(axis, repeat=bmap.dim):
        z = np.array(combo)
        res = residual(bmap, z)
        if res < best_res:
            best_res = res
            best_z = z
    return best_z


class TestGridRestartStop:
    """The grid restart stops at its first residual-0.0 point, which a full
    scan also returns, since it keeps the first strict minimum."""

    @pytest.mark.parametrize(
        "make", [pytest.param(make, id=name) for name, make in _every_instance() if len(make().nodes) <= 3]
    )
    def test_same_point_as_full_scan(self, make):
        old, new = build_brouwer(make()), build_brouwer(make())
        expected = reference_grid_restart_point(old)
        got = grid_restart_point(new)
        assert got.tobytes() == expected.tobytes()
        grid = [np.array(combo) for combo in product(np.linspace(0.0, 1.0, 21), repeat=new.dim)]
        index = next(i for i, z in enumerate(grid) if z.tobytes() == got.tobytes())
        exact = residual(build_brouwer(make()), got) == 0.0
        assert new.ledger.count("F_evals") == (index + 1 if exact else len(grid))
        assert old.ledger.count("F_evals") == len(grid)
