import math
import random
from itertools import product
from typing import Optional

import numpy as np
import pytest

from minmaxlab import brouwer
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
from minmaxlab.gda import _signals_from_energies
from minmaxlab.smoothstep import ELL, G

from circuits import (
    build_chain,
    every_instance,
    nor_loop,
    oracle_attracting,
    oracle_pair,
    oracle_purify,
    purify_loop,
    restart_ring,
)
from test_kernels import signal_slopes


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
    """The kernels answer the plateaus without evaluating the step; their
    values and slopes, and the min-max signals and signal slopes gda reads
    from them, must be G, ELL, G.d1 and ELL.d1 bit for bit, signed zeros
    included."""

    @staticmethod
    def bits(values):
        return np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("x", _knee_points())
    def test_values_and_slopes_equal_the_steps(self, x):
        # nor_loop rows: a = NOR(b, c), b and c = PURIFY(a).  With
        # z_a = x - 1/4 (exact at these points) and z_c = 0, the NOR row,
        # the map's first PURIFY output (offset +1/4) and the signals'
        # second (offset +1/4) each see exactly x
        table = build_brouwer(nor_loop())
        z = [x - 0.25, x, 0.0]
        assert z[0] + 0.25 == x
        values, signals = table.map_values(z), _signals_from_energies(table, z)
        assert self.bits([values[0], values[1], signals[2]]) == self.bits([G(x), ELL(x), ELL(x)])
        assert self.bits(table.map_slopes(z)[:3]) == self.bits([G.d1(x), G.d1(x), ELL.d1(x)])
        # signal slopes run gate by gate: PURIFY(a -> b, c), then NOR(b, c -> a)
        assert self.bits(signal_slopes(table, z)[1:]) == self.bits([ELL.d1(x), G.d1(x), G.d1(x)])
        assert self.bits([table.row_values[0](z), table.row_values[1](z)]) == self.bits([G(x), ELL(x)])

    @pytest.mark.parametrize("x", _knee_points())
    def test_map_and_signal_offsets(self, x):
        table = build_brouwer(nor_loop())
        z = [x - 0.25, x / 2.0, x / 2.0]
        slope = G.d1(z[1] + z[2])
        for values, (first, second) in ((table.map_values(z), (0.25, -0.25)),
                                         (_signals_from_energies(table, z), (-0.25, 0.25))):
            expected = [G(z[1] + z[2]), ELL(z[0] + first), ELL(z[0] + second)]
            assert self.bits(values) == self.bits(expected)
        assert self.bits([row(z) for row in table.row_values]) == self.bits(table.map_values(z))
        expected = [slope, slope, ELL.d1(z[0] + 0.25), ELL.d1(z[0] - 0.25)]
        assert self.bits(table.map_slopes(z)) == self.bits(expected)
        expected = [ELL.d1(z[0] - 0.25), ELL.d1(z[0] + 0.25), slope, slope]
        assert self.bits(signal_slopes(table, z)) == self.bits(expected)

    def test_plateaus_skip_the_step(self, monkeypatch):
        # the kernels read the steps from brouwer's globals at call time
        calls = []
        for name in ("step_eval", "step_d1"):
            original = getattr(brouwer, name)
            monkeypatch.setattr(brouwer, name, lambda spec, x, f=original: calls.append(x) or f(spec, x))
        table = build_brouwer(nor_loop())

        def run_all(z):
            for kernel in (table.map_values, table.map_slopes):
                kernel(z)
            _signals_from_energies(table, z)
            signal_slopes(table, z)
            for row in table.row_values:
                row(z)

        # (z_a, NOR input).  The PURIFY outputs see z_a + 1/4 and z_a - 1/4:
        # (0, -1/2), (5/12, -1/12), (7/12, 1/12) and (5/4, 3/4), so each knee
        # of ell is met exactly, and every input is at or beyond a knee
        for a, b in ((-0.25, 0.0), (5.0 / 12.0 - 0.25, 1.0 / 3.0), (7.0 / 12.0 - 0.25, 2.0 / 3.0), (1.0, 2.0)):
            run_all([a, b, 0.0])
        assert calls == []
        # NOR and the offset +1/4 PURIFY output see 0.5; the other output 0
        table.map_values([0.25, 0.5, 0.0])
        assert calls == [0.5, 0.5]
        _signals_from_energies(table, [0.25, 0.5, 0.0])
        assert calls == [0.5, 0.5, 0.5, 0.5]
        table.map_slopes([0.25, 0.5, 0.0])
        assert calls == [0.5] * 6


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
        assert residual(bmap, ones) <= 1.0 / 12.0
        off = ones.copy()
        off[0] = 0.8
        assert not residual(bmap, off) <= 1.0 / 12.0


class TestSolvers:
    def test_damped_converges_on_attracting_loop(self):
        bmap = build_brouwer(purify_loop())
        result = damped_iteration(bmap, steps=2000)
        assert result.converged
        assert result.residual <= 1.0 / 12.0
        b = decode_brouwer(bmap, result.z)
        assert check_assignment(bmap.circuit, b) == []

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
            assert residual(bmap, result.z) <= 1.0 / 12.0
            b = decode_brouwer(bmap, result.z)
            assert check_assignment(inst, b) == []

    def test_cycle_cut_root_against_brentq(self):
        # independent root oracle for the reduced displacement
        from scipy.optimize import brentq

        from minmaxlab.brouwer import _propagate

        for inst in (nor_loop(), build_constant_gadget().instance):
            bmap = build_brouwer(inst)
            cut, order = feedback_cut(bmap)
            assert len(cut) == 1

            def reduced_residual(c):
                z = _propagate(bmap, cut, order, np.array([c]))
                return bmap.row_values[cut[0]](z) - c

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

    def test_zero_steps_evaluates_the_start_once(self):
        bmap = build_brouwer(nor_loop())
        result = damped_iteration(bmap, steps=0)
        assert result.iterations == 0
        assert bmap.ledger.snapshot() == {"F_evals": 1}
        assert result.residual == residual(bmap, np.full(3, 0.5))


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
    it = 0
    for it in range(1, steps + 1):
        z = (1.0 - gamma) * z + gamma * fz
        fz = eval_F(bmap, z)
        res = float(np.max(np.abs(fz - z)))
        if res < best_res:
            best_res = res
            best_z = z.copy()
        if best_res <= target:
            break
    return FixedPointResult(
        z=best_z,
        residual=best_res,
        method="damped",
        iterations=it,
        converged=best_res <= target,
    )


def reference_propagate(bmap: BrouwerMap, cut, order, cut_values: np.ndarray) -> np.ndarray:
    z = [0.0] * bmap.dim
    for pos, node in enumerate(cut):
        z[node] = float(cut_values[pos])
    for node in order:
        z[node] = bmap.row_values[node](z)
    return np.array(z)


def reference_cycle_cut_solve(bmap: BrouwerMap) -> FixedPointResult:
    """cycle_cut_solve as it was when it ran on numpy arrays, with a
    reduced map in place of the displacement: the same iterates, stops
    and charges, written apart from the package."""
    target, max_iter, tol = DEFAULTS.brouwer_eps, 20000, 1e-11
    cut, order = feedback_cut(bmap)

    def reduced(c: np.ndarray) -> np.ndarray:
        bmap.ledger.record("cut_evals")
        z = reference_propagate(bmap, cut, order, c)
        return np.array([bmap.row_values[node](z) for node in cut])

    if len(cut) == 1:
        lo, hi = 0.0, 1.0
        c = 0.5
        gamma = 0.5
        prev_sign = 0
        it = 0
        for it in range(1, max_iter + 1):
            w = float(reduced(np.array([c]))[0] - c)
            if abs(w) <= tol:
                break
            sign = 1 if w > 0 else -1
            if sign > 0:
                lo = max(lo, c)
            else:
                hi = min(hi, c)
            if prev_sign and sign != prev_sign:
                gamma *= 0.5
            prev_sign = sign
            cn = c + gamma * w
            if not (lo < cn < hi):
                cn = 0.5 * (lo + hi)
            c = cn
        cut_values = np.array([c])
    else:
        rng = random.Random(0)
        best_c = None
        best_norm = np.inf
        it = 0
        for attempt in range(8):
            c = np.full(len(cut), 0.5) if attempt == 0 else np.array([rng.random() for _ in cut])
            gamma = 0.5
            prev_norm = np.inf
            for _ in range(max_iter):
                it += 1
                w = reduced(c) - c
                norm = float(np.max(np.abs(w)))
                if norm < best_norm:
                    best_norm = norm
                    best_c = c.copy()
                if norm <= tol:
                    break
                if norm > prev_norm:
                    gamma = max(gamma * 0.5, 1e-6)
                prev_norm = norm
                c = np.clip(c + gamma * w, 0.0, 1.0)
            if best_norm <= tol:
                break
        cut_values = best_c
    z = reference_propagate(bmap, cut, order, cut_values)
    res = residual(bmap, z)
    return FixedPointResult(z, res, "cycle_cut", it, res <= target)


class TestEarlyStop:
    """The 500-step stop rule of damped_iteration only shortens attempts
    that would not have improved again: against the loop without it, the
    best point, residual and flag are the same and no more F is spent."""

    @pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in every_instance()])
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
        "make", [pytest.param(make, id=name) for name, make in every_instance() if len(make().nodes) <= 3]
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


def reference_find_fixed_point(bmap: BrouwerMap, damped_steps: int = 5000, seed: int = 0) -> FixedPointResult:
    """find_fixed_point as it was before the cut solver came straight after
    the centre attempt: damped iteration from the centre and two random
    starts, then from the grid restart point for d <= 3, then the
    feedback-cut solver."""
    rng = np.random.default_rng(seed)
    best: Optional[FixedPointResult] = None
    for attempt in range(3):
        z0 = None if attempt == 0 else rng.random(bmap.dim)
        result = damped_iteration(bmap, z0=z0, steps=damped_steps)
        if best is None or result.residual < best.residual:
            best = result
        if result.converged:
            return result
    if bmap.dim <= 3:
        result = damped_iteration(bmap, z0=grid_restart_point(bmap), steps=damped_steps)
        result.method = "grid_restart"
        if result.converged:
            return result
        if result.residual < best.residual:
            best = result
    result = cycle_cut_solve(bmap)
    if result.residual < best.residual:
        best = result
    return best


def two_nor_loops() -> CircuitInstance:
    """Two disjoint nor_loop copies: one cut coordinate per copy."""
    return CircuitInstance(
        nodes=("a", "b", "c", "x", "y", "w"),
        gates=(purify("a", "b", "c"), nor("b", "c", "a"), purify("x", "y", "w"), nor("y", "w", "x")),
    )


# every circuit of tests/circuits.py with every oracle table, the gadget and
# the 35-node build_chain: 40 maps, each with a one-node feedback cut
EVERY_MAP = [pytest.param(make, id=name) for name, make in [*every_instance(), ("build_chain", build_chain)]]


def assert_same_result(got: FixedPointResult, expected: FixedPointResult) -> None:
    assert got.z.tobytes() == expected.z.tobytes()
    assert got.residual == expected.residual
    assert got.method == expected.method
    assert got.iterations == expected.iterations


class TestCentreThenCut:
    """find_fixed_point against the staged search it replaces, which tried
    two random starts and the grid restart before the cut solver."""

    @pytest.mark.parametrize("make", EVERY_MAP)
    def test_centre_attempt_then_cut(self, make):
        new, old = build_brouwer(make()), build_brouwer(make())
        got = find_fixed_point(new)
        expected = reference_find_fixed_point(old)
        spent, spent_before = new.ledger.snapshot(), old.ledger.snapshot()
        if got.method == "damped":
            # the centre attempt converged, and both searches stop there
            assert_same_result(got, expected)
            assert spent == spent_before
            return
        assert got.method == "cycle_cut" and got.converged
        if expected.method == "cycle_cut":
            # the same deterministic solver won both searches
            assert_same_result(got, expected)
        work = spent["F_evals"] + spent.get("cut_evals", 0)
        assert work < spent_before["F_evals"] + spent_before.get("cut_evals", 0)
        assert spent.get("L", 0) <= spent_before.get("L", 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_coordinate_cut_converges(self, seed):
        bmap = build_brouwer(two_nor_loops())
        assert feedback_cut(bmap)[0] == [0, 3]
        result = find_fixed_point(bmap, seed=seed)
        assert result.method == "cycle_cut" and result.converged
        assert check_assignment(bmap.circuit, decode_brouwer(bmap, result.z)) == []


class TestCutSolverReference:
    """cycle_cut_solve against the array-based solver it was, on the 40 maps
    (one-coordinate cuts), two_nor_loops (a two-coordinate cut solved from
    the centre) and restart_ring (a two-coordinate cut that needs a random
    restart)."""

    @pytest.mark.parametrize("make", [
        *EVERY_MAP,
        pytest.param(two_nor_loops, id="two_nor_loops"),
        pytest.param(restart_ring, id="restart_ring"),
    ])
    def test_same_result_and_charges(self, make):
        new, old = build_brouwer(make()), build_brouwer(make())
        got, expected = cycle_cut_solve(new), reference_cycle_cut_solve(old)
        assert_same_result(got, expected)
        assert got.converged == expected.converged
        assert new.ledger.snapshot() == old.ledger.snapshot()


class TestCutRestarts:
    """On restart_ring the cut solver's centre attempt runs out and its
    first random restart converges."""

    def test_cut_solve_converges_after_a_restart(self):
        bmap = build_brouwer(restart_ring())
        assert feedback_cut(bmap)[0] == [5, 6]
        result = cycle_cut_solve(bmap)
        # all 20000 steps of the centre attempt, then 38 of attempt 1
        assert result.iterations == 20038
        assert result.converged and result.residual < 1e-11
        assert result.residual == pytest.approx(6.144e-12, rel=1e-3)
        assert check_assignment(bmap.circuit, decode_brouwer(bmap, result.z)) == []

    def test_damped_iteration_from_the_centre_misses(self):
        bmap = build_brouwer(restart_ring())
        result = damped_iteration(bmap)
        assert not result.converged
        assert result.residual == 0.28125

    def test_search_ends_in_the_cut_solve(self):
        bmap = build_brouwer(restart_ring())
        result = find_fixed_point(bmap)
        assert result.method == "cycle_cut" and result.converged
        assert result.iterations == 20038
        assert bmap.ledger.snapshot() == {"F_evals": 504, "cut_evals": 20038}


class TestSearchContract:
    """On the 40 maps: a result within 1/12 that decodes to a satisfying
    assignment, and at most |V| oracle queries per map or reduced-map
    evaluation."""

    @pytest.mark.parametrize("make", EVERY_MAP)
    def test_result_decodes_within_the_query_budget(self, make):
        bmap = build_brouwer(make())
        result = find_fixed_point(bmap)
        counts = bmap.ledger.snapshot()
        assert result.converged and result.residual <= DEFAULTS.brouwer_eps
        assert check_assignment(bmap.circuit, decode_brouwer(bmap, result.z)) == []
        assert counts.get("L", 0) <= bmap.dim * (counts["F_evals"] + counts.get("cut_evals", 0))

    @pytest.mark.parametrize("make", EVERY_MAP)
    def test_cut_solver_charges_each_reduced_evaluation(self, make):
        bmap = build_brouwer(make())
        result = cycle_cut_solve(bmap)
        counts = bmap.ledger.snapshot()
        assert counts["cut_evals"] == result.iterations
        assert counts["F_evals"] == 1  # the final residual
        assert counts.get("L", 0) <= bmap.dim * (result.iterations + 1)

    def test_totals_over_every_map(self):
        totals: dict = {}
        for param in EVERY_MAP:
            bmap = build_brouwer(param.values[0]())
            find_fixed_point(bmap)
            for key in ("F_evals", "cut_evals", "L"):
                totals[key] = totals.get(key, 0) + bmap.ledger.count(key)
        assert totals == {"F_evals": 10374, "cut_evals": 486, "L": 5424}
