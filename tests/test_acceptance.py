"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not configurable.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from minmaxlab.boolinterp import BoolOracle, dense_sum_eval, interp_eval
from minmaxlab.brouwer import (
    build_brouwer,
    cycle_cut_solve,
    damped_iteration,
    decode_brouwer,
    eval_F,
    eval_JF,
    residual as brouwer_residual,
)
from minmaxlab.circuit import Assignment, BOT, build_constant_gadget, check_assignment
from minmaxlab.gda import derive_parameters, endpoint_gap, eval_f, eval_grad_f
from minmaxlab.harness import BilinearToy, grid_search_stationary, run_extragradient, run_pgda
from minmaxlab.ledger import QueryLedger
from minmaxlab.smoothstep import StepSpec, step_d1, step_d2, step_eval
from minmaxlab.sperner import (
    SpernerSolution,
    TEST_MAPS,
    brouwer_to_labeling,
    decode_sperner_to_fixed_point,
    find_sperner_solution_exhaustive,
    verify_sperner_solution,
)

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop
from test_gda import scaled


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_smooth_step_bounds():
    start = time.perf_counter()
    spec = StepSpec(1.0 / 3.0, 2.0 / 3.0)
    rng = np.random.default_rng(101)
    xs = rng.uniform(0.0, 1.0, size=100_000)
    sup1 = max(abs(step_d1(spec, float(x))) for x in xs)
    sup2 = max(abs(step_d2(spec, float(x))) for x in xs)
    plateaus = (
        step_eval(spec, 0.0) == 0.0
        and step_eval(spec, 1.0 / 3.0) == 0.0
        and step_eval(spec, 2.0 / 3.0) == 1.0
        and step_eval(spec, 1.0) == 1.0
        and all(step_eval(spec, float(x)) == 0.0 for x in xs[:2000][xs[:2000] <= 1 / 3])
        and all(step_eval(spec, float(x)) == 1.0 for x in xs[:2000][xs[:2000] >= 2 / 3])
    )
    elapsed = time.perf_counter() - start
    ok = sup1 <= math.exp(6.0) and sup2 <= 12.0 * math.exp(12.0) and plateaus and elapsed < 1.0
    report(
        1,
        "smooth-step derivative bounds and exact plateaus",
        ok,
        f"sup|d1|={sup1:.1f}<=e^6={math.exp(6):.1f}, sup|d2|={sup2:.3g}<=12e^12={12*math.exp(12):.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_interpolation_exactness_and_budget():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    exact = True
    budget_ok = True
    for arity in range(1, 9):
        for _ in range(50):
            ledger = QueryLedger()
            table = rng.integers(0, 2, size=1 << arity).tolist()
            oracle = BoolOracle.from_truth_table(table, ledger=ledger)
            for _ in range(1000):
                vertex = tuple(int(b) for b in rng.integers(0, 2, size=arity))
                x = [
                    float(b) + (1 - 2 * b) * rng.uniform(0.0, 1.0 / 6.0)
                    for b in vertex
                ]
                before = ledger.count("L")
                value = interp_eval(x, oracle)
                if ledger.count("L") - before > 1:
                    budget_ok = False
                if value != float(oracle.fn(vertex)):
                    exact = False
    dense_ok = True
    for arity in range(1, 9):
        table = rng.integers(0, 2, size=1 << arity).tolist()
        oracle = BoolOracle.from_truth_table(table)
        for _ in range(1000):
            x = rng.random(arity).tolist()
            if interp_eval(x, oracle) != dense_sum_eval(x, oracle.fn, arity):
                dense_ok = False
    elapsed = time.perf_counter() - start
    ok = exact and budget_ok and dense_ok and elapsed < 30.0
    report(
        2,
        "interpolation bit-exact on vertex boxes, <=1 query, dense-sum equal",
        ok,
        f"exact={exact}, budget={budget_ok}, dense={dense_ok}, {elapsed:.1f}s",
    )


def test_criterion_3_constant_gadget_soundness():
    start = time.perf_counter()
    gadget = build_constant_gadget()
    nodes = gadget.instance.nodes
    satisfying = 0
    pinned = True
    for combo in product((0, 1, BOT), repeat=12):
        b = Assignment(dict(zip(nodes, combo)))
        if not check_assignment(gadget.instance, b):
            satisfying += 1
            if not (b[gadget.zero_node] == 0 and b[gadget.one_node] == 1):
                pinned = False
    elapsed = time.perf_counter() - start
    ok = satisfying > 0 and pinned and elapsed < 60.0
    report(
        3,
        "all 3^12 assignments: satisfying ones pin v9=0 and v12=1",
        ok,
        f"satisfying={satisfying}, pinned={pinned}, {elapsed:.1f}s",
    )


def test_criterion_4_grid_reduction_end_to_end():
    start = time.perf_counter()
    eps = 0.2
    residuals = {}
    boundary_ok = True
    for name, fmap in sorted(TEST_MAPS.items()):
        inst = brouwer_to_labeling(fmap.fn, fmap.d, eps)
        assert inst.M == 16
        for t in range(1, inst.M + 1):
            for i in range(fmap.d):
                low = [t] * fmap.d
                low[i] = 1
                if inst.query(tuple(low))[i] != 1:
                    boundary_ok = False
                high = [t] * fmap.d
                high[i] = inst.M
                if inst.query(tuple(high))[i] != -1:
                    boundary_ok = False
        sol = find_sperner_solution_exhaustive(inst)
        ok_sol, _ = verify_sperner_solution(inst, sol)
        assert ok_sol
        z = decode_sperner_to_fixed_point(sol, inst.M)
        residuals[name] = float(np.max(np.abs(fmap.fn(z) - z)))
    elapsed = time.perf_counter() - start
    ok = boundary_ok and all(r <= eps for r in residuals.values()) and elapsed < 60.0
    report(
        4,
        "grid labeling search + decode reaches residual <= 0.2 on all test maps",
        ok,
        f"residuals={ {k: round(v, 4) for k, v in residuals.items()} }, boundary={boundary_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_brouwer_soundness_small_circuits():
    start = time.perf_counter()
    gadget = build_constant_gadget()
    instances = [
        ("nor_loop", nor_loop()),
        ("purify_loop", purify_loop()),
        ("oracle_pair", oracle_pair()),
        ("oracle_attracting", oracle_attracting()),
        ("constant_gadget", gadget.instance),
    ]
    outcomes = []
    all_ok = True
    for name, inst in instances:
        bmap = build_brouwer(inst)
        result = damped_iteration(bmap, steps=4000)
        if not result.converged:
            # repelling interior fixed point: damp the feedback-cut
            # reduction instead (see decisions ledger)
            result = cycle_cut_solve(bmap)
        decoded = decode_brouwer(bmap, result.z)
        violations = check_assignment(inst, decoded)
        before = inst.ledger.count("L")
        eval_F(bmap, result.z)
        delta = inst.ledger.count("L") - before
        ok = result.residual <= 1.0 / 12.0 and violations == [] and delta <= bmap.dim
        all_ok = all_ok and ok
        outcomes.append(f"{name}:{result.method},res={result.residual:.2e}")
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 120.0
    report(
        5,
        "residual <= 1/12 points decode to satisfying assignments (5 circuits)",
        ok,
        "; ".join(outcomes) + f", {elapsed:.1f}s",
    )


def test_criterion_6_jacobian_and_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    h_jac = 1e-6
    worst_jac = 0.0
    for factory in (nor_loop, purify_loop, oracle_pair, oracle_purify, oracle_attracting):
        bmap = build_brouwer(factory())
        for _ in range(100):
            z = rng.uniform(h_jac, 1 - h_jac, size=bmap.dim)
            jac = eval_JF(bmap, z)
            for j in range(bmap.dim):
                up = z.copy()
                up[j] += h_jac
                down = z.copy()
                down[j] -= h_jac
                col = (eval_F(bmap, up) - eval_F(bmap, down)) / (2 * h_jac)
                for i in range(bmap.dim):
                    err = float(abs(col[i] - jac[i, j]))
                    scale = float(max(abs(col[i]), abs(jac[i, j])))
                    if scale > 1.0:
                        err /= scale
                    worst_jac = max(worst_jac, err)
    jac_ok = worst_jac <= 1e-5

    h = 1e-5
    worst_grad = 0.0

    def grad_fd_err(inst, x, y, coords):
        gx, gy = eval_grad_f(inst, x, y)
        worst = 0.0
        for j in coords:
            for vec, grad, is_x in ((x, gx, True), (y, gy, False)):
                up = vec.copy()
                up[j] += h
                down = vec.copy()
                down[j] -= h
                if is_x:
                    fd = (eval_f(inst, up, y) - eval_f(inst, down, y)) / (2 * h)
                else:
                    fd = (eval_f(inst, x, up) - eval_f(inst, x, down)) / (2 * h)
                err = float(abs(fd - grad[j]))
                scale = float(max(abs(fd), abs(grad[j])))
                if scale > 1.0:
                    err /= scale
                worst = max(worst, err)
        return worst

    for factory in (nor_loop, purify_loop, oracle_purify):
        for n in (2, 4):
            inst = scaled(factory(), n=n)
            # two points checked on every coordinate of both players
            for _ in range(2):
                x = rng.uniform(h, 1 - h, inst.dim)
                y = rng.uniform(h, 1 - h, inst.dim)
                worst_grad = max(worst_grad, grad_fd_err(inst, x, y, range(inst.dim)))
            # plus 100 random interior points on sampled coordinates
            for _ in range(100):
                x = rng.uniform(h, 1 - h, inst.dim)
                y = rng.uniform(h, 1 - h, inst.dim)
                coords = rng.choice(inst.dim, size=min(3, inst.dim), replace=False)
                worst_grad = max(worst_grad, grad_fd_err(inst, x, y, coords))
    grad_ok = worst_grad <= 1e-4
    elapsed = time.perf_counter() - start
    ok = jac_ok and grad_ok and elapsed < 300.0
    report(
        6,
        "Jacobian within 1e-5 and objective gradient within 1e-4 of differences",
        ok,
        f"jac_err={worst_jac:.2e}, grad_err={worst_grad:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_stationarity_checker_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    grid = np.linspace(0.0, 1.0, 1001)
    exact_equal = True
    for _ in range(200):
        x = rng.random(2)
        y = rng.random(2)
        gx = rng.uniform(-2, 2, 2)
        gy = rng.uniform(-2, 2, 2)
        brute = -math.inf
        for j in range(2):
            brute = max(brute, float(np.max(-gx[j] * (grid - x[j]))))
            brute = max(brute, float(np.max(gy[j] * (grid - y[j]))))
        if endpoint_gap(x, y, gx, gy) != brute:
            exact_equal = False
    xs, ys, gap = grid_search_stationary(BilinearToy(), resolution=101)
    located = gap <= 1.0 / 100.0 and abs(xs[0] - 0.5) <= 1e-12 and abs(ys[0] - 0.5) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = exact_equal and located and elapsed < 60.0
    report(
        7,
        "endpoint gap equals grid brute force; grid search finds the saddle",
        ok,
        f"exact={exact_equal}, saddle_gap={gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_parameter_formulas():
    start = time.perf_counter()
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    formulas_ok = True
    overflow_reported = True
    details = []
    for m in (1, 2, 3):
        p = derive_parameters(m=m, rho=1.0 / 12.0, mode="paper")
        rho = mp.mpf(1) / 12
        delta_hp = rho**4 / (400 * m**2 * mp.e**26)
        n_hp = mp.ceil(2**13 * mp.e**13 * m**4 / delta_hp**3)
        eps_hp = min(delta_hp / n_hp, delta_hp**2 / (m**4 * 2**4 * mp.e**14))
        if abs(p.delta / float(delta_hp) - 1.0) > 1e-12:
            formulas_ok = False
        if abs(float(mp.mpf(p.n) / n_hp) - 1.0) > 1e-10:
            formulas_ok = False
        if abs(p.eps / float(eps_hp) - 1.0) > 1e-10:
            formulas_ok = False
        if abs(p.log2_n - float(mp.log(n_hp, 2))) > 1e-6:
            formulas_ok = False
        if p.feasible:
            overflow_reported = False
        details.append(f"m={m}: log2(n)={p.log2_n:.1f}")
    elapsed = time.perf_counter() - start
    ok = formulas_ok and overflow_reported and elapsed < 1.0
    report(
        8,
        "closed-form schedule matches 60-digit evaluation; overflow reported",
        ok,
        "; ".join(details) + f", {elapsed:.2f}s",
    )


def test_criterion_9_cycling_observable():
    start = time.perf_counter()
    pgda = run_pgda(
        BilinearToy(),
        steps=100_000,
        lr=0.3,
        x0=np.array([0.9]),
        y0=np.array([0.9]),
        gap_every=1000,
    )
    eg = run_extragradient(
        BilinearToy(),
        steps=10_000,
        lr=0.1,
        x0=np.array([0.9]),
        y0=np.array([0.9]),
        gap_every=100,
    )
    elapsed = time.perf_counter() - start
    cycling = (not pgda.aborted) and pgda.best_gap > 1e-3
    converging = (not eg.aborted) and eg.best_gap <= 1e-6
    ok = cycling and converging and elapsed < 60.0
    report(
        9,
        "pgda at lr=0.3 never reaches 1e-3 in 1e5 iters; extragradient hits 1e-6",
        ok,
        f"pgda_best={pgda.best_gap:.3e}, eg_best={eg.best_gap:.3e}, {elapsed:.1f}s",
    )
