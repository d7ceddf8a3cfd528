"""Whole-chain integration: grid labeling -> circuit oracle -> smooth map
-> min-max objective, with query accounting through every layer."""

import hashlib
from functools import partial

import numpy as np
import pytest

from minmaxlab.brouwer import build_brouwer, eval_F, eval_JF, find_fixed_point
from minmaxlab.circuit import build_constant_gadget, validate_instance
from minmaxlab.gda import build_gda_instance, derive_parameters, eval_f, eval_grad_f
from minmaxlab.config import DEFAULTS
from minmaxlab.harness import GdaObjective, fd_check, run_pgda
from minmaxlab.sperner import (
    _label_grid,
    brouwer_to_labeling,
    find_sperner_solution_exhaustive,
    get_test_map,
    verify_sperner_solution,
)

from circuits import build_chain, nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop
from oracles import central_diff, rel_err


class TestChain:
    def test_circuit_well_formed(self):
        assert validate_instance(build_chain()) == []

    def test_map_queries_reach_the_inner_map(self):
        circuit = build_chain()
        bmap = build_brouwer(circuit)
        # selector bits (last two oracle inputs) one-hot: the labeling,
        # and through it the inner 2-d map, is queried exactly once
        z = np.zeros(35)
        idx = {v: i for i, v in enumerate(bmap.node_order)}
        z[idx["p33"]] = 1.0  # selector coordinate 1
        before = circuit.ledger.snapshot()
        out = eval_F(bmap, z)
        after = circuit.ledger.snapshot()
        assert after["L"] - before.get("L", 0) == 1
        assert after["lambda"] - before.get("lambda", 0) == 1
        assert after["F"] - before.get("F", 0) == 1
        assert out[idx["o"]] in (0.0, 1.0)

    def test_malformed_selector_spares_the_labeling(self):
        circuit = build_chain()
        bmap = build_brouwer(circuit)
        z = np.zeros(35)  # all-zero selector: oracle answers 0 directly
        before = circuit.ledger.snapshot()
        eval_F(bmap, z)
        assert circuit.ledger.count("lambda") == before.get("lambda", 0)
        assert circuit.ledger.count("F") == before.get("F", 0)
        assert circuit.ledger.count("L") == 1

    def test_jacobian_queries_bounded_by_nodes(self):
        circuit = build_chain()
        bmap = build_brouwer(circuit)
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = rng.random(35)
            before = circuit.ledger.count("L")
            eval_JF(bmap, z)
            assert circuit.ledger.count("L") - before <= bmap.dim

    def test_gda_objective_over_the_chain(self):
        circuit = build_chain()
        params = derive_parameters(m=35, mode="scaled", delta=0.05, n=2, eps=1e-4)
        inst = build_gda_instance(circuit, params)
        assert inst.dim == 35 * 2 * 35
        rng = np.random.default_rng(5)
        x = rng.random(inst.dim)
        y = rng.random(inst.dim)
        before = inst.ledger.count("L")
        value = eval_f(inst, x, y)
        assert np.isfinite(value)
        budget = (inst.n * inst.m + 1) * len(inst.node_order)
        assert inst.ledger.count("L") - before <= budget
        # spot-check the analytic gradient against differences
        h = 1e-5
        x = rng.uniform(h, 1 - h, inst.dim)
        y = rng.uniform(h, 1 - h, inst.dim)
        gx, gy = eval_grad_f(inst, x, y)
        for j in rng.choice(inst.dim, size=5, replace=False):
            def fx(t, j=j):
                xx = x.copy()
                xx[j] = t
                return eval_f(inst, xx, y)

            assert rel_err(central_diff(fx, x[j], h), gx[j]) <= 1e-4

    def test_gda_value_at_equal_points(self):
        circuit = build_chain()
        params = derive_parameters(m=35, mode="scaled", delta=0.05, n=2, eps=1e-4)
        inst = build_gda_instance(circuit, params)
        rng = np.random.default_rng(7)
        x = rng.random(inst.dim)
        assert eval_f(inst, x, x) == 0.0


class TestPinnedQueryCounts:
    """Whole ledgers of small runs, pinned to the counts measured before
    the plateau-first gate kernel and the one-walk validators; any change
    in what is queried, or how often, shows here."""

    def test_exhaustive_sperner_on_oracle_purify(self):
        bmap = build_brouwer(oracle_purify())
        inst = brouwer_to_labeling(partial(eval_F, bmap), bmap.dim, 0.3, ledger=bmap.ledger)
        sol = find_sperner_solution_exhaustive(inst)
        assert inst.M == 11
        assert sol is not None and sol.points == ((1, 1, 1), (1, 1, 1), (2, 2, 2))
        assert verify_sperner_solution(inst, sol)[0]
        assert bmap.ledger.snapshot() == {"lambda": 1333, "F": 1333, "F_evals": 1333, "L": 706}

    @pytest.mark.parametrize(
        "circuit, expected",
        [
            (lambda: build_constant_gadget().instance, {"grad_f_evals": 50, "F_evals": 800, "JF_evals": 800}),
            (oracle_purify, {"grad_f_evals": 50, "L": 50}),
        ],
    )
    def test_pgda_50_steps_at_n4(self, circuit, expected):
        circ = circuit()
        params = derive_parameters(len(circ.nodes), mode="scaled", delta=0.05, n=4, eps=1e-4)
        inst = build_gda_instance(circ, params)
        run = run_pgda(GdaObjective(inst), 50, seed=0)
        assert run.iterations == 50
        assert inst.ledger.snapshot() == expected

    def test_fd_check_on_oracle_purify_at_n16(self):
        # the audit `minmaxlab grad-check` runs on a descriptor, which
        # evaluates F at the replicas of live (and, in the gradient, fed)
        # blocks only; any change in what the audit evaluates shows here
        params = derive_parameters(3, mode="scaled", delta=0.05, n=16, eps=1e-4)
        inst = build_gda_instance(oracle_purify(), params)
        d, h = inst.dim, DEFAULTS.grad_fd_step
        rng = np.random.default_rng(0)
        points = [h + (1 - 2 * h) * rng.random(2 * d) for _ in range(2)]
        report = fd_check(lambda v: eval_f(inst, v[:d], v[d:]),
                          lambda v: np.concatenate(eval_grad_f(inst, v[:d], v[d:])), points, h)
        assert report.checked == 2 and report.max_rel_err <= DEFAULTS.grad_fd_rel_tol
        assert inst.ledger.snapshot() == {
            "f_evals": 1152, "grad_f_evals": 2, "F_evals": 18464, "JF_evals": 32, "L": 6935,
        }

    @pytest.mark.parametrize(
        "circuit, method, expected",
        [
            (nor_loop, "cycle_cut", {"F_evals": 528, "cut_evals": 24}),
            (purify_loop, "damped", {"F_evals": 12}),
            (lambda: oracle_pair((1, 1)), "damped", {"F_evals": 2}),
            (oracle_purify, "cycle_cut", {"F_evals": 535, "L": 309, "cut_evals": 24}),
            (lambda: oracle_attracting((1, 0, 0, 0)), "damped", {"F_evals": 16, "L": 11}),
            (lambda: build_constant_gadget().instance, "cycle_cut", {"F_evals": 504, "cut_evals": 40}),
        ],
        ids=["nor_loop", "purify_loop", "oracle_pair", "oracle_purify", "oracle_attracting", "gadget"],
    )
    def test_find_fixed_point_seed_0(self, circuit, method, expected):
        # the circuits of the benchmark's fixed-point workload, with the
        # tables it draws at seed 0; counts measured with the 500-step stop
        # rule of damped_iteration.  nor_loop, oracle_purify and the gadget
        # fail the centre attempt, so the cut solver runs straight after it:
        # the centre's F_evals (527, 534 and 503), the solver's reduced
        # evaluations (cut_evals) and its one residual
        bmap = build_brouwer(circuit())
        result = find_fixed_point(bmap, seed=0)
        assert result.converged and result.method == method
        assert bmap.ledger.snapshot() == expected


class TestPinnedLabels:
    """Every label of the fixed-point benchmark's two Sperner grids (eps
    0.07, so M = 44), as the sha256 of their packed codes, measured before
    the labeling path was trimmed; a change that flips one label shows here."""

    def test_oracle_purify_map(self):
        bmap = build_brouwer(oracle_purify())
        inst = brouwer_to_labeling(partial(eval_F, bmap), bmap.dim, 0.07)
        codes = bytes(_label_grid(inst))
        assert inst.M == 44 and len(codes) == 44**3
        assert hashlib.sha256(codes).hexdigest() == "fc0e12649e64ea40025fa41b1f43bdefacb46d7ef2a94be3a876504d73d0c4a1"
        assert inst.ledger.snapshot() == {"lambda": 44**3, "F": 44**3}
        assert bmap.ledger.snapshot() == {"F_evals": 44**3, "L": 34496}

    def test_smoothed_rotation(self):
        fmap = get_test_map("smoothed_rotation")
        inst = brouwer_to_labeling(fmap.fn, fmap.d, 0.07)
        codes = bytes(_label_grid(inst))
        assert len(codes) == 44**2
        assert hashlib.sha256(codes).hexdigest() == "12d227270fff522768e37dc7d8e5614167d355d1e67e9d1a9f19c9f48d9d6f95"
