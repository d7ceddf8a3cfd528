import json
import math

import numpy as np
import pytest

from minmaxlab.boolinterp import dense_sum_eval
from minmaxlab.circuit import BOT, build_constant_gadget, check_assignment
from minmaxlab.gda import (
    block_energies,
    build_gda_instance,
    decode_gda,
    derive_parameters,
    dichotomy_extract,
    endpoint_gap,
    eval_f,
    eval_grad_f,
    regularizer,
    signals,
    stationarity_gap,
)
from minmaxlab.smoothstep import StepSpec, step_eval
from minmaxlab.circuit import circuit_to_json
from minmaxlab.cli import _load_instance

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop
from oracles import central_diff, rel_err


def scaled(circuit, n=4, delta=0.05, eps=1e-4):
    params = derive_parameters(
        m=len(circuit.nodes), mode="scaled", delta=delta, n=n, eps=eps
    )
    return build_gda_instance(circuit, params)


def split_pair(inst, rng):
    x = rng.random(inst.dim)
    y = rng.random(inst.dim)
    return x, y


def pair_with_block_targets(inst, rng, targets):
    """x = y everywhere except the targeted blocks, whose squared distance
    is steered to the requested value."""
    x = rng.random(inst.dim)
    y = x.copy()
    bx, by = inst.blocks(x), inst.blocks(y)
    for node, sq_target in targets.items():
        v = inst.node_order.index(node)
        size = inst.n * inst.m
        base = math.sqrt(sq_target / size)
        jitter = min(0.02, 0.9 * (1.0 - base))
        t = base + rng.uniform(-jitter, jitter, size=size)
        t *= math.sqrt(sq_target) / math.sqrt(float(np.sum(t * t)))
        assert np.all(t <= 1.0) and np.all(t >= 0.0)
        bx[v] = (0.5 - t / 2.0).reshape(inst.n, inst.m)
        by[v] = (0.5 + t / 2.0).reshape(inst.n, inst.m)
    return bx.reshape(inst.dim), by.reshape(inst.dim)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class TestParameters:
    def test_paper_delta_formula(self):
        p = derive_parameters(m=1, rho=1.0 / 12.0, mode="paper")
        assert p.delta == (1.0 / 12.0) ** 4 / (400.0 * math.exp(26.0))

    def test_paper_mode_overflows_for_all_m(self):
        for m in (1, 2, 3, 12):
            p = derive_parameters(m=m, mode="paper")
            assert not p.feasible
            assert p.log2_n > 63.0

    @pytest.mark.parametrize("m", [1, 3, 12])
    @pytest.mark.parametrize("rho", [1e-21, 1e-30, 1e-80, 5e-324])
    def test_paper_mode_small_rho_is_an_infeasible_record(self, m, rho):
        # n overflows a double and delta**3 underflows to 0 here; log2 n
        # still follows the closed form, in log space
        p = derive_parameters(m=m, rho=rho, mode="paper")
        assert not p.feasible and p.as_dict()["n"] is None
        log2_delta = 4 * math.log2(rho) - math.log2(400 * m**2) - 26 / math.log(2)
        expected = 13 + 13 / math.log(2) + 4 * math.log2(m) - 3 * log2_delta
        assert math.isfinite(p.log2_n) and p.log2_n == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError, match="infeasible"):
            build_gda_instance(nor_loop(), p)

    def test_infeasible_params_cannot_build(self):
        p = derive_parameters(m=3, mode="paper")
        with pytest.raises(ValueError, match="infeasible"):
            build_gda_instance(nor_loop(), p)

    def test_scaled_accepts_verbatim(self):
        p = derive_parameters(m=2, mode="scaled", delta=0.1, n=4, eps=1e-4)
        assert (p.delta, p.n, p.eps) == (0.1, 4, 1e-4)
        assert p.feasible and p.mode == "scaled"

    def test_scaled_requires_even_n(self):
        with pytest.raises(ValueError):
            derive_parameters(m=2, mode="scaled", delta=0.1, n=3, eps=1e-4)
        with pytest.raises(ValueError):
            derive_parameters(m=2, mode="scaled", delta=-0.1, n=4, eps=1e-4)

    @pytest.mark.parametrize(
        "delta, n, eps",
        [
            (math.nan, 4, 1e-4),
            (math.inf, 4, 1e-4),
            (0.1, 4, math.nan),
            (0.1, 4, math.inf),
            (0.1, math.inf, 1e-4),
            (0.1, math.nan, 1e-4),
        ],
    )
    def test_scaled_rejects_non_finite(self, delta, n, eps):
        with pytest.raises(ValueError):
            derive_parameters(m=2, mode="scaled", delta=delta, n=n, eps=eps)

    @pytest.mark.parametrize("delta, eps", [(True, 1e-4), (0.1, True), (True, True)])
    def test_scaled_rejects_bools(self, delta, eps):
        # a bool is a numbers.Real, but true is not a number, here or in a descriptor
        with pytest.raises(ValueError, match="delta and eps must be finite positive numbers"):
            derive_parameters(m=3, mode="scaled", delta=delta, n=2, eps=eps)

    def test_bool_rho_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"rho must lie in \(0,1\), got True"):
            derive_parameters(m=3, rho=True, mode="scaled", delta=0.1, n=2, eps=1e-4)

    def test_mode_recorded(self):
        p = derive_parameters(m=2, mode="scaled", delta=0.1, n=4, eps=1e-4)
        assert p.as_dict()["mode"] == "scaled"


class TestInstance:
    def test_dimension(self):
        inst = scaled(nor_loop(), n=4)
        assert inst.dim == 3 * 4 * 3  # |V| * n * m

    def test_m_must_match_circuit(self):
        params = derive_parameters(m=5, mode="scaled", delta=0.1, n=4, eps=1e-4)
        with pytest.raises(ValueError, match="nodes"):
            build_gda_instance(nor_loop(), params)

    def test_regularizer_weights(self):
        inst = scaled(purify_loop(), n=4, delta=0.1)
        assert np.allclose(inst.weights, [-0.1, 0.0, 0.1, 0.2])
        assert inst.weights[inst.n // 2 - 1] == 0.0

    def test_flat_index_layout(self):
        inst = scaled(nor_loop(), n=2)
        k = 0
        for v in inst.node_order:
            for i in range(1, inst.n + 1):
                for j in range(1, inst.m + 1):
                    assert inst.flat_index(v, i, j) == k
                    k += 1

    def test_unknown_node_rejected(self):
        inst = scaled(nor_loop(), n=2)
        assert inst.bmap.index("c") == 2
        with pytest.raises(ValueError):
            inst.bmap.index("zz")
        with pytest.raises(ValueError):
            inst.flat_index("zz", 1, 1)

    @pytest.mark.parametrize("i, j", [(1.5, 1), (1, 1.5), (math.nan, 1), (1, math.nan)])
    def test_flat_index_must_be_a_whole_number(self, i, j):
        inst = scaled(nor_loop(), n=2)
        with pytest.raises(ValueError, match="whole number"):
            inst.flat_index("a", i, j)

    def test_flat_index_takes_whole_numbers_as_ints(self):
        inst = scaled(nor_loop(), n=2)
        assert inst.flat_index("b", True, True) == inst.flat_index("b", 1, 1) == 6
        assert inst.flat_index("b", 2.0, np.int64(3)) == inst.flat_index("b", 2, 3) == 11
        with pytest.raises(ValueError, match=r"replica/inner index out of range: \(3, 1\)"):
            inst.flat_index("b", 3.0, 1)


# ---------------------------------------------------------------------------
# energies and signals
# ---------------------------------------------------------------------------

class TestEnergy:
    def test_zero_at_equal_points(self):
        inst = scaled(nor_loop(), n=4)
        rng = np.random.default_rng(2)
        x = rng.random(inst.dim)
        for v in inst.node_order:
            assert block_energies(inst, x, x)[inst.bmap.index(v)] == 0.0

    def test_one_at_integer_distance(self):
        # m = 2, n = 4: block has 8 coordinates; 3m + 1 = 7 ones exactly
        inst = scaled(oracle_pair(), n=4)
        x = np.zeros(inst.dim)
        y = np.zeros(inst.dim)
        bky = inst.blocks(y)
        bky[0, :, :] = 1.0
        bky[0, 3, 1] = 0.0  # 7 of 8 coordinates differ by 1
        y = bky.reshape(inst.dim)
        assert block_energies(inst, x, y)[inst.bmap.index("a")] == 1.0
        assert block_energies(inst, x, y)[inst.bmap.index("b")] == 0.0

    def test_strictly_interior_between_knees(self):
        inst = scaled(oracle_pair(), n=4)
        rng = np.random.default_rng(3)
        x, y = pair_with_block_targets(inst, rng, {"a": 6.5})
        e = block_energies(inst, x, y)[inst.bmap.index("a")]
        assert 0.0 < e < 1.0

    def test_matches_direct_step(self):
        inst = scaled(nor_loop(), n=4)
        rng = np.random.default_rng(5)
        x, y = split_pair(inst, rng)
        spec = StepSpec(3.0 * inst.m, 3.0 * inst.m + 1.0)
        for v in inst.node_order:
            vi = inst.node_order.index(v)
            sq = float(np.sum((inst.blocks(x)[vi] - inst.blocks(y)[vi]) ** 2))
            assert block_energies(inst, x, y)[inst.bmap.index(v)] == step_eval(spec, sq)


class TestSignals:
    def test_nor_signal_at_zero_energies(self):
        inst = scaled(nor_loop(), n=4)
        rng = np.random.default_rng(7)
        x = rng.random(inst.dim)
        assert signals(inst, x, x)[inst.bmap.index("a")] == 1.0  # g(0 + 0)

    def test_purify_signals_at_zero_energy(self):
        inst = scaled(purify_loop(), n=4)
        x = np.full(inst.dim, 0.25)
        # first output ell(-1/4) = 0, second output ell(+1/4) = 0
        assert signals(inst, x, x)[inst.bmap.index("b")] == 0.0
        assert signals(inst, x, x)[inst.bmap.index("c")] == 0.0

    def test_purify_signals_at_full_energy(self):
        inst = scaled(purify_loop(), n=4)
        x = np.zeros(inst.dim)
        y = np.zeros(inst.dim)
        bky = inst.blocks(y)
        # block a: 3m + 1 = 13 unit coordinates out of 16
        bky[0].flat[:13] = 1.0
        y = bky.reshape(inst.dim)
        assert block_energies(inst, x, y)[inst.bmap.index("a")] == 1.0
        assert signals(inst, x, y)[inst.bmap.index("b")] == 1.0  # ell(1 - 1/4)
        assert signals(inst, x, y)[inst.bmap.index("c")] == 1.0  # ell(1 + 1/4)

    def test_oracle_signal_on_boolean_energies(self):
        inst = scaled(oracle_purify(table=(0, 1, 1, 0)), n=4)  # XOR(a, c)
        x = np.zeros(inst.dim)
        y = np.zeros(inst.dim)
        bky = inst.blocks(y)
        bky[0].flat[:10] = 1.0  # block a far: E_a = 1 (3m + 1 = 10 of 12)
        y = bky.reshape(inst.dim)
        before = inst.ledger.count("L")
        assert signals(inst, x, y)[inst.bmap.index("b")] == 1.0  # L(1, 0) = XOR = 1
        assert inst.ledger.count("L") - before <= 1


# ---------------------------------------------------------------------------
# independent naive evaluator (the structural oracle)
# ---------------------------------------------------------------------------

def naive_F(circuit, z):
    """Coordinate map recomputed from the gate formulas, vertex sum form."""
    order = list(circuit.nodes)
    idx = {v: i for i, v in enumerate(order)}
    out = np.empty(len(order))
    ell = lambda t: step_eval(StepSpec(5.0 / 12.0, 7.0 / 12.0), t)
    g = lambda t: 1.0 - step_eval(StepSpec(1.0 / 3.0, 2.0 / 3.0), t)
    for gate in circuit.gates:
        if gate.kind == "NOR":
            u, v = gate.inputs
            (w,) = gate.outputs
            out[idx[w]] = g(z[idx[u]] + z[idx[v]])
        elif gate.kind == "PURIFY":
            (u,) = gate.inputs
            v, w = gate.outputs
            out[idx[v]] = ell(z[idx[u]] + 0.25)
            out[idx[w]] = ell(z[idx[u]] - 0.25)
        else:
            (v,) = gate.outputs
            point = [float(z[idx[u]]) for u in gate.inputs]
            out[idx[v]] = dense_sum_eval(point, circuit.oracle.fn, len(point))
    return out


def naive_energies(inst, x, y):
    spec = StepSpec(3.0 * inst.m, 3.0 * inst.m + 1.0)
    sq = {}
    E = {}
    for v in inst.node_order:
        vi = inst.node_order.index(v)
        acc = 0.0
        for i in range(inst.n):
            for j in range(inst.m):
                d = inst.blocks(x)[vi, i, j] - inst.blocks(y)[vi, i, j]
                acc += d * d
        sq[v] = acc
        E[v] = step_eval(spec, acc)
    return E, sq


def naive_signals(inst, E):
    ell = lambda t: step_eval(StepSpec(5.0 / 12.0, 7.0 / 12.0), t)
    g = lambda t: 1.0 - step_eval(StepSpec(1.0 / 3.0, 2.0 / 3.0), t)
    s = {}
    for gate in inst.circuit.gates:
        if gate.kind == "NOR":
            u, v = gate.inputs
            (w,) = gate.outputs
            s[w] = g(E[u] + E[v])
        elif gate.kind == "PURIFY":
            (u,) = gate.inputs
            first, second = gate.outputs
            s[first] = ell(E[u] - 0.25)
            s[second] = ell(E[u] + 0.25)
        else:
            (w,) = gate.outputs
            point = [float(E[u]) for u in gate.inputs]
            s[w] = dense_sum_eval(point, inst.circuit.oracle.fn, len(point))
    return s


def naive_f(inst, x, y):
    E, sq = naive_energies(inst, x, y)
    s = naive_signals(inst, E)
    bx, by = inst.blocks(x), inst.blocks(y)
    total = 0.0
    for v in inst.node_order:
        vi = inst.node_order.index(v)
        H = 0.0
        for i in range(inst.n):
            xi = 0.5 * (bx[vi, i] + by[vi, i])
            gvec = naive_F(inst.circuit, xi) - xi
            H += float(np.dot(gvec, by[vi, i] - bx[vi, i]))
        total += s[v] * H
    for v in inst.node_order:
        vi = inst.node_order.index(v)
        for i in range(inst.n):
            d = bx[vi, i] - by[vi, i]
            total += inst.weights[i] * float(np.dot(d, d))
    return total


def naive_grad(inst, x, y):
    """Per-coordinate recomputation; inner Jacobian and signal slopes via
    central differences, so it shares no intermediate with production."""
    E, sq = naive_energies(inst, x, y)
    s = naive_signals(inst, E)
    bx, by = inst.blocks(x), inst.blocks(y)
    spec = StepSpec(3.0 * inst.m, 3.0 * inst.m + 1.0)
    hs = 1e-6

    H = {}
    for v in inst.node_order:
        vi = inst.node_order.index(v)
        acc = 0.0
        for i in range(inst.n):
            xi = 0.5 * (bx[vi, i] + by[vi, i])
            acc += float(np.dot(naive_F(inst.circuit, xi) - xi, by[vi, i] - bx[vi, i]))
        H[v] = acc

    def ds_dE(q):
        """FD slope of every downstream signal wrt E_q."""
        out = {}
        base = dict(E)
        for gate in inst.circuit.gates:
            if q not in gate.inputs:
                continue
            for w in (gate.outputs if gate.kind == "PURIFY" else gate.outputs[:1]):
                up = dict(base)
                up[q] = min(base[q] + hs, 1.0)
                down = dict(base)
                down[q] = max(base[q] - hs, 0.0)
                su = naive_signals(inst, up)[w]
                sd = naive_signals(inst, down)[w]
                out[w] = (su - sd) / (up[q] - down[q])
        return out

    gx = np.zeros((len(inst.node_order), inst.n, inst.m))
    gy = np.zeros_like(gx)
    for q in inst.node_order:
        qi = inst.node_order.index(q)
        phi_slope = central_diff(lambda t: step_eval(spec, t), sq[q], h=1e-6)
        slopes = ds_dE(q)
        delta_q = sum(H[w] * phi_slope * slope for w, slope in slopes.items())
        for i in range(inst.n):
            xi = 0.5 * (bx[qi, i] + by[qi, i])
            gvec = naive_F(inst.circuit, xi) - xi
            for j in range(inst.m):
                jac_col = np.zeros(inst.m)
                up = xi.copy()
                up[j] += hs
                down = xi.copy()
                down[j] -= hs
                jac_col = (naive_F(inst.circuit, up) - naive_F(inst.circuit, down)) / (2 * hs)
                jac_col[j] -= 1.0
                r = 0.5 * float(np.dot(by[qi, i] - bx[qi, i], jac_col))
                diff = bx[qi, i, j] - by[qi, i, j]
                gx[qi, i, j] = s[q] * (-gvec[j] + r) + 2.0 * (inst.weights[i] + delta_q) * diff
                gy[qi, i, j] = s[q] * (gvec[j] + r) - 2.0 * (inst.weights[i] + delta_q) * diff
    return gx.reshape(inst.dim), gy.reshape(inst.dim)


class TestEvalF:
    def test_zero_at_equal_points(self):
        rng = np.random.default_rng(11)
        for circ in (nor_loop(), purify_loop(), oracle_pair()):
            inst = scaled(circ, n=4)
            x = rng.random(inst.dim)
            assert eval_f(inst, x, x) == 0.0

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(13)
        for circ_factory in (nor_loop, purify_loop, oracle_pair, oracle_purify):
            inst = scaled(circ_factory(), n=4)
            for _ in range(5):
                x, y = split_pair(inst, rng)
                assert abs(eval_f(inst, x, y) - naive_f(inst, x, y)) <= 1e-10

    def test_matches_naive_on_energized_blocks(self):
        rng = np.random.default_rng(17)
        inst = scaled(oracle_pair(), n=4)
        x, y = pair_with_block_targets(inst, rng, {"a": 6.4, "b": 6.7})
        assert abs(eval_f(inst, x, y) - naive_f(inst, x, y)) <= 1e-10

    def test_directional_increase_along_displacement(self):
        # y - x = t * G(xi) in one replica of one block: with zero weight
        # and positive signal the objective grows in t
        inst = scaled(nor_loop(), n=4)
        base = np.full(inst.dim, 0.45)
        v = inst.node_order.index("a")
        i = inst.n // 2 - 1  # weight M_i = 0
        assert inst.weights[i] == 0.0
        vals = []
        from minmaxlab.brouwer import eval_F

        for t in (0.0, 0.01, 0.02, 0.04):
            x = base.copy()
            y = base.copy()
            bx, by = inst.blocks(x), inst.blocks(y)
            xi = bx[v, i].copy()
            gvec = eval_F(inst.bmap, xi) - xi
            by[v, i] = bx[v, i] + t * gvec
            x, y = bx.reshape(inst.dim), by.reshape(inst.dim)
            assert signals(inst, x, y)[inst.bmap.index("a")] > 0.0
            vals.append(eval_f(inst, x, y))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_query_budget(self):
        inst = scaled(oracle_pair(), n=4)
        rng = np.random.default_rng(19)
        x, y = split_pair(inst, rng)
        before = inst.ledger.count("L")
        eval_f(inst, x, y)
        budget = (inst.n * inst.m + 1) * len(inst.node_order)
        assert inst.ledger.count("L") - before <= budget

    def test_all_silent_blocks_cost_no_map_evaluations(self):
        # nor_loop = PURIFY(a -> b, c), NOR(b, c -> a); E = (0, 1, 1) makes
        # s_b = ell(-1/4), s_c = ell(1/4) and s_a = g(2) all 0, so no
        # gadget term is read: no eval_F, and no oracle to query
        inst = scaled(nor_loop(), n=4)
        x = np.zeros(inst.dim)
        y = x.copy()
        inst.blocks(y)[1:] = 1.0  # squared distance n * m = 12 >= 3m + 1
        assert signals(inst, x, y).tolist() == [0.0, 0.0, 0.0]
        assert eval_f(inst, x, y) == regularizer(inst, x, y)
        assert inst.ledger.snapshot() == {"f_evals": 1}

    def test_all_silent_oracle_blocks_query_only_the_signal(self):
        # oracle_purify at x = y: the ORACLE signal L(0, 0) = 0 costs its one
        # query, both PURIFY signals are 0, and F is never evaluated
        inst = scaled(oracle_purify(table=(0, 1, 1, 0)), n=16)
        x = np.random.default_rng(3).random(inst.dim)
        assert eval_f(inst, x, x) == 0.0
        assert inst.ledger.snapshot() == {"f_evals": 1, "L": 1}

    def test_one_live_block_costs_n_map_evaluations(self):
        # nor_loop at x = y: only s_a = g(0) = 1 is nonzero
        inst = scaled(nor_loop(), n=4)
        x = np.random.default_rng(5).random(inst.dim)
        assert signals(inst, x, x).tolist() == [1.0, 0.0, 0.0]
        eval_f(inst, x, x)
        assert inst.ledger.snapshot() == {"f_evals": 1, "F_evals": inst.n}

    def test_domain_rejection(self):
        inst = scaled(nor_loop(), n=2)
        good = np.full(inst.dim, 0.5)
        bad = good.copy()
        bad[0] = 1.2
        with pytest.raises(ValueError):
            eval_f(inst, bad, good)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [eval_f, eval_grad_f, block_energies, regularizer, signals, stationarity_gap,
                                    decode_gda, dichotomy_extract])
    def test_non_finite_rejected(self, fn, bad):
        inst = scaled(nor_loop(), n=2)
        good = np.full(inst.dim, 0.5)
        poisoned = good.copy()
        poisoned[inst.dim // 2] = bad
        for x, y in ((poisoned, good), (good, poisoned)):
            with pytest.raises(ValueError):
                fn(inst, x, y)
        assert inst.ledger.total() == 0


class TestGradient:
    def test_closed_form_at_equal_points(self):
        from minmaxlab.brouwer import eval_F

        inst = scaled(nor_loop(), n=4)
        rng = np.random.default_rng(23)
        x = rng.random(inst.dim)
        gx, gy = eval_grad_f(inst, x, x)
        sig = signals(inst, x, x)
        bx = inst.blocks(x)
        for v in range(len(inst.node_order)):
            for i in range(inst.n):
                xi = bx[v, i]
                gvec = eval_F(inst.bmap, xi) - xi
                expected = sig[v] * gvec
                got_x = inst.blocks(gx)[v, i]
                got_y = inst.blocks(gy)[v, i]
                assert np.allclose(got_x, -expected, atol=1e-12)
                assert np.allclose(got_y, expected, atol=1e-12)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(29)
        inst = scaled(oracle_pair(), n=4)
        x, y = pair_with_block_targets(inst, rng, {"a": 6.5})
        gx, gy = eval_grad_f(inst, x, y)
        nx, ny = naive_grad(inst, x, y)
        for got, ref in ((gx, nx), (gy, ny)):
            for j in range(inst.dim):
                assert rel_err(got[j], ref[j]) <= 1e-6

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(31)
        h = 1e-5
        for circ_factory in (nor_loop, purify_loop, oracle_purify):
            for n in (2, 4):
                inst = scaled(circ_factory(), n=n)
                for _ in range(3):
                    x = rng.uniform(h, 1 - h, inst.dim)
                    y = rng.uniform(h, 1 - h, inst.dim)
                    gx, gy = eval_grad_f(inst, x, y)
                    for j in rng.choice(inst.dim, size=min(8, inst.dim), replace=False):
                        fd = central_diff(
                            lambda t: eval_f(inst, _set(x, j, t), y), x[j], h
                        )
                        assert rel_err(fd, gx[j]) <= 1e-4
                        fd = central_diff(
                            lambda t: eval_f(inst, x, _set(y, j, t)), y[j], h
                        )
                        assert rel_err(fd, gy[j]) <= 1e-4

    def test_matches_finite_differences_energized(self):
        rng = np.random.default_rng(37)
        h = 1e-5
        inst = scaled(oracle_pair(), n=4)
        x, y = pair_with_block_targets(inst, rng, {"a": 6.5, "b": 6.3})
        gx, gy = eval_grad_f(inst, x, y)
        for j in range(inst.dim):
            fd = central_diff(lambda t: eval_f(inst, _set(x, j, t), y), x[j], h)
            assert rel_err(fd, gx[j]) <= 1e-4

    @pytest.mark.parametrize("sq_a", [9.38, 9.62])
    def test_matches_finite_differences_through_purify_signals(self, sq_a):
        # nor_loop: PURIFY(a -> b, c).  E_a is in transition with E_a + 1/4
        # (9.38) or E_a - 1/4 (9.62) near the middle of ell's band, so
        # ds_c/dE_a or ds_b/dE_a is large while the other output's slope
        # is 0; b and c stay on E's lower plateau with nonzero gadget terms
        rng = np.random.default_rng(41)
        h = 1e-5
        inst = scaled(nor_loop(), n=4)
        x, y = pair_with_block_targets(inst, rng, {"a": sq_a, "b": 4.0, "c": 4.0})
        e_a = block_energies(inst, x, y)[inst.bmap.index("a")]
        assert abs(e_a + (0.25 if sq_a < 9.5 else -0.25) - 0.5) < 0.02
        gx, gy = eval_grad_f(inst, x, y)
        for j in range(inst.dim):
            fd = central_diff(lambda t: eval_f(inst, _set(x, j, t), y), x[j], h)
            assert rel_err(fd, gx[j]) <= 1e-4
            fd = central_diff(lambda t: eval_f(inst, x, _set(y, j, t)), y[j], h)
            assert rel_err(fd, gy[j]) <= 1e-4

    def test_thrifty_queries_on_plateaus(self):
        # at x = y every energy sits on its lower plateau and every signal
        # is either 0 or needs one interpolation query; the silenced
        # gadget terms must not trigger Jacobian-side oracle work
        inst = scaled(oracle_purify(table=(0, 1, 1, 0)), n=4)
        rng = np.random.default_rng(61)
        x = rng.random(inst.dim)
        before_l = inst.ledger.count("L")
        before_jf = inst.ledger.count("JF_evals")
        eval_grad_f(inst, x, x)
        assert inst.ledger.count("L") - before_l == 1  # the ORACLE signal
        assert inst.ledger.count("JF_evals") == before_jf  # all signals are 0

    def test_transition_evaluates_only_live_and_fed_blocks(self):
        # the gadget at x = y except v5, whose energy sits mid-transition:
        # live = {v4, v7, v8, v9, v12} (v6 needs E_v5 > 2/3) and fed = the
        # outputs v6, v7 (PURIFY) and v9 (NOR) of v5's gates, so F runs at
        # 6 of the 12 blocks and JF at the 5 live ones
        inst = scaled(build_constant_gadget().instance, n=4)
        x, y = pair_with_block_targets(inst, np.random.default_rng(67), {"v5": 3 * inst.m + 0.5})
        sig = signals(inst, x, y)
        assert [inst.node_order[w] for w in np.flatnonzero(sig)] == ["v4", "v7", "v8", "v9", "v12"]
        gx, gy = eval_grad_f(inst, x, y)
        assert inst.ledger.snapshot() == {"grad_f_evals": 1, "F_evals": 6 * inst.n, "JF_evals": 5 * inst.n}
        naive_x, naive_y = naive_grad(inst, x, y)
        assert np.allclose(gx, naive_x, atol=1e-10) and np.allclose(gy, naive_y, atol=1e-10)

    def test_locality_of_partials(self):
        # partial wrt a block-(q, i) coordinate depends only on block q,
        # the blocks feeding s_q, and Out(q)'s gates; perturbing far
        # blocks leaves it bit-identical
        from minmaxlab.circuit import build_constant_gadget

        rng = np.random.default_rng(41)
        inst = scaled(build_constant_gadget().instance, n=2)
        x, y = split_pair(inst, rng)
        gx, gy = eval_grad_f(inst, x, y)
        q = inst.node_order.index("v6")
        near = {"v5", "v6", "v7", "v8"}
        far_nodes = [v for v in inst.node_order if v not in near]
        bx, by = inst.blocks(x.copy()), inst.blocks(y.copy())
        for node in far_nodes:
            vi = inst.node_order.index(node)
            bx[vi] = rng.random((inst.n, inst.m))
            by[vi] = rng.random((inst.n, inst.m))
        x2, y2 = bx.reshape(inst.dim), by.reshape(inst.dim)
        gx2, gy2 = eval_grad_f(inst, x2, y2)
        assert np.array_equal(inst.blocks(gx)[q], inst.blocks(gx2)[q])
        assert np.array_equal(inst.blocks(gy)[q], inst.blocks(gy2)[q])


def _set(vec, j, t):
    out = vec.copy()
    out[j] = t
    return out


class TestStationarity:
    def test_zero_gradient_zero_gap(self):
        x = np.array([0.3, 0.6])
        y = np.array([0.5, 0.1])
        assert endpoint_gap(x, y, np.zeros(2), np.zeros(2)) == 0.0

    def test_interior_coordinate_endpoint(self):
        x = np.array([0.5])
        y = np.array([0.5])
        gx = np.array([0.2])
        gy = np.array([0.0])
        assert endpoint_gap(x, y, gx, gy) == pytest.approx(0.1)

    def test_boundary_coordinate_contributes_nothing(self):
        x = np.array([0.0])
        y = np.array([0.5])
        gx = np.array([0.7])  # increasing x only worsens the x-player
        gy = np.array([0.0])
        assert endpoint_gap(x, y, gx, gy) == 0.0

    def test_instance_gap_at_tiled_fixed_point(self):
        inst = scaled(purify_loop(), n=4)
        z = np.ones(inst.m)  # all-ones is an exact fixed point
        x = np.tile(z, inst.n * inst.m).reshape(inst.dim)
        assert stationarity_gap(inst, x, x) == 0.0


class TestDecode:
    def test_all_zero_at_equal_points(self):
        inst = scaled(nor_loop(), n=2)
        rng = np.random.default_rng(43)
        x = rng.random(inst.dim)
        b = decode_gda(inst, x, x)
        assert all(b[v] == 0 for v in inst.node_order)

    def test_far_block_decodes_one(self):
        inst = scaled(oracle_pair(), n=4)
        x = np.zeros(inst.dim)
        y = x.copy()
        by = inst.blocks(y)
        by[0].flat[:7] = 1.0  # 3m + 1 = 7
        y = by.reshape(inst.dim)
        b = decode_gda(inst, x, y)
        assert b["a"] == 1 and b["b"] == 0

    def test_interior_energy_decodes_bot(self):
        inst = scaled(oracle_pair(), n=4)
        rng = np.random.default_rng(47)
        x, y = pair_with_block_targets(inst, rng, {"a": 6.5})
        assert decode_gda(inst, x, y)["a"] is BOT


class TestGadgetPipeline:
    """End-to-end on the 12-node constant gadget."""

    @staticmethod
    def build():
        from minmaxlab.circuit import build_constant_gadget

        gadget = build_constant_gadget()
        return gadget, scaled(gadget.instance, n=2, delta=0.05)

    def test_witness_at_tiled_fixed_point(self):
        from minmaxlab.brouwer import cycle_cut_solve

        gadget, inst = self.build()
        zstar = cycle_cut_solve(inst.bmap).z
        x = np.tile(zstar, inst.n * inst.m)
        assert stationarity_gap(inst, x, x) <= 1e-9
        result = dichotomy_extract(inst, x, x)
        assert result.witness is not None
        assert result.witness.residual <= 1e-8

    def test_scaled_mode_reports_violations_as_data(self):
        # x = y far from any fixed point: energies all 0, so the decoded
        # all-zero assignment violates the gadget's NOR(v2, v3 -> v4);
        # at scaled parameters that report is data, not an error
        gadget, inst = self.build()
        x = np.full(inst.dim, 0.5)
        result = dichotomy_extract(inst, x, x)
        assert result.witness is None
        assert result.assignment is not None
        assert result.violations  # nonempty
        kinds = {g.kind for g in result.violations}
        assert kinds == {"NOR"}

    def test_dichotomy_at_the_point_pgda_found(self):
        # where `minmaxlab solve` extracts: 50 steps are far from eps, so the
        # decoded assignment comes back with its violated gates as data
        from minmaxlab.harness import GdaObjective, run_pgda

        gadget, inst = self.build()
        run = run_pgda(GdaObjective(inst), 50, seed=0, gap_every=10)
        before = inst.ledger.snapshot()
        result = dichotomy_extract(inst, *run.best_point)
        after = inst.ledger.snapshot()
        assert result.gap == run.best_gap == 0.8403774544403665
        assert not result.gap_ok and result.warning is not None
        assert result.witness is None and result.assignment is not None
        assert len(result.violations) == 4
        assert result.violations == check_assignment(gadget.instance, result.assignment)
        assert {k: after[k] - before.get(k, 0) for k in after} == {"grad_f_evals": 1, "F_evals": 32, "JF_evals": 8}


class TestDichotomy:
    def test_witness_branch_at_consistent_blocks(self):
        inst = scaled(purify_loop(), n=4)
        x = np.tile(np.ones(inst.m), inst.n * inst.m).reshape(inst.dim)
        result = dichotomy_extract(inst, x, x)
        assert result.gap_ok
        assert result.witness is not None
        assert result.witness.residual == 0.0
        assert result.witness.node == inst.node_order[0]
        assert result.witness.replica == 1
        assert result.assignment is None

    def test_assignment_branch_with_empty_violations(self):
        inst = scaled(purify_loop(), n=4)
        x = np.full(inst.dim, 0.5)  # residual of every midpoint is 0.5
        result = dichotomy_extract(inst, x, x)
        assert result.gap_ok  # all signals vanish, gradient is 0
        assert result.witness is None
        assert result.violations == []
        assert all(result.assignment[v] == 0 for v in inst.node_order)

    def test_warning_on_nonstationary_point(self):
        inst = scaled(nor_loop(), n=2)
        rng = np.random.default_rng(53)
        x, y = split_pair(inst, rng)
        result = dichotomy_extract(inst, x, y)
        assert result.gap > inst.params.eps
        assert not result.gap_ok
        assert result.warning is not None

    def test_scan_order_deterministic(self):
        inst = scaled(purify_loop(), n=2)
        x = np.tile(np.ones(inst.m), inst.n * inst.m).reshape(inst.dim)
        first = dichotomy_extract(inst, x, x)
        second = dichotomy_extract(inst, x, x)
        assert first.witness.node == second.witness.node
        assert first.witness.replica == second.witness.replica


class TestMagnitudes:
    def test_f_and_grad_f_finite_at_random_points(self):
        # bookkeeping, not a closed-form assertion: f and every gradient
        # entry are finite at uniform random points of a 3-node instance
        inst = scaled(oracle_purify(), n=4)
        rng = np.random.default_rng(0)
        for _ in range(8):
            x = rng.random(inst.dim)
            y = rng.random(inst.dim)
            assert math.isfinite(eval_f(inst, x, y))
            gx, gy = eval_grad_f(inst, x, y)
            assert np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))


class TestDescriptor:
    def test_load_from_files(self, tmp_path):
        circ = oracle_attracting()
        (tmp_path / "circ.json").write_text(circuit_to_json(circ))
        desc = {
            "circuit": "circ.json",
            "mode": "scaled",
            "delta": 0.05,
            "n": 4,
            "eps": 1e-4,
            "rho": 1.0 / 12.0,
        }
        desc_path = tmp_path / "inst.json"
        desc_path.write_text(json.dumps(desc))
        inst = _load_instance(desc_path, "descriptor")
        assert inst.dim == 5 * 4 * 5
        assert inst.params.mode == "scaled"

    def test_inline_circuit(self, tmp_path):
        circ = purify_loop()
        desc = {
            "circuit": json.loads(circuit_to_json(circ)),
            "mode": "scaled",
            "delta": 0.1,
            "n": 2,
            "eps": 1e-3,
        }
        desc_path = tmp_path / "inline.json"
        desc_path.write_text(json.dumps(desc))
        inst = _load_instance(desc_path, "descriptor")
        assert inst.m == 4

    @pytest.mark.parametrize("inner", [False, True], ids=["descriptor", "circuit-file"])
    def test_non_standard_constant_rejected(self, tmp_path, inner):
        circ = json.loads(circuit_to_json(oracle_pair()))
        desc = {"circuit": "circ.json", "delta": 0.05, "n": 2, "eps": 1e-4}
        (circ if inner else desc)["note"] = math.nan
        (tmp_path / "circ.json").write_text(json.dumps(circ))
        (tmp_path / "inst.json").write_text(json.dumps(desc))
        with pytest.raises(ValueError, match="NaN is not a JSON number"):
            _load_instance(tmp_path / "inst.json", "descriptor")
