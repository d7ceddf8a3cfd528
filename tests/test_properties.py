"""Property tests: the compiled map and the vectorized gradient against
per-component and per-block references, bit for bit.

The references dispatch on each gate of the circuit directly, so they
share no code with the gate table.  The gradient reference calls
eval_F / eval_JF block by block, so its ledger charges are compared too.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from minmaxlab.boolinterp import interp_eval, interp_grad
from minmaxlab.brouwer import build_brouwer, eval_F, eval_JF
from minmaxlab.circuit import NOR, ORACLE, PURIFY, build_constant_gadget
from minmaxlab.gda import (
    _gadgets_from_blocks,
    block_energies,
    build_gda_instance,
    derive_parameters,
    eval_f,
    eval_grad_f,
)
from minmaxlab.smoothstep import ELL, G

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop

FACTORIES = {
    "nor_loop": nor_loop,
    "purify_loop": purify_loop,
    "oracle_pair": oracle_pair,
    "oracle_purify": oracle_purify,
    "oracle_attracting": oracle_attracting,
    "gadget": lambda: build_constant_gadget().instance,
}

PROPERTY = settings(max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# coordinates in [0, 1], often at or near a cube vertex so that the
# interpolation has an active vertex and queries the oracle
unit = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75]),
    st.floats(0.0, 0.2),
    st.floats(0.8, 1.0),
)


def reference_F(bmap, z):
    out = np.empty(bmap.dim)
    idx = {v: i for i, v in enumerate(bmap.node_order)}
    for gate in bmap.circuit.gates:
        ins = [z[idx[u]] for u in gate.inputs]
        if gate.kind == NOR:
            out[idx[gate.outputs[0]]] = G(ins[0] + ins[1])
        elif gate.kind == PURIFY:
            first, second = gate.outputs
            out[idx[first]] = ELL(ins[0] + 0.25)
            out[idx[second]] = ELL(ins[0] - 0.25)
        else:
            out[idx[gate.outputs[0]]] = interp_eval(ins, bmap.circuit.oracle)
    return out


def reference_JF(bmap, z):
    jac = np.zeros((bmap.dim, bmap.dim))
    idx = {v: i for i, v in enumerate(bmap.node_order)}
    for gate in bmap.circuit.gates:
        cols = [idx[u] for u in gate.inputs]
        if gate.kind == NOR:
            w = idx[gate.outputs[0]]
            jac[w, cols] = G.d1(z[cols[0]] + z[cols[1]])
        elif gate.kind == PURIFY:
            first, second = gate.outputs
            jac[idx[first], cols[0]] = ELL.d1(z[cols[0]] + 0.25)
            jac[idx[second], cols[0]] = ELL.d1(z[cols[0]] - 0.25)
        else:
            jac[idx[gate.outputs[0]], cols] = interp_grad([z[c] for c in cols], bmap.circuit.oracle)
    return jac


def reference_signals(inst, energies):
    """Signals and, per node q, the (w, ds_w/dE_q) pairs in gate order."""
    idx = {v: i for i, v in enumerate(inst.node_order)}
    sig = np.empty(inst.m)
    sens = [[] for _ in range(inst.m)]
    for gate in inst.circuit.gates:
        ins = [idx[u] for u in gate.inputs]
        e = [float(energies[i]) for i in ins]
        if gate.kind == NOR:
            w = idx[gate.outputs[0]]
            sig[w] = G(e[0] + e[1])
            slope = G.d1(e[0] + e[1])
            sens[ins[0]].append((w, slope))
            sens[ins[1]].append((w, slope))
        elif gate.kind == PURIFY:
            for out, offset in zip(gate.outputs, (-0.25, +0.25)):
                sig[idx[out]] = ELL(e[0] + offset)
                sens[ins[0]].append((idx[out], ELL.d1(e[0] + offset)))
        else:
            w = idx[gate.outputs[0]]
            sig[w] = interp_eval(e, inst.circuit.oracle)
            for u, slope in zip(ins, interp_grad(e, inst.circuit.oracle)):
                sens[u].append((w, float(slope)))
    return sig, sens


def reference_grad_f(inst, x, y):
    """Per-block assembly: one eval_F / eval_JF pair per replica."""
    bx, by = inst.blocks(x), inst.blocks(y)
    diff = bx - by
    sq = np.einsum("vij,vij->v", diff, diff)
    energies = np.array([inst.energy_step(s) for s in sq])
    ephi1 = np.array([inst.energy_step.d1(s) for s in sq])
    sig, sens = reference_signals(inst, energies)
    delta_q = np.zeros(inst.m)
    disp = None
    if np.any(ephi1 != 0.0):
        H = np.zeros(inst.m)
        disp = [[None] * inst.n for _ in range(inst.m)]
        for v in range(inst.m):
            for i in range(inst.n):
                xi = 0.5 * (bx[v, i] + by[v, i])
                disp[v][i] = eval_F(inst.bmap, xi) - xi
                H[v] += float(np.dot(disp[v][i], by[v, i] - bx[v, i]))
        for q in range(inst.m):
            if ephi1[q] != 0.0:
                delta_q[q] = ephi1[q] * sum(H[w] * slope for w, slope in sens[q])
    gx = np.zeros_like(bx)
    gy = np.zeros_like(by)
    eye = np.eye(inst.m)
    for q in range(inst.m):
        for i in range(inst.n):
            coupling = 2.0 * (inst.weights[i] + delta_q[q]) * (bx[q, i] - by[q, i])
            if sig[q] == 0.0:
                gx[q, i] = coupling
                gy[q, i] = -coupling
                continue
            xi = 0.5 * (bx[q, i] + by[q, i])
            gvec = disp[q][i] if disp is not None else eval_F(inst.bmap, xi) - xi
            rrow = 0.5 * (by[q, i] - bx[q, i]) @ (eval_JF(inst.bmap, xi) - eye)
            gx[q, i] = sig[q] * (-gvec + rrow) + coupling
            gy[q, i] = sig[q] * (gvec + rrow) - coupling
    return gx.reshape(inst.dim), gy.reshape(inst.dim)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def instance(name, n):
    circ = FACTORIES[name]()
    params = derive_parameters(len(circ.nodes), mode="scaled", delta=0.05, n=n, eps=1e-4)
    return build_gda_instance(circ, params)


def pair(inst, regime, rng):
    """(x, y) independent, equal, or equal except one block whose squared
    distance lies inside the energy step's transition (3m, 3m + 1);
    the last needs n >= 4, since a block's squared distance is at most n m."""
    x = rng.random(inst.dim)
    if regime == "random":
        return x, rng.random(inst.dim)
    y = x.copy()
    if regime == "transition":
        bx, by = inst.blocks(x), inst.blocks(y)
        v = int(rng.integers(inst.m))
        size = inst.n * inst.m
        t = math.sqrt((3.0 * inst.m + rng.uniform(0.05, 0.95)) / size)
        bx[v] = 0.5 - t / 2.0
        by[v] = 0.5 + t / 2.0
    return x, y


@PROPERTY
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_eval_F_and_JF_match_component_formulas(name, data):
    bmap = build_brouwer(FACTORIES[name]())
    z = np.array(data.draw(st.lists(unit, min_size=bmap.dim, max_size=bmap.dim)))
    assert same_bits(eval_F(bmap, z), reference_F(bmap, z))
    assert same_bits(eval_JF(bmap, z), reference_JF(bmap, z))


@PROPERTY
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_eval_F_charges_one_evaluation(name, data):
    circ = FACTORIES[name]()
    bmap = build_brouwer(circ)
    oracle_gates = sum(1 for gate in circ.gates if gate.kind == ORACLE)
    z = np.array(data.draw(st.lists(unit, min_size=bmap.dim, max_size=bmap.dim)))
    before = bmap.ledger.snapshot()
    eval_F(bmap, z)
    after = bmap.ledger.snapshot()
    assert after["F_evals"] - before.get("F_evals", 0) == 1
    assert after.get("L", 0) - before.get("L", 0) <= oracle_gates
    assert set(after) <= {"F_evals", "L"}


@PROPERTY
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    n=st.sampled_from([2, 4, 6]),
    regime=st.sampled_from(["random", "equal", "transition"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eval_grad_f_matches_per_block_reference(name, n, regime, seed):
    assume(regime != "transition" or n >= 4)
    inst = instance(name, n)
    x, y = pair(inst, regime, np.random.default_rng(seed))
    before = inst.ledger.snapshot()
    gx, gy = eval_grad_f(inst, x, y)
    mid = inst.ledger.snapshot()
    rx, ry = reference_grad_f(inst, x, y)
    after = inst.ledger.snapshot()
    assert np.array_equal(gx, rx) and np.array_equal(gy, ry)
    assert same_bits(gx, rx) and same_bits(gy, ry)
    # the same map evaluations and oracle queries as one call per block
    charged = {k: mid.get(k, 0) - before.get(k, 0) for k in ("F_evals", "JF_evals", "L")}
    assert charged == {k: after.get(k, 0) - mid.get(k, 0) for k in charged}


@PROPERTY
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    n=st.sampled_from([2, 4]),
    regime=st.sampled_from(["random", "equal", "transition"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eval_f_matches_per_block_gadgets(name, n, regime, seed):
    assume(regime != "transition" or n >= 4)
    inst = instance(name, n)
    x, y = pair(inst, regime, np.random.default_rng(seed))
    bx, by = inst.blocks(x), inst.blocks(y)
    H, disp = _gadgets_from_blocks(inst, bx, by)
    ref_H = np.zeros(inst.m)
    for v in range(inst.m):
        for i in range(inst.n):
            xi = 0.5 * (bx[v, i] + by[v, i])
            gvec = eval_F(inst.bmap, xi) - xi
            assert same_bits(disp[v, i], gvec)
            ref_H[v] += float(np.dot(gvec, by[v, i] - bx[v, i]))
    assert same_bits(H, ref_H)
    sig, _ = reference_signals(inst, block_energies(inst, x, y))
    diff = bx - by
    reg = float(np.sum(np.einsum("vij,vij->vi", diff, diff) * inst.weights[None, :]))
    assert eval_f(inst, x, y) == float(np.dot(sig, ref_H)) + reg
