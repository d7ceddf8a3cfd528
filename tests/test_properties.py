"""Property tests: the compiled map and the vectorized gradient against
per-component and per-block references, bit for bit.

The references dispatch on each gate of the circuit directly, so they
share no code with the gate table.  The gradient reference calls
eval_F / eval_JF block by block, so its ledger charges are compared too.
The interpolation's box profile, gradient and Hessian entries, and the
Sperner labeling, are checked against the straightforward formulas the
same way; so are the packed-code Sperner search against the dict-based
scan it replaced, the JSON round trip of circuits, the sign of the
endpoint gap, and the monotonicity of both decoders in their thresholds.
"""

import math
from itertools import combinations_with_replacement, product
from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from minmaxlab.boolinterp import BoolOracle, active_vertex, box_profile, interp_eval, interp_grad, interp_hess_entry
from minmaxlab.brouwer import build_brouwer, decode_brouwer, eval_F, eval_JF
from minmaxlab.circuit import (
    NOR,
    ORACLE,
    PURIFY,
    CircuitInstance,
    build_constant_gadget,
    circuit_from_json,
    circuit_to_json,
    nor,
    oracle_gate,
    purify,
)
from minmaxlab.gda import (
    _displacements,
    _gadgets,
    block_energies,
    build_gda_instance,
    decode_gda,
    derive_parameters,
    endpoint_gap,
    eval_f,
    eval_grad_f,
    stationarity_gap,
)
from minmaxlab.config import DEFAULTS
from minmaxlab.smoothstep import ALPHA, ELL, G
from minmaxlab.sperner import (
    GridPoint,
    SpernerInstance,
    SpernerSolution,
    find_sperner_solution_exhaustive,
    make_brouwer_labeling,
    verify_sperner_solution,
)

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


def reference_energies(inst, x, y):
    """Per-block energies and energy-step slopes."""
    diff = inst.blocks(x) - inst.blocks(y)
    sq = np.einsum("vij,vij->v", diff, diff)
    return np.array([inst.energy_step(s) for s in sq]), np.array([inst.energy_step.d1(s) for s in sq])


def reference_need(inst, x, y):
    """The blocks whose gadget term is read: live (a nonzero signal) and
    fed (an output of a gate whose input's energy step is in transition)."""
    energies, ephi1 = reference_energies(inst, x, y)
    sig, sens = reference_signals(inst, energies)
    live = {w for w in range(inst.m) if sig[w] != 0.0}
    return live | {w for q in range(inst.m) if ephi1[q] != 0.0 for w, _ in sens[q]}


def reference_grad_f(inst, x, y):
    """Per-block assembly: one eval_F / eval_JF pair per replica, and F
    at every block's replicas whenever some block is in transition."""
    bx, by = inst.blocks(x), inst.blocks(y)
    energies, ephi1 = reference_energies(inst, x, y)
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
    # the reference's Jacobians; F only at the n replicas of each block in
    # need = live | fed, so never more map evaluations or oracle queries
    charged = {k: mid.get(k, 0) - before.get(k, 0) for k in ("F_evals", "JF_evals", "L")}
    ref = {k: after.get(k, 0) - mid.get(k, 0) for k in charged}
    assert charged["JF_evals"] == ref["JF_evals"]
    assert charged["F_evals"] <= ref["F_evals"] and charged["L"] <= ref["L"]
    assert charged["F_evals"] == inst.n * len(reference_need(inst, x, y))


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
    disp = _displacements(inst, bx, by, list(range(inst.m)))
    H = _gadgets(disp, bx, by)
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


# ---------------------------------------------------------------------------
# gadget sums: H_v adds its replicas' dots left to right, from 0.0
# ---------------------------------------------------------------------------

def replica_dots(inst, bx, by, v):
    """<G(xi), y_i^v - x_i^v> for each replica of block v, one eval_F each."""
    dots = []
    for i in range(inst.n):
        xi = 0.5 * (bx[v, i] + by[v, i])
        dots.append(float(np.dot(eval_F(inst.bmap, xi) - xi, by[v, i] - bx[v, i])))
    return dots


def left_to_right(dots):
    total = 0.0
    for dot in dots:
        total += dot
    return total


def other_groupings(dots):
    """The same dots summed in three other orders."""
    return {"reversed": left_to_right(dots[::-1]), "pairwise": float(np.sum(np.array(dots))), "exact": math.fsum(dots)}


def test_eval_f_sums_each_gadget_left_to_right():
    # seed 99: each of the gadget's 4 live blocks sums to other bits in every
    # other grouping, and so would f
    inst = instance("gadget", 16)
    x, y = pair(inst, "random", np.random.default_rng(99))
    bx, by = inst.blocks(x), inst.blocks(y)
    sig, _ = reference_signals(inst, block_energies(inst, x, y))
    live = [w for w in range(inst.m) if sig[w] != 0.0]
    H = np.zeros(inst.m)
    others = {name: np.zeros(inst.m) for name in ("reversed", "pairwise", "exact")}
    for w in live:
        dots = replica_dots(inst, bx, by, w)
        H[w] = left_to_right(dots)
        for name, total in other_groupings(dots).items():
            assert total != H[w]
            others[name][w] = total
    diff = bx - by
    reg = float(np.sum(np.einsum("vij,vij->vi", diff, diff) * inst.weights[None, :]))
    expected = float(np.dot(sig, H)) + reg
    assert len(live) == 4
    assert all(float(np.dot(sig, other)) + reg != expected for other in others.values())
    assert eval_f(inst, x, y) == expected


def test_eval_grad_f_sums_each_fed_gadget_left_to_right():
    # one block v in transition and every other block a small step from x
    # (energy 0), so the fed blocks' dots are not 0; at seed 13 every other
    # grouping of their sums gives Delta_v other bits, and replica n/2, whose
    # weight M_i is 0, carries them into the gradient
    inst = instance("gadget", 16)
    rng = np.random.default_rng(13)
    x, y = pair(inst, "transition", rng)
    bx, by = inst.blocks(x), inst.blocks(y)
    v = int(np.flatnonzero(np.einsum("vij,vij->v", bx - by, bx - by))[0])
    for w in range(inst.m):
        if w != v:
            by[w] = np.clip(bx[w] + rng.uniform(-0.2, 0.2, bx[w].shape), 0.0, 1.0)
    energies, ephi1 = reference_energies(inst, x, y)
    _, sens = reference_signals(inst, energies)
    dots = {w: replica_dots(inst, bx, by, w) for w, _ in sens[v]}
    delta = ephi1[v] * sum(left_to_right(dots[w]) * slope for w, slope in sens[v])
    for name in ("reversed", "pairwise", "exact"):
        assert ephi1[v] * sum(other_groupings(dots[w])[name] * slope for w, slope in sens[v]) != delta
    assert inst.weights[inst.n // 2 - 1] == 0.0
    gx, gy = eval_grad_f(inst, x, y)
    rx, ry = reference_grad_f(inst, x, y)
    assert same_bits(gx, rx) and same_bits(gy, ry)


# ---------------------------------------------------------------------------
# interpolation: plateau shortcuts against the plain product formulas
# ---------------------------------------------------------------------------

def reference_box_profile(x, vertex):
    prod_ = 1.0
    for xi, yi in zip(x, vertex):
        prod_ *= ALPHA(yi + (1 - 2 * yi) * xi)
    return prod_


def reference_interp_grad(x, oracle):
    """Prefix/suffix products over every coordinate, no plateau shortcut."""
    n = oracle.arity
    grad = np.zeros(n)
    vertex = active_vertex(x)
    if vertex is None:
        return grad
    args = [yi + (1 - 2 * yi) * xi for xi, yi in zip(x, vertex)]
    factors = [ALPHA(a) for a in args]
    prefix, suffix = np.ones(n + 1), np.ones(n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] * factors[i]
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * factors[i]
    for j in range(n):
        grad[j] = (1.0 - 2.0 * vertex[j]) * ALPHA.d1(args[j]) * prefix[j] * suffix[j + 1]
    if np.any(grad != 0.0):
        grad *= oracle.fn(vertex) - 0.5
    return grad


# the knees of alpha seen from either vertex, one ulp either side
ALPHA_KNEES = sorted(
    {v for k in (1.0 / 6.0, 1.0 / 3.0) for c in (k, 1.0 - k)
     for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))}
)
near_knee = st.one_of(unit, st.sampled_from(ALPHA_KNEES))


@PROPERTY
@given(arity=st.integers(1, 5), data=st.data())
def test_interp_matches_plain_product(arity, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=1 << arity, max_size=1 << arity))
    oracle = BoolOracle.from_truth_table(table)
    x = data.draw(st.lists(near_knee, min_size=arity, max_size=arity))
    vertex = active_vertex(x)
    if vertex is not None:
        assert same_bits(np.array(box_profile(x, vertex)), np.array(reference_box_profile(x, vertex)))
        prof = reference_box_profile(x, vertex)
        expected = 0.5 if prof == 0.0 else 0.5 + prof * (oracle.fn(vertex) - 0.5)
        assert same_bits(np.array(interp_eval(x, oracle)), np.array(expected))
    assert same_bits(interp_grad(x, oracle), reference_interp_grad(x, oracle))


def reference_interp_hess(x, oracle, j, k):
    """The plain product differentiated twice, over every coordinate."""
    vertex = active_vertex(x)
    if vertex is None:
        return 0.0
    args = [yi + (1 - 2 * yi) * xi for xi, yi in zip(x, vertex)]
    if j == k:
        rest = 1.0
        for i, a in enumerate(args):
            if i != j:
                rest *= ALPHA(a)
        dphi = ALPHA.d2(args[j]) * rest
    else:
        dphi = (1.0 - 2.0 * vertex[j]) * ALPHA.d1(args[j]) * (1.0 - 2.0 * vertex[k]) * ALPHA.d1(args[k])
        for i, a in enumerate(args):
            if i != j and i != k:
                dphi *= ALPHA(a)
    return 0.0 if dphi == 0.0 else (oracle.fn(vertex) - 0.5) * dphi


@PROPERTY
@given(arity=st.integers(1, 5), data=st.data())
def test_interp_hess_matches_plain_product(arity, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=1 << arity, max_size=1 << arity))
    oracle = BoolOracle.from_truth_table(table)
    x = data.draw(st.lists(near_knee, min_size=arity, max_size=arity))
    for j in range(arity):
        for k in range(arity):
            expected = reference_interp_hess(x, oracle, j, k)
            assert same_bits(np.array(interp_hess_entry(x, oracle, j, k)), np.array(expected))


# ---------------------------------------------------------------------------
# Sperner labeling: Python-float comparison against the numpy formula
# ---------------------------------------------------------------------------

coefficient = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 0.25]), st.floats(-2.0, 2.0))


@PROPERTY
@given(
    d=st.integers(1, 3),
    eps=st.one_of(st.sampled_from([0.5, 0.3, 0.2, 0.07]), st.floats(0.01, 0.99)),
    identity=st.booleans(),
    data=st.data(),
)
def test_labeling_matches_numpy_formula(d, eps, identity, data):
    if identity:  # F(z) = z ties with z wherever the normalization fixes z
        A, c = np.eye(d), np.zeros(d)
    else:
        A = np.array(data.draw(st.lists(coefficient, min_size=d * d, max_size=d * d))).reshape(d, d)
        c = np.array(data.draw(st.lists(coefficient, min_size=d, max_size=d)))

    def F(z):
        assert isinstance(z, np.ndarray)
        return c + A @ z

    labeling, M = make_brouwer_labeling(F, d, eps)
    point = tuple(data.draw(st.lists(st.integers(1, M), min_size=d, max_size=d)))
    z = (np.asarray(point, dtype=float) - 1.0) / (M - 1.0)
    fn = (1 - eps / 2) * F(z) + (eps / 2) * 0.5
    assert labeling(point) == tuple(1 if fn[i] > z[i] else -1 for i in range(d))


def test_labeling_tie_gets_minus_one():
    labeling, M = make_brouwer_labeling(lambda z: z, 1, 0.5)
    z = (np.asarray((4,), dtype=float) - 1.0) / (M - 1.0)
    assert M == 7 and z[0] == 0.5
    assert (1 - 0.5 / 2) * z[0] + (0.5 / 2) * 0.5 == z[0]  # an exact tie
    assert labeling((4,)) == (-1,)
    assert labeling((3,)) == (1,) and labeling((5,)) == (-1,)


# ---------------------------------------------------------------------------
# Sperner search: packed codes against the dict-based scan
# ---------------------------------------------------------------------------

def reference_find_sperner_solution(inst: SpernerInstance) -> Optional[SpernerSolution]:
    """Scan all unit cells for a covering cluster; gated to M^d <= 10^6.

    Looks for clusters of size d (size 2 when d = 1, since a single point
    carries only one label per coordinate).  Deterministic scan order, so
    the first solution is stable.
    """
    if inst.M ** inst.d > DEFAULTS.exhaustive_grid_budget:
        raise ValueError(
            f"grid of size {inst.M}^{inst.d} exceeds budget {DEFAULTS.exhaustive_grid_budget}"
        )
    labels: Dict[GridPoint, Tuple[int, ...]] = {}
    for point in product(range(1, inst.M + 1), repeat=inst.d):
        labels[point] = inst.query(point)

    cluster_size = max(inst.d, 2)
    for anchor in product(range(1, inst.M), repeat=inst.d):
        cell = list(product(*[(a, a + 1) for a in anchor]))
        for combo in combinations_with_replacement(cell, cluster_size):
            covered = True
            for i in range(inst.d):
                seen = {labels[p][i] for p in combo}
                if seen != {-1, 1}:
                    covered = False
                    break
            if covered:
                return SpernerSolution(points=tuple(combo))
    return None


def same_search(M, d, labeling):
    packed = SpernerInstance(M=M, d=d, labeling=labeling)
    plain = SpernerInstance(M=M, d=d, labeling=labeling)
    sol = find_sperner_solution_exhaustive(packed)
    assert sol == reference_find_sperner_solution(plain)
    assert packed.ledger.snapshot() == plain.ledger.snapshot() == {"lambda": M**d}
    return sol


@PROPERTY
@given(d=st.integers(1, 3), M=st.integers(2, 6), data=st.data())
def test_packed_search_matches_dict_search(d, M, data):
    # labels drawn from a small palette of sign vectors, so that some
    # labelings cannot cover a coordinate and the search returns None
    signs = st.tuples(*[st.sampled_from([-1, 1])] * d)
    palette = data.draw(st.lists(signs, min_size=1, max_size=4))
    points = list(product(range(1, M + 1), repeat=d))
    table = dict(zip(points, data.draw(st.lists(st.sampled_from(palette), min_size=len(points), max_size=len(points)))))
    same_search(M, d, lambda p: table[p])


def test_packed_search_finds_and_misses():
    # one labeling of each outcome, so neither rests on what hypothesis draws
    assert same_search(4, 2, lambda p: tuple(1 if t <= 2 else -1 for t in p)) == SpernerSolution(((2, 2), (3, 3)))
    assert same_search(4, 2, lambda p: (1, -1)) is None


@pytest.mark.parametrize("d", [9, 12])
def test_packed_search_with_codes_wider_than_a_byte(d):
    # above d = 8 the codes (up to 2^d - 1) go in an array("L"); the
    # boundary labeling of [2]^d covers with d - 1 copies of (1,...,1) and
    # one (2,...,2), the (2^d)th cluster tried
    def boundary(p):
        return tuple(1 if t == 1 else -1 for t in p)

    sol = same_search(2, d, boundary)
    assert sol == SpernerSolution(((1,) * d,) * (d - 1) + ((2,) * d,))
    inst = SpernerInstance(M=2, d=d, labeling=boundary)
    assert find_sperner_solution_exhaustive(inst) == sol
    assert verify_sperner_solution(inst, sol)[0]
    assert inst.ledger.count("lambda") == 2**d + 2


@pytest.mark.parametrize("d", [9, 12])
def test_packed_search_with_wide_codes_and_no_cover(d):
    # coordinate 0 is never +1; the dict-based scan would try all
    # C(2^d + d - 1, d) clusters, so only the outcome and the ledger are checked
    inst = SpernerInstance(M=2, d=d, labeling=lambda p: (-1,) + tuple(1 if t == 1 else -1 for t in p[1:]))
    assert find_sperner_solution_exhaustive(inst) is None
    assert inst.ledger.count("lambda") == 2**d


# ---------------------------------------------------------------------------
# circuit JSON round trip
# ---------------------------------------------------------------------------

@st.composite
def circuits(draw):
    """Gate lists over a few nodes; JSON needs no structural validity."""
    nodes = tuple(draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True)))
    node = st.sampled_from(nodes)
    gate = st.one_of(
        st.builds(nor, node, node, node),
        st.builds(purify, node, node, node),
        st.builds(oracle_gate, st.lists(node, min_size=1, max_size=3).map(tuple), node),
    )
    gates = draw(st.lists(gate, max_size=6))
    table = draw(st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=2, max_size=2)))
    spec = None if table is None else {"kind": "truth_table", "data": table}
    oracle = None if table is None else BoolOracle.from_truth_table(table)
    return CircuitInstance(nodes, tuple(gates), oracle=oracle, oracle_spec=spec)


@PROPERTY
@given(inst=circuits(), order=st.randoms(use_true_random=False))
def test_circuit_json_round_trip_is_byte_stable(inst, order):
    text = circuit_to_json(inst)
    assert circuit_to_json(circuit_from_json(text)) == text
    shuffled = list(inst.gates)
    order.shuffle(shuffled)
    same = CircuitInstance(inst.nodes, tuple(shuffled), oracle_spec=inst.oracle_spec)
    assert circuit_to_json(same) == text


# ---------------------------------------------------------------------------
# endpoint gap
# ---------------------------------------------------------------------------

finite = st.floats(-1e6, 1e6)


@PROPERTY
@given(k=st.integers(1, 6), data=st.data())
def test_endpoint_gap_is_nonnegative(k, data):
    x, y = (np.array(data.draw(st.lists(unit, min_size=k, max_size=k))) for _ in range(2))
    gx, gy = (np.array(data.draw(st.lists(finite, min_size=k, max_size=k))) for _ in range(2))
    assert endpoint_gap(x, y, gx, gy) >= 0.0


@PROPERTY
@given(k=st.integers(1, 6), data=st.data())
def test_endpoint_gap_is_zero_at_a_stationary_point(k, data):
    """Each coordinate is interior with zero gradient, or at the face its
    player cannot improve from: x at 0 with gx > 0 or at 1 with gx < 0
    (minimizing), y at 1 with gy > 0 or at 0 with gy < 0 (maximizing)."""
    positive = st.floats(1e-9, 1e6)
    x, y, gx, gy = [], [], [], []
    for _ in range(k):
        kind = data.draw(st.sampled_from(["interior", "low", "high"]))
        if kind == "interior":
            x.append(data.draw(unit))
            gx.append(0.0)
        else:
            x.append(0.0 if kind == "low" else 1.0)
            gx.append(data.draw(positive) * (1.0 if kind == "low" else -1.0))
        kind = data.draw(st.sampled_from(["interior", "low", "high"]))
        if kind == "interior":
            y.append(data.draw(unit))
            gy.append(0.0)
        else:
            y.append(0.0 if kind == "low" else 1.0)
            gy.append(data.draw(positive) * (-1.0 if kind == "low" else 1.0))
    assert endpoint_gap(np.array(x), np.array(y), np.array(gx), np.array(gy)) == 0.0


@PROPERTY
@given(name=st.sampled_from(["nor_loop", "oracle_purify"]), seed=st.integers(0, 2**32 - 1))
def test_stationarity_gap_is_nonnegative(name, seed):
    inst = instance(name, 2)
    x, y = pair(inst, "random", np.random.default_rng(seed))
    assert stationarity_gap(inst, x, y) >= 0.0


# ---------------------------------------------------------------------------
# decoding is monotone in its thresholds: 0 < bot < 1
# ---------------------------------------------------------------------------

RANK = {0: 0, None: 1, 1: 2}


def around(*values):
    return st.sampled_from(sorted(
        {w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))}
    ))


@PROPERTY
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_decode_brouwer_is_monotone(name, data):
    """Raising one coordinate never lowers its decoded value and leaves
    the others as they were."""
    bmap = build_brouwer(FACTORIES[name]())
    coordinate = st.one_of(unit, around(1.0 / 6.0, 5.0 / 6.0))
    z = np.array(data.draw(st.lists(coordinate, min_size=bmap.dim, max_size=bmap.dim)))
    v = data.draw(st.integers(0, bmap.dim - 1))
    raised = z.copy()
    raised[v] = data.draw(st.one_of(st.floats(float(z[v]), 1.0), coordinate.filter(lambda t: t >= z[v])))
    before, after = decode_brouwer(bmap, z).values, decode_brouwer(bmap, raised).values
    node = bmap.node_order[v]
    assert RANK[after[node]] >= RANK[before[node]]
    assert {k: b for k, b in before.items() if k != node} == {k: b for k, b in after.items() if k != node}


@PROPERTY
@given(name=st.sampled_from(["nor_loop", "oracle_purify"]), data=st.data())
def test_decode_gda_is_monotone(name, data):
    """Raising one block's squared distance never lowers that block's
    decoded value and leaves the other blocks' values as they were.  Block
    v of y is t everywhere and of x is 0, so its squared distance n m t^2
    rises with t; t is drawn inside and around the energy step's knees 3m
    and 3m + 1."""
    inst = instance(name, 4)
    size = inst.n * inst.m
    lo, hi = math.sqrt(3.0 * inst.m / size), math.sqrt((3.0 * inst.m + 1.0) / size)
    t = st.one_of(st.floats(0.0, 1.0), st.floats(lo, hi), around(lo, hi))
    t1, t2 = sorted(data.draw(t) for _ in range(2))
    v = data.draw(st.integers(0, inst.m - 1))
    x = np.zeros(inst.dim)
    y = np.array(data.draw(st.lists(unit, min_size=inst.dim, max_size=inst.dim)))
    by = inst.blocks(y)
    decoded = []
    for tv in (t1, t2):
        by[v] = tv
        decoded.append(decode_gda(inst, x, y).values)
    before, after = decoded
    node = inst.node_order[v]
    assert RANK[after[node]] >= RANK[before[node]]
    assert {k: b for k, b in before.items() if k != node} == {k: b for k, b in after.items() if k != node}
