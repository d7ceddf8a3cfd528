"""Smooth self-map of the cube built from an oracle circuit.

Every node w of a structurally valid circuit yields one coordinate of a
C-infinity map F: [0,1]^d -> [0,1]^d with d = |V|:

  NOR (u, v -> w):      F_w(z) = g(z_u + z_v)
  PURIFY (u -> v, w):   F_v(z) = ell(z_u + 1/4),  F_w(z) = ell(z_u - 1/4)
  ORACLE (u_1..u_N -> v): F_v(z) = smooth interpolation of L at
                          (z_{u_1}, ..., z_{u_N})

Only ORACLE coordinates touch the oracle, and each touches it at most
once per evaluation, so a full F or Jacobian evaluation costs at most
|V| oracle queries.  Entrywise |dF_i/dz_j| <= e^12.

build_brouwer compiles the circuit once into a frozen BrouwerMap, whose
values and slopes methods are the only place gate semantics are
dispatched: F, its Jacobian, the feedback cut and the min-max signals of
gda.py all read it.  The kernel is plateau-first: a NOR input sum at or
beyond a knee of g (1/3, 2/3), or a PURIFY input at or beyond a knee of
ell (5/12, 7/12), gets the step's constant value and zero slope (signed
as the step gives it) from NamedStep.plateau; only inputs inside the
transition band evaluate G or ELL, so smoothstep stays the one formula.

eval_F and eval_JF take one point, and each call charges exactly one
F_evals / JF_evals, so calls and ledger counts agree (the benchmark's
traced run checks this); batches are loops over calls.

A point with residual ||F(z) - z||_inf <= 1/12 decodes to a satisfying
circuit assignment by thresholding: 0 at z_v <= 1/6, 1 at z_v >= 5/6,
bot in between.

Fixed-point search: plain damped iteration z <- (1-gamma) z + gamma F(z)
converges on instances whose loops are attracting, but circuits built
around negative feedback (e.g. the constant gadget) have strongly
repelling interior fixed points whose residual-<=-1/12 neighborhoods are
orders of magnitude narrower than any orbit spacing; damped orbits
settle on limit cycles that never enter them.  For those, the instance
is reduced along a feedback vertex cut: non-cut coordinates are
propagated exactly through their gates, and an adaptively damped
iteration with a bracketing safeguard drives the remaining cut
coordinate(s) to consistency.

A damped attempt ends once its best residual has gone 500 steps without
a new best, so its step count is only a cap.  Over every circuit of
tests/circuits.py with every oracle table and the constant gadget (39
maps), from the centre, two seeded random starts at seeds 0-9 and the
grid restart point, converging attempts never went more than 10 steps
between new bests and failing ones made their last new best by step
112, so the rule returns the same points and only shortens the attempts
a later stage wins over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .boolinterp import interp_eval, interp_grad
from .circuit import (
    BOT,
    NOR,
    PURIFY,
    Assignment,
    CircuitInstance,
    validate_instance,
)
from .config import DEFAULTS, whole_number
from .ledger import QueryLedger
from .smoothstep import ELL, G

_FLOAT64 = np.dtype(np.float64)
_G_PLATEAU = G.plateau()
_ELL_PLATEAU = ELL.plateau()


@dataclass(frozen=True)
class BrouwerMap:
    """The circuit compiled into its coordinate map.  Per coordinate w: the
    kind of the gate that outputs it, the input coordinates it reads, and
    the PURIFY offset added to its input on the map side (outputs +1/4,
    -1/4) and on the signal side (-1/4, +1/4).  ``positions`` maps each
    node to its coordinate, ``gate_order`` lists coordinates gate by gate
    and ``fan_in`` the edges (u, w) from each input u to each output w in
    that order; ``jac_index`` holds the flat positions w * d + u of the
    Jacobian's nonzeros, row by row."""

    circuit: CircuitInstance
    dim: int
    node_order: Tuple[str, ...]
    ledger: QueryLedger
    positions: Dict[str, int]
    kinds: Tuple[str, ...]
    inputs: Tuple[Tuple[int, ...], ...]
    map_offsets: Tuple[float, ...]
    signal_offsets: Tuple[float, ...]
    gate_order: Tuple[int, ...]
    fan_in: Tuple[Tuple[int, int], ...]
    jac_index: np.ndarray = field(repr=False, compare=False)

    def index(self, node: str) -> int:
        if node not in self.positions:
            raise ValueError(f"{node!r} is not a node of the circuit")
        return self.positions[node]

    def values(self, vals: Sequence[float], offsets: Sequence[float], rows: Iterable[int]) -> List[float]:
        """Smooth response of each row's gate to the coordinate values `vals`.

        Inputs at or beyond a knee get the step's plateau value without a
        call; only the transition band evaluates G or ELL."""
        kinds, inputs = self.kinds, self.inputs
        g1, g2, g_lo, g_hi, _ = _G_PLATEAU
        e1, e2, e_lo, e_hi, _ = _ELL_PLATEAU
        out: List[float] = []
        append = out.append
        for w in rows:
            kind, ins = kinds[w], inputs[w]
            if kind == NOR:
                x = vals[ins[0]] + vals[ins[1]]
                append(g_lo if x <= g1 else g_hi if x >= g2 else G(x))
            elif kind == PURIFY:
                x = vals[ins[0]] + offsets[w]
                append(e_lo if x <= e1 else e_hi if x >= e2 else ELL(x))
            else:
                append(interp_eval([vals[i] for i in ins], self.circuit.oracle))
        return out

    def slopes(self, vals: Sequence[float], offsets: Sequence[float], rows: Iterable[int]) -> List[float]:
        """d response / d input for each input of each row's gate, flattened row by row."""
        kinds, inputs = self.kinds, self.inputs
        g1, g2, _, _, g_flat = _G_PLATEAU
        e1, e2, _, _, e_flat = _ELL_PLATEAU
        out: List[float] = []
        append = out.append
        for w in rows:
            kind, ins = kinds[w], inputs[w]
            if kind == NOR:
                x = vals[ins[0]] + vals[ins[1]]
                slope = g_flat if x <= g1 or x >= g2 else G.d1(x)
                out += (slope, slope)
            elif kind == PURIFY:
                x = vals[ins[0]] + offsets[w]
                append(e_flat if x <= e1 or x >= e2 else ELL.d1(x))
            else:
                out += interp_grad([vals[i] for i in ins], self.circuit.oracle).tolist()
        return out


def build_brouwer(inst: CircuitInstance) -> BrouwerMap:
    """Compile a validated circuit into its coordinate map."""
    violations = validate_instance(inst)
    if violations:
        raise ValueError("invalid circuit instance: " + "; ".join(violations))
    positions = {v: i for i, v in enumerate(inst.nodes)}
    d = len(positions)
    kinds, inputs = [NOR] * d, [()] * d
    map_offsets, signal_offsets = [0.0] * d, [0.0] * d
    gate_order: List[int] = []
    fan_in: List[Tuple[int, int]] = []
    for gate in inst.gates:
        ins = tuple(positions[u] for u in gate.inputs)
        for pos, out in enumerate(gate.outputs):
            w = positions[out]
            kinds[w], inputs[w] = gate.kind, ins
            if gate.kind == PURIFY:
                map_offsets[w] = (+0.25, -0.25)[pos]
                signal_offsets[w] = (-0.25, +0.25)[pos]
            gate_order.append(w)
            fan_in += ((u, w) for u in ins)
    jac_index = np.array([w * d + u for w in range(d) for u in inputs[w]], dtype=np.intp)
    return BrouwerMap(inst, d, tuple(inst.nodes), inst.ledger, positions, tuple(kinds), tuple(inputs),
                      tuple(map_offsets), tuple(signal_offsets), tuple(gate_order), tuple(fan_in), jac_index)


def _check_domain(bmap: BrouwerMap, z: np.ndarray) -> List[float]:
    """z as a list of floats, each checked to lie in [0, 1] (NaN fails the comparison)."""
    if type(z) is not np.ndarray or z.dtype is not _FLOAT64:
        z = np.asarray(z, dtype=float)
    if z.shape != (bmap.dim,):
        raise ValueError(f"point has shape {z.shape}, expected ({bmap.dim},)")
    zl = z.tolist()
    for v in zl:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"point outside [0,1]^d: coordinate {v!r}")
    return zl


def eval_component(bmap: BrouwerMap, node_idx: int, z: Sequence[float]) -> float:
    return bmap.values(z, bmap.map_offsets, (node_idx,))[0]


def eval_F(bmap: BrouwerMap, z: np.ndarray) -> np.ndarray:
    """F(z); at most one oracle query per ORACLE coordinate."""
    zl = _check_domain(bmap, z)
    bmap.ledger.record("F_evals")
    return np.array(bmap.values(zl, bmap.map_offsets, range(bmap.dim)), dtype=float)


def eval_JF(bmap: BrouwerMap, z: np.ndarray) -> np.ndarray:
    """Dense Jacobian; rows are sparse by gate fan-in, filled analytically."""
    zl = _check_domain(bmap, z)
    bmap.ledger.record("JF_evals")
    d = bmap.dim
    jac = np.zeros(d * d)
    jac[bmap.jac_index] = bmap.slopes(zl, bmap.map_offsets, range(d))
    return jac.reshape(d, d)


def displacement(bmap: BrouwerMap, z: np.ndarray) -> np.ndarray:
    """F(z) - z."""
    return eval_F(bmap, z) - np.asarray(z, dtype=float)


def residual(bmap: BrouwerMap, z: np.ndarray) -> float:
    return float(np.max(np.abs(eval_F(bmap, z) - z)))


def decode_brouwer(bmap: BrouwerMap, z: np.ndarray) -> Assignment:
    """Threshold decoding: 0 at z_v <= 1/6, 1 at z_v >= 5/6, bot between."""
    z = _check_domain(bmap, z)
    values = {}
    for node, zv in zip(bmap.node_order, z):
        if zv <= 1.0 / 6.0:
            values[node] = 0
        elif zv >= 5.0 / 6.0:
            values[node] = 1
        else:
            values[node] = BOT
    return Assignment(values)


def verify_brouwer_solution(
    bmap: BrouwerMap, z: np.ndarray, eps: float = DEFAULTS.brouwer_eps
) -> bool:
    return residual(bmap, z) <= eps


# ---------------------------------------------------------------------------
# fixed-point search
# ---------------------------------------------------------------------------

@dataclass
class FixedPointResult:
    z: np.ndarray
    residual: float
    method: str
    iterations: int
    converged: bool
    trace: List[Tuple[int, float, int]] = field(default_factory=list)


def damped_iteration(bmap: BrouwerMap, z0: Optional[np.ndarray] = None, steps: int = 5000) -> FixedPointResult:
    """z <- (1-gamma) z + gamma F(z) with gamma = 1/4, tracking the best
    iterate seen.  An attempt ends at a best residual <= 1/12, once the
    best residual has gone 500 steps without a new best, or after `steps`
    steps, whichever comes first.  The trace gets a row every 100 steps,
    and a last row with the best residual unless it would repeat the row
    before."""
    count = whole_number(steps, "steps")
    gamma, target, patience = 0.25, DEFAULTS.brouwer_eps, 500
    z = np.full(bmap.dim, 0.5) if z0 is None else np.asarray(z0, dtype=float).copy()
    best_z = z.copy()
    fz = eval_F(bmap, z)
    best_res = float(np.max(np.abs(fz - z)))
    trace: List[Tuple[int, float, int]] = [(0, best_res, bmap.ledger.total())]
    it = best_it = 0
    for it in range(1, count + 1):
        z = (1.0 - gamma) * z + gamma * fz
        fz = eval_F(bmap, z)
        res = float(np.max(np.abs(fz - z)))
        if res < best_res:
            best_res, best_it = res, it
            best_z = z.copy()
        if it % 100 == 0:
            trace.append((it, res, bmap.ledger.total()))
        if best_res <= target or it - best_it >= patience:
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


def grid_restart_point(bmap: BrouwerMap) -> np.ndarray:
    """Lowest-residual point of the uniform 21-point-per-axis grid, the
    first in row-major order on ties; gated to d <= 3.

    The scan stops at the first point with residual 0.0: no residual is
    lower, so a full scan would return that point too."""
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
            if res == 0.0:
                break
    return best_z


def _first_cycle(succ: Dict[int, Dict[int, None]]) -> List[int]:
    """Nodes of the first cycle a depth-first walk meets, or [] if there is
    none.  Start nodes are taken in insertion order and out-edges in
    first-insertion order, the walk networkx's find_cycle makes on the same
    DiGraph, so both return the same cycle."""
    visited = set()
    for start in succ:
        if start in visited:
            continue
        visited.add(start)
        path, on_path = [start], {start}
        walks = [iter(succ[start])]
        while walks:
            for head in walks[-1]:
                if head in on_path:
                    return path[path.index(head):]
                if head not in visited:
                    visited.add(head)
                    path.append(head)
                    on_path.add(head)
                    walks.append(iter(succ[head]))
                    break
            else:
                walks.pop()
                on_path.remove(path.pop())
    return []


def feedback_cut(bmap: BrouwerMap) -> Tuple[List[int], List[int]]:
    """Greedy feedback vertex set of the gate graph, plus a propagation
    order for the remaining nodes (topological in the cut-free graph).

    Each round removes the node of the first cycle with the most in- plus
    out-edges in the remaining graph, the lowest index on ties.  The cut
    fixes the iterates of cycle_cut_solve, so the cycle choice matters;
    the tests check it against networkx."""
    # successor and predecessor sets as insertion-ordered dicts: parallel
    # edges collapse, self-loops stay, edges keep first-insertion order
    succ: Dict[int, Dict[int, None]] = {v: {} for v in range(bmap.dim)}
    pred: Dict[int, Dict[int, None]] = {v: {} for v in range(bmap.dim)}
    for w, inputs in enumerate(bmap.inputs):
        for u in inputs:
            succ[u][w] = None
            pred[w][u] = None
    cut: List[int] = []
    while True:
        cycle = _first_cycle(succ)
        if not cycle:
            break
        victim = max(cycle, key=lambda v: (len(pred[v]) + len(succ[v]), -v))
        cut.append(victim)
        for w in succ.pop(victim):
            del pred[w][victim]  # drops a self-loop too, so pred.pop skips it
        for u in pred.pop(victim):
            del succ[u][victim]
    # Kahn's algorithm; any topological order propagates the same values
    indegree = {v: len(pred[v]) for v in succ}
    order = [v for v in succ if not indegree[v]]
    for v in order:
        for w in succ[v]:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    return sorted(cut), order


def _propagate(bmap: BrouwerMap, cut: Sequence[int], order: Sequence[int], cut_values: np.ndarray) -> np.ndarray:
    z = [0.0] * bmap.dim
    for pos, node in enumerate(cut):
        z[node] = float(cut_values[pos])
    for node in order:
        z[node] = eval_component(bmap, node, z)
    return np.array(z)


def cycle_cut_solve(bmap: BrouwerMap) -> FixedPointResult:
    """Adaptively damped iteration on the feedback-cut reduced map.

    Non-cut coordinates are exactly consistent by propagation, so the
    full residual equals the reduced one.  For a single cut coordinate
    the update keeps a sign bracket (the reduced displacement is >= 0 at
    0 and <= 0 at 1), halves the damping on oscillation, and falls back
    to the bracket midpoint when a step would leave it, which makes the
    iteration globally convergent.  Multi-coordinate cuts use the same
    adaptive damping without the bracket, from the centre and then up to
    seven random starts.  Damping starts at 1/2; an attempt stops at a
    reduced displacement of 1e-11 or after 20000 steps, and `iterations`
    counts the reduced-map evaluations of all attempts.
    """
    target, max_iter, tol = DEFAULTS.brouwer_eps, 20000, 1e-11
    cut, order = feedback_cut(bmap)
    if not cut:
        z = _propagate(bmap, cut, order, np.empty(0))
        res = residual(bmap, z)
        return FixedPointResult(z, res, "cycle_cut", 0, res <= target)

    def reduced(c: np.ndarray) -> np.ndarray:
        z = _propagate(bmap, cut, order, c)
        return np.array([eval_component(bmap, node, z) for node in cut])

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
        rng = np.random.default_rng(0)
        best_c = None
        best_norm = np.inf
        it = 0
        for attempt in range(8):
            c = np.full(len(cut), 0.5) if attempt == 0 else rng.random(len(cut))
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
    z = _propagate(bmap, cut, order, cut_values)
    res = residual(bmap, z)
    return FixedPointResult(z, res, "cycle_cut", it, res <= target)


def write_residual_trace(result: FixedPointResult, path) -> None:
    """Residual trace as CSV: iteration, residual, cumulative ledger total."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "residual", "ledger_total"])
        for iteration, res, total in result.trace:
            writer.writerow([iteration, repr(res), total])


def find_fixed_point(bmap: BrouwerMap, damped_steps: int = 5000, seed: int = 0) -> FixedPointResult:
    """Damped iteration from the centre and two random starts, then from
    the grid restart point for d <= 3, then the feedback-cut solver;
    returns the first result within DEFAULTS.brouwer_eps, else the one
    with the lowest residual."""
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
