"""Min-max objective built from replicated copies of a smooth cube map.

Given a circuit on m nodes and its smooth map F: [0,1]^m -> [0,1]^m, each
player controls a vector indexed by (node v, replica i in [n], inner
coordinate j in [m]); the flat layout is

    index(v, i, j) = (v_idx * n + (i-1)) * m + (j-1),

identical for x and y, so a player's dimension is d = |V| * n * m.

Per node v the construction uses
  energy      E_v(x, y)   = step_{3m,3m+1}(||x^v - y^v||^2),
  gadget      H_v(x, y)   = sum_i < F(xi) - xi, y_i^v - x_i^v >,
                            xi = (x_i^v + y_i^v)/2,
  signal      s_w(x, y)   = gate-typed response to the input energies:
                 NOR (u,v -> w):     g(E_u + E_v)
                 PURIFY (u -> w,.):  ell(E_u - 1/4)       (first output)
                 PURIFY (u -> .,w):  ell(E_u + 1/4)       (second output)
                 ORACLE (u_1..u_N -> w): interpolation of L at (E_{u_i})_i
              so s_w = F_{sibling(w)}(E): F at the energies, with the two
              outputs of each PURIFY gate swapped, read from F's kernels;
and the objective

    f(x, y) = sum_w s_w * H_w + sum_w sum_i M_i ||x_i^w - y_i^w||^2,

with regularizer weights M_i = delta * (i - n/2).  The analytic gradient
decomposes per coordinate as

    df/dx^q_{i,j} = s_q * dH + 2 (M_i + Delta_q) (x^q_{i,j} - y^q_{i,j}),
    df/dy^q_{i,j} = s_q * dH' - 2 (M_i + Delta_q) (x^q_{i,j} - y^q_{i,j}),

where dH = -G_j(xi) + R, dH' = +G_j(xi) + R with G(z) = F(z) - z,
R = (1/2) sum_k (y_{i,k} - x_{i,k}) dG_k/dz_j (xi), and Delta_q collects
the signal sensitivities of downstream gates:

    Delta_q = sum_{w in Out(q)} H_w * step'_{3m,3m+1}(||x^q - y^q||^2)
              * ds_w/dE_q.

F is evaluated, one counted eval_F per replica in block order, only at the blocks
need = live | fed: live = {w : s_w != 0}, fed = the outputs w of fan-in edges (q, w)
with step'(||x^q - y^q||^2) != 0.  eval_f takes need = live and eval_grad_f live | fed;
H_w is summed only at those blocks, replica by replica on Python floats from 0.0,
and any other H_w is +0.0, times s_w = 0 or unread.

A pair (x, y) solves the stationarity problem at tolerance eps when no
coordinate admits a feasible first-order improvement larger than eps;
since each improvement expression is affine in the moved coordinate, the
gap is computed exactly from the interval endpoints {0, 1}.

Parameter regimes: "paper" mode applies the closed-form schedule
delta = rho^4 / (400 m^2 e^26), n = ceil(2^13 e^13 m^4 / delta^3),
eps = min(delta/n, delta^2 / (m^4 2^4 e^14)); the resulting n overflows
64-bit integers for every m >= 1, so paper-mode parameter records carry
an explicit infeasibility flag and their magnitudes, and instances can
only be built in "scaled" mode (user-supplied delta, even n, eps).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import Dict, List, Optional, Tuple

import numpy as np

from .brouwer import BrouwerMap, build_brouwer, eval_F, eval_JF, residual
from .circuit import (
    BOT,
    Assignment,
    CircuitInstance,
    Gate,
    check_assignment,
)
from .config import DEFAULTS, check_unit_cube, whole_number
from .ledger import QueryLedger
from .smoothstep import NamedStep, energy_step

_MAX_INT64 = 2**63 - 1


@dataclass(frozen=True)
class GdaParams:
    """Instance parameters; in paper mode `feasible` reports whether n is
    representable in 64 bits (it never is for m >= 1), and n is 0 where
    even a double overflows."""

    m: int
    rho: float
    delta: float
    n: int
    eps: float
    mode: str
    feasible: bool
    log2_n: float

    def as_dict(self) -> Dict[str, object]:
        return asdict(self) | {"n": self.n if self.feasible else None}


def derive_parameters(
    m: int,
    rho: float = DEFAULTS.default_rho,
    mode: str = "paper",
    *,
    delta: Optional[float] = None,
    n: Optional[int] = None,
    eps: Optional[float] = None,
) -> GdaParams:
    """Build a parameter record.

    Paper mode evaluates the closed-form schedule in binary64 and flags
    overflow (n > 2^63 - 1) instead of failing; the record still carries
    delta, eps, and log2(n) so the magnitudes remain inspectable.  Scaled
    mode takes user-supplied finite positive delta and eps and a positive
    even n.
    """
    m = whole_number(m, "m", 1)
    if not (isinstance(rho, Real) and 0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0,1), got {rho!r}")
    if mode == "paper":
        d_val = rho**4 / (400.0 * m**2 * math.exp(26.0))
        # log2 n from rho and m in log space: for a small rho, n overflows a
        # double and delta**3 underflows to 0, and the record still says how large n is
        log2_d = 4.0 * math.log2(rho) - math.log2(400.0) - 2.0 * math.log2(m) - 26.0 / math.log(2.0)
        log2_n = 13.0 + 13.0 / math.log(2.0) + 4.0 * math.log2(m) - 3.0 * log2_d
        d_cubed = d_val**3
        n_float = 2.0**13 * math.exp(13.0) * m**4 / d_cubed if d_cubed else math.inf
        n = math.ceil(n_float) if n_float < math.inf else 0
        e_val = min(d_val / n_float, d_val**2 / (m**4 * 2.0**4 * math.exp(14.0)))
        return GdaParams(
            m=m,
            rho=rho,
            delta=d_val,
            n=n,
            eps=e_val,
            mode="paper",
            feasible=0 < n <= _MAX_INT64,
            log2_n=log2_n,
        )
    if mode == "scaled":
        if delta is None or n is None or eps is None:
            raise ValueError("scaled mode needs delta, n, and eps")
        # NaN fails, and so do True and False, which are Reals but not numbers
        if not all(isinstance(v, Real) and not isinstance(v, bool) and 0 < v < math.inf for v in (delta, eps)):
            raise ValueError(f"delta and eps must be finite positive numbers, got {delta!r}, {eps!r}")
        n = whole_number(n, "n", 2)
        if n % 2:
            raise ValueError(f"n must be a positive even integer, got {n!r}")
        return GdaParams(
            m=m,
            rho=rho,
            delta=float(delta),
            n=n,
            eps=float(eps),
            mode="scaled",
            feasible=True,
            log2_n=math.log2(n),
        )
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class GdaInstance:
    params: GdaParams
    circuit: CircuitInstance
    bmap: BrouwerMap
    n: int
    m: int
    dim: int
    node_order: Tuple[str, ...]
    weights: np.ndarray  # M_i, shape (n,)
    ledger: QueryLedger
    energy_step: NamedStep = field(repr=False)

    def flat_index(self, node: str, i: int, j: int) -> int:
        """Flat coordinate of (node, replica i in [1..n], inner j in [1..m])."""
        v_idx = self.bmap.index(node)
        if type(i) is not int or type(j) is not int:
            i, j = whole_number(i, "replica index i"), whole_number(j, "inner index j")
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise ValueError(f"replica/inner index out of range: ({i}, {j})")
        return (v_idx * self.n + (i - 1)) * self.m + (j - 1)

    def blocks(self, vec: np.ndarray) -> np.ndarray:
        """(|V|, n, m) view of a flat player vector."""
        return vec.reshape(len(self.node_order), self.n, self.m)


def build_gda_instance(circuit: CircuitInstance, params: GdaParams) -> GdaInstance:
    if not params.feasible:
        raise ValueError(
            "paper-scale parameters are numerically infeasible "
            f"(log2 n = {params.log2_n:.1f}); use scaled mode"
        )
    bmap = build_brouwer(circuit)
    m = bmap.dim
    if params.m != m:
        raise ValueError(f"params.m = {params.m} but the circuit has {m} nodes")
    n = params.n
    weights = params.delta * (np.arange(1, n + 1) - n / 2.0)
    return GdaInstance(
        params=params,
        circuit=circuit,
        bmap=bmap,
        n=n,
        m=m,
        dim=m * n * m,
        node_order=bmap.node_order,
        weights=weights,
        ledger=circuit.ledger,
        energy_step=energy_step(m),
    )


def _check_pair(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (inst.dim,) or y.shape != (inst.dim,):
        raise ValueError(f"points must have shape ({inst.dim},)")
    # numpy screens the point (NaN fails); the per-value rule, 0.16 ms at d = 2304, runs only to name the coordinate
    if not (x.min() >= 0.0 and x.max() <= 1.0 and y.min() >= 0.0 and y.max() <= 1.0):
        check_unit_cube(x.tolist() + y.tolist())
    return x, y


# ---------------------------------------------------------------------------
# building blocks: energies, signals, gadgets
# ---------------------------------------------------------------------------

def _sqnorms(diff: np.ndarray) -> np.ndarray:
    """||x^v - y^v||^2 per block of the (|V|, n, m) difference x - y."""
    return np.einsum("vij,vij->v", diff, diff)


def block_energies(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y = _check_pair(inst, x, y)
    return np.array([inst.energy_step(s) for s in _sqnorms(inst.blocks(x) - inst.blocks(y))])


def _signals_from_energies(bmap: BrouwerMap, energies: List[float]) -> List[float]:
    """s_w = F_{sibling[w]}(E), in coordinate order."""
    values = bmap.map_values(energies)
    return [values[v] for v in bmap.sibling]


def signals(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array(_signals_from_energies(inst.bmap, block_energies(inst, x, y).tolist()))


def _displacements(inst: GdaInstance, bx: np.ndarray, by: np.ndarray, need: List[int]) -> np.ndarray:
    """G(xi) = F(xi) - xi at the replica midpoints xi = (bx + by) / 2 of the blocks
    in ascending ``need``, one eval_F each, block then replica: shape (len(need), n, m)."""
    xi = 0.5 * (bx[need] + by[need])
    return np.array([eval_F(inst.bmap, p) for p in xi.reshape(-1, inst.m)]).reshape(xi.shape) - xi


def _gadgets(disp: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """H_v = sum_i <G(xi), y_i^v - x_i^v> for each block of the displacements and
    the same blocks of bx, by; summed replica by replica on Python floats from 0.0."""
    H = []
    for dots in np.matmul(disp[..., None, :], (by - bx)[..., :, None])[..., 0, 0].tolist():
        h = 0.0
        for dot in dots:
            h += dot
        H.append(h)
    return np.array(H)


def _weighted_sqnorm(inst: GdaInstance, diff: np.ndarray) -> float:
    """sum_v sum_i M_i ||x_i^v - y_i^v||^2 of the (|V|, n, m) difference x - y."""
    per_replica = np.einsum("vij,vij->vi", diff, diff)
    return float(np.sum(per_replica * inst.weights[None, :]))


def regularizer(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> float:
    x, y = _check_pair(inst, x, y)
    return _weighted_sqnorm(inst, inst.blocks(x) - inst.blocks(y))


# ---------------------------------------------------------------------------
# objective and analytic gradient
# ---------------------------------------------------------------------------

def eval_f(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Objective value; n eval_F per live block (s_w != 0), whose H_w alone is read."""
    x, y = _check_pair(inst, x, y)
    inst.ledger.record("f_evals")
    bx, by = inst.blocks(x), inst.blocks(y)
    diff = bx - by  # shared by the energies and the regularizer
    sig = _signals_from_energies(inst.bmap, [inst.energy_step(s) for s in _sqnorms(diff).tolist()])
    live = [w for w, s in enumerate(sig) if s != 0.0]
    H = np.zeros(inst.m)  # +0.0 where s_w == 0.0
    if live:
        H[live] = _gadgets(_displacements(inst, bx, by, live), bx[live], by[live])
    return float(np.dot(sig, H)) + _weighted_sqnorm(inst, diff)


def eval_grad_f(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic gradient (df/dx, df/dy), sharing per-block intermediates.

    The per-coordinate recomputation of the same formulas is kept out of
    the production path on purpose; it serves as the independent oracle
    in the test suite.
    """
    x, y = _check_pair(inst, x, y)
    inst.ledger.record("grad_f_evals")
    bx, by = inst.blocks(x), inst.blocks(y)
    m, bmap = inst.m, inst.bmap
    diff = bx - by
    sq = _sqnorms(diff)
    energies = np.array([inst.energy_step(s) for s in sq])
    ephi1 = [inst.energy_step.d1(s) for s in sq]
    sig = np.array(_signals_from_energies(bmap, energies.tolist()))

    live = np.flatnonzero(sig != 0.0)
    # Delta_q reads H_w and the slopes (L queries) only on edges (q, w) with q in transition
    fed = [(u, w, k) for u, w, k in bmap.fan_in if ephi1[u] != 0.0]
    need = sorted(set(live.tolist()).union(w for _, w, _ in fed))
    disp = _displacements(inst, bx, by, need)
    sens = np.zeros(m)
    if fed:
        H = dict(zip(need, _gadgets(disp, bx[need], by[need]).tolist()))
        slopes = bmap.map_slopes(energies.tolist())
        # sens[q] sums H_w * ds_w/dE_q over w in Out(q) in gate order; ds_w/dE_q = dF_{sibling[w]}/dz_q = slopes[k]
        for u, w, k in fed:
            sens[u] += H[w] * slopes[k]
    gvec = disp if len(need) == len(live) else disp[np.searchsorted(need, live)]  # the rows of live

    # Delta_q = step' * sens is +-0.0 where step' is 0, as no edge of fed leaves q
    coupling = 2.0 * (inst.weights[None, :, None] + (sens * ephi1)[:, None, None]) * diff
    gx, gy = coupling.copy(), -coupling
    points = (0.5 * (bx[live] + by[live])).reshape(-1, m)
    jac_g = np.array([eval_JF(bmap, p) for p in points]).reshape(gvec.shape + (m,)) - np.eye(m)
    rrow = np.matmul((0.5 * (by[live] - bx[live]))[..., None, :], jac_g)[..., 0, :]
    s = sig[live][:, None, None]
    gx[live] = s * (-gvec + rrow) + coupling[live]
    gy[live] = s * (gvec + rrow) - coupling[live]
    return gx.reshape(inst.dim), gy.reshape(inst.dim)


# ---------------------------------------------------------------------------
# stationarity, decoding, dichotomy
# ---------------------------------------------------------------------------

def endpoint_gap(
    x: np.ndarray, y: np.ndarray, gx: np.ndarray, gy: np.ndarray
) -> float:
    """Largest feasible first-order improvement, exact via endpoints.

    Each expression -gx_j (x' - x_j) (resp. +gy_j (y' - y_j)) is affine in
    the free coordinate, so its maximum over [0,1] is attained at 0 or 1.
    """
    x_terms = np.maximum(gx * x, -gx * (1.0 - x))
    y_terms = np.maximum(-gy * y, gy * (1.0 - y))
    return float(max(np.max(x_terms), np.max(y_terms)))


def stationarity_gap(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> float:
    x, y = _check_pair(inst, x, y)
    gx, gy = eval_grad_f(inst, x, y)
    return endpoint_gap(x, y, gx, gy)


def decode_gda(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> Assignment:
    """b(v) = E_v when the energy is exactly 0 or 1, else bot."""
    energies = block_energies(inst, x, y)
    values = {}
    for node, e in zip(inst.node_order, energies):
        if e == 0.0:
            values[node] = 0
        elif e == 1.0:
            values[node] = 1
        else:
            values[node] = BOT
    return Assignment(values)


@dataclass
class BrouwerWitness:
    node: str
    replica: int  # 1-based
    point: np.ndarray
    residual: float


@dataclass
class DichotomyResult:
    """Exactly one of `witness` / `assignment` is populated."""

    gap: float
    gap_ok: bool
    witness: Optional[BrouwerWitness] = None
    assignment: Optional[Assignment] = None
    violations: Optional[List[Gate]] = None
    warning: Optional[str] = None


def dichotomy_extract(inst: GdaInstance, x: np.ndarray, y: np.ndarray) -> DichotomyResult:
    """Scan replica midpoints for a fixed-point witness; otherwise decode.

    Deterministic scan order (nodes in instance order, replicas
    ascending); the first midpoint with residual <= rho wins.  When no
    witness exists the decoded assignment is returned together with its
    gate-check report; a nonempty report is data, not an error (the
    all-gates-satisfied guarantee is tied to paper-scale parameters).
    A caller-supplied non-stationary point only triggers a warning.
    """
    x, y = _check_pair(inst, x, y)
    gap = stationarity_gap(inst, x, y)
    gap_ok = gap <= inst.params.eps
    warning = None
    if not gap_ok:
        warning = (
            f"point is not {inst.params.eps:.3g}-stationary (gap {gap:.3g}); "
            "extraction still runs"
        )
    bx, by = inst.blocks(x), inst.blocks(y)
    for v, node in enumerate(inst.node_order):
        for i in range(inst.n):
            xi = 0.5 * (bx[v, i] + by[v, i])
            res = residual(inst.bmap, xi)
            if res <= inst.params.rho:
                return DichotomyResult(
                    gap=gap,
                    gap_ok=gap_ok,
                    witness=BrouwerWitness(node=node, replica=i + 1, point=xi, residual=res),
                    warning=warning,
                )
    assignment = decode_gda(inst, x, y)
    violations = check_assignment(inst.circuit, assignment)
    return DichotomyResult(
        gap=gap,
        gap_ok=gap_ok,
        assignment=assignment,
        violations=violations,
        warning=warning,
    )
