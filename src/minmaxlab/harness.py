"""Solvers and validators around the min-max oracles.

Solvers talk to objectives only through ledgered value/gradient oracles
(anything with ``dim_x``, ``dim_y``, ``value``, ``grad``, ``ledger``,
``mode``).  Projected gradient descent-ascent iterates

    (x, y) <- (clip(x - lr * df/dx), clip(y + lr * df/dy))

and famously cycles on bilinear saddles at fixed step size, while the
extragradient variant (gradient at an extrapolated midpoint) converges;
both are provided as observables, not as endorsed algorithms.  The
stationarity gap of every visited iterate is computed from the gradient
already needed by the update, so a PGDA iteration costs exactly one
gradient-oracle call and an extragradient iteration exactly two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULTS, check_nonnegative, whole_number
from .gda import GdaInstance, endpoint_gap, eval_f, eval_grad_f
from .ledger import QueryLedger


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

@dataclass
class GdaObjective:
    """Ledgered oracle view of a built min-max instance."""

    inst: GdaInstance

    def __post_init__(self) -> None:
        self.dim_x = self.dim_y = self.inst.dim
        self.ledger = self.inst.ledger
        self.mode = self.inst.params.mode

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        return eval_f(self.inst, x, y)

    def grad(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return eval_grad_f(self.inst, x, y)


@dataclass
class BilinearToy:
    """f(x, y) = (x - 1/2)(y - 1/2) on [0,1]^2: the canonical cycling saddle."""

    ledger: QueryLedger = field(default_factory=QueryLedger)
    mode: str = "toy"
    dim_x: int = 1
    dim_y: int = 1

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        self.ledger.record("f_evals")
        return float((x[0] - 0.5) * (y[0] - 0.5))

    def grad(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        self.ledger.record("grad_f_evals")
        return y - 0.5, x - 0.5


# ---------------------------------------------------------------------------
# solver runs
# ---------------------------------------------------------------------------

@dataclass
class SolverRun:
    algorithm: str
    step_size: float
    iterations: int  # completed; fewer than requested when aborted
    seed: Optional[int]
    mode: str
    best_gap: float  # inf until a finite gap is seen
    best_point: Tuple[np.ndarray, np.ndarray]
    final_point: Tuple[np.ndarray, np.ndarray]
    gap_curve: List[Tuple[int, float]]
    ledger_snapshot: Dict[str, int]
    aborted: bool = False
    diagnostic: Optional[str] = None


def _start_point(obj, seed: Optional[int], x0, y0) -> Tuple[np.ndarray, np.ndarray]:
    # Seeded starts draw x, then y, coordinate by coordinate from the standard
    # library's random.Random; the stream identity is configuration, not
    # contract.  The seed is checked first, as random.Random would take -3 as
    # 3 and accept 1.5.
    if (x0 is None) != (y0 is None):
        raise ValueError("give both x0 and y0, or neither")
    if x0 is None:
        rng = random.Random(0 if seed is None else whole_number(seed, "seed"))
        x = np.array([rng.random() for _ in range(obj.dim_x)])
        return x, np.array([rng.random() for _ in range(obj.dim_y)])
    x0, y0 = np.array(x0, dtype=float), np.array(y0, dtype=float)
    for name, point, dim in (("x0", x0, obj.dim_x), ("y0", y0, obj.dim_y)):
        if point.shape != (dim,) or not (point.min() >= 0.0 and point.max() <= 1.0):  # NaN fails
            raise ValueError(f"{name} must have shape ({dim},) and lie in [0,1], got shape {point.shape}")
    return x0, y0


def _projected_step(x, y, gx, gy, lr: float) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(x, y) moved by lr down gx and up gy and clipped to the box, which keeps
    them finite even where lr * g overflows; None when the gradient is not finite."""
    if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))):
        return None
    return np.clip(x - lr * gx, 0.0, 1.0), np.clip(y + lr * gy, 0.0, 1.0)


def _run_gda_family(
    obj,
    steps: int,
    lr: Optional[float],
    seed: Optional[int],
    x0,
    y0,
    gap_every: int,
    extragradient: bool,
) -> SolverRun:
    steps = whole_number(steps, "steps", 1)
    if lr is None:
        lr = 0.1 / math.sqrt(steps)
    check_nonnegative(lr, "lr")
    gap_every = whole_number(gap_every, "gap_every", 1)
    x, y = _start_point(obj, seed, x0, y0)
    best_gap = math.inf
    best_point = (x.copy(), y.copy())
    curve: List[Tuple[int, float]] = []
    aborted = False
    diagnostic = None
    algorithm = "extragradient" if extragradient else "pgda"
    for t in range(steps):
        gx, gy = obj.grad(x, y)
        moved = _projected_step(x, y, gx, gy, lr)
        if moved is not None:
            gap = endpoint_gap(x, y, gx, gy)
            if gap < best_gap:
                best_gap = gap
                best_point = (x.copy(), y.copy())
            if t % gap_every == 0:
                curve.append((t, gap))
            if extragradient:  # step from (x, y) again, along the gradient at the extrapolated point
                moved = _projected_step(x, y, *obj.grad(*moved), lr)
        if moved is None:
            aborted, diagnostic = True, f"non-finite gradient at iteration {t}"
            break
        x, y = moved
    return SolverRun(
        algorithm=algorithm,
        step_size=lr,
        iterations=t if aborted else steps,
        seed=seed,
        mode=obj.mode,
        best_gap=best_gap,
        best_point=best_point,
        final_point=(x, y),
        gap_curve=curve,
        ledger_snapshot=obj.ledger.snapshot(),
        aborted=aborted,
        diagnostic=diagnostic,
    )


def run_pgda(
    obj,
    steps: int,
    lr: Optional[float] = None,
    seed: Optional[int] = 0,
    x0: Optional[np.ndarray] = None,
    y0: Optional[np.ndarray] = None,
    gap_every: int = 100,
) -> SolverRun:
    """Projected gradient descent-ascent; one gradient call per iteration."""
    return _run_gda_family(obj, steps, lr, seed, x0, y0, gap_every, extragradient=False)


def run_extragradient(
    obj,
    steps: int,
    lr: Optional[float] = None,
    seed: Optional[int] = 0,
    x0: Optional[np.ndarray] = None,
    y0: Optional[np.ndarray] = None,
    gap_every: int = 100,
) -> SolverRun:
    """Extragradient; exactly two gradient calls per iteration."""
    return _run_gda_family(obj, steps, lr, seed, x0, y0, gap_every, extragradient=True)


def grid_search_stationary(obj, resolution: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive stationarity scan of the uniform grid; budget-gated."""
    resolution = whole_number(resolution, "resolution", 2)
    total_dim = obj.dim_x + obj.dim_y
    if resolution**total_dim > DEFAULTS.grid_search_budget:
        raise ValueError(
            f"grid of size {resolution}^{total_dim} exceeds budget {DEFAULTS.grid_search_budget}"
        )
    axis = np.linspace(0.0, 1.0, resolution)
    best = (None, None, math.inf)
    for xs in product(axis, repeat=obj.dim_x):
        x = np.array(xs)
        for ys in product(axis, repeat=obj.dim_y):
            y = np.array(ys)
            gx, gy = obj.grad(x, y)
            gap = endpoint_gap(x, y, gx, gy)
            if gap < best[2]:
                best = (x, y, gap)
    return best


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class FdReport:
    max_rel_err: float
    worst_coordinate: Optional[int]
    worst_point_index: Optional[int]
    checked: int
    skipped: List[Tuple[int, str]] = field(default_factory=list)


def check_fd_step(h: float, what: str = "h") -> None:
    """A central-difference step must lie in (0, 1/2]: above 1/2 every point
    of the box is within h of a face, so fd_check would check none."""
    if not 0 < h <= 0.5:  # NaN fails
        raise ValueError(f"{what} must lie in (0, 1/2], got {h!r}")


def fd_error(fd: float, analytic: float) -> float:
    """|fd - analytic|, divided by max(|fd|, |analytic|) when that exceeds 1;
    inf when it is not finite, so a NaN or infinite derivative fails."""
    err = float(abs(fd - analytic))
    scale = float(max(abs(fd), abs(analytic)))
    if scale > 1.0:
        err /= scale
    return err if math.isfinite(err) else math.inf


def fd_check(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    points: Sequence[np.ndarray],
    h: float,
) -> FdReport:
    """Central-difference check of grad_fn against value_fn.

    value_fn may return a scalar or a vector; grad_fn returns the gradient,
    or the Jacobian whose column j (``analytic[..., j]``) holds the partials
    along coordinate j.  Per-entry error as in fd_error; the first
    coordinate with the largest error, a non-finite one counting as inf, is
    reported.  Points closer than h to the box boundary are skipped with a
    note (the stencil would leave the domain).
    """
    check_fd_step(h)
    max_err = 0.0
    worst_coord = None
    worst_point = None
    checked = 0
    skipped: List[Tuple[int, str]] = []
    for p_idx, point in enumerate(points):
        point = np.asarray(point, dtype=float)
        if np.any(point < h) or np.any(point > 1.0 - h):
            skipped.append((p_idx, "within h of the boundary"))
            continue
        analytic = np.asarray(grad_fn(point), dtype=float)
        checked += 1
        for j in range(point.size):
            shifted = point.copy()
            shifted[j] = point[j] + h
            up = value_fn(shifted)
            shifted[j] = point[j] - h
            down = value_fn(shifted)
            fd = np.ravel((up - down) / (2.0 * h))
            for fd_i, analytic_i in zip(fd, np.ravel(analytic[..., j])):
                err = fd_error(fd_i, analytic_i)
                if err > max_err:
                    max_err = err
                    worst_coord = j
                    worst_point = p_idx
    return FdReport(
        max_rel_err=max_err,
        worst_coordinate=worst_coord,
        worst_point_index=worst_point,
        checked=checked,
        skipped=skipped,
    )
