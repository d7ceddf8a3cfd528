"""Independent numeric oracles shared by the test suite.

These deliberately avoid the analytic code paths they are used to check:
derivatives come from central difference stencils, products from direct
loops.  The reference interpolation (reference_interp_eval, _grad and
_hess_entry) is the three-walk form that boolinterp replaced: it checks x
and finds the vertex in one walk, then takes alpha and alpha' at every
coordinate, then forms prefix and suffix products over all of them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from minmaxlab.boolinterp import BoolOracle, box_profile
from minmaxlab.smoothstep import ALPHA


def central_diff(f: Callable[[float], float], x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f: Callable[[float], float], x: float, h: float = 1e-4) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def grad_central(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.size):
        up = x.copy()
        up[j] += h
        down = x.copy()
        down[j] -= h
        out[j] = (f(up) - f(down)) / (2.0 * h)
    return out


def rel_err(approx: float, exact: float) -> float:
    """|approx - exact| relative to max(1, |approx|, |exact|)."""
    err = abs(approx - exact)
    scale = max(abs(approx), abs(exact))
    return err / scale if scale > 1.0 else err


Bits = Tuple[int, ...]
_A1, _A2, _A_LO, _A_HI, _A_FLAT = ALPHA.plateau()


def _checked_vertex(x: Sequence[float], arity: int) -> Optional[Bits]:
    if len(x) != arity:
        raise ValueError(f"point has {len(x)} coordinates, oracle arity is {arity}")
    vertex = []
    for xi in x:
        if 0.0 <= xi <= 1.0 / 3.0:
            vertex.append(0)
        elif 2.0 / 3.0 <= xi <= 1.0:
            vertex.append(1)
        elif not 1.0 / 3.0 < xi < 2.0 / 3.0:
            raise ValueError(f"coordinates must lie in [0,1], got {xi}")
    return tuple(vertex) if len(vertex) == arity else None


def _factors(x: Sequence[float], vertex: Bits) -> Tuple[List[float], List[float]]:
    """alpha and alpha' at every profile argument, plateaus without a call."""
    factors, d1s = [], []
    for xi, yi in zip(x, vertex):
        t = yi + (1 - 2 * yi) * xi
        if t <= _A1:
            factors.append(_A_LO)
            d1s.append(_A_FLAT)
        elif t >= _A2:
            factors.append(_A_HI)
            d1s.append(_A_FLAT)
        else:
            factors.append(ALPHA(t))
            d1s.append(ALPHA.d1(t))
    return factors, d1s


def reference_interp_eval(x: Sequence[float], oracle: BoolOracle) -> float:
    vertex = _checked_vertex(x, oracle.arity)
    if vertex is None:
        return 0.5
    prof = box_profile(x, vertex)
    if prof == 0.0:
        return 0.5
    q = oracle.query(vertex)
    return 0.5 + prof * (q - 0.5)


def reference_interp_grad(x: Sequence[float], oracle: BoolOracle) -> np.ndarray:
    n = oracle.arity
    vertex = _checked_vertex(x, n)
    if vertex is None:
        return np.zeros(n)
    factors, d1s = _factors(x, vertex)
    prefix = [1.0]
    for f in factors:
        prefix.append(prefix[-1] * f)
    suffix = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * factors[i]
    grad = [(1.0 - 2.0 * yj) * dj * prefix[j] * suffix[j + 1]
            for j, (yj, dj) in enumerate(zip(vertex, d1s))]
    if not any(grad):
        return np.array(grad)
    q = oracle.query(vertex)
    out = np.array(grad)
    out *= q - 0.5
    return out


def reference_interp_hess_entry(x: Sequence[float], oracle: BoolOracle, j: int, k: int) -> float:
    n = oracle.arity
    vertex = _checked_vertex(x, n)
    if not (0 <= j < n and 0 <= k < n):
        raise ValueError(f"indices out of range for arity {n}: ({j}, {k})")
    if vertex is None:
        return 0.0
    factors, d1s = _factors(x, vertex)
    dphi = 1.0 if j == k else (1.0 - 2.0 * vertex[j]) * d1s[j] * (1.0 - 2.0 * vertex[k]) * d1s[k]
    for i, f in enumerate(factors):
        if i != j and i != k:
            dphi *= f
    if j == k:
        dphi *= ALPHA.d2(vertex[j] + (1 - 2 * vertex[j]) * x[j])
    if dphi == 0.0:
        return 0.0
    q = oracle.query(vertex)
    return (q - 0.5) * dphi
