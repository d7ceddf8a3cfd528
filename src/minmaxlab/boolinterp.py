"""Robust smooth interpolation of a Boolean function over the unit cube.

A Boolean function q on {0,1}^N extends to a C-infinity map on [0,1]^N:

    h(x) = 1/2 + sum_y Phi_y(x) * (q(y) - 1/2),
    Phi_y(x) = prod_i alpha(y_i + (1 - 2 y_i) x_i),

where alpha is the decreasing box-profile step (1 on [0,1/6], 0 from 1/3).
The radius-1/3 sup-norm balls around the vertices are disjoint, so at most
one vertex has Phi_y(x) != 0: the *active* vertex, found by rounding
coordinates <= 1/3 down and >= 2/3 up (no active vertex if any coordinate
lies strictly between).  Consequently h, its gradient, and any Hessian
entry are computable with at most ONE query to q, and h(x) equals q(y)
bit-exactly whenever x is within sup-norm distance 1/6 of vertex y.

Entry-wise bounds: |grad h| <= e^12 / 2 and |D^2 h| <= 6 e^24.

Each evaluation walks x once to check it (arity, every coordinate in
[0,1]) and find the active vertex together.  Profile factors whose
argument lies on a plateau of alpha (at or below 1/6, at or above 1/3)
are alpha's own plateau values, taken without evaluating the step.
BoolOracle.query accepts bits given as ints, numpy ints, bools or
integral floats, and raises before charging its ledger on anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULTS, whole_number
from .ledger import QueryLedger
from .smoothstep import ALPHA

Bits = Tuple[int, ...]


@dataclass
class BoolOracle:
    """Black-box Boolean function with a query ledger.

    `fn` is the raw uncounted function; all counted access goes through
    :meth:`query`, which charges exactly one unit to ``ledger["L"]`` and
    validates that the output is exactly 0 or 1.
    """

    arity: int
    fn: Callable[[Bits], int]
    ledger: QueryLedger = field(default_factory=QueryLedger)

    def __post_init__(self) -> None:
        self.arity = whole_number(self.arity, "oracle arity", 1)

    def query(self, bits: Sequence[int]) -> int:
        vertex = []
        for b in bits:
            if b == 0:
                vertex.append(0)
            elif b == 1:
                vertex.append(1)
            else:
                raise ValueError(f"oracle input must be bits 0 or 1, got {b!r}")
        if len(vertex) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(vertex)}")
        self.ledger.record("L")
        out = self.fn(tuple(vertex))
        if out not in (0, 1):
            raise ValueError(f"oracle output must be 0 or 1, got {out!r}")
        return int(out)

    @classmethod
    def from_truth_table(cls, table: Sequence[int], ledger: Optional[QueryLedger] = None) -> "BoolOracle":
        """Oracle backed by a table indexed big-endian (first bit most
        significant); table length must be a power of two, arity <= 20,
        and each entry must equal 0 or 1, the rule query applies to bits."""
        n = len(table)
        arity = n.bit_length() - 1
        if n != 1 << arity or arity < 1:
            raise ValueError(f"truth table length must be a power of two >= 2, got {n}")
        if arity > DEFAULTS.truth_table_max_arity:
            raise ValueError(f"truth tables limited to arity {DEFAULTS.truth_table_max_arity}")
        for v in table:
            if not (v == 0 or v == 1):
                raise ValueError(f"truth table entries must be 0 or 1, got {v!r}")
        vals = tuple(1 if v == 1 else 0 for v in table)

        def fn(bits: Bits) -> int:
            idx = 0
            for b in bits:
                idx = (idx << 1) | b
            return vals[idx]

        return cls(arity=arity, fn=fn, ledger=ledger or QueryLedger())


def _checked_vertex(x: Sequence[float], arity: int) -> Optional[Bits]:
    """active_vertex(x), after checking that x has `arity` coordinates in
    [0,1] (NaN fails).  One walk: a coordinate strictly between 1/3 and 2/3
    adds no bit, and every coordinate is checked either way."""
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


def active_vertex(x: Sequence[float]) -> Optional[Bits]:
    """The unique vertex within sup-norm distance 1/3 of x, if any.

    Rounds x_i <= 1/3 to 0 and x_i >= 2/3 to 1; returns None when some
    coordinate falls strictly inside (1/3, 2/3).  Raises ValueError on a
    coordinate outside [0,1] or NaN.  Makes no oracle queries.
    """
    return _checked_vertex(x, len(x))


_A1, _A2, _A_LO, _A_HI, _A_FLAT = ALPHA.plateau()


def box_profile(x: Sequence[float], vertex: Bits) -> float:
    """Phi_vertex(x): 1 inside the 1/6-box, 0 outside the 1/3-box."""
    prod_ = 1.0
    for xi, yi in zip(x, vertex):
        t = yi + (1 - 2 * yi) * xi
        if t <= _A1:
            continue  # alpha(t) == _A_LO == 1.0 leaves the product as it is
        if t >= _A2:
            return 0.0  # alpha(t) == _A_HI == 0.0
        f = ALPHA(t)
        if f == 0.0:
            return 0.0
        prod_ *= f
    return prod_


def interp_eval(x: Sequence[float], oracle: BoolOracle) -> float:
    """h(x) in [0,1]; at most one oracle query, none when no vertex is active
    or the active vertex's profile vanishes (the value is 1/2 either way)."""
    vertex = _checked_vertex(x, oracle.arity)
    if vertex is None:
        return 0.5
    prof = box_profile(x, vertex)
    if prof == 0.0:
        return 0.5
    q = oracle.query(vertex)
    return 0.5 + prof * (q - 0.5)


def _factors(x: Sequence[float], vertex: Bits) -> Tuple[List[float], List[float]]:
    """alpha and alpha' at each profile argument y_i + (1 - 2 y_i) x_i;
    arguments on a plateau take alpha's plateau values without a call."""
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


def interp_grad(x: Sequence[float], oracle: BoolOracle) -> np.ndarray:
    """Gradient of h at x; zero vector when no vertex is active.

    Entry j is (q(y*) - 1/2) * sign_j * alpha'(arg_j) * prod_{i != j} alpha(arg_i)
    with sign_j = 1 - 2 y*_j.  At most one oracle query, none when the whole
    profile gradient vanishes (e.g. strictly inside the 1/6-box).
    """
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


def interp_hess_entry(x: Sequence[float], oracle: BoolOracle, j: int, k: int) -> float:
    """Second partial d^2 h / dx_j dx_k at x; at most one oracle query."""
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


def dense_sum_eval(x: Sequence[float], fn: Callable[[Bits], int], arity: int) -> float:
    """Reference evaluation summing over all 2^N vertices.

    Independent of the active-vertex shortcut; used to certify their
    equivalence.  Takes the raw (uncounted) function, and is gated to
    small arities since it is exponential.
    """
    _checked_vertex(x, arity)  # validates x
    if arity > DEFAULTS.dense_sum_max_arity:
        raise ValueError(f"dense sum gated to arity <= {DEFAULTS.dense_sum_max_arity}")
    acc = 0.5
    for vertex in product((0, 1), repeat=arity):
        prof = box_profile(x, vertex)
        if prof != 0.0:
            acc += prof * (fn(vertex) - 0.5)
    return acc
