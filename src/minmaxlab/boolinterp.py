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

Each evaluation walks x once: it checks the arity and that every
coordinate lies in [0,1], finds the active vertex, and collects the band,
the coordinates whose profile argument t lies above alpha's 1-plateau
(t > 1/6).  Off the band alpha is exactly 1.0 with slope -0.0, so the
value, the gradient and a Hessian entry work on the band alone: products
skip the factors of 1.0, a gradient entry off the band is (1 - 2 y) * -0.0,
and a Hessian entry with j or k off the band is 0.  Band arguments at or
above 1/3 take alpha's 0-plateau values without evaluating the step.
box_profile stays the per-vertex product over every coordinate, for
dense_sum_eval.
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


_A1, _A2, _A_LO, _A_HI, _A_FLAT = ALPHA.plateau()
_OFF_BAND = (1.0 * _A_FLAT, -1.0 * _A_FLAT)  # a gradient entry off the band, (1 - 2 y) * alpha', by bit y


def _walk(x: Sequence[float], arity: int) -> Tuple[Optional[Bits], List[int], List[float]]:
    """One pass over x: check that it has `arity` coordinates in [0,1] (NaN
    fails), find the active vertex, and collect the band: the coordinates i
    whose profile argument t_i = y_i + (1 - 2 y_i) x_i lies above alpha's
    1-plateau (t_i > 1/6), as ascending indices and their arguments.  Off the
    band alpha is 1.0 with slope -0.0, so products and gradient entries there
    need no step.  A coordinate strictly between 1/3 and 2/3 adds no bit
    (the vertex is then None), and every coordinate is checked either way."""
    if len(x) != arity:
        raise ValueError(f"point has {len(x)} coordinates, oracle arity is {arity}")
    bits: List[int] = []
    band: List[int] = []
    args: List[float] = []
    for xi in x:
        # len(bits) is xi's index while every coordinate before it added a bit;
        # once one has not, the vertex is None and the band is never read
        if 0.0 <= xi <= 1.0 / 3.0:
            if xi > _A1:
                band.append(len(bits))
                args.append(xi)
            bits.append(0)
        elif 2.0 / 3.0 <= xi <= 1.0:
            t = 1.0 - xi
            if t > _A1:
                band.append(len(bits))
                args.append(t)
            bits.append(1)
        elif not 1.0 / 3.0 < xi < 2.0 / 3.0:
            raise ValueError(f"coordinates must lie in [0,1], got {xi}")
    return (tuple(bits) if len(bits) == arity else None), band, args


def active_vertex(x: Sequence[float]) -> Optional[Bits]:
    """The unique vertex within sup-norm distance 1/3 of x, if any.

    Rounds x_i <= 1/3 to 0 and x_i >= 2/3 to 1; returns None when some
    coordinate falls strictly inside (1/3, 2/3).  Raises ValueError on a
    coordinate outside [0,1] or NaN.  Makes no oracle queries.
    """
    return _walk(x, len(x))[0]


def box_profile(x: Sequence[float], vertex: Bits) -> float:
    """Phi_vertex(x): 1 inside the 1/6-box, 0 outside the 1/3-box."""
    prod_ = 1.0
    for xi, yi in zip(x, vertex):
        t = 1.0 - xi if yi else xi  # y + (1 - 2 y) x for a bit y
        if t <= _A1:
            continue  # alpha(t) == _A_LO == 1.0 leaves the product as it is
        if t >= _A2:
            return 0.0  # alpha(t) == _A_HI == 0.0
        f = ALPHA(t)
        if f == 0.0:
            return 0.0
        prod_ *= f
    return prod_


def _alpha(t: float) -> float:
    """alpha(t) for a band argument, its 0-plateau without a call."""
    return _A_HI if t >= _A2 else ALPHA(t)


def _alpha_d1(t: float) -> float:
    """alpha'(t) for a band argument, its 0-plateau without a call."""
    return _A_FLAT if t >= _A2 else ALPHA.d1(t)


def interp_eval(x: Sequence[float], oracle: BoolOracle) -> float:
    """h(x) in [0,1]; at most one oracle query, none when no vertex is active
    or the active vertex's profile vanishes (the value is 1/2 either way)."""
    vertex, _, args = _walk(x, oracle.arity)
    if vertex is None:
        return 0.5
    prof = 1.0
    for t in args:  # box_profile's product without its factors of 1.0
        prof *= _alpha(t)
    if prof == 0.0:
        return 0.5
    q = oracle.query(vertex)
    return 0.5 + prof * (q - 0.5)


def interp_grad(x: Sequence[float], oracle: BoolOracle) -> np.ndarray:
    """Gradient of h at x; zero vector when no vertex is active.

    Entry j is (q(y*) - 1/2) * sign_j * alpha'(arg_j) * prod_{i != j} alpha(arg_i)
    with sign_j = 1 - 2 y*_j.  At most one oracle query, none when the whole
    profile gradient vanishes (e.g. strictly inside the 1/6-box).  Off the band
    the entry is sign_j * -0.0; the products run over the band alone, since
    every factor off it is 1.0.
    """
    n = oracle.arity
    vertex, band, args = _walk(x, n)
    if vertex is None:
        return np.zeros(n)
    grad = [_OFF_BAND[y] for y in vertex]
    factors = [_alpha(t) for t in args]
    suffix = [1.0]
    for f in reversed(factors):
        suffix.append(suffix[-1] * f)
    prefix, nonzero = 1.0, False
    for r, (j, t) in enumerate(zip(band, args)):
        g = (1.0 - 2.0 * vertex[j]) * _alpha_d1(t) * prefix * suffix[-2 - r]
        grad[j] = g
        nonzero = nonzero or g != 0.0
        prefix *= factors[r]
    if not nonzero:
        return np.array(grad)
    q = oracle.query(vertex)
    out = np.array(grad)
    out *= q - 0.5
    return out


def interp_hess_entry(x: Sequence[float], oracle: BoolOracle, j: int, k: int) -> float:
    """Second partial d^2 h / dx_j dx_k at x; at most one oracle query.

    Zero without a query when j or k is off the band, where alpha' is -0.0
    (and so is alpha'' on the diagonal)."""
    n = oracle.arity
    vertex, band, args = _walk(x, n)
    if not (0 <= j < n and 0 <= k < n):
        raise ValueError(f"indices out of range for arity {n}: ({j}, {k})")
    if vertex is None or j not in band or k not in band:
        return 0.0
    tj, tk = args[band.index(j)], args[band.index(k)]
    if j == k:
        dphi = 1.0
    else:
        dphi = (1.0 - 2.0 * vertex[j]) * _alpha_d1(tj) * (1.0 - 2.0 * vertex[k]) * _alpha_d1(tk)
    for i, t in zip(band, args):
        if i != j and i != k:
            dphi *= _alpha(t)
    if j == k:
        dphi *= ALPHA.d2(tj)
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
    _walk(x, arity)  # validates x
    if arity > DEFAULTS.dense_sum_max_arity:
        raise ValueError(f"dense sum gated to arity <= {DEFAULTS.dense_sum_max_arity}")
    acc = 0.5
    for vertex in product((0, 1), repeat=arity):
        prof = box_profile(x, vertex)
        if prof != 0.0:
            acc += prof * (fn(vertex) - 0.5)
    return acc
