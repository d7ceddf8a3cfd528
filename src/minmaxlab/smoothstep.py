"""C-infinity smooth step functions and their first two derivatives.

The basic building block is the classic non-analytic mollifier step

    step(x) = eta(x - c1) / (eta(x - c1) + eta(c2 - x)),
    eta(x)  = exp(-1/x) for x > 0, else 0,

which is exactly 0 for x <= c1, exactly 1 for x >= c2, and strictly
increasing in between.  Its first two derivatives are implemented from
the closed forms obtained by differentiating A/(A+B) with A = eta(x-c1),
B = eta(c2-x):

    A' = A/a^2,  B' = -B/b^2,          (a = x - c1, b = c2 - x)
    A'' = A (1/a^4 - 2/a^3),  B'' = B (1/b^4 - 2/b^3),

    step'  = (A'B - AB') / S^2                      with S = A + B
    step'' = (A''B - AB'') / S^2 - 2 (A'+B') (A'B - AB') / S^3.

Finite differences are deliberately NOT used here; they are reserved as
an independent oracle in the test suite.

The sampled sup-norms satisfy |step'| <= exp(2/w) and
|step''| <= 12 exp(4/w) where w = c2 - c1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

from .config import whole_number

_NORMAL_MIN = sys.float_info.min  # the smallest normal float


@dataclass(frozen=True)
class StepSpec:
    """Knee positions of a smooth step; requires c2 > c1 >= 0."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (self.c1 >= 0.0):
            raise ValueError(f"lower knee must be >= 0, got c1={self.c1}")
        if not (self.c2 > self.c1):
            raise ValueError(
                f"upper knee must exceed lower knee, got c1={self.c1}, c2={self.c2}"
            )

    @property
    def width(self) -> float:
        return self.c2 - self.c1


def _eta(x: float) -> float:
    """exp(-1/x) for x > 0, else 0.  Total: 1/x never divides by zero.

    step_eval and step_d1 compute it inline, with the same operations."""
    if x <= 0.0:
        return 0.0
    # For tiny x, exp(-1/x) underflows to 0.0, the correct limit, but exp
    # returns the subnormal 5e-324 for v in about (-745.133, -745.0].  The
    # guard turns those below -745 into 0.0 too, which is why it stays:
    # without it, eta would change for x in about (1/745.133, 1/745).
    v = -1.0 / x
    if v < -745.0:
        return 0.0
    return math.exp(v)


def step_eval(spec: StepSpec, x: float) -> float:
    """Evaluate the smooth step; exactly 0 below c1, exactly 1 above c2."""
    if x <= spec.c1:
        return 0.0
    if x >= spec.c2:
        return 1.0
    a = x - spec.c1
    b = spec.c2 - x
    # _eta(a) and _eta(b) inline, each with _eta's guard against a
    # subnormal exp; inside the band a and b are > 0
    v = -1.0 / a
    A = 0.0 if v < -745.0 else math.exp(v)
    v = -1.0 / b
    B = 0.0 if v < -745.0 else math.exp(v)
    s = A + B
    if s == 0.0:
        # Both eta values underflowed (possible only for pathologically
        # narrow steps). Fall back to the limit value by side.
        mid = 0.5 * (spec.c1 + spec.c2)
        return 0.0 if x < mid else (1.0 if x > mid else 0.5)
    return A / s


def step_d1(spec: StepSpec, x: float) -> float:
    """Analytic first derivative; 0 at and outside the knees."""
    if x <= spec.c1 or x >= spec.c2:
        return 0.0
    a = x - spec.c1
    b = spec.c2 - x
    # _eta(a) and _eta(b) inline, as in step_eval
    v = -1.0 / a
    A = 0.0 if v < -745.0 else math.exp(v)
    v = -1.0 / b
    B = 0.0 if v < -745.0 else math.exp(v)
    s = A + B
    if s == 0.0:
        return 0.0
    ss = s * s
    if ss >= _NORMAL_MIN:
        # a try costs the band rows nothing, where explicit guards cost them 10%
        try:
            ap = A / (a * a)
            bp = -B / (b * b)
            t = ap * B - A * bp
        except ZeroDivisionError:
            t = 0.0  # a * a or b * b underflowed to 0, and its eta with it
        # a subnormal numerator has lost bits; where an eta is itself subnormal
        # it had lost them already
        if t >= _NORMAL_MIN or A < _NORMAL_MIN or B < _NORMAL_MIN:
            return t / ss
    # s * s or the numerator is subnormal or 0, where ap * B and A * bp lose bits
    # or underflow: an eta that is 0 takes step' = A B (1/a^2 + 1/b^2) / s^2 to
    # its limit 0; else divide through by s
    return (A / s) * (B / s) * (1.0 / (a * a) + 1.0 / (b * b)) if A and B else 0.0


def step_d2(spec: StepSpec, x: float) -> float:
    """Analytic second derivative; 0 at and outside the knees."""
    if x <= spec.c1 or x >= spec.c2:
        return 0.0
    a = x - spec.c1
    b = spec.c2 - x
    A = _eta(a)
    B = _eta(b)
    s = A + B
    if s == 0.0:
        return 0.0
    # an eta that underflowed to 0 takes its terms to the limit 0, also where
    # a * a or a**4 underflows with it (or 1/a**4 overflows, making 0 * inf)
    ap = A / (a * a) if A else 0.0
    bp = -B / (b * b) if B else -0.0
    app = A * (1.0 / a**4 - 2.0 / a**3) if A else 0.0
    bpp = B * (1.0 / b**4 - 2.0 / b**3) if B else 0.0
    t = ap * B - A * bp
    if s**3 < _NORMAL_MIN or ((ap - bp) * t < _NORMAL_MIN and A >= _NORMAL_MIN and B >= _NORMAL_MIN):
        # s**3 (and maybe s * s) is subnormal or 0 while s is not; or both etas
        # are normal, but (ap - bp) t, which bounds the numerator (ap + bp) t, is
        # subnormal and has lost bits: divide every term through by s
        A, B, ap, bp, app, bpp, s = A / s, B / s, ap / s, bp / s, app / s, bpp / s, 1.0
        t = ap * B - A * bp
    return (app * B - A * bpp) / (s * s) - 2.0 * (ap + bp) * t / (s**3)


def d1_bound(spec: StepSpec) -> float:
    """Certified sup-norm bound exp(2/width) for the first derivative."""
    return math.exp(2.0 / spec.width)


def d2_bound(spec: StepSpec) -> float:
    """Certified sup-norm bound 12*exp(4/width) for the second derivative."""
    return 12.0 * math.exp(4.0 / spec.width)


@dataclass(frozen=True)
class NamedStep:
    """An affine image  out_offset + out_sign * step(x)  of a smooth step.

    Covers every named curve used by the constructions: the decreasing
    NOR response g, the increasing copy response ell, the box-profile
    factor alpha, and the energy threshold.  Derivatives follow by the
    chain rule (the inner map is the identity, so just the sign flips).
    """

    name: str
    spec: StepSpec
    out_offset: float
    out_sign: float

    def __call__(self, x: float) -> float:
        return self.out_offset + self.out_sign * step_eval(self.spec, x)

    def d1(self, x: float) -> float:
        return self.out_sign * step_d1(self.spec, x)

    def d2(self, x: float) -> float:
        return self.out_sign * step_d2(self.spec, x)

    def plateau(self) -> Tuple[float, float, float, float, float]:
        """(c1, c2, value at and below c1, value at and above c2, slope on
        both sides).  The curve is constant outside (c1, c2), so a caller
        can answer there from these numbers; they are the curve's own
        outputs, signed zeros included."""
        c1, c2 = self.spec.c1, self.spec.c2
        return c1, c2, self(c1), self(c2), self.d1(c1)


G = NamedStep("g", StepSpec(1.0 / 3.0, 2.0 / 3.0), 1.0, -1.0)
ELL = NamedStep("ell", StepSpec(5.0 / 12.0, 7.0 / 12.0), 0.0, 1.0)
ALPHA = NamedStep("alpha", StepSpec(1.0 / 6.0, 1.0 / 3.0), 1.0, -1.0)


def energy_step(m: int) -> NamedStep:
    """The energy threshold energy(m) = step_{3m,3m+1}(.); m must be a whole
    number >= 1."""
    m = whole_number(m, "the energy step's m", 1)
    return NamedStep(f"energy({m})", StepSpec(3.0 * m, 3.0 * m + 1.0), 0.0, 1.0)
