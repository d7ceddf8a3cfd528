import math
import sys

import numpy as np
import pytest

from minmaxlab.smoothstep import (
    ALPHA,
    ELL,
    G,
    StepSpec,
    _eta,
    d1_bound,
    d2_bound,
    named_step,
    step_d1,
    step_d2,
    step_eval,
)

from oracles import central_diff, central_diff2, rel_err

THIRDS = StepSpec(1.0 / 3.0, 2.0 / 3.0)


class TestStepSpec:
    def test_rejects_reversed_knees(self):
        with pytest.raises(ValueError):
            StepSpec(0.5, 0.5)
        with pytest.raises(ValueError):
            StepSpec(0.7, 0.3)

    def test_rejects_negative_lower_knee(self):
        with pytest.raises(ValueError):
            StepSpec(-0.1, 0.5)

    def test_width(self):
        assert StepSpec(1.0, 3.5).width == 2.5


class TestStepEval:
    def test_plateau_low(self):
        assert step_eval(THIRDS, 0.2) == 0.0
        assert step_eval(THIRDS, 1.0 / 3.0) == 0.0
        assert step_eval(THIRDS, -5.0) == 0.0

    def test_plateau_high(self):
        assert step_eval(THIRDS, 2.0 / 3.0) == 1.0
        assert step_eval(THIRDS, 0.9) == 1.0
        assert step_eval(THIRDS, 100.0) == 1.0

    def test_midpoint_symmetry(self):
        # knees are irrational in binary64, so symmetry holds to rounding
        assert math.isclose(step_eval(THIRDS, 0.5), 0.5, abs_tol=1e-14)

    def test_interior_value(self):
        # 1/(x-1/3) = 15 and 1/(2/3-x) = 3.75 at x = 0.4
        expected = 1.0 / (1.0 + math.exp(11.25))
        assert math.isclose(step_eval(THIRDS, 0.4), expected, rel_tol=1e-9)
        assert expected == pytest.approx(1.3e-5, rel=0.05)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(-0.5, 1.5, size=500))
        vals = [step_eval(THIRDS, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_non_unit_knees(self):
        spec = StepSpec(3.0, 4.0)
        assert step_eval(spec, 3.0) == 0.0
        assert step_eval(spec, 4.0) == 1.0
        assert step_eval(spec, 3.5) == 0.5

    def test_random_specs_satisfy_contract(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            c1 = float(rng.uniform(0.0, 5.0))
            spec = StepSpec(c1, c1 + float(rng.uniform(0.05, 3.0)))
            assert step_eval(spec, spec.c1) == 0.0
            assert step_eval(spec, spec.c2) == 1.0
            xs = np.sort(rng.uniform(spec.c1 - 1, spec.c2 + 1, size=50))
            vals = [step_eval(spec, float(x)) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_eta_rounds_a_subnormal_exp_to_zero(self):
        # exp(-1/x) is the subnormal 5e-324 here; eta gives the limit 0.0
        x = 1 / 745.1
        assert math.exp(-1 / x) != 0.0
        assert _eta(x) == 0.0

    def test_inline_eta_guards_round_a_subnormal_exp_to_zero(self):
        # step_eval and step_d1 compute eta inline; without the guard,
        # exp(-745.1) makes the first 1e-322 and the slopes 5.6e-317
        spec, a = G.spec, 1 / 745.1
        assert step_eval(spec, spec.c1 + a) == 0.0
        assert step_d1(spec, spec.c1 + a) == 0.0
        assert step_d1(spec, spec.c2 - a) == 0.0
        # both eta values round to 0 just above the midpoint of a step this
        # narrow, so the value is the limit 1; without the guard it is 0
        narrow = StepSpec(0.0, 1 / 745.03 + 1 / 745.05)
        assert step_eval(narrow, 1 / 745.03) == 1.0


class TestDerivatives:
    def test_d1_zero_on_plateaus_and_knees(self):
        for x in (0.2, 1.0 / 3.0, 2.0 / 3.0, 0.9):
            assert step_d1(THIRDS, x) == 0.0

    def test_d2_zero_on_plateaus_and_knees(self):
        for x in (0.1, 1.0 / 3.0, 2.0 / 3.0, 0.9):
            assert step_d2(THIRDS, x) == 0.0

    def test_d1_matches_central_difference(self):
        rng = np.random.default_rng(11)
        width = THIRDS.width
        xs = rng.uniform(THIRDS.c1 - width, THIRDS.c2 + width, size=300)
        f = lambda t: step_eval(THIRDS, t)
        for x in xs:
            fd = central_diff(f, float(x), h=1e-6)
            assert rel_err(fd, step_d1(THIRDS, float(x))) <= 1e-5

    def test_d1_midpoint_against_fd(self):
        fd = central_diff(lambda t: step_eval(THIRDS, t), 0.5, h=1e-6)
        assert rel_err(fd, step_d1(THIRDS, 0.5)) <= 1e-5

    def test_d2_matches_central_difference(self):
        rng = np.random.default_rng(13)
        xs = rng.uniform(0.36, 0.64, size=200)
        f = lambda t: step_eval(THIRDS, t)
        for x in xs:
            fd = central_diff2(f, float(x), h=1e-4)
            assert rel_err(fd, step_d2(THIRDS, float(x))) <= 1e-4

    def test_d2_at_045_against_fd(self):
        fd = central_diff2(lambda t: step_eval(THIRDS, t), 0.45, h=1e-4)
        assert rel_err(fd, step_d2(THIRDS, 0.45)) <= 1e-4

    def test_sampled_bounds(self):
        rng = np.random.default_rng(17)
        width = THIRDS.width
        xs = rng.uniform(THIRDS.c1 - width, THIRDS.c2 + width, size=10_000)
        sup1 = max(abs(step_d1(THIRDS, float(x))) for x in xs)
        sup2 = max(abs(step_d2(THIRDS, float(x))) for x in xs)
        assert sup1 <= d1_bound(THIRDS)  # e^6
        assert sup2 <= d2_bound(THIRDS)  # 12 e^12
        assert d1_bound(THIRDS) == pytest.approx(math.exp(6.0))
        assert d2_bound(THIRDS) == pytest.approx(12.0 * math.exp(12.0))

    @pytest.mark.parametrize("curve", [G, ELL, ALPHA, named_step("energy", 2)])
    def test_named_step_bounds(self, curve):
        rng = np.random.default_rng(19)
        spec = curve.spec
        xs = rng.uniform(spec.c1 - spec.width, spec.c2 + spec.width, size=2000)
        assert max(abs(curve.d1(float(x))) for x in xs) <= d1_bound(spec)
        assert max(abs(curve.d2(float(x))) for x in xs) <= d2_bound(spec)

    def test_narrow_step_stays_finite(self):
        spec = StepSpec(0.0, 1e-4)
        for x in (0.0, 2.5e-5, 5e-5, 7.5e-5, 1e-4):
            assert 0.0 <= step_eval(spec, x) <= 1.0
            assert math.isfinite(step_d1(spec, x))
            assert math.isfinite(step_d2(spec, x))


def _mp_step_derivative(spec, x, order):
    """d^order step / dx^order at the float x, by mpmath at 60 digits.

    Differentiates A/(A+B) on the lower half and -B/(A+B) (which differs
    by the constant 1) on the upper half, so the tiny term near either
    knee is not lost against 1."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        c1, c2, t = mp.mpf(spec.c1), mp.mpf(spec.c2), mp.mpf(x)
        lower = t - c1 < c2 - t

        def f(u):
            A, B = mp.exp(-1 / (u - c1)), mp.exp(-1 / (c2 - u))
            return A / (A + B) if lower else -B / (A + B)

        return mp.diff(f, t, order)


# distances from a knee: one ulp and 1e-4 .. 1/720, where eta(a) =
# exp(-1/a) underflows to 0 or a subnormal, then 1/700 .. 0.03, where it is
# a normal float
KNEE_OFFSETS = [None, 1e-4, 1 / 800, 1 / 745, 1 / 720, 1 / 700, 1 / 500, 0.005, 0.01, 0.03]


class TestKneeDerivativesAgainstMpmath:
    @pytest.mark.parametrize("curve", [G, ELL, ALPHA, named_step("energy", 1), named_step("energy", 4)],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_just_inside_knees(self, curve, side):
        spec = curve.spec
        for a in KNEE_OFFSETS:
            if side == "lower":
                x = math.nextafter(spec.c1, math.inf) if a is None else spec.c1 + a
            else:
                x = math.nextafter(spec.c2, -math.inf) if a is None else spec.c2 - a
            for order, fn in ((1, step_d1), (2, step_d2)):
                got = fn(spec, x)
                exact = _mp_step_derivative(spec, x, order)
                assert math.isfinite(got)
                # relative where the derivative is a normal float; below
                # 1e-300 an underflowed eta may flush it to 0 or a subnormal
                assert abs(got - exact) <= 1e-12 * abs(exact) + 1e-300, (a, order, got, exact)


class TestUnderflow:
    """Inputs where a * a, b * b or the normaliser's square or cube
    underflows to 0 get the derivative's limit, not a ZeroDivisionError."""

    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-100, 1e-80])
    def test_tiny_distance_from_lower_knee(self, x):
        # eta(x) underflows to 0 (and x * x with it from 1e-200 down; from
        # 1e-80 x**4 is subnormal, so 1/x**4 was inf and A * inf NaN)
        spec = StepSpec(0.0, 1.0)
        assert step_d1(spec, x) == 0.0
        assert step_d2(spec, x) == 0.0

    def test_step_narrower_than_two_eta_cutoffs(self):
        # width 1/745.03 + 1/745.05 < 2/745: inside it one eta is always
        # 0, the other at most a subnormal, so s * s underflows; both
        # derivatives take their limit 0 there, as step_eval takes its ends
        spec = StepSpec(0.25, 0.25 + 1 / 745.03 + 1 / 745.05)
        for x in np.linspace(spec.c1, spec.c2, 9999)[1:-1]:
            assert step_d1(spec, float(x)) == 0.0
            assert step_d2(spec, float(x)) == 0.0
            assert 0.0 <= step_eval(spec, float(x)) <= 1.0

    @pytest.mark.parametrize("x, order", [(0.0024, 1), (0.0025, 1), (0.0026, 1),
                                          (0.0022, 2), (0.0024, 2), (0.0026, 2), (0.0028, 2)])
    def test_normaliser_underflow_divides_through(self, x, order):
        # width 0.005: both etas are normal floats near the middle, but
        # s * s (order 1) or s**3 (order 2) underflows to 0
        spec = StepSpec(0.0, 0.005)
        got = (step_d1, step_d2)[order - 1](spec, x)
        exact = _mp_step_derivative(spec, x, order)
        assert abs(got - exact) <= 1e-12 * abs(exact)

    def test_subnormal_normaliser_divides_through(self):
        # width 0.0055: where both etas are normal floats but s * s (order 1)
        # or s**3 (order 2) is subnormal, ap * B and A * bp lose bits (step_d1
        # was off by 2.5e-9 relative at x = 0.0027555) or underflow to 0
        spec = StepSpec(0.0, 0.0055)
        checked = {1: 0, 2: 0}
        for x in np.linspace(spec.c1, spec.c2, 401)[1:-1].tolist() + [0.0027555]:
            A, B = _eta(x - spec.c1), _eta(spec.c2 - x)
            if min(A, B) < sys.float_info.min:
                continue  # an eta is itself subnormal or 0, and has lost bits already
            s = A + B
            for order, fn, power in ((1, step_d1, s * s), (2, step_d2, s**3)):
                if order == 2 and x == 0.5 * spec.c2:
                    continue  # step'' crosses 0 at the middle, where no relative bound holds
                if power < sys.float_info.min:
                    exact = _mp_step_derivative(spec, x, order)
                    assert abs(fn(spec, x) - exact) <= 1e-12 * abs(exact), (x, order)
                    checked[order] += 1
        assert checked[1] >= 10 and checked[2] >= 150

    def test_subnormal_square_keeps_a_tiny_slope(self):
        # s * s = 2.5e-311 is subnormal, and ap * B = 1.6e-348 underflowed to 0
        exact = _mp_step_derivative(StepSpec(0.0, 0.005), 0.0022, 1)
        assert abs(step_d1(StepSpec(0.0, 0.005), 0.0022) - exact) <= 1e-12 * abs(exact)
        assert 1.6e-37 < exact < 1.7e-37


def _mp_closed_form(spec, x, order):
    """step' or step'' at the float x from the closed forms of the module
    docstring, by mpmath at 60 digits: no product underflows there."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        a, b = mp.mpf(x) - mp.mpf(spec.c1), mp.mpf(spec.c2) - mp.mpf(x)
        A, B = mp.exp(-1 / a), mp.exp(-1 / b)
        s = A + B
        ap, bp = A / a**2, -B / b**2
        t = ap * B - A * bp
        if order == 1:
            return t / s**2
        app, bpp = A * (1 / a**4 - 2 / a**3), B * (1 / b**4 - 2 / b**3)
        return (app * B - A * bpp) / s**2 - 2 * (ap + bp) * t / s**3


def _divide_through_only_below_normal_normaliser(order):
    """The earlier step_d1 (order 1) or step_d2 (order 2), which divided through
    by s only where s * s (s**3) is subnormal, not where a numerator is."""
    normal_min = sys.float_info.min

    def d1(spec, x):
        if x <= spec.c1 or x >= spec.c2:
            return 0.0
        a = x - spec.c1
        b = spec.c2 - x
        A, B = _eta(a), _eta(b)
        s = A + B
        if s == 0.0:
            return 0.0
        ss = s * s
        if ss >= normal_min:
            try:
                ap = A / (a * a)
                bp = -B / (b * b)
                return (ap * B - A * bp) / ss
            except ZeroDivisionError:
                pass
        return (A / s) * (B / s) * (1.0 / (a * a) + 1.0 / (b * b)) if A and B else 0.0

    def d2(spec, x):
        if x <= spec.c1 or x >= spec.c2:
            return 0.0
        a = x - spec.c1
        b = spec.c2 - x
        A, B = _eta(a), _eta(b)
        s = A + B
        if s == 0.0:
            return 0.0
        ap = A / (a * a) if A else 0.0
        bp = -B / (b * b) if B else -0.0
        app = A * (1.0 / a**4 - 2.0 / a**3) if A else 0.0
        bpp = B * (1.0 / b**4 - 2.0 / b**3) if B else 0.0
        if s**3 < normal_min:
            A, B, ap, bp, app, bpp, s = A / s, B / s, ap / s, bp / s, app / s, bpp / s, 1.0
        t = ap * B - A * bp
        return (app * B - A * bpp) / (s * s) - 2.0 * (ap + bp) * t / (s**3)

    return (d1, d2)[order - 1]


class TestUnderflowingNumerator:
    """Where both etas are normal floats but a numerator product underflows,
    the derivatives divide through by s, as where the normaliser's power is
    subnormal; where an eta is itself subnormal, nothing changes."""

    def test_slope_that_underflowed_to_zero(self):
        # A = 3e-308 and B = 6e-107 are normal, s * s too, but ap * B underflows
        spec, x = StepSpec(0.0, 0.0055), 0.0014121
        exact = _mp_step_derivative(spec, x, 1)
        assert 2.7291592277869e-196 < exact < 2.7291592277870e-196
        assert _divide_through_only_below_normal_normaliser(1)(spec, x) == 0.0
        assert abs(step_d1(spec, x) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("order, width, tol, before", [(1, 0.0055, 1e-13, 1700), (2, 0.007, 1e-12, 1000)])
    def test_grid_where_both_etas_are_normal(self, order, width, tol, before):
        # on a 4,000-point grid the earlier form was off at `before` or more of
        # the points with both etas normal (1,791 of 1,946 and 1,546 of 2,386)
        spec = StepSpec(0.0, width)
        fn, earlier = (step_d1, step_d2)[order - 1], _divide_through_only_below_normal_normaliser(order)
        off, off_before, checked = 0, 0, 0
        for x in np.linspace(spec.c1, spec.c2, 4000)[1:-1].tolist():
            if min(_eta(x - spec.c1), _eta(spec.c2 - x)) < sys.float_info.min:
                continue
            exact = _mp_closed_form(spec, x, order)
            off += abs(fn(spec, x) - exact) > tol * abs(exact)
            off_before += abs(earlier(spec, x) - exact) > tol * abs(exact)
            checked += 1
        assert checked > 1900
        assert off == 0 and off_before >= before

    @pytest.mark.parametrize("curve", [G, ELL, ALPHA] + [named_step("energy", m) for m in range(1, 13)],
                             ids=lambda c: c.name)
    def test_named_curves_keep_their_bits(self, curve):
        # within 1/760 to 1/690 of a knee an eta turns from subnormal to
        # normal; the named curves never reach the new branch
        c1, c2 = curve.spec.c1, curve.spec.c2
        near = np.linspace(1 / 760, 1 / 690, 1000)
        xs = (c1 + near).tolist() + (c2 - near).tolist() + np.linspace(c1, c2, 2002)[1:-1].tolist()
        for order, fn in ((1, step_d1), (2, step_d2)):
            earlier = _divide_through_only_below_normal_normaliser(order)
            assert [fn(curve.spec, x).hex() for x in xs] == [earlier(curve.spec, x).hex() for x in xs]


class TestNamedSteps:
    def test_g_at_zero(self):
        assert G(0.0) == 1.0

    def test_g_saturation(self):
        assert G(2.0) == 0.0
        assert G(1.0 / 3.0) == 1.0

    def test_ell_midpoint(self):
        assert math.isclose(ELL(0.5), 0.5, abs_tol=1e-14)
        assert ELL(-0.25) == 0.0
        assert ELL(0.75) == 1.0

    def test_g_equals_reflected_step(self):
        rng = np.random.default_rng(23)
        for z in rng.uniform(0.0, 1.0, size=100):
            assert abs(G(float(z)) - step_eval(THIRDS, 1.0 - float(z))) <= 1e-12

    def test_alpha_profile(self):
        assert ALPHA(0.0) == 1.0
        assert ALPHA(1.0 / 6.0) == 1.0
        assert ALPHA(1.0 / 3.0) == 0.0
        assert 0.0 < ALPHA(0.25) < 1.0

    def test_energy_spec(self):
        e3 = named_step("energy", 3)
        assert e3.spec.c1 == 9.0
        assert e3.spec.c2 == 10.0
        assert e3(9.0) == 0.0
        assert e3(10.0) == 1.0

    def test_energy_requires_valid_m(self):
        with pytest.raises(ValueError):
            named_step("energy")
        with pytest.raises(ValueError):
            named_step("energy", 0)
        for m in (2.5, math.inf, math.nan, "3"):
            with pytest.raises(ValueError, match="whole number"):
                named_step("energy", m)
        assert named_step("energy", 3.0).name == "energy(3)"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            named_step("sigmoid")

    def test_named_derivatives_chain_rule(self):
        rng = np.random.default_rng(29)
        for z in rng.uniform(0.0, 1.0, size=50):
            z = float(z)
            assert G.d1(z) == -step_d1(THIRDS, z)
            assert G.d2(z) == -step_d2(THIRDS, z)
            fd = central_diff(ELL, z, h=1e-6)
            assert rel_err(fd, ELL.d1(z)) <= 1e-5
