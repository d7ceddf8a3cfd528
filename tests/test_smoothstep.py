import math

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
