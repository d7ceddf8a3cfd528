import math
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minmaxlab.boolinterp import (
    BoolOracle,
    active_vertex,
    box_profile,
    dense_sum_eval,
    interp_eval,
    interp_grad,
    interp_hess_entry,
)
from minmaxlab import smoothstep
from minmaxlab.ledger import QueryLedger
from minmaxlab.smoothstep import ALPHA

from oracles import (
    grad_central,
    reference_interp_eval,
    reference_interp_grad,
    reference_interp_hess_entry,
    rel_err,
)


def xor_oracle(ledger=None):
    return BoolOracle.from_truth_table([0, 1, 1, 0], ledger=ledger)


def random_oracle(rng, arity, ledger=None):
    table = rng.integers(0, 2, size=1 << arity).tolist()
    return BoolOracle.from_truth_table(table, ledger=ledger)


def sample_in_box(rng, vertex, radius=1.0 / 6.0):
    """Uniform point of the radius-box around a vertex, clipped to the cube."""
    x = []
    for b in vertex:
        offset = rng.uniform(0.0, radius)
        x.append(float(b) + (1.0 - 2.0 * b) * offset)
    return x


class TestBoolOracle:
    def test_truth_table_lookup(self):
        h = xor_oracle()
        assert h.query((0, 0)) == 0
        assert h.query((0, 1)) == 1
        assert h.query((1, 0)) == 1
        assert h.query((1, 1)) == 0

    def test_every_call_counts(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        for k in range(5):
            h.query((0, 1))
            assert ledger.count("L") == k + 1

    def test_rejects_non_bits(self):
        h = xor_oracle()
        with pytest.raises(ValueError):
            h.query((0, 2))
        with pytest.raises(ValueError):
            h.query((0,))

    @pytest.mark.parametrize("bits", [(0.7, 1.9), (0, 0.5), (1.0000001, 0), (math.nan, 1), (1, math.inf), (0, -1)])
    def test_rejects_non_bits_before_charging(self, bits):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        with pytest.raises(ValueError):
            h.query(bits)
        assert ledger.count("L") == 0

    def test_accepts_integral_bit_types(self):
        seen = []
        table = BoolOracle.from_truth_table([0, 1, 1, 0])
        h = BoolOracle(arity=2, fn=lambda bits: seen.append(bits) or table.fn(bits))
        assert h.query((np.int64(0), True)) == 1
        assert h.query((1.0, np.float64(0.0))) == 1
        assert h.query(np.array([1, 1])) == 0
        assert seen == [(0, 1), (1, 0), (1, 1)]
        assert all(type(b) is int for bits in seen for b in bits)
        assert h.ledger.count("L") == 3

    def test_rejects_bad_output(self):
        bad = BoolOracle(arity=1, fn=lambda bits: 7)
        with pytest.raises(ValueError):
            bad.query((0,))

    def test_truth_table_validation(self):
        with pytest.raises(ValueError):
            BoolOracle.from_truth_table([0, 1, 1])
        with pytest.raises(ValueError):
            BoolOracle.from_truth_table([0, 2])


class TestActiveVertex:
    def test_clear_rounding(self):
        assert active_vertex([0.1, 0.9]) == (0, 1)

    def test_middle_coordinate_blocks(self):
        assert active_vertex([0.5, 0.0]) is None
        assert active_vertex([0.2, 0.4]) is None

    def test_boundary_inclusive(self):
        assert active_vertex([1.0 / 3.0, 1.0 / 3.0]) == (0, 0)
        assert active_vertex([2.0 / 3.0, 0.0]) == (1, 0)

    def test_profile_vanishes_at_boundary(self):
        x = [1.0 / 3.0, 1.0 / 3.0]
        assert box_profile(x, (0, 0)) == 0.0

    @pytest.mark.parametrize("x", [[math.nan, 0.0], [0.5, math.nan], [-0.1, 0.9], [0.2, 1.5], [math.inf, 0.0]])
    def test_rejects_nan_and_out_of_range(self, x):
        with pytest.raises(ValueError, match="coordinates must lie in"):
            active_vertex(x)


class TestInterpEval:
    def test_xor_inside_box(self):
        h = xor_oracle()
        assert interp_eval([0.9, 0.1], h) == 1.0

    def test_half_when_no_active_vertex(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        assert interp_eval([0.5, 0.5], h) == 0.5
        assert ledger.count("L") == 0

    def test_half_on_profile_boundary_without_query(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        assert interp_eval([1.0 / 3.0, 1.0 / 3.0], h) == 0.5
        assert ledger.count("L") == 0

    def test_single_bit_formula(self):
        ident = BoolOracle.from_truth_table([0, 1])
        x = 0.25
        expected = 0.5 + (0 - 0.5) * ALPHA(x)
        assert interp_eval([x], ident) == expected

    def test_box_exactness_bit_exact(self):
        rng = np.random.default_rng(31)
        for arity in (1, 2, 3, 5):
            h = random_oracle(rng, arity)
            for vertex in product((0, 1), repeat=arity):
                for _ in range(20):
                    x = sample_in_box(rng, vertex)
                    assert interp_eval(x, h) == float(h.fn(vertex))

    def test_range(self):
        rng = np.random.default_rng(37)
        h = random_oracle(rng, 4)
        for _ in range(500):
            x = rng.random(4).tolist()
            assert 0.0 <= interp_eval(x, h) <= 1.0

    def test_dimension_mismatch_rejected(self):
        h = xor_oracle()
        with pytest.raises(ValueError):
            interp_eval([0.5], h)
        with pytest.raises(ValueError):
            interp_eval([0.5, 1.2], h)

    def test_at_most_one_query_per_eval(self):
        rng = np.random.default_rng(41)
        ledger = QueryLedger()
        h = random_oracle(rng, 3, ledger)
        for _ in range(300):
            before = ledger.count("L")
            interp_eval(rng.random(3).tolist(), h)
            assert ledger.count("L") - before <= 1

    def test_dense_sum_equivalence_bit_exact(self):
        rng = np.random.default_rng(43)
        for arity in (1, 2, 4, 6):
            h = random_oracle(rng, arity)
            for _ in range(200):
                x = rng.random(arity).tolist()
                assert interp_eval(x, h) == dense_sum_eval(x, h.fn, arity)

    def test_dense_sum_gated(self):
        h = BoolOracle(arity=12, fn=lambda bits: 0)
        with pytest.raises(ValueError):
            dense_sum_eval([0.5] * 12, h.fn, 12)


class TestInterpGrad:
    def test_zero_without_active_vertex(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        grad = interp_grad([0.5, 0.5], h)
        assert np.all(grad == 0.0)
        assert ledger.count("L") == 0

    def test_zero_inside_small_box_without_query(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        grad = interp_grad([0.05, 0.95], h)
        assert np.all(grad == 0.0)
        assert ledger.count("L") == 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        for arity in (1, 2, 3):
            h = random_oracle(rng, arity)
            checked = 0
            while checked < 25:
                x = rng.uniform(0.05, 0.45, size=arity)
                if rng.random() < 0.5:
                    x = 1.0 - x
                if active_vertex(x.tolist()) is None:
                    continue
                fd = grad_central(lambda v: interp_eval(v.tolist(), h), x, h=1e-6)
                an = interp_grad(x.tolist(), h)
                for j in range(arity):
                    assert rel_err(fd[j], an[j]) <= 1e-5
                checked += 1

    def test_entry_bound(self):
        rng = np.random.default_rng(53)
        h = random_oracle(rng, 4)
        bound = math.exp(12.0) / 2.0
        sup = 0.0
        for _ in range(10_000):
            grad = interp_grad(rng.random(4).tolist(), h)
            sup = max(sup, float(np.max(np.abs(grad))))
        assert sup <= bound

    def test_arity_12_steps_only_on_the_band(self, monkeypatch):
        calls = spy_steps(monkeypatch)
        ledger = QueryLedger()
        h = BoolOracle.from_truth_table([0] * 4096, ledger=ledger)
        # coordinates 3 and 7 on the band (arguments 0.25 and 1 - 0.8),
        # the other ten inside their 1/6 box or on its face
        x = [0.05, 0.95, 1.0 / 6.0, 0.25, 0.0, 1.0, 5.0 / 6.0, 0.8, 0.1, 0.9, 0.0, 1.0]
        t7 = 1.0 - 0.8
        grad = interp_grad(x, h)
        assert calls == [("step_eval", 0.25), ("step_eval", t7), ("step_d1", 0.25), ("step_d1", t7)]
        assert ledger.count("L") == 1
        assert grad[3] == -0.5 * ALPHA.d1(0.25) * ALPHA(t7)
        assert grad[7] == 0.5 * ALPHA.d1(t7) * ALPHA(0.25)
        # off the band: (q - 1/2) (1 - 2 y) * -0.0, a signed zero
        expected_signs = [math.copysign(1.0, -0.5 * (1.0 - 2.0 * round(v)) * -0.0) for v in x]
        for j in set(range(12)) - {3, 7}:
            assert grad[j] == 0.0 and math.copysign(1.0, grad[j]) == expected_signs[j]

    def test_at_most_one_query(self):
        rng = np.random.default_rng(59)
        ledger = QueryLedger()
        h = random_oracle(rng, 2, ledger)
        for _ in range(200):
            before = ledger.count("L")
            interp_grad(rng.random(2).tolist(), h)
            assert ledger.count("L") - before <= 1


def spy_steps(monkeypatch):
    """Record (name, x) for every smooth-step call the named curves make."""
    calls = []
    for name in ("step_eval", "step_d1", "step_d2"):
        original = getattr(smoothstep, name)
        monkeypatch.setattr(smoothstep, name,
                            lambda spec, x, f=original, name=name: calls.append((name, x)) or f(spec, x))
    return calls


class TestInterpHess:
    def test_zero_without_active_vertex(self):
        h = xor_oracle()
        assert interp_hess_entry([0.4, 0.9], h, 0, 1) == 0.0

    def test_index_validation(self):
        h = xor_oracle()
        with pytest.raises(ValueError):
            interp_hess_entry([0.1, 0.1], h, 0, 2)

    @pytest.mark.parametrize("j, k", [(0.5, 0.5), (1.5, 1), (0, 1.5), (math.nan, 0), (1, math.nan)])
    def test_index_must_be_a_whole_number(self, j, k):
        ledger = QueryLedger()
        with pytest.raises(ValueError, match="whole number"):
            interp_hess_entry([0.25, 0.75], xor_oracle(ledger), j, k)
        assert ledger.count("L") == 0

    def test_whole_number_indices_are_taken_as_ints(self):
        x = [0.25, 0.75]
        expected = interp_hess_entry(x, xor_oracle(), 0, 1)
        assert expected != 0.0
        assert interp_hess_entry(x, xor_oracle(), False, True) == expected
        assert interp_hess_entry(x, xor_oracle(), 0.0, np.int64(1)) == expected
        with pytest.raises(ValueError, match=r"indices out of range for arity 2: \(2, 0\)"):
            interp_hess_entry(x, xor_oracle(), 2.0, 0)

    def test_off_diagonal_product_structure(self):
        h = xor_oracle()
        x = [0.25, 0.75]
        vertex = (0, 1)
        q = h.fn(vertex)
        expected = (
            (q - 0.5)
            * (1 - 2 * vertex[0]) * ALPHA.d1(x[0])
            * (1 - 2 * vertex[1]) * ALPHA.d1(1.0 - x[1])
        )
        assert interp_hess_entry(x, h, 0, 1) == pytest.approx(expected, rel=1e-12)

    def test_off_diagonal_plateaus_skip_the_step(self, monkeypatch):
        calls = []
        for name in ("step_eval", "step_d1"):
            original = getattr(smoothstep, name)
            monkeypatch.setattr(smoothstep, name, lambda spec, x, f=original: calls.append(x) or f(spec, x))
        h = xor_oracle()
        # every profile argument at or beyond a knee of alpha (1/6, 1/3)
        for x in ([0.0, 1.0], [1.0 / 6.0, 5.0 / 6.0], [1.0 / 3.0, 2.0 / 3.0], [0.1, 0.95], [0.05, 0.9]):
            assert interp_hess_entry(x, h, 0, 1) == 0.0
            assert interp_hess_entry(x, h, 1, 0) == 0.0
        assert calls == []
        interp_hess_entry([0.25, 0.25], h, 0, 1)
        assert calls == [0.25, 0.25]  # alpha' at j and k; no alpha is left to take

    def test_diagonal_takes_alpha_off_j_and_alpha2_at_j(self, monkeypatch):
        calls = spy_steps(monkeypatch)
        ledger = QueryLedger()
        h = BoolOracle.from_truth_table([1] * 8, ledger=ledger)
        # profile arguments 0.25 and 0.2 on the band, 0.05 off it
        x = [0.25, 0.8, 0.05]
        t1 = 1.0 - 0.8
        value = interp_hess_entry(x, h, 0, 0)
        assert calls == [("step_eval", t1), ("step_d2", 0.25)]
        assert value == 0.5 * ALPHA(t1) * ALPHA.d2(0.25) and ledger.count("L") == 1
        calls.clear()
        assert interp_hess_entry(x, h, 2, 2) == 0.0  # off the band alpha'' is 0
        assert calls == [] and ledger.count("L") == 1

    def test_matches_fd_of_gradient(self):
        rng = np.random.default_rng(61)
        h = random_oracle(rng, 2)
        checked = 0
        while checked < 15:
            x = rng.uniform(0.18, 0.32, size=2)
            if active_vertex(x.tolist()) is None:
                continue
            for j in range(2):
                for k in range(2):
                    step = 1e-5
                    up = x.copy()
                    up[k] += step
                    down = x.copy()
                    down[k] -= step
                    fd = (interp_grad(up.tolist(), h)[j] - interp_grad(down.tolist(), h)[j]) / (2 * step)
                    an = interp_hess_entry(x.tolist(), h, j, k)
                    assert rel_err(fd, an) <= 1e-3
            checked += 1

    def test_entry_bound(self):
        rng = np.random.default_rng(67)
        h = random_oracle(rng, 3)
        bound = 6.0 * math.exp(24.0)
        for _ in range(10_000):
            x = rng.random(3).tolist()
            val = interp_hess_entry(x, h, int(rng.integers(3)), int(rng.integers(3)))
            assert abs(val) <= bound

    def test_at_most_one_query(self):
        rng = np.random.default_rng(71)
        ledger = QueryLedger()
        h = random_oracle(rng, 2, ledger)
        for _ in range(200):
            before = ledger.count("L")
            interp_hess_entry(rng.random(2).tolist(), h, 0, 1)
            assert ledger.count("L") - before <= 1


# the knees of the box profile as coordinates, one ulp either side too
KNEES = sorted({v for k in (0.0, 1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 6.0, 1.0)
                for v in (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf)) if 0.0 <= v <= 1.0})
coordinate = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(KNEES),
    st.floats(1.0 / 6.0, 1.0 / 3.0),  # on the band of vertex 0
    st.floats(2.0 / 3.0, 5.0 / 6.0),  # on the band of vertex 1
)


class TestAgainstThreeWalkReference:
    """The one-walk functions against the three-walk form they replaced
    (tests/oracles.py): the same bits and the same queries."""

    @settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(arity=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bit_identical_with_the_same_queries(self, arity, seed, data):
        x = data.draw(st.lists(coordinate, min_size=arity, max_size=arity))
        table = np.random.default_rng(seed).integers(0, 2, 1 << arity).tolist()
        ledger, ref_ledger = QueryLedger(), QueryLedger()
        h = BoolOracle.from_truth_table(table, ledger=ledger)
        ref = BoolOracle.from_truth_table(table, ledger=ref_ledger)

        def same(got, expected):
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            assert ledger.count("L") == ref_ledger.count("L")

        same(interp_eval(x, h), reference_interp_eval(x, ref))
        grad, ref_grad = interp_grad(x, h), reference_interp_grad(x, ref)
        assert grad.tobytes() == ref_grad.tobytes() and ledger.count("L") == ref_ledger.count("L")
        for j in range(arity):
            for k in range(arity):
                same(interp_hess_entry(x, h, j, k), reference_interp_hess_entry(x, ref, j, k))

    @pytest.mark.parametrize("arity", [1, 2, 5, 12])
    def test_random_points(self, arity):
        rng = np.random.default_rng(arity)
        ledger, ref_ledger = QueryLedger(), QueryLedger()
        table = rng.integers(0, 2, 1 << arity).tolist()
        h = BoolOracle.from_truth_table(table, ledger=ledger)
        ref = BoolOracle.from_truth_table(table, ledger=ref_ledger)
        for p in range(200):
            # a random vertex's 1/3 box, so the vertex is active and most
            # coordinates of each point sit on the band or in the 1/6 box
            vertex = rng.integers(0, 2, arity)
            x = np.abs(vertex - rng.random(arity) / 3.0).tolist() if p % 2 else rng.random(arity).tolist()
            assert np.float64(interp_eval(x, h)).tobytes() == np.float64(reference_interp_eval(x, ref)).tobytes()
            assert interp_grad(x, h).tobytes() == reference_interp_grad(x, ref).tobytes()
            j, k = (int(i) for i in rng.integers(0, arity, 2))
            for a, b in ((j, k), (j, j)):
                got, expected = interp_hess_entry(x, h, a, b), reference_interp_hess_entry(x, ref, a, b)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            assert ledger.count("L") == ref_ledger.count("L")

    @pytest.mark.parametrize("x, j, k", [([0.5, 1.5], 0, 2), ([0.2], 0, 0), ([0.2, math.nan], 0, 1), ([0.2, 0.9], 0, 2)])
    def test_same_errors(self, x, j, k):
        def error(fn, *args):
            with pytest.raises(ValueError) as info:
                fn(x, xor_oracle(), *args)
            return str(info.value)

        assert error(interp_hess_entry, j, k) == error(reference_interp_hess_entry, j, k)
        if k < 2:  # a bad point, which every entry point rejects
            assert error(interp_eval) == error(reference_interp_eval)
            assert error(interp_grad) == error(reference_interp_grad)
