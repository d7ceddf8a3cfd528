import math
from itertools import product

import numpy as np
import pytest

from minmaxlab.boolinterp import (
    BoolOracle,
    active_vertex,
    box_profile,
    dense_sum_eval,
    interp_eval,
    interp_grad,
    interp_hess_entry,
)
from minmaxlab.ledger import QueryLedger
from minmaxlab.smoothstep import ALPHA

from oracles import grad_central, rel_err


def xor_oracle(ledger=None):
    return BoolOracle.from_truth_table([0, 1, 1, 0], name="h", ledger=ledger)


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
            assert ledger.count("h") == k + 1

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
        assert ledger.count("h") == 0

    def test_accepts_integral_bit_types(self):
        seen = []
        table = BoolOracle.from_truth_table([0, 1, 1, 0], name="h")
        h = BoolOracle(arity=2, fn=lambda bits: seen.append(bits) or table.fn(bits), name="h")
        assert h.query((np.int64(0), True)) == 1
        assert h.query((1.0, np.float64(0.0))) == 1
        assert h.query(np.array([1, 1])) == 0
        assert seen == [(0, 1), (1, 0), (1, 1)]
        assert all(type(b) is int for bits in seen for b in bits)
        assert h.ledger.count("h") == 3

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


class TestInterpEval:
    def test_xor_inside_box(self):
        h = xor_oracle()
        assert interp_eval([0.9, 0.1], h) == 1.0

    def test_half_when_no_active_vertex(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        assert interp_eval([0.5, 0.5], h) == 0.5
        assert ledger.count("h") == 0

    def test_half_on_profile_boundary_without_query(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        assert interp_eval([1.0 / 3.0, 1.0 / 3.0], h) == 0.5
        assert ledger.count("h") == 0

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
        assert ledger.count("h") == 0

    def test_zero_inside_small_box_without_query(self):
        ledger = QueryLedger()
        h = xor_oracle(ledger)
        grad = interp_grad([0.05, 0.95], h)
        assert np.all(grad == 0.0)
        assert ledger.count("h") == 0

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

    def test_at_most_one_query(self):
        rng = np.random.default_rng(59)
        ledger = QueryLedger()
        h = random_oracle(rng, 2, ledger)
        for _ in range(200):
            before = ledger.count("L")
            interp_grad(rng.random(2).tolist(), h)
            assert ledger.count("L") - before <= 1


class TestInterpHess:
    def test_zero_without_active_vertex(self):
        h = xor_oracle()
        assert interp_hess_entry([0.4, 0.9], h, 0, 1) == 0.0

    def test_index_validation(self):
        h = xor_oracle()
        with pytest.raises(ValueError):
            interp_hess_entry([0.1, 0.1], h, 0, 2)

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
