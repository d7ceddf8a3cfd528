import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from minmaxlab.sperner import (
    SpernerInstance,
    SpernerSolution,
    TEST_MAPS,
    _label_grid,
    brouwer_to_labeling,
    decode_sperner_to_fixed_point,
    find_sperner_solution_exhaustive,
    get_test_map,
    grid_to_cube,
    verify_sperner_solution,
)


def with_boundary_checks(inst: SpernerInstance) -> SpernerInstance:
    """Wrapper that asserts the boundary conditions on every query."""

    def checked(point):
        labels = inst.labeling(point)
        for i, t in enumerate(point):
            if t == 1 and labels[i] != 1:
                raise AssertionError(f"boundary violated at {point}: coord {i} low face")
            if t == inst.M and labels[i] != -1:
                raise AssertionError(f"boundary violated at {point}: coord {i} high face")
        return labels

    return SpernerInstance(M=inst.M, d=inst.d, labeling=checked, ledger=inst.ledger)


def tiny_1d_instance():
    table = {1: (1,), 2: (-1,), 3: (-1,)}
    return SpernerInstance(M=3, d=1, labeling=lambda p: table[p[0]])


class TestVerify:
    def test_two_point_cover_in_1d(self):
        inst = tiny_1d_instance()
        ok, cert = verify_sperner_solution(inst, SpernerSolution(((1,), (2,))))
        assert ok
        assert cert.uncovered == ()

    def test_distance_two_fails_with_certificate(self):
        inst = tiny_1d_instance()
        ok, cert = verify_sperner_solution(inst, SpernerSolution(((1,), (3,))))
        assert not ok
        assert cert.max_pair_distance == 2
        assert cert.distance_pair == ((1,), (3,))

    def test_missing_label_fails_with_certificate(self):
        inst = tiny_1d_instance()
        ok, cert = verify_sperner_solution(inst, SpernerSolution(((2,), (3,))))
        assert not ok
        assert (0, 1) in cert.uncovered  # coordinate 0 never labeled +1

    def test_coverage_certificate_matches_brute_force(self):
        rng = np.random.default_rng(5)
        labels = {
            p: tuple(rng.choice([-1, 1]) for _ in range(2))
            for p in product(range(1, 4), repeat=2)
        }
        inst = SpernerInstance(M=3, d=2, labeling=lambda p: labels[p])
        sol = SpernerSolution(((1, 1), (1, 2), (2, 2)))
        ok, cert = verify_sperner_solution(inst, sol)
        expected_uncovered = []
        for i in range(2):
            seen = {labels[p][i] for p in sol.points}
            for l in (-1, 1):
                if l not in seen:
                    expected_uncovered.append((i, l))
        assert list(cert.uncovered) == expected_uncovered
        assert ok == (not expected_uncovered)

    def test_out_of_range_rejected(self):
        inst = tiny_1d_instance()
        with pytest.raises(ValueError):
            verify_sperner_solution(inst, SpernerSolution(((0,),)))
        with pytest.raises(ValueError):
            verify_sperner_solution(inst, SpernerSolution(((4,),)))

    def test_query_budget(self):
        inst = tiny_1d_instance()
        before = inst.ledger.count("lambda")
        verify_sperner_solution(inst, SpernerSolution(((1,), (2,), (2,))))
        # distinct points only: 2 queries for 3 listed points
        assert inst.ledger.count("lambda") - before == 2


class TestQueryValidation:
    @pytest.mark.parametrize(
        "point",
        [(2.5, 3.9), (2, 3.0000001), (math.nan, 2), (math.inf, 2), (0, 2), (2, 6), (2,), (1, 2, 3)],
    )
    def test_bad_point_rejected_before_charging(self, point):
        inst = SpernerInstance(M=5, d=2, labeling=lambda p: (1, -1))
        with pytest.raises(ValueError):
            inst.query(point)
        assert inst.ledger.count("lambda") == 0

    def test_integral_point_types_accepted(self):
        seen = []
        inst = SpernerInstance(M=5, d=2, labeling=lambda p: seen.append(p) or (1, -1))
        for point in [(2, 3), (np.int64(2), np.int32(3)), (2.0, 3.0), (True, 5), np.array([2, 3])]:
            assert inst.query(point) == (1, -1)
        assert seen == [(2, 3), (2, 3), (2, 3), (1, 5), (2, 3)]
        assert all(type(t) is int for p in seen for t in p)
        assert inst.ledger.count("lambda") == 5

    @pytest.mark.parametrize("labels", [(1.7, -1.2), (1, 0), (1, math.nan), (1,), (1, -1, 1)])
    def test_bad_labels_rejected(self, labels):
        inst = SpernerInstance(M=5, d=2, labeling=lambda p: labels)
        with pytest.raises(ValueError):
            inst.query((2, 3))

    def test_integral_labels_become_ints(self):
        inst = SpernerInstance(M=5, d=2, labeling=lambda p: (1.0, np.int64(-1)))
        labels = inst.query((2, 3))
        assert labels == (1, -1)
        assert all(type(l) is int for l in labels)

    def test_verify_rejects_non_integral_point(self):
        inst = tiny_1d_instance()
        with pytest.raises(ValueError):
            verify_sperner_solution(inst, SpernerSolution(((1.5,), (2,))))
        assert inst.ledger.count("lambda") == 0


class TestReduction:
    def test_grid_width_formula(self):
        assert brouwer_to_labeling(TEST_MAPS["constant"].fn, 2, 0.1).M == 31
        assert brouwer_to_labeling(TEST_MAPS["constant"].fn, 2, 0.2).M == 16

    @pytest.mark.parametrize(
        "output",
        [
            [0.5, 0.5],
            [0.5, 0.5, 0.5, 0.5],
            [0.5, math.nan, 0.5],
            [math.inf, 0.5, 0.5],
            [0.5, 0.5, -math.inf],
            [[0.5], [0.5], [0.5]],
            0.5,
        ],
        ids=["short", "long", "nan", "inf", "minus-inf", "column", "scalar"],
    )
    def test_map_output_must_be_d_finite_values(self, output):
        def fmap(z):
            return np.array(output)

        inst = brouwer_to_labeling(fmap, 3, 0.5)
        with pytest.raises(ValueError):
            inst.labeling((2, 3, 4))
        with pytest.raises(ValueError):
            inst.query((2, 3, 4))

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            brouwer_to_labeling(TEST_MAPS["constant"].fn, 2, 0.0)
        with pytest.raises(ValueError):
            brouwer_to_labeling(TEST_MAPS["constant"].fn, 2, 1.5)

    def test_constant_map_label_rule(self):
        # normalized constant map stays at 1/2, so the label flips there
        eps = 0.2
        inst = brouwer_to_labeling(TEST_MAPS["constant"].fn, 2, eps)
        for p in product(range(1, inst.M + 1), repeat=2):
            z = grid_to_cube(p, inst.M)
            labels = inst.query(p)
            for i in range(2):
                assert labels[i] == (1 if 0.5 > z[i] else -1)

    def test_brute_force_rule_small_grid(self):
        # eps = 0.5 gives M = 7: check the labeling rule on the whole grid
        eps = 0.5
        fmap = TEST_MAPS["affine_contraction"]
        inst = brouwer_to_labeling(fmap.fn, 2, eps)
        assert inst.M == 7
        for p in product(range(1, 8), repeat=2):
            z = grid_to_cube(p, 7)
            fn = (1 - eps / 2) * fmap.fn(z) + (eps / 2) * 0.5
            expected = tuple(1 if fn[i] > z[i] else -1 for i in range(2))
            assert inst.query(p) == expected

    def test_boundary_conditions_all_faces(self):
        for name, fmap in TEST_MAPS.items():
            inst = with_boundary_checks(brouwer_to_labeling(fmap.fn, 2, 0.2))
            for t in range(1, inst.M + 1):
                for p in ((1, t), (inst.M, t), (t, 1), (t, inst.M)):
                    inst.query(p)  # raises on any violation

    def test_boundary_sampled_in_3d(self):
        # synthetic 3-d contraction toward an interior point
        center = np.array([0.4, 0.6, 0.5])

        def fmap(z):
            return center + 0.5 * (z - center)

        inst = with_boundary_checks(brouwer_to_labeling(fmap, 3, 0.25))
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = rng.integers(1, inst.M + 1, size=3)
            i = rng.integers(3)
            face = p.copy()
            face[i] = 1 if rng.random() < 0.5 else inst.M
            inst.query(tuple(int(t) for t in face))  # raises on violation

    def test_one_labeling_query_is_one_map_query(self):
        inst = brouwer_to_labeling(TEST_MAPS["smoothed_rotation"].fn, 2, 0.2)
        for k in range(1, 6):
            inst.query((k, k))
            assert inst.ledger.count("lambda") == k
            assert inst.ledger.count("F") == k

    def test_tie_labels_minus_one(self):
        # a map pinned to the grid value produces label -1 (the <= branch)
        eps = 0.2
        M = math.ceil(1 + 3 / eps)

        def pinned(z):
            return (z - (eps / 2) * 0.5) / (1 - eps / 2)  # so normalized == z

        assert brouwer_to_labeling(pinned, 2, eps).labeling((5, 5)) == (-1, -1)


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(TEST_MAPS))
    def test_search_verify_decode(self, name):
        fmap = get_test_map(name)
        eps = 0.2
        inst = brouwer_to_labeling(fmap.fn, fmap.d, eps)
        assert inst.M == 16
        sol = find_sperner_solution_exhaustive(inst)
        assert sol is not None
        ok, cert = verify_sperner_solution(inst, sol)
        assert ok, cert
        z = decode_sperner_to_fixed_point(sol, inst.M)
        residual = float(np.max(np.abs(fmap.fn(z) - z)))
        assert residual <= eps

    def test_search_is_deterministic(self):
        fmap = get_test_map("smoothed_rotation")
        a = find_sperner_solution_exhaustive(brouwer_to_labeling(fmap.fn, 2, 0.2))
        b = find_sperner_solution_exhaustive(brouwer_to_labeling(fmap.fn, 2, 0.2))
        assert a == b

    def test_search_holds_one_small_code_per_point(self):
        # 44^3 points, the fixed-point benchmark's grid at eps = 0.07; a
        # tuple of labels per point peaked above 13 MB here
        inst = SpernerInstance(M=44, d=3, labeling=lambda p: tuple([1 if t <= 22 else -1 for t in p]))
        tracemalloc.start()
        try:
            sol = find_sperner_solution_exhaustive(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol == SpernerSolution(((22, 22, 22), (22, 22, 22), (23, 23, 23)))
        assert inst.ledger.count("lambda") == 44**3
        assert peak < 2_000_000

    @pytest.mark.parametrize("M, d", [(1, 2), (0, 1), (3, 0)])
    def test_degenerate_grid_rejected(self, M, d):
        with pytest.raises(ValueError, match="M >= 2"):
            SpernerInstance(M=M, d=d, labeling=lambda p: (1,) * d)

    def test_budget_gate(self):
        inst = SpernerInstance(M=2000, d=3, labeling=lambda p: (1, 1, 1))
        with pytest.raises(ValueError):
            find_sperner_solution_exhaustive(inst)


class TestDecode:
    def test_grid_midpoint(self):
        sol = SpernerSolution(((16,) * 2,))
        z = decode_sperner_to_fixed_point(sol, 31)
        assert np.allclose(z, 0.5)

    @pytest.mark.parametrize("points", [((0, 40),), ((16, 16.5),), ((40, 16), (16, 16))])
    def test_first_point_outside_grid_rejected(self, points):
        with pytest.raises(ValueError):
            decode_sperner_to_fixed_point(SpernerSolution(points), 31)

    def test_empty_solution_rejected(self):
        with pytest.raises(ValueError, match="empty solution"):
            decode_sperner_to_fixed_point(SpernerSolution(()), 31)

    def test_registry_metadata(self):
        with pytest.raises(ValueError):
            get_test_map("does-not-exist")
        rng = np.random.default_rng(3)
        for fmap in TEST_MAPS.values():
            lip = 0.0
            for _ in range(200):
                a = rng.random(2)
                b = rng.random(2)
                fa, fb = fmap.fn(a), fmap.fn(b)
                assert np.all(fa >= 0) and np.all(fa <= 1)
                denom = np.max(np.abs(a - b))
                if denom > 1e-12:
                    lip = max(lip, np.max(np.abs(fa - fb)) / denom)
            assert lip <= fmap.lipschitz_inf + 1e-9
            assert fmap.lipschitz_inf <= 2.0


class TestLabelGrid:
    def test_dense_grid_bytes(self):
        inst = tiny_1d_instance()
        assert bytes(_label_grid(inst)) == bytes([1, 0, 0])

    def test_2d_bit_packing(self):
        inst = brouwer_to_labeling(TEST_MAPS["constant"].fn, 2, 0.5)
        data = _label_grid(inst)
        assert len(data) == inst.M**2
        # first grid point (1,1) is on both low faces: labels (+1,+1) -> 0b11
        assert data[0] == 3

    def test_nine_coordinates_codes_exceed_a_byte(self):
        # label i is +1 on the low face of coordinate i, so (1,...,1) codes 0b111111111
        inst = SpernerInstance(M=2, d=9, labeling=lambda p: tuple(1 if c == 1 else -1 for c in p))
        data = _label_grid(inst)
        assert len(data) == 2**9 and inst.ledger.snapshot() == {"lambda": 2**9}
        assert data[0] == 511 and data[1] == 255 and data[-1] == 0
