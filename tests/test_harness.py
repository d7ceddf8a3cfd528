import math

import numpy as np
import pytest

from minmaxlab.gda import endpoint_gap
from minmaxlab.harness import (
    BilinearToy,
    GdaObjective,
    fd_check,
    grid_search_stationary,
    run_extragradient,
    run_pgda,
)
from minmaxlab.ledger import QueryLedger

from circuits import nor_loop
from test_gda import scaled


class ZeroObjective:
    dim_x = 1
    dim_y = 1
    mode = "toy"

    def __init__(self):
        self.ledger = QueryLedger()

    def value(self, x, y):
        self.ledger.record("f_evals")
        return 0.0

    def grad(self, x, y):
        self.ledger.record("grad_f_evals")
        return np.zeros(1), np.zeros(1)


class ExplodingObjective(ZeroObjective):
    def grad(self, x, y):
        self.ledger.record("grad_f_evals")
        return np.array([math.nan]), np.zeros(1)


class TestPgda:
    def test_zero_step_is_constant(self):
        toy = BilinearToy()
        run = run_pgda(toy, steps=50, lr=0.0, x0=np.array([0.7]), y0=np.array([0.2]))
        assert np.allclose(run.final_point[0], 0.7)
        assert np.allclose(run.final_point[1], 0.2)
        gaps = [g for _, g in run.gap_curve]
        assert all(g == gaps[0] for g in gaps)

    def test_bilinear_cycles_at_fixed_step(self):
        toy = BilinearToy()
        run = run_pgda(toy, steps=20_000, lr=0.3, x0=np.array([0.9]), y0=np.array([0.9]), gap_every=1)
        assert not run.aborted
        assert run.best_gap > 1e-3

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize("start", [{"x0": np.array([0.9])}, {"y0": np.array([0.9])}])
    def test_half_a_start_point_rejected(self, runner, start):
        toy = BilinearToy()
        with pytest.raises(ValueError, match="x0 and y0"):
            runner(toy, steps=5, **start)
        assert toy.ledger.total() == 0

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize(
        "x0, y0",
        [([math.nan], [0.5]), ([0.5], [math.inf]), ([1.5], [0.5]), ([0.5], [-0.1]), ([0.5, 0.5], [0.5]), ([0.5], 0.5)],
        ids=["nan", "inf", "above", "below", "long", "scalar"],
    )
    def test_bad_start_point_rejected(self, runner, x0, y0):
        toy = BilinearToy()
        with pytest.raises(ValueError, match="must have shape"):
            runner(toy, steps=5, lr=0.1, x0=x0, y0=y0)
        assert toy.ledger.total() == 0

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan], ids=["negative", "fraction", "nan"])
    def test_bad_seed_rejected(self, runner, seed):
        # random.Random would take -1 as 1 and accept 1.5
        toy = BilinearToy()
        with pytest.raises(ValueError, match="seed"):
            runner(toy, steps=5, lr=0.1, seed=seed)
        assert toy.ledger.total() == 0

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize(
        "seed, as_int", [(np.int64(3), 3), (True, 1), (2**70, 2**70)], ids=["int64", "bool", "huge"]
    )
    def test_whole_number_seed_starts_as_its_int(self, runner, seed, as_int):
        # lr = 0 keeps the start point, so final_point is the seeded draw
        a = runner(BilinearToy(), steps=1, lr=0.0, seed=seed)
        b = runner(BilinearToy(), steps=1, lr=0.0, seed=as_int)
        assert [p.tobytes() for p in a.final_point] == [p.tobytes() for p in b.final_point]

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    def test_equal_seeds_give_byte_equal_starts(self, runner):
        a, b, c = (runner(BilinearToy(), steps=1, lr=0.0, seed=seed).final_point for seed in (11, 11, 12))
        assert [p.tobytes() for p in a] == [p.tobytes() for p in b]
        assert [p.tobytes() for p in a] != [p.tobytes() for p in c]

    def test_iterates_stay_in_box(self):
        toy = BilinearToy()
        run = run_pgda(toy, steps=500, lr=0.9, x0=np.array([0.99]), y0=np.array([0.01]))
        for arr in run.final_point:
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_one_gradient_call_per_iteration(self):
        toy = BilinearToy()
        run_pgda(toy, steps=137, lr=0.1)
        assert toy.ledger.count("grad_f_evals") == 137

    def test_deterministic_given_seed(self):
        a = run_pgda(BilinearToy(), steps=200, lr=0.2, seed=7)
        b = run_pgda(BilinearToy(), steps=200, lr=0.2, seed=7)
        assert a.best_gap == b.best_gap
        assert np.array_equal(a.final_point[0], b.final_point[0])
        assert a.gap_curve == b.gap_curve

    def test_default_step_size(self):
        run = run_pgda(BilinearToy(), steps=100, lr=None)
        assert run.step_size == pytest.approx(0.1 / math.sqrt(100))

    def test_abort_on_nan(self):
        run = run_pgda(ExplodingObjective(), steps=10, lr=0.1)
        assert run.aborted
        assert "non-finite" in run.diagnostic
        assert run.iterations == 0

    def test_iterations_completed_before_abort(self):
        class ExplodesAtThree(ZeroObjective):
            def grad(self, x, y):
                gx, gy = super().grad(x, y)
                return (gx + math.nan if self.ledger.count("grad_f_evals") > 3 else gx), gy

        run = run_pgda(ExplodesAtThree(), steps=10, lr=0.1)
        assert run.aborted and run.iterations == 3
        assert run_pgda(ZeroObjective(), steps=10, lr=0.1).iterations == 10

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf])
    def test_bad_step_size_rejected(self, runner, lr):
        with pytest.raises(ValueError, match="step size"):
            runner(BilinearToy(), steps=5, lr=lr)

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize("steps", [0, 2.5, math.nan, math.inf, "5"])
    def test_bad_step_count_rejected(self, runner, steps):
        toy = BilinearToy()
        with pytest.raises(ValueError, match="steps"):
            runner(toy, steps=steps, lr=0.1)
        assert toy.ledger.total() == 0

    @pytest.mark.parametrize("runner", [run_pgda, run_extragradient])
    @pytest.mark.parametrize("gap_every", [0, -3, 1.5, math.nan])
    def test_bad_gap_every_rejected(self, runner, gap_every):
        with pytest.raises(ValueError, match="gap_every"):
            runner(BilinearToy(), steps=5, lr=0.1, gap_every=gap_every)


class TestExtragradient:
    def test_zero_step_is_constant(self):
        run = run_extragradient(BilinearToy(), steps=20, lr=0.0, x0=np.array([0.3]), y0=np.array([0.6]))
        assert np.allclose(run.final_point[0], 0.3)

    def test_bilinear_converges(self):
        toy = BilinearToy()
        run = run_extragradient(
            toy, steps=10_000, lr=0.1, x0=np.array([0.9]), y0=np.array([0.9]), gap_every=1
        )
        assert run.best_gap <= 1e-6

    def test_two_gradient_calls_per_iteration(self):
        toy = BilinearToy()
        run_extragradient(toy, steps=73, lr=0.1)
        assert toy.ledger.count("grad_f_evals") == 2 * 73

    def test_bilinear_gap_envelope_decays(self):
        # raw gaps oscillate along the inward spiral; the windowed maxima
        # must fall steadily
        run = run_extragradient(
            BilinearToy(), steps=8000, lr=0.1, x0=np.array([0.9]), y0=np.array([0.9]), gap_every=1
        )
        gaps = [g for _, g in run.gap_curve]
        quarters = [max(gaps[i * 2000:(i + 1) * 2000]) for i in range(4)]
        assert quarters[0] > quarters[1] > quarters[2] > quarters[3]


class TestGridSearch:
    def test_bilinear_saddle_found(self):
        x, y, gap = grid_search_stationary(BilinearToy(), resolution=101)
        assert gap <= 1.0 / 100.0
        assert x[0] == pytest.approx(0.5, abs=1e-12)
        assert y[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_objective_gap_everywhere_zero(self):
        x, y, gap = grid_search_stationary(ZeroObjective(), resolution=5)
        assert gap == 0.0

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            grid_search_stationary(BilinearToy(), resolution=4000)

    @pytest.mark.parametrize("resolution", [1, 2.5, math.nan])
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            grid_search_stationary(BilinearToy(), resolution=resolution)

    def test_gap_matches_brute_force_on_grid(self):
        # endpoint formula vs scanning a 1001-point grid of the defining
        # affine expressions: equal exactly
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(50):
            x = rng.random(2)
            y = rng.random(2)
            gx = rng.uniform(-1, 1, 2)
            gy = rng.uniform(-1, 1, 2)
            brute = -math.inf
            for j in range(2):
                brute = max(brute, float(np.max(-gx[j] * (grid - x[j]))))
                brute = max(brute, float(np.max(gy[j] * (grid - y[j]))))
            assert endpoint_gap(x, y, gx, gy) == brute


class TestFdCheck:
    def test_linear_function_exact(self):
        rep = fd_check(
            lambda v: float(2.0 * v[0] - 3.0 * v[1]),
            lambda v: np.array([2.0, -3.0]),
            [np.array([0.4, 0.6]), np.array([0.2, 0.8])],
            h=1e-6,
        )
        assert rep.max_rel_err <= 1e-10
        assert rep.checked == 2

    def test_sign_flip_flagged(self):
        rep = fd_check(
            lambda v: float(1.5 * v[0]),
            lambda v: np.array([-1.5]),
            [np.array([0.5])],
            h=1e-6,
        )
        assert rep.max_rel_err == pytest.approx(2.0, rel=1e-3)

    def test_boundary_points_skipped(self):
        rep = fd_check(
            lambda v: float(v[0]),
            lambda v: np.array([1.0]),
            [np.array([0.0]), np.array([0.5])],
            h=1e-3,
        )
        assert rep.checked == 1
        assert rep.skipped == [(0, "within h of the boundary")]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_fails(self, bad):
        rep = fd_check(
            lambda v: float(v[0] + v[1] + v[2]),
            lambda v: np.array([1.0, bad, 1.0]),
            [np.array([0.5, 0.5, 0.5])],
            h=1e-6,
        )
        assert rep.max_rel_err == math.inf
        assert rep.worst_coordinate == 1 and rep.worst_point_index == 0

    def test_non_finite_value_fails(self):
        rep = fd_check(
            lambda v: float(v[0]) if v[0] < 0.5 else math.nan,
            lambda v: np.array([1.0]),
            [np.array([0.2]), np.array([0.5])],
            h=1e-6,
        )
        assert rep.max_rel_err == math.inf
        assert rep.worst_point_index == 1

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-6])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError):
            fd_check(lambda v: float(v[0]), lambda v: np.array([1.0]), [np.array([0.5])], h=h)

    def test_gda_instance_gradient(self):
        inst = scaled(nor_loop(), n=2)
        obj = GdaObjective(inst)
        rng = np.random.default_rng(5)

        def value_fn(vec):
            return obj.value(vec[: inst.dim], vec[inst.dim :])

        def grad_fn(vec):
            gx, gy = obj.grad(vec[: inst.dim], vec[inst.dim :])
            return np.concatenate([gx, gy])

        points = [0.1 + 0.8 * rng.random(2 * inst.dim) for _ in range(3)]
        rep = fd_check(value_fn, grad_fn, points, h=1e-5)
        assert rep.max_rel_err <= 1e-4


class TestLedgerAlongRuns:
    def test_ledger_monotone_along_run(self):
        toy = BilinearToy()
        first = run_pgda(toy, steps=10, lr=0.1)
        second = run_pgda(toy, steps=10, lr=0.1)
        assert second.ledger_snapshot["grad_f_evals"] >= first.ledger_snapshot["grad_f_evals"]
