import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minmaxlab import harness
from minmaxlab.brouwer import build_brouwer, eval_F, eval_JF
from minmaxlab.cli import build_parser, main
from minmaxlab.circuit import Assignment, build_constant_gadget, check_assignment, circuit_from_json, circuit_to_json
from minmaxlab.config import DEFAULTS

from circuits import nor_loop, oracle_attracting, oracle_pair, oracle_purify, purify_loop

ROOT = Path(__file__).resolve().parent.parent

CIRCUITS = {
    "nor_loop": nor_loop,
    "purify_loop": purify_loop,
    "oracle_pair": oracle_pair,
    "oracle_purify": oracle_purify,
    "oracle_attracting": oracle_attracting,
    "gadget": lambda: build_constant_gadget().instance,
}


@pytest.fixture
def circ_file(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(circuit_to_json(purify_loop()))
    return path


@pytest.fixture
def gda_file(tmp_path):
    circ = tmp_path / "inner.json"
    circ.write_text(circuit_to_json(nor_loop()))
    desc = tmp_path / "gda.json"
    desc.write_text(
        json.dumps(
            {"circuit": "inner.json", "mode": "scaled", "delta": 0.05, "n": 2, "eps": 1e-4}
        )
    )
    return desc


class TestBuildBrouwer:
    def test_valid_circuit(self, circ_file, capsys):
        assert main(["build-brouwer", str(circ_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["dim"] == 4

    def test_invalid_circuit_exits_one(self, tmp_path, capsys):
        bad = {
            "nodes": ["a", "b", "c"],
            "gates": [{"type": "NOR", "in": ["a", "b"], "out": "c"}],
            "oracle": None,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["build-brouwer", str(path)]) == 1

    def test_empty_circuit_is_invalid(self, tmp_path, capsys):
        # build-brouwer reports it as a violation and verify exits 2, as for
        # any other invalid circuit
        circ = tmp_path / "empty.json"
        circ.write_text(json.dumps({"nodes": [], "gates": [], "oracle": None}))
        points = tmp_path / "z.csv"
        points.write_text("\n")
        assert main(["build-brouwer", str(circ)]) == 1
        assert json.loads(capsys.readouterr().out) == {"valid": False, "violations": ["the circuit has no nodes"]}
        assert main(["verify", str(circ), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid circuit instance: the circuit has no nodes\n"

    def test_canonical_out(self, circ_file, tmp_path, capsys):
        out = tmp_path / "canon.json"
        assert main(["build-brouwer", str(circ_file), "--out", str(out)]) == 0
        assert out.read_text() == circ_file.read_text()

    def test_missing_file_exits_two(self, capsys):
        assert main(["build-brouwer", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("kind", ["XOR", ["NOR"]])
    @pytest.mark.parametrize("command", ["build-brouwer", "verify"])
    def test_unknown_gate_kind_names_the_file(self, tmp_path, capsys, command, kind):
        circ = tmp_path / "xor.json"
        circ.write_text(json.dumps({"nodes": ["a", "b", "c"], "gates": [{"type": kind, "in": ["a", "b"], "out": "c"}]}))
        points = tmp_path / "z.csv"
        points.write_text("0.5,0.5,0.5\n")
        argv = [command, str(circ)] + ([str(points)] if command == "verify" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {circ}: unknown gate kind {kind!r}\n"


    @pytest.mark.parametrize("oracle, error", [
        ({"kind": "truth_table", "data": [False, True]}, "a truth-table entry must be a number, got False"),
        ({"kind": "sperner", "data": {"map": "constant", "M": 16, "d": 2, "eps": True}},
         "a sperner oracle's 'eps' must be a number, got True"),
    ], ids=["truth-table-entry", "sperner-eps"])
    def test_boolean_number_names_the_file(self, tmp_path, capsys, oracle, error):
        circ = tmp_path / "bool.json"
        circ.write_text(json.dumps({"nodes": ["a"], "gates": [{"type": "ORACLE", "in": ["a"], "out": "a"}],
                                    "oracle": oracle}))
        assert main(["build-brouwer", str(circ)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {circ}: {error}\n"


@pytest.mark.parametrize("command", ["build-brouwer", "build-gda"])
def test_out_that_is_a_directory_names_it(circ_file, gda_file, tmp_path, capsys, command):
    adir = tmp_path / "adir"
    adir.mkdir()
    instance = circ_file if command == "build-brouwer" else gda_file
    assert main([command, str(instance), "--out", str(adir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {adir}: Is a directory\n"


class TestBuildGda:
    def test_summary(self, gda_file, capsys):
        assert main(["build-gda", str(gda_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dim_per_player"] == 3 * 2 * 3
        assert out["params"]["mode"] == "scaled"

    def test_out_holds_the_summary(self, gda_file, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["build-gda", str(gda_file), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_bad_descriptor_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "scaled", "delta": 0.1}))
        assert main(["build-gda", str(path)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("n", math.inf), ("n", math.nan), ("delta", math.nan), ("eps", math.inf),
        ("delta", "0.05"), ("eps", [1e-4]), ("n", [4]), ("rho", [0.1]),
    ])
    def test_non_finite_parameter_exits_two(self, gda_file, capsys, key, value):
        desc = json.loads(gda_file.read_text())
        desc[key] = value
        gda_file.write_text(json.dumps(desc))
        assert main(["build-gda", str(gda_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("key", ["delta", "eps", "rho"])
    def test_boolean_parameter_names_the_file(self, gda_file, capsys, key):
        desc = json.loads(gda_file.read_text())
        desc[key] = True
        gda_file.write_text(json.dumps(desc))
        assert main(["build-gda", str(gda_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {gda_file}: a descriptor's {key!r} must be a number, got True\n"


class TestVerify:
    def test_brouwer_accept(self, circ_file, tmp_path, capsys):
        z = np.ones(4)
        points = tmp_path / "z.bin"
        z.astype("<f8").tofile(points)
        assert main(["verify", str(circ_file), str(points)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["violations"] == []

    def test_brouwer_reject(self, circ_file, tmp_path, capsys):
        z = np.full(4, 0.5)
        points = tmp_path / "z.csv"
        np.savetxt(points, z, delimiter=",")
        assert main(["verify", str(circ_file), str(points)]) == 1

    def test_gda_verify(self, gda_file, tmp_path, capsys):
        # x = y at a tiled exact fixed point is stationary
        from minmaxlab.brouwer import cycle_cut_solve
        from minmaxlab.cli import _load_instance

        inst = _load_instance(gda_file, "descriptor")
        zstar = cycle_cut_solve(inst.bmap).z
        x = np.tile(zstar, inst.n * inst.m)
        vec = np.concatenate([x, x])
        points = tmp_path / "xy.bin"
        vec.astype("<f8").tofile(points)
        assert main(["verify", str(gda_file), str(points)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap_ok"]
        assert "witness" in out

    def test_gda_verify_without_witness(self, gda_file, tmp_path, capsys):
        # at x = y = 0 every replica midpoint is 0, where the NOR loop moves
        points = tmp_path / "xy.bin"
        np.zeros(2 * 18).astype("<f8").tofile(points)
        assert main(["verify", str(gda_file), str(points)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert "witness" not in out and not out["gap_ok"]
        assert out["warning"] == f"point is not 0.0001-stationary (gap {out['gap']:.3g}); extraction still runs"
        circuit = nor_loop()
        assert out["assignment"] == dict.fromkeys(circuit.nodes, 0)
        violations = check_assignment(circuit, Assignment(dict.fromkeys(circuit.nodes, 0)))
        assert violations
        assert out["violations"] == [g.label() for g in violations]

    @pytest.mark.parametrize("name, text", [("z.csv", "0.5,abc\n"), ("z.csv", None), ("z.bin", None)],
                             ids=["csv-not-a-number", "csv-missing", "bin-missing"])
    def test_unreadable_point_file_names_it(self, circ_file, tmp_path, capsys, name, text):
        points = tmp_path / name
        if text is not None:
            points.write_text(text)
        assert main(["verify", str(circ_file), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {points}: ")

    @pytest.mark.parametrize("bad", ["nan", "1.5"])
    @pytest.mark.parametrize("kind", ["circuit", "descriptor"])
    def test_point_outside_the_cube_names_the_file(self, circ_file, gda_file, tmp_path, capsys, kind, bad):
        instance, size = (circ_file, 4) if kind == "circuit" else (gda_file, 2 * 18)
        points = tmp_path / "z.csv"
        points.write_text(",".join(["0.5", bad] + ["0.5"] * (size - 2)) + "\n")
        assert main(["verify", str(instance), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {points}: point outside [0,1]^d: coordinate {float(bad)!r}\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_point_exits_two(self, circ_file, tmp_path, capsys, bad):
        points = tmp_path / "z.csv"
        points.write_text(f"0.5,{bad},0.5,0.5\n")
        assert main(["verify", str(circ_file), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "gate",
        [
            {"type": "NOR", "in": ["a", "b", "c"], "out": "d"},
            {"type": "PURIFY", "in": ["a"], "out": "bc"},
            {"type": "ORACLE", "in": ["a"], "out": ["b", "c"]},
            {"type": "NOR", "in": ["a", 1], "out": "d"},
        ],
    )
    def test_malformed_gate_exits_two(self, tmp_path, capsys, gate):
        circ = tmp_path / "bad.json"
        oracle = {"kind": "truth_table", "data": [0, 1]}
        circ.write_text(json.dumps({"nodes": ["a", "b", "c", "d"], "gates": [gate], "oracle": oracle}))
        points = tmp_path / "z.csv"
        points.write_text("0.5,0.5,0.5,0.5\n")
        assert main(["verify", str(circ), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("nodes", [[["a"], "b", "c", "d"], "abcd"])
    def test_malformed_nodes_exit_two(self, tmp_path, capsys, nodes):
        circ = tmp_path / "bad.json"
        circ.write_text(json.dumps({"nodes": nodes, "gates": [{"type": "NOR", "in": ["c", "d"], "out": "b"}], "oracle": None}))
        points = tmp_path / "z.csv"
        points.write_text("0.5,0.5,0.5,0.5\n")
        assert main(["verify", str(circ), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "change",
        [
            {"oracle": {"kind": "truth_table", "data": [0.7, 1.2]}},
            {"oracle": {"kind": "truth_table", "data": ["0", "1"]}},
            {"oracle": {"kind": "truth_table", "data": [math.inf, 0]}},
            {"oracle": [0, 1]},
            {"gates": ["ORACLE"]},
            None,  # the whole file is a JSON list, not an object
            {"gates": 5},
            {"oracle": {"kind": "truth_table", "data": 5}},
            {"oracle": {"kind": "sperner", "data": [1]}},
        ],
        ids=["fractional-bits", "string-bits", "infinite-bit", "oracle-list", "gate-string", "top-level-list",
             "gates-number", "table-number", "sperner-list"],
    )
    def test_malformed_circuit_file_exits_two(self, tmp_path, capsys, change):
        payload = json.loads(circuit_to_json(oracle_pair()))
        circ = tmp_path / "bad.json"
        circ.write_text(json.dumps([payload] if change is None else {**payload, **change}))
        points = tmp_path / "z.csv"
        points.write_text("0.5,0.5\n")
        assert main(["verify", str(circ), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_binary_point_file_with_stray_bytes_exits_two(self, circ_file, tmp_path, capsys):
        # 4 float64 values and 3 bytes more are not a flat float64 array
        points = tmp_path / "z.bin"
        points.write_bytes(np.full(4, 0.5).astype("<f8").tobytes() + b"abc")
        assert main(["verify", str(circ_file), str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {points}: ")

    def test_empty_csv_prints_only_the_error(self, circ_file, tmp_path):
        # pytest intercepts warnings, so only a fresh process shows all that reaches stderr
        points = tmp_path / "e.csv"
        points.write_text("")
        out = _python("-m", "minmaxlab.cli", "verify", str(circ_file), str(points))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {points}: expected 4 values, found 0\n"

    def test_wrong_length_exits_two(self, circ_file, tmp_path, capsys):
        points = tmp_path / "short.bin"
        np.ones(2).astype("<f8").tofile(points)
        assert main(["verify", str(circ_file), str(points)]) == 2
        assert capsys.readouterr().err == f"error: {points}: expected 4 values, found 2\n"

    def test_constant_gadget_roundtrip(self, tmp_path, capsys):
        from minmaxlab.brouwer import build_brouwer, cycle_cut_solve
        from minmaxlab.circuit import build_constant_gadget

        gadget = build_constant_gadget()
        circ = tmp_path / "gadget.json"
        circ.write_text(circuit_to_json(gadget.instance))
        z = cycle_cut_solve(build_brouwer(gadget.instance)).z
        points = tmp_path / "z.bin"
        z.astype("<f8").tofile(points)
        assert main(["verify", str(circ), str(points)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["violations"] == []
        assert out["assignment"]["v9"] == 0
        assert out["assignment"]["v12"] == 1


class TestGradCheck:
    def test_circuit_jacobian(self, circ_file):
        assert main(["grad-check", str(circ_file), "--points", "2"]) == 0

    def test_gda_gradient(self, gda_file):
        assert main(["grad-check", str(gda_file), "--points", "2"]) == 0

    @pytest.mark.parametrize("h", ["nan", "inf", "0", "-1e-6", "0.6", "1"])
    def test_bad_step_is_usage_error(self, circ_file, gda_file, capsys, h):
        assert main(["grad-check", str(circ_file), f"--h={h}"]) == 2
        assert main(["grad-check", str(gda_file), f"--h={h}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: --h must lie in (0, 1/2]") == 2

    def test_half_step_checks_the_centre(self, circ_file, capsys):
        # the coarse quotient may fail the audit (exit 1), but the point is checked
        assert main(["grad-check", str(circ_file), "--h=0.5", "--points=1"]) != 2
        assert json.loads(capsys.readouterr().out)["checked"] == 1

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, circ_file, gda_file, capsys, tol):
        assert main(["grad-check", str(circ_file), f"--tol={tol}"]) == 2
        assert main(["grad-check", str(gda_file), f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: --tol must be finite and >= 0") == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_is_usage_error(self, circ_file, gda_file, capsys, points):
        assert main(["grad-check", str(circ_file), f"--points={points}"]) == 2
        assert main(["grad-check", str(gda_file), f"--points={points}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"error: --points must be a whole number >= 1, got {points}\n") == 2

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_usage_error(self, circ_file, gda_file, capsys, seed):
        assert main(["grad-check", str(circ_file), f"--seed={seed}"]) == 2
        assert main(["grad-check", str(gda_file), f"--seed={seed}"]) == 2
        for algo in ("pgda", "extragradient"):
            assert main(["solve", str(gda_file), "--algo", algo, "--steps", "2", f"--seed={seed}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"error: --seed must be a whole number >= 0, got {seed}\n") == 4

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_circuit_error_is_the_worst_jacobian_entry(self, tmp_path, capsys, name):
        path = tmp_path / "circuit.json"
        path.write_text(circuit_to_json(CIRCUITS[name]()))
        # at seed 8 every map has a point off its plateaus, so worst > 0.0 below
        assert main(["grad-check", str(path), "--points", "2", "--seed", "8"]) in (0, 1)
        out = json.loads(capsys.readouterr().out)
        # the same points, every entry of every Jacobian column compared
        bmap = build_brouwer(circuit_from_json(path.read_text()))
        h = DEFAULTS.grad_fd_step
        rng = random.Random(8)
        worst = 0.0
        for _ in range(2):
            z = h + (1 - 2 * h) * np.array([rng.random() for _ in range(bmap.dim)])
            jac = eval_JF(bmap, z)
            for j in range(bmap.dim):
                up, down = z.copy(), z.copy()
                up[j] += h
                down[j] -= h
                fd = (eval_F(bmap, up) - eval_F(bmap, down)) / (2 * h)
                for i in range(bmap.dim):
                    err = abs(fd[i] - jac[i, j])
                    scale = max(abs(fd[i]), abs(jac[i, j]))
                    worst = max(worst, err / scale if scale > 1.0 else err)
        assert worst > 0.0
        assert out["max_rel_err"] == worst
        assert out["checked"] == 2

    def test_nan_jacobian_fails_with_null_error(self, circ_file, monkeypatch, capsys):
        from minmaxlab import brouwer

        eval_JF = brouwer.eval_JF
        monkeypatch.setattr(brouwer, "eval_JF", lambda bmap, z: eval_JF(bmap, z) * np.nan)
        assert main(["grad-check", str(circ_file), "--points", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["max_rel_err"] is None and out["ok"] is False

    def test_nan_gradient_fails_with_null_error(self, gda_file, monkeypatch, capsys):
        from minmaxlab import gda

        monkeypatch.setattr(gda, "eval_grad_f", lambda inst, x, y: (np.full(inst.dim, np.nan), np.zeros(inst.dim)))
        assert main(["grad-check", str(gda_file), "--points", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["max_rel_err"] is None and out["ok"] is False


SOLVE_50 = ["solve", "--algo", "pgda", "--steps", "50", "--lr", "0.05", "--gap-every", "10"]
GAP_CURVES_50 = """run,algorithm,iteration,gap
0,pgda,0,0.7130482633329904
0,pgda,10,0.36746701327546827
0,pgda,20,0.30384543105864326
0,pgda,30,0.5023867155102536
0,pgda,40,0.6262224187640169
"""
REPORT_50 = """{
  "extra": {
    "dichotomy": {
      "branch": "assignment",
      "gap": 0.24263101633222284,
      "gap_ok": false,
      "violations": [
        "NOR(b,c -> a)"
      ]
    }
  },
  "ledgers": {
    "instance": {
      "F_evals": 108,
      "JF_evals": 102,
      "grad_f_evals": 51
    }
  },
  "runs": [
    {
      "aborted": false,
      "algorithm": "pgda",
      "best_gap": 0.24263101633222284,
      "diagnostic": null,
      "iterations": 50,
      "ledger": {
        "F_evals": 100,
        "JF_evals": 100,
        "grad_f_evals": 50
      },
      "mode": "scaled",
      "seed": 0,
      "step_size": 0.05
    }
  ]
}
"""


class TestSolve:
    def test_pgda_writes_reports(self, gda_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            [
                "solve",
                str(gda_file),
                "--algo",
                "pgda",
                "--steps",
                "50",
                "--lr",
                "0.05",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "gap_curves.csv").exists()
        assert (out_dir / "report.json").exists()

    def test_out_that_is_a_file_exits_two(self, gda_file, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["solve", str(gda_file), "--algo", "pgda", "--steps", "5", "--out", str(afile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {afile}: File exists\n"

    def test_unwritable_report_leaves_no_curves(self, gda_file, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert main(["solve", str(gda_file), "--algo", "pgda", "--steps", "5", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / 'report.json'}: Is a directory\n"
        assert not (tmp_path / "gap_curves.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--steps", "0"], "--steps must be a whole number >= 1, got 0"),
            (["--gap-every", "0"], "--gap-every must be a whole number >= 1, got 0"),
            (["--lr", "-1"], "--lr must be finite and >= 0, got -1.0"),
            (["--lr", "-0.5"], "--lr must be finite and >= 0, got -0.5"),
            (["--lr", "nan"], "--lr must be finite and >= 0, got nan"),
            (["--lr", "inf"], "--lr must be finite and >= 0, got inf"),
            (["--seed", "-3"], "--seed must be a whole number >= 0, got -3"),
        ],
        ids=["steps", "gap-every", "lr", "lr-half", "lr-nan", "lr-inf", "seed"],
    )
    def test_flags_checked_before_the_file_is_read(self, tmp_path, capsys, flags, message):
        assert main(["solve", str(tmp_path / "missing.json"), "--algo", "pgda", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_identical_runs_write_the_pinned_report(self, gda_file, tmp_path, capsys):
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(SOLVE_50 + [str(gda_file), "--out", str(out_dir)]) == 0
            assert json.loads(capsys.readouterr().out) == {
                "algorithm": "pgda",
                "best_gap": 0.24263101633222284,
                "aborted": False,
                "reports": [str(out_dir / "gap_curves.csv"), str(out_dir / "report.json")],
            }
            assert (out_dir / "gap_curves.csv").read_bytes() == GAP_CURVES_50.encode()
            assert (out_dir / "report.json").read_bytes() == REPORT_50.encode()

    def test_aborted_run_report_is_strict_json(self, gda_file, tmp_path, capsys, monkeypatch):
        def nan_gradient(inst, x, y):
            return np.full(inst.dim, math.nan), np.zeros(inst.dim)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        # GdaObjective calls the eval_grad_f of harness's namespace
        monkeypatch.setattr(harness, "eval_grad_f", nan_gradient)
        assert main(["solve", str(gda_file), "--algo", "pgda", "--steps", "10", "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().out)["best_gap"] is None
        payload = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert payload["runs"][0]["best_gap"] is None
        assert payload["runs"][0]["iterations"] == 0
        assert payload["runs"][0]["aborted"] is True
        assert payload["extra"] == {}

    def test_report_directory_defaults(self, gda_file, tmp_path, capsys, monkeypatch):
        args = ["solve", str(gda_file), "--algo", "pgda", "--steps", "3"]
        monkeypatch.setenv("MINMAXLAB_REPORT_DIR", str(tmp_path / "envdir"))
        assert main(args + ["--out", str(tmp_path / "outdir")]) == 0
        assert (tmp_path / "outdir" / "report.json").is_file()
        assert main(args) == 0
        assert (tmp_path / "envdir" / "report.json").is_file()
        monkeypatch.delenv("MINMAXLAB_REPORT_DIR")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == ["reports/gap_curves.csv", "reports/report.json"]
        assert (work / "reports" / "report.json").is_file()

    def test_solve_requires_descriptor(self, circ_file):
        assert main(["solve", str(circ_file), "--algo", "pgda"]) == 2

    def test_grid_algo_is_rejected(self, gda_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(gda_file), "--algo", "grid"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'grid'" in captured.err

    def test_query_report(self, gda_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        main(
            [
                "solve",
                str(gda_file),
                "--algo",
                "extragradient",
                "--steps",
                "20",
                "--lr",
                "0.05",
                "--out",
                str(out_dir),
            ]
        )
        capsys.readouterr()
        assert main(["query-report", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"] == 1
        # 2 per extragradient iteration plus 1 for the dichotomy gap
        assert out["ledger_totals"]["grad_f_evals"] == 2 * 20 + 1

    def test_query_report_sums_reports(self, gda_file, tmp_path, capsys):
        for steps in (20, 30):
            out_dir = tmp_path / "reports" / f"steps{steps}"
            args = ["solve", str(gda_file), "--algo", "pgda", "--steps", str(steps), "--out", str(out_dir)]
            assert main(args) == 0
        capsys.readouterr()
        assert main(["query-report", str(tmp_path / "reports")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"] == 2
        # 1 per PGDA iteration plus 1 for the dichotomy gap, per report
        assert out["ledger_totals"]["grad_f_evals"] == (20 + 1) + (30 + 1)

    def test_query_report_missing_dir(self):
        assert main(["query-report", "/nonexistent/dir"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",  # a list, not a report object
            '{"runs": ["pgda"]}',  # a run that is a string
            '{"runs": {"ledger": {"L": 3}}}',  # runs as an object
            '{"runs": [{"ledger": [3]}]}',  # a ledger that is a list
            '{"runs": [{"ledger": {"L": "3"}}]}',  # a count given as a string
            '{"runs": [{"ledger": {"L": 2.5}}]}',
            '{"runs": [{"ledger": {"L": -1}}]}',
            '{"ledgers": [{"L": 3}]}',
            '{"ledgers": {"instance": {"L": null}}}',
            '{"runs": [], "extra": {"gap": NaN}}',
            "{not json",
        ],
    )
    def test_query_report_malformed_report(self, tmp_path, capsys, text):
        good = tmp_path / "a" / "report.json"
        good.parent.mkdir()
        good.write_text('{"runs": [{"ledger": {"L": 3}}], "ledgers": {"instance": {"L": 4}}}')
        bad = tmp_path / "b" / "report.json"
        bad.parent.mkdir()
        bad.write_text(text)
        assert main(["query-report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(bad) in captured.err
        assert "Traceback" not in captured.err

    def test_query_report_accepts_whole_counts(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text(
            '{"runs": [{"ledger": {"L": 3.0, "F_evals": 2}}, {}], "ledgers": {"instance": {"L": 4}}}'
        )
        assert main(["query-report", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"reports": 1, "ledger_totals": {"L": 4, "F_evals": 2}}


# paper-mode descriptors at a few rho
PAPER = {"paper-rho-twelfth": 1.0 / 12.0, "paper-rho-1e-22": 1e-22, "paper-rho-1e-30": 1e-30}
FILE_KINDS = ["circuit", "descriptor-path", "descriptor-inline", "descriptor-no-mode",
              "list", "mode-only", "not-json", "missing", "nan-note",
              "inner-missing", "inner-not-json", "inner-list", *PAPER]
DESCRIPTORS = {"descriptor-path", "descriptor-inline", "descriptor-no-mode"}
# a descriptor whose circuit file is missing, not JSON, or not a JSON object
INNER = {"inner-missing": None, "inner-not-json": "{oops", "inner-list": "[1]"}
# exit code of each command on each kind of file; every kind not listed exits 2
EXIT_CODES = {
    "build-brouwer": {"circuit": 0},
    "build-gda": dict.fromkeys(DESCRIPTORS, 0),
    "verify": {"circuit": 0, **dict.fromkeys(DESCRIPTORS, 0)},
    "grad-check": {"circuit": 0, **dict.fromkeys(DESCRIPTORS, 0)},
    "solve": dict.fromkeys(DESCRIPTORS, 0),
}


class TestInstanceFiles:
    """Every command reads its instance file by one rule: a JSON object with
    a "circuit" key is a min-max descriptor, anything else is a circuit."""

    @staticmethod
    def _write(tmp_path: Path, kind: str) -> Path:
        pair = circuit_to_json(oracle_pair())
        (tmp_path / "pair.json").write_text(pair)
        params = {"delta": 0.05, "n": 2, "eps": 1e-4}
        contents = {
            "descriptor-path": {"circuit": "pair.json", "mode": "scaled", **params},
            "descriptor-inline": {"circuit": json.loads(pair), "mode": "scaled", **params},
            "descriptor-no-mode": {"circuit": "pair.json", **params},
            "list": [1],
            "mode-only": {"mode": "scaled"},
            # strict JSON has no NaN, even where nothing reads the value
            "nan-note": {**json.loads(pair), "oracle": {"kind": "truth_table", "data": [0, 1], "note": math.nan}},
            # paper-scale n never fits 64 bits; at these rho it overflows a
            # double, then delta**3 underflows to 0
            **{kind: {"circuit": "pair.json", "mode": "paper", "rho": rho} for kind, rho in PAPER.items()},
            **{inner: {"circuit": f"{inner}-circuit.json", **params} for inner in INNER},
        }
        if kind in INNER and INNER[kind] is not None:
            (tmp_path / f"{kind}-circuit.json").write_text(INNER[kind])
        if kind == "circuit":
            return tmp_path / "pair.json"
        path = tmp_path / f"{kind}.json"
        if kind == "not-json":
            path.write_text("{not json")
        elif kind != "missing":
            path.write_text(json.dumps(contents[kind]))
        return path

    @staticmethod
    def _argv(tmp_path: Path, command: str, path: Path, kind: str) -> list:
        # oracle_pair's exact fixed point is (1/2, 1/2), tiled for the descriptors
        points = tmp_path / "points.csv"
        points.write_text(",".join(["0.5"] * (16 if kind in DESCRIPTORS else 2)) + "\n")
        extra = {
            "verify": [str(points)],
            "grad-check": ["--points", "1"],
            "solve": ["--algo", "pgda", "--steps", "5", "--out", str(tmp_path / "reports")],
        }
        return [command, str(path)] + extra.get(command, [])

    @pytest.mark.parametrize("kind", FILE_KINDS)
    @pytest.mark.parametrize("command", sorted(EXIT_CODES))
    def test_exit_code(self, tmp_path, capsys, command, kind):
        path = self._write(tmp_path, kind)
        code = main(self._argv(tmp_path, command, path, kind))
        assert code == EXIT_CODES[command].get(kind, 2)
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: ")
            assert "Traceback" not in captured.err
            if kind in INNER and command != "build-brouwer":
                inner = tmp_path / f"{kind}-circuit.json"
                assert captured.err.startswith(f"error: {path}: {inner}: ")
                assert captured.err.count(str(inner)) == 1
        else:
            assert json.loads(captured.out)

    @pytest.mark.parametrize("kind", sorted(PAPER))
    def test_paper_mode_reports_infeasible(self, tmp_path, capsys, kind):
        path = self._write(tmp_path, kind)
        assert main(["build-gda", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: paper-scale parameters are numerically infeasible (log2 n = ")

    @pytest.mark.parametrize("command", ["build-gda", "verify", "grad-check", "solve"])
    def test_descriptor_without_mode_is_scaled(self, tmp_path, capsys, command):
        outputs = []
        for kind in ("descriptor-path", "descriptor-no-mode"):
            path = self._write(tmp_path, kind)
            assert main(self._argv(tmp_path, command, path, kind)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_closed_stdout_keeps_the_exit_code(circ_file, tmp_path):
    # a reader that stops early, as `| head` does, is no usage error: the
    # point fails verification, so the exit code stays 1, with no error line
    z = tmp_path / "z.csv"
    z.write_text("0.5,0.5,0.5,0.5\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = _python("-m", "minmaxlab.cli", "verify", str(circ_file), str(z), stdout=write_end)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


def test_import_leaves_networkx_unloaded():
    # networkx is a test-only reference for the feedback cut, never a
    # runtime import
    out = _python("-c", "import sys, minmaxlab, minmaxlab.cli; print('networkx' in sys.modules)")
    assert out.returncode == 0 and out.stdout.strip() == "False"


NUMPY_MA_PROBE = """
import sys
import numpy as np
from minmaxlab.boolinterp import BoolOracle, interp_grad
from minmaxlab.brouwer import build_brouwer, find_fixed_point
from minmaxlab.circuit import build_constant_gadget
from minmaxlab.gda import build_gda_instance, derive_parameters, eval_f, eval_grad_f
from minmaxlab.sperner import brouwer_to_labeling, find_sperner_solution_exhaustive, get_test_map

circuit = build_constant_gadget().instance
inst = build_gda_instance(circuit, derive_parameters(12, mode="scaled", delta=0.05, n=4, eps=1e-4))
x = np.full(inst.dim, 0.5)
y = x.copy()
t = ((3 * inst.m + 0.5) / (inst.n * inst.m)) ** 0.5  # block v5 mid-transition
inst.blocks(x)[4] -= t / 2
inst.blocks(y)[4] += t / 2
eval_f(inst, x, y)
eval_grad_f(inst, x, y)
find_fixed_point(build_brouwer(circuit))
fmap = get_test_map("smoothed_rotation")
assert find_sperner_solution_exhaustive(brouwer_to_labeling(fmap.fn, fmap.d, 0.3)) is not None
interp_grad([0.1, 0.9], BoolOracle.from_truth_table([0, 1, 1, 0]))
print("numpy.ma" in sys.modules)
"""


def test_hot_paths_leave_numpy_ma_unloaded():
    # numpy imports numpy.ma lazily (np.union1d does, for one), and loading
    # it adds over 1 MB of resident memory to every run that touches it
    out = _python("-c", NUMPY_MA_PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_readme_commands_parse():
    # a flag removed or renamed in the parser but still documented fails here
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("minmaxlab ")]
    assert len(commands) >= 5
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
