"""Command-line interface.

Subcommands:
  build-brouwer <circuit>          validate a circuit and report its map
  build-gda <descriptor>           build a min-max instance and report it
  verify <instance> <point-file>   check a candidate solution
  grad-check <instance>            finite-difference gradient audit
  solve <descriptor>               run pgda / extragradient
  query-report <run-dir>           aggregate ledger totals from reports

An instance file is read once, and one rule decides its kind: a JSON
object with a "circuit" key is a min-max descriptor, anything else is a
circuit.  verify and grad-check take either kind, build-brouwer only a
circuit, build-gda and solve only a descriptor; the wrong kind exits 2.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
solve writes its report to --out, else $MINMAXLAB_REPORT_DIR, else ./reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import brouwer, gda, harness
from .circuit import (
    _json_list,
    _json_loads,
    _json_number,
    _json_object,
    _naming,
    check_assignment,
    circuit_from_payload,
    circuit_to_json,
    validate_instance,
)
from .config import DEFAULTS, check_nonnegative, check_unit_cube, whole_number


def _dumps(payload) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError (exit 2)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _write(path, text: str) -> None:
    """Write ``text`` to the file at ``path``; errors start with the path."""
    with _naming(path):
        Path(path).write_text(text)


def _finite_or_none(value: float) -> Optional[float]:
    """A float for strict JSON: None (null) where it is NaN or infinite."""
    return value if math.isfinite(value) else None


def _load_points(path: Path, expected: int) -> np.ndarray:
    """The point file's values, each checked to lie in [0, 1]; errors start with the path."""
    with _naming(path):
        if path.suffix.lower() == ".csv":
            # a missing file raises an OSError that has a strerror; an empty
            # one is left to the count check below, without numpy's warning
            with path.open() as fh, warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                vec = np.loadtxt(fh, delimiter=",", dtype=float).reshape(-1)
        else:
            # frombuffer rejects a size that is not a whole number of float64 values
            vec = np.frombuffer(path.read_bytes(), dtype="<f8")
        if vec.size != expected:
            raise ValueError(f"expected {expected} values, found {vec.size}")
        check_unit_cube(vec.tolist())
    return vec


def _load_instance(path: str, only: Optional[str] = None):
    """The instance in the file at ``path``: a gda.GdaInstance for a min-max
    descriptor {"circuit": <a circuit file's path relative to the descriptor's
    directory, or an inline circuit object>, "mode": "scaled" (the default) or
    "paper", "delta": .., "n": .., "eps": .., "rho": ..}, else a CircuitInstance.
    A given delta, eps or rho must be a JSON number, and true or false is not one.
    A kind other than ``only`` ("circuit" or "descriptor") is rejected before
    anything is built.  Errors start with the path; one in a named circuit file
    then names that file."""
    path = Path(path)
    with _naming(path):
        payload = _json_loads(path.read_text())
        kind = "descriptor" if isinstance(payload, dict) and "circuit" in payload else "circuit"
        if only not in (None, kind):
            raise ValueError(f'a {kind}, not a {only}: a JSON object with a "circuit" key is a descriptor')
        if kind == "circuit":
            return circuit_from_payload(payload)
        ref = payload["circuit"]
        if isinstance(ref, str):
            with _naming(path.parent / ref):
                circuit = circuit_from_payload(_json_loads((path.parent / ref).read_text()))
        else:
            circuit = circuit_from_payload(ref)
        numbers = {key: _json_number(value, f"a descriptor's {key!r}")
                   for key, value in payload.items() if key in ("delta", "eps", "rho")}
        mode = payload.get("mode", "scaled")
        params = gda.derive_parameters(m=len(circuit.nodes), mode=mode, n=payload.get("n"), **numbers)
        return gda.build_gda_instance(circuit, params)


# Each command returns (exit code, payload); main prints the payload once the
# command has returned, so a command that raises leaves stdout empty.

def _cmd_build_brouwer(args) -> Tuple[int, dict]:
    circuit = _load_instance(args.circuit, "circuit")
    violations = validate_instance(circuit)
    if violations:
        return 1, {"valid": False, "violations": violations}
    kinds = {}
    for gate in circuit.gates:
        kinds[gate.kind] = kinds.get(gate.kind, 0) + 1
    if args.out:
        _write(args.out, circuit_to_json(circuit))
    # a valid circuit's map has one coordinate per node
    return 0, {"valid": True, "dim": len(circuit.nodes), "nodes": len(circuit.nodes), "gates": kinds}


def _cmd_build_gda(args) -> Tuple[int, dict]:
    inst = _load_instance(args.descriptor, "descriptor")
    summary = {
        "dim_per_player": inst.dim,
        "nodes": inst.m,
        "replicas": inst.n,
        "params": inst.params.as_dict(),
    }
    if args.out:
        _write(args.out, _dumps(summary) + "\n")
    return 0, summary


def _cmd_verify(args) -> Tuple[int, dict]:
    inst = _load_instance(args.instance)
    point_path = Path(args.points)
    if isinstance(inst, gda.GdaInstance):
        vec = _load_points(point_path, 2 * inst.dim)
        result = gda.dichotomy_extract(inst, vec[: inst.dim], vec[inst.dim:])
        ok, assignment, violations = result.gap_ok, result.assignment, result.violations
        ledger = inst.ledger
        payload = {
            "gap": result.gap,
            "gap_ok": result.gap_ok,
            "eps": inst.params.eps,
            "mode": inst.params.mode,
        }
        if result.warning:
            payload["warning"] = result.warning
        if result.witness is not None:
            payload["witness"] = {
                "node": result.witness.node,
                "replica": result.witness.replica,
                "residual": result.witness.residual,
            }
    else:
        bmap = brouwer.build_brouwer(inst)
        z = _load_points(point_path, bmap.dim)
        res = brouwer.residual(bmap, z)
        ok = res <= DEFAULTS.brouwer_eps
        assignment = brouwer.decode_brouwer(bmap, z)
        violations = check_assignment(inst, assignment)
        ledger = bmap.ledger
        payload = {
            "residual": res,
            "ok": ok,
            "eps": DEFAULTS.brouwer_eps,
        }
    if assignment is not None:  # None only beside a witness
        payload["assignment"] = {k: ("bot" if v is None else v) for k, v in assignment.values.items()}
        payload["violations"] = [g.label() for g in violations]
    payload["ledger"] = ledger.snapshot()
    return (0 if ok else 1), payload


def _cmd_grad_check(args) -> Tuple[int, dict]:
    h = args.h
    harness.check_fd_step(h, "--h")
    whole_number(args.points, "--points", 1)
    check_nonnegative(args.tol, "--tol")
    # random.Random would take a negative seed as its absolute value
    whole_number(args.seed, "--seed")
    rng = random.Random(args.seed)
    inst = _load_instance(args.instance)
    if isinstance(inst, gda.GdaInstance):
        dim = 2 * inst.dim

        def value_fn(vec: np.ndarray) -> float:
            return gda.eval_f(inst, vec[: inst.dim], vec[inst.dim:])

        def grad_fn(vec: np.ndarray) -> np.ndarray:
            gx, gy = gda.eval_grad_f(inst, vec[: inst.dim], vec[inst.dim:])
            return np.concatenate([gx, gy])
    else:
        bmap = brouwer.build_brouwer(inst)
        dim = bmap.dim
        value_fn, grad_fn = partial(brouwer.eval_F, bmap), partial(brouwer.eval_JF, bmap)

    points = [h + (1 - 2 * h) * np.array([rng.random() for _ in range(dim)]) for _ in range(args.points)]
    rep = harness.fd_check(value_fn, grad_fn, points, h)
    ok = bool(rep.max_rel_err <= args.tol)
    payload = {
        "max_rel_err": _finite_or_none(float(rep.max_rel_err)),
        "checked": rep.checked,
        "h": h,
        "tol": args.tol,
        "ok": ok,
    }
    return (0 if ok else 1), payload


def _cmd_solve(args) -> Tuple[int, dict]:
    whole_number(args.steps, "--steps", 1)
    whole_number(args.gap_every, "--gap-every", 1)
    if args.lr is not None:
        check_nonnegative(args.lr, "--lr")
    whole_number(args.seed, "--seed")
    inst = _load_instance(args.instance, "descriptor")
    runner = harness.run_pgda if args.algo == "pgda" else harness.run_extragradient
    run = runner(harness.GdaObjective(inst), steps=args.steps, lr=args.lr, seed=args.seed, gap_every=args.gap_every)
    extra = {}
    if not run.aborted:
        outcome = gda.dichotomy_extract(inst, *run.best_point)
        extra["dichotomy"] = {
            "gap": outcome.gap,
            "gap_ok": outcome.gap_ok,
            "branch": "witness" if outcome.witness is not None else "assignment",
            "violations": [g.label() for g in outcome.violations or []],
        }
    out = Path(args.out or os.environ.get("MINMAXLAB_REPORT_DIR") or "reports")
    with _naming(out):
        out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "gap_curves.csv", out / "report.json"
    rows = "".join(f"0,{run.algorithm},{t},{gap!r}\n" for t, gap in run.gap_curve)
    report = {
        "runs": [{
            "algorithm": run.algorithm,
            "step_size": run.step_size,
            "iterations": run.iterations,
            "seed": run.seed,
            "mode": run.mode,
            "best_gap": _finite_or_none(run.best_gap),
            "aborted": run.aborted,
            "diagnostic": run.diagnostic,
            "ledger": run.ledger_snapshot,
        }],
        "ledgers": {"instance": inst.ledger.snapshot()},
        "extra": extra,
    }
    report_text = _dumps(report) + "\n"  # before either write: a report that cannot be made writes nothing
    _write(csv_path, "run,algorithm,iteration,gap\n" + rows)
    try:
        _write(json_path, report_text)
    except ValueError:  # no curves without their report
        csv_path.unlink()
        raise
    payload = {
        "algorithm": run.algorithm,
        "best_gap": _finite_or_none(run.best_gap),
        "aborted": run.aborted,
        "reports": [str(csv_path), str(json_path)],
    }
    return (1 if run.aborted else 0), payload


def _cmd_query_report(args) -> Tuple[int, dict]:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ValueError(f"{run_dir} is not a directory")
    totals: dict = {}
    reports = sorted(run_dir.rglob("report.json"))
    for rep_path in reports:
        # a report's run ledgers and instance ledgers are snapshots of one
        # ledger: its count is their max; counts then add across reports
        with _naming(rep_path):
            payload = _json_object(_json_loads(rep_path.read_text()), "a report")
            runs = _json_list(payload.get("runs", []), "'runs'")
            snapshots = [_json_object(run, "a run").get("ledger", {}) for run in runs]
            snapshots += _json_object(payload.get("ledgers", {}), "'ledgers'").values()
            peak: dict = {}
            for ledger in snapshots:
                for key, value in _json_object(ledger, "a ledger").items():
                    peak[key] = max(peak.get(key, 0), whole_number(value, f"ledger count {key!r}"))
        for key, value in peak.items():
            totals[key] = totals.get(key, 0) + value
    return 0, {"reports": len(reports), "ledger_totals": totals}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minmaxlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-brouwer", help="validate a circuit and report its map")
    p.add_argument("circuit")
    p.add_argument("--out", default=None, help="write canonical circuit JSON here")
    p.set_defaults(func=_cmd_build_brouwer)

    p = sub.add_parser("build-gda", help="build a min-max instance from a descriptor")
    p.add_argument("descriptor")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_gda)

    p = sub.add_parser("verify", help="verify a candidate point")
    p.add_argument("instance")
    p.add_argument("points")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("grad-check", help="finite-difference derivative audit")
    p.add_argument("instance")
    p.add_argument("--h", type=float, default=DEFAULTS.grad_fd_step)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULTS.grad_fd_rel_tol)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("solve", help="run a solver on an instance")
    p.add_argument("instance")
    p.add_argument("--algo", choices=("pgda", "extragradient"), required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap-every", type=int, default=100)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("query-report", help="aggregate ledger totals from run reports")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_query_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.func(args)
        text = _dumps(payload)
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # a reader that closed stdout early leaves the result as it is; as the
            # signal module's docs advise, devnull takes the flush at shutdown
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
