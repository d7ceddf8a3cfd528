"""Command-line interface.

Subcommands:
  build-brouwer <circuit>          validate a circuit and report its map
  build-gda <descriptor>           build a min-max instance and report it
  verify <instance> <point-file>   check a candidate solution
  grad-check <instance>            finite-difference gradient audit
  solve <descriptor>               run pgda / extragradient / grid search
  query-report <run-dir>           aggregate ledger totals from reports

An instance file is read once, and one rule decides its kind: a JSON
object with a "circuit" key is a min-max descriptor, anything else is a
circuit.  verify and grad-check take either kind, build-brouwer only a
circuit, build-gda and solve only a descriptor; the wrong kind exits 2.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
The report directory can be overridden with $MINMAXLAB_REPORT_DIR.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import brouwer, gda, harness
from .circuit import _json_list, _json_object, check_assignment, circuit_from_payload, circuit_to_json, validate_instance
from .config import DEFAULTS, whole_number


def _dumps(payload) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError (exit 2)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _load_points(path: Path, expected: int) -> np.ndarray:
    if path.suffix.lower() == ".csv":
        vec = np.loadtxt(path, delimiter=",", dtype=float).reshape(-1)
    else:
        vec = np.fromfile(path, dtype="<f8")
    if vec.size != expected:
        raise ValueError(f"{path}: expected {expected} values, found {vec.size}")
    return vec


def _load_instance(path: str, only: Optional[str] = None):
    """The instance in the file at ``path``: a gda.GdaInstance for a min-max
    descriptor, else a CircuitInstance.  A kind other than ``only`` ("circuit"
    or "descriptor") is rejected before anything is built.  Errors start with the path."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        kind = "descriptor" if isinstance(payload, dict) and "circuit" in payload else "circuit"
        if only not in (None, kind):
            raise ValueError(f'a {kind}, not a {only}: a JSON object with a "circuit" key is a descriptor')
        if kind == "circuit":
            return circuit_from_payload(payload)
        return gda.gda_from_descriptor(payload, path.parent)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (ValueError, OSError) as exc:  # a JSONDecodeError too
        raise ValueError(f"{path}: {exc}") from None


def _cmd_build_brouwer(args) -> int:
    circuit = _load_instance(args.circuit, "circuit")
    violations = validate_instance(circuit)
    if violations:
        print(_dumps({"valid": False, "violations": violations}))
        return 1
    bmap = brouwer.build_brouwer(circuit)
    kinds = {}
    for gate in circuit.gates:
        kinds[gate.kind] = kinds.get(gate.kind, 0) + 1
    summary = {"valid": True, "dim": bmap.dim, "nodes": len(circuit.nodes), "gates": kinds}
    print(_dumps(summary))
    if args.out:
        Path(args.out).write_text(circuit_to_json(circuit))
    return 0


def _cmd_build_gda(args) -> int:
    inst = _load_instance(args.descriptor, "descriptor")
    summary = {
        "dim_per_player": inst.dim,
        "nodes": inst.m,
        "replicas": inst.n,
        "params": inst.params.as_dict(),
    }
    print(_dumps(summary))
    if args.out:
        Path(args.out).write_text(_dumps(summary) + "\n")
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    point_path = Path(args.points)
    if isinstance(inst, gda.GdaInstance):
        vec = _load_points(point_path, 2 * inst.dim)
        x, y = vec[: inst.dim], vec[inst.dim:]
        result = gda.dichotomy_extract(inst, x, y)
        payload = {
            "gap": result.gap,
            "gap_ok": result.gap_ok,
            "eps": inst.params.eps,
            "mode": inst.params.mode,
            "ledger": inst.ledger.snapshot(),
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
            payload["assignment"] = {
                k: ("bot" if v is None else v) for k, v in result.assignment.values.items()
            }
            payload["violations"] = [g.label() for g in result.violations]
        print(_dumps(payload))
        return 0 if result.gap_ok else 1
    bmap = brouwer.build_brouwer(inst)
    z = _load_points(point_path, bmap.dim)
    res = brouwer.residual(bmap, z)
    ok = res <= DEFAULTS.brouwer_eps
    assignment = brouwer.decode_brouwer(bmap, z)
    violations = check_assignment(inst, assignment)
    payload = {
        "residual": res,
        "ok": ok,
        "eps": DEFAULTS.brouwer_eps,
        "assignment": {k: ("bot" if v is None else v) for k, v in assignment.values.items()},
        "violations": [g.label() for g in violations],
        "ledger": bmap.ledger.snapshot(),
    }
    print(_dumps(payload))
    return 0 if ok else 1


def _cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    h = args.h
    harness.check_fd_step(h)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
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

        def value_fn(z: np.ndarray) -> np.ndarray:
            return brouwer.eval_F(bmap, z)

        def grad_fn(z: np.ndarray) -> np.ndarray:
            return brouwer.eval_JF(bmap, z)

    points = [h + (1 - 2 * h) * rng.random(dim) for _ in range(args.points)]
    rep = harness.fd_check(value_fn, grad_fn, points, h)
    ok = bool(rep.max_rel_err <= args.tol)
    payload = {
        "max_rel_err": harness.finite_or_none(float(rep.max_rel_err)),
        "checked": rep.checked,
        "h": h,
        "tol": args.tol,
        "ok": ok,
    }
    print(_dumps(payload))
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance, "descriptor")
    obj = harness.GdaObjective(inst)
    if args.algo == "grid":
        x, y, gap = harness.grid_search_stationary(obj, args.resolution)
        payload = {
            "algorithm": "grid",
            "gap": gap,
            "ledger": inst.ledger.snapshot(),
            "mode": inst.params.mode,
        }
        print(_dumps(payload))
        return 0
    runner = harness.run_pgda if args.algo == "pgda" else harness.run_extragradient
    run = runner(obj, steps=args.steps, lr=args.lr, seed=args.seed, gap_every=args.gap_every)
    extra = {}
    if not run.aborted:
        outcome = gda.dichotomy_extract(inst, *run.best_point)
        extra["dichotomy"] = {
            "gap": outcome.gap,
            "gap_ok": outcome.gap_ok,
            "branch": "witness" if outcome.witness is not None else "assignment",
            "violations": [g.label() for g in outcome.violations or []],
        }
    paths = harness.write_report([run], {"instance": inst.ledger.snapshot()}, args.out, extra=extra)
    payload = {
        "algorithm": run.algorithm,
        "best_gap": harness.finite_or_none(run.best_gap),
        "aborted": run.aborted,
        "reports": [str(p) for p in paths],
    }
    print(_dumps(payload))
    return 1 if run.aborted else 0


def _cmd_query_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ValueError(f"{run_dir} is not a directory")
    totals: dict = {}
    reports = sorted(run_dir.rglob("report.json"))
    for rep_path in reports:
        # a report's run ledgers and instance ledgers are snapshots of one
        # ledger: its count is their max; counts then add across reports
        try:
            payload = _json_object(json.loads(rep_path.read_text()), "a report")
            runs = _json_list(payload.get("runs", []), "'runs'")
            snapshots = [_json_object(run, "a run").get("ledger", {}) for run in runs]
            snapshots += _json_object(payload.get("ledgers", {}), "'ledgers'").values()
            peak: dict = {}
            for ledger in snapshots:
                for key, value in _json_object(ledger, "a ledger").items():
                    peak[key] = max(peak.get(key, 0), whole_number(value, f"ledger count {key!r}"))
        except ValueError as exc:  # a JSONDecodeError too
            raise ValueError(f"{rep_path}: {exc}") from None
        for key, value in peak.items():
            totals[key] = totals.get(key, 0) + value
    payload = {"reports": len(reports), "ledger_totals": totals}
    print(_dumps(payload))
    return 0


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
    p.add_argument("--algo", choices=("pgda", "extragradient", "grid"), required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap-every", type=int, default=100)
    p.add_argument("--resolution", type=int, default=2, help="grid points per coordinate (default 2: a grid has resolution"
                   f"^coordinates points, at most {DEFAULTS.grid_search_budget:,}, and the smallest instance has 16 coordinates)")
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
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
