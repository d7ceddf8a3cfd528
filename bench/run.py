#!/usr/bin/env python3
"""Layered benchmark of minmaxlab.

    python3 bench/run.py --workload solve-gadget --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop (one client, one process, one thread)
for about --seconds, repeating a pass on inputs made from --seed, and
checks every output. Times are corrected for the host's speed (see
bench/hostspeed.py); the raw times are printed beside them.
With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object
with the metrics BENCHMARK.json names; the lines before it print every
metric with its unit and a provenance stamp. Full results and the spans
go to bench/out/. The exit code is 1 when any check failed, and nonzero
without a result when the program's source is missing.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter, sleep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# (name, unit) of every metric the run prints, by mode; BENCHMARK.json
# lists the subset each workload emits with a nonzero value.
END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "oracle_queries": "count",
    "map_evals": "count", "fail_ratio": "ratio",
    "setup_wall_s": "s", "run_wall_s": "s", "host_slowdown": "ratio",
}
WORKLOAD_E2E = {
    "solve-gadget": {"iter_ms_p50": "ms", "iter_ms_p99": "ms", "verify_s": "s"},
    "audit-oracle": {"fd_audit_s": "s", "certify_s": "s"},
    "fixed-point": {"fixed_point_s": "s", "sperner_s": "s"},
}
PER_LAYER = {
    "smoothstep.calls": "count", "smoothstep.step_eval_us": "us", "smoothstep.G_us": "us",
    "boolinterp.calls": "count", "boolinterp.self_s": "s", "boolinterp.eval_us": "us",
    "boolinterp.grad_us": "us", "boolinterp.queries_per_call": "ratio", "boolinterp.active_ratio": "ratio",
    "circuit.oracle_queries": "count", "circuit.query_self_s": "s", "circuit.check_s": "s",
    "ledger.records": "count", "ledger.record_us": "us",
    "sperner.labels": "count", "sperner.self_s": "s", "sperner.search_s": "s",
    "sperner.labels_per_solution": "count",
    "brouwer.F_calls": "count", "brouwer.JF_calls": "count", "brouwer.F_us": "us", "brouwer.JF_us": "us",
    "brouwer.self_s": "s", "brouwer.fp_attempts": "count", "brouwer.fp_wasted_ratio": "ratio",
    "brouwer.cut_s": "s",
    "gda.grad_calls": "count", "gda.grad_self_s": "s", "gda.F_per_grad": "ratio", "gda.JF_per_grad": "ratio",
    "gda.transition_iters": "count", "gda.f_calls": "count", "gda.f_self_s": "s", "gda.F_per_f": "ratio",
    "gda.f_us_n4": "us", "gda.grad_us_n4": "us", "gda.f_us_n16": "us", "gda.grad_us_n16": "us",
    "harness.loop_self_s": "s", "harness.fd_self_s": "s",
    "cli.import_s": "s", "cli.dep_import_s": "s", "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}
# wrapper call counts that must equal the ledger deltas of the same pass
WRAPPER_LEDGER = [
    ("brouwer.eval_F", "F_evals"), ("brouwer.eval_JF", "JF_evals"), ("gda.eval_f", "f_evals"),
    ("gda.eval_grad_f", "grad_f_evals"), ("circuit.BoolOracle.query", "L"),
    ("sperner.SpernerInstance.query", "lambda"),
]


def import_program():
    """Import minmaxlab from this checkout's src/, never from elsewhere.

    The test suite's circuits (tests/circuits.py) become importable too:
    the workloads run on the same instances.
    """
    package = SRC / "minmaxlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: {package} not found; run from the root of a minmaxlab checkout")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import minmaxlab

    if Path(minmaxlab.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported minmaxlab from {minmaxlab.__file__}, not from {package}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("solve-gadget", "audit-oracle", "fixed-point"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for bench/selftest.py")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build(args, workdir: Path, clock):
    """The workload's program instances, then the benchmark's own inputs."""
    wl = instances(args, workdir, clock)
    wl.make_inputs()
    return wl


def instances(args, workdir: Path, clock):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], workdir, clock)


def setup_probe(args) -> None:
    """Child mode: time import minmaxlab plus building the program's instances.

    The benchmark's own inputs (`Workload.make_inputs`) are made after
    the timer stops.
    """
    t0 = perf_counter()
    import_program()
    from hostspeed import Clock

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        instances(args, Path(tmp), Clock())
        print(repr(perf_counter() - t0))


def run_probe(cmd, clock) -> float:
    """Set-up seconds one probe reports; the clock ticks while it runs."""
    deadline = perf_counter() + 120
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        while proc.poll() is None:
            if perf_counter() > deadline:
                proc.kill()
            clock.tick()
            sleep(0.005)
        out = proc.stdout.read()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out)
    return float(out)


def setup_seconds(args, probes: int, clock) -> tuple:
    """Median set-up time over fresh interpreters, corrected and raw.

    Each probe is divided by the slowdown the clock saw while it ran.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size]
    walls, corrected = [], []
    for _ in range(probes):
        wall, _, slowdown = clock.run(partial(run_probe, cmd, clock))
        walls.append(wall)
        corrected.append(wall / slowdown)
    return statistics.median(corrected), statistics.median(walls)


# ---------------------------------------------------------------------------
# the pass loop
# ---------------------------------------------------------------------------

def ledger_sum(delta: dict, key: str) -> int:
    return sum(v for k, v in delta.items() if k.rsplit("/", 1)[-1] == key)


def run_passes(wl, gate, seconds: float, tracer=None) -> list:
    """Repeat passes until the next one would end after `seconds`.

    With a tracer, passes alternate untraced / traced. Every pass must
    charge the ledgers exactly what the first pass charged. Each pass's
    times are divided by the host slowdown the clock saw during it.
    """
    min_passes = 4 if tracer else 3
    clock = wl.clock
    passes = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        before = wl.snapshot()
        if traced:
            tracer.begin_pass(len(passes))
        try:
            phases, wall, slowdown = clock.run(partial(wl.run_pass, gate))
        except Exception as exc:  # the program failed: count it, report, stop
            gate.check(False, f"pass {len(passes)} raised {exc!r}")
            break
        finally:
            if traced:
                tracer.end_pass()
        for key, value in phases.items():
            if key.endswith("_s"):
                phases[key] = value / slowdown
        if "latencies" in phases:  # each iteration by the host speed around it
            phases["latencies"] = [lat / clock.slowdown_at(t) for t, lat in phases["latencies"]]
        after = wl.snapshot()
        delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
        delta.update(phases.pop("ledger", {}))
        if passes:
            gate.check(delta == passes[0]["delta"], f"pass {len(passes)} ledger delta {delta} != pass 0 {passes[0]['delta']}")
        passes.append({
            "number": len(passes), "traced": traced, "seconds": wall / slowdown,
            "wall_s": wall, "slowdown": slowdown, "phases": phases, "delta": delta,
        })
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and perf_counter() - t_start + longest > seconds:
            break
    return passes


def end_to_end_metrics(args, passes, gate, setup: tuple) -> dict:
    m = {
        "setup_s": setup[0],
        "setup_wall_s": setup[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(gate.failures) / max(gate.attempted, 1),
    }
    if not passes:
        return m
    delta = passes[0]["delta"]
    m.update({
        "run_s": statistics.median(p["seconds"] for p in passes),
        "run_wall_s": statistics.median(p["wall_s"] for p in passes),
        "host_slowdown": statistics.median(p["slowdown"] for p in passes),
        "oracle_queries": ledger_sum(delta, "L") + ledger_sum(delta, "lambda"),
        "map_evals": ledger_sum(delta, "F_evals") + ledger_sum(delta, "JF_evals"),
    })
    for name in WORKLOAD_E2E[args.workload]:
        if name.startswith("iter_ms_"):
            lat = [x for p in passes for x in p["phases"]["latencies"]]
            cuts = statistics.quantiles(lat, n=100, method="inclusive")
            m[name] = 1e3 * cuts[int(name[-2:]) - 1]
        else:
            m[name] = statistics.median(p["phases"][name] for p in passes)
    return m


def ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(view, phases: dict) -> dict:
    from spans import INTERP

    counts = view.counts
    interp = view.calls(*INTERP)
    grads = view.calls("gda.eval_grad_f")
    fs = view.calls("gda.eval_f")
    labels = view.calls("sperner.SpernerInstance.query")
    attempts, wasted, fp_evals = view.fp_attempts()
    return {
        "smoothstep.calls": sum(v for k, v in counts.items() if k.startswith("smoothstep.")),
        "boolinterp.calls": interp,
        "boolinterp.self_s": view.layer_self("boolinterp"),
        "boolinterp.queries_per_call": ratio(view.calls_under("circuit.BoolOracle.query", INTERP), interp),
        "boolinterp.active_ratio": ratio(counts.get("boolinterp.active", 0), interp),
        "circuit.oracle_queries": view.calls("circuit.BoolOracle.query"),
        "circuit.query_self_s": view.self_s("circuit.BoolOracle.query"),
        "circuit.check_s": view.total("circuit.check_assignment"),
        "ledger.records": counts.get("ledger.QueryLedger.record", 0),
        "sperner.labels": labels,
        "sperner.self_s": view.layer_self("sperner"),
        "sperner.search_s": view.self_s("sperner.find_sperner_solution_exhaustive"),
        "sperner.labels_per_solution": ratio(labels, view.calls("sperner.find_sperner_solution_exhaustive")),
        "brouwer.F_calls": view.calls("brouwer.eval_F"),
        "brouwer.JF_calls": view.calls("brouwer.eval_JF"),
        "brouwer.self_s": view.layer_self("brouwer"),
        "brouwer.fp_attempts": attempts,
        "brouwer.fp_wasted_ratio": ratio(wasted, fp_evals),
        "brouwer.cut_s": view.total("brouwer.cycle_cut_solve"),
        "gda.grad_calls": grads,
        "gda.grad_self_s": view.self_s("gda.eval_grad_f"),
        "gda.F_per_grad": ratio(view.calls_under("brouwer.eval_F", ["gda.eval_grad_f"]), grads),
        "gda.JF_per_grad": ratio(view.calls_under("brouwer.eval_JF", ["gda.eval_grad_f"]), grads),
        "gda.transition_iters": phases.get("transition_iters", 0),
        "gda.f_calls": fs,
        "gda.f_self_s": view.self_s("gda.eval_f"),
        "gda.F_per_f": ratio(view.calls_under("brouwer.eval_F", ["gda.eval_f"]), fs),
        "harness.loop_self_s": view.self_s("harness.run_pgda"),
        "harness.fd_self_s": view.self_s("harness.fd_check"),
    }


def traced_run(args, wl, gate) -> tuple:
    import micro
    from spans import PassSpans, Tracer

    quick = args.size == "tiny"
    timings = micro.layer_timings(wl.clock, rounds=1 if quick else 5)
    timings.update(micro.cli_timings(SRC, repeats=1 if quick else 3))
    tracer = Tracer()
    passes = run_passes(wl, gate, args.seconds, tracer)
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        view = PassSpans(tracer, p["number"])
        for span, key in WRAPPER_LEDGER:
            gate.check(
                view.calls(span) == ledger_sum(p["delta"], key),
                f"pass {p['number']}: {view.calls(span)} {span} calls, ledger counted {ledger_sum(p['delta'], key)} {key}",
            )
        per_pass.append({
            name: value / p["slowdown"] if PER_LAYER[name] == "s" else value
            for name, value in layer_metrics(view, p["phases"]).items()
        })
    m = {name: statistics.median_low(pp[name] for pp in per_pass) for name in per_pass[0]} if per_pass else {}
    m.update(timings)
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    if traced and untraced:
        m["trace.overhead_ratio"] = statistics.median(p["seconds"] for p in traced) / statistics.median(untraced)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    return m, passes


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "minmaxlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import workloads
    from hostspeed import Clock

    size = workloads.SIZES[args.size]
    gate = workloads.Gate()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        units = PER_LAYER
        wanted = spec["per_layer"]
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = build(args, Path(tmp), Clock())
            metrics, passes = traced_run(args, wl, gate)
    else:
        units = {**END_TO_END, **WORKLOAD_E2E[args.workload]}
        wanted = spec["end_to_end"]
        clock = Clock()
        setup = setup_seconds(args, size.setup_probes, clock)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = build(args, Path(tmp), clock)
            passes = run_passes(wl, gate, args.seconds)
        metrics = end_to_end_metrics(args, passes, gate, setup)

    stamp = provenance(args)
    report = {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics}
    missing = sorted(set(units) - set(metrics))
    for name in missing:
        gate.check(False, f"metric {name} was not measured")
    result = {
        "provenance": stamp,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "failures": gate.failures[:50],
        "metrics": report,
        "passes": [{k: p[k] for k in ("number", "traced", "seconds", "wall_s", "slowdown")} for p in passes],
        "ledger_per_pass": passes[0]["delta"] if passes else {},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    print("provenance " + json.dumps(stamp, sort_keys=True))
    for name, entry in report.items():
        print(f"{name:32s} {entry['value']!r:>24} {entry['unit']}")
    for failure in gate.failures[:10]:
        print(f"FAILED: {failure}")
    final = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {m["name"]: report[m["name"]] for m in wanted if m["name"] in report},
    }
    print(json.dumps(final))
    return 0 if final["correct"] and len(final["metrics"]) == len(wanted) else 1


if __name__ == "__main__":
    sys.exit(main())
