"""Isolated per-call timings of single layers, and CLI start-up timings.

The per-call rows are the baseline table of ROADMAP.md, on the same
instances: the smooth step, interpolation at arity 8, a ledger record,
the 12-node constant gadget's map and Jacobian, and its scaled objective
and gradient at n = 4 and n = 16. They run with no wrapper installed,
on inputs drawn from a fixed seed, so they compare across runs, and are
corrected for the host's speed by ``Clock.run`` like every pass time.
The CLI timings are wall times of fresh interpreters, uncorrected.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from minmaxlab import boolinterp, brouwer, circuit, gda, smoothstep
from minmaxlab.boolinterp import BoolOracle
from minmaxlab.ledger import QueryLedger

from hostspeed import Clock


def _us_per_call(clock: Clock, fn, inputs, rounds: int) -> float:
    """Median over rounds of the corrected mean time of one call, in microseconds."""

    def loop():
        for args in inputs:
            fn(*args)

    times = []
    for _ in range(rounds):
        _, elapsed, slowdown = clock.run(loop)
        times.append(elapsed / len(inputs) / slowdown)
    return statistics.median(times) * 1e6


def layer_timings(clock: Clock, rounds: int) -> dict:
    rng = np.random.default_rng(20260517)
    out = {}
    timed = partial(_us_per_call, clock, rounds=rounds)
    steps = [(float(x),) for x in np.linspace(0.0, 1.0, 2000)]
    out["smoothstep.step_eval_us"] = timed(partial(smoothstep.step_eval, smoothstep.G.spec), steps)
    out["smoothstep.G_us"] = timed(smoothstep.G, steps)

    oracle = BoolOracle.from_truth_table(rng.integers(0, 2, 2**8).tolist())
    near = []  # within the 1/3 box of a random vertex, so a vertex is active
    for _ in range(500):
        vertex = rng.integers(0, 2, 8)
        offsets = rng.random(8) * 0.3
        near.append(([float(o if y == 0 else 1.0 - o) for y, o in zip(vertex, offsets)], oracle))
    out["boolinterp.eval_us"] = timed(boolinterp.interp_eval, near)
    out["boolinterp.grad_us"] = timed(boolinterp.interp_grad, near)

    ledger = QueryLedger()
    out["ledger.record_us"] = timed(ledger.record, [("L",)] * 5000)

    bmap = brouwer.build_brouwer(circuit.build_constant_gadget().instance)
    zs = [(bmap, z) for z in rng.random((300, bmap.dim))]
    out["brouwer.F_us"] = timed(brouwer.eval_F, zs)
    out["brouwer.JF_us"] = timed(brouwer.eval_JF, zs)

    for n, calls in ((4, 24), (16, 8)):
        params = gda.derive_parameters(12, mode="scaled", delta=0.05, n=n, eps=1e-4)
        inst = gda.build_gda_instance(circuit.build_constant_gadget().instance, params)
        pairs = [(inst, rng.random(inst.dim), rng.random(inst.dim)) for _ in range(calls)]
        out[f"gda.f_us_n{n}"] = timed(gda.eval_f, pairs)
        out[f"gda.grad_us_n{n}"] = timed(gda.eval_grad_f, pairs)
    return out


def _run(cmd, env) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)


def _dep_import_s(stderr: str) -> float:
    """Cumulative import time of numpy plus networkx from -X importtime output."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if fields[-1].strip() in ("numpy", "networkx"):
            total_us += int(fields[1])
    return total_us / 1e6


def cli_timings(src: Path, repeats: int) -> dict:
    """Median import and start-up times of fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import time; t = time.perf_counter(); import minmaxlab; print(time.perf_counter() - t)"
    imports, deps, startups = [], [], []
    for _ in range(repeats):
        imports.append(float(_run([sys.executable, "-c", probe], env).stdout))
        deps.append(_dep_import_s(_run([sys.executable, "-X", "importtime", "-c", "import minmaxlab"], env).stderr))
        t0 = perf_counter()
        _run([sys.executable, "-m", "minmaxlab.cli", "--help"], env)
        startups.append(perf_counter() - t0)
    return {
        "cli.import_s": statistics.median(imports),
        "cli.dep_import_s": statistics.median(deps),
        "cli.startup_s": statistics.median(startups),
    }
