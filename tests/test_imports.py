"""What the package imports: no module imports a name it never uses, only
cli takes a sibling's private names, gda reads no files, harness writes
none, and the seeded draws leave numpy.random unloaded."""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from minmaxlab.brouwer import build_brouwer
from minmaxlab.circuit import NOR, ORACLE, PURIFY, circuit_to_json

from circuits import nor_loop, oracle_purify, purify_loop, restart_ring

SRC = Path(__file__).resolve().parent.parent / "src" / "minmaxlab"


def generated_names():
    """The names in the kernels' source on maps that hold every gate kind:
    build_brouwer compiles them to run with brouwer's globals, so an import
    of brouwer that only the kernels read is used."""
    instances = (nor_loop(), oracle_purify())
    assert {gate.kind for inst in instances for gate in inst.gates} == {NOR, PURIFY, ORACLE}
    return {
        tok.string
        for inst in instances
        for tok in tokenize.generate_tokens(io.StringIO(build_brouwer(inst).source).readline)
        if tok.type == tokenize.NAME
    }


READ_BY_GENERATED_CODE = {"brouwer.py": generated_names()}


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


# __init__.py imports are the package's public names, used by its callers
@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(name):
    tree = ast.parse((SRC / name).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported_names(tree)) - used - READ_BY_GENERATED_CODE.get(name, set())
    assert not unused, f"{name} imports {sorted(unused)} without using them"


def imports_from(tree: ast.Module):
    """(module, name) for each name a `from ... import` of the tree takes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


# cli reads every input file with circuit's strict-JSON helpers; every
# other module takes only the public names of its siblings
@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py"))
def test_private_names_stay_in_their_module(name):
    tree = ast.parse((SRC / name).read_text())
    stems = {p.stem for p in SRC.glob("*.py")}
    siblings = stems | {f"minmaxlab.{stem}" for stem in stems}
    private = [(module, imported) for module, imported in imports_from(tree)
               if module in siblings and imported.startswith("_")]
    assert not private, f"{name} imports private names {private}"


def modules_imported(name: str) -> set:
    tree = ast.parse((SRC / name).read_text())
    modules = {module for module, _ in imports_from(tree)}
    return modules | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}


def test_gda_reads_no_files():
    assert "pathlib" not in modules_imported("gda.py")


# cli writes the solve report as it reads it back in query-report
def test_harness_writes_no_files():
    assert not modules_imported("harness.py") & {"csv", "json", "os", "pathlib"}


SEEDED_DRAWS = """
import sys
from minmaxlab import brouwer, cli
from minmaxlab.circuit import circuit_from_json

circuit, descriptor, ring, out = sys.argv[1:]
assert cli.main(["solve", descriptor, "--algo", "pgda", "--steps", "2", "--out", out]) in (0, 1)
assert cli.main(["grad-check", circuit]) in (0, 1)
assert cli.main(["grad-check", descriptor]) in (0, 1)
with open(ring) as f:
    bmap = brouwer.build_brouwer(circuit_from_json(f.read()))
assert brouwer.feedback_cut(bmap)[0] == [5, 6]
# past the centre attempt's 20000 steps: the restarts drew their starts
assert brouwer.cycle_cut_solve(bmap).iterations > 20000
print("numpy.random" in sys.modules)
"""


def test_seeded_draws_leave_numpy_random_unloaded(tmp_path):
    # solver starts, grad-check points and cut restarts draw from random.Random:
    # numpy.random would load its extension modules and OpenSSL into every run
    circuit, inner, descriptor = tmp_path / "circuit.json", tmp_path / "inner.json", tmp_path / "gda.json"
    ring = tmp_path / "ring.json"
    circuit.write_text(circuit_to_json(purify_loop()))
    ring.write_text(circuit_to_json(restart_ring()))
    inner.write_text(circuit_to_json(nor_loop()))
    descriptor.write_text(json.dumps({"circuit": inner.name, "mode": "scaled", "delta": 0.05, "n": 2, "eps": 1e-4}))
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    args = [sys.executable, "-c", SEEDED_DRAWS, str(circuit), str(descriptor), str(ring), str(tmp_path / "runs")]
    out = subprocess.run(args, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
