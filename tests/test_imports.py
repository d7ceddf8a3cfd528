"""No module of the package imports a name it never uses."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

from minmaxlab.brouwer import build_brouwer
from minmaxlab.circuit import NOR, ORACLE, PURIFY

from circuits import nor_loop, oracle_purify

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
