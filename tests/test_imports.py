"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minmaxlab"
# names the kernels compiled by build_brouwer read from the module's globals
READ_BY_GENERATED_CODE = {"brouwer.py": {"interp_eval", "interp_grad"}}


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
