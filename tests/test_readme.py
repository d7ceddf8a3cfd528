"""README.md names only what exists: every backticked ``module.attr`` or
``Class.attr`` whose head is a module of the package or one of its
exports resolves.  The benchmark's per-layer metric names (such as
``brouwer.F_us``) look the same and are skipped."""

import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import minmaxlab

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _scope():
    """Each name a README reference may start with: the package's modules,
    its exports, and the classes its modules define."""
    scope = dict(vars(minmaxlab))
    for info in pkgutil.iter_modules(minmaxlab.__path__):
        module = importlib.import_module(f"minmaxlab.{info.name}")
        scope[info.name] = module
        scope.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__)
    return scope


def _resolves(obj, parts) -> bool:
    for depth, part in enumerate(parts, 1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return depth == len(parts)  # a field without a default has no class attribute to descend into
        else:
            return False
    return True


def _references():
    metrics = {entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = dict.fromkeys(DOTTED.findall((ROOT / "README.md").read_text()))
    return [name for name in names if name not in metrics and name.split(".")[0] in SCOPE]


SCOPE = _scope()
REFERENCES = _references()


def test_readme_names_package_attributes():
    # a fixed floor, so a broken pattern cannot pass by matching nothing
    assert len(REFERENCES) >= 9


@pytest.mark.parametrize("name", REFERENCES)
def test_readme_reference_resolves(name):
    head, *parts = name.split(".")
    assert _resolves(SCOPE[head], parts), f"README.md names `{name}`, which does not exist"
