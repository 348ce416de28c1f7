"""The package's public names: each module declares them once, in its
``__all__``, and the package re-exports them; and what the package imports."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import celtibero
from celtibero import (
    aggregators, attacks, clustering, config, data, errors, model, orchestrator, reports, training,
)

MODULES = (
    aggregators, attacks, clustering, config, data, errors, model, orchestrator, reports, training,
)


def test_package_all_is_every_module_all():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(celtibero, name) is getattr(module, name), (module.__name__, name)
    public = {
        name for name, value in vars(celtibero).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(celtibero.__all__) == set(declared)
    assert "cli" not in celtibero.__all__


def test_package_imports_only_its_declared_dependencies():
    # pyproject.toml declares numpy and PyYAML; anything else that happens to
    # be installed here would be missing from a clean install.
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    imported = set()
    for path in Path(celtibero.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert ("data.py", "numpy") in imported
    undeclared = {(name, module) for name, module in imported if module.split(".")[0] not in allowed}
    assert not undeclared
