"""The package's public names: each module declares them once, in its
``__all__``, and the package re-exports them."""

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
