"""The identity set's configs parse, so a malformed one fails here rather
than only in a full fingerprint run."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

from celtibero import ConfigError, config_from_dict

REPO = Path(__file__).resolve().parent.parent
IDENTITY_SET_PATH = REPO / "tools" / "identity_set.py"


def load_identity_set():
    spec = importlib.util.spec_from_file_location("tools_identity_set", IDENTITY_SET_PATH)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own runs
        spec.loader.exec_module(module)
    return module


def test_every_config_of_the_set_parses():
    configs = load_identity_set().configs()
    assert len(configs) == 70
    for name, raw in configs.items():
        try:
            config_from_dict(raw)
        except ConfigError as exc:
            pytest.fail(f"{name}: {exc}")
