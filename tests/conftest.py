"""Shared fixtures: model builders and the frozen trend-scenario configs.

The three federated trend scenarios (i.i.d. model replacement, non-i.i.d.
neurotoxin, and untargeted label flipping) are executed once per session and
shared between the behavioural tests and the acceptance gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from celtibero import (
    Experiment,
    ModelWeights,
    config_from_dict,
    run_experiment,
)

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool | None, detail: str) -> None:
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    ACCEPTANCE_LINES.append(f"criterion {number:2d} {status}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def make_weights(*layer_values) -> ModelWeights:
    """Build a one-or-more layer model from plain nested lists."""
    vectors = [np.asarray(vals, dtype=np.float64).reshape(-1) for vals in layer_values]
    return ModelWeights([(v.size,) for v in vectors], np.concatenate(vectors))


def layers_of(model: ModelWeights) -> tuple[np.ndarray, ...]:
    """Each layer of ``model`` as its read-only view into ``model.flat``."""
    return tuple(model.flat[sl] for sl in model.slices())


@pytest.fixture
def mw():
    return make_weights


# Frozen trend scenarios. The scale parameters (classes, features, samples,
# clients, malicious share, round counts) are fixed; everything else was
# calibrated once and must not drift, because the acceptance thresholds were
# pinned against these exact runs.

def mra_iid_config(aggregator: str, attacked: bool = True, seed: int = 5) -> dict:
    cfg = {
        "dataset": {
            "kind": "synthetic",
            "classes": 4,
            "samples": 4000,
            "features": 20,
            "separation": 4.0,
            "test_samples": 1000,
        },
        "aggregator": {"kind": aggregator},
        "clients": 20,
        "malicious_fraction": 0.4 if attacked else 0.0,
        "rounds": 30,
        "local_epochs": 3,
        "participation": [1.0, 1.0],
        "seed": seed,
    }
    if attacked:
        cfg["attack"] = {
            "kind": "mra",
            "target_class": 0,
            "trigger": {"positions": [16, 17, 18], "values": [1.0, 1.0, 1.0]},
            "boost_factor": 3.0,
            "poison_fraction": 1.0,
        }
    return cfg


def neurotoxin_dirichlet_config(aggregator: str, seed: int = 6) -> dict:
    cfg = {
        "dataset": {
            "kind": "synthetic",
            "classes": 4,
            "samples": 4000,
            "features": 20,
            "separation": 4.0,
            "test_samples": 1000,
        },
        "partition": {"kind": "dirichlet", "alpha": 0.5},
        "aggregator": {"kind": aggregator},
        "clients": 20,
        "malicious_fraction": 0.4,
        "attack": {
            "kind": "neurotoxin",
            "target_class": 0,
            "trigger": {
                "positions": [14, 15, 16, 17, 18, 19],
                "values": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            },
            "poison_fraction": 1.0,
            "mask_ratio": 0.5,
        },
        "rounds": 30,
        "local_epochs": 3,
        "participation": [1.0, 1.0],
        "seed": seed,
    }
    if aggregator == "celtibero":
        cfg["aggregator"]["linkage"] = "single"
    if aggregator in ("krum", "median_krum"):
        cfg["aggregator"]["krum_f"] = 8
    return cfg


def ulfa_config(aggregator: str, seed: int = 4) -> dict:
    return {
        "dataset": {
            "kind": "synthetic",
            "classes": 2,
            "samples": 4000,
            "features": 20,
            "separation": 1.5,
            "test_samples": 1000,
        },
        "aggregator": {"kind": aggregator},
        "clients": 20,
        "malicious_fraction": 0.4,
        "attack": {"kind": "ulfa", "flip_fraction": 1.0},
        "rounds": 12,
        "local_epochs": 3,
        "participation": [1.0, 1.0],
        "seed": seed,
    }


@pytest.fixture(scope="session")
def mra_iid_runs():
    """Reference, FedAvg-under-attack, and Celtibero-under-attack runs of the
    i.i.d. model-replacement scenario."""
    runs = {}
    runs["reference"] = Experiment(
        config_from_dict(mra_iid_config("fedavg", attacked=False))
    ).run()
    for agg in ("fedavg", "celtibero"):
        runs[agg] = Experiment(config_from_dict(mra_iid_config(agg))).run()
    return runs


@pytest.fixture(scope="session")
def neurotoxin_runs():
    runs = {}
    for agg in ("celtibero", "krum", "coord_median"):
        runs[agg] = Experiment(
            config_from_dict(neurotoxin_dirichlet_config(agg))
        ).run()
    return runs


@pytest.fixture(scope="session")
def ulfa_runs():
    """uLFA runs including the matched-seed clean references."""
    return {
        agg: run_experiment(config_from_dict(ulfa_config(agg)))
        for agg in ("fedavg", "celtibero")
    }
