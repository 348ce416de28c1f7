"""Golden output of ``config_to_dict``: the exact JSON text, key order included,
for every attack, aggregator and dataset kind."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from celtibero import AttackSpec, config_from_dict, config_to_dict

GOLDEN_FILE = Path(__file__).parent / "golden" / "config_to_dict.txt"

MNIST_PATHS = {
    "train_images": "data/train-images-idx3-ubyte",
    "train_labels": "data/train-labels-idx1-ubyte",
    "test_images": "data/t10k-images-idx3-ubyte",
    "test_labels": "data/t10k-labels-idx1-ubyte",
}

RAW_CONFIGS = {
    "attack_none": {},
    "attack_ulfa": {"attack": {"kind": "ulfa", "flip_fraction": 0.8}, "malicious_fraction": 0.3},
    "attack_tlfa": {
        "attack": {"kind": "tlfa", "source_class": 2, "target_class": 3},
        "malicious_fraction": 0.3,
    },
    "attack_mra": {
        "attack": {
            "kind": "mra",
            "target_class": 1,
            "poison_fraction": 0.75,
            "boost_factor": 3.0,
            "trigger": {"positions": [16, 17, 18], "values": [1, 1, 0.5]},
        },
        "malicious_fraction": 0.4,
    },
    "attack_dba": {
        "attack": {
            "kind": "dba",
            "dba_fragments": 3,
            "trigger": {"positions": [0, 1, 2, 3, 4, 5], "values": [1.0] * 6},
        },
        "malicious_fraction": 0.4,
    },
    "attack_neurotoxin": {
        "attack": {"kind": "neurotoxin", "target_class": 2, "mask_ratio": 0.25},
        "malicious_fraction": 0.2,
    },
    "aggregator_fedavg": {"aggregator": {"kind": "fedavg"}},
    "aggregator_coord_median": {"aggregator": {"kind": "coord_median"}},
    "aggregator_krum": {"aggregator": {"kind": "krum", "krum_f": 2}},
    "aggregator_median_krum": {"aggregator": {"kind": "median_krum", "krum_f": 3}},
    "aggregator_celtibero": {"aggregator": {"kind": "celtibero", "linkage": "complete"}},
    "dataset_synthetic": {
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "samples": 600,
            "features": 8,
            "separation": 2.5,
            "test_samples": 200,
        },
        "partition": {"kind": "dirichlet", "alpha": 0.3},
        "architecture": {"hidden": [8, 4], "activation": "tanh"},
        "training": {"learning_rate": 0.02, "batch_size": 16},
        "participation": [0.5, 1.0],
    },
    "dataset_mnist_idx": {
        "dataset": {"kind": "mnist_idx", **MNIST_PATHS, "train_subset": 2000},
        "output_dir": "results/run1",
        "seed": 11,
    },
}


def golden() -> dict[str, str]:
    lines = GOLDEN_FILE.read_text().splitlines()
    return dict(line.split(" ", 1) for line in lines)


@pytest.mark.parametrize("name", sorted(RAW_CONFIGS))
def test_parsed_config_json_matches_golden(name):
    cfg = config_from_dict(RAW_CONFIGS[name])
    assert json.dumps(config_to_dict(cfg)) == golden()[name]


def test_hand_built_backdoor_without_trigger_omits_the_key():
    cfg = replace(config_from_dict({"malicious_fraction": 0.2}), attack=AttackSpec(kind="mra"))
    text = json.dumps(config_to_dict(cfg))
    assert '"trigger"' not in text
    assert text == golden()["hand_built_mra"]


def test_golden_file_covers_exactly_these_cases():
    assert sorted(golden()) == sorted([*RAW_CONFIGS, "hand_built_mra"])
