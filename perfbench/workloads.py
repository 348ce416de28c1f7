"""The benchmark's three federation workloads.

Each workload is a config mapping handed to ``config_from_dict``; the
benchmark's workload seed becomes the config's master seed, so the program
receives only the generated config. Every workload loads a different module
of the simulator heavily (see ``why``), and all data is synthetic.

``rounds`` is sized so that a 30-second run on a 2-core machine holds
three to five experiments, so every per-run median has several samples.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str
    # Calibration kernels (see speed.py) that slow like this workload's round.
    calibration: tuple[str, ...]
    config: dict

    def config_for(self, seed: int) -> dict:
        raw = dict(self.config)
        raw["seed"] = int(seed)
        return raw


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mra-iid-n200",
            default_seed=5,
            calibration=("python", "small_numpy"),
            why=(
                "200 clients under boosted model replacement: the cosine matrix and "
                "two-cluster agglomeration of the celtibero aggregator dominate the round"
            ),
            config={
                "dataset": {
                    "kind": "synthetic",
                    "classes": 4,
                    "features": 20,
                    "samples": 20000,
                    "test_samples": 1000,
                    "separation": 4.0,
                },
                "partition": {"kind": "iid"},
                "clients": 200,
                "malicious_fraction": 0.4,
                "participation": [1.0, 1.0],
                "attack": {
                    "kind": "mra",
                    "target_class": 0,
                    "poison_fraction": 1.0,
                    "boost_factor": 3.0,
                    "trigger": {"positions": [16, 17, 18], "values": [1.0, 1.0, 1.0]},
                },
                "architecture": {"hidden": [16]},
                "training": {"learning_rate": 0.3, "batch_size": 16},
                "local_epochs": 3,
                "aggregator": {"kind": "celtibero", "linkage": "average"},
                "rounds": 2,
            },
        ),
        Workload(
            name="neurotoxin-wide-n20",
            default_seed=6,
            calibration=("blas",),
            why=(
                "MNIST-width model (50 890 params) on uneven Dirichlet shards: local "
                "training dominates, with the Neurotoxin argsort and a wide layer-0 cosine matrix"
            ),
            config={
                "dataset": {
                    "kind": "synthetic",
                    "classes": 10,
                    "features": 784,
                    "samples": 20000,
                    "test_samples": 2000,
                    "separation": 4.0,
                },
                "partition": {"kind": "dirichlet", "alpha": 0.5},
                "clients": 20,
                "malicious_fraction": 0.4,
                "participation": [1.0, 1.0],
                "attack": {
                    "kind": "neurotoxin",
                    "target_class": 0,
                    "mask_ratio": 0.5,
                    "trigger": {
                        "positions": list(range(776, 784)),
                        "values": [1.0] * 8,
                    },
                },
                "architecture": {"hidden": [64]},
                "training": {"learning_rate": 0.1, "batch_size": 32},
                "local_epochs": 2,
                "aggregator": {"kind": "celtibero", "linkage": "single"},
                "rounds": 8,
            },
        ),
        Workload(
            name="ulfa-mkrum-n100",
            default_seed=4,
            calibration=("blas",),
            why=(
                "Median-Krum over a varying participant count with a matched reference "
                "federation: Krum distances and the coordinate median load, clustering does nothing"
            ),
            config={
                "dataset": {
                    "kind": "synthetic",
                    "classes": 4,
                    "features": 200,
                    "samples": 20000,
                    "test_samples": 2000,
                    "separation": 2.0,
                },
                "partition": {"kind": "iid"},
                "clients": 100,
                "malicious_fraction": 0.3,
                "participation": [0.6, 0.9],
                "attack": {"kind": "ulfa"},
                "architecture": {"hidden": [64]},
                "training": {"learning_rate": 0.1, "batch_size": 32},
                "local_epochs": 2,
                "aggregator": {"kind": "median_krum", "krum_f": 25},
                "rounds": 20,
            },
        ),
    )
}
