"""Fingerprint the simulator's outputs on a fixed set of 68 configs.

    python3 tools/identity_set.py SRC_DIR
    python3 tools/identity_set.py SRC_DIR --compare OTHER_SRC

Imports ``celtibero`` from ``SRC_DIR``, runs every config of the set through
``config_from_dict`` -> ``run_experiment`` -> ``emit_reports``, and prints
one line per config: its name, the sha256 of ``summary.json`` and the
sha256 of ``rounds.csv`` with the ``wall_ms`` column dropped. Two source
trees that print the same lines produce the same outputs on the set, so
``diff`` of two runs is the byte-identity check of a change that must keep
every bit.

With ``--compare OTHER_SRC`` it fingerprints both trees at once, each in a
child process of its own, prints each config whose lines differ with the
files that differ (``summary.json``, ``rounds.csv``), ends with the count
of differing configs and of each file, and exits 1 if any config differs
(0 if none) or if either child fails.

The set: the README quick-start config (README.md's first YAML block);
the three benchmark workloads of
``perfbench/workloads.py`` at their default seeds; the README config cut to
8 rounds with participation [0.6, 1.0] and seed 11 under each aggregator
(fedavg, coord_median, krum and median_krum with f 2, celtibero with each
linkage) against each attack kind (none, ulfa, tlfa 1->0, mra, dba with an
8-feature trigger, neurotoxin with mask ratio 0.5); and that 8-round config
with one hidden unit, with tanh hidden units (the only configs of the set
that run tanh), and with two hidden layers of 8 and 4 units (the only
6-layer models of the set), each under fedavg and celtibero; and that
8-round config on Dirichlet (alpha 0.5) shares under ulfa with celtibero and
tlfa with median_krum, whose reference federations run on ragged clean
shares, and under dba and mra with celtibero, whose stamped rows go back
into ragged blocks of the training matrix; and that 8-round config under
celtibero against mra on Dirichlet (alpha 0.01) shares, where 11 of the 20
clients start empty and the partitioner's repair hands each one sample, and
at separation 0.25, where the clip to [0, 1] sets about 84 % of the training
matrix's entries, and with 9000 test samples, the longest test split of
the set; and that 8-round config at 0
rounds under celtibero against mra, ulfa and tlfa, whose summaries score
the initial model; and that 8-round config under
celtibero against mra on ``mnist_idx`` data (the only config of the set that
reads IDX files): tiny 28 x 28 image and label files drawn from a fixed seed
into the run's scratch directory, both splits cut to a random subset; and
that 8-round config under celtibero against mra with no boost factor (the
boost is each round's participant count) and poison fraction 0.5, against
neurotoxin and dba with the default trigger (dba's fragment count derived
from the attackers), and under median_krum against ulfa at flip fraction
0.5; and the README config at 37 clients with a boost factor of 1e150,
whose 37 participants are no multiple of the cosine kernel's 16-row blocks
and whose boosted rows, about 1e150 times an honest update, the kernel
scales in place. Every config runs from that scratch directory, and the IDX config
names its files by relative paths, so the ``config`` in ``summary.json`` is
the same for every tree.
Standard library, NumPy and PyYAML only; it runs the configs one after
another in this process.

BLAS runs on one thread: ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1 before NumPy loads, as in
``perfbench/run.py``. The wide dot products round differently with the BLAS
thread count, so fingerprints from two machines compare only at one fixed
count (and on the same NumPy and BLAS build).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import importlib.util
import io
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent

# README's quick-start config: the first YAML block of README.md.
README_CONFIG = yaml.safe_load(
    re.search(r"```yaml\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)
)

AGGREGATORS = {
    "fedavg": {"kind": "fedavg"},
    "coord_median": {"kind": "coord_median"},
    "krum": {"kind": "krum", "krum_f": 2},
    "median_krum": {"kind": "median_krum", "krum_f": 2},
    "celtibero-average": {"kind": "celtibero", "linkage": "average"},
    "celtibero-single": {"kind": "celtibero", "linkage": "single"},
    "celtibero-complete": {"kind": "celtibero", "linkage": "complete"},
}

ATTACKS = {
    "none": {"kind": "none"},
    "ulfa": {"kind": "ulfa"},
    "tlfa": {"kind": "tlfa", "source_class": 1, "target_class": 0},
    "mra": README_CONFIG["attack"],
    "dba": {
        "kind": "dba",
        "target_class": 0,
        "poison_fraction": 1.0,
        "trigger": {"positions": list(range(12, 20)), "values": [1.0] * 8},
    },
    "neurotoxin": {
        "kind": "neurotoxin",
        "target_class": 0,
        "poison_fraction": 1.0,
        "mask_ratio": 0.5,
        "trigger": README_CONFIG["attack"]["trigger"],
    },
}

# Image count of each IDX split; the r8-idx config takes a subset of each.
IDX_COUNTS = {"train": 400, "test": 100}
IDX_DATASET = {
    "kind": "mnist_idx",
    **{
        f"{split}_{part}": f"idx/{split}-{part}-idx{dims}-ubyte"
        for split in IDX_COUNTS
        for part, dims in (("images", 3), ("labels", 1))
    },
    "train_subset": 300,
    "test_subset": 80,
}


def _write_idx_files(directory: Path) -> None:
    """The IDX files ``IDX_DATASET`` names, relative to ``directory``: random
    28 x 28 images and digit labels from a fixed seed."""
    import numpy as np

    rng = np.random.default_rng(8)
    (directory / "idx").mkdir()
    for split, count in IDX_COUNTS.items():
        images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count, dtype=np.uint8)
        (directory / IDX_DATASET[f"{split}_images"]).write_bytes(
            struct.pack(">IIII", 0x803, count, 28, 28) + images.tobytes()
        )
        (directory / IDX_DATASET[f"{split}_labels"]).write_bytes(
            struct.pack(">II", 0x801, count) + labels.tobytes()
        )


def _workloads() -> dict:
    """``perfbench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "identity_set_workloads", REPO / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def configs() -> dict[str, dict]:
    """Every config of the set by name, in run order."""
    out = {"readme": README_CONFIG}
    for name, workload in _workloads().items():
        out[f"workload/{name}"] = workload.config_for(workload.default_seed)
    short = dict(README_CONFIG, rounds=8, participation=[0.6, 1.0], seed=11)
    for agg_name, aggregator in AGGREGATORS.items():
        for attack_name, attack in ATTACKS.items():
            out[f"r8/{agg_name}/{attack_name}"] = dict(
                short, aggregator=aggregator, attack=attack
            )
    for variant, architecture in (
        ("hidden1", {"hidden": [1]}),
        ("tanh", {"activation": "tanh"}),
        ("hidden8-4", {"hidden": [8, 4]}),
    ):
        for agg_name in ("fedavg", "celtibero-average"):
            out[f"r8-{variant}/{agg_name}"] = dict(
                short, aggregator=AGGREGATORS[agg_name], architecture=architecture
            )
    dirichlet = dict(short, partition={"kind": "dirichlet", "alpha": 0.5})
    for name, attack, aggregator in (
        ("ulfa-celtibero", ATTACKS["ulfa"], {"kind": "celtibero"}),
        ("tlfa-median_krum", ATTACKS["tlfa"], AGGREGATORS["median_krum"]),
        ("dba-celtibero", ATTACKS["dba"], {"kind": "celtibero"}),
        ("mra-celtibero", ATTACKS["mra"], {"kind": "celtibero"}),
    ):
        out[f"r8-dirichlet/{name}"] = dict(dirichlet, aggregator=aggregator, attack=attack)
    out["r8-dirichlet-repair/mra-celtibero"] = dict(
        short, partition={"kind": "dirichlet", "alpha": 0.01}, aggregator={"kind": "celtibero"}
    )
    out["r8-clip/mra-celtibero"] = dict(
        short, dataset=dict(short["dataset"], separation=0.25), aggregator={"kind": "celtibero"}
    )
    out["r8-test9000/mra-celtibero"] = dict(
        short, dataset=dict(short["dataset"], test_samples=9000), aggregator={"kind": "celtibero"}
    )
    for attack_name in ("mra", "ulfa", "tlfa"):
        out[f"r0/{attack_name}"] = dict(
            short, rounds=0, aggregator={"kind": "celtibero"}, attack=ATTACKS[attack_name]
        )
    out["r8-idx/celtibero"] = dict(short, dataset=IDX_DATASET, aggregator={"kind": "celtibero"})

    def without(attack_name: str, key: str) -> dict:
        return {k: v for k, v in ATTACKS[attack_name].items() if k != key}

    for name, attack in (
        ("mra-participant-boost", dict(without("mra", "boost_factor"), poison_fraction=0.5)),
        ("neurotoxin-default-trigger", without("neurotoxin", "trigger")),
        ("dba-default-trigger", without("dba", "trigger")),
    ):
        out[f"r8-attack/{name}"] = dict(short, aggregator={"kind": "celtibero"}, attack=attack)
    out["r8-attack/ulfa-half-median_krum"] = dict(
        short,
        aggregator=AGGREGATORS["median_krum"],
        attack=dict(ATTACKS["ulfa"], flip_fraction=0.5),
    )
    out["readme-n37/mra-1e150"] = dict(
        README_CONFIG, clients=37, attack=dict(ATTACKS["mra"], boost_factor=1e150)
    )
    return out


def _rounds_without_wall_ms(text: str) -> bytes:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_ms")
    kept = io.StringIO()
    csv.writer(kept, lineterminator="\n").writerows(
        [cell for k, cell in enumerate(row) if k != drop] for row in rows
    )
    return kept.getvalue().encode()


def fingerprint(raw: dict, out_dir: Path) -> tuple[str, str]:
    from celtibero import config_from_dict, emit_reports, run_experiment

    result = run_experiment(config_from_dict(raw))
    csv_path, summary_path = emit_reports(result.reports, result.summary, out_dir)
    return (
        hashlib.sha256(summary_path.read_bytes()).hexdigest(),
        hashlib.sha256(_rounds_without_wall_ms(csv_path.read_text())).hexdigest(),
    )


def _print_fingerprints(src: Path) -> int:
    if not (src / "celtibero" / "__init__.py").is_file():
        print(f"error: {src} holds no celtibero package", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import celtibero

    if Path(celtibero.__file__).resolve().parent != src / "celtibero":
        print(f"error: celtibero imports from {celtibero.__file__}, not {src}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        _write_idx_files(Path(scratch))
        os.chdir(scratch)  # the IDX config names its files relative to it
        for k, (name, raw) in enumerate(configs().items()):
            summary, rounds = fingerprint(raw, Path(scratch) / str(k))
            print(f"{name} summary={summary} rounds={rounds}", flush=True)
        os.chdir(REPO)
    return 0


def _fingerprints(*srcs: Path) -> list[dict[str, str] | None]:
    """Each config's printed line for each tree, from child processes that run
    at once (two trees cannot both be imported as ``celtibero`` here); None
    for a tree whose child failed."""
    children = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(src)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for src in srcs
    ]
    outputs = [child.communicate()[0] for child in children]
    return [
        {line.split(" ", 1)[0]: line for line in out.splitlines()} if child.returncode == 0 else None
        for child, out in zip(children, outputs)
    ]


def _compare(src: Path, other: Path) -> int:
    ours, theirs = _fingerprints(src, other)
    if ours is None or theirs is None:
        print("error: a fingerprint run failed", file=sys.stderr)
        return 1
    names = list(configs())
    files = ("summary.json", "rounds.csv")
    differ = {}
    for name in names:
        # Each line is "NAME summary=HASH rounds=HASH".
        pairs = zip(files, ours[name].split()[1:], theirs[name].split()[1:])
        changed = [f for f, a, b in pairs if a != b]
        if changed:
            differ[name] = changed
            print(f"{name}: {', '.join(changed)}")
    per_file = ", ".join(f"{sum(f in c for c in differ.values())} in {f}" for f in files)
    print(f"{len(differ)} of {len(names)} configs differ ({per_file})", file=sys.stderr)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("src", type=Path, help="directory that holds the celtibero package")
    parser.add_argument(
        "--compare",
        type=Path,
        metavar="OTHER_SRC",
        help="print the configs whose fingerprints differ from OTHER_SRC's; exit 1 if any do",
    )
    args = parser.parse_args(argv)
    if args.compare is not None:
        return _compare(args.src.resolve(), args.compare.resolve())
    return _print_fingerprints(args.src.resolve())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
