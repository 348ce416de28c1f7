"""Run every aggregation rule against every attack on the README config and
tabulate the final MTA and ASR.

    python3 experiments/grid.py

The grid is ``tools/identity_set.py``'s ``README_CONFIG``, README's quick
start (4 classes, 20 clients, 30 rounds, full participation), in four
settings, iid or Dirichlet alpha 0.5 shares with 20 % or 40 % attackers,
under five rules (``fedavg``, ``coord_median``, ``krum`` and
``median_krum`` with f set to the setting's attacker count, and
``celtibero``) against nine attacks from its ``ATTACKS`` table (``none``,
``ulfa``, ``tlfa`` 1 -> 0, ``dba``, ``mra`` at the README's boost 3, at
boost 10, with no boost factor (the boost is then the 20 participants) and
at boost 1e150, and ``neurotoxin``), at seeds 1-10: 1800 runs. A cell is
one rule against one attack in one setting; its seeds see the same data and
roster under every rule, so rules are compared seed by seed. A run fails
when its final ASR is at least ``FAIL_ASR`` or its final MTA at most
``FAIL_MTA``, or when it diverges (``RoundError``: the global model left the
finite floats); each cell counts its failed seeds and gives the Wilson 95 %
score interval of its failure rate (``wilson``).

Each run goes through ``config_from_dict`` -> ``run_experiment`` and writes
one JSON file under ``experiments/runs/``, which also lists the rounds whose
clean reference accuracy (a label flip's ASR is its relative decay) was
zero. A run whose file exists is not run again, so a stopped grid resumes
where it stopped. The runs go to a pool of at most 2 worker processes.
Once every run is in, the script writes ``experiments/grid.json`` (each
cell's values) and ``experiments/GRID.md`` (the tables).

Standard library, NumPy and PyYAML only. BLAS runs on one thread, as in
``tools/identity_set.py``: the wide dot products round differently with the
thread count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import math
import multiprocessing
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from celtibero import RoundError, config_from_dict, malicious_count, run_experiment  # noqa: E402
from celtibero.attacks import _DECAYS  # noqa: E402


def _identity_set():
    """``tools/identity_set.py``, loaded from its file."""
    path = REPO / "tools" / "identity_set.py"
    spec = importlib.util.spec_from_file_location("grid_identity_set", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_IDENTITY_SET = _identity_set()
# Each run adds its setting's partition and malicious fraction, its rule,
# its attack and its seed.
BASE = {
    key: value
    for key, value in _IDENTITY_SET.README_CONFIG.items()
    if key not in ("partition", "malicious_fraction", "aggregator", "attack", "seed")
}
PARTITIONS = {"iid": {"kind": "iid"}, "dirichlet0.5": {"kind": "dirichlet", "alpha": 0.5}}
FRACTIONS = (0.2, 0.4)
# Krum's f is each setting's attacker count, which ``runs`` sets.
RULES = {
    "fedavg": _IDENTITY_SET.AGGREGATORS["fedavg"],
    "coord_median": _IDENTITY_SET.AGGREGATORS["coord_median"],
    "krum": {"kind": "krum"},
    "median_krum": {"kind": "median_krum"},
    "celtibero": _IDENTITY_SET.AGGREGATORS["celtibero-average"],
}
_MRA = _IDENTITY_SET.ATTACKS["mra"]
ATTACKS = {
    "none": _IDENTITY_SET.ATTACKS["none"],
    "ulfa": _IDENTITY_SET.ATTACKS["ulfa"],
    "tlfa": _IDENTITY_SET.ATTACKS["tlfa"],
    "dba": _IDENTITY_SET.ATTACKS["dba"],
    "mra-3": _MRA,
    "mra-10": dict(_MRA, boost_factor=10.0),
    "mra-unset": {key: value for key, value in _MRA.items() if key != "boost_factor"},
    "mra-1e150": dict(_MRA, boost_factor=1e150),
    "neurotoxin": _IDENTITY_SET.ATTACKS["neurotoxin"],
}
SEEDS = tuple(range(1, 11))
# The rule every other rule is compared with, seed by seed.
PAPER_RULE = "celtibero"
# A run fails when its final ASR is at least FAIL_ASR or its final MTA at
# most FAIL_MTA.
FAIL_ASR = 0.5
FAIL_MTA = 0.5

CELL_COLUMNS = ("rule", "attack", "MTA median", "MTA worst", "ASR median", "ASR worst", "failed")
WIN_COLUMNS = ("rule", "attack", "MTA W-T-L", "ASR W-T-L")


def settings(partitions=PARTITIONS, fractions=FRACTIONS) -> list[tuple[str, float]]:
    """Every (partition name, malicious fraction) pair, partitions outermost."""
    return [(partition, fraction) for partition in partitions for fraction in fractions]


def runs(
    rules=RULES,
    attacks=ATTACKS,
    seeds=SEEDS,
    rounds=None,
    partitions=PARTITIONS,
    fractions=FRACTIONS,
) -> dict[str, dict]:
    """Each run's config by name, ``PARTITION/FRACTION/RULE/ATTACK/seedN``;
    ``rounds``, if given, replaces the config's round count. A Krum rule's f
    is the setting's attacker count."""
    out = {}
    for partition, fraction in settings(partitions, fractions):
        krum_f = malicious_count(fraction, BASE["clients"])
        for rule, aggregator in rules.items():
            if aggregator["kind"] in ("krum", "median_krum"):
                aggregator = dict(aggregator, krum_f=krum_f)
            for attack, spec in attacks.items():
                for seed in seeds:
                    raw = dict(
                        BASE,
                        partition=partitions[partition],
                        malicious_fraction=fraction,
                        aggregator=aggregator,
                        attack=spec,
                        seed=seed,
                    )
                    if rounds is not None:
                        raw["rounds"] = rounds
                    out[f"{partition}/{fraction}/{rule}/{attack}/seed{seed}"] = raw
    return out


def _run_one(job: tuple[str, dict, str]) -> str:
    """Run one config and write its final metrics and its zero-reference
    rounds, or the ``RoundError`` of a run that diverged, to ``path``,
    through a temporary file so that a stopped run leaves no file behind."""
    name, raw, path = job
    cfg = config_from_dict(raw)
    try:
        result = run_experiment(cfg)
    except RoundError as exc:  # the global model left the finite floats
        record = {"run": name, "diverged": str(exc)}
    else:
        decay = _DECAYS.get(cfg.attack.kind)  # only these kinds have a reference
        record = {
            "run": name,
            "final_mta": result.summary["final_mta"],
            "final_asr": result.summary["final_asr"],
            "rounds_completed": result.summary["rounds_completed"],
            "zero_reference_rounds": [
                r.round_index
                for r in result.reference_reports or ()
                if decay(r.mta, r.per_class, cfg.attack) == 0.0
            ],
        }
    partial = Path(path + ".tmp")
    partial.write_text(json.dumps(record, indent=1) + "\n")
    partial.replace(path)
    return name


def run_all(configs: dict[str, dict], run_dir: Path, workers: int = 2) -> dict[str, dict]:
    """Every run's record by name, running only those without a file in
    ``run_dir``: in this process with one worker, else in a pool of two."""
    if workers not in (1, 2):
        raise ValueError(f"workers must be 1 or 2, got {workers}")
    paths = {name: run_dir / f"{name.replace('/', '__')}.json" for name in configs}
    jobs = [
        (name, raw, str(paths[name])) for name, raw in configs.items() if not paths[name].exists()
    ]
    run_dir.mkdir(parents=True, exist_ok=True)
    if workers == 1:
        for job in jobs:
            _run_one(job)
    else:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            for name in pool.imap_unordered(_run_one, jobs):
                print(f"ran {name}", flush=True)
    return {name: json.loads(path.read_text()) for name, path in paths.items()}


def _wins(ours: list[float] | None, theirs: list[float] | None, higher_is_better: bool):
    """``W-T-L`` of ``ours`` against ``theirs``, paired by seed; None where
    either is None, an undefined ASR. Two diverged runs tie."""
    if ours is None or theirs is None:
        return None
    sign = 1 if higher_is_better else -1
    diffs = [0.0 if a == b else sign * (a - b) for a, b in zip(ours, theirs, strict=True)]
    return f"{sum(d > 0 for d in diffs)}-{sum(d == 0 for d in diffs)}-{sum(d < 0 for d in diffs)}"


def wilson(k: int, n: int) -> tuple[float, float]:
    """The Wilson (1927) 95 % score interval of a rate of ``k`` in ``n``."""
    z = 1.96
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def _failed(record: dict, asr_defined: bool) -> bool:
    """Whether a run failed: a diverged run always, else on its final MTA
    alone where its cell's ASR is undefined."""
    return (
        "diverged" in record
        or record["final_mta"] <= FAIL_MTA
        or (asr_defined and record["final_asr"] >= FAIL_ASR)
    )


def _final(found: list[dict], key: str, diverged: float) -> list[float]:
    """Each run's final ``key``, ``diverged`` (-inf for MTA, inf for ASR) for
    a run that diverged, so that it ranks below every run that ended."""
    return [diverged if "diverged" in r else r[key] for r in found]


def _shown(value: float):
    """``value`` as ``grid.json`` holds it: ``diverged`` for an infinity."""
    return "diverged" if math.isinf(value) else value


def cells(
    records: dict[str, dict], rules, attacks, seeds, partitions=PARTITIONS, fractions=FRACTIONS
) -> dict:
    """Each setting's cells and wins. A cell holds its per-seed values,
    median, worst seed, failed seeds and their Wilson interval; a win count
    pairs another rule with ``PAPER_RULE`` (which ``rules`` must hold) seed by
    seed. A cell whose final-round reference accuracy was zero on any seed
    has an undefined ASR: its ASR median and worst, and every ASR win count
    it enters, are None, its failures are counted on MTA alone, and
    ``zero_reference_rounds`` counts its seeds' zero-reference rounds. A run
    that diverged fails, ranks below every run that ended, and reads
    ``diverged`` wherever it is the median or the worst seed."""
    out = []
    for partition, fraction in settings(partitions, fractions):
        table = []
        by_cell = {}
        for rule in rules:
            for attack in attacks:
                found = [
                    records[f"{partition}/{fraction}/{rule}/{attack}/seed{seed}"] for seed in seeds
                ]
                ended = [r for r in found if "diverged" not in r]
                mta = _final(found, "final_mta", -math.inf)
                asr = _final(found, "final_asr", math.inf)
                undefined = any(
                    r["rounds_completed"] - 1 in r["zero_reference_rounds"] for r in ended
                )
                failures = sum(_failed(r, not undefined) for r in found)
                by_cell[rule, attack] = (mta, None if undefined else asr)
                table.append({
                    "rule": rule,
                    "attack": attack,
                    "mta_by_seed": [_shown(v) for v in mta],
                    "asr_by_seed": [_shown(v) for v in asr],
                    "mta_median": _shown(statistics.median(mta)),
                    "mta_worst": _shown(min(mta)),
                    "asr_median": None if undefined else _shown(statistics.median(asr)),
                    "asr_worst": None if undefined else _shown(max(asr)),
                    "failures": failures,
                    "failure_interval": wilson(failures, len(found)),
                    "zero_reference_rounds": sum(len(r["zero_reference_rounds"]) for r in ended),
                })
        wins = [
            {
                "rule": rule,
                "attack": attack,
                "mta": _wins(by_cell[rule, attack][0], by_cell[PAPER_RULE, attack][0], True),
                "asr": _wins(by_cell[rule, attack][1], by_cell[PAPER_RULE, attack][1], False),
            }
            for rule in rules
            if rule != PAPER_RULE
            for attack in attacks
        ]
        out.append({
            "partition": partition,
            "malicious_fraction": fraction,
            "cells": table,
            "wins": wins,
        })
    return {
        "seeds": list(seeds),
        "fail_asr": FAIL_ASR,
        "fail_mta": FAIL_MTA,
        "partitions": partitions,
        "rules": rules,
        "attacks": attacks,
        "settings": out,
    }


def _row(values) -> str:
    return "| " + " | ".join(values) + " |"


def _number(value) -> str:
    return value if isinstance(value, str) else f"{value:.3f}"


def render(grid: dict) -> str:
    """GRID.md: for each setting, its cell table, then its per-seed wins
    table. An attack with no success rate (``none``, whose runs report 0)
    shows its ASR and ASR wins as dashes; a cell with an undefined ASR shows
    ``undefined (k rounds)``, k its seeds' zero-reference rounds, dashes for
    its ASR worst and ASR wins, and ``MTA only`` beside its failures. Each
    failure count reads ``k/n [low, high]``, its Wilson interval in brackets.
    A median or worst seed that is a diverged run reads ``diverged``."""
    seeds = grid["seeds"]
    unscored = {name for name, spec in grid["attacks"].items() if spec["kind"] == "none"}
    lines = [
        "# Rules against attacks on the README config",
        "",
        "Written by `python3 experiments/grid.py`; the values are in `grid.json`.",
        "README config (`tools/identity_set.py`), one section per setting of shares",
        f"and attackers, Krum's f the attacker count; seeds {', '.join(str(s) for s in seeds)}.",
        "Final-round MTA and ASR: the median over seeds and the worst seed",
        "(lowest MTA, highest ASR). A label flip's ASR is the relative decay of an",
        "accuracy of its clean reference run; where that accuracy was 0 in the",
        "final round on any seed, the ASR is undefined and reads `undefined (k rounds)`,",
        "k the rounds, over all seeds, whose reference accuracy was 0.",
        f"A run fails when its final ASR is at least {grid['fail_asr']} or its final MTA is",
        f"at most {grid['fail_mta']}. `failed` counts a cell's failed seeds, on MTA alone",
        "where its ASR is undefined (`MTA only`), with the Wilson 95 % score interval",
        "of its failure rate in brackets. A run that raised `RoundError` (its global",
        "model left the finite floats) fails and ranks below every run that ended;",
        "a median or worst seed that is such a run reads `diverged`.",
    ]
    for setting in grid["settings"]:
        partition = grid["partitions"][setting["partition"]]
        shares = "iid" if partition["kind"] == "iid" else f"Dirichlet alpha {partition['alpha']}"
        lines += [
            "",
            f"## {shares} shares, {round(100 * setting['malicious_fraction'])} % attackers",
            "",
            _row(CELL_COLUMNS),
            _row(["---"] * len(CELL_COLUMNS)),
        ]
        for cell in setting["cells"]:
            text = [_number(cell[k]) for k in ("mta_median", "mta_worst")]
            low, high = cell["failure_interval"]
            failed = f"{cell['failures']}/{len(seeds)} [{low:.3f}, {high:.3f}]"
            if cell["attack"] in unscored:
                text += ["—", "—", failed]
            elif cell["asr_median"] is None:
                rounds = cell["zero_reference_rounds"]
                text += [f"undefined ({rounds} rounds)", "—", f"{failed} MTA only"]
            else:
                text += [_number(cell[k]) for k in ("asr_median", "asr_worst")] + [failed]
            lines.append(_row([cell["rule"], cell["attack"], *text]))
        lines += [
            "",
            f"Per-seed wins, ties and losses against `{PAPER_RULE}` at the same seed",
            "(higher MTA wins; lower ASR wins).",
            "",
            _row(WIN_COLUMNS),
            _row(["---"] * len(WIN_COLUMNS)),
        ]
        for w in setting["wins"]:
            asr = "—" if w["attack"] in unscored or w["asr"] is None else w["asr"]
            lines.append(_row([w["rule"], w["attack"], w["mta"], asr]))
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.parse_args(argv)
    records = run_all(runs(), HERE / "runs")
    grid = {"base_config": BASE, **cells(records, RULES, ATTACKS, SEEDS)}
    (HERE / "grid.json").write_text(json.dumps(grid, indent=1) + "\n")
    (HERE / "GRID.md").write_text(render(grid))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
