"""Tests of ``experiments/grid.py``: a smoke test of two cells in two
settings cut to 3 rounds, run in this process and tabulated; the setting's
changes and the Krum f each run's name says; run files of another config
run again; the zero-reference rounds a run records and the undefined cells
they make; label flips that take the no-attack run as their reference, in
this process and in a pool of two; failure counts and their Wilson
intervals; runs that diverge; and that the committed ``grid.json`` and
``GRID.md`` are those of the grid's current tables and README config."""

import importlib.util
import json
import os
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from celtibero import config_from_dict, malicious_count, run_experiment

REPO = Path(__file__).resolve().parent.parent
GRID_PATH = REPO / "experiments" / "grid.py"


def load_grid(name="experiments_grid"):
    spec = importlib.util.spec_from_file_location(name, GRID_PATH)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the grid pins BLAS threads for its own runs
        spec.loader.exec_module(module)
    return module


def tables(text, header):
    """The rows below the header of every markdown table whose header row
    is ``header``, split into cells, with the heading above each table."""
    lines = text.splitlines()
    found = []
    for start, line in enumerate(lines):
        if line != header:
            continue
        heading = next(h for h in reversed(lines[:start]) if h.startswith("#"))
        rows = []
        for row in lines[start + 2 :]:
            if not row.startswith("|"):
                break
            rows.append([cell.strip() for cell in row.strip("|").split("|")])
        found.append((heading, rows))
    return found


def test_two_cells_fill_both_tables(tmp_path):
    grid = load_grid()
    assert len(grid.runs()) == 3150
    rules = {name: grid.RULES[name] for name in ("fedavg", "celtibero")}
    attacks = {"mra-1e150": grid.ATTACKS["mra-1e150"]}
    settings = {name: grid.SETTINGS[name] for name in ("iid/0.2", "dirichlet0.5/0.2")}
    configs = grid.runs(rules, attacks, seeds=(1, 2), rounds=3, settings=settings)
    assert len(configs) == 8
    records = grid.run_all(configs, tmp_path, workers=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name.replace('/', '__')}.json" for name in configs
    )
    assert all(r["rounds_completed"] == 3 for r in records.values())
    # A second call reads the files back instead of running again.
    name = "dirichlet0.5/0.2/fedavg/mra-1e150/seed1"
    (tmp_path / "dirichlet0.5__0.2__fedavg__mra-1e150__seed1.json").write_text(
        json.dumps(dict(records[name], final_mta=0.5))
    )
    assert grid.run_all(configs, tmp_path, workers=1)[name]["final_mta"] == 0.5

    cells = grid.cells(records, rules, attacks, (1, 2), settings)
    text = grid.render(cells)
    cell_tables = tables(text, grid._row(grid.CELL_COLUMNS))
    assert [heading for heading, _ in cell_tables] == [
        "## iid shares, 20 % attackers",
        "## Dirichlet alpha 0.5 shares, 20 % attackers",
    ]
    for (_, rows), setting in zip(cell_tables, cells["settings"]):
        assert [row[:2] for row in rows] == [["fedavg", "mra-1e150"], ["celtibero", "mra-1e150"]]
        for row, cell in zip(rows, setting["cells"]):
            prefix = f"{setting['name']}/{cell['rule']}/mra-1e150"
            found = [records[f"{prefix}/seed{s}"] for s in (1, 2)]
            assert cell["mta_worst"] == min(r["final_mta"] for r in found)
            assert all(0.0 <= float(value) <= 1.0 for value in row[2:6])
            failed = sum(r["final_mta"] <= 0.5 or r["final_asr"] >= 0.5 for r in found)
            low, high = grid.wilson(failed, 2)
            assert row[6] == f"{failed}/2 [{low:.3f}, {high:.3f}]"
    win_tables = tables(text, grid._row(grid.WIN_COLUMNS))
    assert len(win_tables) == 2
    for _, wins in win_tables:
        ((rule, attack, mta_wins, asr_wins),) = wins
        assert (rule, attack) == ("fedavg", "mra-1e150")
        for record in (mta_wins, asr_wins):
            assert sum(int(count) for count in record.split("-")) == 2


def test_each_run_is_the_readme_config_under_its_setting_and_its_attackers_f():
    grid = load_grid()
    assert list(grid.SETTINGS) == [
        "iid/0.2", "iid/0.4", "dirichlet0.5/0.2", "dirichlet0.5/0.4",
        "dirichlet0.1/0.2", "dirichlet0.1/0.4", "iid-784/0.4",
    ]
    configs = grid.runs()
    for name, raw in configs.items():
        setting, rule, _, _ = name.rsplit("/", 3)
        config = {k: v for k, v in raw.items() if k not in ("aggregator", "attack", "seed")}
        assert config == dict(grid.BASE, **grid.SETTINGS[setting])
        assert raw["aggregator"]["kind"] == grid.RULES[rule]["kind"]
        if rule in ("krum", "median_krum"):
            f = malicious_count(raw["malicious_fraction"], raw["clients"])
            assert raw["aggregator"]["krum_f"] == f == {0.2: 4, 0.4: 8}[raw["malicious_fraction"]]
        else:
            assert "krum_f" not in raw["aggregator"]
    assert Counter(name.rsplit("/", 3)[0] for name in configs) == {
        setting: 5 * 9 * 10 for setting in grid.SETTINGS
    }
    # One config of each setting and rule parses as its setting says.
    for name in configs:
        setting, rule, attack, seed = name.rsplit("/", 3)
        if attack != "dba" or seed != "seed1":
            continue
        cfg = config_from_dict(configs[name])
        changes = grid.SETTINGS[setting]
        assert cfg.partition.kind == changes["partition"]["kind"]
        assert cfg.malicious_fraction == changes["malicious_fraction"]
        width = (784, 10, (64,)) if setting == "iid-784/0.4" else (20, 4, (16,))
        assert (cfg.dataset.features, cfg.dataset.classes, cfg.architecture.hidden) == width
        if rule in ("krum", "median_krum"):
            assert cfg.aggregator.krum_f == malicious_count(cfg.malicious_fraction, cfg.clients)


def test_a_run_file_of_another_config_is_run_again(tmp_path):
    grid = load_grid()
    rules = {"fedavg": grid.RULES["fedavg"]}
    attacks = {"mra-3": grid.ATTACKS["mra-3"]}
    settings = {"iid/0.2": grid.SETTINGS["iid/0.2"]}
    configs = grid.runs(rules, attacks, (1, 2), 2, settings)
    records = grid.run_all(configs, tmp_path, workers=1)
    for name, raw in configs.items():
        assert records[name]["config"] == json.loads(json.dumps(raw))
    # A file with its run's config is read back; one with no config runs again.
    paths = [tmp_path / f"iid__0.2__fedavg__mra-3__seed{seed}.json" for seed in (1, 2)]
    for path, keep in zip(paths, (True, False)):
        record = dict(json.loads(path.read_text()), final_mta=-1.0)
        if not keep:
            del record["config"]
        path.write_text(json.dumps(record))
    again = grid.run_all(configs, tmp_path, workers=1)
    assert again["iid/0.2/fedavg/mra-3/seed1"]["final_mta"] == -1.0
    assert again["iid/0.2/fedavg/mra-3/seed2"] == records["iid/0.2/fedavg/mra-3/seed2"]
    # A changed config runs every run again.
    longer = grid.runs(rules, attacks, (1, 2), 3, settings)
    assert all(r["rounds_completed"] == 3 for r in grid.run_all(longer, tmp_path, 1).values())


def test_a_run_records_its_zero_reference_rounds(tmp_path):
    grid = load_grid()
    # Median-Krum against tlfa 1 -> 0 on Dirichlet shares, where the clean
    # reference misses every class-1 test sample in some rounds.
    raw = grid._IDENTITY_SET.configs()["r8-dirichlet/tlfa-median_krum"]
    path = tmp_path / "run.json"
    grid._run_one(("run", raw, str(path)))
    reference = run_experiment(config_from_dict(raw)).reference_reports
    want = [r.round_index for r in reference if r.per_class.get(1, 0.0) == 0.0]
    assert want
    assert json.loads(path.read_text())["zero_reference_rounds"] == want


def test_label_flips_run_against_the_no_attack_run(tmp_path, monkeypatch):
    # Registered as ``grid`` and importable by that name from ``sys.path``,
    # so that the children of the spawn pool can unpickle its functions.
    monkeypatch.syspath_prepend(str(GRID_PATH.parent))
    grid = load_grid("grid")
    monkeypatch.setitem(sys.modules, "grid", grid)
    rules = {name: grid.RULES[name] for name in ("fedavg", "median_krum")}
    attacks = {name: grid.ATTACKS[name] for name in ("none", "ulfa", "tlfa")}
    settings = {"dirichlet0.5/0.4": grid.SETTINGS["dirichlet0.5/0.4"]}
    configs = grid.runs(rules, attacks, (1, 2), 3, settings)
    assert len(configs) == 12
    jobs = grid._jobs(configs)
    assert len(jobs) == 4
    for job in jobs:
        parts = [name.split("/") for name in job]
        assert [p[3] for p in parts] == ["none", "ulfa", "tlfa"]
        assert len({(*p[:3], p[4]) for p in parts}) == 1

    run = grid.Experiment.run
    with mock.patch.object(grid.Experiment, "run", autospec=True, side_effect=run) as federations:
        records = grid.run_all(configs, tmp_path / "jobs", workers=1)
    assert federations.call_count == 12  # no label flip runs its own reference
    assert any(r["zero_reference_rounds"] for r in records.values())
    for name, raw in configs.items():
        if raw["attack"]["kind"] != "none":
            alone = tmp_path / "alone.json"
            grid._run_one((name, raw, str(alone)))
            assert json.loads(alone.read_text()) == records[name], name
    assert grid.run_all(configs, tmp_path / "pool", workers=2) == records


def test_undefined_label_flip_cells_show_no_number():
    grid = load_grid()
    rules = {name: grid.RULES[name] for name in ("fedavg", "celtibero")}
    attacks = {name: grid.ATTACKS[name] for name in ("ulfa", "tlfa")}

    def record(mta, asr, zero_rounds):
        return {
            "final_mta": mta, "final_asr": asr, "rounds_completed": 3,
            "zero_reference_rounds": zero_rounds,
        }

    records = {
        f"iid/0.4/{name}": value
        for name, value in {
            # Zero references before the final round leave the ASR defined.
            "fedavg/ulfa/seed1": record(0.9, 0.1, [0, 1]),
            "fedavg/ulfa/seed2": record(0.8, 0.2, []),
            "celtibero/ulfa/seed1": record(0.7, 0.3, []),
            "celtibero/ulfa/seed2": record(0.6, 0.4, [1]),
            "fedavg/tlfa/seed1": record(0.9, 0.5, []),
            "fedavg/tlfa/seed2": record(0.8, 0.2, [1]),
            # A zero final-round reference on one seed: the ASR of 0 reads as nothing.
            "celtibero/tlfa/seed1": record(0.25, 0.0, [0, 1, 2]),
            "celtibero/tlfa/seed2": record(0.9, 0.1, []),
        }.items()
    }
    cells = grid.cells(records, rules, attacks, (1, 2), {"iid/0.4": grid.SETTINGS["iid/0.4"]})
    by_cell = {(c["rule"], c["attack"]): c for c in cells["settings"][0]["cells"]}
    assert by_cell["celtibero", "tlfa"]["asr_median"] is None
    assert by_cell["celtibero", "tlfa"]["zero_reference_rounds"] == 3
    assert by_cell["fedavg", "tlfa"]["asr_worst"] == 0.5
    text = grid.render(cells)
    ((heading, rows),) = tables(text, grid._row(grid.CELL_COLUMNS))
    assert heading == "## iid shares, 40 % attackers"
    assert rows == [
        ["fedavg", "ulfa", "0.850", "0.800", "0.150", "0.200", "0/2 [0.000, 0.658]"],
        ["fedavg", "tlfa", "0.850", "0.800", "0.350", "0.500", "1/2 [0.095, 0.905]"],
        ["celtibero", "ulfa", "0.650", "0.600", "0.350", "0.400", "0/2 [0.000, 0.658]"],
        [
            "celtibero", "tlfa", "0.575", "0.250", "undefined (3 rounds)", "—",
            "1/2 [0.095, 0.905] MTA only",
        ],
    ]
    ((_, wins),) = tables(text, grid._row(grid.WIN_COLUMNS))
    assert wins == [["fedavg", "ulfa", "2-0-0", "2-0-0"], ["fedavg", "tlfa", "1-0-1", "—"]]


def test_a_run_fails_at_either_threshold():
    grid = load_grid()
    assert (grid.FAIL_ASR, grid.FAIL_MTA) == (0.5, 0.5)
    rules = {"celtibero": grid.RULES["celtibero"]}
    attacks = {name: grid.ATTACKS[name] for name in ("none", "mra-3", "ulfa")}
    seeds = (1, 2, 3, 4)

    def record(mta, asr, zero_rounds=()):
        return {
            "final_mta": mta, "final_asr": asr, "rounds_completed": 3,
            "zero_reference_rounds": list(zero_rounds),
        }

    by_attack = {
        # No attack reports ASR 0: only an MTA at or below the threshold fails.
        "none": [record(0.5, 0.0), record(0.501, 0.0), record(0.2, 0.0), record(0.99, 0.0)],
        # An ASR at or above the threshold fails, and so does a low MTA.
        "mra-3": [record(0.9, 0.5), record(0.9, 0.499), record(0.5, 0.0), record(0.4, 1.0)],
        # An undefined ASR (seed 4's final reference accuracy was 0) counts
        # failures on MTA alone, so ASRs of 1.0 fail nothing.
        "ulfa": [record(0.9, 1.0), record(0.3, 1.0), record(0.9, 0.7), record(0.9, 0.0, [2])],
    }
    records = {
        f"iid/0.2/celtibero/{attack}/seed{seed}": found[seed - 1]
        for attack, found in by_attack.items()
        for seed in seeds
    }
    cells = grid.cells(records, rules, attacks, seeds, {"iid/0.2": grid.SETTINGS["iid/0.2"]})
    failures = {c["attack"]: c["failures"] for c in cells["settings"][0]["cells"]}
    assert failures == {"none": 2, "mra-3": 3, "ulfa": 1}
    ((_, rows),) = tables(grid.render(cells), grid._row(grid.CELL_COLUMNS))
    assert [row[6] for row in rows] == [
        "2/4 [0.150, 0.850]", "3/4 [0.301, 0.954]", "1/4 [0.046, 0.699] MTA only",
    ]


def test_a_diverged_run_fails_and_ranks_below_every_run_that_ended(tmp_path):
    grid = load_grid()
    # A learning rate of 1e300 takes the first client's weights out of the
    # finite floats in round 0, which the round raises as a RoundError.
    raw = dict(
        grid.runs()["iid/0.2/fedavg/mra-3/seed1"], rounds=2, training={"learning_rate": 1e300}
    )
    path = tmp_path / "run.json"
    with np.errstate(over="ignore", invalid="ignore"):
        grid._run_one(("run", raw, str(path)))
    diverged = json.loads(path.read_text())
    assert list(diverged) == ["run", "config", "diverged"]
    assert diverged["diverged"].startswith("round 0: client ")

    def record(mta, asr):
        return {
            "final_mta": mta, "final_asr": asr, "rounds_completed": 3,
            "zero_reference_rounds": [],
        }

    records = {
        f"iid/0.2/{name}": value
        for name, value in {
            "fedavg/mra-3/seed1": diverged,
            "fedavg/mra-3/seed2": record(0.9, 0.1),
            "fedavg/mra-3/seed3": diverged,
            "celtibero/mra-3/seed1": diverged,
            "celtibero/mra-3/seed2": record(0.8, 0.2),
            "celtibero/mra-3/seed3": record(0.9, 0.0),
        }.items()
    }
    rules = {name: grid.RULES[name] for name in ("fedavg", "celtibero")}
    attacks = {"mra-3": grid.ATTACKS["mra-3"]}
    settings = {"iid/0.2": grid.SETTINGS["iid/0.2"]}
    cells = grid.cells(records, rules, attacks, (1, 2, 3), settings)
    fedavg, celtibero = cells["settings"][0]["cells"]
    assert fedavg["mta_by_seed"] == ["diverged", 0.9, "diverged"]
    assert celtibero["asr_by_seed"] == ["diverged", 0.2, 0.0]
    json.dumps(cells, allow_nan=False)  # no infinity reaches grid.json
    text = grid.render(cells)
    ((_, rows),) = tables(text, grid._row(grid.CELL_COLUMNS))
    assert rows == [
        ["fedavg", "mra-3", "diverged", "diverged", "diverged", "diverged", "2/3 [0.208, 0.939]"],
        ["celtibero", "mra-3", "0.800", "diverged", "0.200", "diverged", "1/3 [0.061, 0.792]"],
    ]
    # Seed by seed: both diverged (a tie), fedavg ahead, fedavg diverged.
    ((_, wins),) = tables(text, grid._row(grid.WIN_COLUMNS))
    assert wins == [["fedavg", "mra-3", "1-1-1", "1-1-1"]]


@pytest.mark.parametrize(
    "k, want", [(0, (0.0, 0.278)), (2, (0.057, 0.510)), (5, (0.237, 0.763)), (10, (0.722, 1.0))]
)
def test_wilson_bounds_of_ten_seeds(k, want):
    grid = load_grid()
    low, high = grid.wilson(k, 10)
    assert (low, high) == pytest.approx(want, abs=5e-4)
    assert 0.0 <= low <= k / 10 <= high <= 1.0


def test_committed_grid_is_current():
    """``grid.json`` holds the grid's own README config, seeds, thresholds,
    tables and settings, and ``GRID.md`` is its rendering: an edit to
    README's config or to a grid table that reaches the runs, made without
    a rerun of the grid, fails here. Starts no runs."""
    grid = load_grid()
    stored = json.loads((REPO / "experiments" / "grid.json").read_text())
    ours = {
        "base_config": grid.BASE,
        "seeds": grid.SEEDS,
        "fail_asr": grid.FAIL_ASR,
        "fail_mta": grid.FAIL_MTA,
        "rules": grid.RULES,
        "attacks": grid.ATTACKS,
    }
    assert {key: stored[key] for key in ours} == json.loads(json.dumps(ours))
    settings = [[s["name"], s["changes"]] for s in stored["settings"]]
    assert settings == json.loads(json.dumps(list(grid.SETTINGS.items())))
    text = (REPO / "experiments" / "GRID.md").read_text()
    assert text == grid.render(stored)
    assert [heading for heading, _ in tables(text, grid._row(grid.CELL_COLUMNS))][-2:] == [
        "## Dirichlet alpha 0.1 shares, 40 % attackers",
        "## iid shares, 40 % attackers, `dataset.classes: 10`, `dataset.features: 784`, "
        "`architecture.hidden: [64]`",
    ]
