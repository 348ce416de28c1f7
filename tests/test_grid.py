"""Tests of ``experiments/grid.py``: a smoke test of two cells cut to 3
rounds, run in this process and tabulated; the zero-reference rounds a run
records and the undefined cells they make; and the README config the grid
and ``tools/identity_set.py`` share."""

import importlib.util
import json
import os
import re
from pathlib import Path
from unittest import mock

import yaml

from celtibero import config_from_dict, run_experiment

REPO = Path(__file__).resolve().parent.parent
GRID_PATH = REPO / "experiments" / "grid.py"


def load_grid():
    spec = importlib.util.spec_from_file_location("experiments_grid", GRID_PATH)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the grid pins BLAS threads for its own runs
        spec.loader.exec_module(module)
    return module


def table_rows(text, header):
    """The rows of the markdown table whose header row is ``header``, split
    into cells."""
    lines = text.splitlines()
    start = lines.index(header)
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_two_cells_fill_both_tables(tmp_path):
    grid = load_grid()
    assert len(grid.runs()) == 135
    rules = {name: grid.RULES[name] for name in ("fedavg", "celtibero")}
    attacks = {"mra-1e150": grid.ATTACKS["mra-1e150"]}
    configs = grid.runs(rules, attacks, seeds=(1, 2), rounds=3)
    assert len(configs) == 4
    records = grid.run_all(configs, tmp_path, workers=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name.replace('/', '__')}.json" for name in configs
    )
    assert all(r["rounds_completed"] == 3 for r in records.values())
    # A second call reads the files back instead of running again.
    (tmp_path / "fedavg__mra-1e150__seed1.json").write_text(
        json.dumps(dict(records["fedavg/mra-1e150/seed1"], final_mta=0.5))
    )
    assert grid.run_all(configs, tmp_path, workers=1)["fedavg/mra-1e150/seed1"]["final_mta"] == 0.5

    cells = grid.cells(records, rules, attacks, (1, 2))
    text = grid.render(cells)
    rows = table_rows(text, grid._row(grid.CELL_COLUMNS))
    assert rows[0] == list(grid.CELL_COLUMNS)
    assert [row[:2] for row in rows[2:]] == [["fedavg", "mra-1e150"], ["celtibero", "mra-1e150"]]
    for row, cell in zip(rows[2:], cells["cells"]):
        mta = [records[f"{cell['rule']}/mra-1e150/seed{s}"]["final_mta"] for s in (1, 2)]
        assert cell["mta_worst"] == min(mta)
        assert all(0.0 <= float(value) <= 1.0 for value in row[2:])
    wins = table_rows(text, grid._row(grid.WIN_COLUMNS))
    assert wins[0] == list(grid.WIN_COLUMNS)
    ((rule, attack, mta_wins, asr_wins),) = wins[2:]
    assert (rule, attack) == ("fedavg", "mra-1e150")
    for record in (mta_wins, asr_wins):
        assert sum(int(count) for count in record.split("-")) == 2


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
    }
    cells = grid.cells(records, rules, attacks, (1, 2))
    by_cell = {(c["rule"], c["attack"]): c for c in cells["cells"]}
    assert by_cell["celtibero", "tlfa"]["asr_median"] is None
    assert by_cell["celtibero", "tlfa"]["zero_reference_rounds"] == 3
    assert by_cell["fedavg", "tlfa"]["asr_worst"] == 0.5
    text = grid.render(cells)
    rows = table_rows(text, grid._row(grid.CELL_COLUMNS))[2:]
    assert rows == [
        ["fedavg", "ulfa", "0.850", "0.800", "0.150", "0.200"],
        ["fedavg", "tlfa", "0.850", "0.800", "0.350", "0.500"],
        ["celtibero", "ulfa", "0.650", "0.600", "0.350", "0.400"],
        ["celtibero", "tlfa", "0.575", "0.250", "undefined (3 rounds)", "—"],
    ]
    wins = table_rows(text, grid._row(grid.WIN_COLUMNS))[2:]
    assert wins == [["fedavg", "ulfa", "2-0-0", "2-0-0"], ["fedavg", "tlfa", "1-0-1", "—"]]


def test_readme_quick_start_is_the_readme_config():
    grid = load_grid()
    readme = (REPO / "README.md").read_text()
    quick_start = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    assert yaml.safe_load(quick_start) == grid._IDENTITY_SET.README_CONFIG
