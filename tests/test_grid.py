"""Smoke test of ``experiments/grid.py``: two cells of the grid, cut to 3
rounds, run in this process and tabulated."""

import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

GRID_PATH = Path(__file__).resolve().parent.parent / "experiments" / "grid.py"


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
    assert len(grid.runs()) == 90
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
