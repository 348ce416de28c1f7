"""Round CSV and summary JSON emission."""

import errno
import json
from pathlib import Path

import pytest

from celtibero import CSV_HEADER, ClusterVerdict, RoundReport, emit_reports


def plain_report(round_index=0, participants=5):
    return RoundReport(
        round_index=round_index,
        participants=tuple(range(participants)),
        mta=0.875,
        per_class={0: 1.0, 1: 0.75},
        asr=0.125,
        verdicts=None,
        wall_ms=12.5,
    )


def verdict_report():
    layer_a = ClusterVerdict(benign=(0, 1, 2), poisoned=(3, 4), score_1=0.8, score_2=0.1)
    layer_b = ClusterVerdict(benign=(1, 2, 3, 4), poisoned=(0,), score_1=0.0, score_2=0.9)
    return RoundReport(
        round_index=1,
        participants=(0, 1, 2, 3, 4),
        mta=0.5,
        per_class={},
        asr=0.25,
        verdicts=(layer_a, layer_b),
        wall_ms=7.0,
    )


class TestEmitReports:
    def test_header_and_row_layout(self, tmp_path):
        csv_path, _ = emit_reports([plain_report()], {}, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[0] == "round,participants,mta,asr,benign_count,poisoned_count,wall_ms"
        assert lines[1] == "0,5,0.875,0.125,5.0,0.0,12.5"

    def test_verdict_counts_average_across_layers(self, tmp_path):
        csv_path, _ = emit_reports([verdict_report()], {}, tmp_path)
        row = csv_path.read_text().splitlines()[1].split(",")
        assert row[4] == "3.5"  # mean of benign sizes 3 and 4
        assert row[5] == "1.5"  # mean of poisoned sizes 2 and 1

    def test_full_precision_numbers_round_trip(self, tmp_path):
        mta = 0.123456789012345678
        report = RoundReport(0, (0, 1), mta, {}, 0.0, None, 3.0)
        csv_path, _ = emit_reports([report], {}, tmp_path)
        row = csv_path.read_text().splitlines()[1].split(",")
        assert float(row[2]) == mta

    def test_summary_json_round_trips(self, tmp_path):
        summary = {"final_mta": 0.97, "rounds_completed": 2, "participants": [[0, 1]]}
        _, summary_path = emit_reports([], summary, tmp_path)
        assert summary_path.name == "summary.json"
        assert json.loads(summary_path.read_text()) == summary

    def test_creates_nested_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        csv_path, summary_path = emit_reports([], {}, out)
        assert csv_path == out / "rounds.csv"
        assert csv_path.exists() and summary_path.exists()

    def test_no_staging_files_left_behind(self, tmp_path):
        emit_reports([plain_report()], {"k": 1}, tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rounds.csv", "summary.json"]

    def test_unserializable_summary_keeps_the_old_pair(self, tmp_path):
        emit_reports([plain_report()], {"run": 1}, tmp_path)
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(TypeError):
            emit_reports([plain_report(), verdict_report()], {"run": object()}, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old

    def test_failed_staging_write_keeps_the_old_pair(self, tmp_path, monkeypatch):
        emit_reports([plain_report()], {"run": 1}, tmp_path)
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_text = Path.write_text

        def disk_full_on_summary(path, text):
            if path.name != "summary.json.tmp":
                return write_text(path, text)
            write_text(path, text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full_on_summary)
        with pytest.raises(OSError, match="No space left"):
            emit_reports([plain_report(), verdict_report()], {"run": 2}, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old

    def test_unusable_output_path_raises_oserror(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("occupied")
        with pytest.raises(OSError):
            emit_reports([plain_report()], {}, blocker / "sub")

    def test_empty_report_list_writes_header_only(self, tmp_path):
        csv_path, _ = emit_reports([], {}, tmp_path)
        assert csv_path.read_text() == ",".join(CSV_HEADER) + "\n"