"""Round-series CSV and run-summary JSON, written atomically.

The CSV column set is fixed (``round,participants,mta,asr,benign_count,
poisoned_count,wall_ms``) and numbers are serialized at full precision, so
re-running with the same config reproduces the file byte for byte apart from
the wall-clock column. Files are staged to a temporary sibling and renamed
into place, both before either is replaced, so a failed write or an
unserializable summary leaves a reused directory's old pair untouched and no
staging file behind.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from pathlib import Path

__all__ = ["CSV_HEADER", "emit_reports"]

CSV_HEADER = ("round", "participants", "mta", "asr", "benign_count", "poisoned_count", "wall_ms")


def _mean_verdict_counts(report) -> tuple[float, float]:
    """Benign/poisoned counts for the CSV row.

    Layer verdicts can differ, so for the layered aggregator these are the
    mean set sizes across layers; other aggregators keep every participant.
    """
    if report.verdicts is None:
        return float(len(report.participants)), 0.0
    benign = sum(len(v.benign) for v in report.verdicts) / len(report.verdicts)
    poisoned = sum(len(v.poisoned) for v in report.verdicts) / len(report.verdicts)
    return float(benign), float(poisoned)


def emit_reports(reports, summary: dict, out_dir) -> tuple[Path, Path]:
    """Write ``rounds.csv`` and ``summary.json`` under ``out_dir``.

    Returns the two paths. Raises ``OSError``, leaving no file behind, when
    the directory cannot be created or written into: an unwritable one fails
    at the first staged write.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        benign, poisoned = _mean_verdict_counts(report)
        writer.writerow(
            [
                report.round_index,
                len(report.participants),
                float(report.mta),
                float(report.asr),
                benign,
                poisoned,
                float(report.wall_ms),
            ]
        )
    csv_path, summary_path = out / "rounds.csv", out / "summary.json"
    texts = {csv_path: buffer.getvalue(), summary_path: json.dumps(summary, indent=2) + "\n"}
    # Both files are staged before either replaces its target, so a failure
    # leaves the targets as they were and removes what it staged.
    staged = []
    try:
        for path, text in texts.items():
            staging = path.with_name(path.name + ".tmp")
            staged.append(staging)
            staging.write_text(text)
    except BaseException:
        for staging in staged:
            with contextlib.suppress(OSError):  # the write's own error is the one to raise
                staging.unlink()
        raise
    for staging, path in zip(staged, texts):
        os.replace(staging, path)
    return csv_path, summary_path
