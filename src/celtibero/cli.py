"""Command-line front end.

``celtibero run config.yaml [--seed N] [--out DIR] [--quiet]``, or
``python -m celtibero.cli run ...``, executes one experiment and writes
``rounds.csv`` plus ``summary.json``. Exit codes: 0 on success, 1 on
configuration errors, 2 on runtime failures. The output directory resolves
as ``--out``, then the config's ``output_dir``, then the ``CELTIBERO_OUT``
environment variable, then ``./out``; it is created before the experiment
runs, so a path that cannot be a directory fails at once.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import config_from_dict, config_to_dict, parse_config
from .errors import ConfigError
from .orchestrator import run_experiment
from .reports import emit_reports

__all__ = ["main", "run", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "CELTIBERO_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celtibero",
        description="Simulate federated learning under poisoning attacks and robust aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="run one experiment from a YAML config")
    runner.add_argument("config", help="path to the experiment config")
    runner.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    runner.add_argument("--out", default=None, help="output directory for reports")
    runner.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _config_error(path: str, exc: ConfigError) -> int:
    """Print every violation of the config at ``path``; the exit code is 1."""
    print(f"config error: {path}", file=sys.stderr)
    for violation in exc.violations:
        print(f"  - {violation}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = config_from_dict({**config_to_dict(cfg), "seed": args.seed})
    except ConfigError as exc:
        return _config_error(args.config, exc)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "out"
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        result = run_experiment(cfg)
        csv_path, summary_path = emit_reports(result.reports, result.summary, out_dir)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(
            f"completed {result.summary['rounds_completed']} rounds: "
            f"mta={result.summary['final_mta']:.4f} asr={result.summary['final_asr']:.4f}"
        )
        print(f"wrote {csv_path} and {summary_path}")
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
