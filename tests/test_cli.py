"""Command-line entry point: exit codes, output routing, and overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from celtibero import cli

# The loader builds only plain types, so a date or timestamp has no constructor.
NO_TIMESTAMP = "could not determine a constructor for the tag 'tag:yaml.org,2002:timestamp'"


def write_config(tmp_path, name="config.yaml", **overrides):
    raw = {
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "samples": 120,
            "features": 6,
            "separation": 3.0,
            "test_samples": 60,
        },
        "clients": 6,
        "attack": {"kind": "none"},
        "aggregator": {"kind": "fedavg"},
        "rounds": 1,
        "local_epochs": 1,
        "participation": [1.0, 1.0],
        "architecture": {"hidden": [5]},
        "training": {"learning_rate": 0.05, "batch_size": 16},
        "seed": 3,
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestRunCommand:
    def test_successful_run_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "completed 1 rounds" in stdout
        assert "wrote" in stdout

    def test_quiet_suppresses_progress_output(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["run", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_config_violations_exit_1_and_land_on_stderr(self, tmp_path, capsys):
        config = write_config(tmp_path, clients=1, rounds=-1)
        assert cli.main(["run", str(config)]) == 1
        stderr = capsys.readouterr().err
        assert "config error" in stderr
        assert "clients" in stderr
        assert "rounds" in stderr
        assert stderr.count("  - ") == 2

    def test_empty_trigger_exits_1_with_every_violation(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            clients=-3,
            malicious_fraction=0.2,
            attack={"kind": "mra", "trigger": {"positions": [], "values": []}},
        )
        assert cli.main(["run", str(config)]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("config error")
        assert "  - top level.clients: must be >= 2, got -3" in stderr
        assert "  - attack.trigger: trigger needs at least one position" in stderr
        assert stderr.count("  - ") == 2

    @pytest.mark.parametrize("text", [b"rounds: 3\nseed: \xff\xfe\n", b"rounds: 3\nseed: \x01\n"])
    def test_undecodable_config_exits_1_as_a_syntax_error(self, tmp_path, capsys, text):
        config = tmp_path / "bad.yaml"
        config.write_bytes(text)
        assert cli.main(["run", str(config)]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"config error: {config}\n  - syntax error: ")
        assert stderr.count("\n") == 2

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "absent.yaml")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_seed_override_lands_in_summary(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out), "--seed", "99"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 99

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["run", str(config), "--seed", "-1"]) == 1
        assert "top level.seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_unmakeable_output_directory_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        config = write_config(tmp_path)
        out = config / "sub"
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: ran.append(cfg))
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert ran == []

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        absent = str(tmp_path / "absent-idx")
        dataset = {
            "kind": "mnist_idx",
            "train_images": absent,
            "train_labels": absent,
            "test_images": absent,
            "test_labels": absent,
        }
        config = write_config(tmp_path, dataset=dataset)
        assert cli.main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestModuleEntryPoint:
    """``python -m celtibero.cli`` runs the same command as ``celtibero``."""

    def run_module(self, *args, cwd):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "celtibero.cli", "run", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=120,
        )

    def test_valid_config_runs_and_exits_0(self, tmp_path):
        config = write_config(tmp_path)
        done = self.run_module(str(config), "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("completed 1 rounds: mta=")
        assert (tmp_path / "o" / "summary.json").exists()

    def test_violations_exit_1_with_every_violation_listed(self, tmp_path):
        config = write_config(tmp_path, clients=1, rounds=-1)
        done = self.run_module(str(config), cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(f"config error: {config}")
        assert "  - top level.clients: must be >= 2, got 1" in done.stderr
        assert "rounds" in done.stderr
        assert done.stderr.count("  - ") == 2

    def test_bad_trigger_position_exits_1_without_a_traceback(self, tmp_path):
        config = write_config(
            tmp_path,
            dataset={"kind": "synthetic", "features": "wide"},
            malicious_fraction=0.2,
            attack={"kind": "mra", "trigger": {"positions": [-1], "values": [1.0]}},
        )
        done = self.run_module(str(config), cwd=tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"config error: {config}")
        assert "  - dataset.features: expected an integer, got 'wide'" in done.stderr
        assert (
            "  - attack.trigger: trigger positions must be nonnegative, got (-1,)" in done.stderr
        )
        assert done.stderr.count("  - ") == 2

    def test_sizes_past_64_bits_exit_1_without_a_traceback(self, tmp_path):
        big = 10**400
        config = write_config(
            tmp_path,
            dataset={"kind": "synthetic", "features": big, "samples": big, "test_samples": big},
            architecture={"hidden": [big]},
        )
        done = self.run_module(str(config), cwd=tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"config error: {config}")
        for key in ("samples", "features", "test_samples"):
            assert f"  - dataset.{key}: expected an integer <= 2**63 - 1, got {big}" in done.stderr
        assert "  - architecture.hidden: expected a list of integers <= 2**63 - 1" in done.stderr
        assert done.stderr.count("  - ") == 4

    @pytest.mark.parametrize(
        "text, violation",
        [
            (f"rounds: 1\nseed: {'9' * 5000}\n", "syntax error at line 2: Exceeds the limit"),
            (
                f"rounds: 1\narchitecture: {{hidden: [{'9' * 5000}]}}\n",
                "syntax error at line 2: Exceeds the limit",
            ),
            ("rounds: 1\noutput_dir: 2024-13-45\n", f"syntax error at line 2: {NO_TIMESTAMP}"),
            ("rounds: 1\noutput_dir: 2024-01-01\n", f"syntax error at line 2: {NO_TIMESTAMP}"),
            ("rounds: 1\noutput_dir: !!timestamp abc\n", f"syntax error at line 2: {NO_TIMESTAMP}"),
            (
                "rounds: 1\noutput_dir: !!binary aGVsbG8=\n",
                "syntax error at line 2: could not determine a constructor for the tag "
                "'tag:yaml.org,2002:binary'",
            ),
            (
                "rounds: 1\nparticipation: !!python/tuple [0.5, 1.0]\n",
                "syntax error at line 2: could not determine a constructor for the tag "
                "'tag:yaml.org,2002:python/tuple'",
            ),
            (
                f"rounds: 1\nseed: 0x{'f' * 4000}\n",
                "top level.seed: expected an integer <= 2**63 - 1, got an integer of 4817 digits",
            ),
        ],
        ids=[
            "seed-5000-digits",
            "hidden-5000-digits",
            "date-month-13",
            "date",
            "explicit-timestamp",
            "binary",
            "python-tuple",
            "hex-seed-4000-digits",
        ],
    )
    def test_values_yaml_cannot_print_or_build_exit_1_without_a_traceback(
        self, tmp_path, text, violation
    ):
        config = tmp_path / "config.yaml"
        config.write_text(text)
        done = self.run_module(str(config), cwd=tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"config error: {config}\n  - {violation}")
        assert done.stderr.count("  - ") == 1


class TestOutputDirPrecedence:
    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        config = write_config(tmp_path, output_dir=str(tmp_path / "cfg"))
        assert cli.main(["run", str(config), "--out", str(tmp_path / "flag"), "--quiet"]) == 0
        assert (tmp_path / "flag" / "rounds.csv").exists()
        assert not (tmp_path / "cfg").exists()
        assert not (tmp_path / "env").exists()

    def test_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        config = write_config(tmp_path, output_dir=str(tmp_path / "cfg"))
        assert cli.main(["run", str(config), "--quiet"]) == 0
        assert (tmp_path / "cfg" / "rounds.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_env_used_when_nothing_else_given(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        config = write_config(tmp_path)
        assert cli.main(["run", str(config), "--quiet"]) == 0
        assert (tmp_path / "env" / "rounds.csv").exists()

    def test_default_directory_is_out(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert cli.main(["run", str(config), "--quiet"]) == 0
        assert (tmp_path / "out" / "rounds.csv").exists()