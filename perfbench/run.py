"""Benchmark for the celtibero simulator.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload is a closed loop of whole
experiments, one at a time, through the same public path as ``celtibero
run``: ``config_from_dict`` -> ``run_experiment`` -> ``emit_reports`` into a
temporary directory. Experiments repeat until ``--seconds`` is used up (at
least two per run), and every experiment's outputs go through the
correctness gate. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
the gate failed.

``--trace 0`` wraps only ``Experiment.__init__`` and ``Experiment.run_round``
and reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced experiments, reports the per-module metrics from the traced ones, and
the tracing overhead as the gap between the two kinds' ``experiment_s``.

Spans and a result record (with the environment) are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, so every run uses the same BLAS parallelism.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from probes import ROUND, SELF_SUM_TOLERANCE_S, SETUP, Probes, module_metrics  # noqa: E402
from probes import self_sum_residuals  # noqa: E402
from replay import verdict_mismatches  # noqa: E402
from spans import Tracer, children_index, in_call_order  # noqa: E402
from speed import SpeedLog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_EXPERIMENTS = 2


def load_program():
    """Import the simulator from this checkout's ``src``, never from an
    installed copy, so the benchmark measures the code beside it."""
    package = SRC / "celtibero"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {package}")
    sys.path.insert(0, str(SRC))
    import celtibero

    if Path(celtibero.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported celtibero from {celtibero.__file__}, not {package}")
    return celtibero


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_experiment(cb, raw: dict, out_dir: Path) -> tuple[float, float]:
    """One experiment along the ``celtibero run`` path; returns its start and
    end. Functions are looked up on the package at call time, so installed
    probes see the calls."""
    started = time.perf_counter()
    cfg = cb.config_from_dict(raw)
    result = cb.run_experiment(cfg)
    cb.emit_reports(result.reports, result.summary, out_dir)
    return started, time.perf_counter()


def read_outputs(out_dir: Path) -> tuple[bytes, list[list[str]]]:
    """``summary.json`` bytes and ``rounds.csv`` rows without ``wall_ms``."""
    summary = (out_dir / "summary.json").read_bytes()
    with open(out_dir / "rounds.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    wall = rows[0].index("wall_ms")
    return summary, [row[:wall] + row[wall + 1 :] for row in rows]


def oracle_problems(spans, matrices, summary: dict, linkage: str) -> list[str]:
    """Replay the round-0 verdict of every layer from the distance matrices
    the traced wrapper captured. The attacked federation runs last, so its
    round 0 is the ``rounds_completed``-th round span from the end."""
    rounds = [s for s in spans if s.name == ROUND]
    if summary["rounds_completed"] == 0:
        return []
    kids = children_index(spans)
    round0 = rounds[-summary["rounds_completed"]]
    aggregate = in_call_order(kids.get(round0.id, ()), "aggregators.aggregate")
    celtibero = in_call_order(kids.get(aggregate[0].id, ()), "aggregators.celtibero")
    distance = in_call_order(kids.get(celtibero[0].id, ()), "clustering.distance")
    layers = summary["verdict_history"][0]["layers"]
    return verdict_mismatches([matrices[s.id] for s in distance], layers, linkage)


def bench_workload(cb, workload, seed: int, seconds: float, trace: bool) -> dict:
    raw = workload.config_for(seed)
    tracer = Tracer()
    speed = SpeedLog(workload.calibration)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    experiments: list[dict] = []
    expected = first_peak_mb = None
    deadline = time.perf_counter() + seconds
    try:
        while True:
            gc.collect()  # the previous experiment's garbage must not add to this one's peak
            started = time.perf_counter()
            run = tracer.run = len(experiments)
            record = {"run": run, "traced": trace and run % 2 == 1, "problems": []}
            experiments.append(record)
            probes = Probes(tracer, record["traced"])
            probes.install()
            try:
                with speed.sampling():
                    t0, t1 = run_experiment(cb, raw, scratch / f"run{run}")
            except Exception:  # noqa: BLE001 - a failed experiment is counted, not fatal
                record["problems"].append(traceback.format_exc())
                break
            finally:
                probes.uninstall()
            if run == 0:
                # A fresh process, as for `celtibero run`; later experiments
                # in the same process only add allocator fragmentation.
                first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["experiment_wall_s"] = t1 - t0 - speed.inside(t0, t1)
            record["experiment_s"] = speed.rescaled(t0, t1)
            try:
                outputs = gate(tracer, speed, probes, record, scratch / f"run{run}", raw, expected)
            except Exception:  # noqa: BLE001 - outputs the gate cannot read are a failure
                record["problems"].append(traceback.format_exc())
                break
            expected = expected or outputs
            record["iteration_s"] = time.perf_counter() - started
            # Start another experiment if it is expected to end before the
            # deadline or less than half an experiment after it, so runs
            # average --seconds.
            upcoming = statistics.median(e["iteration_s"] for e in experiments)
            if len(experiments) >= MIN_EXPERIMENTS and time.perf_counter() + upcoming / 2 > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = json.loads(expected[0]) if expected else None
    return {
        "experiments": experiments,
        "tracer": tracer,
        "summary": summary,
        "speed": speed,
        "peak_rss_mb": first_peak_mb,
    }


def gate(tracer, speed, probes, record, out_dir, raw, expected):
    """Correctness checks on one finished experiment. Problems are appended
    to ``record['problems']`` and its raw and rescaled times are added to ``record``;
    returns the outputs later experiments must reproduce."""
    problems = record["problems"]
    summary_bytes, rows = read_outputs(out_dir)
    summary = json.loads(summary_bytes)
    if len(rows) - 1 != raw["rounds"] or summary["rounds_completed"] != raw["rounds"]:
        problems.append(
            f"{len(rows) - 1} csv rows and {summary['rounds_completed']} rounds "
            f"completed for {raw['rounds']} configured"
        )
    if expected is not None:
        if summary_bytes != expected[0]:
            problems.append("summary.json differs from the first experiment of this run")
        if rows != expected[1]:
            problems.append("rounds.csv differs from the first experiment of this run outside wall_ms")
    spans = [s for s in tracer.spans if s.run == record["run"]]
    rounds = [s for s in spans if s.name == ROUND]
    if record["traced"]:
        worst = max(self_sum_residuals(spans), default=0.0)
        if worst > SELF_SUM_TOLERANCE_S:
            problems.append(f"round self times miss the round wall time by {worst:.3g} s")
        if raw["aggregator"]["kind"] == "celtibero":
            linkage = raw["aggregator"]["linkage"]
            problems.extend(oracle_problems(spans, probes.matrices, summary, linkage))
    setups = [s for s in spans if s.name == SETUP]
    record["setup_wall_s"] = sum(s.duration for s in setups)
    record["setup_s"] = sum(speed.rescaled(s.start, s.end) for s in setups)
    record["round_wall_s"] = [s.duration for s in rounds]
    record["round_s"] = [speed.rescaled(s.start, s.end) for s in rounds]
    record["participants"] = sum(s.counts["participants"] for s in rounds)
    return summary_bytes, rows


def end_to_end(experiments, summary, peak_rss_mb) -> dict[str, tuple[float, str, str]]:
    """``name -> (value, unit, sample note)`` from the untraced experiments;
    times are rescaled to a quiet machine (see ``speed.py``)."""
    plain = [e for e in experiments if not e["traced"] and not e["problems"]]
    if not plain:
        return {}
    round_s = [t for e in plain for t in e["round_s"]]
    loop_s = sum(round_s)
    updates = sum(e["participants"] for e in plain)
    failed = sum(1 for e in experiments if e["problems"])
    n = len(plain)
    return {
        "setup_s": (statistics.median(e["setup_s"] for e in plain), "s", f"median of {n}"),
        "experiment_s": (statistics.median(e["experiment_s"] for e in plain), "s", f"median of {n}"),
        "round_ms_p50": (1000.0 * statistics.median(round_s), "ms", f"median of {len(round_s)} rounds"),
        "client_updates_per_s": (updates / loop_s, "1/s", f"{updates} updates in {loop_s:.3f} s of rounds"),
        "peak_rss_mb": (peak_rss_mb, "MB", "process high-water mark after the first experiment"),
        "final_mta": (summary["final_mta"], "ratio", "deterministic per seed"),
        "final_asr": (summary["final_asr"], "ratio", "deterministic per seed"),
        "failed_frac": (failed / len(experiments), "ratio", f"{failed} of {len(experiments)}"),
    }


# End-to-end metrics kept out of the JSON result: both result figures swing
# with the seed on neurotoxin-wide-n20 and final_asr and failed_frac are
# normally 0, so a share-of-median bound cannot hold them. They are printed,
# and failures count in "failed" and make the run incorrect.
_PRINT_ONLY = ("final_mta", "final_asr", "failed_frac")


def per_module(result) -> dict[str, tuple[float, str, str]]:
    experiments = result["experiments"]
    traced = [e for e in experiments if e["traced"] and not e["problems"]]
    plain = [e for e in experiments if not e["traced"] and not e["problems"]]
    if not traced or not plain or result["summary"] is None:
        return {}
    ids = {e["run"] for e in traced}
    spans = [s for s in result["tracer"].spans if s.run in ids]
    out = {
        name: (value, unit, f"{len(traced)} traced experiments")
        for name, (value, unit) in module_metrics(spans, len(traced), result["summary"]).items()
    }
    overhead = statistics.median(e["experiment_s"] for e in traced) / statistics.median(
        e["experiment_s"] for e in plain
    ) - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio", f"{len(traced)} traced vs {len(plain)} untraced")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    cb = load_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        env = environment(seed)
        result = bench_workload(cb, workload, seed, args.seconds, bool(args.trace))
        experiments = result["experiments"]
        bad = [e for e in experiments if e["problems"]]
        if args.trace:
            shown = per_module(result)
        else:
            summary = result["summary"]
            shown = end_to_end(experiments, summary, result["peak_rss_mb"]) if summary else {}
        print(f"env {json.dumps(env)}")
        slowness = result["speed"].slowness
        print(
            f"speed: {len(slowness)} calibration samples ({', '.join(workload.calibration)}), "
            f"slowness median {statistics.median(slowness):.3f}, max {max(slowness):.3f}"
        )
        print(
            f"workload {name} seed {seed} trace {args.trace}: {len(experiments)} experiments "
            f"({sum(e['traced'] for e in experiments)} traced), {len(bad)} failed"
        )
        for e in bad:
            for problem in e["problems"]:
                print(f"  FAILED run {e['run']}: {problem.rstrip()}")
        for metric, (value, unit, note) in shown.items():
            print(f"  {metric:34s} {value:14.6g} {unit:12s} {note}")
        stem = f"{name}-seed{seed}-trace{args.trace}"
        result["tracer"].write(OUT / f"{stem}.spans.jsonl")
        record = {
            "workload": name,
            "env": env,
            "experiments": experiments,
            "calibrations": {"start": result["speed"].starts, "slowness": slowness},
            "metrics": {m: {"value": v, "unit": u, "samples": s} for m, (v, u, s) in shown.items()},
        }
        (OUT / f"{stem}.result.json").write_text(json.dumps(record, indent=1) + "\n")
        attempted += len(experiments)
        failed += len(bad)
        correct = correct and not bad and bool(shown)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit, _) in shown.items():
            if metric not in _PRINT_ONLY:
                metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
