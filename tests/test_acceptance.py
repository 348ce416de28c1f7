"""Acceptance gate: the pinned behavioural criteria for this package.

Every test records one PASS/FAIL/SKIP line (printed in the terminal summary)
before asserting, so a full run always ends with the complete scoreboard.
"""

import itertools
import math
import os
import statistics
from pathlib import Path

import numpy as np
import pytest

from celtibero import (
    LINKAGES,
    ConfigError,
    DistanceMatrix,
    Experiment,
    ModelWeights,
    agglomerative_two_clusters,
    celtibero_aggregate,
    config_from_dict,
    coordinate_median,
    emit_reports,
    init_model,
    run_experiment,
)
from .conftest import layers_of, make_weights, record_criterion, ulfa_config
from .oracles import loss_and_grad, replay_two_clusters


def test_criterion_01_clustering_matches_step_replay_oracle():
    rng = np.random.default_rng(101)
    mismatches = 0
    for trial in range(500):
        n = int(rng.integers(2, 9))
        upper = np.triu(rng.uniform(0.0, 2.0, size=(n, n)), 1)
        entries = upper + upper.T
        linkage = LINKAGES[trial % len(LINKAGES)]
        assignment = agglomerative_two_clusters(DistanceMatrix(entries), linkage)
        got = (
            sorted(int(i) for i in assignment.members(1)),
            sorted(int(i) for i in assignment.members(2)),
        )
        want = replay_two_clusters(entries.tolist(), linkage)
        want = (list(want[0]), list(want[1]))
        if got != want:
            mismatches += 1
    ok = mismatches == 0
    record_criterion(
        1, ok, f"500 random matrices (n<=8, all linkages): {mismatches} oracle disagreements"
    )
    assert ok


def test_criterion_02_hand_computed_detection_scenario():
    global_vec = np.array([0.5, -0.25, 1.0])
    benign_deltas = [
        [1.00, 1.01, 0.99],
        [1.02, 0.98, 1.00],
        [0.97, 1.00, 1.03],
        [1.01, 1.02, 0.98],
        [0.99, 0.97, 1.01],
        [1.03, 1.00, 1.02],
    ]
    locals_ = [make_weights(global_vec + np.asarray(d)) for d in benign_deltas]
    locals_ += [make_weights(global_vec + np.array([-1.0, -1.0, -1.0])) for _ in range(3)]
    out, (verdict,) = celtibero_aggregate(make_weights(global_vec), locals_)
    err = float(np.max(np.abs(layers_of(out)[0] - np.array([1.505, 0.75, 2.005]))))
    ok = (
        err <= 1e-9
        and verdict.benign == (0, 1, 2, 3, 4, 5)
        and verdict.poisoned == (6, 7, 8)
        and verdict.score_2 == 0.0
    )
    record_criterion(
        2,
        ok,
        f"output error {err:.2e} (<=1e-9), poisoned cluster {verdict.poisoned}, "
        f"identical-update score {verdict.score_2}",
    )
    assert ok


def _loss_with_bump(model, layer, coord, delta, X, y, activation):
    vectors = []
    for k, vec in enumerate(layers_of(model)):
        if k == layer:
            bumped = vec.copy()
            bumped[coord] += delta
            vectors.append(bumped)
        else:
            vectors.append(vec)
    loss, _ = loss_and_grad(ModelWeights(model.shapes(), np.concatenate(vectors)), X, y, activation)
    return loss


def test_criterion_03_analytic_gradients_match_central_differences():
    shapes = [(2, 3, 2), (3, 3, 3), (4, 4, 3), (2, 2, 4), (3, 4, 2)]
    rng = np.random.default_rng(103)
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        sizes = shapes[trial % len(shapes)]
        activation = "relu" if trial % 2 == 0 else "tanh"
        model = init_model(sizes, seed=int(rng.integers(1 << 30)))
        X = rng.uniform(size=(4, sizes[0]))
        y = rng.integers(0, sizes[-1], size=4)
        _, grad = loss_and_grad(model, X, y, activation)
        for k, vec in enumerate(layers_of(model)):
            for c in range(vec.size):
                up = _loss_with_bump(model, k, c, h, X, y, activation)
                down = _loss_with_bump(model, k, c, -h, X, y, activation)
                numeric = (up - down) / (2 * h)
                analytic = float(layers_of(grad)[k][c])
                err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                worst = max(worst, err)
    ok = worst <= 1e-4
    record_criterion(
        3, ok, f"50 networks (<=50 params, relu+tanh): worst relative error {worst:.2e} (<=1e-4)"
    )
    assert ok


def test_criterion_04_iid_backdoor_defense_trend(mra_iid_runs):
    clean_mta = mra_iid_runs["reference"][-1].mta
    fedavg_last = mra_iid_runs["fedavg"][-1]
    celtibero_last = mra_iid_runs["celtibero"][-1]
    wall_s = sum(r.wall_ms for run in mra_iid_runs.values() for r in run) / 1000.0
    ok = (
        fedavg_last.asr >= 0.80
        and celtibero_last.asr <= 0.05
        and celtibero_last.mta >= clean_mta - 0.03
        and wall_s <= 300.0
    )
    record_criterion(
        4,
        ok,
        f"model replacement, iid: fedavg asr {fedavg_last.asr:.3f} (>=0.80), "
        f"celtibero asr {celtibero_last.asr:.3f} (<=0.05), "
        f"celtibero mta {celtibero_last.mta:.3f} vs clean {clean_mta:.3f} (within 0.03), "
        f"all runs {wall_s:.0f}s (<=300s)",
    )
    assert ok


def test_criterion_05_non_iid_defense_while_baselines_break(neurotoxin_runs):
    celtibero_asr = neurotoxin_runs["celtibero"][-1].asr
    krum_asr = neurotoxin_runs["krum"][-1].asr
    coord_median_asr = neurotoxin_runs["coord_median"][-1].asr
    ok = celtibero_asr <= 0.10 and max(krum_asr, coord_median_asr) >= 0.5
    record_criterion(
        5,
        ok,
        f"masked backdoor, dirichlet(0.5): celtibero asr {celtibero_asr:.3f} (<=0.10) "
        f"while krum {krum_asr:.3f} / coord_median {coord_median_asr:.3f} (one >=0.5)",
    )
    assert ok


def test_criterion_06_untargeted_flip_trend(ulfa_runs):
    fedavg_asr = ulfa_runs["fedavg"].reports[-1].asr
    celtibero_asr = ulfa_runs["celtibero"].reports[-1].asr
    ok = fedavg_asr >= 0.05 and celtibero_asr <= 0.02
    record_criterion(
        6,
        ok,
        f"untargeted flipping: fedavg asr {fedavg_asr:.3f} (>=0.05), "
        f"celtibero asr {celtibero_asr:.3f} (<=0.02)",
    )
    assert ok


def test_criterion_06_untargeted_flip_over_seeds():
    """Criterion 6's bound on the median over seeds 1-8, each seed's final
    ASR and the worst seed recorded: one pinned seed can hide a bad one."""
    asr = {
        seed: run_experiment(config_from_dict(ulfa_config("celtibero", seed))).reports[-1].asr
        for seed in range(1, 9)
    }
    median = statistics.median(asr.values())
    worst = max(asr, key=asr.get)
    ok = median <= 0.02
    record_criterion(
        6,
        ok,
        "untargeted flipping, seeds 1-8: celtibero asr "
        + ", ".join(f"{value:.3f}" for value in asr.values())
        + f"; median {median:.4f} (<=0.02), worst seed {worst} ({asr[worst]:.3f})",
    )
    assert ok


def test_criterion_07_median_breakdown_resistance():
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    violations = 0
    exhaustive_cases = 0
    for n in range(3, 8):
        adversaries = math.ceil(n / 2) - 1
        honest = n - adversaries
        benign = np.array(list(itertools.product(grid, repeat=honest)))
        for signs in itertools.product((-1.0, 1.0), repeat=adversaries):
            models = [make_weights(benign[:, k]) for k in range(honest)]
            models += [make_weights(np.full(len(benign), s * 1e9)) for s in signs]
            out = layers_of(coordinate_median(models))[0]
            outside = (out < benign.min(axis=1)) | (out > benign.max(axis=1))
            violations += int(np.sum(outside))
            exhaustive_cases += len(benign)
    rng = np.random.default_rng(107)
    random_cases = 0
    for n in range(3, 16):
        adversaries = math.ceil(n / 2) - 1
        honest = n - adversaries
        width = 80
        benign = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(width, honest))
        signs = rng.choice((-1.0, 1.0), size=(width, adversaries))
        models = [make_weights(benign[:, k]) for k in range(honest)]
        models += [make_weights(signs[:, k] * 1e9) for k in range(adversaries)]
        out = layers_of(coordinate_median(models))[0]
        outside = (out < benign.min(axis=1)) | (out > benign.max(axis=1))
        violations += int(np.sum(outside))
        random_cases += width
    ok = violations == 0
    record_criterion(
        7,
        ok,
        f"{exhaustive_cases} exhaustive + {random_cases} random medians under "
        f"ceil(n/2)-1 unbounded adversaries: {violations} escaped the honest envelope",
    )
    assert ok


def test_criterion_08_bitwise_deterministic_reruns(tmp_path):
    cfg = config_from_dict(ulfa_config("celtibero"))
    emitted = []
    for name in ("first", "second"):
        result = run_experiment(cfg)
        csv_path, summary_path = emit_reports(result.reports, result.summary, tmp_path / name)
        emitted.append((csv_path.read_text(), summary_path.read_text()))

    def drop_wall_column(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    csv_match = drop_wall_column(emitted[0][0]) == drop_wall_column(emitted[1][0])
    summary_match = emitted[0][1] == emitted[1][1]
    ok = csv_match and summary_match
    record_criterion(
        8,
        ok,
        f"two fresh runs of one config: csv identical minus wall clock {csv_match}, "
        f"summary byte-identical {summary_match}",
    )
    assert ok


def test_criterion_09_threat_model_guardrails(mra_iid_runs, neurotoxin_runs, ulfa_runs):
    problems = []
    for fraction in (0.5, 0.7):
        try:
            config_from_dict({"malicious_fraction": fraction})
            problems.append(f"malicious_fraction {fraction} accepted")
        except ConfigError as exc:
            if "strict majority" not in str(exc):
                problems.append(f"fraction {fraction} rejected without the majority rationale")

    all_reports = [r for run in mra_iid_runs.values() for r in run]
    all_reports += [r for run in neurotoxin_runs.values() for r in run]
    for result in ulfa_runs.values():
        all_reports += list(result.reports) + list(result.reference_reports)
    empty_benign = 0
    out_of_range = 0
    for report in all_reports:
        if not 0.0 <= report.mta <= 1.0 or not 0.0 <= report.asr <= 1.0:
            out_of_range += 1
        for verdict in report.verdicts or ():
            if not verdict.benign:
                empty_benign += 1
    if empty_benign:
        problems.append(f"{empty_benign} verdicts discarded every participant")
    if out_of_range:
        problems.append(f"{out_of_range} reports with metrics outside [0, 1]")
    ok = not problems
    record_criterion(
        9,
        ok,
        "majority-threshold configs rejected with rationale; "
        f"{len(all_reports)} round reports with metrics in range and no empty benign set"
        + ("" if ok else f"; problems: {problems}"),
    )
    assert ok


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def test_criterion_10_mnist_smoke():
    root = os.environ.get("CELTIBERO_MNIST_DIR")
    if not root or not all((Path(root) / name).exists() for name in MNIST_FILES.values()):
        record_criterion(
            10, None, "MNIST IDX files not found (set CELTIBERO_MNIST_DIR to run)"
        )
        pytest.skip("MNIST IDX files not available")
    final = {}
    for aggregator in ("fedavg", "celtibero"):
        cfg = config_from_dict(
            {
                "dataset": {
                    "kind": "mnist_idx",
                    **{key: str(Path(root) / name) for key, name in MNIST_FILES.items()},
                    "train_subset": 2000,
                },
                "clients": 20,
                "rounds": 20,
                "local_epochs": 3,
                "participation": [1.0, 1.0],
                "architecture": {"hidden": [32]},
                "aggregator": {"kind": aggregator},
                "seed": 7,
            }
        )
        final[aggregator] = Experiment(cfg).run()[-1].mta
    ok = all(mta >= 0.85 for mta in final.values())
    record_criterion(
        10,
        ok,
        "mnist 2000-sample subset, 20 rounds: "
        + ", ".join(f"{agg} mta {mta:.3f}" for agg, mta in final.items())
        + " (each >=0.85)",
    )
    assert ok