"""Tests of the benchmark's own arithmetic and oracle.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from probes import ROUND, Probes, module_metrics, self_sum_residuals
from replay import replay_two_clusters, replay_verdict, verdict_mismatches
from speed import WINDOW_S, SpeedLog
from spans import Span, Tracer, children_index, covered, layer_gaps, self_time

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class FakeClock:
    """A clock that only moves when work is simulated."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_with_nested_and_adjacent_children():
    parent = Span(0, "a.parent", None, 0, 0.0, 10.0)
    first = Span(1, "a.first", 0, 0, 1.0, 3.0)
    adjacent = Span(2, "a.adjacent", 0, 0, 3.0, 5.0)
    nested = Span(3, "a.nested", 1, 0, 1.5, 2.0)
    spans = [parent, first, adjacent, nested]
    kids = children_index(spans)
    assert [s.id for s in kids[0]] == [1, 2]
    assert self_time(parent, kids[0]) == pytest.approx(6.0)
    assert self_time(first, kids[1]) == pytest.approx(1.5)
    assert self_time(adjacent, ()) == pytest.approx(2.0)
    total = sum(self_time(s, kids.get(s.id, ())) for s in spans)
    assert total == pytest.approx(parent.duration)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(3.0, 5.0), (1.0, 3.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_tracer_links_parents_and_self_times_sum_to_the_round():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.work(seconds)

    traced_leaf = tracer.wrap(leaf, "model.leaf")

    def round_body():
        clock.work(0.5)
        traced_leaf(1.0)
        traced_leaf(2.0)  # adjacent to the first leaf
        clock.work(0.25)

    tracer.wrap(round_body, ROUND)()
    root, a, b = tracer.spans
    assert (a.parent, b.parent, root.parent) == (root.id, root.id, None)
    assert a.end == b.start
    assert root.duration == pytest.approx(3.75)
    assert self_sum_residuals(tracer.spans) == [pytest.approx(0.0, abs=1e-12)]
    kids = children_index(tracer.spans)
    assert self_time(root, kids[root.id]) == pytest.approx(0.75)


def _celtibero_round(clock, tracer, layer_costs, median_costs):
    """One traced round whose aggregate call walks four network layers, the
    way ``celtibero_aggregate`` does: distance, agglomerate, verdict, median."""
    distance = tracer.wrap(clock.work, "clustering.distance")
    agglomerate = tracer.wrap(clock.work, "clustering.agglomerate")
    verdict = tracer.wrap(clock.work, "clustering.verdict")

    def celtibero():
        for (d, a, v), m in zip(layer_costs, median_costs):
            distance(d)
            agglomerate(a)
            verdict(v)
            clock.work(m)

    aggregate = tracer.wrap(tracer.wrap(celtibero, "aggregators.celtibero"), "aggregators.aggregate")
    tracer.wrap(aggregate, ROUND)()


def test_layers_are_attributed_by_call_order_inside_one_aggregate_call():
    clock = FakeClock()
    tracer = Tracer(clock)
    layer_costs = [(0.008, 0.004, 0.001), (0.002, 0.016, 0.001), (0.001, 0.002, 0.001), (0.004, 0.001, 0.001)]
    median_costs = [0.030, 0.003, 0.020, 0.005]
    _celtibero_round(clock, tracer, layer_costs, median_costs)
    summary = {
        "malicious_clients": [],
        "participants": [[0, 1]],
        "rounds_completed": 1,
        "verdict_history": [],
        "final_mta": 0.5,
        "final_asr": 0.0,
    }
    metrics = module_metrics(tracer.spans, 1, summary)
    for k, ((d, a, _), m) in enumerate(zip(layer_costs, median_costs)):
        assert metrics[f"clustering.distance_ms.L{k}"][0] == pytest.approx(1000 * d)
        assert metrics[f"clustering.agglomerate_ms.L{k}"][0] == pytest.approx(1000 * a)
        assert metrics[f"aggregators.median_ms.L{k}"][0] == pytest.approx(1000 * m)
    assert metrics["clustering.distance_ms"][0] == pytest.approx(1000 * sum(c[0] for c in layer_costs))
    assert metrics["aggregators.celtibero_self_ms"][0] == pytest.approx(1000 * sum(median_costs))
    assert metrics["aggregators.aggregate_share"][0] == pytest.approx(1.0)


def test_layer_gaps_end_at_the_parent_for_the_last_layer():
    parent = Span(0, "p", None, 0, 0.0, 10.0)
    kids = [
        Span(1, "first", 0, 0, 1.0, 2.0),
        Span(2, "last", 0, 0, 2.0, 3.0),
        Span(3, "first", 0, 0, 5.0, 6.0),
        Span(4, "last", 0, 0, 6.0, 7.5),
    ]
    assert layer_gaps(parent, kids, "first", "last") == pytest.approx([2.0, 2.5])


def test_rescaling_uses_the_mean_slowness_near_an_interval_and_drops_sample_time():
    clock = FakeClock()
    kernel_times = iter([0.010, 0.030, 0.020, 0.040])
    speed = SpeedLog(("python",), clock)
    speed.kernels = [(lambda: clock.work(next(kernel_times)), 0.010)]
    gap = WINDOW_S + 1.0
    speed.sample()  # [0.000, 0.010], slowness 1
    clock.work(1.0)
    speed.sample()  # [1.010, 1.040], slowness 3
    clock.work(2.0)
    speed.sample()  # [3.040, 3.060], slowness 2
    clock.work(gap)
    speed.sample()  # [3.060 + gap, 3.100 + gap], slowness 4
    assert speed.slowness == pytest.approx([1.0, 3.0, 2.0, 4.0])
    assert speed.inside(0.0, 3.06) == pytest.approx(0.060)
    assert speed.rescaled(0.010, 1.010) == pytest.approx(1.0 / 2.0)
    assert speed.rescaled(0.010, 3.040) == pytest.approx((3.03 - 0.03) / 2.0)
    assert speed.rescaled(3.060, 3.060 + gap) == pytest.approx(gap / 3.0)


def test_sampling_runs_on_a_timer_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedLog(("blas",))
    with speed.sampling(interval_s=0.02):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(speed.slowness) >= 3
    assert all(x > 0 for x in speed.slowness)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# Five clients whose first merge is a tie between pairs (0, 1) and (1, 2),
# both at 0.25. The documented tie-break takes (0, 1); taking (1, 2) instead
# would end in {0, 1, 2} | {3, 4}. Every value is dyadic, so sums are exact.
TIE_MATRIX = np.array(
    [
        [0.00, 0.25, 1.75, 1.50, 1.50],
        [0.25, 0.00, 0.25, 1.50, 1.50],
        [1.75, 0.25, 0.00, 0.75, 0.75],
        [1.50, 1.50, 0.75, 0.00, 0.50],
        [1.50, 1.50, 0.75, 0.50, 0.00],
    ]
)


def test_replay_breaks_the_tie_toward_the_smallest_pair():
    assert replay_two_clusters(TIE_MATRIX, "average") == ([0, 1], [2, 3, 4])
    verdict = replay_verdict(TIE_MATRIX, "average")
    assert verdict["poisoned"] == (0, 1)
    assert verdict["benign"] == (2, 3, 4)
    assert verdict["score_1"] == pytest.approx(2 * 0.25)
    assert verdict["score_2"] == pytest.approx(3 * 2.0 / 3)


def test_replay_agrees_with_the_simulator_on_the_tie_matrix():
    from celtibero.clustering import DistanceMatrix, agglomerative_two_clusters, label_clusters

    matrix = DistanceMatrix(TIE_MATRIX)
    for linkage in ("average", "single", "complete"):
        program = label_clusters(matrix, agglomerative_two_clusters(matrix, linkage))
        recorded = {
            "benign": list(program.benign),
            "poisoned": list(program.poisoned),
            "score_1": program.score_1,
            "score_2": program.score_2,
        }
        assert verdict_mismatches([TIE_MATRIX], [recorded], linkage) == []


def test_verdict_mismatches_reports_a_wrong_verdict():
    wrong = {"benign": [0, 1, 2], "poisoned": [3, 4], "score_1": 0.5, "score_2": 2.0}
    problems = verdict_mismatches([TIE_MATRIX], [wrong], "average")
    assert any("benign" in p for p in problems)
    assert any("poisoned" in p for p in problems)


def test_probes_trace_a_small_celtibero_experiment_and_restore_the_program():
    import celtibero
    from celtibero import orchestrator

    original_run_round = orchestrator.Experiment.run_round
    original_diff = celtibero.aggregators.diff
    raw = {
        "dataset": {"kind": "synthetic", "classes": 3, "features": 6, "samples": 240, "test_samples": 60},
        "clients": 6,
        "malicious_fraction": 0.34,
        "participation": [1.0, 1.0],
        "attack": {"kind": "mra", "target_class": 0, "boost_factor": 2.0},
        "aggregator": {"kind": "celtibero", "linkage": "average"},
        "rounds": 2,
        "local_epochs": 1,
        "seed": 3,
    }
    tracer = Tracer()
    probes = Probes(tracer, traced=True)
    probes.install()
    try:
        result = celtibero.run_experiment(celtibero.config_from_dict(raw))
    finally:
        probes.uninstall()
    assert orchestrator.Experiment.run_round is original_run_round
    assert celtibero.aggregators.diff is original_diff

    assert max(self_sum_residuals(tracer.spans)) < 1e-6
    metrics = module_metrics(tracer.spans, 1, result.summary)
    assert metrics["training.train_local_calls"][0] == 6
    assert metrics["attacks.boost_calls"][0] == 2
    assert metrics["clustering.distance_pairs"][0] == 4 * 15
    assert metrics["clustering.merges"][0] == 4 * 4
    assert metrics["model.diff_calls"][0] == 6 + 1
    assert metrics["aggregators.krum_pairs"][0] == 0

    kids = children_index(tracer.spans)
    round0 = next(s for s in tracer.spans if s.name == ROUND)
    (aggregate,) = [s for s in kids[round0.id] if s.name == "aggregators.aggregate"]
    (celtibero_span,) = kids[aggregate.id]
    distance = [s for s in kids[celtibero_span.id] if s.name == "clustering.distance"]
    layers = result.summary["verdict_history"][0]["layers"]
    assert verdict_mismatches([probes.matrices[s.id] for s in distance], layers, "average") == []
