"""Which simulator functions the benchmark wraps, and the per-module metrics
it derives from their spans.

The program itself is untouched: ``install`` rebinds each public function,
in every ``celtibero`` module that imported it, to a span-recording wrapper,
and ``uninstall`` puts the originals back. The untraced run wraps only
``Experiment.__init__`` and ``Experiment.run_round``; the traced run wraps
every function listed in ``_traced_probes``.
"""

from __future__ import annotations

import sys

from spans import Tracer, children_index, in_call_order, layer_gaps, self_time

ROUND = "orchestrator.round"
SETUP = "orchestrator.setup"
LAYERS = 4  # every workload's model is one hidden layer: 2 matrices + 2 biases
# Sum of self times inside a round versus the round's own duration.
SELF_SUM_TOLERANCE_S = 1e-6


def _note_round(span, args, kwargs, result):
    span.counts["participants"] = len(result[1].participants)


def _note_train(span, args, kwargs, result):
    data, cfg = args[1], args[2]
    span.counts["samples"] = data.n * cfg.epochs


def _note_pairs(span, args, kwargs, result):
    n = len(args[0]) if args else len(kwargs["local_models"])
    span.counts["pairs"] = n * (n - 1) // 2


def _note_merges(span, args, kwargs, result):
    span.counts["merges"] = result.n - 2


def _note_emit(span, args, kwargs, result):
    span.counts["bytes"] = sum(path.stat().st_size for path in result)


class Probes:
    """Wrappers installed into the ``celtibero`` package for one run mode."""

    def __init__(self, tracer: Tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.matrices: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _note_distance(self, span, args, kwargs, result):
        span.counts["pairs"] = result.n * (result.n - 1) // 2
        self.matrices[span.id] = result.entries

    def _traced_probes(self):
        from celtibero import aggregators, attacks, clustering, config, data, model
        from celtibero import orchestrator, reports, training

        return [
            (config, "config_from_dict", "config.parse", None),
            (data, "gen_synthetic", "data.generate", None),
            (data, "partition_iid", "data.partition", None),
            (data, "partition_dirichlet", "data.partition", None),
            (training, "init_model", "training.init", None),
            (training, "train_local", "training.train_local", _note_train),
            (training, "evaluate", "training.evaluate", None),
            (attacks, "flip_labels_untargeted", "attacks.poison_data", None),
            (attacks, "flip_labels_targeted", "attacks.poison_data", None),
            (attacks, "embed_trigger", "attacks.poison_data", None),
            (attacks, "boost_update", "attacks.boost", None),
            (attacks, "neurotoxin_mask", "attacks.neurotoxin", None),
            (model, "diff", "model.diff", None),
            (model, "add_update", "model.add_update", None),
            (clustering, "pairwise_cosine_matrix", "clustering.distance", self._note_distance),
            (clustering, "agglomerative_two_clusters", "clustering.agglomerate", _note_merges),
            (clustering, "label_clusters", "clustering.verdict", None),
            (aggregators, "aggregate", "aggregators.aggregate", None),
            (aggregators, "celtibero_aggregate", "aggregators.celtibero", None),
            (aggregators, "fedavg", "aggregators.fedavg", None),
            (aggregators, "coordinate_median", "aggregators.coord_median", None),
            (aggregators, "krum", "aggregators.krum", _note_pairs),
            (aggregators, "median_krum", "aggregators.median_krum", _note_pairs),
            (orchestrator, "sample_participants", "orchestrator.sample", None),
            (orchestrator, "backdoor_success_rate", "orchestrator.backdoor_rate", None),
            (orchestrator, "_summarize", "orchestrator.summarize", None),
            (orchestrator, "run_experiment", "orchestrator.run_experiment", None),
            (reports, "emit_reports", "reports.emit", _note_emit),
        ]

    def install(self) -> None:
        from celtibero.model import ModelWeights
        from celtibero.orchestrator import Experiment

        wrap = self.tracer.wrap
        self._set(Experiment, "__init__", wrap(Experiment.__init__, SETUP))
        self._set(Experiment, "run_round", wrap(Experiment.run_round, ROUND, _note_round))
        if not self.traced:
            return
        built = ModelWeights.__init__
        count = self.tracer.count

        def counted_init(weights, *args, **kwargs):
            count("weights_built")
            built(weights, *args, **kwargs)

        self._set(ModelWeights, "__init__", counted_init)
        for home, attr, name, note in self._traced_probes():
            original = getattr(home, attr)
            wrapper = wrap(original, name, note)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "celtibero":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _descendants(root, kids) -> list:
    out, todo = [], list(kids.get(root.id, ()))
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(kids.get(span.id, ()))
    return out


def self_sum_residuals(spans) -> list[float]:
    """Per round: |sum of self times in the round's subtree - round duration|."""
    kids = children_index(spans)
    residuals = []
    for root in (s for s in spans if s.name == ROUND):
        subtree = [root] + _descendants(root, kids)
        total = sum(self_time(s, kids.get(s.id, ())) for s in subtree)
        residuals.append(abs(total - root.duration))
    return residuals


def detection(summary: dict) -> dict[str, float]:
    """Flagged clients versus the known malicious roster, over every round
    and network layer of a celtibero summary (zeros for other aggregators)."""
    malicious = set(summary["malicious_clients"])
    hits = flags = slots = 0
    for record, participants in zip(summary.get("verdict_history", ()), summary["participants"]):
        attackers = sum(1 for c in participants if c in malicious)
        for layer in record["layers"]:
            flagged = [participants[i] for i in layer["poisoned"]]
            hits += sum(1 for c in flagged if c in malicious)
            flags += len(flagged)
            slots += attackers
    rounds = max(1, summary["rounds_completed"])
    return {
        "clustering.malicious_recall": hits / slots if slots else 0.0,
        "clustering.malicious_slots": slots / rounds,
        "clustering.flag_precision": hits / flags if flags else 0.0,
        "clustering.flags": flags / rounds,
    }


def module_metrics(spans, experiments: int, summary: dict) -> dict[str, tuple[float, str]]:
    """Every per-module metric, as ``name -> (value, unit)``, from the spans
    of ``experiments`` traced experiments. Round metrics are per traced round
    (every ``run_round`` call, reference federations included)."""
    kids = children_index(spans)
    rounds = [s for s in spans if s.name == ROUND]
    n_rounds = max(1, len(rounds))
    in_round = rounds + [d for r in rounds for d in _descendants(r, kids)]
    per_exp = max(1, experiments)

    def named(name, where):
        return [s for s in where if s.name == name]

    def ms_round(*names):
        return 1000.0 * sum(s.duration for n in names for s in named(n, in_round)) / n_rounds

    def ms_exp(name):
        return 1000.0 * sum(s.duration for s in named(name, spans)) / per_exp

    def self_ms(*names):
        chosen = [s for n in names for s in named(n, in_round)]
        return 1000.0 * sum(self_time(s, kids.get(s.id, ())) for s in chosen) / n_rounds

    def count_round(name, key=None):
        chosen = named(name, in_round)
        if key is None:
            return len(chosen) / n_rounds
        return sum(s.counts.get(key, 0) for s in chosen) / n_rounds

    distance_by_layer = [0.0] * LAYERS
    agglomerate_by_layer = [0.0] * LAYERS
    median_by_layer = [0.0] * LAYERS
    for parent in named("aggregators.celtibero", in_round):
        children = kids.get(parent.id, ())
        for k, s in enumerate(in_call_order(children, "clustering.distance")):
            distance_by_layer[k] += s.duration
        for k, s in enumerate(in_call_order(children, "clustering.agglomerate")):
            agglomerate_by_layer[k] += s.duration
        gaps = layer_gaps(parent, children, "clustering.distance", "clustering.verdict")
        for k, gap in enumerate(gaps):
            median_by_layer[k] += gap

    round_s = sum(r.duration for r in rounds)
    aggregate_s = sum(s.duration for s in named("aggregators.aggregate", in_round))
    train_s = sum(s.duration for s in named("training.train_local", in_round))
    samples = sum(s.counts.get("samples", 0) for s in named("training.train_local", in_round))
    weights_built = sum(s.counts.get("weights_built", 0) for s in in_round)

    ms, count, ratio = "ms/round", "count/round", "ratio"
    out = {
        "clustering.distance_ms": (ms_round("clustering.distance"), ms),
        "clustering.distance_pairs": (count_round("clustering.distance", "pairs"), count),
        "clustering.agglomerate_ms": (ms_round("clustering.agglomerate"), ms),
        "clustering.merges": (count_round("clustering.agglomerate", "merges"), count),
        "clustering.verdict_ms": (ms_round("clustering.verdict"), ms),
    }
    for k in range(LAYERS):
        out[f"clustering.distance_ms.L{k}"] = (1000.0 * distance_by_layer[k] / n_rounds, ms)
    for k in range(LAYERS):
        out[f"clustering.agglomerate_ms.L{k}"] = (1000.0 * agglomerate_by_layer[k] / n_rounds, ms)
    for name, value in detection(summary).items():
        out[name] = (value, ratio if name.endswith(("recall", "precision")) else count)
    out.update(
        {
            "aggregators.aggregate_ms": (ms_round("aggregators.aggregate"), ms),
            "aggregators.aggregate_share": (aggregate_s / round_s if round_s else 0.0, ratio),
            "aggregators.celtibero_self_ms": (self_ms("aggregators.celtibero"), ms),
        }
    )
    for k in range(LAYERS):
        out[f"aggregators.median_ms.L{k}"] = (1000.0 * median_by_layer[k] / n_rounds, ms)
    out.update(
        {
            "aggregators.krum_self_ms": (self_ms("aggregators.median_krum", "aggregators.krum"), ms),
            "aggregators.krum_pairs": (
                count_round("aggregators.median_krum", "pairs")
                + count_round("aggregators.krum", "pairs"),
                count,
            ),
            "aggregators.coord_median_ms": (ms_round("aggregators.coord_median"), ms),
            "training.train_local_ms": (ms_round("training.train_local"), ms),
            "training.train_local_calls": (count_round("training.train_local"), count),
            "training.sgd_samples": (samples / n_rounds, count),
            "training.sgd_samples_per_s": (samples / train_s if train_s else 0.0, "1/s"),
            "training.evaluate_ms": (ms_round("training.evaluate"), ms),
            "training.init_ms": (ms_exp("training.init"), "ms/exp"),
            "attacks.boost_ms": (ms_round("attacks.boost"), ms),
            "attacks.boost_calls": (count_round("attacks.boost"), count),
            "attacks.neurotoxin_ms": (ms_round("attacks.neurotoxin"), ms),
            "attacks.neurotoxin_calls": (count_round("attacks.neurotoxin"), count),
            "attacks.poison_data_ms": (ms_exp("attacks.poison_data"), "ms/exp"),
            "model.diff_ms": (ms_round("model.diff"), ms),
            "model.diff_calls": (count_round("model.diff"), count),
            "model.weights_built": (weights_built / n_rounds, count),
            "data.generate_ms": (ms_exp("data.generate"), "ms/exp"),
            "data.partition_ms": (ms_exp("data.partition"), "ms/exp"),
            "config.parse_ms": (ms_exp("config.parse"), "ms/exp"),
            "orchestrator.round_self_ms": (self_ms(ROUND), ms),
            "orchestrator.sample_ms": (ms_round("orchestrator.sample"), ms),
            "orchestrator.backdoor_rate_ms": (ms_round("orchestrator.backdoor_rate"), ms),
            "orchestrator.summarize_ms": (ms_exp("orchestrator.summarize"), "ms/exp"),
            "orchestrator.final_mta": (summary["final_mta"], ratio),
            "orchestrator.final_asr": (summary["final_asr"], ratio),
            "reports.emit_ms": (ms_exp("reports.emit"), "ms/exp"),
            "reports.bytes_written": (
                sum(s.counts.get("bytes", 0) for s in named("reports.emit", spans)) / per_exp,
                "B/exp",
            ),
        }
    )
    return out

