"""Federated round loop: sample participants, train local models (poisoned
where the roster says so), apply model-level manipulations, aggregate, and
score each round on a held-out test set.

Every random decision draws from a stream derived from the master seed plus
a stable label (purpose, round, client), so runs are reproducible end to end
and per-client work is order-independent: clients could train in parallel
and the result would be bit-identical to the sequential loop used here.
"""

from __future__ import annotations

import copy
import logging
import time
import zlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .aggregators import aggregate
from .attacks import (
    _DECAYS, _MODEL_RULES, _SHARE_RULES, REFERENCE_KINDS, TriggerPattern, _check_fits
)
from .clustering import ClusterVerdict
from .config import (
    AttackSpec,
    ExperimentConfig,
    _participant_count,
    config_from_dict,
    config_to_dict,
    malicious_count,
)
from .data import (
    _MNIST_FEATURES,
    LabeledDataset,
    _draw_synthetic,
    _reorder_rows,
    _rows_per_block,
    gen_synthetic,
    load_idx,
    partition_dirichlet,
    partition_iid,
)
from .errors import IdxFormatError, RoundError
from .model import ModelWeights, diff
from .training import (
    EvalResult,
    TrainConfig,
    evaluate,
    init_model,
    predict,
    train_local,
)

__all__ = [
    "FederationState",
    "RoundReport",
    "ExperimentResult",
    "Experiment",
    "sample_participants",
    "backdoor_success_rate",
    "derive_rng",
    "derive_seed",
    "run_experiment",
]

logger = logging.getLogger(__name__)


def _derive_seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    words = [int(master_seed)] + [zlib.crc32(str(p).encode()) for p in path]
    return np.random.SeedSequence(words)


def derive_rng(master_seed: int, *path) -> np.random.Generator:
    """Independent generator for one labeled purpose, e.g.
    ``derive_rng(seed, "train", round_index, client_index)``."""
    return np.random.default_rng(_derive_seed_sequence(master_seed, *path))


def derive_seed(master_seed: int, *path) -> int:
    """Single integer seed derived the same way as :func:`derive_rng`."""
    return int(_derive_seed_sequence(master_seed, *path).generate_state(1)[0])


@dataclass(frozen=True)
class FederationState:
    """What one round hands the next: the round to run, the global model it
    starts from, and the global update the previous round realized (a zero
    update before round 0), which Neurotoxin masks against."""

    round_index: int
    global_model: ModelWeights
    last_update: ModelWeights


@dataclass(frozen=True)
class RoundReport:
    """Metrics for one completed round, evaluated on the held-out test set."""

    round_index: int
    participants: tuple[int, ...]
    mta: float
    per_class: dict[int, float]
    asr: float
    verdicts: tuple[ClusterVerdict, ...] | None
    wall_ms: float


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[RoundReport, ...]
    summary: dict
    reference_reports: tuple[RoundReport, ...] | None


def sample_participants(
    num_clients: int, bounds: tuple[float, float], rng: np.random.Generator
) -> np.ndarray:
    """Draw a participation fraction uniformly from ``bounds``, round it to a
    count (at least 2, at most all), and pick that many distinct clients."""
    low, high = float(bounds[0]), float(bounds[1])
    if not 0.0 < low <= high <= 1.0:
        raise ValueError(f"participation bounds must satisfy 0 < low <= high <= 1, got {bounds}")
    if num_clients < 2:
        raise ValueError(f"need at least 2 clients to sample from, got {num_clients}")
    count = _participant_count(rng.uniform(low, high), num_clients)
    return np.sort(rng.choice(num_clients, size=count, replace=False))


def backdoor_success_rate(
    model: ModelWeights,
    data: LabeledDataset,
    trigger: TriggerPattern,
    activation: str = "relu",
) -> float:
    """Fraction of test samples, excluding those whose true class is already
    the target, classified as the target once the full trigger is stamped in.

    The rows are scored a block of at most ``_ROW_BYTES`` of features at
    a time: each block's non-target rows are gathered, stamped and predicted,
    so no stamped copy of the whole split is held. A trigger position outside
    the feature width or a target class outside the data's classes is
    rejected before any block is scored.
    """
    _check_fits(trigger, data)
    target = trigger.target_class
    positions, values = np.array(trigger.positions), np.array(trigger.values)
    per_block = _rows_per_block(data.features.itemsize * data.d)
    hits = scored = 0
    for start in range(0, data.n, per_block):
        block = slice(start, start + per_block)
        # A boolean-mask gather copies, so the stamp leaves ``data`` as it is.
        rows = data.features[block][data.labels[block] != target]
        rows[:, positions] = values
        hits += int(np.count_nonzero(predict(model, rows, activation) == target))
        scored += rows.shape[0]
    if not scored:
        logger.warning("every test sample belongs to the target class; backdoor rate is 0")
        return 0.0
    return hits / scored


def _load_idx_split(cfg: ExperimentConfig, split: str, subset: int | None) -> LabeledDataset:
    dataset = cfg.dataset
    images = getattr(dataset, f"{split}_images")
    data = load_idx(images, getattr(dataset, f"{split}_labels"))
    if data.d != _MNIST_FEATURES:  # 28 x 28, which the model and default trigger assume
        raise IdxFormatError(f"{images}: feature width {data.d}, mnist_idx needs {_MNIST_FEATURES}")
    if subset is not None and subset < data.n:
        rows = np.sort(
            derive_rng(cfg.seed, "data", f"{split}_subset").choice(data.n, size=subset, replace=False)
        )
        data = LabeledDataset._owning(data.features[rows], data.labels[rows], data.num_classes)
    return data


def _load_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, np.ndarray, LabeledDataset]:
    """The training split as made, the permutation of its rows that puts them
    in sample order, and the test split.

    A synthetic training split comes in draw order, with the sample order
    ``_draw_synthetic`` draws, for ``Experiment`` to move each row once. IDX
    rows are loaded in sample order: their permutation is the identity.
    """
    dataset, master = cfg.dataset, cfg.seed
    if dataset.kind == "synthetic":
        classes, features, separation = dataset.classes, dataset.features, dataset.separation
        rng = derive_rng(master, "data", "train")
        train, shuffle = _draw_synthetic(classes, dataset.samples, features, separation, rng)
        test = gen_synthetic(
            classes, dataset.test_samples, features, separation, derive_rng(master, "data", "test")
        )
        return train, shuffle, test
    train = _load_idx_split(cfg, "train", dataset.train_subset)
    test = _load_idx_split(cfg, "test", dataset.test_subset)
    return train, np.arange(train.n), test


class Experiment:
    """Fully materialized runtime for one experiment.

    Building an Experiment validates the config exactly as the parser does
    (a hand-built config gets every violation listed and its defaults
    materialized), loads/generates the data, partitions it across the
    clients, poisons the malicious clients' shares, initializes the global
    model and builds the one ``TrainConfig`` of every client. The roster is two values: ``shares``, one dataset per
    client (poisoned where the client is malicious), and ``malicious``, the
    set of malicious client indices. The training matrix is kept once, in
    client order, as the shares' common read-only base: each share views
    its client's block of rows, and a backdoor attacker's poisoned rows are
    stamped into its block. ``run`` then executes the configured number of
    rounds.
    """

    def __init__(self, cfg: ExperimentConfig):
        cfg = config_from_dict(config_to_dict(cfg))
        self.cfg = cfg
        master = cfg.seed
        train, shuffle, self.test_data = _load_datasets(cfg)
        classes, rng = train.num_classes, derive_rng(master, "partition")
        # The partition indexes the samples in sample order: the shuffled labels.
        sample_labels = train.labels[shuffle]
        if cfg.partition.kind == "iid":
            partition = partition_iid(sample_labels, classes, cfg.clients, rng)
        else:
            alpha = cfg.partition.alpha
            partition = partition_dirichlet(sample_labels, classes, cfg.clients, alpha, rng)
        roster_order = derive_rng(master, "roster").permutation(cfg.clients)
        attackers = malicious_count(cfg.malicious_fraction, cfg.clients)
        self.malicious = frozenset(int(i) for i in roster_order[:attackers])
        layer_sizes = (train.d, *cfg.architecture.hidden, classes)
        # The training matrix is laid out in client order, in place, and share
        # k views its client's block of rows, bounds[k]:bounds[k + 1]. One
        # reorder moves each row from where it was made straight to its
        # client's block: the sample order's permutation composed with the
        # partition's. Once ``train`` is gone nothing else holds the matrix,
        # and it stays writable until the stamped rows are in. The matrix was
        # range-checked where it was made, and trigger values are checked.
        order = shuffle[np.concatenate(partition)]
        bounds = np.cumsum([0, *(indices.size for indices in partition)])
        features, labels = train.features, train.labels[order]
        del train, shuffle
        features.flags.writeable = True
        _reorder_rows(features, order)
        poison = _SHARE_RULES[cfg.attack.kind]
        # The malicious clients' unpoisoned shares, for the clean reference
        # run: views of their blocks, which stay clean because a reference
        # kind's share rule never changes features.
        self._clean_shares: dict[int, LabeledDataset] = {}
        shares, rank = [], 0
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            share = LabeledDataset._owning(features[a:b], labels[a:b], classes)
            if k in self.malicious:
                if cfg.attack.kind in REFERENCE_KINDS:
                    self._clean_shares[k] = share
                poisoned = poison(share, cfg.attack, rank, derive_rng(master, "attack", k))
                rank += 1
                if poisoned.features is not share.features:
                    # The stamped copy goes into the block, which the poisoned
                    # share views.
                    features[a:b] = poisoned.features
                    poisoned = LabeledDataset._owning(features[a:b], poisoned.labels, classes)
                share = poisoned
            shares.append(share)
        features.flags.writeable = labels.flags.writeable = False
        self.shares = tuple(shares)
        init = np.random.default_rng(derive_seed(master, "init"))
        self.initial_model = init_model(layer_sizes, init)
        training = cfg.training
        self._train_cfg = TrainConfig(training.learning_rate, training.batch_size, cfg.local_epochs)

    def _clean_reference(self) -> Experiment:
        """The no-attack federation of a reference-kind experiment, on this
        experiment's own test set, roster and initial model, with each
        client's clean share (a benign client's is the share it holds here).
        Nothing is regenerated, repartitioned or re-cut."""
        reference = copy.copy(self)
        reference.cfg = replace(self.cfg, attack=AttackSpec(kind="none"))
        reference.shares = tuple(
            self._clean_shares.get(k, share) for k, share in enumerate(self.shares)
        )
        return reference

    def _score(
        self, model: ModelWeights, reference: RoundReport | None
    ) -> tuple[EvalResult, float]:
        """The model's metrics on the test set and its attack success rate in
        [0, 1]: the triggered misclassification rate for a backdoor; the
        relative decay, against the matching ``reference`` round, of the
        accuracy ``attacks._DECAYS`` names for the kind (overall for ulfa,
        source-class for tlfa). A zero reference accuracy scores 0 with a
        warning; every other case, a missing reference included, scores 0."""
        attack, activation = self.cfg.attack, self.cfg.architecture.activation
        metrics = evaluate(model, self.test_data, activation)
        if attack.trigger is not None:
            rate = backdoor_success_rate(model, self.test_data, attack.trigger, activation)
            return metrics, rate
        decay = _DECAYS.get(attack.kind)
        if decay is None or reference is None:
            return metrics, 0.0
        ref_value = decay(reference.mta, reference.per_class, attack)
        value = decay(metrics.accuracy, metrics.per_class, attack)
        if ref_value == 0.0:
            logger.warning(
                "round %d: reference accuracy is zero for %s; "
                "defining attack success rate as 0",
                reference.round_index,
                attack.kind,
            )
            return metrics, 0.0
        return metrics, float(max(0.0, (ref_value - value) / ref_value))

    def initial_state(self) -> FederationState:
        model = self.initial_model
        zero = ModelWeights(model.shapes(), np.zeros(model.flat.size))
        return FederationState(round_index=0, global_model=model, last_update=zero)

    def run_round(
        self, state: FederationState, reference_report: RoundReport | None = None
    ) -> tuple[FederationState, RoundReport]:
        """Execute one round from ``state`` with this experiment's roster and
        master seed, and return the next state and the round's report. For a
        kind in ``REFERENCE_KINDS`` ``reference_report`` must carry the
        matching round of the no-attack reference run.
        """
        cfg = self.cfg
        started = time.perf_counter()
        t = state.round_index
        if cfg.attack.kind in REFERENCE_KINDS and reference_report is None:
            raise RoundError(f"round {t}: {cfg.attack.kind} needs the matching reference round")
        participants = sample_participants(
            cfg.clients, cfg.participation, derive_rng(cfg.seed, "participants", t)
        )
        model_rule, activation = _MODEL_RULES.get(cfg.attack.kind), cfg.architecture.activation
        local_models = []
        for i in participants:
            k = int(i)
            rng = np.random.default_rng(derive_seed(cfg.seed, "train", t, k))
            try:
                local = train_local(
                    state.global_model, self.shares[k], self._train_cfg, rng, activation
                )
                if k in self.malicious and model_rule is not None:
                    local = model_rule(
                        local, state.global_model, state.last_update, cfg.attack, len(participants)
                    )
            except ValueError as exc:
                raise RoundError(f"round {t}: client {k} failed: {exc}") from exc
            local_models.append(local)
        try:
            new_global, verdicts = aggregate(cfg.aggregator, state.global_model, local_models)
        except ValueError as exc:
            raise RoundError(
                f"round {t}: aggregation failed with {len(local_models)} participants: {exc}"
            ) from exc
        metrics, asr = self._score(new_global, reference_report)
        next_state = FederationState(t + 1, new_global, diff(new_global, state.global_model))
        wall_ms = (time.perf_counter() - started) * 1000.0
        report = RoundReport(
            round_index=t,
            participants=tuple(int(i) for i in participants),
            mta=metrics.accuracy,
            per_class=dict(metrics.per_class),
            asr=asr,
            verdicts=verdicts,
            wall_ms=wall_ms,
        )
        return next_state, report

    def run(
        self, reference_reports: tuple[RoundReport, ...] | None = None
    ) -> tuple[RoundReport, ...]:
        """Run every round; ``reference_reports``, if given, holds one
        reference round per configured round."""
        if reference_reports is not None and len(reference_reports) != self.cfg.rounds:
            raise RoundError(
                f"{len(reference_reports)} reference rounds for {self.cfg.rounds} rounds"
            )
        state = self.initial_state()
        reports = []
        for t in range(self.cfg.rounds):
            reference = reference_reports[t] if reference_reports else None
            state, report = self.run_round(state, reference)
            reports.append(report)
        return tuple(reports)


def _summarize(
    experiment: Experiment,
    reports: tuple[RoundReport, ...],
    reference_reports: tuple[RoundReport, ...] | None,
) -> dict:
    cfg = experiment.cfg
    initial_metrics, final_asr = experiment._score(experiment.initial_model, None)
    final_mta = initial_metrics.accuracy
    if reports:
        final_mta, final_asr = reports[-1].mta, reports[-1].asr
    summary: dict = {
        "config": config_to_dict(cfg),
        "rounds_completed": len(reports),
        "initial_mta": initial_metrics.accuracy,
        "final_mta": final_mta,
        "final_asr": final_asr,
        "malicious_clients": sorted(experiment.malicious),
        "mta_series": [r.mta for r in reports],
        "asr_series": [r.asr for r in reports],
        "participants": [list(r.participants) for r in reports],
    }
    if cfg.attack.trigger is not None:
        summary["trigger"] = asdict(cfg.attack.trigger)
    if cfg.aggregator.kind == "celtibero":
        summary["verdict_history"] = [
            {"round": r.round_index, "layers": [asdict(v) for v in r.verdicts]}
            for r in reports
        ]
    if reference_reports is not None:
        summary["reference"] = {
            "mta_series": [r.mta for r in reference_reports],
            "final_mta": reference_reports[-1].mta if reference_reports else initial_metrics.accuracy,
        }
    return summary


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the configured federation end to end.

    Kinds in ``REFERENCE_KINDS`` automatically execute the paired no-attack
    reference run first (same master seed, same roster, attack disabled) so
    per-round success rates compare matched rounds. The reference shares the
    experiment's data: its test set and initial model, and
    each client's clean share; no data is built twice.
    """
    experiment = Experiment(cfg)
    reference_reports = None
    if experiment.cfg.attack.kind in REFERENCE_KINDS:
        reference_reports = experiment._clean_reference().run()
    reports = experiment.run(reference_reports)
    summary = _summarize(experiment, reports, reference_reports)
    return ExperimentResult(
        reports=reports, summary=summary, reference_reports=reference_reports
    )
