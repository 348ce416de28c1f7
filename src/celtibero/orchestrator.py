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
    BACKDOOR_KINDS,
    AttackSpec,
    TriggerPattern,
    boost_update,
    embed_trigger,
    flip_labels_targeted,
    flip_labels_untargeted,
    neurotoxin_mask,
    split_trigger,
)
from .clustering import ClusterVerdict
from .config import (
    ExperimentConfig,
    _participant_count,
    config_from_dict,
    config_to_dict,
    malicious_count,
)
from .data import LabeledDataset, gen_synthetic, load_idx, partition_dirichlet, partition_iid
from .errors import RoundError
from .model import ModelWeights, add_update, diff
from .training import (
    EvalResult,
    NetworkArchitecture,
    TrainConfig,
    evaluate,
    init_model,
    predict,
    train_local,
)

__all__ = [
    "ClientSpec",
    "FederationState",
    "RoundReport",
    "ExperimentResult",
    "Experiment",
    "sample_participants",
    "backdoor_success_rate",
    "run_experiment",
]

logger = logging.getLogger(__name__)

# Attacks scored against a clean reference federation.
_FLIP_KINDS = ("ulfa", "tlfa")


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
class ClientSpec:
    """One roster entry: the client's (possibly poisoned) local data."""

    index: int
    malicious: bool
    data: LabeledDataset


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

    def __post_init__(self) -> None:
        if not 0.0 <= self.mta <= 1.0:
            raise ValueError(f"mta must lie in [0, 1], got {self.mta}")
        if not 0.0 <= self.asr <= 1.0:
            raise ValueError(f"asr must lie in [0, 1], got {self.asr}")


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


def _stamped_rows(data: LabeledDataset, trigger: TriggerPattern) -> np.ndarray:
    """The rows of ``data`` whose class is not the trigger's target, with the
    full trigger stamped in: one read-only copy, possibly with no rows."""
    features = data.features[data.labels != trigger.target_class]
    features[:, np.array(trigger.positions)] = np.array(trigger.values)
    features.flags.writeable = False
    return features


def backdoor_success_rate(
    model: ModelWeights,
    data: LabeledDataset,
    trigger: TriggerPattern,
    activation: str = "relu",
    *,
    stamped: np.ndarray | None = None,
) -> float:
    """Fraction of test samples, excluding those whose true class is already
    the target, classified as the target once the full trigger is stamped in.

    ``stamped``, the rows ``_stamped_rows(data, trigger)`` builds, saves
    rebuilding them; an ``Experiment`` builds them once for all its rounds.
    """
    if stamped is None:
        stamped = _stamped_rows(data, trigger)
    if not len(stamped):
        logger.warning("every test sample belongs to the target class; backdoor rate is 0")
        return 0.0
    preds = predict(model, stamped, activation)
    return float((preds == trigger.target_class).mean())


def _load_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    dataset, master = cfg.dataset, cfg.seed
    splits = []
    for split, samples, subset in (
        ("train", dataset.samples, dataset.train_subset),
        ("test", dataset.test_samples, dataset.test_subset),
    ):
        if dataset.kind == "synthetic":
            data = gen_synthetic(
                dataset.classes,
                samples,
                dataset.features,
                dataset.separation,
                derive_rng(master, "data", split),
            )
        else:
            data = load_idx(
                getattr(dataset, f"{split}_images"), getattr(dataset, f"{split}_labels")
            )
            if subset is not None and subset < data.n:
                pick = derive_rng(master, "data", f"{split}_subset").choice(
                    data.n, size=subset, replace=False
                )
                data = data.subset(np.sort(pick))
        splits.append(data)
    return splits[0], splits[1]


def _poison_client_data(
    data: LabeledDataset,
    attack: AttackSpec,
    attacker_rank: int,
    sub_triggers: tuple[TriggerPattern, ...],
    rng: np.random.Generator,
) -> LabeledDataset:
    if attack.kind == "ulfa":
        return flip_labels_untargeted(data, attack.flip_fraction, rng)
    if attack.kind == "tlfa":
        return flip_labels_targeted(data, attack.source_class, attack.target_class)
    if attack.kind in ("mra", "neurotoxin"):
        return embed_trigger(data, attack.trigger, attack.poison_fraction, rng)
    if attack.kind == "dba":
        piece = sub_triggers[attacker_rank % len(sub_triggers)]
        return embed_trigger(data, piece, attack.poison_fraction, rng)
    return data


class Experiment:
    """Fully materialized runtime for one experiment.

    Building an Experiment validates the config exactly as the parser does
    (a hand-built config gets every violation listed and its defaults
    materialized), loads/generates the data, partitions it across the roster,
    poisons the malicious clients' shares, and initializes the global model.
    Only the shares are kept, not the full training set. ``run`` then
    executes the configured number of rounds.
    """

    def __init__(self, cfg: ExperimentConfig):
        cfg = config_from_dict(config_to_dict(cfg))
        self.cfg = cfg
        master = cfg.seed
        train, self.test_data = _load_datasets(cfg)
        if cfg.partition.kind == "iid":
            partition = partition_iid(train, cfg.clients, derive_rng(master, "partition"))
        else:
            partition = partition_dirichlet(
                train, cfg.clients, cfg.partition.alpha, derive_rng(master, "partition")
            )
        attackers = malicious_count(cfg)
        roster_order = derive_rng(master, "roster").permutation(cfg.clients)
        malicious_ids = set(int(i) for i in roster_order[:attackers])
        sub_triggers: tuple[TriggerPattern, ...] = ()
        if cfg.attack.kind == "dba" and attackers:
            sub_triggers = split_trigger(cfg.attack.trigger, cfg.attack.dba_fragments)
        clients = []
        # The malicious clients' unpoisoned shares, for the clean reference run.
        self._clean_shares: dict[int, LabeledDataset] = {}
        rank = 0
        for k in range(cfg.clients):
            share = train.subset(partition.assignments[k])
            malicious = k in malicious_ids
            if malicious:
                if cfg.attack.kind in _FLIP_KINDS:
                    self._clean_shares[k] = share
                share = _poison_client_data(
                    share, cfg.attack, rank, sub_triggers, derive_rng(master, "attack", k)
                )
                rank += 1
            clients.append(ClientSpec(index=k, malicious=malicious, data=share))
        self.clients = tuple(clients)
        self.architecture = NetworkArchitecture(
            layer_sizes=(train.d, *cfg.architecture.hidden, train.num_classes),
            activation=cfg.architecture.activation,
            seed=derive_seed(master, "init"),
        )
        del train  # released before the stamped test rows are built
        self.initial_model = init_model(self.architecture)
        self._stamped = None
        if cfg.attack.kind in BACKDOOR_KINDS:
            self._stamped = _stamped_rows(self.test_data, cfg.attack.trigger)

    def _clean_reference(self) -> Experiment:
        """The no-attack federation of a label-flip experiment, on this
        experiment's own test set, roster, architecture and initial model,
        with each client's clean share (a benign client's is its ``data``).
        Nothing is regenerated, repartitioned or re-cut."""
        reference = copy.copy(self)
        reference.cfg = replace(self.cfg, attack=AttackSpec(kind="none"))
        reference.clients = tuple(
            replace(c, data=self._clean_shares.get(c.index, c.data)) for c in self.clients
        )
        return reference

    def _score(
        self, model: ModelWeights, reference: RoundReport | None
    ) -> tuple[EvalResult, float]:
        """The model's metrics on the test set and its attack success rate in
        [0, 1]: the triggered misclassification rate for a backdoor; the
        relative decay, against the matching ``reference`` round, of overall
        accuracy for ulfa and of source-class accuracy for tlfa. A zero
        reference accuracy scores 0 with a warning; every other case, a
        label flip without a reference included, scores 0."""
        attack, activation = self.cfg.attack, self.cfg.architecture.activation
        metrics = evaluate(model, self.test_data, activation)
        if attack.kind in BACKDOOR_KINDS:
            return metrics, backdoor_success_rate(
                model, self.test_data, attack.trigger, activation, stamped=self._stamped
            )
        if attack.kind not in _FLIP_KINDS or reference is None:
            return metrics, 0.0
        if attack.kind == "ulfa":
            ref_value, value = reference.mta, metrics.accuracy
        else:
            ref_value = reference.per_class.get(attack.source_class, 0.0)
            value = metrics.per_class.get(attack.source_class, 0.0)
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
        master seed, and return the next state and the round's report. For
        label-flipping attacks ``reference_report`` must carry the matching
        round of the no-attack reference run.
        """
        cfg = self.cfg
        started = time.perf_counter()
        t = state.round_index
        if cfg.attack.kind in _FLIP_KINDS and reference_report is None:
            raise RoundError(f"round {t}: {cfg.attack.kind} needs the matching reference round")
        participants = sample_participants(
            cfg.clients, cfg.participation, derive_rng(cfg.seed, "participants", t)
        )
        local_models = []
        for i in participants:
            client = self.clients[int(i)]
            train_cfg = TrainConfig(
                learning_rate=cfg.training.learning_rate,
                batch_size=cfg.training.batch_size,
                epochs=cfg.local_epochs,
                seed=derive_seed(cfg.seed, "train", t, client.index),
            )
            try:
                local = train_local(
                    state.global_model, client.data, train_cfg, cfg.architecture.activation
                )
                if client.malicious and cfg.attack.kind == "mra":
                    gamma = cfg.attack.boost_factor
                    if gamma is None:
                        gamma = float(len(participants))
                    local = boost_update(local, state.global_model, gamma)
                elif client.malicious and cfg.attack.kind == "neurotoxin":
                    masked = neurotoxin_mask(
                        diff(local, state.global_model), state.last_update, cfg.attack.mask_ratio
                    )
                    local = add_update(state.global_model, masked)
            except ValueError as exc:
                raise RoundError(f"round {t}: client {client.index} failed: {exc}") from exc
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
    if reports:
        initial_metrics = evaluate(
            experiment.initial_model, experiment.test_data, cfg.architecture.activation
        )
        final_mta, final_asr = reports[-1].mta, reports[-1].asr
    else:
        initial_metrics, final_asr = experiment._score(experiment.initial_model, None)
        final_mta = initial_metrics.accuracy
    summary: dict = {
        "config": config_to_dict(cfg),
        "rounds_completed": len(reports),
        "initial_mta": initial_metrics.accuracy,
        "final_mta": final_mta,
        "final_asr": final_asr,
        "malicious_clients": sorted(c.index for c in experiment.clients if c.malicious),
        "mta_series": [r.mta for r in reports],
        "asr_series": [r.asr for r in reports],
        "participants": [list(r.participants) for r in reports],
    }
    if cfg.attack.kind in BACKDOOR_KINDS:
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

    Label-flipping attacks automatically execute the paired no-attack
    reference run first (same master seed, same roster, attack disabled) so
    per-round success rates compare matched rounds. The reference shares the
    experiment's data: its test set, architecture and initial model, and
    each client's clean share; no data is built twice.
    """
    experiment = Experiment(cfg)
    reference_reports = None
    if experiment.cfg.attack.kind in _FLIP_KINDS:
        reference_reports = experiment._clean_reference().run()
    reports = experiment.run(reference_reports)
    summary = _summarize(experiment, reports, reference_reports)
    return ExperimentResult(
        reports=reports, summary=summary, reference_reports=reference_reports
    )
