"""Federated-learning poisoning simulator built around a layered robust
aggregator: per-layer cosine-distance clustering picks a benign client set
and a coordinate-wise median advances the global model.

The package also ships baseline aggregators (FedAvg, coordinate-wise median,
Krum, Median-Krum), five poisoning attacks (untargeted/targeted label
flipping, boosted model replacement, distributed backdoors, masked stealth
backdoors), IDX and synthetic data handling, a self-contained dense-network
trainer, and a config-driven experiment loop with per-round metrics.
"""

from .aggregators import (
    AGGREGATOR_NAMES,
    aggregate,
    celtibero_aggregate,
    coordinate_median,
    fedavg,
    krum,
    median_krum,
)
from .attacks import (
    ATTACK_KINDS,
    BACKDOOR_KINDS,
    AttackSpec,
    TriggerPattern,
    boost_update,
    embed_trigger,
    flip_labels_targeted,
    flip_labels_untargeted,
    make_default_trigger,
    neurotoxin_mask,
    split_trigger,
)
from .clustering import (
    LINKAGES,
    ClusterAssignment,
    ClusterVerdict,
    DistanceMatrix,
    agglomerative_two_clusters,
    label_clusters,
    pairwise_cosine_matrix,
)
from .config import (
    AggregatorConfig,
    ArchitectureConfig,
    DatasetConfig,
    ExperimentConfig,
    PartitionConfig,
    TrainingConfig,
    config_from_dict,
    config_to_dict,
    malicious_count,
    parse_config,
)
from .data import (
    LabeledDataset,
    Partition,
    gen_synthetic,
    load_idx,
    partition_dirichlet,
    partition_iid,
)
from .errors import ConfigError, IdxFormatError, RoundError, ShapeMismatchError
from .model import (
    LayerShape,
    ModelWeights,
    add_update,
    diff,
)
from .orchestrator import (
    ClientSpec,
    Experiment,
    ExperimentResult,
    FederationState,
    RoundReport,
    backdoor_success_rate,
    derive_rng,
    derive_seed,
    run_experiment,
    sample_participants,
)
from .reports import CSV_HEADER, emit_reports
from .training import (
    ACTIVATIONS,
    EvalResult,
    NetworkArchitecture,
    TrainConfig,
    evaluate,
    init_model,
    predict,
    train_local,
)

__version__ = "0.1.0"
