"""Federated-learning poisoning simulator built around a layered robust
aggregator: per-layer cosine-distance clustering picks a benign client set
and a coordinate-wise median advances the global model.

The package also ships baseline aggregators (FedAvg, coordinate-wise median,
Krum, Median-Krum), five poisoning attacks (untargeted/targeted label
flipping, boosted model replacement, distributed backdoors, masked stealth
backdoors), IDX and synthetic data handling, a self-contained dense-network
trainer, and a config-driven experiment loop with per-round metrics.
"""

# Each module declares its public names once, in its ``__all__``; the package
# re-exports them (``cli`` is a command, not API).
from .aggregators import *
from .attacks import *
from .clustering import *
from .config import *
from .data import *
from .errors import *
from .model import *
from .orchestrator import *
from .reports import *
from .training import *

__all__ = (
    aggregators.__all__
    + attacks.__all__
    + clustering.__all__
    + config.__all__
    + data.__all__
    + errors.__all__
    + model.__all__
    + orchestrator.__all__
    + reports.__all__
    + training.__all__
)

__version__ = "0.1.0"
